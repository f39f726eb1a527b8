//! Arena chunks of 2 MiB or more sit on 2 MiB pages; smaller ones keep
//! base pages and line alignment.
//!
//! The page check reads `/proc/self/smaps`: after the first allocation
//! touches a large chunk, the mapping that holds it reports
//! `AnonHugePages` above zero. It runs on Linux unless transparent huge
//! pages are off (`/sys/kernel/mm/transparent_hugepage/enabled` reads
//! `[never]` or is missing); then the test prints why and checks alignment
//! only.

use numa::arena::{Arena, CACHE_LINE, HUGE_PAGE};

/// Why the kernel cannot be expected to back an advised chunk with huge
/// pages, if it cannot.
fn huge_pages_unavailable() -> Option<String> {
    if !cfg!(target_os = "linux") {
        return Some("not Linux".into());
    }
    let path = "/sys/kernel/mm/transparent_hugepage/enabled";
    match std::fs::read_to_string(path) {
        Ok(mode) if mode.contains("[never]") => Some(format!("{path} reads {}", mode.trim())),
        Ok(_) => None,
        Err(e) => Some(format!("{path}: {e}")),
    }
}

/// `AnonHugePages` of the mapping holding `addr`, in kB.
fn anon_huge_kb(addr: usize) -> Option<u64> {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("/proc/self/smaps");
    let mut inside = false;
    for line in smaps.lines() {
        let range = line
            .split_whitespace()
            .next()
            .and_then(|r| r.split_once('-'));
        let bounds = range.and_then(|(lo, hi)| {
            Some((
                usize::from_str_radix(lo, 16).ok()?,
                usize::from_str_radix(hi, 16).ok()?,
            ))
        });
        if let Some((lo, hi)) = bounds {
            inside = (lo..hi).contains(&addr);
        } else if let Some(kb) = line.strip_prefix("AnonHugePages:").filter(|_| inside) {
            return kb.trim().trim_end_matches("kB").trim().parse().ok();
        }
    }
    None
}

#[test]
fn a_chunk_of_a_huge_page_or_more_starts_on_one_and_is_backed_by_them() {
    // A 4 MiB chunk: two whole 2 MiB pages.
    let arena: Arena<[u8; 64]> = Arena::with_chunk_capacity(0, 2 * HUGE_PAGE / 64);
    let first = arena.alloc([1; 64]).as_ptr() as usize;
    assert_eq!(
        first % HUGE_PAGE,
        0,
        "a 4 MiB chunk does not start on a 2 MiB boundary"
    );
    match huge_pages_unavailable() {
        Some(why) => println!("AnonHugePages check skipped: {why}"),
        None => {
            let kb = anon_huge_kb(first).expect("no mapping in /proc/self/smaps holds the chunk");
            assert!(
                kb > 0,
                "the touched chunk's mapping reports AnonHugePages: {kb} kB"
            );
        }
    }
}

#[test]
fn a_chunk_under_a_huge_page_keeps_line_alignment() {
    let arena: Arena<[u8; 64]> = Arena::with_chunk_capacity(0, HUGE_PAGE / 64 - 1);
    for _ in 0..3 {
        let first = arena.alloc([1; 64]).as_ptr() as usize;
        assert_eq!(
            first % CACHE_LINE,
            0,
            "a chunk under 2 MiB is not line-aligned"
        );
        // Fill the chunk so the next allocation maps a new one.
        for _ in 1..HUGE_PAGE / 64 - 1 {
            arena.alloc([0; 64]);
        }
    }
    assert_eq!(arena.chunk_count(), 3);
}
