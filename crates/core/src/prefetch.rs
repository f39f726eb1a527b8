//! Software prefetch for pointer-chasing traversals.
//!
//! `search_from` / `skip_chain` issue a prefetch for the successor node as
//! soon as its address is known, so the line transfer overlaps with the
//! current node's key comparison (the "foresight" trick from
//! locality-optimized skiplists; see PAPERS.md). With the truncated-node
//! layout a data node's hot header fits one line, so a single prefetch
//! covers the whole next traversal step.
//!
//! The hint is compiled out:
//! * under the `deterministic` feature — schedules must not depend on
//!   microarchitectural state, and yield-point interleavings make the
//!   latency overlap meaningless anyway;
//! * under Miri — no target intrinsics there;
//! * on targets without a known prefetch instruction (no-op fallback).

/// Best-effort read-prefetch of the cache line holding `*ptr`. Never
/// dereferences; safe to call with any pointer value, including null or
/// dangling (prefetch instructions ignore faulting addresses).
#[inline(always)]
pub(crate) fn prefetch_read<T>(ptr: *const T) {
    #[cfg(all(target_arch = "x86_64", not(miri), not(feature = "deterministic")))]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(ptr as *const i8);
    }
    #[cfg(all(target_arch = "aarch64", not(miri), not(feature = "deterministic")))]
    unsafe {
        std::arch::asm!(
            "prfm pldl1keep, [{p}]",
            p = in(reg) ptr,
            options(nostack, readonly, preserves_flags)
        );
    }
    #[cfg(any(
        not(any(target_arch = "x86_64", target_arch = "aarch64")),
        miri,
        feature = "deterministic"
    ))]
    {
        let _ = ptr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_tolerates_any_pointer() {
        prefetch_read::<u64>(std::ptr::null());
        prefetch_read(&42u64 as *const u64);
        prefetch_read(usize::MAX as *const u64); // non-canonical / faulting
    }
}
