//! Keys, values and the pre-generated operation streams.
//!
//! The program under test receives only generated inputs: a stream is built
//! once per workload from `--seed`, before any timing, and every repetition
//! replays it unchanged. The generator is also the oracle: it tracks which
//! churn keys are present, so the outcome of every operation in the stream
//! is known (every one succeeds) and so is the key count afterwards.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use synchro::Zipf;

/// Worker threads (= closed-loop clients). The host has 2 vCPUs.
pub const THREADS: usize = 2;

/// Odd, so multiplication is a bijection on `u64` that keeps the low bit.
const SCATTER: u64 = 0x9E37_79B1_85EB_CA87;

/// The preloaded key of Zipf/uniform rank `rank`. Preloaded keys are even
/// and are never removed, so every read has a known answer.
pub fn preload_key(rank: u64) -> u64 {
    (2 * rank).wrapping_mul(SCATTER)
}

/// Churn key number `j` of `thread`. Churn keys are odd and private to one
/// thread, so that thread's inserts and removes have known outcomes whatever
/// the other thread does.
pub fn churn_key(thread: usize, j: u32) -> u64 {
    (2 * (j as u64 * THREADS as u64 + thread as u64) + 1).wrapping_mul(SCATTER)
}

/// Whether `key` is a preloaded (even) key.
pub fn is_preload_key(key: u64) -> bool {
    key & 1 == 0
}

/// The value stored under `key`: a pure function of the key, which keeps
/// the replicated map's value caveat (ARCHITECTURE §8) out of the oracle.
pub fn value_of(key: u64) -> u64 {
    key.rotate_left(29) ^ 0x5DEE_CE66_D1CE_CAFE
}

/// Churn keys of each thread inserted during preload, so removes have
/// something to pick from at once.
pub fn initial_churn(keys: u64) -> u32 {
    (keys / 128).max(64) as u32
}

pub const OP_GET: u32 = 0;
pub const OP_INSERT: u32 = 1;
pub const OP_REMOVE: u32 = 2;
pub const OP_SCAN: u32 = 3;
const PAYLOAD_BITS: u32 = 30;
const PAYLOAD_MASK: u32 = (1 << PAYLOAD_BITS) - 1;

/// One operation in 4 bytes: opcode in the top 2 bits; the payload is a key
/// rank (get, scan) or a churn key number (insert, remove).
pub fn encode(opcode: u32, payload: u32) -> u32 {
    assert!(
        payload <= PAYLOAD_MASK,
        "payload {payload} needs more than 30 bits"
    );
    opcode << PAYLOAD_BITS | payload
}

/// Inverse of [`encode`].
#[inline(always)]
pub fn decode(op: u32) -> (u32, u32) {
    (op >> PAYLOAD_BITS, op & PAYLOAD_MASK)
}

/// The keys the reads (gets and scans) of `ops` ask for, in stream order.
pub fn read_keys(ops: &[u32]) -> impl Iterator<Item = u64> + '_ {
    ops.iter().filter_map(|&op| match decode(op) {
        (OP_GET | OP_SCAN, rank) => Some(preload_key(rank as u64)),
        _ => None,
    })
}

/// How read keys are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dist {
    /// Zipf with the given exponent over the preloaded ranks (YCSB: 0.99).
    Zipf(f64),
    Uniform,
}

/// The shape of one workload's stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamSpec {
    /// Preloaded keys (ranks `0..keys`).
    pub keys: u64,
    pub ops_per_thread: usize,
    /// Reads per 1000 operations.
    pub read_permille: u32,
    /// Inserts per 1000 operations; the rest are removes.
    pub insert_permille: u32,
    /// The read is a short scan from the drawn key instead of a point get.
    pub scan: bool,
    pub dist: Dist,
}

/// One thread's operations and what they leave behind.
#[derive(Debug, PartialEq)]
pub struct ThreadStream {
    pub ops: Vec<u32>,
    pub inserts: u64,
    pub removes: u64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn generate_thread(spec: &StreamSpec, seed: u64, thread: usize) -> ThreadStream {
    assert!(spec.keys > 0 && spec.keys <= PAYLOAD_MASK as u64);
    assert!(spec.read_permille + spec.insert_permille <= 1000);
    let mut rng = SmallRng::seed_from_u64(splitmix(seed ^ splitmix(thread as u64 + 1)));
    let zipf = match spec.dist {
        Dist::Zipf(alpha) => Some(Zipf::new(spec.keys, alpha)),
        Dist::Uniform => None,
    };
    let read_op = if spec.scan { OP_SCAN } else { OP_GET };
    // Churn key numbers currently in the map. An insert always takes a
    // never-used number, so it links a fresh node (not a resurrection of a
    // lazily removed one): both write classes stay unimodal.
    let mut present: Vec<u32> = (0..initial_churn(spec.keys)).collect();
    let mut next = present.len() as u32;
    let mut last_was_insert = false;
    let (mut inserts, mut removes) = (0, 0);
    let mut ops = Vec::with_capacity(spec.ops_per_thread);
    for _ in 0..spec.ops_per_thread {
        let roll = rng.gen_range(0..1000u32);
        if roll < spec.read_permille {
            let rank = match &zipf {
                Some(z) => z.sample(&mut rng),
                None => rng.gen_range(0..spec.keys),
            };
            ops.push(encode(read_op, rank as u32));
            continue;
        }
        // A remove takes a random present key, but not the one the previous
        // write just inserted (that would measure a hot, just-linked node).
        let removable = present.len() - last_was_insert as usize;
        if roll < spec.read_permille + spec.insert_permille || removable == 0 {
            ops.push(encode(OP_INSERT, next));
            present.push(next);
            next += 1;
            inserts += 1;
            last_was_insert = true;
        } else {
            let j = present.swap_remove(rng.gen_range(0..removable));
            ops.push(encode(OP_REMOVE, j));
            removes += 1;
            last_was_insert = false;
        }
    }
    ThreadStream {
        ops,
        inserts,
        removes,
    }
}

/// Builds the per-thread streams for `seed` (one generator thread each; the
/// result depends only on `spec` and `seed`).
pub fn generate(spec: &StreamSpec, seed: u64) -> Vec<ThreadStream> {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| s.spawn(move || generate_thread(spec, seed, t)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("stream generator panicked"))
            .collect()
    })
}

/// Keys in the map once the preload and every stream have been applied.
pub fn live_keys_after(spec: &StreamSpec, streams: &[ThreadStream]) -> u64 {
    let churn: u64 = streams
        .iter()
        .map(|s| initial_churn(spec.keys) as u64 + s.inserts - s.removes)
        .sum();
    spec.keys + churn
}

/// FNV-1a over every thread's operations: identifies a stream.
pub fn stream_hash(streams: &[ThreadStream]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for s in streams {
        for &op in &s.ops {
            for b in op.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn spec(scan: bool, dist: Dist, read: u32, insert: u32) -> StreamSpec {
        StreamSpec {
            keys: 1 << 10,
            ops_per_thread: 20_000,
            read_permille: read,
            insert_permille: insert,
            scan,
            dist,
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let s = spec(false, Dist::Zipf(0.99), 950, 25);
        let (a, b, c) = (generate(&s, 7), generate(&s, 7), generate(&s, 8));
        assert_eq!(a, b);
        assert_eq!(stream_hash(&a), stream_hash(&b));
        assert_ne!(stream_hash(&a), stream_hash(&c));
        assert_ne!(a[0].ops, a[1].ops, "threads draw different streams");
    }

    #[test]
    fn a_shorter_stream_is_a_prefix() {
        let long = spec(false, Dist::Uniform, 500, 250);
        let short = StreamSpec {
            ops_per_thread: 4_000,
            ..long
        };
        let (l, s) = (generate(&long, 3), generate(&short, 3));
        for t in 0..THREADS {
            assert_eq!(l[t].ops[..4_000], s[t].ops[..]);
        }
    }

    #[test]
    fn keys_are_disjoint_by_parity_and_thread() {
        assert!(is_preload_key(preload_key(12345)));
        assert!(!is_preload_key(churn_key(0, 9)));
        assert_ne!(churn_key(0, 5), churn_key(1, 5));
        assert_ne!(preload_key(1), preload_key(2));
    }

    /// Replays the streams, interleaved, against a `BTreeMap` and checks
    /// that every operation has the outcome the harness will demand of the
    /// structures: reads hit, inserts find the key absent, removes find it
    /// present, and the final size is the predicted one.
    fn replay_against_model(s: &StreamSpec, seed: u64) {
        let streams = generate(s, seed);
        let mut model = BTreeMap::new();
        for rank in 0..s.keys {
            assert!(model.insert(preload_key(rank), ()).is_none());
        }
        for t in 0..THREADS {
            for j in 0..initial_churn(s.keys) {
                assert!(model.insert(churn_key(t, j), ()).is_none());
            }
        }
        let mut last_insert = [None; THREADS];
        for i in 0..s.ops_per_thread {
            for (t, stream) in streams.iter().enumerate() {
                let (opcode, payload) = decode(stream.ops[i]);
                match opcode {
                    OP_GET | OP_SCAN => {
                        assert_eq!(opcode == OP_SCAN, s.scan);
                        assert!(model.contains_key(&preload_key(payload as u64)));
                    }
                    OP_INSERT => {
                        assert!(model.insert(churn_key(t, payload), ()).is_none());
                        last_insert[t] = Some(payload);
                    }
                    _ => {
                        assert_ne!(last_insert[t], Some(payload), "removed the fresh key");
                        assert!(model.remove(&churn_key(t, payload)).is_some());
                        last_insert[t] = None;
                    }
                }
            }
        }
        assert_eq!(model.len() as u64, live_keys_after(s, &streams));
    }

    #[test]
    fn predicted_outcomes_match_a_btreemap_replay() {
        replay_against_model(&spec(false, Dist::Zipf(0.99), 950, 25), 1);
        replay_against_model(&spec(false, Dist::Uniform, 500, 250), 2);
        replay_against_model(&spec(true, Dist::Zipf(0.99), 950, 25), 3);
        // Remove-heavy: exhausts the present set and falls back to inserts.
        replay_against_model(&spec(false, Dist::Uniform, 0, 100), 4);
    }

    #[test]
    fn mix_follows_the_permille() {
        let s = spec(false, Dist::Uniform, 500, 250);
        let streams = generate(&s, 5);
        let reads = streams[0]
            .ops
            .iter()
            .filter(|&&op| decode(op).0 == OP_GET)
            .count();
        assert!((9_500..10_500).contains(&reads), "{reads} reads of 20000");
        assert!((4_500..5_500).contains(&(streams[0].inserts as usize)));
    }
}
