//! The closed loop: one worker issues its stream's operations one after
//! another, checks each outcome against the oracle, and times a sample.

use crate::stream::{
    churn_key, decode, is_preload_key, preload_key, value_of, OP_GET, OP_INSERT, OP_REMOVE, OP_SCAN,
};
use crate::target::{Ops, BATCH};
use skipgraph::{BatchOp, BatchOutcome};
use std::time::Instant;

/// Every `LAT_EVERY`-th operation is timed with an `Instant` pair.
pub const LAT_EVERY: usize = 16;
/// In a traced run, every `SPAN_EVERY`-th timed operation keeps a span.
const SPAN_EVERY: usize = 64;

/// Latency classes.
pub const READ: usize = 0;
pub const INSERT: usize = 1;
pub const REMOVE: usize = 2;
pub const CLASS_NAMES: [&str; 3] = ["read", "insert", "remove"];

/// What the oracle needs to judge reads.
pub struct KeySpace {
    /// The preloaded keys, ascending.
    pub sorted: Vec<u64>,
    /// Keys one scan asks for.
    pub scan_len: usize,
}

impl KeySpace {
    pub fn new(keys: u64, scan_len: usize) -> Self {
        let mut sorted: Vec<u64> = (0..keys).map(preload_key).collect();
        sorted.sort_unstable();
        Self { sorted, scan_len }
    }

    /// Whether `got`, the answer to a scan from the preloaded key `start`,
    /// is correct: strictly ascending from `start`, values intact, and —
    /// churn keys set aside, since the other worker inserts and removes its
    /// own concurrently — exactly the preloaded keys of the span, with no
    /// key short unless the map ended.
    pub fn scan_ok(&self, start: u64, got: &[(u64, u64)]) -> bool {
        let Ok(mut next) = self.sorted.binary_search(&start) else {
            return false;
        };
        let mut prev = None;
        for &(k, v) in got {
            if prev.is_some_and(|p| p >= k) || k < start || v != value_of(k) {
                return false;
            }
            prev = Some(k);
            if is_preload_key(k) {
                if self.sorted.get(next) != Some(&k) {
                    return false;
                }
                next += 1;
            }
        }
        got.len() == self.scan_len || (got.len() < self.scan_len && next == self.sorted.len())
    }
}

/// A sampled operation of a traced run: a leaf span.
#[derive(Clone, Copy, Debug)]
pub struct OpSpan {
    /// Position in the worker's stream: the operation's identifier.
    pub op: u32,
    pub class: u8,
    pub start_ns: u64,
    pub dur_ns: u32,
}

/// Where one worker's replay leaves its measurements.
pub struct Sink {
    /// Sampled latencies per class, nanoseconds, in stream order.
    pub lat: [Vec<u32>; 3],
    /// Operations whose outcome disagreed with the oracle.
    pub failed: u64,
    /// Off during preload and warm-up.
    pub sampling: bool,
    /// When set, spans are kept, with start times relative to it.
    pub span_epoch: Option<Instant>,
    pub spans: Vec<OpSpan>,
    /// Stream position of the first operation of the slice being replayed.
    pub op_base: usize,
    timed: usize,
}

impl Sink {
    pub fn new(span_epoch: Option<Instant>) -> Self {
        Self {
            lat: [Vec::new(), Vec::new(), Vec::new()],
            failed: 0,
            sampling: false,
            span_epoch,
            spans: Vec::new(),
            op_base: 0,
            timed: 0,
        }
    }

    /// Runs `f`, timing it when `sampled`.
    #[inline(always)]
    fn time<R>(&mut self, sampled: bool, class: usize, op: usize, f: impl FnOnce() -> R) -> R {
        if !sampled {
            return f();
        }
        let begin = Instant::now();
        let result = f();
        let dur_ns = begin.elapsed().as_nanos().min(u32::MAX as u128) as u32;
        self.lat[class].push(dur_ns);
        self.timed += 1;
        if let Some(epoch) = self.span_epoch {
            if self.timed.is_multiple_of(SPAN_EVERY) {
                self.spans.push(OpSpan {
                    op: (self.op_base + op) as u32,
                    class: class as u8,
                    start_ns: begin.duration_since(epoch).as_nanos() as u64,
                    dur_ns,
                });
            }
        }
        result
    }
}

/// Executes `ops` one call at a time.
pub fn replay_each<H: Ops>(
    h: &mut H,
    thread: usize,
    ops: &[u32],
    keys: &KeySpace,
    sink: &mut Sink,
) {
    let mut scanned = Vec::with_capacity(keys.scan_len);
    for (i, &op) in ops.iter().enumerate() {
        let sampled = sink.sampling && i % LAT_EVERY == 0;
        let (opcode, payload) = decode(op);
        let ok = match opcode {
            OP_GET => {
                let key = preload_key(payload as u64);
                sink.time(sampled, READ, i, || h.get(key)) == Some(value_of(key))
            }
            OP_INSERT => {
                let key = churn_key(thread, payload);
                sink.time(sampled, INSERT, i, || h.insert(key, value_of(key)))
            }
            OP_REMOVE => {
                let key = churn_key(thread, payload);
                sink.time(sampled, REMOVE, i, || h.remove(key))
            }
            _ => {
                let key = preload_key(payload as u64);
                scanned.clear();
                sink.time(sampled, READ, i, || {
                    h.scan(key, keys.scan_len, &mut scanned)
                });
                keys.scan_ok(key, &scanned)
            }
        };
        sink.failed += !ok as u64;
    }
}

/// Whether a combined outcome is the one the oracle predicts for `op`.
fn agrees(op: u32, outcome: &BatchOutcome<u64, u64>) -> bool {
    match (decode(op), outcome) {
        ((OP_INSERT, _), BatchOutcome::Inserted { fresh, .. }) => *fresh,
        ((OP_REMOVE, _), BatchOutcome::Removed { removed, .. }) => *removed,
        ((OP_GET | OP_SCAN, rank), BatchOutcome::Got(v)) => {
            *v == Some(value_of(preload_key(rank as u64)))
        }
        _ => false,
    }
}

/// Executes `ops` in batches of [`BATCH`] through `execute` (a combining
/// handle's `execute_batch`). Every batch is timed; the sample is the
/// batch's time per operation, filed under the read class. A scan becomes
/// a get of its start key: batches carry point operations only.
pub fn replay_batched(
    mut execute: impl FnMut(Vec<BatchOp<u64, u64>>) -> Vec<BatchOutcome<u64, u64>>,
    thread: usize,
    ops: &[u32],
    sink: &mut Sink,
) {
    for (b, chunk) in ops.chunks(BATCH).enumerate() {
        let batch: Vec<BatchOp<u64, u64>> = chunk
            .iter()
            .map(|&op| match decode(op) {
                (OP_INSERT, j) => {
                    let key = churn_key(thread, j);
                    BatchOp::Insert(key, value_of(key))
                }
                (OP_REMOVE, j) => BatchOp::Remove(churn_key(thread, j)),
                (_, rank) => BatchOp::Get(preload_key(rank as u64)),
            })
            .collect();
        let begin = Instant::now();
        let outcomes = execute(batch);
        let dur_ns = begin.elapsed().as_nanos() as u64;
        if sink.sampling {
            sink.lat[READ].push((dur_ns / chunk.len() as u64).min(u32::MAX as u64) as u32);
            if let (Some(epoch), true) = (sink.span_epoch, b % SPAN_EVERY == 0) {
                sink.spans.push(OpSpan {
                    op: (sink.op_base + b * BATCH) as u32,
                    class: READ as u8,
                    start_ns: begin.duration_since(epoch).as_nanos() as u64,
                    dur_ns: dur_ns.min(u32::MAX as u64) as u32,
                });
            }
        }
        let agreed = chunk
            .iter()
            .zip(&outcomes)
            .filter(|(&op, outcome)| agrees(op, outcome))
            .count();
        sink.failed += (chunk.len() - agreed) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::churn_key;

    fn pairs(keys: &[u64]) -> Vec<(u64, u64)> {
        keys.iter().map(|&k| (k, value_of(k))).collect()
    }

    #[test]
    fn scan_oracle_accepts_exactly_the_span() {
        let ks = KeySpace::new(64, 4);
        let s = &ks.sorted;
        assert!(ks.scan_ok(s[10], &pairs(&s[10..14])));
        // A churn key inside the span is allowed, and takes a slot.
        let odd = (s[10] + 1..s[11]).find(|k| k & 1 == 1).unwrap();
        assert!(ks.scan_ok(s[10], &pairs(&[s[10], odd, s[11], s[12]])));
        // Missing preloaded key, wrong start, descending, short, bad value.
        assert!(!ks.scan_ok(s[10], &pairs(&[s[10], s[12], s[13], s[14]])));
        assert!(!ks.scan_ok(s[10], &pairs(&s[11..15])));
        assert!(!ks.scan_ok(s[10], &pairs(&[s[10], s[12], s[11], s[13]])));
        assert!(!ks.scan_ok(s[10], &pairs(&s[10..13])));
        assert!(!ks.scan_ok(s[10], &[(s[10], 0), (s[11], 0), (s[12], 0), (s[13], 0)]));
        // Short only at the end of the map.
        assert!(ks.scan_ok(s[62], &pairs(&s[62..64])));
        // Not a preloaded key at all.
        assert!(!ks.scan_ok(churn_key(0, 1), &[]));
    }
}
