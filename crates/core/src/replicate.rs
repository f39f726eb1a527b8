//! Per-socket node replication over a bounded operation log
//! (`skipgraph::replicate`).
//!
//! The layered skip graph keeps *traversals* NUMA-local, but every read
//! still crosses sockets to reach the single shared structure. Following
//! node-replication (Black-box Concurrent Data Structures for NUMA
//! Machines) and its multi-log successor CNR, [`ReplicatedLayeredMap`]
//! keeps one full replica of the layered map per (synthetic) socket:
//!
//! * **Reads** pin to the calling thread's socket replica and run through
//!   that replica's own local structures and hash index — zero remote
//!   traffic on the traversal itself. Consistency costs exactly one load
//!   of the mapped log's shared `head` word: if the local replica's
//!   completion tail trails it, the reader catches the replica up first
//!   (NR's read rule), which makes *membership and operation outcomes*
//!   linearizable across sockets. Stored values are weaker — see
//!   [`ReplicatedHandle::get`].
//! * **Writes** append to a bounded MPSC *operation log* and return once
//!   the writer's home replica has applied the op (read-your-writes). Any
//!   thread may *replay* any replica: it wins the per-(replica, log)
//!   replay lease, drains the pending suffix `[tail, head)`, and applies
//!   it in log order, one call of the replica's layered handle per
//!   operation, which runs the handle's own insert or remove body — as
//!   node-replication replays a logged write operation through the
//!   dispatch a local call uses. The log carries updates only.
//!   Every logged operation executes, in log order, so every replica
//!   applies an identical per-key history; set-semantics *outcomes*
//!   depend only on that history, so replicas always agree on the key set
//!   and every writer gets the same answer everywhere. Stored values can
//!   still differ between replicas after a remove+re-insert cycle: whether
//!   the re-insert resurrects the lazily-removed node (keeping its old
//!   value — `insert_helper` never rewrites it) or links a fresh one
//!   depends on replica-local retirement timing, so
//!   [`ReplicatedHandle::get`] only promises a value that *some*
//!   successful insert of that key supplied.
//! * **Outcomes** go to the writer's own word: the map keeps one padded
//!   outcome word per registered thread, and the home replica's applier
//!   stores a write's outcome there, stamped with its log and position
//!   (positions on the two logs overlap). The writer polls its word and
//!   replays its home replica meanwhile, the loop a reader's catch-up
//!   runs. A log slot carries nothing back, so a drain waits on no
//!   consumer: only on a claimer between its claim and its stamp.
//! * **Warm starts in another socket's replica**: there the replaying
//!   handle's local map holds only what it replayed there before, so a
//!   drain into a replica other than the caller's hands each operation
//!   its *warm key* — the greatest key below it in the caller's home
//!   handle's local map, hashed once. An insert or remove that searches
//!   starts at that key's node when the target replica's index finds it,
//!   it is a usable start further along than the one `getStart` found,
//!   and it carries the searcher's membership vector (every node does at
//!   `MaxLevel` 0; above it another thread's node is rejected, as a local
//!   start would be). The same drain into the caller's own replica passes
//!   no warm keys.
//! * **Multi-log partitioning**: keys are hashed onto two independent
//!   logs by their membership-vector list family
//!   ([`crate::mvec::list_suffix`] of the key hash at level 1) —
//!   CNR's `LogMapper` rule specialized to the skip graph's constituent
//!   lists. All operations on one key share a log (conflicting ops stay
//!   totally ordered); different families replay in parallel under
//!   independent leases. The key hash mixes every key bit into those low
//!   bits, so a log is a hash partition, not a key region: its keys, and
//!   a drain's, spread over the whole key range.
//! * **One hash per operation**: the key hash is the crate's one
//!   ([`crate::index`], "The key hash"), computed once by the calling
//!   thread. A read hands it to the replica's lookup; a write stores it in
//!   its log slot beside the operation, and every replica's replay
//!   executes the operation under it, so no replay hashes again.
//! * **Backpressure**: an appender observing `head - min(tails) >= max_lag`,
//!   three quarters of the log capacity, helps replay the slowest replica
//!   instead of growing the backlog, so a slot is never reclaimed while an
//!   applier might still read it (`max_lag <= capacity` makes the bounded
//!   buffer safe by construction). Every replica's tail gates slot reuse,
//!   so a drain can never find its slot stamped by a later wrap; it
//!   asserts as much. The appender does not load every tail per append:
//!   its handle keeps, per log, a lower bound on the slowest tail and
//!   reloads the tails only when `head - bound >= max_lag`
//!   (node-replication's `advance_head` on a nearly full log). Tails only
//!   grow, so a stale bound only overestimates the lag, and every claim it
//!   admits the fresh tails would admit too.
//!
//! Replication is chosen when the map is built: a `ReplicatedLayeredMap`
//! keeps one replica per socket for its whole life. Whether that pays
//! against one [`LayeredMap`] is a property of the machine and the
//! workload, so it is measured, not switched at run time.
//!
//! Every coordination word (`head`, per-replica tails, replay leases, slot
//! stamps, outcome words) is one of the crate's facade atomic words, so
//! under `--features deterministic` the cooperative scheduler drives
//! append, replay, and catch-up at the same replayable granularity as the
//! structure itself; the `replicated_sg` stress lanes run PCT and
//! round-robin schedules over exactly this protocol.
//!
//! The module forbids `unsafe_code`: a slot's operation is handed from
//! its appender to every replica's drain through the crate's
//! `HandoffCell`, which states the one rule the log keeps for it.

#![forbid(unsafe_code)]

use crate::index::hash_key;
use crate::layered::{LayeredHandle, LayeredMap};
use crate::mvec::list_suffix;
use crate::params::GraphConfig;
use crate::sync::{FacadeAtomicUsize, HandoffCell, Padded};
use instrument::ThreadCtx;
use std::hash::Hash;

/// The one wait step of every loop in this module: spin briefly for the
/// fast handoff, then yield the OS thread.
/// Whoever is waited on — a lease holder mid-drain, a claimer between its
/// claim and its stamp — may be descheduled, and on oversubscribed cores a
/// busy-waiter steals the very quantum that thread needs. A loop waits
/// only after a round that made no progress of its own: a drain the caller
/// just ran is not waited on.
fn backoff(spins: &mut u32) {
    *spins = spins.wrapping_add(1);
    if *spins < 16 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// The number of operation logs of every replicated map.
const LOGS: usize = 2;

/// `log2(LOGS)` — the membership-vector level whose list families key the
/// log partition.
const LOG_LEVEL: u8 = LOGS.trailing_zeros() as u8;

/// Replication geometry: thread→socket placement plus log capacity.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// `socket_of[t]` = replica index thread `t` pins its reads to.
    socket_of: Vec<usize>,
    sockets: usize,
    log_capacity: usize,
}

impl ReplicaConfig {
    /// `threads` split into `sockets` contiguous blocks (a synthetic
    /// topology). There is no clamp to the thread count: a replica may own
    /// no threads at all — backpressure help keeps it within the lag bound
    /// of the log head anyway.
    pub fn uniform(threads: usize, sockets: usize) -> Self {
        assert!(threads > 0 && sockets > 0);
        Self {
            socket_of: (0..threads).map(|t| t * sockets / threads).collect(),
            sockets,
            log_capacity: 256,
        }
    }

    /// Slots per log (default 256). Must be a power of two `>= 2`. An
    /// appender that finds three quarters of them unapplied by the slowest
    /// replica helps replay before appending (the backpressure bound: 192
    /// at the default, 1 at 2 slots).
    pub fn log_capacity(mut self, capacity: usize) -> Self {
        assert!(
            capacity >= 2 && capacity.is_power_of_two(),
            "log capacity must be a power of two >= 2"
        );
        self.log_capacity = capacity;
        self
    }

    /// The backpressure bound: three quarters of the log capacity (at
    /// least 1, the capacity being at least 2).
    fn lag_bound(&self) -> usize {
        self.log_capacity * 3 / 4
    }

    /// Number of registered threads.
    pub fn threads(&self) -> usize {
        self.socket_of.len()
    }

    /// Number of replicas (sockets).
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// The replica thread `t` pins its reads to.
    pub fn socket_of(&self, t: u16) -> usize {
        self.socket_of[t as usize]
    }
}

/// A logged write operation (node-replication's `WriteOperation`): reads
/// never enter the log.
#[derive(Clone)]
pub(crate) enum Update<K, V> {
    /// Set-semantics insert: fails on a present key.
    Insert(K, V),
    /// Set-semantics remove: fails on an absent key.
    Remove(K),
}

impl<K, V> Update<K, V> {
    /// The operation's target key.
    fn key(&self) -> &K {
        match self {
            Update::Insert(k, _) | Update::Remove(k) => k,
        }
    }
}

/// What an appender deposits in a log slot.
struct Pending<K, V> {
    /// The appender's thread id: the applier replaying its home replica
    /// stores the operation's outcome in its outcome word.
    writer: usize,
    /// The key's [`hash_key`], computed once by the appender: it chose
    /// the log, and every replica's replay executes the operation under it.
    hash: u64,
    op: Update<K, V>,
}

/// The stamp, outcome bit clear, that the operation at position `pos` of
/// log `li` leaves in its writer's outcome word. Positions on the two logs
/// overlap, so the log is part of it; `pos + 1` keeps it off a fresh
/// word's 0.
fn outcome_stamp(li: usize, pos: usize) -> usize {
    ((pos + 1) << LOG_LEVEL | li) << 1
}

/// One log slot, a [`HandoffCell`]: the appender (exclusive by the
/// slot-reuse invariant) publishes the operation stamped `pos + 1`, and the
/// appliers of every replica wait for the stamp and read it in place. It
/// sits in a [`Padded`] granule, so two writers appending neighbouring
/// positions never write one line.
type Slot<K, V> = Padded<HandoffCell<Pending<K, V>>>;

/// A bounded MPSC operation log with one completion tail (and one replay
/// lease) per replica.
struct OpLog<K, V> {
    head: Padded<FacadeAtomicUsize>,
    tails: Box<[Padded<FacadeAtomicUsize>]>,
    leases: Box<[Padded<FacadeAtomicUsize>]>,
    slots: Box<[Slot<K, V>]>,
    mask: usize,
}

/// `n` padded words, each reading 0.
fn padded_words(n: usize) -> Box<[Padded<FacadeAtomicUsize>]> {
    (0..n).map(|_| Padded(FacadeAtomicUsize::new(0))).collect()
}

impl<K, V> OpLog<K, V> {
    fn new(capacity: usize, replicas: usize) -> Self {
        Self {
            head: Padded(FacadeAtomicUsize::new(0)),
            tails: padded_words(replicas),
            leases: padded_words(replicas),
            slots: (0..capacity).map(|_| Padded(HandoffCell::new())).collect(),
            mask: capacity - 1,
        }
    }

    /// The slowest replica and its completion tail, in one scan: the lag
    /// the backpressure check measures and the replica it helps.
    fn slowest(&self) -> (usize, usize) {
        let tails = self.tails.iter().map(|t| t.0.load());
        tails
            .enumerate()
            .min_by_key(|&(_, tail)| tail)
            .expect("at least one replica")
    }
}

/// One replica of the layered map per socket, fed by membership-vector-
/// partitioned operation logs. See the module docs for the protocol.
pub struct ReplicatedLayeredMap<K, V> {
    replicas: Vec<LayeredMap<K, V>>,
    logs: [OpLog<K, V>; LOGS],
    /// One outcome word per registered thread: the home replica's applier
    /// stores the outcome of the thread's pending write there, as
    /// [`outcome_stamp`] plus the outcome bit.
    outcomes: Box<[Padded<FacadeAtomicUsize>]>,
    rcfg: ReplicaConfig,
}

impl<K: Ord + Hash + Clone, V> ReplicatedLayeredMap<K, V> {
    /// Builds `rcfg.sockets()` replicas of the layered map described by
    /// `config` (every thread registers on every replica, so
    /// `config.num_threads` must cover all of `rcfg.threads()`).
    ///
    /// The hash index (`config.hash_index`) is what makes replica-local
    /// reads O(1); replication works without it but then pays a local
    /// descent per read.
    pub fn new(config: GraphConfig, rcfg: ReplicaConfig) -> Self {
        assert!(
            config.num_threads >= rcfg.threads(),
            "graph config sized for {} threads, placement has {}",
            config.num_threads,
            rcfg.threads()
        );
        let sockets = rcfg.sockets();
        let replicas = (0..sockets)
            .map(|r| {
                // Per-socket placement: replica `r`'s memory belongs to
                // socket `r` no matter which thread replays into it, so
                // its nodes are attributed to the socket's first thread
                // (its `owner_tag`; a reclaimed slot still returns to the
                // bank of the thread that replayed it). A thread-less
                // socket keeps allocating-thread ownership.
                let rep = (0..rcfg.threads()).find(|&t| rcfg.socket_of(t as u16) == r);
                let cfg = match rep {
                    Some(t) => config.clone().owner_tag(t as u16),
                    None => config.clone(),
                };
                LayeredMap::new(cfg)
            })
            .collect();
        Self {
            replicas,
            logs: std::array::from_fn(|_| OpLog::new(rcfg.log_capacity, sockets)),
            outcomes: padded_words(rcfg.threads()),
            rcfg,
        }
    }

    /// The replication geometry this map was built with.
    pub fn replica_config(&self) -> &ReplicaConfig {
        &self.rcfg
    }

    /// The per-socket replicas (tests drive per-replica reclamation
    /// flushes through this; production code never needs it).
    pub fn replicas(&self) -> &[LayeredMap<K, V>] {
        &self.replicas
    }

    /// The log a key's operations append to: the level-1
    /// membership-vector list family of the key's [`hash_key`], `hash` —
    /// its low bits. All operations on one key conflict, so they share a
    /// log and stay totally ordered; distinct families commute and replay
    /// in parallel.
    fn log_of(&self, hash: u64) -> usize {
        list_suffix(hash as u32, LOG_LEVEL) as usize
    }

    /// Registers the calling thread on every replica; reads pin to the
    /// replica of `ctx.id()`'s socket. `ctx.id()` must be a dense id below
    /// the configured thread count, unique per live handle.
    pub fn register(&self, ctx: ThreadCtx) -> ReplicatedHandle<'_, K, V> {
        let tid = ctx.id();
        let socket = self.rcfg.socket_of(tid);
        // Remote replicas get a forked context — same thread id, same
        // stats sink — so work this thread replays into another socket's
        // replica is charged to this thread, against that replica's
        // socket-owned nodes (remote traffic, as it would be on hardware).
        let proto = ctx.fork();
        let mut ctx = Some(ctx);
        let handles = self
            .replicas
            .iter()
            .enumerate()
            .map(|(r, m)| {
                if r == socket {
                    m.register(ctx.take().expect("home ctx used once"))
                } else {
                    m.register(proto.fork())
                }
            })
            .collect();
        ReplicatedHandle {
            map: self,
            socket,
            tid: tid as usize,
            handles,
            lag_bounds: [0; LOGS],
        }
    }
}

impl<K, V> std::fmt::Debug for ReplicatedLayeredMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedLayeredMap")
            .field("replicas", &self.replicas.len())
            .field("logs", &self.logs.len())
            .finish()
    }
}

/// A per-thread handle to a [`ReplicatedLayeredMap`]: one layered handle
/// per replica (the home one carries the thread's recording context), plus
/// the append/replay protocol. Not `Send`.
pub struct ReplicatedHandle<'m, K, V> {
    map: &'m ReplicatedLayeredMap<K, V>,
    socket: usize,
    tid: usize,
    handles: Vec<LayeredHandle<'m, K, V>>,
    /// Per log, a lower bound on the slowest replica's tail: the last one
    /// this handle loaded. Tails only grow, so it stays a lower bound;
    /// `update` reloads it only when it no longer admits a claim.
    lag_bounds: [usize; LOGS],
}

impl<'m, K, V> ReplicatedHandle<'m, K, V>
where
    K: Ord + Hash + Clone,
    V: Clone,
{
    /// The recording context of this thread (the home replica's handle).
    pub fn ctx(&self) -> &ThreadCtx {
        self.handles[self.socket].ctx()
    }

    /// The socket (replica index) this handle's reads pin to.
    pub fn socket(&self) -> usize {
        self.socket
    }

    /// Set-semantics insert through the operation log; returns once the
    /// home replica has applied it (read-your-writes).
    pub fn insert(&mut self, key: K, value: V) -> bool {
        self.update(Update::Insert(key, value))
    }

    /// Set-semantics remove through the operation log; returns once the
    /// home replica has applied it.
    pub fn remove(&mut self, key: &K) -> bool {
        self.update(Update::Remove(key.clone()))
    }

    /// Membership test served by the socket-local replica once its tail
    /// has passed the mapped log's head (NR's read rule).
    pub fn contains(&mut self, key: &K) -> bool {
        let hash = hash_key(key);
        self.wait_local_valid(self.map.log_of(hash));
        self.handles[self.socket].contains_hashed(key, hash)
    }

    /// Point lookup served by the same replica as
    /// [`ReplicatedHandle::contains`].
    ///
    /// Presence (`Some` vs `None`) is linearizable across sockets, but
    /// the value itself is only guaranteed to come from *some* successful
    /// insert of `key`: after a remove+re-insert cycle a replica that
    /// resurrects the lazily-removed node serves the value of an earlier
    /// insert (set-semantics inserts never overwrite a stored value),
    /// while one that links a fresh node serves the latest — which you
    /// get depends on replica-local retirement timing. Workloads that
    /// need cross-socket value agreement should keep values immutable
    /// per key or key them by version.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let hash = hash_key(key);
        self.wait_local_valid(self.map.log_of(hash));
        self.handles[self.socket].get_hashed(key, hash)
    }

    /// Catches this thread's socket replica up to the head of *every*
    /// log (NR's `sync`): afterwards the replica reflects all operations
    /// appended before the call. Reads do this lazily per log; call it
    /// once after a bulk load so the replay debt is not paid inside a
    /// measured (or latency-sensitive) read path.
    pub fn sync(&mut self) {
        for li in 0..LOGS {
            self.wait_local_valid(li);
        }
    }

    /// Appends `op` to its key's log and waits until this thread's socket
    /// replica has applied it (read-your-writes), replaying that replica
    /// meanwhile; returns the operation's set-semantics outcome, which the
    /// applier left in this thread's outcome word. The key is hashed here,
    /// once for every replica.
    fn update(&mut self, op: Update<K, V>) -> bool {
        let map = self.map;
        let hash = hash_key(op.key());
        let li = map.log_of(hash);
        let log = &map.logs[li];
        self.ctx().record_op();
        // Claim a slot, lag-bounded: while the slowest replica trails by
        // max_lag (<= capacity), help it drain instead of growing the
        // backlog — this is also what makes slot reuse safe, since a
        // claimed position implies every tail passed its previous occupant.
        // The check runs against this handle's bound on the slowest tail;
        // only when the bound says the log is full are the tails reloaded.
        let max_lag = map.rcfg.lag_bound();
        let mut spins = 0u32;
        let pos = loop {
            let mut min = self.lag_bounds[li];
            let mut head = log.head.0.load();
            if head - min >= max_lag {
                // `min` before `head`: tails never pass the head and the
                // head only grows, so this order guarantees `min <= head`
                // (the reverse order could observe a tail that advanced
                // past a stale head). The bound kept from an earlier
                // reload is below every later head for the same reason.
                let (slowest, tail) = log.slowest();
                min = tail;
                head = log.head.0.load();
                self.lag_bounds[li] = min;
                if head - min >= max_lag {
                    // The target's lease may be held by a descheduled
                    // thread (try_replay then returns at once): back off.
                    if !self.try_replay(li, slowest) {
                        backoff(&mut spins);
                    }
                    continue;
                }
            }
            if log.head.0.compare_exchange(head, head + 1).is_ok() {
                self.ctx().record_log_append((head - min) as u64);
                break head;
            }
        };
        // The cell is exclusive: every applier finished the previous
        // occupant (every tail passed it) before `pos` could be claimed.
        let writer = self.tid;
        let slot = &log.slots[pos & log.mask].0;
        slot.publish(pos + 1, Pending { writer, hash, op });
        // Wait for the home replica's applier to store the outcome in our
        // word, replaying the home replica meanwhile (the read rule's loop).
        let stamp = outcome_stamp(li, pos);
        let mut spins = 0u32;
        loop {
            let r = map.outcomes[writer].0.load();
            if r & !1 == stamp {
                return r & 1 == 1;
            }
            if !self.try_replay(li, self.socket) {
                backoff(&mut spins);
            }
        }
    }

    /// The tail-wait of the read rule: loads the log's head once, then
    /// replays the local replica (or waits on whoever holds its lease)
    /// until its tail passes that head.
    fn wait_local_valid(&mut self, li: usize) {
        let log = &self.map.logs[li];
        let head = log.head.0.load();
        // Injected bug (`--features bug-injection`): sever the tail-wait,
        // serving the read from whatever prefix the local replica happens
        // to have applied. A completed remote write (or a fresher read on
        // another socket) is then invisible here — a stale read the
        // deterministic stress wall catches and shrinks.
        if cfg!(feature = "bug-injection") {
            return;
        }
        let mut spins = 0u32;
        while log.tails[self.socket].0.load() < head {
            if !self.try_replay(li, self.socket) {
                backoff(&mut spins);
            }
        }
    }

    /// One replay attempt: win the (replica, log) lease and drain the
    /// pending suffix, or return `false` at once if another thread holds
    /// it (that thread's progress is ours — callers loop on the condition
    /// they actually wait for, and wait a step only after a `false`).
    fn try_replay(&mut self, li: usize, replica: usize) -> bool {
        let log = &self.map.logs[li];
        if log.leases[replica]
            .0
            .compare_exchange(0, self.tid + 1)
            .is_err()
        {
            return false;
        }
        self.drain(li, replica);
        log.leases[replica].0.store(0);
        true
    }

    /// Drains `[tail, head)` of log `li` into `replica` in log order — each
    /// operation through the replica handle's own body
    /// ([`LayeredHandle::apply`]) as soon as its stamp is seen — storing
    /// the outcome of each op whose writer is homed here in that writer's
    /// outcome word right after it runs. The caller holds the (replica,
    /// log) replay lease.
    ///
    /// A drain into another socket's replica finds this handle's local map
    /// there holding only what it replayed there before, so each operation
    /// carries its warm key: its home local predecessor, whose node the
    /// target replica's index finds (`warm_start`).
    fn drain(&mut self, li: usize, replica: usize) {
        let map = self.map;
        let log = &map.logs[li];
        let tail = log.tails[replica].0.load();
        let head = log.head.0.load();
        if head == tail {
            return;
        }
        let foreign = replica != self.socket;
        for pos in tail..head {
            let slot = &log.slots[pos & log.mask].0;
            // The claimer stamps the slot right after writing the op;
            // between claim and stamp we spin (each facade load is a det
            // yield), yielding the OS thread once the claimer looks
            // descheduled.
            let mut spins = 0u32;
            let p = slot.await_stamp(pos + 1, |seq| {
                // A stamp from a later wrap would mean the log lapped this
                // drain: this replica's tail, at or before `pos`, stopped
                // gating slot reuse — a protocol bug.
                assert!(
                    seq < pos + 1,
                    "slot of log position {pos} restamped {seq} by a later wrap"
                );
                backoff(&mut spins);
            });
            let warm = foreign
                .then(|| self.handles[self.socket].local_pred_key(p.op.key()))
                .flatten()
                .map(|k| {
                    let hash = hash_key(&k);
                    (k, hash)
                });
            let ok = self.handles[replica].apply(p.op.clone(), p.hash, warm.as_ref());
            if map.rcfg.socket_of[p.writer] == replica {
                let outcome = outcome_stamp(li, pos) | ok as usize;
                map.outcomes[p.writer].0.store(outcome);
            }
        }
        log.tails[replica].0.store(head);
        self.ctx().record_replay_batch((head - tail) as u64);
    }
}

impl<'m, K, V> std::fmt::Debug for ReplicatedHandle<'m, K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedHandle")
            .field("socket", &self.socket)
            .field("tid", &self.tid)
            .finish()
    }
}

#[cfg(all(test, not(feature = "bug-injection")))]
mod tests {
    use super::*;
    use crate::sync::lines_of;
    use instrument::AccessStats;

    fn config(threads: usize) -> GraphConfig {
        GraphConfig::new(threads).lazy(true).hash_index(true)
    }

    #[test]
    fn single_thread_roundtrip_across_sockets() {
        // One thread, two replicas: every write replays into the home
        // replica synchronously; reads see it immediately.
        let map: ReplicatedLayeredMap<u64, u64> =
            ReplicatedLayeredMap::new(config(1), ReplicaConfig::uniform(1, 2));
        let mut h = map.register(ThreadCtx::plain(0));
        assert!(h.insert(1, 10));
        assert!(!h.insert(1, 11));
        assert!(h.insert(2, 20));
        assert_eq!(h.get(&1), Some(10));
        assert!(h.contains(&2));
        assert!(!h.contains(&3));
        assert!(h.remove(&1));
        assert!(!h.remove(&1));
        assert_eq!(h.get(&1), None);
        assert!(h.contains(&2));
    }

    #[test]
    fn backpressure_wraps_a_tiny_log() {
        // Capacity 8 with lag bound 6: 200 updates over two logs force
        // many wraps of each and constant self-help replay; set semantics
        // must be exact.
        let map: ReplicatedLayeredMap<u64, u64> =
            ReplicatedLayeredMap::new(config(1), ReplicaConfig::uniform(1, 2).log_capacity(8));
        let mut h = map.register(ThreadCtx::plain(0));
        for i in 0..100u64 {
            assert!(h.insert(i, i), "fresh insert {i}");
        }
        for i in 0..100u64 {
            assert_eq!(h.get(&i), Some(i));
        }
        for i in (0..100u64).step_by(2) {
            assert!(h.remove(&i));
        }
        for i in 0..100u64 {
            assert_eq!(h.contains(&i), i % 2 == 1, "key {i}");
        }
    }

    #[test]
    fn read_your_writes_across_threads_and_sockets() {
        // Two threads on two sockets. After the writer joins, the reader's
        // catch-up must surface every write on its own replica.
        let map: ReplicatedLayeredMap<u64, u64> =
            ReplicatedLayeredMap::new(config(2), ReplicaConfig::uniform(2, 2));
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = map.register(ThreadCtx::plain(0));
                for i in 0..48u64 {
                    assert!(w.insert(i, i * 3));
                }
            })
            .join()
            .unwrap();
            s.spawn(|| {
                let mut r = map.register(ThreadCtx::plain(1));
                assert_ne!(r.socket(), 0, "thread 1 pins to the second socket");
                for i in 0..48u64 {
                    assert_eq!(r.get(&i), Some(i * 3), "key {i}");
                }
            })
            .join()
            .unwrap();
        });
    }

    /// Two writer threads on one small log, one per socket, each on keys
    /// of its own that all map to log 0: every append meets the wrap edge,
    /// on four slots (lag bound 3: the slowest tail keeps an append off a
    /// slot some replica has not applied yet) and on two (lag bound 1:
    /// every append first waits out both replicas). A drain that met a
    /// slot restamped by a later wrap would panic its thread.
    #[test]
    fn two_writers_wrap_a_small_log() {
        for capacity in [4, 2] {
            let rcfg = ReplicaConfig::uniform(2, 2).log_capacity(capacity);
            assert_eq!((rcfg.socket_of(0), rcfg.socket_of(1)), (0, 1));
            writers_wrap_one_log(rcfg);
        }
    }

    /// Three writers, two of them homed on replica 0, wrap a two-slot log:
    /// one applier stores both home writers' outcomes, each into its own
    /// word, while the slot it read is claimed again a wrap later.
    #[test]
    fn three_writers_two_homed_together_wrap_a_two_slot_log() {
        let rcfg = ReplicaConfig::uniform(3, 2).log_capacity(2);
        assert_eq!((rcfg.socket_of(0), rcfg.socket_of(1)), (0, 0));
        writers_wrap_one_log(rcfg);
    }

    /// The capacity brings the lag bound: three quarters of it, 6 of 8
    /// slots and 192 of the default 256.
    #[test]
    fn a_log_capacity_sets_the_lag_bound() {
        let rcfg = ReplicaConfig::uniform(2, 2).log_capacity(8);
        assert_eq!(rcfg.lag_bound(), 6);
        assert_eq!(ReplicaConfig::uniform(2, 2).lag_bound(), 192);
        assert_eq!(ReplicaConfig::uniform(2, 2).log_capacity(2).lag_bound(), 1);
        writers_wrap_one_log(rcfg);
    }

    /// One writer thread per placed thread of `rcfg`, each on keys of its
    /// own that all map to log 0: every outcome must be exact, and every
    /// replica must end up holding the same keys.
    fn writers_wrap_one_log(rcfg: ReplicaConfig) {
        let max_lag = rcfg.lag_bound();
        let writers = rcfg.threads();
        let map: ReplicatedLayeredMap<u64, u64> =
            ReplicatedLayeredMap::new(config(writers + 1), rcfg);
        // Writer `t`'s keys: the first 300 on log 0 that are `t` modulo
        // the writer count.
        let writer_keys = |t: usize| -> Vec<u64> {
            (0..)
                .map(|i| (writers * i + t) as u64)
                .filter(|k| map.log_of(hash_key(k)) == 0)
                .take(300)
                .collect()
        };
        std::thread::scope(|s| {
            for t in 0..writers {
                let map = &map;
                let keys = writer_keys(t);
                s.spawn(move || {
                    let mut h = map.register(ThreadCtx::plain(t as u16));
                    for &k in &keys {
                        assert!(h.insert(k, k), "max_lag {max_lag}: fresh insert {k}");
                        assert!(
                            !h.insert(k, k + 1),
                            "max_lag {max_lag}: repeated insert {k}"
                        );
                    }
                    for &k in keys.iter().filter(|&k| k % 3 == 0) {
                        assert!(h.remove(&k), "max_lag {max_lag}: remove {k}");
                        assert!(!h.remove(&k), "max_lag {max_lag}: repeated remove {k}");
                    }
                    for &k in &keys {
                        assert_eq!(h.contains(&k), k % 3 != 0, "max_lag {max_lag}: key {k}");
                    }
                });
            }
        });
        // Each replica caught up to every writer's last operations.
        for t in 0..writers {
            map.register(ThreadCtx::plain(t as u16)).sync();
        }
        let ctx = ThreadCtx::plain(writers as u16);
        let mut expect: Vec<u64> = (0..writers)
            .flat_map(writer_keys)
            .filter(|k| k % 3 != 0)
            .collect();
        expect.sort_unstable();
        for (r, replica) in map.replicas().iter().enumerate() {
            let keys: Vec<u64> = replica
                .shared()
                .range(std::ops::Bound::Unbounded, std::ops::Bound::Unbounded, &ctx)
                .map(|(k, _)| *k)
                .collect();
            assert_eq!(keys, expect, "max_lag {max_lag}: replica {r}");
        }
    }

    /// A writer whose operations on the two logs take equal positions
    /// reads each outcome from one word: the stamp's log index tells the
    /// log-1 operation at position `i` from the log-0 one before it.
    #[test]
    fn equal_positions_on_both_logs_get_their_own_outcomes() {
        let map: ReplicatedLayeredMap<u64, u64> =
            ReplicatedLayeredMap::new(config(1), ReplicaConfig::uniform(1, 1));
        let mut h = map.register(ThreadCtx::plain(0));
        let on_log = |li: usize| -> Vec<u64> {
            (0..)
                .filter(|k| map.log_of(hash_key(k)) == li)
                .take(64)
                .collect()
        };
        let (zero, one) = (on_log(0), on_log(1));
        // Position i of each log: a failed remove on log 0, then a
        // successful insert on log 1 ...
        for (a, b) in zero.iter().zip(&one) {
            assert!(!h.remove(a), "absent remove {a} on log 0");
            assert!(h.insert(*b, *b), "fresh insert {b} on log 1");
        }
        // ... and at the next 64 positions the reverse outcomes.
        for (a, b) in zero.iter().zip(&one) {
            assert!(h.insert(*a, *a), "fresh insert {a} on log 0");
            assert!(!h.insert(*b, *b), "repeated insert {b} on log 1");
        }
        for k in zero.iter().chain(&one) {
            assert!(h.contains(k), "key {k}");
        }
    }

    #[test]
    fn log_words_written_by_different_threads_share_no_line() {
        let map: ReplicatedLayeredMap<u64, u64> =
            ReplicatedLayeredMap::new(config(2), ReplicaConfig::uniform(2, 2).log_capacity(8));
        for log in &map.logs {
            // Claimers of neighbouring positions write neighbouring slots.
            let mut slots: Vec<usize> = Vec::new();
            for slot in log.slots.iter() {
                slots.extend(lines_of(slot));
            }
            let mut distinct = slots.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), slots.len(), "two log slots share a line");
            // The head (every claimer's CAS), each tail (its replica's
            // drains) and each lease (its replay lease) share a line with
            // nothing: no slot, no other word, not the log's read-only
            // fields.
            // Nor does each thread's outcome word, which the appliers of
            // its home replica write and it polls.
            let mut words: Vec<Vec<usize>> = vec![lines_of(&log.head).collect()];
            words.extend(log.tails.iter().map(|t| lines_of(t).collect()));
            words.extend(log.leases.iter().map(|l| lines_of(l).collect()));
            words.extend(map.outcomes.iter().map(|w| lines_of(w).collect()));
            let mut others = slots.clone();
            others.extend(lines_of(&log.tails));
            others.extend(lines_of(&log.leases));
            others.extend(lines_of(&log.slots));
            others.extend(lines_of(&log.mask));
            others.extend(lines_of(&map.outcomes));
            for (i, lines) in words.iter().enumerate() {
                for line in lines {
                    assert!(
                        !others.contains(line),
                        "coordination word {i} shares a line"
                    );
                    for (j, other) in words.iter().enumerate() {
                        assert!(
                            i == j || !other.contains(line),
                            "words {i} and {j} share a line"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn log_partition_is_stable_and_within_bounds() {
        let map: ReplicatedLayeredMap<u64, u64> =
            ReplicatedLayeredMap::new(config(1), ReplicaConfig::uniform(1, 1));
        for k in 0..256u64 {
            let l = map.log_of(hash_key(&k));
            assert!(l < LOGS);
            assert_eq!(l, map.log_of(hash_key(&k)), "same key, same log");
        }
    }

    #[test]
    fn counters_record_appends_and_replays() {
        let stats = AccessStats::new(1);
        let map: ReplicatedLayeredMap<u64, u64> =
            ReplicatedLayeredMap::new(config(1), ReplicaConfig::uniform(1, 2));
        let mut h = map.register(ThreadCtx::recording(0, stats.clone()));
        for i in 0..16u64 {
            h.insert(i, i);
        }
        assert!(h.contains(&3));
        let t = stats.totals();
        assert_eq!(t.log_appends, 16);
        assert!(t.replay_batches >= 16, "home replays are synchronous");
        assert!(t.replayed_ops >= 16);
        assert_eq!(t.ops, 17);
    }
}
