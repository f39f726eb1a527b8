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
//!   replay lease, drains the pending suffix `[tail, head)`, sorts it into
//!   an ascending run, and executes it as one `combined_run` of the
//!   replica's layered handle per drain — the flat combiner's sorted-run
//!   path behind its own interface, one-pass bulk index publish included.
//!   Each search of the run starts from the furthest of the previous
//!   key's frontier and the handle's local-map predecessor; the run's
//!   first has only the latter.
//!   Every logged operation executes. The sort is stable, so same-key
//!   operations keep log order and every replica applies an identical
//!   per-key history; set-semantics *outcomes* depend only on that
//!   history, so replicas always agree on the key set and every writer
//!   gets the same answer everywhere. Stored values can still differ
//!   between replicas after a remove+re-insert cycle: whether the
//!   re-insert resurrects the lazily-removed node
//!   (keeping its old value — `insert_helper` never rewrites it) or
//!   links a fresh one depends on replica-local retirement timing, so
//!   [`ReplicatedHandle::get`] only promises a value that *some*
//!   successful insert of that key supplied.
//! * **Warm starts in another socket's replica**: there the replaying
//!   handle's local map holds only what it replayed there before, so a
//!   drain into a replica other than the caller's hands
//!   `combined_run_warm` each operation's *warm key* — the greatest key
//!   below it in the caller's home handle's local map, hashed once. An
//!   insert or remove that searches starts at that key's node when the
//!   target replica's index finds it, it is a usable start further along
//!   than the local one, and it carries the searcher's membership vector
//!   (every node does at `MaxLevel` 0; above it another thread's node is
//!   rejected, as a local start would be). The same drain into the
//!   caller's own replica passes no warm keys.
//! * **Multi-log partitioning**: keys are hashed onto `logs` independent
//!   logs by their membership-vector list family
//!   ([`crate::mvec::list_suffix`] of the key hash at level `log2 logs`) —
//!   CNR's `LogMapper` rule specialized to the skip graph's constituent
//!   lists. All operations on one key share a log (conflicting ops stay
//!   totally ordered); different families replay in parallel under
//!   independent leases. The key hash mixes every key bit into those low
//!   bits, so a log is a hash partition, not a key region: its keys, and
//!   a drain's sorted run, spread over the whole key range.
//! * **One hash per operation**: the key hash is the crate's one
//!   ([`crate::index`], "The key hash"), computed once by the calling
//!   thread. A read hands it to the replica's lookup; a write stores it in
//!   its log slot beside the operation, and every replica's replay
//!   executes the operation under it, so no replay hashes again.
//! * **Backpressure**: an appender observing `head - min_tail >= max_lag`
//!   helps replay the laggiest replica instead of growing the backlog, so
//!   a slot is never reclaimed while an applier might still read it
//!   (`max_lag <= capacity` makes the bounded buffer safe by
//!   construction).
//!
//! Every coordination word (`head`, per-replica tails, replay leases, slot
//! sequence/result stamps) is a [`crate::sync::FacadeAtomicUsize`], so
//! under `--features deterministic` the cooperative scheduler drives
//! append, replay, and catch-up at the same replayable granularity as the
//! structure itself; the `replicated_sg` stress lanes run PCT and
//! round-robin schedules over exactly this protocol.
//!
//! # Adaptive replication (`ReplicaConfig::adapt`)
//!
//! Per-socket replication amplifies every write into one apply per
//! replica, so a write-heavy mix pays `sockets` applies for structures
//! nobody is reading locally. With an [`AdaptConfig`] attached, the map
//! senses its write ratio over op-count windows and switches — CNR-style
//! — between two regimes published through one facade-atomic **epoch
//! word** (`generation << 2 | mode`) that every operation validates like
//! a generation tag. There is one protocol, not two: a map built without
//! an `AdaptConfig` is the adaptive map whose controller never fires. It
//! stays in generation 0 of the replicated mode forever, so its epoch is
//! a constant rather than a word (`ReplicatedLayeredMap::epoch` loads
//! nothing, and under `deterministic` adds no yield point), every epoch
//! check below is vacuously true, and the same `read_replica` / `update`
//! / tail-wait code serves both.
//!
//! * **Replicated** (mode 0): the protocol above.
//! * **Single** (mode 2): writes still append to their key's log (the
//!   total order must survive the mode switch) but carry home replica 0,
//!   and *only replica 0 drains* — one apply per write, no fan-out.
//!   Reads on every socket go straight to replica 0 with **no log wait**:
//!   single-mode writes are synchronous to replica 0 before they return,
//!   and the downshift drains every log to stability before publishing
//!   the flip, so replica 0 already holds every completed operation.
//! * Transitional modes guard the switches. **Down-drain** (mode 1,
//!   replicated → single) drains every `(log, replica)` pair to
//!   stability, so no completed write is stranded in a log replica 0
//!   never saw. **Up-rebuild** (mode 3, single → replicated) drains
//!   replica 0 to stability, snaps the retired tails to replica 0's
//!   applied prefix, and rebuilds each replica by diffing bottom-list
//!   snapshots (presence outcomes are replay-idempotent, so the suffix
//!   the snapshot already covers may replay again without divergence).
//!   Both transitions bump the generation, so a stale epoch can never
//!   be revalidated (no ABA).
//!
//! Writers revalidate the epoch after winning their head claim; a claim
//! that straddles a transition is **poisoned** (stamped without an op, so
//! every drain skips it) and retried under the new epoch — each thread
//! contributes at most one poison per transition, so the transition
//! drains terminate. Readers in replicated-class modes
//! re-check the epoch inside their tail-wait and restart the read on a
//! change. A drain that finds a slot stamped by a *later* wrap aborts
//! before applying anything: only retired replicas (whose tails no
//! longer gate slot reuse) can observe that, and aborting is exactly the
//! right behavior for their stale helpers.

use crate::adapt::{AdaptConfig, Hysteresis};
use crate::batch::{BatchOp, BatchOutcome, CombinerTarget};
use crate::index::hash_key;
use crate::layered::{LayeredHandle, LayeredMap};
use crate::mvec::list_suffix;
use crate::params::GraphConfig;
use crate::sync::{FacadeAtomicUsize, Padded};
use instrument::{CounterWindow, ThreadCtx};
use std::cell::UnsafeCell;
use std::hash::Hash;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::Relaxed};

/// Epoch-word modes (low two bits; the rest is the generation). The bit
/// layout is load-bearing: bit 1 set ⇔ reads go straight to replica 0
/// (single-class), bit 0 set ⇔ a transition is in flight (writers wait).
const MODE_REPLICATED: usize = 0;
const MODE_DOWN_DRAIN: usize = 1;
const MODE_SINGLE: usize = 2;
const MODE_UP_REBUILD: usize = 3;
const MODE_MASK: usize = 3;

/// Reads in this epoch go straight to replica 0 (single or up-rebuild).
fn single_class(epoch: usize) -> bool {
    epoch & 2 != 0
}

/// A transition is in flight (down-drain or up-rebuild); writers wait.
fn transitional(epoch: usize) -> bool {
    epoch & 1 != 0
}

fn mode_name(epoch: usize) -> &'static str {
    match epoch & MODE_MASK {
        MODE_REPLICATED => "replicated",
        MODE_DOWN_DRAIN => "down-drain",
        MODE_SINGLE => "single",
        MODE_UP_REBUILD => "up-rebuild",
        _ => unreachable!("mode is two bits"),
    }
}

/// The one wait step of every loop in this module: spin briefly for the
/// fast handoff, then yield the OS thread (as the combiner's waiters do).
/// Whoever is waited on — a lease holder mid-drain, a claimer between its
/// claim and its stamp, a writer about to consume its result — may be
/// descheduled, and on oversubscribed cores a busy-waiter steals the very
/// quantum that thread needs.
fn backoff(spins: &mut u32) {
    *spins = spins.wrapping_add(1);
    if *spins < 16 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Shared adaptive-replication state: the epoch word, the write-ratio
/// sensor window, the hysteresis gate deciding the intent, and relaxed
/// telemetry counters (sensors and telemetry are plain `std` atomics —
/// statistics, not synchronization — so the non-facade words add no det
/// yield points).
struct AdaptState {
    /// `generation << 2 | mode` (see the module docs). Only the controller
    /// moves it, so it exists only where one is attached: see
    /// [`ReplicatedLayeredMap::epoch`].
    epoch: Padded<FacadeAtomicUsize>,
    cfg: AdaptConfig,
    window: CounterWindow,
    /// Engaged ⇔ the controller wants single-structure mode.
    gate: Hysteresis,
    downshifts: AtomicU64,
    upshifts: AtomicU64,
    windows: AtomicU64,
    last_write_pct: AtomicU32,
}

impl AdaptState {
    fn new(cfg: AdaptConfig) -> Self {
        Self {
            epoch: Padded(FacadeAtomicUsize::new(MODE_REPLICATED)),
            cfg,
            window: CounterWindow::new(),
            gate: Hysteresis::new(cfg.write_up_pct, cfg.write_down_pct, cfg.dwell_windows),
            downshifts: AtomicU64::new(0),
            upshifts: AtomicU64::new(0),
            windows: AtomicU64::new(0),
            last_write_pct: AtomicU32::new(0),
        }
    }
}

/// A point-in-time view of the adaptive replication state (telemetry for
/// `examples/numa_heatmap`, `benchmark/` and `tests/layer_counts.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptSnapshot {
    /// Current epoch mode: `"replicated"`, `"down-drain"`, `"single"`,
    /// or `"up-rebuild"`.
    pub mode: &'static str,
    /// Epoch generation (bumps once per completed transition).
    pub generation: usize,
    /// Completed replicated → single switches.
    pub downshifts: u64,
    /// Completed single → replicated switches.
    pub upshifts: u64,
    /// Closed sensor windows.
    pub windows: u64,
    /// Write percentage of the most recently closed window.
    pub last_write_pct: u32,
    /// Operations recorded in the currently open window.
    pub open_window_ops: u32,
}

/// Replication geometry: thread→socket placement plus log shape.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// `socket_of[t]` = replica index thread `t` pins its reads to.
    socket_of: Vec<usize>,
    sockets: usize,
    logs: usize,
    log_capacity: usize,
    max_lag: usize,
    adapt: Option<AdaptConfig>,
}

impl ReplicaConfig {
    /// `threads` split into `sockets` contiguous blocks (synthetic
    /// topology, same shape as [`crate::batch::BatchConfig::uniform`] but *without* the
    /// socket clamp: a replica may own no threads at all — backpressure
    /// help keeps it within `max_lag` of the log head anyway).
    pub fn uniform(threads: usize, sockets: usize) -> Self {
        assert!(threads > 0 && sockets > 0);
        Self {
            socket_of: (0..threads).map(|t| t * sockets / threads).collect(),
            sockets,
            logs: 2,
            log_capacity: 256,
            max_lag: 192,
            adapt: None,
        }
    }

    /// Number of independent operation logs (default 2). Must be a power
    /// of two: the log of a key is the `log2(logs)`-bit list-family suffix
    /// of its hash.
    pub fn logs(mut self, logs: usize) -> Self {
        assert!(logs >= 1 && logs.is_power_of_two(), "logs must be a power of two");
        self.logs = logs;
        self
    }

    /// Slots per log (default 256). Must be a power of two `>= 2`.
    pub fn log_capacity(mut self, capacity: usize) -> Self {
        assert!(
            capacity >= 2 && capacity.is_power_of_two(),
            "log capacity must be a power of two >= 2"
        );
        self.log_capacity = capacity;
        self
    }

    /// Backpressure bound (default 192): an appender observing this many
    /// unapplied slots ahead of the slowest replica helps replay before
    /// appending. Must satisfy `1 <= max_lag <= log_capacity`.
    pub fn max_lag(mut self, max_lag: usize) -> Self {
        assert!(max_lag >= 1, "max_lag must be positive");
        self.max_lag = max_lag;
        self
    }

    /// Attaches the adaptation controller (see the module docs): the map
    /// senses its write ratio and switches between the replicated and
    /// single-structure regimes through the epoch protocol. Without one
    /// (the default) the map runs the same protocol pinned in the
    /// replicated mode, with no epoch word to load.
    pub fn adapt(mut self, cfg: AdaptConfig) -> Self {
        self.adapt = Some(cfg);
        self
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

/// What an appender deposits in a log slot.
struct Pending<K, V> {
    /// The appender's socket: the applier replaying *that* replica
    /// publishes the operation's outcome back through the slot.
    home: usize,
    /// The key's [`hash_key`], computed once by the appender: it chose
    /// the log, and every replica's replay executes the operation under it.
    hash: u64,
    op: BatchOp<K, V>,
}

/// One bounded-log slot. Three phases, each handed off through a facade
/// atomic:
///
/// 1. the appender (exclusive by slot-reuse invariant) writes `op`, then
///    stamps `seq = pos + 1`;
/// 2. appliers of every replica wait for the stamp and read `op` (shared);
/// 3. the applier on the appender's home replica publishes
///    `result = ((pos + 1) << 1) | ok`, and the appender consumes it back
///    to `0` — the consume-ack that lets the slot's next occupant (a full
///    wrap later) publish its own outcome unambiguously.
struct LogSlot<K, V> {
    seq: FacadeAtomicUsize,
    result: FacadeAtomicUsize,
    op: UnsafeCell<Option<Pending<K, V>>>,
}

/// A bounded MPSC operation log with one completion tail (and one replay
/// lease) per replica.
struct OpLog<K, V> {
    head: Padded<FacadeAtomicUsize>,
    tails: Vec<Padded<FacadeAtomicUsize>>,
    leases: Vec<Padded<FacadeAtomicUsize>>,
    slots: Box<[LogSlot<K, V>]>,
    mask: usize,
}

// Slot cells are handed off through the seq/result stamps (see `LogSlot`);
// shared reads of a stamped op happen through `&Pending`, hence `Sync` on
// the key/value types.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for OpLog<K, V> {}
unsafe impl<K: Send, V: Send> Send for OpLog<K, V> {}

impl<K, V> OpLog<K, V> {
    fn new(capacity: usize, replicas: usize) -> Self {
        Self {
            head: Padded(FacadeAtomicUsize::new(0)),
            tails: (0..replicas).map(|_| Padded(FacadeAtomicUsize::new(0))).collect(),
            leases: (0..replicas).map(|_| Padded(FacadeAtomicUsize::new(0))).collect(),
            slots: (0..capacity)
                .map(|_| LogSlot {
                    seq: FacadeAtomicUsize::new(0),
                    result: FacadeAtomicUsize::new(0),
                    op: UnsafeCell::new(None),
                })
                .collect(),
            mask: capacity - 1,
        }
    }

    /// The slowest replica's completion tail.
    fn min_tail(&self) -> usize {
        self.tails.iter().map(|t| t.0.load()).min().expect("at least one replica")
    }

    /// The replica with the smallest completion tail (backpressure target).
    fn laggiest(&self) -> usize {
        let mut best = 0;
        let mut best_tail = usize::MAX;
        for (r, t) in self.tails.iter().enumerate() {
            let tail = t.0.load();
            if tail < best_tail {
                best_tail = tail;
                best = r;
            }
        }
        best
    }
}

/// One replica of the layered map per socket, fed by membership-vector-
/// partitioned operation logs. See the module docs for the protocol.
pub struct ReplicatedLayeredMap<K, V> {
    replicas: Vec<LayeredMap<K, V>>,
    logs: Vec<OpLog<K, V>>,
    rcfg: ReplicaConfig,
    /// `log2(logs)` — the membership-vector level whose list families key
    /// the log partition.
    log_level: u8,
    /// The controller and its epoch word; `None` on a static map.
    adapt: Option<AdaptState>,
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
        assert!(
            rcfg.max_lag <= rcfg.log_capacity,
            "max_lag {} exceeds log capacity {}",
            rcfg.max_lag,
            rcfg.log_capacity
        );
        let sockets = rcfg.sockets();
        let replicas = (0..sockets)
            .map(|r| {
                // Per-socket placement: replica `r`'s memory belongs to
                // socket `r` no matter which thread replays into it, so
                // its nodes carry the socket's first thread as ownership
                // tag (locality attribution + recycle destination). A
                // thread-less socket keeps allocating-thread ownership.
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
            logs: (0..rcfg.logs).map(|_| OpLog::new(rcfg.log_capacity, sockets)).collect(),
            log_level: rcfg.logs.trailing_zeros() as u8,
            adapt: rcfg.adapt.map(AdaptState::new),
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

    /// Telemetry snapshot of the adaptive control loop, or `None` when
    /// this map was built without [`ReplicaConfig::adapt`].
    pub fn adapt_state(&self) -> Option<AdaptSnapshot> {
        let ad = self.adapt.as_ref()?;
        let epoch = ad.epoch.0.load();
        Some(AdaptSnapshot {
            mode: mode_name(epoch),
            generation: epoch >> 2,
            downshifts: ad.downshifts.load(Relaxed),
            upshifts: ad.upshifts.load(Relaxed),
            windows: ad.windows.load(Relaxed),
            last_write_pct: ad.last_write_pct.load(Relaxed),
            open_window_ops: ad.window.open_window().total,
        })
    }

    /// The epoch every operation validates against. Only a controller
    /// moves the word, so a map without one answers with the constant it
    /// would hold forever — generation 0 of the replicated mode — and
    /// makes no shared load: its operations keep the exact facade-access
    /// sequence (the `deterministic` yield points) of a protocol that has
    /// no epoch at all.
    fn epoch(&self) -> usize {
        match &self.adapt {
            Some(ad) => ad.epoch.0.load(),
            None => MODE_REPLICATED,
        }
    }

    /// The log a key's operations append to: the level-`log2(logs)`
    /// membership-vector list family of the key's [`hash_key`], `hash` —
    /// its low bits. All operations on one key conflict, so they share a
    /// log and stay totally ordered; distinct families commute and replay
    /// in parallel.
    fn log_of(&self, hash: u64) -> usize {
        list_suffix(hash as u32, self.log_level) as usize
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
        self.update(BatchOp::Insert(key, value))
    }

    /// Set-semantics remove through the operation log; returns once the
    /// home replica has applied it.
    pub fn remove(&mut self, key: &K) -> bool {
        self.update(BatchOp::Remove(key.clone()))
    }

    /// Membership test served by the replica the read rule names: the
    /// socket-local one once its tail passed the mapped log's head (NR's
    /// read rule), or — in an adaptive map's single-class epochs —
    /// replica 0 with no log wait.
    pub fn contains(&mut self, key: &K) -> bool {
        let hash = hash_key(key);
        let r = self.read_replica(hash);
        self.handles[r].contains_hashed(key, hash)
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
        let r = self.read_replica(hash);
        self.handles[r].get_hashed(key, hash)
    }

    /// The read rule: which replica may answer a read of the key whose
    /// [`hash_key`] is `hash` right now.
    /// In a replicated-class epoch that is the socket-local replica, once
    /// its tail has passed the mapped log's head (NR's read rule — one
    /// shared load per read, the traversal itself never leaves the
    /// socket); if the epoch moves during the wait the local replica may
    /// be retiring, so the read restarts. In a single-class epoch it is
    /// replica 0 with no wait: every completed operation is already
    /// applied there (see the module docs' transition argument).
    fn read_replica(&mut self, hash: u64) -> usize {
        self.sense(false);
        loop {
            let epoch = self.map.epoch();
            if single_class(epoch) {
                return 0;
            }
            let li = self.map.log_of(hash);
            if self.wait_local_valid(li, epoch) {
                return self.socket;
            }
        }
    }

    /// Catches this thread's socket replica up to the head of *every*
    /// log (NR's `sync`): afterwards the replica reflects all operations
    /// appended before the call. Reads do this lazily per log; call it
    /// once after a bulk load so the replay debt is not paid inside a
    /// measured (or latency-sensitive) read path.
    pub fn sync(&mut self) {
        'epoch: loop {
            let epoch = self.map.epoch();
            if single_class(epoch) {
                // Replica 0 is synchronously maintained by every
                // completed single-mode write; nothing to replay.
                return;
            }
            for li in 0..self.map.logs.len() {
                if !self.wait_local_valid(li, epoch) {
                    continue 'epoch;
                }
            }
            return;
        }
    }

    /// Appends `op` to its key's log under a validated epoch and waits
    /// (helping) until its home replica applied it; returns the
    /// operation's set-semantics outcome. The home is the writer's own
    /// socket in a replicated epoch (read-your-writes) and replica 0 in a
    /// single-class one. The key is hashed here, once for every replica.
    fn update(&mut self, op: BatchOp<K, V>) -> bool {
        self.sense(true);
        let map = self.map;
        let hash = hash_key(op.key());
        let li = map.log_of(hash);
        let log = &map.logs[li];
        self.ctx().record_op();
        let (pos, home) = loop {
            // Claim a slot, lag-bounded against the tails that still gate
            // slot reuse in the current epoch: every tail when replicated
            // (and down-draining), replica 0's alone once single-class —
            // retired tails stop moving and would freeze the log. While
            // the slowest of them trails by max_lag (<= capacity), help it
            // drain instead of growing the backlog — this is also what
            // makes slot reuse safe, since a claimed position implies
            // every gating tail passed its previous occupant.
            let mut spins = 0u32;
            let (pos, epoch) = loop {
                let epoch = map.epoch();
                if transitional(epoch) {
                    // A transition is redirecting the log; wait it out.
                    backoff(&mut spins);
                    continue;
                }
                // `min` before `head`: tails never pass the head and the
                // head only grows, so this order guarantees `min <= head`
                // (the reverse order could observe a tail that advanced
                // past a stale head). A stale-low `min` merely
                // overestimates the lag.
                let min = if single_class(epoch) {
                    log.tails[0].0.load()
                } else {
                    log.min_tail()
                };
                let head = log.head.0.load();
                if head - min >= map.rcfg.max_lag {
                    // The target's lease may be held by a descheduled
                    // thread (try_replay then returns at once): back off.
                    let target = if single_class(epoch) { 0 } else { log.laggiest() };
                    self.try_replay(li, target);
                    backoff(&mut spins);
                    continue;
                }
                if log.head.0.compare_exchange(head, head + 1).is_ok() {
                    self.ctx().record_log_append((head - min) as u64);
                    break (head, epoch);
                }
            };
            let slot = &log.slots[pos & log.mask];
            // Revalidate the epoch the claim was made under. A mismatch
            // means a transition CAS landed between the claim-loop load
            // and here: the home decision below could disagree with who
            // drains in the new epoch, so the slot is poisoned — stamped
            // empty (seq must advance: drains spin on it), which every
            // drain skips — and the claim retried under the new epoch.
            // Generations make the comparison ABA-proof.
            //
            // The cell is exclusive either way: all appliers finished the
            // previous occupant (the gating tails passed it) before `pos`
            // could be claimed.
            if map.epoch() != epoch {
                unsafe { *slot.op.get() = None };
                slot.seq.store(pos + 1);
                continue;
            }
            let home = if single_class(epoch) { 0 } else { self.socket };
            unsafe { *slot.op.get() = Some(Pending { home, hash, op }) };
            slot.seq.store(pos + 1);
            break (pos, home);
        };
        // Wait for the home replica's applier to publish this op's
        // outcome, replaying the home replica ourselves whenever its lease
        // is free. It is always the *captured* home's lease that is helped
        // — in single mode every writer self-serves replica 0, and under
        // the injected severed drain a stranded replicated-era writer
        // still self-serves its own replica instead of hanging.
        let slot = &log.slots[pos & log.mask];
        let mut spins = 0u32;
        loop {
            let r = slot.result.load();
            if r >> 1 == pos + 1 {
                slot.result.store(0); // consume-ack frees the slot's result
                return r & 1 == 1;
            }
            // Help replay the home replica — but take the lease inline and
            // re-check our own result *after* winning it, before draining.
            // This closes a self-deadlock: our result may already be
            // published (a remote drain advanced the home tail past `pos`
            // after the stale load above), and once every tail passes
            // `pos` the slot can be reclaimed by a new occupant a full
            // wrap later. If that occupant is also homed here, drain's
            // publish would spin on `slot.result == 0` waiting for a
            // consume only we can perform — while we sit inside drain.
            // Consuming first makes that wait impossible for us, and while
            // we hold the home lease nobody else can publish our result,
            // so the pre-drain check cannot go stale.
            if log.leases[home].0.compare_exchange(0, self.tid + 1).is_ok() {
                let r = slot.result.load();
                if r >> 1 == pos + 1 {
                    slot.result.store(0);
                    log.leases[home].0.store(0);
                    return r & 1 == 1;
                }
                self.drain(li, home);
                log.leases[home].0.store(0);
            }
            backoff(&mut spins);
        }
    }

    /// The tail-wait of the read rule: loads the log's head once, then
    /// replays the local replica (or waits on whoever holds its lease)
    /// until its tail passes that head. Re-checks the epoch on every wait
    /// iteration and returns `false` (restart) the moment it moves.
    fn wait_local_valid(&mut self, li: usize, epoch: usize) -> bool {
        let log = &self.map.logs[li];
        let head = log.head.0.load();
        // Injected bug (`--features bug-injection`): sever the tail-wait,
        // serving the read from whatever prefix the local replica happens
        // to have applied. A completed remote write (or a fresher read on
        // another socket) is then invisible here — a stale read the
        // deterministic stress wall catches and shrinks. Static maps
        // only: a map with a controller carries the severed downshift
        // drain instead (one live fault per stress lane).
        #[cfg(feature = "bug-injection")]
        if self.map.adapt.is_none() {
            return true;
        }
        let mut spins = 0u32;
        while log.tails[self.socket].0.load() < head {
            if self.map.epoch() != epoch {
                return false;
            }
            self.try_replay(li, self.socket);
            backoff(&mut spins);
        }
        true
    }

    /// Feeds the write-ratio sensor; the op that closes a window
    /// reconciles the epoch with the controller's intent. Inlined, with
    /// the window close kept out of line, so that a map without a
    /// controller pays one branch per operation and not a call.
    #[inline]
    fn sense(&mut self, is_write: bool) {
        let Some(ad) = &self.map.adapt else { return };
        if let Some(sample) = ad.window.record(is_write, ad.cfg.window_ops) {
            self.reconcile(ad, sample.flagged_pct());
        }
    }

    /// Window close: runs the hysteresis gate on the closed window's
    /// write percentage and drives the epoch toward the gate's intent.
    /// Also self-heals a switch whose transition CAS was lost to a race
    /// (the next window re-attempts it).
    #[cold]
    fn reconcile(&mut self, ad: &AdaptState, write_pct: u32) {
        ad.last_write_pct.store(write_pct, Relaxed);
        ad.windows.fetch_add(1, Relaxed);
        ad.gate.observe(write_pct);
        let want_single = ad.gate.engaged();
        let epoch = ad.epoch.0.load();
        if transitional(epoch) || single_class(epoch) == want_single {
            return;
        }
        if want_single {
            self.downshift(ad, epoch);
        } else {
            self.upshift(ad, epoch);
        }
    }

    /// Replicated → single. Publishes the down-drain mode (one winner),
    /// drains every `(log, replica)` pair to stability — no completed
    /// write may be stranded in a suffix replica 0 never applied, since
    /// single-class reads serve replica 0 directly — then publishes the
    /// single epoch with a bumped generation.
    fn downshift(&mut self, ad: &AdaptState, epoch: usize) {
        let draining = epoch | MODE_DOWN_DRAIN;
        if ad.epoch.0.compare_exchange(epoch, draining).is_err() {
            return;
        }
        // Injected bug (`--features bug-injection`): sever the
        // drain-before-switch, flipping straight to single mode. A write
        // homed on another socket that completed before the flip (its
        // own replica applied it) is then invisible to the direct
        // replica-0 reads until some later single-mode write happens to
        // drain that log — a non-linearizable read window the adaptive
        // det stress lane catches and shrinks.
        #[cfg(not(feature = "bug-injection"))]
        self.drain_all_until_stable();
        ad.epoch.0.store((epoch & !MODE_MASK) + 4 + MODE_SINGLE);
        ad.downshifts.fetch_add(1, Relaxed);
    }

    /// Single → replicated. Publishes up-rebuild (one winner), drains
    /// every log into replica 0 to stability, snaps the retired tails to
    /// replica 0's applied prefix, rebuilds each replica to replica 0's
    /// key set by a two-snapshot diff, then publishes the replicated
    /// epoch with a bumped generation. Writers sit out the transitional
    /// mode, so the rebuild races only stale readers — which the layered
    /// map tolerates structurally, and which linearize because the diff
    /// only applies completed operations' effects. Presence outcomes are
    /// replay-idempotent, so the post-flip drains may replay a suffix
    /// the snapshot already covered without divergence; shared keys keep
    /// the replica's own value (the documented value-consistency
    /// caveat).
    fn upshift(&mut self, ad: &AdaptState, epoch: usize) {
        let map = self.map;
        // MODE_SINGLE -> MODE_UP_REBUILD
        if ad.epoch.0.compare_exchange(epoch, epoch | 1).is_err() {
            return;
        }
        let mut spins = 0u32;
        loop {
            let mut stable = true;
            for li in 0..map.logs.len() {
                let log = &map.logs[li];
                if log.tails[0].0.load() < log.head.0.load() {
                    stable = false;
                    self.try_replay(li, 0);
                }
            }
            if stable {
                break;
            }
            backoff(&mut spins);
        }
        // Snap the retired tails *before* the snapshots: every op past
        // replica 0's applied prefix replays into the rebuilt replicas
        // through the normal post-flip drains, and replaying ops the
        // snapshot already includes cannot change presence outcomes.
        for log in &map.logs {
            let applied = log.tails[0].0.load();
            for tail in log.tails.iter().skip(1) {
                tail.0.store(applied);
            }
        }
        for r in 1..map.replicas.len() {
            let (to_insert, to_remove) = {
                let mut want = map.replicas[0]
                    .shared()
                    .iter_snapshot(self.handles[0].ctx())
                    .peekable();
                let mut have = map.replicas[r]
                    .shared()
                    .iter_snapshot(self.handles[r].ctx())
                    .peekable();
                let mut ins: Vec<(K, V)> = Vec::new();
                let mut del: Vec<K> = Vec::new();
                loop {
                    match (want.peek(), have.peek()) {
                        (Some((kw, _)), Some((kh, _))) => match kw.cmp(kh) {
                            std::cmp::Ordering::Less => {
                                let (k, v) = want.next().expect("peeked");
                                ins.push((k.clone(), v.clone()));
                            }
                            std::cmp::Ordering::Greater => {
                                let (k, _) = have.next().expect("peeked");
                                del.push(k.clone());
                            }
                            std::cmp::Ordering::Equal => {
                                want.next();
                                have.next();
                            }
                        },
                        (Some(_), None) => {
                            let (k, v) = want.next().expect("peeked");
                            ins.push((k.clone(), v.clone()));
                        }
                        (None, Some(_)) => {
                            let (k, _) = have.next().expect("peeked");
                            del.push(k.clone());
                        }
                        (None, None) => break,
                    }
                }
                (ins, del)
            };
            let handle = &mut self.handles[r];
            for k in to_remove {
                handle.remove(&k);
            }
            for (k, v) in to_insert {
                handle.insert(k, v);
            }
        }
        ad.epoch.0.store((epoch & !MODE_MASK) + 4); // gen+1, MODE_REPLICATED
        ad.upshifts.fetch_add(1, Relaxed);
    }

    /// Drains every `(log, replica)` pair until all tails meet their
    /// heads. Terminates under the down-drain epoch: claims straddling
    /// the transition poison themselves and retry into the transitional
    /// wait, so each thread adds at most one slot after the mode
    /// publish.
    #[cfg_attr(feature = "bug-injection", allow(dead_code))]
    fn drain_all_until_stable(&mut self) {
        let map = self.map;
        let mut spins = 0u32;
        loop {
            let mut stable = true;
            for li in 0..map.logs.len() {
                let log = &map.logs[li];
                for r in 0..map.replicas.len() {
                    if log.tails[r].0.load() < log.head.0.load() {
                        stable = false;
                        self.try_replay(li, r);
                    }
                }
            }
            if stable {
                return;
            }
            backoff(&mut spins);
        }
    }

    /// One replay attempt: win the (replica, log) lease and drain the
    /// pending suffix, or return immediately if another thread holds it
    /// (that thread's progress is ours — callers loop on the condition
    /// they actually wait for).
    fn try_replay(&mut self, li: usize, replica: usize) {
        let log = &self.map.logs[li];
        if log.leases[replica].0.compare_exchange(0, self.tid + 1).is_err() {
            return;
        }
        self.drain(li, replica);
        log.leases[replica].0.store(0);
    }

    /// Drains `[tail, head)` of log `li` into `replica` as one stable-
    /// sorted run — one `combined_run` of the replica's handle, the
    /// combiner's hint-chained path with its one-pass bulk index publish —
    /// publishing outcomes for ops homed here. Every logged op executes,
    /// in log order per key. The caller holds the (replica, log) replay
    /// lease.
    fn drain(&mut self, li: usize, replica: usize) {
        let map = self.map;
        let log = &map.logs[li];
        let tail = log.tails[replica].0.load();
        let head = log.head.0.load();
        if head == tail {
            return;
        }
        let mut batch: Vec<(usize, usize, u64, BatchOp<K, V>)> = Vec::with_capacity(head - tail);
        for pos in tail..head {
            let slot = &log.slots[pos & log.mask];
            // The claimer stamps seq right after writing the op; between
            // claim and stamp we spin (each facade load is a det yield),
            // yielding the OS thread once the claimer looks descheduled.
            let mut spins = 0u32;
            loop {
                let seq = slot.seq.load();
                if seq == pos + 1 {
                    break;
                }
                // A stamp from a later wrap: the log lapped this drain.
                // Only a replica retired by a single-class epoch can
                // observe this (its tail no longer gates slot reuse), so
                // the drainer is a stale helper — abort before applying
                // or publishing anything; the tail stays put and the
                // caller revalidates its epoch.
                if seq > pos + 1 {
                    return;
                }
                backoff(&mut spins);
            }
            // A poisoned slot (a claim that straddled an epoch transition)
            // holds no op: it advances the tail but is never applied; its
            // writer retried under the new epoch.
            if let Some(p) = unsafe { (*slot.op.get()).as_ref() } {
                batch.push((pos, p.home, p.hash, p.op.clone()));
            }
        }
        // Stable sort: same-key operations keep log order, so every
        // replica applies the same per-key history (set-semantics outcomes
        // depend on nothing else).
        batch.sort_by(|a, b| a.3.key().cmp(b.3.key()));
        let count = batch.len() as u64;
        let mut publish_result = |pos: usize, home: usize, out: BatchOutcome<K, V>| {
            if home != replica {
                return;
            }
            let ok = match out {
                BatchOutcome::Inserted { fresh, .. } => fresh,
                BatchOutcome::Removed { removed, .. } => removed,
                BatchOutcome::Got(v) => v.is_some(),
            };
            let slot = &log.slots[pos & log.mask];
            // The previous occupant's outcome (one wrap back) must be
            // consumed before this one lands. That writer is never *us*: a
            // writer helping from its result-wait consumes its own
            // published result right after taking this lease, before
            // draining (see `update`), so the pending consumer is a
            // different, live thread in its own result-wait and this
            // terminates — but it may be descheduled, so yield to it.
            let mut spins = 0u32;
            while slot.result.load() != 0 {
                backoff(&mut spins);
            }
            slot.result.store(((pos + 1) << 1) | ok as usize);
        };
        if replica == self.socket {
            self.handles[replica].combined_run(batch, &mut publish_result);
        } else {
            // Another socket's replica: this handle's local map there
            // holds only what it replayed there before, so each operation
            // starts warm from its home local predecessor's node, which
            // the target replica's index finds (`warm_start`).
            let home = &self.handles[self.socket];
            let work: Vec<_> = batch
                .into_iter()
                .map(|item| {
                    let warm = home.local_pred_key(item.3.key()).map(|k| {
                        let hash = hash_key(&k);
                        (k, hash)
                    });
                    (item, warm)
                })
                .collect();
            self.handles[replica].combined_run_warm(work, &mut publish_result);
        }
        log.tails[replica].0.store(head);
        self.ctx().record_replay_batch(count);
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
    use instrument::AccessStats;

    fn config(threads: usize) -> GraphConfig {
        GraphConfig::new(threads).lazy(true).hash_index(true)
    }

    #[test]
    fn single_thread_roundtrip_across_sockets() {
        // One thread, two replicas: every write replays into the home
        // replica synchronously; reads see it immediately.
        let map: ReplicatedLayeredMap<u64, u64> =
            ReplicatedLayeredMap::new(config(1), ReplicaConfig::uniform(1, 2).logs(2));
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
        // Capacity 8 with lag bound 4: 200 updates force many wraps and
        // constant self-help replay; set semantics must be exact.
        let map: ReplicatedLayeredMap<u64, u64> = ReplicatedLayeredMap::new(
            config(1),
            ReplicaConfig::uniform(1, 2).logs(1).log_capacity(8).max_lag(4),
        );
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
            ReplicatedLayeredMap::new(config(2), ReplicaConfig::uniform(2, 2).logs(2));
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

    #[test]
    fn log_partition_is_stable_and_within_bounds() {
        let map: ReplicatedLayeredMap<u64, u64> =
            ReplicatedLayeredMap::new(config(1), ReplicaConfig::uniform(1, 1).logs(4));
        for k in 0..256u64 {
            let l = map.log_of(hash_key(&k));
            assert!(l < 4);
            assert_eq!(l, map.log_of(hash_key(&k)), "same key, same log");
        }
    }

    #[test]
    fn adaptive_downshifts_on_writes_and_upshifts_on_reads() {
        let map: ReplicatedLayeredMap<u64, u64> = ReplicatedLayeredMap::new(
            config(1),
            ReplicaConfig::uniform(1, 2)
                .logs(1)
                .adapt(AdaptConfig::new().window_ops(8).dwell_windows(0)),
        );
        let mut h = map.register(ThreadCtx::plain(0));
        assert_eq!(map.adapt_state().unwrap().mode, "replicated");
        // Pure-write windows: 100% >= the 60% downshift threshold.
        for i in 0..64u64 {
            assert!(h.insert(i, i * 2));
        }
        let s = map.adapt_state().unwrap();
        assert_eq!(s.mode, "single");
        assert_eq!(s.downshifts, 1);
        assert!(s.windows >= 8);
        assert_eq!(s.last_write_pct, 100);
        // Single-mode reads serve replica 0 directly and see every write.
        for i in 0..8u64 {
            assert_eq!(h.get(&i), Some(i * 2));
        }
        // Pure-read windows: 0% <= the 40% upshift threshold.
        for i in 0..64u64 {
            assert!(h.contains(&i), "key {i} lost across a transition");
        }
        let s = map.adapt_state().unwrap();
        assert_eq!(s.mode, "replicated");
        assert_eq!(s.upshifts, 1);
        assert_eq!(s.generation, 2, "each completed switch bumps the generation");
        // The rebuilt replicas answer replicated-class reads correctly.
        for i in 0..64u64 {
            assert_eq!(h.get(&i), Some(i * 2));
        }
        assert!(!h.contains(&999));
    }

    #[test]
    fn adaptive_churn_across_transitions_matches_a_model() {
        // Mode flaps every few windows while inserts and removes churn a
        // small key space over a tiny wrapping log; set semantics must
        // track the sequential model exactly.
        let map: ReplicatedLayeredMap<u64, u64> = ReplicatedLayeredMap::new(
            config(1),
            ReplicaConfig::uniform(1, 2)
                .logs(2)
                .log_capacity(8)
                .max_lag(4)
                .adapt(AdaptConfig::new().window_ops(4).dwell_windows(0)),
        );
        let stats = AccessStats::new(1);
        let mut h = map.register(ThreadCtx::recording(0, stats.clone()));
        let mut model = std::collections::BTreeMap::new();
        let mut x = 9u64;
        for step in 0..600u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let k = (x >> 33) % 12;
            match (x >> 7) % 3 {
                0 => assert_eq!(h.insert(k, step), model.insert(k, step).is_none(), "step {step}"),
                1 => assert_eq!(h.remove(&k), model.remove(&k).is_some(), "step {step}"),
                _ => assert_eq!(h.contains(&k), model.contains_key(&k), "step {step}"),
            }
        }
        let s = map.adapt_state().unwrap();
        assert!(s.downshifts >= 1 && s.upshifts >= 1, "workload must flap modes: {s:?}");
        for k in 0..12u64 {
            assert_eq!(h.contains(&k), model.contains_key(&k), "final key {k}");
        }

        // A poisoned claim, made by hand (one thread cannot straddle its
        // own transition): win the head CAS and stamp the slot empty, as
        // `update` does when its post-claim epoch check fails. Start from
        // the replicated mode with every replica drained, so the counters
        // below see only the poison and the retry.
        for _ in 0..8 {
            h.contains(&0); // read-only windows upshift
        }
        assert_eq!(map.adapt_state().unwrap().mode, "replicated");
        let key = 99u64;
        let li = map.log_of(hash_key(&key));
        let log = &map.logs[li];
        for r in 0..2 {
            h.try_replay(li, r);
        }
        let pos = log.head.0.load();
        assert!((0..2).all(|r| log.tails[r].0.load() == pos));
        assert!(log.head.0.compare_exchange(pos, pos + 1).is_ok());
        let slot = &log.slots[pos & log.mask];
        unsafe { *slot.op.get() = None };
        slot.seq.store(pos + 1);
        let before = stats.totals();
        // The writer's retry lands exactly once...
        assert!(h.insert(key, 1), "retry after the poisoned claim");
        assert!(!h.insert(key, 2), "the retried insert landed twice");
        for r in 0..2 {
            h.try_replay(li, r);
        }
        // ...and every replica's drain stepped over the poisoned slot:
        // tails passed it, nothing was applied or published for it.
        let after = stats.totals();
        assert_eq!(log.head.0.load(), pos + 3);
        assert!((0..2).all(|r| log.tails[r].0.load() == pos + 3));
        assert_eq!(slot.result.load(), 0, "a poisoned slot got an outcome");
        assert_eq!(after.log_appends - before.log_appends, 2);
        let replayed = after.replayed_ops - before.replayed_ops;
        assert_eq!(replayed, 4, "2 inserts x 2 replicas");
        assert!((0..2).all(|r| h.handles[r].get(&key) == Some(1)));
        assert_eq!(map.adapt_state().unwrap().mode, "replicated");
    }

    #[test]
    fn adaptive_read_your_writes_across_threads_and_sockets() {
        // The writer's burst downshifts to single mode mid-stream; the
        // reader on the other socket must still see every write.
        let map: ReplicatedLayeredMap<u64, u64> = ReplicatedLayeredMap::new(
            config(2),
            ReplicaConfig::uniform(2, 2)
                .logs(2)
                .adapt(AdaptConfig::new().window_ops(8).dwell_windows(0)),
        );
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut w = map.register(ThreadCtx::plain(0));
                for i in 0..48u64 {
                    assert!(w.insert(i, i * 3));
                }
            })
            .join()
            .unwrap();
            assert_eq!(map.adapt_state().unwrap().mode, "single");
            s.spawn(|| {
                let mut r = map.register(ThreadCtx::plain(1));
                assert_ne!(r.socket(), 0, "thread 1 pins to the second socket");
                for i in 0..48u64 {
                    assert_eq!(r.get(&i), Some(i * 3), "key {i}");
                }
                // The read burst upshifts; re-read through the rebuilt
                // local replica.
                assert_eq!(map.adapt_state().unwrap().mode, "replicated");
                for i in 0..48u64 {
                    assert!(r.contains(&i), "key {i} after upshift");
                }
            })
            .join()
            .unwrap();
        });
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
