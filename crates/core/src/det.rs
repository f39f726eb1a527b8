//! Deterministic-schedule execution (the `deterministic` cargo feature).
//!
//! Normal builds compile [`crate::sync::TaggedAtomic`] straight down to
//! `std::sync::atomic` with no indirection. With `--features deterministic`
//! every tagged-atomic load/store/CAS (and the lazy protocol's `inserted`
//! flag) first passes through [`yield_point`], which hands control to a
//! seeded cooperative scheduler: exactly one registered thread runs between
//! consecutive shared-memory accesses, so the whole interleaving — and
//! therefore every operation result — is a pure function of the schedule
//! seed and policy. A failing seed replays exactly.
//!
//! Two exploration policies are provided (plus replay):
//!
//! * [`Policy::RoundRobin`] — rotate through live threads every `quantum`
//!   steps. [`round_robin_family`] enumerates every (quantum, start-thread)
//!   combination up to a bound, giving bounded-exhaustive coverage of small
//!   schedules.
//! * [`Policy::Pct`] — PCT-style: threads get random priorities from the
//!   seed, the highest-priority live thread always runs, and at `d` random
//!   change points the running thread's priority drops below everyone
//!   else's. Good at surfacing bugs that need a small number of adversarial
//!   preemptions.
//! * [`Policy::Replay`] — follow an explicit `(thread, steps)` segment list
//!   (produced by shrinking a failing trace), falling back to round-robin
//!   when the list is exhausted or prescribes a finished thread.
//!
//! Threads that block outside the facade (OS mutexes, spinlocks, channels)
//! must not run under this scheduler: a blocked token-holder would starve
//! the thread it waits for. The stress runner therefore restricts
//! deterministic mode to the lock-free structures whose shared accesses all
//! go through `TaggedAtomic`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// How the scheduler picks the next thread at each yield point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Rotate through live threads, switching every `quantum` steps. The
    /// starting thread is `seed % threads`.
    RoundRobin {
        /// Steps a thread runs before the token rotates (min 1).
        quantum: u32,
    },
    /// Random thread priorities with `change_points` priority drops at
    /// steps drawn uniformly from `1..expected_steps`.
    Pct {
        /// Number of priority-change points to inject.
        change_points: u32,
        /// Horizon the change points are drawn from (roughly the expected
        /// total number of shared-memory accesses in the run).
        expected_steps: u64,
    },
    /// Follow recorded `(thread, steps)` segments, then round-robin.
    Replay {
        /// The schedule to follow, as run-length-encoded thread choices.
        segments: Vec<(u16, u32)>,
    },
}

/// A complete deterministic-run configuration.
#[derive(Clone, Debug)]
pub struct DetConfig {
    /// Seed for every random choice the policy makes.
    pub seed: u64,
    /// Scheduling policy.
    pub policy: Policy,
    /// Abort the run (by panicking every worker) past this many steps —
    /// a safety valve against unforeseen livelocks.
    pub max_steps: u64,
    /// Force a rotation after this many consecutive steps on one thread,
    /// so priority-based schedules cannot starve a helper a spinning
    /// thread depends on.
    pub starvation_limit: u32,
}

impl DetConfig {
    /// A config with default bounds (2M steps, 50k-step starvation valve).
    pub fn new(seed: u64, policy: Policy) -> Self {
        Self {
            seed,
            policy,
            max_steps: 2_000_000,
            starvation_limit: 50_000,
        }
    }
}

/// Every (quantum, starting-thread) round-robin schedule with quantum up to
/// `max_quantum` — a bounded-exhaustive family of small schedules. The
/// returned pairs are `(seed, policy)`; the seed only selects the starting
/// thread.
pub fn round_robin_family(threads: u16, max_quantum: u32) -> Vec<(u64, Policy)> {
    let mut out = Vec::new();
    for quantum in 1..=max_quantum.max(1) {
        for start in 0..threads.max(1) {
            out.push((start as u64, Policy::RoundRobin { quantum }));
        }
    }
    out
}

/// The scheduling decisions of one deterministic run: entry `i` is the
/// thread granted step `i`. Two runs with the same seed, policy, and
/// workload produce identical traces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// The seed the run was driven by.
    pub seed: u64,
    /// Chosen thread per step.
    pub decisions: Vec<u16>,
}

impl Trace {
    /// Run-length encoding of the decisions: `(thread, consecutive steps)`.
    pub fn segments(&self) -> Vec<(u16, u32)> {
        let mut out: Vec<(u16, u32)> = Vec::new();
        for &t in &self.decisions {
            match out.last_mut() {
                Some((last, n)) if *last == t => *n += 1,
                _ => out.push((t, 1)),
            }
        }
        out
    }

    /// Number of context switches in the schedule.
    pub fn preemptions(&self) -> usize {
        self.segments().len().saturating_sub(1)
    }

    /// Compact human-readable rendering: `seed=7 steps=9 | t0*4 t1*2 t0*3`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("seed={} steps={} |", self.seed, self.decisions.len());
        for (t, n) in self.segments() {
            let _ = write!(s, " t{t}*{n}");
        }
        s
    }
}

enum PolicyState {
    RoundRobin {
        quantum: u32,
    },
    Pct {
        priorities: Vec<u64>,
        change_steps: Vec<u64>,
        next_change: usize,
        demote_next: u64,
    },
    Replay {
        segments: Vec<(u16, u32)>,
        idx: usize,
        used: u32,
    },
}

impl PolicyState {
    fn init(cfg: &DetConfig, threads: usize) -> Self {
        match &cfg.policy {
            Policy::RoundRobin { quantum } => PolicyState::RoundRobin {
                quantum: (*quantum).max(1),
            },
            Policy::Pct {
                change_points,
                expected_steps,
            } => {
                let mut rng = SmallRng::seed_from_u64(cfg.seed);
                // Unique-by-construction high priorities; demotions count
                // down from just below the initial band, so every demoted
                // thread ranks below all never-demoted threads.
                const BASE: u64 = 1 << 32;
                let priorities = (0..threads)
                    .map(|_| BASE + rng.gen_range(0..BASE))
                    .collect();
                let horizon = (*expected_steps).max(2);
                let mut change_steps: Vec<u64> = (0..*change_points)
                    .map(|_| rng.gen_range(1..horizon))
                    .collect();
                change_steps.sort_unstable();
                PolicyState::Pct {
                    priorities,
                    change_steps,
                    next_change: 0,
                    demote_next: BASE - 1,
                }
            }
            Policy::Replay { segments } => PolicyState::Replay {
                segments: segments.clone(),
                idx: 0,
                used: 0,
            },
        }
    }
}

struct State {
    started: bool,
    registered: usize,
    expected: usize,
    finished: Vec<bool>,
    /// Whether each thread has returned from `step_wait` since it was last
    /// granted the token — i.e. is executing (or has executed) its granted
    /// step. Without this, whether a freshly arriving thread makes a
    /// scheduling decision would depend on real-time arrival order.
    consumed: Vec<bool>,
    live: usize,
    current: usize,
    run_len: u32,
    step: u64,
    overflow: bool,
    trace: Vec<u16>,
    policy: PolicyState,
    max_steps: u64,
    starvation_limit: u32,
}

fn next_live(finished: &[bool], from: usize) -> usize {
    let n = finished.len();
    for d in 1..=n {
        let t = (from + d) % n;
        if !finished[t] {
            return t;
        }
    }
    unreachable!("no live thread to schedule");
}

/// Picks the thread for the next step. Must only be called with at least
/// one live thread.
fn choose(st: &mut State) -> usize {
    debug_assert!(st.live > 0);
    let State {
        policy,
        finished,
        current,
        run_len,
        step,
        starvation_limit,
        ..
    } = st;
    let cur = *current;
    let cur_live = !finished[cur];
    let starved = cur_live && *run_len >= *starvation_limit;
    match policy {
        PolicyState::RoundRobin { quantum } => {
            if cur_live && !starved && *run_len < *quantum {
                cur
            } else {
                next_live(finished, cur)
            }
        }
        PolicyState::Pct {
            priorities,
            change_steps,
            next_change,
            demote_next,
        } => {
            while *next_change < change_steps.len() && *step >= change_steps[*next_change] {
                if cur_live {
                    priorities[cur] = *demote_next;
                    *demote_next -= 1;
                }
                *next_change += 1;
            }
            if starved {
                priorities[cur] = *demote_next;
                *demote_next -= 1;
            }
            (0..finished.len())
                .filter(|&t| !finished[t])
                .max_by_key(|&t| priorities[t])
                .expect("live thread")
        }
        PolicyState::Replay {
            segments,
            idx,
            used,
        } => {
            loop {
                if *idx >= segments.len() {
                    break;
                }
                let (t, len) = segments[*idx];
                if finished[t as usize] || *used >= len {
                    *idx += 1;
                    *used = 0;
                    continue;
                }
                *used += 1;
                return t as usize;
            }
            // Schedule exhausted (threads ran longer than the recorded
            // trace, e.g. after shrinking): degrade to round-robin.
            next_live(finished, cur)
        }
    }
}

/// The cooperative scheduler one deterministic run executes under.
pub struct Scheduler {
    state: Mutex<State>,
    cv: Condvar,
}

impl Scheduler {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&self, g: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.cv.wait(g).unwrap_or_else(|e| e.into_inner())
    }

    /// Registers worker `tid` and blocks until all expected workers have
    /// registered. The last registrant makes the first scheduling decision.
    fn register(&self, tid: usize) {
        let mut st = self.lock();
        debug_assert!(tid < st.expected);
        st.registered += 1;
        if st.registered == st.expected {
            st.started = true;
            let first = choose(&mut st);
            st.trace.push(first as u16);
            st.current = first;
            st.run_len = 1;
            self.cv.notify_all();
        } else {
            while !st.started {
                st = self.wait(st);
            }
        }
    }

    /// One yield point: if this thread holds the token *and consumed its
    /// grant* it has just finished its granted step, so the next decision
    /// is made here; either way the call returns only once the token is
    /// (re)granted to this thread.
    fn step_wait(&self, tid: usize) {
        let mut st = self.lock();
        if st.overflow {
            panic!("deterministic run aborted: schedule bound exceeded");
        }
        if st.started && st.current == tid && st.consumed[tid] && !st.finished[tid] {
            st.consumed[tid] = false;
            st.step += 1;
            if st.step > st.max_steps {
                st.overflow = true;
                self.cv.notify_all();
                panic!(
                    "deterministic schedule exceeded max_steps={} (possible livelock); \
                     replay the seed with a larger DetConfig::max_steps",
                    st.max_steps
                );
            }
            let next = choose(&mut st);
            st.trace.push(next as u16);
            if next == st.current {
                st.run_len += 1;
            } else {
                st.run_len = 1;
                st.current = next;
                self.cv.notify_all();
            }
        }
        loop {
            if st.overflow {
                panic!("deterministic run aborted: schedule bound exceeded");
            }
            if st.started && st.current == tid {
                st.consumed[tid] = true;
                return;
            }
            st = self.wait(st);
        }
    }

    /// Marks `tid` finished and, if it held the token, passes it on. Never
    /// panics (it runs from a drop guard, possibly during unwinding).
    fn finish(&self, tid: usize) {
        let mut st = self.lock();
        if st.finished[tid] {
            return;
        }
        st.finished[tid] = true;
        st.live -= 1;
        if st.live == 0 || st.overflow {
            self.cv.notify_all();
            return;
        }
        if st.current == tid {
            st.step += 1;
            let next = choose(&mut st);
            st.trace.push(next as u16);
            st.current = next;
            st.run_len = 1;
            self.cv.notify_all();
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

/// The yield point every instrumented shared-memory access passes through.
/// A no-op on threads not registered with a scheduler (so enabling the
/// feature does not break ordinary tests), otherwise blocks until the
/// scheduler grants this thread its next step.
#[inline]
pub fn yield_point() {
    let entry = ACTIVE.with(|a| a.borrow().clone());
    if let Some((sched, tid)) = entry {
        sched.step_wait(tid);
    }
}

/// The current global step count, when running under a scheduler. Because
/// execution is sequentialized, this is a deterministic logical clock
/// suitable for linearizability timestamps.
pub fn active_step() -> Option<u64> {
    ACTIVE.with(|a| a.borrow().as_ref().map(|(sched, _)| sched.lock().step))
}

struct FinishGuard {
    sched: Arc<Scheduler>,
    tid: usize,
}

impl Drop for FinishGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| *a.borrow_mut() = None);
        self.sched.finish(self.tid);
    }
}

/// Runs `workers` to completion under the deterministic scheduler and
/// returns the schedule trace. Worker `i` is thread id `i` in the trace.
/// A worker panic (assertion failure, schedule-bound overflow) is
/// propagated after all workers have stopped.
///
/// Workers must synchronize exclusively through instrumented accesses —
/// see the module docs for why lock-based structures are excluded.
pub fn run_threads<'env>(cfg: &DetConfig, workers: Vec<Box<dyn FnOnce() + Send + 'env>>) -> Trace {
    let n = workers.len();
    assert!(n > 0, "need at least one worker");
    assert!(n <= u16::MAX as usize, "trace encodes thread ids as u16");
    let sched = Arc::new(Scheduler {
        state: Mutex::new(State {
            started: false,
            registered: 0,
            expected: n,
            finished: vec![false; n],
            consumed: vec![false; n],
            live: n,
            // Seed-selected starting point for round-robin rotation;
            // priority policies ignore it at the first decision.
            current: (cfg.seed % n as u64) as usize,
            run_len: 0,
            step: 0,
            overflow: false,
            trace: Vec::new(),
            policy: PolicyState::init(cfg, n),
            max_steps: cfg.max_steps,
            starvation_limit: cfg.starvation_limit.max(1),
        }),
        cv: Condvar::new(),
    });
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(n);
        for (tid, work) in workers.into_iter().enumerate() {
            let sched = Arc::clone(&sched);
            handles.push(s.spawn(move || {
                ACTIVE.with(|a| *a.borrow_mut() = Some((Arc::clone(&sched), tid)));
                let _guard = FinishGuard {
                    sched: Arc::clone(&sched),
                    tid,
                };
                sched.register(tid);
                // Block for a first grant before touching anything, so the
                // whole run (not just the instrumented part) is sequential.
                yield_point();
                work();
            }));
        }
        let mut panic_payload = None;
        for h in handles {
            if let Err(p) = h.join() {
                panic_payload.get_or_insert(p);
            }
        }
        if let Some(p) = panic_payload {
            std::panic::resume_unwind(p);
        }
    });
    let st = sched.lock();
    Trace {
        seed: cfg.seed,
        decisions: st.trace.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn counting_workers<'a>(
        counter: &'a AtomicU64,
        order: &'a Mutex<Vec<u16>>,
        n: usize,
        steps: usize,
    ) -> Vec<Box<dyn FnOnce() + Send + 'a>> {
        (0..n)
            .map(|tid| {
                let b: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    for _ in 0..steps {
                        yield_point();
                        counter.fetch_add(1, Ordering::Relaxed);
                        order
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(tid as u16);
                    }
                });
                b
            })
            .collect()
    }

    #[test]
    fn round_robin_interleaves_deterministically() {
        let run = |seed| {
            let counter = AtomicU64::new(0);
            let order = Mutex::new(Vec::new());
            let cfg = DetConfig::new(seed, Policy::RoundRobin { quantum: 1 });
            let trace = run_threads(&cfg, counting_workers(&counter, &order, 3, 8));
            (
                counter.load(Ordering::Relaxed),
                order.into_inner().unwrap(),
                trace,
            )
        };
        let (c1, o1, t1) = run(0);
        let (c2, o2, t2) = run(0);
        assert_eq!(c1, 24);
        assert_eq!(c1, c2);
        assert_eq!(o1, o2, "execution order must replay exactly");
        assert_eq!(t1, t2, "trace must replay exactly");
        // Quantum-1 round-robin visits threads cyclically.
        assert_eq!(&o1[..6], &[0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn seed_rotates_round_robin_start() {
        let order_for = |seed| {
            let counter = AtomicU64::new(0);
            let order = Mutex::new(Vec::new());
            let cfg = DetConfig::new(seed, Policy::RoundRobin { quantum: 1 });
            run_threads(&cfg, counting_workers(&counter, &order, 3, 2));
            order.into_inner().unwrap()
        };
        assert_eq!(order_for(0)[0], 0); // starts at thread `seed % n`
        assert_eq!(order_for(1)[0], 1);
        assert_eq!(order_for(2)[0], 2);
    }

    #[test]
    fn pct_replays_exactly() {
        let run = |seed| {
            let counter = AtomicU64::new(0);
            let order = Mutex::new(Vec::new());
            let cfg = DetConfig::new(
                seed,
                Policy::Pct {
                    change_points: 3,
                    expected_steps: 40,
                },
            );
            let trace = run_threads(&cfg, counting_workers(&counter, &order, 4, 10));
            (order.into_inner().unwrap(), trace)
        };
        let (o1, t1) = run(7);
        let (o2, t2) = run(7);
        assert_eq!(o1, o2);
        assert_eq!(t1, t2);
        assert_eq!(o1.len(), 40);
    }

    #[test]
    fn replay_policy_follows_segments() {
        let run = || {
            let counter = AtomicU64::new(0);
            let order = Mutex::new(Vec::new());
            let cfg = DetConfig::new(
                0,
                Policy::Replay {
                    segments: vec![(1, 3), (0, 2), (1, 1)],
                },
            );
            let trace = run_threads(&cfg, counting_workers(&counter, &order, 2, 4));
            (order.into_inner().unwrap(), trace)
        };
        let (o1, t1) = run();
        let (o2, t2) = run();
        assert_eq!(o1, o2);
        assert_eq!(t1, t2);
        // The trace's decisions consume the segments in order.
        assert_eq!(&t1.decisions[..6], &[1, 1, 1, 0, 0, 1]);
        assert_eq!(o1.len(), 8); // every op ran; remainder served round-robin
    }

    #[test]
    fn trace_segments_roundtrip() {
        let t = Trace {
            seed: 9,
            decisions: vec![0, 0, 1, 1, 1, 0, 2],
        };
        assert_eq!(t.segments(), vec![(0, 2), (1, 3), (0, 1), (2, 1)]);
        assert_eq!(t.preemptions(), 3);
        assert_eq!(t.render(), "seed=9 steps=7 | t0*2 t1*3 t0*1 t2*1");
    }

    #[test]
    fn starvation_valve_rotates() {
        // Quantum far above the valve: the valve must still rotate.
        let counter = AtomicU64::new(0);
        let order = Mutex::new(Vec::new());
        let mut cfg = DetConfig::new(2, Policy::RoundRobin { quantum: 1_000_000 });
        cfg.starvation_limit = 4;
        run_threads(&cfg, counting_workers(&counter, &order, 2, 8));
        let o = order.into_inner().unwrap();
        assert!(o.windows(5).all(|w| w.iter().any(|&t| t != w[0])));
    }

    #[test]
    fn worker_panic_propagates_without_hanging() {
        let res = std::panic::catch_unwind(|| {
            let counter = AtomicU64::new(0);
            let cfg = DetConfig::new(0, Policy::RoundRobin { quantum: 1 });
            let workers: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| panic!("worker bug")),
                Box::new(|| {
                    for _ in 0..4 {
                        yield_point();
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                }),
            ];
            run_threads(&cfg, workers);
        });
        assert!(res.is_err());
    }

    #[test]
    fn family_enumerates_quantum_and_start() {
        let fam = round_robin_family(3, 2);
        assert_eq!(fam.len(), 6);
        assert!(fam
            .iter()
            .all(|(_, p)| matches!(p, Policy::RoundRobin { .. })));
    }
}
