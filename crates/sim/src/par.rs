//! Fan-out over the host's cores.
//!
//! Both fan-outs here run one claim loop on every worker: workers claim
//! items through a shared atomic cursor, so an expensive item never
//! serializes the rest behind it, and results come back in input order.
//!
//! * [`par_map`] runs it on the calling thread plus scoped threads it
//!   starts and joins, for a fixed worker count. The pipeline's grid
//!   driver fans out this way, once per experiment.
//! * A [`Pool`] keeps its helper threads parked between fan-outs. A batch
//!   simulation runs a plan's arrays on the calling thread plus the idle
//!   helpers of the process-wide pool ([`Pool::global`]): at most
//!   `available_parallelism() − 1` threads, started on first use. A
//!   fan-out takes the idle helpers it can use and never waits for a busy
//!   one, so any number of concurrent simulations adds at most that many
//!   threads, and a simulation that finds no helper idle runs on its
//!   caller alone.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Maps `f` over `items` on `workers` threads: the calling thread and
/// `workers − 1` scoped helpers.
///
/// Workers claim items through a shared atomic cursor, so an expensive
/// item never serializes the rest behind it. Results come back in input
/// order. With one worker (or one item) the map runs inline and starts no
/// thread.
pub fn par_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    map_with(items, f, |claim| {
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(claim);
            }
            claim();
        });
    })
}

/// Maps `f` over `items` through `run`, which runs the claim loop it is
/// handed on each of its workers and returns once every one of them has
/// returned from it.
fn map_with<T, R, F>(items: Vec<T>, f: F, run: impl FnOnce(&(dyn Fn() + Sync))) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let claim = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = work[i]
            .lock()
            .expect("work lock poisoned")
            .take()
            .expect("each item claimed once");
        let out = f(item);
        *slots[i].lock().expect("slot lock poisoned") = Some(out);
    };
    run(&claim);
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock poisoned")
                .expect("every slot filled")
        })
        .collect()
}

/// Helper threads parked between fan-outs.
pub(crate) struct Pool {
    /// The most helpers the pool starts.
    size: usize,
    idle: Mutex<Idle>,
}

/// A pool's parked helpers, and how many it has started.
struct Idle {
    helpers: Vec<Arc<Helper>>,
    started: usize,
}

impl Pool {
    /// A pool that starts at most `size` helpers.
    pub(crate) fn new(size: usize) -> Pool {
        Pool {
            size,
            idle: Mutex::new(Idle {
                helpers: Vec::new(),
                started: 0,
            }),
        }
    }

    /// The process-wide pool: one helper per core beyond the caller's.
    pub(crate) fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, usize::from);
            Pool::new(cores - 1)
        })
    }

    /// The parked helpers. The lock is never held while work runs, and
    /// every update leaves the list whole, so a poisoned lock still guards
    /// a valid list.
    fn idle(&self) -> MutexGuard<'_, Idle> {
        self.idle.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes up to `want` helpers: parked ones first, then new ones while
    /// the pool has started fewer than its size. Never waits for a busy
    /// helper. The helpers park again when the crew drops.
    pub(crate) fn take(&self, want: usize) -> Crew<'_> {
        let mut helpers = Vec::new();
        if want > 0 {
            let mut idle = self.idle();
            while helpers.len() < want {
                if let Some(helper) = idle.helpers.pop() {
                    helpers.push(helper);
                } else if idle.started < self.size {
                    let Some(helper) = Helper::start() else {
                        break;
                    };
                    idle.started += 1;
                    helpers.push(helper);
                } else {
                    break;
                }
            }
        }
        Crew {
            pool: self,
            helpers,
        }
    }

    /// Helpers started so far.
    #[cfg(test)]
    pub(crate) fn started(&self) -> usize {
        self.idle().started
    }
}

/// A claim loop handed to a helper, its borrow erased (see [`Crew::run`]).
type Task = &'static (dyn Fn() + Sync);

/// One helper thread and the slot a fan-out hands it work through.
struct Helper {
    slot: Mutex<Slot>,
    /// Signals a change of `slot`. One thread waits on it at a time: the
    /// helper while its slot is empty, its fan-out while the work runs.
    changed: Condvar,
}

enum Slot {
    Empty,
    Handed(Task),
    Running,
    /// The claim loop returned, or panicked with this payload.
    Done(std::thread::Result<()>),
}

impl Helper {
    /// Starts a helper thread, or returns `None` when none can start. The
    /// thread lives for the rest of the process, parked between fan-outs.
    /// It is never joined: it catches every panic of the work it runs and
    /// hands it to the fan-out, so detaching it hides none.
    fn start() -> Option<Arc<Helper>> {
        let helper = Arc::new(Helper {
            slot: Mutex::new(Slot::Empty),
            changed: Condvar::new(),
        });
        let serving = Arc::clone(&helper);
        std::thread::Builder::new()
            .name("rap-sim-helper".into())
            .spawn(move || serving.serve())
            .ok()?;
        Some(helper)
    }

    /// The slot, locked. The lock is never held while work runs, and every
    /// update is one assignment, so a poisoned lock still guards a valid
    /// slot.
    fn slot(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, slot: MutexGuard<'a, Slot>) -> MutexGuard<'a, Slot> {
        self.changed
            .wait(slot)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks until handed a claim loop, runs it, reports, parks again.
    fn serve(&self) {
        loop {
            let done = {
                let mut slot = self.slot();
                let task = loop {
                    if let Slot::Handed(task) = *slot {
                        *slot = Slot::Running;
                        break task;
                    }
                    slot = self.wait(slot);
                };
                drop(slot);
                // The fan-out re-raises the panic, so nothing observes
                // what the work left half done.
                panic::catch_unwind(AssertUnwindSafe(task))
            };
            *self.slot() = Slot::Done(done);
            self.changed.notify_one();
        }
    }
}

/// Helpers taken from a [`Pool`]; they park again when the crew drops.
pub(crate) struct Crew<'p> {
    pool: &'p Pool,
    helpers: Vec<Arc<Helper>>,
}

impl Crew<'_> {
    /// Helpers taken.
    pub(crate) fn len(&self) -> usize {
        self.helpers.len()
    }

    /// Maps `f` over `items` on the calling thread and the crew's helpers;
    /// results come back in input order. A helper's panic is raised again
    /// on the calling thread.
    pub(crate) fn map<T, R, F>(self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        map_with(items, f, move |claim| self.run(claim))
    }

    /// Runs `claim` on the calling thread and on the helpers, and returns
    /// once every helper that started it has returned from it.
    #[allow(unsafe_code)]
    fn run(mut self, claim: &(dyn Fn() + Sync)) {
        // SAFETY: `claim` outlives this call, and only the crew's helpers
        // use `task`: each from taking it out of its slot until it reports
        // `Done`. Before this call returns, `release` takes back every
        // `task` still in a slot and waits for every helper that took one
        // to report `Done`. It does so before this call unwinds too:
        // `self` is owned here, so it drops while a panic of `claim` (or
        // `resume_unwind`) leaves this frame, and its drop calls `release`.
        let task: Task = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Task>(claim) };
        for helper in &self.helpers {
            *helper.slot() = Slot::Handed(task);
            helper.changed.notify_one();
        }
        claim();
        if let Some(payload) = self.release() {
            panic::resume_unwind(payload);
        }
    }

    /// Takes back the work no helper has started (every item is claimed
    /// once the caller's claim loop returns, so it would find none), waits
    /// for the helpers that started it, parks them all in the pool again,
    /// and returns the first helper panic.
    fn release(&mut self) -> Option<Box<dyn Any + Send>> {
        let mut panicked = None;
        for helper in &self.helpers {
            let mut slot = helper.slot();
            if let Slot::Handed(_) = *slot {
                *slot = Slot::Empty;
            }
            while let Slot::Running = *slot {
                slot = helper.wait(slot);
            }
            if let Slot::Done(Err(payload)) = std::mem::replace(&mut *slot, Slot::Empty) {
                panicked.get_or_insert(payload);
            }
        }
        if !self.helpers.is_empty() {
            self.pool.idle().helpers.append(&mut self.helpers);
        }
        panicked
    }
}

impl Drop for Crew<'_> {
    fn drop(&mut self) {
        drop(self.release());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0..97).collect::<Vec<i64>>(), 5, |x| x * 2);
        assert_eq!(out, (0..97).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_single_worker_and_empty() {
        assert_eq!(par_map(vec![3, 4], 1, |x| x + 1), vec![4, 5]);
        assert_eq!(par_map(Vec::<u8>::new(), 8, |x| x), Vec::<u8>::new());
    }

    #[test]
    fn par_map_caller_takes_a_share() {
        // Two workers over two items that each wait for the other: the
        // caller must run one while its one helper runs the other.
        let barrier = Barrier::new(2);
        let caller = std::thread::current().id();
        let on_caller = par_map(vec![0, 1], 2, |_| {
            barrier.wait();
            std::thread::current().id() == caller
        });
        assert_eq!(on_caller.iter().filter(|&&c| c).count(), 1);
    }

    #[test]
    fn borrows_never_exceed_the_budget() {
        let pool = Pool::new(3);
        let first = pool.take(2);
        let second = pool.take(5);
        let third = pool.take(1);
        assert_eq!((first.len(), second.len(), third.len()), (2, 1, 0));
        drop(second);
        assert_eq!(pool.take(usize::MAX).len(), 1);
        drop(first);
        assert_eq!(pool.take(0).len(), 0);
        assert_eq!(pool.take(usize::MAX).len(), 3);
        assert_eq!(pool.started(), 3);
    }

    /// Fan-outs from several threads at once share the global pool: the
    /// helpers that run their items are the pool's, and it never starts
    /// more than one per core beyond the caller's.
    #[test]
    fn concurrent_fan_outs_never_start_more_than_the_budget() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let callers = 4;
        let start = Barrier::new(callers);
        let (runners, caller_ids): (Vec<HashSet<ThreadId>>, Vec<ThreadId>) =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..callers)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            let mut runners = HashSet::new();
                            for _ in 0..50 {
                                runners.extend(
                                    Pool::global()
                                        .take(usize::MAX)
                                        .map(vec![(); 8], |()| std::thread::current().id()),
                                );
                            }
                            (runners, std::thread::current().id())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("fan-outs do not panic"))
                    .unzip()
            });
        let helpers: HashSet<ThreadId> = runners
            .into_iter()
            .flatten()
            .filter(|id| !caller_ids.contains(id))
            .collect();
        let started = Pool::global().started();
        assert!(started < cores, "{started} helpers on {cores} cores");
        assert!(helpers.len() <= started, "{helpers:?}");
    }

    /// A pool of its own, so helpers that `cargo test`'s other threads
    /// hold cannot hang the barrier.
    #[test]
    fn a_helper_panic_reaches_the_caller_and_the_pool_serves_on() {
        let pool = Pool::new(1);
        let barrier = Barrier::new(2);
        let caller = std::thread::current().id();
        let fanned = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.take(1).map(vec![0, 1], |_| {
                barrier.wait();
                assert!(
                    std::thread::current().id() == caller,
                    "an item panicked on a helper"
                );
            })
        }));
        let payload = fanned.expect_err("the helper's panic is raised on the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"an item panicked on a helper")
        );
        // Each item waits for the other: the caller runs one while the
        // same helper, parked again, runs the other.
        let on_caller = pool.take(1).map(vec![0, 1], |_| {
            barrier.wait();
            std::thread::current().id() == caller
        });
        assert_eq!(on_caller.iter().filter(|&&c| c).count(), 1);
        assert_eq!(pool.started(), 1);
    }
}
