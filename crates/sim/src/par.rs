//! Fan-out over the host's cores.
//!
//! [`par_map`] maps a function over items on the calling thread plus
//! scoped helper threads. The pipeline's grid driver asks for a fixed
//! worker count. A batch simulation instead borrows its helpers from one
//! process-wide budget of `available_parallelism() − 1` ([`Helpers`]), so
//! any number of concurrent simulations adds at most that many threads,
//! and a simulation that finds no helper free runs on its caller alone.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

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
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
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
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(claim);
        }
        claim();
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock poisoned")
                .expect("every slot filled")
        })
        .collect()
}

/// A pool of helper-thread permits.
pub(crate) struct Budget {
    free: AtomicUsize,
}

impl Budget {
    pub(crate) const fn new(helpers: usize) -> Budget {
        Budget {
            free: AtomicUsize::new(helpers),
        }
    }

    /// The process-wide budget: one helper per core beyond the caller's.
    pub(crate) fn global() -> &'static Budget {
        static GLOBAL: OnceLock<Budget> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, usize::from);
            Budget::new(cores - 1)
        })
    }

    /// Borrows up to `want` helpers, as many as are free (possibly none);
    /// never waits. The permits return when the borrow drops.
    pub(crate) fn borrow(&self, want: usize) -> Helpers<'_> {
        let mut free = self.free.load(Ordering::Relaxed);
        let taken = loop {
            let take = want.min(free);
            if take == 0 {
                break 0;
            }
            // The count guards no data (the helpers are scoped threads the
            // borrower joins), so relaxed updates suffice.
            match self.free.compare_exchange_weak(
                free,
                free - take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break take,
                Err(now) => free = now,
            }
        };
        Helpers {
            budget: self,
            count: taken,
        }
    }
}

/// Helper permits borrowed from a [`Budget`].
pub(crate) struct Helpers<'a> {
    budget: &'a Budget,
    count: usize,
}

impl Helpers<'_> {
    /// Helpers borrowed.
    pub(crate) fn count(&self) -> usize {
        self.count
    }
}

impl Drop for Helpers<'_> {
    fn drop(&mut self) {
        if self.count > 0 {
            self.budget.free.fetch_add(self.count, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let barrier = std::sync::Barrier::new(2);
        let caller = std::thread::current().id();
        let on_caller = par_map(vec![0, 1], 2, |_| {
            barrier.wait();
            std::thread::current().id() == caller
        });
        assert_eq!(on_caller.iter().filter(|&&c| c).count(), 1);
    }

    #[test]
    fn borrows_never_exceed_the_budget() {
        let budget = Budget::new(3);
        let first = budget.borrow(2);
        let second = budget.borrow(5);
        let third = budget.borrow(1);
        assert_eq!((first.count(), second.count(), third.count()), (2, 1, 0));
        drop(second);
        assert_eq!(budget.borrow(usize::MAX).count(), 1);
        drop(first);
        assert_eq!(budget.borrow(0).count(), 0);
        assert_eq!(budget.borrow(usize::MAX).count(), 3);
    }
}
