//! In-process tenant sessions: bounded intake, match-event delivery,
//! and graceful drain.
//!
//! A [`Session`] is the producer side of one tenant stream. Chunks are
//! appended to the session's intake under the session lock; the shard
//! worker takes every byte accepted since the last scan, feeds it once
//! through the session's own resumable bank run over its verified solo
//! plan, and delivers the fresh match events back into the session's
//! event queue. Both directions are budgeted by quantities certified at
//! admission time (see `Tenancy` in the server module).

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use rap_pipeline::{PlanStream, VerifiedPlan};
use rap_sim::MatchEvent;
use rap_telemetry::Counter;

use crate::rules::Rule;
use crate::server::{Job, ServeError, ShardInner, Shared};

/// The producer-visible outcome of one [`Session::send`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// The chunk was queued within budget.
    Accepted,
    /// The chunk was queued, but the session crossed half its certified
    /// intake budget: the producer should slow down.
    Backpressured,
    /// The chunk was rejected — accepting it would exceed the certified
    /// intake budget. Nothing was queued; retry after the shard catches
    /// up (e.g. after [`Session::wait_idle`]).
    Shed,
}

/// Per-session counters, snapshot by [`Session::stats`].
#[derive(Clone, Debug, Default)]
pub struct SessionStats {
    /// Chunks accepted into the stream.
    pub chunks_sent: u64,
    /// Chunks rejected over the intake budget.
    pub chunks_shed: u64,
    /// Backpressure signals raised for this session.
    pub backpressure_events: u64,
    /// Bytes accepted into the stream.
    pub bytes_sent: u64,
    /// Bytes the scan plane has consumed so far.
    pub bytes_scanned: u64,
    /// Scan batches executed on this session's behalf.
    pub scans: u64,
    /// Match events delivered to this session's queue.
    pub matches_delivered: u64,
    /// Host output interrupts raised by the bank model on this session's
    /// own arrays.
    pub output_interrupts: u64,
}

/// Mutable stream state, guarded by the session mutex.
pub(crate) struct StreamState {
    /// Bytes accepted since the last scan took its batch.
    pub intake: Vec<u8>,
    /// Total bytes accepted (global stream length).
    pub global_len: usize,
    /// Bytes covered by completed scans.
    pub scanned_len: usize,
    /// Delivered-but-undrained match events (global `end` offsets).
    pub events: VecDeque<MatchEvent>,
    /// Session counters.
    pub stats: SessionStats,
    /// Output-FIFO backpressure events of the session's run already added
    /// to the registry (its interrupts are `stats.output_interrupts`).
    pub output_backpressure: u64,
    /// The producer called `finish` (or dropped the handle).
    pub finished: bool,
    /// The worker completed the final scan and released the slot.
    pub drained: bool,
    /// Which once-per-session findings were already recorded.
    pub flagged: Flagged,
}

/// Once-per-session finding latches (each rule reports at most once).
#[derive(Default)]
pub(crate) struct Flagged {
    /// An R002 finding was already recorded for this session.
    pub backpressure: bool,
    /// An R003 finding was already recorded for this session.
    pub shed: bool,
}

impl StreamState {
    fn new() -> StreamState {
        StreamState {
            intake: Vec::new(),
            global_len: 0,
            scanned_len: 0,
            events: VecDeque::new(),
            stats: SessionStats::default(),
            output_backpressure: 0,
            finished: false,
            drained: false,
            flagged: Flagged::default(),
        }
    }

    /// Bytes accepted but not yet scanned.
    pub fn pending(&self) -> usize {
        self.global_len - self.scanned_len
    }
}

/// Shared session core; the worker holds clones via scan jobs.
pub(crate) struct SessionInner {
    /// Tenant name (unique on the shard).
    pub name: String,
    /// The hosting shard.
    pub shard: Arc<ShardInner>,
    /// The tenant's verified solo plan: the arrays the admission
    /// certificate proves identical to its slot range of the shard's
    /// composition.
    pub plan: Arc<VerifiedPlan>,
    /// Stream state.
    pub state: Mutex<StreamState>,
    /// Signalled on scan completion and drain.
    pub cv: Condvar,
    /// The session's resumable bank run over `plan`: built by the shard
    /// worker at the first scan, finished and dropped when the session
    /// drains. Only the worker locks it.
    pub run: Mutex<Option<PlanStream>>,
    /// `rap_serve_tenant_matches_delivered_total{tenant}`, registered at
    /// the first scan.
    pub matches: OnceLock<Counter>,
}

impl SessionInner {
    pub fn new(name: &str, shard: Arc<ShardInner>, plan: Arc<VerifiedPlan>) -> SessionInner {
        SessionInner {
            name: name.to_string(),
            shard,
            plan,
            state: Mutex::new(StreamState::new()),
            cv: Condvar::new(),
            run: Mutex::new(None),
            matches: OnceLock::new(),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, StreamState> {
        self.state.lock().expect("session lock poisoned")
    }
}

/// A registered tenant's streaming handle.
///
/// Dropping the handle without calling [`Session::finish`] still drains
/// gracefully: a finish job is enqueued and the worker scans every
/// accepted byte before releasing the tenant's slot.
pub struct Session {
    inner: Arc<SessionInner>,
    shared: Arc<Shared>,
}

impl Session {
    pub(crate) fn new(inner: Arc<SessionInner>, shared: Arc<Shared>) -> Session {
        Session { inner, shared }
    }

    /// The shared session core (for the server's swap path).
    pub(crate) fn inner(&self) -> &Arc<SessionInner> {
        &self.inner
    }

    /// The tenant name this session registered under.
    pub fn tenant(&self) -> &str {
        &self.inner.name
    }

    /// The shard hosting this session.
    pub fn shard(&self) -> usize {
        self.inner.shard.id
    }

    /// Bytes accepted but not yet scanned.
    pub fn pending_bytes(&self) -> usize {
        self.inner.lock().pending()
    }

    /// Streams one chunk. Returns the budget verdict; `Shed` means the
    /// chunk was **not** queued and should be retried after the shard
    /// catches up.
    ///
    /// # Errors
    ///
    /// [`ServeError::SessionClosed`] once `finish` was called or the
    /// handle's drain began.
    pub fn send(&self, chunk: &[u8]) -> Result<SendOutcome, ServeError> {
        if chunk.is_empty() {
            return Ok(SendOutcome::Accepted);
        }
        let budget = self
            .inner
            .shard
            .tenancy()
            .map_or(0, |t| t.input_budget as usize);
        let (outcome, first_backpressure, first_shed) = {
            let mut st = self.inner.lock();
            if st.finished || st.drained {
                return Err(ServeError::SessionClosed);
            }
            if st.pending() + chunk.len() > budget {
                st.stats.chunks_shed += 1;
                st.stats.backpressure_events += 1;
                let first_bp = !st.flagged.backpressure;
                let first_shed = !st.flagged.shed;
                st.flagged.backpressure = true;
                st.flagged.shed = true;
                (SendOutcome::Shed, first_bp, first_shed)
            } else {
                st.intake.extend_from_slice(chunk);
                st.global_len += chunk.len();
                st.stats.chunks_sent += 1;
                st.stats.bytes_sent += chunk.len() as u64;
                if st.pending() * 2 > budget {
                    st.stats.backpressure_events += 1;
                    let first_bp = !st.flagged.backpressure;
                    st.flagged.backpressure = true;
                    (SendOutcome::Backpressured, first_bp, false)
                } else {
                    (SendOutcome::Accepted, false, false)
                }
            }
        };
        // Findings and global counters happen outside the session lock.
        // A shed always records its R002 first, so "shed without a
        // backpressure finding" is impossible by construction.
        if first_backpressure {
            self.shared.finding(
                Rule::SessionBackpressure,
                format!(
                    "tenant {:?} crossed its certified intake budget band ({budget} bytes)",
                    self.inner.name
                ),
            );
        }
        if first_shed {
            self.shared.finding(
                Rule::ChunkShed,
                format!(
                    "tenant {:?} shed a {}-byte chunk over its certified intake budget ({budget} bytes)",
                    self.inner.name,
                    chunk.len()
                ),
            );
        }
        match outcome {
            SendOutcome::Shed => {
                self.shared.metrics.chunks_shed.inc();
                self.shared.metrics.backpressure_events.inc();
            }
            SendOutcome::Backpressured => {
                self.shared.metrics.backpressure_events.inc();
                self.inner.shard.enqueue(Job::Scan(Arc::clone(&self.inner)));
            }
            SendOutcome::Accepted => {
                self.inner.shard.enqueue(Job::Scan(Arc::clone(&self.inner)));
            }
        }
        Ok(outcome)
    }

    /// Removes and returns every delivered-but-undrained match event.
    /// Events carry **global** stream offsets in [`MatchEvent::end`]
    /// and the tenant's own pattern indices.
    pub fn drain(&self) -> Vec<MatchEvent> {
        self.inner.lock().events.drain(..).collect()
    }

    /// Blocks until every accepted byte has been scanned (or the
    /// session drained, or the server began shutting down).
    pub fn wait_idle(&self) {
        let mut st = self.inner.lock();
        while st.scanned_len < st.global_len && !st.drained {
            if self.shared.stopping.load(Ordering::Relaxed) {
                return;
            }
            let (guard, _) = self
                .inner
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .expect("session lock poisoned");
            st = guard;
        }
    }

    /// Ends the stream: scans the last accepted bytes, finishes the run
    /// (delivering the `$`-anchored matches at the stream's end),
    /// releases the tenant's slot, and blocks until the drain completes.
    /// Idempotent.
    pub fn finish(&self) {
        let enqueue = {
            let mut st = self.inner.lock();
            if st.drained {
                return;
            }
            let first = !st.finished;
            st.finished = true;
            first
        };
        if enqueue {
            self.inner
                .shard
                .enqueue(Job::Finish(Arc::clone(&self.inner)));
        }
        let mut st = self.inner.lock();
        while !st.drained {
            if self.shared.stopping.load(Ordering::Relaxed) {
                st.drained = true;
                self.inner.cv.notify_all();
                break;
            }
            let (guard, _) = self
                .inner
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .expect("session lock poisoned");
            st = guard;
        }
    }

    /// Snapshot of this session's counters.
    pub fn stats(&self) -> SessionStats {
        self.inner.lock().stats.clone()
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Graceful drain on disconnect: enqueue (never block) the final
        // scan + slot release if `finish` was not already called.
        let enqueue = {
            let mut st = self.inner.lock();
            let first = !st.finished && !st.drained;
            st.finished = true;
            first
        };
        if enqueue {
            self.inner
                .shard
                .enqueue(Job::Finish(Arc::clone(&self.inner)));
        }
    }
}
