//! The sharded scan service: registration through the pipeline's admit
//! stage, thread-per-shard scan workers, and certified backpressure.
//!
//! Each shard owns one co-residency certificate ([`ComposedPlan`])
//! covering its resident tenants. Registration builds (or recalls, from
//! the pipeline's caches and persistent store, so a known pattern set
//! performs zero compile-stage work) the newcomer's solo plan, then
//! re-certifies the residents' solo plans plus the newcomer's through
//! [`Pipeline::certify`]; a refusal leaves the previous certificate
//! untouched. No composed plan is built: the certificate proves each
//! tenant's slot range bit-identical to its verified solo plan, so a
//! scan job feeds the bytes a session accepted since its last scan,
//! once, through that session's own resumable bank run
//! ([`rap_pipeline::PlanStream`]) over its solo plan: no other tenant's
//! arrays, no byte twice.

use std::collections::VecDeque;
use std::fmt;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

use rap_admit::{AdmissionAnalysis, AdmitOptions, ComposedPlan};
use rap_bound::BankBound;
use rap_diag::Location;
use rap_pipeline::{PatternSet, Pipeline, VerifiedPlan};
use rap_sim::{BankMetrics, BankStats, Simulator};
use rap_telemetry::{Counter, Gauge, Telemetry};

use crate::config::ServeConfig;
use crate::metrics::ServeMetrics;
use crate::rules::{Report, Rule};
use crate::session::{Session, SessionInner};

/// A service failure surfaced to the caller.
#[derive(Debug)]
pub enum ServeError {
    /// The admission analyzer refused the proposed composition; the
    /// analysis carries the refusing S-rule findings.
    Rejected(Box<AdmissionAnalysis>),
    /// The hot-swap analyzer refused the proposed replacement; the
    /// analysis carries the refusing Q-rule findings. The outgoing
    /// session is untouched.
    SwapRejected(Box<rap_swap::SwapAnalysis>),
    /// A tenant with this name is already resident.
    DuplicateTenant(String),
    /// The session was already finished or drained.
    SessionClosed,
    /// A pipeline stage failed while building the tenant's plan.
    Pipeline(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Rejected(analysis) => write!(
                f,
                "admission rejected the composition ({} finding(s))",
                analysis.report.len()
            ),
            ServeError::SwapRejected(analysis) => write!(
                f,
                "hot swap rejected ({} finding(s))",
                analysis.report.len()
            ),
            ServeError::DuplicateTenant(name) => {
                write!(f, "tenant {name:?} is already registered")
            }
            ServeError::SessionClosed => write!(f, "session already finished"),
            ServeError::Pipeline(message) => write!(f, "pipeline failure: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One shard's current co-residency certificate and its derived budgets.
///
/// No composed plan exists: each session runs its own solo plan, which
/// the certificate proves identical to its slot range. The certificate
/// sizes the budgets and anchors hot-swap analysis.
pub(crate) struct Tenancy {
    /// The co-residency certificate (per-tenant slot and pattern ranges).
    pub composed: ComposedPlan,
    /// Per-session intake budget in bytes: `queue_pages` ping-pong bank
    /// input windows per fabric bank.
    pub input_budget: u64,
    /// Per-session event-queue budget in records: `queue_pages` times
    /// the bank's worst-case output-record occupancy (B003).
    pub events_budget: u64,
    /// Banks in the certified fabric — the geometry hot-swap analysis
    /// must be pinned to (a swap may not grow the scanning fabric).
    pub banks: u32,
}

/// A tenant resident on a shard (control-plane view).
pub(crate) struct ResidentTenant {
    pub name: String,
    /// The tenant's verified solo plan, which its session streams through.
    pub plan: Arc<VerifiedPlan>,
}

/// The control-plane state of one shard, guarded by its mutex.
pub(crate) struct Residency {
    pub tenants: Vec<ResidentTenant>,
    pub tenancy: Option<Arc<Tenancy>>,
}

/// Work items for a shard's scan thread.
pub(crate) enum Job {
    /// Feed a session's newly accepted bytes (a no-op if an earlier scan
    /// already took them).
    Scan(Arc<SessionInner>),
    /// Final scan and end of the session's run, then release the
    /// tenant's slot and recompose.
    Finish(Arc<SessionInner>),
    /// Exit the worker loop.
    Shutdown,
}

/// One shard: a job queue plus the residency it scans for.
pub(crate) struct ShardInner {
    pub id: usize,
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    pub residency: Mutex<Residency>,
    /// `rap_serve_shard_bytes_scanned_total{shard}` and
    /// `rap_serve_shard_sessions_active{shard}`, registered on first use.
    bytes: OnceLock<Counter>,
    sessions: OnceLock<Gauge>,
}

impl ShardInner {
    fn new(id: usize) -> ShardInner {
        ShardInner {
            id,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            residency: Mutex::new(Residency {
                tenants: Vec::new(),
                tenancy: None,
            }),
            bytes: OnceLock::new(),
            sessions: OnceLock::new(),
        }
    }

    fn bytes_scanned(&self, metrics: &ServeMetrics) -> &Counter {
        self.bytes.get_or_init(|| metrics.shard_bytes(self.id))
    }

    fn sessions_active(&self, metrics: &ServeMetrics) -> &Gauge {
        self.sessions
            .get_or_init(|| metrics.shard_sessions(self.id))
    }

    pub fn enqueue(&self, job: Job) {
        self.queue
            .lock()
            .expect("shard queue poisoned")
            .push_back(job);
        self.ready.notify_one();
    }

    fn next_job(&self) -> Job {
        let mut queue = self.queue.lock().expect("shard queue poisoned");
        loop {
            if let Some(job) = queue.pop_front() {
                return job;
            }
            queue = self.ready.wait(queue).expect("shard queue poisoned");
        }
    }

    /// Snapshot of the current certified tenancy (momentary lock; never
    /// held together with a session lock).
    pub fn tenancy(&self) -> Option<Arc<Tenancy>> {
        self.residency
            .lock()
            .expect("shard residency poisoned")
            .tenancy
            .clone()
    }
}

/// State shared between the server handle, sessions, and workers.
pub(crate) struct Shared {
    pub pipeline: Arc<Pipeline>,
    pub config: ServeConfig,
    pub telemetry: Arc<Telemetry>,
    pub metrics: ServeMetrics,
    pub findings: Mutex<Report>,
    pub shards: Vec<Arc<ShardInner>>,
    pub active: AtomicU64,
    pub stopping: AtomicBool,
    /// Serializes registrations so duplicate-name checks and shard
    /// selection never need to hold two residency locks at once.
    registration: Mutex<()>,
    /// The `rap_sim_*` bank cells of the served machine, registered at
    /// the first scan.
    bank: OnceLock<BankMetrics>,
}

impl Shared {
    pub fn finding(&self, rule: Rule, message: String) {
        self.findings.lock().expect("findings lock poisoned").push(
            rule,
            rule.severity(),
            Location::default(),
            message,
        );
    }

    /// The least-loaded shard by resident tenant count, ties broken
    /// deterministically toward the lowest shard id (so identical
    /// registration sequences always produce identical placements).
    fn shard_for_new_session(&self) -> Arc<ShardInner> {
        Arc::clone(
            self.shards
                .iter()
                .min_by_key(|shard| {
                    let residents = shard
                        .residency
                        .lock()
                        .expect("shard residency poisoned")
                        .tenants
                        .len();
                    (residents, shard.id)
                })
                .expect("server has at least one shard"),
        )
    }

    /// Re-certifies a shard's residents. Replaces the tenancy only on
    /// success; a refusal leaves the previous certificate (and its
    /// running sessions) untouched. A successful recompose is timed into
    /// `rap_serve_recompose_ns`.
    fn recompose(&self, residency: &mut Residency) -> Result<(), ServeError> {
        let start = Instant::now();
        residency.tenancy = if residency.tenants.is_empty() {
            None
        } else {
            Some(Arc::new(self.certify(&residency.tenants)?))
        };
        self.metrics
            .recompose_ns
            .record(start.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Certifies a shard's residents from their solo plans and derives
    /// the certificate's budgets.
    fn certify(&self, residents: &[ResidentTenant]) -> Result<Tenancy, ServeError> {
        let tenants: Vec<(&str, &VerifiedPlan)> = residents
            .iter()
            .map(|t| (t.name.as_str(), &*t.plan))
            .collect();
        let mut analysis = self.pipeline.certify(&tenants, &AdmitOptions::default());
        let Some(composed) = analysis.composed.take() else {
            return Err(ServeError::Rejected(Box::new(analysis)));
        };
        // Certified budgets, not ad-hoc constants: the intake side is
        // sized in ping-pong bank input windows (§3.3 geometry), the
        // event side in the bank's worst-case output-record occupancy
        // (B003), which the bank geometry alone determines.
        let arch = composed.mapping.config.arch;
        let window = 2 * u64::from(arch.bank_input_entries);
        let input_budget = (self.config.queue_pages * u64::from(analysis.banks) * window).max(1);
        let records =
            BankBound::new(composed.mapping.arrays.len() as u64, &arch).output_fifo_records;
        let events_budget = (self.config.queue_pages * records).max(1);
        Ok(Tenancy {
            composed,
            input_budget,
            events_budget,
            banks: analysis.banks,
        })
    }

    /// Whether any shard hosts a tenant under `name` (momentary
    /// single-shard locks; callers must not hold a residency lock).
    fn name_taken(&self, name: &str) -> bool {
        self.shards.iter().any(|shard| {
            shard
                .residency
                .lock()
                .expect("shard residency poisoned")
                .tenants
                .iter()
                .any(|t| t.name == name)
        })
    }

    /// Registers a tenant on the least-loaded shard.
    pub(crate) fn register(
        self: &Arc<Shared>,
        name: &str,
        patterns: &PatternSet,
    ) -> Result<Session, ServeError> {
        let start = Instant::now();
        if patterns.is_empty() {
            self.metrics.sessions_rejected.inc();
            return Err(ServeError::Pipeline("empty pattern set".to_string()));
        }
        let _serial = self
            .registration
            .lock()
            .expect("registration lock poisoned");
        if self.name_taken(name) {
            self.metrics.sessions_rejected.inc();
            return Err(ServeError::DuplicateTenant(name.to_string()));
        }
        let solo = self
            .solo_plan(patterns)
            .inspect_err(|_| self.metrics.sessions_rejected.inc())?;
        let shard = self.shard_for_new_session();
        self.register_on_shard(name, solo, &shard, start)
    }

    /// The tenant's verified solo plan, built or recalled through the
    /// pipeline's plan cache.
    fn solo_plan(&self, patterns: &PatternSet) -> Result<Arc<VerifiedPlan>, ServeError> {
        self.pipeline
            .plan(&Simulator::new(self.config.machine), patterns, None)
            .map_err(|e| ServeError::Pipeline(e.to_string()))
    }

    /// Registration core: admits `name` onto `shard` and builds its
    /// session over `solo`, the tenant's solo plan. The caller holds the
    /// registration lock, has already checked for duplicate names, and
    /// built `solo` outside the residency lock, so no compile runs while
    /// scans on the shard wait for that lock.
    fn register_on_shard(
        self: &Arc<Shared>,
        name: &str,
        solo: Arc<VerifiedPlan>,
        shard: &Arc<ShardInner>,
        start: Instant,
    ) -> Result<Session, ServeError> {
        let resident_count = {
            let mut residency = shard.residency.lock().expect("shard residency poisoned");
            residency.tenants.push(ResidentTenant {
                name: name.to_string(),
                plan: Arc::clone(&solo),
            });
            if let Err(error) = self.recompose(&mut residency) {
                residency.tenants.pop();
                self.metrics.sessions_rejected.inc();
                if let ServeError::Rejected(analysis) = &error {
                    self.finding(
                        Rule::AdmissionRejected,
                        format!(
                            "tenant {name:?} refused on shard {}: {} error finding(s)",
                            shard.id,
                            analysis.report.errors().count()
                        ),
                    );
                }
                return Err(error);
            }
            residency.tenants.len()
        };
        // The session streams through the solo plan it was certified
        // with; its run is built at the first scan.
        let inner = Arc::new(SessionInner::new(name, Arc::clone(shard), solo));
        self.metrics.sessions_admitted.inc();
        let active = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.sessions_active.set(active);
        shard
            .sessions_active(&self.metrics)
            .set(resident_count as u64);
        self.metrics
            .register_ns
            .record(start.elapsed().as_nanos() as u64);
        Ok(Session::new(inner, Arc::clone(self)))
    }

    /// Hot-swaps a resident tenant: statically certifies replacing the
    /// `outgoing` session's tenant with `name`/`patterns` on the same
    /// shard (Q001–Q008) and the shard's own recomposition of the
    /// post-swap residents, then — only if both pass — drains the
    /// outgoing session and registers the replacement into the freed
    /// footprint. Every other session keeps scanning throughout; a
    /// refusal leaves the outgoing session untouched and streaming.
    pub(crate) fn swap_tenant(
        self: &Arc<Shared>,
        outgoing: &Session,
        name: &str,
        patterns: &PatternSet,
    ) -> Result<(Session, Box<rap_swap::ReconfigPlan>), ServeError> {
        let start = Instant::now();
        if patterns.is_empty() {
            self.metrics.swaps_rejected.inc();
            return Err(ServeError::Pipeline("empty pattern set".to_string()));
        }
        let _serial = self
            .registration
            .lock()
            .expect("registration lock poisoned");
        if self.name_taken(name) {
            self.metrics.swaps_rejected.inc();
            return Err(ServeError::DuplicateTenant(name.to_string()));
        }
        let shard = Arc::clone(&outgoing.inner().shard);
        let outgoing_name = outgoing.tenant().to_string();
        let Some(tenancy) = shard.tenancy() else {
            self.metrics.swaps_rejected.inc();
            return Err(ServeError::Pipeline(
                "shard has no certified composition".to_string(),
            ));
        };
        // Static safety analysis first — no state is mutated until the
        // certificate is in hand.
        let solo = self
            .solo_plan(patterns)
            .inspect_err(|_| self.metrics.swaps_rejected.inc())?;
        let arch = tenancy.composed.mapping.config.arch;
        let analysis = rap_swap::analyze_swap(
            &tenancy.composed,
            &outgoing_name,
            &solo.tenant(name),
            &arch,
            &rap_swap::SwapOptions {
                banks: Some(tenancy.banks),
                bv_column_budget: None,
            },
        );
        let Some(plan) = analysis.plan.clone() else {
            self.metrics.swaps_rejected.inc();
            self.finding(
                Rule::AdmissionRejected,
                format!(
                    "hot swap {outgoing_name:?} -> {name:?} refused on shard {}: {} error finding(s)",
                    shard.id,
                    analysis.report.errors().count()
                ),
            );
            self.metrics
                .swap_ns
                .record(start.elapsed().as_nanos() as u64);
            return Err(ServeError::SwapRejected(Box::new(analysis)));
        };
        // The swap certificate pins staying tenants to their slots, but
        // registering the replacement recomposes the shard first-fit in
        // name order, and a set that fits pinned can fail first-fit.
        // Certify that layout too while the outgoing session still runs.
        let post_swap: Vec<ResidentTenant> = shard
            .residency
            .lock()
            .expect("shard residency poisoned")
            .tenants
            .iter()
            .filter(|t| t.name != outgoing_name)
            .map(|t| ResidentTenant {
                name: t.name.clone(),
                plan: Arc::clone(&t.plan),
            })
            .chain([ResidentTenant {
                name: name.to_string(),
                plan: Arc::clone(&solo),
            }])
            .collect();
        if let Err(error) = self.certify(&post_swap) {
            self.metrics.swaps_rejected.inc();
            self.finding(
                Rule::AdmissionRejected,
                format!(
                    "hot swap {outgoing_name:?} -> {name:?} refused on shard {}: \
                     the post-swap recomposition is not certified ({error})",
                    shard.id
                ),
            );
            self.metrics
                .swap_ns
                .record(start.elapsed().as_nanos() as u64);
            return Err(error);
        }
        // Spend the certificate: drain ONLY the outgoing session (its
        // final scan covers every accepted byte, bounded by the
        // certified drain window), then attach the replacement to the
        // freed footprint. Staying sessions never stop scanning.
        outgoing.finish();
        let session = self.register_on_shard(name, solo, &shard, Instant::now())?;
        self.metrics.swaps_completed.inc();
        self.metrics
            .swap_ns
            .record(start.elapsed().as_nanos() as u64);
        self.finding(
            Rule::TenantSwapped,
            format!(
                "tenant {outgoing_name:?} hot-swapped for {name:?} on shard {} \
                 (certified drain bound {} cycle(s), reconfig {} cycle(s))",
                shard.id, plan.drain.cycles, plan.cost.cycles
            ),
        );
        Ok((session, Box::new(plan)))
    }
}

/// The multi-tenant streaming scan service.
///
/// In-process producers use [`Server::register`] and the returned
/// [`Session`]; network producers use [`Server::listen`] and the framed
/// protocol in the `net` module. Dropping the server shuts it down
/// (sessions should be finished first).
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    stop_accepting: Arc<AtomicBool>,
    addr: Option<SocketAddr>,
}

impl Server {
    /// Spawns the shard workers over `pipeline`. The pipeline's attached
    /// telemetry (or a fresh default) becomes the ops surface.
    pub fn new(pipeline: Pipeline, config: ServeConfig) -> Server {
        let telemetry = pipeline
            .telemetry()
            .map_or_else(|| Arc::new(Telemetry::default()), Arc::clone);
        let metrics = ServeMetrics::on(telemetry.registry());
        let shards: Vec<Arc<ShardInner>> = (0..config.shards.max(1))
            .map(|id| Arc::new(ShardInner::new(id)))
            .collect();
        let shared = Arc::new(Shared {
            pipeline: Arc::new(pipeline),
            config,
            telemetry,
            metrics,
            findings: Mutex::new(Report::default()),
            shards,
            active: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            registration: Mutex::new(()),
            bank: OnceLock::new(),
        });
        let workers = shared
            .shards
            .iter()
            .map(|shard| {
                let shared = Arc::clone(&shared);
                let shard = Arc::clone(shard);
                std::thread::Builder::new()
                    .name(format!("rap-serve-shard-{}", shard.id))
                    .spawn(move || worker(&shared, &shard))
                    .expect("spawn shard worker")
            })
            .collect();
        Server {
            shared,
            workers,
            acceptor: None,
            stop_accepting: Arc::new(AtomicBool::new(false)),
            addr: None,
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// The pipeline backing registrations.
    pub fn pipeline(&self) -> &Pipeline {
        &self.shared.pipeline
    }

    /// The telemetry hub carrying the `rap_serve_*` registry cells.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.shared.telemetry
    }

    /// Handles to the service's registry cells.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Snapshot of the R-rule findings accumulated so far.
    pub fn findings(&self) -> Report {
        self.shared
            .findings
            .lock()
            .expect("findings lock poisoned")
            .clone()
    }

    /// Sessions currently registered.
    pub fn active_sessions(&self) -> u64 {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Renders the full registry in Prometheus exposition format.
    pub fn prometheus(&self) -> String {
        self.shared.telemetry.prometheus()
    }

    /// Registers a tenant and returns its streaming session.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when admission cannot certify the
    /// composition, [`ServeError::DuplicateTenant`] on a name clash,
    /// [`ServeError::Pipeline`] when a stage fails.
    pub fn register(&self, name: &str, patterns: &PatternSet) -> Result<Session, ServeError> {
        self.shared.register(name, patterns)
    }

    /// Hot-swaps a resident tenant: statically certifies replacing the
    /// `outgoing` session's tenant with the `name`/`patterns`
    /// replacement on the same shard, and the shard's recomposition of
    /// the post-swap residents, and only then drains the outgoing
    /// session (within its certified drain bound) and registers the
    /// replacement into the freed footprint. Every other session keeps
    /// scanning throughout. Returns the replacement's session and the
    /// certified [`rap_swap::ReconfigPlan`].
    ///
    /// # Errors
    ///
    /// [`ServeError::SwapRejected`] with the Q-rule findings when the
    /// swap cannot be certified, [`ServeError::Rejected`] with the
    /// S-rule findings when the post-swap residents fail the shard's
    /// recomposition (the outgoing session is untouched in both cases),
    /// [`ServeError::DuplicateTenant`] on a name clash,
    /// [`ServeError::Pipeline`] when a stage fails.
    pub fn swap_tenant(
        &self,
        outgoing: &Session,
        name: &str,
        patterns: &PatternSet,
    ) -> Result<(Session, Box<rap_swap::ReconfigPlan>), ServeError> {
        self.shared.swap_tenant(outgoing, name, patterns)
    }

    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts accepting framed
    /// protocol connections; returns the bound address.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/configure.
    pub fn listen(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let (handle, local) = crate::net::spawn_acceptor(
            Arc::clone(&self.shared),
            Arc::clone(&self.stop_accepting),
            addr,
        )?;
        self.acceptor = Some(handle);
        self.addr = Some(local);
        Ok(local)
    }

    /// The bound listen address, when [`Server::listen`] was called.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.addr
    }

    /// Stops accepting, drains the shard queues, and joins every
    /// worker. Called automatically on drop; idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stopping.store(true, Ordering::Relaxed);
        self.stop_accepting.store(true, Ordering::Relaxed);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        for shard in &self.shared.shards {
            shard.enqueue(Job::Shutdown);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One shard's scan loop.
fn worker(shared: &Arc<Shared>, shard: &Arc<ShardInner>) {
    loop {
        match shard.next_job() {
            Job::Shutdown => break,
            Job::Scan(session) => scan(shared, shard, &session, false),
            Job::Finish(session) => {
                scan(shared, shard, &session, true);
                release(shared, shard, &session);
            }
        }
    }
    // Unblock any session still waiting after shutdown.
    let mut queue = shard.queue.lock().expect("shard queue poisoned");
    while let Some(job) = queue.pop_front() {
        if let Job::Scan(session) | Job::Finish(session) = job {
            let mut st = session.lock();
            st.drained = true;
            session.cv.notify_all();
        }
    }
}

/// Feeds the bytes a session accepted since its last scan through the
/// session's run (built here at the first scan) and delivers the fresh
/// events. `fin` also ends the run, delivering the `$`-anchored matches
/// at the stream's end. A scan with no new bytes and no such match is a
/// no-op and is not counted.
fn scan(shared: &Arc<Shared>, shard: &Arc<ShardInner>, session: &Arc<SessionInner>, fin: bool) {
    let bytes = {
        let mut st = session.lock();
        if st.drained {
            return;
        }
        std::mem::take(&mut st.intake)
    };
    if bytes.is_empty() && !fin {
        return;
    }
    let start = Instant::now();
    let (fresh, stats) = {
        let mut slot = session.run.lock().expect("session run poisoned");
        let mut fresh = Vec::new();
        if !bytes.is_empty() {
            fresh = slot
                .get_or_insert_with(|| session.plan.stream())
                .feed(&bytes);
        }
        let stats = if fin {
            slot.take().map(|run| {
                let (tail, _, stats) = run.finish();
                fresh.extend(tail);
                stats
            })
        } else {
            slot.as_ref().map(rap_pipeline::PlanStream::stats)
        };
        (fresh, stats)
    };
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    if bytes.is_empty() && fresh.is_empty() {
        // A finish with nothing left to feed and no `$` match at the end.
        return;
    }
    let stats = stats.expect("a scan that fed bytes or ended a run has its stats");
    let events_budget = shard.tenancy().map_or(u64::MAX, |t| t.events_budget);
    let (over_events_budget, bank) = {
        let mut st = session.lock();
        st.events.extend(fresh.iter().copied());
        st.scanned_len += bytes.len();
        st.stats.bytes_scanned += bytes.len() as u64;
        st.stats.scans += 1;
        st.stats.matches_delivered += fresh.len() as u64;
        // The registry counts this scan's share of the run's totals.
        let bank = BankStats {
            output_interrupts: stats.output_interrupts - st.stats.output_interrupts,
            output_backpressure: stats.output_backpressure - st.output_backpressure,
            ..stats
        };
        st.stats.output_interrupts += bank.output_interrupts;
        st.output_backpressure += bank.output_backpressure;
        let over = st.events.len() as u64 > events_budget;
        let first = over && !st.flagged.backpressure;
        if over {
            st.stats.backpressure_events += 1;
            st.flagged.backpressure = true;
        }
        session.cv.notify_all();
        (first, bank)
    };
    if over_events_budget {
        shared.metrics.backpressure_events.inc();
        shared.finding(
            Rule::SessionBackpressure,
            format!(
                "tenant {:?} exceeded its certified event-queue budget ({events_budget} records)",
                session.name
            ),
        );
    }
    let bytes_delta = bytes.len() as u64;
    shared.metrics.bytes_scanned.add(bytes_delta);
    shard.bytes_scanned(&shared.metrics).add(bytes_delta);
    shared.metrics.chunks_scanned.inc();
    shared.metrics.matches_delivered.add(fresh.len() as u64);
    session
        .matches
        .get_or_init(|| shared.metrics.tenant_matches(&session.name))
        .add(fresh.len() as u64);
    shared.metrics.scan_ns.record(elapsed_ns);
    shared
        .bank
        .get_or_init(|| BankMetrics::on(shared.telemetry.registry(), shared.config.machine))
        .record(&bank);
}

/// Releases a drained session's slot and recomposes the remainder.
/// The slot is released *before* `drained` is signalled, so a producer
/// unblocked by [`Session::finish`] can immediately re-register the name.
fn release(shared: &Arc<Shared>, shard: &Arc<ShardInner>, session: &Arc<SessionInner>) {
    if session.lock().drained {
        return;
    }
    let remaining = {
        let mut residency = shard.residency.lock().expect("shard residency poisoned");
        residency.tenants.retain(|t| t.name != session.name);
        if let Err(error) = shared.recompose(&mut residency) {
            // Keep the previous certificate: it still covers every
            // remaining tenant, and the departed slots just idle.
            shared.finding(
                Rule::AdmissionRejected,
                format!(
                    "recomposition after tenant {:?} drained failed on shard {}: {error}",
                    session.name, shard.id
                ),
            );
        }
        residency.tenants.len()
    };
    let active = shared.active.fetch_sub(1, Ordering::Relaxed) - 1;
    shared.metrics.sessions_active.set(active);
    shard.sessions_active(&shared.metrics).set(remaining as u64);
    {
        let mut st = session.lock();
        st.drained = true;
        session.cv.notify_all();
    }
    shared.finding(
        Rule::SessionDrained,
        format!(
            "tenant {:?} drained gracefully from shard {}",
            session.name, shard.id
        ),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_bound::{analyze_bounds, BoundOptions};
    use rap_pipeline::BenchConfig;
    use rap_workloads::Suite;

    /// A tenant from a slice of `suite`'s generated corpus.
    fn suite_tenant(suite: Suite, slice: usize) -> PatternSet {
        let sources = rap_workloads::generate_patterns(suite, 4 * (slice + 1), 5);
        PatternSet::parse(&sources[4 * slice..]).expect("generated patterns parse")
    }

    /// Every certified shard's budgets against the full bound analysis
    /// of its composed plan and the intake formula over its fabric.
    /// Returns the number of tenants the checked compositions hold.
    fn assert_budgets(server: &Server, step: &str) -> usize {
        let pages = server.config().queue_pages;
        let mut tenants = 0;
        for shard in &server.shared.shards {
            let Some(tenancy) = shard.tenancy() else {
                continue;
            };
            let composed = &tenancy.composed;
            let full = analyze_bounds(
                &composed.images,
                &[],
                &composed.mapping,
                &BoundOptions::bounds_only(),
            );
            assert_eq!(
                tenancy.events_budget,
                pages * full.bank.output_fifo_records,
                "{step}: shard {} event budget",
                shard.id
            );
            let arch = composed.mapping.config.arch;
            let banks = (composed.mapping.arrays.len() as u32)
                .div_ceil(arch.arrays_per_bank)
                .max(1);
            assert_eq!(tenancy.banks, banks, "{step}: shard {} banks", shard.id);
            assert_eq!(
                tenancy.input_budget,
                pages * u64::from(banks) * 2 * u64::from(arch.bank_input_entries),
                "{step}: shard {} intake budget",
                shard.id
            );
            tenants += composed.tenants.len();
        }
        tenants
    }

    #[test]
    fn certified_budgets_match_the_full_bound_analysis_through_churn() {
        let server = Server::new(
            Pipeline::new(BenchConfig::default()),
            ServeConfig {
                shards: 2,
                queue_pages: 8,
                ..ServeConfig::default()
            },
        );
        let mut live = Vec::new();
        for (i, suite) in [Suite::Snort, Suite::ClamAv, Suite::Yara, Suite::Prosite]
            .into_iter()
            .enumerate()
        {
            let session = server
                .register(&format!("join-{i}"), &suite_tenant(suite, 0))
                .expect("admits");
            assert_eq!(assert_budgets(&server, &format!("join {i}")), i + 1);
            live.push(session);
        }
        live.remove(1).finish();
        assert_eq!(assert_budgets(&server, "leave"), 3);
        let (swapped, _) = server
            .swap_tenant(&live[0], "swapped", &suite_tenant(Suite::SpamAssassin, 0))
            .expect("certifies");
        assert_eq!(assert_budgets(&server, "hot swap"), 3);
        live[0] = swapped;
        live.push(
            server
                .register("late", &suite_tenant(Suite::RegexLib, 1))
                .expect("admits"),
        );
        assert_eq!(assert_budgets(&server, "late join"), 4);
        while let Some(session) = live.pop() {
            session.finish();
            assert_eq!(assert_budgets(&server, "drain"), live.len());
        }
    }
}
