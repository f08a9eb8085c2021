//! The service front door: configuration, submission, worker pool,
//! per-tenant accounting, shutdown.

use crate::job::{ticket_pair, Responder, ShardedTicket};
use crate::lru::Lru;
use crate::placement::{Catalog, PlacementConfig};
use crate::router::{PushRefused, WhenFull, WorkRouter};
use crate::session::{ApOpenInfo, ApSession, CorrSession, SessionTable, StreamSession};
use crate::sync;
use crate::{
    CorrFeedReport, CorrOutcome, Job, JobOutput, MvpOutput, ServeError, SessionId, TenantId,
    Ticket, MAX_LANES,
};
use memcim_ap::ApError;
use memcim_bits::BitVec;
use memcim_crossbar::{BankedCrossbar, CrossbarBackend, OpLedger};
use memcim_mvp::{correlation, Instruction, MvpError, MvpSimulator, ShardMap};
use memcim_units::{Joules, Seconds};
use memcim_verify::Code;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A worker's substrate, boxed so one pool can mix raw, banked and
/// ECC-protected engines (see [`ServeConfig::with_engine_factory`]).
pub type BoxedBackend = Box<dyn CrossbarBackend + Send>;

/// Builds one worker's substrate from its worker index.
pub type EngineFactory = Arc<dyn Fn(usize) -> BoxedBackend + Send + Sync>;

type Engine = MvpSimulator<BoxedBackend>;

/// Sizing of the service: worker pool, queue, burst size and the
/// per-worker MVP engine geometry.
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads, each owning one banked MVP engine.
    pub workers: usize,
    /// Bounded queue depth; `submit` blocks (backpressure) and
    /// `try_submit` refuses once this many engine jobs are pending. AP
    /// session jobs never queue.
    pub queue_depth: usize,
    /// Maximum jobs a worker takes off the queue per visit. Each job
    /// still executes on its own.
    pub max_burst: usize,
    /// Rows of each worker's MVP engine.
    pub mvp_rows: usize,
    /// Banks each worker's MVP engine stripes its width over.
    pub mvp_banks: usize,
    /// Columns per bank; the engine's logical width is
    /// `mvp_banks * mvp_bank_cols`.
    pub mvp_bank_cols: usize,
    /// Overrides engine construction per worker index — fault-injection
    /// campaigns, ECC-protected or spare-row-repaired substrates, and
    /// heterogeneous pools. `None` builds a plain RRAM
    /// [`BankedCrossbar`] from the geometry fields above.
    pub engine_factory: Option<EngineFactory>,
    /// Shard/replica geometry for scatter-gather submissions
    /// ([`Service::submit_sharded`]). `None` leaves the service
    /// unsharded: sharded submissions are refused, ordinary jobs are
    /// unaffected.
    pub placement: Option<PlacementConfig>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("workers", &self.workers)
            .field("queue_depth", &self.queue_depth)
            .field("max_burst", &self.max_burst)
            .field("mvp_rows", &self.mvp_rows)
            .field("mvp_banks", &self.mvp_banks)
            .field("mvp_bank_cols", &self.mvp_bank_cols)
            .field("engine_factory", &self.engine_factory.as_ref().map(|_| "<custom>"))
            .field("placement", &self.placement)
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_depth: 64,
            max_burst: 16,
            mvp_rows: 32,
            mvp_banks: 8,
            mvp_bank_cols: 256,
            engine_factory: None,
            placement: None,
        }
    }
}

impl ServeConfig {
    /// Sets the worker-thread count.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the bounded queue depth.
    #[must_use]
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets how many jobs a worker drains per queue visit.
    #[must_use]
    pub fn with_max_burst(mut self, max_burst: usize) -> Self {
        self.max_burst = max_burst;
        self
    }

    /// Sets every worker engine's geometry: `rows` logical rows striped
    /// over `banks` banks of `bank_cols` columns.
    #[must_use]
    pub fn with_mvp_geometry(mut self, rows: usize, banks: usize, bank_cols: usize) -> Self {
        self.mvp_rows = rows;
        self.mvp_banks = banks;
        self.mvp_bank_cols = bank_cols;
        self
    }

    /// Overrides engine construction: `factory(worker_index)` builds
    /// each worker's substrate. The substrate's host-visible width must
    /// equal [`mvp_width`](Self::mvp_width) for tenant programs to fit.
    /// This is how a pool gets SEC-DED ECC (wrap the banks in an
    /// [`EccCrossbar`](memcim_crossbar::EccCrossbar)) or spare-row repair
    /// ([`BankedCrossbar::rram_with_spares`]).
    #[must_use]
    pub fn with_engine_factory(
        mut self,
        factory: impl Fn(usize) -> BoxedBackend + Send + Sync + 'static,
    ) -> Self {
        self.engine_factory = Some(Arc::new(factory));
        self
    }

    /// Partitions the record space into `shards` shards, each
    /// replicated on `replicas` distinct workers, enabling
    /// [`Service::submit_sharded`]. Validated at start:
    /// `1 ≤ replicas ≤ workers` and `shards ≥ 1`.
    #[must_use]
    pub fn with_placement(mut self, shards: usize, replicas: usize) -> Self {
        self.placement = Some(PlacementConfig::new(shards, replicas));
        self
    }

    /// The logical vector width every MVP job must match.
    pub fn mvp_width(&self) -> usize {
        self.mvp_banks * self.mvp_bank_cols
    }

    /// Checks one MVP program against this configuration's engine
    /// geometry with [`Instruction::check`], the engines' own admission
    /// rules, so a program refused here would fail at an engine and one
    /// admitted here does not fail its shape checks there. Every MVP
    /// program is gated this way before it is queued or billed.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidProgram`] for the first failing instruction,
    /// carrying its stable diagnostic code (`memcim_verify::Code`),
    /// index and message.
    pub fn verify_program(&self, program: &[Instruction]) -> Result<(), ServeError> {
        let (rows, width) = (self.mvp_rows, self.mvp_width());
        program.iter().enumerate().try_for_each(|(index, instr)| {
            instr.check(rows, width).map_err(|v| ServeError::InvalidProgram {
                code: Code::from(&v).as_str().to_string(),
                index,
                message: v.to_string(),
            })
        })
    }

    /// Builds one worker's substrate: the custom factory's, or a plain
    /// RRAM [`BankedCrossbar`] of the configured geometry.
    fn build_backend(&self, worker: usize) -> BoxedBackend {
        match &self.engine_factory {
            Some(factory) => factory(worker),
            None => {
                Box::new(BankedCrossbar::rram(self.mvp_rows, self.mvp_banks, self.mvp_bank_cols))
            }
        }
    }
}

/// Accumulated per-tenant accounting: what this client's jobs actually
/// cost across every engine that served them.
///
/// Operation *counts* are exact and schedule-independent. Energy and
/// busy time are what the jobs **actually** cost on the shared engines,
/// and a store's programming cost depends on the bits the previous
/// occupant left in its rows (only state *changes* are paid for), so
/// exact joules vary with scheduling — just as they would on shared
/// hardware.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantUsage {
    /// MVP activity: the serial sum ([`OpLedger::merge_serial`]) of the
    /// tenant's per-job ledger deltas — each delta itself aggregates
    /// banks in parallel, but a client's successive jobs occupy engine
    /// time back to back.
    pub mvp: OpLedger,
    /// MVP jobs completed.
    pub mvp_jobs: u64,
    /// Input symbols streamed through the tenant's AP sessions.
    pub ap_symbols: u64,
    /// Dynamic energy spent by the tenant's AP sessions.
    pub ap_energy: Joules,
    /// Pipeline latency consumed by the tenant's AP sessions.
    pub ap_busy: Seconds,
    /// AP jobs (feeds and finishes) completed.
    pub ap_jobs: u64,
    /// Stream-slots (streams × window steps) absorbed by the tenant's
    /// correlation sessions, billed through the session watermark so
    /// each event is billed exactly once. The engine work of the feeds
    /// is billed on the MVP ledger above.
    pub corr_events: u64,
    /// Correlation jobs (feeds and finishes) completed.
    pub corr_jobs: u64,
}

impl TenantUsage {
    /// Jobs completed across every engine kind.
    pub fn jobs(&self) -> u64 {
        self.mvp_jobs + self.ap_jobs + self.corr_jobs
    }

    /// Total dynamic energy billed to the tenant.
    pub fn total_energy(&self) -> Joules {
        self.mvp.energy() + self.ap_energy
    }

    /// Total engine time billed to the tenant.
    pub fn total_busy(&self) -> Seconds {
        self.mvp.busy_time() + self.ap_busy
    }
}

#[derive(Debug)]
struct Shared {
    queue: WorkRouter<Envelope>,
    sessions: SessionTable,
    tenants: std::sync::Mutex<HashMap<TenantId, TenantUsage>>,
    config: ServeConfig,
    /// Worker engines still serving MVP jobs. Decremented when a worker
    /// retires its engine on a fault-fatal error; at zero, MVP jobs
    /// fail with [`ServeError::NoHealthyEngine`] instead of requeueing.
    live_engines: AtomicUsize,
    /// The placement catalog, present when the service was configured
    /// with [`ServeConfig::with_placement`]. Retirement marks the
    /// worker dead here so routed jobs fail over to surviving replicas.
    catalog: Option<Catalog>,
    /// Drain mode: new MVP submissions and session opens are refused
    /// with [`ServeError::ShuttingDown`] while in-flight tickets and
    /// open AP sessions finish.
    draining: AtomicBool,
    /// Programs static verification has already admitted, so a tenant
    /// resubmitting the same query plan skips re-verification.
    verify_cache: std::sync::Mutex<VerifyCache>,
    /// Submissions whose verification was served from the cache.
    mvp_cache_hits: AtomicU64,
    /// Program verifications that actually ran.
    mvp_cache_misses: AtomicU64,
}

/// Bounded capacity of the verify cache (admitted programs, service
/// wide; entries are tenant-keyed so tenants never share admissions).
const MVP_VERIFY_CACHE_CAPACITY: usize = 64;

/// Bounded LRU of `(tenant, program)` pairs static verification has
/// admitted. Keyed by a 64-bit program hash for cheap lookup but
/// confirmed by full program equality before a hit counts — a hash
/// collision degrades to a miss, never to a false admission.
type VerifyCache = Lru<(TenantId, u64), Vec<Instruction>, MVP_VERIFY_CACHE_CAPACITY>;

fn program_hash(program: &[Instruction]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    program.hash(&mut hasher);
    hasher.finish()
}

impl Shared {
    /// Accounting happens *before* tickets resolve, so a client that
    /// waits on a ticket always observes its own job in the usage map.
    fn account_mvp(&self, tenant: TenantId, delta: &OpLedger) {
        let mut map = sync::lock(&self.tenants);
        let usage = map.entry(tenant).or_default();
        usage.mvp.merge_serial(delta);
        usage.mvp_jobs += 1;
    }

    fn account_ap(&self, tenant: TenantId, symbols: u64, energy: Joules, busy: Seconds) {
        let mut map = sync::lock(&self.tenants);
        let usage = map.entry(tenant).or_default();
        usage.ap_symbols += symbols;
        usage.ap_energy += energy;
        usage.ap_busy += busy;
        usage.ap_jobs += 1;
    }

    fn account_corr(&self, tenant: TenantId, events: u64) {
        let mut map = sync::lock(&self.tenants);
        let usage = map.entry(tenant).or_default();
        usage.corr_events += events;
        usage.corr_jobs += 1;
    }

    /// [`ServeConfig::verify_program`] through the bounded verify
    /// cache: a program this tenant already had admitted skips
    /// re-verification (confirmed by full program equality, so a hit is
    /// exactly as safe as a fresh run). Only successful verifications
    /// are cached.
    fn verify_program_cached(
        &self,
        tenant: TenantId,
        program: &[Instruction],
    ) -> Result<(), ServeError> {
        let key = (tenant, program_hash(program));
        if sync::lock(&self.verify_cache).get(&key).is_some_and(|cached| cached == program) {
            self.mvp_cache_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        self.mvp_cache_misses.fetch_add(1, Ordering::Relaxed);
        self.config.verify_program(program)?;
        sync::lock(&self.verify_cache).insert(key, program.to_vec());
        Ok(())
    }

    /// The submission gate: [`verify_program_cached`](Self::verify_program_cached)
    /// applied to every MVP program a job carries, and the
    /// [`MAX_LANES`] cap on AP feeds — both checked before the job is
    /// queued or run, so a refusal touches no session and bills nothing.
    fn check_job(&self, tenant: TenantId, job: &Job) -> Result<(), ServeError> {
        match job {
            Job::MvpProgram(program) => self.verify_program_cached(tenant, program),
            Job::MvpBatch(programs) => {
                programs.iter().try_for_each(|program| self.verify_program_cached(tenant, program))
            }
            Job::ApFeedMany { chunks, .. } if chunks.len() > MAX_LANES => {
                Err(ServeError::Ap(ApError::UnknownStream {
                    stream: chunks.len() - 1,
                    streams: MAX_LANES,
                }))
            }
            _ => Ok(()),
        }
    }

    /// Runs one AP session job on the calling thread: checks the
    /// session out, feeds `chunks` (lane `i` gets `chunks[i]`) or, for
    /// `None`, finishes every lane, bills the tenant, and puts the
    /// session back. The job is billed as one AP job through the
    /// session's monotonic billing watermark.
    fn run_ap_job(
        &self,
        tenant: TenantId,
        session: SessionId,
        chunks: Option<&[Vec<u8>]>,
    ) -> Result<JobOutput, ServeError> {
        let mut state = self.sessions.checkout_ap(session, tenant)?;
        let output = match chunks {
            // Lanes grow on demand to the chunk count (capped at
            // submission).
            Some(chunks) => JobOutput::ApFeedMany(state.processor.feed_many(chunks)),
            None => {
                let runs = state.processor.finish_all();
                JobOutput::ApFinishMany(
                    runs.iter().map(|run| state.compiled.matches(run)).collect(),
                )
            }
        };
        let (symbols, energy, busy) = state.take_unaccounted();
        self.account_ap(tenant, symbols, energy, busy);
        self.sessions.put_back(session, StreamSession::Ap(state));
        Ok(output)
    }
}

/// A concurrent multi-tenant query service over the banked engines.
///
/// `Service::start` spawns a pool of worker threads, each owning one
/// banked [`MvpSimulator`] and serving MVP and correlation work; clients
/// [`submit`](Service::submit) jobs through a bounded queue (blocking
/// backpressure; `try_submit` for the non-blocking variant) and wait on
/// the returned [`Ticket`]. Every engine job is one batch of programs
/// (a single program is a one-program batch) that a worker runs exactly
/// once on its engine with [`MvpSimulator::run_batch`]. AP session jobs
/// never queue: they run on the submitting thread, through per-session
/// [`MultiStreamProcessor`]s checked out of a shared session table.
/// Every completed job is billed to its tenant
/// ([`tenant_usage`](Service::tenant_usage)) before its ticket resolves.
///
/// See the [crate-level example](crate).
///
/// [`MultiStreamProcessor`]: memcim_ap::MultiStreamProcessor
#[derive(Debug)]
pub struct Service {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `workers`, `queue_depth`, `max_burst` or any MVP
    /// dimension is zero, or if the OS refuses to spawn a worker
    /// thread; [`try_start`](Self::try_start) reports both as errors
    /// instead.
    pub fn start(config: ServeConfig) -> Self {
        match Self::try_start(config) {
            Ok(service) => service,
            Err(e) => panic!("Service::start failed: {e}"),
        }
    }

    /// Starts the worker pool, reporting configuration and spawn
    /// failures as errors — the variant a long-lived network server
    /// should use, where a refused thread must not panic the process.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] when a sizing field is zero or the OS
    /// refuses to spawn a worker thread (already-spawned workers are
    /// shut down cleanly before returning).
    pub fn try_start(config: ServeConfig) -> Result<Self, ServeError> {
        fn invalid(message: &str) -> ServeError {
            ServeError::Internal { message: message.to_string() }
        }
        if config.workers == 0 {
            return Err(invalid("need at least one worker"));
        }
        if config.queue_depth == 0 {
            return Err(invalid("queue depth must be non-zero"));
        }
        if config.max_burst == 0 {
            return Err(invalid("burst size must be non-zero"));
        }
        if config.mvp_rows == 0 || config.mvp_banks == 0 || config.mvp_bank_cols == 0 {
            return Err(invalid("MVP geometry must be non-zero"));
        }
        let catalog = match config.placement {
            Some(placement) => Some(Catalog::new(placement, config.workers)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            queue: WorkRouter::new(config.queue_depth, config.workers),
            sessions: SessionTable::default(),
            tenants: std::sync::Mutex::new(HashMap::new()),
            live_engines: AtomicUsize::new(config.workers),
            config: config.clone(),
            catalog,
            draining: AtomicBool::new(false),
            verify_cache: std::sync::Mutex::new(VerifyCache::default()),
            mvp_cache_hits: AtomicU64::new(0),
            mvp_cache_misses: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("memcim-serve-{i}"))
                .spawn(move || worker_loop(&worker_shared, i));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Roll back: shut the partial pool down before
                    // reporting, so no orphan thread outlives the error.
                    let mut partial = Self { shared, workers };
                    partial.close_and_join(true);
                    return Err(ServeError::Internal {
                        message: format!("cannot spawn worker thread {i}: {e}"),
                    });
                }
            }
        }
        Ok(Self { shared, workers })
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Worker threads serving the queue.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub fn pending(&self) -> usize {
        self.shared.queue.len()
    }

    /// Worker engines still healthy (serving MVP jobs). Starts at
    /// [`worker_count`](Self::worker_count) and shrinks as engines hit
    /// fault-fatal errors (uncorrectable data, exhausted spares).
    pub fn live_engines(&self) -> usize {
        self.shared.live_engines.load(Ordering::SeqCst)
    }

    /// Worker engines retired from the pool after fault-fatal errors.
    /// Their in-flight jobs were requeued onto surviving engines —
    /// tenants see degraded throughput, not failures. AP sessions, which
    /// never touch the engines, stream on unaffected.
    pub fn retired_engines(&self) -> usize {
        self.worker_count() - self.live_engines()
    }

    /// The placement catalog, when the service was configured with
    /// [`ServeConfig::with_placement`].
    pub fn placement(&self) -> Option<&Catalog> {
        self.shared.catalog.as_ref()
    }

    /// Shards in the placement catalog (0 when unsharded).
    pub fn shard_count(&self) -> usize {
        self.shared.catalog.as_ref().map_or(0, Catalog::shards)
    }

    /// Replicas per shard (0 when unsharded).
    pub fn replica_count(&self) -> usize {
        self.shared.catalog.as_ref().map_or(0, Catalog::replicas)
    }

    /// Shards whose entire replica set is dead (0 when unsharded).
    pub fn unavailable_shards(&self) -> usize {
        self.shared.catalog.as_ref().map_or(0, Catalog::unavailable_shards)
    }

    /// AP session opens whose hierarchical routing fell back to a dense
    /// matrix (counted per open, including cache hits on a fallback
    /// template) — the serve-layer mirror of the per-open
    /// [`ApOpenInfo::routing_fallback`] flag.
    pub fn routing_fallbacks(&self) -> u64 {
        self.shared.sessions.routing_fallbacks()
    }

    /// AP session opens served from the bounded compile cache (no
    /// pattern compilation or routing placement ran).
    pub fn ap_cache_hits(&self) -> u64 {
        self.shared.sessions.ap_cache_hits()
    }

    /// AP session opens that had to compile.
    pub fn ap_cache_misses(&self) -> u64 {
        self.shared.sessions.ap_cache_misses()
    }

    /// MVP submissions whose static verification was skipped because an
    /// identical program of the same tenant was already admitted.
    pub fn mvp_cache_hits(&self) -> u64 {
        self.shared.mvp_cache_hits.load(Ordering::Relaxed)
    }

    /// MVP program verifications that actually ran: every admission the
    /// verify cache could not serve.
    pub fn mvp_cache_misses(&self) -> u64 {
        self.shared.mvp_cache_misses.load(Ordering::Relaxed)
    }

    /// Statically verifies `program` through the tenant-keyed verify
    /// cache: a program this tenant already had admitted skips
    /// re-verification (confirmed by full program equality). This is the
    /// same check `submit` applies — front doors that verify before
    /// admission (the network server does) call it here so the work is
    /// shared, not repeated.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidProgram`] for a program the static verifier
    /// refuses.
    pub fn verify_program_cached(
        &self,
        tenant: TenantId,
        program: &[Instruction],
    ) -> Result<(), ServeError> {
        self.shared.verify_program_cached(tenant, program)
    }

    /// `true` while `job` must be refused in drain mode: new MVP work
    /// is turned away, streaming jobs pass so open sessions can finish.
    fn drain_refuses(&self, job: &Job) -> bool {
        self.is_draining() && matches!(job, Job::MvpProgram(_) | Job::MvpBatch(_))
    }

    /// The path both submit verbs share: refuses new MVP work while
    /// draining and whatever [`check_job`](Shared::check_job) refuses,
    /// runs an AP session job to completion on the calling thread, and
    /// queues engine work on the shared lane, handling a full queue per
    /// `when_full`.
    fn submit_with(
        &self,
        tenant: TenantId,
        job: Job,
        when_full: WhenFull,
    ) -> Result<Ticket, ServeError> {
        if self.drain_refuses(&job) {
            return Err(ServeError::ShuttingDown);
        }
        self.shared.check_job(tenant, &job)?;
        let programs = match job {
            Job::MvpProgram(program) => vec![program],
            Job::MvpBatch(programs) => programs,
            // AP jobs run here, but not on a closed service.
            _ if self.shared.queue.is_closed() => return Err(ServeError::ShuttingDown),
            Job::ApFeedMany { session, chunks } => {
                return Ok(Ticket::resolved(self.shared.run_ap_job(tenant, session, Some(&chunks))))
            }
            Job::ApFinishMany { session } => {
                return Ok(Ticket::resolved(self.shared.run_ap_job(tenant, session, None)))
            }
        };
        let (ticket, responder) = ticket_pair();
        let envelope = Envelope { tenant, programs, route: None, responder };
        match self.shared.queue.push(None, when_full, envelope) {
            Ok(()) => Ok(ticket),
            Err(PushRefused::Full(_)) => {
                Err(ServeError::QueueFull { depth: self.shared.config.queue_depth })
            }
            Err(PushRefused::Closed(_)) => Err(ServeError::ShuttingDown),
        }
    }

    /// Submits a job for `tenant`. Engine jobs queue, blocking while the
    /// queue is full — the backpressure path. AP session jobs
    /// ([`Job::ApFeedMany`], [`Job::ApFinishMany`]) never queue: they
    /// run on the calling thread and return an already-resolved ticket,
    /// so a caller that submits several AP feeds before waiting runs
    /// them one after another.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`] once the service is closing, or
    /// when it is [draining](Self::begin_drain) and `job` is new MVP
    /// work (streaming jobs for open sessions still pass);
    /// [`ServeError::InvalidProgram`] when static verification refuses
    /// an MVP program, and [`ServeError::Ap`] with
    /// [`ApError::UnknownStream`] for a [`Job::ApFeedMany`] of more
    /// than [`MAX_LANES`] chunks (nothing is queued or billed either
    /// way). An AP job's own failure, such as an unknown session, comes
    /// back through its ticket.
    pub fn submit(&self, tenant: TenantId, job: Job) -> Result<Ticket, ServeError> {
        self.submit_with(tenant, job, WhenFull::Wait)
    }

    /// Submits without blocking. AP session jobs run on the calling
    /// thread exactly as in [`submit`](Self::submit): they never see
    /// [`ServeError::QueueFull`].
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when an engine job meets a queue at
    /// capacity, [`ServeError::ShuttingDown`] once the service is
    /// closing or [draining](Self::begin_drain) (for new MVP work), and
    /// the submission refusals of [`submit`](Self::submit).
    pub fn try_submit(&self, tenant: TenantId, job: Job) -> Result<Ticket, ServeError> {
        self.submit_with(tenant, job, WhenFull::Refuse)
    }

    /// Scatter-gather submission: one shard-local program per entry of
    /// `subqueries`, each delivered to a live replica of its shard (the
    /// catalog picks the worker). The returned [`ShardedTicket`]
    /// gathers the partials and merges their ledgers with
    /// [`OpLedger::merge_parallel`] semantics. A shard whose replicas
    /// are *all* dead fails its sub-query immediately with
    /// [`ServeError::ShardUnavailable`] — the other shards proceed, so
    /// the gather reports the failure while healthy shards keep the
    /// engines busy.
    ///
    /// Blocks on queue backpressure like [`submit`](Self::submit).
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] when the service has no placement
    /// configured, [`ServeError::Mvp`] (`BadInput`) for a shard index
    /// outside the catalog or an empty scatter,
    /// [`ServeError::InvalidProgram`] when static verification refuses
    /// any sub-program (all-or-nothing: nothing is queued), and
    /// [`ServeError::ShuttingDown`] once the service is closing or
    /// draining.
    pub fn submit_sharded(
        &self,
        tenant: TenantId,
        subqueries: Vec<(usize, Vec<Instruction>)>,
    ) -> Result<ShardedTicket, ServeError> {
        let Some(catalog) = &self.shared.catalog else {
            return Err(ServeError::Internal {
                message: "sharded submission on a service with no placement configured".into(),
            });
        };
        if self.is_draining() {
            return Err(ServeError::ShuttingDown);
        }
        if subqueries.is_empty() {
            return Err(ServeError::Mvp(MvpError::BadInput {
                reason: "a scatter needs at least one sub-query".into(),
            }));
        }
        // All-or-nothing validation before anything is queued.
        for (shard, program) in &subqueries {
            if *shard >= catalog.shards() {
                return Err(ServeError::Mvp(MvpError::BadInput {
                    reason: format!("shard {shard} outside the {}-shard catalog", catalog.shards()),
                }));
            }
            self.shared.verify_program_cached(tenant, program)?;
        }
        Ok(self.scatter(tenant, subqueries))
    }

    /// Fans validated shard-local programs out to one live replica per
    /// shard — the enqueue half of a scatter, shared by external
    /// scatters ([`submit_sharded`](Self::submit_sharded)) and the
    /// internal feeds of streaming correlation sessions (which must
    /// keep passing while the service drains). With no catalog
    /// configured the sub-queries go unrouted onto the shared lane.
    fn scatter(
        &self,
        tenant: TenantId,
        subqueries: Vec<(usize, Vec<Instruction>)>,
    ) -> ShardedTicket {
        let catalog = self.shared.catalog.as_ref();
        let mut parts = Vec::with_capacity(subqueries.len());
        for (shard, program) in subqueries {
            let (ticket, responder) = ticket_pair();
            parts.push((shard, ticket));
            let (worker, route) = match catalog.map(|catalog| catalog.route(shard, 0)) {
                None => (None, None),
                Some(Some(worker)) => (Some(worker), Some(ShardRoute { shard, attempts: 0 })),
                // Fail fast: the dead shard resolves its own ticket
                // while the rest of the scatter proceeds.
                Some(None) => {
                    responder.fulfil(Err(ServeError::ShardUnavailable { shard }));
                    continue;
                }
            };
            let envelope = Envelope { tenant, programs: vec![program], route, responder };
            // A refused envelope (the service closed) is dropped, which
            // fails its ticket with `ShuttingDown`.
            let _ = self.shared.queue.push(worker, WhenFull::Wait, envelope);
        }
        ShardedTicket::new(parts)
    }

    /// Enters drain mode: new MVP submissions, sharded scatters and
    /// session opens are refused with [`ServeError::ShuttingDown`],
    /// while jobs already queued execute and open AP sessions keep
    /// streaming to completion. Irreversible; follow with
    /// [`shutdown`](Self::shutdown) once clients have settled.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// `true` once [`begin_drain`](Self::begin_drain) was called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Compiles `patterns` into a streaming AP session for `tenant`
    /// (synchronously — compilation is a configuration-time cost, not a
    /// queued job). Feed it with [`Job::ApFeedMany`] / [`Job::ApFinishMany`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Compile`] for unparsable patterns,
    /// [`ServeError::Ap`] when the automaton cannot be mapped, and
    /// [`ServeError::ShuttingDown`] while
    /// [draining](Self::begin_drain) (open sessions finish; new ones
    /// are refused).
    pub fn open_session(
        &self,
        tenant: TenantId,
        patterns: &[&str],
    ) -> Result<SessionId, ServeError> {
        self.open_session_info(tenant, patterns).map(|(id, _)| id)
    }

    /// [`open_session`](Self::open_session), also reporting what the
    /// open decided: whether the compiled automaton came out of the
    /// tenant's compile cache, and whether hierarchical routing fell
    /// back to a dense matrix. Same errors as `open_session`.
    ///
    /// # Errors
    ///
    /// As for [`open_session`](Self::open_session).
    pub fn open_session_info(
        &self,
        tenant: TenantId,
        patterns: &[&str],
    ) -> Result<(SessionId, ApOpenInfo), ServeError> {
        if self.is_draining() {
            return Err(ServeError::ShuttingDown);
        }
        self.shared.sessions.open_ap(tenant, patterns)
    }

    /// Drops one of `tenant`'s sessions. An in-flight job on it still
    /// completes.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] if the id is not open — or is
    /// another tenant's (sessions are tenant-isolated; a foreign id is
    /// indistinguishable from a nonexistent one).
    pub fn close_session(&self, tenant: TenantId, session: SessionId) -> Result<(), ServeError> {
        self.shared.sessions.close(session, tenant)
    }

    /// Opens a streaming temporal-correlation session for `tenant` over
    /// `streams` event streams, detecting co-activation scores above
    /// `threshold`. Feed it windows with [`corr_feed`](Self::corr_feed)
    /// and collect the correlated set with
    /// [`corr_finish`](Self::corr_finish); close it like any session
    /// with [`close_session`](Self::close_session).
    ///
    /// # Errors
    ///
    /// [`ServeError::Mvp`] (`BadInput`) when the stream count is below
    /// the workload minimum, needs more crossbar rows than the worker
    /// engines have, or (on a sharded service) is smaller than the
    /// shard count; [`ServeError::ShuttingDown`] while
    /// [draining](Self::begin_drain).
    pub fn open_corr_session(
        &self,
        tenant: TenantId,
        streams: usize,
        threshold: u64,
    ) -> Result<SessionId, ServeError> {
        if self.is_draining() {
            return Err(ServeError::ShuttingDown);
        }
        // Geometry gates beyond the accumulator's own validation (which
        // runs in `open_corr` and owns the below-minimum diagnostic).
        if streams >= correlation::MIN_STREAMS {
            let rows = correlation::rows_needed(streams);
            if rows > self.shared.config.mvp_rows {
                return Err(ServeError::Mvp(MvpError::BadInput {
                    reason: format!(
                        "{streams} streams need {rows} crossbar rows, engines have {}",
                        self.shared.config.mvp_rows
                    ),
                }));
            }
            if let Some(catalog) = &self.shared.catalog {
                if streams < catalog.shards() {
                    return Err(ServeError::Mvp(MvpError::BadInput {
                        reason: format!(
                            "{streams} streams cannot be partitioned over {} shards",
                            catalog.shards()
                        ),
                    }));
                }
            }
        }
        self.shared.sessions.open_corr(tenant, streams, threshold)
    }

    /// Streams one time window (one [`BitVec`] of activity per stream,
    /// all the same width) through an open correlation session. The
    /// feed plans the window into crossbar programs — one per shard on
    /// a sharded service, scattered through the placement catalog with
    /// the usual kill-a-replica failover — waits for every engine
    /// answer, folds the co-activation reads into the session's scores,
    /// and bills the absorbed stream-slots through the session's
    /// watermark (the engine work is billed on the tenant's MVP
    /// ledger by the workers that executed it). Returns the session's
    /// *cumulative* report. Windows of one session must be serialized
    /// by the client: a concurrent feed sees
    /// [`ServeError::SessionBusy`].
    ///
    /// Like AP feeds, correlation feeds keep passing while the service
    /// [drains](Self::begin_drain), so open sessions can finish.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] / [`ServeError::SessionBusy`] /
    /// [`ServeError::WrongSessionKind`] for session mishaps,
    /// [`ServeError::Mvp`] (`BadInput`) for a malformed window,
    /// [`ServeError::InvalidProgram`] when static verification refuses
    /// a generated plan, [`ServeError::ShardUnavailable`] when a
    /// shard's whole replica set is dead, and
    /// [`ServeError::ShuttingDown`] when the service closes mid-feed.
    /// On any error the window leaves no trace: scores are only applied
    /// once every engine answer arrived, so the client may retry the
    /// same window.
    pub fn corr_feed(
        &self,
        tenant: TenantId,
        session: SessionId,
        window: &[BitVec],
    ) -> Result<CorrFeedReport, ServeError> {
        let mut state = self.shared.sessions.checkout_corr(session, tenant)?;
        let fed = self.feed_checked_out(tenant, &mut state, window);
        let report = CorrFeedReport {
            events: state.accumulator.events(),
            energy: state.energy,
            busy: state.busy,
        };
        self.shared.sessions.put_back(session, StreamSession::Corr(state));
        fed.map(|()| report)
    }

    /// The engine round-trip of one correlation feed, with the session
    /// checked out. Scores are mutated only after *every* engine answer
    /// arrived, so an error leaves the accumulator untouched.
    fn feed_checked_out(
        &self,
        tenant: TenantId,
        state: &mut CorrSession,
        window: &[BitVec],
    ) -> Result<(), ServeError> {
        let config = &self.shared.config;
        let width = config.mvp_width();
        // An unsharded service scatters one shard over every stream.
        let shards = self.shared.catalog.as_ref().map_or(1, Catalog::shards);
        let map = ShardMap::new(state.accumulator.streams(), shards)?;
        let mut subqueries = Vec::with_capacity(map.shards());
        for shard in 0..map.shards() {
            let plan = state.accumulator.shard_feed_plan_with_rows(
                window,
                map.range(shard),
                width,
                config.mvp_rows,
            )?;
            config.verify_program(&plan)?;
            subqueries.push((shard, plan));
        }
        let gathered = self.scatter(tenant, subqueries).wait()?;
        for partial in gathered.partials {
            state.accumulator.apply_reads(map.range(partial.shard), &partial.outputs)?;
        }
        state.energy += gathered.ledger.energy();
        state.busy += gathered.ledger.busy_time();
        state.accumulator.note_window(window.first().map_or(0, memcim_bits::BitVec::len));
        let events = state.take_unaccounted_events();
        self.shared.account_corr(tenant, events);
        Ok(())
    }

    /// Ends a correlation session's current stream: thresholds the
    /// accumulated scores into the correlated set and resets the
    /// session (scores, event counter, billing watermark and cost
    /// tallies) for the next stream — the session stays open, mirroring
    /// [`Job::ApFinishMany`]. The finish itself is billed as one
    /// correlation job; its events were already billed feed by feed.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSession`] / [`ServeError::SessionBusy`] /
    /// [`ServeError::WrongSessionKind`], as for
    /// [`corr_feed`](Self::corr_feed).
    pub fn corr_finish(
        &self,
        tenant: TenantId,
        session: SessionId,
    ) -> Result<CorrOutcome, ServeError> {
        let mut state = self.shared.sessions.checkout_corr(session, tenant)?;
        let outcome = CorrOutcome {
            correlated: state.accumulator.detect(state.threshold),
            scores: state.accumulator.scores().to_vec(),
            events: state.accumulator.events(),
            threshold: state.threshold,
        };
        state.accumulator.reset();
        state.reset_accounting();
        state.energy = Joules::ZERO;
        state.busy = Seconds::ZERO;
        self.shared.account_corr(tenant, 0);
        self.shared.sessions.put_back(session, StreamSession::Corr(state));
        Ok(outcome)
    }

    /// Open streaming sessions, of any workload kind.
    pub fn session_count(&self) -> usize {
        self.shared.sessions.len()
    }

    /// The accumulated usage of one tenant, if it has completed any job.
    pub fn tenant_usage(&self, tenant: TenantId) -> Option<TenantUsage> {
        sync::lock(&self.shared.tenants).get(&tenant).copied()
    }

    /// Every tenant's accumulated usage, sorted by tenant id.
    pub fn usage_snapshot(&self) -> Vec<(TenantId, TenantUsage)> {
        let mut all: Vec<_> =
            sync::lock(&self.shared.tenants).iter().map(|(&t, &u)| (t, u)).collect();
        all.sort_by_key(|&(t, _)| t);
        all
    }

    /// Graceful shutdown: refuses new jobs, lets the workers drain
    /// everything already queued, joins them, and returns the final
    /// usage snapshot.
    pub fn shutdown(mut self) -> Vec<(TenantId, TenantUsage)> {
        self.close_and_join(false);
        self.usage_snapshot()
    }

    /// Aborting shutdown: refuses new jobs and fails everything still
    /// queued with [`ServeError::ShuttingDown`]; jobs already picked up
    /// by a worker complete.
    pub fn abort(mut self) -> Vec<(TenantId, TenantUsage)> {
        self.close_and_join(true);
        self.usage_snapshot()
    }

    fn close_and_join(&mut self, abort: bool) {
        self.shared.queue.close();
        if abort {
            // Dropping the envelopes drops their responders, which fail
            // the matching tickets with `ShuttingDown`.
            drop(self.shared.queue.drain_remaining());
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.close_and_join(false);
    }
}

/// Where a sharded sub-query is in its failover journey: which shard
/// it serves and how many placement attempts it has consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardRoute {
    /// The shard whose records this sub-query touches.
    shard: usize,
    /// Placement attempts so far (0 on first submit; each re-route
    /// after an engine retirement increments it).
    attempts: u32,
}

/// One queued engine job — the only work the workers execute: the
/// tenant's programs, run as one batch, its optional shard route and
/// the worker-side ticket half.
#[derive(Debug)]
struct Envelope {
    tenant: TenantId,
    programs: Vec<Vec<Instruction>>,
    /// `Some` for scatter-gather sub-queries (always delivered via a
    /// worker mailbox); `None` for ordinary shared-lane jobs.
    route: Option<ShardRoute>,
    responder: Responder,
}

fn worker_loop(shared: &Shared, worker: usize) {
    let config = &shared.config;
    let mut engine: Option<Engine> = Some(MvpSimulator::with_backend(config.build_backend(worker)));
    let mut drained = Vec::with_capacity(config.max_burst);
    while shared.queue.pop_burst(worker, config.max_burst, &mut drained) {
        for envelope in drained.drain(..) {
            execute(envelope, &mut engine, shared, worker);
        }
    }
}

/// `true` when the error means the *engine* is done for (its substrate
/// can no longer execute reliably), as opposed to a bad request.
fn is_engine_fatal(error: &MvpError) -> bool {
    matches!(error, MvpError::Crossbar(e) if e.is_fault_fatal())
}

/// Drops the worker's engine from the pool (idempotent per worker) and
/// marks the worker dead in the placement catalog, so routed jobs fail
/// over to surviving replicas instead of landing here again.
fn retire_engine(engine: &mut Option<Engine>, shared: &Shared, worker: usize) {
    if engine.take().is_some() {
        shared.live_engines.fetch_sub(1, Ordering::SeqCst);
        if let Some(catalog) = &shared.catalog {
            catalog.mark_dead(worker);
        }
    }
}

/// Re-routes one engine job whose assigned engine is gone, so a ticket
/// is never stranded and never bounces forever. An unrouted job goes
/// back onto the shared lane while healthy engines remain, otherwise it
/// fails with [`ServeError::NoHealthyEngine`]. A sharded sub-query is
/// re-routed through the catalog onto the next live replica with
/// bounded exponential backoff, or fails with the typed
/// [`ServeError::ShardUnavailable`] once every replica of its shard is
/// dead.
fn divert(mut envelope: Envelope, shared: &Shared) {
    let Some(route) = envelope.route else {
        if shared.live_engines.load(Ordering::SeqCst) == 0 {
            envelope.responder.fulfil(Err(ServeError::NoHealthyEngine));
            return;
        }
        // A refusal means the queue closed while this job was in
        // flight: the refused envelope is dropped, which fails its
        // ticket with `ShuttingDown`, as for any job queued at shutdown.
        let _ = shared.queue.push(None, WhenFull::Bypass, envelope);
        // A worker without an engine must not hot-loop pop→requeue
        // against survivors that are busy executing: back off long
        // enough for a healthy worker to return to the queue.
        // (`pop_burst` only blocks on an *empty* queue, so a busy
        // survivor picks the job up on its next drain regardless of
        // which thread a notify lands on.)
        std::thread::sleep(std::time::Duration::from_millis(1));
        return;
    };
    let Some(catalog) = &shared.catalog else {
        envelope.responder.fulfil(Err(ServeError::Internal {
            message: "a routed job reached a service with no catalog".into(),
        }));
        return;
    };
    let attempts = route.attempts.saturating_add(1);
    // Each re-route follows an engine death observed after the previous
    // placement decision, and death is monotone, so attempts cannot
    // exceed the worker count in practice. The hard cap is a backstop
    // that keeps a logic bug from looping a ticket forever.
    let max_attempts = (shared.config.workers as u32).saturating_mul(2).saturating_add(8);
    if attempts > max_attempts {
        envelope.responder.fulfil(Err(ServeError::ShardUnavailable { shard: route.shard }));
        return;
    }
    match catalog.route(route.shard, attempts) {
        None => envelope.responder.fulfil(Err(ServeError::ShardUnavailable { shard: route.shard })),
        Some(worker) => {
            envelope.route = Some(ShardRoute { shard: route.shard, attempts });
            let _ = shared.queue.push(Some(worker), WhenFull::Bypass, envelope);
        }
    }
    // Bounded backoff, growing with the attempt count: this thread has
    // no engine, so sleeping here costs survivors nothing while spacing
    // out repeated failovers.
    let backoff = 1u64 << route.attempts.min(3);
    std::thread::sleep(std::time::Duration::from_millis(backoff));
}

/// Runs one envelope's batch on this worker's engine, exactly once.
/// Success bills the tenant and fulfils the ticket with the batch's
/// outputs and ledger. A fault-fatal error retires the engine and
/// diverts the envelope, unchanged, to the survivors; any other error
/// is the job's own answer.
fn execute(envelope: Envelope, engine: &mut Option<Engine>, shared: &Shared, worker: usize) {
    let Some(mvp) = engine.as_mut() else {
        // This worker's engine is gone but its mailbox still receives
        // routed jobs that raced the retirement: fail this one over.
        divert(envelope, shared);
        return;
    };
    match mvp.run_batch(&envelope.programs) {
        Ok(report) => {
            shared.account_mvp(envelope.tenant, &report.ledger);
            let output = MvpOutput {
                outputs: report.outputs,
                programs: envelope.programs.len(),
                ledger: report.ledger,
            };
            envelope.responder.fulfil(Ok(JobOutput::Mvp(output)));
        }
        Err(error) if is_engine_fatal(&error) => {
            retire_engine(engine, shared, worker);
            divert(envelope, shared);
        }
        Err(error) => envelope.responder.fulfil(Err(error.into())),
    }
}

/// Hands the processor's monotonic billing totals to the session's
/// accounting watermark.
impl ApSession {
    /// The cost not yet billed: the processor's lifetime billing totals
    /// (summed across every lane) minus the already-accounted
    /// watermark; advances the watermark. Billing totals never rewind
    /// on finish, so the watermark only moves forward and each symbol
    /// is billed exactly once no matter how feeds, finishes and lane
    /// batches interleave.
    fn take_unaccounted(&mut self) -> (u64, Joules, Seconds) {
        let billing = self.processor.billing_report();
        let symbols = billing.cycles - self.accounted_cycles;
        let energy = billing.energy - self.accounted_energy;
        let busy = billing.latency - self.accounted_latency;
        self.accounted_cycles = billing.cycles;
        self.accounted_energy = billing.energy;
        self.accounted_latency = billing.latency;
        (symbols, energy, busy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `shutdown` consumes the service, so only the crate can submit
    /// after the close: AP jobs are refused exactly like queued ones.
    #[test]
    fn ap_jobs_are_refused_once_the_service_closed() {
        let mut service =
            Service::start(ServeConfig::default().with_workers(1).with_mvp_geometry(8, 2, 32));
        let session = service.open_session(1, &["ab"]).expect("compiles");
        service.close_and_join(false);
        for job in [
            Job::ApFeedMany { session, chunks: vec![b"ab".to_vec()] },
            Job::ApFinishMany { session },
        ] {
            assert!(matches!(service.submit(1, job.clone()), Err(ServeError::ShuttingDown)));
            assert!(matches!(service.try_submit(1, job), Err(ServeError::ShuttingDown)));
        }
        assert!(service.tenant_usage(1).is_none(), "a refused AP job bills nothing");
    }
}
