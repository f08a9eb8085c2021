//! The TCP listener: accept loop, per-connection handlers, and the
//! request dispatch that maps wire verbs onto the [`Service`] API.
//!
//! One handler thread per connection (capped at
//! [`NetConfig::max_connections`]); each connection is a synchronous
//! request/response stream. The dispatch order on every job-carrying
//! verb is the contract this module exists for:
//!
//! 1. **auth** — the connection must have sent `Hello`;
//! 2. **verify** — every `Submit` program is checked against the
//!    engine geometry ([`ServeConfig::verify_program`]);
//!    an invalid program is refused with a typed
//!    [`ErrorCode::InvalidProgram`] frame, and a tenant with an energy
//!    budget has the submission's static cost bound checked — both
//!    *before* anything is billed or queued;
//! 3. **quota**, then **rate** — [`AdmissionControl::admit`];
//! 4. only then `Service::try_submit`, whose `QueueFull` comes back as
//!    a typed [`ErrorCode::OverCapacity`] frame.
//!
//! [`ServeConfig::verify_program`]: crate::ServeConfig::verify_program
//!
//! Nothing in this path blocks on the bounded queue, so a greedy client
//! saturating the service stalls neither the accept loop nor another
//! tenant's connection. Malformed frames are answered with typed error
//! frames and the connection continues; only *unframeable* input (an
//! oversized length prefix, a mid-frame cut) closes it.

use super::admission::{AdmissionControl, TenantPolicy};
use super::wire::{
    read_frame, write_frame, ErrorCode, FrameReadError, Request, Response, TenantStat,
    WireMvpResult, WireRate, WireStats, WireUsage, MAX_FRAME_DEFAULT,
};
use crate::sync;
use crate::{Job, ServeError, Service, TenantId};
use memcim_mvp::MvpError;
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Sizing and tenant registry for the network front door.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The address to bind; port `0` picks a free port (the default —
    /// read the result off [`NetServer::local_addr`]).
    pub addr: String,
    /// The largest frame body accepted, bytes ([`MAX_FRAME_DEFAULT`]).
    pub max_frame: usize,
    /// Concurrent connections served; further accepts are answered
    /// with one `OverCapacity` error frame and closed.
    pub max_connections: usize,
    /// The registered tenants and their policies.
    pub tenants: Vec<(TenantId, TenantPolicy)>,
}

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_frame: MAX_FRAME_DEFAULT,
            max_connections: 256,
            tenants: Vec::new(),
        }
    }
}

impl NetConfig {
    /// Sets the bind address.
    #[must_use]
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Caps the accepted frame body size.
    #[must_use]
    pub fn with_max_frame(mut self, max_frame: usize) -> Self {
        self.max_frame = max_frame;
        self
    }

    /// Caps concurrent connections.
    #[must_use]
    pub fn with_max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections;
        self
    }

    /// Registers a tenant with its authentication token and limits.
    #[must_use]
    pub fn with_tenant(mut self, tenant: TenantId, policy: TenantPolicy) -> Self {
        self.tenants.push((tenant, policy));
        self
    }
}

/// Connection state shared with the shutdown path: every live stream,
/// keyed by connection id, so `shutdown` can unblock handlers parked in
/// a blocking read.
#[derive(Default)]
struct Registry {
    streams: Mutex<HashMap<u64, TcpStream>>,
}

impl Registry {
    fn register(&self, id: u64, stream: &TcpStream) {
        if let Ok(clone) = stream.try_clone() {
            sync::lock(&self.streams).insert(id, clone);
        }
    }

    fn deregister(&self, id: u64) {
        sync::lock(&self.streams).remove(&id);
    }

    fn shutdown_all(&self) {
        for stream in sync::lock(&self.streams).values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// The running TCP front door over an [`Arc<Service>`].
///
/// Binds on [`NetServer::start`], serves until [`shutdown`]
/// (or drop). The server holds its own `Arc` of the service; shutting
/// the server down does not shut the service down — the last `Arc`
/// owner does, via [`Service`]'s drop (graceful drain).
///
/// [`shutdown`]: NetServer::shutdown
pub struct NetServer {
    local_addr: SocketAddr,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    registry: Arc<Registry>,
    accept_thread: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `config.addr` and starts the accept loop.
    ///
    /// # Errors
    ///
    /// [`ServeError::Internal`] when the bind fails or the OS refuses
    /// the accept thread.
    pub fn start(service: Arc<Service>, config: NetConfig) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| ServeError::Internal {
            message: format!("cannot bind {}: {e}", config.addr),
        })?;
        let local_addr = listener.local_addr().map_err(|e| ServeError::Internal {
            message: format!("bound listener has no local address: {e}"),
        })?;
        let admission = Arc::new(AdmissionControl::new(config.tenants.iter().cloned()));
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::default());
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&registry);
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name("memcim-net-accept".to_string())
                .spawn(move || {
                    accept_loop(&listener, &service, &admission, &config, &stop, &registry)
                })
                .map_err(|e| ServeError::Internal {
                    message: format!("cannot spawn accept thread: {e}"),
                })?
        };
        Ok(Self { local_addr, service, stop, registry, accept_thread: Some(accept_thread) })
    }

    /// The address the listener actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Puts the underlying service into drain mode: connections stay
    /// up and in-flight work finishes, but new `Submit` and `ApOpen`
    /// verbs are refused with typed
    /// [`ErrorCode::ShuttingDown`] frames ([`Service::begin_drain`]).
    /// Follow with [`shutdown`](NetServer::shutdown) once clients have
    /// observed the refusals and collected their last results.
    pub fn drain(&self) {
        self.service.begin_drain();
    }

    /// `true` once [`drain`](NetServer::drain) has been called (on this
    /// server or directly on the service).
    pub fn is_draining(&self) -> bool {
        self.service.is_draining()
    }

    /// Stops accepting, unblocks and joins every connection handler,
    /// and joins the accept loop. In-flight requests finish; parked
    /// reads are cut.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop is parked in `accept`; a throwaway connection
        // to ourselves wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
        // The accept loop joined its handlers before exiting; anything
        // still registered belongs to a handler the loop already
        // reaped. Cut the streams regardless — belt and braces.
        self.registry.shutdown_all();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<Service>,
    admission: &Arc<AdmissionControl>,
    config: &NetConfig,
    stop: &Arc<AtomicBool>,
    registry: &Arc<Registry>,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id: u64 = 0;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        // Responses are small: without NODELAY, Nagle can hold one
        // behind the peer's delayed ACK and a round trip eats ~40 ms.
        // `write_frame` sends each frame in one write, so NODELAY costs
        // no extra segments.
        let _ = stream.set_nodelay(true);
        // Reap finished handlers so the cap counts live connections.
        let mut still_running = Vec::with_capacity(handlers.len());
        for handler in handlers.drain(..) {
            if handler.is_finished() {
                let _ = handler.join();
            } else {
                still_running.push(handler);
            }
        }
        handlers = still_running;
        if handlers.len() >= config.max_connections {
            let refusal = Response::Error {
                code: ErrorCode::OverCapacity,
                message: format!("connection limit ({}) reached", config.max_connections),
            };
            let _ = write_frame(&mut stream, &encoded_or_internal(&refusal));
            continue;
        }
        let id = next_id;
        next_id += 1;
        registry.register(id, &stream);
        let service = Arc::clone(service);
        let admission = Arc::clone(admission);
        let handler_registry = Arc::clone(registry);
        let max_frame = config.max_frame;
        let spawned =
            std::thread::Builder::new().name(format!("memcim-net-conn-{id}")).spawn(move || {
                handle_connection(&mut stream, &service, &admission, max_frame);
                handler_registry.deregister(id);
            });
        match spawned {
            Ok(handle) => handlers.push(handle),
            Err(_) => registry.deregister(id),
        }
    }
    // `stop_and_join` cuts registered streams only after this loop
    // returns, so unblock our own handlers first, then join them.
    registry.shutdown_all();
    for handler in handlers {
        let _ = handler.join();
    }
}

/// One connection's request/response loop. Never panics on peer input:
/// decode failures become typed error frames, socket failures end the
/// loop.
fn handle_connection(
    stream: &mut TcpStream,
    service: &Service,
    admission: &AdmissionControl,
    max_frame: usize,
) {
    let mut authenticated: Option<TenantId> = None;
    loop {
        let body = match read_frame(stream, max_frame) {
            Ok(body) => body,
            Err(FrameReadError::Closed) => return,
            Err(FrameReadError::TooLarge { declared, max }) => {
                // The body was not read, so the stream can no longer be
                // framed: answer and close.
                let refusal = Response::Error {
                    code: ErrorCode::FrameTooLarge,
                    message: format!("frame body of {declared} bytes exceeds the {max}-byte cap"),
                };
                let _ = write_frame(stream, &encoded_or_internal(&refusal));
                return;
            }
            Err(FrameReadError::Truncated) | Err(FrameReadError::Io(_)) => return,
        };
        let response = match Request::decode(&body) {
            // Frame boundaries survived a bad body: answer and go on.
            Err(e) => Response::Error { code: e.error_code(), message: e.to_string() },
            Ok(request) => dispatch(request, &mut authenticated, service, admission, max_frame),
        };
        if write_frame(stream, &encoded_or_internal(&response)).is_err() {
            return;
        }
    }
}

/// Encodes a response, downgrading an unencodable one (a field too
/// large for the wire format — not the client's fault) to a typed
/// `Internal` error frame so the connection stays framed.
fn encoded_or_internal(response: &Response) -> Vec<u8> {
    response.encode().unwrap_or_else(|e| {
        let fallback = Response::Error {
            code: ErrorCode::Internal,
            message: format!("unencodable response: {e}"),
        };
        // An error frame's only variable field is its short message;
        // this encode cannot overflow a u32 length.
        fallback.encode().unwrap_or_default()
    })
}

/// Fewest wire bytes one nonempty window stream of a `CorrFeed` takes:
/// a `u32` bit length and one 64-bit word.
const MIN_WIRE_STREAM_BYTES: usize = 12;

/// Applies the admission order (auth → quota → rate) and maps one verb
/// onto the service.
fn dispatch(
    request: Request,
    authenticated: &mut Option<TenantId>,
    service: &Service,
    admission: &AdmissionControl,
    max_frame: usize,
) -> Response {
    // `Hello` is the only verb allowed before authentication.
    let tenant = match (&request, *authenticated) {
        (Request::Hello { tenant, token }, None) => {
            return match admission.authenticate(*tenant, token) {
                Ok(()) => {
                    *authenticated = Some(*tenant);
                    Response::HelloOk
                }
                Err(e) => error_frame(&e),
            };
        }
        (Request::Hello { .. }, Some(_)) => {
            return Response::Error {
                code: ErrorCode::AlreadyAuthenticated,
                message: "connection is already bound to a tenant".to_string(),
            };
        }
        (_, None) => return error_frame(&ServeError::Unauthenticated),
        (_, Some(tenant)) => tenant,
    };
    match request {
        Request::Hello { .. } => unreachable!("handled above"),
        Request::Submit { programs } => {
            // Static verification precedes admission: a refused program
            // charges neither quota nor rate tokens and never queues.
            // Runs through the verify cache, so the submit path's own
            // check right after is a cache hit, not repeated work.
            for program in &programs {
                if let Err(e) = service.verify_program_cached(tenant, program) {
                    return error_frame(&e);
                }
            }
            if let Err(e) = check_energy_budget(tenant, &programs, service, admission) {
                return error_frame(&e);
            }
            let jobs = programs.len() as u32;
            if let Err(e) = admission.admit(tenant, jobs, Instant::now()) {
                return error_frame(&e);
            }
            match submit_and_wait(service, tenant, Job::MvpBatch(programs)) {
                Err(e) => error_frame(&e),
                Ok(output) => match output.into_mvp() {
                    Some(result) => Response::Mvp(WireMvpResult {
                        outputs: result.outputs,
                        jobs: 1,
                        programs: result.programs as u64,
                        energy: result.ledger.energy(),
                        busy: result.ledger.busy_time(),
                    }),
                    None => internal("MVP job resolved to a non-MVP output"),
                },
            }
        }
        Request::ApOpen { patterns } => {
            // Compilation is synchronous work on this thread; it is
            // admission-charged like a job so a tenant cannot sidestep
            // its limits by opening sessions.
            if let Err(e) = admission.admit(tenant, 1, Instant::now()) {
                return error_frame(&e);
            }
            let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
            match service.open_session_info(tenant, &refs) {
                Ok((session, info)) => Response::ApOpened {
                    session,
                    routing_fallback: info.routing_fallback,
                    cache_hit: info.cache_hit,
                },
                Err(e) => error_frame(&e),
            }
        }
        Request::ApFeedMany { session, chunks } => {
            if let Err(e) = admission.admit(tenant, 1, Instant::now()) {
                return error_frame(&e);
            }
            match submit_and_wait(service, tenant, Job::ApFeedMany { session, chunks }) {
                Err(e) => error_frame(&e),
                Ok(output) => match output.into_ap_feed_many() {
                    Some(reports) => Response::ApFedMany(reports),
                    None => internal("multi-feed job resolved to a non-feed output"),
                },
            }
        }
        Request::ApFinishMany { session } => {
            if let Err(e) = admission.admit(tenant, 1, Instant::now()) {
                return error_frame(&e);
            }
            match submit_and_wait(service, tenant, Job::ApFinishMany { session }) {
                Err(e) => error_frame(&e),
                Ok(output) => match output.into_ap_finish_many() {
                    Some(runs) => Response::ApFinishedMany(runs),
                    None => internal("multi-finish job resolved to a non-finish output"),
                },
            }
        }
        // Closing a session frees resources: never admission-charged.
        // Kind-agnostic: it drops correlation sessions too.
        Request::ApClose { session } => match service.close_session(tenant, session) {
            Ok(()) => Response::ApClosed,
            Err(e) => error_frame(&e),
        },
        Request::CorrOpen { streams, threshold } => {
            // A session wider than one frame can carry could never be
            // fed, and its accumulator allocates per stream: refuse it
            // before admission, so the refusal charges nothing.
            let feedable = max_frame / MIN_WIRE_STREAM_BYTES;
            if streams > feedable {
                return error_frame(&ServeError::Mvp(MvpError::BadInput {
                    reason: format!(
                        "{streams} streams exceed the {feedable} a {max_frame}-byte frame can feed"
                    ),
                }));
            }
            // Opening allocates server-side session state; it is
            // admission-charged like a job, and a refusal charges
            // neither quota nor rate tokens (the gate only debits on
            // success) — nothing is opened.
            if let Err(e) = admission.admit(tenant, 1, Instant::now()) {
                return error_frame(&e);
            }
            match service.open_corr_session(tenant, streams, threshold) {
                Ok(session) => Response::CorrOpened { session },
                Err(e) => error_frame(&e),
            }
        }
        Request::CorrFeed { session, window } => {
            if let Err(e) = admission.admit(tenant, 1, Instant::now()) {
                return error_frame(&e);
            }
            // Unlike `Submit`, a correlation feed may briefly block on
            // queue backpressure; only this connection's handler waits.
            // AP feeds never queue: they run on this handler thread.
            match service.corr_feed(tenant, session, &window) {
                Ok(report) => Response::CorrFed(report),
                Err(e) => error_frame(&e),
            }
        }
        Request::CorrFinish { session } => {
            if let Err(e) = admission.admit(tenant, 1, Instant::now()) {
                return error_frame(&e);
            }
            match service.corr_finish(tenant, session) {
                Ok(outcome) => Response::CorrReport(outcome),
                Err(e) => error_frame(&e),
            }
        }
        Request::Usage => {
            let usage = service.tenant_usage(tenant).unwrap_or_default();
            let budget = admission.budget(tenant, Instant::now());
            Response::Usage(WireUsage {
                mvp_jobs: usage.mvp_jobs,
                mvp_reads: usage.mvp.reads(),
                mvp_scouting_ops: usage.mvp.scouting_ops(),
                mvp_programs: usage.mvp.programs(),
                mvp_corrected_errors: usage.mvp.corrected_errors(),
                mvp_energy: usage.mvp.energy(),
                mvp_busy: usage.mvp.busy_time(),
                ap_jobs: usage.ap_jobs,
                ap_symbols: usage.ap_symbols,
                ap_energy: usage.ap_energy,
                ap_busy: usage.ap_busy,
                corr_jobs: usage.corr_jobs,
                corr_events: usage.corr_events,
                quota_remaining: budget.and_then(|b| b.quota_remaining),
                rate: budget.and_then(|b| b.rate.map(|(tokens, burst)| WireRate { tokens, burst })),
            })
        }
        Request::Stats => Response::Stats(WireStats {
            workers: service.worker_count() as u64,
            live_engines: service.live_engines() as u64,
            retired_engines: service.retired_engines() as u64,
            queue_depth: service.pending() as u64,
            queue_capacity: service.config().queue_depth as u64,
            sessions: service.session_count() as u64,
            shards: service.shard_count() as u64,
            replicas: service.replica_count() as u64,
            unavailable_shards: service.unavailable_shards() as u64,
            routing_fallbacks: service.routing_fallbacks(),
            ap_cache_hits: service.ap_cache_hits(),
            ap_cache_misses: service.ap_cache_misses(),
            mvp_cache_hits: service.mvp_cache_hits(),
            mvp_cache_misses: service.mvp_cache_misses(),
            tenants: service
                .usage_snapshot()
                .into_iter()
                .map(|(tenant, usage)| TenantStat {
                    tenant,
                    jobs: usage.jobs(),
                    energy: usage.total_energy(),
                    busy: usage.total_busy(),
                })
                .collect(),
        }),
    }
}

/// Checks a submission's *static* energy bound against the tenant's
/// configured per-submission budget, when it carries one. The bound is
/// computed from the programs alone ([`memcim_verify::CostModel`]) and
/// over-approximates actual cost, so an admitted submission never
/// executes above the budget — and a refused one cost the engines
/// nothing.
fn check_energy_budget(
    tenant: TenantId,
    programs: &[Vec<memcim_mvp::Instruction>],
    service: &Service,
    admission: &AdmissionControl,
) -> Result<(), ServeError> {
    let Some(budget) = admission.energy_budget(tenant) else {
        return Ok(());
    };
    let config = service.config();
    let model =
        memcim_verify::CostModel::banked(config.mvp_rows, config.mvp_banks, config.mvp_bank_cols);
    let bound = programs
        .iter()
        .map(|p| model.bound(p).energy)
        .fold(memcim_units::Joules::ZERO, |a, b| a + b);
    if bound.as_joules() > budget.as_joules() {
        return Err(ServeError::CostBoundExceeded { tenant, bound, budget });
    }
    Ok(())
}

/// The non-blocking submit path: a full queue is a typed refusal
/// (`QueueFull` → `OverCapacity` on the wire), never a blocked handler.
/// AP session jobs never queue; they run on this handler thread.
fn submit_and_wait(
    service: &Service,
    tenant: TenantId,
    job: Job,
) -> Result<crate::JobOutput, ServeError> {
    service.try_submit(tenant, job)?.wait()
}

fn error_frame(e: &ServeError) -> Response {
    Response::Error { code: ErrorCode::from_serve_error(e), message: e.to_string() }
}

fn internal(message: &str) -> Response {
    Response::Error { code: ErrorCode::Internal, message: message.to_string() }
}
