//! The live stack every workload runs against: an in-process
//! [`Service`] behind a [`NetServer`] on loopback, loaded by a closed
//! loop of client threads, each with one connection and one
//! tenant. Every `NetClient` call blocks until its reply, the way this
//! service's callers behave.

use memcim_serve::net::{
    ClientError, ErrorCode, NetClient, NetConfig, NetServer, TenantPolicy, WireStats, WireUsage,
};
use memcim_serve::{ServeConfig, Service};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Closed-loop client threads a workload runs by default; matches the
/// 2-core host the benchmark was calibrated on, and the worker count.
pub const CLIENTS: usize = 2;

/// Service worker threads.
pub const WORKERS: usize = 2;

/// Equal windows a phase is cut into, by completion time. The first
/// is warm-up (cold caches, threads waking) and is not reported.
pub const WINDOWS: usize = 5;

/// Ladder tenants: one for the wire level, one for direct service calls
/// and one for placement scatters, so each level sees its own caches.
pub const WIRE_TENANT: u64 = CLIENTS as u64;
/// See [`WIRE_TENANT`].
pub const SERVE_TENANT: u64 = WIRE_TENANT + 1;
/// See [`WIRE_TENANT`].
pub const PLACEMENT_TENANT: u64 = WIRE_TENANT + 2;

fn token(tenant: u64) -> String {
    format!("wirebench-tenant-{tenant}")
}

/// A running service and its network front door.
pub struct Stack {
    /// The service, for direct calls from the ladder.
    pub service: Arc<Service>,
    server: NetServer,
}

impl Stack {
    /// Starts the service and the server, provisioning every tenant the
    /// benchmark uses.
    pub fn start(config: ServeConfig) -> Result<Self, String> {
        let service = Arc::new(Service::try_start(config).map_err(|e| format!("service: {e}"))?);
        let mut net = NetConfig::default();
        for tenant in 0..=PLACEMENT_TENANT {
            net = net.with_tenant(tenant, TenantPolicy::new(token(tenant)));
        }
        let server =
            NetServer::start(Arc::clone(&service), net).map_err(|e| format!("server: {e}"))?;
        Ok(Self { service, server })
    }

    /// An authenticated connection for `tenant`.
    pub fn connect(&self, tenant: u64) -> Result<NetClient, String> {
        let mut client = NetClient::connect(self.server.local_addr()).map_err(|e| e.to_string())?;
        client.hello(tenant, &token(tenant)).map_err(|e| e.to_string())?;
        Ok(client)
    }

    /// Stops the server, then the service, joining every thread.
    pub fn stop(self) {
        self.server.shutdown();
        if let Ok(service) = Arc::try_unwrap(self.service) {
            service.shutdown();
        }
    }
}

/// Starts the stack and connects and authenticates `clients` clients
/// (tenants `0..clients`), returning the seconds that took.
pub fn setup(config: &ServeConfig, clients: usize) -> Result<(f64, Stack, Vec<NetClient>), String> {
    let start = Instant::now();
    let stack = Stack::start(config.clone())?;
    let clients = (0..clients as u64).map(|t| stack.connect(t)).collect::<Result<Vec<_>, _>>()?;
    Ok((start.elapsed().as_secs_f64(), stack, clients))
}

/// Requests of each verb one client completed, for reconciliation
/// against the server's own counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// `Submit`s answered.
    pub submits: u64,
    /// Session opens answered.
    pub opens: u64,
    /// AP opens the server reported as compile-cache hits.
    pub open_hits: u64,
    /// AP opens the server reported as routing fallbacks.
    pub fallbacks: u64,
    /// Feeds answered.
    pub feeds: u64,
    /// Finishes answered.
    pub finishes: u64,
    /// Completed, verified work units: queries, AP symbols or
    /// correlation stream-slots.
    pub work: u64,
}

/// What one client thread observed.
#[derive(Debug)]
pub struct Recorder {
    /// When the phase began; completions are stamped relative to it.
    epoch: Instant,
    /// Latency of every answered request, in nanoseconds.
    pub lat_ns: Vec<u64>,
    /// When each answered request completed, in nanoseconds since the
    /// phase began (parallel to `lat_ns`).
    pub end_ns: Vec<u64>,
    /// Verified work units, stamped with when they completed:
    /// `(nanoseconds since the phase began, units)`.
    pub work_at: Vec<(u64, u64)>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, were refused, or were answered wrongly.
    pub failed: u64,
    /// Requests refused by admission (a subset of `failed`).
    pub refused: u64,
    /// `WireMvpResult::jobs` of every answered `Submit`.
    pub bursts: Vec<u64>,
    /// Per-verb completions.
    pub tally: Tally,
    /// What went wrong, if anything.
    pub errors: Vec<String>,
}

impl Recorder {
    fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            lat_ns: Vec::new(),
            end_ns: Vec::new(),
            work_at: Vec::new(),
            attempted: 0,
            failed: 0,
            refused: 0,
            bursts: Vec::new(),
            tally: Tally::default(),
            errors: Vec::new(),
        }
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        (at - self.epoch).as_nanos() as u64
    }

    /// Sends one wire request through `f`, timing it.
    pub fn call<T>(&mut self, f: impl FnOnce() -> Result<T, ClientError>) -> Result<T, String> {
        self.attempted += 1;
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        match out {
            Ok(v) => {
                self.lat_ns.push((end - start).as_nanos() as u64);
                self.end_ns.push(self.since_epoch(end));
                Ok(v)
            }
            Err(e) => {
                self.failed += 1;
                if matches!(
                    e.server_code(),
                    Some(
                        ErrorCode::OverCapacity | ErrorCode::RateLimited | ErrorCode::QuotaExceeded
                    )
                ) {
                    self.refused += 1;
                }
                Err(e.to_string())
            }
        }
    }

    /// Counts an answered request whose answer the oracle rejected.
    pub fn wrong(&mut self, message: String) -> String {
        self.failed += 1;
        message
    }

    /// Credits `units` of verified work, completed now.
    pub fn work(&mut self, units: u64) {
        self.tally.work += units;
        self.work_at.push((self.since_epoch(Instant::now()), units));
    }
}

/// One client's request sequence.
pub trait Script: Send {
    /// Runs the next cycle: one query, one session, or one corpus.
    /// Stops the client on the first failure.
    fn cycle(&mut self, client: &mut NetClient, rec: &mut Recorder) -> Result<(), String>;
}

/// One steady-state window of a phase.
#[derive(Debug, Default)]
pub struct Window {
    /// Its width.
    pub seconds: f64,
    /// Verified work units completed in it.
    pub work: u64,
    /// Latencies of the requests that completed in it, in
    /// microseconds, sorted.
    pub lat_us: Vec<f64>,
}

/// The outcome of one closed-loop phase.
pub struct LiveRun {
    /// One recorder per client.
    pub recs: Vec<Recorder>,
    /// The phase's time budget.
    pub seconds: f64,
}

impl LiveRun {
    /// Every answered request's latency in microseconds, sorted.
    pub fn sorted_us(&self) -> Vec<f64> {
        let mut all: Vec<f64> =
            self.recs.iter().flat_map(|r| r.lat_ns.iter().map(|&ns| ns as f64 / 1e3)).collect();
        all.sort_by(f64::total_cmp);
        all
    }

    /// Sum of `f` over the clients.
    pub fn sum(&self, f: impl Fn(&Recorder) -> u64) -> u64 {
        self.recs.iter().map(f).sum()
    }

    /// The budget cut into [`WINDOWS`] equal windows by completion
    /// time, without the warm-up window. What completed after the
    /// budget (the cycles in flight at the deadline) falls in none.
    pub fn windows(&self) -> Vec<Window> {
        let width_ns = self.seconds * 1e9 / WINDOWS as f64;
        let mut windows: Vec<Window> =
            (0..WINDOWS).map(|_| Window { seconds: width_ns / 1e9, ..Window::default() }).collect();
        let slot = |ns: u64| (ns as f64 / width_ns) as usize;
        for rec in &self.recs {
            for (&end, &lat) in rec.end_ns.iter().zip(&rec.lat_ns) {
                if let Some(w) = windows.get_mut(slot(end)) {
                    w.lat_us.push(lat as f64 / 1e3);
                }
            }
            for &(at, units) in &rec.work_at {
                if let Some(w) = windows.get_mut(slot(at)) {
                    w.work += units;
                }
            }
        }
        windows.remove(0);
        for w in &mut windows {
            w.lat_us.sort_by(f64::total_cmp);
        }
        windows
    }
}

/// Runs every script on its own client thread until `seconds` have
/// passed; a cycle in flight at the deadline completes, so sessions
/// close and the server's books can be reconciled.
pub fn drive(clients: Vec<NetClient>, scripts: Vec<Box<dyn Script + '_>>, seconds: f64) -> LiveRun {
    let barrier = Barrier::new(clients.len());
    let budget = Duration::from_secs_f64(seconds);
    let recs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(scripts)
            .map(|(mut client, mut script)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let mut rec = Recorder::new(Instant::now());
                    while rec.epoch.elapsed() < budget {
                        if let Err(e) = script.cycle(&mut client, &mut rec) {
                            rec.errors.push(e);
                            break;
                        }
                    }
                    rec
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    LiveRun { recs, seconds }
}

/// The server-side books after a phase: each of `clients` tenants' `Usage`
/// and the service-wide `Stats`, fetched over the wire.
pub fn books(stack: &Stack, clients: usize) -> Result<(Vec<WireUsage>, WireStats), String> {
    let mut usages = Vec::with_capacity(clients);
    for tenant in 0..clients as u64 {
        usages.push(stack.connect(tenant)?.usage().map_err(|e| e.to_string())?);
    }
    let stats = stack.connect(0)?.stats().map_err(|e| e.to_string())?;
    Ok((usages, stats))
}

/// Checks common to every workload: no engine retired, no shard lost,
/// every session closed.
pub fn check_health(stats: &WireStats) -> Vec<String> {
    let mut problems = Vec::new();
    if stats.retired_engines != 0 {
        problems.push(format!("{} engines retired", stats.retired_engines));
    }
    if stats.unavailable_shards != 0 {
        problems.push(format!("{} shards unavailable", stats.unavailable_shards));
    }
    if stats.sessions != 0 {
        problems.push(format!("{} sessions left open", stats.sessions));
    }
    problems
}

/// `"{what}: client counted {ours}, server counted {theirs}"` when the
/// two differ.
pub fn expect_eq(problems: &mut Vec<String>, what: &str, ours: u64, theirs: u64) {
    if ours != theirs {
        problems.push(format!("{what}: client counted {ours}, server counted {theirs}"));
    }
}

/// The process's peak resident set, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}
