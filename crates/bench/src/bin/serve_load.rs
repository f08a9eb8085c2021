//! Closed-loop TCP load generator for the `memcim-serve` network front
//! door: N client threads, each with its own loopback connection and
//! tenant, hammer a live [`NetServer`] with bitmap MVP queries and
//! record per-request latency. The report is the latency distribution
//! (p50/p95/p99), accepted QPS, and — because the client count is
//! deliberately larger than the queue — the number of requests the
//! admission path refused with typed `OverCapacity` frames instead of
//! blocking.
//!
//! ```text
//! serve_load [--quick] [--clients N] [--workers W] [--queue-depth Q]
//!            [--duration-ms MS] [--kill-rate K] [--streams S]
//! ```
//!
//! * `--quick` shrinks the run for CI smoke (4 clients, 150 ms).
//! * `--streams S` switches the workload from MVP queries to
//!   multi-stream AP sessions: each client opens one session and every
//!   request is an `ApFeedMany` driving S lanes through the shared
//!   automaton (with a periodic `ApFinishMany` so lane state stays
//!   bounded) — the overload instrument for the multi-stream wire path.
//! * `--kill-rate K` retires worker engines at ~K kills/second
//!   (seeded schedule, at least one engine always survives): a chaos
//!   mode proving the retire-and-divert path stays invisible to
//!   clients — every request still completes or is refused with a
//!   typed `OverCapacity`, never an engine fault.
//! * Defaults: 16 clients, 4 workers, queue depth 8, 2000 ms, no kills.
//!
//! Unlike the `wirebench` benchmark's `bitmap_wire` workload (clients
//! within capacity, every answer checked — the committed served-path
//! number), this binary is the *overload* instrument: concurrency
//! exceeds capacity on purpose, so tail latency and refusal behavior
//! are visible. `--workers W` is also how worker scaling is measured.

use memcim_bits::BitVec;
use memcim_crossbar::{
    BankedCrossbar, CrossbarBackend, CrossbarError, OpLedger, RemapEntry, ScoutingKind,
};
use memcim_mvp::Instruction;
use memcim_serve::net::{ClientError, ErrorCode, NetClient, NetConfig, NetServer, TenantPolicy};
use memcim_serve::{BoxedBackend, ServeConfig, Service};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Same fixed seed as `perf_report` (the paper's year).
const SEED: u64 = 2018;

/// Per-tenant auth token (the generator provisions every tenant).
fn token(tenant: u64) -> String {
    format!("load-tenant-{tenant}")
}

struct Args {
    clients: usize,
    workers: usize,
    queue_depth: usize,
    duration: Duration,
    /// Engine kills per second; zero disables the chaos schedule.
    kill_rate: f64,
    /// AP lanes per request; zero keeps the MVP query workload.
    streams: usize,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        clients: 16,
        workers: 4,
        queue_depth: 8,
        duration: Duration::from_millis(2000),
        kill_rate: 0.0,
        streams: 0,
    };
    let mut it = argv.iter();
    let number = |it: &mut std::slice::Iter<'_, String>, flag: &str| -> u64 {
        it.next()
            .unwrap_or_else(|| panic!("{flag} needs a value"))
            .parse()
            .unwrap_or_else(|e| panic!("{flag}: {e}"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => {
                args.clients = 4;
                args.duration = Duration::from_millis(150);
            }
            "--clients" => args.clients = number(&mut it, "--clients") as usize,
            "--workers" => args.workers = number(&mut it, "--workers") as usize,
            "--queue-depth" => args.queue_depth = number(&mut it, "--queue-depth") as usize,
            "--duration-ms" => {
                args.duration = Duration::from_millis(number(&mut it, "--duration-ms"))
            }
            "--streams" => args.streams = number(&mut it, "--streams") as usize,
            "--kill-rate" => {
                args.kill_rate = it
                    .next()
                    .unwrap_or_else(|| panic!("--kill-rate needs a value"))
                    .parse()
                    .unwrap_or_else(|e| panic!("--kill-rate: {e}"))
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: serve_load [--quick] [--clients N] [--workers W] \
                     [--queue-depth Q] [--duration-ms MS] [--kill-rate K] [--streams S]"
                );
                std::process::exit(2);
            }
        }
    }
    assert!(args.clients > 0, "--clients must be positive");
    assert!(args.kill_rate >= 0.0 && args.kill_rate.is_finite(), "--kill-rate must be finite");
    assert!(
        args.streams <= memcim_serve::MAX_LANES,
        "--streams is capped at {} lanes per session",
        memcim_serve::MAX_LANES
    );
    assert!(
        args.streams == 0 || args.kill_rate == 0.0,
        "--streams and --kill-rate are separate instruments (AP sessions live on one worker)"
    );
    args
}

/// A substrate with a remote kill switch: executes normally until its
/// worker's flag flips, then reports `ExhaustedSpares` on every
/// operation. The serve layer retires the engine and diverts the
/// in-flight job to a surviving worker, so clients never see the kill.
struct KillableBackend {
    inner: BankedCrossbar,
    switches: Arc<Vec<AtomicBool>>,
    worker: usize,
}

impl KillableBackend {
    fn check(&self) -> Result<(), CrossbarError> {
        if self.switches[self.worker].load(Ordering::SeqCst) {
            Err(CrossbarError::ExhaustedSpares { row: 0, spares: 0 })
        } else {
            Ok(())
        }
    }
}

impl CrossbarBackend for KillableBackend {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn program_row(&mut self, row: usize, values: &BitVec) -> Result<u64, CrossbarError> {
        self.check()?;
        self.inner.program_row(row, values)
    }

    fn read_row(&mut self, row: usize) -> Result<BitVec, CrossbarError> {
        self.check()?;
        self.inner.read_row(row)
    }

    fn scouting(&mut self, kind: ScoutingKind, rows: &[usize]) -> Result<BitVec, CrossbarError> {
        self.check()?;
        self.inner.scouting(kind, rows)
    }

    fn scouting_write(
        &mut self,
        kind: ScoutingKind,
        rows: &[usize],
        dest: usize,
    ) -> Result<BitVec, CrossbarError> {
        self.check()?;
        self.inner.scouting_write(kind, rows, dest)
    }

    fn ledger_parts(&self) -> Vec<OpLedger> {
        self.inner.ledger_parts()
    }

    fn remap_table(&self) -> Vec<RemapEntry> {
        self.inner.remap_table()
    }
}

/// What one client thread observed.
struct ClientReport {
    /// Latency of each accepted request, in nanoseconds.
    latencies_ns: Vec<u64>,
    /// Requests refused before queue admission (typed `OverCapacity`).
    over_capacity: u64,
}

fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = (p * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[rank.min(sorted_ns.len() - 1)]
}

fn main() {
    let args = parse_args();

    // The same small-query bitmap workload as perf_report's serving
    // configs: 2048 records striped over 64 banks, four query plans.
    let records = 2_048usize;
    let mut rng = SmallRng::seed_from_u64(SEED);
    let col1: Vec<u8> = (0..records).map(|_| rng.gen_range(0..16)).collect();
    let col2: Vec<u8> = (0..records).map(|_| rng.gen_range(0..8)).collect();
    let table = memcim_mvp::workloads::bitmap::BitmapTable::new(col1, col2, 16)
        .expect("well-formed columns");
    let queries: [(&[u8], &[u8]); 4] =
        [(&[1, 4, 9], &[0, 3]), (&[2, 5], &[1, 6]), (&[11], &[2, 4, 7]), (&[0, 8, 14], &[5])];
    let plans: Vec<Vec<Instruction>> =
        queries.iter().map(|(s1, s2)| table.query_plan(s1, s2)).collect();

    let (rows, banks, bank_cols) = (32usize, 64usize, records / 64);
    let mut serve_config = ServeConfig::default()
        .with_workers(args.workers)
        .with_queue_depth(args.queue_depth)
        .with_max_burst(8)
        .with_mvp_geometry(rows, banks, bank_cols);
    let switches: Arc<Vec<AtomicBool>> =
        Arc::new((0..args.workers).map(|_| AtomicBool::new(false)).collect());
    if args.kill_rate > 0.0 {
        let factory_switches = Arc::clone(&switches);
        serve_config = serve_config.with_engine_factory(move |worker| -> BoxedBackend {
            Box::new(KillableBackend {
                inner: BankedCrossbar::rram(rows, banks, bank_cols),
                switches: Arc::clone(&factory_switches),
                worker,
            })
        });
    }
    let service = Arc::new(Service::try_start(serve_config).expect("service starts"));
    let mut net = NetConfig::default();
    for tenant in 0..args.clients as u64 {
        net = net.with_tenant(tenant, TenantPolicy::new(token(tenant)));
    }
    let server = NetServer::start(Arc::clone(&service), net).expect("server starts");
    let addr = server.local_addr();

    let started = Instant::now();
    let deadline = started + args.duration;

    // The chaos schedule: a seeded thread flips one surviving worker's
    // kill switch roughly every 1/K seconds, always leaving at least
    // one engine alive so the service stays answerable.
    let chaos = (args.kill_rate > 0.0).then(|| {
        let switches = Arc::clone(&switches);
        let kill_rate = args.kill_rate;
        std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(SEED ^ 0xC4A05);
            let mut killed = 0u64;
            while Instant::now() < deadline {
                // Jittered inter-kill gap: 0.5x..1.5x of the mean.
                let gap = Duration::from_secs_f64(rng.gen_range(0.5..1.5) / kill_rate);
                let wake = Instant::now() + gap;
                while Instant::now() < wake.min(deadline) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                if Instant::now() >= deadline {
                    break;
                }
                let alive: Vec<usize> =
                    (0..switches.len()).filter(|&w| !switches[w].load(Ordering::SeqCst)).collect();
                if alive.len() <= 1 {
                    break; // the last engine must survive
                }
                let victim = alive[rng.gen_range(0..alive.len())];
                switches[victim].store(true, Ordering::SeqCst);
                killed += 1;
            }
            killed
        })
    });

    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|i| {
                let plans = &plans;
                let streams = args.streams;
                scope.spawn(move || {
                    let tenant = i as u64;
                    let mut client = NetClient::connect(addr).expect("client connects");
                    client.hello(tenant, &token(tenant)).expect("tenant is provisioned");
                    let mut report = ClientReport { latencies_ns: Vec::new(), over_capacity: 0 };
                    let mut next = i; // stagger plan rotation across clients
                    if streams > 0 {
                        // Multi-stream AP workload: one session per
                        // client, every request one ApFeedMany over
                        // `streams` lanes; a finish every 32 feeds
                        // bounds per-lane state without dominating.
                        let session =
                            client.ap_open(&["GET /[a-z]+", "ab+c"]).expect("session opens");
                        let mut lane_rng = SmallRng::seed_from_u64(SEED ^ i as u64);
                        let chunks: Vec<Vec<u8>> = (0..streams)
                            .map(|_| {
                                (0..64)
                                    .map(|_| {
                                        const ALPHABET: &[u8] = b"GET /abcindex ";
                                        ALPHABET[lane_rng.gen_range(0..ALPHABET.len())]
                                    })
                                    .collect()
                            })
                            .collect();
                        while Instant::now() < deadline {
                            next += 1;
                            let sent = Instant::now();
                            match client.ap_feed_many(session, &chunks) {
                                Ok(reports) => {
                                    assert_eq!(reports.len(), streams);
                                    report.latencies_ns.push(sent.elapsed().as_nanos() as u64);
                                }
                                Err(ClientError::Server {
                                    code: ErrorCode::OverCapacity, ..
                                }) => report.over_capacity += 1,
                                Err(e) => panic!("client {i}: unexpected failure: {e}"),
                            }
                            if next % 32 == 0 {
                                client.ap_finish_many(session).expect("lanes finish");
                            }
                        }
                        return report;
                    }
                    while Instant::now() < deadline {
                        let plan = plans[next % plans.len()].clone();
                        next += 1;
                        let sent = Instant::now();
                        match client.submit_mvp(&[plan]) {
                            Ok(_) => {
                                report.latencies_ns.push(sent.elapsed().as_nanos() as u64);
                            }
                            Err(ClientError::Server { code: ErrorCode::OverCapacity, .. }) => {
                                report.over_capacity += 1
                            }
                            Err(e) => panic!("client {i}: unexpected failure: {e}"),
                        }
                    }
                    report
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread joins")).collect()
    });
    let wall = started.elapsed();
    let killed = chaos.map_or(0, |h| h.join().expect("chaos thread joins"));
    let retired = service.retired_engines() as u64;
    server.shutdown();
    drop(service);

    let mut latencies: Vec<u64> = Vec::new();
    let mut refused = 0u64;
    for report in &reports {
        latencies.extend_from_slice(&report.latencies_ns);
        refused += report.over_capacity;
    }
    latencies.sort_unstable();
    let accepted = latencies.len() as u64;
    let qps = accepted as f64 / wall.as_secs_f64();
    let us = |ns: u64| memcim_bench::fmt(ns as f64 / 1e3, 1);

    println!(
        "{}",
        memcim_bench::table(
            &[
                "clients", "workers", "queue", "wall_ms", "accepted", "refused", "killed",
                "retired", "qps", "p50_us", "p95_us", "p99_us"
            ],
            &[vec![
                args.clients.to_string(),
                args.workers.to_string(),
                args.queue_depth.to_string(),
                memcim_bench::fmt(wall.as_secs_f64() * 1e3, 0),
                accepted.to_string(),
                refused.to_string(),
                killed.to_string(),
                retired.to_string(),
                memcim_bench::fmt(qps, 0),
                us(percentile(&latencies, 0.50)),
                us(percentile(&latencies, 0.95)),
                us(percentile(&latencies, 0.99)),
            ]],
        )
    );
    assert!(accepted > 0, "the load generator must complete at least one request");
    assert!(
        retired <= killed,
        "the service cannot retire more engines ({retired}) than the schedule killed ({killed})"
    );
}
