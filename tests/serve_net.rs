//! End-to-end exercise of the network front door over real loopback
//! TCP: concurrent clients on their own connections authenticate,
//! submit MVP work (differentially checked against a single-threaded
//! reference), stream AP sessions, and read their bills over the wire —
//! while admission control refuses over-quota, over-rate and
//! over-capacity submissions with typed error frames *before* they
//! reach the bounded queue.
//!
//! The in-process twin of this test is `serve_stress.rs`; this one goes
//! through the socket.

use memcim::serve::net::{ErrorCode, NetClient, NetConfig, NetServer, TenantPolicy, WireMvpResult};
use memcim::serve::{ServeConfig, Service};
use memcim::RegexAccelerator;
use memcim_bits::BitVec;
use memcim_crossbar::{
    BankedCrossbar, CrossbarBackend, CrossbarError, OpLedger, RemapEntry, ScoutingKind,
};
use memcim_mvp::{Instruction, MvpSimulator};
use memcim_serve::BoxedBackend;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const TENANTS: u64 = 6;
const JOBS_PER_TENANT: usize = 8;
const ROWS: usize = 16;
const BANKS: usize = 4;
const BANK_COLS: usize = 64;
const WIDTH: usize = BANKS * BANK_COLS;

const AP_PATTERNS: [&str; 2] = ["ab+c", "x[yz]+"];

fn token(tenant: u64) -> String {
    format!("tenant-{tenant}-secret")
}

fn mvp_program(tenant: u64, iteration: usize) -> Vec<Instruction> {
    let salt = (tenant as usize) * 37 + iteration * 11;
    let a: Vec<usize> = (0..8).map(|i| (salt + i * 29) % WIDTH).collect();
    let b: Vec<usize> = (0..6).map(|i| (salt + 3 + i * 41) % WIDTH).collect();
    vec![
        Instruction::Store { row: 0, data: BitVec::from_indices(WIDTH, &a) },
        Instruction::Store { row: 1, data: BitVec::from_indices(WIDTH, &b) },
        Instruction::Or { srcs: vec![0, 1], dst: Some(2) },
        Instruction::And { srcs: vec![0, 1], dst: Some(3) },
        Instruction::Read { row: 2 },
        Instruction::Read { row: 3 },
    ]
}

fn ap_input(tenant: u64) -> Vec<u8> {
    let mut input = Vec::new();
    for i in 0..30usize {
        input.extend_from_slice(match (tenant as usize + i) % 4 {
            0 => b"abbc".as_slice(),
            1 => b"xyzz",
            2 => b"abz",
            _ => b"qq",
        });
    }
    input
}

/// Submits `programs` as one `Submit` and checks its answer against
/// the bill: one job, one program count per submitted program, and
/// exactly the energy the tenant's `Usage.mvp_energy` grew by.
fn submit_billed(client: &mut NetClient, programs: &[Vec<Instruction>]) -> WireMvpResult {
    let before = client.usage().expect("usage before").mvp_energy.as_joules();
    let result = client.submit_mvp(programs).expect("serves");
    let after = client.usage().expect("usage after").mvp_energy.as_joules();
    assert_eq!((result.jobs, result.programs), (1, programs.len() as u64));
    let energy = result.energy.as_joules();
    assert!((energy - (after - before)).abs() <= 1e-12 * after, "answer {energy} J ≠ bill");
    result
}

/// Concurrent clients, each on its own real TCP connection, every
/// result checked against single-threaded references, bills fetched
/// over the wire.
#[test]
fn concurrent_clients_over_loopback_tcp() {
    let service = Arc::new(
        Service::try_start(
            ServeConfig::default()
                .with_workers(4)
                .with_queue_depth(16)
                .with_max_burst(8)
                .with_mvp_geometry(ROWS, BANKS, BANK_COLS),
        )
        .expect("service starts"),
    );
    let mut net = NetConfig::default();
    for tenant in 0..TENANTS {
        net = net.with_tenant(tenant, TenantPolicy::new(token(tenant)));
    }
    let server = NetServer::start(Arc::clone(&service), net).expect("server starts");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for tenant in 0..TENANTS {
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connects");
                client.hello(tenant, &token(tenant)).expect("authenticates");

                // Odd tenants stream an AP session interleaved with
                // their MVP work.
                let session = (tenant % 2 == 1)
                    .then(|| client.ap_open(&AP_PATTERNS).expect("patterns compile"));

                let mut fed = 0usize;
                for iteration in 0..JOBS_PER_TENANT {
                    let program = mvp_program(tenant, iteration);
                    let result = submit_billed(&mut client, std::slice::from_ref(&program));
                    let mut reference = MvpSimulator::banked(ROWS, BANKS, BANK_COLS);
                    let expected = reference.run_program(&program).expect("reference");
                    assert_eq!(result.outputs, vec![expected], "tenant {tenant} job {iteration}");
                    assert!(result.energy.as_joules() > 0.0, "the burst cost real joules");

                    if let Some(session) = session {
                        let input = ap_input(tenant);
                        let lo = iteration * input.len() / JOBS_PER_TENANT;
                        let hi = (iteration + 1) * input.len() / JOBS_PER_TENANT;
                        let report = client.ap_feed(session, &input[lo..hi]).expect("feeds");
                        fed += hi - lo;
                        assert_eq!(report.cycles as usize, fed, "cumulative symbols");
                    }
                }

                if let Some(session) = session {
                    let run = client.ap_finish(session).expect("finishes");
                    let mut reference =
                        RegexAccelerator::rram(&AP_PATTERNS).expect("reference compiles");
                    let expected = reference.scan(&ap_input(tenant));
                    assert_eq!(run.matches, expected.matches, "tenant {tenant} AP matches");
                    assert_eq!(run.symbols, expected.symbols);
                    client.ap_close(session).expect("closes");
                }

                // The bill over the wire reconciles with the work done.
                let usage = client.usage().expect("usage over the wire");
                assert_eq!(usage.mvp_jobs, JOBS_PER_TENANT as u64, "tenant {tenant}");
                assert!(usage.mvp_energy.as_joules() > 0.0);
                if session.is_some() {
                    assert_eq!(usage.ap_symbols, ap_input(tenant).len() as u64);
                    assert_eq!(usage.ap_jobs, JOBS_PER_TENANT as u64 + 1, "feeds + finish");
                } else {
                    assert_eq!(usage.ap_jobs, 0);
                }

                // A multi-program Submit is one job as well, answered
                // with its own cost.
                let three: Vec<_> =
                    (0..3).map(|i| mvp_program(tenant, JOBS_PER_TENANT + i)).collect();
                let result = submit_billed(&mut client, &three);
                assert_eq!(result.outputs.len(), 3);
                assert!(result.energy.as_joules() > 0.0);
            });
        }
    });

    // Service-wide stats through a fresh connection.
    let mut observer = NetClient::connect(addr).expect("connects");
    observer.hello(0, &token(0)).expect("authenticates");
    let stats = observer.stats().expect("stats over the wire");
    assert_eq!(stats.workers, 4);
    assert_eq!(stats.live_engines, 4, "no engine faulted");
    assert_eq!(stats.retired_engines, 0);
    assert_eq!(stats.queue_depth, 0, "drained");
    assert_eq!(stats.sessions, 0, "all sessions closed");
    assert_eq!(stats.tenants.len(), TENANTS as usize, "every tenant in the report");
    for row in &stats.tenants {
        assert!(row.jobs >= JOBS_PER_TENANT as u64, "tenant {} billed", row.tenant);
        assert!(row.energy.as_joules() > 0.0);
    }

    server.shutdown();
    // The server held one Arc; ours is the last — dropping it drains
    // and joins the service without hanging.
    drop(observer);
    Arc::try_unwrap(service).expect("server released its handle").shutdown();
}

/// Long-lived correlation streams over real loopback TCP, sized up
/// through the replicated sharded substrate: concurrent tenants open
/// correlation sessions, feed event windows, and recover the planted
/// correlated set bit-identically to the software reference — while the
/// session table keeps workload kinds apart with typed refusals and the
/// watermark bill reconciles over the wire.
#[test]
fn correlation_streams_over_loopback_tcp() {
    use memcim_mvp::correlation::{correlation_reference, CorrelationConfig, EventStreams};

    const STREAMS: usize = 12; // rows_needed(12) = 11 ≤ ROWS
    const STEPS: usize = 384;
    const WINDOW: usize = 128; // ≤ WIDTH
    const CORR_TENANTS: u64 = 4;

    let cfg = CorrelationConfig {
        streams: STREAMS,
        steps: STEPS,
        rate: 0.25,
        strength: 0.9,
        groups: vec![vec![1, 4, 8, 10]],
    };
    let threshold = cfg.threshold().expect("well-posed corpus");
    let events = EventStreams::synthesize(&cfg, 2018).expect("synthesizes");
    let reference = correlation_reference(events.data()).expect("well-formed corpus");
    let mut expected = BitVec::new(STREAMS);
    for (i, &score) in reference.iter().enumerate() {
        expected.set(i, score > threshold);
    }

    let service = Arc::new(
        Service::try_start(
            ServeConfig::default()
                .with_workers(4)
                .with_queue_depth(32)
                .with_max_burst(8)
                .with_mvp_geometry(ROWS, BANKS, BANK_COLS)
                .with_placement(4, 2),
        )
        .expect("service starts"),
    );
    let mut net = NetConfig::default();
    for tenant in 0..CORR_TENANTS {
        net = net.with_tenant(tenant, TenantPolicy::new(token(tenant)));
    }
    let server = NetServer::start(Arc::clone(&service), net).expect("server starts");
    let addr = server.local_addr();

    std::thread::scope(|scope| {
        for tenant in 0..CORR_TENANTS {
            let events = &events;
            let reference = &reference;
            let expected = &expected;
            scope.spawn(move || {
                let mut client = NetClient::connect(addr).expect("connects");
                client.hello(tenant, &token(tenant)).expect("authenticates");
                let session = client.corr_open(STREAMS, threshold).expect("opens");
                for w in 0..STEPS / WINDOW {
                    let window = events.window(w * WINDOW..(w + 1) * WINDOW).expect("in corpus");
                    let report = client.corr_feed(session, &window).expect("feeds");
                    assert_eq!(
                        report.events,
                        (STREAMS * (w + 1) * WINDOW) as u64,
                        "tenant {tenant}: cumulative stream-slots"
                    );
                    assert!(report.energy.as_joules() > 0.0, "real joules over the wire");
                }
                let outcome = client.corr_finish(session).expect("finishes");
                assert_eq!(&outcome.scores, reference, "tenant {tenant}: scores ≡ reference");
                assert_eq!(&outcome.correlated, expected, "tenant {tenant}: planted recovered");
                assert_eq!(outcome.threshold, threshold);
                client.ap_close(session).expect("the kind-agnostic close drops it");

                let usage = client.usage().expect("the bill over the wire");
                assert_eq!(usage.corr_events, (STREAMS * STEPS) as u64, "tenant {tenant}");
                assert_eq!(usage.corr_jobs, (STEPS / WINDOW) as u64 + 1, "feeds + finish");
            });
        }
    });

    // Workload kinds never bleed into each other: an AP verb against a
    // correlation session (and vice versa) is a typed refusal that
    // leaves both sessions serving.
    let mut client = NetClient::connect(addr).expect("connects");
    client.hello(0, &token(0)).expect("authenticates");
    let corr = client.corr_open(STREAMS, threshold).expect("opens");
    let ap = client.ap_open(&AP_PATTERNS).expect("patterns compile");
    let crossed = client.ap_feed(corr, b"abbc").expect_err("AP feed into a correlation session");
    assert_eq!(crossed.server_code(), Some(ErrorCode::WrongSessionKind));
    let window = events.window(0..WINDOW).expect("in corpus");
    let crossed = client.corr_feed(ap, &window).expect_err("correlation feed into an AP session");
    assert_eq!(crossed.server_code(), Some(ErrorCode::WrongSessionKind));
    client.ap_feed(ap, b"abbc").expect("the AP session still serves");
    client.corr_feed(corr, &window).expect("the correlation session still serves");
    client.ap_close(ap).expect("closes");
    client.ap_close(corr).expect("closes");
    assert_eq!(service.session_count(), 0, "all sessions closed");

    server.shutdown();
    drop(client);
    Arc::try_unwrap(service).expect("server released its handle").shutdown();
}

/// Quota and rate refusals are typed error frames, charged nothing, and
/// provably never reach the bounded queue (the bill stays flat).
#[test]
fn over_quota_and_over_rate_are_refused_before_the_queue() {
    let service = Arc::new(
        Service::try_start(ServeConfig::default().with_workers(2).with_mvp_geometry(8, 2, 32))
            .expect("service starts"),
    );
    let server = NetServer::start(
        Arc::clone(&service),
        NetConfig::default()
            .with_tenant(1, TenantPolicy::new("quota-token").with_quota(2))
            // Rate 0: the bucket never refills, so refusals are
            // deterministic — no sleeping, no clock games.
            .with_tenant(2, TenantPolicy::new("rate-token").with_rate(2, 0.0)),
    )
    .expect("server starts");
    let addr = server.local_addr();
    let program = || {
        vec![
            Instruction::Store { row: 0, data: BitVec::from_indices(64, &[1, 2]) },
            Instruction::Read { row: 0 },
        ]
    };

    // Tenant 1: two jobs fit the quota, the third is refused — typed,
    // uncharged, unqueued.
    let mut quota_client = NetClient::connect(addr).expect("connects");
    quota_client.hello(1, "quota-token").expect("auth");
    quota_client.submit_mvp(&[program()]).expect("1/2");
    quota_client.submit_mvp(&[program()]).expect("2/2");
    let refused = quota_client.submit_mvp(&[program()]).expect_err("3/2 over quota");
    assert_eq!(refused.server_code(), Some(ErrorCode::QuotaExceeded));
    assert_eq!(quota_client.usage().expect("usage").mvp_jobs, 2, "the refusal billed nothing");

    // A multi-program batch that would overflow the quota is refused
    // whole — admission charges per program, atomically.
    let batch_refused = quota_client.submit_mvp(&[program(), program()]).expect_err("batch of 2");
    assert_eq!(batch_refused.server_code(), Some(ErrorCode::QuotaExceeded));

    // Tenant 2: the burst passes, the bucket never refills.
    let mut rate_client = NetClient::connect(addr).expect("connects");
    rate_client.hello(2, "rate-token").expect("auth");
    rate_client.submit_mvp(&[program()]).expect("burst 1/2");
    rate_client.submit_mvp(&[program()]).expect("burst 2/2");
    let limited = rate_client.submit_mvp(&[program()]).expect_err("bucket dry");
    assert_eq!(limited.server_code(), Some(ErrorCode::RateLimited));
    assert_eq!(rate_client.usage().expect("usage").mvp_jobs, 2);

    // Tenant isolation: tenant 1's spent quota does not throttle
    // tenant 2's bucket bookkeeping, and vice versa — both still
    // observe only their own refusal.
    let still_limited = rate_client.submit_mvp(&[program()]).expect_err("still dry");
    assert_eq!(still_limited.server_code(), Some(ErrorCode::RateLimited));

    server.shutdown();
}

/// A substrate whose first `program_row` parks until released — the
/// deterministic way to hold the only worker busy while the queue
/// fills.
struct GateBackend {
    inner: BankedCrossbar,
    entered: Arc<AtomicUsize>,
    release: Arc<AtomicBool>,
}

impl CrossbarBackend for GateBackend {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn program_row(&mut self, row: usize, values: &BitVec) -> Result<u64, CrossbarError> {
        self.entered.fetch_add(1, Ordering::SeqCst);
        while !self.release.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        self.inner.program_row(row, values)
    }

    fn read_row(&mut self, row: usize) -> Result<BitVec, CrossbarError> {
        self.inner.read_row(row)
    }

    fn scouting(&mut self, kind: ScoutingKind, rows: &[usize]) -> Result<BitVec, CrossbarError> {
        self.inner.scouting(kind, rows)
    }

    fn scouting_write(
        &mut self,
        kind: ScoutingKind,
        rows: &[usize],
        dest: usize,
    ) -> Result<BitVec, CrossbarError> {
        self.inner.scouting_write(kind, rows, dest)
    }

    fn ledger_parts(&self) -> Vec<OpLedger> {
        self.inner.ledger_parts()
    }

    fn remap_table(&self) -> Vec<RemapEntry> {
        self.inner.remap_table()
    }
}

/// With the only worker parked on a gated engine and the depth-1 queue
/// holding one waiter, a third submission gets `OverCapacity` — a typed
/// frame, immediately, with no handler blocked on the queue. Releasing
/// the gate lets the two admitted jobs finish normally.
#[test]
fn overload_returns_typed_over_capacity_frames() {
    let entered = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let service = {
        let entered = Arc::clone(&entered);
        let release = Arc::clone(&release);
        Arc::new(
            Service::try_start(
                ServeConfig::default()
                    .with_workers(1)
                    .with_queue_depth(1)
                    .with_max_burst(1)
                    .with_mvp_geometry(8, 2, 32)
                    .with_engine_factory(move |_| -> BoxedBackend {
                        Box::new(GateBackend {
                            inner: BankedCrossbar::rram(8, 2, 32),
                            entered: Arc::clone(&entered),
                            release: Arc::clone(&release),
                        })
                    }),
            )
            .expect("service starts"),
        )
    };
    let server = NetServer::start(
        Arc::clone(&service),
        NetConfig::default().with_tenant(7, TenantPolicy::new("gate-token")),
    )
    .expect("server starts");
    let addr = server.local_addr();
    let program = || {
        vec![
            Instruction::Store { row: 0, data: BitVec::from_indices(64, &[3]) },
            Instruction::Read { row: 0 },
        ]
    };

    // Job A occupies the worker (its handler thread blocks on the
    // ticket, not the queue).
    let job_a = std::thread::spawn({
        let program = program();
        move || {
            let mut client = NetClient::connect(addr).expect("connects");
            client.hello(7, "gate-token").expect("auth");
            client.submit_mvp(&[program]).expect("job A completes after release")
        }
    });
    while entered.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Job B fills the depth-1 queue.
    let job_b = std::thread::spawn({
        let program = program();
        move || {
            let mut client = NetClient::connect(addr).expect("connects");
            client.hello(7, "gate-token").expect("auth");
            client.submit_mvp(&[program]).expect("job B completes after release")
        }
    });
    let mut observer = NetClient::connect(addr).expect("connects");
    observer.hello(7, "gate-token").expect("auth");
    while observer.stats().expect("stats").queue_depth < 1 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Job C: worker busy, queue full → a typed refusal, not a block.
    // The stats verb on this same connection answered just above, which
    // is only possible because nothing here waits on the queue.
    let refused = observer.submit_mvp(&[program()]).expect_err("queue full");
    assert_eq!(refused.server_code(), Some(ErrorCode::OverCapacity));

    release.store(true, Ordering::SeqCst);
    let result_a = job_a.join().expect("A joins");
    let result_b = job_b.join().expect("B joins");
    assert_eq!(result_a.outputs[0][0].ones().collect::<Vec<_>>(), vec![3]);
    assert_eq!(result_b.outputs[0][0].ones().collect::<Vec<_>>(), vec![3]);
    assert_eq!(observer.usage().expect("usage").mvp_jobs, 2, "the refused job never ran");

    server.shutdown();
}
