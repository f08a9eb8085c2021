//! End-to-end service behavior: correctness of served results,
//! exactly-once execution and per-job billing, error isolation, tenant
//! isolation, shutdown.

use memcim_ap::ApError;
use memcim_bits::BitVec;
use memcim_crossbar::{BankedCrossbar, CrossbarBackend, CrossbarError, OpLedger, ScoutingKind};
use memcim_mvp::{Instruction, MvpError, MvpSimulator};
use memcim_serve::{BoxedBackend, Job, JobOutput, ServeConfig, ServeError, Service, MAX_LANES};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn two_worker_config() -> ServeConfig {
    ServeConfig::default().with_workers(2).with_mvp_geometry(8, 4, 32)
}

/// `(a | b) & c` over rows of the service's width, with a `Read` at the
/// end — the canonical bitmap-query shape.
fn query_program(width: usize, salt: usize) -> Vec<Instruction> {
    let a = BitVec::from_indices(width, &[salt % width, (salt + 7) % width]);
    let b = BitVec::from_indices(width, &[(salt + 1) % width]);
    let c = BitVec::from_indices(width, &[salt % width, (salt + 1) % width, (salt + 13) % width]);
    vec![
        Instruction::Store { row: 0, data: a },
        Instruction::Store { row: 1, data: b },
        Instruction::Store { row: 2, data: c },
        Instruction::Or { srcs: vec![0, 1], dst: Some(3) },
        Instruction::And { srcs: vec![3, 2], dst: Some(4) },
        Instruction::Read { row: 4 },
    ]
}

#[test]
fn served_results_match_a_private_engine() {
    let config = two_worker_config();
    let width = config.mvp_width();
    let service = Service::start(config.clone());
    let tickets: Vec<_> = (0..12)
        .map(|i| service.submit(i % 3, Job::MvpProgram(query_program(width, i as usize))).unwrap())
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let out = ticket.wait().expect("job runs").into_mvp().expect("mvp job");
        let mut reference =
            MvpSimulator::banked(config.mvp_rows, config.mvp_banks, config.mvp_bank_cols);
        let expected = reference.run_program(&query_program(width, i)).expect("reference runs");
        assert_eq!(out.outputs, vec![expected], "job {i}");
    }
    service.shutdown();
}

#[test]
fn tenant_accounting_is_complete_and_visible_before_tickets_resolve() {
    let config = two_worker_config();
    let width = config.mvp_width();
    let service = Service::start(config);
    const JOBS: u64 = 10;
    let tickets: Vec<_> = (0..JOBS)
        .map(|i| service.submit(42, Job::MvpProgram(query_program(width, i as usize))).unwrap())
        .collect();
    let mut reported = OpLedger::default();
    for ticket in tickets {
        let out = ticket.wait().expect("runs").into_mvp().expect("mvp job");
        // Accounting precedes ticket resolution: the tenant is always
        // visible in the usage map by the time a ticket resolves.
        assert!(service.tenant_usage(42).is_some());
        assert_eq!(out.programs, 1);
        reported.merge_serial(&out.ledger);
    }
    let usage = service.tenant_usage(42).expect("tenant ran");
    assert_eq!(usage.mvp_jobs, JOBS);
    // Every program does one OR + one AND scouting op per bank (4
    // banks), whichever worker ran it.
    assert_eq!(usage.mvp.scouting_ops(), JOBS * 2 * 4);
    assert!(usage.mvp.energy().as_joules() > 0.0);
    assert!(usage.total_busy().as_seconds() > 0.0);
    // Each job reports its own cost and nothing else: the per-job
    // ledgers sum to the tenant's bill.
    assert_eq!(op_counts(&reported), op_counts(&usage.mvp));
    let billed = usage.mvp.energy().as_joules();
    assert!((reported.energy().as_joules() - billed).abs() <= 1e-12 * billed, "energy");
    let snapshot = service.shutdown();
    assert_eq!(snapshot, vec![(42, usage)]);
}

/// The exact operation counts of a ledger: reads, scouting ops, row
/// programs, bits programmed and corrected errors.
fn op_counts(ledger: &OpLedger) -> [u64; 5] {
    [
        ledger.reads(),
        ledger.scouting_ops(),
        ledger.programs(),
        ledger.bits_programmed(),
        ledger.corrected_errors(),
    ]
}

#[test]
fn a_bad_job_does_not_poison_its_burst_neighbours() {
    // This test is about *runtime* error isolation: the bad program is
    // well-formed, so it passes admission, and fails only at the engine,
    // whose substrate refuses reads of one row with an error that is
    // not fault-fatal (the engine stays in the pool).
    let ops = Arc::new(AtomicUsize::new(0));
    let entered = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let config = {
        let (ops, entered, release) =
            (Arc::clone(&ops), Arc::clone(&entered), Arc::clone(&release));
        two_worker_config().with_workers(1).with_engine_factory(move |_| -> BoxedBackend {
            Box::new(GateBackend {
                inner: PoisonedRowBackend::new(BankedCrossbar::rram(8, 4, 32), Arc::clone(&ops)),
                entered: Arc::clone(&entered),
                release: Arc::clone(&release),
            })
        })
    };
    let width = config.mvp_width();
    let service = Service::start(config);
    let gate = OpenOnDrop(release);
    // Hold the only worker on a gated first job, so that good, bad and
    // good of one tenant queue up and are drained as one burst.
    let programs = [
        query_program(width, 9),
        query_program(width, 0),
        vec![Instruction::Read { row: POISONED_ROW }],
        query_program(width, 3),
    ];
    let held = service.submit(1, Job::MvpProgram(programs[0].clone())).unwrap();
    while entered.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let good1 = service.submit(7, Job::MvpProgram(programs[1].clone())).unwrap();
    let bad = service.submit(7, Job::MvpProgram(programs[2].clone())).expect("admitted");
    let good2 = service.submit(7, Job::MvpProgram(programs[3].clone())).unwrap();
    assert_eq!(service.pending(), 3, "the trio waits behind the gate");
    drop(gate);

    assert!(held.wait().is_ok());
    let good1 = good1.wait().expect("unaffected").into_mvp().expect("mvp");
    assert!(matches!(
        bad.wait(),
        Err(ServeError::Mvp(MvpError::Crossbar(CrossbarError::OutOfBounds {
            row: POISONED_ROW,
            ..
        })))
    ));
    let good2 = good2.wait().expect("unaffected").into_mvp().expect("mvp");
    assert_eq!((good1.outputs.len(), good2.outputs.len()), (1, 1));
    // Exactly once: the engine saw each program's solo cost one time.
    let solo: usize = programs.iter().map(|program| solo_ops(program)).sum();
    assert_eq!(ops.load(Ordering::SeqCst), solo, "every program executed once");
    // The failed job bills nothing: tenant 7 paid for good1 and good2.
    let usage = service.tenant_usage(7).expect("billed");
    assert_eq!(usage.mvp_jobs, 2);
    let mut paid = good1.ledger;
    paid.merge_serial(&good2.ledger);
    assert_eq!(op_counts(&usage.mvp), op_counts(&paid));
    service.shutdown();
}

/// Backend operations `program` costs run alone on a fresh engine,
/// counted by a [`PoisonedRowBackend`] (a failing program counts up to
/// its failure).
fn solo_ops(program: &[Instruction]) -> usize {
    let ops = Arc::new(AtomicUsize::new(0));
    let backend = PoisonedRowBackend::new(BankedCrossbar::rram(8, 4, 32), Arc::clone(&ops));
    let _ = MvpSimulator::with_backend(backend).run_program(program);
    ops.load(Ordering::SeqCst)
}

/// The row [`PoisonedRowBackend`] refuses to read.
const POISONED_ROW: usize = 7;

/// A banked substrate whose reads of [`POISONED_ROW`] fail with
/// `OutOfBounds`, a malformed-request error rather than a fault-fatal
/// one. Every operation it is asked for, failed or not, bumps `ops`.
struct PoisonedRowBackend {
    inner: BankedCrossbar,
    ops: Arc<AtomicUsize>,
}

impl PoisonedRowBackend {
    fn new(inner: BankedCrossbar, ops: Arc<AtomicUsize>) -> Self {
        Self { inner, ops }
    }

    fn count(&self) {
        self.ops.fetch_add(1, Ordering::SeqCst);
    }
}

impl CrossbarBackend for PoisonedRowBackend {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn program_row(&mut self, row: usize, values: &BitVec) -> Result<u64, CrossbarError> {
        self.count();
        self.inner.program_row(row, values)
    }

    fn read_row(&mut self, row: usize) -> Result<BitVec, CrossbarError> {
        self.count();
        if row == POISONED_ROW {
            let (rows, cols) = (self.rows(), self.cols());
            return Err(CrossbarError::OutOfBounds { row, col: 0, rows, cols });
        }
        self.inner.read_row(row)
    }

    fn scouting(&mut self, kind: ScoutingKind, rows: &[usize]) -> Result<BitVec, CrossbarError> {
        self.count();
        self.inner.scouting(kind, rows)
    }

    fn scouting_write(
        &mut self,
        kind: ScoutingKind,
        rows: &[usize],
        dest: usize,
    ) -> Result<BitVec, CrossbarError> {
        self.count();
        self.inner.scouting_write(kind, rows, dest)
    }

    fn ledger_parts(&self) -> Vec<OpLedger> {
        self.inner.ledger_parts()
    }
}

#[test]
fn a_failing_lone_program_runs_once() {
    // A unit of one job has no neighbours to isolate it from, so a
    // non-fatal engine error is its answer: no second run.
    let ops = Arc::new(AtomicUsize::new(0));
    let backend_ops = Arc::clone(&ops);
    let config =
        two_worker_config().with_workers(1).with_engine_factory(move |_| -> BoxedBackend {
            Box::new(PoisonedRowBackend::new(
                BankedCrossbar::rram(8, 4, 32),
                Arc::clone(&backend_ops),
            ))
        });
    let service = Service::start(config);
    let bad = service
        .submit(7, Job::MvpProgram(vec![Instruction::Read { row: POISONED_ROW }]))
        .expect("admitted")
        .wait();
    assert!(matches!(
        bad,
        Err(ServeError::Mvp(MvpError::Crossbar(CrossbarError::OutOfBounds {
            row: POISONED_ROW,
            ..
        })))
    ));
    assert_eq!(ops.load(Ordering::SeqCst), 1, "the engine executed the lone program once");
    assert!(service.tenant_usage(7).is_none(), "a failed job bills nothing");
    service.shutdown();
}

#[test]
fn a_failing_batch_fails_whole_and_runs_once() {
    // A client batch is one job: the bad program fails the whole ticket,
    // the program before it ran once and is not re-run, the one after
    // it never runs, and nothing is billed.
    let ops = Arc::new(AtomicUsize::new(0));
    let backend_ops = Arc::clone(&ops);
    let config =
        two_worker_config().with_workers(1).with_engine_factory(move |_| -> BoxedBackend {
            Box::new(PoisonedRowBackend::new(
                BankedCrossbar::rram(8, 4, 32),
                Arc::clone(&backend_ops),
            ))
        });
    let width = config.mvp_width();
    let service = Service::start(config);
    let programs = [
        query_program(width, 1),
        vec![Instruction::Read { row: POISONED_ROW }],
        query_program(width, 2),
    ];
    let failed = service.submit(7, Job::MvpBatch(programs.to_vec())).expect("admitted").wait();
    assert!(matches!(
        failed,
        Err(ServeError::Mvp(MvpError::Crossbar(CrossbarError::OutOfBounds {
            row: POISONED_ROW,
            ..
        })))
    ));
    let ran = solo_ops(&programs[0]) + solo_ops(&programs[1]);
    assert_eq!(ops.load(Ordering::SeqCst), ran, "the batch ran once, up to its failure");
    assert!(service.tenant_usage(7).is_none(), "a failed batch bills nothing");
    service.shutdown();
}

#[test]
fn invalid_programs_are_refused_at_submission_not_execution() {
    let config = two_worker_config();
    let width = config.mvp_width();
    let service = Service::start(config);
    // The default config verifies: a provably-bad program never queues.
    let err = service
        .submit(7, Job::MvpProgram(vec![Instruction::Read { row: 999 }]))
        .expect_err("refused before the queue");
    match &err {
        ServeError::InvalidProgram { code, index, .. } => {
            assert_eq!(code, "E-ROW-RANGE");
            assert_eq!(*index, 0);
        }
        other => panic!("expected InvalidProgram, got {other:?}"),
    }
    // A batch is all-or-nothing: one bad program refuses the whole
    // submission, and `try_submit` takes the same gate.
    let batch = vec![query_program(width, 1), vec![Instruction::Xor { a: 2, b: 2, dst: Some(3) }]];
    assert!(matches!(
        service.try_submit(7, Job::MvpBatch(batch)),
        Err(ServeError::InvalidProgram { .. })
    ));
    // Nothing was queued and nothing was billed.
    assert_eq!(service.pending(), 0);
    assert!(service.tenant_usage(7).is_none(), "a refused program must not be billed");
    // The same connection of work keeps serving valid programs.
    let ok = service.submit(7, Job::MvpProgram(query_program(width, 2))).expect("valid program");
    assert!(ok.wait().is_ok());
    service.shutdown();
}

#[test]
fn the_verify_cache_is_bounded_and_evicts_the_least_recently_verified_program() {
    // The service-wide verify cache holds 64 admitted programs.
    const CAPACITY: usize = 64;
    let config = two_worker_config();
    let width = config.mvp_width();
    let service = Service::start(config);
    let verify = |salt: usize| {
        service.verify_program_cached(3, &query_program(width, salt)).expect("a valid program");
        (service.mvp_cache_hits(), service.mvp_cache_misses())
    };
    for salt in 0..CAPACITY {
        verify(salt);
    }
    assert_eq!(verify(CAPACITY - 1), (1, CAPACITY as u64), "a full cache still hits");
    // Re-verify program 0, so program 1 is the least recently verified.
    assert_eq!(verify(0), (2, CAPACITY as u64));
    // The 65th distinct program is verified and evicts program 1.
    assert_eq!(verify(CAPACITY), (2, CAPACITY as u64 + 1));
    assert_eq!(verify(0), (3, CAPACITY as u64 + 1), "the re-verified program survived");
    assert_eq!(
        verify(1),
        (3, CAPACITY as u64 + 2),
        "the least recently verified program was evicted and is a miss again"
    );
    service.shutdown();
}

#[test]
fn pre_assembled_batches_run_as_one_unit() {
    let config = two_worker_config();
    let width = config.mvp_width();
    let service = Service::start(config);
    let batch = vec![query_program(width, 1), query_program(width, 2)];
    let out = service.submit(1, Job::MvpBatch(batch)).unwrap().wait().unwrap().into_mvp().unwrap();
    assert_eq!(out.outputs.len(), 2, "one entry per program of the batch");
    assert_eq!(out.programs, 2);
    service.shutdown();
}

#[test]
fn ap_sessions_are_tenant_isolated() {
    let service = Service::start(two_worker_config());
    let session = service.open_session(1, &["abc"]).expect("compiles");
    // Tenant 2 cannot feed tenant 1's session — and cannot learn that
    // the session exists.
    let stolen = service
        .submit(2, Job::ApFeedMany { session, chunks: vec![b"abc".to_vec()] })
        .unwrap()
        .wait();
    assert_eq!(stolen, Err(ServeError::UnknownSession { session }));
    // The rightful owner still streams fine.
    let report = service
        .submit(1, Job::ApFeedMany { session, chunks: vec![b"xabc".to_vec()] })
        .unwrap()
        .wait()
        .expect("owner feeds")
        .into_ap_feed_many()
        .expect("feed")[0];
    assert_eq!(report.cycles, 4);
    let run = service
        .submit(1, Job::ApFinishMany { session })
        .unwrap()
        .wait()
        .expect("finishes")
        .into_ap_finish_many()
        .expect("finish")
        .remove(0);
    assert_eq!(run.matches, vec![(3, 0)]);
    assert_eq!(service.tenant_usage(1).expect("billed").ap_symbols, 4);
    assert!(service.tenant_usage(2).is_none(), "the rejected feed billed nothing");
    // Tenant 2 cannot close it either; the owner can.
    assert!(matches!(service.close_session(2, session), Err(ServeError::UnknownSession { .. })));
    service.close_session(1, session).expect("open");
    assert_eq!(service.session_count(), 0);
    service.shutdown();
}

#[test]
fn a_session_survives_many_streams_and_bills_incrementally() {
    let service = Service::start(two_worker_config());
    let session = service.open_session(5, &["ab"]).expect("compiles");
    for round in 1..=3u64 {
        let feed = Job::ApFeedMany { session, chunks: vec![b"zab".to_vec()] };
        service.submit(5, feed).unwrap().wait().unwrap();
        let run = service
            .submit(5, Job::ApFinishMany { session })
            .unwrap()
            .wait()
            .unwrap()
            .into_ap_finish_many()
            .unwrap()
            .remove(0);
        assert_eq!(run.matches, vec![(2, 0)], "round {round}");
        let usage = service.tenant_usage(5).expect("billed");
        assert_eq!(usage.ap_symbols, 3 * round, "symbols accumulate across streams");
        assert_eq!(usage.ap_jobs, 2 * round);
    }
    service.shutdown();
}

#[test]
fn submissions_after_shutdown_are_refused() {
    let config = two_worker_config();
    let width = config.mvp_width();
    let service = Service::start(config);
    let program = query_program(width, 0);
    let snapshot = service.shutdown();
    assert!(snapshot.is_empty());
    // `service` is consumed by shutdown; a fresh one that is aborted
    // with queued jobs fails those tickets instead of hanging.
    let service = Service::start(two_worker_config());
    let tickets: Vec<_> =
        (0..20).map(|_| service.submit(1, Job::MvpProgram(program.clone())).unwrap()).collect();
    let _ = service.abort();
    for ticket in tickets {
        match ticket.wait() {
            Ok(JobOutput::Mvp(_)) | Err(ServeError::ShuttingDown) => {}
            other => panic!("expected completion or clean refusal, got {other:?}"),
        }
    }
}

#[test]
fn unknown_sessions_are_reported() {
    let service = Service::start(two_worker_config());
    let result = service.submit(1, Job::ApFinishMany { session: 1234 }).unwrap().wait();
    assert_eq!(result, Err(ServeError::UnknownSession { session: 1234 }));
    assert!(matches!(
        service.close_session(1, 777),
        Err(ServeError::UnknownSession { session: 777 })
    ));
    service.shutdown();
}

#[test]
fn over_cap_lane_feeds_are_refused_typed_and_charge_nothing() {
    let service = Service::start(two_worker_config());
    let session = service.open_session(3, &["ab"]).expect("compiles");
    let over = vec![b"ab".to_vec(); MAX_LANES + 1];
    for refused in [
        service.submit(3, Job::ApFeedMany { session, chunks: over.clone() }),
        service.try_submit(3, Job::ApFeedMany { session, chunks: over }),
    ] {
        assert!(matches!(
            refused,
            Err(ServeError::Ap(ApError::UnknownStream { stream: MAX_LANES, streams: MAX_LANES }))
        ));
    }
    assert!(service.tenant_usage(3).is_none(), "a refused feed bills nothing");
    // The session never saw the refused feed: it still serves, with its
    // single lane.
    let feed = Job::ApFeedMany { session, chunks: vec![b"xab".to_vec()] };
    service.submit(3, feed).unwrap().wait().expect("feeds");
    let runs = service
        .submit(3, Job::ApFinishMany { session })
        .unwrap()
        .wait()
        .expect("finishes")
        .into_ap_finish_many()
        .expect("finish");
    assert_eq!(runs.len(), 1, "no lanes were grown by the refused feed");
    assert_eq!(runs[0].matches, vec![(2, 0)]);
    assert_eq!(service.tenant_usage(3).expect("billed").ap_symbols, 3);
    service.shutdown();
}

#[test]
fn ap_jobs_return_already_resolved_tickets() {
    let service = Service::start(two_worker_config());
    let session = service.open_session(4, &["ab"]).expect("compiles");
    let feed = || Job::ApFeedMany { session, chunks: vec![b"xab".to_vec()] };
    let finish = || Job::ApFinishMany { session };
    for ticket in [
        service.submit(4, feed()),
        service.try_submit(4, feed()),
        service.submit(4, finish()),
        service.try_submit(4, finish()),
        // A failing AP job resolves at submission too, with its error.
        service.submit(4, Job::ApFinishMany { session: 999 }),
    ] {
        assert!(ticket.expect("admitted").is_ready(), "AP jobs run on the submitting thread");
    }
    assert_eq!(service.pending(), 0, "nothing was queued");
    assert_eq!(service.tenant_usage(4).expect("billed").ap_jobs, 4);
    service.shutdown();
}

/// A substrate whose `program_row` parks until released — the
/// deterministic way to hold the only worker busy while the queue
/// fills.
struct GateBackend<B> {
    inner: B,
    entered: Arc<AtomicUsize>,
    release: Arc<AtomicBool>,
}

impl<B: CrossbarBackend> CrossbarBackend for GateBackend<B> {
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
}

/// Opens the gate when dropped, so a failing assertion unwinds instead
/// of joining a worker parked behind the gate forever.
struct OpenOnDrop(Arc<AtomicBool>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// With the only worker parked on a gated engine and the depth-1 queue
/// full, engine work is refused with `QueueFull` — but AP feeds and
/// finishes never queue, so they complete on the submitting thread.
#[test]
fn ap_jobs_complete_while_the_only_worker_is_parked_and_the_queue_is_full() {
    let entered = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let config = {
        let entered = Arc::clone(&entered);
        let release = Arc::clone(&release);
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
            })
    };
    let width = config.mvp_width();
    let service = Service::start(config);
    let gate = OpenOnDrop(release);
    let program = || Job::MvpProgram(query_program(width, 0));
    let parked = service.submit(1, program()).expect("queues");
    while entered.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let queued = service.submit(1, program()).expect("fills the depth-1 queue");
    assert!(matches!(service.try_submit(1, program()), Err(ServeError::QueueFull { depth: 1 })));

    let session = service.open_session(2, &["ab"]).expect("compiles on this thread");
    let feed = || Job::ApFeedMany { session, chunks: vec![b"xab".to_vec(), b"ab".to_vec()] };
    let fed = service.try_submit(2, feed()).expect("no QueueFull").wait().expect("feeds");
    assert_eq!(fed.into_ap_feed_many().expect("feed").len(), 2);
    service.submit(2, feed()).expect("no blocking on the full queue").wait().expect("feeds");
    let runs = service
        .try_submit(2, Job::ApFinishMany { session })
        .expect("no QueueFull")
        .wait()
        .expect("finishes")
        .into_ap_finish_many()
        .expect("finish");
    assert_eq!(runs[0].matches, vec![(2, 0), (5, 0)]);
    assert_eq!(runs[1].matches, vec![(1, 0), (3, 0)]);
    assert_eq!(service.tenant_usage(2).expect("billed").ap_symbols, 10);
    assert_eq!(service.pending(), 1, "the engine job is still queued behind the gate");

    drop(gate);
    for ticket in [parked, queued] {
        assert!(ticket.wait().expect("runs once released").into_mvp().is_some());
    }
    service.shutdown();
}
