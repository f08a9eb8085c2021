//! Serve-layer fault tolerance: a worker whose engine dies mid-burst
//! (injected `ExhaustedSpares`) is retired from the pool, its in-flight
//! jobs are requeued onto surviving engines, and tenants observe
//! degraded throughput — never a stranded ticket or a lost bill.

use memcim_bits::BitVec;
use memcim_crossbar::{
    BankedCrossbar, CrossbarBackend, CrossbarError, OpLedger, RemapEntry, ScoutingKind,
};
use memcim_mvp::Instruction;
use memcim_serve::{BoxedBackend, Job, ServeConfig, ServeError, Service};
use std::sync::atomic::{AtomicU64, Ordering};

/// A substrate that executes normally for `budget` operations and then
/// reports `ExhaustedSpares` forever — the deterministic stand-in for a
/// bank whose spare pool runs dry mid-burst.
struct DyingBackend {
    inner: BankedCrossbar,
    budget: AtomicU64,
}

impl DyingBackend {
    fn new(inner: BankedCrossbar, budget: u64) -> Self {
        Self { inner, budget: AtomicU64::new(budget) }
    }

    fn spend(&self) -> Result<(), CrossbarError> {
        let left =
            self.budget.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1));
        match left {
            Ok(_) => Ok(()),
            Err(_) => Err(CrossbarError::ExhaustedSpares { row: 0, spares: 0 }),
        }
    }
}

impl CrossbarBackend for DyingBackend {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn program_row(&mut self, row: usize, values: &BitVec) -> Result<u64, CrossbarError> {
        self.spend()?;
        self.inner.program_row(row, values)
    }

    fn read_row(&mut self, row: usize) -> Result<BitVec, CrossbarError> {
        self.spend()?;
        self.inner.read_row(row)
    }

    fn scouting(&mut self, kind: ScoutingKind, rows: &[usize]) -> Result<BitVec, CrossbarError> {
        self.spend()?;
        self.inner.scouting(kind, rows)
    }

    fn scouting_write(
        &mut self,
        kind: ScoutingKind,
        rows: &[usize],
        dest: usize,
    ) -> Result<BitVec, CrossbarError> {
        self.spend()?;
        self.inner.scouting_write(kind, rows, dest)
    }

    fn ledger_parts(&self) -> Vec<OpLedger> {
        self.inner.ledger_parts()
    }

    fn remap_table(&self) -> Vec<RemapEntry> {
        self.inner.remap_table()
    }
}

const ROWS: usize = 8;
const BANKS: usize = 2;
const BANK_COLS: usize = 32;
const WIDTH: usize = BANKS * BANK_COLS;

fn query(shift: usize) -> Vec<Instruction> {
    vec![
        Instruction::Store { row: 0, data: BitVec::from_indices(WIDTH, &[shift, shift + 8]) },
        Instruction::Store { row: 1, data: BitVec::from_indices(WIDTH, &[shift + 8]) },
        Instruction::And { srcs: vec![0, 1], dst: Some(2) },
        Instruction::Read { row: 2 },
    ]
}

fn expected(shift: usize) -> Vec<usize> {
    vec![shift + 8]
}

/// Worker 0's engine dies after a handful of operations; worker 1 stays
/// healthy. Every ticket must still resolve with the right answer, the
/// tenant ledger must cover every completed job, and the pool must
/// report exactly one retirement once worker 0 trips.
#[test]
fn engine_death_mid_burst_strands_no_ticket() {
    let config = ServeConfig::default()
        .with_workers(2)
        .with_queue_depth(32)
        .with_max_burst(4)
        .with_mvp_geometry(ROWS, BANKS, BANK_COLS)
        .with_engine_factory(|worker| -> BoxedBackend {
            let inner = BankedCrossbar::rram(ROWS, BANKS, BANK_COLS);
            if worker == 0 {
                // Enough budget to accept work, little enough to die
                // inside an early burst.
                Box::new(DyingBackend::new(inner, 6))
            } else {
                Box::new(inner)
            }
        });
    let service = Service::start(config);
    assert_eq!(service.live_engines(), 2);

    let mut submitted = 0u64;
    // Waves of jobs keep both workers popping until worker 0 trips; the
    // dying engine's jobs must transparently land on worker 1.
    for wave in 0..200 {
        let tickets: Vec<_> = (0..8)
            .map(|i| {
                let tenant = (i % 4) as u64;
                submitted += 1;
                service.submit(tenant, Job::MvpProgram(query(i))).expect("running")
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let out = ticket.wait().expect("no ticket may fail").into_mvp().expect("mvp");
            assert_eq!(out.outputs[0][0].ones().collect::<Vec<_>>(), expected(i));
        }
        if service.retired_engines() == 1 {
            break;
        }
        assert!(wave < 199, "worker 0 never popped a job in 200 waves");
    }
    assert_eq!(service.live_engines(), 1, "exactly the dying engine retired");

    // Subsequent jobs land on the surviving engine.
    for i in 0..8 {
        submitted += 1;
        let out = service
            .submit(1, Job::MvpProgram(query(i)))
            .expect("running")
            .wait()
            .expect("survivor serves")
            .into_mvp()
            .expect("mvp");
        assert_eq!(out.outputs[0][0].ones().collect::<Vec<_>>(), expected(i));
    }
    assert_eq!(service.retired_engines(), 1, "no further retirement");

    // The tenant ledger reconciles: every submitted job was billed to
    // some tenant exactly once, with real energy behind it.
    let usage = service.shutdown();
    let billed_jobs: u64 = usage.iter().map(|(_, u)| u.mvp_jobs).sum();
    assert_eq!(billed_jobs, submitted, "every completed job billed exactly once");
    for (tenant, u) in &usage {
        assert!(u.mvp.energy().as_joules() > 0.0, "tenant {tenant} paid real joules");
        assert!(u.mvp.reads() >= u.mvp_jobs, "each query reads at least once");
    }
}

/// A batch whose engine dies mid-run is diverted whole: it reruns on
/// the survivor as one job, every program's outputs match the
/// reference, and the tenant is billed one job per batch.
#[test]
fn batches_survive_engine_death() {
    let config = ServeConfig::default()
        .with_workers(2)
        .with_queue_depth(32)
        .with_max_burst(4)
        .with_mvp_geometry(ROWS, BANKS, BANK_COLS)
        .with_engine_factory(|worker| -> BoxedBackend {
            let inner = BankedCrossbar::rram(ROWS, BANKS, BANK_COLS);
            if worker == 0 {
                // Dies inside its first or second batch.
                Box::new(DyingBackend::new(inner, 6))
            } else {
                Box::new(inner)
            }
        });
    let service = Service::start(config);
    const TENANT: u64 = 5;
    let mut batches = 0u64;
    for wave in 0..200 {
        let tickets: Vec<_> = (0..4)
            .map(|i| {
                let batch = (0..3).map(|k| query(i + k)).collect();
                batches += 1;
                service.submit(TENANT, Job::MvpBatch(batch)).expect("running")
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let out = ticket.wait().expect("no batch may fail").into_mvp().expect("mvp");
            assert_eq!(out.outputs.len(), 3, "one output list per program");
            for (k, outputs) in out.outputs.iter().enumerate() {
                assert_eq!(outputs[0].ones().collect::<Vec<_>>(), expected(i + k));
            }
        }
        if service.retired_engines() == 1 {
            break;
        }
        assert!(wave < 199, "worker 0 never popped a batch in 200 waves");
    }
    assert_eq!(service.live_engines(), 1, "exactly the dying engine retired");
    let usage = service.shutdown();
    assert_eq!(usage.len(), 1);
    assert_eq!(usage[0].1.mvp_jobs, batches, "each batch billed as one job");
    // One `Read` per program, sensed on every bank: a run the dying
    // engine abandoned is never billed.
    let reads_per_batch = (3 * BANKS) as u64;
    assert_eq!(usage[0].1.mvp.reads(), reads_per_batch * batches, "only completed runs billed");
}

/// When the whole pool is dead, MVP jobs fail fast with
/// `NoHealthyEngine` (or the fatal fault itself) instead of bouncing
/// forever — and AP streaming keeps working on the same workers.
#[test]
fn dead_pool_fails_fast_and_keeps_streaming() {
    let config = ServeConfig::default()
        .with_workers(1)
        .with_queue_depth(8)
        .with_mvp_geometry(ROWS, BANKS, BANK_COLS)
        .with_engine_factory(|_| -> BoxedBackend {
            Box::new(DyingBackend::new(BankedCrossbar::rram(ROWS, BANKS, BANK_COLS), 0))
        });
    let service = Service::start(config);

    // The first job trips the only engine; it must come back as an
    // error, not hang.
    let first = service.submit(3, Job::MvpProgram(query(0))).expect("running").wait();
    assert!(
        matches!(first, Err(ServeError::NoHealthyEngine)),
        "a dead pool reports NoHealthyEngine, got {first:?}"
    );
    assert_eq!(service.live_engines(), 0);

    // Later MVP jobs fail fast the same way.
    let later = service.submit(3, Job::MvpProgram(query(1))).expect("running").wait();
    assert!(matches!(later, Err(ServeError::NoHealthyEngine)));

    // AP sessions never touch the engines: they keep streaming.
    let session = service.open_session(3, &["abc"]).expect("compiles");
    let run = service
        .submit(3, Job::ApFeedMany { session, chunks: vec![b"abc".to_vec()] })
        .expect("running")
        .wait()
        .expect("AP unaffected by MVP pool death");
    assert!(run.into_ap_feed_many().is_some());
    service.shutdown();
}

/// Regression for the requeue-vs-close race: when an engine dies while
/// the service is aborting, the worker's divert path requeues onto a
/// queue that may already be closed. The contract is all-or-nothing —
/// every ticket resolves with its answer or an explicit
/// `ShuttingDown`/`NoHealthyEngine`, never a hang, and the bill covers
/// exactly the jobs that completed.
#[test]
fn retirement_racing_shutdown_resolves_every_ticket() {
    for _ in 0..10 {
        let config = ServeConfig::default()
            .with_workers(2)
            .with_queue_depth(64)
            .with_max_burst(4)
            .with_mvp_geometry(ROWS, BANKS, BANK_COLS)
            .with_engine_factory(|_| -> BoxedBackend {
                // Both engines die a few operations in, so retirement
                // and the abort below race for the queue.
                Box::new(DyingBackend::new(BankedCrossbar::rram(ROWS, BANKS, BANK_COLS), 4))
            });
        let service = Service::start(config);
        let tickets: Vec<_> = (0..32u8)
            .map(|i| {
                service
                    .submit(u64::from(i % 4), Job::MvpProgram(query(usize::from(i % 8))))
                    .expect("open")
            })
            .collect();
        // Abort while workers are mid-burst: queued jobs are failed,
        // in-flight jobs either land on a survivor or hit the closed
        // queue on their divert.
        let usage = service.abort();
        let mut completed = 0u64;
        for ticket in tickets {
            match ticket.wait() {
                Ok(out) => {
                    completed += 1;
                    assert!(out.into_mvp().is_some(), "MVP jobs resolve to MVP outputs");
                }
                Err(ServeError::ShuttingDown | ServeError::NoHealthyEngine) => {}
                Err(e) => panic!("a racing shutdown may not surface {e:?}"),
            }
        }
        let billed: u64 = usage.iter().map(|(_, u)| u.mvp_jobs).sum();
        assert_eq!(billed, completed, "the bill covers exactly the completed jobs");
    }
}
