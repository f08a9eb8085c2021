//! Kill-a-shard failover: a replicated placement keeps scatter-gather
//! answers bit-identical to the single-engine reference while replicas
//! die under load, a shard whose whole replica set is dead fails fast
//! with `ShardUnavailable` without disturbing the other shards, and a
//! graceful drain finishes in-flight work while refusing new
//! submissions.

use memcim_bits::BitVec;
use memcim_crossbar::{
    BankedCrossbar, CrossbarBackend, CrossbarError, OpLedger, RemapEntry, ScoutingKind,
};
use memcim_mvp::workloads::bitmap::BitmapTable;
use memcim_mvp::{Instruction, ShardMap};
use memcim_serve::{BoxedBackend, Job, ServeConfig, ServeError, Service};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A substrate with a remote kill switch: executes normally until its
/// worker's flag flips, then reports `ExhaustedSpares` on every
/// operation — the deterministic stand-in for pulling a worker's engine
/// mid-load.
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

/// One kill switch per worker, shared with the engine factory.
fn kill_switches(workers: usize) -> Arc<Vec<AtomicBool>> {
    Arc::new((0..workers).map(|_| AtomicBool::new(false)).collect())
}

fn killable_config(
    workers: usize,
    switches: &Arc<Vec<AtomicBool>>,
    rows: usize,
    banks: usize,
    bank_cols: usize,
) -> ServeConfig {
    let switches = Arc::clone(switches);
    ServeConfig::default()
        .with_workers(workers)
        .with_queue_depth(64)
        .with_max_burst(4)
        .with_mvp_geometry(rows, banks, bank_cols)
        .with_engine_factory(move |worker| -> BoxedBackend {
            Box::new(KillableBackend {
                inner: BankedCrossbar::rram(rows, banks, bank_cols),
                switches: Arc::clone(&switches),
                worker,
            })
        })
}

const ROWS: usize = 16;
const BANKS: usize = 4;
const BANK_COLS: usize = 64;
const WIDTH: usize = BANKS * BANK_COLS;
const RECORDS: usize = 600;
/// For two-shard tests: each 200-record shard fits the 256-bit width.
const SMALL_RECORDS: usize = 400;
const SHARDS: usize = 4;

fn table(records: usize) -> BitmapTable {
    let mut rng = SmallRng::seed_from_u64(2018);
    let col1: Vec<u8> = (0..records).map(|_| rng.gen_range(0..8)).collect();
    let col2: Vec<u8> = (0..records).map(|_| rng.gen_range(0..8)).collect();
    BitmapTable::new(col1, col2, 8).expect("well-formed columns")
}

const QUERIES: [(&[u8], &[u8]); 3] = [(&[1, 3], &[0, 2, 5]), (&[7], &[7]), (&[0, 4, 6], &[1, 3])];

/// Builds the scatter for one query: a shard-local plan per shard.
fn scatter(
    table: &BitmapTable,
    map: &ShardMap,
    query: (&[u8], &[u8]),
) -> Vec<(usize, Vec<Instruction>)> {
    map.ranges()
        .enumerate()
        .map(|(shard, range)| {
            (shard, table.shard_query_plan(query.0, query.1, range, WIDTH).expect("plan compiles"))
        })
        .collect()
}

/// Gathers a sharded ticket and stitches the partials back into the
/// full-table bitmap.
fn gather(
    map: &ShardMap,
    ticket: memcim_serve::ShardedTicket,
) -> Result<(BitVec, OpLedger), ServeError> {
    let out = ticket.wait()?;
    let partials: Vec<BitVec> = out
        .partials
        .iter()
        .map(|p| p.outputs.first().cloned().expect("each shard plan ends in a Read"))
        .collect();
    let stitched = map.stitch(&partials).expect("partials align with the map");
    Ok((stitched, out.ledger))
}

/// The tentpole's acceptance test: with R = 2, retiring any single
/// engine mid-burst loses zero tickets and every answer stays
/// bit-identical to the single-engine reference — before, during, and
/// after the kill.
#[test]
fn killing_one_replica_under_load_loses_nothing() {
    let table = table(RECORDS);
    let map = ShardMap::new(RECORDS, SHARDS).expect("valid geometry");
    let switches = kill_switches(4);
    let config = killable_config(4, &switches, ROWS, BANKS, BANK_COLS).with_placement(SHARDS, 2);
    let service = Service::start(config);
    assert_eq!(service.shard_count(), SHARDS);
    assert_eq!(service.replica_count(), 2);

    let mut completed = 0u64;
    // 30 waves of scatters; worker 0's engine is killed at wave 10,
    // while its replicas' sub-queries are in flight. Shards 0 and 3
    // (replica sets {0,1} and {3,0}) must fail over transparently.
    for wave in 0..30usize {
        if wave == 10 {
            switches[0].store(true, Ordering::SeqCst);
        }
        let query = QUERIES[wave % QUERIES.len()];
        let tickets: Vec<_> = (0..4)
            .map(|tenant| {
                service
                    .submit_sharded(tenant, scatter(&table, &map, query))
                    .expect("service accepts while running")
            })
            .collect();
        for ticket in tickets {
            assert_eq!(ticket.shard_count(), SHARDS);
            let (stitched, ledger) =
                gather(&map, ticket).expect("no ticket may fail with a live replica per shard");
            assert_eq!(
                stitched,
                table.query_reference(query.0, query.1),
                "wave {wave}: sharded answer must equal the single-engine reference"
            );
            assert!(ledger.energy().as_joules() > 0.0, "the gather carries a real bill");
            completed += 4; // SHARDS sub-queries per scatter
        }
    }
    assert_eq!(service.retired_engines(), 1, "exactly the killed engine retired");
    assert_eq!(service.unavailable_shards(), 0, "every shard kept a live replica");

    // The bill reconciles: every sub-query that completed was billed.
    let usage = service.shutdown();
    let billed: u64 = usage.iter().map(|(_, u)| u.mvp_jobs).sum();
    assert_eq!(billed, completed, "billed exactly the completed sub-queries");
}

/// When a shard's *whole* replica set is dead, its sub-queries fail
/// fast with `ShardUnavailable` — while scatters touching only the
/// surviving shards keep serving, bit-identical.
#[test]
fn dead_shard_fails_fast_while_others_keep_serving() {
    let table = table(SMALL_RECORDS);
    let map = ShardMap::new(SMALL_RECORDS, 2).expect("valid geometry");
    let switches = kill_switches(2);
    // R = 1: shard 0 lives only on worker 0, shard 1 only on worker 1.
    let config = killable_config(2, &switches, ROWS, BANKS, BANK_COLS).with_placement(2, 1);
    let service = Service::start(config);
    switches[0].store(true, Ordering::SeqCst);

    // The first scatter trips worker 0's engine; with no replica to
    // fail over to, shard 0's sub-query must come back typed — and the
    // same gather's shard 1 partial still computes.
    let query = QUERIES[0];
    let subqueries = scatter(&table, &map, query);
    let err = service
        .submit_sharded(7, subqueries)
        .expect("accepts")
        .wait()
        .expect_err("shard 0 has nowhere to go");
    assert_eq!(err, ServeError::ShardUnavailable { shard: 0 });
    assert_eq!(service.unavailable_shards(), 1);

    // Scatters that touch only the surviving shard still serve, and
    // their answers still stitch against the reference restricted to
    // that shard's range.
    let shard1 = vec![subquery_for(&table, &map, 1, query)];
    let out = service.submit_sharded(7, shard1).expect("accepts").wait().expect("shard 1 serves");
    let range = map.range(1);
    let mut expected = BitVec::new(WIDTH);
    table.query_reference(query.0, query.1).extract_range_into(
        range.start,
        range.len(),
        &mut expected,
    );
    assert_eq!(out.partials[0].outputs[0], expected, "surviving shard is bit-identical");

    // Later scatters touching the dead shard fail fast at submission —
    // no queueing, no retry loop.
    let again = service
        .submit_sharded(7, vec![subquery_for(&table, &map, 0, query)])
        .expect("accepts")
        .wait()
        .expect_err("fail fast");
    assert_eq!(again, ServeError::ShardUnavailable { shard: 0 });
    service.shutdown();
}

fn subquery_for(
    table: &BitmapTable,
    map: &ShardMap,
    shard: usize,
    query: (&[u8], &[u8]),
) -> (usize, Vec<Instruction>) {
    let range = map.range(shard);
    (shard, table.shard_query_plan(query.0, query.1, range, WIDTH).expect("plan compiles"))
}

/// Graceful drain under load: tickets already in the queue finish and
/// are billed; new MVP submissions, scatters and session opens are
/// refused with `ShuttingDown`; open AP sessions stream to completion.
#[test]
fn drain_under_load_strands_no_ticket_and_bills_what_completed() {
    let table = table(SMALL_RECORDS);
    let map = ShardMap::new(SMALL_RECORDS, 2).expect("valid geometry");
    let config = ServeConfig::default()
        .with_workers(2)
        .with_queue_depth(64)
        .with_max_burst(4)
        .with_mvp_geometry(ROWS, BANKS, BANK_COLS)
        .with_placement(2, 2);
    let service = Service::start(config);

    // Load up: plain jobs, a scatter, and an open AP session mid-stream.
    let query = QUERIES[1];
    let plain: Vec<_> = (0..16u64)
        .map(|i| {
            let program = vec![
                Instruction::Store {
                    row: 0,
                    data: BitVec::from_indices(WIDTH, &[i as usize, i as usize + 9]),
                },
                Instruction::Read { row: 0 },
            ];
            service.submit(i % 4, Job::MvpProgram(program)).expect("accepts while running")
        })
        .collect();
    let sharded = service.submit_sharded(5, scatter(&table, &map, query)).expect("accepts");
    let session = service.open_session(6, &["ab+c"]).expect("compiles");
    service
        .submit(6, Job::ApFeedMany { session, chunks: vec![b"ab".to_vec()] })
        .expect("accepts")
        .wait()
        .expect("feed runs");

    service.begin_drain();
    assert!(service.is_draining());

    // New work is refused, typed.
    assert!(matches!(
        service.submit(1, Job::MvpProgram(vec![Instruction::Read { row: 0 }])),
        Err(ServeError::ShuttingDown)
    ));
    assert!(matches!(
        service.try_submit(1, Job::MvpProgram(vec![Instruction::Read { row: 0 }])),
        Err(ServeError::ShuttingDown)
    ));
    assert!(matches!(
        service.submit_sharded(5, scatter(&table, &map, query)),
        Err(ServeError::ShuttingDown)
    ));
    assert!(matches!(service.open_session(6, &["x"]), Err(ServeError::ShuttingDown)));

    // In-flight work finishes: every queued ticket resolves with its
    // answer, the scatter gathers bit-identical, and the open session
    // streams to its finish.
    for (i, ticket) in plain.into_iter().enumerate() {
        let out = ticket.wait().expect("queued before the drain").into_mvp().expect("mvp");
        assert_eq!(out.outputs[0][0].ones().collect::<Vec<_>>(), vec![i, i + 9]);
    }
    let (stitched, _) = gather(&map, sharded).expect("scatter queued before the drain");
    assert_eq!(stitched, table.query_reference(query.0, query.1));
    let run = service
        .submit(6, Job::ApFeedMany { session, chunks: vec![b"bc".to_vec()] })
        .expect("open sessions keep streaming during a drain")
        .wait()
        .expect("feed runs");
    assert!(run.into_ap_feed_many().is_some());
    let matches = service
        .submit(6, Job::ApFinishMany { session })
        .expect("finish passes the drain gate")
        .wait()
        .expect("finish runs")
        .into_ap_finish_many()
        .expect("finish output")
        .remove(0);
    assert_eq!(matches.matches, vec![(3, 0)], "abbc matches ab+c at its end");

    // The bill covers exactly what completed: 16 plain jobs + 2 shard
    // sub-queries + the session's feeds and finish.
    let usage = service.shutdown();
    let billed_mvp: u64 = usage.iter().map(|(_, u)| u.mvp_jobs).sum();
    assert_eq!(billed_mvp, 16 + 2, "billed exactly the completed MVP sub-queries");
    let tenant6 = usage.iter().find(|(t, _)| *t == 6).expect("tenant 6 ran").1;
    assert_eq!(tenant6.ap_jobs, 3, "two feeds and a finish");
    assert_eq!(tenant6.ap_symbols, 4, "billed the symbols that streamed");
}
