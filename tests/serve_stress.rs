//! Concurrency stress for the serving layer: many tenants hammering one
//! service with mixed MVP and AP jobs from real threads, with every
//! result differentially checked against single-threaded references,
//! ledger accounting reconciled, and a clean shutdown at the end.

use memcim::serve::{Job, ServeConfig, ServeError, Service};
use memcim::RegexAccelerator;
use memcim_bits::BitVec;
use memcim_mvp::{Instruction, MvpSimulator};

const TENANTS: u64 = 10;
const MVP_JOBS_PER_TENANT: usize = 12;
const ROWS: usize = 16;
const BANKS: usize = 4;
const BANK_COLS: usize = 64;

fn config() -> ServeConfig {
    // A deliberately small queue so submission hits the backpressure
    // path under load.
    ServeConfig::default()
        .with_workers(4)
        .with_queue_depth(16)
        .with_max_burst(8)
        .with_mvp_geometry(ROWS, BANKS, BANK_COLS)
}

/// Deterministic per-(tenant, iteration) bitmap intersection program.
fn mvp_program(tenant: u64, iteration: usize) -> Vec<Instruction> {
    let width = BANKS * BANK_COLS;
    let salt = (tenant as usize) * 37 + iteration * 11;
    let a: Vec<usize> = (0..8).map(|i| (salt + i * 29) % width).collect();
    let b: Vec<usize> = (0..6).map(|i| (salt + 3 + i * 41) % width).collect();
    let c: Vec<usize> = (0..10).map(|i| (salt + i * 17) % width).collect();
    vec![
        Instruction::Store { row: 0, data: BitVec::from_indices(width, &a) },
        Instruction::Store { row: 1, data: BitVec::from_indices(width, &b) },
        Instruction::Store { row: 2, data: BitVec::from_indices(width, &c) },
        Instruction::Or { srcs: vec![0, 1], dst: Some(3) },
        Instruction::And { srcs: vec![3, 2], dst: Some(4) },
        Instruction::Xor { a: 4, b: 0, dst: Some(5) },
        Instruction::Read { row: 4 },
        Instruction::Read { row: 5 },
    ]
}

/// The AP input a tenant streams: planted matches in deterministic
/// filler.
fn ap_input(tenant: u64) -> Vec<u8> {
    let mut input = Vec::new();
    for i in 0..40usize {
        input.extend_from_slice(match (tenant as usize + i) % 5 {
            0 => b"abbc".as_slice(),
            1 => b"zzzz",
            2 => b"xyz",
            3 => b"abz",
            _ => b"qq",
        });
    }
    input
}

const AP_PATTERNS: [&str; 2] = ["ab+c", "x[yz]+"];

#[test]
fn many_tenants_mixed_jobs_no_deadlock_clean_shutdown() {
    let service = Service::start(config());

    std::thread::scope(|scope| {
        for tenant in 0..TENANTS {
            let service = &service;
            scope.spawn(move || {
                // Every tenant does MVP work; odd tenants also stream an
                // AP session concurrently with everyone else's jobs.
                let mut mvp_tickets = Vec::new();
                let session = if tenant % 2 == 1 {
                    Some(service.open_session(tenant, &AP_PATTERNS).expect("patterns compile"))
                } else {
                    None
                };

                for iteration in 0..MVP_JOBS_PER_TENANT {
                    let ticket = service
                        .submit(tenant, Job::MvpProgram(mvp_program(tenant, iteration)))
                        .expect("service accepts while running");
                    mvp_tickets.push((iteration, ticket));

                    // Interleave AP chunks with MVP submissions.
                    if let Some(session) = session {
                        let input = ap_input(tenant);
                        let chunk = input[iteration * input.len() / MVP_JOBS_PER_TENANT
                            ..(iteration + 1) * input.len() / MVP_JOBS_PER_TENANT]
                            .to_vec();
                        service
                            .submit(tenant, Job::ApFeedMany { session, chunks: vec![chunk] })
                            .expect("accepts")
                            .wait()
                            .expect("feed runs");
                    }
                }

                // Differentially check every MVP result.
                for (iteration, ticket) in mvp_tickets {
                    let out = ticket.wait().expect("job runs").into_mvp().expect("mvp job");
                    let mut reference = MvpSimulator::banked(ROWS, BANKS, BANK_COLS);
                    let expected =
                        reference.run_program(&mvp_program(tenant, iteration)).expect("reference");
                    assert_eq!(out.outputs, vec![expected], "tenant {tenant} job {iteration}");
                }

                // Finish the stream and check the matches against the
                // single-threaded facade on the same input.
                if let Some(session) = session {
                    let run = service
                        .submit(tenant, Job::ApFinishMany { session })
                        .expect("accepts")
                        .wait()
                        .expect("finish runs")
                        .into_ap_finish_many()
                        .expect("finish job")
                        .remove(0);
                    let mut reference =
                        RegexAccelerator::rram(&AP_PATTERNS).expect("reference compiles");
                    let expected = reference.scan(&ap_input(tenant));
                    assert_eq!(run.matches, expected.matches, "tenant {tenant} AP matches");
                    assert_eq!(run.symbols, expected.symbols);
                    service.close_session(tenant, session).expect("session open");
                }
            });
        }
    });

    // Reconcile the books: every tenant is billed for exactly its jobs.
    let expected_scouts_per_job = 3 * BANKS as u64; // OR + AND + XOR, per bank
    for tenant in 0..TENANTS {
        let usage = service.tenant_usage(tenant).expect("every tenant ran");
        assert_eq!(usage.mvp_jobs, MVP_JOBS_PER_TENANT as u64, "tenant {tenant}");
        assert_eq!(
            usage.mvp.scouting_ops(),
            MVP_JOBS_PER_TENANT as u64 * expected_scouts_per_job,
            "tenant {tenant} scouting ops"
        );
        if tenant % 2 == 1 {
            assert_eq!(usage.ap_symbols, ap_input(tenant).len() as u64, "tenant {tenant}");
            assert_eq!(usage.ap_jobs, MVP_JOBS_PER_TENANT as u64 + 1, "feeds + finish");
            assert!(usage.ap_energy.as_joules() > 0.0);
        } else {
            assert_eq!(usage.ap_jobs, 0);
        }
        assert!(usage.mvp.energy().as_joules() > 0.0);
    }

    assert_eq!(service.session_count(), 0, "all sessions closed");
    assert_eq!(service.pending(), 0, "queue drained");
    let snapshot = service.shutdown();
    assert_eq!(snapshot.len(), TENANTS as usize);
    // shutdown() joined every worker; reaching this line without
    // hanging is the no-deadlock claim.
}

mod chaos {
    //! A seeded chaos schedule over the replicated placement: kill K
    //! replicas at random instants under multi-tenant scatter-gather
    //! load. Every ticket must resolve, every answer must be
    //! bit-identical to the single-engine reference, and the books must
    //! reconcile — billed ≡ completed.

    use memcim::serve::{BoxedBackend, ServeConfig, Service};
    use memcim_bits::BitVec;
    use memcim_crossbar::{
        BankedCrossbar, CrossbarBackend, CrossbarError, OpLedger, RemapEntry, ScoutingKind,
    };
    use memcim_mvp::workloads::bitmap::BitmapTable;
    use memcim_mvp::ShardMap;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    const WORKERS: usize = 4;
    const SHARDS: usize = 4;
    const REPLICAS: usize = 2;
    const KILLS: usize = 2;
    const RECORDS: usize = 500;
    const ROWS: usize = 16;
    const BANKS: usize = 4;
    const BANK_COLS: usize = 64;
    const WIDTH: usize = BANKS * BANK_COLS;
    const WAVES: usize = 24;
    const TENANTS: u64 = 5;
    const SEED: u64 = 2018;

    /// A substrate that fails every operation once its worker's shared
    /// kill switch flips.
    struct Killable {
        inner: BankedCrossbar,
        switches: Arc<Vec<AtomicBool>>,
        worker: usize,
    }

    impl Killable {
        fn check(&self) -> Result<(), CrossbarError> {
            if self.switches[self.worker].load(Ordering::SeqCst) {
                Err(CrossbarError::ExhaustedSpares { row: 0, spares: 0 })
            } else {
                Ok(())
            }
        }
    }

    impl CrossbarBackend for Killable {
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
        fn scouting(
            &mut self,
            kind: ScoutingKind,
            rows: &[usize],
        ) -> Result<BitVec, CrossbarError> {
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

    /// The correlation-session wave of the chaos schedule: every tenant
    /// holds a long-lived correlation stream over the replicated
    /// placement while replicas die mid-stream. Every surviving answer
    /// must be bit-identical to the software reference, a failed feed
    /// must leave the session's state and bill untouched, and
    /// `ShardUnavailable` may only surface once a shard's *whole*
    /// replica set is dead.
    #[test]
    fn seeded_replica_kills_mid_correlation_stream_stay_bit_identical() {
        use memcim::serve::ServeError;
        use memcim_mvp::correlation::{correlation_reference, CorrelationConfig, EventStreams};

        const STREAMS: usize = 12; // rows_needed(12) = 11 ≤ ROWS
        const STEPS: usize = 768;
        const WINDOW: usize = 128; // ≤ WIDTH, six windows per stream

        let mut rng = SmallRng::seed_from_u64(SEED ^ 0xC0FF);
        let pair = if rng.gen_range(0..2u32) == 0 { [0usize, 2] } else { [1, 3] };
        let windows = STEPS / WINDOW;
        let mut kill_at: Vec<usize> = (0..KILLS).map(|_| rng.gen_range(1..windows - 1)).collect();
        kill_at.sort_unstable();

        let cfg = CorrelationConfig {
            streams: STREAMS,
            steps: STEPS,
            rate: 0.25,
            strength: 0.9,
            groups: vec![vec![1, 4, 8, 10]],
        };
        let threshold = cfg.threshold().expect("well-posed corpus");
        let events = EventStreams::synthesize(&cfg, SEED).expect("synthesizes");
        let reference = correlation_reference(events.data()).expect("well-formed corpus");
        let mut expected = BitVec::new(STREAMS);
        for (i, &score) in reference.iter().enumerate() {
            expected.set(i, score > threshold);
        }

        let switches: Arc<Vec<AtomicBool>> =
            Arc::new((0..WORKERS).map(|_| AtomicBool::new(false)).collect());
        let factory_switches = Arc::clone(&switches);
        let service = Service::start(
            ServeConfig::default()
                .with_workers(WORKERS)
                .with_queue_depth(64)
                .with_max_burst(4)
                .with_mvp_geometry(ROWS, BANKS, BANK_COLS)
                .with_placement(SHARDS, REPLICAS)
                .with_engine_factory(move |worker| -> BoxedBackend {
                    Box::new(Killable {
                        inner: BankedCrossbar::rram(ROWS, BANKS, BANK_COLS),
                        switches: Arc::clone(&factory_switches),
                        worker,
                    })
                }),
        );

        let sessions: Vec<_> = (0..TENANTS)
            .map(|tenant| service.open_corr_session(tenant, STREAMS, threshold).expect("opens"))
            .collect();
        let mut killed = 0usize;
        for w in 0..windows {
            while killed < KILLS && kill_at[killed] == w {
                switches[pair[killed]].store(true, Ordering::SeqCst);
                killed += 1;
            }
            let window = events.window(w * WINDOW..(w + 1) * WINDOW).expect("in corpus");
            for (tenant, &session) in sessions.iter().enumerate() {
                let report = service
                    .corr_feed(tenant as u64, session, &window)
                    .expect("one replica per shard survives every kill");
                assert_eq!(
                    report.events,
                    (STREAMS * (w + 1) * WINDOW) as u64,
                    "tenant {tenant}: cumulative stream-slots"
                );
            }
        }
        assert_eq!(killed, KILLS, "the schedule fired every kill");
        assert_eq!(service.unavailable_shards(), 0, "every shard kept a live replica");

        // Tenants 1.. finish now: their answers must be bit-identical
        // to the reference despite the mid-stream kills.
        for (tenant, &session) in sessions.iter().enumerate().skip(1) {
            let outcome = service.corr_finish(tenant as u64, session).expect("finishes");
            assert_eq!(outcome.scores, reference, "tenant {tenant}: scores ≡ reference");
            assert_eq!(outcome.correlated, expected, "tenant {tenant}: detection ≡ reference");
        }

        // Coda: kill the last live replica of shard 0. Tenant 0's next
        // feed must fail typed with ShardUnavailable — and leave the
        // accumulated state untouched, so the finish still answers
        // bit-identically for everything that was fed.
        switches[pair[0] ^ 1].store(true, Ordering::SeqCst);
        let probe = events.window(0..WINDOW).expect("in corpus");
        match service.corr_feed(0, sessions[0], &probe) {
            Err(ServeError::ShardUnavailable { .. }) => {}
            other => panic!("expected ShardUnavailable for a dead replica set, got {other:?}"),
        }
        let outcome = service.corr_finish(0, sessions[0]).expect("finishes");
        assert_eq!(outcome.scores, reference, "the failed feed corrupted nothing");
        assert_eq!(outcome.correlated, expected);

        // The books: every tenant billed exactly its completed
        // stream-slots — the refused probe billed nothing.
        let usage = service.shutdown();
        assert_eq!(usage.len(), TENANTS as usize);
        for (tenant, u) in &usage {
            assert_eq!(
                u.corr_events,
                (STREAMS * STEPS) as u64,
                "tenant {tenant} billed exactly the completed slots"
            );
            assert_eq!(u.corr_jobs, windows as u64 + 1, "tenant {tenant}: feeds + finish");
            assert!(u.mvp.energy().as_joules() > 0.0, "tenant {tenant} paid real joules");
        }
    }

    #[test]
    fn seeded_replica_kills_under_load_lose_nothing_and_reconcile() {
        let mut rng = SmallRng::seed_from_u64(SEED);
        // With replica sets {s, (s+1) % 4}, killing two *non-adjacent*
        // workers leaves every shard exactly one live replica — the
        // schedule draws which pair and when, the invariants never
        // change.
        let pair = if rng.gen_range(0..2u32) == 0 { [0usize, 2] } else { [1, 3] };
        let mut kill_at: Vec<usize> = (0..KILLS).map(|_| rng.gen_range(2..WAVES - 2)).collect();
        kill_at.sort_unstable();

        let mut table_rng = SmallRng::seed_from_u64(SEED ^ 0x5eed);
        let col1: Vec<u8> = (0..RECORDS).map(|_| table_rng.gen_range(0..8)).collect();
        let col2: Vec<u8> = (0..RECORDS).map(|_| table_rng.gen_range(0..8)).collect();
        let table = BitmapTable::new(col1, col2, 8).expect("well-formed columns");
        let map = ShardMap::new(RECORDS, SHARDS).expect("valid geometry");

        let switches: Arc<Vec<AtomicBool>> =
            Arc::new((0..WORKERS).map(|_| AtomicBool::new(false)).collect());
        let factory_switches = Arc::clone(&switches);
        let config = ServeConfig::default()
            .with_workers(WORKERS)
            .with_queue_depth(64)
            .with_max_burst(4)
            .with_mvp_geometry(ROWS, BANKS, BANK_COLS)
            .with_placement(SHARDS, REPLICAS)
            .with_engine_factory(move |worker| -> BoxedBackend {
                Box::new(Killable {
                    inner: BankedCrossbar::rram(ROWS, BANKS, BANK_COLS),
                    switches: Arc::clone(&factory_switches),
                    worker,
                })
            });
        let service = Service::start(config);

        let queries: [(&[u8], &[u8]); 3] =
            [(&[1, 3], &[0, 2, 5]), (&[7], &[7]), (&[0, 4, 6], &[1, 3])];
        let mut killed = 0usize;
        let mut completed = 0u64;
        for wave in 0..WAVES {
            while killed < KILLS && kill_at[killed] == wave {
                switches[pair[killed]].store(true, Ordering::SeqCst);
                killed += 1;
            }
            let query = queries[wave % queries.len()];
            // Multi-tenant load: every tenant scatters the same query
            // concurrently; the per-tenant ledgers must stay separate.
            let tickets: Vec<_> = (0..TENANTS)
                .map(|tenant| {
                    let subqueries: Vec<_> = map
                        .ranges()
                        .enumerate()
                        .map(|(shard, range)| {
                            (
                                shard,
                                table
                                    .shard_query_plan(query.0, query.1, range, WIDTH)
                                    .expect("plan compiles"),
                            )
                        })
                        .collect();
                    service.submit_sharded(tenant, subqueries).expect("accepts while running")
                })
                .collect();
            let reference = table.query_reference(query.0, query.1);
            for ticket in tickets {
                let out = ticket.wait().expect("every ticket resolves");
                let partials: Vec<BitVec> = out
                    .partials
                    .iter()
                    .map(|p| p.outputs.first().cloned().expect("plan ends in a Read"))
                    .collect();
                let stitched = map.stitch(&partials).expect("aligned");
                assert_eq!(stitched, reference, "wave {wave}: differential identity");
                completed += SHARDS as u64;
            }
        }
        assert_eq!(killed, KILLS, "the schedule fired every kill");
        assert_eq!(service.retired_engines(), KILLS, "exactly the killed engines retired");
        assert_eq!(service.unavailable_shards(), 0, "every shard kept a live replica");

        // The books reconcile: billed ≡ completed, split evenly across
        // the tenants (every tenant ran the same schedule).
        let usage = service.shutdown();
        let billed: u64 = usage.iter().map(|(_, u)| u.mvp_jobs).sum();
        assert_eq!(billed, completed, "billed exactly the completed sub-queries");
        for (tenant, u) in &usage {
            assert_eq!(
                u.mvp_jobs,
                completed / TENANTS,
                "tenant {tenant} billed for its own scatters only"
            );
            assert!(u.mvp.energy().as_joules() > 0.0, "tenant {tenant} paid real joules");
        }
    }
}

#[test]
fn shutdown_under_load_never_strands_a_ticket() {
    let service = Service::start(config().with_workers(2));
    let mut tickets = Vec::new();
    for tenant in 0..8u64 {
        for iteration in 0..4 {
            tickets.push(
                service
                    .submit(tenant, Job::MvpProgram(mvp_program(tenant, iteration)))
                    .expect("accepts"),
            );
        }
    }
    // Abort with work still queued: every ticket must resolve — either
    // the job ran before the axe fell, or it reports ShuttingDown.
    let _ = service.abort();
    let mut completed = 0;
    for ticket in tickets {
        match ticket.wait() {
            Ok(_) => completed += 1,
            Err(ServeError::ShuttingDown) => {}
            Err(other) => panic!("unexpected failure: {other}"),
        }
    }
    assert!(completed >= 1, "the workers were running; something completed");
}
