//! `corr_stream_wire`: one client runs `CorrOpen` (24 streams) →
//! `CorrFeed` in 256-step windows over a seeded corpus with two planted
//! groups → `CorrFinish` → `ApClose`, then repeats on the next corpus.
//! The service places the streams on 2 shards × 2 replicas, so every
//! feed is a scatter-gather over both workers.
//!
//! One client, not two: a feed already occupies both workers, so a
//! second closed-loop client adds no throughput, only queueing behind
//! the first — which split feed latency into two modes (one shard time
//! or two) and made `req_p50_us` jump between them from run to run.

use crate::live::{self, Recorder, Script, Stack, Tally, SERVE_TENANT, WIRE_TENANT, WORKERS};
use crate::trace::{self, Ladder, Rung, SharedLog, TimingBackend};
use crate::Workload;
use memcim_bits::BitVec;
use memcim_mvp::correlation::{
    correlation_reference, CorrelationAccumulator, CorrelationConfig, EventStreams,
};
use memcim_mvp::{MvpSimulator, ShardMap};
use memcim_serve::net::{NetClient, WireStats, WireUsage};
use memcim_serve::ServeConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const STREAMS: usize = 24;
const WINDOW: usize = 256;
/// 16 windows per corpus: long enough that the planted groups clear the
/// detection threshold by many standard deviations.
const STEPS: usize = 16 * WINDOW;
const GROUP: usize = 5;
const SHARDS: usize = 2;
const REPLICAS: usize = 2;
/// Engine geometry: a row holds exactly one window.
const ROWS: usize = 32;
const BANKS: usize = 8;
const BANK_COLS: usize = WINDOW / BANKS;
/// Distinct corpora each client cycles through.
const CORPORA: usize = 8;
const LADDER_CORPORA: usize = 2;
const CLIENTS: usize = 1;

/// One corpus: its windows, detection threshold and reference answer.
struct Corpus {
    windows: Vec<Vec<BitVec>>,
    threshold: u64,
    scores: Vec<u64>,
    planted: BitVec,
}

/// Every client's corpora.
pub struct CorrStream {
    corpora: Vec<Vec<Corpus>>,
}

impl Corpus {
    /// Draws corpus `k` of a client; `None` when the software reference
    /// itself does not separate the planted groups at the threshold, so
    /// the workload only serves corpora with a well-posed answer.
    fn draw(seed: u64) -> Result<Option<Self>, String> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..STREAMS).collect();
        for i in 0..2 * GROUP {
            let j = rng.gen_range(i..STREAMS);
            order.swap(i, j);
        }
        let cfg = CorrelationConfig {
            streams: STREAMS,
            steps: STEPS,
            rate: 0.25,
            strength: 0.95,
            groups: vec![order[..GROUP].to_vec(), order[GROUP..2 * GROUP].to_vec()],
        };
        let events = EventStreams::synthesize(&cfg, rng.gen_range(0..u64::MAX))
            .map_err(|e| e.to_string())?;
        let scores = correlation_reference(events.data()).map_err(|e| e.to_string())?;
        let threshold = cfg.threshold().map_err(|e| e.to_string())?;
        let planted = events.planted();
        let detected = (0..STREAMS).all(|i| (scores[i] > threshold) == planted.get(i));
        if !detected {
            return Ok(None);
        }
        let windows = (0..STEPS / WINDOW)
            .map(|w| events.window(w * WINDOW..(w + 1) * WINDOW))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Some(Self { windows, threshold, scores, planted }))
    }

    fn check(&self, scores: &[u64], correlated: &BitVec) -> Result<(), String> {
        if scores != self.scores.as_slice() {
            return Err("scores differ from correlation_reference".into());
        }
        if *correlated != self.planted {
            return Err("the detected set is not exactly the planted groups".into());
        }
        Ok(())
    }
}

impl CorrStream {
    /// Draws [`CORPORA`] corpora per client from `seed`.
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut corpora = Vec::with_capacity(CLIENTS);
        for c in 0..CLIENTS {
            let mut mine = Vec::with_capacity(CORPORA);
            let mut k = 0u64;
            while mine.len() < CORPORA {
                if let Some(corpus) =
                    Corpus::draw(seed ^ ((c as u64) << 32 | k).wrapping_mul(0x9E37_79B9_7F4A_7C15))?
                {
                    mine.push(corpus);
                }
                k += 1;
            }
            corpora.push(mine);
        }
        Ok(Self { corpora })
    }
}

struct Client<'a> {
    corpora: &'a [Corpus],
    next: usize,
}

impl Script for Client<'_> {
    fn cycle(&mut self, client: &mut NetClient, rec: &mut Recorder) -> Result<(), String> {
        let corpus = &self.corpora[self.next % self.corpora.len()];
        self.next += 1;
        let session = rec.call(|| client.corr_open(STREAMS, corpus.threshold))?;
        rec.tally.opens += 1;
        for (w, window) in corpus.windows.iter().enumerate() {
            let report = rec.call(|| client.corr_feed(session, window))?;
            rec.tally.feeds += 1;
            if report.events != ((w + 1) * STREAMS * WINDOW) as u64 {
                return Err(rec.wrong(format!("feed {w} reports {} events", report.events)));
            }
            rec.work((STREAMS * WINDOW) as u64);
        }
        let outcome = rec.call(|| client.corr_finish(session))?;
        rec.tally.finishes += 1;
        corpus.check(&outcome.scores, &outcome.correlated).map_err(|e| rec.wrong(e))?;
        rec.call(|| client.ap_close(session))?;
        Ok(())
    }
}

impl Workload for CorrStream {
    fn config(&self) -> ServeConfig {
        ServeConfig::default()
            .with_workers(WORKERS)
            .with_queue_depth(64)
            .with_max_burst(8)
            .with_mvp_geometry(ROWS, BANKS, BANK_COLS)
            .with_placement(SHARDS, REPLICAS)
    }

    fn clients(&self) -> usize {
        CLIENTS
    }

    fn script(&self, client: usize) -> Box<dyn Script + '_> {
        Box::new(Client { corpora: &self.corpora[client], next: 0 })
    }

    fn check_books(
        &self,
        tallies: &[Tally],
        usages: &[WireUsage],
        stats: &WireStats,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        for (t, u) in tallies.iter().zip(usages) {
            live::expect_eq(&mut problems, "correlation jobs", t.feeds + t.finishes, u.corr_jobs);
            live::expect_eq(&mut problems, "correlation events", t.work, u.corr_events);
            live::expect_eq(
                &mut problems,
                "shard sub-queries",
                t.feeds * SHARDS as u64,
                u.mvp_jobs,
            );
        }
        // Feed plans are verified uncached; nothing goes through the
        // Submit verify cache.
        live::expect_eq(
            &mut problems,
            "verify-cache lookups",
            0,
            stats.mvp_cache_hits + stats.mvp_cache_misses,
        );
        problems
    }

    fn sim(&self) -> Result<(f64, f64), String> {
        let corpus = &self.corpora[0][0];
        let mut engine = MvpSimulator::banked(ROWS, BANKS, BANK_COLS);
        let mut acc = CorrelationAccumulator::new(STREAMS).map_err(|e| e.to_string())?;
        for window in &corpus.windows {
            acc.feed_mvp(&mut engine, window).map_err(|e| e.to_string())?;
        }
        corpus.check(acc.scores(), &acc.detect(corpus.threshold))?;
        let ledger = engine.ledger();
        let events = acc.events() as f64;
        Ok((
            ledger.energy().as_picojoules() / 1e3 / events,
            ledger.busy_time().as_nanoseconds() / events,
        ))
    }

    fn ladder(&self, stack: &Stack, log: &SharedLog, ladder: &mut Ladder) -> Result<(), String> {
        let mut wire = stack.connect(WIRE_TENANT)?;
        let service = &stack.service;
        let mut engine =
            MvpSimulator::with_backend(TimingBackend::new(ROWS, BANKS, BANK_COLS, log.clone()));
        let map = ShardMap::new(STREAMS, SHARDS).map_err(|e| e.to_string())?;
        let err = |e: &dyn std::fmt::Display| e.to_string();
        for corpus in &self.corpora[0][..LADDER_CORPORA] {
            let (wire_ns, opened) = trace::time(|| wire.corr_open(STREAMS, corpus.threshold));
            let wire_session = opened.map_err(|e| err(&e))?;
            let (serve_ns, opened) =
                trace::time(|| service.open_corr_session(SERVE_TENANT, STREAMS, corpus.threshold));
            let session = opened.map_err(|e| err(&e))?;
            let (engine_ns, acc) = trace::time(|| CorrelationAccumulator::new(STREAMS));
            let mut acc = acc.map_err(|e| err(&e))?;
            ladder.rungs.push(Rung {
                wire: wire_ns,
                serve: serve_ns,
                engine: engine_ns,
                crossbar: 0,
            });

            for window in &corpus.windows {
                let (wire_ns, fed) = trace::time(|| wire.corr_feed(wire_session, window));
                fed.map_err(|e| err(&e))?;
                let (serve_ns, fed) =
                    trace::time(|| service.corr_feed(SERVE_TENANT, session, window));
                fed.map_err(|e| err(&e))?;

                // Engine level: plan and verify each shard's program,
                // run the shards (in parallel on the service, so the
                // slowest one sets the time), fold the reads in.
                let mut engine_ns = 0;
                let mut subqueries = Vec::with_capacity(SHARDS);
                for shard in 0..SHARDS {
                    let (ns, plan) =
                        trace::time(|| acc.shard_feed_plan(window, map.range(shard), WINDOW));
                    let plan = plan.map_err(|e| err(&e))?;
                    ladder.span("mvp.corr_plan", ns);
                    engine_ns += ns;
                    let (ns, diagnostics) =
                        trace::time(|| memcim_verify::verify_program(&plan, ROWS, WINDOW));
                    if memcim_verify::first_error(&diagnostics).is_some() {
                        return Err("the verifier refuses a correlation feed plan".into());
                    }
                    ladder.span("verify.program", ns);
                    ladder.count("verify.calls", 1);
                    engine_ns += ns;
                    subqueries.push((shard, plan));
                }
                let (mut slowest, mut slowest_crossbar) = (0, 0);
                let mut outputs = Vec::with_capacity(SHARDS);
                for (_, plan) in &subqueries {
                    let before = trace::lock(log).total_ns;
                    let (run_ns, reads) = trace::time(|| engine.run_program(plan));
                    outputs.push(reads.map_err(|e| err(&e))?);
                    let crossbar = trace::lock(log).total_ns - before;
                    ladder.span("mvp.run_program", run_ns);
                    ladder.span("mvp.self", run_ns.saturating_sub(crossbar));
                    ladder.count("mvp.instructions", plan.len() as u64);
                    if run_ns > slowest {
                        (slowest, slowest_crossbar) = (run_ns, crossbar);
                    }
                }
                let (ns, applied) = trace::time(|| {
                    for (shard, reads) in outputs.iter().enumerate() {
                        acc.apply_reads(map.range(shard), reads)?;
                    }
                    acc.note_window(WINDOW);
                    Ok::<(), memcim_mvp::MvpError>(())
                });
                applied.map_err(|e| err(&e))?;
                engine_ns += slowest + ns;
                ladder.rungs.push(Rung {
                    wire: wire_ns,
                    serve: serve_ns,
                    engine: engine_ns,
                    crossbar: slowest_crossbar,
                });

                // Placement on its own: the same sub-queries scattered to
                // live replicas and gathered.
                ladder.count("placement.subqueries", subqueries.len() as u64);
                let (ns, gathered) = trace::time(|| {
                    service
                        .submit_sharded(live::PLACEMENT_TENANT, subqueries)
                        .and_then(|t| t.wait())
                });
                gathered.map_err(|e| err(&e))?;
                ladder.span("placement.scatter", ns);
            }

            let (wire_ns, outcome) = trace::time(|| wire.corr_finish(wire_session));
            let outcome = outcome.map_err(|e| err(&e))?;
            corpus.check(&outcome.scores, &outcome.correlated)?;
            let (serve_ns, outcome) = trace::time(|| service.corr_finish(SERVE_TENANT, session));
            let outcome = outcome.map_err(|e| err(&e))?;
            corpus.check(&outcome.scores, &outcome.correlated)?;
            let (engine_ns, detected) = trace::time(|| acc.detect(corpus.threshold));
            corpus.check(acc.scores(), &detected)?;
            ladder.rungs.push(Rung {
                wire: wire_ns,
                serve: serve_ns,
                engine: engine_ns,
                crossbar: 0,
            });

            let (wire_ns, closed) = trace::time(|| wire.ap_close(wire_session));
            closed.map_err(|e| err(&e))?;
            let (serve_ns, closed) = trace::time(|| service.close_session(SERVE_TENANT, session));
            closed.map_err(|e| err(&e))?;
            ladder.rungs.push(Rung { wire: wire_ns, serve: serve_ns, engine: 0, crossbar: 0 });
        }
        Ok(())
    }
}
