//! `ap_stream_wire`: each client runs session cycles of `ApOpen` →
//! [`FEEDS`] × `ApFeedMany` (8 lanes × 512 symbols) → `ApFinishMany` →
//! `ApClose`. A session's pattern set is 16 rules of a larger
//! `rules::synthetic_rules` corpus; sets are picked with a seeded Zipf
//! skew from a pool of [`SET_POOL`] per tenant, more than the service's
//! 32-entry compile cache holds, so opens both hit and miss.

use crate::live::{self, Recorder, Script, Stack, Tally, SERVE_TENANT, WIRE_TENANT, WORKERS};
use crate::trace::{self, Ladder, Rung, SharedLog};
use crate::Workload;
use memcim_ap::{ApBackend, ApError, AutomataProcessor, RoutingKind};
use memcim_automata::{rules, PatternSet, StartKind};
use memcim_serve::net::{NetClient, WireStats, WireUsage};
use memcim_serve::{ApMatches, Job, ServeConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const CORPUS_RULES: usize = 64;
const SET_RULES: usize = 16;
/// Distinct pattern sets per tenant; two tenants' pools (96 keys) far
/// exceed the 32-entry compile cache.
const SET_POOL: usize = 48;
const LANES: usize = 8;
const CHUNK: usize = 512;
/// `ApFeedMany`s per session cycle.
const FEEDS: usize = 4;
/// Planted rule matches per lane stream.
const PLANTS: usize = 8;
/// Zipf exponent of the set popularity skew.
const SKEW: f64 = 1.0;
const LADDER_CYCLES: usize = 48;
const SIM_CYCLES: usize = 64;

/// One pattern set: its rules, its traffic (`chunks[feed][lane]`), and
/// the software reference matches per lane.
struct SetInput {
    rules: Vec<String>,
    chunks: Vec<Vec<Vec<u8>>>,
    expected: Vec<Vec<(usize, usize)>>,
}

/// The generated pattern-set pool and the popularity skew.
pub struct ApStream {
    sets: Vec<SetInput>,
    /// Cumulative Zipf weights over the pool.
    cdf: Vec<f64>,
    seed: u64,
}

/// `(end, pattern)` matches as a sorted set: an accept event per
/// accepting state of a pattern collapses to one match.
fn match_set(mut matches: Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    matches.sort_unstable();
    matches.dedup();
    matches
}

/// Compiles a pattern set the way the service's compile path does:
/// homogeneous form with unanchored starts and dead states stripped
/// (automata), then mapped onto the AP with hierarchical routing and a
/// dense fallback (ap). Returns both spans and the processor.
fn compile(rules: &[String]) -> Result<(u64, u64, AutomataProcessor), String> {
    let refs: Vec<&str> = rules.iter().map(String::as_str).collect();
    let (automata_ns, homog) = trace::time(|| {
        PatternSet::compile(&refs)
            .map(|set| set.to_homogeneous().0.with_start_kind(StartKind::AllInput).strip().0)
    });
    let homog = homog.map_err(|e| e.to_string())?;
    let (ap_ns, processor) = trace::time(|| {
        match AutomataProcessor::compile(&homog, ApBackend::rram(), RoutingKind::cache_automaton())
        {
            Err(ApError::RoutingInfeasible { .. }) => {
                AutomataProcessor::compile(&homog, ApBackend::rram(), RoutingKind::Dense)
            }
            other => other,
        }
    });
    Ok((automata_ns, ap_ns, processor.map_err(|e| e.to_string())?))
}

impl ApStream {
    /// Draws the rule corpus, the set pool and each set's traffic from
    /// `seed`, and scans every lane with the software NFA for the
    /// reference matches.
    pub fn new(seed: u64) -> Result<Self, String> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let corpus = rules::synthetic_rules(&mut rng, CORPUS_RULES);
        let mut sets = Vec::with_capacity(SET_POOL);
        while sets.len() < SET_POOL {
            let mut pick: Vec<usize> = (0..CORPUS_RULES).collect();
            for i in 0..SET_RULES {
                let j = rng.gen_range(i..CORPUS_RULES);
                pick.swap(i, j);
            }
            let mut chosen: Vec<usize> = pick[..SET_RULES].to_vec();
            chosen.sort_unstable();
            let rules: Vec<String> = chosen.iter().map(|&i| corpus[i].clone()).collect();
            if sets.iter().any(|s: &SetInput| s.rules == rules) {
                continue;
            }
            let refs: Vec<&str> = rules.iter().map(String::as_str).collect();
            let set = PatternSet::compile(&refs).map_err(|e| e.to_string())?;
            let lanes: Vec<Vec<u8>> = (0..LANES)
                .map(|_| rules::synthetic_traffic(&mut rng, set.patterns(), FEEDS * CHUNK, PLANTS))
                .collect();
            let expected = lanes
                .iter()
                .map(|lane| {
                    match_set(set.scan(lane).into_iter().map(|m| (m.end, m.pattern)).collect())
                })
                .collect();
            let chunks = (0..FEEDS)
                .map(|f| {
                    lanes.iter().map(|lane| lane[f * CHUNK..(f + 1) * CHUNK].to_vec()).collect()
                })
                .collect();
            sets.push(SetInput { rules, chunks, expected });
        }
        let weights: Vec<f64> = (1..=SET_POOL).map(|k| (k as f64).powf(-SKEW)).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Ok(Self { sets, cdf, seed })
    }

    /// Client `client`'s stream of set picks.
    fn picks(&self, client: usize) -> impl FnMut() -> usize + '_ {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ (0xA9 + client as u64));
        move || {
            let u: f64 = rng.gen_range(0.0..1.0);
            self.cdf.iter().position(|&c| u < c).unwrap_or(SET_POOL - 1)
        }
    }

    fn check(&self, s: usize, runs: &[ApMatches]) -> Result<(), String> {
        let set = &self.sets[s];
        if runs.len() != LANES {
            return Err(format!("set {s}: {} lanes finished, expected {LANES}", runs.len()));
        }
        for (lane, (run, expected)) in runs.iter().zip(&set.expected).enumerate() {
            if run.symbols != (FEEDS * CHUNK) as u64 || match_set(run.matches.clone()) != *expected
            {
                return Err(format!(
                    "set {s} lane {lane}: matches differ from the software NFA scan"
                ));
            }
        }
        Ok(())
    }
}

struct Client<'a> {
    w: &'a ApStream,
    pick: Box<dyn FnMut() -> usize + Send + 'a>,
}

impl Script for Client<'_> {
    fn cycle(&mut self, client: &mut NetClient, rec: &mut Recorder) -> Result<(), String> {
        let s = (self.pick)();
        let set = &self.w.sets[s];
        let refs: Vec<&str> = set.rules.iter().map(String::as_str).collect();
        let (session, info) = rec.call(|| client.ap_open_info(&refs))?;
        rec.tally.opens += 1;
        rec.tally.open_hits += u64::from(info.cache_hit);
        rec.tally.fallbacks += u64::from(info.routing_fallback);
        for (f, chunks) in set.chunks.iter().enumerate() {
            let reports = rec.call(|| client.ap_feed_many(session, chunks))?;
            rec.tally.feeds += 1;
            let fed = ((f + 1) * CHUNK) as u64;
            if reports.len() != LANES || reports.iter().any(|r| r.cycles != fed) {
                return Err(rec.wrong(format!("set {s}: feed {f} reports the wrong symbol count")));
            }
            rec.work((LANES * CHUNK) as u64);
        }
        let runs = rec.call(|| client.ap_finish_many(session))?;
        rec.tally.finishes += 1;
        self.w.check(s, &runs).map_err(|e| rec.wrong(e))?;
        rec.call(|| client.ap_close(session))?;
        Ok(())
    }
}

impl Workload for ApStream {
    fn config(&self) -> ServeConfig {
        // AP sessions never touch the crossbar engines, so they keep the
        // default geometry.
        ServeConfig::default().with_workers(WORKERS).with_queue_depth(64).with_max_burst(8)
    }

    fn script(&self, client: usize) -> Box<dyn Script + '_> {
        Box::new(Client { w: self, pick: Box::new(self.picks(client)) })
    }

    fn check_books(
        &self,
        tallies: &[Tally],
        usages: &[WireUsage],
        stats: &WireStats,
    ) -> Vec<String> {
        let mut problems = Vec::new();
        for (t, u) in tallies.iter().zip(usages) {
            live::expect_eq(&mut problems, "AP jobs", t.feeds + t.finishes, u.ap_jobs);
            live::expect_eq(&mut problems, "AP symbols", t.work, u.ap_symbols);
            live::expect_eq(&mut problems, "MVP jobs", 0, u.mvp_jobs);
        }
        let sum = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>();
        live::expect_eq(
            &mut problems,
            "compile-cache lookups",
            sum(|t| t.opens),
            stats.ap_cache_hits + stats.ap_cache_misses,
        );
        live::expect_eq(
            &mut problems,
            "compile-cache hits",
            sum(|t| t.open_hits),
            stats.ap_cache_hits,
        );
        live::expect_eq(
            &mut problems,
            "routing fallbacks",
            sum(|t| t.fallbacks),
            stats.routing_fallbacks,
        );
        problems
    }

    fn sim(&self) -> Result<(f64, f64), String> {
        let mut pick = self.picks(0);
        let (mut energy_pj, mut time_ns, mut symbols) = (0.0, 0.0, 0u64);
        for _ in 0..SIM_CYCLES {
            let s = pick();
            let mut lanes = compile(&self.sets[s].rules)?.2.multi_stream(LANES);
            for chunks in &self.sets[s].chunks {
                lanes.feed_many(chunks);
            }
            for run in lanes.finish_all() {
                energy_pj += run.report.energy.as_picojoules();
                time_ns += run.report.latency.as_nanoseconds();
                symbols += run.symbols;
            }
        }
        Ok((energy_pj / 1e3 / symbols as f64, time_ns / symbols as f64))
    }

    fn ladder(&self, stack: &Stack, _log: &SharedLog, ladder: &mut Ladder) -> Result<(), String> {
        let mut wire = stack.connect(WIRE_TENANT)?;
        let service = &stack.service;
        let mut templates: HashMap<usize, AutomataProcessor> = HashMap::new();
        let mut pick = self.picks(0);
        let job = |job: Job| {
            service.try_submit(SERVE_TENANT, job).and_then(|t| t.wait()).map_err(|e| e.to_string())
        };
        for _ in 0..LADDER_CYCLES {
            let s = pick();
            let set = &self.sets[s];
            let refs: Vec<&str> = set.rules.iter().map(String::as_str).collect();

            let (wire_ns, opened) = trace::time(|| wire.ap_open_info(&refs));
            let (wire_session, _) = opened.map_err(|e| e.to_string())?;
            let (serve_ns, opened) = trace::time(|| service.open_session_info(SERVE_TENANT, &refs));
            let (session, info) = opened.map_err(|e| e.to_string())?;
            // Engine level: a compile on a cache miss, a template stamp on
            // a hit, as the service's session table does.
            let engine_ns = if info.cache_hit && templates.contains_key(&s) {
                trace::time(|| templates[&s].multi_stream(1)).0
            } else {
                let (automata_ns, ap_ns, processor) = compile(&set.rules)?;
                ladder.span("automata.compile", automata_ns);
                ladder.span("ap.compile", ap_ns);
                ladder.count("automata.states", processor.state_count() as u64);
                ladder.count("automata.sets", 1);
                templates.insert(s, processor);
                automata_ns + ap_ns
            };
            ladder.rungs.push(Rung {
                wire: wire_ns,
                serve: serve_ns,
                engine: engine_ns,
                crossbar: 0,
            });

            let template = &templates[&s];
            let mut lanes = template.multi_stream(LANES);
            // Control: the same lane slices through one single-stream
            // processor each.
            let mut singles: Vec<AutomataProcessor> = vec![template.clone(); LANES];
            for chunks in &set.chunks {
                let (wire_ns, fed) = trace::time(|| wire.ap_feed_many(wire_session, chunks));
                fed.map_err(|e| e.to_string())?;
                let (serve_ns, fed) =
                    trace::time(|| job(Job::ApFeedMany { session, chunks: chunks.clone() }));
                fed?;
                let (engine_ns, _) = trace::time(|| lanes.feed_many(chunks));
                let sliced_ns: u64 = singles
                    .iter_mut()
                    .zip(chunks)
                    .map(|(p, chunk)| trace::time(|| p.feed(chunk)).0)
                    .sum();
                ladder.span("ap.feed_many", engine_ns);
                ladder.span("ap.feed_sliced", sliced_ns);
                ladder.count("ap.symbols", (LANES * CHUNK) as u64);
                ladder.rungs.push(Rung {
                    wire: wire_ns,
                    serve: serve_ns,
                    engine: engine_ns,
                    crossbar: 0,
                });
            }

            let (wire_ns, runs) = trace::time(|| wire.ap_finish_many(wire_session));
            self.check(s, &runs.map_err(|e| e.to_string())?)?;
            let (serve_ns, runs) = trace::time(|| job(Job::ApFinishMany { session }));
            let runs = runs?.into_ap_finish_many().ok_or("ApFinishMany answered another output")?;
            self.check(s, &runs)?;
            let (engine_ns, _) = trace::time(|| lanes.finish_all());
            singles.iter_mut().for_each(|p| {
                p.finish();
            });
            ladder.span("ap.finish", engine_ns);
            ladder.rungs.push(Rung {
                wire: wire_ns,
                serve: serve_ns,
                engine: engine_ns,
                crossbar: 0,
            });

            let (wire_ns, closed) = trace::time(|| wire.ap_close(wire_session));
            closed.map_err(|e| e.to_string())?;
            let (serve_ns, closed) = trace::time(|| service.close_session(SERVE_TENANT, session));
            closed.map_err(|e| e.to_string())?;
            ladder.rungs.push(Rung { wire: wire_ns, serve: serve_ns, engine: 0, crossbar: 0 });
        }
        Ok(())
    }
}
