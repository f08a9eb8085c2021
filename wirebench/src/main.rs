//! Seeded wire-level benchmark of the memcim serving stack.
//!
//! ```text
//! wirebench --workload <bitmap_wire|ap_stream_wire|corr_stream_wire>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs against a live in-process `Service` + `NetServer`
//! on loopback, loaded by a closed loop of 2 client threads (one
//! connection and one tenant each) over a 2-worker service. Every answer
//! is checked against a software reference and the server's books are
//! reconciled over the wire at the end.
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` runs an
//! untraced and a traced half-length phase (crossbar spans from a timing
//! substrate installed in the service) and then replays the workload's
//! first requests down a ladder — `NetClient` round trip, direct
//! `Service` call, engine-level calls — to report per-layer metrics.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The run exits with
//! code 1 when any answer or count is wrong, and 2 on bad arguments or a
//! `BENCHMARK.json` that does not declare what this program measures.

mod ap;
mod bitmap;
mod corr;
mod live;
mod spec;
mod stats;
mod trace;

use live::{LiveRun, Script, Stack, Tally, CLIENTS};
use memcim_serve::net::{WireStats, WireUsage};
use memcim_serve::{BoxedBackend, ServeConfig};
use std::collections::BTreeMap;
use trace::{Ladder, OpLog, SharedLog, TimingBackend};

/// What the harness needs from a workload.
pub trait Workload: Sync {
    /// The service configuration the workload is served with.
    fn config(&self) -> ServeConfig;
    /// Closed-loop client threads.
    fn clients(&self) -> usize {
        CLIENTS
    }
    /// Client `client`'s request sequence.
    fn script(&self, client: usize) -> Box<dyn Script + '_>;
    /// Reconciles what the clients counted with the server's books.
    fn check_books(
        &self,
        tallies: &[Tally],
        usages: &[WireUsage],
        stats: &WireStats,
    ) -> Vec<String>;
    /// Modelled energy (nJ) and busy time (ns) per work unit, from a
    /// deterministic single-threaded replay of a fixed prefix of client
    /// 0's requests on one engine.
    fn sim(&self) -> Result<(f64, f64), String>;
    /// Replays a prefix of client 0's requests down the ladder on an
    /// idle `stack`, with crossbar spans of ladder engines in `log`.
    fn ladder(&self, stack: &Stack, log: &SharedLog, ladder: &mut Ladder) -> Result<(), String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: String::new(), seed: 2018, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !spec::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {:?}", spec::WORKLOADS));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Fresh stacks per end-to-end run, each measured for an equal share of
/// it. Every timed figure is a median over the steady-state windows of
/// all of them (see [`live::WINDOWS`]), so a stall of the shared host
/// that spans a few windows, or one unlucky thread placement, moves it
/// little.
const SUB_RUNS: usize = 4;

/// Set-ups timed per end-to-end run (the sub-runs' own included);
/// `setup_s` is their median.
const SETUP_REPS: usize = 101;

/// The tail percentile reported, `req_p90_us`. A window of the slowest
/// workload holds a few hundred requests, enough for ten beyond p90 but
/// not beyond p99.
const TAIL: f64 = 0.90;

/// One closed-loop phase on a freshly set-up stack.
struct Phase {
    setup_s: f64,
    run: LiveRun,
    stats: WireStats,
    problems: Vec<String>,
}

fn live_phase(w: &dyn Workload, config: ServeConfig, seconds: f64) -> Result<Phase, String> {
    let (setup_s, stack, clients) = live::setup(&config, w.clients())?;
    let scripts = (0..w.clients()).map(|c| w.script(c)).collect();
    let run = live::drive(clients, scripts, seconds);
    let (usages, stats) = live::books(&stack, w.clients())?;
    stack.stop();
    let tallies: Vec<Tally> = run.recs.iter().map(|r| r.tally).collect();
    let mut problems: Vec<String> =
        run.recs.iter().flat_map(|r| r.errors.iter().cloned()).collect();
    problems.extend(live::check_health(&stats));
    problems.extend(w.check_books(&tallies, &usages, &stats));
    Ok(Phase { setup_s, run, stats, problems })
}

type Metrics = Vec<(&'static str, f64)>;

fn end_to_end(w: &dyn Workload, seconds: f64) -> Result<(Vec<Phase>, Metrics), String> {
    let phases = (0..SUB_RUNS)
        .map(|_| live_phase(w, w.config(), seconds / SUB_RUNS as f64))
        .collect::<Result<Vec<_>, _>>()?;
    // Read before the extra set-ups below, whose torn-down engines
    // would otherwise add allocator garbage to the high-water mark.
    let peak_rss_mib = live::peak_rss_mib()?;
    let mut setups: Vec<f64> = phases.iter().map(|p| p.setup_s).collect();
    while setups.len() < SETUP_REPS {
        let (seconds, stack, clients) = live::setup(&w.config(), w.clients())?;
        drop(clients);
        stack.stop();
        setups.push(seconds);
    }
    let windows: Vec<live::Window> = phases.iter().flat_map(|p| p.run.windows()).collect();
    let per_window =
        |f: &dyn Fn(&live::Window) -> f64| -> Vec<f64> { windows.iter().map(f).collect() };
    let throughputs = per_window(&|w| w.work as f64 / w.seconds);
    let p50s = per_window(&|w| stats::median(&w.lat_us));
    let tails: Vec<f64> = windows
        .iter()
        .filter_map(|w| stats::percentile(&w.lat_us, TAIL).ok())
        .map(|p| p.value)
        .collect();
    if windows.is_empty() || tails.len() * 2 < windows.len() {
        return Err(format!(
            "req_p90_us needs 100 answered requests in most windows; {} of {} windows had them \
             (run longer)",
            tails.len(),
            windows.len()
        ));
    }
    let attempted = phases.iter().map(|p| p.run.sum(|r| r.attempted)).sum::<u64>() as f64;
    let failed = phases.iter().map(|p| p.run.sum(|r| r.failed)).sum::<u64>() as f64;
    let (sim_nj, sim_ns) = w.sim()?;
    let metrics = vec![
        ("work_per_s", stats::median(&throughputs)),
        ("req_p50_us", stats::median(&p50s)),
        ("req_p90_us", stats::median(&tails)),
        ("ok_frac", 1.0 - failed / attempted.max(1.0)),
        ("setup_s", stats::median(&setups)),
        ("peak_rss_mib", peak_rss_mib),
        ("sim_energy_nj_per_work", sim_nj),
        ("sim_time_ns_per_work", sim_ns),
    ];
    let samples: Vec<f64> = windows.iter().map(|w| w.lat_us.len() as f64).collect();
    let list = |v: &[f64]| v.iter().map(|x| format!("{x:.1}")).collect::<Vec<_>>().join(" ");
    println!(
        "requests: {attempted} sent; {} steady windows of {:.2} s, median {} answered per \
         window, {} supporting p90",
        windows.len(),
        windows[0].seconds,
        stats::median(&samples),
        tails.len()
    );
    println!("windows work_per_s: {}", list(&throughputs));
    println!("windows req_p50_us: {}", list(&p50s));
    println!("windows req_p90_us: {}", list(&tails));
    println!("set-ups (us): {}", list(&setups.iter().map(|s| s * 1e6).collect::<Vec<_>>()));
    Ok((phases, metrics))
}

/// A traced run: untraced and traced quarters alternate, so a drift of
/// the host's speed during the run biases neither side of
/// `trace.overhead_frac`; then the ladder replays on an idle stack.
fn traced(w: &dyn Workload, seconds: f64) -> Result<(Vec<Phase>, usize, Metrics), String> {
    let log = SharedLog::default();
    let base = w.config();
    let (rows, banks, bank_cols) = (base.mvp_rows, base.mvp_banks, base.mvp_bank_cols);
    let mut phases = Vec::with_capacity(4);
    for quarter in 0..4 {
        let config = if quarter % 2 == 0 {
            base.clone()
        } else {
            let log = log.clone();
            base.clone().with_engine_factory(move |_| -> BoxedBackend {
                Box::new(TimingBackend::new(rows, banks, bank_cols, log.clone()))
            })
        };
        phases.push(live_phase(w, config, seconds / 4.0)?);
    }

    let stack = Stack::start(base)?;
    let mut ladder = Ladder::default();
    let replayed = w.ladder(&stack, &SharedLog::default(), &mut ladder);
    stack.stop();
    replayed?;
    let untraced: Vec<&Phase> = phases.iter().step_by(2).collect();
    let traced: Vec<&Phase> = phases.iter().skip(1).step_by(2).collect();
    let metrics = per_layer(&untraced, &traced, &trace::lock(&log), &ladder);
    let rungs = ladder.rungs.len();
    Ok((phases, rungs, metrics))
}

/// Every answered request's latency over `phases`, in microseconds,
/// sorted.
fn pooled_us(phases: &[&Phase]) -> Vec<f64> {
    let mut all: Vec<f64> = phases.iter().flat_map(|p| p.run.sorted_us()).collect();
    all.sort_by(f64::total_cmp);
    all
}

fn per_layer(untraced: &[&Phase], traced: &[&Phase], log: &OpLog, ladder: &Ladder) -> Metrics {
    use stats::median;
    let to_f64 = |v: &[u64]| -> Vec<f64> { v.iter().map(|&x| x as f64).collect() };
    let traced_sum = |f: fn(&WireStats) -> u64| traced.iter().map(|p| f(&p.stats)).sum::<u64>();
    let live_reqs = traced.iter().map(|p| p.run.sum(|r| r.attempted)).sum::<u64>().max(1) as f64;
    let reqs = ladder.rungs.len().max(1) as f64;
    let per_req = |name: &str| ladder.counter(name) as f64 / reqs;
    let rung_us = |f: fn(&trace::Rung) -> i64| -> Vec<f64> {
        ladder.rungs.iter().map(|r| f(r) as f64 / 1e3).collect()
    };
    let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
    let bursts: Vec<u64> =
        traced.iter().flat_map(|p| &p.run.recs).flat_map(|r| r.bursts.iter().copied()).collect();
    let (mvp_hits, mvp_misses) =
        (traced_sum(|s| s.mvp_cache_hits), traced_sum(|s| s.mvp_cache_misses));
    let (ap_hits, ap_misses) = (traced_sum(|s| s.ap_cache_hits), traced_sum(|s| s.ap_cache_misses));
    let refused: u64 = untraced.iter().chain(traced).map(|p| p.run.sum(|r| r.refused)).sum();

    let net_self = median(&rung_us(|r| r.wire as i64 - r.serve as i64));
    let serve_self = median(&rung_us(|r| r.serve as i64 - r.engine as i64));
    let engine_self = median(&rung_us(|r| r.engine as i64 - r.crossbar as i64));
    let crossbar = median(&rung_us(|r| r.crossbar as i64));
    let path = net_self + serve_self + engine_self + crossbar;
    let traced_p50 = median(&pooled_us(traced));
    let untraced_p50 = median(&pooled_us(untraced));
    println!(
        "blocking path (ladder medians, us): net.self {net_self:.2} + serve.self {serve_self:.2} \
         + engine.self {engine_self:.2} + crossbar {crossbar:.2} = {path:.2} \
         vs untraced req_p50 {untraced_p50:.2} (gap {:.2})",
        untraced_p50 - path
    );

    vec![
        ("crossbar.program_row.ns_p50", median(&to_f64(&log.program_row))),
        ("crossbar.scouting.ns_p50", median(&to_f64(&log.scouting))),
        ("crossbar.read_row.ns_p50", median(&to_f64(&log.read_row))),
        ("crossbar.program_row.per_req", log.program_row.len() as f64 / live_reqs),
        ("crossbar.scouting.per_req", log.scouting.len() as f64 / live_reqs),
        ("crossbar.read_row.per_req", log.read_row.len() as f64 / live_reqs),
        ("crossbar.self_us_per_req", log.total_ns as f64 / 1e3 / live_reqs),
        ("mvp.run_program_us_p50", median(&ladder.us("mvp.run_program"))),
        ("mvp.self_us_p50", median(&ladder.us("mvp.self"))),
        ("mvp.instructions_per_req", per_req("mvp.instructions")),
        ("mvp.corr_plan_us_p50", median(&ladder.us("mvp.corr_plan"))),
        ("verify.program_us_p50", median(&ladder.us("verify.program"))),
        ("verify.calls_per_req", per_req("verify.calls")),
        ("serve.call_us_p50", median(&rung_us(|r| r.serve as i64))),
        ("serve.self_us_p50", serve_self),
        ("serve.burst_jobs_mean", ratio(bursts.iter().sum(), bursts.len() as u64)),
        ("serve.verify_cache_hit_ratio", ratio(mvp_hits, mvp_hits + mvp_misses)),
        ("serve.ap_cache_hit_ratio", ratio(ap_hits, ap_hits + ap_misses)),
        ("serve.routing_fallbacks", traced_sum(|s| s.routing_fallbacks) as f64),
        ("placement.scatter_us_p50", median(&ladder.us("placement.scatter"))),
        ("placement.subqueries_per_req", per_req("placement.subqueries")),
        ("net.call_us_p50", median(&rung_us(|r| r.wire as i64))),
        ("net.self_us_p50", net_self),
        ("net.refused", refused as f64),
        ("automata.compile_us_p50", median(&ladder.us("automata.compile"))),
        (
            "automata.states_per_set",
            ratio(ladder.counter("automata.states"), ladder.counter("automata.sets")),
        ),
        ("ap.compile_us_p50", median(&ladder.us("ap.compile"))),
        (
            "ap.feed_many_ns_per_symbol",
            ratio(ladder.total_ns("ap.feed_many"), ladder.counter("ap.symbols")),
        ),
        (
            "ap.feed_sliced_ns_per_symbol",
            ratio(ladder.total_ns("ap.feed_sliced"), ladder.counter("ap.symbols")),
        ),
        ("ap.finish_us_p50", median(&ladder.us("ap.finish"))),
        ("trace.req_p50_us", traced_p50),
        ("trace.untraced_req_p50_us", untraced_p50),
        (
            "trace.overhead_frac",
            if untraced_p50 > 0.0 { traced_p50 / untraced_p50 - 1.0 } else { 0.0 },
        ),
        ("trace.path_self_sum_us", path),
        ("trace.path_gap_us", untraced_p50 - path),
    ]
}

fn run(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let workload: Box<dyn Workload> = match args.workload.as_str() {
        "bitmap_wire" => Box::new(bitmap::Bitmap::new(args.seed)?),
        "ap_stream_wire" => Box::new(ap::ApStream::new(args.seed)?),
        _ => Box::new(corr::CorrStream::new(args.seed)?),
    };
    println!("clients={} workers={}", workload.clients(), live::WORKERS);
    let (phases, ladder_requests, metrics) = if args.trace {
        traced(workload.as_ref(), args.seconds)?
    } else {
        let (phases, metrics) = end_to_end(workload.as_ref(), args.seconds)?;
        (phases, 0, metrics)
    };
    let attempted =
        phases.iter().map(|p| p.run.sum(|r| r.attempted)).sum::<u64>() + ladder_requests as u64;
    let failed = phases.iter().map(|p| p.run.sum(|r| r.failed)).sum::<u64>();
    let mut problems: Vec<String> = phases.iter().flat_map(|p| p.problems.clone()).collect();
    let declared = if args.trace { spec::PER_LAYER } else { spec::END_TO_END };
    if metrics.iter().map(|m| m.0).ne(declared.iter().map(|d| d.0)) {
        problems.push("the emitted metrics differ from the declared list".into());
    }
    for problem in &problems {
        println!("problem: {problem}");
    }
    let correct = failed == 0 && problems.is_empty() && metrics.iter().all(|(_, v)| v.is_finite());
    Ok((correct, attempted, failed, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wirebench: {e}");
            eprintln!("usage: wirebench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| spec::check_benchmark_json(&text));
    if let Err(e) = declared {
        eprintln!("wirebench: {e}");
        std::process::exit(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "wirebench {} seed={} seconds={} trace={} host_cores={cores}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (correct, attempted, failed, metrics) = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(1);
        }
    };
    let units: BTreeMap<&str, &str> =
        spec::END_TO_END.iter().chain(spec::PER_LAYER).copied().collect();
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, value) in &metrics {
        let unit = units[name];
        println!("{name:<32} {value} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
