//! Reproducible performance report for the hot paths: AP symbol
//! streaming, bit-line transient solves, single crossbar operations
//! against their host-side control, and MVP bulk bitwise queries —
//! the latter on both the monolithic crossbar and a 64-bank
//! `BankedCrossbar` substrate driven through `MvpSimulator::run_batch` —
//! plus correlation detection, the static verifier and the
//! fault-tolerance yield harness.
//!
//! Every config here runs in process, off the served path. Served-path
//! numbers (service, scatter-gather, wire round trips, the compile
//! cache) have one home: the `wirebench` package's workloads
//! (`bitmap_wire`, `ap_stream_wire`, `corr_stream_wire`), which check
//! every answer. `serve_load` is the overload and chaos instrument.
//!
//! This is the workspace's one in-process timing harness. It runs
//! **fixed-seed** workloads and writes a **machine-readable** JSON
//! report so the repository can keep a committed performance trajectory
//! (`BENCH_ap_engine.json`) that future PRs extend and compare against.
//!
//! ```text
//! perf_report [--quick] [--out PATH] [--baseline PATH]
//! perf_report --check PATH
//! ```
//!
//! * `--quick` shrinks every workload (CI smoke mode; same seeds).
//! * `--out` sets the report path (default `BENCH_ap_engine.json`).
//! * `--baseline` embeds a previously written report under `"baseline"`,
//!   which is how before/after numbers land in one committed file.
//! * `--check` parses an existing report and fails (exit 1) if it is
//!   malformed, missing a required config or number, or a config's
//!   `ns_per_unit` lies outside its `ns_per_unit_min`..`ns_per_unit_max`
//!   spread — the CI guard.

use memcim_ap::{ApBackend, AutomataProcessor, RoutingKind};
use memcim_automata::{rules, PatternSet, StartKind};
use memcim_bench::json::{self, JsonValue};
use memcim_bench::yields::{self, YieldConfig};
use memcim_bits::BitVec;
use memcim_crossbar::{
    BankedCrossbar, BitlineCircuit, CellTechnology, CrossbarBackend, CrossbarError, ScoutingKind,
};
use memcim_mvp::workloads::bitmap::BitmapTable;
use memcim_mvp::MvpSimulator;
use memcim_serve::ServeConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Workload seed shared by every config (the paper's year).
const SEED: u64 = 2018;

/// Configs that must be present for a report to be considered complete
/// (the `--check` contract; also documented in the README).
const REQUIRED_CONFIGS: &[&str] = &[
    "engine_dense_RRAM-AP",
    "engine_dense_SRAM-AP",
    "engine_hierarchical_RRAM-AP",
    "ap_multistream",
    "software_bitparallel",
    "bitline_lumped_RRAM-AP",
    "bitline_lumped_SRAM-AP",
    "crossbar_ops",
    "crossbar_ops_host",
    "mvp_bitmap_query",
    "mvp_bitmap_query_banked",
    "correlation_detect",
    "verify_overhead",
    "yield_report",
];

struct ConfigResult {
    name: &'static str,
    /// What one unit is: `"symbol"`, `"solve"`, `"record"`.
    unit: &'static str,
    /// Units processed per timed iteration.
    units_per_iter: u64,
    iters: u64,
    wall: Duration,
    /// Time per unit of the fastest and of the slowest block (see
    /// [`measure`]): the run's noise spread.
    fastest: f64,
    slowest: f64,
}

impl ConfigResult {
    /// Mean time per unit over every timed call.
    fn ns_per_unit(&self) -> f64 {
        self.wall.as_nanos() as f64 / (self.iters * self.units_per_iter) as f64
    }

    /// Time per unit of the fastest and of the slowest block.
    fn ns_per_unit_spread(&self) -> (f64, f64) {
        (self.fastest, self.slowest)
    }

    fn units_per_sec(&self) -> f64 {
        1.0e9 / self.ns_per_unit()
    }
}

/// Equal-time blocks a config's budget is split into; the fastest and
/// slowest block's time per unit are its reported spread.
const BLOCKS: u32 = 10;

/// Times `f` (which processes `units_per_iter` units per call): one
/// warm-up call, then [`BLOCKS`] blocks of whole calls, each run until
/// its share of `budget` is spent (at least one call per block). The
/// mean is the unit-weighted average of the blocks, so the fastest and
/// slowest block bound it. Blocks rather than single calls: one
/// preempted call is a host stall, not the run-to-run spread, and a
/// per-call percentile would have to store every call of a
/// sub-microsecond config.
fn measure<F: FnMut()>(
    name: &'static str,
    unit: &'static str,
    units_per_iter: u64,
    budget: Duration,
    mut f: F,
) -> ConfigResult {
    f(); // warm-up
    let block_budget = budget / BLOCKS;
    let (mut iters, mut wall) = (0u64, Duration::ZERO);
    let (mut fastest, mut slowest) = (f64::INFINITY, 0.0f64);
    for _ in 0..BLOCKS {
        let start = Instant::now();
        let mut calls = 0u64;
        let block = loop {
            f();
            calls += 1;
            let elapsed = start.elapsed();
            if elapsed >= block_budget {
                break elapsed;
            }
        };
        let per_unit = block.as_nanos() as f64 / (calls * units_per_iter) as f64;
        fastest = fastest.min(per_unit);
        slowest = slowest.max(per_unit);
        iters += calls;
        wall += block;
    }
    let mut result = ConfigResult { name, unit, units_per_iter, iters, wall, fastest, slowest };
    // The weighted mean lies within the blocks' range; clamp so float
    // rounding cannot put it a hair outside.
    let mean = result.ns_per_unit();
    result.fastest = result.fastest.min(mean);
    result.slowest = result.slowest.max(mean);
    result
}

/// The crossbar-op rung on `bitmap_wire`'s geometry (32 rows × 64
/// banks × 32 columns, no faults). `crossbar_ops` runs a 2-row AND and
/// an 8-row OR scouting gate, one row read and one row write per
/// iteration; `crossbar_ops_host` is Fig. 3's data-movement control,
/// the same four ops as `BitVec` work on rows already on the host. The
/// write alternates two seeded patterns on a scratch row, so every
/// write flips cells. Both loops assert every result against the host
/// values, so the numbers describe a correct kernel.
fn crossbar_ops(budget: Duration) -> Result<[ConfigResult; 2], CrossbarError> {
    const OPERANDS: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
    const SCRATCH: usize = OPERANDS.len();
    let mut xbar = BankedCrossbar::rram(32, 64, 32);
    let cols = xbar.cols();
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut seeded =
        || BitVec::from_bools(&(0..cols).map(|_| rng.gen_bool(0.5)).collect::<Vec<_>>());
    let rows: Vec<BitVec> = OPERANDS.iter().map(|_| seeded()).collect();
    let patterns = [seeded(), seeded()];
    for (row, values) in rows.iter().enumerate() {
        xbar.program_row(row, values)?;
    }
    xbar.program_row(SCRATCH, &patterns[0])?;
    let flips = patterns[0].xor(&patterns[1]).count_ones() as u64;
    let gates = |rows: &[BitVec]| {
        let mut or = rows[0].clone();
        rows[1..].iter().for_each(|r| or.or_assign(r));
        (rows[0].and(&rows[1]), or)
    };
    let (and, or) = gates(&rows);

    let (mut next, mut failure) = (1, None);
    let mut op = || -> Result<(), CrossbarError> {
        assert_eq!(xbar.scouting(ScoutingKind::And, &OPERANDS[..2])?, and, "AND ≡ host");
        assert_eq!(xbar.scouting(ScoutingKind::Or, &OPERANDS)?, or, "OR ≡ host");
        assert_eq!(xbar.read_row(2)?, rows[2], "read ≡ host");
        assert_eq!(xbar.program_row(SCRATCH, &patterns[next])?, flips, "write ≡ host");
        next ^= 1;
        Ok(())
    };
    let device = measure("crossbar_ops", "op", 4, budget, || {
        if let Err(e) = op() {
            failure.get_or_insert(e);
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }

    let (mut scratch, mut next) = (patterns[0].clone(), 1);
    let host = measure("crossbar_ops_host", "op", 4, budget, || {
        let (host_and, host_or) = gates(&rows);
        assert!(host_and == and && host_or == or, "host gates");
        assert_eq!(std::hint::black_box(rows[2].clone()), rows[2], "host read");
        let changed = scratch.xor(&patterns[next]).count_ones() as u64;
        scratch.clone_from(&patterns[next]);
        assert_eq!(changed, flips, "host write");
        next ^= 1;
    });
    Ok([device, host])
}

fn run_workloads(quick: bool) -> Result<Vec<ConfigResult>, CrossbarError> {
    let budget = if quick { Duration::from_millis(20) } else { Duration::from_millis(400) };
    let mut results = Vec::new();

    // --- AP engine: synthetic rule set over synthetic traffic ----------
    let mut rng = SmallRng::seed_from_u64(SEED);
    let texts = rules::synthetic_rules(&mut rng, 16);
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let set = PatternSet::compile(&refs).expect("rules compile");
    let traffic_len = if quick { 1 << 12 } else { 1 << 16 };
    let traffic = rules::synthetic_traffic(&mut rng, set.patterns(), traffic_len, 32);
    let (homog, _) = set.to_homogeneous();
    let scanning = homog.with_start_kind(StartKind::AllInput);
    let symbols = traffic.len() as u64;

    for (name, backend) in
        [("engine_dense_RRAM-AP", ApBackend::rram()), ("engine_dense_SRAM-AP", ApBackend::sram())]
    {
        let mut ap =
            AutomataProcessor::compile(&scanning, backend, RoutingKind::Dense).expect("dense maps");
        results.push(measure(name, "symbol", symbols, budget, || {
            std::hint::black_box(ap.run(&traffic));
        }));
    }
    let mut hier = AutomataProcessor::compile(
        &scanning,
        ApBackend::rram(),
        RoutingKind::Hierarchical { block: 64, max_global: 1 << 16 },
    )
    .expect("hierarchical maps");
    results.push(measure("engine_hierarchical_RRAM-AP", "symbol", symbols, budget, || {
        std::hint::black_box(hier.run(&traffic));
    }));

    // --- Multi-stream AP: 8 lanes through one compiled automaton -------
    // The same hierarchical automaton, but the traffic is sliced into 8
    // independent streams fed one after another through a
    // MultiStreamProcessor's lanes — the same symbol kernel as the
    // single-stream configs, so any gain over
    // `engine_hierarchical_RRAM-AP` comes from the shorter streams, not
    // from sharing work across lanes. The lanes are finished each
    // iteration, so lane state never leaks across timed passes.
    {
        let streams = 8usize;
        let lane_len = traffic.len() / streams;
        let lanes: Vec<&[u8]> =
            (0..streams).map(|i| &traffic[i * lane_len..(i + 1) * lane_len]).collect();
        let mut msp = hier.multi_stream(streams);
        results.push(measure(
            "ap_multistream",
            "symbol",
            (lane_len * streams) as u64,
            budget,
            || {
                std::hint::black_box(msp.feed_many(&lanes));
                std::hint::black_box(msp.finish_all());
            },
        ));
    }
    let matrices = scanning.to_matrices();
    results.push(measure("software_bitparallel", "symbol", symbols, budget, || {
        std::hint::black_box(matrices.run(&traffic));
    }));

    // --- Bit-line transient solves (the spice hot path) ----------------
    let cells = if quick { 32 } else { 256 };
    for (name, tech) in [
        ("bitline_lumped_RRAM-AP", CellTechnology::rram_1t1r()),
        ("bitline_lumped_SRAM-AP", CellTechnology::sram_8t()),
    ] {
        let tech = tech.clone();
        results.push(measure(name, "solve", 1, budget, || {
            std::hint::black_box(
                BitlineCircuit::lumped(tech.clone(), cells).run().expect("bitline solves"),
            );
        }));
    }

    // --- Single crossbar operations and their host control ------------
    results.extend(crossbar_ops(budget)?);

    // --- MVP bulk bitwise query ----------------------------------------
    let records = if quick { 2_048 } else { 16_384 };
    let mut wrng = SmallRng::seed_from_u64(SEED);
    let col1: Vec<u8> = (0..records).map(|_| wrng.gen_range(0..16)).collect();
    let col2: Vec<u8> = (0..records).map(|_| wrng.gen_range(0..8)).collect();
    let table = BitmapTable::new(col1, col2, 16).expect("well-formed columns");
    let mut mvp = MvpSimulator::new(32, records);
    results.push(measure("mvp_bitmap_query", "record", records as u64, budget, || {
        std::hint::black_box(table.query_mvp(&mut mvp, &[1, 4, 9], &[0, 3]).expect("query runs"));
    }));

    // --- Banked MVP: a batch of queries on 64 parallel banks ------------
    // Same table and row width, but the vector processor stripes its
    // columns over 64 subarrays (the paper's "millions of subarrays"
    // organization at benchmark scale) and serves a burst of four
    // independent queries per iteration through one run_batch call.
    let queries: [(&[u8], &[u8]); 4] =
        [(&[1, 4, 9], &[0, 3]), (&[2, 5], &[1, 6]), (&[11], &[2, 4, 7]), (&[0, 8, 14], &[5])];
    let batch: Vec<_> = queries.iter().map(|(s1, s2)| table.query_plan(s1, s2)).collect();
    let mut banked = MvpSimulator::banked(32, 64, records / 64);
    results.push(measure(
        "mvp_bitmap_query_banked",
        "record",
        (records * queries.len()) as u64,
        budget,
        || {
            std::hint::black_box(banked.run_batch(&batch).expect("batch runs"));
        },
    ));

    // --- Streaming correlation detection --------------------------------
    // N event streams × T steps through the in-memory popcount/mask
    // kernel (arXiv:1706.00511 as an MVP workload) on a banked engine
    // with a served engine's rows, so the feed plan uses its pair stage
    // and resident streams, one 256-step window at a time; each unit is
    // one event stream-slot. The timed path is pinned bit-for-bit
    // against the software reference every iteration, so the number
    // reports the *correct* kernel, not a drifted one.
    {
        use memcim_mvp::correlation::{
            correlation_reference, CorrelationAccumulator, CorrelationConfig, EventStreams,
        };
        let steps = if quick { 256 } else { 768 };
        let cfg = CorrelationConfig {
            streams: 24,
            steps,
            rate: 0.25,
            strength: 0.95,
            groups: vec![vec![2, 7, 11, 19, 22], vec![4, 5, 9, 16, 21]],
        };
        let events = EventStreams::synthesize(&cfg, SEED).expect("corpus synthesizes");
        let reference = correlation_reference(events.data()).expect("well-formed corpus");
        let window = 256usize;
        let rows = ServeConfig::default().mvp_rows;
        let mut engine = MvpSimulator::banked(rows, 4, window / 4);
        results.push(measure(
            "correlation_detect",
            "event",
            (cfg.streams * steps) as u64,
            budget,
            || {
                let mut acc = CorrelationAccumulator::new(cfg.streams).expect("enough streams");
                let mut lo = 0;
                while lo < steps {
                    let hi = (lo + window).min(steps);
                    let slice = events.window(lo..hi).expect("range in corpus");
                    acc.feed_mvp(&mut engine, &slice).expect("engine fits the streams");
                    lo = hi;
                }
                assert_eq!(acc.scores(), reference, "timed path ≡ software reference");
                std::hint::black_box(acc.detect(cfg.threshold().expect("well-posed")));
            },
        ));
    }

    // --- Static verification overhead ------------------------------------
    // The full static pass of `memcim-verify` over one program: one
    // abstract-interpretation walk (`verify_program`) plus the static
    // cost bound (`CostModel::bound`). The serve admission gate never
    // runs `verify_program`: it checks each instruction's shape with
    // `Instruction::check`, and bounds cost only for a tenant with an
    // energy budget. The four query plans above are compiled for a
    // small served table (2 048 seeded records on a 32 × 64-bank
    // geometry), the same plans wirebench's `bitmap_wire` serves at its
    // default seed. ns/unit is the per-program cost of the static pass;
    // set it against `bitmap_wire`'s `req_p50_us` wire round trip.
    {
        let verify_records = 2_048usize;
        let mut vrng = SmallRng::seed_from_u64(SEED);
        let col1: Vec<u8> = (0..verify_records).map(|_| vrng.gen_range(0..16)).collect();
        let col2: Vec<u8> = (0..verify_records).map(|_| vrng.gen_range(0..8)).collect();
        let verify_table = BitmapTable::new(col1, col2, 16).expect("well-formed columns");
        let verify_plans: Vec<Vec<memcim_mvp::Instruction>> =
            queries.iter().map(|(s1, s2)| verify_table.query_plan(s1, s2)).collect();
        let rows = 32usize;
        let model = memcim_verify::CostModel::banked(rows, 64, verify_records / 64);
        results.push(measure(
            "verify_overhead",
            "program",
            verify_plans.len() as u64,
            budget,
            || {
                for plan in &verify_plans {
                    let diagnostics = memcim_verify::verify_program(plan, rows, verify_records);
                    assert!(
                        memcim_verify::first_error(&diagnostics).is_none(),
                        "the served plans are valid"
                    );
                    std::hint::black_box(model.bound(plan));
                }
            },
        ));
    }

    // --- Fault-tolerance yield harness ---------------------------------
    // One Monte-Carlo batch per iteration: manufacture ECC-protected,
    // spare-repaired arrays at a defective corner (0.5 % stuck cells),
    // run the repair audit and the scouting workload, score against the
    // software reference. Timing it here keeps the reliability machinery
    // on the committed performance trajectory; the full density ×
    // endurance sweep lives in BENCH_yield.json (`yield_report` binary).
    let yield_cfg = if quick { YieldConfig::quick() } else { YieldConfig::full() };
    results.push(measure("yield_report", "trial", u64::from(yield_cfg.trials), budget, || {
        std::hint::black_box(yields::run_point(&yield_cfg, 0.005, 1_000_000, SEED));
    }));

    Ok(results)
}

fn render_report(results: &[ConfigResult], quick: bool, baseline: Option<&str>) -> String {
    // Recording the host's parallelism makes a committed report
    // interpretable next to a rerun on different hardware.
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"memcim-perf-report/v1\",\n");
    out.push_str("  \"bench\": \"ap_engine\",\n");
    out.push_str(&format!("  \"mode\": \"{}\",\n", if quick { "quick" } else { "full" }));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!("  \"host_cores\": {cores},\n"));
    out.push_str("  \"configs\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", json::escape(r.name)));
        out.push_str(&format!("      \"unit\": \"{}\",\n", json::escape(r.unit)));
        out.push_str(&format!("      \"units_per_iter\": {},\n", r.units_per_iter));
        out.push_str(&format!("      \"iters\": {},\n", r.iters));
        out.push_str(&format!("      \"wall_ms\": {:.3},\n", r.wall.as_secs_f64() * 1e3));
        let (min, max) = r.ns_per_unit_spread();
        out.push_str(&format!("      \"ns_per_unit\": {:.3},\n", r.ns_per_unit()));
        out.push_str(&format!("      \"ns_per_unit_min\": {min:.3},\n"));
        out.push_str(&format!("      \"ns_per_unit_max\": {max:.3},\n"));
        out.push_str(&format!("      \"units_per_sec\": {:.1}\n", r.units_per_sec()));
        out.push_str(if i + 1 == results.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ]");
    if let Some(raw) = baseline {
        out.push_str(",\n  \"baseline\": ");
        out.push_str(raw.trim());
        out.push('\n');
    } else {
        out.push('\n');
    }
    out.push_str("}\n");
    out
}

/// Drops a previous report's own nested `"baseline"` member so the
/// committed trajectory stays exactly one level deep (current numbers
/// plus the immediately preceding ones) instead of accreting a full
/// copy of all history on every regeneration. Reports are written by
/// this binary with a fixed layout, so the member is located textually;
/// the result is re-validated by `json::parse` before use.
fn strip_nested_baseline(text: &str) -> String {
    match text.find(",\n  \"baseline\":") {
        Some(idx) => {
            let mut out = text[..idx].to_string();
            out.push_str("\n}\n");
            out
        }
        None => text.to_string(),
    }
}

/// Validates a written report: parses, checks the schema tag and that
/// every required config is present with sane numbers, its per-unit
/// spread included (`ns_per_unit_min` ≤ `ns_per_unit` ≤
/// `ns_per_unit_max`). A nested baseline is not checked.
fn check_report(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some("memcim-perf-report/v1") => {}
        other => return Err(format!("unexpected schema tag {other:?}")),
    }
    let configs = doc
        .get("configs")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing \"configs\" array".to_string())?;
    for required in REQUIRED_CONFIGS {
        let entry = configs
            .iter()
            .find(|c| c.get("name").and_then(JsonValue::as_str) == Some(required))
            .ok_or_else(|| format!("missing config {required:?}"))?;
        let number = |field: &str| {
            let x = entry
                .get(field)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("config {required:?}: missing number {field:?}"))?;
            if !(x.is_finite() && x > 0.0) {
                return Err(format!("config {required:?}: {field} = {x} is not positive"));
            }
            Ok(x)
        };
        for field in ["units_per_sec", "wall_ms"] {
            number(field)?;
        }
        let (min, mean, max) =
            (number("ns_per_unit_min")?, number("ns_per_unit")?, number("ns_per_unit_max")?);
        if !(min <= mean && mean <= max) {
            return Err(format!(
                "config {required:?}: ns_per_unit {mean} lies outside its spread {min}..{max}"
            ));
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_path = "BENCH_ap_engine.json".to_string();
    let mut baseline_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--baseline" => {
                baseline_path = Some(it.next().expect("--baseline needs a path").clone())
            }
            "--check" => check_path = Some(it.next().expect("--check needs a path").clone()),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: perf_report [--quick] [--out PATH] [--baseline PATH] | --check PATH"
                );
                std::process::exit(2);
            }
        }
    }

    if let Some(path) = check_path {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        match check_report(&text) {
            Ok(()) => {
                println!("{path}: OK ({} required configs present)", REQUIRED_CONFIGS.len());
                return;
            }
            Err(message) => {
                eprintln!("{path}: INVALID — {message}");
                std::process::exit(1);
            }
        }
    }

    let baseline = baseline_path.map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let text = strip_nested_baseline(&text);
        json::parse(&text).unwrap_or_else(|e| panic!("baseline {path} is not valid JSON: {e}"));
        text
    });

    let results = match run_workloads(quick) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("perf_report: a workload failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{}",
        memcim_bench::table(
            &["config", "unit", "ns/unit", "min", "max", "units/s", "iters"],
            &results
                .iter()
                .map(|r| vec![
                    r.name.to_string(),
                    r.unit.to_string(),
                    memcim_bench::fmt(r.ns_per_unit(), 2),
                    memcim_bench::fmt(r.ns_per_unit_spread().0, 2),
                    memcim_bench::fmt(r.ns_per_unit_spread().1, 2),
                    memcim_bench::fmt(r.units_per_sec(), 0),
                    r.iters.to_string(),
                ])
                .collect::<Vec<_>>(),
        )
    );

    let report = render_report(&results, quick, baseline.as_deref());
    check_report(&report).expect("generated report must validate");
    std::fs::write(&out_path, &report).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One fake result per required config, with sane positive numbers.
    fn complete_results() -> Vec<ConfigResult> {
        REQUIRED_CONFIGS
            .iter()
            .map(|name| ConfigResult {
                name,
                unit: "unit",
                units_per_iter: 100,
                iters: 10,
                wall: Duration::from_millis(5),
                fastest: 4000.0,
                slowest: 7000.0,
            })
            .collect()
    }

    #[test]
    fn a_complete_report_validates() {
        let report = render_report(&complete_results(), true, None);
        check_report(&report).expect("all required configs present");
    }

    #[test]
    fn a_missing_required_config_fails_loudly_by_name() {
        // Every required config must be individually load-bearing: drop
        // each one in turn and the validator must name exactly it.
        for victim in REQUIRED_CONFIGS {
            let results: Vec<ConfigResult> =
                complete_results().into_iter().filter(|r| r.name != *victim).collect();
            let report = render_report(&results, true, None);
            let err = check_report(&report).expect_err("a required config is missing");
            assert!(err.contains(victim), "error {err:?} names the missing config {victim:?}");
        }
    }

    #[test]
    fn the_new_pr10_configs_are_required() {
        for name in ["ap_multistream", "crossbar_ops", "crossbar_ops_host"] {
            assert!(REQUIRED_CONFIGS.contains(&name), "{name} must be in the --check contract");
        }
    }

    #[test]
    fn the_crossbar_rung_agrees_with_its_host_control() {
        // A tiny budget still runs the warm-up and one timed iteration
        // of each loop, so every crossbar ≡ host assert fires.
        let [device, host] = crossbar_ops(Duration::from_micros(1)).expect("rung runs");
        assert_eq!((device.name, host.name), ("crossbar_ops", "crossbar_ops_host"));
        assert!(device.iters >= 1 && host.iters >= 1);
        assert_eq!((device.unit, device.units_per_iter), ("op", 4));
    }

    #[test]
    fn non_positive_or_missing_numbers_are_refused() {
        // A syntactically valid report whose first config claims a zero
        // per-unit time (all complete_results timings render alike).
        let report = render_report(&complete_results(), true, None);
        let zeroed = report.replacen("\"ns_per_unit\": 5000.000", "\"ns_per_unit\": 0.000", 1);
        assert_ne!(zeroed, report, "the corruption took");
        let err = check_report(&zeroed).expect_err("zero timings are invalid");
        assert!(err.contains("not positive"), "{err}");

        let err = check_report("{\"schema\": \"memcim-perf-report/v1\"}")
            .expect_err("a report without configs is invalid");
        assert!(err.contains("configs"), "{err}");

        let err = check_report("{\"schema\": \"something-else\"}")
            .expect_err("a foreign schema tag is invalid");
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn the_spread_is_required_and_must_bound_the_mean() {
        let report = render_report(&complete_results(), true, None);
        assert!(report.contains("\"ns_per_unit_min\": 4000.000"), "{report}");
        assert!(report.contains("\"ns_per_unit_max\": 7000.000"), "{report}");
        let missing = report.replacen("\"ns_per_unit_max\"", "\"slowest\"", 1);
        let err = check_report(&missing).expect_err("the spread is required");
        assert!(err.contains("ns_per_unit_max"), "{err}");
        let inverted =
            report.replacen("\"ns_per_unit_min\": 4000.000", "\"ns_per_unit_min\": 6000.000", 1);
        assert_ne!(inverted, report, "the corruption took");
        let err = check_report(&inverted).expect_err("the mean lies below the minimum");
        assert!(err.contains("outside its spread"), "{err}");
    }

    #[test]
    fn a_measured_spread_bounds_the_mean() {
        let mut calls = 0u64;
        let r = measure("spread", "call", 3, Duration::from_millis(2), || {
            calls += 1;
            std::hint::black_box((0..calls % 7 * 100).sum::<u64>());
        });
        let (min, max) = r.ns_per_unit_spread();
        assert!(
            min <= r.ns_per_unit() && r.ns_per_unit() <= max,
            "{min} {} {max}",
            r.ns_per_unit()
        );
    }

    #[test]
    fn baselines_nest_exactly_one_level() {
        let inner = render_report(&complete_results(), true, None);
        let outer = render_report(&complete_results(), true, Some(&inner));
        check_report(&outer).expect("a report with a baseline validates");
        let stripped = strip_nested_baseline(&outer);
        assert!(!stripped.contains("baseline"), "the nested baseline is dropped");
        check_report(&stripped).expect("the stripped report still validates");
    }
}
