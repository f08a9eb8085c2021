//! `memcim-lint`: offline static checks for the built-in workloads.
//!
//! Verifies every built-in MVP plan shape (bitmap queries, sharded
//! queries, k-mer filters, the ripple-carry adder step, BFS frontier
//! expansion; all but the adder step end in a sensed gate) against its
//! target geometry, prints each plan's static
//! cost bound, and analyzes the synthetic rule corpus's compiled
//! automata for unreachable/dead STEs — asserting that the stripped
//! automaton stays run-equivalent on sampled traffic.
//!
//! Exit status: `0` when no Error-severity diagnostic (and no
//! equivalence violation) is found, `1` otherwise. CI smoke-runs this
//! binary.

use memcim_automata::{rules, PatternSet};
use memcim_mvp::workloads::{bitmap::BitmapTable, kmer::ShiftedBaseIndex};
use memcim_mvp::{Instruction, ShardMap};
use memcim_verify::{AutomatonReport, CostModel, Severity};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fixed seed: the lint corpus is deterministic.
const SEED: u64 = 2018;

struct Lint {
    verbose: bool,
    errors: usize,
    lints: usize,
}

impl Lint {
    fn check(&mut self, name: &str, program: &[Instruction], rows: usize, width: usize) {
        let diagnostics = memcim_verify::verify_program(program, rows, width);
        let bound = CostModel::new(rows, width).bound(program);
        for d in &diagnostics {
            match d.severity() {
                Severity::Error => self.errors += 1,
                Severity::Lint => self.lints += 1,
            }
            println!("{name}: {d}");
        }
        let verdict =
            if memcim_verify::first_error(&diagnostics).is_some() { "FAIL" } else { "ok" };
        if self.verbose || verdict == "FAIL" {
            println!(
                "{name}: {verdict} — {} instructions, {} diagnostics, bound {} scouting / {} programs / {:.3e} J / {:.3e} s",
                program.len(),
                diagnostics.len(),
                bound.scouting_ops,
                bound.programs,
                bound.energy.as_joules(),
                bound.busy.as_seconds(),
            );
        }
    }
}

fn main() {
    let mut verbose = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--verbose" | "-v" => verbose = true,
            other => {
                eprintln!("usage: memcim-lint [--verbose]   (unknown argument {other:?})");
                std::process::exit(2);
            }
        }
    }
    let mut lint = Lint { verbose, errors: 0, lints: 0 };

    check_bitmap_plans(&mut lint);
    check_kmer_plans(&mut lint);
    check_adder_step(&mut lint);
    check_bfs_expansion(&mut lint);
    let equivalence_ok = check_rule_corpus(&mut lint);

    println!(
        "memcim-lint: {} error(s), {} lint(s), strip equivalence {}",
        lint.errors,
        lint.lints,
        if equivalence_ok { "ok" } else { "VIOLATED" }
    );
    if lint.errors > 0 || !equivalence_ok {
        std::process::exit(1);
    }
}

/// Bitmap query plans, whole-table and sharded, over a deterministic
/// 2048-record table (the `perf_report` workload's shape).
fn check_bitmap_plans(lint: &mut Lint) {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let records = 2048;
    let col1: Vec<u8> = (0..records).map(|_| rng.gen_range(0..16)).collect();
    let col2: Vec<u8> = (0..records).map(|_| rng.gen_range(0..16)).collect();
    let table = BitmapTable::new(col1, col2, 16).expect("deterministic columns are well-formed");
    let queries: [(&[u8], &[u8]); 3] = [(&[1, 3, 5], &[0, 2]), (&[7], &[7]), (&[0, 1, 2, 3], &[4])];
    for (i, (s1, s2)) in queries.iter().enumerate() {
        let plan = table.query_plan(s1, s2);
        lint.check(&format!("bitmap_query[{i}]"), &plan, 32, records);
    }
    let map = ShardMap::new(records, 4).expect("valid geometry");
    for (i, range) in map.ranges().enumerate() {
        let plan = table.shard_query_plan(&[1, 3], &[0, 2], range, 512).expect("plan compiles");
        lint.check(&format!("bitmap_shard[{i}]"), &plan, 16, 512);
    }
}

/// k-mer filter plans over a deterministic genome with planted motifs.
fn check_kmer_plans(lint: &mut Lint) {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let bases = [b'A', b'C', b'G', b'T'];
    let mut genome: Vec<u8> = (0..700).map(|_| bases[rng.gen_range(0..4usize)]).collect();
    for at in [50usize, 340, 650] {
        genome[at..at + 5].copy_from_slice(b"GATTA");
    }
    let index = ShiftedBaseIndex::build(&genome, 5).expect("clean genome");
    let positions = index.positions();
    let full = index.shard_find_plan(b"GATTA", 0..positions, positions).expect("plan compiles");
    lint.check("kmer_full", &full, 8, positions);
    let map = ShardMap::new(positions, 3).expect("valid geometry");
    for (i, range) in map.ranges().enumerate() {
        let plan = index.shard_find_plan(b"GATTA", range, 256).expect("plan compiles");
        lint.check(&format!("kmer_shard[{i}]"), &plan, 8, 256);
    }
}

/// One ripple-carry step of the in-memory adder (`arith.rs`): the
/// 5-scouting-op inner program plus carry setup.
fn check_adder_step(lint: &mut Lint) {
    let width = 16;
    let zeros = || memcim_bits::BitVec::new(width);
    let program = vec![
        Instruction::Store { row: 6, data: zeros() }, // carry-in = 0
        Instruction::Store { row: 0, data: zeros() }, // aᵢ
        Instruction::Store { row: 1, data: zeros() }, // bᵢ
        Instruction::Xor { a: 0, b: 1, dst: Some(2) }, // t
        Instruction::Xor { a: 2, b: 6, dst: Some(3) }, // sᵢ
        Instruction::And { srcs: vec![0, 1], dst: Some(4) }, // g
        Instruction::And { srcs: vec![6, 2], dst: Some(5) }, // p
        Instruction::Or { srcs: vec![4, 5], dst: Some(7) }, // c'
        Instruction::Read { row: 3 },
        Instruction::Read { row: 7 },
    ];
    lint.check("adder_step", &program, 8, width);
}

/// One BFS frontier-expansion chunk (`workloads::bfs`): stores plus a
/// sensed multi-way OR, whose result is the chunk's output.
fn check_bfs_expansion(lint: &mut Lint) {
    let n = 64;
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut program: Vec<Instruction> = (0..4)
        .map(|i| Instruction::Store { row: i, data: (0..n).map(|_| rng.gen_bool(0.1)).collect() })
        .collect();
    program.push(Instruction::Or { srcs: vec![0, 1, 2, 3], dst: None });
    lint.check("bfs_expansion", &program, 8, n);
}

/// The synthetic DPI rule corpus: compile, analyze the full machine
/// (the regex compiler emits trim automata, so this should be
/// minimal), then specialize to an enabled-rule subset — disabling
/// rules leaves their exclusive states dead — and verify that the
/// stripped subset machine stays run-equivalent on sampled traffic.
/// Returns `false` on an equivalence violation.
fn check_rule_corpus(lint: &mut Lint) -> bool {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let patterns = rules::synthetic_rules(&mut rng, 24);
    let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
    let set = PatternSet::compile(&refs).expect("generated rules parse");
    let (homog, owner) = set.to_homogeneous();
    let full = AutomatonReport::analyze(&homog);
    println!(
        "rule_corpus: {} patterns, {} STEs ({} unreachable, {} dead){}",
        set.len(),
        homog.state_count(),
        full.unreachable().len(),
        full.dead().len(),
        if full.is_minimal() { " — minimal" } else { "" },
    );
    if !full.is_minimal() {
        lint.lints += full.removable();
    }
    // Enable every other rule, as a deployment toggling rules off would.
    let enabled = |pattern: usize| pattern.is_multiple_of(2);
    let subset = homog.retain_accepts(|s| owner.get(&s).is_none_or(|&p| enabled(p)));
    let report = AutomatonReport::analyze(&subset);
    let (stripped, _remap) = subset.clone().strip();
    println!(
        "rule_corpus: 12/24 rules enabled → {} dead STEs, {} → {} after strip",
        report.dead().len(),
        subset.state_count(),
        stripped.state_count(),
    );
    let mut ok = stripped.state_count() < subset.state_count();
    if !ok {
        println!("rule_corpus: disabling half the rules stripped nothing");
    }
    for plant in [0usize, 8, 32] {
        let traffic = rules::synthetic_traffic(&mut rng, set.patterns(), 2000, plant);
        if stripped.run(&traffic) != subset.run(&traffic) {
            println!("rule_corpus: strip() changed the run on {plant}-plant traffic");
            ok = false;
        }
    }
    ok
}
