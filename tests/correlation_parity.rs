//! Differential harness for streaming correlation detection: seeded
//! sweeps over stream count, window chunking and correlation strength
//! pin the crossbar statistic bit-for-bit against the exact software
//! reference ([`correlation_reference`]), the banked and sharded
//! substrates against the monolithic one, the row-aware feed plans
//! (pair stage, resident streams) against the minimum-row plan, and the
//! thresholded detection against the planted ground truth — every
//! planted group recovered, no false positives.

use memcim_bits::BitVec;
use memcim_mvp::correlation::{
    correlation_reference, rows_needed, CorrelationAccumulator, CorrelationConfig, EventStreams,
};
use memcim_mvp::{Instruction, MvpError, MvpSimulator, ShardMap};
use proptest::prelude::*;
use std::ops::Range;

const SEED: u64 = 2018;
/// Rows of a served engine: enough for the pair stage and resident
/// streams at every sweep stream count.
const SERVED_ROWS: usize = 32;

/// Streams the corpus through one engine in `chunk`-step windows and
/// returns the accumulated scores.
fn scores_on<B: memcim_crossbar::CrossbarBackend>(
    events: &EventStreams,
    chunk: usize,
    mvp: &mut MvpSimulator<B>,
) -> Vec<u64> {
    let mut acc = CorrelationAccumulator::new(events.streams()).expect("enough streams");
    let mut lo = 0;
    while lo < events.steps() {
        let hi = (lo + chunk).min(events.steps());
        let window = events.window(lo..hi).expect("range in corpus");
        acc.feed_mvp(mvp, &window).expect("engine fits the streams");
        lo = hi;
    }
    assert_eq!(acc.events(), (events.streams() * events.steps()) as u64, "every slot counted");
    acc.scores().to_vec()
}

fn monolithic_scores(events: &EventStreams, chunk: usize, rows: usize) -> Vec<u64> {
    let mut mvp = MvpSimulator::new(rows, chunk);
    scores_on(events, chunk, &mut mvp)
}

fn banked_scores(events: &EventStreams, chunk: usize, rows: usize) -> Vec<u64> {
    let mut mvp = MvpSimulator::banked(rows, 4, chunk.div_ceil(4));
    scores_on(events, chunk, &mut mvp)
}

/// Streams the corpus through `shards` independent banked engines of
/// `rows` rows, each scoring only its own stream range, and returns the
/// stitched scores.
fn sharded_scores(events: &EventStreams, chunk: usize, shards: usize, rows: usize) -> Vec<u64> {
    let map = ShardMap::new(events.streams(), shards).expect("valid geometry");
    let mut acc = CorrelationAccumulator::new(events.streams()).expect("enough streams");
    let mut engines: Vec<_> =
        (0..shards).map(|_| MvpSimulator::banked(rows, 2, chunk.div_ceil(2))).collect();
    let mut lo = 0;
    while lo < events.steps() {
        let hi = (lo + chunk).min(events.steps());
        let window = events.window(lo..hi).expect("range in corpus");
        for (shard, range) in map.ranges().enumerate() {
            let width = engines[shard].width();
            let plan = acc
                .shard_feed_plan_with_rows(&window, range.clone(), width, rows)
                .expect("plan compiles");
            let outputs = engines[shard].run_program(&plan).expect("plan runs");
            acc.apply_reads(range, &outputs).expect("reads align");
        }
        acc.note_window(hi - lo);
        lo = hi;
    }
    acc.scores().to_vec()
}

/// The sweep: every (streams, strength, chunking) point must produce
/// scores bit-identical to the software reference on the monolithic,
/// banked *and* sharded substrates — including uneven final windows and
/// the degenerate one-shot window — with the minimum-row plan and with
/// the row-aware plan of a served engine.
#[test]
fn crossbar_matches_reference_across_the_sweep() {
    for &streams in &[5usize, 12, 24] {
        for &strength in &[0.0, 0.6, 0.95] {
            let cfg = CorrelationConfig {
                streams,
                steps: 384,
                rate: 0.25,
                strength,
                groups: vec![vec![0, 1], vec![streams - 2, streams - 1]],
            };
            let events =
                EventStreams::synthesize(&cfg, SEED ^ streams as u64).expect("synthesizes");
            let reference = correlation_reference(events.data()).expect("well-formed corpus");
            // 384 % 100 ≠ 0: the last window is narrower than the rest.
            for &chunk in &[events.steps(), 128, 100] {
                for rows in [rows_needed(streams), SERVED_ROWS] {
                    let label =
                        format!("streams={streams} strength={strength} chunk={chunk} rows={rows}");
                    assert_eq!(monolithic_scores(&events, chunk, rows), reference, "mono {label}");
                    assert_eq!(banked_scores(&events, chunk, rows), reference, "banked {label}");
                    for &shards in &[2usize, 4] {
                        assert_eq!(
                            sharded_scores(&events, chunk, shards, rows),
                            reference,
                            "sharded×{shards} {label}"
                        );
                    }
                }
            }
        }
    }
}

/// Detection against planted truth, across seeds: the members of every
/// planted group clear the analytic threshold, every background stream
/// stays below it, and the margins are real (not one-count squeaks).
#[test]
fn planted_groups_are_recovered_and_nothing_else() {
    let cfg = CorrelationConfig {
        streams: 24,
        steps: 768,
        rate: 0.25,
        strength: 0.95,
        groups: vec![vec![2, 7, 11, 19, 22], vec![4, 5, 9, 16, 21]],
    };
    let threshold = cfg.threshold().expect("well-posed corpus");
    for seed in [SEED, SEED + 1, SEED + 2] {
        let events = EventStreams::synthesize(&cfg, seed).expect("synthesizes");
        let scores = banked_scores(&events, 256, rows_needed(cfg.streams));
        let planted = events.planted();
        let background_max = scores
            .iter()
            .enumerate()
            .filter(|&(i, _)| !planted.get(i))
            .map(|(_, &s)| s)
            .max()
            .expect("background streams exist");
        let member_min = scores
            .iter()
            .enumerate()
            .filter(|&(i, _)| planted.get(i))
            .map(|(_, &s)| s)
            .min()
            .expect("planted streams exist");
        assert!(
            background_max <= threshold && threshold < member_min,
            "seed {seed}: background {background_max} / threshold {threshold} / \
             members {member_min} must separate"
        );

        let mut acc = CorrelationAccumulator::new(cfg.streams).expect("enough streams");
        let mut mvp = MvpSimulator::banked(rows_needed(cfg.streams), 4, 64);
        let mut lo = 0;
        while lo < events.steps() {
            let hi = (lo + 256).min(events.steps());
            acc.feed_mvp(&mut mvp, &events.window(lo..hi).expect("range")).expect("feeds");
            lo = hi;
        }
        assert_eq!(acc.detect(threshold), planted, "seed {seed}: detection ≡ planted truth");
        assert_eq!(acc.detect(u64::MAX), BitVec::new(cfg.streams), "strictly >");
    }
}

/// Every generated feed plan — monolithic and per-shard, minimum-row
/// and row-aware — passes the same static verification the serve layer
/// gates admissions on, for each sweep geometry.
#[test]
fn generated_feed_plans_pass_static_verification() {
    for &streams in &[5usize, 12, 24] {
        let cfg = CorrelationConfig {
            streams,
            steps: 96,
            rate: 0.25,
            strength: 0.6,
            groups: vec![vec![0, 1]],
        };
        let events = EventStreams::synthesize(&cfg, SEED).expect("synthesizes");
        let window = events.window(0..96).expect("range");
        let acc = CorrelationAccumulator::new(streams).expect("enough streams");
        let map = ShardMap::new(streams, 2).expect("valid geometry");
        for rows in [rows_needed(streams), SERVED_ROWS] {
            for range in std::iter::once(0..streams).chain(map.ranges()) {
                let plan =
                    acc.shard_feed_plan_with_rows(&window, range, 96, rows).expect("plan compiles");
                let diagnostics = memcim_verify::verify_program(&plan, rows, 96);
                assert!(
                    memcim_verify::first_error(&diagnostics).is_none(),
                    "streams={streams} rows={rows}: generated plans must verify clean"
                );
            }
        }
    }
}

/// An engine with too few rows refuses the feed with a typed error
/// instead of corrupting anything.
#[test]
fn a_too_small_engine_is_refused_with_a_typed_error() {
    let cfg =
        CorrelationConfig { streams: 24, steps: 32, rate: 0.25, strength: 0.0, groups: vec![] };
    let events = EventStreams::synthesize(&cfg, SEED).expect("synthesizes");
    let mut acc = CorrelationAccumulator::new(24).expect("enough streams");
    // 24 streams need 13 rows; offer 8.
    let mut mvp = MvpSimulator::new(8, 32);
    let window = events.window(0..32).expect("range");
    match acc.feed_mvp(&mut mvp, &window) {
        Err(MvpError::BadInput { reason }) => {
            assert!(reason.contains("rows"), "diagnostic names the geometry: {reason}")
        }
        other => panic!("expected a typed refusal, got {other:?}"),
    }
    assert_eq!(acc.events(), 0, "the refused feed accumulated nothing");
    assert_eq!(acc.scores().iter().sum::<u64>(), 0);
}

/// Runs `plan` on a fresh engine and on one whose every row was first
/// filled with unrelated bits; a self-contained plan writes each row it
/// reads, so both runs must return the same reads.
fn reads_ignore_stale_rows(plan: &[Instruction], rows: usize, width: usize, seed: u64) -> bool {
    let fresh = MvpSimulator::new(rows, width).run_program(plan).expect("plan runs");
    let noise =
        CorrelationConfig { streams: rows, steps: width, rate: 0.5, strength: 0.0, groups: vec![] };
    let fill: Vec<Instruction> = EventStreams::synthesize(&noise, seed)
        .expect("synthesizes")
        .data()
        .iter()
        .enumerate()
        .map(|(row, data)| Instruction::Store { row, data: data.clone() })
        .collect();
    let mut stale = MvpSimulator::new(rows, width);
    stale.run_program(&fill).expect("fill runs");
    stale.run_program(plan).expect("plan runs") == fresh
}

/// Runs `plan` on a fresh engine and checks every read against its
/// software value: read `k·planes + b` must be scored stream
/// `range.start + k` masked by bit `b` of the activity count `A(t)`.
fn reads_in_stream_plane_order(
    plan: &[Instruction],
    data: &[BitVec],
    range: Range<usize>,
    planes: usize,
    rows: usize,
) -> bool {
    let width = data[0].len();
    let reads = MvpSimulator::new(rows, width).run_program(plan).expect("plan runs");
    let active: Vec<usize> =
        (0..width).map(|t| data.iter().filter(|stream| stream.get(t)).count()).collect();
    reads.len() == range.len() * planes
        && range.enumerate().all(|(k, i)| {
            (0..planes).all(|b| {
                let read = &reads[k * planes + b];
                (0..width).all(|t| read.get(t) == (data[i].get(t) && (active[t] >> b) & 1 == 1))
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The feed plan's plane schedule changes shape whenever the stream
    /// count crosses a power of two (2, 4, 8, 16, 32): a new activity
    /// plane opens and the carries reroute. Its row budget changes it
    /// too: the minimum rows give the plain ripple, two spare rows add
    /// the pair stage, and each further row makes one more scored
    /// stream resident, up to every scored stream. Across those
    /// crossings, every row budget, window width and shard count, the
    /// monolithic, banked and per-shard scores equal the software
    /// reference, every plan verifies clean inside its rows, emits one
    /// output per (stream, plane) in `(stream, plane)` order, and returns
    /// the same reads on an engine holding stale data in every row.
    #[test]
    fn feed_plans_match_reference_across_plane_boundaries(
        (streams, rows) in (2usize..=40)
            .prop_flat_map(|s| (Just(s), rows_needed(s)..=rows_needed(s) + s + 3)),
        width in 1usize..=96,
        shards in 1usize..=4,
        rate in 0.05f64..0.95,
        seed in any::<u64>(),
    ) {
        let cfg = CorrelationConfig { streams, steps: width, rate, strength: 0.0, groups: vec![] };
        let events = EventStreams::synthesize(&cfg, seed).expect("synthesizes");
        let reference = correlation_reference(events.data()).expect("well-formed corpus");
        prop_assert_eq!(&monolithic_scores(&events, width, rows), &reference, "monolithic");
        prop_assert_eq!(&banked_scores(&events, width, rows), &reference, "banked");
        let shards = shards.min(streams);
        prop_assert_eq!(
            &sharded_scores(&events, width, shards, rows),
            &reference,
            "sharded×{}",
            shards
        );

        let acc = CorrelationAccumulator::new(streams).expect("enough streams");
        let map = ShardMap::new(streams, shards).expect("valid geometry");
        for range in std::iter::once(0..streams).chain(map.ranges()) {
            let plan = acc
                .shard_feed_plan_with_rows(events.data(), range.clone(), width, rows)
                .expect("plan");
            let diagnostics = memcim_verify::verify_program(&plan, rows, width);
            prop_assert!(
                memcim_verify::first_error(&diagnostics).is_none(),
                "range {:?} must verify clean in {} rows",
                range,
                rows
            );
            let outputs = plan
                .iter()
                .filter(|i| matches!(i, Instruction::Read { .. } | Instruction::And { dst: None, .. }))
                .count();
            prop_assert_eq!(outputs, range.len() * acc.planes());
            prop_assert!(
                reads_in_stream_plane_order(&plan, events.data(), range.clone(), acc.planes(), rows),
                "range {:?} reads out of (stream, plane) order",
                range
            );
            prop_assert!(reads_ignore_stale_rows(&plan, rows, width, !seed), "range {:?}", range);
        }
    }
}
