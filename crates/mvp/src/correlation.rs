//! Streaming temporal correlation detection (Sebastian et al.,
//! arXiv:1706.00511) as an MVP workload.
//!
//! N binary event streams are mapped onto crossbar rows one time window
//! at a time. For every window the MVP accumulates, *in memory*, each
//! stream's correlation statistic
//!
//! ```text
//! score(i) = Σ_t  x_i(t) · A(t)        A(t) = Σ_j x_j(t)
//! ```
//!
//! — the number of co-activations of stream `i` with the whole
//! ensemble, the momentum the phase-change devices of the paper
//! integrate physically. The column-parallel part is pure scouting
//! logic: the instantaneous activity count `A(t)` is built as
//! ⌈log₂(N+1)⌉ bit planes by a ripple-carry population count across the
//! stream rows (XOR/AND steps, one stream at a time). The ripple is
//! width-aware: after `k` streams the count fits `planes_for(k)` planes,
//! so a stream only ripples through those and a carry is formed only
//! where the sum can reach the next plane. Then each stream's
//! contribution is masked out with one sensed `AND` per plane: the
//! scouting result goes straight from the sense amplifiers to the host,
//! with no write-back and no read, so the host only pops counters — it
//! never sees the raw time series twice.
//!
//! The plan is row-aware. [`rows_needed`] is the minimum, and on it the
//! plan is the plain ripple above. Spare rows make it cheaper with the
//! same XOR/AND/OR gates: two of them add a half-adder pair stage, so
//! streams enter the popcount two at a time and share one ripple, and
//! every further one holds a scored stream resident, so that stream is
//! stored once per window instead of once per phase. A served 32-row
//! engine runs a 24-stream window in 266 instructions instead of 327.
//! The instruction sequence depends only on the stream count, the
//! scored range, the engine width and its rows, never on window bits.
//!
//! Correlated streams co-activate more often than independence allows,
//! so their scores exceed the uncorrelated expectation; thresholding
//! against that baseline recovers the correlated subset. The exact
//! software reference ([`correlation_reference`]) computes the same
//! statistic scalar-wise, so every backend — monolithic, banked,
//! sharded — can be pinned bit for bit on seeded synthetic data with
//! planted correlated groups ([`EventStreams::synthesize`]).
//!
//! Sharding partitions the *streams* ([`ShardMap`](crate::ShardMap)):
//! every shard replays the full window to rebuild the global activity
//! planes (the statistic couples all streams), but masks and reads only
//! its own stream range, so per-shard score deltas concatenate to the
//! unsharded answer exactly.

use crate::{Instruction, MvpError, MvpSimulator};
use memcim_bits::BitVec;
use memcim_crossbar::CrossbarBackend;
use std::ops::Range;

/// Fewest streams that make a correlation question well-posed.
pub const MIN_STREAMS: usize = 2;

/// Bit planes needed to hold an activity count in `0..=streams`.
pub fn planes_for(streams: usize) -> usize {
    (usize::BITS - streams.leading_zeros()) as usize
}

/// Fewest crossbar rows a correlation feed program needs:
///
/// - row 0 stages one stream's window;
/// - rows `1..1 + 2·planes` hold two rows per activity plane: one holds
///   the plane's value, the other takes its next update;
/// - the last two rows alternate as ripple carries.
///
/// A plan for more rows puts them after these
/// ([`CorrelationAccumulator::shard_feed_plan_with_rows`]).
pub fn rows_needed(streams: usize) -> usize {
    3 + 2 * planes_for(streams)
}

/// Parameters of a synthetic event corpus with planted correlated
/// groups.
///
/// Uncorrelated streams fire i.i.d. Bernoulli(`rate`) per time step.
/// Each planted group shares a hidden Bernoulli(`rate`) process; a
/// member copies it with probability `strength` and otherwise fires an
/// independent Bernoulli(`rate`) — so every stream has the *same
/// marginal rate* and only temporal correlation separates members from
/// the background.
#[derive(Debug, Clone)]
pub struct CorrelationConfig {
    /// Total number of event streams.
    pub streams: usize,
    /// Total time steps to synthesize.
    pub steps: usize,
    /// Marginal event rate `p` of every stream, in `(0, 1)`.
    pub rate: f64,
    /// Correlation strength `c` of planted groups, in `[0, 1]`.
    pub strength: f64,
    /// Planted groups as disjoint sets of stream indices (each ≥ 2).
    pub groups: Vec<Vec<usize>>,
}

impl CorrelationConfig {
    fn validate(&self) -> Result<(), MvpError> {
        if self.streams < MIN_STREAMS {
            return Err(MvpError::BadInput {
                reason: format!("correlation needs at least {MIN_STREAMS} streams"),
            });
        }
        if self.steps == 0 {
            return Err(MvpError::BadInput { reason: "corpus needs at least one step".into() });
        }
        if !(self.rate > 0.0 && self.rate < 1.0) {
            return Err(MvpError::BadInput {
                reason: format!("rate must lie in (0, 1), got {}", self.rate),
            });
        }
        if !(0.0..=1.0).contains(&self.strength) {
            return Err(MvpError::BadInput {
                reason: format!("strength must lie in [0, 1], got {}", self.strength),
            });
        }
        let mut member = vec![false; self.streams];
        for group in &self.groups {
            if group.len() < 2 {
                return Err(MvpError::BadInput {
                    reason: "a correlated group needs at least two members".into(),
                });
            }
            for &i in group {
                if i >= self.streams {
                    return Err(MvpError::BadInput {
                        reason: format!("group member {i} escapes the {} streams", self.streams),
                    });
                }
                if std::mem::replace(&mut member[i], true) {
                    return Err(MvpError::BadInput {
                        reason: format!("stream {i} appears in two groups"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Expected score of an *uncorrelated* stream over the full corpus:
    /// `T·p·(1 + (N−1)·p)`.
    pub fn baseline(&self) -> f64 {
        let (t, n, p) = (self.steps as f64, self.streams as f64, self.rate);
        t * p * (1.0 + (n - 1.0) * p)
    }

    /// Expected score *excess* of a member of a planted group of `m`
    /// streams: `(m−1)·T·c²·p·(1−p)` above [`baseline`](Self::baseline).
    pub fn excess(&self, m: usize) -> f64 {
        let (t, p, c) = (self.steps as f64, self.rate, self.strength);
        (m as f64 - 1.0) * t * c * c * p * (1.0 - p)
    }

    /// The detection threshold halfway between the uncorrelated
    /// baseline and the weakest planted member's expectation.
    ///
    /// # Errors
    ///
    /// Returns [`MvpError::BadInput`] when the configuration is
    /// malformed or plants no group to threshold against.
    pub fn threshold(&self) -> Result<u64, MvpError> {
        self.validate()?;
        let smallest = self
            .groups
            .iter()
            .map(Vec::len)
            .min()
            .ok_or_else(|| MvpError::BadInput { reason: "no planted group".into() })?;
        Ok((self.baseline() + self.excess(smallest) / 2.0).round() as u64)
    }
}

/// A deterministic splitmix64 generator — the corpus must reproduce
/// bit-identically from a seed on every substrate and host.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

/// A seeded synthetic event corpus: per-stream activity bitmaps over
/// time, with the planted groups remembered for test introspection.
#[derive(Debug, Clone)]
pub struct EventStreams {
    data: Vec<BitVec>,
    steps: usize,
    groups: Vec<Vec<usize>>,
}

impl EventStreams {
    /// Draws a corpus from `cfg` with the generative model described on
    /// [`CorrelationConfig`]. The same `(cfg, seed)` pair always yields
    /// the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`MvpError::BadInput`] for a malformed configuration.
    pub fn synthesize(cfg: &CorrelationConfig, seed: u64) -> Result<Self, MvpError> {
        cfg.validate()?;
        let mut group_of = vec![usize::MAX; cfg.streams];
        for (g, group) in cfg.groups.iter().enumerate() {
            for &i in group {
                group_of[i] = g;
            }
        }
        let mut rng = SplitMix64(seed);
        let mut data = vec![BitVec::new(cfg.steps); cfg.streams];
        let mut hidden = vec![false; cfg.groups.len()];
        for t in 0..cfg.steps {
            for z in &mut hidden {
                *z = rng.chance(cfg.rate);
            }
            for i in 0..cfg.streams {
                let copies = rng.chance(cfg.strength);
                let background = rng.chance(cfg.rate);
                let fires = match group_of[i] {
                    usize::MAX => background,
                    g if copies => hidden[g],
                    _ => background,
                };
                if fires {
                    data[i].set(t, true);
                }
            }
        }
        Ok(Self { data, steps: cfg.steps, groups: cfg.groups.clone() })
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.data.len()
    }

    /// Total time steps.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The full per-stream activity bitmaps.
    pub fn data(&self) -> &[BitVec] {
        &self.data
    }

    /// The planted groups.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// The time slice `range` of every stream — one feedable window.
    ///
    /// # Errors
    ///
    /// Returns [`MvpError::BadInput`] for an empty or escaping range.
    pub fn window(&self, range: Range<usize>) -> Result<Vec<BitVec>, MvpError> {
        if range.start >= range.end || range.end > self.steps {
            return Err(MvpError::BadInput {
                reason: format!(
                    "window {}..{} escapes the {}-step corpus",
                    range.start, range.end, self.steps
                ),
            });
        }
        let len = range.len();
        Ok(self
            .data
            .iter()
            .map(|stream| {
                let mut out = BitVec::new(len);
                stream.extract_range_into(range.start, len, &mut out);
                out
            })
            .collect())
    }

    /// The expected correlated set: one bit per stream, set for every
    /// planted group member.
    pub fn planted(&self) -> BitVec {
        let mut out = BitVec::new(self.streams());
        for group in &self.groups {
            for &i in group {
                out.set(i, true);
            }
        }
        out
    }
}

/// Exact software reference: the per-stream correlation scores
/// `score(i) = Σ_t x_i(t)·A(t)` over the given activity bitmaps.
///
/// # Errors
///
/// Returns [`MvpError::BadInput`] for fewer than [`MIN_STREAMS`]
/// streams or streams of unequal length.
pub fn correlation_reference(data: &[BitVec]) -> Result<Vec<u64>, MvpError> {
    if data.len() < MIN_STREAMS {
        return Err(MvpError::BadInput {
            reason: format!("correlation needs at least {MIN_STREAMS} streams"),
        });
    }
    let steps = data[0].len();
    if data.iter().any(|s| s.len() != steps) {
        return Err(MvpError::BadInput { reason: "streams must cover the same steps".into() });
    }
    let mut scores = vec![0u64; data.len()];
    for t in 0..steps {
        let active = data.iter().filter(|s| s.get(t)).count() as u64;
        for (score, stream) in scores.iter_mut().zip(data) {
            if stream.get(t) {
                *score += active;
            }
        }
    }
    Ok(scores)
}

/// The streaming detector state: per-stream scores accumulated window
/// by window, plus the events-processed counter the serve layer bills
/// from.
///
/// Windows partition time and `A(t)` depends only on its own column, so
/// feeding a corpus in any chunking yields the same final scores as one
/// shot — the property the serve layer's chunked-feed tests pin.
#[derive(Debug, Clone)]
pub struct CorrelationAccumulator {
    streams: usize,
    planes: usize,
    scores: Vec<u64>,
    events: u64,
}

impl CorrelationAccumulator {
    /// A fresh accumulator over `streams` event streams.
    ///
    /// # Errors
    ///
    /// Returns [`MvpError::BadInput`] for fewer than [`MIN_STREAMS`].
    pub fn new(streams: usize) -> Result<Self, MvpError> {
        if streams < MIN_STREAMS {
            return Err(MvpError::BadInput {
                reason: format!("correlation needs at least {MIN_STREAMS} streams"),
            });
        }
        Ok(Self { streams, planes: planes_for(streams), scores: vec![0; streams], events: 0 })
    }

    /// Number of streams.
    pub fn streams(&self) -> usize {
        self.streams
    }

    /// Activity bit planes per window (⌈log₂(streams+1)⌉).
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// The scores accumulated so far.
    pub fn scores(&self) -> &[u64] {
        &self.scores
    }

    /// Stream-slots processed so far (`streams × window width`, summed
    /// over fed windows) — the billing unit.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Forgets all accumulated state (scores and events).
    pub fn reset(&mut self) {
        self.scores.fill(0);
        self.events = 0;
    }

    /// The minimum-row feed program for one window over every stream:
    /// [`shard_feed_plan`](Self::shard_feed_plan) over the full range.
    ///
    /// # Errors
    ///
    /// Returns [`MvpError::BadInput`] for a malformed window or one
    /// that does not fit `width` columns.
    pub fn feed_plan(&self, window: &[BitVec], width: usize) -> Result<Vec<Instruction>, MvpError> {
        self.shard_feed_plan(window, 0..self.streams, width)
    }

    /// The minimum-row shard-local feed program:
    /// [`shard_feed_plan_with_rows`](Self::shard_feed_plan_with_rows)
    /// on exactly [`rows_needed`]`(streams)` rows, so it runs on any
    /// engine that fits the streams. For 24 streams the monolithic plan
    /// is 327 instructions.
    ///
    /// # Errors
    ///
    /// Returns [`MvpError::BadInput`] when the window is empty, ragged,
    /// wider than `width`, or `range` escapes the streams.
    pub fn shard_feed_plan(
        &self,
        window: &[BitVec],
        range: Range<usize>,
        width: usize,
    ) -> Result<Vec<Instruction>, MvpError> {
        self.shard_feed_plan_with_rows(window, range, width, rows_needed(self.streams))
    }

    /// The shard-local feed program for an engine of `rows` rows:
    /// rebuilds the *global* activity planes from the full window, but
    /// masks only the streams in `range`. Applying every
    /// shard of a [`ShardMap`](crate::ShardMap) over the streams
    /// reproduces the monolithic scores exactly.
    ///
    /// Phase 1 keeps two rows per activity plane and writes each
    /// update into the plane's other row. Stream 0 is stored straight
    /// into plane 0, stream `k` ripples through the `planes_for(k)` live
    /// planes, and a carry out of the top live plane is ANDed straight
    /// into the new plane's row. Phase 2 masks each scored stream with
    /// one sensed `AND` (`dst: None`) per plane, whose result is an
    /// output of the program: no write-back and no `Read`.
    ///
    /// Rows beyond [`rows_needed`]`(streams)` make the plan cheaper:
    ///
    /// - **Pair stage** (≥ 2 spare rows): a second staging row and a
    ///   pair-sum row let streams be added two at a time through a half
    ///   adder. `s = a⊕b`, `P0' = P0⊕s`, `k0 = P0∧s`, `c = a∧b`, and
    ///   `d = c∨k0` is the whole carry into plane 1 (`c` implies
    ///   `s = 0`, so `c` and `k0` are disjoint). `d` then ripples up from
    ///   plane 1, so two streams share one ripple.
    /// - **Resident streams**: every further spare row holds one scored
    ///   stream, stored once in phase 1 and masked in phase 2 without a
    ///   second store. A resident stream 0 serves as plane 0's first
    ///   value.
    ///
    /// On 32 rows the 24-stream monolithic plan is 266 instructions
    /// (327 on the 13-row minimum). On the minimum, or one row more,
    /// the plan is the plain ripple above.
    ///
    /// The program uses at most `rows` rows, writes every row before
    /// reading it (stale engine contents never leak in), and emits
    /// `range.len() × planes` sensed ANDs and no `Read`, in
    /// `(stream, plane)` order. Its
    /// instruction sequence depends only on the stream count, `range`,
    /// `width` and `rows`.
    ///
    /// # Errors
    ///
    /// Returns [`MvpError::BadInput`] when `rows` is below
    /// [`rows_needed`]`(streams)`, the window is empty, ragged, wider
    /// than `width`, or `range` escapes the streams.
    pub fn shard_feed_plan_with_rows(
        &self,
        window: &[BitVec],
        range: Range<usize>,
        width: usize,
        rows: usize,
    ) -> Result<Vec<Instruction>, MvpError> {
        let min_rows = rows_needed(self.streams);
        if rows < min_rows {
            return Err(MvpError::BadInput {
                reason: format!("{} streams need {min_rows} rows, engine has {rows}", self.streams),
            });
        }
        let w = self.check_window(window, width)?;
        if range.start >= range.end || range.end > self.streams {
            return Err(MvpError::BadInput {
                reason: format!(
                    "scored range {}..{} escapes the {} streams",
                    range.start, range.end, self.streams
                ),
            });
        }
        // Rows `0..min_rows` are the minimum layout: staging row `r_x`,
        // two rows per plane, two carries. The pair stage's second
        // staging row `r_y` and pair-sum row `r_s` follow, then one
        // resident row per scored stream, as far as the rows go.
        let r_x = 0;
        let (r_y, r_s) = (min_rows, min_rows + 1);
        let spare = rows - min_rows;
        let paired = spare >= 2;
        let resident = if paired { (spare - 2).min(range.len()) } else { 0 };
        let first = range.start;
        let home =
            move |i: usize| (first..first + resident).contains(&i).then(|| r_s + 1 + i - first);
        let mut plan = PlaneRows::new(self.planes);
        // Stores stream `i` in its resident row, or else in `scratch`.
        let stage = |plan: &mut PlaneRows, i: usize, scratch: usize| {
            let row = home(i).unwrap_or(scratch);
            let data = crate::sharded::slice_to_width(&window[i], 0..w, width)?;
            plan.program.push(Instruction::Store { row, data });
            Ok::<_, MvpError>(row)
        };
        // Phase 1: popcount of stream activity. After `k` streams the
        // count is at most `k`, so adding stream `k` touches only the
        // `planes_for(k)` live planes, and a carry is formed only where
        // the sum can reach the next plane.
        // Stream 0 is plane 0's first value, in plane 0's row unless it
        // is resident.
        let plane0 = plan.val[0];
        plan.val[0] = stage(&mut plan, 0, plane0)?;
        let mut k = 1;
        while k < self.streams {
            if paired && k + 1 < self.streams {
                let a = stage(&mut plan, k, r_x)?;
                let b = stage(&mut plan, k + 1, r_y)?;
                plan.add_pair(a, b, r_s, k);
                k += 2;
            } else {
                let x = stage(&mut plan, k, r_x)?;
                plan.ripple(x, 0, planes_for(k), planes_for(k + 1));
                k += 1;
            }
        }
        // Phase 2: mask each scored stream against every activity plane
        // with a sensed AND, so the co-activation columns go straight
        // from the sense amplifiers to the host: no write-back, no read.
        for i in range {
            let x = match home(i) {
                Some(row) => row,
                None => stage(&mut plan, i, r_x)?,
            };
            for b in 0..self.planes {
                plan.program.push(Instruction::And { srcs: vec![x, plan.val[b]], dst: None });
            }
        }
        Ok(plan.program)
    }

    /// Folds the outputs of a feed program for stream `range`
    /// into the scores: `Δscore(i) = Σ_b 2^b · popcount(outputs[i][b])`.
    ///
    /// # Errors
    ///
    /// Returns [`MvpError::BadInput`] when `range` escapes the streams
    /// or the output count is not `range.len() × planes`.
    pub fn apply_reads(&mut self, range: Range<usize>, outputs: &[BitVec]) -> Result<(), MvpError> {
        if range.start >= range.end || range.end > self.streams {
            return Err(MvpError::BadInput {
                reason: format!(
                    "scored range {}..{} escapes the {} streams",
                    range.start, range.end, self.streams
                ),
            });
        }
        if outputs.len() != range.len() * self.planes {
            return Err(MvpError::BadInput {
                reason: format!(
                    "{} outputs do not cover {} streams × {} planes",
                    outputs.len(),
                    range.len(),
                    self.planes
                ),
            });
        }
        for (k, i) in range.enumerate() {
            for b in 0..self.planes {
                self.scores[i] += (1u64 << b) * outputs[k * self.planes + b].count_ones() as u64;
            }
        }
        Ok(())
    }

    /// Records a fed window of `window_width` steps in the billing
    /// counter (`streams × width` stream-slots). Call once per window,
    /// after every shard's reads were applied.
    pub fn note_window(&mut self, window_width: usize) {
        self.events += (self.streams * window_width) as u64;
    }

    /// Convenience: plans one window for all of the given simulator's
    /// rows, executes it (monolithic or banked) and applies the reads,
    /// updating scores and events.
    ///
    /// # Errors
    ///
    /// Returns [`MvpError::BadInput`] when the engine is too small for
    /// the stream count and propagates execution errors.
    pub fn feed_mvp<B: CrossbarBackend>(
        &mut self,
        mvp: &mut MvpSimulator<B>,
        window: &[BitVec],
    ) -> Result<(), MvpError> {
        let plan =
            self.shard_feed_plan_with_rows(window, 0..self.streams, mvp.width(), mvp.rows())?;
        let outputs = mvp.run_program(&plan)?;
        self.apply_reads(0..self.streams, &outputs)?;
        self.note_window(window[0].len());
        Ok(())
    }

    /// The streams whose accumulated score strictly exceeds
    /// `threshold`, as one bit per stream.
    pub fn detect(&self, threshold: u64) -> BitVec {
        let mut out = BitVec::new(self.streams);
        for (i, &score) in self.scores.iter().enumerate() {
            if score > threshold {
                out.set(i, true);
            }
        }
        out
    }

    fn check_window(&self, window: &[BitVec], width: usize) -> Result<usize, MvpError> {
        if window.len() != self.streams {
            return Err(MvpError::BadInput {
                reason: format!(
                    "window carries {} streams, session expects {}",
                    window.len(),
                    self.streams
                ),
            });
        }
        let w = window[0].len();
        if w == 0 {
            return Err(MvpError::BadInput {
                reason: "window must cover at least one step".into(),
            });
        }
        if window.iter().any(|s| s.len() != w) {
            return Err(MvpError::BadInput {
                reason: "every stream must cover the same window steps".into(),
            });
        }
        if w > width {
            return Err(MvpError::BadInput {
                reason: format!("{w}-step window does not fit a {width}-column engine"),
            });
        }
        Ok(w)
    }
}

/// Phase-1 state of a feed plan: the program so far and the row that
/// holds each activity plane's value.
///
/// Plane `b` owns two rows, `1 + b` and `1 + planes + b`, and the two
/// carry rows follow them. An update writes the plane's idle row, which
/// still holds a recent value of the same plane, so the write flips few
/// cells: energy is paid per flipped cell.
struct PlaneRows {
    planes: usize,
    /// `val[b]`: the row holding plane `b`'s value. It starts at the
    /// plane's first row, where a new plane is opened.
    val: Vec<usize>,
    program: Vec<Instruction>,
}

impl PlaneRows {
    fn new(planes: usize) -> Self {
        Self { planes, val: (1..=planes).collect(), program: Vec::new() }
    }

    /// The row plane `b`'s next value goes to: whichever of its own
    /// rows does not hold its value.
    fn idle(&self, b: usize) -> usize {
        let first = 1 + b;
        if self.val[b] == first {
            first + self.planes
        } else {
            first
        }
    }

    fn carries(&self) -> [usize; 2] {
        [1 + 2 * self.planes, 2 + 2 * self.planes]
    }

    /// Adds the row `carry`, of weight `2^from`, into the `live` planes
    /// from plane `from` up; the sum fits `next` planes.
    fn ripple(&mut self, mut carry: usize, from: usize, live: usize, next: usize) {
        let carries = self.carries();
        for b in from..live {
            let old = self.val[b];
            self.val[b] = self.idle(b);
            self.program.push(Instruction::Xor { a: old, b: carry, dst: Some(self.val[b]) });
            if b + 1 < next {
                // A carry out of the top live plane opens a new plane.
                let dst = if b + 1 == live { self.val[b + 1] } else { carries[b % 2] };
                self.program.push(Instruction::And { srcs: vec![old, carry], dst: Some(dst) });
                carry = dst;
            }
        }
    }

    /// Adds streams `k` and `k + 1`, staged in rows `a` and `b`, through
    /// a half adder that uses `r_s` as its pair-sum row.
    fn add_pair(&mut self, a: usize, b: usize, r_s: usize, k: usize) {
        let (live, next) = (planes_for(k), planes_for(k + 2));
        let [c, k0] = self.carries();
        let p0 = self.val[0];
        self.val[0] = self.idle(0);
        self.program.extend([
            Instruction::Xor { a, b, dst: Some(r_s) },
            Instruction::Xor { a: p0, b: r_s, dst: Some(self.val[0]) },
            Instruction::And { srcs: vec![p0, r_s], dst: Some(k0) },
            Instruction::And { srcs: vec![a, b], dst: Some(c) },
        ]);
        // `c` implies `a⊕b = 0`, so `c` and `k0` are disjoint and
        // `c ∨ k0` is the whole carry into plane 1. With one live plane
        // it opens plane 1 directly.
        let d = if live == 1 { self.val[1] } else { r_s };
        self.program.push(Instruction::Or { srcs: vec![c, k0], dst: Some(d) });
        self.ripple(d, 1, live, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardMap;

    fn corpus() -> (CorrelationConfig, EventStreams) {
        let cfg = CorrelationConfig {
            streams: 24,
            steps: 768,
            rate: 0.25,
            strength: 0.95,
            groups: vec![vec![2, 7, 11, 19, 22], vec![4, 5, 9, 16, 21]],
        };
        let streams = EventStreams::synthesize(&cfg, 2018).expect("well-formed");
        (cfg, streams)
    }

    #[test]
    fn accumulator_matches_reference_monolithic_and_banked() {
        let (_, streams) = corpus();
        let expected = correlation_reference(streams.data()).expect("reference");
        let mut mono = MvpSimulator::new(rows_needed(24), 128);
        let mut banked = MvpSimulator::banked(rows_needed(24), 4, 32);
        let mut acc_m = CorrelationAccumulator::new(24).expect("streams");
        let mut acc_b = CorrelationAccumulator::new(24).expect("streams");
        for start in (0..streams.steps()).step_by(128) {
            let window = streams.window(start..(start + 128).min(streams.steps())).expect("slice");
            acc_m.feed_mvp(&mut mono, &window).expect("mono feed");
            acc_b.feed_mvp(&mut banked, &window).expect("banked feed");
        }
        assert_eq!(acc_m.scores(), &expected[..]);
        assert_eq!(acc_b.scores(), &expected[..]);
        assert_eq!(acc_m.events(), (24 * 768) as u64);
        assert!(mono.ledger().scouting_ops() > 0, "work ran in memory");
    }

    #[test]
    fn chunked_feeds_equal_one_shot() {
        let (_, streams) = corpus();
        let mut one_shot = CorrelationAccumulator::new(24).expect("streams");
        let mut engine = MvpSimulator::new(rows_needed(24), 768);
        one_shot.feed_mvp(&mut engine, streams.data()).expect("one shot");
        let mut chunked = CorrelationAccumulator::new(24).expect("streams");
        let mut engine2 = MvpSimulator::new(rows_needed(24), 768);
        for bounds in [[0usize, 17, 64, 768], [0, 300, 500, 768]] {
            chunked.reset();
            for pair in bounds.windows(2) {
                let window = streams.window(pair[0]..pair[1]).expect("slice");
                chunked.feed_mvp(&mut engine2, &window).expect("chunk feed");
            }
            assert_eq!(chunked.scores(), one_shot.scores());
        }
    }

    #[test]
    fn sharded_plans_concatenate_to_the_monolithic_scores() {
        let (_, streams) = corpus();
        let expected = correlation_reference(streams.data()).expect("reference");
        let window = streams.window(0..streams.steps()).expect("full window");
        for shards in [1usize, 2, 3, 4] {
            let map = ShardMap::new(24, shards).expect("geometry");
            let mut acc = CorrelationAccumulator::new(24).expect("streams");
            for range in map.ranges() {
                let plan = acc.shard_feed_plan(&window, range.clone(), 800).expect("plan");
                let mut engine = MvpSimulator::new(rows_needed(24), 800);
                let outputs = engine.run_program(&plan).expect("shard runs");
                acc.apply_reads(range, &outputs).expect("apply");
            }
            acc.note_window(streams.steps());
            assert_eq!(acc.scores(), &expected[..], "{shards} shards");
        }
    }

    #[test]
    fn planted_groups_are_recovered_and_nothing_else() {
        let (cfg, streams) = corpus();
        let threshold = cfg.threshold().expect("groups planted");
        let mut acc = CorrelationAccumulator::new(24).expect("streams");
        let mut engine = MvpSimulator::banked(rows_needed(24), 4, 192);
        acc.feed_mvp(&mut engine, streams.data()).expect("feed");
        assert_eq!(acc.detect(threshold), streams.planted());
    }

    #[test]
    fn synthesis_is_deterministic_and_marginal_rates_hold() {
        let (cfg, streams) = corpus();
        let again = EventStreams::synthesize(&cfg, 2018).expect("well-formed");
        assert_eq!(streams.data(), again.data());
        let other_seed = EventStreams::synthesize(&cfg, 2019).expect("well-formed");
        assert_ne!(streams.data(), other_seed.data());
        // Every stream — member or not — fires near the marginal rate.
        for (i, stream) in streams.data().iter().enumerate() {
            let rate = stream.count_ones() as f64 / cfg.steps as f64;
            assert!((rate - cfg.rate).abs() < 0.12, "stream {i} fires at {rate}");
        }
    }

    #[test]
    fn malformed_inputs_are_errors_not_aborts() {
        let cfg = CorrelationConfig {
            streams: 8,
            steps: 16,
            rate: 0.3,
            strength: 0.9,
            groups: vec![vec![1, 2]],
        };
        for bad in [
            CorrelationConfig { streams: 1, ..cfg.clone() },
            CorrelationConfig { steps: 0, ..cfg.clone() },
            CorrelationConfig { rate: 1.5, ..cfg.clone() },
            CorrelationConfig { strength: -0.1, ..cfg.clone() },
            CorrelationConfig { groups: vec![vec![3]], ..cfg.clone() },
            CorrelationConfig { groups: vec![vec![1, 99]], ..cfg.clone() },
            CorrelationConfig { groups: vec![vec![1, 2], vec![2, 3]], ..cfg.clone() },
        ] {
            assert!(matches!(EventStreams::synthesize(&bad, 1), Err(MvpError::BadInput { .. })));
        }
        let streams = EventStreams::synthesize(&cfg, 1).expect("well-formed");
        assert!(matches!(streams.window(4..4), Err(MvpError::BadInput { .. })));
        assert!(matches!(streams.window(10..20), Err(MvpError::BadInput { .. })));
        assert!(matches!(CorrelationAccumulator::new(1), Err(MvpError::BadInput { .. })));
        let mut acc = CorrelationAccumulator::new(8).expect("streams");
        let window = streams.window(0..16).expect("slice");
        assert!(matches!(acc.feed_plan(&window[..4], 64), Err(MvpError::BadInput { .. })));
        assert!(matches!(acc.feed_plan(&window, 8), Err(MvpError::BadInput { .. })));
        #[allow(clippy::reversed_empty_ranges)] // deliberately malformed: must be refused
        let backwards = 5..3;
        assert!(matches!(
            acc.shard_feed_plan(&window, backwards, 64),
            Err(MvpError::BadInput { .. })
        ));
        assert!(matches!(
            acc.shard_feed_plan_with_rows(&window, 0..8, 64, rows_needed(8) - 1),
            Err(MvpError::BadInput { .. })
        ));
        assert!(matches!(acc.apply_reads(0..8, &[]), Err(MvpError::BadInput { .. })));
        let mut tiny = MvpSimulator::new(4, 64);
        assert!(matches!(acc.feed_mvp(&mut tiny, &window), Err(MvpError::BadInput { .. })));
        assert!(matches!(correlation_reference(&window[..1]), Err(MvpError::BadInput { .. })));
    }

    #[test]
    fn geometry_helpers_are_consistent() {
        assert_eq!(planes_for(2), 2);
        assert_eq!(planes_for(3), 2);
        assert_eq!(planes_for(4), 3);
        assert_eq!(planes_for(24), 5);
        assert_eq!(planes_for(255), 8);
        assert_eq!(rows_needed(24), 13);
        // The plan never escapes its declared row budget.
        let acc = CorrelationAccumulator::new(24).expect("streams");
        let window = vec![BitVec::new(32); 24];
        let plan = acc.feed_plan(&window, 64).expect("plan");
        for instr in &plan {
            assert_eq!(instr.check(rows_needed(24), 64), Ok(()), "{instr:?}");
        }
        for rows in [rows_needed(24) + 2, 32] {
            let plan = acc.shard_feed_plan_with_rows(&window, 0..24, 64, rows).expect("plan");
            for instr in &plan {
                assert_eq!(instr.check(rows, 64), Ok(()), "{instr:?}");
            }
        }
    }

    #[test]
    fn row_aware_plan_is_cheaper_than_the_minimum_plan() {
        // The served correlation geometry: 32 rows × 8 banks × 32
        // columns, one 256-step window per row.
        let cfg = CorrelationConfig { steps: 16 * 256, ..corpus().0 };
        let streams = EventStreams::synthesize(&cfg, 2018).expect("well-formed");
        let feed = |rows: usize| {
            let mut engine = MvpSimulator::banked(32, 8, 32);
            let mut acc = CorrelationAccumulator::new(24).expect("streams");
            for start in (0..streams.steps()).step_by(256) {
                let window = streams.window(start..start + 256).expect("slice");
                let plan = acc.shard_feed_plan_with_rows(&window, 0..24, 256, rows).expect("plan");
                let outputs = engine.run_program(&plan).expect("plan runs");
                acc.apply_reads(0..24, &outputs).expect("apply");
            }
            (acc.scores().to_vec(), engine.ledger())
        };
        let (minimum, slow) = feed(rows_needed(24));
        let (row_aware, fast) = feed(32);
        assert_eq!(row_aware, minimum);
        assert_eq!(row_aware, correlation_reference(streams.data()).expect("reference"));
        assert!(
            fast.busy_time() < slow.busy_time(),
            "busy {} vs {}",
            fast.busy_time(),
            slow.busy_time()
        );
        assert!(fast.energy() < slow.energy(), "energy {} vs {}", fast.energy(), slow.energy());
    }

    #[test]
    fn feed_plan_shape_is_pinned_and_data_independent() {
        // The plan with every Store payload blanked: what remains is the
        // instruction sequence the window bits must not influence.
        fn shape(plan: &[Instruction]) -> Vec<Instruction> {
            plan.iter()
                .map(|instr| match instr {
                    Instruction::Store { row, .. } => {
                        Instruction::Store { row: *row, data: BitVec::new(0) }
                    }
                    other => other.clone(),
                })
                .collect()
        }
        let (_, streams) = corpus();
        let acc = CorrelationAccumulator::new(24).expect("streams");
        let window = streams.window(0..64).expect("slice");
        let plan = acc.feed_plan(&window, 64).expect("plan");
        let count = |f: fn(&Instruction) -> bool| plan.iter().filter(|i| f(i)).count();
        assert_eq!(plan.len(), 327);
        assert_eq!(count(|i| matches!(i, Instruction::Store { .. })), 48);
        assert_eq!(count(|i| matches!(i, Instruction::Xor { .. })), 89);
        assert_eq!(count(|i| matches!(i, Instruction::And { .. })), 190);
        assert_eq!(count(|i| matches!(i, Instruction::Read { .. })), 0);
        let shard = acc.shard_feed_plan(&window, 0..12, 64).expect("shard plan");
        assert_eq!(shard.len(), 255);

        // On 32 rows: the pair stage and 17 resident streams.
        let wide = acc.shard_feed_plan_with_rows(&window, 0..24, 64, 32).expect("plan");
        let count = |f: fn(&Instruction) -> bool| wide.iter().filter(|i| f(i)).count();
        assert_eq!(wide.len(), 266);
        assert_eq!(count(|i| matches!(i, Instruction::Store { .. })), 31);
        assert_eq!(count(|i| matches!(i, Instruction::Xor { .. })), 56);
        assert_eq!(count(|i| matches!(i, Instruction::And { .. })), 168);
        assert_eq!(count(|i| matches!(i, Instruction::Or { .. })), 11);
        assert_eq!(count(|i| matches!(i, Instruction::Read { .. })), 0);
        // Phase 1 is 139 instructions and stores every stream once.
        // Phase 2 opens with resident stream 0's first sensed mask, and
        // re-stores only the 7 streams without a resident row.
        let sensed = |i: &Instruction| matches!(i, Instruction::And { dst: None, .. });
        assert_eq!(wide.iter().filter(|i| sensed(i)).count(), 120);
        assert_eq!(wide.iter().position(sensed), Some(139));
        let (phase1, phase2) = wide.split_at(139);
        let stores = |part: &[Instruction]| {
            part.iter().filter(|i| matches!(i, Instruction::Store { .. })).count()
        };
        assert_eq!((stores(phase1), stores(phase2)), (24, 7));
        // Every scored stream of a 12-stream shard is resident.
        let wide_shard = acc.shard_feed_plan_with_rows(&window, 0..12, 64, 32).expect("plan");
        assert_eq!(wide_shard.len(), 199);
        let other = streams.window(300..364).expect("slice");
        assert_ne!(window, other, "the two windows differ");
        let again = acc.feed_plan(&other, 64).expect("plan");
        assert_eq!(shape(&plan), shape(&again));
        let shard_again = acc.shard_feed_plan(&other, 0..12, 64).expect("shard plan");
        assert_eq!(shape(&shard), shape(&shard_again));
        let wide_again = acc.shard_feed_plan_with_rows(&other, 0..24, 64, 32).expect("plan");
        assert_eq!(shape(&wide), shape(&wide_again));
        let wide_shard_again = acc.shard_feed_plan_with_rows(&other, 0..12, 64, 32).expect("plan");
        assert_eq!(shape(&wide_shard), shape(&wide_shard_again));
    }
}
