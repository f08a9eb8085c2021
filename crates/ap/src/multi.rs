//! Multi-stream AP execution: N independent input streams through one
//! compiled template.
//!
//! The Micron AP and the Cache Automaton both run one configured
//! automaton against many concurrent inputs, paying the configuration
//! cost once. The [`MultiStreamProcessor`] models that: one shared
//! [`ApTemplate`] and routing scratch, and per-stream lanes holding only
//! the stream state. Lanes run one after another through the same
//! symbol kernel as [`AutomataProcessor`](crate::AutomataProcessor), so
//! a lane's results are exactly a dedicated single-stream processor's;
//! batching saves no work per symbol.

use crate::engine::{ApReport, ApRun};
use crate::routing::FollowScratch;
use crate::template::{ApTemplate, Lane};
use crate::{ApBackend, ApError, RoutingKind};
use memcim_automata::HomogeneousAutomaton;
use memcim_units::Joules;
use std::sync::Arc;

/// N independent input streams driven through one compiled automaton.
///
/// Obtain one from [`compile`](Self::compile) or stamp it off an
/// already-compiled template with [`ApTemplate::multi_stream`] or
/// [`AutomataProcessor::multi_stream`](crate::AutomataProcessor::multi_stream).
/// Streams are addressed by lane index `0..streams()`; each lane is an
/// independent stream with the exact semantics of a dedicated
/// [`AutomataProcessor`](crate::AutomataProcessor).
///
/// # Examples
///
/// ```
/// use memcim_ap::{ApBackend, MultiStreamProcessor, RoutingKind};
/// use memcim_automata::{HomogeneousAutomaton, Regex, StartKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let homog = HomogeneousAutomaton::from_nfa(&Regex::parse("ab")?.compile())
///     .with_start_kind(StartKind::AllInput);
/// let mut multi =
///     MultiStreamProcessor::compile(&homog, ApBackend::rram(), RoutingKind::Dense, 2)?;
/// let reports = multi.feed_many(&[&b"xxab"[..], b"abab"]);
/// assert_eq!(reports[0].cycles, 4);
/// let runs = multi.finish_all();
/// assert_eq!(runs[0].accept_events, vec![(3, runs[0].accept_events[0].1)]);
/// assert_eq!(runs[1].accept_events.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultiStreamProcessor {
    template: Arc<ApTemplate>,
    /// One scratch serves every lane: `follow_into` leaves no state
    /// behind in it, so lanes can share it without cross-talk.
    scratch: FollowScratch,
    lanes: Vec<Lane>,
    /// Monotonic lifetime totals across all lanes — never reset by
    /// per-lane [`finish`](Self::finish), so a billing layer can take
    /// watermark deltas without tracking individual stream lifecycles.
    total_cycles: u64,
    total_energy: f64,
}

impl MultiStreamProcessor {
    /// Maps an automaton onto a backend with `streams` independent
    /// stream lanes.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`ApTemplate::compile`].
    pub fn compile(
        automaton: &HomogeneousAutomaton,
        backend: ApBackend,
        routing: RoutingKind,
        streams: usize,
    ) -> Result<Self, ApError> {
        Ok(ApTemplate::compile(automaton, backend, routing)?.multi_stream(streams))
    }

    /// The compiled template every lane streams through.
    pub fn template(&self) -> &Arc<ApTemplate> {
        &self.template
    }

    /// Number of stream lanes.
    pub fn streams(&self) -> usize {
        self.lanes.len()
    }

    /// Grows the processor to at least `streams` lanes (new lanes start
    /// as fresh streams). Never shrinks — lane indices stay stable.
    pub fn ensure_streams(&mut self, streams: usize) {
        while self.lanes.len() < streams {
            self.lanes.push(Lane::new(&self.template));
        }
    }

    /// Streams one chunk through lane `stream`, continuing from that
    /// stream's current position. Returns the lane's cumulative cost
    /// report, exactly as [`AutomataProcessor::feed`] would.
    ///
    /// [`AutomataProcessor::feed`]: crate::AutomataProcessor::feed
    ///
    /// # Errors
    ///
    /// Returns [`ApError::UnknownStream`] for an out-of-range lane.
    pub fn feed(&mut self, stream: usize, chunk: &[u8]) -> Result<ApReport, ApError> {
        self.check(stream)?;
        Ok(self.feed_lane(stream, chunk))
    }

    /// Feeds `chunks[i]` to lane `i` — the batch interface. Lanes are
    /// grown on demand to `chunks.len()` and fed one after another.
    /// Returns each lane's cumulative report, in lane order.
    pub fn feed_many<C: AsRef<[u8]>>(&mut self, chunks: &[C]) -> Vec<ApReport> {
        self.ensure_streams(chunks.len());
        chunks.iter().enumerate().map(|(l, chunk)| self.feed_lane(l, chunk.as_ref())).collect()
    }

    /// The cumulative cost report of one lane's stream so far.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::UnknownStream`] for an out-of-range lane.
    pub fn report(&self, stream: usize) -> Result<ApReport, ApError> {
        self.check(stream)?;
        Ok(self.lanes[stream].report(&self.template))
    }

    /// Ends lane `stream`'s current stream: returns its cumulative
    /// [`ApRun`] and resets the lane for its next stream. Other lanes
    /// are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::UnknownStream`] for an out-of-range lane.
    pub fn finish(&mut self, stream: usize) -> Result<ApRun, ApError> {
        self.check(stream)?;
        Ok(self.lanes[stream].finish(&self.template))
    }

    /// Ends every lane's stream, returning the runs in lane order.
    pub fn finish_all(&mut self) -> Vec<ApRun> {
        self.lanes.iter_mut().map(|lane| lane.finish(&self.template)).collect()
    }

    /// Monotonic lifetime totals over all lanes: cycles executed and
    /// energy dissipated since construction, never reset by
    /// [`finish`](Self::finish). Billing layers take watermark deltas
    /// of this instead of chasing per-stream cumulative reports.
    pub fn billing_report(&self) -> ApReport {
        ApReport {
            cycles: self.total_cycles,
            latency: self.template.costs().cycle_latency * self.total_cycles as f64,
            energy: Joules::new(self.total_energy),
        }
    }

    fn check(&self, stream: usize) -> Result<(), ApError> {
        if stream < self.lanes.len() {
            Ok(())
        } else {
            Err(ApError::UnknownStream { stream, streams: self.lanes.len() })
        }
    }

    /// Feeds an in-range lane and adds its cost to the billing totals.
    fn feed_lane(&mut self, stream: usize, chunk: &[u8]) -> ApReport {
        let lane = &mut self.lanes[stream];
        let (cycles, energy) = lane.feed(&self.template, &mut self.scratch, chunk);
        self.total_cycles += cycles;
        self.total_energy += energy;
        lane.report(&self.template)
    }
}

impl ApTemplate {
    /// A processor with `streams` fresh lanes (at least one) over this
    /// template, sharing the arrays instead of copying them; its billing
    /// totals start at zero.
    pub fn multi_stream(self: &Arc<Self>, streams: usize) -> MultiStreamProcessor {
        MultiStreamProcessor {
            template: Arc::clone(self),
            scratch: self.scratch(),
            lanes: (0..streams.max(1)).map(|_| Lane::new(self)).collect(),
            total_cycles: 0,
            total_energy: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::test_support::homog;
    use crate::AutomataProcessor;
    use memcim_automata::StartKind;

    #[test]
    fn lanes_are_independent_streams() {
        let h = homog("ab").with_start_kind(StartKind::AllInput);
        let mut multi = MultiStreamProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense, 3)
            .expect("maps");
        let mut single =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        let inputs: [&[u8]; 3] = [b"xxabxx", b"ababab", b"nomatch"];
        let reports = multi.feed_many(&inputs);
        for (l, input) in inputs.iter().enumerate() {
            single.reset();
            let expected = single.feed(input);
            assert_eq!(reports[l], expected, "lane {l} cumulative report");
            assert_eq!(multi.finish(l).expect("lane exists"), single.finish(), "lane {l} run");
        }
    }

    #[test]
    fn chunked_lane_feeds_interleave() {
        let h = homog("abc").with_start_kind(StartKind::AllInput);
        let mut multi = MultiStreamProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense, 2)
            .expect("maps");
        let mut single =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        // Interleaved chunk feeds: lane state carries across batches.
        multi.feed_many(&[&b"ab"[..], b"a"]);
        multi.feed_many(&[&b"c"[..], b"bc"]);
        let runs = multi.finish_all();
        assert_eq!(runs[0], single.run(b"abc"));
        assert_eq!(runs[1], single.run(b"abc"));
    }

    #[test]
    fn unknown_stream_is_a_typed_error() {
        let h = homog("a");
        let mut multi = MultiStreamProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense, 2)
            .expect("maps");
        assert!(matches!(
            multi.feed(5, b"a"),
            Err(ApError::UnknownStream { stream: 5, streams: 2 })
        ));
        assert!(matches!(multi.finish(2), Err(ApError::UnknownStream { .. })));
        assert!(multi.report(1).is_ok());
    }

    #[test]
    fn ensure_streams_grows_and_feed_many_autovivifies() {
        let h = homog("a");
        let mut multi = MultiStreamProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense, 1)
            .expect("maps");
        assert_eq!(multi.streams(), 1);
        let reports = multi.feed_many(&[&b"a"[..], b"aa", b"aaa"]);
        assert_eq!(multi.streams(), 3);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[2].cycles, 3);
        multi.ensure_streams(2);
        assert_eq!(multi.streams(), 3, "never shrinks");
    }

    #[test]
    fn billing_totals_are_monotonic_across_finish() {
        let h = homog("ab").with_start_kind(StartKind::AllInput);
        let mut multi = MultiStreamProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense, 2)
            .expect("maps");
        multi.feed_many(&[&b"abab"[..], b"xxxx"]);
        let before = multi.billing_report();
        assert_eq!(before.cycles, 8);
        multi.finish_all();
        let after = multi.billing_report();
        assert_eq!(after, before, "finish does not reset billing totals");
        multi.feed(0, b"ab").expect("lane 0");
        assert_eq!(multi.billing_report().cycles, 10);
        assert!(multi.billing_report().energy.as_joules() > after.energy.as_joules());
    }

    #[test]
    fn configuration_cost_matches_single_stream_template() {
        // Stamping lanes or cloning shares the configured arrays, so the
        // configuration is paid once however many streams run.
        let h = homog("(a|b)+c");
        let ap =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        let multi = ap.multi_stream(8);
        assert!(Arc::ptr_eq(multi.template(), ap.template()), "lanes share the template");
        assert!(Arc::ptr_eq(ap.clone().template(), ap.template()), "clones share it too");
        assert_eq!(multi.template().configuration_cost(), ap.template().configuration_cost());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::template::test_support::pattern_strategy;
    use crate::AutomataProcessor;
    use memcim_automata::Regex;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Lanes share one routing scratch, so interleaving them must
        /// not leak state between streams: every lane equals a dedicated
        /// single-stream run — accept events, acceptance, cumulative
        /// reports and exact `f64` energy sums — across both fabrics,
        /// both start kinds, and arbitrary per-lane chunkings fed
        /// round-robin.
        #[test]
        fn multi_stream_equals_sequential_single_streams(
            pattern in pattern_strategy(),
            inputs in proptest::collection::vec(
                proptest::collection::vec(b'a'..=b'c', 0..16),
                1..6,
            ),
            cuts in proptest::collection::vec(0usize..16, 0..4),
            start_anchored in any::<bool>(),
        ) {
            let nfa = Regex::parse(&pattern).expect("generated").compile();
            let base = HomogeneousAutomaton::from_nfa(&nfa);
            if base.state_count() == 0 {
                return Ok(());
            }
            let start = if start_anchored {
                memcim_automata::StartKind::StartOfInput
            } else {
                memcim_automata::StartKind::AllInput
            };
            let h = base.with_start_kind(start);
            for kind in [
                RoutingKind::Dense,
                RoutingKind::Hierarchical { block: 8, max_global: 1 << 16 },
                RoutingKind::Hierarchical { block: 64, max_global: 1 << 16 },
            ] {
                let mut single = AutomataProcessor::compile(&h, ApBackend::rram(), kind)
                    .expect("maps");
                let mut multi = MultiStreamProcessor::compile(
                    &h, ApBackend::rram(), kind, inputs.len(),
                ).expect("maps");

                // Derive a per-lane chunking from the shared cut points,
                // offset per lane so lanes split differently.
                let rounds = cuts.len() + 1;
                let chunkings: Vec<Vec<&[u8]>> = inputs
                    .iter()
                    .enumerate()
                    .map(|(l, input)| {
                        let mut b: Vec<usize> =
                            cuts.iter().map(|&c| (c + l) % (input.len() + 1)).collect();
                        b.push(input.len());
                        b.sort_unstable();
                        let mut chunks: Vec<&[u8]> = Vec::new();
                        let mut prev = 0usize;
                        for &c in &b {
                            chunks.push(&input[prev..c]);
                            prev = c;
                        }
                        chunks.resize(rounds, &[]);
                        chunks
                    })
                    .collect();

                // Genuinely interleaved: round r sends every lane its
                // r-th chunk before any lane sees round r+1.
                for r in 0..rounds {
                    for (l, chunks) in chunkings.iter().enumerate() {
                        multi.feed(l, chunks[r]).expect("lane exists");
                    }
                }

                // Single-stream reference per lane, fed the same
                // chunking on a dedicated processor.
                let mut expected_energy_sum = 0.0f64;
                for (l, chunks) in chunkings.iter().enumerate() {
                    single.reset();
                    for chunk in chunks {
                        single.feed(chunk);
                    }
                    let expected = single.finish();
                    expected_energy_sum += expected.report.energy.as_joules();
                    let report = multi.report(l).expect("lane exists");
                    prop_assert_eq!(&report, &expected.report,
                        "pattern {} lane {} kind {:?} start {:?} cumulative report",
                        pattern.clone(), l, kind, start);
                    let run = multi.finish(l).expect("lane exists");
                    prop_assert_eq!(&run, &expected,
                        "pattern {} lane {} kind {:?} start {:?}",
                        pattern.clone(), l, kind, start);
                }
                // Lifetime energy equals the exact sum of lane deltas.
                let billing = multi.billing_report();
                prop_assert!(
                    (billing.energy.as_joules() - expected_energy_sum).abs()
                        <= expected_energy_sum.abs() * 1e-12 + f64::MIN_POSITIVE,
                    "billing energy {} vs sum {}",
                    billing.energy.as_joules(), expected_energy_sum,
                );
            }
        }
    }
}
