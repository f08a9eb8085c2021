//! The single-stream processor and the run/report types.

use crate::routing::FollowScratch;
use crate::template::{ApTemplate, Lane};
use crate::{ApBackend, ApError, MultiStreamProcessor, RoutingKind};
use memcim_automata::HomogeneousAutomaton;
use memcim_units::{Joules, Seconds};
use std::sync::Arc;

/// A report event or run summary cost line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApReport {
    /// Symbol cycles executed.
    pub cycles: u64,
    /// Total pipeline latency.
    pub latency: Seconds,
    /// Total dynamic energy (STE + routing arrays, discharge-proportional).
    pub energy: Joules,
}

impl ApReport {
    /// Average energy per input symbol.
    pub fn energy_per_symbol(&self) -> Joules {
        if self.cycles == 0 {
            Joules::ZERO
        } else {
            Joules::new(self.energy.as_joules() / self.cycles as f64)
        }
    }
}

/// The outcome of one input run.
#[derive(Debug, Clone, PartialEq)]
pub struct ApRun {
    /// Anchored acceptance after the final symbol.
    pub accepted: bool,
    /// `(position, state)` report events — every accept-state activation.
    pub accept_events: Vec<(usize, usize)>,
    /// Input length processed.
    pub symbols: u64,
    /// Cost summary.
    pub report: ApReport,
}

/// A homogeneous automaton mapped onto AP hardware, streaming one input
/// at a time: a shared [`ApTemplate`] plus one stream lane.
///
/// Compiling programs the STE and routing arrays (a one-time
/// configuration cost, reported by [`ApTemplate::configuration_cost`]);
/// each [`run`](Self::run) then streams input symbols through the
/// three-step pipeline of the paper's Fig. 6, accumulating latency and
/// energy from the backend's calibrated cost model.
///
/// The symbol loop is allocation-free in steady state: the processor
/// owns double-buffered active/follow vectors and the routing scratch,
/// all reused across symbols and across [`run`](Self::run) calls.
/// Long-lived connections can stream incrementally through
/// [`reset`](Self::reset) / [`feed`](Self::feed) /
/// [`finish`](Self::finish) — feeding an input in chunks is equivalent
/// to one [`run`](Self::run) over the concatenation. Cloning shares the
/// template and copies only the stream state.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct AutomataProcessor {
    template: Arc<ApTemplate>,
    lane: Lane,
    scratch: FollowScratch,
}

impl AutomataProcessor {
    /// Maps an automaton onto a backend with the chosen routing fabric.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`ApTemplate::compile`].
    pub fn compile(
        automaton: &HomogeneousAutomaton,
        backend: ApBackend,
        routing: RoutingKind,
    ) -> Result<Self, ApError> {
        Ok(ApTemplate::compile(automaton, backend, routing)?.processor())
    }

    /// The compiled template this processor streams through: backend,
    /// cost model, routing resources and configuration cost.
    pub fn template(&self) -> &Arc<ApTemplate> {
        &self.template
    }

    /// Number of STEs occupied.
    pub fn state_count(&self) -> usize {
        self.template.state_count()
    }

    /// Instantiates a multi-stream processor over this processor's
    /// template with `streams` fresh lanes; this processor's own stream
    /// is untouched.
    pub fn multi_stream(&self, streams: usize) -> MultiStreamProcessor {
        self.template.multi_stream(streams)
    }

    /// Streams an input through the processor.
    ///
    /// Equivalent to [`reset`](Self::reset), one [`feed`](Self::feed)
    /// of the whole input, then [`finish`](Self::finish).
    pub fn run(&mut self, input: &[u8]) -> ApRun {
        self.reset();
        self.feed(input);
        self.finish()
    }

    /// Clears the streaming state: active vector, position, accumulated
    /// report events and energy. The scratch buffers keep their storage.
    pub fn reset(&mut self) {
        self.lane.reset();
    }

    /// Streams one chunk of input through the pipeline, continuing from
    /// the current stream position — the incremental interface for
    /// long-lived connections. Returns the cumulative cost report for
    /// the stream so far; report-event positions are absolute (relative
    /// to the last [`reset`](Self::reset)).
    ///
    /// Feeding a split input chunk by chunk and then calling
    /// [`finish`](Self::finish) yields exactly the [`ApRun`] of a
    /// one-shot [`run`](Self::run) over the concatenation.
    ///
    /// A *dead* stream — empty active vector past position 0 on an
    /// automaton with no `all_input` revival states — degrades to a
    /// per-symbol energy table lookup rather than a full pipeline
    /// cycle, with a report identical to the full loop's.
    ///
    /// # Examples
    ///
    /// ```
    /// use memcim_ap::{ApBackend, AutomataProcessor, RoutingKind};
    /// use memcim_automata::{HomogeneousAutomaton, Regex, StartKind};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let homog = HomogeneousAutomaton::from_nfa(&Regex::parse("ab")?.compile())
    ///     .with_start_kind(StartKind::AllInput);
    /// let mut ap = AutomataProcessor::compile(&homog, ApBackend::rram(), RoutingKind::Dense)?;
    /// let expected = ap.run(b"xabxab");
    ///
    /// ap.reset();
    /// ap.feed(b"xa"); // a chunk may end mid-match…
    /// let report = ap.feed(b"bxab"); // …active state carries across the boundary
    /// assert_eq!(report.cycles, 6, "reports are cumulative over the stream");
    /// assert_eq!(ap.finish(), expected, "chunked ≡ one-shot");
    /// # Ok(())
    /// # }
    /// ```
    pub fn feed(&mut self, chunk: &[u8]) -> ApReport {
        self.lane.feed(&self.template, &mut self.scratch, chunk);
        self.lane.report(&self.template)
    }

    /// Ends the stream: returns the cumulative [`ApRun`] since the last
    /// [`reset`](Self::reset) and resets the processor for the next
    /// stream.
    pub fn finish(&mut self) -> ApRun {
        self.lane.finish(&self.template)
    }
}

impl ApTemplate {
    /// A single-stream processor over this template: one fresh lane,
    /// sharing the arrays instead of copying them.
    pub fn processor(self: &Arc<Self>) -> AutomataProcessor {
        AutomataProcessor {
            template: Arc::clone(self),
            lane: Lane::new(self),
            scratch: self.scratch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::test_support::homog;
    use memcim_automata::{Regex, StartKind};

    #[test]
    fn engine_agrees_with_reference_interpreter() {
        let nfa = Regex::parse("(ab|ba)+c?").expect("parses").compile();
        let h = HomogeneousAutomaton::from_nfa(&nfa);
        let mut ap =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        for input in [&b"ab"[..], b"abba", b"abbac", b"ba", b"", b"abc", b"cab"] {
            assert_eq!(ap.run(input).accepted, nfa.accepts(input), "input {input:?}");
        }
    }

    #[test]
    fn report_events_match_scanning_semantics() {
        let h = homog("ab").with_start_kind(StartKind::AllInput);
        let mut ap =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        let run = ap.run(b"xabxab");
        let positions: Vec<usize> = run.accept_events.iter().map(|&(p, _)| p).collect();
        assert_eq!(positions, vec![2, 5]);
    }

    #[test]
    fn feeding_chunks_matches_one_shot_run() {
        let h = homog("ab").with_start_kind(StartKind::AllInput);
        let mut ap =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        let expected = ap.run(b"xabxab");
        ap.reset();
        let mid = ap.feed(b"xa");
        assert_eq!(mid.cycles, 2);
        // A clone shares the template but forks the stream state.
        let mut fork = ap.clone();
        assert_eq!(fork.feed(b"b").cycles, 3);
        ap.feed(b"");
        let cumulative = ap.feed(b"bxab");
        assert_eq!(cumulative.cycles, 6);
        assert_eq!(cumulative, expected.report, "cumulative report equals one-shot");
        let streamed = ap.finish();
        assert_eq!(streamed, expected);
        // finish() resets: an immediately finished empty stream is the
        // empty-input run.
        assert_eq!(ap.finish(), ap.run(b""));
    }

    #[test]
    fn dead_stream_early_out_matches_full_pipeline() {
        // Anchored pattern: no `all_input` states, so once the active
        // vector empties past position 0 the stream is dead for good
        // and the bulk early-out engages.
        let h = homog("abc");
        for kind in
            [RoutingKind::Dense, RoutingKind::Hierarchical { block: 4, max_global: 1 << 16 }]
        {
            let mut ap = AutomataProcessor::compile(&h, ApBackend::rram(), kind).expect("maps");
            // Accepts at position 2, dead from position 3 onward.
            let input = b"abcxyzabcabc";
            let expected = ap.run(input);
            assert!(!expected.accepted, "death is permanent without all_input");
            let positions: Vec<usize> = expected.accept_events.iter().map(|&(p, _)| p).collect();
            assert_eq!(positions, vec![2], "the pre-death event survives");

            // Chunked across the death boundary, empty chunks included.
            ap.reset();
            ap.feed(b"abcx");
            ap.feed(&[]);
            let mid = ap.feed(b"yzabc");
            let idle = ap.feed(&[]);
            assert_eq!(idle, mid, "feed(&[]) is a no-op on a dead stream");
            let cumulative = ap.feed(b"abc");
            assert!(
                cumulative.energy.as_joules() > mid.energy.as_joules(),
                "dead symbols still pay STE discharge"
            );
            assert_eq!(ap.finish(), expected, "dead-stream-then-finish ≡ one-shot");

            // Symbol-at-a-time feeding (the dead check runs per call).
            ap.reset();
            for &b in input.iter() {
                ap.feed(std::slice::from_ref(&b));
            }
            assert_eq!(ap.finish(), expected, "per-symbol ≡ one-shot");
        }
    }

    #[test]
    fn costs_accumulate_per_symbol() {
        let h = homog("abc+");
        let mut ap =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        let short = ap.run(b"abc");
        let long = ap.run(b"abcccccccc");
        assert_eq!(short.report.cycles, 3);
        assert_eq!(long.report.cycles, 10);
        assert!(long.report.latency.as_seconds() > short.report.latency.as_seconds());
        assert!(long.report.energy.as_joules() > short.report.energy.as_joules());
        assert!(short.report.energy_per_symbol().as_joules() > 0.0);
    }

    #[test]
    fn rram_outruns_sram_on_the_same_automaton() {
        let h = homog("(GET|POST) /[a-z]+");
        let input = b"GET /abcdefgh".repeat(8);
        let mut rram =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("maps");
        let mut sram =
            AutomataProcessor::compile(&h, ApBackend::sram(), RoutingKind::Dense).expect("maps");
        let rr = rram.run(&input);
        let sr = sram.run(&input);
        assert_eq!(rr.accepted, sr.accepted, "functionality is substrate-independent");
        assert!(rr.report.latency.as_seconds() < sr.report.latency.as_seconds());
        assert!(rr.report.energy.as_joules() < sr.report.energy.as_joules());
    }

    #[test]
    fn hierarchical_routing_preserves_behaviour() {
        let h = homog("a(b|c)*d{2,3}");
        let inputs: Vec<&[u8]> = vec![b"abd", b"abcdd", b"addd", b"abcbcbddd", b"ad"];
        let mut dense =
            AutomataProcessor::compile(&h, ApBackend::rram(), RoutingKind::Dense).expect("dense");
        let mut hier = AutomataProcessor::compile(
            &h,
            ApBackend::rram(),
            RoutingKind::Hierarchical { block: 4, max_global: 4096 },
        )
        .expect("hier");
        for input in inputs {
            assert_eq!(dense.run(input).accepted, hier.run(input).accepted, "{input:?}");
        }
        let (hier, dense) = (hier.template(), dense.template());
        assert!(hier.routing_resources().config_bits <= dense.routing_resources().config_bits);
    }

    #[test]
    fn capacity_and_emptiness_are_enforced() {
        let h = homog("abc");
        let tiny = ApBackend { capacity: 1, ..ApBackend::rram() };
        assert!(matches!(
            AutomataProcessor::compile(&h, tiny, RoutingKind::Dense),
            Err(ApError::CapacityExceeded { .. })
        ));
        let empty = HomogeneousAutomaton::from_nfa(&{
            let mut n = memcim_automata::Nfa::new();
            let s = n.add_state();
            n.add_start(s);
            n
        });
        assert!(matches!(
            AutomataProcessor::compile(&empty, ApBackend::rram(), RoutingKind::Dense),
            Err(ApError::EmptyAutomaton)
        ));
    }

    #[test]
    fn configuration_cost_is_nonzero_and_backend_dependent() {
        let h = homog("(a|b|c|d)+x");
        let rram = ApTemplate::compile(&h, ApBackend::rram(), RoutingKind::Dense)
            .expect("maps")
            .configuration_cost();
        let sram = ApTemplate::compile(&h, ApBackend::sram(), RoutingKind::Dense)
            .expect("maps")
            .configuration_cost();
        assert!(rram.energy.as_joules() > 0.0);
        // The RRAM drawback: configuration is slower and hungrier.
        assert!(rram.energy.as_joules() > sram.energy.as_joules());
        assert!(rram.latency.as_seconds() > sram.latency.as_seconds());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::template::test_support::pattern_strategy;
    use memcim_automata::Regex;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The hardware engine (both routings, any backend) equals the
        /// reference NFA interpreter on random patterns and inputs.
        #[test]
        fn hardware_equals_reference(
            pattern in pattern_strategy(),
            input in proptest::collection::vec(b'a'..=b'c', 0..12),
        ) {
            let nfa = Regex::parse(&pattern).expect("generated").compile();
            let h = HomogeneousAutomaton::from_nfa(&nfa);
            if h.state_count() == 0 {
                // Language is {ε} or ∅ at the hardware level.
                return Ok(());
            }
            let expected = nfa.accepts(&input);
            for kind in [RoutingKind::Dense, RoutingKind::Hierarchical { block: 8, max_global: 1 << 16 }] {
                let mut ap = AutomataProcessor::compile(&h, ApBackend::rram(), kind)
                    .expect("maps");
                prop_assert_eq!(ap.run(&input).accepted, expected,
                    "pattern {} input {:?}", pattern.clone(), input.clone());
            }
        }

        /// Feeding any chunking of an input equals the one-shot run —
        /// events, acceptance and cost report alike — on both fabrics
        /// and both start kinds, with state correctly carried across
        /// chunk boundaries and across consecutive streams on one
        /// processor. The anchored (`StartOfInput`) variant drives the
        /// dead-stream early-out: most random inputs kill an anchored
        /// automaton mid-stream, so the bulk path must report exactly
        /// like the full pipeline across arbitrary cut points.
        #[test]
        fn chunked_feed_equals_one_shot_run(
            pattern in pattern_strategy(),
            input in proptest::collection::vec(b'a'..=b'c', 0..24),
            cuts in proptest::collection::vec(0usize..24, 0..5),
        ) {
            let nfa = Regex::parse(&pattern).expect("generated").compile();
            let base = HomogeneousAutomaton::from_nfa(&nfa);
            if base.state_count() == 0 {
                return Ok(());
            }
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (input.len() + 1)).collect();
            bounds.push(0);
            bounds.push(input.len());
            bounds.sort_unstable();
            for start in [
                memcim_automata::StartKind::StartOfInput,
                memcim_automata::StartKind::AllInput,
            ] {
                let h = base.clone().with_start_kind(start);
                for kind in [RoutingKind::Dense, RoutingKind::Hierarchical { block: 8, max_global: 1 << 16 }] {
                    let mut ap = AutomataProcessor::compile(&h, ApBackend::rram(), kind)
                        .expect("maps");
                    let expected = ap.run(&input);
                    for window in bounds.windows(2) {
                        ap.feed(&input[window[0]..window[1]]);
                    }
                    let streamed = ap.finish();
                    prop_assert_eq!(&streamed, &expected,
                        "pattern {} input {:?} cuts {:?} start {:?}", pattern.clone(),
                        input.clone(), bounds.clone(), start);
                }
            }
        }
    }
}
