//! The compiled template and the stream lane: the one symbol kernel
//! every processor runs.
//!
//! The paper's AP configures the STE and routing arrays once and then
//! streams symbols through them; per stream, the only state is the
//! active vector. The code follows that shape. An [`ApTemplate`] is the
//! configured hardware — immutable, shared through an [`Arc`] by every
//! processor stamped off it — and a [`Lane`] is one stream's state
//! together with the Equations (1)–(4) symbol step.
//! [`AutomataProcessor`](crate::AutomataProcessor) is a template plus
//! one lane; [`MultiStreamProcessor`](crate::MultiStreamProcessor) is a
//! template plus many.

use crate::engine::{ApReport, ApRun};
use crate::routing::FollowScratch;
use crate::{ApBackend, ApCosts, ApError, Routing, RoutingKind, RoutingResources};
use memcim_automata::{ApMatrices, HomogeneousAutomaton};
use memcim_bits::BitVec;
use memcim_units::Joules;
use std::sync::Arc;

/// A homogeneous automaton mapped onto AP hardware: the programmed STE
/// and routing arrays and the backend's cost model, without any stream
/// state.
///
/// Compiling pays the one-time configuration cost (reported by
/// [`configuration_cost`](Self::configuration_cost)); the template is
/// then immutable and shared. [`processor`](Self::processor) and
/// [`multi_stream`](Self::multi_stream) stamp fresh stream state off
/// it without copying the matrices or the routing fabric.
///
/// # Examples
///
/// ```
/// use memcim_ap::{ApBackend, ApTemplate, RoutingKind};
/// use memcim_automata::{HomogeneousAutomaton, Regex, StartKind};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let homog = HomogeneousAutomaton::from_nfa(&Regex::parse("ab")?.compile())
///     .with_start_kind(StartKind::AllInput);
/// let template = ApTemplate::compile(&homog, ApBackend::rram(), RoutingKind::Dense)?;
/// let mut single = template.processor();
/// let mut multi = template.multi_stream(4);
/// assert!(Arc::ptr_eq(single.template(), multi.template()), "one configured array");
/// assert_eq!(single.run(b"xab").accept_events.len(), 1);
/// assert_eq!(multi.feed_many(&[&b"ab"[..], b"abab"])[1].cycles, 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ApTemplate {
    matrices: ApMatrices,
    routing: Routing,
    costs: ApCosts,
    /// `ste_ones[b]` = number of STE columns that discharge on symbol
    /// `b` — the per-symbol STE energy is a table lookup instead of a
    /// popcount over the row.
    ste_ones: Vec<u32>,
    /// Whether an all-zero active vector can come back to life after
    /// position 0 (i.e. the automaton has `all_input` states). When
    /// false, a dead stream is charged STE discharge per symbol but
    /// skips routing, follow and accept work entirely.
    revivable: bool,
}

impl ApTemplate {
    /// Maps an automaton onto a backend with the chosen routing fabric.
    ///
    /// # Errors
    ///
    /// Returns [`ApError::EmptyAutomaton`] for a stateless automaton,
    /// [`ApError::CapacityExceeded`] when the automaton exceeds the
    /// device's STE capacity, and [`ApError::RoutingInfeasible`] when
    /// hierarchical routing runs out of global wires.
    pub fn compile(
        automaton: &HomogeneousAutomaton,
        backend: ApBackend,
        routing: RoutingKind,
    ) -> Result<Arc<Self>, ApError> {
        let n = automaton.state_count();
        if n == 0 {
            return Err(ApError::EmptyAutomaton);
        }
        if n > backend.capacity {
            return Err(ApError::CapacityExceeded { states: n, capacity: backend.capacity });
        }
        let matrices = automaton.to_matrices();
        let routing = Routing::compile(&matrices.r, routing)?;
        let costs = backend.costs(n, routing.resources().config_bits);
        let ste_ones = (0..256).map(|b| matrices.v.row(b).count_ones() as u32).collect();
        let revivable = matrices.all_input.any();
        Ok(Arc::new(Self { matrices, routing, costs, ste_ones, revivable }))
    }

    /// Number of STEs occupied.
    pub fn state_count(&self) -> usize {
        self.matrices.state_count()
    }

    /// The derived per-cycle cost model.
    pub fn costs(&self) -> &ApCosts {
        &self.costs
    }

    /// Routing fabric resource usage.
    pub fn routing_resources(&self) -> RoutingResources {
        self.routing.resources()
    }

    /// One-time cost of programming the STE array and routing switches,
    /// paid once however many streams run on the template.
    pub fn configuration_cost(&self) -> ApReport {
        let ste_bits = self.matrices.v.count_ones();
        let routing_bits = self.matrices.r.count_ones();
        let bits = (ste_bits + routing_bits) as f64;
        // Rows are programmed in parallel across columns: 256 STE rows
        // plus the routing rows.
        let rows = 256 + self.routing.resources().config_bits / self.state_count().max(1);
        ApReport {
            cycles: rows as u64,
            latency: self.costs.config_latency_per_row * rows as f64,
            energy: Joules::new(self.costs.config_energy_per_bit.as_joules() * bits),
        }
    }

    /// Fresh routing scratch sized for this template's fabric.
    pub(crate) fn scratch(&self) -> FollowScratch {
        self.routing.scratch()
    }
}

/// One stream's private state: the active vector and its double buffer,
/// position, report events and accumulated energy. It owns the only
/// feed, report and finish code; the template and routing scratch are
/// lent in by the processor that holds the lane.
#[derive(Debug, Clone)]
pub(crate) struct Lane {
    /// Current active vector `a`.
    active: BitVec,
    /// Double buffer for the follow vector `f`; swapped with `active`
    /// each cycle instead of reallocated.
    follow: BitVec,
    /// Symbols consumed since the last reset.
    pos: u64,
    accept_events: Vec<(usize, usize)>,
    energy: f64,
    last_accepting: bool,
}

impl Lane {
    /// A fresh stream over `template`.
    pub(crate) fn new(template: &ApTemplate) -> Self {
        let n = template.state_count();
        Self {
            active: BitVec::new(n),
            follow: BitVec::new(n),
            pos: 0,
            accept_events: Vec::new(),
            energy: 0.0,
            last_accepting: false,
        }
    }

    /// Clears the stream state; the buffers keep their storage.
    pub(crate) fn reset(&mut self) {
        self.active.clear();
        self.pos = 0;
        self.accept_events.clear();
        self.energy = 0.0;
        self.last_accepting = false;
    }

    /// Streams one chunk through the pipeline, continuing from the
    /// current position, and returns what the chunk cost: symbols
    /// consumed and energy added. `scratch` may be shared by every lane
    /// of a processor — `follow_into` leaves no state behind in it.
    ///
    /// A *dead* stream — empty active vector past position 0 on an
    /// automaton with no `all_input` revival states — degrades to a
    /// per-symbol energy table lookup rather than a full pipeline
    /// cycle, with a report identical to the full loop's.
    pub(crate) fn feed(
        &mut self,
        template: &ApTemplate,
        scratch: &mut FollowScratch,
        chunk: &[u8],
    ) -> (u64, f64) {
        let ste_energy = template.costs.ste_energy_per_column.as_joules();
        let routing_energy = template.costs.routing_energy_per_column.as_joules();
        // Hot scalars live in locals for the duration of the chunk —
        // accumulating through `self` would force a reload/store per
        // symbol around every `&mut self`-field call.
        let ste_ones = &template.ste_ones;
        let v = &template.matrices.v;
        let ai_words = template.matrices.all_input.as_words();
        let acc_words = template.matrices.accept.as_words();
        let revivable = template.revivable;
        let (pos0, energy0) = (self.pos, self.energy);
        let mut energy = self.energy;
        let mut pos = self.pos;
        let mut last_accepting = self.last_accepting;
        // Tracked across cycles so the steady state never re-scans the
        // active vector: the fused pass below recomputes it for free.
        let mut active_any = self.active.any();
        for (i, &byte) in chunk.iter().enumerate() {
            // Dead stream: past position 0 with no active states and no
            // `all_input` revival, the active vector stays empty for the
            // rest of the stream. The STE array still discharges on
            // every symbol (the energy model is unchanged — a table
            // lookup per byte), but routing, follow and the accept scan
            // are skipped wholesale.
            if !active_any && !revivable && pos > 0 {
                for &b in &chunk[i..] {
                    energy += ste_ones[b as usize] as f64 * ste_energy;
                }
                pos += (chunk.len() - i) as u64;
                last_accepting = false;
                break;
            }

            // Step 1 — input symbol processing (Equation 1): one STE-array
            // evaluate. Discharge-proportional energy: columns whose bit
            // line falls are the ones that match the symbol, precounted
            // per symbol at compile time.
            energy += ste_ones[byte as usize] as f64 * ste_energy;

            // Step 2 — active state processing (Equations 2 and 3), into
            // the reused follow buffer. An empty active vector routes to
            // an empty follow vector with zero discharge, so the fabric
            // walk is skipped outright.
            if active_any {
                template.routing.follow_into(&self.active, &mut self.follow, scratch);
                energy += self.follow.count_ones() as f64 * routing_energy;
            } else {
                self.follow.clear();
            }
            if pos == 0 {
                self.follow.or_assign(&template.matrices.start_of_input);
            }

            // Steps 2b and 3, fused into a single word pass:
            // `f = (f | all_input) & s` (Equation 3), its emptiness for
            // the next cycle's skip decisions, and output identification
            // (Equation 4) — a word-AND with the accept mask, iterating
            // ones only in live words.
            last_accepting = false;
            let s_words = v.row(byte as usize).as_words();
            let mut any = 0u64;
            let f_words = self.follow.as_words_mut();
            for wi in 0..f_words.len() {
                let w = (f_words[wi] | ai_words[wi]) & s_words[wi];
                f_words[wi] = w;
                any |= w;
                let mut live = w & acc_words[wi];
                while live != 0 {
                    let state = wi * 64 + live.trailing_zeros() as usize;
                    self.accept_events.push((pos as usize, state));
                    last_accepting = true;
                    live &= live - 1;
                }
            }
            std::mem::swap(&mut self.active, &mut self.follow);
            active_any = any != 0;
            pos += 1;
        }
        self.energy = energy;
        self.pos = pos;
        self.last_accepting = last_accepting;
        (pos - pos0, energy - energy0)
    }

    /// The cumulative cost report for the stream so far.
    pub(crate) fn report(&self, template: &ApTemplate) -> ApReport {
        ApReport {
            cycles: self.pos,
            latency: template.costs.cycle_latency * self.pos as f64,
            energy: Joules::new(self.energy),
        }
    }

    /// Ends the stream: returns its cumulative [`ApRun`] and resets the
    /// lane for the next stream.
    pub(crate) fn finish(&mut self, template: &ApTemplate) -> ApRun {
        let run = ApRun {
            accepted: if self.pos == 0 {
                template.matrices.accepts_empty
            } else {
                self.last_accepting
            },
            accept_events: std::mem::take(&mut self.accept_events),
            symbols: self.pos,
            report: self.report(template),
        };
        self.reset();
        run
    }
}

/// Automata and random patterns shared by the processor test suites.
#[cfg(test)]
pub(crate) mod test_support {
    use memcim_automata::{HomogeneousAutomaton, Regex};
    use proptest::prelude::*;

    pub(crate) fn homog(pattern: &str) -> HomogeneousAutomaton {
        HomogeneousAutomaton::from_nfa(&Regex::parse(pattern).expect("parses").compile())
    }

    pub(crate) fn pattern_strategy() -> impl Strategy<Value = String> {
        let leaf = prop_oneof![
            Just("a".to_string()),
            Just("b".to_string()),
            Just("[ab]".to_string()),
            Just(".".to_string()),
        ];
        leaf.prop_recursive(3, 12, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("{a}{b}")),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}|{b})")),
                inner.prop_map(|a| format!("({a})*")),
            ]
        })
    }
}
