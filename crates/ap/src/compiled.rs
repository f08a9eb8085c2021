//! One rule set compiled onto AP hardware, and the attributed result of
//! streaming an input through it.
//!
//! The paper's RRAM-AP maps a whole rule set onto one STE array and one
//! routing fabric (Section IV, Figs. 6–7). [`CompiledPatterns`] is the
//! only code that makes that mapping: it takes the set's homogeneous
//! form with unanchored starts, strips dead STEs, chooses the routing
//! fabric and keeps the state → pattern attribution that turns an
//! [`ApRun`]'s report events into [`ApMatches`].

use crate::{ApBackend, ApError, ApReport, ApRun, ApTemplate, RoutingKind};
use memcim_automata::{PatternSet, StartKind};
use std::sync::Arc;

/// The result of one attributed stream: report events mapped back to
/// the pattern they complete.
#[derive(Debug, Clone, PartialEq)]
pub struct ApMatches {
    /// Anchored acceptance after the final symbol.
    pub accepted: bool,
    /// `(end position, pattern index)` for every report event.
    pub matches: Vec<(usize, usize)>,
    /// Symbols streamed.
    pub symbols: u64,
    /// Cost summary for the whole stream.
    pub report: ApReport,
}

impl ApMatches {
    /// The distinct patterns that matched, ascending.
    pub fn matched_patterns(&self) -> Vec<usize> {
        let mut pats: Vec<usize> = self.matches.iter().map(|&(_, p)| p).collect();
        pats.sort_unstable();
        pats.dedup();
        pats
    }
}

/// A [`PatternSet`] mapped onto AP hardware: the configured template,
/// which pattern each accepting STE reports for, and whether routing
/// fell back to a dense matrix.
///
/// Processors are stamped off [`template`](Self::template); runs on
/// them are attributed with [`matches`](Self::matches).
///
/// # Examples
///
/// ```
/// use memcim_ap::{ApBackend, CompiledPatterns};
/// use memcim_automata::PatternSet;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = PatternSet::compile(&["GET /[a-z]+", "x+y"])?;
/// let compiled = CompiledPatterns::compile(&set, ApBackend::rram())?;
/// let run = compiled.template().processor().run(b"GET /a xxy");
/// let hits = compiled.matches(&run);
/// assert_eq!(hits.matched_patterns(), vec![0, 1]);
/// assert!(hits.matches.contains(&(9, 1)));
/// assert!(!compiled.routing_fallback());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CompiledPatterns {
    template: Arc<ApTemplate>,
    /// `owner[state]` is the pattern an accepting state reports for.
    owner: Vec<Option<usize>>,
    pattern_count: usize,
    routing_fallback: bool,
}

impl CompiledPatterns {
    /// Maps `set` onto `backend` for unanchored scanning. States that
    /// no input can activate, or that can reach no accept state, are
    /// stripped first (the strip is run-equivalent). Routing is the
    /// Cache Automaton's two-level hierarchy, or a dense matrix when
    /// the rule set needs more global wires than it has; the fallback
    /// is recorded, not silent.
    ///
    /// # Errors
    ///
    /// [`ApError::EmptyAutomaton`] and [`ApError::CapacityExceeded`]
    /// from [`ApTemplate::compile`].
    pub fn compile(set: &PatternSet, backend: ApBackend) -> Result<Self, ApError> {
        let (homog, owner_of_state) = set.to_homogeneous();
        let (homog, remap) = homog.with_start_kind(StartKind::AllInput).strip();
        let mut owner = vec![None; homog.state_count()];
        for (state, pattern) in owner_of_state {
            if let Some(new) = remap[state] {
                owner[new] = Some(pattern);
            }
        }
        let (template, routing_fallback) =
            match ApTemplate::compile(&homog, backend.clone(), RoutingKind::cache_automaton()) {
                Ok(template) => (template, false),
                Err(ApError::RoutingInfeasible { .. }) => {
                    (ApTemplate::compile(&homog, backend, RoutingKind::Dense)?, true)
                }
                Err(e) => return Err(e),
            };
        Ok(Self { template, owner, pattern_count: set.patterns().len(), routing_fallback })
    }

    /// The configured hardware; stamp processors off it.
    pub fn template(&self) -> &Arc<ApTemplate> {
        &self.template
    }

    /// Number of patterns in the compiled set.
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Whether hierarchical routing ran out of global wires and the set
    /// runs on a dense routing matrix: functionally identical, but the
    /// per-symbol routing cost scales with the full `N×N` array.
    pub fn routing_fallback(&self) -> bool {
        self.routing_fallback
    }

    /// Attributes a run of a processor stamped off this set's template:
    /// every report event becomes `(end position, pattern index)`.
    pub fn matches(&self, run: &ApRun) -> ApMatches {
        ApMatches {
            accepted: run.accepted,
            matches: run
                .accept_events
                .iter()
                .filter_map(|&(pos, state)| {
                    self.owner.get(state).copied().flatten().map(|p| (pos, p))
                })
                .collect(),
            symbols: run.symbols,
            report: run.report,
        }
    }
}
