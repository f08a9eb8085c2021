//! High-level facade: regex rule sets on the RRAM automata processor.

use memcim_ap::{ApBackend, ApMatches, AutomataProcessor, CompiledPatterns};
use memcim_automata::PatternSet;
use std::error::Error;

/// A compiled multi-pattern scanner running on an automata-processor
/// backend — the end-to-end RRAM-AP pipeline of the paper's Section IV
/// behind one type: one [`CompiledPatterns`] and one processor stamped
/// off its template.
///
/// See the [crate-level quick start](crate).
#[derive(Debug)]
pub struct RegexAccelerator {
    compiled: CompiledPatterns,
    processor: AutomataProcessor,
}

impl RegexAccelerator {
    /// Compiles a rule set onto the RRAM backend.
    ///
    /// # Errors
    ///
    /// Propagates pattern-parse errors and hardware mapping failures.
    pub fn rram(patterns: &[&str]) -> Result<Self, Box<dyn Error + Send + Sync>> {
        Self::on_backend(patterns, ApBackend::rram())
    }

    /// Compiles a rule set onto an explicit backend (see
    /// [`CompiledPatterns::compile`]).
    ///
    /// # Errors
    ///
    /// Propagates pattern-parse errors and hardware mapping failures.
    pub fn on_backend(
        patterns: &[&str],
        backend: ApBackend,
    ) -> Result<Self, Box<dyn Error + Send + Sync>> {
        let compiled = CompiledPatterns::compile(&PatternSet::compile(patterns)?, backend)?;
        let processor = compiled.template().processor();
        Ok(Self { compiled, processor })
    }

    /// Number of compiled patterns.
    pub fn pattern_count(&self) -> usize {
        self.compiled.pattern_count()
    }

    /// STEs occupied on the device.
    pub fn state_count(&self) -> usize {
        self.processor.state_count()
    }

    /// The underlying processor (cost model, routing resources, …).
    pub fn processor(&self) -> &AutomataProcessor {
        &self.processor
    }

    /// Scans an input, attributing every report event to its pattern.
    pub fn scan(&mut self, input: &[u8]) -> ApMatches {
        self.compiled.matches(&self.processor.run(input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_rule_matching() {
        let mut accel = RegexAccelerator::rram(&["abc", "x+y"]).expect("compiles");
        let outcome = accel.scan(b"zzabczzxxxyzz");
        assert_eq!(accel.pattern_count(), 2);
        assert_eq!(outcome.matched_patterns(), vec![0, 1]);
        // abc ends at index 4; xxy ends at index 10.
        assert!(outcome.matches.contains(&(4, 0)));
        assert!(outcome.matches.contains(&(10, 1)));
        assert!(outcome.report.energy.as_joules() > 0.0);
    }

    #[test]
    fn no_match_produces_costs_but_no_events() {
        let mut accel = RegexAccelerator::rram(&["needle"]).expect("compiles");
        let outcome = accel.scan(b"haystack haystack");
        assert!(outcome.matches.is_empty());
        assert_eq!(outcome.symbols, 17);
        assert!(outcome.report.latency.as_seconds() > 0.0);
    }

    #[test]
    fn bad_pattern_surfaces_the_parse_error() {
        let err = RegexAccelerator::rram(&["a(b"]).expect_err("unbalanced");
        assert!(err.to_string().contains("parse"));
    }

    #[test]
    fn backend_choice_changes_cost_not_semantics() {
        let input = b"GET /abc GET /def".repeat(4);
        let mut rram = RegexAccelerator::rram(&["GET /[a-z]+"]).expect("rram");
        let mut sram =
            RegexAccelerator::on_backend(&["GET /[a-z]+"], ApBackend::sram()).expect("sram");
        let r = rram.scan(&input);
        let s = sram.scan(&input);
        assert_eq!(r.matches, s.matches);
        assert!(r.report.energy.as_joules() < s.report.energy.as_joules());
    }
}
