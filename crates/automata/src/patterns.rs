//! Multi-pattern sets and synthetic workload generators.
//!
//! The paper motivates automata processing with network security \[22\],
//! computational biology \[23\] and data mining \[24\]. Real rule sets and
//! genomes are licensing-gated, so this module generates *synthetic*
//! equivalents that exercise the same structures: unioned NFAs with high
//! fan-out, dense symbol classes, and inputs with planted true positives.
//! Only the data is substituted: planting the positives makes every
//! expected match known to the tests.

use crate::{AutomataError, HomogeneousAutomaton, Nfa, Regex, StateId};
use rand::Rng;
use std::collections::HashMap;

/// A match attributed to a specific pattern of a [`PatternSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternMatch {
    /// Index of the pattern in the set.
    pub pattern: usize,
    /// Input index of the symbol that completed the match.
    pub end: usize,
}

/// A compiled multi-pattern automaton: the union NFA of all patterns,
/// scanned unanchored, with accept states attributed back to patterns.
///
/// # Examples
///
/// ```
/// use memcim_automata::PatternSet;
///
/// # fn main() -> Result<(), memcim_automata::AutomataError> {
/// let set = PatternSet::compile(&["GET [a-z]+", "POST"])?;
/// let matches = set.scan(b"xx GET abc POST yy");
/// assert!(matches.iter().any(|m| m.pattern == 0));
/// assert!(matches.iter().any(|m| m.pattern == 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PatternSet {
    patterns: Vec<Regex>,
    nfa: Nfa,
    pattern_of_state: HashMap<StateId, usize>,
}

impl PatternSet {
    /// Parses and compiles a set of patterns into one union automaton.
    ///
    /// # Errors
    ///
    /// Returns [`AutomataError::EmptyPatternSet`] for an empty slice and
    /// propagates parse errors from individual patterns.
    pub fn compile(patterns: &[&str]) -> Result<Self, AutomataError> {
        if patterns.is_empty() {
            return Err(AutomataError::EmptyPatternSet);
        }
        let parsed: Vec<Regex> =
            patterns.iter().map(|p| Regex::parse(p)).collect::<Result<_, _>>()?;
        let compiled: Vec<Nfa> = parsed.iter().map(Regex::compile).collect();
        let (nfa, maps) = Nfa::union(compiled.iter());
        let mut pattern_of_state = HashMap::new();
        for (pat_idx, (machine, map)) in compiled.iter().zip(&maps).enumerate() {
            for (old, &new) in map.iter().enumerate() {
                if machine.is_accept(old) {
                    pattern_of_state.insert(new, pat_idx);
                }
            }
        }
        Ok(Self { patterns: parsed, nfa, pattern_of_state })
    }

    /// The parsed patterns.
    pub fn patterns(&self) -> &[Regex] {
        &self.patterns
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// `true` if the set is empty (cannot happen via
    /// [`compile`](Self::compile)).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The union NFA.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// The pattern owning an accept state of the union NFA, if any.
    pub fn pattern_of_state(&self, state: StateId) -> Option<usize> {
        self.pattern_of_state.get(&state).copied()
    }

    /// Unanchored scan attributing every match event to its pattern.
    pub fn scan(&self, input: &[u8]) -> Vec<PatternMatch> {
        self.nfa
            .scan(input)
            .into_iter()
            .filter_map(|e| {
                self.pattern_of_state(e.state).map(|pattern| PatternMatch { pattern, end: e.end })
            })
            .collect()
    }

    /// Converts to the AP-implementable homogeneous form, returning the
    /// automaton plus the pattern owning each accepting homogeneous
    /// state.
    pub fn to_homogeneous(&self) -> (HomogeneousAutomaton, HashMap<usize, usize>) {
        let h = HomogeneousAutomaton::from_nfa(&self.nfa);
        let mut owner = HashMap::new();
        for hs in 0..h.state_count() {
            if h.is_accept(hs) {
                if let Some(p) = self.pattern_of_state(h.origin(hs)) {
                    owner.insert(hs, p);
                }
            }
        }
        (h, owner)
    }
}

/// Synthetic DNA workloads (the paper's computational-biology use case).
pub mod dna {
    use super::*;

    /// The nucleotide alphabet.
    pub const ALPHABET: [u8; 4] = [b'A', b'C', b'G', b'T'];

    /// Generates a uniform random genome of the given length.
    pub fn random_genome<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Vec<u8> {
        (0..len).map(|_| ALPHABET[rng.gen_range(0..4usize)]).collect()
    }

    /// Overwrites the genome with `motif` at each given position.
    ///
    /// # Panics
    ///
    /// Panics if a plant would run past the end of the genome.
    pub fn plant(genome: &mut [u8], motif: &[u8], positions: &[usize]) {
        for &p in positions {
            assert!(p + motif.len() <= genome.len(), "plant at {p} overruns genome");
            genome[p..p + motif.len()].copy_from_slice(motif);
        }
    }

    /// Converts a motif with IUPAC wildcards (`N` = any base, `R` = A/G,
    /// `Y` = C/T) into a regex pattern string.
    pub fn motif_to_regex(motif: &str) -> String {
        motif
            .chars()
            .map(|c| match c {
                'N' => "[ACGT]".to_string(),
                'R' => "[AG]".to_string(),
                'Y' => "[CT]".to_string(),
                other => other.to_string(),
            })
            .collect()
    }

    /// Generates `count` random exact motifs of the given length.
    pub fn random_motifs<R: Rng + ?Sized>(rng: &mut R, count: usize, len: usize) -> Vec<String> {
        (0..count)
            .map(|_| (0..len).map(|_| ALPHABET[rng.gen_range(0..4usize)] as char).collect())
            .collect()
    }
}

/// Synthetic deep-packet-inspection rule sets (the paper's network
/// security use case).
pub mod rules {
    use super::*;

    /// Generates `count` Snort-flavoured rules: method/keyword heads,
    /// path or token bodies with classes and bounded repeats.
    pub fn synthetic_rules<R: Rng + ?Sized>(rng: &mut R, count: usize) -> Vec<String> {
        let heads = ["GET", "POST", "HEAD", "PUT", "EVIL", "ADMIN", "ROOT", "CMD"];
        let tails = ["exe", "php", "cgi", "dll", "sh", "bin"];
        (0..count)
            .map(|_| {
                let head = heads[rng.gen_range(0..heads.len())];
                let tail = tails[rng.gen_range(0..tails.len())];
                match rng.gen_range(0..4) {
                    0 => format!("{head} /[a-z]{{1,{}}}\\.{tail}", rng.gen_range(3..9)),
                    1 => format!("{head}(/[a-z0-9]+)+\\.{tail}"),
                    2 => format!("{head} .*\\.{tail}"),
                    _ => format!("({head}|{}) /[a-z]+", heads[rng.gen_range(0..heads.len())]),
                }
            })
            .collect()
    }

    /// Generates `len` bytes of mostly-random printable traffic with
    /// matches of the given patterns planted at random offsets
    /// (`plants` insertions).
    pub fn synthetic_traffic<R: Rng + ?Sized>(
        rng: &mut R,
        patterns: &[Regex],
        len: usize,
        plants: usize,
    ) -> Vec<u8> {
        let mut out: Vec<u8> = (0..len).map(|_| rng.gen_range(b' '..=b'~')).collect();
        for _ in 0..plants {
            if patterns.is_empty() {
                break;
            }
            let p = &patterns[rng.gen_range(0..patterns.len())];
            let sample = p.sample(rng);
            if sample.is_empty() || sample.len() >= out.len() {
                continue;
            }
            let at = rng.gen_range(0..out.len() - sample.len());
            out[at..at + sample.len()].copy_from_slice(&sample);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pattern_set_attributes_matches() {
        let set = PatternSet::compile(&["abc", "ab", "bc"]).expect("compiles");
        let matches = set.scan(b"xabcx");
        let pats: Vec<usize> = matches.iter().map(|m| m.pattern).collect();
        assert!(pats.contains(&0), "abc matched");
        assert!(pats.contains(&1), "ab matched");
        assert!(pats.contains(&2), "bc matched");
        // End positions line up with the completing symbol.
        assert!(matches.contains(&PatternMatch { pattern: 0, end: 3 }));
        assert!(matches.contains(&PatternMatch { pattern: 1, end: 2 }));
    }

    #[test]
    fn empty_set_is_rejected() {
        assert!(matches!(PatternSet::compile(&[]), Err(AutomataError::EmptyPatternSet)));
    }

    #[test]
    fn homogeneous_projection_keeps_pattern_attribution() {
        let set = PatternSet::compile(&["ax", "bx"]).expect("compiles");
        let (h, owner) = set.to_homogeneous();
        assert!(!owner.is_empty());
        for (&state, &pat) in &owner {
            assert!(h.is_accept(state));
            assert!(pat < 2);
        }
        // Both patterns own at least one accepting state.
        let owned: std::collections::HashSet<usize> = owner.values().copied().collect();
        assert_eq!(owned.len(), 2);
    }

    #[test]
    fn disabling_rules_makes_their_states_strippable() {
        // The compiler emits trim machines, so the full corpus strips to
        // itself; disabling a rule subset leaves dead tails that strip
        // removes while staying run-equivalent on the subset machine.
        let mut rng = SmallRng::seed_from_u64(2018);
        let texts = rules::synthetic_rules(&mut rng, 16);
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let set = PatternSet::compile(&refs).expect("compiles");
        let (h, owner) = set.to_homogeneous();
        assert_eq!(h.clone().strip().0.state_count(), h.state_count(), "full corpus is trim");
        let subset = h.retain_accepts(|s| owner.get(&s).is_none_or(|&pattern| pattern % 2 == 0));
        let (stripped, _remap) = subset.clone().strip();
        assert!(
            stripped.state_count() < subset.state_count(),
            "disabled rules' exclusive states fall out"
        );
        let traffic = rules::synthetic_traffic(&mut rng, set.patterns(), 3000, 12);
        assert_eq!(stripped.run(&traffic), subset.run(&traffic));
    }

    #[test]
    fn genome_and_plant() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut g = dna::random_genome(&mut rng, 1000);
        assert_eq!(g.len(), 1000);
        assert!(g.iter().all(|b| dna::ALPHABET.contains(b)));
        dna::plant(&mut g, b"ACGTACGT", &[10, 500]);
        assert_eq!(&g[10..18], b"ACGTACGT");
        assert_eq!(&g[500..508], b"ACGTACGT");
    }

    #[test]
    fn motif_wildcards_expand() {
        assert_eq!(dna::motif_to_regex("ANR"), "A[ACGT][AG]");
        let re = Regex::parse(&dna::motif_to_regex("ANT")).expect("parses");
        let nfa = re.compile();
        assert!(nfa.accepts(b"ACT"));
        assert!(nfa.accepts(b"AGT"));
        assert!(!nfa.accepts(b"AC"));
    }

    #[test]
    fn synthetic_rules_all_parse_and_traffic_contains_plants() {
        let mut rng = SmallRng::seed_from_u64(7);
        let texts = rules::synthetic_rules(&mut rng, 25);
        assert_eq!(texts.len(), 25);
        let parsed: Vec<Regex> =
            texts.iter().map(|t| Regex::parse(t).expect("rule parses")).collect();
        let traffic = rules::synthetic_traffic(&mut rng, &parsed, 4096, 20);
        assert_eq!(traffic.len(), 4096);
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let set = PatternSet::compile(&refs).expect("set compiles");
        // With 20 plants, the scan must find something.
        assert!(!set.scan(&traffic).is_empty());
    }

    #[test]
    fn sampled_strings_match_their_pattern() {
        let mut rng = SmallRng::seed_from_u64(3);
        for text in ["a[bc]{2,4}d", "(GET|POST) /[a-z]+", "x+y?z*"] {
            let re = Regex::parse(text).expect("parses");
            let nfa = re.compile();
            for _ in 0..20 {
                let s = re.sample(&mut rng);
                assert!(nfa.accepts(&s), "{text} should accept {s:?}");
            }
        }
    }
}
