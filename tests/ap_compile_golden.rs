//! Golden pins for the pattern-set → AP compile behind
//! `RegexAccelerator`: for every corpus the facade is tested or shown
//! with, on each backend, the STE count and a digest of one scan (its
//! attributed matches, symbol count, cycle count and the exact bits of
//! energy and latency). A change to the compile — the homogeneous form,
//! the dead-STE strip, the attribution remap, the routing choice — that
//! moves any scan result moves a digest.
//!
//! A second test drives a rule set that exhausts the hierarchical
//! routing fabric through a served session and through the facade: both
//! must fall back to the dense matrix and agree on the scan.

use memcim::serve::{Job, ServeConfig, Service};
use memcim::RegexAccelerator;
use memcim_ap::ApBackend;
use memcim_automata::{dna, rules, PatternSet};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// FNV-1a over a stream of little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Compiles `patterns` onto `backend`, scans `input` once and returns
/// the STE count and the scan's digest.
fn pin(patterns: &[&str], backend: ApBackend, input: &[u8]) -> (usize, u64) {
    let mut accel = RegexAccelerator::on_backend(patterns, backend).expect("compiles");
    let hits = accel.scan(input);
    let mut h = Fnv::new();
    h.word(hits.matches.len() as u64);
    for &(pos, pattern) in &hits.matches {
        h.word(pos as u64);
        h.word(pattern as u64);
    }
    h.word(hits.symbols);
    h.word(hits.report.cycles);
    h.word(hits.report.energy.as_joules().to_bits());
    h.word(hits.report.latency.as_seconds().to_bits());
    (accel.state_count(), h.0)
}

/// A seeded synthetic rule set and planted traffic over it.
fn synthetic(seed: u64, count: usize) -> (Vec<String>, Vec<u8>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let texts = rules::synthetic_rules(&mut rng, count);
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let set = PatternSet::compile(&refs).expect("synthetic rules parse");
    let traffic = rules::synthetic_traffic(&mut rng, set.patterns(), 4096, 16);
    (texts, traffic)
}

/// The three IUPAC motifs of the DNA example over a planted genome.
fn dna_motifs() -> (Vec<String>, Vec<u8>) {
    let mut rng = SmallRng::seed_from_u64(42);
    let mut genome = dna::random_genome(&mut rng, 4096);
    dna::plant(&mut genome, b"ACGTACG", &[100, 1_000, 3_000]);
    dna::plant(&mut genome, b"GATTACA", &[500, 2_500]);
    let patterns = ["ACGTRYN", "TTAGGGN", "GATTACA"].iter().map(|m| dna::motif_to_regex(m));
    (patterns.collect(), genome)
}

/// Every corpus: its name, patterns and scanned input.
fn corpora() -> Vec<(&'static str, Vec<String>, Vec<u8>)> {
    let fixed = |patterns: &[&str], input: &[u8]| {
        (patterns.iter().map(|p| p.to_string()).collect(), input.to_vec())
    };
    let (serve_p, serve_i) =
        fixed(&["ab+c", "x[yz]+"], &b"zabbbc xyzzy abc xz q abbbbbbc xyyyz".repeat(3));
    let (quick_p, quick_i) =
        fixed(&["GET /[a-z]+", "EVIL[a-z]*\\.exe"], b"GET /index ... EVILpayload.exe ...");
    let (doc_p, doc_i) = fixed(&["GET /[a-z]+", "EVIL.*\\.exe"], b"GET /index EVILpayload.exe");
    let (abc_p, abc_i) = fixed(&["abc", "x+y"], b"zzabczzxxxyzz");
    let (needle_p, needle_i) = fixed(&["needle"], b"haystack haystack needle hay");
    let mut all = vec![
        ("serve_pair", serve_p, serve_i),
        ("quickstart", quick_p, quick_i),
        ("lib_doc", doc_p, doc_i),
        ("abc_xy", abc_p, abc_i),
        ("needle", needle_p, needle_i),
    ];
    for (name, seed, count) in [
        ("rules_404_20", 404, 20),
        ("rules_808_12", 808, 12),
        ("rules_1337_32", 1337, 32),
        ("rules_2018_24", 2018, 24),
    ] {
        let (patterns, input) = synthetic(seed, count);
        all.push((name, patterns, input));
    }
    let (patterns, input) = dna_motifs();
    all.push(("dna_motifs", patterns, input));
    all
}

/// `(corpus, [(STEs, digest)] for RRAM, SRAM, SDRAM)`.
const GOLDEN: [(&str, [(usize, u64); 3]); 10] = [
    ("serve_pair", [(7, 0x768581673f6ae62b), (7, 0xcc246dd23c62d16f), (7, 0x6e5750538e959724)]),
    ("quickstart", [(16, 0xd4084a7d550c0ab3), (16, 0x519d7941832f8265), (16, 0xf8af4a72dd4e7b56)]),
    ("lib_doc", [(16, 0x683fa23cf7fb550f), (16, 0x85b34a9c5c2a59f3), (16, 0x9d9947c6e79249ad)]),
    ("abc_xy", [(6, 0x8d8929ebbede6e2e), (6, 0x934eee4e05b5cf78), (6, 0x0e197896e02eb25b)]),
    ("needle", [(6, 0x72fdabbb2c411df1), (6, 0x15fa2f23fb978b15), (6, 0xdf6635898df231d2)]),
    (
        "rules_404_20",
        [(252, 0x7af3a0fa48e3036a), (252, 0xb0ec60e54703a7e8), (252, 0xa772171c6a787bf2)],
    ),
    (
        "rules_808_12",
        [(141, 0xff03f4c89287cc2d), (141, 0x22a618bb1606ffb0), (141, 0xdba7f53d58dd5e9a)],
    ),
    (
        "rules_1337_32",
        [(391, 0xec2d5825bef4abe9), (391, 0x44570a6ddc7044cd), (391, 0xba75bf7e7ccd9e13)],
    ),
    (
        "rules_2018_24",
        [(281, 0x04659672a37b5cef), (281, 0xc97121d29890bd39), (281, 0xf344a2b0555db6ea)],
    ),
    ("dna_motifs", [(21, 0x2ca5bca001d56331), (21, 0x7e43f5cf8b9619eb), (21, 0xa0900817f667fbfb)]),
];

#[test]
fn facade_compile_is_pinned_on_every_corpus_and_backend() {
    let corpora = corpora();
    assert_eq!(corpora.len(), GOLDEN.len());
    let mut measured = Vec::new();
    for (name, patterns, input) in &corpora {
        let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
        let pins = [ApBackend::rram(), ApBackend::sram(), ApBackend::sdram()]
            .map(|backend| pin(&refs, backend, input));
        measured.push((*name, pins));
    }
    for ((name, pins), (golden_name, golden)) in measured.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name, "corpus order");
        assert_eq!(
            *pins,
            golden,
            "{name}: (STEs, digest) per backend moved; measured table:\n{}",
            measured
                .iter()
                .map(|(n, p)| format!(
                    "    (\"{n}\", [{}]),",
                    p.map(|(states, digest)| format!("({states}, {digest:#018x})")).join(", ")
                ))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// A single pattern whose `+`-looped 40-way alternation wires every
/// alternative's tail to every alternative's head — far more global
/// wires than the Cache Automaton's two-level fabric provides.
fn routing_infeasible_alternatives() -> Vec<String> {
    (0..40)
        .map(|i: usize| {
            [
                b'a' + (i % 26) as u8,
                b'a' + (i / 26) as u8,
                b'0' + (i % 10) as u8,
                b'a' + ((i * 7) % 26) as u8,
                b'a' + ((i * 3) % 26) as u8,
            ]
            .map(char::from)
            .iter()
            .collect()
        })
        .collect()
}

#[test]
fn a_routing_fallback_is_reported_and_served_like_the_facade() {
    let alts = routing_infeasible_alternatives();
    let pattern = format!("({})+x", alts.join("|"));
    let mut input = b"zz".to_vec();
    for (k, alt) in alts.iter().enumerate().step_by(7) {
        input.extend_from_slice(alt.as_bytes());
        if k % 2 == 0 {
            input.push(b'x');
        }
        input.extend_from_slice(b"q");
    }
    input.extend_from_slice(b"aa0aaab1hdx");

    let service =
        Service::start(ServeConfig::default().with_workers(1).with_mvp_geometry(8, 2, 32));
    let (session, info) = service.open_session_info(1, &[pattern.as_str()]).expect("dense");
    assert!(info.routing_fallback, "the served open must report the dense fallback");
    service
        .submit(1, Job::ApFeedMany { session, chunks: vec![input.clone()] })
        .and_then(|ticket| ticket.wait())
        .expect("feeds");
    let served = service
        .submit(1, Job::ApFinishMany { session })
        .and_then(|ticket| ticket.wait())
        .expect("finishes")
        .into_ap_finish_many()
        .expect("finish output")
        .remove(0);
    service.shutdown();

    let mut accel = RegexAccelerator::rram(&[pattern.as_str()]).expect("dense");
    let facade = accel.scan(&input);
    assert!(!facade.matches.is_empty(), "the input completes the pattern");
    assert_eq!(served.matches, facade.matches);
    assert_eq!(served.symbols, facade.symbols);
    assert_eq!(served.report, facade.report);
}
