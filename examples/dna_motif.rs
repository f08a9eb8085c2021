//! DNA motif search on the RRAM automata processor (the paper's
//! computational-biology use case [23]) — with a software NFA
//! cross-check and a three-backend cost comparison.
//!
//! Run with: `cargo run --release --example dna_motif`

use memcim::prelude::*;
use memcim_automata::dna;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let mut rng = SmallRng::seed_from_u64(42);

    // A synthetic genome with planted motifs, standing in for a real
    // genome so every expected match is known.
    let mut genome = dna::random_genome(&mut rng, 50_000);
    let motifs = ["ACGTRYN", "TTAGGGN", "GATTACA"];
    let plant_sites = [1_000usize, 10_000, 25_000, 49_000];
    dna::plant(&mut genome, b"ACGTACG", &plant_sites); // matches ACGTRYN
    dna::plant(&mut genome, b"GATTACA", &[5_000, 30_000]);

    // Compile the IUPAC motifs to regexes and onto the AP.
    let patterns: Vec<String> = motifs.iter().map(|m| dna::motif_to_regex(m)).collect();
    let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
    let set = PatternSet::compile(&refs)?;
    println!(
        "compiled {} motifs into a {}-state union NFA ({} transitions)",
        motifs.len(),
        set.nfa().state_count(),
        set.nfa().transition_count()
    );

    // Software reference scan.
    let reference = set.scan(&genome);
    println!("software NFA scan: {} match events", reference.len());

    // The same rule set on each hardware backend.
    for backend in [ApBackend::rram(), ApBackend::sram(), ApBackend::sdram()] {
        let name = backend.name;
        let mut accel = memcim::RegexAccelerator::on_backend(&refs, backend)?;
        let outcome = accel.scan(&genome);
        assert_eq!(outcome.matches.len(), reference.len(), "hardware and software must agree");
        println!(
            "{name}: {} STEs, {} events, latency {}, energy {} ({} per symbol)",
            accel.state_count(),
            outcome.matches.len(),
            outcome.report.latency,
            outcome.report.energy,
            outcome.report.energy_per_symbol(),
        );
    }

    // Confirm every planted GATTACA site is found (motif ends 6 bytes in).
    let gattaca = patterns.iter().position(|p| p == "GATTACA").expect("present");
    let mut accel = memcim::RegexAccelerator::rram(&refs)?;
    let outcome = accel.scan(&genome);
    for &site in &[5_000usize, 30_000] {
        assert!(
            outcome.matches.contains(&(site + 6, gattaca)),
            "planted GATTACA at {site} must be reported"
        );
    }
    println!("all planted motif sites verified ✓");
    Ok(())
}
