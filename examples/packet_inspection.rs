//! Mini deep-packet inspection (the paper's network-security use case
//! [22]): a synthetic Snort-flavoured rule set scanned over synthetic
//! traffic, with per-rule attribution and an AP sizing report.
//!
//! Run with: `cargo run --release --example packet_inspection`

use memcim::prelude::*;
use memcim_automata::rules;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let mut rng = SmallRng::seed_from_u64(1337);

    // Rule set + traffic with planted true positives.
    let rule_texts = rules::synthetic_rules(&mut rng, 32);
    let refs: Vec<&str> = rule_texts.iter().map(String::as_str).collect();
    let set = PatternSet::compile(&refs)?;
    let traffic = rules::synthetic_traffic(&mut rng, set.patterns(), 1 << 16, 96);
    println!("rule set: {} rules, traffic: {} bytes", refs.len(), traffic.len());

    // Map onto the RRAM-AP once: the Cache-Automaton routing fabric,
    // or a dense matrix if the rule set needs more global wires.
    let compiled = CompiledPatterns::compile(&set, ApBackend::rram())?;
    let template = compiled.template();
    let resources = template.routing_resources();
    println!("\nAP sizing:");
    println!("  STEs (homogeneous states): {}", template.state_count());
    println!(
        "  routing: {} blocks, {} switch bits, {} global wires{}",
        resources.blocks,
        resources.config_bits,
        resources.global_wires,
        if compiled.routing_fallback() { " (dense fallback)" } else { "" }
    );
    println!(
        "  area {}, cycle {}, throughput {:.2} Gsym/s",
        template.costs().area,
        template.costs().cycle_latency,
        template.costs().throughput() / 1.0e9
    );
    let config = template.configuration_cost();
    println!("  one-time configuration: {} / {}", config.latency, config.energy);

    // Scan and attribute.
    let outcome = compiled.matches(&template.processor().run(&traffic));
    let mut per_rule: HashMap<usize, usize> = HashMap::new();
    for &(_, pat) in &outcome.matches {
        *per_rule.entry(pat).or_insert(0) += 1;
    }
    let mut hits: Vec<(usize, usize)> = per_rule.into_iter().collect();
    hits.sort();
    println!("\n{} report events across {} rules:", outcome.matches.len(), hits.len());
    for (rule, count) in hits.iter().take(10) {
        println!("  rule {rule:>2} ({}): {count} events", rule_texts[*rule]);
    }
    if hits.len() > 10 {
        println!("  … and {} more rules with hits", hits.len() - 10);
    }
    println!(
        "\nscan cost: latency {}, energy {}, {} per symbol",
        outcome.report.latency,
        outcome.report.energy,
        outcome.report.energy_per_symbol()
    );

    // Cross-check against the software scanner.
    let software = set.scan(&traffic);
    assert_eq!(software.len(), outcome.matches.len(), "hardware/software parity");
    println!("software cross-check: {} events ✓", software.len());
    Ok(())
}
