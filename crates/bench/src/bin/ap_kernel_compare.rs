//! Regenerates headline H1: the vector dot-product kernel and chip-level
//! comparison of RRAM-AP against SRAM-AP and SDRAM-AP.
//!
//! The abstract claims the RRAM dot-product kernel beats the SRAM one by
//! "40 % less delay and 27 % less energy"; Section IV.D's raw operator
//! numbers are 35 % / 59 %. This harness prints both views: the raw
//! operator (discharge only) and the kernel with peripheral latency
//! included, plus an end-to-end rule-set scan on all three backends.

use memcim_ap::{ApBackend, AutomataProcessor, RoutingKind};
use memcim_automata::{rules, PatternSet, StartKind};
use memcim_bench::{fmt, table};
use memcim_crossbar::CellTechnology;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    println!("H1 — vector dot-product kernel and chip-level backend comparison\n");

    // Operator level (the Fig. 9 kernel, 256-input dot product).
    let rram = CellTechnology::rram_1t1r();
    let sram = CellTechnology::sram_8t();
    let mut rows = Vec::new();
    for tech in [&rram, &sram] {
        rows.push(vec![
            tech.name.into(),
            fmt(tech.analytic_discharge_time(256).as_picoseconds(), 1),
            fmt(tech.read_latency(256).as_picoseconds(), 1),
            fmt(tech.analytic_cycle_energy(256).as_femtojoules(), 2),
            fmt(tech.cell_area().as_square_micrometers() * 256.0, 2),
        ]);
    }
    println!(
        "{}",
        table(
            &[
                "operator",
                "discharge (ps)",
                "with SA+decode (ps)",
                "energy (fJ/col)",
                "area (µm²/col)"
            ],
            &rows
        )
    );
    let d_raw = 1.0
        - rram.analytic_discharge_time(256).as_seconds()
            / sram.analytic_discharge_time(256).as_seconds();
    let d_kernel = 1.0 - rram.read_latency(256).as_seconds() / sram.read_latency(256).as_seconds();
    let e_saving = 1.0
        - rram.analytic_cycle_energy(256).as_joules() / sram.analytic_cycle_energy(256).as_joules();
    println!(
        "savings: discharge {:.0}% (paper §IV.D: 35%), kernel incl. peripherals {:.0}% (abstract: 40%), energy {:.0}% (paper §IV.D: 59%, abstract: 27%)\n",
        d_raw * 100.0,
        d_kernel * 100.0,
        e_saving * 100.0
    );

    // Chip level: a synthetic DPI rule set streamed on each backend.
    let mut rng = SmallRng::seed_from_u64(2018);
    let rule_texts = rules::synthetic_rules(&mut rng, 24);
    let refs: Vec<&str> = rule_texts.iter().map(String::as_str).collect();
    let set = PatternSet::compile(&refs).expect("rules compile");
    let (homog, _) = set.to_homogeneous();
    let homog = homog.with_start_kind(StartKind::AllInput);
    let traffic = rules::synthetic_traffic(&mut rng, set.patterns(), 1 << 15, 64);

    let mut chip_rows = Vec::new();
    for backend in [ApBackend::rram(), ApBackend::sram(), ApBackend::sdram()] {
        let name = backend.name;
        let mut ap =
            AutomataProcessor::compile(&homog, backend, RoutingKind::Dense).expect("rule set maps");
        let run = ap.run(&traffic);
        let costs = ap.template().costs();
        chip_rows.push(vec![
            name.into(),
            format!("{}", ap.state_count()),
            format!("{:.2}", costs.throughput() / 1.0e9),
            format!("{:.2}", run.report.energy_per_symbol().as_picojoules()),
            format!("{:.3}", costs.area.as_square_millimeters()),
            format!("{:.2}", costs.static_power.as_milliwatts()),
            format!("{}", run.accept_events.len()),
        ]);
    }
    println!(
        "{}",
        table(
            &["backend", "STEs", "Gsym/s", "pJ/sym", "area (mm²)", "leak (mW)", "reports"],
            &chip_rows
        )
    );
    println!(
        "expected shape: RRAM-AP fastest and lowest energy/area/leakage; identical report counts"
    );
}
