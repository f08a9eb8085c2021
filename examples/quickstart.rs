//! Quick start: the two accelerators of the paper in ~50 lines.
//!
//! 1. Bulk bitwise compute *inside* a memristive crossbar (MVP,
//!    Section III).
//! 2. Regex scanning on the RRAM automata processor (RRAM-AP,
//!    Section IV).
//!
//! Run with: `cargo run --release --example quickstart`

use memcim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    // --- 1. Memristive Vector Processor -------------------------------
    let mut mvp = MvpSimulator::new(8, 256);
    let program = vec![
        Instruction::Store { row: 0, data: BitVec::from_indices(256, &[1, 2, 3, 100]) },
        Instruction::Store { row: 1, data: BitVec::from_indices(256, &[2, 3, 4, 200]) },
        // One scouting cycle computes the whole 256-bit AND in memory.
        Instruction::And { srcs: vec![0, 1], dst: Some(2) },
        Instruction::Read { row: 2 },
    ];
    let outputs = mvp.run_program(&program)?;
    println!("MVP: AND of two 256-bit rows = bits {:?}", outputs[0].ones().collect::<Vec<_>>());
    println!(
        "     cost: {} scouting op(s), {} programmed bits, {} total energy",
        mvp.ledger().scouting_ops(),
        mvp.ledger().bits_programmed(),
        mvp.ledger().energy()
    );

    // --- 2. RRAM Automata Processor ------------------------------------
    let mut accel = RegexAccelerator::rram(&["GET /[a-z]+", "EVIL[a-z]*\\.exe"])?;
    let outcome = accel.scan(b"GET /index ... EVILpayload.exe ...");
    println!(
        "\nRRAM-AP: {} STEs mapped, matched patterns {:?}",
        accel.state_count(),
        outcome.matched_patterns()
    );
    for &(pos, pat) in &outcome.matches {
        println!("     pattern {pat} completed at byte {pos}");
    }
    println!(
        "     cost: {} symbols, latency {}, energy {}",
        outcome.symbols, outcome.report.latency, outcome.report.energy
    );

    // --- Bonus: the Fig. 9 kernel this is all built on -----------------
    let report = BitlineCircuit::lumped(CellTechnology::rram_1t1r(), 256).run()?;
    println!(
        "\nFig. 9 kernel: 256-cell RRAM bit line discharges in {} (paper: 104 ps)",
        report.discharge_time.expect("stored 1 discharges")
    );
    Ok(())
}
