//! Emits the Fig. 9 bit-line discharge waveforms as CSV straight from
//! the transient solver: RRAM vs SRAM, stored-1 vs stored-0.
//!
//! Run with: `cargo run --release --example bitline_transient`
//! Output: `bitline_<tech>_<bit>.csv` (`time,bl,wl` columns).

use memcim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for tech in [CellTechnology::rram_1t1r(), CellTechnology::sram_8t()] {
        for stored_one in [true, false] {
            let circuit = BitlineCircuit::lumped(tech.clone(), 256).with_stored_bit(stored_one);
            let (report, trace) = circuit.run_with_trace()?;
            let name = format!(
                "bitline_{}_{}.csv",
                tech.name.to_lowercase().replace('-', "_"),
                if stored_one { "one" } else { "zero" }
            );
            std::fs::write(&name, trace.to_csv(&["bl", "wl"])?)?;
            match report.discharge_time {
                Some(t) => println!(
                    "{name}: discharges in {t} after WL enable; cycle energy {}",
                    report.cycle_energy
                ),
                None => println!(
                    "{name}: line stays high (reads 0); BL after evaluate = {}",
                    report.bitline_after_evaluate
                ),
            }
        }
    }
    println!("\npaper targets: RRAM 104 ps / 2.09 fJ, SRAM 161 ps / 5.16 fJ (HSPICE, 32 nm PTM)");
    println!(
        "absolute transients run ~35 % above the paper (a level-1 MOSFET stands in for PTM); \
         the RRAM/SRAM delay and energy ratios are the paper's claims"
    );
    Ok(())
}
