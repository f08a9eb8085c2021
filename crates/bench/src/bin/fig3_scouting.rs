//! Regenerates Fig. 3b: scouting-logic input-current levels and the
//! reference placement realizing OR / AND / XOR.
//!
//! Prints the three bit-line current levels for two activated rows
//! (`2Vr/RH`, `≈Vr/RL`, `2Vr/RL`), the chosen sense references per gate,
//! and the resulting truth tables, then validates an array-level sweep.

use memcim_bench::table;
use memcim_bits::BitVec;
use memcim_crossbar::{Crossbar, CrossbarBackend, ScoutingKind, SenseThresholds};
use memcim_units::{Ohms, Volts};

fn main() {
    let vr = Volts::from_millivolts(100.0);
    let rl = Ohms::from_kilohms(1.0);
    let rh = Ohms::from_megohms(100.0);
    println!("Fig. 3b — scouting logic references (Vr = {vr}, RL = {rl}, RH = {rh})\n");

    let i = |states: &[bool]| -> f64 {
        states.iter().map(|&s| (vr / if s { rl } else { rh }).as_amps()).sum()
    };
    println!("bit-line current levels (two activated rows):");
    let mut level_rows = Vec::new();
    for (label, states) in [("0,0", [false, false]), ("0,1", [false, true]), ("1,1", [true, true])]
    {
        level_rows.push(vec![label.into(), format!("{:.3e} A", i(&states))]);
    }
    println!("{}", table(&["cells", "I_in"], &level_rows));

    let mut gate_rows = Vec::new();
    for kind in [ScoutingKind::Or, ScoutingKind::And, ScoutingKind::Xor] {
        let t = SenseThresholds::for_gate(kind, 2, vr, rl, rh);
        let outs: Vec<String> = [[false, false], [false, true], [true, false], [true, true]]
            .iter()
            .map(|s| u8::from(t.sense(memcim_units::Amps::new(i(s)))).to_string())
            .collect();
        gate_rows.push(vec![
            format!("{kind:?}"),
            format!("{:.3e} A", t.low().as_amps()),
            t.high().map_or("—".into(), |h| format!("{:.3e} A", h.as_amps())),
            outs.join(" "),
        ]);
    }
    println!(
        "{}",
        table(&["gate", "Iref (low)", "Iref (high)", "out for 00 01 10 11"], &gate_rows)
    );

    // Array-level validation: 64-column random-ish patterns.
    let mut xbar = Crossbar::rram(2, 64);
    let a = BitVec::from_indices(64, &(0..64).step_by(2).collect::<Vec<_>>());
    let b = BitVec::from_indices(64, &(0..64).step_by(3).collect::<Vec<_>>());
    xbar.program_row(0, &a).expect("row 0");
    xbar.program_row(1, &b).expect("row 1");
    let or_ok = xbar.scouting(ScoutingKind::Or, &[0, 1]).expect("or") == a.or(&b);
    let and_ok = xbar.scouting(ScoutingKind::And, &[0, 1]).expect("and") == a.and(&b);
    let xor_ok = xbar.scouting(ScoutingKind::Xor, &[0, 1]).expect("xor") == a.xor(&b);
    println!("array validation over 64 columns: OR {or_ok}, AND {and_ok}, XOR {xor_ok}");
    println!(
        "array cost so far: {} scouting ops, {} total",
        xbar.ledger().scouting_ops(),
        xbar.ledger().energy()
    );
}
