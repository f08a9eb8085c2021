//! Failure-injection integration tests: stuck-at faults, endurance
//! wear-out and reference-margin collapse, observed through the MVP
//! programming model — plus a table-driven fault-matrix campaign that
//! pins which {fault} × {protection} combinations silently corrupt,
//! are detected, or are masked outright.

use memcim::prelude::*;
use memcim_crossbar::{CrossbarError, EccCrossbar, HammingCode};
use memcim_device::{EnduranceModel, VariabilityModel};
use memcim_mvp::MvpError;

#[test]
fn stuck_cell_corrupts_exactly_its_column() {
    let mut mvp = MvpSimulator::new(8, 64);
    mvp.crossbar_mut().faults_mut().inject_stuck_at(0, 5, true);
    let outputs = mvp
        .run_program(&[
            Instruction::Store { row: 0, data: BitVec::new(64) }, // wants all-zero
            Instruction::Store { row: 1, data: BitVec::from_indices(64, &[5, 6]) },
            Instruction::And { srcs: vec![0, 1], dst: Some(2) },
            Instruction::Read { row: 2 },
        ])
        .expect("program runs");
    // Column 5: row 0 is stuck-1, row 1 stores 1 ⇒ AND reads 1 (wrong
    // w.r.t. the programmed data, right w.r.t. the silicon).
    assert!(outputs[0].get(5), "stuck-at-1 leaks into the AND");
    assert!(!outputs[0].get(6), "other columns unaffected");
}

#[test]
fn endurance_exhaustion_is_reported_and_then_silent() {
    let xbar = Crossbar::rram(4, 32).with_endurance(EnduranceModel::new(2));
    let mut mvp = MvpSimulator::with_crossbar(xbar);
    let ones = BitVec::from_indices(32, &(0..32).collect::<Vec<_>>());
    let zeros = BitVec::new(32);
    // Cycle 1 per cell.
    mvp.run_program(&[Instruction::Store { row: 0, data: ones.clone() }]).expect("cycle 1");
    // Cycle 2 wears out every cell of the row (recorded, not fatal for
    // row-level programming).
    mvp.run_program(&[Instruction::Store { row: 0, data: zeros }]).expect("wear-out write");
    assert_eq!(mvp.crossbar_mut().endurance_failures(), 32);
    // Cells are now stuck; further writes are accepted but inert.
    mvp.run_program(&[Instruction::Store { row: 0, data: ones }]).expect("inert");
    let out = mvp.run_program(&[Instruction::Read { row: 0 }]).expect("read");
    assert_eq!(out[0].count_ones(), 0, "row is frozen at the wear-out value");
}

#[test]
fn bit_level_wearout_surfaces_as_an_error() {
    let mut xbar = Crossbar::rram(1, 4).with_endurance(EnduranceModel::new(1));
    let err = xbar.program_bit(0, 0, true).expect_err("single budget cycle");
    assert!(matches!(err, CrossbarError::Endurance(_)));
    // And through the MVP error chain.
    let xbar2 = Crossbar::rram(1, 4).with_endurance(EnduranceModel::new(1));
    let mut mvp = MvpSimulator::with_crossbar(xbar2);
    // program_row records rather than aborts, so drive a scouting write
    // whose write-back hits the worn row — still recorded silently.
    let result =
        mvp.run_program(&[Instruction::Store { row: 0, data: BitVec::from_indices(4, &[0]) }]);
    assert!(result.is_ok());
    assert_eq!(mvp.crossbar_mut().endurance_failures(), 1);
    let _ = MvpError::Crossbar(err); // the conversion path exists
}

#[test]
fn extreme_variability_breaks_scouting_gracefully() {
    // With σ(ln R) = 1.0 the XOR window must misfire somewhere — the
    // array still answers (no panic), just wrongly: exactly the failure
    // mode the D2 ablation quantifies.
    let model = VariabilityModel { sigma_d2d_low: 1.0, sigma_d2d_high: 1.0, sigma_c2c: 0.0 };
    let mut any_error = false;
    for seed in 0..10 {
        let mut xbar = Crossbar::rram(2, 256).with_variability(model, seed);
        let a = BitVec::from_indices(256, &(0..256).step_by(2).collect::<Vec<_>>());
        let b = BitVec::from_indices(256, &(0..256).step_by(3).collect::<Vec<_>>());
        xbar.program_row(0, &a).expect("r0");
        xbar.program_row(1, &b).expect("r1");
        let got = xbar.scouting(ScoutingKind::Xor, &[0, 1]).expect("senses");
        if got != a.xor(&b) {
            any_error = true;
            break;
        }
    }
    assert!(any_error, "σ = 1.0 lognormal spread must corrupt at least one XOR window");
}

// ---------------------------------------------------------------------
// The fault-matrix campaign: {stuck-at-0, stuck-at-1, endurance
// exhaustion, multi-bit} × {raw, ECC, ECC + spare-remap}, one scenario
// each, classified against a table of expected outcomes.
// ---------------------------------------------------------------------

const MATRIX_COLS: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// One cell stuck at 0 under a stored 1.
    StuckAt0,
    /// One cell stuck at 1 under a stored 0.
    StuckAt1,
    /// One weak cell toggled past its endurance budget (sticks at 1).
    Endurance,
    /// Two stuck cells in one row — beyond single-error correction.
    MultiBit,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Protection {
    /// The bare array.
    Raw,
    /// SEC-DED parity columns, no spares.
    Ecc,
    /// SEC-DED parity plus spare-row retirement (threshold 1).
    EccSpare,
}

/// What a scenario is expected (and observed) to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// Outputs diverge from the reference with no error raised — the
    /// failure mode the protection stack exists to eliminate.
    SilentCorruption,
    /// An `Uncorrectable` error surfaces; data is never silently wrong.
    Detected,
    /// Outputs are bit-exact. `corrected` / `repaired` say which layer
    /// absorbed the fault (ECC decode vs. spare-row remap).
    Masked { corrected: bool, repaired: bool },
}

/// Drives one weak cell (row 0, data column 3) past a 2-cycle budget so
/// it hard-fails stuck at 0 — in-band, through real programming. The
/// workload later stores a 1 there, so the wear-out is observable.
fn wear_out_cell(array: &mut Crossbar) {
    array.program_bit(0, 3, true).expect("cycle 1");
    // Cycle 2 exhausts the budget mid-write. Without spares this
    // reports the wear-out (and the cell sticks at 0); with spares the
    // row is transparently retired instead and the write reports Ok.
    let _ = array.program_bit(0, 3, false);
}

fn inject(kind: FaultKind, array: &mut Crossbar) {
    match kind {
        FaultKind::StuckAt0 => array.faults_mut().inject_stuck_at(0, 7, false),
        FaultKind::StuckAt1 => array.faults_mut().inject_stuck_at(0, 8, true),
        FaultKind::Endurance => wear_out_cell(array),
        FaultKind::MultiBit => {
            array.faults_mut().inject_stuck_at(0, 7, false);
            array.faults_mut().inject_stuck_at(0, 20, false);
        }
    }
}

/// Builds the substrate, injects the fault, runs a store → AND → read
/// workload through the backend trait and classifies what happened.
fn run_scenario(kind: FaultKind, protection: Protection) -> Outcome {
    // Budget 2: the weak-cell sequence wears out, while the workload
    // itself (one program cycle per cell) stays comfortably inside.
    let endurance = EnduranceModel::new(2);
    let physical_cols = HammingCode::total_bits_for(MATRIX_COLS);
    // The workload patterns collide with every injected fault site:
    // cols 3, 7, 20 store 1 (vs. stuck-at-0 / wear-out), col 8 stores 0
    // (vs. stuck-at-1).
    let p = BitVec::from_indices(MATRIX_COLS, &[1, 3, 7, 20]);
    let q = BitVec::from_indices(MATRIX_COLS, &[7, 8, 20]);
    let expected_and = p.and(&q);

    let observe = |outputs: Result<(BitVec, BitVec), CrossbarError>,
                   corrected: u64,
                   repaired: u64|
     -> Outcome {
        match outputs {
            Err(CrossbarError::Uncorrectable { .. }) => Outcome::Detected,
            Err(e) => panic!("only Uncorrectable may surface, got {e}"),
            Ok((row0, and)) if row0 == p && and == expected_and => {
                Outcome::Masked { corrected: corrected > 0, repaired: repaired > 0 }
            }
            Ok(_) => Outcome::SilentCorruption,
        }
    };

    let workload = |xbar: &mut dyn CrossbarBackend| -> Result<(BitVec, BitVec), CrossbarError> {
        xbar.program_row(0, &p)?;
        xbar.program_row(1, &q)?;
        xbar.scouting_write(ScoutingKind::And, &[0, 1], 2)?;
        Ok((xbar.read_row(0)?, xbar.read_row(2)?))
    };

    match protection {
        Protection::Raw => {
            let mut array = Crossbar::rram(4, MATRIX_COLS).with_endurance(endurance);
            inject(kind, &mut array);
            observe(workload(&mut array), 0, array.retired_rows())
        }
        Protection::Ecc => {
            let inner = Crossbar::rram(4, physical_cols).with_endurance(endurance);
            let mut ecc = EccCrossbar::with_data_width(inner, MATRIX_COLS).expect("fits");
            inject(kind, ecc.inner_mut());
            let outputs = workload(&mut ecc);
            observe(outputs, ecc.corrected_errors(), ecc.inner().retired_rows())
        }
        Protection::EccSpare => {
            let inner =
                Crossbar::rram(6, physical_cols).with_spare_rows(2, 1).with_endurance(endurance);
            let mut ecc = EccCrossbar::with_data_width(inner, MATRIX_COLS).expect("fits");
            inject(kind, ecc.inner_mut());
            // Post-injection repair audit (wear-out already retired
            // in-band; the audit is idempotent).
            ecc.inner_mut().audit().expect("spares available");
            let outputs = workload(&mut ecc);
            observe(outputs, ecc.corrected_errors(), ecc.inner().retired_rows())
        }
    }
}

/// The campaign table: every fault kind against every protection level.
#[test]
fn fault_matrix_campaign() {
    use FaultKind::*;
    use Outcome::*;
    use Protection::*;
    let masked_by_ecc = Masked { corrected: true, repaired: false };
    let masked_by_remap = Masked { corrected: false, repaired: true };
    #[rustfmt::skip]
    let table: &[(FaultKind, Protection, Outcome)] = &[
        // The bare array silently corrupts under every fault.
        (StuckAt0,  Raw,      SilentCorruption),
        (StuckAt1,  Raw,      SilentCorruption),
        (Endurance, Raw,      SilentCorruption),
        (MultiBit,  Raw,      SilentCorruption),
        // ECC masks every single-bit fault and *detects* what it
        // cannot correct — never silent.
        (StuckAt0,  Ecc,      masked_by_ecc),
        (StuckAt1,  Ecc,      masked_by_ecc),
        (Endurance, Ecc,      masked_by_ecc),
        (MultiBit,  Ecc,      Detected),
        // Spare-row remapping repairs the row outright, including the
        // multi-bit case that ECC alone can only report.
        (StuckAt0,  EccSpare, masked_by_remap),
        (StuckAt1,  EccSpare, masked_by_remap),
        (Endurance, EccSpare, masked_by_remap),
        (MultiBit,  EccSpare, masked_by_remap),
    ];
    for &(kind, protection, expected) in table {
        let got = run_scenario(kind, protection);
        assert_eq!(
            got, expected,
            "{kind:?} × {protection:?}: expected {expected:?}, observed {got:?}"
        );
    }
}

#[test]
fn moderate_variability_keeps_all_three_gates_correct() {
    // The D2 margin claim at the typical corner.
    let mut xbar = Crossbar::rram(2, 512).with_variability(VariabilityModel::typical(), 77);
    let a = BitVec::from_indices(512, &(0..512).step_by(2).collect::<Vec<_>>());
    let b = BitVec::from_indices(512, &(0..512).step_by(5).collect::<Vec<_>>());
    xbar.program_row(0, &a).expect("r0");
    xbar.program_row(1, &b).expect("r1");
    assert_eq!(xbar.scouting(ScoutingKind::Or, &[0, 1]).expect("or"), a.or(&b));
    assert_eq!(xbar.scouting(ScoutingKind::And, &[0, 1]).expect("and"), a.and(&b));
    assert_eq!(xbar.scouting(ScoutingKind::Xor, &[0, 1]).expect("xor"), a.xor(&b));
}
