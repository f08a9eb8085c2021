//! Differential harness for sensed gates: an `Or`, `And` or `Xor` with
//! `dst: None` returns the scouting result straight off the sense
//! amplifiers. Each seeded program is run twice on the same substrate:
//!
//! * **sensed** — every gate is `Gate { dst: None }`;
//! * **written back** — every gate is `Gate { dst: Some(d) }; Read d`,
//!   with `d` one of two fault-free rows no gate ever reads.
//!
//! The outputs must be identical, and the sensed run may spend no more
//! energy and no more busy time than the written-back one. The
//! substrates are a monolithic [`Crossbar`], a [`BankedCrossbar`] and an
//! [`EccCrossbar`] over a banked array, each with random stuck-at
//! faults in every row but the destination rows.

use memcim_bits::BitVec;
use memcim_crossbar::{BankedCrossbar, Crossbar, CrossbarBackend, EccCrossbar};
use memcim_mvp::{Instruction, MvpSimulator};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Rows the gates read (and the program stores).
const DATA_ROWS: usize = 6;
/// Two more rows receive the written-back results; they stay fault-free.
const ROWS: usize = DATA_ROWS + 2;
const BANKS: usize = 3;
const BANK_COLS: usize = 32;
const WIDTH: usize = BANKS * BANK_COLS;

/// One program step: a store, or a gate over the data rows.
#[derive(Debug, Clone)]
enum Step {
    Store(usize, BitVec),
    Gate(Instruction),
}

/// A seeded mix of stores and sensed gates over `width`-bit data rows.
fn generate(seed: u64, width: usize) -> Vec<Step> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut steps: Vec<Step> = (0..DATA_ROWS)
        .map(|row| Step::Store(row, (0..width).map(|_| rng.gen_bool(0.5)).collect()))
        .collect();
    for _ in 0..rng.gen_range(4..=12) {
        if rng.gen_bool(0.3) {
            let data = (0..width).map(|_| rng.gen_bool(0.5)).collect();
            steps.push(Step::Store(rng.gen_range(0..DATA_ROWS), data));
            continue;
        }
        let mut rows: Vec<usize> = (0..DATA_ROWS).collect();
        for i in 0..3 {
            let j = rng.gen_range(i..rows.len());
            rows.swap(i, j);
        }
        let srcs = rows[..rng.gen_range(2..=3)].to_vec();
        steps.push(Step::Gate(match rng.gen_range(0..3u32) {
            0 => Instruction::Or { srcs, dst: None },
            1 => Instruction::And { srcs, dst: None },
            _ => Instruction::Xor { a: srcs[0], b: srcs[1], dst: None },
        }));
    }
    steps
}

/// The program with every gate sensed, or written back to alternating
/// destination rows and read.
fn program(steps: &[Step], sensed: bool) -> Vec<Instruction> {
    let mut out = Vec::new();
    for (k, step) in steps.iter().enumerate() {
        match step {
            Step::Store(row, data) => {
                out.push(Instruction::Store { row: *row, data: data.clone() })
            }
            Step::Gate(gate) if sensed => out.push(gate.clone()),
            Step::Gate(gate) => {
                let d = DATA_ROWS + k % 2;
                out.push(match gate.clone() {
                    Instruction::Or { srcs, .. } => Instruction::Or { srcs, dst: Some(d) },
                    Instruction::And { srcs, .. } => Instruction::And { srcs, dst: Some(d) },
                    Instruction::Xor { a, b, .. } => Instruction::Xor { a, b, dst: Some(d) },
                    other => other,
                });
                out.push(Instruction::Read { row: d });
            }
        }
    }
    out
}

/// Random stuck-at faults, up to `per_row` per data row, at
/// `(row, col)` positions below `cols`; the destination rows get none.
fn faults(seed: u64, cols: usize, per_row: u32) -> Vec<(usize, usize, bool)> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E45ED);
    let mut out = Vec::new();
    for row in 0..DATA_ROWS {
        for _ in 0..rng.gen_range(0..=per_row) {
            out.push((row, rng.gen_range(0..cols), rng.gen_bool(0.5)));
        }
    }
    out
}

/// Runs both forms of `steps` on fresh copies of one substrate and
/// compares outputs and costs.
fn assert_sensed_matches_written<B: CrossbarBackend>(
    steps: &[Step],
    fresh: impl Fn() -> B,
) -> Result<(), TestCaseError> {
    let mut sensed = MvpSimulator::with_backend(fresh());
    let mut written = MvpSimulator::with_backend(fresh());
    let sensed_out = sensed.run_program(&program(steps, true));
    let written_out = written.run_program(&program(steps, false));
    prop_assert_eq!(&sensed_out, &written_out);
    let gates = steps.iter().filter(|s| matches!(s, Step::Gate(_))).count();
    prop_assert_eq!(sensed_out.map_err(|e| TestCaseError::fail(e.to_string()))?.len(), gates);
    let (s, w) = (sensed.ledger(), written.ledger());
    prop_assert!(s.energy() <= w.energy(), "energy {} > {}", s.energy(), w.energy());
    prop_assert!(s.busy_time() <= w.busy_time(), "busy {} > {}", s.busy_time(), w.busy_time());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Crossbar, banked and ECC-over-banked: each sensed gate equals the
    /// same gate written back to a fault-free row and read, for no more
    /// energy or busy time.
    #[test]
    fn sensed_gates_equal_written_back_gates_read_back(seed in any::<u64>()) {
        let steps = generate(seed, WIDTH);
        let stuck = faults(seed, WIDTH, 2);
        assert_sensed_matches_written(&steps, || {
            let mut xbar = Crossbar::rram(ROWS, WIDTH);
            for &(row, col, value) in &stuck {
                xbar.faults_mut().inject_stuck_at(row, col, value);
            }
            xbar
        })?;
        assert_sensed_matches_written(&steps, || {
            let mut xbar = BankedCrossbar::rram(ROWS, BANKS, BANK_COLS);
            for &(row, col, value) in &stuck {
                let bank = xbar.bank_mut(col / BANK_COLS).expect("bank in range");
                bank.faults_mut().inject_stuck_at(row, col % BANK_COLS, value);
            }
            xbar
        })?;
        // At most one fault per row: inside what the code corrects.
        let ecc = || EccCrossbar::banked_rram(ROWS, BANKS, BANK_COLS);
        let ecc_steps = generate(seed, ecc().cols());
        let stuck = faults(seed, WIDTH, 1);
        assert_sensed_matches_written(&ecc_steps, || {
            let mut xbar = ecc();
            for &(row, col, value) in &stuck {
                let bank = xbar.inner_mut().bank_mut(col / BANK_COLS).expect("bank in range");
                bank.faults_mut().inject_stuck_at(row, col % BANK_COLS, value);
            }
            xbar
        })?;
    }
}
