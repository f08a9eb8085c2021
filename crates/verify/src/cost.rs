//! Static cost bounds: an [`OpLedger`] prediction straight off a program.
//!
//! The bound is computed from the instruction list and the array
//! geometry alone — no execution. It over-approximates exactly where
//! the dynamic cost model is data-dependent: row programming pays only
//! for cells that actually change state, so the bound charges every
//! store and write-back as if all `width` cells flipped, and charges
//! busy time as if banks ran serially (the banked substrate takes the
//! max over banks per operation). Everything else — scouting and read
//! counts, their energies and latencies — is exact.
//!
//! The invariant `bound ≥ executed ledger` is pinned differentially
//! against `MvpSimulator` by the seeded 60-case loop
//! `cost::tests::fuzzed_valid_programs_never_exceed_their_bound`, over
//! fuzzed valid programs on both monolithic and banked substrates.

use memcim_crossbar::{CellTechnology, OpLedger};
use memcim_mvp::Instruction;
use memcim_units::{Joules, Seconds};

/// The geometry + technology a bound is computed against.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    rows: usize,
    width: usize,
    banks: usize,
    tech: CellTechnology,
}

impl CostModel {
    /// A monolithic `rows × width` RRAM array (the geometry of
    /// [`MvpSimulator::new`](memcim_mvp::MvpSimulator::new)).
    pub fn new(rows: usize, width: usize) -> Self {
        Self { rows, width, banks: 1, tech: CellTechnology::rram_1t1r() }
    }

    /// A banked array of `banks × bank_cols` columns (the geometry of
    /// [`MvpSimulator::banked`](memcim_mvp::MvpSimulator::banked)).
    pub fn banked(rows: usize, banks: usize, bank_cols: usize) -> Self {
        Self { rows, width: banks * bank_cols, banks, tech: CellTechnology::rram_1t1r() }
    }

    /// Overrides the cell technology (defaults to the paper's 1T1R RRAM).
    #[must_use]
    pub fn with_technology(mut self, tech: CellTechnology) -> Self {
        self.tech = tech;
        self
    }

    /// Computes the static cost bound of `program`.
    ///
    /// The bound is sound for programs that execute without an
    /// admission error on a fault-free array of this geometry (a
    /// rejected program stops early and trivially stays below it; a
    /// fault-injected or ECC substrate does physical work this logical
    /// model does not see).
    pub fn bound(&self, program: &[Instruction]) -> CostBound {
        let banks = self.banks as u64;
        let scout_energy =
            Joules::new(self.tech.analytic_cycle_energy(self.rows).as_joules() * self.width as f64);
        let scout_latency = self.tech.read_latency(self.rows);
        let program_energy = Joules::new(self.tech.program_energy.as_joules() * self.width as f64);
        let program_latency = self.tech.program_latency;

        let mut b = CostBound::default();
        for instr in program {
            match instr {
                Instruction::Store { .. } => {
                    b.host_writes += 1;
                    b.programs += banks;
                    b.bits_programmed += self.width as u64;
                    b.energy += program_energy;
                    b.busy += program_latency;
                }
                Instruction::Or { dst, .. }
                | Instruction::And { dst, .. }
                | Instruction::Xor { dst, .. } => {
                    b.scouting_ops += banks;
                    b.energy += scout_energy;
                    b.busy += scout_latency;
                    if dst.is_some() {
                        b.programs += banks;
                        b.bits_programmed += self.width as u64;
                        b.energy += program_energy;
                        b.busy += program_latency;
                    } else {
                        b.host_reads += 1;
                    }
                }
                Instruction::Read { .. } => {
                    b.host_reads += 1;
                    b.reads += banks;
                    b.energy += scout_energy;
                    b.busy += scout_latency;
                }
            }
        }
        b
    }
}

/// An upper bound on the [`OpLedger`] a program can accumulate, plus
/// the host-transfer counts the ledger does not track.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBound {
    /// Read operations (exact: banks × `Read` instructions).
    pub reads: u64,
    /// Scouting operations (exact: banks × logic instructions).
    pub scouting_ops: u64,
    /// Program operations (upper bound — unchanged rows record none).
    pub programs: u64,
    /// Cells re-programmed (upper bound — only state changes count).
    pub bits_programmed: u64,
    /// Host → array transfers (`Store` instructions).
    pub host_writes: u64,
    /// Array → host transfers (`Read` instructions and sensed gates).
    pub host_reads: u64,
    /// Dynamic energy upper bound.
    pub energy: Joules,
    /// Busy-time upper bound (serial over banks and operations).
    pub busy: Seconds,
}

impl CostBound {
    /// `true` when this bound dominates an executed ledger
    /// component-wise. Energy and busy time tolerate a 1e-9 relative
    /// slack for float summation order.
    pub fn covers(&self, actual: &OpLedger) -> bool {
        const TOL: f64 = 1.0 + 1e-9;
        self.reads >= actual.reads()
            && self.scouting_ops >= actual.scouting_ops()
            && self.programs >= actual.programs()
            && self.bits_programmed >= actual.bits_programmed()
            && self.energy.as_joules() * TOL >= actual.energy().as_joules()
            && self.busy.as_seconds() * TOL >= actual.busy_time().as_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcim_bits::BitVec;
    use memcim_mvp::MvpSimulator;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn dense_program(width: usize) -> Vec<Instruction> {
        let ones = BitVec::from_indices(width, &(0..width).collect::<Vec<_>>());
        vec![
            Instruction::Store { row: 0, data: ones.clone() },
            Instruction::Store { row: 1, data: ones },
            Instruction::Or { srcs: vec![0, 1], dst: Some(2) },
            Instruction::Xor { a: 0, b: 1, dst: Some(3) },
            Instruction::Read { row: 2 },
        ]
    }

    #[test]
    fn bound_covers_a_monolithic_run_and_counts_are_exact() {
        let (rows, width) = (8, 64);
        let program = dense_program(width);
        let bound = CostModel::new(rows, width).bound(&program);
        let mut mvp = MvpSimulator::new(rows, width);
        mvp.run_program(&program).expect("runs");
        let actual = mvp.ledger();
        assert!(bound.covers(&actual), "bound {bound:?} vs actual {actual:?}");
        assert_eq!(bound.reads, actual.reads());
        assert_eq!(bound.scouting_ops, actual.scouting_ops());
        assert_eq!(bound.host_writes, 2);
        assert_eq!(bound.host_reads, 1);
    }

    #[test]
    fn bound_covers_a_banked_run() {
        let (rows, banks, bank_cols) = (8, 4, 16);
        let program = dense_program(banks * bank_cols);
        let bound = CostModel::banked(rows, banks, bank_cols).bound(&program);
        let mut mvp = MvpSimulator::banked(rows, banks, bank_cols);
        mvp.run_program(&program).expect("runs");
        let actual = mvp.ledger();
        assert!(bound.covers(&actual), "bound {bound:?} vs actual {actual:?}");
        assert_eq!(bound.scouting_ops, actual.scouting_ops(), "one scout op per bank");
    }

    #[test]
    fn a_sensed_gate_is_charged_one_scouting_and_no_write_back() {
        let (rows, banks, bank_cols) = (8, 4, 16);
        let mut program = dense_program(banks * bank_cols);
        program.truncate(2);
        let model = CostModel::banked(rows, banks, bank_cols);
        let stores = model.bound(&program);
        program.push(Instruction::And { srcs: vec![0, 1], dst: None });
        let bound = model.bound(&program);
        assert_eq!(bound.scouting_ops - stores.scouting_ops, banks as u64);
        assert_eq!(
            (bound.programs, bound.bits_programmed),
            (stores.programs, stores.bits_programmed)
        );
        assert_eq!((bound.reads, bound.host_reads), (0, 1));
        let mut mvp = MvpSimulator::banked(rows, banks, bank_cols);
        mvp.run_program(&program).expect("runs");
        let actual = mvp.ledger();
        assert!(bound.covers(&actual), "bound {bound:?} vs actual {actual:?}");
        assert_eq!(bound.scouting_ops, actual.scouting_ops());
    }

    #[test]
    fn bound_is_tight_on_energy_for_all_ones_stores() {
        // Storing all-ones into a zeroed array flips every cell: the
        // store part of the bound is met with equality, so the slack
        // comes only from the over-approximated write-backs.
        let (rows, width) = (8, 32);
        let ones = BitVec::from_indices(width, &(0..width).collect::<Vec<_>>());
        let program = vec![Instruction::Store { row: 0, data: ones }];
        let bound = CostModel::new(rows, width).bound(&program);
        let mut mvp = MvpSimulator::new(rows, width);
        mvp.run_program(&program).expect("runs");
        assert_eq!(bound.bits_programmed, mvp.ledger().bits_programmed());
        assert!((bound.energy.as_joules() - mvp.ledger().energy().as_joules()).abs() < 1e-18);
    }

    #[test]
    fn fuzzed_valid_programs_never_exceed_their_bound() {
        let mut rng = SmallRng::seed_from_u64(2018);
        for case in 0..60 {
            let rows = rng.gen_range(4..12);
            let width = rng.gen_range(1..40);
            let banked = rng.gen_bool(0.5);
            let program = random_valid_program(&mut rng, rows, width);
            let (bound, actual) = if banked {
                let bound = CostModel::banked(rows, width, 1).bound(&program);
                let mut mvp = MvpSimulator::banked(rows, width, 1);
                mvp.run_program(&program).expect("valid program");
                (bound, mvp.ledger())
            } else {
                let bound = CostModel::new(rows, width).bound(&program);
                let mut mvp = MvpSimulator::new(rows, width);
                mvp.run_program(&program).expect("valid program");
                (bound, mvp.ledger())
            };
            assert!(bound.covers(&actual), "case {case}: {bound:?} vs {actual:?}");
        }
    }

    /// `None` (a sensed gate) one time in four, else `Some(dst)`.
    fn sensed_or(rng: &mut SmallRng, dst: usize) -> Option<usize> {
        (!rng.gen_bool(0.25)).then_some(dst)
    }

    /// A random program that touches only in-range rows with the right
    /// widths and valid operand shapes; a quarter of its gates are
    /// sensed.
    pub(crate) fn random_valid_program(
        rng: &mut SmallRng,
        rows: usize,
        width: usize,
    ) -> Vec<Instruction> {
        let len = rng.gen_range(1..20);
        (0..len)
            .map(|_| match rng.gen_range(0..4) {
                0 => Instruction::Store {
                    row: rng.gen_range(0..rows),
                    data: (0..width).map(|_| rng.gen_bool(0.5)).collect(),
                },
                1 => {
                    let mut picks: Vec<usize> = (0..rows).collect();
                    for i in (1..picks.len()).rev() {
                        picks.swap(i, rng.gen_range(0..=i));
                    }
                    let n = rng.gen_range(2..=(rows - 1).max(2));
                    let dst = sensed_or(rng, picks[n.min(picks.len() - 1)]);
                    let srcs = picks[..n.min(picks.len() - 1)].to_vec();
                    if rng.gen_bool(0.5) {
                        Instruction::Or { srcs, dst }
                    } else {
                        Instruction::And { srcs, dst }
                    }
                }
                2 => {
                    let a = rng.gen_range(0..rows);
                    let b = (a + 1 + rng.gen_range(0..rows - 1)) % rows;
                    let mut dst = rng.gen_range(0..rows);
                    while dst == a || dst == b {
                        dst = (dst + 1) % rows;
                    }
                    Instruction::Xor { a, b, dst: sensed_or(rng, dst) }
                }
                _ => Instruction::Read { row: rng.gen_range(0..rows) },
            })
            .collect()
    }
}
