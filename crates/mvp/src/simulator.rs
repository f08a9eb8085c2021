//! The functional MVP: a scouting-logic crossbar driven by macro-instructions.

use crate::{Instruction, MvpError};
use memcim_bits::BitVec;
use memcim_crossbar::{BankedCrossbar, Crossbar, CrossbarBackend, OpLedger, ScoutingKind};

/// A functional Memristive Vector Processor: host-visible rows of a
/// scouting-logic crossbar, executing [`Instruction`] programs.
///
/// The simulator is generic over its storage substrate: any
/// [`CrossbarBackend`] — a monolithic [`Crossbar`] (the default) or a
/// [`BankedCrossbar`] that stripes the vector width over parallel
/// subarrays — executes the same programs bit-identically; only the cost
/// accounting differs (banked: energy sums over banks, wall clock is the
/// slowest bank).
///
/// Results of `Read` instructions and sensed gates (`dst: None`) are
/// returned in program order; every in-memory operation is costed
/// through the backend's [`OpLedger`].
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct MvpSimulator<B: CrossbarBackend = Crossbar> {
    xbar: B,
}

impl MvpSimulator<Crossbar> {
    /// Creates an MVP over a fresh monolithic RRAM crossbar of the given
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self { xbar: Crossbar::rram(rows, cols) }
    }

    /// Wraps an existing (possibly variability/endurance-configured)
    /// crossbar.
    pub fn with_crossbar(xbar: Crossbar) -> Self {
        Self { xbar }
    }
}

impl MvpSimulator<BankedCrossbar> {
    /// Creates an MVP whose vector width is striped over `bank_count`
    /// parallel RRAM banks of `bank_cols` columns each.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    ///
    /// # Examples
    ///
    /// Programs run bit-identically on banked and monolithic substrates;
    /// only the cost accounting differs:
    ///
    /// ```
    /// use memcim_bits::BitVec;
    /// use memcim_mvp::{Instruction, MvpSimulator};
    ///
    /// # fn main() -> Result<(), memcim_mvp::MvpError> {
    /// let mut banked = MvpSimulator::banked(8, 4, 32); // 4 banks × 32 cols
    /// assert_eq!(banked.width(), 128);
    /// let program = vec![
    ///     Instruction::Store { row: 0, data: BitVec::from_indices(128, &[31, 32, 100]) },
    ///     Instruction::Store { row: 1, data: BitVec::from_indices(128, &[32, 100, 127]) },
    ///     Instruction::And { srcs: vec![0, 1], dst: Some(2) },
    ///     Instruction::Read { row: 2 },
    /// ];
    /// let out = banked.run_program(&program)?;
    /// assert_eq!(out[0].ones().collect::<Vec<_>>(), vec![32, 100]);
    /// // Every bank executed the AND in the same memory cycle.
    /// assert_eq!(banked.ledger().scouting_ops(), 4);
    /// # Ok(())
    /// # }
    /// ```
    pub fn banked(rows: usize, bank_count: usize, bank_cols: usize) -> Self {
        Self { xbar: BankedCrossbar::rram(rows, bank_count, bank_cols) }
    }
}

impl<B: CrossbarBackend> MvpSimulator<B> {
    /// Wraps any crossbar substrate.
    pub fn with_backend(xbar: B) -> Self {
        Self { xbar }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.xbar.rows()
    }

    /// Vector width (columns).
    pub fn width(&self) -> usize {
        self.xbar.cols()
    }

    /// The accumulated cost totals. On a banked substrate energy/ops sum
    /// over banks while busy time is the wall-clock maximum over banks.
    pub fn ledger(&self) -> OpLedger {
        self.xbar.ledger_totals()
    }

    /// Borrows the underlying substrate (fault injection, inspection).
    pub fn crossbar_mut(&mut self) -> &mut B {
        &mut self.xbar
    }

    /// Executes a program, returning its outputs in program order: one
    /// per `Read` and one per sensed gate (an `Or`, `And` or `Xor` with
    /// `dst: None`, whose scouting result is not written back).
    ///
    /// # Errors
    ///
    /// Returns [`MvpError::Invalid`] for the first instruction that
    /// fails [`Instruction::check`] against this array, and propagates
    /// crossbar failures.
    pub fn run_program(&mut self, program: &[Instruction]) -> Result<Vec<BitVec>, MvpError> {
        let (rows, width) = (self.rows(), self.width());
        let mut outputs = Vec::new();
        for instr in program {
            instr.check(rows, width).map_err(MvpError::Invalid)?;
            match instr {
                Instruction::Store { row, data } => {
                    self.xbar.program_row(*row, data)?;
                }
                Instruction::Or { srcs, dst } => {
                    self.gate(ScoutingKind::Or, srcs, *dst, &mut outputs)?;
                }
                Instruction::And { srcs, dst } => {
                    self.gate(ScoutingKind::And, srcs, *dst, &mut outputs)?;
                }
                Instruction::Xor { a, b, dst } => {
                    self.gate(ScoutingKind::Xor, &[*a, *b], *dst, &mut outputs)?;
                }
                Instruction::Read { row } => {
                    outputs.push(self.xbar.read_row(*row)?);
                }
            }
        }
        Ok(outputs)
    }

    /// One scouting gate: written back to `dst`, or, for a sensed gate,
    /// appended to `outputs` with no write-back.
    fn gate(
        &mut self,
        kind: ScoutingKind,
        rows: &[usize],
        dst: Option<usize>,
        outputs: &mut Vec<BitVec>,
    ) -> Result<(), MvpError> {
        match dst {
            Some(dst) => {
                self.xbar.scouting_write(kind, rows, dst)?;
            }
            None => outputs.push(self.xbar.scouting(kind, rows)?),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Violation;

    fn store(row: usize, bits: &[usize]) -> Instruction {
        Instruction::Store { row, data: BitVec::from_indices(128, bits) }
    }

    #[test]
    fn program_computes_compound_expression() {
        // out = (A AND B) OR (C XOR D)
        let mut mvp = MvpSimulator::new(16, 128);
        let program = vec![
            store(0, &[0, 1, 2, 3]),
            store(1, &[2, 3, 4]),
            store(2, &[5, 6]),
            store(3, &[6, 7]),
            Instruction::And { srcs: vec![0, 1], dst: Some(8) },
            Instruction::Xor { a: 2, b: 3, dst: Some(9) },
            Instruction::Or { srcs: vec![8, 9], dst: Some(10) },
            Instruction::Read { row: 10 },
        ];
        let out = mvp.run_program(&program).expect("runs");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ones().collect::<Vec<_>>(), vec![2, 3, 5, 7]);
    }

    #[test]
    fn banked_substrate_computes_the_same_expression() {
        let mut mono = MvpSimulator::new(16, 128);
        let mut banked = MvpSimulator::banked(16, 4, 32);
        assert_eq!(banked.width(), 128);
        let program = vec![
            store(0, &[0, 31, 32, 63, 64, 127]),
            store(1, &[31, 32, 100]),
            Instruction::And { srcs: vec![0, 1], dst: Some(2) },
            Instruction::Read { row: 2 },
        ];
        let out_mono = mono.run_program(&program).expect("mono");
        let out_banked = banked.run_program(&program).expect("banked");
        assert_eq!(out_mono, out_banked);
        assert_eq!(out_banked[0].ones().collect::<Vec<_>>(), vec![31, 32]);
        // Four banks each run the scouting op in the same cycle.
        assert_eq!(banked.ledger().scouting_ops(), 4);
        assert!(banked.ledger().busy_time().as_seconds() <= mono.ledger().busy_time().as_seconds());
    }

    #[test]
    fn ledger_shows_in_memory_execution() {
        let mut mvp = MvpSimulator::new(8, 128);
        let program = vec![
            store(0, &[0]),
            store(1, &[1]),
            Instruction::Or { srcs: vec![0, 1], dst: Some(2) },
            Instruction::Read { row: 2 },
        ];
        mvp.run_program(&program).expect("runs");
        assert_eq!(mvp.ledger().scouting_ops(), 1);
        assert_eq!(mvp.ledger().reads(), 1);
        assert!(mvp.ledger().programs() >= 3); // two stores + write-back
        assert!(mvp.ledger().energy().as_joules() > 0.0);
    }

    #[test]
    fn malformed_programs_are_rejected() {
        let cases = [
            (Instruction::Read { row: 99 }, Violation::RowOutOfRange { row: 99, rows: 8 }),
            (
                Instruction::Store { row: 0, data: BitVec::new(63) },
                Violation::StoreWidth { got: 63, width: 64 },
            ),
            (Instruction::Or { srcs: vec![0], dst: Some(2) }, Violation::ScoutingArity { got: 1 }),
            (
                Instruction::And { srcs: vec![0, 1], dst: Some(1) },
                Violation::DestAliasesSource { dst: 1 },
            ),
            (Instruction::Xor { a: 3, b: 3, dst: Some(4) }, Violation::XorOperandsEqual { row: 3 }),
            (
                Instruction::Or { srcs: vec![0, 1, 0], dst: Some(2) },
                Violation::DuplicateSources { row: 0 },
            ),
        ];
        for (instr, violation) in cases {
            let mut mvp = MvpSimulator::new(8, 64);
            assert_eq!(
                mvp.run_program(std::slice::from_ref(&instr)),
                Err(MvpError::Invalid(violation)),
                "{instr:?}"
            );
            assert_eq!(mvp.ledger(), OpLedger::default(), "{instr:?} reached the array");
        }
    }

    #[test]
    fn multi_way_or_collapses_many_rows_in_one_op() {
        let mut mvp = MvpSimulator::new(16, 128);
        let mut program: Vec<Instruction> = (0..8).map(|r| store(r, &[r * 4, r * 4 + 1])).collect();
        program.push(Instruction::Or { srcs: (0..8).collect(), dst: Some(9) });
        program.push(Instruction::Read { row: 9 });
        let out = mvp.run_program(&program).expect("runs");
        assert_eq!(out[0].count_ones(), 16);
        assert_eq!(mvp.ledger().scouting_ops(), 1, "one cycle for an 8-way OR");
    }
}
