//! The MVP macro-instruction set.

use crate::Violation;
use memcim_bits::BitVec;

/// A macro-instruction sent by the host core to the MVP (Fig. 2b: each
/// loop iteration becomes one instruction, decoded and executed inside
/// the memory).
///
/// Row indices address crossbar rows; wide bitwise operations execute
/// column-parallel via scouting logic, so `And`/`Or` take any number of
/// distinct source rows (≥ 2) while `Xor` is a two-row window sense.
///
/// A program's outputs come from `Read`s and from *sensed gates*: an
/// `Or`, `And` or `Xor` with `dst: None` returns the sense-amplifier
/// output straight to the host (Fig. 3) without writing it back, so an
/// answer costs one scouting cycle instead of a scouting, a write-back
/// and a read. Outputs appear in program order.
///
/// # Examples
///
/// ```
/// use memcim_bits::BitVec;
/// use memcim_mvp::{Instruction, MvpSimulator};
///
/// # fn main() -> Result<(), memcim_mvp::MvpError> {
/// let mut mvp = MvpSimulator::new(4, 64);
/// let out = mvp.run_program(&[
///     Instruction::Store { row: 0, data: BitVec::from_indices(64, &[1, 2]) },
///     Instruction::Store { row: 1, data: BitVec::from_indices(64, &[2, 3]) },
///     Instruction::And { srcs: vec![0, 1], dst: Some(2) },
///     Instruction::Read { row: 2 },
///     Instruction::Xor { a: 0, b: 1, dst: None },
/// ])?;
/// assert_eq!(out[0].ones().collect::<Vec<_>>(), vec![2]);
/// assert_eq!(out[1].ones().collect::<Vec<_>>(), vec![1, 3]);
/// // The sensed XOR was one scouting cycle and no write-back.
/// assert_eq!(mvp.ledger().scouting_ops(), 2);
/// assert_eq!(mvp.ledger().programs(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// Loads a bit vector into a row (host → memory transfer plus
    /// programming cost).
    Store {
        /// Destination row.
        row: usize,
        /// Data to program.
        data: BitVec,
    },
    /// `dst = OR(srcs…)` in one scouting cycle plus a write-back, or
    /// sensed straight to the outputs when `dst` is `None`.
    Or {
        /// Source rows (≥ 2, distinct).
        srcs: Vec<usize>,
        /// Destination row; `None` senses the result to the outputs.
        dst: Option<usize>,
    },
    /// `dst = AND(srcs…)` in one scouting cycle plus a write-back, or
    /// sensed straight to the outputs when `dst` is `None`.
    And {
        /// Source rows (≥ 2, distinct).
        srcs: Vec<usize>,
        /// Destination row; `None` senses the result to the outputs.
        dst: Option<usize>,
    },
    /// `dst = a XOR b` (two-reference window sense) plus a write-back,
    /// or sensed straight to the outputs when `dst` is `None`.
    Xor {
        /// First operand row.
        a: usize,
        /// Second operand row.
        b: usize,
        /// Destination row; `None` senses the result to the outputs.
        dst: Option<usize>,
    },
    /// Reads a row back to the host (appended to the program's outputs).
    Read {
        /// Row to read.
        row: usize,
    },
}

impl Instruction {
    /// Checks this instruction against a `rows × width` array: the six
    /// MVP admission rules, written once here for the simulator, the
    /// static verifier and the serve gate. The first broken rule is
    /// reported, in this order: rows in range (sources before the
    /// destination), store width, then `Or`/`And` arity, destination
    /// alias and repeated sources, or `Xor` operand equality then
    /// destination alias. A sensed gate (`dst: None`) has no destination,
    /// so the destination's range and alias rules do not apply to it.
    ///
    /// # Errors
    ///
    /// The first [`Violation`] the instruction commits.
    ///
    /// # Examples
    ///
    /// ```
    /// use memcim_mvp::{Instruction, Violation};
    ///
    /// let xor = Instruction::Xor { a: 3, b: 3, dst: Some(4) };
    /// assert_eq!(xor.check(8, 64), Err(Violation::XorOperandsEqual { row: 3 }));
    /// assert_eq!(xor.check(4, 64), Err(Violation::RowOutOfRange { row: 4, rows: 4 }));
    /// ```
    pub fn check(&self, rows: usize, width: usize) -> Result<(), Violation> {
        let in_range = |&row: &usize| require(row < rows, Violation::RowOutOfRange { row, rows });
        match self {
            Instruction::Store { row, data } => {
                in_range(row)?;
                require(data.len() == width, Violation::StoreWidth { got: data.len(), width })
            }
            Instruction::Or { srcs, dst } | Instruction::And { srcs, dst } => {
                srcs.iter().chain(dst).try_for_each(in_range)?;
                require(srcs.len() >= 2, Violation::ScoutingArity { got: srcs.len() })?;
                dst.map_or(Ok(()), |dst| {
                    require(!srcs.contains(&dst), Violation::DestAliasesSource { dst })
                })?;
                srcs.iter()
                    .enumerate()
                    .find_map(|(i, r)| srcs[..i].contains(r).then_some(*r))
                    .map_or(Ok(()), |row| Err(Violation::DuplicateSources { row }))
            }
            Instruction::Xor { a, b, dst } => {
                [a, b].into_iter().chain(dst).try_for_each(in_range)?;
                require(a != b, Violation::XorOperandsEqual { row: *a })?;
                dst.map_or(Ok(()), |dst| {
                    require(dst != *a && dst != *b, Violation::DestAliasesSource { dst })
                })
            }
            Instruction::Read { row } => in_range(row),
        }
    }
}

/// `Ok` when the rule holds, else the violation it names.
fn require(rule_holds: bool, broken: Violation) -> Result<(), Violation> {
    rule_holds.then_some(()).ok_or(broken)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_reports_the_first_out_of_range_operand() {
        let rows = 8;
        let and = Instruction::And { srcs: vec![1, 9, 10], dst: Some(11) };
        assert_eq!(and.check(rows, 4), Err(Violation::RowOutOfRange { row: 9, rows }));
        let and = Instruction::And { srcs: vec![1, 2], dst: Some(11) };
        assert_eq!(and.check(rows, 4), Err(Violation::RowOutOfRange { row: 11, rows }));
        let xor = Instruction::Xor { a: 0, b: 12, dst: Some(9) };
        assert_eq!(xor.check(rows, 4), Err(Violation::RowOutOfRange { row: 12, rows }));
        assert_eq!(Instruction::Read { row: 4 }.check(rows, 4), Ok(()));
    }

    #[test]
    fn a_sensed_gate_keeps_every_rule_but_the_destination_ones() {
        let rows = 8;
        let and = Instruction::And { srcs: vec![1, 2], dst: None };
        assert_eq!(and.check(rows, 4), Ok(()));
        let or = Instruction::Or { srcs: vec![1, 9], dst: None };
        assert_eq!(or.check(rows, 4), Err(Violation::RowOutOfRange { row: 9, rows }));
        let or = Instruction::Or { srcs: vec![1], dst: None };
        assert_eq!(or.check(rows, 4), Err(Violation::ScoutingArity { got: 1 }));
        let and = Instruction::And { srcs: vec![3, 1, 3], dst: None };
        assert_eq!(and.check(rows, 4), Err(Violation::DuplicateSources { row: 3 }));
        let xor = Instruction::Xor { a: 2, b: 2, dst: None };
        assert_eq!(xor.check(rows, 4), Err(Violation::XorOperandsEqual { row: 2 }));
        assert_eq!(Instruction::Xor { a: 2, b: 3, dst: None }.check(rows, 4), Ok(()));
    }
}
