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
    /// `dst = OR(srcs…)` in one scouting cycle plus a write-back.
    Or {
        /// Source rows (≥ 2, distinct).
        srcs: Vec<usize>,
        /// Destination row.
        dst: usize,
    },
    /// `dst = AND(srcs…)` in one scouting cycle plus a write-back.
    And {
        /// Source rows (≥ 2, distinct).
        srcs: Vec<usize>,
        /// Destination row.
        dst: usize,
    },
    /// `dst = a XOR b` (two-reference window sense) plus a write-back.
    Xor {
        /// First operand row.
        a: usize,
        /// Second operand row.
        b: usize,
        /// Destination row.
        dst: usize,
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
    /// destination alias.
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
    /// let xor = Instruction::Xor { a: 3, b: 3, dst: 4 };
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
                srcs.iter().chain([dst]).try_for_each(in_range)?;
                require(srcs.len() >= 2, Violation::ScoutingArity { got: srcs.len() })?;
                require(!srcs.contains(dst), Violation::DestAliasesSource { dst: *dst })?;
                srcs.iter()
                    .enumerate()
                    .find_map(|(i, r)| srcs[..i].contains(r).then_some(*r))
                    .map_or(Ok(()), |row| Err(Violation::DuplicateSources { row }))
            }
            Instruction::Xor { a, b, dst } => {
                [a, b, dst].into_iter().try_for_each(in_range)?;
                require(a != b, Violation::XorOperandsEqual { row: *a })?;
                require(dst != a && dst != b, Violation::DestAliasesSource { dst: *dst })
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
        let and = Instruction::And { srcs: vec![1, 9, 10], dst: 11 };
        assert_eq!(and.check(rows, 4), Err(Violation::RowOutOfRange { row: 9, rows }));
        let and = Instruction::And { srcs: vec![1, 2], dst: 11 };
        assert_eq!(and.check(rows, 4), Err(Violation::RowOutOfRange { row: 11, rows }));
        let xor = Instruction::Xor { a: 0, b: 12, dst: 9 };
        assert_eq!(xor.check(rows, 4), Err(Violation::RowOutOfRange { row: 12, rows }));
        assert_eq!(Instruction::Read { row: 4 }.check(rows, 4), Ok(()));
    }
}
