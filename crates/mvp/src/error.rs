//! Error type for MVP program execution.

use core::fmt;
use memcim_crossbar::CrossbarError;

/// The MVP admission rule an instruction breaks, as reported by
/// [`Instruction::check`](crate::Instruction::check). Scouting reads
/// activate two or more distinct rows (`Xor`: exactly two) and write the
/// result to a further row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Violation {
    /// A row outside the array.
    RowOutOfRange {
        /// The offending row.
        row: usize,
        /// Rows available.
        rows: usize,
    },
    /// A `Store`'s data width differs from the array width.
    StoreWidth {
        /// Bits supplied.
        got: usize,
        /// The array width.
        width: usize,
    },
    /// An `Or`/`And` names fewer than two source rows.
    ScoutingArity {
        /// Sources supplied.
        got: usize,
    },
    /// A scouting destination is also one of its sources.
    DestAliasesSource {
        /// The destination row.
        dst: usize,
    },
    /// Both `Xor` operands are the same row.
    XorOperandsEqual {
        /// The repeated row.
        row: usize,
    },
    /// An `Or`/`And` lists a source row twice.
    DuplicateSources {
        /// The repeated row.
        row: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::RowOutOfRange { row, rows } => {
                write!(f, "row {row} outside the {rows}-row array")
            }
            Violation::StoreWidth { got, width } => {
                write!(f, "stored data is {got} bits wide, the array {width}")
            }
            Violation::ScoutingArity { got } => {
                write!(f, "scouting needs at least two source rows, got {got}")
            }
            Violation::DestAliasesSource { dst } => {
                write!(f, "destination row {dst} is also a source")
            }
            Violation::XorOperandsEqual { row } => write!(f, "both xor operands are row {row}"),
            Violation::DuplicateSources { row } => {
                write!(f, "source row {row} is listed more than once")
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Errors produced while executing an MVP program.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MvpError {
    /// The underlying crossbar rejected an operation.
    Crossbar(CrossbarError),
    /// An instruction broke an admission rule of
    /// [`Instruction::check`](crate::Instruction::check).
    Invalid(Violation),
    /// Workload input data was malformed (e.g. a non-ACGT genome base or
    /// a k-mer of the wrong length).
    BadInput {
        /// What was wrong with the input.
        reason: String,
    },
}

impl fmt::Display for MvpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MvpError::Crossbar(e) => write!(f, "crossbar rejected the operation: {e}"),
            MvpError::Invalid(v) => write!(f, "invalid instruction: {v}"),
            MvpError::BadInput { reason } => write!(f, "bad workload input: {reason}"),
        }
    }
}

impl std::error::Error for MvpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MvpError::Crossbar(e) => Some(e),
            MvpError::Invalid(v) => Some(v),
            MvpError::BadInput { .. } => None,
        }
    }
}

impl From<CrossbarError> for MvpError {
    fn from(e: CrossbarError) -> Self {
        MvpError::Crossbar(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_chains_the_source() {
        use std::error::Error as _;
        let e = MvpError::Crossbar(CrossbarError::WidthMismatch { got: 3, expected: 4 });
        assert!(e.to_string().contains("crossbar"));
        assert!(e.source().is_some());
        let e = MvpError::Invalid(Violation::DuplicateSources { row: 2 });
        assert!(e.to_string().contains("source row 2 is listed more than once"), "{e}");
        assert!(e.source().is_some());
    }

    #[test]
    fn bad_input_carries_the_reason() {
        let e = MvpError::BadInput { reason: "non-ACGT base 'N' at position 3".into() };
        assert!(e.to_string().contains("non-ACGT base 'N' at position 3"));
    }
}
