//! Abstract interpretation of MVP instruction sequences.
//!
//! [`verify_program`] walks a program once, tracking an abstract
//! per-row state (never written / written / written-but-unused) against
//! a crossbar geometry, and reports every problem it can prove without
//! executing anything.
//!
//! The Error-severity checks call [`Instruction::check`], the function
//! `MvpSimulator::run_program` applies before every instruction, and
//! map its [`Violation`] to a [`Code`], so static and dynamic admission
//! cannot drift apart. The agreement proptests pin the two guarantees
//! the serve layer's admission gate relies on:
//!
//! * a program with no [`Severity::Error`] diagnostic executes on a
//!   fresh, fault-free simulator of the same geometry without an error;
//! * a program the simulator rejects carries an Error diagnostic whose
//!   [`Code`] matches the runtime [`MvpError`] (via
//!   [`Code::of_runtime`]) at the same instruction index.
//!
//! Everything beyond the dynamic checks — reads of never-written rows,
//! dead stores, programs that produce no output — executes fine and is
//! reported at [`Severity::Lint`]. A sensed gate (`dst: None`) uses its
//! sources, writes no row and is an output, like a `Read`.

use core::fmt;
use memcim_mvp::{Instruction, MvpError, Violation};

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// The simulator would reject the program at this instruction.
    Error,
    /// Legal but almost certainly not what the author meant.
    Lint,
}

/// Stable machine-readable diagnostic codes.
///
/// The `E-*` codes correspond one-to-one to the [`Violation`]s of
/// [`Instruction::check`]; the `L-*` codes are static-only lints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Code {
    /// An instruction references a row outside the array
    /// ([`Violation::RowOutOfRange`]).
    RowOutOfRange,
    /// A `Store`'s data width differs from the array width
    /// ([`Violation::StoreWidth`]).
    StoreWidthMismatch,
    /// A scouting operation names fewer than two source rows
    /// ([`Violation::ScoutingArity`]).
    ScoutingArity,
    /// A scouting destination appears among its sources
    /// ([`Violation::DestAliasesSource`]).
    DestAliasesSource,
    /// Both `Xor` operands are the same row
    /// ([`Violation::XorOperandsEqual`]).
    XorOperandsEqual,
    /// A scouting source row is listed twice
    /// ([`Violation::DuplicateSources`]).
    DuplicateSources,
    /// A row is read (or used as a scouting source) before any store —
    /// it reads as all-zero.
    ReadBeforeStore,
    /// A stored value is overwritten before any use.
    DeadStore,
    /// The program contains no `Read` and no sensed gate: it produces
    /// no output.
    NoOutput,
}

impl Code {
    /// The stable textual form of the code (what the wire protocol and
    /// `memcim-lint` print).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::RowOutOfRange => "E-ROW-RANGE",
            Code::StoreWidthMismatch => "E-STORE-WIDTH",
            Code::ScoutingArity => "E-SCOUT-ARITY",
            Code::DestAliasesSource => "E-DST-ALIAS",
            Code::XorOperandsEqual => "E-XOR-EQUAL",
            Code::DuplicateSources => "E-SRC-DUP",
            Code::ReadBeforeStore => "L-READ-UNWRITTEN",
            Code::DeadStore => "L-DEAD-STORE",
            Code::NoOutput => "L-NO-OUTPUT",
        }
    }

    /// The severity class of this code.
    pub fn severity(self) -> Severity {
        match self {
            Code::RowOutOfRange
            | Code::StoreWidthMismatch
            | Code::ScoutingArity
            | Code::DestAliasesSource
            | Code::XorOperandsEqual
            | Code::DuplicateSources => Severity::Error,
            Code::ReadBeforeStore | Code::DeadStore | Code::NoOutput => Severity::Lint,
        }
    }

    /// The code a runtime rejection corresponds to, if it is one the
    /// verifier predicts: exactly the [`MvpError::Invalid`] rejections.
    /// `BadInput` and the physical crossbar failures (endurance, spares)
    /// are not static program properties, so they map to `None`.
    pub fn of_runtime(err: &MvpError) -> Option<Code> {
        match err {
            MvpError::Invalid(v) => Some(v.into()),
            _ => None,
        }
    }
}

impl From<&Violation> for Code {
    fn from(v: &Violation) -> Self {
        match v {
            Violation::RowOutOfRange { .. } => Code::RowOutOfRange,
            Violation::StoreWidth { .. } => Code::StoreWidthMismatch,
            Violation::ScoutingArity { .. } => Code::ScoutingArity,
            Violation::DestAliasesSource { .. } => Code::DestAliasesSource,
            Violation::XorOperandsEqual { .. } => Code::XorOperandsEqual,
            Violation::DuplicateSources { .. } => Code::DuplicateSources,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding of the static verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// What was found.
    pub code: Code,
    /// Index of the offending instruction ([`Code::NoOutput`] carries
    /// the program length — it is a whole-program property).
    pub index: usize,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// The severity of this diagnostic (derived from its code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] instruction {}: {}", self.code, self.index, self.message)
    }
}

/// The first Error-severity diagnostic, if any — the one the simulator
/// would trip over, and the one an admission refusal carries.
pub fn first_error(diagnostics: &[Diagnostic]) -> Option<&Diagnostic> {
    diagnostics.iter().find(|d| d.severity() == Severity::Error)
}

/// Abstract per-row state during interpretation.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RowState {
    Unwritten,
    Written { at: usize, used: bool },
}

/// Statically verifies a program against a `rows × width` crossbar
/// geometry, returning every diagnostic sorted by instruction index.
///
/// Instructions that carry an Error do not advance the abstract row
/// state (execution would have stopped there); scanning continues so a
/// lint run reports everything at once.
pub fn verify_program(program: &[Instruction], rows: usize, width: usize) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut state = vec![RowState::Unwritten; rows];
    let mut has_output = false;

    for (index, instr) in program.iter().enumerate() {
        if let Err(violation) = instr.check(rows, width) {
            let message = violation.to_string();
            diags.push(Diagnostic { code: (&violation).into(), index, message });
            continue;
        }
        match instr {
            Instruction::Store { row, .. } => write_row(&mut state, &mut diags, *row, index),
            Instruction::Or { srcs, dst } | Instruction::And { srcs, dst } => {
                has_output |= gate(&mut state, &mut diags, srcs, *dst, index);
            }
            Instruction::Xor { a, b, dst } => {
                has_output |= gate(&mut state, &mut diags, &[*a, *b], *dst, index);
            }
            Instruction::Read { row } => {
                use_row(&mut state, &mut diags, *row, index);
                has_output = true;
            }
        }
    }

    if !has_output {
        diags.push(Diagnostic {
            code: Code::NoOutput,
            index: program.len(),
            message: "program contains no Read and no sensed gate: it produces no output".into(),
        });
    }
    // Dead-store lints point at the earlier store; restore index order.
    diags.sort_by_key(|d| d.index);
    diags
}

/// A scouting gate uses its sources, then writes `dst` or, sensed,
/// produces an output (the return value).
fn gate(
    state: &mut [RowState],
    diags: &mut Vec<Diagnostic>,
    srcs: &[usize],
    dst: Option<usize>,
    index: usize,
) -> bool {
    for &src in srcs {
        use_row(state, diags, src, index);
    }
    if let Some(dst) = dst {
        write_row(state, diags, dst, index);
    }
    dst.is_none()
}

fn use_row(state: &mut [RowState], diags: &mut Vec<Diagnostic>, row: usize, index: usize) {
    match state[row] {
        RowState::Unwritten => diags.push(Diagnostic {
            code: Code::ReadBeforeStore,
            index,
            message: format!("row {row} is used before any store (it reads as all-zero)"),
        }),
        RowState::Written { at, .. } => state[row] = RowState::Written { at, used: true },
    }
}

fn write_row(state: &mut [RowState], diags: &mut Vec<Diagnostic>, row: usize, index: usize) {
    if let RowState::Written { at, used: false } = state[row] {
        diags.push(Diagnostic {
            code: Code::DeadStore,
            index: at,
            message: format!("the value written to row {row} here is overwritten unused"),
        });
    }
    state[row] = RowState::Written { at: index, used: false };
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcim_bits::BitVec;

    fn store(row: usize, width: usize) -> Instruction {
        Instruction::Store { row, data: BitVec::new(width) }
    }

    /// A clean `(r0 | r1) & r2 → read` program.
    fn clean_program(width: usize) -> Vec<Instruction> {
        vec![
            store(0, width),
            store(1, width),
            store(2, width),
            Instruction::Or { srcs: vec![0, 1], dst: Some(3) },
            Instruction::And { srcs: vec![3, 2], dst: Some(4) },
            Instruction::Read { row: 4 },
        ]
    }

    #[test]
    fn a_clean_program_has_no_diagnostics() {
        assert!(verify_program(&clean_program(16), 8, 16).is_empty());
    }

    #[test]
    fn every_error_condition_is_caught_with_its_code() {
        let w = 8;
        let cases: Vec<(Instruction, Code)> = vec![
            (Instruction::Read { row: 99 }, Code::RowOutOfRange),
            (store(0, w + 1), Code::StoreWidthMismatch),
            (Instruction::Or { srcs: vec![0], dst: Some(3) }, Code::ScoutingArity),
            (Instruction::And { srcs: vec![0, 3], dst: Some(3) }, Code::DestAliasesSource),
            (Instruction::Xor { a: 1, b: 1, dst: Some(3) }, Code::XorOperandsEqual),
            (Instruction::Or { srcs: vec![0, 0], dst: Some(3) }, Code::DuplicateSources),
            (Instruction::Xor { a: 1, b: 2, dst: Some(2) }, Code::DestAliasesSource),
        ];
        for (instr, code) in cases {
            let program = vec![
                store(0, w),
                store(1, w),
                store(2, w),
                instr.clone(),
                Instruction::Read { row: 0 },
            ];
            let diags = verify_program(&program, 8, w);
            let err = first_error(&diags).unwrap_or_else(|| panic!("no error for {instr:?}"));
            assert_eq!(err.code, code, "instruction {instr:?}");
            assert_eq!(err.index, 3, "instruction {instr:?}");
        }
    }

    #[test]
    fn row_bounds_take_precedence_like_the_simulator() {
        // Bad row AND bad width: `Instruction::check` tests bounds first.
        let program = vec![store(99, 3)];
        let diags = verify_program(&program, 8, 8);
        assert_eq!(first_error(&diags).expect("error").code, Code::RowOutOfRange);
    }

    #[test]
    fn lints_cover_unwritten_reads_dead_stores_and_missing_outputs() {
        let w = 4;
        // Read of a never-written row.
        let diags = verify_program(&[Instruction::Read { row: 2 }], 8, w);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::ReadBeforeStore);
        assert_eq!(diags[0].severity(), Severity::Lint);

        // Store overwritten unused: the lint points at the dead store.
        let program = vec![store(0, w), store(0, w), Instruction::Read { row: 0 }];
        let diags = verify_program(&program, 8, w);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::DeadStore);
        assert_eq!(diags[0].index, 0);

        // No Read at all.
        let diags = verify_program(&[store(0, w)], 8, w);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::NoOutput);
        assert_eq!(diags[0].index, 1);
    }

    #[test]
    fn scouting_counts_as_a_use_not_a_read() {
        // The OR uses rows 0/1 and writes 2; without a Read the program
        // still has no output, and nothing is a dead store (row 2 is
        // simply never used — that is not flagged).
        let w = 4;
        let program =
            vec![store(0, w), store(1, w), Instruction::Or { srcs: vec![0, 1], dst: Some(2) }];
        let diags = verify_program(&program, 8, w);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::NoOutput);
    }

    #[test]
    fn a_sensed_gate_uses_its_sources_writes_nothing_and_is_an_output() {
        let w = 4;
        // Rows 0/1 are used, no row is written, and the program has an
        // output without any Read.
        let program =
            vec![store(0, w), store(1, w), Instruction::And { srcs: vec![0, 1], dst: None }];
        assert!(verify_program(&program, 8, w).is_empty());
        // A sensed XOR of an unwritten row is a read-before-store lint.
        let program = vec![store(0, w), Instruction::Xor { a: 0, b: 5, dst: None }];
        let diags = verify_program(&program, 8, w);
        assert_eq!(diags.iter().map(|d| d.code).collect::<Vec<_>>(), [Code::ReadBeforeStore]);
    }

    #[test]
    fn runtime_error_mapping_covers_the_admission_conditions() {
        let cases = [
            (Violation::RowOutOfRange { row: 9, rows: 8 }, Code::RowOutOfRange),
            (Violation::StoreWidth { got: 3, width: 4 }, Code::StoreWidthMismatch),
            (Violation::ScoutingArity { got: 1 }, Code::ScoutingArity),
            (Violation::DestAliasesSource { dst: 2 }, Code::DestAliasesSource),
            (Violation::XorOperandsEqual { row: 1 }, Code::XorOperandsEqual),
            (Violation::DuplicateSources { row: 0 }, Code::DuplicateSources),
        ];
        for (violation, code) in cases {
            assert_eq!(Code::of_runtime(&MvpError::Invalid(violation)), Some(code), "{violation}");
            assert_eq!(code.severity(), Severity::Error);
        }
        assert_eq!(Code::of_runtime(&MvpError::BadInput { reason: "x".into() }), None);
        let worn = memcim_crossbar::CrossbarError::ExhaustedSpares { row: 0, spares: 1 };
        assert_eq!(Code::of_runtime(&MvpError::Crossbar(worn)), None);
    }

    #[test]
    fn diagnostics_render_code_index_and_message() {
        let program = vec![Instruction::Read { row: 99 }];
        let diags = verify_program(&program, 8, 8);
        let rendered = diags[0].to_string();
        assert!(rendered.contains("E-ROW-RANGE"), "{rendered}");
        assert!(rendered.contains("instruction 0"), "{rendered}");
    }
}
