//! Static program and automaton analysis for the memcim workspace.
//!
//! Tenant-submitted work arrives as one of two domain IRs: MVP
//! macro-instruction programs ([`memcim_mvp::Instruction`]) and
//! compiled homogeneous automata
//! ([`memcim_automata::HomogeneousAutomaton`]). This crate analyzes
//! both *without executing them*:
//!
//! * [`program::verify_program`] — an abstract interpreter that tracks
//!   per-row state against a crossbar geometry and reports typed
//!   [`Diagnostic`]s: the Error-severity subset calls
//!   [`Instruction::check`](memcim_mvp::Instruction::check), the
//!   simulator's own admission rules (so the serve layer can refuse a
//!   doomed program at admission time, before it occupies queue or
//!   engine capacity), and the Lint subset flags
//!   legal-but-suspect shapes (reads of never-written rows, dead
//!   stores, output-free programs).
//! * [`cost::CostModel`] — a static [`OpLedger`] bound (operation
//!   counts, host transfers, energy, busy time) computed straight off
//!   the program, pinned differentially `≥` the executed ledger.
//! * [`automaton::AutomatonReport`] — forward reachability and
//!   backward liveness over compiled automata, the analysis side of
//!   [`HomogeneousAutomaton::strip`].
//!
//! The `memcim-lint` binary runs all of it offline over the built-in
//! workload plans and a synthetic rule corpus; CI smoke-runs it.
//!
//! [`OpLedger`]: memcim_crossbar::OpLedger
//! [`HomogeneousAutomaton::strip`]: memcim_automata::HomogeneousAutomaton::strip

#![deny(missing_docs)]

pub mod automaton;
pub mod cost;
pub mod program;

pub use automaton::AutomatonReport;
pub use cost::{CostBound, CostModel};
pub use program::{first_error, verify_program, Code, Diagnostic, Severity};
