//! 1T1R resistive crossbar arrays with scouting logic.
//!
//! This crate implements Section III of the paper (the storage/compute
//! fabric of the Memristive Vector Processor) and the bit-line experiment
//! of Section IV.D (Fig. 9):
//!
//! * [`CellTechnology`] — calibrated per-cell models for RRAM 1T1R,
//!   8T SRAM and 1T1C DRAM bit cells: layout area, bit-line
//!   capacitance, discharge-path resistance, programming cost and
//!   leakage. These constants are the *only* place where technology
//!   numbers live; everything downstream (AP backends, MVP architecture
//!   model) derives its figures from here.
//! * [`BitlineCircuit`] — builds the paper's Fig. 9 discharge experiment
//!   as a `memcim-spice` netlist (lumped or with every cell explicit) and
//!   measures discharge delay and cycle energy; [`DischargeReport`] holds
//!   the result. The analytic shortcuts
//!   [`CellTechnology::analytic_discharge_time`] and
//!   [`CellTechnology::analytic_cycle_energy`] are validated against the
//!   transient simulation by integration tests.
//! * [`Crossbar`] — the array itself: programming (with endurance wear
//!   and stuck-at faults), normal reads, and **scouting logic** reads
//!   (Fig. 3): multi-row activation whose aggregated bit-line current is
//!   compared against per-gate sense-amplifier references to compute
//!   OR / AND / XOR across rows in a single memory cycle. A normal read
//!   is the one-row case of the same sensing loop.
//! * [`ScoutingKind`]/[`SenseThresholds`] — the reference-current
//!   placement of Fig. 3b, including the two-reference XOR window.
//!
//! # Banked execution
//!
//! The MVP's 2 GB crossbar is physically *millions of subarrays*
//! operating column-parallel. [`BankedCrossbar`] models that
//! organization: a logical row is striped over equally-wide banks, every
//! operation fans out to all banks in the same memory cycle, and the
//! stripe/gather plumbing is word-parallel
//! ([`memcim_bits::BitVec::extract_range_into`] /
//! [`memcim_bits::BitVec::or_shifted`]) with reusable scratch — no
//! per-bit loops, no per-call allocations.
//!
//! The [`CrossbarBackend`] trait is the host interface of every
//! substrate (programming, reads, scouting with and without write-back,
//! geometry, ledger aggregation) and each substrate's impl is the only
//! definition of its row operations, so code written against the trait —
//! notably the MVP simulator in `memcim-mvp` — runs bit-identically on
//! either. Cost
//! aggregation follows the paper's parallel-subarray model: **energy
//! sums over banks** (every bank spends its joules) while **busy time is
//! the maximum over banks** (the wall clock is one bank cycle, not the
//! sum) — see [`OpLedger::merge_parallel`].
//!
//! # Fault tolerance
//!
//! The paper flags endurance wear-out and stuck cells as the defining
//! drawback of memristive substrates (Sections III.C, IV.C); two repair
//! mechanisms make the stack *survive* them rather than merely model
//! them:
//!
//! * [`EccCrossbar`] wraps any backend with a SEC-DED [`HammingCode`]
//!   per row: parity columns ride next to the data, reads transparently
//!   correct single-bit upsets (counted in
//!   [`OpLedger::corrected_errors`]), and multi-bit corruption surfaces
//!   as [`CrossbarError::Uncorrectable`] instead of silent wrong data.
//! * [`Crossbar::with_spare_rows`] reserves spare physical rows: a row
//!   whose stuck-cell population crosses a threshold is transparently
//!   retired onto a spare (the remap is visible through
//!   [`CrossbarBackend::remap_table`]); once every spare is consumed
//!   the array reports [`CrossbarError::ExhaustedSpares`] so a serving
//!   layer can retire the whole engine from its pool.
//!
//! # Examples
//!
//! ```
//! use memcim_bits::BitVec;
//! use memcim_crossbar::{Crossbar, CrossbarBackend, ScoutingKind};
//!
//! # fn main() -> Result<(), memcim_crossbar::CrossbarError> {
//! let mut xbar = Crossbar::rram(8, 64);
//! xbar.program_row(0, &BitVec::from_indices(64, &[0, 1, 2]))?;
//! xbar.program_row(1, &BitVec::from_indices(64, &[2, 3]))?;
//! let or = xbar.scouting(ScoutingKind::Or, &[0, 1])?;
//! assert_eq!(or.ones().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
//! let and = xbar.scouting(ScoutingKind::And, &[0, 1])?;
//! assert_eq!(and.ones().collect::<Vec<_>>(), vec![2]);
//! println!("energy so far: {}", xbar.ledger().energy());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod array;
mod backend;
mod bank;
mod bitline;
mod ecc;
mod error;
mod faults;
mod ledger;
mod sense;
mod technology;

pub use array::Crossbar;
pub use backend::{CrossbarBackend, RemapEntry};
pub use bank::BankedCrossbar;
pub use bitline::{BitlineCircuit, DischargeReport};
pub use ecc::{EccCrossbar, EccOutcome, HammingCode};
pub use error::CrossbarError;
pub use faults::FaultMap;
pub use ledger::OpLedger;
pub use sense::{ScoutingKind, SenseThresholds};
pub use technology::CellTechnology;
