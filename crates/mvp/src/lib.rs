//! The Memristive Vector Processor (MVP) — Section III of the paper.
//!
//! Two complementary views are provided:
//!
//! * **Functional** — [`MvpSimulator`]: a macro-instruction vector unit
//!   backed by the scouting-logic crossbar of `memcim-crossbar`
//!   (Fig. 2a/3). The host issues [`Instruction`]s; bulk bitwise
//!   operations execute *inside* the array, and the ledger records the
//!   energy/latency actually spent. [`workloads`] contains the
//!   paper-motivated applications (bitmap-index database queries \[17\],
//!   DNA k-mer filtering \[18–20\], BFS frontier expansion \[21\]) with
//!   scalar reference implementations for differential testing.
//!
//! * **Banked execution** — [`MvpSimulator`] is generic over the
//!   [`CrossbarBackend`](memcim_crossbar::CrossbarBackend) trait, so the
//!   same programs and workloads run on a monolithic
//!   [`Crossbar`](memcim_crossbar::Crossbar) (the default) or a
//!   [`BankedCrossbar`](memcim_crossbar::BankedCrossbar)
//!   ([`MvpSimulator::banked`]) that stripes the vector width across
//!   parallel subarrays — the paper's "2 GB crossbar = millions of
//!   subarrays" organization. Results are bit-identical; the cost model
//!   changes: energy and operation counts sum over banks, busy time is
//!   the wall-clock maximum over banks. [`MvpSimulator::run_batch`]
//!   executes a slice of independent programs against one substrate
//!   and reports the aggregate ledger delta.
//!
//! * **Analytical** — [`SystemConfig`] / [`evaluate`]: the Fig. 4
//!   architecture comparison. A 4-core ALU-only multicore with a
//!   32 KB L1 / 256 KB L2 / DRAM hierarchy is compared against an MVP
//!   system (one core + caches + DRAM + a 2 GB non-volatile crossbar with
//!   scouting read-out), sweeping L1/L2 miss rates at an accelerated
//!   fraction `%Acc = 0.7`, over the paper's three metrics: `ηPE`
//!   (MOPs/mW), `ηE` (pJ/op) and `ηPA` (MOPs/mm²).
//!
//! The analytical model's key interpretation:
//! the offloaded 70 % is "the part of the program which is memory
//! intensive", so the residual 30 % is ALU + L1-resident work, while the
//! multicore baseline serves *all* traffic through the full hierarchy
//! with the swept miss rates. Energy ratios follow the paper's cited
//! 50×/6400× SRAM/DRAM-vs-ALU costs \[15, 16\].
//!
//! # Examples
//!
//! ```
//! use memcim_bits::BitVec;
//! use memcim_mvp::{Instruction, MvpSimulator};
//!
//! # fn main() -> Result<(), memcim_mvp::MvpError> {
//! let mut mvp = MvpSimulator::new(16, 128);
//! let program = vec![
//!     Instruction::Store { row: 0, data: BitVec::from_indices(128, &[1, 2, 3]) },
//!     Instruction::Store { row: 1, data: BitVec::from_indices(128, &[2, 3, 4]) },
//!     Instruction::And { srcs: vec![0, 1], dst: Some(2) },
//!     Instruction::Read { row: 2 },
//! ];
//! let outputs = mvp.run_program(&program)?;
//! assert_eq!(outputs[0].ones().collect::<Vec<_>>(), vec![2, 3]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod arch;
pub mod arith;
mod batch;
pub mod correlation;
mod error;
mod isa;
pub mod sharded;
mod simulator;
pub mod workloads;

pub use arch::{evaluate, ArchComparison, Metrics, MissRates, SystemConfig};
pub use batch::BatchReport;
pub use error::{MvpError, Violation};
pub use isa::Instruction;
pub use sharded::ShardMap;
pub use simulator::MvpSimulator;
