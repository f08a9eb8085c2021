//! # memcim — memristive computation-in-memory
//!
//! A from-scratch Rust reproduction of Yu, Du Nguyen, Xie, Taouil &
//! Hamdioui, *"Memristive Devices for Computation-In-Memory"*
//! (DATE 2018): the **Memristive Vector Processor** (MVP) and the
//! **RRAM Automata Processor** (RRAM-AP), together with every substrate
//! they stand on.
//!
//! ## Workspace map
//!
//! | crate | contents |
//! |---|---|
//! | [`memcim_units`] | typed physical quantities |
//! | [`memcim_bits`]  | bit vectors/matrices (Equations 1–4 substrate) |
//! | [`memcim_device`] | memristor models: Chua, linear ion drift, Stanford/ASU, two-state |
//! | [`memcim_spice`] | MNA transient circuit simulator (the HSPICE stand-in) |
//! | [`memcim_crossbar`] | 1T1R arrays, scouting logic, Fig. 9 bit line |
//! | [`memcim_automata`] | regex → NFA → homogeneous automata |
//! | [`memcim_ap`] | generic AP model + RRAM/SRAM/SDRAM backends |
//! | [`memcim_mvp`] | MVP simulator + Fig. 4 architecture model |
//! | [`memcim_verify`] | static program/automaton analysis: abstract interpreter, cost bounds, reachability/liveness |
//! | [`memcim_serve`] | concurrent multi-tenant query service over the banked engines, plus its framed-TCP network front door (`memcim_serve::net`) |
//!
//! ## Quick start
//!
//! Pattern matching on the RRAM automata processor. A scan returns the
//! same [`ApMatches`](memcim_ap::ApMatches) a served AP session finishes
//! with: report events attributed to patterns, plus the stream's cost.
//!
//! ```
//! use memcim::RegexAccelerator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
//! let mut accel = RegexAccelerator::rram(&["GET /[a-z]+", "EVIL.*\\.exe"])?;
//! let hits = accel.scan(b"GET /index EVILpayload.exe");
//! assert_eq!(hits.matched_patterns(), vec![0, 1]);
//! println!("scanned {} bytes: {}", hits.symbols, hits.report.energy);
//! # Ok(())
//! # }
//! ```
//!
//! Bulk bitwise compute inside the memory array:
//!
//! ```
//! use memcim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mvp = MvpSimulator::new(8, 256);
//! mvp.run_program(&[
//!     Instruction::Store { row: 0, data: BitVec::from_indices(256, &[1, 5]) },
//!     Instruction::Store { row: 1, data: BitVec::from_indices(256, &[5, 9]) },
//!     Instruction::And { srcs: vec![0, 1], dst: Some(2) },
//! ])?;
//! # Ok(())
//! # }
//! ```

pub use memcim_ap as ap;
pub use memcim_automata as automata;
pub use memcim_bits as bits;
pub use memcim_crossbar as crossbar;
pub use memcim_device as device;
pub use memcim_mvp as mvp;
pub use memcim_serve as serve;
pub use memcim_spice as spice;
pub use memcim_units as units;
pub use memcim_verify as verify;

mod accelerator;

pub use accelerator::RegexAccelerator;

/// The most commonly used items across the workspace, importable in one
/// line.
pub mod prelude {
    pub use memcim_ap::{ApBackend, ApMatches, AutomataProcessor, CompiledPatterns, RoutingKind};
    pub use memcim_automata::{
        Dfa, HomogeneousAutomaton, Nfa, PatternSet, Regex, StartKind, SymbolClass,
    };
    pub use memcim_bits::{BitMatrix, BitVec};
    pub use memcim_crossbar::{
        BankedCrossbar, BitlineCircuit, CellTechnology, Crossbar, CrossbarBackend, EccCrossbar,
        EccOutcome, FaultMap, HammingCode, OpLedger, RemapEntry, ScoutingKind,
    };
    pub use memcim_device::{
        BehavioralSwitch, HysteresisSweep, IdealMemristor, LinearIonDrift, MemristiveDevice,
        StanfordAsu, StanfordParams, SwitchParams, Vteam, VteamParams,
    };
    pub use memcim_mvp::{
        evaluate, BatchReport, Instruction, MissRates, MvpSimulator, SystemConfig,
    };
    pub use memcim_serve::net::{NetClient, NetConfig, NetServer, TenantPolicy};
    pub use memcim_serve::{Job, JobOutput, ServeConfig, ServeError, Service, TenantUsage, Ticket};
    pub use memcim_spice::{Circuit, Edge, Integration, SolverKind, Transient, Waveform};
    pub use memcim_units::{
        Amps, Farads, Hertz, Joules, Ohms, Seconds, Siemens, SquareMicrometers, Volts, Watts,
    };
    pub use memcim_verify::{
        first_error, verify_program, AutomatonReport, Code, CostBound, CostModel, Diagnostic,
        Severity,
    };

    pub use crate::RegexAccelerator;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_importable_and_usable() {
        use crate::prelude::*;
        let v = BitVec::from_indices(4, &[0, 3]);
        assert_eq!(v.count_ones(), 2);
        let _ = Crossbar::rram(2, 8);
    }
}
