//! Hardware automata processors over memristive and CMOS substrates.
//!
//! This crate implements Section IV of the paper: the **generic automata
//! processor model** (Fig. 6) and its three hardware realizations —
//! RRAM-AP (the paper's proposal), SRAM-AP (the Cache Automaton \[27\])
//! and SDRAM-AP (the Micron AP \[25\]).
//!
//! The execution pipeline per input symbol is exactly the paper's three
//! steps:
//!
//! 1. *Input symbol processing* — the one-hot decoded symbol selects a
//!    word line of the STE array; every STE column performs a **vector
//!    dot product** with it (Equation 1), yielding the symbol vector `s`.
//! 2. *Active state processing* — the routing matrix computes the follow
//!    vector `f = a·R` (Equation 2, also dot products), then
//!    `a = f & s` (Equation 3).
//! 3. *Output identification* — `A = a·cᵀ` (Equation 4) raises report
//!    events.
//!
//! Functional behaviour is substrate-independent (differentially tested
//! against the reference NFA interpreter); what differs per backend is
//! **cost**: cycle latency, per-symbol energy and chip area, all derived
//! from the calibrated cell technologies in `memcim-crossbar` — i.e.
//! from the same constants the Fig. 9 experiment validates.
//!
//! Two routing-matrix organizations are provided (design decision D3):
//! dense `N×N` and the Cache-Automaton-style two-level hierarchy
//! ([`RoutingKind::Hierarchical`]) with bounded global wiring.
//! [`CompiledPatterns`] maps a whole rule set onto one device: it picks
//! the hierarchy, falls back to dense when global wires run out, and
//! attributes report events to patterns as [`ApMatches`].
//!
//! # Examples
//!
//! ```
//! use memcim_ap::{ApBackend, AutomataProcessor, RoutingKind};
//! use memcim_automata::{HomogeneousAutomaton, Regex, StartKind};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nfa = Regex::parse("(GET|POST) /[a-z]+")?.compile();
//! let homog = HomogeneousAutomaton::from_nfa(&nfa).with_start_kind(StartKind::AllInput);
//! let mut ap = AutomataProcessor::compile(&homog, ApBackend::rram(), RoutingKind::Dense)?;
//! let run = ap.run(b"x GET /abc");
//! assert!(!run.accept_events.is_empty());
//! println!("{} symbols in {} at {}", run.symbols, run.report.latency, run.report.energy);
//! # Ok(())
//! # }
//! ```

mod backend;
mod compiled;
mod engine;
mod error;
mod multi;
mod routing;
mod template;

pub use backend::{ApBackend, ApCosts};
pub use compiled::{ApMatches, CompiledPatterns};
pub use engine::{ApReport, ApRun, AutomataProcessor};
pub use error::ApError;
pub use multi::MultiStreamProcessor;
pub use routing::{FollowScratch, Routing, RoutingKind, RoutingResources};
pub use template::ApTemplate;
