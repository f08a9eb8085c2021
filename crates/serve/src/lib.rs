//! A concurrent multi-tenant query service over the banked memcim
//! engines.
//!
//! The paper motivates computation-in-memory with big-data query
//! workloads — bitmap-index database scans on the MVP (Section III.B),
//! high-throughput pattern matching on the RRAM-AP (Section IV) — and
//! the million-device deployments those imply are shared infrastructure:
//! many clients, one fleet of engines. This crate is that serving layer,
//! hand-rolled on `std` threads (the tree is offline — no async
//! runtime):
//!
//! * [`Service`] — the front door: a pool of worker threads, each owning
//!   one banked [`MvpSimulator`](memcim_mvp::MvpSimulator) and serving
//!   MVP and correlation work fed from a bounded MPMC queue with
//!   blocking backpressure ([`Service::submit`] / [`Service::try_submit`]).
//!   AP session jobs never queue: they run on the submitting thread and
//!   return an already-resolved [`Ticket`].
//! * [`Job`] — the work unit: MVP macro-instruction programs and
//!   batches of them, plus streaming AP chunks against sessions opened
//!   with [`Service::open_session`].
//! * **Streaming correlation sessions** — the temporal-correlation
//!   workload (`memcim_mvp::correlation`, after arXiv:1706.00511) runs
//!   as a long-lived job: [`Service::open_corr_session`] →
//!   [`Service::corr_feed`] event-batch windows (executed on the
//!   engines, sharded when placement is configured, applied only when
//!   every shard succeeded) → [`Service::corr_finish`] for the
//!   correlated-set report, billed incrementally through a session
//!   watermark. AP and correlation sessions share one table; a verb
//!   against the wrong kind is refused typed
//!   ([`ServeError::WrongSessionKind`]).
//! * **Accounting** — every job is billed to its [`TenantId`] before its
//!   [`Ticket`] resolves: [`Service::tenant_usage`] returns the client's
//!   accumulated [`OpLedger`](memcim_crossbar::OpLedger) (serial merge
//!   of per-job deltas, each reported back in the job's
//!   [`MvpOutput`]) and AP stream costs.
//! * **Fault tolerance** — engines can run ECC-protected and with spare
//!   rows, built per worker through [`ServeConfig::with_engine_factory`];
//!   a worker whose substrate reports a fault-fatal error (uncorrectable
//!   data, exhausted spares) retires its engine from the pool and
//!   requeues the in-flight jobs onto survivors
//!   ([`Service::retired_engines`]) — tenants see degraded throughput,
//!   not failures. Only when no healthy engine remains do MVP jobs fail,
//!   explicitly, with [`ServeError::NoHealthyEngine`].
//! * **Placement & scatter-gather** — [`ServeConfig::with_placement`]
//!   partitions the record space into shards, each replicated on R
//!   distinct workers ([`placement::Catalog`]);
//!   [`Service::submit_sharded`] fans shard-local programs out to one
//!   live replica per shard and the [`ShardedTicket`] gathers the
//!   partials (ledgers merged with parallel semantics). Retiring a
//!   replica's engine mid-flight re-routes its sub-queries onto
//!   survivors with bounded backoff; only a shard whose *whole* replica
//!   set is dead fails, with [`ServeError::ShardUnavailable`], while
//!   other shards keep serving.
//! * **Graceful drain** — [`Service::begin_drain`] refuses new MVP
//!   submissions and session opens with [`ServeError::ShuttingDown`]
//!   while queued jobs execute and open AP sessions stream to
//!   completion, so a restart strands no ticket and bills exactly what
//!   completed.
//! * **Admission-time verification** — every MVP program is checked
//!   against the engine geometry before it is queued
//!   ([`ServeConfig::verify_program`], which calls
//!   [`Instruction::check`](memcim_mvp::Instruction::check)): an invalid
//!   program is refused with the typed [`ServeError::InvalidProgram`] —
//!   on the wire, an `InvalidProgram` error frame — before anything is
//!   billed or queued; lints are never run here. Tenants may additionally carry a
//!   per-submission *static energy budget*
//!   ([`net::TenantPolicy::with_energy_budget`]) checked against the
//!   verifier's cost bound.
//! * **Network front door** — the [`net`] module puts the service on a
//!   real socket: a framed TCP wire protocol
//!   (submit / stream / usage / stats verbs) served by [`net::NetServer`]
//!   over `std` threads, with per-tenant token authentication and
//!   admission control (job quotas and token-bucket rate limits that
//!   refuse with typed error frames *before* the bounded queue), and
//!   [`net::NetClient`] as the matching blocking client.
//!
//! # Examples
//!
//! The front door, end to end:
//!
//! ```
//! use memcim_bits::BitVec;
//! use memcim_mvp::Instruction;
//! use memcim_serve::{Job, ServeConfig, Service};
//!
//! # fn main() -> Result<(), memcim_serve::ServeError> {
//! let config = ServeConfig::default().with_workers(2);
//! let width = config.mvp_width();
//! let service = Service::start(config);
//!
//! // Tenant 7: one bitmap intersection, in memory.
//! let ticket = service.submit(
//!     7,
//!     Job::MvpProgram(vec![
//!         Instruction::Store { row: 0, data: BitVec::from_indices(width, &[1, 5]) },
//!         Instruction::Store { row: 1, data: BitVec::from_indices(width, &[5, 9]) },
//!         Instruction::And { srcs: vec![0, 1], dst: Some(2) },
//!         Instruction::Read { row: 2 },
//!     ]),
//! )?;
//! let result = ticket.wait()?.into_mvp().expect("an MVP job");
//! assert_eq!(result.outputs[0][0].ones().collect::<Vec<_>>(), vec![5]);
//!
//! // Tenant 9: streaming pattern matching on an AP session, one lane.
//! let session = service.open_session(9, &["GET /[a-z]+"])?;
//! for chunk in [&b"GET /ind"[..], b"ex HTTP"] {
//!     service.submit(9, Job::ApFeedMany { session, chunks: vec![chunk.to_vec()] })?.wait()?;
//! }
//! let runs = service
//!     .submit(9, Job::ApFinishMany { session })?
//!     .wait()?
//!     .into_ap_finish_many()
//!     .expect("a finish job");
//! let run = &runs[0];
//! assert_eq!(run.matches.first(), Some(&(5, 0)), "pattern 0 first matches at \"GET /i\"");
//! assert!(run.matches.contains(&(9, 0)), "…and keeps matching through \"GET /index\"");
//!
//! // Both tenants were billed before their tickets resolved.
//! let mvp_bill = service.tenant_usage(7).expect("tenant 7 ran");
//! assert!(mvp_bill.mvp.energy().as_joules() > 0.0);
//! let ap_bill = service.tenant_usage(9).expect("tenant 9 ran");
//! assert_eq!(ap_bill.ap_symbols, 15);
//!
//! service.shutdown();
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod error;
mod job;
mod lru;
pub mod net;
pub mod placement;
mod router;
mod service;
mod session;
mod sync;

pub use error::ServeError;
pub use job::{
    CorrFeedReport, CorrOutcome, Job, JobOutput, MvpOutput, SessionId, ShardPartial, ShardedOutput,
    ShardedTicket, TenantId, Ticket, MAX_LANES,
};
/// The result of finishing an AP session's stream: accept events mapped
/// back to pattern indices by the session's
/// [`CompiledPatterns`](memcim_ap::CompiledPatterns).
pub use memcim_ap::ApMatches;
pub use placement::{Catalog, PlacementConfig};
pub use service::{BoxedBackend, EngineFactory, ServeConfig, Service, TenantUsage};
pub use session::ApOpenInfo;

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}

    #[test]
    fn the_public_surface_is_thread_mobile() {
        assert_send_sync::<Service>();
        assert_send::<Job>();
        assert_send::<Ticket>();
        assert_send::<ShardedTicket>();
        assert_send_sync::<Catalog>();
        assert_send::<ServeError>();
    }
}
