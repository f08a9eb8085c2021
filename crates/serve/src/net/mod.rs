//! The network front door: a framed TCP protocol over the [`Service`].
//!
//! Everything below `Service` is in-process; this module is the step
//! from library to service. It is hand-rolled on `std` threads and
//! blocking sockets (the tree is offline — no async runtime), in three
//! layers:
//!
//! * [`wire`] — a small length-prefixed binary protocol: every frame is
//!   a 4-byte big-endian body length followed by a one-byte opcode and
//!   payload. Verbs: `Hello` (authenticate), `Submit` (MVP programs),
//!   `ApOpen`/`ApFeedMany`/`ApFinishMany`/`ApClose` (AP sessions; one
//!   feed and one finish verb, a single stream being one lane),
//!   `CorrOpen`/`CorrFeed`/`CorrFinish` (correlation sessions), `Usage`
//!   and `Stats`. Malformed input never panics the server — it answers
//!   with a typed [`wire::ErrorCode`] frame.
//! * [`admission`] — the gate *in front of* the bounded queue:
//!   per-tenant authentication tokens, job quotas and token-bucket rate
//!   limiting. An over-quota or over-rate submission is refused before
//!   the service's queue could block, so one greedy client can stall
//!   neither the accept loop nor another tenant's connection. `Submit`
//!   programs are additionally verified *statically* against the engine
//!   geometry — and, for tenants carrying a
//!   [`TenantPolicy::with_energy_budget`], against their per-submission
//!   static cost bound — before admission; see [`server`]'s
//!   dispatch-order contract.
//! * [`server`] / [`client`] — [`NetServer`] (accept loop plus
//!   one handler thread per connection, capped) and the blocking
//!   [`NetClient`] used by the tests, the load generator and external
//!   callers.
//!
//! # Example
//!
//! ```
//! use memcim_serve::net::{NetClient, NetConfig, NetServer, TenantPolicy};
//! use memcim_serve::{ServeConfig, Service};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = Arc::new(Service::try_start(ServeConfig::default().with_workers(2))?);
//! let width = service.config().mvp_width();
//! let server = NetServer::start(
//!     Arc::clone(&service),
//!     NetConfig::default().with_tenant(7, TenantPolicy::new("tenant-7-token")),
//! )?;
//!
//! let mut client = NetClient::connect(server.local_addr())?;
//! client.hello(7, "tenant-7-token")?;
//! let result = client.submit_mvp(&[vec![
//!     memcim_mvp::Instruction::Store {
//!         row: 0,
//!         data: memcim_bits::BitVec::from_indices(width, &[3, 5]),
//!     },
//!     memcim_mvp::Instruction::Read { row: 0 },
//! ]])?;
//! assert_eq!(result.outputs[0][0].ones().collect::<Vec<_>>(), vec![3, 5]);
//!
//! let stats = client.stats()?;
//! assert_eq!(stats.live_engines, 2);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! [`Service`]: crate::Service

pub mod admission;
pub mod client;
pub mod server;
pub mod wire;

pub use admission::{AdmissionControl, RateLimit, TenantBudget, TenantPolicy, TokenBucket};
pub use client::{ClientError, NetClient};
pub use server::{NetConfig, NetServer};
pub use wire::{
    EncodeError, ErrorCode, FrameError, FrameReadError, Request, Response, TenantStat,
    WireMvpResult, WireRate, WireStats, WireUsage, MAX_FRAME_DEFAULT,
};
