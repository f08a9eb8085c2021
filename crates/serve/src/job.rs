//! Jobs, their results, and the ticket a client waits on.

use crate::{sync, ServeError};
use memcim_ap::{ApMatches, ApReport};
use memcim_bits::BitVec;
use memcim_crossbar::OpLedger;
use memcim_mvp::Instruction;
use memcim_units::{Joules, Seconds};
use std::sync::{Arc, Condvar, Mutex};

/// Identifies a paying client of the service; all accounting is keyed
/// by this id.
pub type TenantId = u64;

/// Identifies an open AP streaming session.
pub type SessionId = u64;

/// The most stream lanes one AP session holds. A [`Job::ApFeedMany`]
/// with more chunks is refused before it reaches the session, in
/// process and on the wire alike.
pub const MAX_LANES: usize = 64;

/// One unit of work a tenant submits to the service.
///
/// Jobs are **independent**: each must load whatever rows it reads
/// (engine row state is not promised across job boundaries — jobs may
/// execute on different workers' engines, in any order across
/// workers). Within one job, instructions run in order as usual.
/// Every MVP job executes as one
/// [`run_batch`](memcim_mvp::MvpSimulator::run_batch) call, exactly once
/// per engine attempt.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Job {
    /// A single MVP macro-instruction program, executed as a
    /// one-program batch.
    MvpProgram(Vec<Instruction>),
    /// A batch of MVP programs, executed back to back on one engine as
    /// one unit.
    MvpBatch(Vec<Vec<Instruction>>),
    /// Streams one chunk into **each** stream lane of an AP session in
    /// a single job: `chunks[i]` goes to lane `i`. Lanes are
    /// independent streams through one compiled automaton; the session
    /// grows lanes on demand to `chunks.len()`, at most [`MAX_LANES`].
    /// A single stream is one chunk, fed to lane 0. Jobs of one session
    /// must be serialized by the client: wait on each ticket before
    /// submitting the next.
    ApFeedMany {
        /// The session opened via `Service::open_session`.
        session: SessionId,
        /// `chunks[i]` is appended to stream lane `i`.
        chunks: Vec<Vec<u8>>,
    },
    /// Ends the current stream of **every** lane of an AP session,
    /// collecting per-lane matches; the session stays open with all its
    /// lanes reset for the next streams.
    ApFinishMany {
        /// The session to finish.
        session: SessionId,
    },
}

/// The result of an MVP job, and what it cost on the engine that ran
/// it; the tenant's ledger is billed exactly this job's delta, once.
#[derive(Debug, Clone, PartialEq)]
pub struct MvpOutput {
    /// `outputs[i]` holds the outputs (`Read`s and sensed gates) of this
    /// job's `i`-th program, in program order (a [`Job::MvpProgram`] has exactly one
    /// entry).
    pub outputs: Vec<Vec<BitVec>>,
    /// Programs the job's batch executed.
    pub programs: usize,
    /// The batch's ledger delta (banked semantics: energy and counts
    /// sum over banks, busy time is the slowest bank).
    pub ledger: OpLedger,
}

/// The cumulative state of a correlation session after a feed
/// (`Service::corr_feed`): how much the session's stream has absorbed
/// and cost so far, mirroring the cumulative [`ApReport`] of an AP feed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrFeedReport {
    /// Stream-slots (streams × window steps) absorbed since the last
    /// finish — the billing unit of the session watermark.
    pub events: u64,
    /// Engine energy the session's feed programs have cost so far.
    pub energy: Joules,
    /// Engine busy time the session's feed programs have cost so far.
    pub busy: Seconds,
}

/// The result of finishing a correlation session's stream
/// (`Service::corr_finish`): the detected correlated set and the
/// evidence behind it. The session stays open for the next stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrOutcome {
    /// Bit `i` set when stream `i`'s co-activation score exceeded the
    /// session threshold.
    pub correlated: BitVec,
    /// The per-stream co-activation scores the detection thresholded.
    pub scores: Vec<u64>,
    /// Stream-slots absorbed over the finished stream.
    pub events: u64,
    /// The threshold the session was opened with.
    pub threshold: u64,
}

/// The result of a completed [`Job`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum JobOutput {
    /// Result of [`Job::MvpProgram`] / [`Job::MvpBatch`].
    Mvp(MvpOutput),
    /// Result of [`Job::ApFeedMany`]: the *cumulative* per-lane cost
    /// reports, `reports[i]` for lane `i`.
    ApFeedMany(Vec<ApReport>),
    /// Result of [`Job::ApFinishMany`]: per-lane stream results,
    /// `matches[i]` for lane `i`.
    ApFinishMany(Vec<ApMatches>),
}

impl JobOutput {
    /// The MVP result, if this was an MVP job.
    pub fn into_mvp(self) -> Option<MvpOutput> {
        match self {
            JobOutput::Mvp(out) => Some(out),
            _ => None,
        }
    }

    /// The per-lane feed reports, if this was an [`Job::ApFeedMany`].
    pub fn into_ap_feed_many(self) -> Option<Vec<ApReport>> {
        match self {
            JobOutput::ApFeedMany(reports) => Some(reports),
            _ => None,
        }
    }

    /// The per-lane stream results, if this was an
    /// [`Job::ApFinishMany`].
    pub fn into_ap_finish_many(self) -> Option<Vec<ApMatches>> {
        match self {
            JobOutput::ApFinishMany(runs) => Some(runs),
            _ => None,
        }
    }
}

#[derive(Debug)]
struct Slot {
    result: Mutex<Option<Result<JobOutput, ServeError>>>,
    ready: Condvar,
}

/// A claim on a submitted job's eventual result.
///
/// Obtained from `Service::submit`; [`wait`](Ticket::wait) blocks until
/// a worker fulfils (or fails) the job. AP session jobs run on the
/// submitting thread, so their tickets come back already resolved.
/// Dropping a ticket abandons the result without cancelling the job.
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// A ticket whose job already ran on the submitting thread.
    pub(crate) fn resolved(result: Result<JobOutput, ServeError>) -> Self {
        Self { slot: Arc::new(Slot { result: Mutex::new(Some(result)), ready: Condvar::new() }) }
    }

    /// Blocks until the job completes.
    ///
    /// # Errors
    ///
    /// Whatever the worker reported: the job's own failure, or
    /// [`ServeError::ShuttingDown`] when the service closed before the
    /// job ran.
    pub fn wait(self) -> Result<JobOutput, ServeError> {
        let mut guard = sync::lock(&self.slot.result);
        while guard.is_none() {
            guard = sync::wait(&self.slot.ready, guard);
        }
        guard.take().expect("checked above")
    }

    /// `true` once the result is available ([`wait`](Self::wait) will
    /// not block).
    pub fn is_ready(&self) -> bool {
        sync::lock(&self.slot.result).is_some()
    }
}

/// A claim on a scatter-gather job's eventual result: one
/// [`Ticket`] per shard sub-query, gathered by
/// [`wait`](ShardedTicket::wait).
///
/// Obtained from `Service::submit_sharded`. Sub-queries resolve
/// independently — a shard whose replicas are all dead fails with
/// [`ServeError::ShardUnavailable`] without disturbing the others — so
/// the gather surfaces the first failing shard's error, or merges every
/// partial when all succeed.
#[derive(Debug)]
pub struct ShardedTicket {
    parts: Vec<(usize, Ticket)>,
}

/// One shard's slice of a gathered scatter-gather answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPartial {
    /// The shard this partial covers.
    pub shard: usize,
    /// The shard-local program's outputs, in program order.
    pub outputs: Vec<BitVec>,
}

/// The gathered result of a scatter-gather submission.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOutput {
    /// Per-shard partials, in the order the sub-queries were submitted.
    pub partials: Vec<ShardPartial>,
    /// The sub-query ledgers merged with parallel semantics (counts and
    /// energy sum over shards, busy time is the slowest shard) — shards
    /// execute on distinct workers' engines concurrently, exactly the
    /// banked-crossbar cost model one level up.
    pub ledger: OpLedger,
}

impl ShardedTicket {
    pub(crate) fn new(parts: Vec<(usize, Ticket)>) -> Self {
        Self { parts }
    }

    /// Number of shard sub-queries in flight.
    pub fn shard_count(&self) -> usize {
        self.parts.len()
    }

    /// Blocks until every sub-query resolves, then merges the partials.
    ///
    /// # Errors
    ///
    /// The first failing shard's error, in submission order — typically
    /// [`ServeError::ShardUnavailable`] when a shard's whole replica
    /// set is dead, or [`ServeError::ShuttingDown`] when the service
    /// closed mid-flight. (Remaining sub-queries still execute and are
    /// billed; only their outputs are discarded with the gather.)
    pub fn wait(self) -> Result<ShardedOutput, ServeError> {
        let mut partials = Vec::with_capacity(self.parts.len());
        let mut ledger: Option<OpLedger> = None;
        for (shard, ticket) in self.parts {
            let output = ticket.wait()?.into_mvp().ok_or_else(|| ServeError::Internal {
                message: format!("shard {shard} sub-query resolved to a non-MVP output"),
            })?;
            match &mut ledger {
                Some(total) => total.merge_parallel(&output.ledger),
                None => ledger = Some(output.ledger),
            }
            let outputs = output.outputs.into_iter().next().unwrap_or_default();
            partials.push(ShardPartial { shard, outputs });
        }
        Ok(ShardedOutput { partials, ledger: ledger.unwrap_or_default() })
    }
}

/// The worker-side half of a ticket. Fulfil it exactly once; dropping
/// it unfulfilled (queue closed, worker unwinding) fails the ticket
/// with [`ServeError::ShuttingDown`] so no client waits forever.
#[derive(Debug)]
pub(crate) struct Responder {
    slot: Arc<Slot>,
    sent: bool,
}

impl Responder {
    pub(crate) fn fulfil(mut self, result: Result<JobOutput, ServeError>) {
        self.deliver(result);
    }

    fn deliver(&mut self, result: Result<JobOutput, ServeError>) {
        if self.sent {
            return;
        }
        self.sent = true;
        *sync::lock(&self.slot.result) = Some(result);
        self.slot.ready.notify_all();
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        self.deliver(Err(ServeError::ShuttingDown));
    }
}

/// A linked ticket/responder pair for one job.
pub(crate) fn ticket_pair() -> (Ticket, Responder) {
    let slot = Arc::new(Slot { result: Mutex::new(None), ready: Condvar::new() });
    (Ticket { slot: Arc::clone(&slot) }, Responder { slot, sent: false })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fulfilled_ticket_yields_the_result() {
        let (ticket, responder) = ticket_pair();
        assert!(!ticket.is_ready());
        responder.fulfil(Ok(JobOutput::ApFeedMany(vec![ApReport {
            cycles: 3,
            latency: memcim_units::Seconds::from_nanoseconds(1.0),
            energy: memcim_units::Joules::from_femtojoules(2.0),
        }])));
        assert!(ticket.is_ready());
        let reports = ticket.wait().expect("ok").into_ap_feed_many().expect("feed");
        assert_eq!(reports[0].cycles, 3);
    }

    #[test]
    fn dropped_responder_fails_the_ticket() {
        let (ticket, responder) = ticket_pair();
        drop(responder);
        assert_eq!(ticket.wait(), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn wait_blocks_until_a_worker_fulfils() {
        let (ticket, responder) = ticket_pair();
        let worker = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            responder.fulfil(Err(ServeError::UnknownSession { session: 5 }));
        });
        assert_eq!(ticket.wait(), Err(ServeError::UnknownSession { session: 5 }));
        worker.join().expect("joins");
    }
}
