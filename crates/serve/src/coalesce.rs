//! Burst coalescing: turning a drained queue burst into execution units.
//!
//! Only engine work reaches the queue: AP session jobs run on the
//! submitting thread (`Service::submit`), so a burst holds MVP programs
//! and batches alone, as [`EngineJob`]s. Every unit runs as one
//! [`BatchRequest`] on one engine, so compatible jobs are merged: all
//! single-program submissions of one tenant *and one shard route* that
//! land in the same scheduling burst share a unit (one ledger delta,
//! accounted once to that tenant). The shard is part of the merge key
//! on purpose: two sub-queries of one scatter-gather touch different
//! shards and must never share a burst ledger, or the gather's
//! `merge_parallel` over per-shard deltas would double-count.
//! A pre-assembled batch is a unit of its own, in arrival order.

use crate::job::Responder;
use crate::TenantId;
use memcim_mvp::{BatchRequest, Instruction};

/// The queued form of an engine [`Job`](crate::Job): the only work the
/// workers execute.
#[derive(Debug)]
pub(crate) enum EngineJob {
    /// A single MVP program, coalesced with its burst neighbours.
    Program(Vec<Instruction>),
    /// A pre-assembled batch, executed as submitted.
    Batch(BatchRequest),
}

/// Where a sharded sub-query is in its failover journey: which shard
/// it serves and how many placement attempts it has consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardRoute {
    /// The shard whose records this sub-query touches.
    pub(crate) shard: usize,
    /// Placement attempts so far (0 on first submit; each re-route
    /// after an engine retirement increments it).
    pub(crate) attempts: u32,
}

/// A queued job with its tenant, optional shard route and the
/// worker-side ticket half.
#[derive(Debug)]
pub(crate) struct Envelope {
    pub(crate) tenant: TenantId,
    pub(crate) job: EngineJob,
    /// `Some` for scatter-gather sub-queries (always delivered via a
    /// worker mailbox); `None` for ordinary shared-lane jobs.
    pub(crate) route: Option<ShardRoute>,
    pub(crate) responder: Responder,
}

impl Envelope {
    /// The shard half of the merge key (`None` for unsharded jobs).
    fn shard(&self) -> Option<usize> {
        self.route.map(|r| r.shard)
    }
}

/// One engine execution unit produced by [`coalesce`]: either
/// single-program jobs of one tenant and one shard key, or one batch
/// alone. Executed as one `BatchRequest`, delta accounted once.
#[derive(Debug)]
pub(crate) struct Unit {
    pub(crate) tenant: TenantId,
    pub(crate) jobs: Vec<Envelope>,
}

impl Unit {
    /// `true` when `envelope` may join this unit: both are single
    /// programs of the same tenant and shard.
    fn admits(&self, envelope: &Envelope) -> bool {
        let program = |e: &Envelope| matches!(e.job, EngineJob::Program(_));
        self.tenant == envelope.tenant
            && program(envelope)
            && self
                .jobs
                .first()
                .is_some_and(|first| program(first) && first.shard() == envelope.shard())
    }
}

/// Partitions a drained burst into execution units, merging each
/// (tenant, shard) group's single-program MVP jobs.
///
/// Order within a coalesced unit follows arrival, but merging can move
/// a program ahead of a later-arriving batch. That is sound because
/// jobs are *independent by contract*: engine row state is never
/// promised across job boundaries anyway (two jobs of one tenant may
/// execute on different workers' engines entirely).
pub(crate) fn coalesce(burst: impl IntoIterator<Item = Envelope>) -> Vec<Unit> {
    let burst = burst.into_iter();
    let mut units: Vec<Unit> = Vec::with_capacity(burst.size_hint().0);
    for envelope in burst {
        match units.iter_mut().find(|unit| unit.admits(&envelope)) {
            Some(unit) => unit.jobs.push(envelope),
            None => units.push(Unit { tenant: envelope.tenant, jobs: vec![envelope] }),
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ticket_pair;

    fn envelope(tenant: TenantId, job: EngineJob) -> Envelope {
        let (_ticket, responder) = ticket_pair();
        Envelope { tenant, job, route: None, responder }
    }

    fn routed(tenant: TenantId, shard: usize, job: EngineJob) -> Envelope {
        let (_ticket, responder) = ticket_pair();
        Envelope { tenant, job, route: Some(ShardRoute { shard, attempts: 0 }), responder }
    }

    fn program(row: usize) -> Vec<Instruction> {
        vec![Instruction::Read { row }]
    }

    /// The single programs a unit coalesced, in arrival order (`None`
    /// for a batch job).
    fn programs(unit: &Unit) -> Vec<Option<&Vec<Instruction>>> {
        unit.jobs
            .iter()
            .map(|e| match &e.job {
                EngineJob::Program(program) => Some(program),
                EngineJob::Batch(_) => None,
            })
            .collect()
    }

    /// The unit's shard key, read off its first job.
    fn shard(unit: &Unit) -> Option<usize> {
        unit.jobs[0].shard()
    }

    /// The unit's lone batch, if it is a batch unit.
    fn batch(unit: &Unit) -> Option<&BatchRequest> {
        match unit.jobs.as_slice() {
            [Envelope { job: EngineJob::Batch(batch), .. }] => Some(batch),
            _ => None,
        }
    }

    #[test]
    fn same_tenant_programs_merge_into_one_burst() {
        let units = coalesce(vec![
            envelope(1, EngineJob::Program(program(0))),
            envelope(2, EngineJob::Program(program(1))),
            envelope(1, EngineJob::Program(program(2))),
        ]);
        assert_eq!(units.len(), 2);
        assert_eq!((units[0].tenant, shard(&units[0])), (1, None), "tenant 1 burst");
        assert_eq!(programs(&units[0]), vec![Some(&program(0)), Some(&program(2))]);
        assert_eq!(units[1].tenant, 2);
        assert_eq!(units[1].jobs.len(), 1);
        assert!(batch(&units[1]).is_none());
    }

    #[test]
    fn distinct_shards_never_share_a_burst() {
        // One tenant, four sub-queries: two for shard 0, one for shard
        // 1, one unsharded. Shards must stay apart (their ledgers merge
        // parallel at the gather) while same-shard programs coalesce.
        let units = coalesce(vec![
            routed(1, 0, EngineJob::Program(program(0))),
            routed(1, 1, EngineJob::Program(program(1))),
            envelope(1, EngineJob::Program(program(2))),
            routed(1, 0, EngineJob::Program(program(3))),
        ]);
        assert_eq!(units.len(), 3);
        assert_eq!((units[0].tenant, shard(&units[0])), (1, Some(0)), "shard 0 burst");
        assert_eq!(units[0].jobs.len(), 2);
        assert_eq!(programs(&units[0])[1], Some(&program(3)));
        assert_eq!((shard(&units[1]), units[1].jobs.len()), (Some(1), 1));
        assert_eq!((shard(&units[2]), units[2].jobs.len()), (None, 1));
    }

    #[test]
    fn batches_stay_individual_between_coalesced_programs() {
        // A batch is never merged, with a program or with another batch,
        // and never splits the burst its tenant's programs share.
        let units = coalesce(vec![
            envelope(1, EngineJob::Batch(BatchRequest::new().with_program(program(0)))),
            envelope(1, EngineJob::Program(program(1))),
            envelope(1, EngineJob::Batch(BatchRequest::new())),
            envelope(1, EngineJob::Program(program(2))),
        ]);
        assert_eq!(units.len(), 3);
        assert!(batch(&units[0]).is_some_and(|batch| batch.len() == 1));
        assert_eq!(units[1].tenant, 1);
        assert_eq!(programs(&units[1]), vec![Some(&program(1)), Some(&program(2))]);
        assert!(batch(&units[2]).is_some_and(BatchRequest::is_empty));
    }
}
