//! Burst coalescing: turning a drained queue burst into execution units.
//!
//! Only engine work reaches the queue: AP session jobs run on the
//! submitting thread (`Service::submit`), so a burst holds MVP programs
//! and batches alone, as [`EngineJob`]s. Compatible jobs are merged so
//! the engine does one [`BatchRequest`] run instead of many: all
//! single-program submissions of one tenant *and one shard route* that
//! land in the same scheduling burst ride in one coalesced burst (one
//! ledger delta, accounted once to that tenant). The shard is part of
//! the merge key on purpose: two sub-queries of one scatter-gather touch
//! different shards and must never share a burst ledger, or the
//! gather's `merge_parallel` over per-shard deltas would double-count.
//! Pre-assembled batches execute as their own unit in arrival order.

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

/// One engine execution unit produced by [`coalesce`].
#[derive(Debug)]
pub(crate) enum Unit {
    /// Coalesced single-program jobs of one tenant and one shard key:
    /// executed as one `BatchRequest`, delta accounted once.
    MvpBurst {
        tenant: TenantId,
        /// The common shard of every program in this burst (`None` for
        /// unsharded bursts) — the second half of the merge key.
        shard: Option<usize>,
        programs: Vec<(Vec<Instruction>, Option<ShardRoute>, Responder)>,
    },
    /// A client-assembled batch, executed as submitted.
    MvpSolo { tenant: TenantId, batch: BatchRequest, responder: Responder },
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
    for Envelope { tenant, job, route, responder } in burst {
        match job {
            EngineJob::Program(program) => {
                let key = route.map(|r| r.shard);
                let existing = units.iter_mut().find_map(|unit| match unit {
                    Unit::MvpBurst { tenant: t, shard, programs }
                        if *t == tenant && *shard == key =>
                    {
                        Some(programs)
                    }
                    _ => None,
                });
                match existing {
                    Some(programs) => programs.push((program, route, responder)),
                    None => units.push(Unit::MvpBurst {
                        tenant,
                        shard: key,
                        programs: vec![(program, route, responder)],
                    }),
                }
            }
            EngineJob::Batch(batch) => units.push(Unit::MvpSolo { tenant, batch, responder }),
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

    #[test]
    fn same_tenant_programs_merge_into_one_burst() {
        let units = coalesce(vec![
            envelope(1, EngineJob::Program(program(0))),
            envelope(2, EngineJob::Program(program(1))),
            envelope(1, EngineJob::Program(program(2))),
        ]);
        assert_eq!(units.len(), 2);
        match &units[0] {
            Unit::MvpBurst { tenant: 1, shard: None, programs } => {
                assert_eq!(programs.len(), 2);
                assert_eq!(programs[0].0, program(0));
                assert_eq!(programs[1].0, program(2));
            }
            other => panic!("expected tenant 1 burst, got {other:?}"),
        }
        assert!(
            matches!(&units[1], Unit::MvpBurst { tenant: 2, programs, .. } if programs.len() == 1)
        );
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
        match &units[0] {
            Unit::MvpBurst { tenant: 1, shard: Some(0), programs } => {
                assert_eq!(programs.len(), 2);
                assert_eq!(programs[1].0, program(3));
            }
            other => panic!("expected shard 0 burst, got {other:?}"),
        }
        assert!(matches!(&units[1], Unit::MvpBurst { shard: Some(1), programs, .. }
            if programs.len() == 1));
        assert!(matches!(&units[2], Unit::MvpBurst { shard: None, programs, .. }
            if programs.len() == 1));
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
        assert!(matches!(&units[0], Unit::MvpSolo { batch, .. } if batch.len() == 1));
        assert!(matches!(&units[1], Unit::MvpBurst { tenant: 1, programs, .. }
            if programs.len() == 2));
        assert!(matches!(&units[2], Unit::MvpSolo { batch, .. } if batch.is_empty()));
    }
}
