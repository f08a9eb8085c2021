//! Burst coalescing: turning a drained queue burst into execution units.
//!
//! Compatible jobs are merged so the engine does one [`BatchRequest`]
//! run instead of many: all [`Job::MvpProgram`] submissions of one
//! tenant *and one shard route* that land in the same scheduling burst
//! ride in one coalesced burst (one ledger delta, accounted once to
//! that tenant). The shard is part of the merge key on purpose: two
//! sub-queries of one scatter-gather touch different shards and must
//! never share a burst ledger, or the gather's `merge_parallel` over
//! per-shard deltas would double-count. Everything else —
//! pre-assembled batches, AP streaming jobs — executes as its own unit
//! in arrival order.

use crate::job::Responder;
use crate::{Job, SessionId, TenantId};
use memcim_mvp::{BatchRequest, Instruction};

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
    pub(crate) job: Job,
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
    /// One chunk per stream lane of an AP session.
    ApFeedMany { tenant: TenantId, session: SessionId, chunks: Vec<Vec<u8>>, responder: Responder },
    /// Stream end for every lane of an AP session.
    ApFinishMany { tenant: TenantId, session: SessionId, responder: Responder },
}

/// Partitions a drained burst into execution units, merging each
/// (tenant, shard) group's single-program MVP jobs.
///
/// Order within a coalesced unit follows arrival, but merging can move
/// a `MvpProgram` ahead of a later-arriving unit of another kind. That
/// is sound because jobs are *independent by contract*: engine row
/// state is never promised across job boundaries anyway (two jobs of
/// one tenant may execute on different workers' engines entirely).
pub(crate) fn coalesce(burst: impl IntoIterator<Item = Envelope>) -> Vec<Unit> {
    let burst = burst.into_iter();
    let mut units: Vec<Unit> = Vec::with_capacity(burst.size_hint().0);
    for Envelope { tenant, job, route, responder } in burst {
        match job {
            Job::MvpProgram(program) => {
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
            Job::MvpBatch(batch) => units.push(Unit::MvpSolo { tenant, batch, responder }),
            Job::ApFeedMany { session, chunks } => {
                units.push(Unit::ApFeedMany { tenant, session, chunks, responder })
            }
            Job::ApFinishMany { session } => {
                units.push(Unit::ApFinishMany { tenant, session, responder })
            }
        }
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ticket_pair;

    fn envelope(tenant: TenantId, job: Job) -> Envelope {
        let (_ticket, responder) = ticket_pair();
        Envelope { tenant, job, route: None, responder }
    }

    fn routed(tenant: TenantId, shard: usize, job: Job) -> Envelope {
        let (_ticket, responder) = ticket_pair();
        Envelope { tenant, job, route: Some(ShardRoute { shard, attempts: 0 }), responder }
    }

    fn program(row: usize) -> Vec<Instruction> {
        vec![Instruction::Read { row }]
    }

    #[test]
    fn same_tenant_programs_merge_into_one_burst() {
        let units = coalesce(vec![
            envelope(1, Job::MvpProgram(program(0))),
            envelope(2, Job::MvpProgram(program(1))),
            envelope(1, Job::MvpProgram(program(2))),
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
            routed(1, 0, Job::MvpProgram(program(0))),
            routed(1, 1, Job::MvpProgram(program(1))),
            envelope(1, Job::MvpProgram(program(2))),
            routed(1, 0, Job::MvpProgram(program(3))),
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
    fn batches_and_ap_jobs_stay_individual() {
        let units = coalesce(vec![
            envelope(1, Job::MvpBatch(BatchRequest::new())),
            envelope(1, Job::ApFeedMany { session: 0, chunks: vec![b"abc".to_vec()] }),
            envelope(1, Job::MvpProgram(program(0))),
            envelope(1, Job::ApFinishMany { session: 0 }),
            envelope(1, Job::MvpBatch(BatchRequest::new())),
            envelope(1, Job::ApFeedMany { session: 0, chunks: vec![b"a".to_vec(), b"b".to_vec()] }),
            envelope(1, Job::ApFinishMany { session: 0 }),
        ]);
        assert_eq!(units.len(), 7);
        assert!(matches!(units[0], Unit::MvpSolo { .. }));
        assert!(matches!(&units[1], Unit::ApFeedMany { chunks, .. } if chunks.len() == 1));
        assert!(matches!(units[2], Unit::MvpBurst { .. }));
        assert!(matches!(units[3], Unit::ApFinishMany { .. }));
        assert!(matches!(units[4], Unit::MvpSolo { .. }));
        assert!(matches!(&units[5], Unit::ApFeedMany { chunks, .. } if chunks.len() == 2));
        assert!(matches!(units[6], Unit::ApFinishMany { .. }));
    }
}
