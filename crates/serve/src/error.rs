//! Error type for the serving layer.

use crate::{SessionId, TenantId};
use core::fmt;
use memcim_ap::ApError;
use memcim_mvp::MvpError;
use memcim_units::Joules;

/// Errors produced while submitting to or executing on the service.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// `try_submit` found the bounded queue at capacity (backpressure).
    QueueFull {
        /// The configured queue depth.
        depth: usize,
    },
    /// The service is shutting down: the job was rejected before
    /// execution, or was still queued when the queue closed.
    ShuttingDown,
    /// A streaming job referenced a session id the table does not hold.
    UnknownSession {
        /// The offending session id.
        session: SessionId,
    },
    /// Another worker is currently executing a job for this session.
    /// Streaming jobs of one session must be serialized by the client:
    /// wait on each chunk's ticket before submitting the next.
    SessionBusy {
        /// The contended session id.
        session: SessionId,
    },
    /// The session exists and belongs to the tenant, but holds state of
    /// a different streaming workload (e.g. an AP feed aimed at a
    /// correlation session). The session is left untouched.
    WrongSessionKind {
        /// The mismatched session id.
        session: SessionId,
    },
    /// Pattern compilation failed while opening an AP session.
    Compile {
        /// The parse/mapping error message.
        message: String,
    },
    /// Static verification refused the program at admission: the
    /// engine of this geometry would provably reject it at runtime.
    /// Nothing was queued and nothing was billed — fix the program
    /// (the diagnostic pinpoints the instruction) and resubmit.
    InvalidProgram {
        /// The stable diagnostic code (e.g. `E-ROW-RANGE`); see
        /// `memcim_verify::Code`.
        code: String,
        /// Index of the offending instruction within the program.
        index: usize,
        /// Human-readable detail from the verifier.
        message: String,
    },
    /// Admission control refused the submission: the program's *static*
    /// energy bound exceeds the tenant's configured per-submission
    /// budget. Nothing was queued and nothing was billed — the bound is
    /// computed before execution, so an over-budget program costs the
    /// service nothing.
    CostBoundExceeded {
        /// The tenant whose budget the bound exceeds.
        tenant: TenantId,
        /// The submission's static energy bound.
        bound: Joules,
        /// The tenant's configured per-submission energy budget.
        budget: Joules,
    },
    /// An MVP job failed on the engine.
    Mvp(MvpError),
    /// Every worker engine has been retired (uncorrectable faults or
    /// exhausted spare rows); MVP jobs can no longer be placed.
    NoHealthyEngine,
    /// Every replica of one shard is dead: the sub-query cannot fail
    /// over anywhere. Other shards keep serving — only jobs touching
    /// this shard's records are affected.
    ShardUnavailable {
        /// The shard whose replica set is exhausted.
        shard: usize,
    },
    /// An AP session could not be mapped onto the hardware.
    Ap(ApError),
    /// Admission control refused the submission: the tenant's token
    /// bucket is empty (requests arrived faster than the configured
    /// refill rate). Retry after backing off — nothing was queued.
    RateLimited {
        /// The tenant whose bucket ran dry.
        tenant: TenantId,
    },
    /// Admission control refused the submission: the tenant has
    /// exhausted its job quota. Nothing was queued.
    QuotaExceeded {
        /// The tenant whose quota is spent.
        tenant: TenantId,
        /// The configured quota (jobs).
        limit: u64,
    },
    /// A network request arrived before the connection authenticated
    /// with a `Hello` frame.
    Unauthenticated,
    /// Authentication failed: the tenant is unknown or the token does
    /// not match.
    BadCredentials,
    /// An internal service failure that is neither the client's fault
    /// nor an engine fault — e.g. the OS refused to spawn a worker
    /// thread. The job (if any) was not executed.
    Internal {
        /// What failed, for the operator's log.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { depth } => {
                write!(f, "queue at capacity ({depth} jobs): backpressure")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::UnknownSession { session } => write!(f, "unknown session {session}"),
            ServeError::SessionBusy { session } => {
                write!(f, "session {session} is busy on another worker")
            }
            ServeError::WrongSessionKind { session } => {
                write!(f, "session {session} holds a different streaming workload's state")
            }
            ServeError::Compile { message } => write!(f, "pattern compilation failed: {message}"),
            ServeError::InvalidProgram { code, index, message } => {
                write!(f, "invalid program at instruction {index} [{code}]: {message}")
            }
            ServeError::CostBoundExceeded { tenant, bound, budget } => {
                write!(
                    f,
                    "static energy bound {:.3e} J exceeds tenant {tenant}'s per-submission budget of {:.3e} J",
                    bound.as_joules(),
                    budget.as_joules()
                )
            }
            ServeError::Mvp(e) => write!(f, "MVP job failed: {e}"),
            ServeError::NoHealthyEngine => {
                write!(f, "every worker engine has been retired; no healthy MVP engine remains")
            }
            ServeError::ShardUnavailable { shard } => {
                write!(f, "every replica of shard {shard} is dead; its records are unavailable")
            }
            ServeError::Ap(e) => write!(f, "AP mapping failed: {e}"),
            ServeError::RateLimited { tenant } => {
                write!(f, "tenant {tenant} is over its request rate: token bucket empty")
            }
            ServeError::QuotaExceeded { tenant, limit } => {
                write!(f, "tenant {tenant} has exhausted its quota of {limit} jobs")
            }
            ServeError::Unauthenticated => {
                write!(f, "connection has not authenticated (send Hello first)")
            }
            ServeError::BadCredentials => write!(f, "unknown tenant or wrong token"),
            ServeError::Internal { message } => write!(f, "internal service failure: {message}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Mvp(e) => Some(e),
            ServeError::Ap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MvpError> for ServeError {
    fn from(e: MvpError) -> Self {
        ServeError::Mvp(e)
    }
}

impl From<ApError> for ServeError {
    fn from(e: ApError) -> Self {
        ServeError::Ap(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcim_mvp::Violation;

    #[test]
    fn messages_are_specific() {
        assert!(ServeError::QueueFull { depth: 8 }.to_string().contains('8'));
        assert!(ServeError::UnknownSession { session: 42 }.to_string().contains("42"));
        let e: ServeError = MvpError::Invalid(Violation::RowOutOfRange { row: 9, rows: 4 }).into();
        assert!(e.to_string().contains("row 9"));
        assert!(ServeError::RateLimited { tenant: 3 }.to_string().contains("tenant 3"));
        let quota = ServeError::QuotaExceeded { tenant: 5, limit: 100 };
        assert!(quota.to_string().contains("100 jobs"));
        let internal = ServeError::Internal { message: "spawn failed".into() };
        assert!(internal.to_string().contains("spawn failed"));
        assert!(ServeError::ShardUnavailable { shard: 2 }.to_string().contains("shard 2"));
        let invalid = ServeError::InvalidProgram {
            code: "E-ROW-RANGE".into(),
            index: 4,
            message: "row 99 outside the 8-row array".into(),
        };
        let rendered = invalid.to_string();
        assert!(rendered.contains("instruction 4"), "{rendered}");
        assert!(rendered.contains("E-ROW-RANGE"), "{rendered}");
        assert!(rendered.contains("row 99"), "{rendered}");
        let cost = ServeError::CostBoundExceeded {
            tenant: 6,
            bound: Joules::new(2e-9),
            budget: Joules::new(1e-9),
        };
        assert!(cost.to_string().contains("tenant 6"), "{cost}");
    }

    #[test]
    fn sources_chain() {
        use std::error::Error as _;
        let e: ServeError = MvpError::Invalid(Violation::ScoutingArity { got: 1 }).into();
        let mvp = e.source().expect("the MVP error");
        assert!(mvp.source().is_some(), "the violation chains under it");
        assert!(ServeError::ShuttingDown.source().is_none());
    }
}
