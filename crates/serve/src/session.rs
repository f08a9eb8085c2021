//! The streaming session table, shared by every long-lived workload.
//!
//! A session is per-tenant server-side streaming state: a
//! [`MultiStreamProcessor`] stamped off a cached [`CompiledPatterns`],
//! which also attributes its runs, for AP regex sessions, or a
//! [`CorrelationAccumulator`] plus detection
//! threshold for correlation sessions. Workers *check a session out* of
//! the table to run a feed/finish job against it, then put it back; the
//! checkout marker keeps two workers from racing on one session's
//! stream state without serializing unrelated sessions. Checkout,
//! tenant isolation and close semantics are workload-agnostic — only
//! the state inside the [`StreamSession`] differs.

use crate::lru::Lru;
use crate::{sync, ServeError, SessionId, TenantId};
use memcim_ap::{ApBackend, CompiledPatterns, MultiStreamProcessor};
use memcim_automata::PatternSet;
use memcim_mvp::correlation::CorrelationAccumulator;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bounded capacity of the per-table AP compile cache (compiled pattern
/// sets, not sessions — the bound caps compile-artifact memory, not
/// session count).
const AP_CACHE_CAPACITY: usize = 32;

/// What opening an AP session learned while compiling (see
/// [`Service::open_session_info`](crate::Service::open_session_info)),
/// so callers and the wire protocol can surface it instead of the
/// session table deciding silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApOpenInfo {
    /// The hierarchical routing fabric ran out of global wires for this
    /// pattern set and the session runs on a dense routing matrix
    /// instead. Functionally identical, but per-symbol cost scales with
    /// the full `N×N` crossbar rather than the two-level hierarchy.
    pub routing_fallback: bool,
    /// The compiled automaton came out of the tenant's compile cache;
    /// no pattern compilation or routing placement ran.
    pub cache_hit: bool,
}

/// A checked-out AP session: the compiled pattern set it streams
/// through (shared with the compile cache), the multi-stream processor
/// stamped off it and the accounting watermark. The processor's
/// billing totals are monotonic across `finish`, so the watermark never
/// rewinds; it marks how much has already been billed to the tenant.
#[derive(Debug)]
pub(crate) struct ApSession {
    pub(crate) tenant: TenantId,
    pub(crate) compiled: Arc<CompiledPatterns>,
    pub(crate) processor: MultiStreamProcessor,
    pub(crate) accounted_cycles: u64,
    pub(crate) accounted_energy: memcim_units::Joules,
    pub(crate) accounted_latency: memcim_units::Seconds,
}

/// A checked-out correlation session: the streaming detector state and
/// its billing watermark. The engine work of each feed is billed on the
/// MVP ledger path by the workers that execute it; the watermark bills
/// the *stream events* the session has absorbed, mirroring the AP
/// symbol watermark.
#[derive(Debug)]
pub(crate) struct CorrSession {
    pub(crate) tenant: TenantId,
    pub(crate) accumulator: CorrelationAccumulator,
    pub(crate) threshold: u64,
    /// Cumulative engine cost of the session's feeds, for the
    /// cumulative feed reports.
    pub(crate) energy: memcim_units::Joules,
    pub(crate) busy: memcim_units::Seconds,
    accounted_events: u64,
}

impl CorrSession {
    /// Advances the billing watermark to the accumulator's cumulative
    /// event count and returns the not-yet-billed delta.
    pub(crate) fn take_unaccounted_events(&mut self) -> u64 {
        let cumulative = self.accumulator.events();
        let delta = cumulative.saturating_sub(self.accounted_events);
        self.accounted_events = cumulative;
        delta
    }

    /// Resets the watermark alongside the accumulator (finish reports
    /// the stream and starts the next one from zero).
    pub(crate) fn reset_accounting(&mut self) {
        self.accounted_events = 0;
    }
}

/// One streaming session of any workload kind.
#[derive(Debug)]
pub(crate) enum StreamSession {
    /// An AP regex-scan session.
    Ap(Box<ApSession>),
    /// A temporal-correlation detection session.
    Corr(Box<CorrSession>),
}

impl StreamSession {
    fn tenant(&self) -> TenantId {
        match self {
            StreamSession::Ap(s) => s.tenant,
            StreamSession::Corr(s) => s.tenant,
        }
    }
}

#[derive(Debug)]
enum Entry {
    Idle(StreamSession),
    /// Checked out by a worker; the owner is retained so tenant checks
    /// work while the state is away.
    CheckedOut(TenantId),
}

/// Bounded LRU of compile artifacts keyed by `(tenant, pattern list)`.
/// The tenant id is part of the key, so one tenant can never be handed
/// an automaton compiled for another's patterns, and eviction is by
/// least-recent use across the table.
type ApCompileCache = Lru<(TenantId, Vec<String>), Arc<CompiledPatterns>, AP_CACHE_CAPACITY>;

/// Sessions keyed by id; checkout state tracked per entry. Also owns
/// the AP compile cache and its observability counters — every
/// open-session decision the table makes silently (cache hit, routing
/// fallback) is counted here and surfaced through the service.
#[derive(Debug, Default)]
pub(crate) struct SessionTable {
    inner: Mutex<Inner>,
    compile_cache: Mutex<ApCompileCache>,
    ap_cache_hits: AtomicU64,
    ap_cache_misses: AtomicU64,
    routing_fallbacks: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    sessions: HashMap<SessionId, Entry>,
    next_id: SessionId,
}

impl SessionTable {
    /// Registers an AP session for `tenant` over `patterns`, compiling
    /// through the bounded LRU compile cache: a repeat open of the same
    /// pattern set by the same tenant stamps a fresh session off the
    /// cached template (fresh lanes, zero billing watermark) without
    /// re-running pattern compilation or routing placement. The
    /// returned [`ApOpenInfo`] says whether the cache hit and whether
    /// hierarchical routing fell back to dense.
    pub(crate) fn open_ap(
        &self,
        tenant: TenantId,
        patterns: &[&str],
    ) -> Result<(SessionId, ApOpenInfo), ServeError> {
        let key = (tenant, patterns.iter().map(|p| p.to_string()).collect::<Vec<String>>());
        let cached = sync::lock(&self.compile_cache).get(&key).cloned();
        let cache_hit = cached.is_some();
        let compiled = match cached {
            Some(compiled) => {
                self.ap_cache_hits.fetch_add(1, Ordering::Relaxed);
                compiled
            }
            None => {
                self.ap_cache_misses.fetch_add(1, Ordering::Relaxed);
                let set = PatternSet::compile(patterns)
                    .map_err(|e| ServeError::Compile { message: e.to_string() })?;
                let compiled = Arc::new(CompiledPatterns::compile(&set, ApBackend::rram())?);
                sync::lock(&self.compile_cache).insert(key, Arc::clone(&compiled));
                compiled
            }
        };
        let routing_fallback = compiled.routing_fallback();
        if routing_fallback {
            self.routing_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        let id = self.insert(StreamSession::Ap(Box::new(ApSession {
            tenant,
            processor: compiled.template().multi_stream(1),
            compiled,
            accounted_cycles: 0,
            accounted_energy: memcim_units::Joules::ZERO,
            accounted_latency: memcim_units::Seconds::ZERO,
        })));
        Ok((id, ApOpenInfo { routing_fallback, cache_hit }))
    }

    /// Sessions whose hierarchical routing fell back to a dense matrix
    /// (counted per open, including cache hits on a fallback template).
    pub(crate) fn routing_fallbacks(&self) -> u64 {
        self.routing_fallbacks.load(Ordering::Relaxed)
    }

    /// AP opens served from the compile cache.
    pub(crate) fn ap_cache_hits(&self) -> u64 {
        self.ap_cache_hits.load(Ordering::Relaxed)
    }

    /// AP opens that had to compile (includes opens whose compile
    /// failed — the attempt still missed).
    pub(crate) fn ap_cache_misses(&self) -> u64 {
        self.ap_cache_misses.load(Ordering::Relaxed)
    }

    /// Registers a correlation-detection session over `streams` event
    /// streams for `tenant`, thresholding at `threshold`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Mvp`] for a stream count no accumulator accepts.
    pub(crate) fn open_corr(
        &self,
        tenant: TenantId,
        streams: usize,
        threshold: u64,
    ) -> Result<SessionId, ServeError> {
        let accumulator = CorrelationAccumulator::new(streams)?;
        Ok(self.insert(StreamSession::Corr(Box::new(CorrSession {
            tenant,
            accumulator,
            threshold,
            energy: memcim_units::Joules::ZERO,
            busy: memcim_units::Seconds::ZERO,
            accounted_events: 0,
        }))))
    }

    fn insert(&self, session: StreamSession) -> SessionId {
        let mut inner = sync::lock(&self.inner);
        let id = inner.next_id;
        inner.next_id += 1;
        inner.sessions.insert(id, Entry::Idle(session));
        id
    }

    /// Takes exclusive ownership of a session for one of `tenant`'s
    /// jobs. Sessions are tenant-isolated: another tenant's session —
    /// idle *or* checked out — reports [`ServeError::UnknownSession`],
    /// deliberately indistinguishable from a nonexistent id, so a
    /// client cannot probe other tenants' session ids (not even their
    /// busy state). Only the owner ever sees
    /// [`ServeError::SessionBusy`].
    pub(crate) fn checkout(
        &self,
        id: SessionId,
        tenant: TenantId,
    ) -> Result<StreamSession, ServeError> {
        let mut inner = sync::lock(&self.inner);
        let Some(entry) = inner.sessions.get_mut(&id) else {
            return Err(ServeError::UnknownSession { session: id });
        };
        match std::mem::replace(entry, Entry::CheckedOut(tenant)) {
            Entry::Idle(session) if session.tenant() == tenant => Ok(session),
            Entry::Idle(session) => {
                // Wrong owner: undo the takeover.
                *entry = Entry::Idle(session);
                Err(ServeError::UnknownSession { session: id })
            }
            Entry::CheckedOut(owner) => {
                *entry = Entry::CheckedOut(owner);
                if owner == tenant {
                    Err(ServeError::SessionBusy { session: id })
                } else {
                    Err(ServeError::UnknownSession { session: id })
                }
            }
        }
    }

    /// [`checkout`](Self::checkout), demanding an AP session. A session
    /// of another workload kind is put straight back and reported as
    /// [`ServeError::WrongSessionKind`].
    pub(crate) fn checkout_ap(
        &self,
        id: SessionId,
        tenant: TenantId,
    ) -> Result<Box<ApSession>, ServeError> {
        match self.checkout(id, tenant)? {
            StreamSession::Ap(session) => Ok(session),
            other => {
                self.put_back(id, other);
                Err(ServeError::WrongSessionKind { session: id })
            }
        }
    }

    /// [`checkout`](Self::checkout), demanding a correlation session.
    pub(crate) fn checkout_corr(
        &self,
        id: SessionId,
        tenant: TenantId,
    ) -> Result<Box<CorrSession>, ServeError> {
        match self.checkout(id, tenant)? {
            StreamSession::Corr(session) => Ok(session),
            other => {
                self.put_back(id, other);
                Err(ServeError::WrongSessionKind { session: id })
            }
        }
    }

    /// Returns a checked-out session to the table. If the session was
    /// closed while checked out, the state is dropped.
    pub(crate) fn put_back(&self, id: SessionId, session: StreamSession) {
        let mut inner = sync::lock(&self.inner);
        if let Some(entry) = inner.sessions.get_mut(&id) {
            *entry = Entry::Idle(session);
        }
    }

    /// Drops one of `tenant`'s sessions — any workload kind. A
    /// checked-out session is removed from the table immediately; its
    /// in-flight job still completes. Another tenant's session reports
    /// [`ServeError::UnknownSession`] and is left untouched.
    pub(crate) fn close(&self, id: SessionId, tenant: TenantId) -> Result<(), ServeError> {
        let mut inner = sync::lock(&self.inner);
        let owner = match inner.sessions.get(&id) {
            None => return Err(ServeError::UnknownSession { session: id }),
            Some(Entry::Idle(session)) => session.tenant(),
            Some(Entry::CheckedOut(owner)) => *owner,
        };
        if owner != tenant {
            return Err(ServeError::UnknownSession { session: id });
        }
        inner.sessions.remove(&id);
        Ok(())
    }

    /// Open sessions (idle or checked out).
    pub(crate) fn len(&self) -> usize {
        sync::lock(&self.inner).sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_is_exclusive_and_put_back_releases() {
        let table = SessionTable::default();
        let (id, _) = table.open_ap(1, &["abc"]).expect("compiles");
        let session = table.checkout_ap(id, 1).expect("idle");
        assert_eq!(session.tenant, 1);
        assert!(matches!(table.checkout(id, 1), Err(ServeError::SessionBusy { .. })));
        table.put_back(id, StreamSession::Ap(session));
        let again = table.checkout_ap(id, 1).expect("released");
        table.put_back(id, StreamSession::Ap(again));
    }

    #[test]
    fn foreign_tenants_see_neither_sessions_nor_their_busy_state() {
        let table = SessionTable::default();
        let (id, _) = table.open_ap(1, &["abc"]).expect("compiles");
        // Idle: a foreign tenant cannot check it out…
        assert!(matches!(table.checkout(id, 2), Err(ServeError::UnknownSession { .. })));
        // …or close it…
        assert!(matches!(table.close(id, 2), Err(ServeError::UnknownSession { .. })));
        // …and while checked out, the foreign tenant still sees
        // UnknownSession where the owner would see SessionBusy.
        let session = table.checkout(id, 1).expect("owner checks out");
        assert!(matches!(table.checkout(id, 2), Err(ServeError::UnknownSession { .. })));
        assert!(matches!(table.checkout(id, 1), Err(ServeError::SessionBusy { .. })));
        table.put_back(id, session);
        assert_eq!(table.len(), 1, "foreign close attempts changed nothing");
    }

    #[test]
    fn unknown_and_closed_sessions_are_rejected() {
        let table = SessionTable::default();
        assert!(matches!(table.checkout(9, 1), Err(ServeError::UnknownSession { session: 9 })));
        let (id, _) = table.open_ap(2, &["x+"]).expect("compiles");
        table.close(id, 2).expect("open");
        assert!(matches!(table.close(id, 2), Err(ServeError::UnknownSession { .. })));
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn bad_patterns_surface_as_compile_errors() {
        let table = SessionTable::default();
        let err = table.open_ap(3, &["a(b"]).expect_err("unbalanced");
        assert!(matches!(err, ServeError::Compile { .. }));
    }

    #[test]
    fn closing_a_checked_out_session_drops_it_on_put_back() {
        let table = SessionTable::default();
        let (id, _) = table.open_ap(4, &["ab"]).expect("compiles");
        let session = table.checkout(id, 4).expect("idle");
        table.close(id, 4).expect("removes");
        table.put_back(id, session);
        assert!(matches!(table.checkout(id, 4), Err(ServeError::UnknownSession { .. })));
    }

    #[test]
    fn session_kinds_share_the_table_but_not_their_state() {
        let table = SessionTable::default();
        let (ap, _) = table.open_ap(1, &["ab"]).expect("compiles");
        let corr = table.open_corr(1, 8, 100).expect("well-formed");
        assert_eq!(table.len(), 2);
        // A kind mismatch is a typed error and puts the session back.
        assert!(matches!(table.checkout_corr(ap, 1), Err(ServeError::WrongSessionKind { .. })));
        assert!(matches!(table.checkout_ap(corr, 1), Err(ServeError::WrongSessionKind { .. })));
        let session = table.checkout_corr(corr, 1).expect("still idle after the mismatch");
        assert_eq!(session.accumulator.streams(), 8);
        table.put_back(corr, StreamSession::Corr(session));
        // Close is kind-agnostic.
        table.close(ap, 1).expect("closes ap");
        table.close(corr, 1).expect("closes corr");
        assert_eq!(table.len(), 0);
    }

    /// A single pattern whose `+`-looped 40-way alternation wires every
    /// alternative's tail to every alternative's head — ~1800 global
    /// wires at block 256, well past the Cache Automaton's 1024.
    fn routing_infeasible_pattern() -> String {
        let alts: Vec<String> = (0..40)
            .map(|i: usize| {
                format!(
                    "{}{}{}{}{}",
                    (b'a' + (i % 26) as u8) as char,
                    (b'a' + (i / 26) as u8) as char,
                    (b'0' + (i % 10) as u8) as char,
                    (b'a' + ((i * 7) % 26) as u8) as char,
                    (b'a' + ((i * 3) % 26) as u8) as char
                )
            })
            .collect();
        format!("({})+x", alts.join("|"))
    }

    #[test]
    fn routing_fallback_is_observable_not_silent() {
        let table = SessionTable::default();
        // A small pattern routes hierarchically: no fallback.
        let (_, info) = table.open_ap(1, &["abc"]).expect("compiles");
        assert!(!info.routing_fallback);
        assert_eq!(table.routing_fallbacks(), 0);
        // The wire-hungry pattern exhausts global routing and falls
        // back to dense — session still opens, but the decision is
        // reported on the open and counted.
        let big = routing_infeasible_pattern();
        let (id, info) = table.open_ap(1, &[big.as_str()]).expect("dense");
        assert!(info.routing_fallback, "fallback must be visible on the open report");
        assert!(!info.cache_hit);
        assert_eq!(table.routing_fallbacks(), 1);
        // The session works on the dense matrix.
        let mut session = table.checkout_ap(id, 1).expect("idle");
        let report = session.processor.feed(0, b"aa0aax").expect("lane 0");
        assert_eq!(report.cycles, 6);
        table.put_back(id, StreamSession::Ap(session));
        // A cached re-open of the fallback template is still counted
        // and still flagged.
        let (_, info) = table.open_ap(1, &[big.as_str()]).expect("cached");
        assert!(info.routing_fallback && info.cache_hit);
        assert_eq!(table.routing_fallbacks(), 2);
    }

    #[test]
    fn compile_cache_hits_are_counted_and_tenant_keyed() {
        let table = SessionTable::default();
        let (a, info) = table.open_ap(1, &["ab+c", "xy"]).expect("cold");
        assert!(!info.cache_hit);
        assert_eq!((table.ap_cache_hits(), table.ap_cache_misses()), (0, 1));
        // Same tenant, same patterns: hit.
        let (b, info) = table.open_ap(1, &["ab+c", "xy"]).expect("warm");
        assert!(info.cache_hit);
        assert_eq!((table.ap_cache_hits(), table.ap_cache_misses()), (1, 1));
        // Another tenant with the identical pattern list must not share
        // the artifact: the key is (tenant, patterns).
        let (_, info) = table.open_ap(2, &["ab+c", "xy"]).expect("cold for tenant 2");
        assert!(!info.cache_hit);
        assert_eq!((table.ap_cache_hits(), table.ap_cache_misses()), (1, 2));
        // A different pattern *order* is a different key (alternation
        // order changes pattern attribution).
        let (_, info) = table.open_ap(1, &["xy", "ab+c"]).expect("cold");
        assert!(!info.cache_hit);
        // Warm and cold sessions are behaviourally identical.
        let mut cold = table.checkout_ap(a, 1).expect("idle");
        let mut warm = table.checkout_ap(b, 1).expect("idle");
        let rc = cold.processor.feed(0, b"zabbbc xy").expect("lane 0");
        let rw = warm.processor.feed(0, b"zabbbc xy").expect("lane 0");
        assert_eq!(rc, rw, "cache hit must be bit-identical to a cold compile");
        let (fc, fw) =
            (cold.processor.finish(0).expect("lane 0"), warm.processor.finish(0).expect("lane 0"));
        assert_eq!(fc, fw);
        assert!(Arc::ptr_eq(&cold.compiled, &warm.compiled), "a hit shares the compiled set");
        table.put_back(a, StreamSession::Ap(cold));
        table.put_back(b, StreamSession::Ap(warm));
    }

    #[test]
    fn compile_cache_is_bounded_and_evicts_least_recently_used() {
        let table = SessionTable::default();
        // Fill the cache to capacity with distinct single-pattern sets.
        for i in 0..AP_CACHE_CAPACITY {
            let p = format!("k{i}z");
            table.open_ap(7, &[p.as_str()]).expect("compiles");
        }
        assert_eq!(table.ap_cache_misses(), AP_CACHE_CAPACITY as u64);
        // Touch the first entry so it is most-recently used…
        let (_, info) = table.open_ap(7, &["k0z"]).expect("warm");
        assert!(info.cache_hit);
        // …then overflow: the loser must be k1z (least recent), not k0z.
        table.open_ap(7, &["overflow"]).expect("compiles");
        let (_, info) = table.open_ap(7, &["k0z"]).expect("still cached");
        assert!(info.cache_hit, "recently-used entry survived the eviction");
        let (_, info) = table.open_ap(7, &["k1z"]).expect("recompiles");
        assert!(!info.cache_hit, "least-recently-used entry was evicted");
    }

    #[test]
    fn failed_compiles_are_not_cached() {
        let table = SessionTable::default();
        assert!(table.open_ap(1, &["a(b"]).is_err());
        assert!(table.open_ap(1, &["a(b"]).is_err());
        assert_eq!(table.ap_cache_hits(), 0, "an error must never be served as a hit");
        assert_eq!(table.ap_cache_misses(), 2);
    }

    #[test]
    fn corr_watermark_bills_each_event_exactly_once() {
        let table = SessionTable::default();
        let id = table.open_corr(5, 4, 10).expect("well-formed");
        let mut session = table.checkout_corr(id, 5).expect("idle");
        session.accumulator.note_window(16);
        assert_eq!(session.take_unaccounted_events(), 64);
        assert_eq!(session.take_unaccounted_events(), 0, "watermark advanced");
        session.accumulator.note_window(4);
        assert_eq!(session.take_unaccounted_events(), 16);
        session.accumulator.reset();
        session.reset_accounting();
        assert_eq!(session.take_unaccounted_events(), 0);
        table.put_back(id, StreamSession::Corr(session));
    }
}
