//! Span recording from the benchmark's own files.
//!
//! Crossbar spans come from [`TimingBackend`], a substrate wrapper the
//! benchmark installs in the live service (through
//! `ServeConfig::with_engine_factory`) and in its ladder engines
//! (through `MvpSimulator::with_backend`). Every other layer is timed by
//! the ladder around its public calls. Spans are kept in memory and
//! summarised when the run ends.

use memcim_bits::BitVec;
use memcim_crossbar::{
    BankedCrossbar, CrossbarBackend, CrossbarError, OpLedger, RemapEntry, ScoutingKind,
};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Durations, in nanoseconds, of every crossbar operation one or more
/// [`TimingBackend`]s executed.
#[derive(Debug, Default)]
pub struct OpLog {
    /// `program_row` spans.
    pub program_row: Vec<u64>,
    /// `scouting` and `scouting_write` spans.
    pub scouting: Vec<u64>,
    /// `read_row` spans.
    pub read_row: Vec<u64>,
    /// Sum of every span above.
    pub total_ns: u64,
}

/// A shared [`OpLog`].
pub type SharedLog = Arc<Mutex<OpLog>>;

/// Locks a log; a poisoned lock only means a panicking engine thread,
/// whose spans are still valid numbers.
pub fn lock(log: &SharedLog) -> MutexGuard<'_, OpLog> {
    log.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A banked crossbar that times every operation into a shared log.
pub struct TimingBackend {
    inner: BankedCrossbar,
    log: SharedLog,
}

impl TimingBackend {
    /// Wraps a fresh RRAM banked crossbar of the given geometry.
    pub fn new(rows: usize, banks: usize, bank_cols: usize, log: SharedLog) -> Self {
        Self { inner: BankedCrossbar::rram(rows, banks, bank_cols), log }
    }

    fn timed<T>(
        &mut self,
        pick: fn(&mut OpLog) -> &mut Vec<u64>,
        op: impl FnOnce(&mut BankedCrossbar) -> T,
    ) -> T {
        let start = Instant::now();
        let out = op(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        let mut log = lock(&self.log);
        pick(&mut log).push(ns);
        log.total_ns += ns;
        out
    }
}

impl CrossbarBackend for TimingBackend {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn program_row(&mut self, row: usize, values: &BitVec) -> Result<u64, CrossbarError> {
        self.timed(|l| &mut l.program_row, |x| x.program_row(row, values))
    }

    fn read_row(&mut self, row: usize) -> Result<BitVec, CrossbarError> {
        self.timed(|l| &mut l.read_row, |x| x.read_row(row))
    }

    fn scouting(&mut self, kind: ScoutingKind, rows: &[usize]) -> Result<BitVec, CrossbarError> {
        self.timed(|l| &mut l.scouting, |x| x.scouting(kind, rows))
    }

    fn scouting_write(
        &mut self,
        kind: ScoutingKind,
        rows: &[usize],
        dest: usize,
    ) -> Result<BitVec, CrossbarError> {
        self.timed(|l| &mut l.scouting, |x| x.scouting_write(kind, rows, dest))
    }

    fn ledger_parts(&self) -> Vec<OpLedger> {
        self.inner.ledger_parts()
    }

    fn remap_table(&self) -> Vec<RemapEntry> {
        self.inner.remap_table()
    }
}

/// Nanoseconds `f` took, with its result.
pub fn time<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_nanos() as u64, out)
}

/// One request replayed down the ladder: its duration at each level, in
/// nanoseconds. `engine` is the engine-level call the service makes for
/// it and `crossbar` the crossbar spans inside that call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rung {
    /// `NetClient` round trip.
    pub wire: u64,
    /// The direct `Service` call the server makes for the verb.
    pub serve: u64,
    /// The engine-level calls under the service call.
    pub engine: u64,
    /// Crossbar spans inside `engine` (0 for AP verbs).
    pub crossbar: u64,
}

/// Per-layer spans of one traced run, named as the metrics that
/// summarise them.
#[derive(Debug, Default)]
pub struct Ladder {
    /// One entry per replayed request.
    pub rungs: Vec<Rung>,
    /// Named span populations, in nanoseconds.
    pub spans: std::collections::BTreeMap<&'static str, Vec<u64>>,
    /// Named counters.
    pub counts: std::collections::BTreeMap<&'static str, u64>,
}

impl Ladder {
    /// Records one span of `name`.
    pub fn span(&mut self, name: &'static str, ns: u64) {
        self.spans.entry(name).or_default().push(ns);
    }

    /// Adds `n` to counter `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The spans of `name` in microseconds.
    pub fn us(&self, name: &str) -> Vec<f64> {
        self.spans
            .get(name)
            .map_or_else(Vec::new, |v| v.iter().map(|&ns| ns as f64 / 1e3).collect())
    }

    /// Sum of the spans of `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |v| v.iter().sum())
    }

    /// Counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}
