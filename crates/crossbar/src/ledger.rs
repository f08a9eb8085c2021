//! Per-array energy/latency/operation bookkeeping.

use memcim_units::{Joules, Seconds};

/// Running totals of array activity: operation counts, energy and
/// cumulative busy time.
///
/// The MVP evaluation (paper Fig. 4) and the AP chip-level comparison
/// both reduce to these totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpLedger {
    reads: u64,
    scouting_ops: u64,
    programs: u64,
    bits_programmed: u64,
    corrected_errors: u64,
    energy: Joules,
    busy: Seconds,
}

impl OpLedger {
    /// A fresh ledger with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a read operation over `columns` bit lines.
    pub(crate) fn record_read(&mut self, energy: Joules, latency: Seconds) {
        self.reads += 1;
        self.energy += energy;
        self.busy += latency;
    }

    /// Records a scouting (multi-row logic) operation.
    pub(crate) fn record_scouting(&mut self, energy: Joules, latency: Seconds) {
        self.scouting_ops += 1;
        self.energy += energy;
        self.busy += latency;
    }

    /// Records a programming operation touching `bits` cells.
    pub(crate) fn record_program(&mut self, bits: u64, energy: Joules, latency: Seconds) {
        self.programs += 1;
        self.bits_programmed += bits;
        self.energy += energy;
        self.busy += latency;
    }

    /// Records `count` single-bit upsets corrected by an ECC decode
    /// (see [`EccCrossbar`](crate::EccCrossbar)). Corrections ride on
    /// the read that exposed them, so no extra energy or latency is
    /// booked here — only the reliability event count.
    pub(crate) fn record_corrected(&mut self, count: u64) {
        self.corrected_errors += count;
    }

    /// Number of plain read operations.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of scouting logic operations.
    pub fn scouting_ops(&self) -> u64 {
        self.scouting_ops
    }

    /// Number of program operations (row or bit granularity).
    pub fn programs(&self) -> u64 {
        self.programs
    }

    /// Total programming pulses: one per written cell whose observed
    /// value differed from the target, including the wasted pulse a
    /// stuck cell takes without switching.
    pub fn bits_programmed(&self) -> u64 {
        self.bits_programmed
    }

    /// Single-bit upsets corrected by ECC decodes on this substrate.
    pub fn corrected_errors(&self) -> u64 {
        self.corrected_errors
    }

    /// Total dynamic energy.
    pub fn energy(&self) -> Joules {
        self.energy
    }

    /// Total busy time (operations are serialized per array).
    pub fn busy_time(&self) -> Seconds {
        self.busy
    }

    /// Folds another array's ledger into this one under the *parallel*
    /// execution model used by [`BankedCrossbar`](crate::BankedCrossbar):
    /// operation counts and energy add up (every bank really spends its
    /// joules), while busy time takes the maximum (banks run in the same
    /// memory cycles, so the wall clock is the slowest bank, not the sum).
    pub fn merge_parallel(&mut self, other: &OpLedger) {
        self.reads += other.reads;
        self.scouting_ops += other.scouting_ops;
        self.programs += other.programs;
        self.bits_programmed += other.bits_programmed;
        self.corrected_errors += other.corrected_errors;
        self.energy += other.energy;
        self.busy = self.busy.max(other.busy);
    }

    /// Folds another ledger into this one under the *serial* execution
    /// model: everything adds up, busy time included — the two
    /// activities occupy the engine back to back. This is how a serving
    /// layer accounts one client's successive bursts (each burst's delta
    /// is itself a [`merge_parallel`](Self::merge_parallel) over banks,
    /// but the client's bursts occupy engine time one after another).
    pub fn merge_serial(&mut self, other: &OpLedger) {
        self.reads += other.reads;
        self.scouting_ops += other.scouting_ops;
        self.programs += other.programs;
        self.bits_programmed += other.bits_programmed;
        self.corrected_errors += other.corrected_errors;
        self.energy += other.energy;
        self.busy += other.busy;
    }

    /// The activity recorded since `earlier` was captured: all counters,
    /// energy and busy time subtract component-wise. `earlier` must be a
    /// previous snapshot of the *same* ledger (counters only grow).
    #[must_use]
    pub fn delta_since(&self, earlier: &OpLedger) -> OpLedger {
        OpLedger {
            reads: self.reads - earlier.reads,
            scouting_ops: self.scouting_ops - earlier.scouting_ops,
            programs: self.programs - earlier.programs,
            bits_programmed: self.bits_programmed - earlier.bits_programmed,
            corrected_errors: self.corrected_errors - earlier.corrected_errors,
            energy: self.energy - earlier.energy,
            busy: self.busy - earlier.busy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut l = OpLedger::new();
        l.record_read(Joules::from_femtojoules(2.0), Seconds::from_picoseconds(350.0));
        l.record_scouting(Joules::from_femtojoules(3.0), Seconds::from_picoseconds(350.0));
        l.record_program(64, Joules::from_picojoules(128.0), Seconds::from_nanoseconds(10.0));
        assert_eq!(l.reads(), 1);
        assert_eq!(l.scouting_ops(), 1);
        assert_eq!(l.programs(), 1);
        assert_eq!(l.bits_programmed(), 64);
        assert!((l.energy().as_picojoules() - 128.005).abs() < 1e-9);
        assert!(l.busy_time().as_nanoseconds() > 10.0);
    }

    #[test]
    fn parallel_merge_sums_energy_and_maxes_busy_time() {
        let mut a = OpLedger::new();
        a.record_read(Joules::from_femtojoules(2.0), Seconds::from_nanoseconds(3.0));
        let mut b = OpLedger::new();
        b.record_scouting(Joules::from_femtojoules(5.0), Seconds::from_nanoseconds(7.0));
        b.record_program(8, Joules::from_femtojoules(1.0), Seconds::from_nanoseconds(1.0));
        a.merge_parallel(&b);
        assert_eq!(a.reads(), 1);
        assert_eq!(a.scouting_ops(), 1);
        assert_eq!(a.programs(), 1);
        assert_eq!(a.bits_programmed(), 8);
        assert!((a.energy().as_femtojoules() - 8.0).abs() < 1e-9);
        assert!((a.busy_time().as_nanoseconds() - 8.0).abs() < 1e-9, "max(3, 7+1), not the sum");
    }

    #[test]
    fn serial_merge_sums_everything_including_busy_time() {
        let mut a = OpLedger::new();
        a.record_read(Joules::from_femtojoules(2.0), Seconds::from_nanoseconds(3.0));
        let mut b = OpLedger::new();
        b.record_scouting(Joules::from_femtojoules(5.0), Seconds::from_nanoseconds(7.0));
        a.merge_serial(&b);
        assert_eq!(a.reads(), 1);
        assert_eq!(a.scouting_ops(), 1);
        assert!((a.energy().as_femtojoules() - 7.0).abs() < 1e-9);
        assert!((a.busy_time().as_nanoseconds() - 10.0).abs() < 1e-9, "3+7: back to back");
    }

    #[test]
    fn delta_since_isolates_new_activity() {
        let mut l = OpLedger::new();
        l.record_read(Joules::from_femtojoules(2.0), Seconds::from_nanoseconds(1.0));
        let snapshot = l;
        l.record_scouting(Joules::from_femtojoules(3.0), Seconds::from_nanoseconds(2.0));
        let d = l.delta_since(&snapshot);
        assert_eq!(d.reads(), 0);
        assert_eq!(d.scouting_ops(), 1);
        assert!((d.energy().as_femtojoules() - 3.0).abs() < 1e-9);
        assert!((d.busy_time().as_nanoseconds() - 2.0).abs() < 1e-9);
    }
}
