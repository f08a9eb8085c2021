//! The [`CrossbarBackend`] trait: one interface over monolithic,
//! banked and protected crossbar substrates.
//!
//! The paper's MVP owns a 2 GB crossbar that is physically *millions of
//! subarrays* operating column-parallel; functionally, though, the host
//! sees a single logical array. This trait captures exactly that host
//! view — row programming, row reads, scouting logic with and without
//! write-back, geometry and aggregated cost accounting — so that
//! everything built on top (the MVP simulator and its workloads) runs
//! unchanged on any substrate.
//!
//! Each row operation is defined once, in its substrate's impl:
//!
//! * [`Crossbar`](crate::Crossbar) senses and programs the array
//!   itself and reports its own [`OpLedger`] as its one ledger part.
//! * [`BankedCrossbar`](crate::BankedCrossbar) fans every operation out
//!   to its banks and reports one ledger part per bank; the totals
//!   **sum** operation counts and energy over banks (every bank really
//!   spends its joules) but take the **maximum** busy time (banks
//!   operate in the same memory cycles, so wall clock is the slowest
//!   bank, not the sum) — see [`OpLedger::merge_parallel`].
//! * [`EccCrossbar`](crate::EccCrossbar) stores SEC-DED codewords over
//!   any inner backend and adds its reliability ledger as a part.
//! * `Box<T>` forwards to `T`, so heterogeneous engine pools can share
//!   one worker type.
//!
//! Scouting with write-back is a provided method (scouting, then a row
//! program); only [`BankedCrossbar`](crate::BankedCrossbar) overrides
//! it, writing each bank's slice back locally.

use crate::{CrossbarError, OpLedger, ScoutingKind};
use memcim_bits::BitVec;

/// One non-identity entry of a substrate's spare-row remap table: the
/// logical row that was retired, the physical (spare) row now backing
/// it, and — for banked substrates — which bank performed the repair
/// (0 for a monolithic array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemapEntry {
    /// Bank that holds the remap (0 on a monolithic array).
    pub bank: usize,
    /// The host-visible row that was retired.
    pub logical: usize,
    /// The spare physical row now serving it.
    pub physical: usize,
}

/// A logical crossbar substrate: the host-visible row/column interface
/// of [`Crossbar`](crate::Crossbar), [`BankedCrossbar`](crate::BankedCrossbar),
/// [`EccCrossbar`](crate::EccCrossbar) and boxed backends.
///
/// # Examples
///
/// Generic code runs identically on a monolithic and a banked array:
///
/// ```
/// use memcim_bits::BitVec;
/// use memcim_crossbar::{BankedCrossbar, Crossbar, CrossbarBackend, ScoutingKind};
///
/// fn and_of_two_rows<B: CrossbarBackend>(xbar: &mut B) -> BitVec {
///     let w = xbar.cols();
///     xbar.program_row(0, &BitVec::from_indices(w, &[1, 2])).unwrap();
///     xbar.program_row(1, &BitVec::from_indices(w, &[2, 3])).unwrap();
///     xbar.scouting(ScoutingKind::And, &[0, 1]).unwrap()
/// }
///
/// let mono = and_of_two_rows(&mut Crossbar::rram(4, 96));
/// let banked = and_of_two_rows(&mut BankedCrossbar::rram(4, 3, 32));
/// assert_eq!(mono, banked);
/// assert_eq!(mono.ones().collect::<Vec<_>>(), vec![2]);
/// ```
pub trait CrossbarBackend {
    /// Number of addressable rows.
    fn rows(&self) -> usize;

    /// Logical row width in columns.
    fn cols(&self) -> usize;

    /// Programs a logical row in one parallel programming cycle,
    /// returning the number of cells whose state changed.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] /
    /// [`CrossbarError::WidthMismatch`] for invalid arguments.
    fn program_row(&mut self, row: usize, values: &BitVec) -> Result<u64, CrossbarError>;

    /// Reads a logical row back (one memory cycle; faults and
    /// variability apply).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for an invalid row.
    fn read_row(&mut self, row: usize) -> Result<BitVec, CrossbarError>;

    /// A scouting logic operation over the full logical width in one
    /// memory cycle.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::InvalidRowSelection`] if fewer than two
    /// rows are given, rows repeat, or a window gate (`Xor`/`Xnor`) is
    /// requested over other than two rows (see
    /// [`ScoutingKind::validate_selection`]), and
    /// [`CrossbarError::OutOfBounds`] for invalid rows.
    fn scouting(&mut self, kind: ScoutingKind, rows: &[usize]) -> Result<BitVec, CrossbarError>;

    /// Scouting with write-back of the result into row `dest` — the
    /// MVP's in-memory macro-instruction: [`scouting`](Self::scouting),
    /// then [`program_row`](Self::program_row).
    ///
    /// # Errors
    ///
    /// Combines the error conditions of [`scouting`](Self::scouting)
    /// and [`program_row`](Self::program_row).
    fn scouting_write(
        &mut self,
        kind: ScoutingKind,
        rows: &[usize],
        dest: usize,
    ) -> Result<BitVec, CrossbarError> {
        let result = self.scouting(kind, rows)?;
        self.program_row(dest, &result)?;
        Ok(result)
    }

    /// Aggregated activity totals for the whole substrate. For a banked
    /// substrate, energy and operation counts sum over banks while busy
    /// time is the wall-clock maximum over banks.
    fn ledger_totals(&self) -> OpLedger {
        let mut total = OpLedger::new();
        for part in self.ledger_parts() {
            total.merge_parallel(&part);
        }
        total
    }

    /// The per-subarray ledgers backing
    /// [`ledger_totals`](Self::ledger_totals): a single entry for a
    /// monolithic array, one
    /// entry per bank (in bank order) for a banked one. Interval
    /// accounting must diff these part-wise and re-aggregate
    /// ([`OpLedger::delta_since`] is only monotone per part — the
    /// max-over-banks busy time of the *aggregate* is not), which is
    /// exactly what `MvpSimulator::run_batch` does.
    fn ledger_parts(&self) -> Vec<OpLedger>;

    /// The substrate's spare-row remap table: every logical row
    /// currently served by a spare physical row, or empty for
    /// substrates without spare-row repair (the default).
    fn remap_table(&self) -> Vec<RemapEntry> {
        Vec::new()
    }
}

/// Boxed backends delegate verbatim, so heterogeneous engine pools
/// (raw, banked, ECC-protected) can share one
/// `MvpSimulator<Box<dyn CrossbarBackend + Send>>` worker type.
impl<T: CrossbarBackend + ?Sized> CrossbarBackend for Box<T> {
    fn rows(&self) -> usize {
        (**self).rows()
    }

    fn cols(&self) -> usize {
        (**self).cols()
    }

    fn program_row(&mut self, row: usize, values: &BitVec) -> Result<u64, CrossbarError> {
        (**self).program_row(row, values)
    }

    fn read_row(&mut self, row: usize) -> Result<BitVec, CrossbarError> {
        (**self).read_row(row)
    }

    fn scouting(&mut self, kind: ScoutingKind, rows: &[usize]) -> Result<BitVec, CrossbarError> {
        (**self).scouting(kind, rows)
    }

    fn scouting_write(
        &mut self,
        kind: ScoutingKind,
        rows: &[usize],
        dest: usize,
    ) -> Result<BitVec, CrossbarError> {
        (**self).scouting_write(kind, rows, dest)
    }

    fn ledger_parts(&self) -> Vec<OpLedger> {
        (**self).ledger_parts()
    }

    fn remap_table(&self) -> Vec<RemapEntry> {
        (**self).remap_table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BankedCrossbar, Crossbar};

    fn exercise<B: CrossbarBackend>(xbar: &mut B) -> (BitVec, BitVec, OpLedger) {
        let w = xbar.cols();
        let a = BitVec::from_indices(w, &(0..w).step_by(2).collect::<Vec<_>>());
        let b = BitVec::from_indices(w, &(0..w).step_by(3).collect::<Vec<_>>());
        xbar.program_row(0, &a).expect("r0");
        xbar.program_row(1, &b).expect("r1");
        let or = xbar.scouting_write(ScoutingKind::Or, &[0, 1], 2).expect("or");
        let back = xbar.read_row(2).expect("read");
        (or, back, xbar.ledger_totals())
    }

    #[test]
    fn monolithic_and_banked_agree_through_the_trait() {
        let (or_m, back_m, ledger_m) = exercise(&mut Crossbar::rram(4, 192));
        let (or_b, back_b, ledger_b) = exercise(&mut BankedCrossbar::rram(4, 3, 64));
        assert_eq!(or_m, or_b);
        assert_eq!(back_m, back_b);
        assert_eq!(ledger_m.scouting_ops(), 1);
        // Each bank performs its own scouting op: counts sum over banks.
        assert_eq!(ledger_b.scouting_ops(), 3);
        // Wall clock is per-bank (max), so the banked run is no slower.
        assert!(ledger_b.busy_time().as_seconds() <= ledger_m.busy_time().as_seconds() + 1e-18);
    }

    #[test]
    fn trait_objects_are_usable() {
        let mut backends: Vec<Box<dyn CrossbarBackend>> =
            vec![Box::new(Crossbar::rram(2, 64)), Box::new(BankedCrossbar::rram(2, 2, 32))];
        for xbar in &mut backends {
            let w = xbar.cols();
            xbar.program_row(0, &BitVec::from_indices(w, &[5])).expect("program");
            assert_eq!(xbar.read_row(0).expect("read").ones().collect::<Vec<_>>(), vec![5]);
        }
    }
}
