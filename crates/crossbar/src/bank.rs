//! Multi-bank crossbar organization.
//!
//! The paper's MVP owns a 2 GB crossbar — physically millions of
//! subarrays, not one. A [`BankedCrossbar`] splits a logical row width
//! across equally-sized banks that operate column-parallel and
//! *simultaneously*: a scouting operation issues to every bank in the
//! same memory cycle, so latency is one bank cycle while energy is the
//! sum over banks. This is the structure behind the MVP model's
//! "massively parallel in-memory op" cost assumption (the "2 GB crossbar
//! = millions of subarrays" row of `ARCHITECTURE.md`'s Paper → code
//! table).
//!
//! Striping a logical row into per-bank slices and gathering per-bank
//! results back into a logical row are word-parallel
//! ([`BitVec::extract_range_into`] / [`BitVec::or_shifted`]) — no
//! per-bit loops in either direction. Striping writes into per-instance
//! scratch (zero allocations per call); gathering ORs each bank's
//! result directly into the output vector, so the only allocations on a
//! banked operation are the ones its monolithic counterpart also makes
//! (the returned row, plus each bank's own result inside [`Crossbar`]).

use crate::{Crossbar, CrossbarBackend, CrossbarError, OpLedger, RemapEntry, ScoutingKind};
use memcim_bits::BitVec;
use memcim_units::{SquareMicrometers, Watts};

/// A logical crossbar striped across multiple equally-wide banks.
///
/// Rows span all banks; operations fan out to every bank in parallel and
/// results are re-assembled in column order.
///
/// # Examples
///
/// ```
/// use memcim_bits::BitVec;
/// use memcim_crossbar::{BankedCrossbar, CrossbarBackend, ScoutingKind};
///
/// # fn main() -> Result<(), memcim_crossbar::CrossbarError> {
/// // 4 banks × 256 columns = 1024-bit logical rows.
/// let mut banked = BankedCrossbar::rram(8, 4, 256);
/// banked.program_row(0, &BitVec::from_indices(1024, &[0, 500, 1023]))?;
/// banked.program_row(1, &BitVec::from_indices(1024, &[500]))?;
/// let and = banked.scouting(ScoutingKind::And, &[0, 1])?;
/// assert_eq!(and.ones().collect::<Vec<_>>(), vec![500]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct BankedCrossbar {
    banks: Vec<Crossbar>,
    bank_cols: usize,
    /// Per-bank stripe scratch (one `bank_cols`-wide vector per bank),
    /// allocated once and reused by every [`stripe`](Self::stripe) call.
    stripes: Vec<BitVec>,
}

impl BankedCrossbar {
    /// Creates `bank_count` RRAM banks of `rows × bank_cols` each.
    ///
    /// # Panics
    ///
    /// Panics if `rows`, `bank_count` or `bank_cols` is zero.
    pub fn rram(rows: usize, bank_count: usize, bank_cols: usize) -> Self {
        assert!(rows > 0, "banked crossbar needs at least one row");
        assert!(bank_count > 0, "banked crossbar needs at least one bank");
        assert!(bank_cols > 0, "banked crossbar needs a non-zero bank width");
        Self {
            banks: (0..bank_count).map(|_| Crossbar::rram(rows, bank_cols)).collect(),
            bank_cols,
            stripes: vec![BitVec::new(bank_cols); bank_count],
        }
    }

    /// Creates `bank_count` RRAM banks that each reserve `spares` spare
    /// rows under a stuck-cell retirement `threshold` (see
    /// [`Crossbar::with_spare_rows`]). The host sees `rows` logical
    /// rows; each bank holds `rows + spares` physical rows and repairs
    /// its slice of a degraded logical row independently.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or `threshold` is zero.
    pub fn rram_with_spares(
        rows: usize,
        bank_count: usize,
        bank_cols: usize,
        spares: usize,
        threshold: usize,
    ) -> Self {
        assert!(rows > 0, "banked crossbar needs at least one row");
        assert!(bank_count > 0, "banked crossbar needs at least one bank");
        assert!(bank_cols > 0, "banked crossbar needs a non-zero bank width");
        Self {
            banks: (0..bank_count)
                .map(|_| {
                    Crossbar::rram(rows + spares, bank_cols).with_spare_rows(spares, threshold)
                })
                .collect(),
            bank_cols,
            stripes: vec![BitVec::new(bank_cols); bank_count],
        }
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Columns per bank.
    pub fn bank_cols(&self) -> usize {
        self.bank_cols
    }

    /// Borrows one bank (fault injection, inspection), or `None` if
    /// `index` is out of range.
    pub fn bank_mut(&mut self, index: usize) -> Option<&mut Crossbar> {
        self.banks.get_mut(index)
    }

    /// Splits a logical row vector into the per-bank stripe scratch
    /// (`self.stripes`) — word-parallel, no allocation.
    fn stripe(&mut self, values: &BitVec) -> Result<(), CrossbarError> {
        if values.len() != self.cols() {
            return Err(CrossbarError::WidthMismatch { got: values.len(), expected: self.cols() });
        }
        for (b, stripe) in self.stripes.iter_mut().enumerate() {
            values.extract_range_into(b * self.bank_cols, self.bank_cols, stripe);
        }
        Ok(())
    }

    /// Re-assembles per-bank results into a logical row vector,
    /// word-parallel via [`BitVec::or_shifted`].
    fn gather(out: &mut BitVec, bank: usize, bank_cols: usize, part: &BitVec) {
        out.or_shifted(part, bank * bank_cols);
    }

    /// Runs `op` on every bank in the same cycle and gathers the
    /// per-bank results into one logical row.
    fn fan_out(
        &mut self,
        mut op: impl FnMut(&mut Crossbar) -> Result<BitVec, CrossbarError>,
    ) -> Result<BitVec, CrossbarError> {
        let mut out = BitVec::new(self.cols());
        for (b, bank) in self.banks.iter_mut().enumerate() {
            Self::gather(&mut out, b, self.bank_cols, &op(bank)?);
        }
        Ok(out)
    }

    /// Total layout area.
    pub fn area(&self) -> SquareMicrometers {
        self.banks.iter().map(Crossbar::area).sum::<SquareMicrometers>()
    }

    /// Total static power.
    pub fn static_power(&self) -> Watts {
        Watts::new(self.banks.iter().map(|b| b.static_power().as_watts()).sum())
    }

    /// Spare rows still unused, summed over banks.
    pub fn spares_remaining(&self) -> usize {
        self.banks.iter().map(Crossbar::spares_remaining).sum()
    }

    /// Logical-row retirements performed, summed over banks (each bank
    /// repairs its slice of a logical row independently).
    pub fn retired_rows(&self) -> u64 {
        self.banks.iter().map(Crossbar::retired_rows).sum()
    }
}

impl CrossbarBackend for BankedCrossbar {
    /// Rows per bank (= logical rows).
    fn rows(&self) -> usize {
        self.banks[0].rows()
    }

    /// Logical row width (columns across all banks).
    fn cols(&self) -> usize {
        self.banks.len() * self.bank_cols
    }

    fn program_row(&mut self, row: usize, values: &BitVec) -> Result<u64, CrossbarError> {
        self.stripe(values)?;
        let mut changed = 0;
        for (bank, stripe) in self.banks.iter_mut().zip(&self.stripes) {
            changed += bank.program_row(row, stripe)?;
        }
        Ok(changed)
    }

    fn read_row(&mut self, row: usize) -> Result<BitVec, CrossbarError> {
        self.fan_out(|bank| bank.read_row(row))
    }

    fn scouting(&mut self, kind: ScoutingKind, rows: &[usize]) -> Result<BitVec, CrossbarError> {
        self.fan_out(|bank| bank.scouting(kind, rows))
    }

    /// Each bank computes its slice of the logic function and programs
    /// it back locally in the same parallel step, so the cross-bank
    /// result never leaves the memory.
    fn scouting_write(
        &mut self,
        kind: ScoutingKind,
        rows: &[usize],
        dest: usize,
    ) -> Result<BitVec, CrossbarError> {
        self.fan_out(|bank| bank.scouting_write(kind, rows, dest))
    }

    /// One ledger per bank, in bank order.
    fn ledger_parts(&self) -> Vec<OpLedger> {
        self.banks.iter().map(|b| *b.ledger()).collect()
    }

    /// Every bank's non-identity remap entries, tagged with the bank
    /// index.
    fn remap_table(&self) -> Vec<RemapEntry> {
        self.banks
            .iter()
            .enumerate()
            .flat_map(|(bank, b)| {
                b.remap_table().into_iter().map(move |entry| RemapEntry { bank, ..entry })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcim_units::Seconds;

    #[test]
    fn striping_and_gathering_round_trip() {
        let mut banked = BankedCrossbar::rram(4, 3, 64);
        assert_eq!(banked.cols(), 192);
        let data = BitVec::from_indices(192, &[0, 63, 64, 127, 128, 191]);
        banked.program_row(0, &data).expect("program");
        assert_eq!(banked.read_row(0).expect("read"), data);
    }

    #[test]
    fn scouting_spans_bank_boundaries() {
        let mut banked = BankedCrossbar::rram(4, 4, 32);
        let a = BitVec::from_indices(128, &(0..128).step_by(2).collect::<Vec<_>>());
        let b = BitVec::from_indices(128, &(0..128).step_by(3).collect::<Vec<_>>());
        banked.program_row(0, &a).expect("r0");
        banked.program_row(1, &b).expect("r1");
        assert_eq!(banked.scouting(ScoutingKind::Or, &[0, 1]).expect("or"), a.or(&b));
        assert_eq!(banked.scouting(ScoutingKind::And, &[0, 1]).expect("and"), a.and(&b));
        assert_eq!(banked.scouting(ScoutingKind::Xor, &[0, 1]).expect("xor"), a.xor(&b));
    }

    #[test]
    fn scouting_write_back_spans_all_banks() {
        let mut banked = BankedCrossbar::rram(4, 3, 32);
        let a = BitVec::from_indices(96, &[0, 40, 95]);
        let b = BitVec::from_indices(96, &[0, 40, 50]);
        banked.program_row(0, &a).expect("r0");
        banked.program_row(1, &b).expect("r1");
        let and = banked.scouting_write(ScoutingKind::And, &[0, 1], 3).expect("write-back");
        assert_eq!(and.ones().collect::<Vec<_>>(), vec![0, 40]);
        assert_eq!(banked.read_row(3).expect("read"), and, "result landed in every bank");
    }

    #[test]
    fn latency_is_one_bank_cycle_energy_is_summed() {
        let mut one_bank = BankedCrossbar::rram(4, 1, 64);
        let mut four_banks = BankedCrossbar::rram(4, 4, 64);
        let narrow = BitVec::from_indices(64, &[1, 2]);
        let wide = BitVec::from_indices(256, &[1, 2, 65, 130, 200]);
        one_bank.program_row(0, &narrow).expect("p");
        one_bank.program_row(1, &narrow).expect("p");
        four_banks.program_row(0, &wide).expect("p");
        four_banks.program_row(1, &wide).expect("p");
        let _ = one_bank.scouting(ScoutingKind::Or, &[0, 1]).expect("or");
        let _ = four_banks.scouting(ScoutingKind::Or, &[0, 1]).expect("or");
        // Parallel banks: same wall-clock, ~4× the energy per op class.
        let (one, four) = (one_bank.ledger_totals(), four_banks.ledger_totals());
        assert_eq!(one.busy_time().as_seconds(), four.busy_time().as_seconds());
        assert!(four.energy().as_joules() > 2.0 * one.energy().as_joules());
        // The totals sum energy over the bank ledgers and take the
        // slowest bank's busy time.
        let parts = four_banks.ledger_parts();
        assert_eq!(four.energy(), parts.iter().map(OpLedger::energy).sum());
        let slowest = parts.iter().map(OpLedger::busy_time).fold(Seconds::ZERO, Seconds::max);
        assert_eq!(four.busy_time(), slowest);
        assert_eq!(four.scouting_ops(), 4);
    }

    #[test]
    fn width_mismatch_is_rejected() {
        let mut banked = BankedCrossbar::rram(2, 2, 16);
        let wrong = BitVec::new(16);
        assert!(matches!(
            banked.program_row(0, &wrong),
            Err(CrossbarError::WidthMismatch { got: 16, expected: 32 })
        ));
    }

    #[test]
    fn per_bank_faults_stay_local() {
        let mut banked = BankedCrossbar::rram(2, 2, 16);
        banked.bank_mut(1).expect("bank 1 exists").faults_mut().inject_stuck_at(0, 3, true);
        banked.program_row(0, &BitVec::new(32)).expect("zeros");
        let read = banked.read_row(0).expect("read");
        // Logical column 16 + 3 = 19 is the stuck one.
        assert_eq!(read.ones().collect::<Vec<_>>(), vec![19]);
    }

    #[test]
    fn out_of_range_bank_is_none_not_a_panic() {
        let mut banked = BankedCrossbar::rram(2, 2, 16);
        assert!(banked.bank_mut(1).is_some());
        assert!(banked.bank_mut(2).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_are_rejected_with_a_clear_message() {
        let _ = BankedCrossbar::rram(0, 2, 16);
    }

    #[test]
    #[should_panic(expected = "non-zero bank width")]
    fn zero_bank_cols_are_rejected_with_a_clear_message() {
        let _ = BankedCrossbar::rram(2, 2, 0);
    }

    #[test]
    fn per_bank_spare_repair_keeps_the_logical_row_intact() {
        let mut banked = BankedCrossbar::rram_with_spares(4, 2, 16, 1, 1);
        assert_eq!(banked.rows(), 4, "spares are invisible to the host");
        assert_eq!(banked.spares_remaining(), 2);
        let data = BitVec::from_indices(32, &[3, 19]);
        banked.program_row(0, &data).expect("program");
        // Break row 0 in bank 1 only and retire it there.
        let bank1 = banked.bank_mut(1).expect("bank 1");
        bank1.faults_mut().inject_stuck_at(0, 0, true);
        bank1.audit().expect("retire");
        assert_eq!(banked.retired_rows(), 1);
        assert_eq!(banked.spares_remaining(), 1);
        let table = banked.remap_table();
        assert_eq!(table, vec![RemapEntry { bank: 1, logical: 0, physical: 4 }]);
        // Bank 0 is untouched; bank 1 serves row 0 from its spare.
        assert_eq!(banked.read_row(0).expect("read"), data);
    }

    #[test]
    fn area_and_power_aggregate() {
        let banked = BankedCrossbar::rram(8, 4, 64);
        let single = Crossbar::rram(8, 64);
        assert!(
            (banked.area().as_square_micrometers() - 4.0 * single.area().as_square_micrometers())
                .abs()
                < 1e-9
        );
        assert_eq!(banked.static_power().as_watts(), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Per-bit reference for [`BankedCrossbar::stripe`].
    fn stripe_per_bit(values: &BitVec, bank_count: usize, bank_cols: usize) -> Vec<BitVec> {
        let mut stripes = vec![BitVec::new(bank_cols); bank_count];
        for i in values.ones() {
            stripes[i / bank_cols].set(i % bank_cols, true);
        }
        stripes
    }

    /// Per-bit reference for [`BankedCrossbar::gather`].
    fn gather_per_bit(parts: &[BitVec], bank_cols: usize) -> BitVec {
        let mut out = BitVec::new(parts.len() * bank_cols);
        for (b, part) in parts.iter().enumerate() {
            for i in part.ones() {
                out.set(b * bank_cols + i, true);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// The word-parallel stripe/gather pair is bit-identical to the
        /// per-bit reference for arbitrary contents, bank counts and
        /// (non-power-of-two) bank widths, and round-trips.
        #[test]
        fn word_parallel_stripe_gather_matches_per_bit_reference(
            bank_count in 1usize..6,
            bank_cols in 1usize..150,
            bits in proptest::collection::vec(any::<bool>(), 1..900),
        ) {
            let cols = bank_count * bank_cols;
            let values: BitVec =
                (0..cols).map(|i| bits[i % bits.len()]).collect();
            let mut banked = BankedCrossbar::rram(1, bank_count, bank_cols);
            banked.stripe(&values).expect("widths match");
            let reference = stripe_per_bit(&values, bank_count, bank_cols);
            prop_assert_eq!(&banked.stripes, &reference);
            // Gathering the stripes reconstructs the logical row.
            let mut gathered = BitVec::new(cols);
            for (b, part) in banked.stripes.iter().enumerate() {
                BankedCrossbar::gather(&mut gathered, b, bank_cols, part);
            }
            prop_assert_eq!(&gathered, &values);
            prop_assert_eq!(gathered, gather_per_bit(&reference, bank_cols));
        }
    }
}
