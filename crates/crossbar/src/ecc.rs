//! SEC-DED Hamming protection for crossbar rows.
//!
//! The paper treats imperfect memristive substrates as a first-class
//! concern: endurance wear-out and stuck-at cells are the dominant
//! failure signatures of resistive memories (Sections III.C and IV.C).
//! This module makes the execution stack *survive* them instead of
//! merely observing them:
//!
//! * [`HammingCode`] — a systematic single-error-correcting,
//!   double-error-detecting (SEC-DED) Hamming code over a row's data
//!   width. Parity is computed with the same word-parallel boolean
//!   primitives the scouting-logic model rests on (masked AND +
//!   population count), so the encoder costs `p` masked row scans.
//! * [`EccCrossbar`] — a wrapper over any [`CrossbarBackend`] that
//!   stores each logical row as a codeword (data columns first, then
//!   `p` Hamming parity columns, then one overall-parity column).
//!   Reads decode and transparently correct single-bit upsets,
//!   surfacing the count through [`OpLedger::corrected_errors`];
//!   double-bit errors are *detected* and surface as
//!   [`CrossbarError::Uncorrectable`] rather than silently
//!   miscorrecting.
//!
//! Scouting on an ECC substrate is the honest, conservative model: the
//! array cannot correct a bit-line *during* a multi-row scouting cycle
//! (the logic happens inside the sense amplifier, before any decoder
//! sees individual operands), so [`EccCrossbar::scouting`] performs one
//! protected read per operand row and combines the corrected operands.
//! The reliability tax is visible in the ledger — `k` reads instead of
//! one scouting cycle — which is exactly the trade-off a yield/cost
//! sweep should expose.

use crate::{BankedCrossbar, Crossbar, CrossbarBackend, CrossbarError, OpLedger, ScoutingKind};
use memcim_bits::BitVec;

/// Outcome of decoding one SEC-DED codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccOutcome {
    /// The codeword was consistent; nothing was touched.
    Clean,
    /// Exactly one bit was flipped back.
    Corrected {
        /// The codeword column that was corrected (data, Hamming parity
        /// or the overall-parity column).
        bit: usize,
    },
    /// Two (or an even number of) bit errors: detected, **not**
    /// miscorrected. The codeword is left as received.
    Uncorrectable,
}

/// A systematic SEC-DED Hamming code over `data_bits` columns.
///
/// Layout of a codeword (width [`total_bits`](Self::total_bits)):
///
/// ```text
/// [ data 0..k | Hamming parity 0..p | overall parity ]
/// ```
///
/// Data bits keep their natural column order (so a stuck cell at data
/// column `c` of the underlying array corrupts exactly logical bit `c`);
/// the classic power-of-two interleaving exists only in the *position
/// numbering* used to compute the syndrome.
///
/// # Examples
///
/// ```
/// use memcim_bits::BitVec;
/// use memcim_crossbar::{EccOutcome, HammingCode};
///
/// let code = HammingCode::new(64);
/// let data = BitVec::from_indices(64, &[3, 17, 40]);
/// let mut word = code.encode(&data);
/// // Flip any single bit — data or parity — and the decoder repairs it.
/// word.set(17, false);
/// assert_eq!(code.decode(&mut word), EccOutcome::Corrected { bit: 17 });
/// assert_eq!(code.extract_data(&word), data);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HammingCode {
    data_bits: usize,
    parity_bits: usize,
    /// `data_masks[j]`: the data columns whose Hamming position number
    /// has bit `j` set — the encoder's scouting masks.
    data_masks: Vec<BitVec>,
    /// Hamming position number (1-based) of each data column.
    data_pos: Vec<u32>,
    /// Hamming position number → data column (None for parity/unused).
    pos_to_data: Vec<Option<usize>>,
}

impl HammingCode {
    /// Builds the code for `data_bits` data columns.
    ///
    /// # Panics
    ///
    /// Panics if `data_bits` is zero.
    pub fn new(data_bits: usize) -> Self {
        assert!(data_bits > 0, "an ECC code needs at least one data bit");
        // Walk Hamming positions 1, 2, 3, …: powers of two are parity
        // slots, everything else hosts the next data column.
        let mut data_pos = Vec::with_capacity(data_bits);
        let mut parity_bits = 0usize;
        let mut pos = 1u32;
        while data_pos.len() < data_bits {
            if pos.is_power_of_two() {
                parity_bits += 1;
            } else {
                data_pos.push(pos);
            }
            pos += 1;
        }
        let max_pos = pos - 1;
        let mut pos_to_data = vec![None; max_pos as usize + 1];
        for (col, &p) in data_pos.iter().enumerate() {
            pos_to_data[p as usize] = Some(col);
        }
        let data_masks = (0..parity_bits)
            .map(|j| {
                let mut mask = BitVec::new(data_bits);
                for (col, &p) in data_pos.iter().enumerate() {
                    if p >> j & 1 == 1 {
                        mask.set(col, true);
                    }
                }
                mask
            })
            .collect();
        Self { data_bits, parity_bits, data_masks, data_pos, pos_to_data }
    }

    /// Data columns protected by the code.
    pub fn data_bits(&self) -> usize {
        self.data_bits
    }

    /// Hamming parity columns (excluding the overall-parity column).
    pub fn parity_bits(&self) -> usize {
        self.parity_bits
    }

    /// Codeword width: data + Hamming parity + one overall-parity bit.
    pub fn total_bits(&self) -> usize {
        self.data_bits + self.parity_bits + 1
    }

    /// Hamming parity bits needed for `data_bits` data columns: the
    /// smallest `p` with `2^p ≥ k + p + 1` (closed form — no code
    /// construction).
    fn parity_bits_for(data_bits: usize) -> usize {
        let mut p = 2;
        while (1usize << p) < data_bits + p + 1 {
            p += 1;
        }
        p
    }

    /// Codeword width the code would need for `data_bits` data columns
    /// (allocation-free; geometry planning calls this per worker or
    /// per Monte-Carlo trial).
    pub fn total_bits_for(data_bits: usize) -> usize {
        data_bits + Self::parity_bits_for(data_bits) + 1
    }

    /// The widest data row whose codeword fits in `columns` columns, if
    /// any (`columns` must be at least 4: one data bit needs two
    /// Hamming parity bits plus the overall bit).
    pub fn widest_data_for(columns: usize) -> Option<usize> {
        if columns < 4 {
            return None;
        }
        // total_bits grows monotonically with k, so walk down from the
        // upper bound (k ≤ columns - 3).
        let mut k = columns - 3;
        while Self::total_bits_for(k) > columns {
            k -= 1;
        }
        Some(k)
    }

    /// Parity of `data & mask` — a masked row scan, the word-parallel
    /// sibling of a scouting AND followed by a population count.
    fn masked_parity(data: &BitVec, mask: &BitVec) -> bool {
        data.as_words()
            .iter()
            .zip(mask.as_words())
            .fold(0u32, |acc, (d, m)| acc ^ ((d & m).count_ones() & 1))
            & 1
            == 1
    }

    /// Encodes `data` into `out` (cleared first; `out` may be wider
    /// than the codeword — extra columns stay zero).
    ///
    /// # Panics
    ///
    /// Panics if `data` is not `data_bits` wide or `out` is narrower
    /// than [`total_bits`](Self::total_bits).
    pub fn encode_into(&self, data: &BitVec, out: &mut BitVec) {
        assert_eq!(data.len(), self.data_bits, "data width mismatch");
        assert!(out.len() >= self.total_bits(), "output narrower than the codeword");
        out.clear();
        out.or_shifted(data, 0);
        let mut overall = data.count_ones() % 2 == 1;
        for (j, mask) in self.data_masks.iter().enumerate() {
            let parity = Self::masked_parity(data, mask);
            out.set(self.data_bits + j, parity);
            overall ^= parity;
        }
        out.set(self.data_bits + self.parity_bits, overall);
    }

    /// Encodes `data` into a fresh codeword.
    pub fn encode(&self, data: &BitVec) -> BitVec {
        let mut out = BitVec::new(self.total_bits());
        self.encode_into(data, &mut out);
        out
    }

    /// Decodes (and, for single-bit errors, repairs in place) a
    /// received codeword. `word` may be wider than the codeword; only
    /// the first [`total_bits`](Self::total_bits) columns participate.
    ///
    /// # Panics
    ///
    /// Panics if `word` is narrower than the codeword.
    pub fn decode(&self, word: &mut BitVec) -> EccOutcome {
        assert!(word.len() >= self.total_bits(), "received word narrower than the codeword");
        // Syndrome: recomputed parity vs stored parity, word-parallel
        // per parity mask (the masks are data_bits wide, so the zip
        // naturally excludes the parity columns and any padding).
        let mut syndrome = 0u32;
        for (j, mask) in self.data_masks.iter().enumerate() {
            if Self::masked_parity(word, mask) != word.get(self.data_bits + j) {
                syndrome |= 1 << j;
            }
        }
        // Overall parity over every bit below the overall column —
        // word-parallel: whole words, then the masked partial word.
        let n = self.data_bits + self.parity_bits;
        let words = word.as_words();
        let mut ones = 0u32;
        for w in &words[..n / 64] {
            ones ^= w.count_ones() & 1;
        }
        if !n.is_multiple_of(64) {
            ones ^= (words[n / 64] & ((1u64 << (n % 64)) - 1)).count_ones() & 1;
        }
        let overall_mismatch = (ones & 1 == 1) != word.get(n);
        match (syndrome, overall_mismatch) {
            (0, false) => EccOutcome::Clean,
            (0, true) => {
                // The overall-parity bit itself flipped.
                let bit = self.data_bits + self.parity_bits;
                word.set(bit, !word.get(bit));
                EccOutcome::Corrected { bit }
            }
            (s, true) => {
                let col = if s.is_power_of_two() {
                    // A Hamming parity column (position 2^j).
                    Some(self.data_bits + s.trailing_zeros() as usize)
                } else {
                    self.pos_to_data.get(s as usize).copied().flatten()
                };
                match col {
                    Some(bit) => {
                        word.set(bit, !word.get(bit));
                        EccOutcome::Corrected { bit }
                    }
                    // Syndrome points outside the codeword: at least a
                    // triple error. Detected, not miscorrected.
                    None => EccOutcome::Uncorrectable,
                }
            }
            // Non-zero syndrome with consistent overall parity: an even
            // number of flips. Detected, not miscorrected.
            (_, false) => EccOutcome::Uncorrectable,
        }
    }

    /// Copies the data columns out of a codeword.
    pub fn extract_data(&self, word: &BitVec) -> BitVec {
        let mut out = BitVec::new(self.data_bits);
        word.extract_range_into(0, self.data_bits, &mut out);
        out
    }
}

/// A fault-tolerant view over any crossbar substrate: rows are stored
/// as SEC-DED codewords, reads transparently correct single-bit upsets,
/// and multi-bit corruption surfaces as an error instead of silent
/// wrong data.
///
/// The wrapper implements [`CrossbarBackend`], so an
/// `MvpSimulator<EccCrossbar<BankedCrossbar>>` runs unchanged programs
/// on a protected, banked substrate.
///
/// # Examples
///
/// A stuck-at fault that would silently corrupt a raw read is corrected
/// and counted:
///
/// ```
/// use memcim_bits::BitVec;
/// use memcim_crossbar::{CrossbarBackend, EccCrossbar};
///
/// # fn main() -> Result<(), memcim_crossbar::CrossbarError> {
/// let mut ecc = EccCrossbar::rram(4, 64);
/// ecc.inner_mut().faults_mut().inject_stuck_at(0, 9, true);
/// ecc.program_row(0, &BitVec::new(64))?; // wants all-zero
/// let row = ecc.read_row(0)?;
/// assert_eq!(row.count_ones(), 0, "the stuck-at-1 was corrected");
/// assert_eq!(ecc.corrected_errors(), 1);
/// assert_eq!(ecc.ledger_totals().corrected_errors(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EccCrossbar<B: CrossbarBackend = Crossbar> {
    inner: B,
    code: HammingCode,
    /// Reliability events, merged into [`ledger_parts`] as an extra
    /// (zero-latency) part.
    ///
    /// [`ledger_parts`]: CrossbarBackend::ledger_parts
    ecc_ledger: OpLedger,
    uncorrectable: u64,
    /// Reusable codeword scratch, `inner.cols()` wide.
    scratch: BitVec,
}

impl EccCrossbar<Crossbar> {
    /// A protected monolithic RRAM array exposing `data_cols` logical
    /// columns (the underlying array is `total_bits` wide).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn rram(rows: usize, data_cols: usize) -> Self {
        let code = HammingCode::new(data_cols);
        let inner = Crossbar::rram(rows, code.total_bits());
        Self::from_parts(inner, code)
    }
}

impl EccCrossbar<BankedCrossbar> {
    /// A protected banked RRAM substrate: `bank_count × bank_cols`
    /// physical columns, of which the widest codeword-aligned prefix
    /// serves as data + parity (trailing columns stay unused).
    ///
    /// # Panics
    ///
    /// Panics if the banked geometry is too narrow to host even a
    /// one-bit codeword (fewer than 4 columns total).
    pub fn banked_rram(rows: usize, bank_count: usize, bank_cols: usize) -> Self {
        Self::over(BankedCrossbar::rram(rows, bank_count, bank_cols))
            .expect("banked geometry must fit at least a 1-bit codeword")
    }
}

impl<B: CrossbarBackend> EccCrossbar<B> {
    /// Wraps `inner`, using as many of its columns as data as the code
    /// permits (`widest_data_for(inner.cols())`).
    ///
    /// # Errors
    ///
    /// [`CrossbarError::WidthMismatch`] when `inner` has fewer than 4
    /// columns (no codeword fits).
    pub fn over(inner: B) -> Result<Self, CrossbarError> {
        let data = HammingCode::widest_data_for(inner.cols())
            .ok_or(CrossbarError::WidthMismatch { got: inner.cols(), expected: 4 })?;
        Ok(Self::from_parts(inner, HammingCode::new(data)))
    }

    /// Wraps `inner` with an explicit data width.
    ///
    /// # Errors
    ///
    /// [`CrossbarError::WidthMismatch`] when the codeword for
    /// `data_cols` does not fit in `inner.cols()` columns.
    pub fn with_data_width(inner: B, data_cols: usize) -> Result<Self, CrossbarError> {
        let code = HammingCode::new(data_cols);
        if code.total_bits() > inner.cols() {
            return Err(CrossbarError::WidthMismatch {
                got: inner.cols(),
                expected: code.total_bits(),
            });
        }
        Ok(Self::from_parts(inner, code))
    }

    fn from_parts(inner: B, code: HammingCode) -> Self {
        let width = inner.cols();
        Self {
            inner,
            code,
            ecc_ledger: OpLedger::new(),
            uncorrectable: 0,
            scratch: BitVec::new(width),
        }
    }

    /// The code protecting each row.
    pub fn code(&self) -> &HammingCode {
        &self.code
    }

    /// The raw substrate (fault injection, inspection).
    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// The raw substrate.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Single-bit upsets corrected so far.
    pub fn corrected_errors(&self) -> u64 {
        self.ecc_ledger.corrected_errors()
    }

    /// Reads that hit a detected-but-uncorrectable codeword.
    pub fn uncorrectable_errors(&self) -> u64 {
        self.uncorrectable
    }

    /// One protected read: inner read, decode, count, extract.
    fn read_decoded(&mut self, row: usize) -> Result<BitVec, CrossbarError> {
        let mut word = self.inner.read_row(row)?;
        match self.code.decode(&mut word) {
            EccOutcome::Clean => {}
            EccOutcome::Corrected { .. } => self.ecc_ledger.record_corrected(1),
            EccOutcome::Uncorrectable => {
                self.uncorrectable += 1;
                return Err(CrossbarError::Uncorrectable { row });
            }
        }
        Ok(self.code.extract_data(&word))
    }
}

impl<B: CrossbarBackend> CrossbarBackend for EccCrossbar<B> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }

    fn cols(&self) -> usize {
        self.code.data_bits()
    }

    fn program_row(&mut self, row: usize, values: &BitVec) -> Result<u64, CrossbarError> {
        if values.len() != self.code.data_bits() {
            return Err(CrossbarError::WidthMismatch {
                got: values.len(),
                expected: self.code.data_bits(),
            });
        }
        self.code.encode_into(values, &mut self.scratch);
        self.inner.program_row(row, &self.scratch)
    }

    fn read_row(&mut self, row: usize) -> Result<BitVec, CrossbarError> {
        self.read_decoded(row)
    }

    fn scouting(&mut self, kind: ScoutingKind, rows: &[usize]) -> Result<BitVec, CrossbarError> {
        kind.validate_selection(rows)?;
        // The array cannot correct operands mid-cycle, so a protected
        // scouting op is one corrected read per operand row combined in
        // the periphery — k reads instead of one cycle: the ECC tax.
        let mut acc = self.read_decoded(rows[0])?;
        for &row in &rows[1..] {
            let operand = self.read_decoded(row)?;
            match kind {
                ScoutingKind::Or | ScoutingKind::Nor => acc.or_assign(&operand),
                ScoutingKind::And | ScoutingKind::Nand => acc.and_assign(&operand),
                ScoutingKind::Xor | ScoutingKind::Xnor => acc.xor_assign(&operand),
            }
        }
        match kind {
            ScoutingKind::Nor | ScoutingKind::Nand | ScoutingKind::Xnor => Ok(acc.not()),
            _ => Ok(acc),
        }
    }

    fn ledger_parts(&self) -> Vec<OpLedger> {
        let mut parts = self.inner.ledger_parts();
        parts.push(self.ecc_ledger);
        parts
    }

    fn remap_table(&self) -> Vec<crate::RemapEntry> {
        self.inner.remap_table()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_geometry_matches_hamming_bounds() {
        // (k, p) classics: k=1→p=2, k=4→p=3, k=11→p=4, k=26→p=5, k=57→p=6, k=64→p=7.
        for (k, p) in [(1, 2), (4, 3), (11, 4), (26, 5), (57, 6), (64, 7), (120, 7), (128, 8)] {
            let code = HammingCode::new(k);
            assert_eq!(code.parity_bits(), p, "k = {k}");
            assert_eq!(code.total_bits(), k + p + 1);
            // The closed-form planner agrees with the constructed code.
            assert_eq!(HammingCode::total_bits_for(k), code.total_bits(), "k = {k}");
        }
    }

    #[test]
    fn widest_data_inverts_total_bits() {
        for cols in 4..200 {
            let k = HammingCode::widest_data_for(cols).expect("cols >= 4 fits");
            assert!(HammingCode::total_bits_for(k) <= cols);
            assert!(HammingCode::total_bits_for(k + 1) > cols);
        }
        assert_eq!(HammingCode::widest_data_for(3), None);
    }

    #[test]
    fn clean_round_trip() {
        let code = HammingCode::new(33);
        let data = BitVec::from_indices(33, &[0, 7, 20, 32]);
        let mut word = code.encode(&data);
        assert_eq!(code.decode(&mut word), EccOutcome::Clean);
        assert_eq!(code.extract_data(&word), data);
    }

    #[test]
    fn every_single_flip_is_corrected_small_widths_exhaustively() {
        for k in 1..=16usize {
            let code = HammingCode::new(k);
            let data = BitVec::from_indices(k, &(0..k).step_by(2).collect::<Vec<_>>());
            let clean = code.encode(&data);
            for flip in 0..code.total_bits() {
                let mut word = clean.clone();
                word.set(flip, !word.get(flip));
                assert_eq!(code.decode(&mut word), EccOutcome::Corrected { bit: flip });
                assert_eq!(code.extract_data(&word), data, "k = {k}, flip = {flip}");
            }
        }
    }

    #[test]
    fn double_flips_are_detected_not_miscorrected_small_widths() {
        for k in [1usize, 5, 8, 12] {
            let code = HammingCode::new(k);
            let data = BitVec::from_indices(k, &[0]);
            let clean = code.encode(&data);
            for a in 0..code.total_bits() {
                for b in a + 1..code.total_bits() {
                    let mut word = clean.clone();
                    word.set(a, !word.get(a));
                    word.set(b, !word.get(b));
                    assert_eq!(
                        code.decode(&mut word),
                        EccOutcome::Uncorrectable,
                        "k = {k}, flips = ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn ecc_read_write_round_trips_through_the_backend_trait() {
        let mut ecc = EccCrossbar::rram(4, 96);
        assert_eq!(ecc.cols(), 96);
        assert_eq!(ecc.rows(), 4);
        let data = BitVec::from_indices(96, &[0, 50, 95]);
        ecc.program_row(2, &data).expect("program");
        assert_eq!(ecc.read_row(2).expect("read"), data);
        assert_eq!(ecc.corrected_errors(), 0);
    }

    #[test]
    fn single_stuck_cell_is_transparent_and_counted() {
        let mut ecc = EccCrossbar::rram(2, 64);
        ecc.inner_mut().faults_mut().inject_stuck_at(0, 30, false);
        let data = BitVec::from_indices(64, &[29, 30, 31]);
        ecc.program_row(0, &data).expect("program");
        assert_eq!(ecc.read_row(0).expect("read"), data, "stuck-at-0 corrected");
        assert_eq!(ecc.corrected_errors(), 1);
        // The correction surfaces through the aggregated ledger too.
        assert_eq!(ecc.ledger_totals().corrected_errors(), 1);
    }

    #[test]
    fn stuck_parity_column_is_also_corrected() {
        let mut ecc = EccCrossbar::rram(2, 32);
        // First parity column lives right after the data columns.
        ecc.inner_mut().faults_mut().inject_stuck_at(0, 32, true);
        let data = BitVec::from_indices(32, &[1]);
        ecc.program_row(0, &data).expect("program");
        assert_eq!(ecc.read_row(0).expect("read"), data);
    }

    #[test]
    fn double_fault_in_one_row_surfaces_as_uncorrectable() {
        let mut ecc = EccCrossbar::rram(2, 64);
        ecc.inner_mut().faults_mut().inject_stuck_at(0, 3, true);
        ecc.inner_mut().faults_mut().inject_stuck_at(0, 40, true);
        ecc.program_row(0, &BitVec::new(64)).expect("program");
        let err = ecc.read_row(0).expect_err("two upsets exceed SEC");
        assert_eq!(err, CrossbarError::Uncorrectable { row: 0 });
        assert!(err.is_fault_fatal());
        assert_eq!(ecc.uncorrectable_errors(), 1);
    }

    #[test]
    fn protected_scouting_matches_boolean_reference_under_faults() {
        let mut ecc = EccCrossbar::rram(4, 80);
        // One stuck cell in each operand row: correctable per read.
        ecc.inner_mut().faults_mut().inject_stuck_at(0, 10, true);
        ecc.inner_mut().faults_mut().inject_stuck_at(1, 60, false);
        let a = BitVec::from_indices(80, &(0..80).step_by(3).collect::<Vec<_>>());
        let b = BitVec::from_indices(80, &(0..80).step_by(5).collect::<Vec<_>>());
        ecc.program_row(0, &a).expect("r0");
        ecc.program_row(1, &b).expect("r1");
        assert_eq!(ecc.scouting(ScoutingKind::Or, &[0, 1]).expect("or"), a.or(&b));
        assert_eq!(ecc.scouting(ScoutingKind::And, &[0, 1]).expect("and"), a.and(&b));
        assert_eq!(ecc.scouting(ScoutingKind::Xor, &[0, 1]).expect("xor"), a.xor(&b));
        assert_eq!(ecc.scouting(ScoutingKind::Nand, &[0, 1]).expect("nand"), a.and(&b).not());
        let result = ecc.scouting_write(ScoutingKind::Nor, &[0, 1], 3).expect("nor→3");
        assert_eq!(result, a.or(&b).not());
        assert_eq!(ecc.read_row(3).expect("read-back"), result);
    }

    #[test]
    fn protected_scouting_rejects_invalid_selections() {
        let mut ecc = EccCrossbar::rram(4, 32);
        assert!(matches!(
            ecc.scouting(ScoutingKind::Or, &[0]),
            Err(CrossbarError::InvalidRowSelection { .. })
        ));
        assert!(matches!(
            ecc.scouting(ScoutingKind::Or, &[1, 1]),
            Err(CrossbarError::InvalidRowSelection { .. })
        ));
        assert!(matches!(
            ecc.scouting(ScoutingKind::Xnor, &[0, 1, 2]),
            Err(CrossbarError::InvalidRowSelection { .. })
        ));
    }

    #[test]
    fn banked_substrate_can_be_protected_too() {
        let mut ecc = EccCrossbar::banked_rram(4, 3, 32);
        // 96 physical columns; the codeword (k + p + 1) must fit.
        let k = ecc.cols();
        assert!(HammingCode::total_bits_for(k) <= 96);
        let data = BitVec::from_indices(k, &[0, k / 2, k - 1]);
        ecc.program_row(1, &data).expect("program");
        // A stuck cell in the middle bank is corrected transparently.
        ecc.inner_mut().bank_mut(1).expect("bank").faults_mut().inject_stuck_at(1, 5, true);
        let read = ecc.read_row(1).expect("read");
        assert_eq!(read, data, "stuck cell in bank 1 corrected");
        assert_eq!(ecc.corrected_errors(), 1);
    }

    #[test]
    fn width_mismatches_are_rejected() {
        let mut ecc = EccCrossbar::rram(2, 32);
        assert!(matches!(
            ecc.program_row(0, &BitVec::new(31)),
            Err(CrossbarError::WidthMismatch { got: 31, expected: 32 })
        ));
        let narrow = Crossbar::rram(2, 3);
        assert!(EccCrossbar::over(narrow).is_err());
        let exact = Crossbar::rram(2, HammingCode::total_bits_for(16));
        assert!(EccCrossbar::with_data_width(exact, 17).is_err());
    }
}
