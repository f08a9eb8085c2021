//! The crossbar array: programming, reads and scouting logic.

use crate::{
    CellTechnology, CrossbarBackend, CrossbarError, FaultMap, OpLedger, RemapEntry, ScoutingKind,
    SenseThresholds,
};
use memcim_bits::{BitMatrix, BitVec};
use memcim_device::{
    DeviceError, DeviceSample, EnduranceModel, SwitchParams, VariabilityModel, WearState,
};
use memcim_units::{Amps, Joules, Ohms, Seconds, SquareMicrometers, Volts, Watts};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::ops::Range;

/// A `rows × cols` one-transistor-one-memristor crossbar array.
///
/// The array tracks logical cell states, per-cell resistance samples
/// (when a [`VariabilityModel`] is attached), endurance wear, stuck-at
/// faults and an [`OpLedger`] of energy/latency totals. Reads and
/// scouting operations sense *physical* bit-line currents — with
/// variability or faults attached, what you read is what the silicon
/// would give you, not what you wrote.
///
/// See the [crate-level example](crate) for typical use.
pub struct Crossbar {
    rows: usize,
    cols: usize,
    bits: BitMatrix,
    tech: CellTechnology,
    device: SwitchParams,
    read_voltage: Volts,
    variability: Option<(VariabilityModel, Vec<DeviceSample>)>,
    endurance: Option<EnduranceModel>,
    /// Per-cell wear, `rows × cols` once an endurance model is attached
    /// and empty otherwise (nothing reads it without one).
    wear: Vec<WearState>,
    faults: FaultMap,
    ledger: OpLedger,
    endurance_failures: u64,
    spare: Option<SparePool>,
    retired_rows: u64,
    rng: SmallRng,
}

/// Spare-row repair bookkeeping: the last `reserved` physical rows are
/// withheld from the host; logical rows whose stuck-cell population
/// reaches `threshold` are transparently remapped onto them.
#[derive(Debug, Clone)]
struct SparePool {
    reserved: usize,
    used: usize,
    threshold: usize,
    /// Logical row → physical row (identity until a retirement).
    remap: Vec<usize>,
}

impl std::fmt::Debug for Crossbar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Crossbar")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("tech", &self.tech.name)
            .field("ones", &self.bits.count_ones())
            .field("faults", &self.faults.len())
            .finish()
    }
}

impl Crossbar {
    /// Creates an RRAM 1T1R crossbar with the paper's Fig. 9 device
    /// parameters and a 0.1 V read voltage (Fig. 3).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn rram(rows: usize, cols: usize) -> Self {
        Self::with_technology(CellTechnology::rram_1t1r(), SwitchParams::paper_fig9(), rows, cols)
    }

    /// Creates a crossbar over an explicit technology and device model.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn with_technology(
        tech: CellTechnology,
        device: SwitchParams,
        rows: usize,
        cols: usize,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be nonzero");
        Self {
            rows,
            cols,
            bits: BitMatrix::new(rows, cols),
            tech,
            device,
            read_voltage: Volts::from_millivolts(100.0),
            variability: None,
            endurance: None,
            wear: Vec::new(),
            faults: FaultMap::new(),
            ledger: OpLedger::new(),
            endurance_failures: 0,
            spare: None,
            retired_rows: 0,
            rng: SmallRng::seed_from_u64(0x5EED),
        }
    }

    /// Attaches device-to-device variability, sampling every cell's
    /// resistance pair with the given seed (builder-style).
    #[must_use]
    pub fn with_variability(mut self, model: VariabilityModel, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let samples = (0..self.rows * self.cols)
            .map(|_| model.sample_device(self.device.r_low, self.device.r_high, &mut rng))
            .collect();
        self.variability = Some((model, samples));
        self.rng = rng;
        self
    }

    /// Attaches an endurance budget per cell (builder-style). Worn-out
    /// cells become stuck at their final value; see
    /// [`endurance_failures`](Self::endurance_failures).
    #[must_use]
    pub fn with_endurance(mut self, model: EnduranceModel) -> Self {
        self.endurance = Some(model);
        self.wear = vec![WearState::new(); self.rows * self.cols];
        self
    }

    /// Reserves the last `spares` physical rows as repair spares
    /// (builder-style): the host sees `rows − spares` logical rows, and
    /// any logical row accumulating `threshold` or more stuck cells is
    /// transparently retired — its best-known contents are re-programmed
    /// into a fresh spare and the remap table
    /// ([`remap_table`](CrossbarBackend::remap_table)) is updated. Once every spare
    /// is in use, the next retirement surfaces as
    /// [`CrossbarError::ExhaustedSpares`].
    ///
    /// # Panics
    ///
    /// Panics if `spares` does not leave at least one logical row, or if
    /// `threshold` is zero.
    #[must_use]
    pub fn with_spare_rows(mut self, spares: usize, threshold: usize) -> Self {
        assert!(spares < self.rows, "spare rows must leave at least one logical row");
        assert!(threshold > 0, "fault threshold must be at least one stuck cell");
        self.spare = Some(SparePool {
            reserved: spares,
            used: 0,
            threshold,
            remap: (0..self.rows - spares).collect(),
        });
        self
    }

    /// The physical row currently backing a logical row.
    fn phys(&self, row: usize) -> usize {
        match &self.spare {
            Some(pool) => pool.remap[row],
            None => row,
        }
    }

    /// The technology model in use.
    pub fn technology(&self) -> &CellTechnology {
        &self.tech
    }

    /// The activity ledger.
    pub fn ledger(&self) -> &OpLedger {
        &self.ledger
    }

    /// The fault map (mutable, for fault-injection campaigns). Fault
    /// coordinates are *physical*: with spare rows configured, run
    /// [`audit`](Self::audit) after an injection campaign to apply the
    /// retirement policy (in-band wear-out retires rows automatically).
    pub fn faults_mut(&mut self) -> &mut FaultMap {
        &mut self.faults
    }

    /// The fault map.
    pub fn faults(&self) -> &FaultMap {
        &self.faults
    }

    /// Count of cells that wore out during programming.
    pub fn endurance_failures(&self) -> u64 {
        self.endurance_failures
    }

    /// Spare rows reserved at construction (0 when repair is off).
    pub fn spare_rows(&self) -> usize {
        self.spare.as_ref().map_or(0, |p| p.reserved)
    }

    /// Spare rows not yet consumed by a retirement.
    pub fn spares_remaining(&self) -> usize {
        self.spare.as_ref().map_or(0, |p| p.reserved - p.used)
    }

    /// The stuck-cell count at which a row is retired, if repair is on.
    pub fn fault_threshold(&self) -> Option<usize> {
        self.spare.as_ref().map(|p| p.threshold)
    }

    /// Logical rows retired onto spares so far.
    pub fn retired_rows(&self) -> u64 {
        self.retired_rows
    }

    /// Sweeps every logical row against the retirement policy —
    /// the hook to run after an external fault-injection campaign (the
    /// in-band path retires rows as programming wears them out).
    /// Returns how many rows were retired.
    ///
    /// # Errors
    ///
    /// [`CrossbarError::ExhaustedSpares`] as soon as a row needs
    /// retirement with no spare left.
    pub fn audit(&mut self) -> Result<u64, CrossbarError> {
        let mut retired = 0;
        for row in 0..self.rows() {
            if self.maybe_retire(row)? {
                retired += 1;
            }
        }
        Ok(retired)
    }

    /// Retires `logical` onto fresh spares for as long as its backing
    /// physical row holds `threshold`+ stuck cells. Copies the
    /// best-known row contents into each replacement (a real repair
    /// write, paid through the ledger).
    fn maybe_retire(&mut self, logical: usize) -> Result<bool, CrossbarError> {
        let mut retired_any = false;
        loop {
            let Some(pool) = &self.spare else { return Ok(retired_any) };
            let pr = pool.remap[logical];
            if self.faults.row_fault_count(pr) < pool.threshold {
                return Ok(retired_any);
            }
            if pool.used >= pool.reserved {
                return Err(CrossbarError::ExhaustedSpares { row: logical, spares: pool.reserved });
            }
            let target = (self.rows - pool.reserved) + pool.used;
            let data = self.bits.row(pr).clone();
            self.program_physical_row(target, &data);
            let pool = self.spare.as_mut().expect("checked above");
            pool.remap[logical] = target;
            pool.used += 1;
            self.retired_rows += 1;
            retired_any = true;
        }
    }

    /// The *logical* (programmed) value of a cell — a model query, free
    /// of charge and energy.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid indices.
    pub fn get(&self, row: usize, col: usize) -> Result<bool, CrossbarError> {
        self.check(row, col)?;
        Ok(self.bits.get(self.phys(row), col))
    }

    /// Layout area of the array.
    pub fn area(&self) -> SquareMicrometers {
        self.tech.array_area(self.rows, self.cols)
    }

    /// Static (leakage) power of the array.
    pub fn static_power(&self) -> Watts {
        self.tech.static_power(self.rows * self.cols)
    }

    fn check(&self, row: usize, col: usize) -> Result<(), CrossbarError> {
        if row >= self.rows() || col >= self.cols {
            return Err(CrossbarError::OutOfBounds {
                row,
                col,
                rows: self.rows(),
                cols: self.cols,
            });
        }
        Ok(())
    }

    fn cell_index(&self, row: usize, col: usize) -> usize {
        row * self.cols + col
    }

    /// The physical resistance a cell presents at read time, including
    /// faults, variability and endurance window-closure.
    fn cell_resistance(&self, row: usize, col: usize) -> Ohms {
        let observed = self.faults.observed(row, col, self.bits.get(row, col));
        let (r_low, r_high) = match &self.variability {
            Some((_, samples)) => {
                let s = samples[self.cell_index(row, col)];
                (s.r_low, s.r_high)
            }
            None => (self.device.r_low, self.device.r_high),
        };
        if observed {
            r_low
        } else if let Some(model) = &self.endurance {
            model.effective_r_off(r_low, r_high, &self.wear[self.cell_index(row, col)])
        } else {
            r_high
        }
    }

    // ------------------------------------------------------------------
    // Programming
    // ------------------------------------------------------------------

    /// Writes `value` into one *physical* cell — the only per-cell
    /// commit, shared by cell writes, row writes and spare-repair
    /// copies. A switching cell spends an endurance cycle and draws a
    /// fresh cycle-to-cycle resistance sample; a cell that wears out is
    /// left stuck at the value it was just given. Ledger charges are
    /// the caller's, one pulse per [`Commit::pulsed`] cell.
    fn commit(&mut self, row: usize, col: usize, value: bool) -> Commit {
        if let Some(stuck) = self.faults.stuck_value(row, col) {
            return Commit::Stuck { wasted: stuck != value };
        }
        if self.bits.get(row, col) == value {
            return Commit::Unchanged;
        }
        let idx = self.cell_index(row, col);
        let cycle = match self.endurance {
            Some(model) => model.record_cycle(&mut self.wear[idx]),
            None => Ok(()),
        };
        self.bits.set(row, col, value);
        if let Some((model, samples)) = &mut self.variability {
            samples[idx] = model.sample_cycle(&samples[idx], &mut self.rng);
        }
        match cycle {
            Ok(()) => Commit::Flipped,
            Err(e) => {
                self.endurance_failures += 1;
                self.faults.inject_stuck_at(row, col, value);
                Commit::WornOut(e)
            }
        }
    }

    /// Programs one cell. A no-op (same value) costs nothing; a state
    /// change consumes one endurance cycle and the technology's
    /// programming energy. A stuck cell silently ignores the write; it
    /// still costs the pulse when its stuck value differs from `value`,
    /// because there is no way to know the pulse failed without a
    /// verify read.
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid indices and
    /// [`CrossbarError::Endurance`] when the cell's budget is exhausted —
    /// the wear-out write itself completes, after which the cell is
    /// stuck. With spare rows configured
    /// ([`with_spare_rows`](Self::with_spare_rows)), a wear-out that
    /// pushes the row over its fault threshold retires it onto a spare
    /// instead — the write then reports `Ok` (the row is healthy again)
    /// unless no spare is left
    /// ([`CrossbarError::ExhaustedSpares`]).
    pub fn program_bit(
        &mut self,
        row: usize,
        col: usize,
        value: bool,
    ) -> Result<(), CrossbarError> {
        self.check(row, col)?;
        let commit = self.commit(self.phys(row), col, value);
        if commit.pulsed() {
            self.ledger.record_program(1, self.tech.program_energy, self.tech.program_latency);
        }
        if let Commit::WornOut(e) = commit {
            // A retirement repairs the logical row onto a spare with this
            // write's value in place; the worn cell stays behind.
            if !self.maybe_retire(row)? {
                return Err(CrossbarError::Endurance(e));
            }
        }
        Ok(())
    }

    /// The raw row-programming cycle on a *physical* row: no remap, no
    /// retirement — shared by host writes and spare-repair copies.
    /// Charges one pulse per [`Commit::pulsed`] cell; returns the
    /// number of cells whose state changed.
    fn program_physical_row(&mut self, row: usize, values: &BitVec) -> u64 {
        let (mut changed, mut pulses) = (0u64, 0u64);
        for col in 0..self.cols {
            let commit = self.commit(row, col, values.get(col));
            changed += u64::from(matches!(commit, Commit::Flipped | Commit::WornOut(_)));
            pulses += u64::from(commit.pulsed());
        }
        if pulses > 0 {
            self.ledger.record_program(
                pulses,
                Joules::new(self.tech.program_energy.as_joules() * pulses as f64),
                self.tech.program_latency,
            );
        }
        changed
    }

    /// Loads a full bit matrix (e.g. an STE configuration).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::WidthMismatch`] if the matrix shape
    /// differs from the array.
    pub fn load(&mut self, data: &BitMatrix) -> Result<u64, CrossbarError> {
        if data.rows() != self.rows() || data.cols() != self.cols {
            return Err(CrossbarError::WidthMismatch {
                got: data.rows() * data.cols(),
                expected: self.rows() * self.cols,
            });
        }
        let mut changed = 0;
        for r in 0..self.rows() {
            changed += self.program_row(r, data.row(r))?;
        }
        Ok(changed)
    }

    // ------------------------------------------------------------------
    // Sensing
    // ------------------------------------------------------------------

    /// Senses the columns `cols` with the *physical* rows `active`
    /// driven, and charges one sensing cycle of that width through
    /// `record` — the only bit-line current loop. Bit `i` of the result
    /// is column `cols.start + i`.
    fn sense(
        &mut self,
        active: &[usize],
        cols: Range<usize>,
        thresholds: SenseThresholds,
        record: fn(&mut OpLedger, Joules, Seconds),
    ) -> BitVec {
        let mut out = BitVec::new(cols.len());
        for (i, col) in cols.clone().enumerate() {
            let current = active
                .iter()
                .map(|&r| (self.read_voltage / self.cell_resistance(r, col)).as_amps())
                .sum();
            if thresholds.sense(Amps::new(current)) {
                out.set(i, true);
            }
        }
        record(
            &mut self.ledger,
            Joules::new(self.tech.analytic_cycle_energy(self.rows).as_joules() * cols.len() as f64),
            self.tech.read_latency(self.rows),
        );
        out
    }

    /// The sense-amplifier reference of a one-row read.
    fn read_reference(&self) -> SenseThresholds {
        SenseThresholds::read(self.read_voltage, self.device.r_low, self.device.r_high)
    }

    /// Reads one cell through the sense amplifier (physical read: faults
    /// and variability apply).
    ///
    /// # Errors
    ///
    /// Returns [`CrossbarError::OutOfBounds`] for invalid indices.
    pub fn read_bit(&mut self, row: usize, col: usize) -> Result<bool, CrossbarError> {
        self.check(row, col)?;
        let reference = self.read_reference();
        Ok(self.sense(&[self.phys(row)], col..col + 1, reference, OpLedger::record_read).get(0))
    }
}

/// What one cell write did (see [`Crossbar::commit`]).
enum Commit {
    /// The cell is stuck; the write was ignored. `wasted` when the
    /// stuck value differs from the target, so the driver pulsed it.
    Stuck { wasted: bool },
    /// The cell already held the value.
    Unchanged,
    /// The cell switched.
    Flipped,
    /// The cell switched and used up its endurance budget; it is now
    /// stuck at the new value.
    WornOut(DeviceError),
}

impl Commit {
    /// The one write rule: a write driver without a verify read pulses
    /// every cell whose observed value differs from the target.
    fn pulsed(&self) -> bool {
        !matches!(self, Commit::Unchanged | Commit::Stuck { wasted: false })
    }
}

impl CrossbarBackend for Crossbar {
    /// Host-addressable rows: physical rows minus any reserved spares.
    fn rows(&self) -> usize {
        match &self.spare {
            Some(pool) => self.rows - pool.reserved,
            None => self.rows,
        }
    }

    fn cols(&self) -> usize {
        self.cols
    }

    /// Cells that wear out are recorded as stuck (see
    /// [`endurance_failures`](Crossbar::endurance_failures)) without
    /// aborting the row. With spare rows configured, a row that crosses
    /// its fault threshold is retired onto a spare, or fails with
    /// [`CrossbarError::ExhaustedSpares`] when none is left.
    fn program_row(&mut self, row: usize, values: &BitVec) -> Result<u64, CrossbarError> {
        self.check(row, 0)?;
        if values.len() != self.cols {
            return Err(CrossbarError::WidthMismatch { got: values.len(), expected: self.cols });
        }
        let changed = self.program_physical_row(self.phys(row), values);
        self.maybe_retire(row)?;
        Ok(changed)
    }

    fn read_row(&mut self, row: usize) -> Result<BitVec, CrossbarError> {
        self.check(row, 0)?;
        let reference = self.read_reference();
        Ok(self.sense(&[self.phys(row)], 0..self.cols, reference, OpLedger::record_read))
    }

    fn scouting(&mut self, kind: ScoutingKind, rows: &[usize]) -> Result<BitVec, CrossbarError> {
        kind.validate_selection(rows)?;
        for &r in rows {
            self.check(r, 0)?;
        }
        let thresholds = SenseThresholds::for_gate(
            kind,
            rows.len(),
            self.read_voltage,
            self.device.r_low,
            self.device.r_high,
        );
        // Activation drives the *physical* word lines backing the
        // selected logical rows. The remap is identity until the first
        // retirement, so the healthy-lifetime hot path stays
        // allocation-free on the borrowed selection.
        let phys_storage;
        let active: &[usize] = if self.spare.as_ref().is_some_and(|pool| pool.used > 0) {
            phys_storage = rows.iter().map(|&r| self.phys(r)).collect::<Vec<_>>();
            &phys_storage
        } else {
            rows
        };
        Ok(self.sense(active, 0..self.cols, thresholds, OpLedger::record_scouting))
    }

    fn ledger_parts(&self) -> Vec<OpLedger> {
        vec![self.ledger]
    }

    fn remap_table(&self) -> Vec<RemapEntry> {
        match &self.spare {
            Some(pool) => pool
                .remap
                .iter()
                .enumerate()
                .filter(|&(logical, &physical)| logical != physical)
                .map(|(logical, &physical)| RemapEntry { bank: 0, logical, physical })
                .collect(),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> Crossbar {
        Crossbar::rram(8, 64)
    }

    #[test]
    fn program_then_read_round_trips() {
        let mut x = array();
        x.program_bit(2, 7, true).expect("program");
        assert!(x.read_bit(2, 7).expect("read"));
        assert!(!x.read_bit(2, 8).expect("read"));
    }

    #[test]
    fn scouting_matches_boolean_reference() {
        let mut x = array();
        let a = BitVec::from_indices(64, &[0, 5, 10, 63]);
        let b = BitVec::from_indices(64, &[5, 10, 20]);
        x.program_row(0, &a).expect("row 0");
        x.program_row(1, &b).expect("row 1");
        assert_eq!(x.scouting(ScoutingKind::Or, &[0, 1]).expect("or"), a.or(&b));
        assert_eq!(x.scouting(ScoutingKind::And, &[0, 1]).expect("and"), a.and(&b));
        assert_eq!(x.scouting(ScoutingKind::Xor, &[0, 1]).expect("xor"), a.xor(&b));
    }

    #[test]
    fn complemented_gates_at_array_level() {
        let mut x = array();
        let a = BitVec::from_indices(64, &[0, 5, 10]);
        let b = BitVec::from_indices(64, &[5, 20]);
        x.program_row(0, &a).expect("r0");
        x.program_row(1, &b).expect("r1");
        assert_eq!(x.scouting(ScoutingKind::Nor, &[0, 1]).expect("nor"), a.or(&b).not());
        assert_eq!(x.scouting(ScoutingKind::Nand, &[0, 1]).expect("nand"), a.and(&b).not());
        assert_eq!(x.scouting(ScoutingKind::Xnor, &[0, 1]).expect("xnor"), a.xor(&b).not());
        assert!(x.scouting(ScoutingKind::Xnor, &[0, 1, 2]).is_err());
    }

    #[test]
    fn multi_row_or_and() {
        let mut x = array();
        let rows = [
            BitVec::from_indices(64, &[0, 1, 2, 3]),
            BitVec::from_indices(64, &[1, 2, 3, 4]),
            BitVec::from_indices(64, &[2, 3, 4, 5]),
        ];
        for (i, r) in rows.iter().enumerate() {
            x.program_row(i, r).expect("program");
        }
        let or = x.scouting(ScoutingKind::Or, &[0, 1, 2]).expect("or");
        let and = x.scouting(ScoutingKind::And, &[0, 1, 2]).expect("and");
        assert_eq!(or.ones().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(and.ones().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn scouting_write_back_lands_in_destination() {
        let mut x = array();
        x.program_row(0, &BitVec::from_indices(64, &[1, 2])).expect("r0");
        x.program_row(1, &BitVec::from_indices(64, &[2, 3])).expect("r1");
        let r = x.scouting_write(ScoutingKind::And, &[0, 1], 7).expect("write");
        assert_eq!(r.ones().collect::<Vec<_>>(), vec![2]);
        assert!(x.get(7, 2).expect("dest"));
        assert!(!x.get(7, 1).expect("dest"));
    }

    #[test]
    fn invalid_selections_are_rejected() {
        let mut x = array();
        assert!(matches!(
            x.scouting(ScoutingKind::Or, &[0]),
            Err(CrossbarError::InvalidRowSelection { .. })
        ));
        assert!(matches!(
            x.scouting(ScoutingKind::Or, &[0, 0]),
            Err(CrossbarError::InvalidRowSelection { .. })
        ));
        assert!(matches!(
            x.scouting(ScoutingKind::Xor, &[0, 1, 2]),
            Err(CrossbarError::InvalidRowSelection { .. })
        ));
        assert!(matches!(
            x.scouting(ScoutingKind::Or, &[0, 99]),
            Err(CrossbarError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn ledger_accounts_for_operations() {
        let mut x = array();
        x.program_row(0, &BitVec::from_indices(64, &[0, 1])).expect("program");
        let _ = x.read_row(0).expect("read");
        let _ = x.scouting(ScoutingKind::Or, &[0, 1]).expect("scout");
        assert_eq!(x.ledger().programs(), 1);
        assert_eq!(x.ledger().bits_programmed(), 2);
        assert_eq!(x.ledger().reads(), 1);
        assert_eq!(x.ledger().scouting_ops(), 1);
        assert!(x.ledger().energy().as_joules() > 0.0);
    }

    #[test]
    fn reprogramming_same_value_is_free() {
        let mut x = array();
        x.program_bit(0, 0, true).expect("first");
        let e1 = x.ledger().energy();
        x.program_bit(0, 0, true).expect("no-op");
        assert_eq!(x.ledger().energy(), e1);
    }

    #[test]
    fn stuck_at_fault_defeats_programming() {
        let mut x = array();
        x.faults_mut().inject_stuck_at(0, 3, false);
        x.program_bit(0, 3, true).expect("write is accepted");
        assert!(!x.read_bit(0, 3).expect("read"), "stuck-at-0 wins");
        // Scouting sees the fault too.
        x.program_row(1, &BitVec::from_indices(64, &[3])).expect("r1");
        let or = x.scouting(ScoutingKind::Or, &[0, 1]).expect("or");
        assert!(or.get(3), "row 1 carries the 1");
        let and = x.scouting(ScoutingKind::And, &[0, 1]).expect("and");
        assert!(!and.get(3), "stuck row 0 kills the AND");
    }

    /// `(bits_programmed, programs)` after writing `value` into the
    /// stuck-at-0 cell (0, 3) through `write`, which must leave the cell
    /// reading 0 with its logical value untouched.
    fn stuck_write_charge(value: bool, write: fn(&mut Crossbar, bool)) -> (u64, u64) {
        let mut x = array();
        x.faults_mut().inject_stuck_at(0, 3, false);
        write(&mut x, value);
        assert!(!x.get(0, 3).expect("in range"), "no state change");
        assert!(!x.read_bit(0, 3).expect("read"), "stuck-at-0 wins");
        (x.ledger().bits_programmed(), x.ledger().programs())
    }

    #[test]
    fn a_stuck_cell_costs_a_pulse_only_when_the_target_differs() {
        let bit = |x: &mut Crossbar, v: bool| x.program_bit(0, 3, v).expect("accepted");
        let row = |x: &mut Crossbar, v: bool| {
            let values = BitVec::from_bools(&(0..64).map(|c| v && c == 3).collect::<Vec<_>>());
            assert_eq!(x.program_row(0, &values).expect("accepted"), 0, "nothing changed");
        };
        for write in [bit as fn(&mut Crossbar, bool), row] {
            assert_eq!(stuck_write_charge(false, write), (0, 0), "stuck value: free");
            assert_eq!(stuck_write_charge(true, write), (1, 1), "other value: one pulse");
        }
    }

    #[test]
    fn wear_is_allocated_only_with_an_endurance_model() {
        assert!(Crossbar::rram(4, 8).wear.is_empty());
        let worn = Crossbar::rram(4, 8).with_endurance(EnduranceModel::new(3));
        assert_eq!(worn.wear.len(), 4 * 8);
    }

    #[test]
    fn endurance_exhaustion_sticks_cells() {
        let mut x = Crossbar::rram(2, 4).with_endurance(EnduranceModel::new(3));
        // Toggle one bit until its 3-cycle budget is gone.
        x.program_bit(0, 0, true).expect("cycle 1");
        x.program_bit(0, 0, false).expect("cycle 2");
        let err = x.program_bit(0, 0, true).expect_err("cycle 3 exhausts");
        assert!(matches!(err, CrossbarError::Endurance(_)));
        assert_eq!(x.endurance_failures(), 1);
        // The final write completed; the cell is now stuck at `true`.
        assert!(x.read_bit(0, 0).expect("read"));
        x.program_bit(0, 0, false).expect("silently ignored");
        assert!(x.read_bit(0, 0).expect("read"), "stuck");
    }

    #[test]
    fn row_programming_survives_wearout_without_abort() {
        let mut x = Crossbar::rram(1, 8).with_endurance(EnduranceModel::new(2));
        let ones = BitVec::from_indices(8, &(0..8).collect::<Vec<_>>());
        let zeros = BitVec::new(8);
        x.program_row(0, &ones).expect("cycle 1 each");
        let changed = x.program_row(0, &zeros).expect("cycle 2 wears out every cell");
        assert_eq!(changed, 8);
        assert_eq!(x.endurance_failures(), 8);
        // All cells stuck at 0 now.
        let changed_after = x.program_row(0, &ones).expect("ignored");
        assert_eq!(changed_after, 0);
    }

    #[test]
    fn variability_with_typical_spread_preserves_logic() {
        let mut x = Crossbar::rram(4, 128).with_variability(VariabilityModel::typical(), 42);
        let a = BitVec::from_indices(128, &(0..128).step_by(3).collect::<Vec<_>>());
        let b = BitVec::from_indices(128, &(0..128).step_by(5).collect::<Vec<_>>());
        x.program_row(0, &a).expect("r0");
        x.program_row(1, &b).expect("r1");
        assert_eq!(x.scouting(ScoutingKind::And, &[0, 1]).expect("and"), a.and(&b));
        assert_eq!(x.scouting(ScoutingKind::Or, &[0, 1]).expect("or"), a.or(&b));
    }

    #[test]
    fn area_and_static_power_reflect_technology() {
        let rram = Crossbar::rram(256, 256);
        let sram = Crossbar::with_technology(
            CellTechnology::sram_8t(),
            SwitchParams::paper_fig9(),
            256,
            256,
        );
        assert!(sram.area().as_square_micrometers() > 10.0 * rram.area().as_square_micrometers());
        assert_eq!(rram.static_power().as_watts(), 0.0);
        assert!(sram.static_power().as_watts() > 0.0);
    }

    #[test]
    fn spare_rows_shrink_the_host_view() {
        let x = Crossbar::rram(8, 16).with_spare_rows(3, 1);
        assert_eq!(x.rows(), 5);
        assert_eq!(x.spare_rows(), 3);
        assert_eq!(x.spares_remaining(), 3);
        assert_eq!(x.fault_threshold(), Some(1));
        assert!(x.remap_table().is_empty());
    }

    #[test]
    fn wearout_retires_the_row_onto_a_spare_transparently() {
        let mut x =
            Crossbar::rram(4, 8).with_spare_rows(2, 1).with_endurance(EnduranceModel::new(2));
        let ones = BitVec::from_indices(8, &[0, 1, 2]);
        let zeros = BitVec::new(8);
        x.program_row(0, &ones).expect("cycle 1");
        // Cycle 2 wears out the three toggled cells → threshold crossed
        // → the row is copied onto physical row 2 (first spare).
        x.program_row(0, &zeros).expect("retired, not failed");
        assert_eq!(x.retired_rows(), 1);
        assert_eq!(x.spares_remaining(), 1);
        assert_eq!(x.remap_table(), vec![RemapEntry { bank: 0, logical: 0, physical: 2 }]);
        // The spare carries the intended contents and accepts writes.
        assert_eq!(x.read_row(0).expect("read").count_ones(), 0);
        x.program_row(0, &ones).expect("healthy spare takes the write");
        assert_eq!(x.read_row(0).expect("read"), ones);
    }

    #[test]
    fn exhausted_spares_surface_as_an_error() {
        let mut x =
            Crossbar::rram(3, 4).with_spare_rows(1, 1).with_endurance(EnduranceModel::new(2));
        let ones = BitVec::from_indices(4, &[0]);
        let zeros = BitVec::new(4);
        x.program_row(0, &ones).expect("cycle 1");
        x.program_row(0, &zeros).expect("first wear-out retires onto the spare");
        assert_eq!(x.spares_remaining(), 0);
        // Wear out the spare too: no repair candidate remains.
        x.program_row(0, &ones).expect("cycle 1 on the spare");
        let err = x.program_row(0, &zeros).expect_err("no spare left");
        assert_eq!(err, CrossbarError::ExhaustedSpares { row: 0, spares: 1 });
        assert!(err.is_fault_fatal());
    }

    #[test]
    fn audit_applies_the_policy_after_external_injection() {
        let mut x = Crossbar::rram(6, 8).with_spare_rows(2, 2);
        // One stuck cell in row 1 (below threshold), two in row 3.
        x.faults_mut().inject_stuck_at(1, 0, true);
        x.faults_mut().inject_stuck_at(3, 2, true);
        x.faults_mut().inject_stuck_at(3, 5, false);
        assert_eq!(x.audit().expect("spares available"), 1);
        assert_eq!(x.remap_table(), vec![RemapEntry { bank: 0, logical: 3, physical: 4 }]);
        // Row 3 now reads clean; row 1's single fault still shows.
        x.program_row(3, &BitVec::from_indices(8, &[2])).expect("program");
        assert_eq!(x.read_row(3).expect("read").ones().collect::<Vec<_>>(), vec![2]);
        assert_eq!(x.audit().expect("stable"), 0, "audit is idempotent");
    }

    #[test]
    fn scouting_follows_the_remap() {
        let mut x = Crossbar::rram(5, 8).with_spare_rows(1, 1);
        let a = BitVec::from_indices(8, &[0, 1]);
        let b = BitVec::from_indices(8, &[1, 2]);
        x.program_row(0, &a).expect("r0");
        x.program_row(1, &b).expect("r1");
        // Break physical row 0 badly and retire it.
        x.faults_mut().inject_stuck_at(0, 7, true);
        x.audit().expect("retire row 0");
        assert_eq!(x.remap_table().len(), 1);
        // Scouting must activate the spare, not the broken word line.
        assert_eq!(x.scouting(ScoutingKind::And, &[0, 1]).expect("and"), a.and(&b));
        assert_eq!(x.read_row(0).expect("read"), a);
    }

    #[test]
    fn out_of_bounds_uses_the_logical_row_count() {
        let mut x = Crossbar::rram(8, 4).with_spare_rows(3, 1);
        let err = x.read_row(5).expect_err("row 5 is a spare");
        assert!(matches!(err, CrossbarError::OutOfBounds { row: 5, rows: 5, .. }));
    }

    #[test]
    fn load_full_matrix() {
        let mut x = Crossbar::rram(3, 16);
        let mut m = BitMatrix::new(3, 16);
        m.set(0, 0, true);
        m.set(1, 8, true);
        m.set(2, 15, true);
        let changed = x.load(&m).expect("load");
        assert_eq!(changed, 3);
        assert!(x.get(2, 15).expect("get"));
        let bad = BitMatrix::new(2, 16);
        assert!(x.load(&bad).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Scouting over an ideal array is exactly boolean logic for any
        /// row contents (the Fig. 3 claim).
        #[test]
        fn scouting_equals_boolean_ops(
            a_bits in proptest::collection::vec(any::<bool>(), 64),
            b_bits in proptest::collection::vec(any::<bool>(), 64),
        ) {
            let mut x = Crossbar::rram(2, 64);
            let a = BitVec::from_bools(&a_bits);
            let b = BitVec::from_bools(&b_bits);
            x.program_row(0, &a).expect("r0");
            x.program_row(1, &b).expect("r1");
            prop_assert_eq!(x.scouting(ScoutingKind::Or, &[0, 1]).expect("or"), a.or(&b));
            prop_assert_eq!(x.scouting(ScoutingKind::And, &[0, 1]).expect("and"), a.and(&b));
            prop_assert_eq!(x.scouting(ScoutingKind::Xor, &[0, 1]).expect("xor"), a.xor(&b));
        }
    }
}
