//! Per-cell technology models and the calibration constants of Fig. 9.
//!
//! Every technology-dependent number in the workspace originates here.
//! The RRAM and SRAM constants are calibrated so that the *analytic*
//! bit-line model reproduces the paper's Fig. 9 HSPICE targets:
//!
//! | quantity                    | paper (HSPICE) | analytic model |
//! |-----------------------------|----------------|----------------|
//! | RRAM discharge (0.4→0.1 V)  | 104 ps         | ≈103 ps        |
//! | SRAM discharge              | 161 ps         | ≈159 ps        |
//! | RRAM cycle energy           | 2.09 fJ        | ≈2.09 fJ       |
//! | SRAM cycle energy           | 5.16 fJ        | ≈5.16 fJ       |
//!
//! and the transient simulation in [`crate::BitlineCircuit`] is checked
//! against both (see `tests/fig9_calibration.rs` at the workspace root).

use memcim_spice::MosfetParams;
use memcim_units::{Farads, Joules, Ohms, Seconds, SquareMicrometers, Volts, Watts};

/// A bit-cell technology: everything the array, AP and MVP models need to
/// cost an operation.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTechnology {
    /// Technology name for reports.
    pub name: &'static str,
    /// Feature size F in nanometres.
    pub feature_nm: f64,
    /// Cell layout area in F².
    pub cell_area_f2: f64,
    /// Per-cell bit-line capacitance (junction + wire share).
    pub cell_bitline_cap: Farads,
    /// Discharge-path resistance when the selected cell conducts
    /// (access device(s) plus storage element).
    pub discharge_resistance: Ohms,
    /// Bit-line precharge voltage.
    pub precharge: Volts,
    /// Sense threshold: the bit line must fall to this level to read 1.
    pub sense_level: Volts,
    /// Energy to program one bit (SET or RESET average).
    pub program_energy: Joules,
    /// Latency to program one bit.
    pub program_latency: Seconds,
    /// Word-line-to-sense latency overhead on top of the discharge time
    /// (decoder + SA resolution).
    pub peripheral_latency: Seconds,
    /// Static leakage per cell.
    pub leakage_per_cell: Watts,
    /// Whether the cell retains state without power.
    pub non_volatile: bool,
    /// Access-transistor model used by the explicit transient netlist.
    pub access_transistor: MosfetParams,
    /// Number of series transistors in the discharge path (1 for 1T1R,
    /// 2 for the 8T SRAM read port).
    pub series_transistors: u32,
}

impl CellTechnology {
    /// The paper's 1T1R RRAM cell (Fig. 8b) at 32 nm.
    ///
    /// Discharge path: one access NMOS (≈3.28 kΩ in deep triode) in
    /// series with the 1 kΩ ON-state memristor. Per-cell bit-line load:
    /// 45 aF drain junction + 23 aF wire share.
    pub fn rram_1t1r() -> Self {
        Self {
            name: "RRAM-1T1R",
            feature_nm: 32.0,
            cell_area_f2: 12.0,
            cell_bitline_cap: Farads::from_attofarads(45.0 + 23.0),
            discharge_resistance: Ohms::new(3280.0 + 1000.0),
            precharge: Volts::new(0.4),
            sense_level: Volts::new(0.1),
            program_energy: Joules::from_picojoules(2.0),
            program_latency: Seconds::from_nanoseconds(10.0),
            peripheral_latency: Seconds::from_picoseconds(250.0),
            leakage_per_cell: Watts::new(0.0),
            non_volatile: true,
            access_transistor: MosfetParams::ptm32_access_nmos(),
            series_transistors: 1,
        }
    }

    /// The 8T SRAM cell of the Cache Automaton comparison (Fig. 8c) at
    /// 32 nm.
    ///
    /// Discharge path: two read-port NMOS in series (≈1.33 kΩ each; the
    /// read port is drawn ≈2.5× wider than the RRAM access device, which
    /// is why its parasitic load is proportionally larger). Per-cell
    /// bit-line load: 145 aF transistor parasitics + 23 aF wire share.
    pub fn sram_8t() -> Self {
        Self {
            name: "SRAM-8T",
            feature_nm: 32.0,
            cell_area_f2: 250.0,
            cell_bitline_cap: Farads::from_attofarads(145.0 + 23.0),
            discharge_resistance: Ohms::new(2.0 * 1333.0),
            precharge: Volts::new(0.4),
            sense_level: Volts::new(0.1),
            program_energy: Joules::from_femtojoules(150.0),
            program_latency: Seconds::from_picoseconds(300.0),
            peripheral_latency: Seconds::from_picoseconds(250.0),
            leakage_per_cell: Watts::new(15.0e-9),
            non_volatile: false,
            access_transistor: MosfetParams::ptm32_readport_nmos(),
            series_transistors: 2,
        }
    }

    /// A 1T1C DRAM cell (the Micron AP substrate and the MVP DRAM model).
    pub fn dram_1t1c() -> Self {
        Self {
            name: "DRAM-1T1C",
            feature_nm: 32.0,
            cell_area_f2: 8.0,
            cell_bitline_cap: Farads::from_attofarads(90.0),
            discharge_resistance: Ohms::new(8000.0),
            precharge: Volts::new(0.5),
            sense_level: Volts::new(0.25),
            program_energy: Joules::from_femtojoules(500.0),
            program_latency: Seconds::from_nanoseconds(10.0),
            peripheral_latency: Seconds::from_nanoseconds(2.0),
            leakage_per_cell: Watts::new(1.0e-9), // refresh-equivalent
            non_volatile: false,
            access_transistor: MosfetParams::ptm32_access_nmos(),
            series_transistors: 1,
        }
    }

    /// Total bit-line capacitance for `n_cells` on one column.
    pub fn bitline_capacitance(&self, n_cells: usize) -> Farads {
        Farads::new(self.cell_bitline_cap.as_farads() * n_cells as f64)
    }

    /// First-order RC estimate of the discharge time from `precharge` to
    /// `sense_level` with one conducting cell:
    /// `t = R·C·ln(V_pre / V_sense)`.
    pub fn analytic_discharge_time(&self, n_cells: usize) -> Seconds {
        let tau = self.discharge_resistance * self.bitline_capacitance(n_cells);
        tau * (self.precharge.as_volts() / self.sense_level.as_volts()).ln()
    }

    /// First-order estimate of one evaluate-and-recharge cycle's energy:
    /// the precharge supply re-delivers `C·V_pre·(V_pre − V_sense)`.
    pub fn analytic_cycle_energy(&self, n_cells: usize) -> Joules {
        let c = self.bitline_capacitance(n_cells).as_farads();
        let swing = self.precharge.as_volts() - self.sense_level.as_volts();
        Joules::new(c * self.precharge.as_volts() * swing)
    }

    /// One read/evaluate cycle's latency: discharge plus peripheral
    /// overhead.
    pub fn read_latency(&self, n_cells: usize) -> Seconds {
        self.analytic_discharge_time(n_cells) + self.peripheral_latency
    }

    /// Cell area in square micrometres.
    pub fn cell_area(&self) -> SquareMicrometers {
        let f_um = self.feature_nm * 1.0e-3;
        SquareMicrometers::new(self.cell_area_f2 * f_um * f_um)
    }

    /// Layout area of a `rows × cols` array including a peripheral
    /// overhead factor (decoders, sense amplifiers, drivers): 30 %.
    pub fn array_area(&self, rows: usize, cols: usize) -> SquareMicrometers {
        self.cell_area() * (rows as f64 * cols as f64) * 1.3
    }

    /// Static power of `cells` bit cells.
    pub fn static_power(&self, cells: usize) -> Watts {
        self.leakage_per_cell * cells as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcim_units::{approx_eq, RelTol};

    #[test]
    fn rram_discharge_calibration_hits_paper_target() {
        let t = CellTechnology::rram_1t1r().analytic_discharge_time(256);
        assert!(
            approx_eq(t.as_picoseconds(), 104.0, RelTol::new(0.05)),
            "t = {} ps",
            t.as_picoseconds()
        );
    }

    #[test]
    fn sram_discharge_calibration_hits_paper_target() {
        let t = CellTechnology::sram_8t().analytic_discharge_time(256);
        assert!(
            approx_eq(t.as_picoseconds(), 161.0, RelTol::new(0.05)),
            "t = {} ps",
            t.as_picoseconds()
        );
    }

    #[test]
    fn cycle_energy_calibration_hits_paper_targets() {
        let e_rram = CellTechnology::rram_1t1r().analytic_cycle_energy(256);
        let e_sram = CellTechnology::sram_8t().analytic_cycle_energy(256);
        assert!(approx_eq(e_rram.as_femtojoules(), 2.09, RelTol::new(0.05)), "{e_rram}");
        assert!(approx_eq(e_sram.as_femtojoules(), 5.16, RelTol::new(0.05)), "{e_sram}");
    }

    #[test]
    fn headline_ratios_match_the_paper() {
        // "The discharge time through RRAM is 35 % less than SRAM" and
        // "the energy is 59 % less".
        let rram = CellTechnology::rram_1t1r();
        let sram = CellTechnology::sram_8t();
        let delay_saving = 1.0
            - rram.analytic_discharge_time(256).as_seconds()
                / sram.analytic_discharge_time(256).as_seconds();
        let energy_saving = 1.0
            - rram.analytic_cycle_energy(256).as_joules()
                / sram.analytic_cycle_energy(256).as_joules();
        assert!((0.30..0.40).contains(&delay_saving), "delay saving {delay_saving}");
        assert!((0.55..0.63).contains(&energy_saving), "energy saving {energy_saving}");
    }

    #[test]
    fn rram_cell_is_an_order_of_magnitude_denser_than_8t_sram() {
        let rram = CellTechnology::rram_1t1r().cell_area();
        let sram = CellTechnology::sram_8t().cell_area();
        assert!(sram.as_square_micrometers() / rram.as_square_micrometers() > 10.0);
    }

    #[test]
    fn rram_has_zero_standby_power() {
        let rram = CellTechnology::rram_1t1r();
        assert!(rram.non_volatile);
        assert_eq!(rram.static_power(1 << 20).as_watts(), 0.0);
        let sram = CellTechnology::sram_8t();
        assert!(sram.static_power(1 << 20).as_watts() > 0.0);
    }

    #[test]
    fn discharge_time_scales_linearly_with_cells() {
        let tech = CellTechnology::rram_1t1r();
        let t128 = tech.analytic_discharge_time(128).as_seconds();
        let t256 = tech.analytic_discharge_time(256).as_seconds();
        assert!(approx_eq(t256 / t128, 2.0, RelTol::new(1e-9)));
    }

    #[test]
    fn array_area_includes_peripherals() {
        let tech = CellTechnology::rram_1t1r();
        let a = tech.array_area(256, 256);
        let cells_only = tech.cell_area() * (256.0 * 256.0);
        assert!(a.as_square_micrometers() > cells_only.as_square_micrometers());
    }
}
