//! Integration test F9: the bit-line discharge experiment across model
//! fidelities — paper targets vs analytic model vs transient simulation
//! vs explicit-cell netlist.

use memcim::prelude::*;
use memcim_units::{approx_eq, RelTol};

#[test]
fn analytic_model_hits_paper_targets_within_five_percent() {
    let rram = CellTechnology::rram_1t1r();
    let sram = CellTechnology::sram_8t();
    assert!(approx_eq(
        rram.analytic_discharge_time(256).as_picoseconds(),
        104.0,
        RelTol::new(0.05)
    ));
    assert!(approx_eq(
        sram.analytic_discharge_time(256).as_picoseconds(),
        161.0,
        RelTol::new(0.05)
    ));
    assert!(approx_eq(rram.analytic_cycle_energy(256).as_femtojoules(), 2.09, RelTol::new(0.05)));
    assert!(approx_eq(sram.analytic_cycle_energy(256).as_femtojoules(), 5.16, RelTol::new(0.05)));
}

#[test]
fn transient_preserves_the_papers_ratios() {
    // Absolute transient numbers run ~35 % above the paper (a level-1
    // MOSFET model stands in for the 32 nm PTM cards) — but the paper's
    // *claims* are the ratios: 35 % less delay, 59 % less energy.
    let rram = BitlineCircuit::lumped(CellTechnology::rram_1t1r(), 256).run().expect("rram");
    let sram = BitlineCircuit::lumped(CellTechnology::sram_8t(), 256).run().expect("sram");
    let t_r = rram.discharge_time.expect("discharges").as_seconds();
    let t_s = sram.discharge_time.expect("discharges").as_seconds();
    let delay_saving = 1.0 - t_r / t_s;
    assert!((0.28..0.42).contains(&delay_saving), "delay saving {delay_saving} (paper 0.35)");
    let e_saving = 1.0 - rram.cycle_energy.as_joules() / sram.cycle_energy.as_joules();
    assert!((0.52..0.66).contains(&e_saving), "energy saving {e_saving} (paper 0.59)");
}

#[test]
fn stored_zero_reads_zero_on_both_technologies() {
    for tech in [CellTechnology::rram_1t1r(), CellTechnology::sram_8t()] {
        let name = tech.name;
        let report =
            BitlineCircuit::lumped(tech, 256).with_stored_bit(false).run().expect("solves");
        assert!(!report.reads_one(), "{name}: stored 0 must keep the line high");
        assert!(
            report.bitline_after_evaluate.as_volts() > 0.35,
            "{name}: BL sagged to {}",
            report.bitline_after_evaluate
        );
    }
}

#[test]
fn explicit_netlist_agrees_with_lumped_model() {
    // Cross-fidelity check at 32 cells (CI-sized); the full 256-cell
    // explicit run lives in the fig9_discharge bench (--explicit).
    for tech in [CellTechnology::rram_1t1r(), CellTechnology::sram_8t()] {
        let name = tech.name;
        let lumped = BitlineCircuit::lumped(tech.clone(), 32).run().expect("lumped");
        let explicit = BitlineCircuit::explicit(tech, 32).run().expect("explicit");
        let t_l = lumped.discharge_time.expect("lumped").as_seconds();
        let t_e = explicit.discharge_time.expect("explicit").as_seconds();
        assert!((t_l - t_e).abs() / t_e < 0.3, "{name}: lumped {t_l:.3e} vs explicit {t_e:.3e}");
    }
}

#[test]
fn discharge_time_scales_with_bitline_length() {
    let t64 = BitlineCircuit::lumped(CellTechnology::rram_1t1r(), 64)
        .run()
        .expect("64")
        .discharge_time
        .expect("discharges")
        .as_seconds();
    let t256 = BitlineCircuit::lumped(CellTechnology::rram_1t1r(), 256)
        .run()
        .expect("256")
        .discharge_time
        .expect("discharges")
        .as_seconds();
    let ratio = t256 / t64;
    assert!((2.5..4.5).contains(&ratio), "4× cells ⇒ ≈4× discharge time, got {ratio}");
}

#[test]
fn tridiagonal_and_dense_solvers_agree_on_the_bitline_rc_ladder() {
    // The distributed RC-ladder reading of the Fig. 9 bit line: ten wire
    // segments (series R, shunt C precharged to 0.4 V) discharging
    // through the far-end cell resistance. Its MNA matrix is purely
    // tridiagonal, so `SolverKind::Auto` takes the Thomas fast path on
    // every timestep; forcing `SolverKind::DenseLu` must reproduce the
    // same waveform to solver precision — well inside the 5 % tolerances
    // the calibration tests above hold the lumped model to.
    let run = |solver: SolverKind| {
        let mut ckt = Circuit::new();
        let segments = 10;
        let mut prev = ckt.node("bl0");
        for i in 0..segments {
            let name = format!("bl{i}");
            let node = ckt.node(&name);
            if i > 0 {
                ckt.add_resistor(&format!("Rw{i}"), prev, node, Ohms::new(50.0)).expect("wire");
            }
            ckt.add_capacitor_with_ic(
                &format!("Cs{i}"),
                node,
                Circuit::GROUND,
                Farads::new(8.0e-15),
                Volts::new(0.4),
            )
            .expect("segment cap");
            prev = node;
        }
        ckt.add_resistor("Rcell", prev, Circuit::GROUND, Ohms::from_kilohms(10.0)).expect("cell");
        let trace = Transient::new(Seconds::from_nanoseconds(4.0), Seconds::from_picoseconds(1.0))
            .with_solver(solver)
            .run(&mut ckt)
            .expect("solves");
        let cross = trace
            .cross_time("bl0", Volts::new(0.2), Edge::Falling, Seconds::ZERO)
            .expect("discharges")
            .as_seconds();
        (cross, trace.final_value("bl0").expect("bl0"))
    };
    let (t_thomas, v_thomas) = run(SolverKind::Auto);
    let (t_dense, v_dense) = run(SolverKind::DenseLu);
    assert!(
        approx_eq(t_thomas, t_dense, RelTol::new(1.0e-9)),
        "50% crossing: thomas {t_thomas:.6e} s vs dense {t_dense:.6e} s"
    );
    assert!((v_thomas - v_dense).abs() < 1.0e-9, "final V: {v_thomas} vs {v_dense}");
    // And the ladder really discharges on the RC scale it should.
    assert!((0.3e-9..1.5e-9).contains(&t_thomas), "t = {t_thomas:.3e} s");
}

#[test]
fn wl_driver_energy_is_excluded_from_the_cycle_figure() {
    let report = BitlineCircuit::lumped(CellTechnology::rram_1t1r(), 256).run().expect("solves");
    // Reported separately, and small relative to the bit-line cycle.
    assert!(report.wl_driver_energy.as_joules() < 0.3 * report.cycle_energy.as_joules());
}

#[test]
fn lumped_reports_are_pinned_bit_for_bit() {
    // Exact `f64` bit patterns of the 256-cell lumped reports, so a
    // refactor of the transient engine must reproduce Fig. 9 bit for
    // bit: (technology, stored bit, discharge time, cycle energy,
    // WL-driver energy, BL after evaluate, final BL).
    let pins = [
        (
            CellTechnology::rram_1t1r(),
            true,
            Some(0x3de3_3c9f_59dd_1008_u64),
            0x3ce9_31d4_e580_8556_u64,
            0x3c63_a80e_ab78_668a_u64,
            0x3eb2_2773_43ad_a64c_u64,
            0x3fd9_9999_9013_3f3a_u64,
        ),
        (
            CellTechnology::rram_1t1r(),
            false,
            None,
            0xbc54_6393_0672_f44c,
            0x3c72_2a92_47dd_1fde,
            0x3fd9_b977_bd03_63f7,
            0x3fd9_9999_8880_d72b,
        ),
        (
            CellTechnology::sram_8t(),
            true,
            Some(0x3ded_5030_e93e_bf88),
            0x3cff_2086_f74a_6d9a,
            0x3c7a_a1e2_37ae_51aa,
            0x3f1f_024b_6e28_fd9c,
            0x3fd9_9999_95b8_1893,
        ),
        (
            CellTechnology::sram_8t(),
            false,
            None,
            0x3c63_3fac_75a9_8072,
            0xbc5c_c6c0_00bc_721d,
            0x3fd9_a507_41bb_df4b,
            0x3fd9_9999_9692_ce52,
        ),
    ];
    for (tech, one, t_dis, e_cycle, e_wl, v_eval, v_final) in pins {
        let name = tech.name;
        let (report, trace) = BitlineCircuit::lumped(tech, 256)
            .with_stored_bit(one)
            .run_with_trace()
            .expect("solves");
        let got = (
            report.discharge_time.map(|t| t.as_seconds().to_bits()),
            report.cycle_energy.as_joules().to_bits(),
            report.wl_driver_energy.as_joules().to_bits(),
            report.bitline_after_evaluate.as_volts().to_bits(),
            trace.final_value("bl").expect("bl").to_bits(),
        );
        assert_eq!(got, (t_dis, e_cycle, e_wl, v_eval, v_final), "{name}, stored {one}");
    }
}
