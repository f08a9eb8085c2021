//! Verifier ↔ executor agreement, property-tested over random programs
//! that deliberately mix well-formed and malformed instructions:
//!
//! * a program the static verifier passes (no Error-severity
//!   diagnostic) executes on a fresh, fault-free simulator of the same
//!   geometry without a runtime error — admission gating never lets a
//!   verified program fail at an engine;
//! * a program the simulator rejects carries an Error diagnostic whose
//!   stable [`Code`] matches the runtime error (via [`Code::of_runtime`])
//!   at the same instruction index — every runtime rejection was
//!   statically predictable, with the exact code and position an
//!   admission refusal reports;
//! * a program that runs returns no output exactly when the verifier
//!   lints it [`Code::NoOutput`]: `Read`s and sensed gates (`dst: None`)
//!   are the outputs on both sides.
//!
//! Cases are seeded and deterministic (the vendored proptest's
//! `TestRng`), so any failure reproduces bit-for-bit.

use memcim_bits::BitVec;
use memcim_crossbar::CrossbarBackend;
use memcim_mvp::{Instruction, MvpSimulator};
use memcim_verify::{first_error, verify_program, Code};
use proptest::prelude::*;

/// One instruction over a `rows × width` geometry, biased to stay
/// mostly in range so programs are a genuine mix: rows wander up to 2
/// past the array, store widths up to 2 off, scouting source lists can
/// be too short, can alias their destination, and can repeat a row.
/// Half the gates are sensed (`dst: None`).
fn instruction(rows: usize, width: usize) -> impl Strategy<Value = Instruction> {
    let row = 0..rows + 2;
    let data = (width.saturating_sub(2)..width + 3)
        .prop_flat_map(|w| proptest::collection::vec(any::<bool>(), w))
        .prop_map(|bits| bits.into_iter().collect::<BitVec>());
    prop_oneof![
        (row.clone(), data).prop_map(|(row, data)| Instruction::Store { row, data }),
        (proptest::collection::vec(0..rows + 2, 0..5), dst(rows), any::<bool>()).prop_map(
            |(srcs, dst, or)| if or {
                Instruction::Or { srcs, dst }
            } else {
                Instruction::And { srcs, dst }
            }
        ),
        (row.clone(), row.clone(), dst(rows)).prop_map(|(a, b, dst)| Instruction::Xor {
            a,
            b,
            dst
        }),
        row.prop_map(|row| Instruction::Read { row }),
    ]
}

/// A gate destination: sensed, or a row up to 2 past the array.
fn dst(rows: usize) -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), (0..rows + 2).prop_map(Some)]
}

/// `(rows, width, program)` over small geometries.
fn geometry_and_program() -> impl Strategy<Value = (usize, usize, Vec<Instruction>)> {
    (4usize..10, 1usize..33).prop_flat_map(|(rows, width)| {
        proptest::collection::vec(instruction(rows, width), 1..12)
            .prop_map(move |program| (rows, width, program))
    })
}

/// The index of the first instruction the simulator rejects: the
/// shortest failing prefix, each tried on a fresh simulator so earlier
/// instructions cannot mask the probe.
fn first_failing_index<B: CrossbarBackend>(
    program: &[Instruction],
    fresh: impl Fn() -> MvpSimulator<B>,
) -> Option<usize> {
    (0..program.len()).find(|&i| fresh().run_program(&program[..=i]).is_err())
}

fn assert_agreement<B: CrossbarBackend>(
    rows: usize,
    width: usize,
    program: &[Instruction],
    fresh: impl Fn() -> MvpSimulator<B>,
) -> Result<(), TestCaseError> {
    let diagnostics = verify_program(program, rows, width);
    match fresh().run_program(program) {
        Ok(outputs) => {
            // Lints may remain; nothing of Error severity may.
            prop_assert!(
                first_error(&diagnostics).is_none(),
                "simulator ran a program the verifier flagged: {:?}",
                first_error(&diagnostics)
            );
            let no_output = diagnostics.iter().any(|d| d.code == Code::NoOutput);
            prop_assert_eq!(
                no_output,
                outputs.is_empty(),
                "NoOutput lint vs {} outputs",
                outputs.len()
            );
        }
        Err(runtime) => {
            let flagged = first_error(&diagnostics);
            prop_assert!(
                flagged.is_some(),
                "simulator rejected ({runtime}) a program the verifier passed"
            );
            let flagged = flagged.expect("just asserted");
            prop_assert_eq!(
                Some(flagged.code),
                Code::of_runtime(&runtime),
                "static code {} vs runtime error {}",
                flagged.code,
                runtime
            );
            let failing = first_failing_index(program, fresh)
                .expect("the whole program failed, some prefix must");
            prop_assert_eq!(
                flagged.index,
                failing,
                "static diagnostic and runtime rejection disagree on the instruction"
            );
        }
    }
    Ok(())
}

proptest! {
    /// Monolithic arrays: the geometry of `MvpSimulator::new`.
    #[test]
    fn verifier_and_monolithic_simulator_agree(
        (rows, width, program) in geometry_and_program()
    ) {
        assert_agreement(rows, width, &program, || MvpSimulator::new(rows, width))?;
    }

    /// Banked arrays: same program, same verdicts — banking changes the
    /// cost, never the admission outcome.
    #[test]
    fn verifier_and_banked_simulator_agree(
        (rows, width, program) in geometry_and_program(),
        split in any::<bool>(),
    ) {
        // Split the width into banks where it divides evenly.
        let (banks, bank_cols) =
            if split && width.is_multiple_of(2) { (2, width / 2) } else { (width, 1) };
        assert_agreement(rows, width, &program, || {
            MvpSimulator::banked(rows, banks, bank_cols)
        })?;
    }

    /// Programs whose only outputs are sensed gates: every gate loses
    /// its destination and every `Read` is dropped, so the program has
    /// an output exactly when a gate runs.
    #[test]
    fn verifier_and_simulator_agree_on_sensed_gate_outputs(
        (rows, width, program) in geometry_and_program()
    ) {
        let program: Vec<Instruction> = program
            .into_iter()
            .filter_map(|instr| match instr {
                Instruction::Or { srcs, .. } => Some(Instruction::Or { srcs, dst: None }),
                Instruction::And { srcs, .. } => Some(Instruction::And { srcs, dst: None }),
                Instruction::Xor { a, b, .. } => Some(Instruction::Xor { a, b, dst: None }),
                Instruction::Read { .. } => None,
                store => Some(store),
            })
            .collect();
        assert_agreement(rows, width, &program, || MvpSimulator::new(rows, width))?;
    }
}
