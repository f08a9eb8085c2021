//! In-memory vector arithmetic built from scouting logic.
//!
//! The paper's reference \[9\] (Du Nguyen et al., *"On the implementation
//! of computation-in-memory parallel adder"*, IEEE TVLSI 2017) is the
//! companion work the MVP's evaluation model leans on. This module
//! implements that capability on the functional simulator: **column-wise
//! parallel addition** of integer vectors stored as bit planes, using
//! only the OR/AND/XOR macro-instructions scouting logic provides.
//!
//! Layout: a `width`-lane vector of `w`-bit integers occupies `w` crossbar
//! rows (bit planes, LSB first); lane `j` is the integer whose bit `i`
//! is row `i`, column `j`. A ripple-carry step per bit position computes
//! all `width` lanes simultaneously:
//!
//! ```text
//! t    = aᵢ XOR bᵢ            (1 scouting cycle)
//! sᵢ   = t XOR c              (1, sensed: straight to the host)
//! g    = aᵢ AND bᵢ            (1)
//! p    = c AND t              (1)
//! c'   = g OR p               (1)
//! ```
//!
//! — five in-memory cycles per bit, independent of the vector width.
//! The sum plane is never a source, so it leaves the array as a sensed
//! gate's output: no write-back and no `Read`.

use crate::{Instruction, MvpError, MvpSimulator};
use memcim_bits::BitVec;

/// Scratch/working rows used by [`add_bit_planes`]: the adder needs 8
/// free rows on top of the data planes.
const WORK_ROWS: usize = 8;

/// Adds two bit-plane-encoded integer vectors inside the MVP,
/// returning the `w + 1` result planes (including the final carry).
///
/// `a` and `b` must hold the same number of planes (`w ≥ 1`) of the same
/// width. The simulator needs at least 8 rows and
/// `a\[0\].len()` columns.
///
/// # Errors
///
/// Returns [`MvpError::BadInput`] if the plane counts or widths
/// disagree, `a` is empty, or the simulator has fewer than 8 rows, and
/// propagates [`MvpError`] from program execution (e.g. a simulator
/// narrower than the planes).
pub fn add_bit_planes(
    mvp: &mut MvpSimulator,
    a: &[BitVec],
    b: &[BitVec],
) -> Result<Vec<BitVec>, MvpError> {
    if a.is_empty() {
        return Err(MvpError::BadInput { reason: "need at least one bit plane".into() });
    }
    if a.len() != b.len() {
        return Err(MvpError::BadInput {
            reason: format!("operand plane counts must match: {} vs {}", a.len(), b.len()),
        });
    }
    let width = a[0].len();
    if !a.iter().chain(b).all(|p| p.len() == width) {
        return Err(MvpError::BadInput {
            reason: format!("all planes must share one width ({width} columns)"),
        });
    }
    if mvp.rows() < WORK_ROWS {
        return Err(MvpError::BadInput {
            reason: format!("adder needs at least {WORK_ROWS} rows, simulator has {}", mvp.rows()),
        });
    }

    // Row roles.
    const RA: usize = 0; // aᵢ
    const RB: usize = 1; // bᵢ
    const RT: usize = 2; // t = aᵢ ^ bᵢ
    const RG: usize = 4; // g = aᵢ & bᵢ
    const RP: usize = 5; // p = c & t
    const RC: [usize; 2] = [6, 7]; // alternating carry rows (row 3 is unused)

    let mut sums = Vec::with_capacity(a.len() + 1);
    // carry-in = 0.
    mvp.run_program(&[Instruction::Store { row: RC[0], data: BitVec::new(width) }])?;

    for (i, (plane_a, plane_b)) in a.iter().zip(b).enumerate() {
        let c_in = RC[i % 2];
        let c_out = RC[(i + 1) % 2];
        let mut outputs = mvp.run_program(&[
            Instruction::Store { row: RA, data: plane_a.clone() },
            Instruction::Store { row: RB, data: plane_b.clone() },
            Instruction::Xor { a: RA, b: RB, dst: Some(RT) },
            // sᵢ, sensed: the program's one output.
            Instruction::Xor { a: RT, b: c_in, dst: None },
            Instruction::And { srcs: vec![RA, RB], dst: Some(RG) },
            Instruction::And { srcs: vec![c_in, RT], dst: Some(RP) },
            Instruction::Or { srcs: vec![RG, RP], dst: Some(c_out) },
        ])?;
        sums.push(outputs.pop().expect("the sensed XOR emits one vector"));
    }
    // Final carry plane.
    let mut outputs = mvp.run_program(&[Instruction::Read { row: RC[a.len() % 2] }])?;
    sums.push(outputs.pop().expect("read emits one vector"));
    Ok(sums)
}

/// Encodes a slice of integers as `w` bit planes (LSB first).
///
/// # Errors
///
/// Returns [`MvpError::BadInput`] if `w == 0`, `w > 64`, or any value
/// needs more than `w` bits.
pub fn to_bit_planes(values: &[u64], w: usize) -> Result<Vec<BitVec>, MvpError> {
    if !(1..=64).contains(&w) {
        return Err(MvpError::BadInput {
            reason: format!("plane count must be in 1..=64, got {w}"),
        });
    }
    if let Some(&v) = values.iter().find(|&&v| w < 64 && v >= (1u64 << w)) {
        return Err(MvpError::BadInput { reason: format!("value {v} exceeds {w} bits") });
    }
    Ok((0..w).map(|bit| values.iter().map(|&v| v >> bit & 1 == 1).collect()).collect())
}

/// Decodes bit planes (LSB first) back into integers.
///
/// # Errors
///
/// Returns [`MvpError::BadInput`] if the planes disagree in width or
/// exceed 64.
pub fn from_bit_planes(planes: &[BitVec]) -> Result<Vec<u64>, MvpError> {
    if planes.len() > 64 {
        return Err(MvpError::BadInput {
            reason: format!("at most 64 planes, got {}", planes.len()),
        });
    }
    let Some(first) = planes.first() else {
        return Ok(Vec::new());
    };
    let width = first.len();
    if !planes.iter().all(|p| p.len() == width) {
        return Err(MvpError::BadInput {
            reason: format!("plane widths must match ({width} columns)"),
        });
    }
    Ok((0..width)
        .map(|lane| {
            planes.iter().enumerate().map(|(bit, plane)| u64::from(plane.get(lane)) << bit).sum()
        })
        .collect())
}

/// Convenience: adds two integer vectors end to end (encode, in-memory
/// add, decode).
///
/// # Errors
///
/// Returns [`MvpError::BadInput`] on mismatched lengths or values
/// exceeding `w` bits (see [`to_bit_planes`]) and propagates
/// [`MvpError`] from the in-memory execution.
pub fn add_vectors(
    mvp: &mut MvpSimulator,
    a: &[u64],
    b: &[u64],
    w: usize,
) -> Result<Vec<u64>, MvpError> {
    if a.len() != b.len() {
        return Err(MvpError::BadInput {
            reason: format!("vector lengths must match: {} vs {}", a.len(), b.len()),
        });
    }
    let planes = add_bit_planes(mvp, &to_bit_planes(a, w)?, &to_bit_planes(b, w)?)?;
    from_bit_planes(&planes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_encoding_round_trips() {
        let values = [0u64, 1, 5, 255, 128, 77];
        let planes = to_bit_planes(&values, 8).expect("encodes");
        assert_eq!(planes.len(), 8);
        assert_eq!(from_bit_planes(&planes).expect("decodes"), values);
    }

    #[test]
    fn adds_small_vectors_exactly() {
        let mut mvp = MvpSimulator::new(8, 6);
        let a = [1u64, 2, 3, 200, 255, 0];
        let b = [1u64, 2, 4, 55, 255, 0];
        let sums = add_vectors(&mut mvp, &a, &b, 8).expect("adds");
        let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn carry_ripples_through_every_bit() {
        // 0xFF + 0x01 = 0x100: the worst-case ripple.
        let mut mvp = MvpSimulator::new(8, 1);
        let sums = add_vectors(&mut mvp, &[0xFF], &[0x01], 8).expect("adds");
        assert_eq!(sums, vec![0x100]);
    }

    #[test]
    fn cycle_count_is_five_per_bit_plus_setup() {
        let mut mvp = MvpSimulator::new(8, 16);
        let a: Vec<u64> = (0..16).collect();
        let b: Vec<u64> = (0..16).rev().collect();
        add_vectors(&mut mvp, &a, &b, 8).expect("adds");
        // 5 scouting ops per bit, 8 bits — width-independent.
        assert_eq!(mvp.ledger().scouting_ops(), 40);
    }

    #[test]
    fn sixteen_bit_lanes() {
        let mut mvp = MvpSimulator::new(8, 4);
        let a = [65_535u64, 12_345, 0, 40_000];
        let b = [1u64, 54_321, 0, 25_535];
        let sums = add_vectors(&mut mvp, &a, &b, 16).expect("adds");
        assert_eq!(sums, vec![65_536, 66_666, 0, 65_535]);
    }

    #[test]
    fn mismatched_planes_are_rejected_as_errors() {
        let mut mvp = MvpSimulator::new(8, 4);
        let a = to_bit_planes(&[1, 2, 3, 4], 4).expect("encodes");
        let b = to_bit_planes(&[1, 2, 3, 4], 5).expect("encodes");
        match add_bit_planes(&mut mvp, &a, &b) {
            Err(MvpError::BadInput { reason }) => {
                assert!(reason.contains("plane counts must match"), "got: {reason}");
            }
            other => panic!("expected BadInput, got {other:?}"),
        }
        assert!(matches!(add_bit_planes(&mut mvp, &[], &[]), Err(MvpError::BadInput { .. })));
        assert!(matches!(add_vectors(&mut mvp, &[1], &[1, 2], 4), Err(MvpError::BadInput { .. })));
        let mut small = MvpSimulator::new(4, 4);
        assert!(matches!(add_vectors(&mut small, &[1], &[2], 4), Err(MvpError::BadInput { .. })));
    }

    #[test]
    fn overflowing_values_are_rejected_at_encode() {
        match to_bit_planes(&[9], 3) {
            Err(MvpError::BadInput { reason }) => {
                assert!(reason.contains("exceeds 3 bits"), "got: {reason}");
            }
            other => panic!("expected BadInput, got {other:?}"),
        }
        assert!(matches!(to_bit_planes(&[1], 0), Err(MvpError::BadInput { .. })));
        assert!(matches!(to_bit_planes(&[1], 65), Err(MvpError::BadInput { .. })));
        let uneven = [memcim_bits::BitVec::new(4), memcim_bits::BitVec::new(5)];
        assert!(matches!(from_bit_planes(&uneven), Err(MvpError::BadInput { .. })));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// The in-memory adder equals u64 addition for random vectors.
        #[test]
        fn adder_matches_scalar_addition(
            pairs in proptest::collection::vec((0u64..1 << 12, 0u64..1 << 12), 1..24),
        ) {
            let a: Vec<u64> = pairs.iter().map(|&(x, _)| x).collect();
            let b: Vec<u64> = pairs.iter().map(|&(_, y)| y).collect();
            let mut mvp = MvpSimulator::new(8, a.len());
            let sums = add_vectors(&mut mvp, &a, &b, 12).expect("adds");
            let expect: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
            prop_assert_eq!(sums, expect);
        }
    }
}
