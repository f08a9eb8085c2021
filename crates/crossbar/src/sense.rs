//! Sense-amplifier reference placement for scouting logic (Fig. 3b).

use crate::CrossbarError;
use memcim_units::{Amps, Ohms, Volts};

/// The logic function realized by a multi-row scouting read.
///
/// The complemented gates (`Nor`, `Nand`, `Xnor`) come for free: the
/// sense amplifier of the paper's Fig. 8 already produces an inverted
/// output, so complementation is an output-mux setting, not extra
/// references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScoutingKind {
    /// Output 1 when *any* activated cell stores 1.
    Or,
    /// Output 1 when *all* activated cells store 1.
    And,
    /// Output 1 when *exactly one* of two activated cells stores 1
    /// (two-reference window detection; defined for exactly two rows).
    Xor,
    /// Complement of [`Or`](ScoutingKind::Or).
    Nor,
    /// Complement of [`And`](ScoutingKind::And).
    Nand,
    /// Complement of [`Xor`](ScoutingKind::Xor) (two rows).
    Xnor,
}

impl ScoutingKind {
    /// The underlying reference placement (complemented gates share
    /// their base gate's references).
    pub(crate) fn base(self) -> ScoutingKind {
        match self {
            ScoutingKind::Nor => ScoutingKind::Or,
            ScoutingKind::Nand => ScoutingKind::And,
            ScoutingKind::Xnor => ScoutingKind::Xor,
            other => other,
        }
    }

    /// Whether the SA output is taken inverted.
    pub(crate) fn inverted(self) -> bool {
        matches!(self, ScoutingKind::Nor | ScoutingKind::Nand | ScoutingKind::Xnor)
    }

    /// Whether the gate is only defined over exactly two rows.
    pub fn is_window_gate(self) -> bool {
        matches!(self.base(), ScoutingKind::Xor)
    }

    /// Validates a row selection for this gate — the single source of
    /// the scouting selection policy (at least two rows, window gates
    /// over exactly two, rows distinct), shared by every substrate so
    /// raw and protected arrays accept exactly the same programs.
    /// Bounds checking stays with the substrate (it knows its
    /// geometry).
    ///
    /// # Errors
    ///
    /// [`CrossbarError::InvalidRowSelection`] naming the violated
    /// constraint.
    pub fn validate_selection(self, rows: &[usize]) -> Result<(), CrossbarError> {
        if rows.len() < 2 {
            return Err(CrossbarError::InvalidRowSelection {
                constraint: "at least two rows must be activated",
            });
        }
        if self.is_window_gate() && rows.len() != 2 {
            return Err(CrossbarError::InvalidRowSelection {
                constraint: "xor/xnor are defined over exactly two rows",
            });
        }
        for (i, &r) in rows.iter().enumerate() {
            if rows[..i].contains(&r) {
                return Err(CrossbarError::InvalidRowSelection {
                    constraint: "rows must be distinct",
                });
            }
        }
        Ok(())
    }
}

/// Sense-amplifier reference current(s) for one scouting gate.
///
/// A plain comparison gate (`OR`, `AND`) carries one reference: the output
/// is 1 when the bit-line current exceeds it. The `XOR` gate carries a
/// window `(low, high)`: the output is 1 when the current falls strictly
/// inside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseThresholds {
    low: Amps,
    high: Option<Amps>,
    inverted: bool,
}

impl SenseThresholds {
    /// Computes the reference placement of the paper's Fig. 3b for `kind`
    /// over `k_rows` simultaneously activated rows, a read voltage `vr`,
    /// and the cell resistance states.
    ///
    /// Current levels (per Fig. 3b, with `RH ≫ RL`):
    /// all-zero ⇒ `k·Vr/RH ≈ 0`; exactly one 1 ⇒ `≈Vr/RL`;
    /// all ones ⇒ `k·Vr/RL`.
    ///
    /// * `OR`: single reference at the geometric mean of `k·Vr/RH` and
    ///   `Vr/RL` (decades apart — geometric centring maximizes margin).
    /// * `AND`: single reference midway between `(k−1)·Vr/RL` and
    ///   `k·Vr/RL`.
    /// * `XOR` (k = 2): window between the `OR` reference and the
    ///   midpoint of `Vr/RL` and `2·Vr/RL`.
    ///
    /// # Panics
    ///
    /// Panics if `k_rows < 2`, if `kind` is `Xor` and `k_rows != 2`, or
    /// if `r_low >= r_high`.
    pub fn for_gate(
        kind: ScoutingKind,
        k_rows: usize,
        vr: Volts,
        r_low: Ohms,
        r_high: Ohms,
    ) -> Self {
        assert!(k_rows >= 2, "scouting activates at least two rows");
        assert!(
            !kind.is_window_gate() || k_rows == 2,
            "xor scouting is defined for exactly two rows"
        );
        assert!(r_low.as_ohms() < r_high.as_ohms(), "r_low must be below r_high");
        Self::placement(kind, k_rows, vr, r_low, r_high)
    }

    /// The reference of a plain one-row read: the `OR` reference at
    /// `k = 1`, the geometric mean of `Vr/RH` and `Vr/RL`.
    pub(crate) fn read(vr: Volts, r_low: Ohms, r_high: Ohms) -> Self {
        Self::placement(ScoutingKind::Or, 1, vr, r_low, r_high)
    }

    /// The Fig. 3b placement behind [`for_gate`](Self::for_gate) and
    /// [`read`](Self::read), without the selection asserts.
    fn placement(kind: ScoutingKind, k_rows: usize, vr: Volts, r_low: Ohms, r_high: Ohms) -> Self {
        let i_one_cell = (vr / r_low).as_amps();
        let i_all_zero = k_rows as f64 * (vr / r_high).as_amps();
        let inverted = kind.inverted();
        match kind.base() {
            ScoutingKind::Or => {
                Self { low: Amps::new((i_all_zero * i_one_cell).sqrt()), high: None, inverted }
            }
            ScoutingKind::And => {
                let k = k_rows as f64;
                Self { low: Amps::new((k - 0.5) * i_one_cell), high: None, inverted }
            }
            ScoutingKind::Xor => {
                let or_ref = (i_all_zero * i_one_cell).sqrt();
                Self { low: Amps::new(or_ref), high: Some(Amps::new(1.5 * i_one_cell)), inverted }
            }
            _ => unreachable!("base() never returns a complemented gate"),
        }
    }

    /// The sense decision for a measured bit-line current.
    pub fn sense(&self, current: Amps) -> bool {
        let raw = match self.high {
            None => current.as_amps() > self.low.as_amps(),
            Some(high) => {
                current.as_amps() > self.low.as_amps() && current.as_amps() < high.as_amps()
            }
        };
        raw ^ self.inverted
    }

    /// The lower reference.
    pub fn low(&self) -> Amps {
        self.low
    }

    /// The upper reference, present only for window (XOR) gates.
    pub fn high(&self) -> Option<Amps> {
        self.high
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VR: Volts = Volts::new(0.1);

    fn rl() -> Ohms {
        Ohms::from_kilohms(1.0)
    }

    fn rh() -> Ohms {
        Ohms::from_megohms(100.0)
    }

    /// Bit-line current for a given multiset of activated cell states.
    fn current(states: &[bool]) -> Amps {
        Amps::new(states.iter().map(|&s| (VR / if s { rl() } else { rh() }).as_amps()).sum())
    }

    #[test]
    fn or_truth_table_from_fig3() {
        let t = SenseThresholds::for_gate(ScoutingKind::Or, 2, VR, rl(), rh());
        assert!(!t.sense(current(&[false, false])));
        assert!(t.sense(current(&[true, false])));
        assert!(t.sense(current(&[false, true])));
        assert!(t.sense(current(&[true, true])));
    }

    #[test]
    fn and_truth_table_from_fig3() {
        let t = SenseThresholds::for_gate(ScoutingKind::And, 2, VR, rl(), rh());
        assert!(!t.sense(current(&[false, false])));
        assert!(!t.sense(current(&[true, false])));
        assert!(!t.sense(current(&[false, true])));
        assert!(t.sense(current(&[true, true])));
    }

    #[test]
    fn xor_window_truth_table_from_fig3() {
        let t = SenseThresholds::for_gate(ScoutingKind::Xor, 2, VR, rl(), rh());
        assert!(!t.sense(current(&[false, false])));
        assert!(t.sense(current(&[true, false])));
        assert!(t.sense(current(&[false, true])));
        assert!(!t.sense(current(&[true, true])));
        assert!(t.high().is_some());
    }

    #[test]
    fn multi_row_or_and_generalize() {
        for k in [3usize, 4, 8] {
            let or = SenseThresholds::for_gate(ScoutingKind::Or, k, VR, rl(), rh());
            let and = SenseThresholds::for_gate(ScoutingKind::And, k, VR, rl(), rh());
            let all_zero = vec![false; k];
            let mut one_hot = vec![false; k];
            one_hot[k / 2] = true;
            let all_one = vec![true; k];
            let mut one_missing = vec![true; k];
            one_missing[0] = false;
            assert!(!or.sense(current(&all_zero)), "k={k}");
            assert!(or.sense(current(&one_hot)), "k={k}");
            assert!(and.sense(current(&all_one)), "k={k}");
            assert!(!and.sense(current(&one_missing)), "k={k}");
        }
    }

    #[test]
    fn margins_tolerate_moderate_resistance_variation() {
        // ±20 % on RL must not flip any decision (design decision D2).
        let t_and = SenseThresholds::for_gate(ScoutingKind::And, 2, VR, rl(), rh());
        let i_both_low = Amps::new(2.0 * (VR / (rl() * 1.2)).as_amps());
        let i_one_high = Amps::new((VR / (rl() * 0.8)).as_amps());
        assert!(t_and.sense(i_both_low), "slow corner must still read 1");
        assert!(!t_and.sense(i_one_high), "fast corner must still read 0");
    }

    #[test]
    fn complemented_gates_invert_their_base() {
        for (kind, base) in [
            (ScoutingKind::Nor, ScoutingKind::Or),
            (ScoutingKind::Nand, ScoutingKind::And),
            (ScoutingKind::Xnor, ScoutingKind::Xor),
        ] {
            let t = SenseThresholds::for_gate(kind, 2, VR, rl(), rh());
            let b = SenseThresholds::for_gate(base, 2, VR, rl(), rh());
            for states in [[false, false], [false, true], [true, false], [true, true]] {
                let i = current(&states);
                assert_eq!(t.sense(i), !b.sense(i), "{kind:?} on {states:?}");
            }
            // Same references — complementation is free.
            assert_eq!(t.low(), b.low());
            assert_eq!(t.high(), b.high());
        }
    }

    #[test]
    #[should_panic(expected = "exactly two rows")]
    fn xnor_rejects_three_rows() {
        let _ = SenseThresholds::for_gate(ScoutingKind::Xnor, 3, VR, rl(), rh());
    }

    #[test]
    #[should_panic(expected = "exactly two rows")]
    fn xor_rejects_three_rows() {
        let _ = SenseThresholds::for_gate(ScoutingKind::Xor, 3, VR, rl(), rh());
    }

    #[test]
    #[should_panic(expected = "at least two rows")]
    fn single_row_scouting_is_rejected() {
        let _ = SenseThresholds::for_gate(ScoutingKind::Or, 1, VR, rl(), rh());
    }
}
