//! Boundary window functions for ion-drift memristor models.
//!
//! A window function `f(x)` multiplies the state derivative of a drift
//! model to keep the normalized state `x ∈ \[0, 1\]` inside its physical
//! bounds and to model the nonlinear dopant drift near the electrodes.
//! The choice of window is ablation **D1** of the `ablations` binary,
//! which compares the hysteresis lobe area each window produces.

/// Window function selection for [`crate::LinearIonDrift`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Window {
    /// `f(x) = 1` inside the open interval, hard clamping at the bounds.
    ///
    /// The original HP paper behaviour; suffers from the boundary-stick
    /// problem (state cannot leave a bound without current reversal
    /// handling, which the drift model performs explicitly).
    Rectangular,
    /// Joglekar window `f(x) = 1 − (2x − 1)^{2p}`.
    ///
    /// Symmetric; zero velocity at both bounds. Larger `p` flattens the
    /// window towards rectangular.
    Joglekar {
        /// Window order `p ≥ 1`.
        p: u32,
    },
    /// Biolek window `f(x, i) = 1 − (x − stp(−i))^{2p}` where
    /// `stp(i) = 1` for `i ≥ 0` and `0` otherwise.
    ///
    /// Direction-dependent: solves Joglekar's boundary-stick problem by
    /// letting the state leave a boundary as soon as the current reverses.
    Biolek {
        /// Window order `p ≥ 1`.
        p: u32,
    },
}

impl Window {
    /// Evaluates the window at normalized state `x ∈ \[0, 1\]` for a given
    /// current direction (`current_sign` is the sign of the device
    /// current, positive meaning drift towards the ON state).
    ///
    /// The result is always in `\[0, 1\]`.
    pub fn evaluate(self, x: f64, current_sign: f64) -> f64 {
        let x = x.clamp(0.0, 1.0);
        let value = match self {
            Window::Rectangular => {
                // Unity inside, zero drive past a bound in the direction
                // that would exit it.
                if (x >= 1.0 && current_sign > 0.0) || (x <= 0.0 && current_sign < 0.0) {
                    0.0
                } else {
                    1.0
                }
            }
            Window::Joglekar { p } => 1.0 - (2.0 * x - 1.0).powi(2 * p.max(1) as i32),
            Window::Biolek { p } => {
                let stp = if -current_sign >= 0.0 { 1.0 } else { 0.0 };
                1.0 - (x - stp).powi(2 * p.max(1) as i32)
            }
        };
        value.clamp(0.0, 1.0)
    }
}

impl Default for Window {
    /// Joglekar with `p = 2`, a common literature default.
    fn default() -> Self {
        Window::Joglekar { p: 2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joglekar_is_zero_at_bounds_and_one_at_center() {
        let w = Window::Joglekar { p: 1 };
        assert_eq!(w.evaluate(0.0, 1.0), 0.0);
        assert_eq!(w.evaluate(1.0, 1.0), 0.0);
        assert_eq!(w.evaluate(0.5, 1.0), 1.0);
    }

    #[test]
    fn joglekar_order_flattens_window() {
        let narrow = Window::Joglekar { p: 1 }.evaluate(0.25, 1.0);
        let wide = Window::Joglekar { p: 10 }.evaluate(0.25, 1.0);
        assert!(wide > narrow);
    }

    #[test]
    fn biolek_releases_boundary_on_current_reversal() {
        let w = Window::Biolek { p: 1 };
        // At the ON bound (x = 1) with positive current: stuck (f = 0).
        assert_eq!(w.evaluate(1.0, 1.0), 0.0);
        // Same position, reversed current: free to move (f = 1).
        assert_eq!(w.evaluate(1.0, -1.0), 1.0);
        // Mirrored at the OFF bound.
        assert_eq!(w.evaluate(0.0, -1.0), 0.0);
        assert_eq!(w.evaluate(0.0, 1.0), 1.0);
    }

    #[test]
    fn rectangular_blocks_only_outward_drive() {
        let w = Window::Rectangular;
        assert_eq!(w.evaluate(1.0, 1.0), 0.0);
        assert_eq!(w.evaluate(1.0, -1.0), 1.0);
        assert_eq!(w.evaluate(0.5, 1.0), 1.0);
    }

    #[test]
    fn default_is_joglekar_order_two() {
        assert_eq!(Window::default(), Window::Joglekar { p: 2 });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn any_window() -> impl Strategy<Value = Window> {
        prop_oneof![
            Just(Window::Rectangular),
            (1u32..6).prop_map(|p| Window::Joglekar { p }),
            (1u32..6).prop_map(|p| Window::Biolek { p }),
        ]
    }

    proptest! {
        /// Invariant: windows are bounded in \[0, 1\] for any state/current.
        #[test]
        fn window_bounded(
            w in any_window(),
            x in -0.5_f64..1.5,
            sign in prop_oneof![Just(-1.0), Just(0.0), Just(1.0)],
        ) {
            let f = w.evaluate(x, sign);
            prop_assert!((0.0..=1.0).contains(&f), "f = {f}");
        }

        /// Joglekar is symmetric about x = 0.5.
        #[test]
        fn joglekar_symmetric(p in 1u32..6, x in 0.0_f64..1.0) {
            let w = Window::Joglekar { p };
            let a = w.evaluate(x, 1.0);
            let b = w.evaluate(1.0 - x, 1.0);
            prop_assert!((a - b).abs() < 1e-12);
        }
    }
}
