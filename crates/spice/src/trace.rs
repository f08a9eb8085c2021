//! Recorded transient results and `.measure`-style queries.

use crate::SpiceError;
use memcim_units::{Joules, Seconds, Volts};
use std::collections::HashMap;

/// Crossing direction for [`Trace::cross_time`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Signal crosses the level going upward.
    Rising,
    /// Signal crosses the level going downward.
    Falling,
    /// Either direction.
    Any,
}

/// A recorded transient: time axis, node-voltage and source-current
/// signals, and per-element energy totals.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub(crate) time: Vec<f64>,
    pub(crate) signals: HashMap<String, Vec<f64>>,
    /// Element names, in netlist order.
    pub(crate) elements: Vec<String>,
    /// Energy dissipated per element, index-aligned with `elements`,
    /// joules.
    pub(crate) dissipated: Vec<f64>,
    /// Energy delivered per element (zero except for sources),
    /// index-aligned with `elements`, joules.
    pub(crate) delivered: Vec<f64>,
}

impl Trace {
    /// The time axis, seconds.
    pub fn time(&self) -> &[f64] {
        &self.time
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// A node-voltage signal by node name.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownSignal`] if no such node was recorded.
    pub fn voltage(&self, node: &str) -> Result<&[f64], SpiceError> {
        self.signal(node)
    }

    /// A voltage-source branch-current signal (`I(name)` convention:
    /// positive current flows into the source's positive terminal).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownSignal`] if no such source exists.
    pub fn current(&self, source: &str) -> Result<&[f64], SpiceError> {
        self.signal(&format!("I({source})"))
    }

    fn signal(&self, name: &str) -> Result<&[f64], SpiceError> {
        self.signals
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| SpiceError::UnknownSignal { name: name.to_string() })
    }

    /// First time after `after` at which `signal` crosses `level` in the
    /// given direction, linearly interpolated. `None` if it never does.
    pub fn cross_time(
        &self,
        signal: &str,
        level: Volts,
        edge: Edge,
        after: Seconds,
    ) -> Option<Seconds> {
        let xs = self.signals.get(signal)?;
        let lv = level.as_volts();
        let t0 = after.as_seconds();
        for k in 1..xs.len() {
            if self.time[k] < t0 {
                continue;
            }
            let (a, b) = (xs[k - 1], xs[k]);
            let crossed = match edge {
                Edge::Rising => a < lv && b >= lv,
                Edge::Falling => a > lv && b <= lv,
                Edge::Any => (a < lv && b >= lv) || (a > lv && b <= lv),
            };
            if crossed {
                let frac = if (b - a).abs() < f64::MIN_POSITIVE { 0.0 } else { (lv - a) / (b - a) };
                let t = self.time[k - 1] + frac * (self.time[k] - self.time[k - 1]);
                return Some(Seconds::new(t));
            }
        }
        None
    }

    /// Signal value at time `t`, linearly interpolated (clamped to the
    /// record's ends).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownSignal`] for an unrecorded signal.
    pub fn value_at(&self, signal: &str, t: Seconds) -> Result<f64, SpiceError> {
        let xs = self.signal(signal)?;
        let ts = t.as_seconds();
        if xs.is_empty() {
            return Ok(0.0);
        }
        if ts <= self.time[0] {
            return Ok(xs[0]);
        }
        if ts >= *self.time.last().expect("nonempty") {
            return Ok(*xs.last().expect("nonempty"));
        }
        let k = self.time.partition_point(|&x| x < ts).max(1);
        let (t0, t1) = (self.time[k - 1], self.time[k]);
        let frac = if t1 > t0 { (ts - t0) / (t1 - t0) } else { 0.0 };
        Ok(xs[k - 1] + frac * (xs[k] - xs[k - 1]))
    }

    /// The final recorded value of a signal.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownSignal`] for an unrecorded signal.
    pub fn final_value(&self, signal: &str) -> Result<f64, SpiceError> {
        Ok(*self.signal(signal)?.last().unwrap_or(&0.0))
    }

    /// Minimum and maximum of a signal over the record.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownSignal`] for an unrecorded signal.
    pub fn extrema(&self, signal: &str) -> Result<(f64, f64), SpiceError> {
        let xs = self.signal(signal)?;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in xs {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        Ok((lo, hi))
    }

    /// Total energy dissipated in the named element over the transient.
    /// Zero for elements that were never stamped with a dissipation model
    /// (capacitors, sources).
    pub fn dissipated_energy(&self, element: &str) -> Joules {
        self.energy_of(&self.dissipated, element)
    }

    /// Total energy dissipated across all elements, summed in netlist
    /// order (so the total is reproducible to the bit).
    pub fn total_dissipated_energy(&self) -> Joules {
        Joules::new(self.dissipated.iter().sum())
    }

    /// Net energy delivered by the named source (positive = the source
    /// injected energy into the circuit).
    pub fn delivered_energy(&self, source: &str) -> Joules {
        self.energy_of(&self.delivered, source)
    }

    /// Net energy delivered by all sources, summed in netlist order.
    pub fn total_delivered_energy(&self) -> Joules {
        Joules::new(self.delivered.iter().sum())
    }

    /// The named element's entry of an index-aligned energy column
    /// (zero for an unknown name).
    fn energy_of(&self, column: &[f64], element: &str) -> Joules {
        let index = self.elements.iter().position(|name| name == element);
        Joules::new(index.map_or(0.0, |i| column[i]))
    }

    /// Renders selected signals as CSV with a `time` column.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownSignal`] if any requested signal is
    /// missing.
    pub fn to_csv(&self, signals: &[&str]) -> Result<String, SpiceError> {
        let cols: Vec<&[f64]> = signals.iter().map(|s| self.signal(s)).collect::<Result<_, _>>()?;
        let mut out = String::from("time");
        for s in signals {
            out.push(',');
            out.push_str(s);
        }
        out.push('\n');
        for (k, &t) in self.time.iter().enumerate() {
            out.push_str(&format!("{t:.6e}"));
            for col in &cols {
                out.push_str(&format!(",{:.6e}", col[k]));
            }
            out.push('\n');
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_trace() -> Trace {
        // v(t) = t over [0, 1] in 11 points, plus a falling signal 1 − t.
        let time: Vec<f64> = (0..11).map(|k| k as f64 / 10.0).collect();
        let up = time.clone();
        let down: Vec<f64> = time.iter().map(|t| 1.0 - t).collect();
        let mut signals = HashMap::new();
        signals.insert("up".to_string(), up);
        signals.insert("down".to_string(), down);
        Trace { time, signals, ..Trace::default() }
    }

    #[test]
    fn cross_time_interpolates() {
        let tr = ramp_trace();
        let t =
            tr.cross_time("up", Volts::new(0.55), Edge::Rising, Seconds::ZERO).expect("crosses");
        assert!((t.as_seconds() - 0.55).abs() < 1e-12);
    }

    #[test]
    fn cross_time_respects_direction_and_after() {
        let tr = ramp_trace();
        assert!(tr.cross_time("up", Volts::new(0.5), Edge::Falling, Seconds::ZERO).is_none());
        assert!(tr.cross_time("down", Volts::new(0.5), Edge::Falling, Seconds::ZERO).is_some());
        assert!(tr.cross_time("up", Volts::new(0.5), Edge::Rising, Seconds::new(0.6)).is_none());
    }

    #[test]
    fn value_at_clamps_and_interpolates() {
        let tr = ramp_trace();
        assert_eq!(tr.value_at("up", Seconds::new(-1.0)).expect("clamp"), 0.0);
        assert_eq!(tr.value_at("up", Seconds::new(2.0)).expect("clamp"), 1.0);
        let mid = tr.value_at("up", Seconds::new(0.425)).expect("interp");
        assert!((mid - 0.425).abs() < 1e-12);
    }

    #[test]
    fn unknown_signal_is_an_error() {
        let tr = ramp_trace();
        assert!(matches!(tr.voltage("nope"), Err(SpiceError::UnknownSignal { .. })));
    }

    #[test]
    fn extrema_cover_the_record() {
        let tr = ramp_trace();
        assert_eq!(tr.extrema("down").expect("known"), (0.0, 1.0));
    }

    #[test]
    fn csv_renders_all_rows() {
        let tr = ramp_trace();
        let csv = tr.to_csv(&["up", "down"]).expect("known signals");
        assert!(csv.starts_with("time,up,down\n"));
        assert_eq!(csv.lines().count(), 12);
    }
}
