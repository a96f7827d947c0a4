//! Primitive performance metrics and their measured values.

use std::collections::HashMap;

/// What a metric measures; determines which testbench runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Effective transconductance (A/V), differential or single-ended per
    /// class.
    Gm,
    /// Transconductance-to-total-output-capacitance ratio (A/V/F scaled to
    /// rad/s); the paper's `G_m/C_total`.
    GmOverCtotal,
    /// Systematic input-referred offset (V) of a matched pair.
    InputOffset,
    /// DC output current (A) of a mirror/source branch.
    OutputCurrent,
    /// Total capacitance at the output port (F).
    Cout,
    /// Small-signal output resistance (Ω).
    OutputResistance,
    /// Propagation delay (s) of a logic-like stage.
    Delay,
    /// Small-signal voltage gain magnitude at the switching point.
    Gain,
    /// On-resistance (Ω) of a switch.
    OnResistance,
    /// Effective capacitance (F) of a passive capacitor.
    Capacitance,
    /// Usable bandwidth (Hz) of a passive (RC roll-off of its wiring).
    Bandwidth,
    /// Effective resistance (Ω) of a passive resistor.
    Resistance,
}

/// One entry of a primitive's metric list: kind plus importance weight α.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Short name used in reports (e.g. `"Gm"`).
    pub name: String,
    /// What testbench measures it.
    pub kind: MetricKind,
    /// Importance weight α: 1 high, 0.5 medium, 0.1 low (paper §II-B).
    pub weight: f64,
    /// Specification value used when the schematic value is zero (the
    /// `x_spec` of Eq. 6) — e.g. 10% of random offset for DP input offset.
    pub spec: Option<f64>,
}

impl Metric {
    /// Creates a metric with no explicit spec.
    pub fn new(name: &str, kind: MetricKind, weight: f64) -> Self {
        Metric {
            name: name.to_string(),
            kind,
            weight,
            spec: None,
        }
    }

    /// Creates a metric with an explicit spec value for the `x_sch = 0` case.
    pub fn with_spec(name: &str, kind: MetricKind, weight: f64, spec: f64) -> Self {
        Metric {
            spec: Some(spec),
            ..Metric::new(name, kind, weight)
        }
    }
}

/// Measured metric values keyed by metric name.
pub type MetricValues = HashMap<String, f64>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_constructors() {
        let m = Metric::new("Gm", MetricKind::Gm, 0.5);
        assert_eq!(m.weight, 0.5);
        assert!(m.spec.is_none());
        let o = Metric::with_spec("offset", MetricKind::InputOffset, 1.0, 2e-4);
        assert_eq!(o.spec, Some(2e-4));
    }
}
