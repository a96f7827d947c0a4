//! The layout cost model: Eqs. (5) and (6) of the paper.
//!
//! `Cost = Σ αᵢ·Δxᵢ`, with Δxᵢ the percent deviation of metric *i* from its
//! schematic value — or from its spec when the schematic value is zero
//! (e.g. the input offset of an ideal pair). Deviations are expressed in
//! percent so costs land on the scale Table III reports (a few units).

use prima_primitives::{Metric, MetricValues};

/// Per-metric deviation record within a cost evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CostBreakdown {
    /// Metric name.
    pub metric: String,
    /// Weight α.
    pub weight: f64,
    /// Percent deviation Δx.
    pub deviation_pct: f64,
}

/// Percent deviation of one metric (Eq. 6), already scaled ×100.
///
/// * `x_sch ≠ 0`: `100·|x_sch − x_layout| / |x_sch|`.
/// * `x_sch = 0`: `100·max(0, (x_layout − spec)/spec)` — zero while within
///   spec, growing once the layout exceeds it. (The paper's Table III shows
///   0% offset for compliant layouts, which pins down this reading of the
///   `max[0, …]` in Eq. 6.)
///
/// # Panics
///
/// Panics in debug builds if `x_sch == 0` and no spec is provided — a
/// library-authoring error.
pub fn deviation_percent(x_sch: f64, x_layout: f64, spec: Option<f64>) -> f64 {
    if x_sch != 0.0 {
        100.0 * (x_sch - x_layout).abs() / x_sch.abs()
    } else {
        let spec = spec.unwrap_or_else(|| {
            debug_assert!(false, "metric with x_sch = 0 needs a spec value");
            1.0
        });
        100.0 * ((x_layout - spec) / spec).max(0.0)
    }
}

/// Evaluates Eq. (5) over a metric list; returns the total cost and the
/// per-metric breakdown.
///
/// Metrics whose schematic magnitude is below `tiny` (1e-30) are treated as
/// zero-valued and routed through the spec branch.
pub fn cost_of(
    metrics: &[Metric],
    sch: &MetricValues,
    layout: &MetricValues,
) -> (f64, Vec<CostBreakdown>) {
    const TINY: f64 = 1e-30;
    let mut total = 0.0;
    let mut breakdown = Vec::with_capacity(metrics.len());
    for m in metrics {
        let xs = sch.get(&m.name).copied().unwrap_or(0.0);
        let xl = layout.get(&m.name).copied().unwrap_or(0.0);
        let xs = if xs.abs() < TINY { 0.0 } else { xs };
        // Simulated "zero" offsets land at the numerical noise floor; treat
        // anything far below the spec as schematic-zero.
        let xs = match (xs, m.spec) {
            (v, Some(spec)) if v.abs() < 0.02 * spec.abs() => 0.0,
            (v, _) => v,
        };
        let dev = deviation_percent(xs, xl, m.spec);
        total += m.weight * dev;
        breakdown.push(CostBreakdown {
            metric: m.name.clone(),
            weight: m.weight,
            deviation_pct: dev,
        });
    }
    (total, breakdown)
}

/// The highest cost still accepted next to a reference cost `best`:
/// `max(2·best, best + 5)`. The additive part keeps near-zero costs from
/// rejecting on noise. The flow's quality guard keeps the aspect-ratio
/// options within it of the best option, and the corner gate passes a
/// candidate whose cost at every corner stays within it of its nominal
/// cost.
pub fn quality_allowance(best: f64) -> f64 {
    (2.0 * best).max(best + 5.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_primitives::MetricKind;
    use std::collections::HashMap;

    #[test]
    fn allowance_matches_quality_guard_shape() {
        assert_eq!(quality_allowance(10.0), 20.0);
        assert_eq!(quality_allowance(1.0), 6.0);
        assert_eq!(quality_allowance(0.0), 5.0);
    }

    #[test]
    fn deviation_relative_to_schematic() {
        assert!((deviation_percent(2.0, 1.9, None) - 5.0).abs() < 1e-9);
        assert_eq!(deviation_percent(2.0, 2.0, None), 0.0);
        // Symmetric in direction.
        assert!(
            (deviation_percent(2.0, 2.2, None) - deviation_percent(2.0, 1.8, None)).abs() < 1e-9
        );
        // Negative schematic values normalize by magnitude.
        assert!((deviation_percent(-2.0, -1.0, None) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn deviation_spec_branch_clamps_at_zero() {
        // Better than spec: no penalty.
        assert_eq!(deviation_percent(0.0, 1e-4, Some(2e-4)), 0.0);
        // At spec: zero.
        assert_eq!(deviation_percent(0.0, 2e-4, Some(2e-4)), 0.0);
        // Twice the spec: 100%.
        assert!((deviation_percent(0.0, 4e-4, Some(2e-4)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn cost_weights_and_sums() {
        let metrics = vec![
            Metric::new("Gm", MetricKind::Gm, 0.5),
            Metric::new("Gm/Ctotal", MetricKind::GmOverCtotal, 0.5),
            Metric::with_spec("offset", MetricKind::InputOffset, 1.0, 2e-4),
        ];
        let mut sch = HashMap::new();
        sch.insert("Gm".to_string(), 2.0e-3);
        sch.insert("Gm/Ctotal".to_string(), 1.0e12);
        sch.insert("offset".to_string(), 0.0);
        let mut lay = HashMap::new();
        lay.insert("Gm".to_string(), 1.984e-3); // 0.8%
        lay.insert("Gm/Ctotal".to_string(), 0.948e12); // 5.2%
        lay.insert("offset".to_string(), 1e-4); // within spec
        let (cost, bd) = cost_of(&metrics, &sch, &lay);
        // 0.5·0.8 + 0.5·5.2 + 1·0 = 3.0 — the paper's best Table III row.
        assert!((cost - 3.0).abs() < 1e-9, "cost = {cost}");
        assert_eq!(bd.len(), 3);
        assert_eq!(bd[2].deviation_pct, 0.0);
    }

    #[test]
    fn noise_floor_offset_counts_as_zero_schematic() {
        let metrics = vec![Metric::with_spec(
            "offset",
            MetricKind::InputOffset,
            1.0,
            2e-4,
        )];
        let mut sch = HashMap::new();
        // Bisection noise: ~1e-9 V instead of exactly 0.
        sch.insert("offset".to_string(), 1.2e-9);
        let mut lay = HashMap::new();
        lay.insert("offset".to_string(), 8e-4);
        let (cost, _) = cost_of(&metrics, &sch, &lay);
        // (8e-4 − 2e-4)/2e-4 = 3 → 300%.
        assert!((cost - 300.0).abs() < 1.0, "cost = {cost}");
    }

    #[test]
    fn perfect_layout_costs_nothing() {
        let metrics = vec![
            Metric::new("a", MetricKind::Gm, 1.0),
            Metric::new("b", MetricKind::Cout, 0.1),
        ];
        let mut vals = HashMap::new();
        vals.insert("a".to_string(), 5.0);
        vals.insert("b".to_string(), 7.0);
        let (cost, _) = cost_of(&metrics, &vals, &vals.clone());
        assert_eq!(cost, 0.0);
    }

    #[test]
    fn cost_is_scale_invariant() {
        // Multiplying a metric's schematic and layout values by any constant
        // leaves the cost unchanged (relative deviations).
        let metrics = vec![Metric::new("x", MetricKind::Gm, 1.0)];
        for scale in [1e-15, 1.0, 1e12] {
            let mut sch = HashMap::new();
            sch.insert("x".to_string(), 3.0 * scale);
            let mut lay = HashMap::new();
            lay.insert("x".to_string(), 2.7 * scale);
            let (cost, _) = cost_of(&metrics, &sch, &lay);
            assert!((cost - 10.0).abs() < 1e-9, "scale {scale}: cost {cost}");
        }
    }
}
