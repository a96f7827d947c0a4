//! Primitive tuning (Algorithm 1, step 2): add parallel wires at the
//! tuning terminals of a selected layout until the cost stops improving —
//! or, on a monotonically decreasing curve, stop at the point of maximum
//! curvature (diminishing returns).

use std::panic::resume_unwind;

use prima_layout::PrimitiveLayout;
use prima_primitives::{Bias, PrimitiveDef, TuningTerminal};

use crate::accounting::Phase;
use crate::par::par_map;
use crate::selection::Evaluated;
use crate::{OptError, Optimizer};

/// Picks the stopping index on a cost-vs-wires curve (`costs[i]` is the
/// cost at `i + 1` wires): the global minimum when the curve turns upward,
/// otherwise the maximum-curvature point of the decreasing curve.
pub(crate) fn choose_knee(costs: &[f64]) -> usize {
    debug_assert!(!costs.is_empty());
    let imin = costs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    if imin + 1 < costs.len() {
        // The curve turns upward after imin: the minimum is the stop point.
        return imin;
    }
    // Monotone decreasing: maximum discrete curvature.
    if costs.len() < 3 {
        return costs.len() - 1;
    }
    let mut best = costs.len() - 1;
    let mut best_k = f64::NEG_INFINITY;
    for i in 1..costs.len() - 1 {
        let k = costs[i - 1] - 2.0 * costs[i] + costs[i + 1];
        if k > best_k {
            best_k = k;
            best = i;
        }
    }
    best
}

impl<'t> Optimizer<'t> {
    /// Algorithm 1, step 2: tunes each terminal of `layout`, returning the
    /// final evaluated (minimum-cost) configuration.
    ///
    /// Uncorrelated terminals are optimized separately in library order;
    /// correlated terminal groups are swept jointly over the Cartesian
    /// product of wire counts (practically ≤ 2 terminals, per the paper).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn tune(
        &self,
        def: &PrimitiveDef,
        bias: &Bias,
        layout: PrimitiveLayout,
    ) -> Result<Evaluated, OptError> {
        let sch = self.schematic_reference(def, bias, layout.config.total_fins())?;
        let mut current = layout;

        // Group terminals: correlated pairs first-come, the rest singleton.
        let mut groups: Vec<Vec<&TuningTerminal>> = Vec::new();
        let mut used: Vec<&str> = Vec::new();
        for t in &def.tuning {
            if used.contains(&t.name.as_str()) {
                continue;
            }
            let mut group = vec![t];
            used.push(&t.name);
            if let Some(other_name) = &t.correlated_with {
                if let Some(other) = def.terminal(other_name) {
                    if !used.contains(&other.name.as_str()) {
                        group.push(other);
                        used.push(&other.name);
                    }
                }
            }
            groups.push(group);
        }

        for group in groups {
            if group.len() == 1 {
                current = self.tune_single(def, bias, current, group[0], &sch)?;
            } else {
                current = self.tune_joint(def, bias, current, &group, &sch)?;
            }
        }
        self.evaluate_layout(def, bias, current, &sch, Phase::Tuning)
    }

    /// Sweeps one terminal independently and applies the knee point.
    fn tune_single(
        &self,
        def: &PrimitiveDef,
        bias: &Bias,
        layout: PrimitiveLayout,
        terminal: &TuningTerminal,
        sch: &prima_primitives::MetricValues,
    ) -> Result<PrimitiveLayout, OptError> {
        // Every sweep point is an independent simulation (Table V). A
        // panicked sweep point has no result to salvage, so it re-raises.
        let ks: Vec<u32> = (1..=self.max_tuning_wires).collect();
        let costs = par_map(&ks, |&k| -> Result<f64, OptError> {
            let mut cand = layout.clone();
            for net in &terminal.nets {
                cand.set_parallel_wires(net, k)?;
            }
            Ok(self
                .evaluate_layout(def, bias, cand, sch, Phase::Tuning)?
                .cost)
        })
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect::<Result<Vec<f64>, OptError>>()?;
        let k_star = choose_knee(&costs) as u32 + 1;
        let mut out = layout;
        for net in &terminal.nets {
            out.set_parallel_wires(net, k_star)?;
        }
        Ok(out)
    }

    /// Joint sweep over a correlated terminal group.
    // `best` is seeded by the first combination before the odometer can
    // terminate, so the `expect` states a loop invariant.
    #[allow(clippy::expect_used)]
    fn tune_joint(
        &self,
        def: &PrimitiveDef,
        bias: &Bias,
        layout: PrimitiveLayout,
        group: &[&TuningTerminal],
        sch: &prima_primitives::MetricValues,
    ) -> Result<PrimitiveLayout, OptError> {
        // Enumerate the Cartesian product of wire counts (group.len() ≤ 2 in
        // practice). The joint sweep is capped tighter than the independent
        // one — the paper's CSI example explores ~9 combinations.
        let kmax = self.max_tuning_wires.min(4);
        let mut best: Option<(Vec<u32>, f64)> = None;
        let mut combo = vec![1u32; group.len()];
        loop {
            let mut cand = layout.clone();
            for (t, &k) in group.iter().zip(combo.iter()) {
                for net in &t.nets {
                    cand.set_parallel_wires(net, k)?;
                }
            }
            let ev = self.evaluate_layout(def, bias, cand, sch, Phase::Tuning)?;
            if best.as_ref().map(|(_, c)| ev.cost < *c).unwrap_or(true) {
                best = Some((combo.clone(), ev.cost));
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == combo.len() {
                    let (ks, _) = best.expect("at least one combo evaluated");
                    let mut out = layout;
                    for (t, &k) in group.iter().zip(ks.iter()) {
                        for net in &t.nets {
                            out.set_parallel_wires(net, k)?;
                        }
                    }
                    return Ok(out);
                }
                if combo[i] < kmax {
                    combo[i] += 1;
                    break;
                }
                combo[i] = 1;
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_layout::{generate, CellConfig, PlacementPattern};
    use prima_pdk::Technology;
    use prima_primitives::Library;

    #[test]
    fn knee_prefers_interior_minimum() {
        // Table IV DP column: min at w=4 (index 3).
        let costs = [5.17, 4.40, 4.23, 4.21, 4.25, 4.33, 4.42];
        assert_eq!(choose_knee(&costs), 3);
    }

    #[test]
    fn knee_on_monotone_curve_uses_curvature() {
        // Sharp elbow at index 1.
        let costs = [10.0, 4.0, 3.5, 3.2, 3.0];
        assert_eq!(choose_knee(&costs), 1);
    }

    #[test]
    fn knee_degenerate_inputs() {
        assert_eq!(choose_knee(&[1.0]), 0);
        assert_eq!(choose_knee(&[2.0, 1.0]), 1);
        // Flat curve: minimum is the first point.
        assert_eq!(choose_knee(&[1.0, 1.0, 1.0]), 0);
    }

    #[test]
    fn tuning_never_increases_cost() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let dp = lib.get("dp").unwrap();
        let bias = prima_primitives::Bias::nominal(&tech, &dp.class);
        let opt = Optimizer::new(&tech);
        let layout = generate(
            &tech,
            &dp.spec,
            &CellConfig::new(8, 12, 2, PlacementPattern::Abba),
        )
        .unwrap();
        let sch = opt
            .schematic_reference(dp, &bias, layout.config.total_fins())
            .unwrap();
        let before = opt
            .evaluate_layout(dp, &bias, layout.clone(), &sch, crate::Phase::Selection)
            .unwrap();
        let tuned = opt.tune(dp, &bias, layout).unwrap();
        assert!(
            tuned.cost <= before.cost + 1e-9,
            "tuning worsened cost: {} -> {}",
            before.cost,
            tuned.cost
        );
        // The tuned layout actually uses extra wires somewhere (the source
        // net of a DP is the classic win) unless the baseline was optimal.
        let sims = opt.counter().count(crate::Phase::Tuning);
        assert!(sims > 0);
    }

    #[test]
    fn correlated_terminals_sweep_jointly() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let csi = lib.get("csi").unwrap();
        let bias = prima_primitives::Bias::nominal(&tech, &csi.class);
        let mut opt = Optimizer::new(&tech);
        opt.max_tuning_wires = 3; // keep the joint sweep small in tests
        let layout = generate(
            &tech,
            &csi.spec,
            &CellConfig::new(4, 4, 1, PlacementPattern::Abab),
        )
        .unwrap();
        let tuned = opt.tune(csi, &bias, layout).unwrap();
        assert!(tuned.cost.is_finite());
        // Joint sweep of 2 correlated terminals at kmax=3 → 9 combos of
        // 3 metrics each, plus the final evaluation and schematic reference.
        let sims = opt.counter().total();
        assert!(sims >= 9 * 3, "sims = {sims}");
    }
}
