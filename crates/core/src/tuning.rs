//! Primitive tuning (Algorithm 1, step 2): add parallel wires at the
//! tuning terminals of a selected layout until the cost stops improving —
//! or, on a monotonically decreasing curve, stop at the point of maximum
//! curvature (diminishing returns).

use prima_layout::PrimitiveLayout;
use prima_primitives::{Bias, MetricValues, PrimitiveDef, TuningTerminal};

use crate::accounting::Phase;
use crate::par::try_par_map;
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
    /// Algorithm 1, step 2: tunes each terminal group of `layout`, returning
    /// the final evaluated (minimum-cost) configuration.
    ///
    /// Groups are swept in library order. A lone terminal tries `1..=`
    /// [`Optimizer::max_tuning_wires`] wires and stops at the knee of its
    /// cost curve; a correlated group (practically ≤ 2 terminals, per the
    /// paper) tries the Cartesian product of `1..=min(max_tuning_wires, 4)`
    /// per terminal and keeps the first lowest cost.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures, and returns
    /// [`OptError::NoCandidates`] when a group has no wire count to try.
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
            current = self.tune_group(def, bias, current, &group, &sch)?;
        }
        self.evaluate_layout(def, bias, current, &sch, Phase::Tuning)
    }

    /// Sweeps one terminal group's wire counts in one fan-out (every
    /// combination is an independent simulation, Table V) and returns the
    /// picked candidate.
    fn tune_group(
        &self,
        def: &PrimitiveDef,
        bias: &Bias,
        layout: PrimitiveLayout,
        group: &[&TuningTerminal],
        sch: &MetricValues,
    ) -> Result<PrimitiveLayout, OptError> {
        // The joint sweep is capped tighter than the independent one — the
        // paper's CSI example explores ~9 combinations.
        let kmax = match group.len() {
            1 => self.max_tuning_wires,
            _ => self.max_tuning_wires.min(4),
        };
        // Every combination in odometer order: the first terminal counts
        // fastest.
        let mut cands = vec![layout];
        for t in group {
            cands = (1..=kmax)
                .flat_map(|k| cands.iter().map(move |c| (k, c.clone())))
                .map(|(k, mut cand)| {
                    for net in &t.nets {
                        cand.set_parallel_wires(net, k)?;
                    }
                    Ok(cand)
                })
                .collect::<Result<_, OptError>>()?;
        }
        if cands.is_empty() {
            return Err(OptError::NoCandidates {
                stage: format!("tuning: no wire count to try for {}", def.name),
            });
        }
        let costs = try_par_map(&cands, |cand| -> Result<f64, OptError> {
            let ev = self.evaluate_layout(def, bias, cand.clone(), sch, Phase::Tuning)?;
            Ok(ev.cost)
        })?;
        // A lone terminal stops at the knee of its curve; a group keeps the
        // first strictly lower cost in odometer order.
        let pick = match group.len() {
            1 => choose_knee(&costs),
            _ => (1..costs.len()).fold(0, |best, i| if costs[i] < costs[best] { i } else { best }),
        };
        Ok(cands.swap_remove(pick))
    }
}

#[cfg(test)]
mod oracle;

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
    fn an_empty_tuning_sweep_has_no_candidates() {
        // The DP's terminals sweep alone and the CSI's two as a group; with
        // no wire count to try, neither has a candidate.
        let tech = Technology::finfet7();
        let lib = Library::standard();
        for (name, cfg) in [
            ("dp", CellConfig::new(8, 12, 2, PlacementPattern::Abba)),
            ("csi", CellConfig::new(4, 4, 1, PlacementPattern::Abab)),
        ] {
            let def = lib.get(name).unwrap();
            let bias = prima_primitives::Bias::nominal(&tech, &def.class);
            let mut opt = Optimizer::new(&tech);
            opt.max_tuning_wires = 0;
            let layout = generate(&tech, &def.spec, &cfg).unwrap();
            let got = opt.tune(def, &bias, layout);
            assert!(
                matches!(got, Err(OptError::NoCandidates { .. })),
                "{name}: {got:?}"
            );
        }
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
