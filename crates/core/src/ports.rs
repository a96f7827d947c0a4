//! Primitive port optimization (Algorithm 2): size the external routes at
//! each primitive port as a number of parallel global-route wires.
//!
//! Step 1 generates per-primitive interval constraints `[w_min, w_max]` on
//! each connected net by sweeping the parallel-route count and watching the
//! primitive cost. Step 2 reconciles the constraints of every primitive
//! sharing a net: overlapping intervals take the largest lower bound (for
//! congestion), disjoint intervals take the count minimizing the summed
//! cost over the gap range.

use std::collections::HashMap;
use std::panic::resume_unwind;

use prima_geom::Nm;
use prima_layout::PrimitiveLayout;
use prima_pdk::Technology;
use prima_primitives::{Bias, ExternalWire, LayoutView, PrimitiveDef};

use crate::accounting::Phase;
use crate::cost::cost_of;
use crate::par::par_map;
use crate::tuning::choose_knee;
use crate::{OptError, Optimizer};

/// Geometry of a global route at a primitive port, as reported by the
/// global router: the paper's "distance, layer and via information".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalRoute {
    /// Metal layer (1-based) the route runs on.
    pub layer: usize,
    /// Route length in nm.
    pub len_nm: Nm,
    /// Via transitions from M1 up to the route layer at each end.
    pub via_ends: u32,
}

/// Converts a global route into the port wiring RC seen by the primitive
/// when built from `k` parallel routes.
///
/// # Panics
///
/// Panics if `k == 0` or the layer is not in the stack.
pub fn route_wire(tech: &Technology, route: &GlobalRoute, k: u32) -> ExternalWire {
    assert!(k >= 1, "need at least one route");
    let layer = tech.metal(route.layer);
    let r_wire = layer.resistance(route.len_nm, k);
    let r_vias = tech.via_stack_r(1, route.layer) * route.via_ends as f64 / k as f64;
    let c_wire = layer.capacitance(route.len_nm, k);
    let c_vias = tech.via_c * (route.via_ends * k) as f64;
    ExternalWire {
        r_ohm: r_wire + r_vias,
        c_f: c_wire + c_vias,
    }
}

/// Interval constraint produced by one primitive for one net.
#[derive(Debug, Clone, PartialEq)]
pub struct PortConstraint {
    /// Net name (primitive port).
    pub net: String,
    /// Lower bound on parallel routes (maximum-curvature point).
    pub w_min: u32,
    /// Upper bound (first cost increase), or `None` when unbounded within
    /// the explored range.
    pub w_max: Option<u32>,
    /// Cost at each explored count (`costs[i]` ↔ `i + 1` routes).
    pub costs: Vec<f64>,
}

impl PortConstraint {
    /// Cost at `w` routes, clamping to the explored range.
    pub fn cost_at(&self, w: u32) -> f64 {
        let i = (w.max(1) as usize - 1).min(self.costs.len() - 1);
        self.costs[i]
    }
}

/// Result of reconciling the constraints on one net.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconciledNet {
    /// Net name.
    pub net: String,
    /// Chosen number of parallel routes.
    pub w: u32,
    /// Whether the intervals overlapped (fast path) or required the
    /// cost-sum search over the gap.
    pub overlapped: bool,
}

impl<'t> Optimizer<'t> {
    /// Algorithm 2, step 1: generates the `[w_min, w_max]` constraint for
    /// each routed net of one primitive.
    ///
    /// `routes` maps port nets to their global-route geometry; nets missing
    /// from the map are left unconstrained. The primitive is evaluated with
    /// the route RC attached to one net at a time (the paper optimizes each
    /// port independently in this step).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures.
    pub fn port_constraints(
        &self,
        def: &PrimitiveDef,
        bias: &Bias,
        layout: Option<&PrimitiveLayout>,
        total_fins: u64,
        routes: &HashMap<String, GlobalRoute>,
    ) -> Result<Vec<PortConstraint>, OptError> {
        let view = match layout {
            Some(l) => LayoutView::Layout(l),
            None => LayoutView::Schematic { total_fins },
        };
        let sch = self.eval_values(
            def,
            view_sch(total_fins),
            bias,
            &Default::default(),
            Phase::PortConstraints,
        )?;

        let ks: Vec<u32> = (1..=self.max_port_routes).collect();
        let mut out = Vec::new();
        for (net, route) in routes {
            if !def.ports.contains(net) {
                continue;
            }
            // Symmetric net groups (a pair's two drains) are routed
            // symmetrically by the detailed router — the paper maintains
            // input offset through exactly this geometric constraint — so
            // the testbench wires the whole group, not one side.
            let group: Vec<String> = def
                .tuning
                .iter()
                .find(|t| t.nets.contains(net))
                .map(|t| t.nets.clone())
                .unwrap_or_else(|| vec![net.clone()]);
            // Parallel-route sweep points are independent simulations. A
            // panicked sweep point has no result to salvage, so it re-raises.
            let costs = par_map(&ks, |&k| -> Result<f64, OptError> {
                let mut ext = HashMap::new();
                for g in &group {
                    ext.insert(g.clone(), route_wire(self.tech(), route, k));
                }
                let values = self.eval_values(def, view, bias, &ext, Phase::PortConstraints)?;
                let (cost, _) = cost_of(&def.metrics, &sch, &values);
                Ok(cost)
            })
            .into_iter()
            .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
            .collect::<Result<Vec<f64>, OptError>>()?;
            let (w_min, w_max) = interval_from_costs(&costs);
            out.push(PortConstraint {
                net: net.clone(),
                w_min,
                w_max,
                costs,
            });
        }
        out.sort_by(|a, b| a.net.cmp(&b.net));
        Ok(out)
    }
}

fn view_sch(total_fins: u64) -> LayoutView<'static> {
    LayoutView::Schematic { total_fins }
}

/// Derives `[w_min, w_max]` from a cost-vs-routes curve: `w_min` is the
/// maximum-curvature (knee) point of the decreasing portion, `w_max` the
/// first count at which the cost has turned upward (`None` if it never
/// does within the sweep).
pub(crate) fn interval_from_costs(costs: &[f64]) -> (u32, Option<u32>) {
    debug_assert!(!costs.is_empty());
    let imin = costs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    let w_max = if imin + 1 < costs.len() {
        Some(imin as u32 + 2) // first increasing point, 1-based
    } else {
        None
    };
    // Knee of the decreasing portion costs[0..=imin].
    let dec = &costs[..=imin];
    let w_min = (choose_knee(dec) as u32 + 1).min(imin as u32 + 1).max(1);
    (w_min, w_max)
}

/// Algorithm 2 electromigration closure: raises every `[w_min, w_max]`
/// interval on a net so reconciliation can never choose fewer parallel
/// routes than the EM-safe count `floor` (see
/// [`prima_pdk::Technology::em_required_routes`]).
///
/// `w_min` is clamped up to the floor and any finite `w_max` below it is
/// lifted to exactly the floor, so intervals stay non-empty and the
/// reconciled width still lies inside every published interval — both the
/// overlapped fast path (`max` of lower bounds) and the disjoint cost-sum
/// search then operate entirely at or above the floor. A floor of 0 or 1
/// is a no-op: one route is always allowed to carry a within-limit
/// current.
pub fn clamp_to_em_floor(constraints: &mut [PortConstraint], floor: u32) {
    if floor <= 1 {
        return;
    }
    for c in constraints.iter_mut() {
        if c.w_min < floor {
            c.w_min = floor;
        }
        if let Some(m) = c.w_max {
            if m < floor {
                c.w_max = Some(floor);
            }
        }
    }
}

/// Algorithm 2, step 2: reconciles the constraints that several primitives
/// place on one net.
///
/// Overlapping intervals: the smallest count inside the intersection —
/// `max(w_min_i)` — keeps routing congestion low. Disjoint intervals: the
/// count in `[min(w_max_i), max(w_min_i)]` minimizing the summed cost
/// curves.
///
/// # Panics
///
/// Panics if `constraints` is empty or the constraints disagree on the net
/// name (caller bugs).
// Panicking on caller bugs is this function's documented contract; the
// `expect`s below restate invariants the leading asserts establish.
#[allow(clippy::expect_used)]
pub fn reconcile(constraints: &[PortConstraint]) -> ReconciledNet {
    assert!(!constraints.is_empty(), "no constraints to reconcile");
    let net = constraints[0].net.clone();
    assert!(
        constraints.iter().all(|c| c.net == net),
        "constraints for different nets"
    );
    let lo = constraints.iter().map(|c| c.w_min).max().expect("nonempty");
    let hi_opt = constraints.iter().filter_map(|c| c.w_max).min();
    let overlapped = match hi_opt {
        Some(hi) => lo <= hi,
        None => true,
    };
    if overlapped {
        return ReconciledNet {
            net,
            w: lo,
            overlapped: true,
        };
    }
    // Disjoint: search the gap between the tightest upper bound and the
    // largest lower bound for the minimum summed cost.
    let hi = hi_opt.expect("disjoint requires a finite upper bound");
    let (a, b) = (hi.min(lo), hi.max(lo));
    let mut best_w = a;
    let mut best_cost = f64::INFINITY;
    for w in a..=b {
        let total: f64 = constraints.iter().map(|c| c.cost_at(w)).sum();
        if total < best_cost {
            best_cost = total;
            best_w = w;
        }
    }
    ReconciledNet {
        net,
        w: best_w,
        overlapped: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_primitives::Library;

    #[test]
    fn route_wire_scales_with_parallel_count() {
        let tech = Technology::finfet7();
        let route = GlobalRoute {
            layer: 3,
            len_nm: 2000,
            via_ends: 2,
        };
        let w1 = route_wire(&tech, &route, 1);
        let w4 = route_wire(&tech, &route, 4);
        assert!(w4.r_ohm < w1.r_ohm / 3.0);
        assert!(w4.c_f > w1.c_f);
        // 2 µm of M3 at 60 Ω/µm = 120 Ω, plus two via stacks M1→M3.
        let expect_r = 120.0 + 2.0 * (22.0 + 18.0);
        assert!((w1.r_ohm - expect_r).abs() < 1e-9, "r = {}", w1.r_ohm);
    }

    #[test]
    fn interval_from_table4_like_curve() {
        // DP column of Table IV: min at index 3 (w = 4).
        let costs = [5.17, 4.40, 4.23, 4.21, 4.25, 4.33, 4.42];
        let (w_min, w_max) = interval_from_costs(&costs);
        assert_eq!(w_max, Some(5));
        assert!((2..=4).contains(&w_min), "w_min = {w_min}");
    }

    #[test]
    fn interval_unbounded_when_monotone() {
        let costs = [10.0, 6.0, 4.5, 4.0, 3.8, 3.7, 3.65];
        let (w_min, w_max) = interval_from_costs(&costs);
        assert_eq!(w_max, None);
        assert!(w_min >= 2, "knee at {w_min}");
    }

    #[test]
    fn reconcile_overlapping_takes_max_lower_bound() {
        let c1 = PortConstraint {
            net: "n3".into(),
            w_min: 1,
            w_max: None,
            costs: vec![5.0, 4.0, 3.5],
        };
        let c2 = PortConstraint {
            net: "n3".into(),
            w_min: 4,
            w_max: None,
            costs: vec![4.5, 3.4, 3.0],
        };
        let r = reconcile(&[c1, c2]);
        // The paper's Fig. 6 example: choose 4 routes at net 3.
        assert_eq!(r.w, 4);
        assert!(r.overlapped);
    }

    #[test]
    fn reconcile_disjoint_minimizes_summed_cost() {
        // Primitive A wants few wires (cost rises fast), B wants many.
        let a = PortConstraint {
            net: "x".into(),
            w_min: 1,
            w_max: Some(2),
            costs: vec![1.0, 1.0, 3.0, 6.0, 10.0, 15.0],
        };
        let b = PortConstraint {
            net: "x".into(),
            w_min: 5,
            w_max: None,
            costs: vec![9.0, 7.0, 5.0, 3.0, 2.0, 1.8],
        };
        let r = reconcile(&[a.clone(), b.clone()]);
        assert!(!r.overlapped);
        // Gap range [2, 5]: sums are 1+7=8, 3+5=8, 6+3=9, 10+2=12 → w = 2.
        assert_eq!(r.w, 2);
        let best: f64 = a.cost_at(r.w) + b.cost_at(r.w);
        for w in 2..=5 {
            assert!(best <= a.cost_at(w) + b.cost_at(w) + 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "no constraints")]
    fn reconcile_empty_panics() {
        let _ = reconcile(&[]);
    }

    #[test]
    fn em_floor_lifts_overlapped_reconciliation() {
        let mut cons = vec![
            PortConstraint {
                net: "n3".into(),
                w_min: 1,
                w_max: None,
                costs: vec![5.0, 4.0, 3.5],
            },
            PortConstraint {
                net: "n3".into(),
                w_min: 2,
                w_max: None,
                costs: vec![4.5, 3.4, 3.0],
            },
        ];
        clamp_to_em_floor(&mut cons, 4);
        let r = reconcile(&cons);
        assert!(r.overlapped);
        assert_eq!(r.w, 4, "EM floor must win over the cost-derived bound");
    }

    #[test]
    fn em_floor_keeps_disjoint_intervals_nonempty() {
        // Both upper bounds start below the floor; after clamping the
        // search range collapses onto the floor itself.
        let mut cons = vec![
            PortConstraint {
                net: "x".into(),
                w_min: 1,
                w_max: Some(2),
                costs: vec![1.0, 1.0, 3.0, 6.0, 10.0, 15.0],
            },
            PortConstraint {
                net: "x".into(),
                w_min: 3,
                w_max: Some(4),
                costs: vec![9.0, 7.0, 5.0, 3.0, 2.0, 1.8],
            },
        ];
        clamp_to_em_floor(&mut cons, 5);
        for c in &cons {
            assert!(c.w_max.is_none_or(|m| m >= c.w_min), "empty interval");
        }
        let r = reconcile(&cons);
        assert_eq!(r.w, 5);
    }

    #[test]
    fn em_floor_of_one_changes_nothing() {
        let orig = vec![PortConstraint {
            net: "y".into(),
            w_min: 2,
            w_max: Some(3),
            costs: vec![2.0, 1.0, 1.5],
        }];
        let mut cons = orig.clone();
        clamp_to_em_floor(&mut cons, 1);
        assert_eq!(cons, orig);
        clamp_to_em_floor(&mut cons, 0);
        assert_eq!(cons, orig);
    }

    #[test]
    fn dp_port_sweep_produces_u_shape() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let dp = lib.get("dp").unwrap();
        let bias = Bias::nominal(&tech, &dp.class);
        let opt = Optimizer::new(&tech);
        // The paper's setting: 2 µm of M3 at the drain.
        let mut routes = HashMap::new();
        routes.insert(
            "da".to_string(),
            GlobalRoute {
                layer: 3,
                len_nm: 2000,
                via_ends: 2,
            },
        );
        let cons = opt.port_constraints(dp, &bias, None, 960, &routes).unwrap();
        assert_eq!(cons.len(), 1);
        let c = &cons[0];
        assert_eq!(c.net, "da");
        assert_eq!(c.costs.len(), 8);
        // More wires reduce R-driven cost at first.
        assert!(
            c.costs[1] < c.costs[0],
            "first added wire should help: {:?}",
            c.costs
        );
        assert!(c.w_min >= 1);
        // Port-constraint sims were recorded: (1 + 8) runs × 3 metrics.
        assert_eq!(
            opt.counter().count(crate::Phase::PortConstraints),
            9 * dp.metrics.len()
        );
    }
}
