//! Property-based invariants across the workspace (proptest).

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use prima_core::{cost_of, deviation_percent, reconcile, PortConstraint};
use prima_geom::{Point, Rect};
use prima_layout::{generate, CellConfig, DeviceSpec, PlacementPattern, PrimitiveSpec};
use prima_pdk::Technology;
use prima_place::{Block, Net, PlacementProblem, Placer};
use prima_primitives::{Metric, MetricKind};
use prima_route::{GlobalRouter, RoutingProblem};
use prima_spice::analysis::dc::DcSolver;
use prima_spice::netlist::Circuit;
use prima_spice::num::Matrix;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LU solves any random diagonally dominant system to high residual
    /// accuracy.
    #[test]
    fn lu_solves_diagonally_dominant(
        n in 1usize..12,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut m = Matrix::<f64>::zero(n);
        let mut b = vec![0.0; n];
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                if i != j {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    m[(i, j)] = v;
                    row_sum += v.abs();
                }
            }
            m[(i, i)] = row_sum + rng.gen_range(0.5..2.0);
            b[i] = rng.gen_range(-10.0..10.0);
        }
        let x = m.solve(&b).unwrap();
        let back = m.mul_vec(&x);
        for (bi, yi) in b.iter().zip(back.iter()) {
            prop_assert!((bi - yi).abs() < 1e-8, "residual {}", (bi - yi).abs());
        }
    }

    /// A resistive divider chain solves to voltages that are monotone along
    /// the chain and within the source range.
    #[test]
    fn divider_chain_is_monotone(
        rs in prop::collection::vec(1.0f64..1e6, 2..8),
        v in 0.1f64..10.0,
    ) {
        let mut c = Circuit::new();
        let top = c.node("top");
        c.vsource("V1", top, Circuit::GROUND, v);
        let mut prev = top;
        let mut nodes = vec![top];
        for (i, r) in rs.iter().enumerate() {
            let n = c.node(&format!("n{i}"));
            c.resistor(&format!("R{i}"), prev, n, *r).unwrap();
            nodes.push(n);
            prev = n;
        }
        c.resistor("Rend", prev, Circuit::GROUND, 1e3).unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        let mut last = v + 1e-9;
        for n in nodes {
            let vn = op.voltage(n);
            prop_assert!(vn <= last + 1e-9, "chain voltage rose: {vn} after {last}");
            prop_assert!(vn >= -1e-9);
            last = vn;
        }
    }

    /// Eq. 6 invariants: zero at parity, scale-invariant, symmetric.
    #[test]
    fn deviation_properties(x in 1e-12f64..1e12, rel in -0.9f64..0.9) {
        let y = x * (1.0 + rel);
        prop_assert!(deviation_percent(x, x, None) == 0.0);
        let d1 = deviation_percent(x, y, None);
        let d2 = deviation_percent(2.0 * x, 2.0 * y, None);
        prop_assert!((d1 - d2).abs() < 1e-6 * d1.max(1.0));
        prop_assert!((d1 - 100.0 * rel.abs()).abs() < 1e-6 * d1.max(1.0));
    }

    /// The cost function is non-negative and additive in weights.
    #[test]
    fn cost_is_nonnegative(
        vals in prop::collection::vec((1e-6f64..1e6, 0.5f64..2.0), 1..5),
    ) {
        let mut metrics = Vec::new();
        let mut sch = std::collections::HashMap::new();
        let mut lay = std::collections::HashMap::new();
        for (i, (v, ratio)) in vals.iter().enumerate() {
            let name = format!("m{i}");
            metrics.push(Metric::new(&name, MetricKind::Gm, 0.5));
            sch.insert(name.clone(), *v);
            lay.insert(name, v * ratio);
        }
        let (cost, breakdown) = cost_of(&metrics, &sch, &lay);
        prop_assert!(cost >= 0.0);
        let sum: f64 = breakdown.iter().map(|b| b.weight * b.deviation_pct).sum();
        prop_assert!((cost - sum).abs() < 1e-9);
    }

    /// Reconciliation always returns a width no smaller than 1 and, for
    /// overlapping intervals, exactly the max lower bound.
    #[test]
    fn reconcile_feasibility(
        wmins in prop::collection::vec(1u32..6, 1..4),
        has_cap in any::<bool>(),
    ) {
        let constraints: Vec<PortConstraint> = wmins
            .iter()
            .map(|&w| PortConstraint {
                net: "n".to_string(),
                w_min: w,
                w_max: if has_cap { Some(w + 2) } else { None },
                costs: (0..8).map(|k| (8 - k) as f64).collect(),
            })
            .collect();
        let r = reconcile(&constraints);
        prop_assert!(r.w >= 1);
        let lo = *wmins.iter().max().unwrap();
        if has_cap {
            let hi = wmins.iter().map(|w| w + 2).min().unwrap();
            if lo <= hi {
                prop_assert_eq!(r.w, lo);
            } else {
                prop_assert!(r.w >= hi.min(lo) && r.w <= lo.max(hi));
            }
        } else {
            prop_assert_eq!(r.w, lo);
        }
    }

    /// Cell generation conserves total fins in device widths and keeps the
    /// tuning R monotone non-increasing in the wire count.
    #[test]
    fn layout_generation_invariants(
        nfin in 1u32..24,
        nf in 2u32..20,
        m in 1u32..5,
        pattern_ix in 0usize..3,
    ) {
        let tech = Technology::finfet7();
        let spec = PrimitiveSpec::new(
            "dp",
            vec![
                DeviceSpec::new("MA", prima_spice::devices::FetPolarity::Nmos, "da", "ga", "s"),
                DeviceSpec::new("MB", prima_spice::devices::FetPolarity::Nmos, "db", "gb", "s"),
            ],
        );
        let cfg = CellConfig::new(nfin, nf, m, PlacementPattern::ALL[pattern_ix]);
        let mut layout = generate(&tech, &spec, &cfg).unwrap();
        let expect_w = tech.fin.weff_m(nfin * nf * m);
        for d in &layout.devices {
            prop_assert!((d.w_m - expect_w).abs() < 1e-12);
            prop_assert!(d.mobility_scale > 0.4 && d.mobility_scale < 1.6);
        }
        let mut last_r = f64::INFINITY;
        let mut last_c = 0.0;
        for k in 1..=6 {
            layout.set_parallel_wires("s", k).unwrap();
            let p = layout.net_parasitics("s").unwrap();
            prop_assert!(p.r_ohm <= last_r + 1e-12);
            prop_assert!(p.c_total_f >= last_c - 1e-24);
            last_r = p.r_ohm;
            last_c = p.c_total_f;
        }
    }

    /// The placer always produces a legal, symmetric placement on random
    /// small problems.
    #[test]
    fn placer_legalizes_random_problems(
        sizes in prop::collection::vec((400i64..3000, 400i64..3000), 2..6),
        seed in any::<u64>(),
    ) {
        let mut p = PlacementProblem::new();
        let ids: Vec<usize> = sizes
            .iter()
            .enumerate()
            .map(|(i, &(w, h))| p.add_block(Block::new(&format!("b{i}"), vec![(w, h)])))
            .collect();
        for w in ids.windows(2) {
            p.add_net(Net::new("n", vec![w[0], w[1]]));
        }
        let placement = Placer::new(seed).place(&p).unwrap();
        prop_assert!(!placement.has_overlaps(&p));
    }

    /// The router connects every net with length at least the HPWL lower
    /// bound and at most the Manhattan star upper bound.
    #[test]
    fn router_length_bounds(
        pins in prop::collection::vec((0i64..20_000, 0i64..20_000), 2..6),
    ) {
        let tech = Technology::finfet7();
        let pts: Vec<Point> = pins.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let mut problem = RoutingProblem::new();
        problem.add_net("n", pts.clone());
        let res = GlobalRouter::new(&tech).route(&problem).unwrap();
        let len = res.net("n").unwrap().total_len_nm();
        let mut bb = Rect::new(pts[0], pts[0]);
        for &p in &pts[1..] {
            bb = bb.union(&Rect::new(p, p));
        }
        prop_assert!(len >= bb.half_perimeter(), "len {len} < hpwl {}", bb.half_perimeter());
        let star: i64 = pts[1..].iter().map(|p| p.manhattan(pts[0])).sum();
        prop_assert!(len <= star.max(bb.half_perimeter()), "len {len} > star {star}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Global-route wiring: more parallel routes monotonically trade R for C.
    #[test]
    fn route_wire_monotone_in_k(
        layer in 1usize..7,
        len in 100i64..20_000,
        vias in 0u32..4,
    ) {
        use prima_core::{route_wire, GlobalRoute};
        let tech = Technology::finfet7();
        let route = GlobalRoute { layer, len_nm: len, via_ends: vias };
        let mut last_r = f64::INFINITY;
        let mut last_c = 0.0;
        for k in 1..=8 {
            let w = route_wire(&tech, &route, k);
            prop_assert!(w.r_ohm < last_r);
            prop_assert!(w.c_f >= last_c);
            last_r = w.r_ohm;
            last_c = w.c_f;
        }
    }

    /// Power-grid synthesis: drop scales with current and shrinks with
    /// strap width for any block position.
    #[test]
    fn power_grid_monotonicity(
        x in 500i64..11_000,
        y in 0i64..8_000,
        i_ua in 10.0f64..5_000.0,
    ) {
        use prima_route::power::{synthesize, PowerGridSpec};
        let tech = Technology::finfet7();
        let bbox = Rect::from_size(Point::new(0, 0), 12_000, 9_000);
        let block = Rect::from_size(Point::new(x, y), 800, 800);
        let i = i_ua * 1e-6;
        let thin = synthesize(&tech, bbox, &[(block, i)], &PowerGridSpec { strap_tracks: 2, ..PowerGridSpec::for_tech(&tech) });
        let wide = synthesize(&tech, bbox, &[(block, i)], &PowerGridSpec { strap_tracks: 6, ..PowerGridSpec::for_tech(&tech) });
        prop_assert!(wide.worst_drop_v <= thin.worst_drop_v);
        let double = synthesize(&tech, bbox, &[(block, 2.0 * i)], &PowerGridSpec { strap_tracks: 2, ..PowerGridSpec::for_tech(&tech) });
        prop_assert!(double.worst_drop_v >= thin.worst_drop_v);
    }

    /// Detailed routing never produces conflicts on random two-net problems
    /// with random widths.
    #[test]
    fn detail_routing_conflict_free(
        y1 in 0i64..2_000,
        y2 in 0i64..2_000,
        k1 in 1u32..5,
        k2 in 1u32..5,
    ) {
        use prima_route::detail::DetailRouter;
        use prima_route::{GlobalRouter, RoutingProblem};
        let tech = Technology::finfet7();
        let mut p = RoutingProblem::new();
        p.add_net("a", vec![Point::new(0, y1), Point::new(6_000, y1)]);
        p.add_net("b", vec![Point::new(0, y2), Point::new(6_000, y2)]);
        let routes = GlobalRouter::new(&tech).route(&p).unwrap().routes().to_vec();
        let mut widths = std::collections::HashMap::new();
        widths.insert("a".to_string(), k1);
        widths.insert("b".to_string(), k2);
        let res = DetailRouter::new(&tech).assign(&routes, &widths).unwrap();
        prop_assert!(res.verify_no_conflicts());
        prop_assert_eq!(res.occupied_slots(), (k1 + k2) as usize);
    }
}
