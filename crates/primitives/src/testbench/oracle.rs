//! Cold bisections of the three searched bias points, the oracle of the
//! warm-started secant searches: the input offset (40 steps, a rebuilt
//! scaffold per step), the clocked-pair tail bias (18 steps) and the
//! current-starved inverter's trip point (30 steps), every step a DC
//! solve from a zero start.

use super::*;
use crate::library::Library;
use prima_layout::{generate, CellConfig, PlacementPattern};

/// Bisects the clock gate voltage of a switched pair until the pair
/// carries `target`, each step solved cold.
fn cold_tail(s: &mut Scaffold, pol: FetPolarity, vdd: f64, target: f64) {
    let (mut lo, mut hi) = (0.15, vdd);
    for _ in 0..18 {
        let mid = 0.5 * (lo + hi);
        set_dc(&mut s.circuit, "VCLK", mid);
        let i_total = match DcSolver::new().solve(&s.circuit) {
            Ok(op) => {
                op.branch_current("VDA").unwrap_or(0.0).abs()
                    + op.branch_current("VDB").unwrap_or(0.0).abs()
            }
            // Treat a non-converged midpoint as "too much current".
            Err(_) => f64::INFINITY,
        };
        // NMOS switch: more gate voltage, more current.
        let too_much = i_total > target;
        let rising = matches!(pol, FetPolarity::Nmos);
        if too_much == rising {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    set_dc(&mut s.circuit, "VCLK", 0.5 * (lo + hi));
}

/// A DP scaffold with input offset `din` and, on a switched pair, the
/// cold tail bisection at that input.
fn cold_dp_scaffold(
    def: &PrimitiveDef,
    s: impl Fn() -> Scaffold,
    bias: &Bias,
    din: f64,
) -> Scaffold {
    let mut s = s();
    let vcm = dp_vcm(def, bias);
    set_dc(&mut s.circuit, "VGA", vcm + din / 2.0);
    set_dc(&mut s.circuit, "VGB", vcm - din / 2.0);
    if def.ports.iter().any(|p| p == "clk") {
        cold_tail(&mut s, polarity(def), bias.vdd, bias.i("tail", 300e-6));
    }
    s
}

/// The bisected input offset: drain currents matched to ~1e-13 V.
fn cold_offset(def: &PrimitiveDef, s: impl Fn() -> Scaffold, bias: &Bias) -> f64 {
    let f = |d: f64| {
        let s = cold_dp_scaffold(def, &s, bias, d);
        let op = DcSolver::new().solve(&s.circuit).unwrap();
        op.branch_current("VDA").unwrap() - op.branch_current("VDB").unwrap()
    };
    let (mut lo, mut hi) = (-0.06f64, 0.06f64);
    let (flo, fhi) = (f(lo), f(hi));
    if flo == 0.0 {
        return lo.abs();
    }
    if flo.signum() == fhi.signum() {
        return hi;
    }
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        let fm = f(mid);
        if fm == 0.0 {
            return mid.abs();
        }
        if fm.signum() == flo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (0.5 * (lo + hi)).abs()
}

/// The inverter gain around its bisected trip point.
fn cold_gain(out_at: impl Fn(f64) -> f64, vdd: f64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, vdd);
    for _ in 0..30 {
        let mid = 0.5 * (lo + hi);
        if out_at(mid) > vdd / 2.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let trip = 0.5 * (lo + hi);
    let dv = 2e-3;
    (out_at(trip + dv) - out_at(trip - dv)).abs() / (2.0 * dv)
}

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs()
}

/// Every DP-class primitive and the current-starved inverter, on the
/// schematic view and two layouts of `tech`: the searched metrics stay
/// within their stated tolerances of the cold bisections, and the
/// unsearched DP metrics are unchanged.
fn searches_match_cold_bisections(tech: &Technology) {
    let lib = Library::standard();
    let configs = [
        CellConfig::new(4, 4, 2, PlacementPattern::Abab),
        CellConfig::new(2, 8, 2, PlacementPattern::Abba),
    ];
    let mut checked = 0;
    for def in lib.iter() {
        let is_dp = matches!(def.class, PrimitiveClass::DifferentialPair);
        if !is_dp && !matches!(def.class, PrimitiveClass::CurrentStarvedInverter) {
            continue;
        }
        let bias = Bias::nominal(tech, &def.class);
        let ext = HashMap::new();
        let layouts: Vec<_> = configs
            .iter()
            .map(|cfg| generate(tech, &def.spec, cfg).unwrap())
            .collect();
        let mut views = vec![LayoutView::Schematic { total_fins: 32 }];
        views.extend(layouts.iter().map(LayoutView::Layout));
        for view in views {
            let new = evaluate_all(tech, def, view, &bias, &ext).unwrap();
            let at = |what: &str| format!("{} {} {what}", tech.name, def.name);
            if is_dp {
                let sc = |ac_in: bool, ac_drain: bool| {
                    let (bias, ext) = (&bias, &ext);
                    move || dp_scaffold(tech, def, view, bias, ext, ac_in, ac_drain).unwrap()
                };
                let off = cold_offset(def, sc(false, false), &bias);
                assert!(
                    (new["offset"] - off).abs() <= 1e-9,
                    "{}: {} vs {off}",
                    at("offset"),
                    new["offset"]
                );
                let gm = dp_gm(&cold_dp_scaffold(def, sc(true, false), &bias, 0.0)).unwrap();
                let c = dp_drain_cap(&cold_dp_scaffold(def, sc(false, true), &bias, 0.0)).unwrap();
                let gm_ct = dp_gm_over_ctotal(gm, c).unwrap();
                if def.ports.iter().any(|p| p == "clk") {
                    assert!(rel(new["Gm"], gm) <= 1e-4, "{}", at("Gm"));
                    assert!(rel(new["Gm/Ctotal"], gm_ct) <= 1e-4, "{}", at("Gm/Ctotal"));
                } else {
                    assert_eq!(new["Gm"], gm, "{}", at("Gm"));
                    assert_eq!(new["Gm/Ctotal"], gm_ct, "{}", at("Gm/Ctotal"));
                }
            } else {
                let out_at = |vin: f64| {
                    let s = csi_scaffold(tech, def, view, &bias, &ext, Waveform::Dc(vin)).unwrap();
                    let op = DcSolver::new().solve(&s.circuit).unwrap();
                    op.voltage(s.port["out"])
                };
                let gain = cold_gain(out_at, bias.vdd);
                assert!(
                    rel(new["gain"], gain) <= 1e-6,
                    "{}: {} vs {gain}",
                    at("gain"),
                    new["gain"]
                );
            }
            checked += 1;
        }
    }
    // Four differential pairs and the inverter, three views each.
    assert_eq!(checked, 15);
}

#[test]
fn searches_match_cold_bisections_on_finfet7() {
    searches_match_cold_bisections(&Technology::finfet7());
}

#[test]
fn searches_match_cold_bisections_on_bulk16() {
    searches_match_cold_bisections(&Technology::bulk16());
}

#[test]
fn searches_match_cold_bisections_on_sky130ish() {
    searches_match_cold_bisections(&Technology::sky130ish());
}
