//! The drain-current model as it was before its powers became products and
//! square roots, kept as the oracle of [`FetInstance::eval`]: the
//! triode/saturation blend takes `r⁴`, `(1 + r⁴)^(1/4)`, `(1 + r⁴)^(−5/4)`
//! and `r⁵` through `powf`, and the mobility temperature factor is
//! `T^−1.5` through `powf`. Over a grid of biases, temperatures and body
//! effects, both polarities and both drain/source orientations, `id`,
//! `gm`, `gds` and `gmb` agree within [`REL_TOL`].

use super::*;

/// The largest relative difference allowed between the model and the
/// oracle, a few tens of ulps.
const REL_TOL: f64 = 1e-14;

/// The NMOS-frame evaluation with the blend and the temperature factor
/// through `powf`.
fn eval_nmos_frame(inst: &FetInstance, vgs: f64, vds: f64, vbs: f64) -> NmosEval {
    let m = &inst.model;
    let n = m.n_slope.max(1.0);
    let nvt = n * m.vt();
    let vth = inst.vth_eff(vbs);
    let u = (vgs - vth) / (2.0 * nvt);
    let (veff, sig) = softplus(u);
    let veff = 2.0 * nvt * veff;
    let dvth_dvbs = if m.gamma > 0.0 {
        let arg = (m.phi - vbs).max(0.05);
        -m.gamma / (2.0 * arg.sqrt())
    } else {
        0.0
    };
    let dveff_dvbs = -sig * dvth_dvbs;

    let vdsat = veff.max(1e-9);
    const A: f64 = 4.0;
    let r = (vds / vdsat).max(0.0);
    let ra = r.powf(A);
    let d = (1.0 + ra).powf(1.0 / A);
    let vdse = vds / d;
    let dvdse_dvds = (1.0 + ra).powf(-(A + 1.0) / A);
    let dvdse_dvdsat = r.powf(A + 1.0) * (1.0 + ra).powf(-(A + 1.0) / A);

    let mobility_temp_factor = ((273.15 + m.temp_c) / 300.15).powf(-1.5);
    let beta = m.kp * mobility_temp_factor * inst.mobility_scale * (inst.w / inst.l);
    let clm = 1.0 + m.lambda * vds;
    let id0 = beta * (veff - 0.5 * vdse) * vdse;
    let did0_dveff = beta * (vdse + (veff - vdse) * dvdse_dvdsat);
    let did0_dvds = beta * (veff - vdse) * dvdse_dvds;
    NmosEval {
        id: id0 * clm,
        gm: (did0_dveff * sig * clm).max(0.0),
        gds: (did0_dvds * clm + id0 * m.lambda).max(1e-15),
        gmb: did0_dveff * dveff_dvbs * clm,
    }
}

/// `|a − b|` relative to the larger magnitude; 0 when both are 0.
fn rel(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

#[test]
fn fet_model_matches_the_powf_oracle() {
    for polarity in [FetPolarity::Nmos, FetPolarity::Pmos] {
        for (gamma, temp_c, delta_vth, mobility_scale) in [
            (0.0, 27.0, 0.0, 1.0),
            (0.3, -40.0, 0.02, 0.93),
            (0.45, 125.0, -0.015, 1.07),
        ] {
            let mut model = FetModel::ideal(polarity);
            model.gamma = gamma;
            model.temp_c = temp_c;
            let mut inst = FetInstance::new(
                "M",
                NodeId(1),
                NodeId(2),
                NodeId(3),
                NodeId(4),
                model,
                1e-6,
                20e-9,
            );
            inst.delta_vth = delta_vth;
            inst.mobility_scale = mobility_scale;
            // Terminal voltages on a 0.8 V rail; vd below vs flips the
            // frame, and the body sits at either rail.
            let grid: Vec<f64> = (0..=16).map(|i| 0.05 * i as f64).collect();
            for &vg in &grid {
                for &vd in &grid {
                    for vs in [0.0, 0.1, 0.4, 0.8] {
                        for vb in [0.0, 0.8] {
                            let e = inst.eval(vd, vg, vs, vb);
                            let o = eval_nmos_frame(&inst, e.vgs, e.vds, e.vbs);
                            let flip = if e.flipped { -1.0 } else { 1.0 };
                            let id = polarity.sign() * flip * o.id;
                            for (what, got, want) in [
                                ("id", e.id_raw, id),
                                ("gm", e.gm, o.gm),
                                ("gds", e.gds, o.gds),
                                ("gmb", e.gmb, o.gmb),
                            ] {
                                let d = rel(got, want);
                                assert!(
                                    d <= REL_TOL,
                                    "{what} {got:e} vs oracle {want:e} ({d:e} relative) for \
                                     {polarity:?} at vd {vd}, vg {vg}, vs {vs}, vb {vb}, \
                                     gamma {gamma}, {temp_c} °C"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
