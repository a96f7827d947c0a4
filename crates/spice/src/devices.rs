//! Device models, chiefly the smooth FinFET-flavored MOS compact model.
//!
//! The model is a deliberately simple "BSIM-lite": a single C¹-continuous
//! drain-current expression valid from weak to strong inversion and from
//! triode to saturation, with channel-length modulation and body effect.
//! What matters for the optimized-primitives methodology is not absolute
//! accuracy but that the *layout knobs* move the metrics the right way:
//!
//! * per-instance `delta_vth` / `mobility_scale` carry layout-dependent
//!   effects (LOD stress, well proximity) extracted from cell geometry;
//! * junction capacitances scale with drain/source diffusion area and
//!   perimeter, so diffusion sharing between fingers genuinely lowers
//!   `C_out` exactly as in the paper's Fig. 5 discussion.

use crate::netlist::NodeId;

/// Thermal voltage at room temperature, in volts.
pub const VT_THERMAL: f64 = 0.02585;

/// Channel polarity of a FET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FetPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

impl FetPolarity {
    /// +1 for NMOS, −1 for PMOS: the sign applied to terminal voltages.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            FetPolarity::Nmos => 1.0,
            FetPolarity::Pmos => -1.0,
        }
    }
}

/// Compact-model card for a FET flavor (the `.model` contents).
///
/// All quantities are in SI units.
#[derive(Debug, Clone, PartialEq)]
pub struct FetModel {
    /// Channel polarity.
    pub polarity: FetPolarity,
    /// Zero-bias threshold voltage magnitude (V).
    pub vth0: f64,
    /// Process transconductance `µ₀·C_ox` (A/V²).
    pub kp: f64,
    /// Channel-length-modulation coefficient λ (1/V).
    pub lambda: f64,
    /// Subthreshold slope factor `n` (dimensionless, ≥ 1).
    pub n_slope: f64,
    /// Body-effect coefficient γ (√V).
    pub gamma: f64,
    /// Surface potential 2φ_F (V).
    pub phi: f64,
    /// Gate-oxide capacitance per area (F/m²).
    pub cox: f64,
    /// Gate–source overlap capacitance per width (F/m).
    pub cgso: f64,
    /// Gate–drain overlap capacitance per width (F/m).
    pub cgdo: f64,
    /// Junction capacitance per diffusion area (F/m²).
    pub cj: f64,
    /// Junction sidewall capacitance per perimeter (F/m).
    pub cjsw: f64,
    /// Junction temperature (°C); scales the thermal voltage, degrades
    /// mobility (`T^-1.5`), and lowers V_th (−1 mV/°C), all relative to
    /// the 27 °C nominal.
    pub temp_c: f64,
}

impl FetModel {
    /// A clean textbook model with no parasitics, handy for unit tests.
    pub fn ideal(polarity: FetPolarity) -> Self {
        FetModel {
            polarity,
            vth0: 0.25,
            kp: 400e-6,
            lambda: 0.05,
            n_slope: 1.3,
            gamma: 0.0,
            phi: 0.8,
            cox: 0.0,
            cgso: 0.0,
            cgdo: 0.0,
            cj: 0.0,
            cjsw: 0.0,
            temp_c: 27.0,
        }
    }

    /// The thermal voltage `kT/q` at this model's temperature (V).
    #[inline]
    pub fn vt(&self) -> f64 {
        8.617_333e-5 * (273.15 + self.temp_c)
    }

    /// Mobility multiplier relative to the 27 °C nominal (`T^-1.5` law).
    #[inline]
    pub fn mobility_temp_factor(&self) -> f64 {
        let t = (273.15 + self.temp_c) / 300.15;
        1.0 / (t * t.sqrt())
    }

    /// Threshold shift relative to the 27 °C nominal (−1 mV/°C).
    #[inline]
    pub fn vth_temp_shift(&self) -> f64 {
        -1e-3 * (self.temp_c - 27.0)
    }

    /// A copy of the card retargeted to another junction temperature.
    pub fn at_temperature(&self, temp_c: f64) -> Self {
        FetModel {
            temp_c,
            ..self.clone()
        }
    }
}

/// A FET instance: terminals, model card, effective geometry, and the
/// per-instance layout-dependent shifts the extractor fills in.
#[derive(Debug, Clone, PartialEq)]
pub struct FetInstance {
    /// Instance name.
    pub name: String,
    /// Drain terminal.
    pub d: NodeId,
    /// Gate terminal.
    pub g: NodeId,
    /// Source terminal.
    pub s: NodeId,
    /// Bulk terminal.
    pub b: NodeId,
    /// Model card.
    pub model: FetModel,
    /// Total effective channel width (m): `nfin · nf · m · w_fin_eff`.
    pub w: f64,
    /// Channel length (m).
    pub l: f64,
    /// Layout-dependent threshold shift (V), signed in the NMOS convention.
    pub delta_vth: f64,
    /// Layout-dependent mobility multiplier (1.0 = no shift).
    pub mobility_scale: f64,
    /// Drain diffusion area (m²).
    pub ad: f64,
    /// Source diffusion area (m²).
    pub as_: f64,
    /// Drain diffusion perimeter (m).
    pub pd: f64,
    /// Source diffusion perimeter (m).
    pub ps: f64,
}

impl FetInstance {
    /// Creates an instance with zero LDE shifts and zero junction geometry.
    // Terminals + model + geometry genuinely take eight inputs.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        model: FetModel,
        w: f64,
        l: f64,
    ) -> Self {
        FetInstance {
            name: name.to_string(),
            d,
            g,
            s,
            b,
            model,
            w,
            l,
            delta_vth: 0.0,
            mobility_scale: 1.0,
            ad: 0.0,
            as_: 0.0,
            pd: 0.0,
            ps: 0.0,
        }
    }

    /// Effective threshold voltage (NMOS convention) at bulk–source bias
    /// `vbs`, including the layout-dependent shift.
    pub fn vth_eff(&self, vbs: f64) -> f64 {
        let m = &self.model;
        let body = if m.gamma > 0.0 {
            let arg = (m.phi - vbs).max(0.05);
            m.gamma * (arg.sqrt() - m.phi.sqrt())
        } else {
            0.0
        };
        m.vth0 + m.vth_temp_shift() + body + self.delta_vth
    }

    /// Evaluates the large-signal model at raw terminal voltages
    /// (`vd`, `vg`, `vs`, `vb` relative to ground).
    ///
    /// Returns currents/conductances in the *raw* (unsigned-node) frame:
    /// `id` is the current flowing into the drain terminal.
    pub fn eval(&self, vd: f64, vg: f64, vs: f64, vb: f64) -> FetEval {
        let sgn = self.model.polarity.sign();
        // Map to the NMOS frame.
        let (nd, ns, flipped) = if sgn * (vd - vs) >= 0.0 {
            (vd, vs, false)
        } else {
            (vs, vd, true)
        };
        let vgs = sgn * (vg - ns);
        let vds = sgn * (nd - ns);
        let vbs = sgn * (vb - ns);

        let core = self.eval_nmos_frame(vgs, vds, vbs);

        // Map the NMOS-frame derivatives back to raw-frame partials
        // ∂id_raw/∂v_terminal via the chain rule.  With flip = −1 when
        // drain/source were exchanged, the algebra collapses to:
        //   ∂id/∂v(gate)   = flip·gm
        //   ∂id/∂v(ndvar)  = flip·gds        (ndvar = higher-potential term.)
        //   ∂id/∂v(bulk)   = flip·gmb
        //   ∂id/∂v(nsvar)  = −flip·(gm+gds+gmb)
        let flip = if flipped { -1.0 } else { 1.0 };
        let dg = flip * core.gm;
        let db = flip * core.gmb;
        let dn_hi = flip * core.gds;
        let dn_lo = -flip * (core.gm + core.gds + core.gmb);
        let (did_dvd, did_dvs) = if flipped {
            (dn_lo, dn_hi)
        } else {
            (dn_hi, dn_lo)
        };

        FetEval {
            id_raw: sgn * flip * core.id,
            gm: core.gm,
            gds: core.gds,
            gmb: core.gmb,
            did_dvd,
            did_dvg: dg,
            did_dvs,
            did_dvb: db,
            flipped,
            vgs,
            vds,
            vbs,
        }
    }

    /// Core NMOS-frame evaluation: returns `(id, gm, gds, gmb)` for
    /// `vds ≥ 0`.
    fn eval_nmos_frame(&self, vgs: f64, vds: f64, vbs: f64) -> NmosEval {
        debug_assert!(vds >= -1e-12, "NMOS frame requires vds >= 0, got {vds}");
        let m = &self.model;
        let n = m.n_slope.max(1.0);
        let nvt = n * m.vt();
        let vth = self.vth_eff(vbs);
        // EKV-style unified overdrive with the *half* argument so the weak-
        // inversion current (∝ veff²) has the correct e^{(vgs−vth)/(n·vt)}
        // slope: veff → 2·n·vt·e^{u/2} in weak inversion (squaring restores
        // the single exponential), veff → vgs−vth in strong inversion.
        let u = (vgs - vth) / (2.0 * nvt);

        let (veff, dveff_du) = softplus(u);
        let veff = 2.0 * nvt * veff;
        let sig = dveff_du; // sigmoid(u/…) = dveff/d(vgs-vth) directly
        let dveff_dvgs = sig;
        // dvth/dvbs
        let dvth_dvbs = if m.gamma > 0.0 {
            let arg = (m.phi - vbs).max(0.05);
            -m.gamma / (2.0 * arg.sqrt())
        } else {
            0.0
        };
        let dveff_dvbs = -sig * dvth_dvbs;

        // Smooth triode/saturation interpolation of order 4:
        // vdse = vds / (1 + r⁴)^(1/4) with r = vds / vdsat, its powers
        // written as products and square roots.
        let vdsat = veff.max(1e-9);
        let r = (vds / vdsat).max(0.0);
        let r2 = r * r;
        let r4 = r2 * r2;
        let d = (1.0 + r4).sqrt().sqrt();
        let vdse = vds / d;
        // dvdse/dvds at fixed vdsat, (1 + r⁴)^(−5/4):
        let dvdse_dvds = 1.0 / ((1.0 + r4) * d);
        // dvdse/dvdsat, r⁵·(1 + r⁴)^(−5/4):
        let dvdse_dvdsat = r4 * r * dvdse_dvds;

        let beta = m.kp * m.mobility_temp_factor() * self.mobility_scale * (self.w / self.l);
        let clm = 1.0 + m.lambda * vds;
        let id0 = beta * (veff - 0.5 * vdse) * vdse;
        let id = id0 * clm;

        // Partials.
        let did0_dveff = beta * (vdse + (veff - vdse) * dvdse_dvdsat);
        let did0_dvds = beta * (veff - vdse) * dvdse_dvds;
        let gm = did0_dveff * dveff_dvgs * clm;
        let gds = did0_dvds * clm + id0 * m.lambda;
        let gmb = did0_dveff * dveff_dvbs * clm;

        NmosEval {
            id,
            gm: gm.max(0.0),
            gds: gds.max(1e-15),
            gmb,
        }
    }

    /// Small-signal/transient capacitances at the given bias, Meyer-style.
    ///
    /// Returned caps are non-negative linear capacitances in the raw terminal
    /// frame: `(cgs, cgd, cgb, cdb, csb)`.
    pub fn capacitances(&self, vd: f64, vg: f64, vs: f64, vb: f64) -> FetCaps {
        let sgn = self.model.polarity.sign();
        let m = &self.model;
        let (nd, ns, flipped) = if sgn * (vd - vs) >= 0.0 {
            (vd, vs, false)
        } else {
            (vs, vd, true)
        };
        let vgs = sgn * (vg - ns);
        let vds = sgn * (nd - ns);
        let vbs = sgn * (vb - ns);
        let vth = self.vth_eff(vbs);

        let cox_tot = m.cox * self.w * self.l;
        let cov_s = m.cgso * self.w;
        let cov_d = m.cgdo * self.w;

        // Degree of saturation: 0 in deep triode, 1 in saturation.
        let n = m.n_slope.max(1.0);
        let nvt = n * m.vt();
        let (veff_n, _) = softplus((vgs - vth) / (2.0 * nvt));
        let vdsat = (2.0 * nvt * veff_n).max(1e-9);
        let sat = (vds / vdsat).clamp(0.0, 1.0);
        // On-ness: 0 when off, 1 when strongly on.
        let on = sigmoid((vgs - vth) / (2.0 * VT_THERMAL));

        // Intrinsic partition: triode (1/2, 1/2) -> saturation (2/3, 0).
        let cgs_i = cox_tot * on * (0.5 + sat / 6.0);
        let cgd_i = cox_tot * on * 0.5 * (1.0 - sat);
        let cgb_i = cox_tot * (1.0 - on) * 0.7;

        let (cgs_frame, cgd_frame) = if flipped {
            (cgd_i, cgs_i)
        } else {
            (cgs_i, cgd_i)
        };

        let cdb = m.cj * self.ad + m.cjsw * self.pd;
        let csb = m.cj * self.as_ + m.cjsw * self.ps;

        FetCaps {
            cgs: cgs_frame + cov_s,
            cgd: cgd_frame + cov_d,
            cgb: cgb_i,
            cdb,
            csb,
        }
    }
}

/// Result of a large-signal FET evaluation.
#[derive(Debug, Clone, Copy)]
pub struct FetEval {
    /// Current into the *drain terminal* of the instance (signed, raw frame).
    pub id_raw: f64,
    /// Transconductance in the NMOS frame (≥ 0).
    pub gm: f64,
    /// Output conductance in the NMOS frame (≥ 0).
    pub gds: f64,
    /// Body transconductance in the NMOS frame.
    pub gmb: f64,
    /// Raw-frame partial `∂id_raw/∂v(drain)` — what MNA stamps use.
    pub did_dvd: f64,
    /// Raw-frame partial `∂id_raw/∂v(gate)`.
    pub did_dvg: f64,
    /// Raw-frame partial `∂id_raw/∂v(source)`.
    pub did_dvs: f64,
    /// Raw-frame partial `∂id_raw/∂v(bulk)`.
    pub did_dvb: f64,
    /// Whether drain/source were exchanged to keep `vds ≥ 0`.
    pub flipped: bool,
    /// Gate–source voltage in the NMOS frame.
    pub vgs: f64,
    /// Drain–source voltage in the NMOS frame.
    pub vds: f64,
    /// Bulk–source voltage in the NMOS frame.
    pub vbs: f64,
}

#[derive(Debug, Clone, Copy)]
struct NmosEval {
    id: f64,
    gm: f64,
    gds: f64,
    gmb: f64,
}

/// Bias-dependent linear capacitances of a FET (raw terminal frame).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetCaps {
    /// Gate–source capacitance (F).
    pub cgs: f64,
    /// Gate–drain capacitance (F).
    pub cgd: f64,
    /// Gate–bulk capacitance (F).
    pub cgb: f64,
    /// Drain–bulk junction capacitance (F).
    pub cdb: f64,
    /// Source–bulk junction capacitance (F).
    pub csb: f64,
}

impl FetCaps {
    /// Sum of all five capacitances (used by sanity tests).
    pub fn total(&self) -> f64 {
        self.cgs + self.cgd + self.cgb + self.cdb + self.csb
    }
}

/// Numerically safe `softplus(x) = ln(1+e^x)` and its derivative (sigmoid).
#[inline]
fn softplus(x: f64) -> (f64, f64) {
    if x > 30.0 {
        (x, 1.0)
    } else if x < -30.0 {
        (x.exp(), x.exp())
    } else {
        let e = x.exp();
        ((1.0 + e).ln(), e / (1.0 + e))
    }
}

impl prima_cache::Fingerprintable for FetPolarity {
    fn feed(&self, h: &mut prima_cache::FpHasher) {
        h.write_u8(match self {
            FetPolarity::Nmos => 0,
            FetPolarity::Pmos => 1,
        });
    }
}

impl prima_cache::Fingerprintable for FetModel {
    fn feed(&self, h: &mut prima_cache::FpHasher) {
        h.write_tag("FetModel");
        self.polarity.feed(h);
        for v in [
            self.vth0,
            self.kp,
            self.lambda,
            self.n_slope,
            self.gamma,
            self.phi,
            self.cox,
            self.cgso,
            self.cgdo,
            self.cj,
            self.cjsw,
            self.temp_c,
        ] {
            h.write_f64(v);
        }
    }
}

/// Numerically safe logistic function.
#[inline]
fn sigmoid(x: f64) -> f64 {
    if x > 30.0 {
        1.0
    } else if x < -30.0 {
        0.0
    } else {
        1.0 / (1.0 + (-x).exp())
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;

    fn nmos_inst() -> FetInstance {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        FetInstance::new(
            "M1",
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            FetModel::ideal(FetPolarity::Nmos),
            10e-6,
            100e-9,
        )
    }

    #[test]
    fn off_device_conducts_negligibly() {
        let m = nmos_inst();
        let e = m.eval(1.0, 0.0, 0.0, 0.0);
        // A W/L = 100 low-Vt device leaks tens of nA at vgs = 0 — orders of
        // magnitude below its ~mA on-current.
        assert!(e.id_raw.abs() < 2e-7, "off current {}", e.id_raw);
        let on = m.eval(1.0, 0.8, 0.0, 0.0);
        assert!(on.id_raw / e.id_raw > 1e4, "on/off ratio too small");
    }

    #[test]
    fn saturation_current_close_to_square_law() {
        let m = nmos_inst();
        // vgs = 0.6, vth = 0.25, vds = 0.8 (saturation).
        let e = m.eval(0.8, 0.6, 0.0, 0.0);
        let beta = 400e-6 * (10e-6 / 100e-9);
        let expect = 0.5 * beta * (0.35f64).powi(2) * (1.0 + 0.05 * 0.8);
        let rel = (e.id_raw - expect).abs() / expect;
        assert!(rel < 0.15, "id {} vs square-law {expect}", e.id_raw);
    }

    #[test]
    fn triode_region_acts_resistive() {
        let m = nmos_inst();
        let e = m.eval(0.01, 1.0, 0.0, 0.0);
        let beta = 400e-6 * (10e-6 / 100e-9);
        // id ≈ beta * veff * vds for small vds
        let expect = beta * 0.75 * 0.01;
        let rel = (e.id_raw - expect).abs() / expect;
        assert!(rel < 0.1, "triode id {} vs {expect}", e.id_raw);
    }

    #[test]
    fn current_is_monotone_in_vgs() {
        let m = nmos_inst();
        let mut last = -1.0;
        for i in 0..50 {
            let vgs = i as f64 * 0.02;
            let e = m.eval(0.8, vgs, 0.0, 0.0);
            assert!(e.id_raw >= last, "non-monotone at vgs={vgs}");
            last = e.id_raw;
        }
    }

    #[test]
    fn current_is_continuous_through_vds_zero() {
        let m = nmos_inst();
        let lo = m.eval(-1e-6, 0.6, 0.0, 0.0);
        let hi = m.eval(1e-6, 0.6, 0.0, 0.0);
        assert!((hi.id_raw - lo.id_raw).abs() < 5e-8);
        assert!(hi.id_raw > 0.0 && lo.id_raw < 0.0);
    }

    #[test]
    fn analytic_gm_matches_finite_difference() {
        let m = nmos_inst();
        let vg = 0.55;
        let h = 1e-7;
        let e = m.eval(0.8, vg, 0.0, 0.0);
        let ep = m.eval(0.8, vg + h, 0.0, 0.0);
        let em = m.eval(0.8, vg - h, 0.0, 0.0);
        let fd = (ep.id_raw - em.id_raw) / (2.0 * h);
        let rel = (e.gm - fd).abs() / fd.abs().max(1e-12);
        assert!(rel < 1e-4, "gm {} vs fd {fd}", e.gm);
    }

    #[test]
    fn analytic_gds_matches_finite_difference() {
        let m = nmos_inst();
        let vd = 0.7;
        let h = 1e-7;
        let e = m.eval(vd, 0.55, 0.0, 0.0);
        let ep = m.eval(vd + h, 0.55, 0.0, 0.0);
        let em = m.eval(vd - h, 0.55, 0.0, 0.0);
        let fd = (ep.id_raw - em.id_raw) / (2.0 * h);
        let rel = (e.gds - fd).abs() / fd.abs().max(1e-15);
        assert!(rel < 1e-3, "gds {} vs fd {fd}", e.gds);
    }

    #[test]
    fn gm_over_id_respects_subthreshold_limit() {
        // gm/Id must never exceed 1/(n·Vt), the weak-inversion bound.
        let m = nmos_inst();
        let limit = 1.0 / (m.model.n_slope * VT_THERMAL);
        for i in 0..60 {
            let vgs = 0.05 + i as f64 * 0.01;
            let e = m.eval(0.8, vgs, 0.0, 0.0);
            if e.id_raw > 1e-12 {
                let ratio = e.gm / e.id_raw;
                assert!(
                    ratio <= limit * 1.02,
                    "gm/Id {ratio} exceeds limit {limit} at vgs={vgs}"
                );
            }
        }
    }

    #[test]
    fn body_effect_raises_vth() {
        let mut m = nmos_inst();
        m.model.gamma = 0.4;
        let vth0 = m.vth_eff(0.0);
        let vth_rb = m.vth_eff(-0.3);
        assert!(vth_rb > vth0);
        let fd_gmb = {
            let h = 1e-7;
            let ep = m.eval(0.8, 0.55, 0.0, h);
            let em = m.eval(0.8, 0.55, 0.0, -h);
            (ep.id_raw - em.id_raw) / (2.0 * h)
        };
        let e = m.eval(0.8, 0.55, 0.0, 0.0);
        let rel = (e.gmb - fd_gmb).abs() / fd_gmb.abs().max(1e-12);
        assert!(rel < 1e-3, "gmb {} vs fd {fd_gmb}", e.gmb);
    }

    #[test]
    fn lde_vth_shift_reduces_current() {
        let mut m = nmos_inst();
        let base = m.eval(0.8, 0.6, 0.0, 0.0).id_raw;
        m.delta_vth = 0.02;
        let shifted = m.eval(0.8, 0.6, 0.0, 0.0).id_raw;
        assert!(shifted < base);
        m.delta_vth = 0.0;
        m.mobility_scale = 0.9;
        let degraded = m.eval(0.8, 0.6, 0.0, 0.0).id_raw;
        assert!((degraded / base - 0.9).abs() < 1e-12);
    }

    #[test]
    fn pmos_mirrors_nmos() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        let s = c.node("s");
        let p = FetInstance::new(
            "MP",
            d,
            g,
            s,
            s,
            FetModel::ideal(FetPolarity::Pmos),
            10e-6,
            100e-9,
        );
        // Source at 1 V, gate at 0.4 V (|vgs| = 0.6), drain at 0.2 V.
        let e = p.eval(0.2, 0.4, 1.0, 1.0);
        // PMOS drain current flows *out of* the drain node: negative into-drain.
        assert!(e.id_raw < 0.0, "pmos id {}", e.id_raw);
        let n = nmos_inst();
        let en = n.eval(0.8, 0.6, 0.0, 0.0);
        assert!((e.id_raw.abs() - en.id_raw).abs() / en.id_raw < 1e-9);
    }

    /// Checks all four raw-frame partials against central differences at an
    /// arbitrary bias point.
    fn check_raw_partials(inst: &FetInstance, vd: f64, vg: f64, vs: f64, vb: f64) {
        let h = 1e-7;
        let e = inst.eval(vd, vg, vs, vb);
        let fd = |f: &dyn Fn(f64) -> f64| (f(h) - f(-h)) / (2.0 * h);
        let cases: [(f64, f64); 4] = [
            (e.did_dvd, fd(&|d| inst.eval(vd + d, vg, vs, vb).id_raw)),
            (e.did_dvg, fd(&|d| inst.eval(vd, vg + d, vs, vb).id_raw)),
            (e.did_dvs, fd(&|d| inst.eval(vd, vg, vs + d, vb).id_raw)),
            (e.did_dvb, fd(&|d| inst.eval(vd, vg, vs, vb + d).id_raw)),
        ];
        for (i, (analytic, numeric)) in cases.iter().enumerate() {
            let scale = numeric.abs().max(1e-9);
            assert!(
                (analytic - numeric).abs() / scale < 1e-3,
                "partial {i}: analytic {analytic} vs fd {numeric} at ({vd},{vg},{vs},{vb})"
            );
        }
    }

    #[test]
    fn raw_partials_nmos_forward() {
        let mut m = nmos_inst();
        m.model.gamma = 0.3;
        check_raw_partials(&m, 0.8, 0.6, 0.0, 0.0);
        check_raw_partials(&m, 0.05, 0.9, 0.0, -0.1);
    }

    #[test]
    fn raw_partials_nmos_flipped() {
        let mut m = nmos_inst();
        m.model.gamma = 0.3;
        // vd < vs: drain/source exchange internally.
        check_raw_partials(&m, 0.0, 0.9, 0.7, 0.0);
    }

    #[test]
    fn raw_partials_pmos_both_orientations() {
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        let s = c.node("s");
        let mut p = FetInstance::new(
            "MP",
            d,
            g,
            s,
            s,
            FetModel::ideal(FetPolarity::Pmos),
            10e-6,
            100e-9,
        );
        p.model.gamma = 0.3;
        check_raw_partials(&p, 0.2, 0.4, 1.0, 1.0); // forward
        check_raw_partials(&p, 1.0, 0.4, 0.3, 1.0); // flipped
    }

    #[test]
    fn junction_caps_scale_with_diffusion() {
        let mut m = nmos_inst();
        m.model.cj = 1e-3;
        m.model.cjsw = 1e-10;
        m.ad = 2e-14;
        m.pd = 4e-7;
        let caps = m.capacitances(0.8, 0.6, 0.0, 0.0);
        assert!((caps.cdb - (1e-3 * 2e-14 + 1e-10 * 4e-7)).abs() < 1e-22);
        assert_eq!(caps.csb, 0.0);
    }

    #[test]
    fn meyer_caps_shift_with_region() {
        let mut m = nmos_inst();
        m.model.cox = 0.02;
        // Saturation: cgd ≈ 0, cgs ≈ 2/3 Cox.
        let sat = m.capacitances(0.8, 0.6, 0.0, 0.0);
        // Deep triode: cgs ≈ cgd ≈ 1/2 Cox.
        let tri = m.capacitances(0.01, 1.0, 0.0, 0.0);
        assert!(
            sat.cgd < 0.2 * sat.cgs,
            "sat cgd {} cgs {}",
            sat.cgd,
            sat.cgs
        );
        assert!((tri.cgd / tri.cgs - 1.0).abs() < 0.2);
        // Off: gate-bulk dominates.
        let off = m.capacitances(0.8, 0.0, 0.0, 0.0);
        assert!(off.cgb > off.cgs && off.cgb > off.cgd);
    }
}
