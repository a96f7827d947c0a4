//! The eight-stage differential ring-oscillator VCO (Table VII):
//! current-starved inverters per phase with weak cross-coupled latches for
//! phase alignment, closed with a twist so the even-stage differential ring
//! oscillates.

use std::collections::HashMap;
use std::fmt;

use prima_core::try_par_map;
use prima_pdk::Technology;
use prima_primitives::{Bias, Library};
use prima_spice::analysis::tran::TranSolver;
use prima_spice::measure;
use prima_spice::netlist::Circuit;

use crate::builder::{PrimitiveInst, Realization};
use crate::circuits::{node, powered_circuit, CircuitSpec};
use crate::FlowError;

/// VCO tuning-curve metrics (Table VII rows).
#[derive(Debug, Clone, PartialEq)]
pub struct VcoMetrics {
    /// Maximum oscillation frequency over the control range (GHz).
    pub f_max_ghz: f64,
    /// Minimum oscillation frequency over the control range (GHz).
    pub f_min_ghz: f64,
    /// Control range over which the ring oscillates `(lo, hi)` in volts.
    pub v_range: (f64, f64),
    /// The sampled tuning curve: `(vctrl, frequency GHz)`, 0 = no
    /// oscillation.
    pub curve: Vec<(f64, f64)>,
}

impl fmt::Display for VcoMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fmax {:.2} GHz, fmin {:.2} GHz, range {:.2}–{:.2} V",
            self.f_max_ghz, self.f_min_ghz, self.v_range.0, self.v_range.1
        )
    }
}

/// The RO-VCO benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct RoVco {
    /// Number of differential stages.
    pub stages: usize,
    /// Control-voltage sample points.
    pub vctrl_points: Vec<f64>,
}

impl Default for RoVco {
    fn default() -> Self {
        RoVco {
            stages: 8,
            vctrl_points: vec![0.0, 0.25, 0.5],
        }
    }
}

impl RoVco {
    /// Fins per current-starved inverter.
    pub const FINS_CSI: u64 = 16;
    /// Fins per alignment latch.
    pub const FINS_LATCH: u64 = 4;

    /// A smaller VCO for fast tests.
    pub fn small() -> Self {
        RoVco {
            stages: 4,
            vctrl_points: vec![0.1, 0.5],
        }
    }

    /// The primitive-level structure: per stage, one CSI per phase and a
    /// latch between phases; the ring closes with a cross (twist).
    pub fn spec(&self) -> CircuitSpec {
        let n = self.stages;
        let mut instances = Vec::new();
        let mut symmetry = Vec::new();
        for i in 0..n {
            let next = (i + 1) % n;
            // The twist: the last stage's outputs cross phases.
            let (out_p, out_n) = if i == n - 1 {
                (format!("n{next}"), format!("p{next}"))
            } else {
                (format!("p{next}"), format!("n{next}"))
            };
            instances.push(PrimitiveInst::new(
                &format!("csip{i}"),
                "csi",
                Self::FINS_CSI,
                &[
                    ("in", &format!("p{i}")),
                    ("out", &out_p),
                    ("vbp", "vbp"),
                    ("vbn", "vbn"),
                    ("vdd", "vdd"),
                    ("vss", "vssn"),
                ],
            ));
            instances.push(PrimitiveInst::new(
                &format!("csin{i}"),
                "csi",
                Self::FINS_CSI,
                &[
                    ("in", &format!("n{i}")),
                    ("out", &out_n),
                    ("vbp", "vbp"),
                    ("vbn", "vbn"),
                    ("vdd", "vdd"),
                    ("vss", "vssn"),
                ],
            ));
            instances.push(PrimitiveInst::new(
                &format!("latch{i}"),
                "latch_starved",
                Self::FINS_LATCH,
                &[
                    ("outp", &format!("p{i}")),
                    ("outn", &format!("n{i}")),
                    ("vbp", "vbp"),
                    ("vbn", "vbn"),
                    ("vdd", "vdd"),
                    ("vss", "vssn"),
                ],
            ));
            symmetry.push((format!("csip{i}"), format!("csin{i}")));
        }
        let symmetric_nets = (0..n).map(|i| (format!("p{i}"), format!("n{i}"))).collect();
        CircuitSpec {
            name: "rovco".to_string(),
            instances,
            symmetry,
            symmetric_nets,
        }
    }

    /// Maps a control voltage (0–0.5 V, the paper's range) to the starving
    /// bias pair: the footer gate sits exactly at the deck's NMOS threshold
    /// at `vctrl = 0` and rises to a moderate overdrive at full control,
    /// spanning the paper's ~40× frequency range; the header mirrors it.
    /// Referencing the threshold (instead of a fixed voltage) keeps the
    /// starving devices conducting on every bundled node, from the 0.8 V
    /// FinFET deck to the 1.8 V SKY130-flavored one.
    pub fn control_to_bias(tech: &Technology, vctrl: f64) -> (f64, f64) {
        let vbn = tech.nmos.vth0 + 0.35 * vctrl;
        let vbp = tech.vdd - vbn;
        (vbn, vbp)
    }

    /// Oscillation frequency at one control voltage (GHz; `None` when the
    /// ring does not oscillate).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn frequency_at(
        &self,
        tech: &Technology,
        lib: &Library,
        realization: &Realization,
        vctrl: f64,
    ) -> Result<Option<f64>, FlowError> {
        let spec = self.spec();
        let mut c = powered_circuit(tech, lib, &spec, realization)?;
        let (vbn, vbp) = Self::control_to_bias(tech, vctrl);
        let vbn_n = node(&c, "vbn")?;
        c.vsource("VBN", vbn_n, Circuit::GROUND, vbn);
        let vbp_n = node(&c, "vbp")?;
        c.vsource("VBP", vbp_n, Circuit::GROUND, vbp);
        let vss = node(&c, "vssn")?;
        c.vsource("VSSN", vss, Circuit::GROUND, 0.0);
        // Each stage drives interconnect in addition to the next gate.
        for i in 0..self.stages {
            for phase in ["p", "n"] {
                let n = node(&c, &format!("{phase}{i}"))?;
                c.capacitor(&format!("CSTG_{phase}{i}"), n, Circuit::GROUND, 3e-15)?;
            }
        }

        // Kick: a brief current pulse into phase 0 breaks the metastable
        // all-balanced DC point; the differential ring then regenerates.
        let p0 = node(&c, "p0")?;
        let n0 = node(&c, "n0")?;
        c.isource_wave(
            "IKICK",
            Circuit::GROUND,
            p0,
            prima_spice::netlist::Waveform::Pulse {
                v1: 0.0,
                v2: 150e-6,
                delay: 5e-12,
                rise: 5e-12,
                fall: 5e-12,
                width: 60e-12,
                period: f64::INFINITY,
            },
            0.0,
        );

        // Scale both the horizon and the step with the oscillation period
        // expected at this control voltage (log-linear between ~0.5 GHz at
        // the bottom and ~12 GHz at the top for the 8-stage ring, faster
        // for shorter rings): ~14 settled periods at ≥ 55 samples each.
        let f_est_hz = {
            // Shorter rings oscillate proportionally faster.
            let base = 0.5e9 * 8.0 / self.stages as f64;
            let span: f64 = 24.0; // fmax/fmin ratio across the range
            base * span.powf(vctrl.clamp(0.0, 0.5) / 0.5)
        };
        let period = 1.0 / f_est_hz;
        let t_stop = 14.0 * period;
        // Layout realizations run slower than the schematic estimate; keep
        // a 2× sampling margin.
        let dt = (period / 110.0).clamp(0.7e-12, 25e-12);
        let res = TranSolver::new(dt, t_stop).solve(&c)?;
        let t = res.times().to_vec();
        let vp = res.voltage(p0);
        let vn = res.voltage(n0);
        let diff: Vec<f64> = vp.iter().zip(vn.iter()).map(|(a, b)| a - b).collect();

        // Require a healthy differential swing to call it oscillation.
        let swing = measure::settled_peak_to_peak(&diff)?;
        if swing < 0.3 * tech.vdd {
            return Ok(None);
        }
        // Not oscillating is an expected outcome at some control voltages
        // (the caller records 0 GHz); malformed data is a real error.
        match measure::osc_frequency(&t, &diff, 6) {
            Ok(f) => Ok(Some(f / 1e9)),
            Err(measure::MeasureError::NoCrossing { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Sweeps the control voltage and summarizes the tuning curve. The
    /// control points are independent transients and fan out through
    /// [`try_par_map`].
    ///
    /// # Errors
    ///
    /// Propagates simulation failures (the lowest control point's, when
    /// several fail); returns [`FlowError::Measurement`] if the ring never
    /// oscillates anywhere in the range.
    pub fn measure(
        &self,
        tech: &Technology,
        lib: &Library,
        realization: &Realization,
    ) -> Result<VcoMetrics, FlowError> {
        let points = &self.vctrl_points;
        let freqs = try_par_map(points, |&v| self.frequency_at(tech, lib, realization, v))?;
        let curve: Vec<(f64, f64)> = points
            .iter()
            .zip(freqs)
            .map(|(&vctrl, f)| (vctrl, f.unwrap_or(0.0)))
            .collect();
        let oscillating: Vec<&(f64, f64)> = curve.iter().filter(|(_, f)| *f > 0.0).collect();
        if oscillating.is_empty() {
            return Err(FlowError::Measurement {
                what: "VCO does not oscillate anywhere in the control range".to_string(),
            });
        }
        let f_max = oscillating.iter().map(|(_, f)| *f).fold(0.0, f64::max);
        let f_min = oscillating
            .iter()
            .map(|(_, f)| *f)
            .fold(f64::INFINITY, f64::min);
        let v_lo = oscillating
            .iter()
            .map(|(v, _)| *v)
            .fold(f64::INFINITY, f64::min);
        let v_hi = oscillating.iter().map(|(v, _)| *v).fold(0.0, f64::max);
        Ok(VcoMetrics {
            f_max_ghz: f_max,
            f_min_ghz: f_min,
            v_range: (v_lo, v_hi),
            curve,
        })
    }

    /// Per-primitive bias conditions (mid-range control point).
    pub fn biases(
        &self,
        tech: &Technology,
        lib: &Library,
    ) -> Result<HashMap<String, Bias>, FlowError> {
        let (vbn, vbp) = Self::control_to_bias(tech, 0.35);
        let mut out = HashMap::new();
        for inst in self.spec().instances {
            let def = lib.get(&inst.def).ok_or(FlowError::UnknownPrimitive {
                name: inst.def.clone(),
            })?;
            let mut b = Bias::nominal(tech, &def.class);
            if inst.def == "csi" {
                b.set_v("vbn", vbn).set_v("vbp", vbp).set_load("out", 2e-15);
            }
            if inst.def == "latch_starved" {
                b.set_v("vbn", vbn).set_v("vbp", vbp);
            }
            out.insert(inst.name.clone(), b);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ring_oscillates_and_tunes() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let vco = RoVco::small();
        let slow = vco
            .frequency_at(&tech, &lib, &Realization::schematic(), 0.1)
            .unwrap();
        let fast = vco
            .frequency_at(&tech, &lib, &Realization::schematic(), 0.5)
            .unwrap();
        let fast = fast.expect("ring oscillates at full control");
        assert!(fast > 0.2, "fast frequency {fast} GHz");
        if let Some(slow) = slow {
            assert!(slow < fast, "tuning: slow {slow} < fast {fast}");
        }
    }

    #[test]
    fn measure_honors_the_callers_cancel_scope() {
        use prima_cache::CancelToken;
        use prima_spice::{with_solve_ctrl, SolveCtrl};
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let token = CancelToken::new();
        token.cancel();
        let ctrl = SolveCtrl {
            cancel: Some(token),
        };
        let got = with_solve_ctrl(ctrl, || {
            RoVco::small().measure(&tech, &lib, &Realization::schematic())
        });
        assert!(matches!(got, Err(FlowError::Cancelled(_))), "{got:?}");
    }
}
