//! The StrongARM comparator (Fig. 3 / Table VI): a clocked differential
//! pair, a cross-coupled inverter latch with split NMOS sources, and four
//! PMOS precharge switches.

use std::collections::HashMap;
use std::fmt;

use prima_pdk::Technology;
use prima_primitives::{Bias, Library};
use prima_spice::analysis::tran::TranSolver;
use prima_spice::measure::{self, Edge};
use prima_spice::netlist::{Circuit, Waveform};

use crate::builder::{PrimitiveInst, Realization};
use crate::circuits::{node, powered_circuit, prim, CircuitSpec};
use crate::FlowError;

/// Circuit-level metrics of the StrongARM comparator (Table VI rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrongArmMetrics {
    /// Clock-to-output decision delay (ps).
    pub delay_ps: f64,
    /// Average supply power at the test clock rate (µW).
    pub power_uw: f64,
}

impl fmt::Display for StrongArmMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delay {:.1} ps, power {:.1} µW",
            self.delay_ps, self.power_uw
        )
    }
}

/// Timestep of the comparator's clocked transient (s).
const TRAN_STEP: f64 = 0.5e-12;

/// The StrongARM comparator benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrongArm;

impl StrongArm {
    /// Clock frequency of the power measurement (Hz).
    pub const F_CLK: f64 = 1e9;
    /// Differential input applied during the decision (V).
    pub const V_IN_DIFF: f64 = 50e-3;
    /// Input pair fins.
    pub const FINS_DP: u64 = 64;
    /// Latch fins.
    pub const FINS_LATCH: u64 = 32;
    /// Precharge switch fins.
    pub const FINS_SW: u64 = 8;
    /// Output load per side (F).
    pub const C_LOAD: f64 = 8e-15;

    /// The primitive-level structure.
    pub fn spec() -> CircuitSpec {
        CircuitSpec {
            name: "strongarm".to_string(),
            instances: vec![
                PrimitiveInst::new(
                    "dpin",
                    "dp_switched",
                    Self::FINS_DP,
                    &[
                        ("da", "xa"),
                        ("db", "xb"),
                        ("ga", "vinp"),
                        ("gb", "vinn"),
                        ("clk", "clk"),
                        ("vss", "vssn"),
                    ],
                ),
                PrimitiveInst::new(
                    "latch0",
                    "latch",
                    Self::FINS_LATCH,
                    &[
                        ("outp", "outp"),
                        ("outn", "outn"),
                        ("sa", "xa"),
                        ("sb", "xb"),
                        ("vdd", "vdd"),
                    ],
                ),
                PrimitiveInst::new(
                    "swxa",
                    "switch_pmos",
                    Self::FINS_SW,
                    &[("a", "vdd"), ("b", "xa"), ("en", "clk")],
                ),
                PrimitiveInst::new(
                    "swxb",
                    "switch_pmos",
                    Self::FINS_SW,
                    &[("a", "vdd"), ("b", "xb"), ("en", "clk")],
                ),
                PrimitiveInst::new(
                    "swop",
                    "switch_pmos",
                    Self::FINS_SW,
                    &[("a", "vdd"), ("b", "outp"), ("en", "clk")],
                ),
                PrimitiveInst::new(
                    "swon",
                    "switch_pmos",
                    Self::FINS_SW,
                    &[("a", "vdd"), ("b", "outn"), ("en", "clk")],
                ),
            ],
            symmetry: vec![
                ("swxa".to_string(), "swxb".to_string()),
                ("swop".to_string(), "swon".to_string()),
            ],
            symmetric_nets: vec![
                ("xa".to_string(), "xb".to_string()),
                ("outp".to_string(), "outn".to_string()),
            ],
        }
    }

    /// Runs the clocked transient and extracts delay and power.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; returns [`FlowError::Measurement`]
    /// when the comparator never resolves.
    pub fn measure(
        tech: &Technology,
        lib: &Library,
        realization: &Realization,
    ) -> Result<StrongArmMetrics, FlowError> {
        Self::measure_at(tech, lib, realization, TRAN_STEP)
    }

    /// [`StrongArm::measure`] with the transient at timestep `dt`.
    fn measure_at(
        tech: &Technology,
        lib: &Library,
        realization: &Realization,
        dt: f64,
    ) -> Result<StrongArmMetrics, FlowError> {
        let spec = Self::spec();
        let mut c = powered_circuit(tech, lib, &spec, realization)?;
        let vdd = tech.vdd;
        let vcm = 0.6 * vdd;

        let vinp = node(&c, "vinp")?;
        c.vsource("VINP", vinp, Circuit::GROUND, vcm + Self::V_IN_DIFF / 2.0);
        let vinn = node(&c, "vinn")?;
        c.vsource("VINN", vinn, Circuit::GROUND, vcm - Self::V_IN_DIFF / 2.0);
        let vss = node(&c, "vssn")?;
        c.vsource("VSSN", vss, Circuit::GROUND, 0.0);
        let period = 1.0 / Self::F_CLK;
        let clk = node(&c, "clk")?;
        c.vsource_wave(
            "VCLK",
            clk,
            Circuit::GROUND,
            Waveform::Pulse {
                v1: 0.0,
                v2: vdd,
                delay: 0.2e-9,
                rise: 8e-12,
                fall: 8e-12,
                width: period / 2.0,
                period,
            },
            0.0,
        );
        for net in ["outp", "outn"] {
            let n = node(&c, net)?;
            c.capacitor(&format!("CL_{net}"), n, Circuit::GROUND, Self::C_LOAD)?;
        }

        // Two full clock cycles: measure on the second decision edge, after
        // the first cycle has exercised reset.
        let t_stop = 0.2e-9 + 2.0 * period;
        let res = TranSolver::new(dt, t_stop).solve(&c)?;
        let t = res.times().to_vec();
        let vclk = res.voltage(clk);
        let outp = res.voltage(node(&c, "outp")?);
        let outn = res.voltage(node(&c, "outn")?);
        // Decision: |outp − outn| crosses vdd/2 after the second rising
        // clock edge (the precharge phase resets both outputs high, so the
        // magnitude starts near zero each cycle).
        let diff: Vec<f64> = outp
            .iter()
            .zip(outn.iter())
            .map(|(p, n)| (p - n).abs())
            .collect();
        let t_clk2 = measure::cross_time(&t, &vclk, vdd / 2.0, Edge::Rising, 2).map_err(|e| {
            FlowError::Measurement {
                what: format!("clock edge not found: {e}"),
            }
        })?;
        let mut t_dec = None;
        for i in 1..diff.len() {
            if t[i] >= t_clk2 && diff[i - 1] < vdd / 2.0 && diff[i] >= vdd / 2.0 {
                let frac = (vdd / 2.0 - diff[i - 1]) / (diff[i] - diff[i - 1]);
                t_dec = Some(t[i - 1] + frac * (t[i] - t[i - 1]));
                break;
            }
        }
        let t_dec = t_dec.ok_or(FlowError::Measurement {
            what: "comparator did not resolve".to_string(),
        })?;
        let delay = t_dec - t_clk2;

        let isup = res.branch_current("VDD").ok_or(FlowError::Measurement {
            what: "no supply branch".to_string(),
        })?;
        let i_abs: Vec<f64> = isup.iter().map(|x| x.abs()).collect();
        let power = measure::average(&t, &i_abs, 0.2e-9 + period, 0.2e-9 + 2.0 * period)? * vdd;

        Ok(StrongArmMetrics {
            delay_ps: delay * 1e12,
            power_uw: power * 1e6,
        })
    }

    /// Per-primitive bias conditions.
    pub fn biases(tech: &Technology, lib: &Library) -> Result<HashMap<String, Bias>, FlowError> {
        let vdd = tech.vdd;
        let mut out = HashMap::new();
        let mut dp = Bias::nominal(tech, &prim(lib, "dp_switched")?.class);
        dp.set_v("cm_in", 0.6 * vdd).set_v("vd", 0.7 * vdd);
        // The X nodes see only the latch sources and a precharge switch —
        // a few fF, not the generic amplifier load; with the real loading
        // the cost function feels every femtofarad the tuner would add.
        dp.set_load("da", 3e-15).set_load("db", 3e-15);
        out.insert("dpin".to_string(), dp);
        let mut latch = Bias::nominal(tech, &prim(lib, "latch")?.class);
        latch.set_v("vd", 0.5 * vdd);
        out.insert("latch0".to_string(), latch);
        for name in ["swxa", "swxb", "swop", "swon"] {
            let mut sw = Bias::nominal(tech, &prim(lib, "switch_pmos")?.class);
            sw.set_v("von", 0.0).set_v("vsig", vdd);
            out.insert(name.to_string(), sw);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schematic_comparator_resolves() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let m = StrongArm::measure(&tech, &lib, &Realization::schematic()).unwrap();
        assert!(
            m.delay_ps > 1.0 && m.delay_ps < 200.0,
            "delay {} ps",
            m.delay_ps
        );
        assert!(
            m.power_uw > 5.0 && m.power_uw < 2000.0,
            "power {}",
            m.power_uw
        );
    }

    /// The schematic comparator's power at its 0.5 ps step is within 1% of
    /// its power at a 4× finer step: no step-to-step ringing inflates it.
    #[test]
    fn schematic_power_is_converged_in_the_step() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let schematic = Realization::schematic();
        let power = |dt| {
            StrongArm::measure_at(&tech, &lib, &schematic, dt)
                .unwrap()
                .power_uw
        };
        let (coarse, fine) = (power(TRAN_STEP), power(TRAN_STEP / 4.0));
        assert!(
            (coarse - fine).abs() / fine < 0.01,
            "power {coarse} µW at {TRAN_STEP:e} s vs {fine} µW at a 4× finer step"
        );
    }
}
