//! The high-frequency five-transistor OTA (Fig. 6a / Table VI): an NMOS
//! differential pair, an NMOS tail current mirror, and a PMOS active
//! current-mirror load.

use std::collections::HashMap;
use std::fmt;

use prima_pdk::Technology;
use prima_primitives::{Bias, Library};
use prima_spice::analysis::ac::{AcSolver, FrequencySweep};
use prima_spice::analysis::dc::DcSolver;
use prima_spice::measure;
use prima_spice::netlist::Circuit;

use crate::builder::{PrimitiveInst, Realization};
use crate::circuits::{node, powered_circuit, prim, supply_current, CircuitSpec};
use crate::FlowError;

/// Circuit-level metrics of the 5T OTA (Table VI rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OtaMetrics {
    /// Total supply current (µA).
    pub current_ua: f64,
    /// Low-frequency differential gain (dB).
    pub gain_db: f64,
    /// Unity-gain frequency (GHz).
    pub ugf_ghz: f64,
    /// −3 dB bandwidth (MHz).
    pub f3db_mhz: f64,
    /// Phase margin (degrees).
    pub phase_margin_deg: f64,
}

impl fmt::Display for OtaMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "I {:.1} µA, gain {:.2} dB, UGF {:.2} GHz, f3dB {:.1} MHz, PM {:.1}°",
            self.current_ua, self.gain_db, self.ugf_ghz, self.f3db_mhz, self.phase_margin_deg
        )
    }
}

/// The five-transistor OTA benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct FiveTOta;

impl FiveTOta {
    /// Output load capacitance (F).
    pub const C_LOAD: f64 = 60e-15;
    /// Bias reference current into the tail mirror (A); the 1:2 mirror
    /// doubles it into the tail, putting the total supply current near the
    /// paper's 706 µA.
    pub const I_BIAS: f64 = 350e-6;
    /// Differential-pair fins (the paper's Table III example size).
    pub const FINS_DP: u64 = 960;
    /// Tail-mirror reference fins.
    pub const FINS_TAIL: u64 = 240;
    /// Active-load fins.
    pub const FINS_LOAD: u64 = 384;

    /// The primitive-level structure (nets numbered as in Fig. 6a).
    pub fn spec() -> CircuitSpec {
        CircuitSpec {
            name: "ota5t".to_string(),
            instances: vec![
                PrimitiveInst::new(
                    "dp0",
                    "dp",
                    Self::FINS_DP,
                    &[
                        ("da", "n4"),
                        ("db", "n5"),
                        ("ga", "vinp"),
                        ("gb", "vinn"),
                        ("s", "n3"),
                    ],
                ),
                PrimitiveInst::new(
                    "cmtail",
                    "cm_1to2",
                    Self::FINS_TAIL,
                    &[("in", "n1"), ("out", "n3"), ("vss", "vssn")],
                ),
                PrimitiveInst::new(
                    "cmload",
                    "cm_pmos",
                    Self::FINS_LOAD,
                    &[("in", "n4"), ("out", "n5"), ("vdd", "vdd")],
                ),
            ],
            symmetry: vec![],
            symmetric_nets: vec![("n4".to_string(), "n5".to_string())],
        }
    }

    /// Measures Table VI's OTA metrics for a realization.
    ///
    /// # Errors
    ///
    /// Propagates assembly/simulation failures and missing measurements.
    pub fn measure(
        tech: &Technology,
        lib: &Library,
        realization: &Realization,
    ) -> Result<OtaMetrics, FlowError> {
        let spec = Self::spec();
        let mut c = powered_circuit(tech, lib, &spec, realization)?;
        attach_sources(&mut c, tech, 1.0)?;

        let op = DcSolver::new().solve(&c)?;
        let current = supply_current(&op, "VDD")?;

        let vout = node(&c, "n5")?;
        let ac = AcSolver::new().solve_at_op(
            &c,
            &op,
            &FrequencySweep::Decade {
                start: 1e5,
                stop: 200e9,
                points_per_decade: 24,
            },
        )?;
        let gain = measure::dc_gain(&ac, vout)?;
        let ugf = measure::unity_gain_freq(&ac, vout)?;
        let f3 = measure::bw_3db(&ac, vout)?;
        let pm = measure::phase_margin_deg(&ac, vout)?;
        Ok(OtaMetrics {
            current_ua: current * 1e6,
            gain_db: measure::db(gain),
            ugf_ghz: ugf / 1e9,
            f3db_mhz: f3 / 1e6,
            phase_margin_deg: pm,
        })
    }

    /// Per-primitive bias conditions from the schematic operating point.
    pub fn biases(tech: &Technology, lib: &Library) -> Result<HashMap<String, Bias>, FlowError> {
        let spec = Self::spec();
        let mut c = powered_circuit(tech, lib, &spec, &Realization::schematic())?;
        attach_sources(&mut c, tech, 0.0)?;
        let op = DcSolver::new().solve(&c)?;
        let v_n3 = op.voltage(node(&c, "n3")?);
        let v_n4 = op.voltage(node(&c, "n4")?);
        let v_n5 = op.voltage(node(&c, "n5")?);

        let mut dp = Bias::nominal(tech, &prim(lib, "dp")?.class);
        dp.set_v("cm_in", 0.55 * tech.vdd)
            .set_v("vd", v_n4)
            .set_i("tail", 2.0 * Self::I_BIAS)
            .set_load("da", 4e-15)
            .set_load("db", Self::C_LOAD);
        // The DP drives the PMOS diode input: its effective drain load
        // resistance is that diode's 1/gm.
        if let Some(fop) = op.fet_op("cmload.MREF") {
            dp.drain_load_ohm = (1.0 / fop.gm.max(1e-6)).min(2e3);
        }

        let mut tail = Bias::nominal(tech, &prim(lib, "cm_1to2")?.class);
        tail.set_i("ref", Self::I_BIAS).set_v("vout", v_n3);

        let mut load = Bias::nominal(tech, &prim(lib, "cm_pmos")?.class);
        load.set_i("ref", Self::I_BIAS).set_v("vout", v_n5);

        let mut out = HashMap::new();
        out.insert("dp0".to_string(), dp);
        out.insert("cmtail".to_string(), tail);
        out.insert("cmload".to_string(), load);
        Ok(out)
    }
}

fn attach_sources(c: &mut Circuit, tech: &Technology, ac_in: f64) -> Result<(), FlowError> {
    let vcm = 0.55 * tech.vdd;
    let vinp = node(c, "vinp")?;
    c.vsource_ac("VINP", vinp, Circuit::GROUND, vcm, 0.5 * ac_in);
    let vinn = node(c, "vinn")?;
    c.vsource_ac("VINN", vinn, Circuit::GROUND, vcm, -0.5 * ac_in);
    let n1 = node(c, "n1")?;
    c.isource("IBIAS", Circuit::GROUND, n1, FiveTOta::I_BIAS);
    let vss = node(c, "vssn")?;
    c.vsource("VSSN", vss, Circuit::GROUND, 0.0);
    let vout = node(c, "n5")?;
    c.capacitor("CLOAD", vout, Circuit::GROUND, FiveTOta::C_LOAD)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schematic_ota_behaves_like_an_ota() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let m = FiveTOta::measure(&tech, &lib, &Realization::schematic()).unwrap();
        // Total current ≈ tail (2 × 350 µA) within mirror accuracy.
        assert!(
            m.current_ua > 450.0 && m.current_ua < 1100.0,
            "current {}",
            m.current_ua
        );
        assert!(m.gain_db > 10.0 && m.gain_db < 45.0, "gain {}", m.gain_db);
        assert!(m.ugf_ghz > 1.0, "ugf {}", m.ugf_ghz);
        assert!(m.f3db_mhz > 10.0, "f3db {}", m.f3db_mhz);
        assert!(
            m.phase_margin_deg > 30.0 && m.phase_margin_deg <= 180.0,
            "pm {}",
            m.phase_margin_deg
        );
        // Single-dominant-pole consistency: UGF ≈ gain × f3dB (loose).
        let expect_ugf = 10f64.powf(m.gain_db / 20.0) * m.f3db_mhz * 1e6 / 1e9;
        assert!(
            (m.ugf_ghz / expect_ugf - 1.0).abs() < 0.5,
            "ugf {} vs gain×f3db {}",
            m.ugf_ghz,
            expect_ugf
        );
    }

    #[test]
    fn biases_capture_tail_and_diode_load() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let b = FiveTOta::biases(&tech, &lib).unwrap();
        assert!((b["dp0"].i("tail", 0.0) - 700e-6).abs() < 1e-9);
        // The diode-load resistance was extracted from the OP.
        assert!(b["dp0"].drain_load_ohm > 10.0 && b["dp0"].drain_load_ohm <= 2e3);
        assert!(b["cmtail"].i("ref", 0.0) == FiveTOta::I_BIAS);
    }
}
