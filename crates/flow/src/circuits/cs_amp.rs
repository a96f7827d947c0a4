//! The common-source amplifier of Fig. 2 / Table I: a CS stage with a PMOS
//! current-source load, used to demonstrate the parasitic RC trade-off on
//! the drain (output) net.

use std::collections::HashMap;
use std::fmt;

use prima_pdk::Technology;
use prima_primitives::{Bias, Library};
use prima_spice::analysis::ac::{AcSolver, FrequencySweep};
use prima_spice::analysis::dc::DcSolver;
use prima_spice::measure;
use prima_spice::netlist::Circuit;

use crate::builder::{PrimitiveInst, Realization};
use crate::circuits::{bisect_bias, node, powered_circuit, prim, supply_current, CircuitSpec};
use crate::FlowError;

/// Circuit-level metrics of the common-source amplifier (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsAmpMetrics {
    /// Low-frequency gain (dB).
    pub gain_db: f64,
    /// Unity-gain frequency (GHz).
    pub ugf_ghz: f64,
    /// Supply power (µW).
    pub power_uw: f64,
    /// Bias current (µA).
    pub current_ua: f64,
}

impl fmt::Display for CsAmpMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gain {:.2} dB, UGF {:.2} GHz, power {:.1} µW, I {:.1} µA",
            self.gain_db, self.ugf_ghz, self.power_uw, self.current_ua
        )
    }
}

/// The common-source amplifier benchmark.
#[derive(Debug, Clone, Copy, Default)]
pub struct CsAmp;

impl CsAmp {
    /// Load capacitance at the output (F).
    pub const C_LOAD: f64 = 20e-15;
    /// Total fins of the NMOS stage.
    pub const FINS_M1: u64 = 48;
    /// Total fins of the PMOS current source.
    pub const FINS_M2: u64 = 72;

    /// The primitive-level structure.
    pub fn spec() -> CircuitSpec {
        CircuitSpec {
            name: "cs_amp".to_string(),
            instances: vec![
                PrimitiveInst::new(
                    "m1",
                    "cs_amp",
                    Self::FINS_M1,
                    &[("in", "vin"), ("out", "vout"), ("vss", "vssn")],
                ),
                PrimitiveInst::new(
                    "m2",
                    "csrc_pmos",
                    Self::FINS_M2,
                    &[("out", "vout"), ("vb", "vbp"), ("vdd", "vdd")],
                ),
            ],
            symmetry: vec![],
            symmetric_nets: vec![],
        }
    }

    /// Finds the input bias that centers the output at `0.5·vdd` for the
    /// given realization (the designer's biasing step, done once on the
    /// schematic and reused for layouts).
    fn input_bias(
        tech: &Technology,
        lib: &Library,
        realization: &Realization,
    ) -> Result<f64, FlowError> {
        let spec = Self::spec();
        let vbp = 0.62 * tech.vdd;
        bisect_bias(0.2, 0.7, 0.5 * tech.vdd, 30, |vin| {
            let mut c = powered_circuit(tech, lib, &spec, realization)?;
            attach_sources(&mut c, tech, vin, vbp, 0.0)?;
            let op = DcSolver::new().solve(&c)?;
            Ok(op.voltage(node(&c, "vout")?))
        })
    }

    /// Measures the circuit metrics for a realization.
    ///
    /// # Errors
    ///
    /// Propagates assembly/simulation failures; returns
    /// [`FlowError::Measurement`] when no unity crossing exists.
    pub fn measure(
        tech: &Technology,
        lib: &Library,
        realization: &Realization,
    ) -> Result<CsAmpMetrics, FlowError> {
        let spec = Self::spec();
        // Bias at the schematic point — designer intent is fixed before
        // layout (the paper's premise).
        let vin = Self::input_bias(tech, lib, &Realization::schematic())?;
        let vbp = 0.62 * tech.vdd;
        let mut c = powered_circuit(tech, lib, &spec, realization)?;
        attach_sources(&mut c, tech, vin, vbp, 1.0)?;

        let op = DcSolver::new().solve(&c)?;
        let current = supply_current(&op, "VDD")?;

        let vout = node(&c, "vout")?;
        let ac = AcSolver::new().solve_at_op(
            &c,
            &op,
            &FrequencySweep::Decade {
                start: 1e6,
                stop: 500e9,
                points_per_decade: 20,
            },
        )?;
        let gain = measure::dc_gain(&ac, vout)?;
        let ugf = measure::unity_gain_freq(&ac, vout)?;
        Ok(CsAmpMetrics {
            gain_db: measure::db(gain),
            ugf_ghz: ugf / 1e9,
            power_uw: current * tech.vdd * 1e6,
            current_ua: current * 1e6,
        })
    }

    /// Per-primitive bias conditions from the schematic operating point.
    pub fn biases(tech: &Technology, lib: &Library) -> Result<HashMap<String, Bias>, FlowError> {
        let vin = Self::input_bias(tech, lib, &Realization::schematic())?;
        let vbp = 0.62 * tech.vdd;
        let spec = Self::spec();
        let mut c = powered_circuit(tech, lib, &spec, &Realization::schematic())?;
        attach_sources(&mut c, tech, vin, vbp, 0.0)?;
        let op = DcSolver::new().solve(&c)?;
        let current = supply_current(&op, "VDD")?;
        let vout = op.voltage(node(&c, "vout")?);

        let mut m1 = Bias::nominal(tech, &prim(lib, "cs_amp")?.class);
        m1.set_v("vin", vin)
            .set_v("vout", vout)
            .set_load("out", Self::C_LOAD);
        let mut m2 = Bias::nominal(tech, &prim(lib, "csrc_pmos")?.class);
        m2.set_v("vb", vbp)
            .set_v("vout", vout)
            .set_i("ref", current);
        let mut out = HashMap::new();
        out.insert("m1".to_string(), m1);
        out.insert("m2".to_string(), m2);
        Ok(out)
    }
}

fn attach_sources(
    c: &mut Circuit,
    tech: &Technology,
    vin: f64,
    vbp: f64,
    ac_in: f64,
) -> Result<(), FlowError> {
    let vin_n = node(c, "vin")?;
    c.vsource_ac("VIN", vin_n, Circuit::GROUND, vin, ac_in);
    let vbp_n = node(c, "vbp")?;
    c.vsource("VBP", vbp_n, Circuit::GROUND, vbp);
    let vss = node(c, "vssn")?;
    c.vsource("VSSN", vss, Circuit::GROUND, 0.0);
    let vout = node(c, "vout")?;
    c.capacitor("CLOAD", vout, Circuit::GROUND, CsAmp::C_LOAD)?;
    let _ = tech;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schematic_metrics_are_sane() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let m = CsAmp::measure(&tech, &lib, &Realization::schematic()).unwrap();
        assert!(m.gain_db > 6.0 && m.gain_db < 40.0, "gain {}", m.gain_db);
        assert!(m.ugf_ghz > 0.5 && m.ugf_ghz < 100.0, "ugf {}", m.ugf_ghz);
        assert!(
            m.current_ua > 20.0 && m.current_ua < 2000.0,
            "I {}",
            m.current_ua
        );
        // Power = I × VDD.
        assert!((m.power_uw - m.current_ua * tech.vdd).abs() < 1e-6);
    }

    #[test]
    fn biases_reflect_operating_point() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let biases = CsAmp::biases(&tech, &lib).unwrap();
        let m1 = &biases["m1"];
        // Output centered near mid-rail by construction.
        let vout = m1.v("vout", 0.0);
        assert!((vout - 0.4).abs() < 0.05, "vout {vout}");
        assert!(biases["m2"].i("ref", 0.0) > 1e-5);
    }

    #[test]
    fn wire_widths_shift_performance_like_fig2() {
        use prima_primitives::ExternalWire;
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let sch = CsAmp::measure(&tech, &lib, &Realization::schematic()).unwrap();

        // Narrow drain wire: high R, low C.
        let mut narrow = Realization::schematic();
        narrow.net_wires.insert(
            "vout".to_string(),
            ExternalWire {
                r_ohm: 400.0,
                c_f: 0.4e-15,
            },
        );
        // Wide drain wire: low R, high C.
        let mut wide = Realization::schematic();
        wide.net_wires.insert(
            "vout".to_string(),
            ExternalWire {
                r_ohm: 30.0,
                c_f: 6e-15,
            },
        );
        let mn = CsAmp::measure(&tech, &lib, &narrow).unwrap();
        let mw = CsAmp::measure(&tech, &lib, &wide).unwrap();
        // The wide wire's extra C lowers UGF below the narrow wire's.
        assert!(mw.ugf_ghz < mn.ugf_ghz, "wide {mw}, narrow {mn}");
        // Both degrade (or match) the schematic UGF.
        assert!(mn.ugf_ghz <= sch.ugf_ghz * 1.01);
        // Currents stay near the schematic value (Fig. 2: power unchanged).
        assert!((mn.current_ua - sch.current_ua).abs() / sch.current_ua < 0.12);
    }
}
