//! DC bias conditions handed to primitive testbenches.
//!
//! The paper gets these from circuit-level schematic simulations (§II-B);
//! the flow crate does the same. `Bias::nominal` provides sensible
//! standalone defaults per class for library characterization and tests.

use std::collections::HashMap;

use prima_pdk::Technology;

use crate::library::PrimitiveClass;

/// DC bias conditions for a primitive testbench.
#[derive(Debug, Clone, PartialEq)]
pub struct Bias {
    /// Supply voltage (V).
    pub vdd: f64,
    /// DC voltage forced at specific ports (gates, drain bias points).
    pub port_v: HashMap<String, f64>,
    /// External load capacitance at specific ports (F) — the schematic-level
    /// loading the primitive sees in its circuit context.
    pub port_load_c: HashMap<String, f64>,
    /// Bias currents (A): tail current for pairs (`"tail"`), reference
    /// current for mirrors (`"ref"`).
    pub currents: HashMap<String, f64>,
    /// Resistance of the downstream load a pair's drains drive (Ω) —
    /// typically the `1/gm` of a mirror's diode input. The Gm testbench
    /// measures the current *delivered through* this load, which is what
    /// makes route resistance matter.
    pub drain_load_ohm: f64,
}

impl Bias {
    /// Nominal standalone bias per primitive class.
    pub fn nominal(tech: &Technology, class: &PrimitiveClass) -> Self {
        let vdd = tech.vdd;
        let mut b = Bias {
            vdd,
            port_v: HashMap::new(),
            port_load_c: HashMap::new(),
            currents: HashMap::new(),
            drain_load_ohm: 400.0,
        };
        match class {
            PrimitiveClass::DifferentialPair => {
                // Gate/drain bias defaults are polarity-aware and resolved by
                // the testbench; only class-level quantities live here.
                b.set_i("tail", 300e-6);
                b.set_load("da", 15e-15);
                b.set_load("db", 15e-15);
            }
            PrimitiveClass::CurrentMirror { .. } => {
                b.set_i("ref", 100e-6);
                b.set_v("vout", 0.5 * vdd);
            }
            PrimitiveClass::CurrentSource => {
                b.set_v("vb", 0.45 * vdd);
                b.set_v("vout", 0.5 * vdd);
            }
            PrimitiveClass::Amplifier => {
                b.set_v("vin", 0.5 * vdd);
                b.set_v("vout", 0.55 * vdd);
                b.set_load("out", 5e-15);
            }
            PrimitiveClass::Load => {
                b.set_i("ref", 100e-6);
            }
            PrimitiveClass::Switch => {
                // The enable level is polarity-aware and resolved by the
                // testbench (vdd for NMOS, 0 for PMOS).
                b.set_v("vsig", 0.4 * vdd);
            }
            PrimitiveClass::CrossCoupled => {
                b.set_v("vd", 0.6 * vdd);
                b.set_i("tail", 200e-6);
                b.set_load("outp", 3e-15);
                b.set_load("outn", 3e-15);
            }
            PrimitiveClass::CurrentStarvedInverter => {
                b.set_v("vbn", 0.55 * vdd);
                b.set_v("vbp", 0.45 * vdd);
                b.set_load("out", 2e-15);
            }
            PrimitiveClass::PassiveCap { .. } | PrimitiveClass::PassiveRes { .. } => {}
        }
        b
    }

    /// Sets a port voltage.
    pub fn set_v(&mut self, port: &str, v: f64) -> &mut Self {
        self.port_v.insert(port.to_string(), v);
        self
    }

    /// Sets a port load capacitance.
    pub fn set_load(&mut self, port: &str, c: f64) -> &mut Self {
        self.port_load_c.insert(port.to_string(), c);
        self
    }

    /// Sets a named bias current.
    pub fn set_i(&mut self, name: &str, i: f64) -> &mut Self {
        self.currents.insert(name.to_string(), i);
        self
    }

    /// Port voltage, or `default` if unset.
    pub fn v(&self, port: &str, default: f64) -> f64 {
        self.port_v.get(port).copied().unwrap_or(default)
    }

    /// Load capacitance at a port (0 if unset).
    pub fn load(&self, port: &str) -> f64 {
        self.port_load_c.get(port).copied().unwrap_or(0.0)
    }

    /// Named bias current, or `default` if unset.
    pub fn i(&self, name: &str, default: f64) -> f64 {
        self.currents.get(name).copied().unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_dp_bias() {
        let tech = Technology::finfet7();
        let b = Bias::nominal(&tech, &PrimitiveClass::DifferentialPair);
        assert!(b.i("tail", 0.0) > 0.0);
        assert_eq!(b.load("da"), 15e-15);
        assert_eq!(b.load("unknown"), 0.0);
        assert_eq!(b.v("unknown", 0.123), 0.123);
    }

    #[test]
    fn setters_chain() {
        let tech = Technology::finfet7();
        let mut b = Bias::nominal(&tech, &PrimitiveClass::CurrentSource);
        b.set_v("x", 0.3).set_i("ref", 50e-6).set_load("out", 1e-15);
        assert_eq!(b.v("x", 0.0), 0.3);
        assert_eq!(b.i("ref", 0.0), 50e-6);
    }
}
