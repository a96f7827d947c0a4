//! Integration tests for whole circuits on the PDK's device flavors: an
//! inverter, the paper's 5T OTA, a ring oscillator and an RC ladder, built
//! with the `Circuit` builder and run through all three analyses.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use prima_pdk::Technology;
use prima_spice::analysis::ac::{AcSolver, FrequencySweep};
use prima_spice::analysis::dc::DcSolver;
use prima_spice::analysis::tran::TranSolver;
use prima_spice::devices::{FetInstance, FetModel};
use prima_spice::measure;
use prima_spice::netlist::{Circuit, NodeId, Waveform};

const GND: NodeId = Circuit::GROUND;

/// Adds a 14 nm FET of the PDK flavor `model` with terminals
/// `[drain, gate, source, bulk]` and width `w` (m).
fn fet(c: &mut Circuit, name: &str, [d, g, s, b]: [NodeId; 4], model: &FetModel, w: f64) {
    c.fet(FetInstance::new(name, d, g, s, b, model.clone(), w, 14e-9))
        .unwrap();
}

#[test]
fn inverter_deck_dc_transfer() {
    let tech = Technology::finfet7();
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
    let out = c.node("out");
    c.vsource("VDD", vdd, GND, 0.8);
    c.vsource("VIN", vin, GND, 0.2);
    fet(&mut c, "MN", [out, vin, GND, GND], &tech.nmos, 0.5e-6);
    fet(&mut c, "MP", [out, vin, vdd, vdd], &tech.pmos, 1e-6);
    let op = DcSolver::new().solve(&c).unwrap();
    assert!(op.voltage(out) > 0.6, "low input gives high output");
}

#[test]
fn five_transistor_ota_deck() {
    // The paper's 5T OTA. Its three blocks (input pair X1, NMOS tail
    // mirror X2, PMOS load mirror X3) are flattened under their instance
    // names.
    let tech = Technology::finfet7();
    let (n, p) = (&tech.nmos, &tech.pmos);
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vinp = c.node("vinp");
    let vinn = c.node("vinn");
    let n1 = c.node("n1");
    let n4 = c.node("n4");
    let n5 = c.node("n5");
    let n3 = c.node("n3");
    c.vsource("VDD", vdd, GND, 0.8);
    c.vsource_ac("VINP", vinp, GND, 0.44, 0.5);
    c.vsource_ac("VINN", vinn, GND, 0.44, -0.5);
    c.isource("IB", GND, n1, 350e-6);
    fet(&mut c, "X1.MA", [n4, vinp, n3, GND], n, 4.6e-6);
    fet(&mut c, "X1.MB", [n5, vinn, n3, GND], n, 4.6e-6);
    fet(&mut c, "X2.MREF", [n1, n1, GND, GND], n, 1.2e-6);
    fet(&mut c, "X2.MOUT", [n3, n1, GND, GND], n, 2.4e-6);
    fet(&mut c, "X3.MREF", [n4, n4, vdd, vdd], p, 1.8e-6);
    fet(&mut c, "X3.MOUT", [n5, n4, vdd, vdd], p, 1.8e-6);
    c.capacitor("CL", n5, GND, 60e-15).unwrap();

    let op = DcSolver::new().solve(&c).unwrap();
    let vout = op.voltage(n5);
    assert!(vout > 0.1 && vout < 0.79, "output in range: {vout}");

    let ac = AcSolver::new()
        .solve_at_op(
            &c,
            &op,
            &FrequencySweep::Decade {
                start: 1e5,
                stop: 100e9,
                points_per_decade: 20,
            },
        )
        .unwrap();
    let gain = measure::dc_gain(&ac, n5).unwrap();
    assert!(gain > 3.0, "OTA gain {gain}");
    assert!(measure::unity_gain_freq(&ac, n5).is_ok());
}

#[test]
fn ring_oscillator_deck_transient() {
    // Three-inverter ring with a PWL current kick.
    let tech = Technology::finfet7();
    let (n, p) = (&tech.nmos, &tech.pmos);
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let a = c.node("a");
    let b = c.node("b");
    let cn = c.node("c");
    c.vsource("VDD", vdd, GND, 0.8);
    for (x, inp, out) in [("X1", a, b), ("X2", b, cn), ("X3", cn, a)] {
        fet(&mut c, &format!("{x}.MN"), [out, inp, GND, GND], n, 0.3e-6);
        fet(&mut c, &format!("{x}.MP"), [out, inp, vdd, vdd], p, 0.6e-6);
        c.capacitor(&format!("{x}.C1"), out, GND, 1e-15).unwrap();
    }
    let kick = vec![
        (0.0, 0.0),
        (10e-12, 100e-6),
        (60e-12, 100e-6),
        (70e-12, 0.0),
    ];
    c.isource_wave("IKICK", GND, a, Waveform::Pwl(kick), 0.0);

    let res = TranSolver::new(0.5e-12, 3e-9).solve(&c).unwrap();
    let wave = res.voltage(a);
    let t = res.times().to_vec();
    let swing = measure::settled_peak_to_peak(&wave).unwrap();
    assert!(swing > 0.5, "ring oscillates with swing {swing}");
    let f = measure::osc_frequency(&t, &wave, 5).expect("frequency measurable");
    assert!(f > 1e9 && f < 1e12, "ring frequency {f}");
}

#[test]
fn rc_ladder_deck_matches_analytic_bandwidth() {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let m1 = c.node("m1");
    let out = c.node("out");
    c.vsource_ac("VIN", vin, GND, 0.0, 1.0);
    c.resistor("R1", vin, m1, 1e3).unwrap();
    c.capacitor("C1", m1, GND, 100e-15).unwrap();
    c.resistor("R2", m1, out, 1e3).unwrap();
    c.capacitor("C2", out, GND, 100e-15).unwrap();
    let ac = AcSolver::new()
        .solve(
            &c,
            &FrequencySweep::Decade {
                start: 1e6,
                stop: 1e12,
                points_per_decade: 30,
            },
        )
        .unwrap();
    let f3 = measure::bw_3db(&ac, out).unwrap();
    // Two-section ladder: f3dB ≈ 0.374/(2πRC) for equal sections.
    let rc = 1e3 * 100e-15;
    let expect = 0.374 / (2.0 * std::f64::consts::PI * rc);
    assert!(
        (f3 - expect).abs() / expect < 0.05,
        "ladder f3dB {f3} vs {expect}"
    );
}
