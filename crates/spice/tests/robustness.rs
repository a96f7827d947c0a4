//! Robustness tests for the simulator: fallback paths, degenerate inputs,
//! and initialization strategies not covered by the module unit tests.

#![allow(clippy::unwrap_used)]

use std::collections::HashMap;

use prima_spice::analysis::dc::DcSolver;
use prima_spice::analysis::tran::{InitialState, TranSolver};
use prima_spice::devices::{FetInstance, FetModel, FetPolarity};
use prima_spice::measure;
use prima_spice::netlist::{Circuit, Waveform};

/// A bistable cross-coupled latch: Newton from zero finds *a* solution
/// through the gmin ladder; the Kick initial state then steers a transient
/// into a chosen state.
#[test]
fn latch_kick_selects_state() {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let q = c.node("q");
    let qb = c.node("qb");
    c.vsource("VDD", vdd, Circuit::GROUND, 0.8);
    for (name, d, g) in [("MN1", q, qb), ("MN2", qb, q)] {
        c.fet(FetInstance::new(
            name,
            d,
            g,
            Circuit::GROUND,
            Circuit::GROUND,
            FetModel::ideal(FetPolarity::Nmos),
            1e-6,
            50e-9,
        ))
        .unwrap();
    }
    for (name, d, g) in [("MP1", q, qb), ("MP2", qb, q)] {
        c.fet(FetInstance::new(
            name,
            d,
            g,
            vdd,
            vdd,
            FetModel::ideal(FetPolarity::Pmos),
            2e-6,
            50e-9,
        ))
        .unwrap();
    }
    c.capacitor("CQ", q, Circuit::GROUND, 1e-15).unwrap();
    c.capacitor("CQB", qb, Circuit::GROUND, 1e-15).unwrap();

    // DC converges (to the metastable or a latched point).
    let op = DcSolver::new().solve(&c).unwrap();
    assert!(op.voltage(q).is_finite());

    // Kick q high: the latch must settle with q at the rail.
    let mut kick = HashMap::new();
    kick.insert(q, 0.8);
    kick.insert(qb, 0.0);
    let res = TranSolver::new(1e-12, 2e-9)
        .initial(InitialState::Kick(kick))
        .solve(&c)
        .unwrap();
    let vq = res.voltage(q);
    let vqb = res.voltage(qb);
    assert!(*vq.last().unwrap() > 0.7, "q = {}", vq.last().unwrap());
    assert!(*vqb.last().unwrap() < 0.1, "qb = {}", vqb.last().unwrap());
}

/// The Newton damping and gmin ladder handle a stiff exponential start.
#[test]
fn high_gain_stack_converges() {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    c.vsource("VDD", vdd, Circuit::GROUND, 0.8);
    // Five diode-connected devices in series from the rail.
    let mut prev = vdd;
    for i in 0..5 {
        let n = c.node(&format!("s{i}"));
        c.fet(FetInstance::new(
            &format!("M{i}"),
            prev,
            prev,
            n,
            Circuit::GROUND,
            FetModel::ideal(FetPolarity::Nmos),
            4e-6,
            50e-9,
        ))
        .unwrap();
        prev = n;
    }
    c.resistor("RT", prev, Circuit::GROUND, 100.0).unwrap();
    let op = DcSolver::new().solve(&c).unwrap();
    // The stack divides the rail monotonically.
    let mut last = 0.81;
    for i in 0..5 {
        let v = op.voltage(c.find_node(&format!("s{i}")).unwrap());
        assert!(v < last, "stack voltage rose at s{i}");
        last = v;
    }
}

/// PWL-driven source integrates exactly through a transient.
#[test]
fn pwl_ramp_through_rc() {
    let mut c = Circuit::new();
    let a = c.node("a");
    let b = c.node("b");
    c.vsource_wave(
        "V1",
        a,
        Circuit::GROUND,
        Waveform::Pwl(vec![(0.0, 0.0), (1e-6, 1.0), (2e-6, 1.0)]),
        0.0,
    );
    // RC much faster than the ramp: output tracks the ramp closely.
    c.resistor("R1", a, b, 100.0).unwrap();
    c.capacitor("C1", b, Circuit::GROUND, 1e-12).unwrap();
    let res = TranSolver::new(5e-9, 2e-6).solve(&c).unwrap();
    let t = res.times().to_vec();
    let v = res.voltage(b);
    let i_half = t.iter().position(|&x| x >= 0.5e-6).unwrap();
    assert!((v[i_half] - 0.5).abs() < 0.01, "mid-ramp {}", v[i_half]);
    assert!((v.last().unwrap() - 1.0).abs() < 0.01);
}

/// Crossing measurements behave on noisy plateaus (no spurious crossings).
#[test]
fn measure_ignores_plateau_noise() {
    let t: Vec<f64> = (0..100).map(|i| i as f64).collect();
    let w: Vec<f64> = t
        .iter()
        .map(|&x| if x < 50.0 { 0.48 } else { 1.0 })
        .collect();
    // Level 0.5 crossed exactly once even though the low plateau hovers
    // just below it.
    assert!(measure::cross_time(&t, &w, 0.5, measure::Edge::Rising, 2).is_err());
    let first = measure::cross_time(&t, &w, 0.5, measure::Edge::Rising, 1).unwrap();
    assert!((first - 49.0) < 1.5);
}

/// Temperature scaling: hotter devices leak more (subthreshold) and drive
/// less (mobility), and the crossover sits near threshold.
#[test]
fn temperature_moves_current_correctly() {
    let mut c = Circuit::new();
    let d = c.node("d");
    let g = c.node("g");
    let cold = FetInstance::new(
        "M",
        d,
        g,
        Circuit::GROUND,
        Circuit::GROUND,
        FetModel::ideal(FetPolarity::Nmos),
        1e-6,
        50e-9,
    );
    let mut hot = cold.clone();
    hot.model = hot.model.at_temperature(125.0);
    assert_eq!(hot.model.temp_c, 125.0);

    // Subthreshold: leakage grows with temperature.
    let i_cold_off = cold.eval(0.8, 0.0, 0.0, 0.0).id_raw;
    let i_hot_off = hot.eval(0.8, 0.0, 0.0, 0.0).id_raw;
    assert!(
        i_hot_off > 3.0 * i_cold_off,
        "hot leakage {i_hot_off} vs cold {i_cold_off}"
    );

    // Strong inversion: mobility loss wins, current drops.
    let i_cold_on = cold.eval(0.8, 0.9, 0.0, 0.0).id_raw;
    let i_hot_on = hot.eval(0.8, 0.9, 0.0, 0.0).id_raw;
    assert!(
        i_hot_on < i_cold_on,
        "hot drive {i_hot_on} vs cold {i_cold_on}"
    );
}
