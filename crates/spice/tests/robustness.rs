//! Robustness tests for the simulator: fallback paths, degenerate inputs,
//! and agreement between the analyses, not covered by the module unit tests.

#![allow(clippy::unwrap_used)]

use prima_spice::analysis::ac::{AcSolver, FrequencySweep};
use prima_spice::analysis::dc::DcSolver;
use prima_spice::analysis::tran::TranSolver;
use prima_spice::devices::{FetInstance, FetModel, FetPolarity};
use prima_spice::measure;
use prima_spice::netlist::{Circuit, NodeId, Waveform};

/// A bistable cross-coupled latch: Newton from zero finds *a* solution
/// through the gmin ladder; a brief current kick then steers a transient
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

    // Kick q high for ~20 ps, pushing current into q and pulling it out of
    // qb: the latch must settle with q at the rail. The kick is zero at
    // t = 0, so it leaves the operating point alone.
    let amp = 0.5e-3;
    let kick = || Waveform::Pwl(vec![(0.0, 0.0), (1e-12, amp), (20e-12, amp), (21e-12, 0.0)]);
    c.isource_wave("IKQ", Circuit::GROUND, q, kick(), 0.0);
    c.isource_wave("IKQB", qb, Circuit::GROUND, kick(), 0.0);
    let res = TranSolver::new(1e-12, 2e-9).solve(&c).unwrap();
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

/// A resistively loaded NMOS common-source stage: `(circuit, out)`.
fn cs_stage(w: f64, vg: f64, rl: f64) -> (Circuit, NodeId) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let g = c.node("g");
    let out = c.node("out");
    c.vsource("VDD", vdd, Circuit::GROUND, 0.8);
    c.vsource_ac("VG", g, Circuit::GROUND, vg, 1.0);
    c.resistor("RL", vdd, out, rl).unwrap();
    c.capacitor("CL", out, Circuit::GROUND, 2e-15).unwrap();
    c.fet(FetInstance::new(
        "M1",
        out,
        g,
        Circuit::GROUND,
        Circuit::GROUND,
        FetModel::ideal(FetPolarity::Nmos),
        w,
        50e-9,
    ))
    .unwrap();
    (c, out)
}

/// DC, AC and transient stamp the same elements: at the operating point a
/// transient with constant sources stays put, and the small-signal gain
/// equals the slope of the DC transfer curve.
#[test]
fn analyses_agree_at_the_operating_point() {
    // (W, gate bias, load): each stage sits in saturation with a gain near −4.
    for (w, vg, rl) in [(0.5e-6, 0.30, 20e3), (1e-6, 0.25, 20e3), (2e-6, 0.30, 5e3)] {
        let out_at = |vg: f64| {
            let (c, out) = cs_stage(w, vg, rl);
            DcSolver::new().solve(&c).unwrap().voltage(out)
        };
        let (c, out) = cs_stage(w, vg, rl);
        let v0 = out_at(vg);

        let tran = TranSolver::new(1e-12, 200e-12).solve(&c).unwrap();
        for (t, v) in tran.times().iter().zip(tran.voltage(out)) {
            assert!(
                (v - v0).abs() < 1e-6,
                "W={w}: v(out) drifted to {v} at t={t:e}"
            );
        }

        let ac = AcSolver::new()
            .solve(&c, &FrequencySweep::List(vec![1.0]))
            .unwrap();
        let gain_ac = ac.phasor(out, 0).re;
        let dv = 1e-4;
        let gain_dc = (out_at(vg + dv) - out_at(vg - dv)) / (2.0 * dv);
        assert!(gain_dc < -3.0, "W={w}: stage gain {gain_dc}");
        assert!(
            (gain_ac - gain_dc).abs() < 1e-3 * gain_dc.abs(),
            "W={w}: AC gain {gain_ac} vs DC slope {gain_dc}"
        );
    }
}
