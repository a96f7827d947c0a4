//! Runs the StrongARM comparator transient and exports the decision
//! waveforms as CSV, plus the input pair's cell geometry as SVG — the
//! artifacts a designer inspects after a flow run.
//!
//! Run with `cargo run --release --example comparator_waves`; files land in
//! the current directory.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::fmt::Write as _;

use prima_flow::circuits::StrongArm;
use prima_flow::{build_circuit, optimized_flow};
use prima_layout::render;
use prima_pdk::Technology;
use prima_primitives::Library;
use prima_spice::analysis::tran::TranSolver;
use prima_spice::netlist::{Circuit, Waveform};

fn main() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let spec = StrongArm::spec();
    let biases = StrongArm::biases(&tech, &lib).expect("bias extraction");
    let flow = optimized_flow(&tech, &lib, &spec, &biases, 42).expect("optimized flow");

    // Assemble and drive the comparator the same way the testbench does.
    let mut c = build_circuit(&tech, &lib, &spec.instances, &flow.realization).expect("assembly");
    let vdd = tech.vdd;
    let vdd_ext = c.find_node("vdd_ext").expect("rail");
    c.vsource("VDD", vdd_ext, Circuit::GROUND, vdd);
    let vcm = 0.6 * vdd;
    let vinp = c.find_node("vinp").expect("vinp");
    c.vsource("VINP", vinp, Circuit::GROUND, vcm + 0.025);
    let vinn = c.find_node("vinn").expect("vinn");
    c.vsource("VINN", vinn, Circuit::GROUND, vcm - 0.025);
    let vss = c.find_node("vssn").expect("vssn");
    c.vsource("VSSN", vss, Circuit::GROUND, 0.0);
    let clk = c.find_node("clk").expect("clk");
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
            width: 0.5e-9,
            period: 1e-9,
        },
        0.0,
    );

    let res = TranSolver::new(0.5e-12, 2.2e-9)
        .solve(&c)
        .expect("transient");
    let nodes = ["clk", "outp", "outn", "xa", "xb"].map(|n| c.find_node(n).expect("net exists"));
    // CSV: `time` followed by one `v(<node>)` column per node.
    let mut csv = String::from("time");
    for &n in &nodes {
        write!(csv, ",v({})", c.node_name(n)).unwrap();
    }
    csv.push('\n');
    let waves = nodes.map(|n| res.voltage(n));
    for (i, t) in res.times().iter().enumerate() {
        write!(csv, "{t:e}").unwrap();
        for w in &waves {
            write!(csv, ",{:e}", w[i]).unwrap();
        }
        csv.push('\n');
    }
    std::fs::write("strongarm_waves.csv", &csv).expect("write csv");
    println!(
        "wrote strongarm_waves.csv ({} samples × {} signals)",
        res.len(),
        nodes.len()
    );

    // Export the chosen input-pair cell as SVG.
    let dpin = &flow.realization.layouts["dpin"];
    let def = lib.get("dp_switched").expect("dp_switched");
    let geometry = render(&tech, &def.spec, &dpin.config).expect("render");
    std::fs::write("strongarm_dpin.svg", geometry.to_svg()).expect("write svg");
    println!(
        "wrote strongarm_dpin.svg (nfin={} nf={} m={} {}, {} rects)",
        dpin.config.nfin,
        dpin.config.nf,
        dpin.config.m,
        dpin.config.pattern,
        geometry.rects.len()
    );
}
