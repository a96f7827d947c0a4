//! Quickstart: optimize one differential-pair primitive end to end.
//!
//! Demonstrates the paper's Algorithm 1 on the Table III example — a DP
//! with 960 total fins — printing the per-bin selected layouts, their cost
//! breakdowns, and the effect of primitive tuning.
//!
//! Run with `cargo run --release --example quickstart`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use prima_core::{enumerate_configs, EvalLedger, NoFaults, Optimizer, Phase};
use prima_flow::circuits::CsAmp;
use prima_flow::{optimized_flow_with, FlowOptions, GdsPolicy};
use prima_pdk::Technology;
use prima_primitives::{Bias, Library};

fn main() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let dp = lib.get("dp").expect("dp is a standard primitive");
    let bias = Bias::nominal(&tech, &dp.class);
    let opt = Optimizer::new(&tech);

    // The Fig. 5 option space: every nfin/nf/m factorization of 960 fins.
    let configs = enumerate_configs(960, &[8, 12, 16, 24], 8);
    println!(
        "differential pair, W = 46.08 µm as 960 fins: {} layout candidates",
        configs.len()
    );

    // Rank 0 of each aspect-ratio bin is that bin's winner.
    let picks: Vec<_> = opt
        .select_bins(dp, &bias, &configs, 3, &NoFaults, &mut EvalLedger::new())
        .expect("selection succeeds")
        .into_iter()
        .filter_map(|bin| bin.ranked.into_iter().next())
        .collect();
    println!("\n== selected per aspect-ratio bin ==");
    for (i, pick) in picks.iter().enumerate() {
        let cfg = pick.layout.config;
        println!(
            "bin {}: nfin={:<2} nf={:<2} m={} {}  AR={:.2}  cost={:.2}",
            i + 1,
            cfg.nfin,
            cfg.nf,
            cfg.m,
            cfg.pattern,
            pick.layout.aspect_ratio(),
            pick.cost
        );
        for b in &pick.breakdown {
            println!(
                "      Δ{:<10} = {:>6.2}%  (α = {})",
                b.metric, b.deviation_pct, b.weight
            );
        }
    }

    println!("\n== primitive tuning (parallel wires at the tuning terminals) ==");
    for pick in &picks {
        let before = pick.cost;
        let tuned = opt
            .tune(dp, &bias, pick.layout.clone())
            .expect("tuning succeeds");
        println!(
            "AR {:.2}: cost {:.2} -> {:.2}  (source wires ×{}, drain wires ×{})",
            tuned.layout.aspect_ratio(),
            before,
            tuned.cost,
            tuned.layout.parallel_wires("s"),
            tuned.layout.parallel_wires("da"),
        );
    }

    println!(
        "\nsimulations: selection {}, tuning {} (all independent, parallelizable)",
        opt.counter().count(Phase::Selection),
        opt.counter().count(Phase::Tuning)
    );

    // Stream the smallest benchmark circuit out to industry-standard
    // binary GDS-II: the full optimized flow with `GdsPolicy::On` attaches
    // the byte stream to the outcome, ready to open in KLayout.
    println!("\n== stream-out: CS amp flow to binary GDS-II ==");
    let spec = CsAmp::spec();
    let biases = CsAmp::biases(&tech, &lib).expect("bias solve succeeds");
    let options = FlowOptions {
        gds: GdsPolicy::On,
        ..FlowOptions::default()
    };
    let out = optimized_flow_with(&tech, &lib, &spec, &biases, 7, options).expect("flow succeeds");
    let art = out.gds.expect("stream-out was enabled");
    std::fs::write("quickstart.gds", &art.bytes).expect("quickstart.gds is writable");
    println!(
        "wrote quickstart.gds: {} bytes, {} structures, top cell {:?} — open it in KLayout",
        art.bytes.len(),
        art.library.structures.len(),
        art.top
    );
}
