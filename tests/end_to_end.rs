//! End-to-end integration tests spanning every crate: the paper's headline
//! claims checked on the smallest circuits that exhibit them.

#![allow(clippy::unwrap_used)]

use prima_flow::circuits::{CsAmp, FiveTOta};
use prima_flow::{conventional_flow, manual_flow, optimized_flow, FlowKind, Realization};
use prima_pdk::Technology;
use prima_primitives::Library;

fn env() -> (Technology, Library) {
    (Technology::finfet7(), Library::standard())
}

/// The central claim: the optimized flow tracks the schematic more closely
/// than the conventional flow on the bandwidth-type metric it optimizes.
/// With it, Table VI's OTA shape at seed 42: the current and the 3-dB
/// bandwidth also track better, the gain barely moves across realizations,
/// and the manual proxy lands next to this work.
#[test]
fn optimized_flow_beats_conventional_on_ota_ugf() {
    let (tech, lib) = env();
    let spec = FiveTOta::spec();
    let sch = FiveTOta::measure(&tech, &lib, &Realization::schematic()).unwrap();

    let conv = conventional_flow(&tech, &lib, &spec, 42).unwrap();
    let conv_m = FiveTOta::measure(&tech, &lib, &conv.realization).unwrap();

    let biases = FiveTOta::biases(&tech, &lib).unwrap();
    let opt = optimized_flow(&tech, &lib, &spec, &biases, 42).unwrap();
    let opt_m = FiveTOta::measure(&tech, &lib, &opt.realization).unwrap();

    let manual = manual_flow(&tech, &lib, &spec, &biases, 42).unwrap();
    let manual_m = FiveTOta::measure(&tech, &lib, &manual.realization).unwrap();

    let dev = |x: f64| (x - sch.ugf_ghz).abs() / sch.ugf_ghz;
    assert!(
        dev(opt_m.ugf_ghz) < dev(conv_m.ugf_ghz),
        "UGF deviation: optimized {:.1}% vs conventional {:.1}%",
        100.0 * dev(opt_m.ugf_ghz),
        100.0 * dev(conv_m.ugf_ghz)
    );
    // Current also tracks better (the mirror story).
    let devi = |x: f64| (x - sch.current_ua).abs() / sch.current_ua;
    assert!(
        devi(opt_m.current_ua) < devi(conv_m.current_ua),
        "current deviation: optimized {:.1}% vs conventional {:.1}%",
        100.0 * devi(opt_m.current_ua),
        100.0 * devi(conv_m.current_ua)
    );
    let dev3 = |x: f64| (x - sch.f3db_mhz).abs() / sch.f3db_mhz;
    assert!(
        dev3(opt_m.f3db_mhz) < dev3(conv_m.f3db_mhz),
        "3-dB deviation: optimized {:.1}% vs conventional {:.1}%",
        100.0 * dev3(opt_m.f3db_mhz),
        100.0 * dev3(conv_m.f3db_mhz)
    );
    let gains = [sch.gain_db, conv_m.gain_db, opt_m.gain_db];
    let spread = gains.iter().fold(f64::NEG_INFINITY, |a, &g| a.max(g))
        - gains.iter().fold(f64::INFINITY, |a, &g| a.min(g));
    assert!(spread <= 1.0, "gain spread {spread:.2} dB over {gains:?}");
    let pairs = [
        ("current", manual_m.current_ua, opt_m.current_ua),
        ("gain", manual_m.gain_db, opt_m.gain_db),
        ("UGF", manual_m.ugf_ghz, opt_m.ugf_ghz),
        ("3-dB", manual_m.f3db_mhz, opt_m.f3db_mhz),
        ("PM", manual_m.phase_margin_deg, opt_m.phase_margin_deg),
    ];
    for (what, m, o) in pairs {
        assert!(
            (m - o).abs() <= 0.05 * o.abs(),
            "manual proxy {what} {m:.3} vs this work {o:.3}"
        );
    }
}

/// Every flow's realization must simulate successfully and keep the
/// circuit functional (gain within a factor of the schematic's).
#[test]
fn all_flows_produce_functional_cs_amp() {
    let (tech, lib) = env();
    let spec = CsAmp::spec();
    let sch = CsAmp::measure(&tech, &lib, &Realization::schematic()).unwrap();
    let biases = CsAmp::biases(&tech, &lib).unwrap();

    let conv = conventional_flow(&tech, &lib, &spec, 3).unwrap();
    assert_eq!(conv.kind, FlowKind::Conventional);
    let opt = optimized_flow(&tech, &lib, &spec, &biases, 3).unwrap();
    assert_eq!(opt.kind, FlowKind::Optimized);

    for outcome in [&conv, &opt] {
        let m = CsAmp::measure(&tech, &lib, &outcome.realization).unwrap();
        assert!(
            m.gain_db > sch.gain_db - 6.0,
            "{:?}: gain collapsed to {} dB (schematic {})",
            outcome.kind,
            m.gain_db,
            sch.gain_db
        );
        assert!(
            m.ugf_ghz > 0.2 * sch.ugf_ghz,
            "{:?}: UGF collapsed",
            outcome.kind
        );
    }
}

/// Flows are deterministic for a fixed seed.
#[test]
fn flows_are_deterministic() {
    let (tech, lib) = env();
    let spec = CsAmp::spec();
    let biases = CsAmp::biases(&tech, &lib).unwrap();
    let a = optimized_flow(&tech, &lib, &spec, &biases, 9).unwrap();
    let b = optimized_flow(&tech, &lib, &spec, &biases, 9).unwrap();
    assert_eq!(a.realization.layouts.len(), b.realization.layouts.len());
    for (name, la) in &a.realization.layouts {
        let lb = &b.realization.layouts[name];
        assert_eq!(la.config, lb.config, "{name}: different config across runs");
    }
    for (net, wa) in &a.realization.net_wires {
        let wb = &b.realization.net_wires[net];
        assert!(
            (wa.r_ohm - wb.r_ohm).abs() < 1e-12,
            "{net}: route widths differ"
        );
    }
}

/// The optimized flow's tuned layouts never carry more cost than the
/// untuned defaults the conventional flow uses, measured per primitive.
#[test]
fn optimized_primitives_have_lower_cost_than_defaults() {
    use prima_core::{Optimizer, Phase};
    use prima_primitives::Bias;

    let (tech, lib) = env();
    let spec = FiveTOta::spec();
    let biases = FiveTOta::biases(&tech, &lib).unwrap();
    let conv = conventional_flow(&tech, &lib, &spec, 5).unwrap();
    let opt = optimized_flow(&tech, &lib, &spec, &biases, 5).unwrap();

    let o = Optimizer::new(&tech);
    for inst in &spec.instances {
        let def = lib.get(&inst.def).unwrap();
        let bias = biases
            .get(&inst.name)
            .cloned()
            .unwrap_or_else(|| Bias::nominal(&tech, &def.class));
        let sch = o.schematic_reference(def, &bias, inst.total_fins).unwrap();
        let conv_layout = conv.realization.layouts[&inst.name].clone();
        let opt_layout = opt.realization.layouts[&inst.name].clone();
        let conv_cost = o
            .evaluate_layout(def, &bias, conv_layout, &sch, Phase::Selection)
            .unwrap()
            .cost;
        let opt_cost = o
            .evaluate_layout(def, &bias, opt_layout, &sch, Phase::Selection)
            .unwrap()
            .cost;
        assert!(
            opt_cost <= conv_cost * 1.05 + 0.5,
            "{}: optimized cost {:.2} vs conventional {:.2}",
            inst.name,
            opt_cost,
            conv_cost
        );
    }
}

/// Placement honors symmetry pairs through the whole flow.
#[test]
fn strongarm_flow_respects_symmetry_and_measures() {
    use prima_flow::circuits::StrongArm;
    let (tech, lib) = env();
    let spec = StrongArm::spec();
    let conv = conventional_flow(&tech, &lib, &spec, 11).unwrap();
    // The comparator still resolves with conventional layouts.
    let m = StrongArm::measure(&tech, &lib, &conv.realization).unwrap();
    assert!(
        m.delay_ps > 0.0 && m.delay_ps < 500.0,
        "delay {}",
        m.delay_ps
    );
}

/// Table VI's StrongARM shape at seed 42: on delay, schematic < this work
/// < conventional; on power, the schematic is the lowest, so power grows
/// with layout parasitics, as in the paper.
#[test]
fn strongarm_table6_shape_holds() {
    use prima_flow::circuits::StrongArm;
    let (tech, lib) = env();
    let spec = StrongArm::spec();
    let biases = StrongArm::biases(&tech, &lib).unwrap();
    let sch = StrongArm::measure(&tech, &lib, &Realization::schematic()).unwrap();
    let conv = conventional_flow(&tech, &lib, &spec, 42).unwrap();
    let conv = StrongArm::measure(&tech, &lib, &conv.realization).unwrap();
    let opt = optimized_flow(&tech, &lib, &spec, &biases, 42).unwrap();
    let opt = StrongArm::measure(&tech, &lib, &opt.realization).unwrap();
    let rows = format!("schematic {sch}; this work {opt}; conventional {conv}");
    assert!(
        sch.delay_ps < opt.delay_ps && opt.delay_ps < conv.delay_ps,
        "delay ordering: {rows}"
    );
    assert!(
        sch.power_uw < opt.power_uw && sch.power_uw < conv.power_uw,
        "power ordering: {rows}"
    );
}

/// The correlated-tuning ablation: on the CSI's 4×4×1 ABAB finfet7 layout
/// with up to four wires, sweeping its two coupled terminals jointly ends
/// at a lower cost than sweeping each alone with the correlation stripped.
#[test]
fn correlated_tuning_beats_independent_on_the_csi() {
    use prima_core::Optimizer;
    use prima_layout::{generate, CellConfig, PlacementPattern};
    use prima_primitives::Bias;
    let (tech, lib) = env();
    let csi = lib.get("csi").unwrap();
    let bias = Bias::nominal(&tech, &csi.class);
    let cfg = CellConfig::new(4, 4, 1, PlacementPattern::Abab);
    let layout = generate(&tech, &csi.spec, &cfg).unwrap();
    let mut opt = Optimizer::new(&tech);
    opt.max_tuning_wires = 4;
    let joint = opt.tune(csi, &bias, layout.clone()).unwrap();
    let mut independent = csi.clone();
    for t in &mut independent.tuning {
        t.correlated_with = None;
    }
    let indep = opt.tune(&independent, &bias, layout).unwrap();
    assert!(
        joint.cost < indep.cost,
        "joint cost {:.3} vs independent {:.3}",
        joint.cost,
        indep.cost
    );
}

/// Detailed routing consumes the reconciled widths: a tuned net occupies
/// that many adjacent tracks, and the assignment is conflict-free.
#[test]
fn detailed_routing_honors_port_widths() {
    let (tech, lib) = env();
    let spec = FiveTOta::spec();
    let biases = FiveTOta::biases(&tech, &lib).unwrap();
    let opt = optimized_flow(&tech, &lib, &spec, &biases, 21).unwrap();
    assert!(opt.detailed.verify_no_conflicts());
    assert!(opt.detailed.occupied_slots() > 0);
    let conv = conventional_flow(&tech, &lib, &spec, 21).unwrap();
    assert!(conv.detailed.verify_no_conflicts());
    // The optimized flow's widened nets occupy at least as many slots.
    assert!(opt.detailed.occupied_slots() >= conv.detailed.occupied_slots());
}

/// The methodology is technology-portable: the same flow runs unchanged on
/// the bulk planar node (the paper's claimed extension).
#[test]
fn flow_runs_on_bulk_node() {
    use prima_core::{enumerate_configs, EvalLedger, NoFaults, Optimizer};
    use prima_primitives::Bias;
    let bulk = prima_pdk::Technology::bulk16();
    let lib = Library::standard();
    let dp = lib.get("dp").unwrap();
    let bias = Bias::nominal(&bulk, &dp.class);
    let opt = Optimizer::new(&bulk);
    let configs = enumerate_configs(64, &[2, 4, 8], 4);
    let bins = opt
        .select_bins(dp, &bias, &configs, 2, &NoFaults, &mut EvalLedger::new())
        .unwrap();
    assert!(!bins.is_empty());
    let best = &bins[0].ranked[0];
    let tuned = opt.tune(dp, &bias, best.layout.clone()).unwrap();
    assert!(tuned.cost.is_finite());
    assert!(tuned.cost <= best.cost + 1e-9);
}

/// The conventional baseline is non-hierarchical: its flat transistor-level
/// netting produces substantially more wirelength than the hierarchical
/// optimized flow on the same circuit.
#[test]
fn conventional_flat_placement_costs_wirelength() {
    let (tech, lib) = env();
    let spec = FiveTOta::spec();
    let biases = FiveTOta::biases(&tech, &lib).unwrap();
    let conv = conventional_flow(&tech, &lib, &spec, 42).unwrap();
    let opt = optimized_flow(&tech, &lib, &spec, &biases, 42).unwrap();
    assert!(
        conv.wirelength_um > 1.3 * opt.wirelength_um,
        "flat {} µm vs hierarchical {} µm",
        conv.wirelength_um,
        opt.wirelength_um
    );
}
