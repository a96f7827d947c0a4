//! Primitive tuning as it was before every terminal group shared one
//! fan-out, kept as the oracle of [`Optimizer::tune`]: a lone terminal
//! sweeps its wire counts through [`try_par_map`] and stops at the knee,
//! and a correlated group walks its combinations one at a time in odometer
//! order, first terminal fastest, keeping the first strictly lower cost.
//! On standard-space layouts of the DP and the CSI, at three sweep bounds,
//! `tune` returns the oracle's layout, cost bits and simulation counts.

use prima_layout::PrimitiveLayout;
use prima_primitives::{Bias, PrimitiveDef, TuningTerminal};

use super::choose_knee;
use crate::accounting::Phase;
use crate::par::try_par_map;
use crate::selection::Evaluated;
use crate::{OptError, Optimizer};

/// Algorithm 1, step 2, terminal group by terminal group.
fn tune(
    opt: &Optimizer,
    def: &PrimitiveDef,
    bias: &Bias,
    layout: PrimitiveLayout,
) -> Result<Evaluated, OptError> {
    let sch = opt.schematic_reference(def, bias, layout.config.total_fins())?;
    let mut current = layout;

    // Group terminals: correlated pairs first-come, the rest singleton.
    let mut groups: Vec<Vec<&TuningTerminal>> = Vec::new();
    let mut used: Vec<&str> = Vec::new();
    for t in &def.tuning {
        if used.contains(&t.name.as_str()) {
            continue;
        }
        let mut group = vec![t];
        used.push(&t.name);
        if let Some(other_name) = &t.correlated_with {
            if let Some(other) = def.terminal(other_name) {
                if !used.contains(&other.name.as_str()) {
                    group.push(other);
                    used.push(&other.name);
                }
            }
        }
        groups.push(group);
    }

    for group in groups {
        if group.len() == 1 {
            current = tune_single(opt, def, bias, current, group[0], &sch)?;
        } else {
            current = tune_joint(opt, def, bias, current, &group, &sch)?;
        }
    }
    opt.evaluate_layout(def, bias, current, &sch, Phase::Tuning)
}

/// Sweeps one terminal independently and applies the knee point.
fn tune_single(
    opt: &Optimizer,
    def: &PrimitiveDef,
    bias: &Bias,
    layout: PrimitiveLayout,
    terminal: &TuningTerminal,
    sch: &prima_primitives::MetricValues,
) -> Result<PrimitiveLayout, OptError> {
    // Every sweep point is an independent simulation (Table V). A
    // panicked sweep point has no result to salvage, so it re-raises.
    let ks: Vec<u32> = (1..=opt.max_tuning_wires).collect();
    let costs = try_par_map(&ks, |&k| -> Result<f64, OptError> {
        let mut cand = layout.clone();
        for net in &terminal.nets {
            cand.set_parallel_wires(net, k)?;
        }
        Ok(opt
            .evaluate_layout(def, bias, cand, sch, Phase::Tuning)?
            .cost)
    })?;
    let k_star = choose_knee(&costs) as u32 + 1;
    let mut out = layout;
    for net in &terminal.nets {
        out.set_parallel_wires(net, k_star)?;
    }
    Ok(out)
}

/// Joint sweep over a correlated terminal group.
// `best` is seeded by the first combination before the odometer can
// terminate, so the `expect` states a loop invariant.
#[allow(clippy::expect_used)]
fn tune_joint(
    opt: &Optimizer,
    def: &PrimitiveDef,
    bias: &Bias,
    layout: PrimitiveLayout,
    group: &[&TuningTerminal],
    sch: &prima_primitives::MetricValues,
) -> Result<PrimitiveLayout, OptError> {
    // Enumerate the Cartesian product of wire counts (group.len() ≤ 2 in
    // practice). The joint sweep is capped tighter than the independent
    // one — the paper's CSI example explores ~9 combinations.
    let kmax = opt.max_tuning_wires.min(4);
    let mut best: Option<(Vec<u32>, f64)> = None;
    let mut combo = vec![1u32; group.len()];
    loop {
        let mut cand = layout.clone();
        for (t, &k) in group.iter().zip(combo.iter()) {
            for net in &t.nets {
                cand.set_parallel_wires(net, k)?;
            }
        }
        let ev = opt.evaluate_layout(def, bias, cand, sch, Phase::Tuning)?;
        if best.as_ref().map(|(_, c)| ev.cost < *c).unwrap_or(true) {
            best = Some((combo.clone(), ev.cost));
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == combo.len() {
                let (ks, _) = best.expect("at least one combo evaluated");
                let mut out = layout;
                for (t, &k) in group.iter().zip(ks.iter()) {
                    for net in &t.nets {
                        out.set_parallel_wires(net, k)?;
                    }
                }
                return Ok(out);
            }
            if combo[i] < kmax {
                combo[i] += 1;
                break;
            }
            combo[i] = 1;
            i += 1;
        }
    }
}

#[test]
fn tune_matches_the_oracle() {
    use prima_layout::generate;
    use prima_pdk::Technology;
    use prima_primitives::Library;

    use crate::selection::std_config_space;

    let tech = Technology::finfet7();
    let lib = Library::standard();
    for (name, total_fins) in [("dp", 96), ("csi", 16)] {
        let def = lib.get(name).unwrap();
        let bias = Bias::nominal(&tech, &def.class);
        let configs = std_config_space(total_fins);
        let picks = [0, configs.len() / 2, configs.len() - 1];
        for cfg in picks.map(|i| configs[i]) {
            let layout = generate(&tech, &def.spec, &cfg).unwrap();
            for max_tuning_wires in [3, 4, 7] {
                let mut opt = Optimizer::new(&tech);
                opt.max_tuning_wires = max_tuning_wires;
                let mut reference = Optimizer::new(&tech);
                reference.max_tuning_wires = max_tuning_wires;
                let got = opt.tune(def, &bias, layout.clone()).unwrap();
                let want = tune(&reference, def, &bias, layout.clone()).unwrap();
                let case = format!("{name} {cfg:?} at {max_tuning_wires} wires");
                assert_eq!(got.layout, want.layout, "{case}");
                assert_eq!(got.cost.to_bits(), want.cost.to_bits(), "{case}");
                for phase in [Phase::Selection, Phase::Tuning] {
                    let sims = (opt.counter().count(phase), reference.counter().count(phase));
                    assert_eq!(sims.0, sims.1, "{case}: {phase:?} sims");
                }
            }
        }
    }
}
