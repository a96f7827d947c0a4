//! Bit pins of the testbench metrics the flows lean on most: every metric
//! of the current-starved inverter (delay, output current, gain: the
//! RO-VCO's transient and DC sweep), of the differential pair and of a
//! current mirror, on the schematic view and on two generated finfet7
//! layouts each.
//!
//! A change to the simulator that is meant to leave results as they are (a
//! faster factorization, a cheaper assembly) must leave every pin as it
//! is. The pins move only together with a `TESTBENCH_VERSION` bump, which
//! also retires every cached evaluation recorded under the old values.

#![allow(clippy::unwrap_used)]

use std::collections::HashMap;

use prima_layout::{generate, CellConfig, PlacementPattern};
use prima_pdk::Technology;
use prima_primitives::{evaluate_all, Bias, LayoutView, Library, TESTBENCH_VERSION};

/// `(primitive, view, metric, f64 bits)`, recorded at `TESTBENCH_VERSION`
/// 2.
const PINS: &[(&str, &str, &str, u64)] = &[
    ("csi", "schematic", "delay", 0x3d9022ae64970d70), // 3.668781920380525e-12
    ("csi", "schematic", "I", 0x3ec96fafa8431a0f),     // 3.0322401603805558e-6
    ("csi", "schematic", "gain", 0x40496d0ad14c4754),  // 5.085189262604277e1
    ("csi", "4x4x2 abab", "delay", 0x3d90c35a60f5d640), // 3.811487163216018e-12
    ("csi", "4x4x2 abab", "I", 0x3ed36daf444f5af7),    // 4.632104780597242e-6
    ("csi", "4x4x2 abab", "gain", 0x404b91e71b5bc295), // 5.513986532192681e1
    ("csi", "2x8x1 aabb", "delay", 0x3d96465d70816870), // 5.0647175324304875e-12
    ("csi", "2x8x1 aabb", "I", 0x3ec7f653130b8c81),    // 2.8565174477898315e-6
    ("csi", "2x8x1 aabb", "gain", 0x404b9882c57a4d1e), // 5.5191490826337244e1
    ("dp", "schematic", "Gm", 0x3f6e2ea9a45a7ca5),     // 3.6843598671364047e-3
    ("dp", "schematic", "Gm/Ctotal", 0x424023528bd6cbb0), // 1.386241780935913e11
    ("dp", "schematic", "offset", 0x0000000000000000), // 0e0
    ("dp", "4x4x2 abab", "Gm", 0x3f6514d634d49478),    // 2.5734122961176796e-3
    ("dp", "4x4x2 abab", "Gm/Ctotal", 0x42430866f05b4589), // 1.6349068511054324e11
    ("dp", "4x4x2 abab", "offset", 0x3f06a634b226bc1c), // 4.319999995360693e-5
    ("dp", "2x8x1 aabb", "Gm", 0x3f619d1cedc62ff7),    // 2.1501126304368473e-3
    ("dp", "2x8x1 aabb", "Gm/Ctotal", 0x42404fc4c7d0ed3f), // 1.401155460178535e11
    ("dp", "2x8x1 aabb", "offset", 0x3f36a634b292e082), // 3.4560000001305363e-4
    ("cm", "schematic", "Iout", 0x3f1b4abce22ac474),   // 1.0411050656490719e-4
    ("cm", "schematic", "Cout", 0x3cdc109900cc3d57),   // 1.5579112801078378e-15
    ("cm", "4x4x2 abab", "Iout", 0x3f1aec330cf115ec),  // 1.027017744813158e-4
    ("cm", "4x4x2 abab", "Cout", 0x3cd40e424564b636),  // 1.1133149244861528e-15
    ("cm", "2x8x1 aabb", "Iout", 0x3f1a750373b05f3e),  // 1.0092576569353543e-4
    ("cm", "2x8x1 aabb", "Cout", 0x3cc2d5a55a9fe864),  // 5.227638974993002e-16
];

/// The two generated layouts each primitive is pinned on.
const LAYOUTS: [(&str, CellConfig); 2] = [
    (
        "4x4x2 abab",
        CellConfig {
            nfin: 4,
            nf: 4,
            m: 2,
            pattern: PlacementPattern::Abab,
            dummies: true,
            mesh: true,
        },
    ),
    (
        "2x8x1 aabb",
        CellConfig {
            nfin: 2,
            nf: 8,
            m: 1,
            pattern: PlacementPattern::Aabb,
            dummies: true,
            mesh: true,
        },
    ),
];

#[test]
fn testbench_metrics_are_bit_identical_to_their_pins() {
    assert_eq!(
        TESTBENCH_VERSION, 2,
        "the testbenches changed on purpose: re-record PINS"
    );
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let mut got = Vec::new();
    for (name, schematic_fins) in [("csi", 16), ("dp", 960), ("cm", 64)] {
        let def = lib.get(name).unwrap();
        let bias = Bias::nominal(&tech, &def.class);
        let layouts: Vec<_> = LAYOUTS
            .iter()
            .map(|(view, cfg)| (*view, generate(&tech, &def.spec, cfg).unwrap()))
            .collect();
        let mut views = vec![(
            "schematic",
            LayoutView::Schematic {
                total_fins: schematic_fins,
            },
        )];
        views.extend(layouts.iter().map(|(v, l)| (*v, LayoutView::Layout(l))));
        for (view, lv) in views {
            let values = evaluate_all(&tech, def, lv, &bias, &HashMap::new()).unwrap();
            for m in &def.metrics {
                got.push((name, view, m.name.as_str(), values[&m.name].to_bits()));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(p, v, m, bits)| {
            format!(
                "    ({p:?}, {v:?}, {m:?}, 0x{bits:016x}), // {:e}\n",
                f64::from_bits(*bits)
            )
        })
        .collect();
    assert!(
        got.iter()
            .copied()
            .eq(PINS.iter().map(|&(p, v, m, b)| (p, v, m, b))),
        "metrics moved off their pins; the values now:\n{table}"
    );
}
