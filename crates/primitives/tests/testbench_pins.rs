//! Bit pins of the testbench metrics. The flows lean most on the
//! current-starved inverter (delay, output current, gain: the RO-VCO's
//! transient and DC sweep), the differential pair and the current mirror,
//! so every metric of those three is pinned on the schematic view and on
//! two generated finfet7 layouts each. Every metric of every other
//! primitive in the standard library is pinned on the schematic view and
//! on one finfet7 layout, or with one external wire for a passive.
//!
//! A change to the simulator that is meant to leave results as they are (a
//! faster factorization, a cheaper assembly) must leave every pin as it
//! is. The pins move only together with a `TESTBENCH_VERSION` bump, which
//! also retires every cached evaluation recorded under the old values.

#![allow(clippy::unwrap_used)]

use std::collections::HashMap;

use prima_layout::{generate, CellConfig, PlacementPattern};
use prima_pdk::Technology;
use prima_primitives::{evaluate_all, Bias, ExternalWire, LayoutView, Library, TESTBENCH_VERSION};

/// `(primitive, view, metric, f64 bits)`, recorded at `TESTBENCH_VERSION`
/// 3.
const PINS: &[(&str, &str, &str, u64)] = &[
    ("csi", "schematic", "delay", 0x3d8fbb354cdbc3c0), // 3.607429112769439e-12
    ("csi", "schematic", "I", 0x3ec90ef4c32d5549),     // 2.987196717022887e-6
    ("csi", "schematic", "gain", 0x40496d0ad14c472d),  // 5.085189262604249e1
    ("csi", "4x4x2 abab", "delay", 0x3d908c2347e483b0), // 3.762446190819929e-12
    ("csi", "4x4x2 abab", "I", 0x3ed3533c2b082f69),    // 4.60747166687232e-6
    ("csi", "4x4x2 abab", "gain", 0x404b91e71b5cad72), // 5.513986532235403e1
    ("csi", "2x8x1 aabb", "delay", 0x3d9627afe1ee7160), // 5.037470033277673e-12
    ("csi", "2x8x1 aabb", "I", 0x3ec816dd7f33f75f),    // 2.8716703980293327e-6
    ("csi", "2x8x1 aabb", "gain", 0x404b9882c57a531b), // 5.519149082634814e1
    ("dp", "schematic", "Gm", 0x3f6e2ea9a45a7ca5),     // 3.6843598671364047e-3
    ("dp", "schematic", "Gm/Ctotal", 0x424023528bd6cbb0), // 1.386241780935913e11
    ("dp", "schematic", "offset", 0x0000000000000000), // 0e0
    ("dp", "4x4x2 abab", "Gm", 0x3f6514d634d49474),    // 2.573412296117678e-3
    ("dp", "4x4x2 abab", "Gm/Ctotal", 0x42430866f05b4586), // 1.6349068511054315e11
    ("dp", "4x4x2 abab", "offset", 0x3f06a634b226d9dc), // 4.3199999953658536e-5
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
        TESTBENCH_VERSION, 3,
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
    assert_pinned(&got, PINS);
}

/// The primitives [`testbench_metrics_are_bit_identical_to_their_pins`]
/// pins on two layouts.
const PINNED_ON_TWO_LAYOUTS: [&str; 3] = ["csi", "dp", "cm"];

/// `(primitive, view, metric, f64 bits)` for every other primitive of
/// `Library::standard()`, in library order, recorded at
/// `TESTBENCH_VERSION` 3. A FET primitive is pinned on the schematic view
/// and on the first of [`LAYOUTS`]; a passive on its bare schematic and
/// with one external wire at port `a`.
const LIBRARY_PINS: &[(&str, &str, &str, u64)] = &[
    ("dp_pmos", "schematic", "Gm", 0x3f64d9f7317e6233), // 2.545340346795899e-3
    ("dp_pmos", "schematic", "Gm/Ctotal", 0x424341509c2c2f22), // 1.6540036104836823e11
    ("dp_pmos", "schematic", "offset", 0x0000000000000000), // 0e0
    ("dp_pmos", "4x4x2 abab", "Gm", 0x3f644e959293d3b4), // 2.478878148958386e-3
    ("dp_pmos", "4x4x2 abab", "Gm/Ctotal", 0x424251b95762df18), // 1.5736102470974292e11
    ("dp_pmos", "4x4x2 abab", "offset", 0x3f06a634b2920a9e), // 4.320000000126066e-5
    ("dp_cascode", "schematic", "Gm", 0x3f656d0c48c73db1), // 2.615474694017649e-3
    ("dp_cascode", "schematic", "Gm/Ctotal", 0x4243c62fef4b6173), // 1.6985881768676132e11
    ("dp_cascode", "schematic", "offset", 0x3c8e000000000000), // 5.204170427930421e-17
    ("dp_cascode", "4x4x2 abab", "Gm", 0x3f64c5ee9108d750), // 2.535787534976665e-3
    ("dp_cascode", "4x4x2 abab", "Gm/Ctotal", 0x4242978901adf0c7), // 1.5970349961188107e11
    ("dp_cascode", "4x4x2 abab", "offset", 0x3ee8a843ca27a1c6), // 1.1757509416691284e-5
    ("dp_switched", "schematic", "Gm", 0x3f6594d1729557a8), // 2.6344385884539863e-3
    ("dp_switched", "schematic", "Gm/Ctotal", 0x4243edd2838793c9), // 1.7118875009515457e11
    ("dp_switched", "schematic", "offset", 0x0000000000000000), // 0e0
    ("dp_switched", "4x4x2 abab", "Gm", 0x3f650dee3a84ce79), // 2.570119180882288e-3
    ("dp_switched", "4x4x2 abab", "Gm/Ctotal", 0x4242e9019da443c4), // 1.6243721709652942e11
    ("dp_switched", "4x4x2 abab", "offset", 0x3ef01ec9670c568e), // 1.537347856402651e-5
    ("cm_1to2", "schematic", "Iout", 0x3f2b0e98a85662de), // 2.064286565371031e-4
    ("cm_1to2", "schematic", "Cout", 0x3ce5022c7e768e9b), // 2.332411089212861e-15
    ("cm_1to2", "4x4x2 abab", "Iout", 0x3f2a52387e672131), // 2.008146249876746e-4
    ("cm_1to2", "4x4x2 abab", "Cout", 0x3ce8961b4999c400), // 2.7296336162768837e-15
    ("cm_1to4", "schematic", "Iout", 0x3f3b0e98a7e5cbdc), // 4.128573126742066e-4
    ("cm_1to4", "schematic", "Cout", 0x3d018beb8f1e0bcc), // 7.792239340837854e-15
    ("cm_1to4", "4x4x2 abab", "Iout", 0x3f38eae43135d96d), // 3.802115545207461e-4
    ("cm_1to4", "4x4x2 abab", "Cout", 0x3d0130e36b328446), // 7.634324343619886e-15
    ("cm_1to8", "schematic", "Iout", 0x3f4b0e98a7ad8050), // 8.257146249484124e-4
    ("cm_1to8", "schematic", "Cout", 0x3d1f9ca15a6863e3), // 2.8076951478228485e-14
    ("cm_1to8", "4x4x2 abab", "Iout", 0x3f455939580dc851), // 6.51505470257394e-4
    ("cm_1to8", "4x4x2 abab", "Cout", 0x3d1716c26435858b), // 2.0507065981338076e-14
    ("cm_pmos", "schematic", "Iout", 0x3f1b4daa8e36f36c), // 1.0415414322202465e-4
    ("cm_pmos", "schematic", "Cout", 0x3ccc05e9b7e5c3a1), // 7.777972018951278e-16
    ("cm_pmos", "4x4x2 abab", "Iout", 0x3f1b2524f233d838), // 1.0355031968231696e-4
    ("cm_pmos", "4x4x2 abab", "Cout", 0x3cd44d70bb1cd987), // 1.1270152248754978e-15
    ("cm_cascode", "schematic", "Iout", 0x3f1a331530f542e8), // 9.994332161978768e-5
    ("cm_cascode", "schematic", "Cout", 0x3ccc955de24e1913), // 7.933504910300239e-16
    ("cm_cascode", "4x4x2 abab", "Iout", 0x3f1a2aa42ba03aeb), // 9.981753365216241e-5
    ("cm_cascode", "4x4x2 abab", "Cout", 0x3cd6f0fc4ce10dae), // 1.2735007380413382e-15
    ("csrc", "schematic", "I", 0x3f3b78e049178080),     // 4.191920826013343e-4
    ("csrc", "schematic", "ro", 0x40c27fec494690bb),    // 9.471845986195249e3
    ("csrc", "4x4x2 abab", "I", 0x3f35d4685c2c4245),    // 3.3309505322257445e-4
    ("csrc", "4x4x2 abab", "ro", 0x40ca26ee27e6b034),   // 1.3389860592685734e4
    ("csrc_pmos", "schematic", "I", 0x3f53dd6fee619888), // 1.2124627187631038e-3
    ("csrc_pmos", "schematic", "ro", 0x40a64fef50736fce), // 2.8559674106668454e3
    ("csrc_pmos", "4x4x2 abab", "I", 0x3f4d3cbca6817f50), // 8.922501701924355e-4
    ("csrc_pmos", "4x4x2 abab", "ro", 0x40b29b0fe9efea61), // 4.763062163347932e3
    ("load_diode", "schematic", "ro", 0x407f849a3d67a6df), // 5.042876562165165e2
    ("load_diode", "schematic", "Cout", 0x3ccda83519703efd), // 8.231487778085009e-16
    ("load_diode", "4x4x2 abab", "ro", 0x4080e7612888fabd), // 5.409224405957717e2
    ("load_diode", "4x4x2 abab", "Cout", 0x3cd1552500491f75), // 9.621523490277761e-16
    ("load_diode_pmos", "schematic", "ro", 0x408038f81c468fd1), // 5.19121147681488e2
    ("load_diode_pmos", "schematic", "Cout", 0x3ccda5555f6d3390), // 8.228371854695216e-16
    ("load_diode_pmos", "4x4x2 abab", "ro", 0x4081682a612ce1ee), // 5.570206931597183e2
    ("load_diode_pmos", "4x4x2 abab", "Cout", 0x3cd178853a16ee33), // 9.698232706552914e-16
    ("cs_amp", "schematic", "Gm", 0x3f813637862c73b1),  // 8.404191763071585e-3
    ("cs_amp", "schematic", "ro", 0x40b6106f5b975515),  // 5.648434991319916e3
    ("cs_amp", "4x4x2 abab", "Gm", 0x3f78912fdb54534c), // 5.997836056185712e-3
    ("cs_amp", "4x4x2 abab", "ro", 0x40c0d72effa31ed4), // 8.622367176427892e3
    ("cs_amp_pmos", "schematic", "Gm", 0x3f81ca15954560c9), // 8.686226480378772e-3
    ("cs_amp_pmos", "schematic", "ro", 0x40b0c61bb066d465), // 4.294108160426001e3
    ("cs_amp_pmos", "4x4x2 abab", "Gm", 0x3f791cc9b42900d2), // 6.130969910884869e-3
    ("cs_amp_pmos", "4x4x2 abab", "ro", 0x40b9f2f1bea96ba1), // 6.642944315518166e3
    ("sf", "schematic", "Gm", 0x3e8fc293ca06a913),      // 2.366309432959645e-7
    ("sf", "schematic", "ro", 0x414d64b1dd79365a),      // 3.852643730261606e6
    ("sf", "4x4x2 abab", "Gm", 0x3e89863a66234973),     // 1.901710673991983e-7
    ("sf", "4x4x2 abab", "ro", 0x4152499c1df5f58f),     // 4.793968468137159e6
    ("switch", "schematic", "Ron", 0x4056afb807ecc821), // 9.074560735820025e1
    ("switch", "schematic", "Cout", 0x3cc92e84b741256b), // 6.989329277277764e-16
    ("switch", "4x4x2 abab", "Ron", 0x406137a668c650ba), // 1.3773906363233056e2
    ("switch", "4x4x2 abab", "Cout", 0x3cc93d79e309569d), // 7.00554644736539e-16
    ("ccpair", "schematic", "Gm", 0x3f5faadf5e08e7bd),  // 1.9328290292279636e-3
    ("ccpair", "schematic", "Gm/Ctotal", 0x425a510d19e664ff), // 4.5211585116157806e11
    ("ccpair", "4x4x2 abab", "Gm", 0x3f6031a236afe8b5), // 1.9767921671674745e-3
    ("ccpair", "4x4x2 abab", "Gm/Ctotal", 0x4257bec2fdf49910), // 4.079387913783916e11
    ("switch_pmos", "schematic", "Ron", 0x407157d91dd3833f), // 2.774905069601263e2
    ("switch_pmos", "schematic", "Cout", 0x3cc566b75be81860), // 5.940036056489848e-16
    ("switch_pmos", "4x4x2 abab", "Ron", 0x4075972687aaf823), // 3.4544690672669293e2
    ("switch_pmos", "4x4x2 abab", "Cout", 0x3cc9f8f967d7fa7f), // 7.20883231665231e-16
    ("latch", "schematic", "Gm", 0x3f920f48b197f099),   // 1.7636428679893432e-2
    ("latch", "schematic", "Gm/Ctotal", 0x4284cdbd58515769), // 2.8592346916269263e12
    ("latch", "4x4x2 abab", "Gm", 0x3f8eb33b2692279b),  // 1.499029361209008e-2
    ("latch", "4x4x2 abab", "Gm/Ctotal", 0x42779569c2ba1aba), // 1.6206557459536704e12
    ("latch_starved", "schematic", "Gm", 0x3f813645ceb3bbac), // 8.404298182055424e-3
    (
        "latch_starved",
        "schematic",
        "Gm/Ctotal",
        0x4275752e07e1d94e,
    ), // 1.4745642265895815e12
    ("latch_starved", "4x4x2 abab", "Gm", 0x3f809cc840e4de32), // 8.111538391502558e-3
    (
        "latch_starved",
        "4x4x2 abab",
        "Gm/Ctotal",
        0x426b5c663b0d0d41,
    ), // 9.401145652244142e11
    ("inv_cc", "schematic", "Gm", 0x3f79296d67fdb887),  // 6.143023841884815e-3
    ("inv_cc", "schematic", "Gm/Ctotal", 0x426e81306c6c593d), // 1.0481316258267887e12
    ("inv_cc", "4x4x2 abab", "Gm", 0x3f77a18823fdd2ea), // 5.769283103167247e-3
    ("inv_cc", "4x4x2 abab", "Gm/Ctotal", 0x42666285c542e3ca), // 7.691377157351184e11
    ("cap_mom", "schematic", "C", 0x3d3c25c268470f75),  // 9.999999999801267e-14
    ("cap_mom", "schematic", "f", 0x4252863d0cc3ae97),  // 3.1824623694272797e11
    ("cap_mom", "wire a", "C", 0x3d3cfdeea3477ce3),     // 1.0299999990336962e-13
    ("cap_mom", "wire a", "f", 0x421ffa8c69427d56),     // 3.43368730406224e10
    ("res_poly", "schematic", "R", 0x409f40020a2795a7), // 2.0000019918618289e3
    ("res_poly", "schematic", "C", 0x0000000000000000), // 0e0
    ("res_poly", "wire a", "R", 0x409fe0010401260d),    // 2.040000991838405e3
    ("res_poly", "wire a", "C", 0x3ceb05866c8f63a0),    // 2.99999829405333e-15
];

#[test]
fn every_library_primitive_is_bit_identical_to_its_pins() {
    assert_eq!(
        TESTBENCH_VERSION, 3,
        "the testbenches changed on purpose: re-record LIBRARY_PINS"
    );
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let (layout_view, cfg) = &LAYOUTS[0];
    let schematic = LayoutView::Schematic {
        total_fins: cfg.total_fins(),
    };
    let wire: HashMap<String, ExternalWire> = HashMap::from([(
        "a".to_string(),
        ExternalWire {
            r_ohm: 40.0,
            c_f: 3e-15,
        },
    )]);
    let mut got = Vec::new();
    for def in lib
        .iter()
        .filter(|d| !PINNED_ON_TWO_LAYOUTS.contains(&d.name.as_str()))
    {
        let bias = Bias::nominal(&tech, &def.class);
        let layout;
        let mut views = vec![("schematic", schematic, HashMap::new())];
        if def.spec.devices.is_empty() {
            views.push(("wire a", schematic, wire.clone()));
        } else {
            layout = generate(&tech, &def.spec, cfg).unwrap();
            views.push((*layout_view, LayoutView::Layout(&layout), HashMap::new()));
        }
        for (view, lv, externals) in views {
            let values = evaluate_all(&tech, def, lv, &bias, &externals).unwrap();
            for m in &def.metrics {
                got.push((
                    def.name.as_str(),
                    view,
                    m.name.as_str(),
                    values[&m.name].to_bits(),
                ));
            }
        }
    }
    assert_pinned(&got, LIBRARY_PINS);
}

/// Fails, printing the table as it now reads, unless `got` matches `pins`
/// entry for entry.
fn assert_pinned(got: &[(&str, &str, &str, u64)], pins: &[(&str, &str, &str, u64)]) {
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
        got == pins,
        "metrics moved off their pins; the values now:\n{table}"
    );
}
