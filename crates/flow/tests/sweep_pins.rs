//! Bit pins of the flow's independent-simulation sweeps: the corner
//! stage's per-corner and per-sample evaluations, and the RO-VCO's
//! control-voltage sweep.
//!
//! The optimized flow runs cs_amp, the 5T OTA and the small RO-VCO on
//! finfet7 at seed 42 under `CornerPolicy::Sweep(CornerOptions::default())`
//! (every corner of the deck, eight Monte-Carlo samples), and each
//! `CornerReport` is pinned whole: every measure's cost and margin bits and
//! verdict, each instance's worst corner, fallbacks and Monte-Carlo passes,
//! the yield and the simulations charged to the corner phase. The small
//! ring's tuning curve on the schematic is pinned point by point.
//!
//! A change to how these sweeps are scheduled must leave every pin as it
//! is. A change that moves results on purpose re-records the text from the
//! failure message.

#![allow(clippy::unwrap_used)]

use std::fmt::Write as _;

use prima_flow::circuits::{CsAmp, FiveTOta, RoVco};
use prima_flow::{
    optimized_flow_with, CornerOptions, CornerPolicy, CornerReport, FlowOptions, Realization,
};
use prima_pdk::Technology;
use prima_primitives::Library;

/// The corner reports, one block per circuit: float quantities as bits.
const CORNER_PINS: &str = "\
cs_amp corners tt,ss,ff,sf,fs,vdd_low,vdd_high,temp_cold,temp_hot
cs_amp m1 cs_amp nominal 40131c9fdd28bacc worst 3fd03721a1d1fb40 at temp_cold fallbacks 0 mc Some(8)
cs_amp m1 tt cost 40131c9fdd28bacc margin 4014000000000000 pass true
cs_amp m1 ss cost 401c051cdcfead83 margin 40062f0600541a92 pass true
cs_amp m1 ff cost 4008970b3299bd4d margin 401ad11a43dbdc26 pass true
cs_amp m1 sf cost 40131c3763d708e0 margin 401400687951b1ec pass true
cs_amp m1 fs cost 40131d7d3903268c margin 4013ff22a4259440 pass true
cs_amp m1 vdd_low cost 4018132e2bbcdf22 margin 400e12e362d7b754 pass true
cs_amp m1 vdd_high cost 400dc0518a91bf6f margin 40183c7717dfdb14 pass true
cs_amp m1 temp_cold cost 40230c96e185cd8c margin 3fd03721a1d1fb40 pass true
cs_amp m1 temp_hot cost 40013794b9b52811 margin 401e80d5804e26c4 pass true
cs_amp m2 csrc_pmos nominal 402adc02e82ffb26 worst 4016e23ba5b28d34 at temp_cold fallbacks 0 mc Some(8)
cs_amp m2 tt cost 402adc02e82ffb26 margin 402adc02e82ffb26 pass true
cs_amp m2 ss cost 403055e72d9cdcb0 margin 40250c3775263cec pass true
cs_amp m2 ff cost 402590fd00a91d98 margin 4030138467db6c5a pass true
cs_amp m2 sf cost 402adc33bd4fa992 margin 402adbd213104cba pass true
cs_amp m2 fs cost 402adbebbf9de916 margin 402adc1a10c20d36 pass true
cs_amp m2 vdd_low cost 402dd217f2d7514a margin 4027e5eddd88a502 pass true
cs_amp m2 vdd_high cost 4028094f5a3cf576 margin 402daeb6762300d6 pass true
cs_amp m2 temp_cold cost 40352373fec357d9 margin 4016e23ba5b28d34 pass true
cs_amp m2 temp_hot cost 402102aef2a7d51d margin 40325aab6edc1098 pass true
cs_amp worst 3fd03721a1d1fb40 mc Some((1592639710, 8, 8)) yield 3ff0000000000000 sims 280 fallbacks 0 diagnostics []
ota corners tt,ss,ff,sf,fs,vdd_low,vdd_high,temp_cold,temp_hot
ota dp0 dp nominal 402d967c1581a5c0 worst 4021920621df9648 at temp_hot fallbacks 0 mc Some(8)
ota dp0 tt cost 402d967c1581a5c0 margin 402d967c1581a5c0 pass true
ota dp0 ss cost 402d8ef925577857 margin 402d9dff05abd329 pass true
ota dp0 ff cost 402d9d6bc4db78e5 margin 402d8f8c6627d29b pass true
ota dp0 sf cost 402d8ef925577857 margin 402d9dff05abd329 pass true
ota dp0 fs cost 402d9d6bc4db78e5 margin 402d8f8c6627d29b pass true
ota dp0 vdd_low cost 402d966c08f6b5f1 margin 402d968c220c958f pass true
ota dp0 vdd_high cost 402d968c51f6f6ca margin 402d966bd90c54b6 pass true
ota dp0 temp_cold cost 402f4994994eaba0 margin 402be36391b49fe0 pass true
ota dp0 temp_hot cost 4034cd790491da9c margin 4021920621df9648 pass true
ota cmtail cm_1to2 nominal 3ffe516961034019 worst 4013d5713855beb3 at ff fallbacks 0 mc Some(8)
ota cmtail tt cost 3ffe516961034019 margin 4014000000000000 pass true
ota cmtail ss cost 3ffdab9548c08baa margin 401429750610ad1c pass true
ota cmtail ff cost 3ffefba47fac454c margin 4013d5713855beb3 pass true
ota cmtail sf cost 3ffe2c0e9bfca48c margin 40140956b141a6e3 pass true
ota cmtail fs cost 3ffe75f7f1ed9e2e margin 4013f6dc5bc5687a pass true
ota cmtail vdd_low cost 3ffe1de320b21c2a margin 40140ce1901448fc pass true
ota cmtail vdd_high cost 3ffe85101a7cb66e margin 4013f31651a1a26a pass true
ota cmtail temp_cold cost 3ffeefaa4b562c50 margin 4013d86fc56b44f2 pass true
ota cmtail temp_hot cost 3ffdcc446a22ee39 margin 401421493db81478 pass true
ota cmload cm_pmos nominal 4013027fff4280bf worst 4013b3743df2118c at ff fallbacks 1 mc Some(8)
ota cmload tt cost 4013027fff4280bf margin 4014000000000001 pass true
ota cmload ss cost 4012b5ff09ea2d55 margin 40144c80f558536b pass true
ota cmload ff cost 40134f0bc1506f34 margin 4013b3743df2118c pass true
ota cmload sf cost 4013035286f169b6 margin 4013ff2d7851170a pass true
ota cmload fs cost 401300ff7ad2d833 margin 40140180846fa88d pass true
ota cmload vdd_low cost 4012e92c420448d8 margin 40141953bd3e37e8 pass true
ota cmload vdd_high cost 40131b694ed0a96e margin 4013e716b071d752 pass true
ota cmload temp_cold cost 4012ac80118fd0fa margin 401455ffedb2afc6 pass true
ota cmload temp_hot cost 40132c8e3f27835e margin 4013d5f1c01afd62 pass true
ota worst 4013b3743df2118c mc Some((1592639710, 8, 8)) yield 3ff0000000000000 sims 526 fallbacks 1 diagnostics []
vco corners tt,ss,ff,sf,fs,vdd_low,vdd_high,temp_cold,temp_hot
vco csip0 csi nominal 40326badd2cab9f3 worst 4024c095f7d65da8 at temp_hot fallbacks 0 mc Some(8)
vco csip0 tt cost 40326badd2cab9f3 margin 40326badd2cab9f3 pass true
vco csip0 ss cost 402b05e5b2d18288 margin 40375468cc2cb2a2 pass true
vco csip0 ff cost 403943dc530444a1 margin 402726fea5225e8a pass true
vco csip0 sf cost 4032c0cfa50bdbee margin 4032168c008997f8 pass true
vco csip0 fs cost 4033d7ab5894f074 margin 4030ffb04d008372 pass true
vco csip0 vdd_low cost 4030773e20175a3f margin 4034601d857e19a7 pass true
vco csip0 vdd_high cost 403706d80d838588 margin 402ba1073023dcbc pass true
vco csip0 temp_cold cost 4032fed75f8b5830 margin 4031d884460a1bb6 pass true
vco csip0 temp_hot cost 403a7710a9aa4512 margin 4024c095f7d65da8 pass true
vco csin0 csi nominal 40326badd2cab9f3 worst 4024c095f7d65da8 at temp_hot fallbacks 0 mc Some(8)
vco csin0 tt cost 40326badd2cab9f3 margin 40326badd2cab9f3 pass true
vco csin0 ss cost 402b05e5b2d18288 margin 40375468cc2cb2a2 pass true
vco csin0 ff cost 403943dc530444a1 margin 402726fea5225e8a pass true
vco csin0 sf cost 4032c0cfa50bdbee margin 4032168c008997f8 pass true
vco csin0 fs cost 4033d7ab5894f074 margin 4030ffb04d008372 pass true
vco csin0 vdd_low cost 4030773e20175a3f margin 4034601d857e19a7 pass true
vco csin0 vdd_high cost 403706d80d838588 margin 402ba1073023dcbc pass true
vco csin0 temp_cold cost 4032fed75f8b5830 margin 4031d884460a1bb6 pass true
vco csin0 temp_hot cost 403a7710a9aa4512 margin 4024c095f7d65da8 pass true
vco latch0 latch_starved nominal 4030d6727c050892 worst 40208a7e62e29484 at temp_cold fallbacks 0 mc Some(8)
vco latch0 tt cost 4030d6727c050892 margin 4030d6727c050892 pass true
vco latch0 ss cost 4035496864d933b1 margin 4028c6f92661bae6 pass true
vco latch0 ff cost 402b58636e8d819c margin 403400b340c35056 pass true
vco latch0 sf cost 4030ea582e239d10 margin 4030c28cc9e67414 pass true
vco latch0 fs cost 4030c9b5589756f3 margin 4030e32f9f72ba31 pass true
vco latch0 vdd_low cost 40336988df9831f2 margin 402c86b830e3be64 pass true
vco latch0 vdd_high cost 402d52d5a2b9fcfe margin 4033037a26ad12a5 pass true
vco latch0 temp_cold cost 403967a5c698c6e2 margin 40208a7e62e29484 pass true
vco latch0 temp_hot cost 402773f12c9a5d5e margin 4035f2ec61bce275 pass true
vco csip1 csi nominal 40326badd2cab9f3 worst 4024c095f7d65da8 at temp_hot fallbacks 0 mc Some(8)
vco csip1 tt cost 40326badd2cab9f3 margin 40326badd2cab9f3 pass true
vco csip1 ss cost 402b05e5b2d18288 margin 40375468cc2cb2a2 pass true
vco csip1 ff cost 403943dc530444a1 margin 402726fea5225e8a pass true
vco csip1 sf cost 4032c0cfa50bdbee margin 4032168c008997f8 pass true
vco csip1 fs cost 4033d7ab5894f074 margin 4030ffb04d008372 pass true
vco csip1 vdd_low cost 4030773e20175a3f margin 4034601d857e19a7 pass true
vco csip1 vdd_high cost 403706d80d838588 margin 402ba1073023dcbc pass true
vco csip1 temp_cold cost 4032fed75f8b5830 margin 4031d884460a1bb6 pass true
vco csip1 temp_hot cost 403a7710a9aa4512 margin 4024c095f7d65da8 pass true
vco csin1 csi nominal 40326badd2cab9f3 worst 4024c095f7d65da8 at temp_hot fallbacks 0 mc Some(8)
vco csin1 tt cost 40326badd2cab9f3 margin 40326badd2cab9f3 pass true
vco csin1 ss cost 402b05e5b2d18288 margin 40375468cc2cb2a2 pass true
vco csin1 ff cost 403943dc530444a1 margin 402726fea5225e8a pass true
vco csin1 sf cost 4032c0cfa50bdbee margin 4032168c008997f8 pass true
vco csin1 fs cost 4033d7ab5894f074 margin 4030ffb04d008372 pass true
vco csin1 vdd_low cost 4030773e20175a3f margin 4034601d857e19a7 pass true
vco csin1 vdd_high cost 403706d80d838588 margin 402ba1073023dcbc pass true
vco csin1 temp_cold cost 4032fed75f8b5830 margin 4031d884460a1bb6 pass true
vco csin1 temp_hot cost 403a7710a9aa4512 margin 4024c095f7d65da8 pass true
vco latch1 latch_starved nominal 4030d6727c050892 worst 40208a7e62e29484 at temp_cold fallbacks 0 mc Some(8)
vco latch1 tt cost 4030d6727c050892 margin 4030d6727c050892 pass true
vco latch1 ss cost 4035496864d933b1 margin 4028c6f92661bae6 pass true
vco latch1 ff cost 402b58636e8d819c margin 403400b340c35056 pass true
vco latch1 sf cost 4030ea582e239d10 margin 4030c28cc9e67414 pass true
vco latch1 fs cost 4030c9b5589756f3 margin 4030e32f9f72ba31 pass true
vco latch1 vdd_low cost 40336988df9831f2 margin 402c86b830e3be64 pass true
vco latch1 vdd_high cost 402d52d5a2b9fcfe margin 4033037a26ad12a5 pass true
vco latch1 temp_cold cost 403967a5c698c6e2 margin 40208a7e62e29484 pass true
vco latch1 temp_hot cost 402773f12c9a5d5e margin 4035f2ec61bce275 pass true
vco csip2 csi nominal 40326badd2cab9f3 worst 4024c095f7d65da8 at temp_hot fallbacks 0 mc Some(8)
vco csip2 tt cost 40326badd2cab9f3 margin 40326badd2cab9f3 pass true
vco csip2 ss cost 402b05e5b2d18288 margin 40375468cc2cb2a2 pass true
vco csip2 ff cost 403943dc530444a1 margin 402726fea5225e8a pass true
vco csip2 sf cost 4032c0cfa50bdbee margin 4032168c008997f8 pass true
vco csip2 fs cost 4033d7ab5894f074 margin 4030ffb04d008372 pass true
vco csip2 vdd_low cost 4030773e20175a3f margin 4034601d857e19a7 pass true
vco csip2 vdd_high cost 403706d80d838588 margin 402ba1073023dcbc pass true
vco csip2 temp_cold cost 4032fed75f8b5830 margin 4031d884460a1bb6 pass true
vco csip2 temp_hot cost 403a7710a9aa4512 margin 4024c095f7d65da8 pass true
vco csin2 csi nominal 40326badd2cab9f3 worst 4024c095f7d65da8 at temp_hot fallbacks 0 mc Some(8)
vco csin2 tt cost 40326badd2cab9f3 margin 40326badd2cab9f3 pass true
vco csin2 ss cost 402b05e5b2d18288 margin 40375468cc2cb2a2 pass true
vco csin2 ff cost 403943dc530444a1 margin 402726fea5225e8a pass true
vco csin2 sf cost 4032c0cfa50bdbee margin 4032168c008997f8 pass true
vco csin2 fs cost 4033d7ab5894f074 margin 4030ffb04d008372 pass true
vco csin2 vdd_low cost 4030773e20175a3f margin 4034601d857e19a7 pass true
vco csin2 vdd_high cost 403706d80d838588 margin 402ba1073023dcbc pass true
vco csin2 temp_cold cost 4032fed75f8b5830 margin 4031d884460a1bb6 pass true
vco csin2 temp_hot cost 403a7710a9aa4512 margin 4024c095f7d65da8 pass true
vco latch2 latch_starved nominal 4030d6727c050892 worst 40208a7e62e29484 at temp_cold fallbacks 0 mc Some(8)
vco latch2 tt cost 4030d6727c050892 margin 4030d6727c050892 pass true
vco latch2 ss cost 4035496864d933b1 margin 4028c6f92661bae6 pass true
vco latch2 ff cost 402b58636e8d819c margin 403400b340c35056 pass true
vco latch2 sf cost 4030ea582e239d10 margin 4030c28cc9e67414 pass true
vco latch2 fs cost 4030c9b5589756f3 margin 4030e32f9f72ba31 pass true
vco latch2 vdd_low cost 40336988df9831f2 margin 402c86b830e3be64 pass true
vco latch2 vdd_high cost 402d52d5a2b9fcfe margin 4033037a26ad12a5 pass true
vco latch2 temp_cold cost 403967a5c698c6e2 margin 40208a7e62e29484 pass true
vco latch2 temp_hot cost 402773f12c9a5d5e margin 4035f2ec61bce275 pass true
vco csip3 csi nominal 40326badd2cab9f3 worst 4024c095f7d65da8 at temp_hot fallbacks 0 mc Some(8)
vco csip3 tt cost 40326badd2cab9f3 margin 40326badd2cab9f3 pass true
vco csip3 ss cost 402b05e5b2d18288 margin 40375468cc2cb2a2 pass true
vco csip3 ff cost 403943dc530444a1 margin 402726fea5225e8a pass true
vco csip3 sf cost 4032c0cfa50bdbee margin 4032168c008997f8 pass true
vco csip3 fs cost 4033d7ab5894f074 margin 4030ffb04d008372 pass true
vco csip3 vdd_low cost 4030773e20175a3f margin 4034601d857e19a7 pass true
vco csip3 vdd_high cost 403706d80d838588 margin 402ba1073023dcbc pass true
vco csip3 temp_cold cost 4032fed75f8b5830 margin 4031d884460a1bb6 pass true
vco csip3 temp_hot cost 403a7710a9aa4512 margin 4024c095f7d65da8 pass true
vco csin3 csi nominal 40326badd2cab9f3 worst 4024c095f7d65da8 at temp_hot fallbacks 0 mc Some(8)
vco csin3 tt cost 40326badd2cab9f3 margin 40326badd2cab9f3 pass true
vco csin3 ss cost 402b05e5b2d18288 margin 40375468cc2cb2a2 pass true
vco csin3 ff cost 403943dc530444a1 margin 402726fea5225e8a pass true
vco csin3 sf cost 4032c0cfa50bdbee margin 4032168c008997f8 pass true
vco csin3 fs cost 4033d7ab5894f074 margin 4030ffb04d008372 pass true
vco csin3 vdd_low cost 4030773e20175a3f margin 4034601d857e19a7 pass true
vco csin3 vdd_high cost 403706d80d838588 margin 402ba1073023dcbc pass true
vco csin3 temp_cold cost 4032fed75f8b5830 margin 4031d884460a1bb6 pass true
vco csin3 temp_hot cost 403a7710a9aa4512 margin 4024c095f7d65da8 pass true
vco latch3 latch_starved nominal 4030d6727c050892 worst 40208a7e62e29484 at temp_cold fallbacks 0 mc Some(8)
vco latch3 tt cost 4030d6727c050892 margin 4030d6727c050892 pass true
vco latch3 ss cost 4035496864d933b1 margin 4028c6f92661bae6 pass true
vco latch3 ff cost 402b58636e8d819c margin 403400b340c35056 pass true
vco latch3 sf cost 4030ea582e239d10 margin 4030c28cc9e67414 pass true
vco latch3 fs cost 4030c9b5589756f3 margin 4030e32f9f72ba31 pass true
vco latch3 vdd_low cost 40336988df9831f2 margin 402c86b830e3be64 pass true
vco latch3 vdd_high cost 402d52d5a2b9fcfe margin 4033037a26ad12a5 pass true
vco latch3 temp_cold cost 403967a5c698c6e2 margin 40208a7e62e29484 pass true
vco latch3 temp_hot cost 402773f12c9a5d5e margin 4035f2ec61bce275 pass true
vco worst 40208a7e62e29484 mc Some((1592639710, 8, 8)) yield 3ff0000000000000 sims 782 fallbacks 0 diagnostics []
";

/// The small ring's schematic tuning curve: `(vctrl, GHz)` bits per point.
const CURVE_PINS: &str = "\
vctrl 3fb999999999999a f 0000000000000000
vctrl 3fe0000000000000 f 4035301e009d3fc5
fmax 4035301e009d3fc5 fmin 4035301e009d3fc5 range 3fe0000000000000 3fe0000000000000
";

/// A float as its bits.
fn b(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Every quantity of one corner report, one line per instance measure.
fn corner_text(circuit: &str, report: &CornerReport) -> String {
    let mut text = String::new();
    writeln!(text, "{circuit} corners {}", report.corners.join(",")).unwrap();
    for inst in &report.instances {
        writeln!(
            text,
            "{circuit} {} {} nominal {} worst {} at {} fallbacks {} mc {:?}",
            inst.instance,
            inst.def,
            b(inst.nominal_cost),
            b(inst.worst_margin),
            inst.worst_corner,
            inst.fallbacks,
            inst.mc_passed,
        )
        .unwrap();
        for m in &inst.measures {
            writeln!(
                text,
                "{circuit} {} {} cost {} margin {} pass {}",
                inst.instance,
                m.corner,
                b(m.cost),
                b(m.margin),
                m.pass
            )
            .unwrap();
        }
    }
    let mc = report.mc.map(|y| (y.seed, y.samples, y.passed));
    let rules: Vec<&str> = report
        .diagnostics
        .iter()
        .map(|v| v.rule_id.as_str())
        .collect();
    writeln!(
        text,
        "{circuit} worst {} mc {mc:?} yield {} sims {} fallbacks {} diagnostics {rules:?}",
        b(report.worst_margin),
        b(report.mc.map_or(1.0, |y| y.yield_fraction())),
        report.sims,
        report.fallbacks,
    )
    .unwrap();
    text
}

#[test]
fn corner_reports_are_bit_identical_to_their_pins() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let vco = RoVco::small();
    let cases = [
        ("cs_amp", CsAmp::spec(), CsAmp::biases(&tech, &lib)),
        ("ota", FiveTOta::spec(), FiveTOta::biases(&tech, &lib)),
        ("vco", vco.spec(), vco.biases(&tech, &lib)),
    ];
    let mut got = String::new();
    for (circuit, spec, biases) in &cases {
        let options = FlowOptions {
            corners: CornerPolicy::Sweep(CornerOptions::default()),
            ..FlowOptions::default()
        };
        let out = optimized_flow_with(&tech, &lib, spec, biases.as_ref().unwrap(), 42, options);
        let report = out.unwrap().corners.unwrap();
        got.push_str(&corner_text(circuit, &report));
    }
    assert!(
        got == CORNER_PINS,
        "corner reports moved off their pins; the text now:\n{got}"
    );
}

#[test]
fn small_ring_schematic_curve_is_bit_identical_to_its_pins() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let m = RoVco::small()
        .measure(&tech, &lib, &Realization::schematic())
        .unwrap();
    let mut got = String::new();
    for (v, f) in &m.curve {
        writeln!(got, "vctrl {} f {}", b(*v), b(*f)).unwrap();
    }
    writeln!(
        got,
        "fmax {} fmin {} range {} {}",
        b(m.f_max_ghz),
        b(m.f_min_ghz),
        b(m.v_range.0),
        b(m.v_range.1)
    )
    .unwrap();
    assert!(
        got == CURVE_PINS,
        "the tuning curve moved off its pins; the text now:\n{got}"
    );
}
