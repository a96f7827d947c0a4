//! Static verification (DRC + LVS-lite) integration tests.
//!
//! Two halves: the flows must come out *clean* on the paper's four
//! benchmark circuits, and deliberately seeded violations of each class
//! must be *caught* under the expected rule id — a checker that never
//! fires is indistinguishable from one that never looks.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use prima_flow::circuits::{CsAmp, FiveTOta, RoVco, StrongArm};
use prima_flow::{conventional_flow, optimized_flow};
use prima_geom::{Point, Rect};
use prima_pdk::Technology;
use prima_primitives::Library;
use prima_route::detail::{DetailedResult, TrackAssignment};
use prima_route::{GlobalRouter, RoutingProblem};
use prima_verify::drc::{self, LayerChecks, Shape, Wire};
use prima_verify::lints::LintInputs;
use prima_verify::{check_flow, FlowArtifacts};

fn env() -> (Technology, Library) {
    (Technology::finfet7(), Library::standard())
}

fn pt(x: i64, y: i64) -> Point {
    Point::new(x, y)
}

// ---------------------------------------------------------------------
// Clean flows: the verification gate runs inside every flow and must pass
// on all four benchmark circuits.
// ---------------------------------------------------------------------

#[test]
fn optimized_flows_verify_clean_on_all_four_circuits() {
    let (tech, lib) = env();
    let vco = RoVco::small();
    let cases = vec![
        ("cs_amp", CsAmp::spec(), CsAmp::biases(&tech, &lib).unwrap()),
        (
            "ota5t",
            FiveTOta::spec(),
            FiveTOta::biases(&tech, &lib).unwrap(),
        ),
        (
            "strongarm",
            StrongArm::spec(),
            StrongArm::biases(&tech, &lib).unwrap(),
        ),
        ("vco", vco.spec(), vco.biases(&tech, &lib).unwrap()),
    ];
    for (name, spec, biases) in cases {
        let out = optimized_flow(&tech, &lib, &spec, &biases, 11).unwrap();
        let report = out.verify.expect("verify gate is on in debug builds");
        assert!(report.is_clean(), "{name}: {}", report.summary());
        assert!(report.rects_checked > 0, "{name}: no geometry was checked");
        assert!(report.nets_checked > 0, "{name}: no nets were checked");
        assert!(
            report.checks_run.iter().any(|c| c == "drc.cells")
                && report.checks_run.iter().any(|c| c == "lvs.connectivity"),
            "{name}: missing checks in {:?}",
            report.checks_run
        );
    }
}

#[test]
fn conventional_flow_verifies_clean() {
    let (tech, lib) = env();
    let out = conventional_flow(&tech, &lib, &CsAmp::spec(), 7).unwrap();
    let report = out.verify.expect("verify gate is on in debug builds");
    assert!(report.is_clean(), "{}", report.summary());
}

// ---------------------------------------------------------------------
// Seeded violations: each fixture plants exactly one defect class and the
// checker must name it correctly.
// ---------------------------------------------------------------------

/// Two rectangles closer than the layer's minimum spacing.
#[test]
fn seeded_sub_min_space_rects_are_flagged() {
    let tech = Technology::finfet7();
    let rule = tech.rules.metal(1);
    let w = rule.min_width;
    let gap = rule.min_space - 2; // two nanometres too close
    let shapes = [
        Shape {
            rect: Rect::new(pt(0, 0), pt(w, 400)),
            net: None,
        },
        Shape {
            rect: Rect::new(pt(w + gap, 0), pt(2 * w + gap, 400)),
            net: None,
        },
    ];
    let v = drc::check_layer("M1", rule, &shapes, LayerChecks::default(), "fixture");
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule_id, "M1.SPACE");
    assert_eq!(v[0].found, Some(gap));
    assert_eq!(v[0].required, Some(rule.min_space));
}

/// Two different nets assigned the same detail track with overlapping
/// spans: drawn metal merges — a short, reported by both the routing DRC
/// and the connectivity diff.
#[test]
fn seeded_shorted_route_is_reported() {
    let tech = Technology::finfet7();
    let detailed = DetailedResult {
        assignments: vec![
            TrackAssignment {
                net: "a".into(),
                layer: 3,
                tracks: vec![4],
                span: (0, 600),
            },
            TrackAssignment {
                net: "b".into(),
                layer: 3,
                tracks: vec![4],
                span: (500, 1100),
            },
        ],
    };
    let mut art = FlowArtifacts::new("fixture", &tech);
    art.detailed = Some(&detailed);
    let report = check_flow(&art);
    assert!(!report.is_clean());
    assert!(report.has_rule("LVS.SHORT"), "{}", report.summary());
    assert!(report.has_rule("M3.SHORT"), "{}", report.summary());
}

/// A pin no wire reaches — what a dropped via or a mislabeled port looks
/// like after extraction.
#[test]
fn seeded_open_pin_is_reported() {
    let tech = Technology::finfet7();
    let mut problem = RoutingProblem::new();
    problem.add_net("sig", vec![pt(0, 0), pt(1200, 0)]);
    let routing = GlobalRouter::new(&tech).route(&problem).unwrap();

    let mut art = FlowArtifacts::new("fixture", &tech);
    art.routing = Some(&routing);
    art.expected_nets = vec!["sig".to_string()];
    // The third pin sits off the drawn wire entirely.
    art.pins = vec![("sig".to_string(), vec![pt(0, 0), pt(1200, 0), pt(600, 700)])];
    let report = check_flow(&art);
    assert!(report.has_rule("LVS.OPEN"), "{}", report.summary());
}

/// An expected multi-terminal net with no wiring at all.
#[test]
fn seeded_missing_net_is_reported() {
    let tech = Technology::finfet7();
    let mut problem = RoutingProblem::new();
    problem.add_net("present", vec![pt(0, 0), pt(900, 0)]);
    let routing = GlobalRouter::new(&tech).route(&problem).unwrap();

    let mut art = FlowArtifacts::new("fixture", &tech);
    art.routing = Some(&routing);
    art.expected_nets = vec!["absent".to_string()];
    art.pins = vec![("absent".to_string(), vec![pt(0, 0), pt(500, 500)])];
    let report = check_flow(&art);
    assert!(report.has_rule("LVS.MISSING"), "{}", report.summary());
}

/// A same-net layer crossing wide enough to imply a via but too narrow to
/// enclose the cut.
#[test]
fn seeded_under_enclosed_via_is_reported() {
    let tech = Technology::finfet7();
    let via = tech.rules.via(3);
    let cut = via.cut;
    // M3 is vertical, M4 horizontal; both drawn at exactly cut width, so
    // the landing is cut × cut — a via site with zero enclosure margin.
    let wires = [
        Wire {
            net: "n".into(),
            layer: 3,
            rect: Rect::new(pt(0, 0), pt(cut, 1000)),
        },
        Wire {
            net: "n".into(),
            layer: 4,
            rect: Rect::new(pt(-500, 100), pt(500, 100 + cut)),
        },
    ];
    let v = drc::check_vias(&tech, &wires);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule_id, "V3.ENC");
    assert_eq!(v[0].required, Some(cut + 2 * via.enclosure));
}

/// A flow handing the gate a negative cost weight.
#[test]
fn seeded_negative_weight_is_a_lint() {
    let tech = Technology::finfet7();
    let mut art = FlowArtifacts::new("fixture", &tech);
    art.lints = LintInputs {
        metric_weights: vec![("m1.res".to_string(), -0.5), ("m1.cap".to_string(), 1.0)],
        ..LintInputs::default()
    };
    let report = check_flow(&art);
    assert!(report.has_rule("LINT.WEIGHTS"), "{}", report.summary());
}
