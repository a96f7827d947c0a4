//! Integration tests for the prima-gds stream-out subsystem: all four
//! benchmark circuits stream out and re-parse to a geometrically exact
//! round trip on both bundled deck families, record-level encode/decode
//! round-trips under proptest (odd-length strings, coordinate extremes,
//! `real8` units), truncated and corrupted streams come back as typed
//! errors rather than panics, seeded layer-map defects are rejected by
//! techlint with their exact `TECH.GDS.*` ids before any simulation, and
//! a layer-map edit invalidates cached evaluations while changing nothing
//! else about the deck.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use prima_cache::Fingerprintable;
use prima_flow::circuits::{CsAmp, FiveTOta, RoVco, StrongArm};
use prima_flow::{
    optimized_flow_with, techlint_preflight, CachePolicy, FlowError, FlowOptions, GdsPolicy,
};
use prima_gds::record::{self, datatype, rectype};
use prima_gds::{diff, GdsElement, GdsLibrary, GdsStructure};
use prima_pdk::Technology;
use prima_primitives::Library;

fn gds_options() -> FlowOptions {
    FlowOptions {
        gds: GdsPolicy::On,
        ..FlowOptions::default()
    }
}

/// The tentpole acceptance bar: every benchmark circuit, on both deck
/// families, streams out to bytes that re-parse into a geometrically
/// identical library — zero diffs, with the hierarchy intact (every SREF
/// resolves, the top structure carries named pin labels).
#[test]
fn four_circuit_roundtrip_is_exact_on_both_decks() {
    for tech in [Technology::finfet7(), Technology::sky130ish()] {
        let lib = Library::standard();
        let vco = RoVco::small();
        let runs = [
            (CsAmp::spec(), CsAmp::biases(&tech, &lib).unwrap()),
            (FiveTOta::spec(), FiveTOta::biases(&tech, &lib).unwrap()),
            (StrongArm::spec(), StrongArm::biases(&tech, &lib).unwrap()),
            (vco.spec(), vco.biases(&tech, &lib).unwrap()),
        ];
        for (spec, biases) in runs {
            let out = optimized_flow_with(&tech, &lib, &spec, &biases, 7, gds_options())
                .unwrap_or_else(|e| panic!("{} failed on {}: {e:?}", spec.name, tech.name));
            let art = out
                .gds
                .unwrap_or_else(|| panic!("{}: no gds artifact", spec.name));
            let back = GdsLibrary::from_bytes(&art.bytes)
                .unwrap_or_else(|e| panic!("{}: re-parse failed: {e}", spec.name));
            let diffs = diff(&art.library, &back);
            assert!(
                diffs.is_empty(),
                "{} on {}: round-trip diverged: {diffs:?}",
                spec.name,
                tech.name
            );

            let top = back
                .structure(&art.top)
                .unwrap_or_else(|| panic!("{}: top structure {} missing", spec.name, art.top));
            assert!(
                top.elements
                    .iter()
                    .any(|e| matches!(e, GdsElement::Text { .. })),
                "{}: no pin labels in top structure",
                spec.name
            );
            let mut srefs = 0usize;
            for el in &top.elements {
                if let GdsElement::Sref { structure, .. } = el {
                    srefs += 1;
                    assert!(
                        back.structure(structure).is_some(),
                        "{}: SREF to undefined structure {structure}",
                        spec.name
                    );
                }
            }
            assert_eq!(
                srefs,
                spec.instances.len(),
                "{}: one placement per instance",
                spec.name
            );
        }
    }
}

/// Timestamps are pinned to zero, so the same flow streams out to
/// byte-identical files across runs.
#[test]
fn stream_out_is_deterministic() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let spec = CsAmp::spec();
    let biases = CsAmp::biases(&tech, &lib).unwrap();
    let a = optimized_flow_with(&tech, &lib, &spec, &biases, 7, gds_options()).unwrap();
    let b = optimized_flow_with(&tech, &lib, &spec, &biases, 7, gds_options()).unwrap();
    assert_eq!(a.gds.unwrap().bytes, b.gds.unwrap().bytes);
}

/// `GdsPolicy::Off` (the default) attaches nothing — the outcome is
/// exactly what a build without the subsystem produced.
#[test]
fn off_policy_attaches_no_artifact() {
    let tech = Technology::finfet7();
    let lib = Library::standard();
    let spec = CsAmp::spec();
    let biases = CsAmp::biases(&tech, &lib).unwrap();
    let out = optimized_flow_with(&tech, &lib, &spec, &biases, 7, FlowOptions::default()).unwrap();
    assert!(out.gds.is_none());
}

/// A serve-layer server configured with `gds: true` returns the stream as
/// an optional response artifact, to the submitter only: the batch record
/// keeps no copy. The default configuration attaches nothing.
#[test]
fn serve_attaches_gds_bytes_when_configured() {
    use prima_serve::{BatchServer, ServeConfig, ServeRequest};

    let tech = Technology::finfet7();
    let lib = Library::standard();
    let spec = CsAmp::spec();
    let biases = CsAmp::biases(&tech, &lib).unwrap();

    let server = BatchServer::try_new(
        tech.clone(),
        lib.clone(),
        ServeConfig {
            workers: 1,
            gds: true,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let ticket = server
        .submit(ServeRequest::new("tenant-a", spec.clone(), biases.clone()))
        .unwrap();
    let report = ticket.wait();
    assert!(report.has_result(), "{report:?}");
    let bytes = report.gds.expect("configured server attaches gds bytes");
    let parsed = GdsLibrary::from_bytes(&bytes).unwrap();
    assert!(parsed.structure(&format!("{}_top", parsed.name)).is_some());
    let batch = server.finish();
    assert_eq!(batch.requests.len(), 1);
    assert!(
        batch.requests.iter().all(|r| r.gds.is_none()),
        "the batch record must not retain the payload the ticket carried"
    );

    let server = BatchServer::try_new(tech, lib, ServeConfig::default()).unwrap();
    let ticket = server
        .submit(ServeRequest::new("tenant-a", spec, biases))
        .unwrap();
    assert!(ticket.wait().gds.is_none(), "default server stays lean");
    server.finish();
}

fn tiny_library() -> GdsLibrary {
    GdsLibrary {
        name: "t".to_string(),
        unit_in_user: 1e-3,
        unit_in_m: 1e-9,
        structures: vec![
            GdsStructure {
                name: "cell".to_string(),
                elements: vec![GdsElement::Boundary {
                    layer: 7,
                    datatype: 0,
                    xy: vec![(0, 0), (10, 0), (10, 5), (0, 5), (0, 0)],
                }],
            },
            GdsStructure {
                name: "t_top".to_string(),
                elements: vec![
                    GdsElement::Sref {
                        structure: "cell".to_string(),
                        origin: (100, 200),
                    },
                    GdsElement::Text {
                        layer: 10,
                        texttype: 0,
                        origin: (1, 2),
                        text: "vout".to_string(),
                    },
                ],
            },
        ],
    }
}

/// Every proper prefix of a valid stream is a typed parse error — the
/// reader never panics and never fabricates a library from partial data.
#[test]
fn every_truncation_is_a_typed_error() {
    let bytes = tiny_library().to_bytes().unwrap();
    for cut in 0..bytes.len() {
        assert!(
            GdsLibrary::from_bytes(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes parsed as a complete library"
        );
    }
}

/// Specific corruptions come back as the right typed error.
#[test]
fn corrupt_streams_return_typed_errors() {
    use prima_gds::GdsError;

    let bytes = tiny_library().to_bytes().unwrap();

    // Wrong leading record: the stream must open with HEADER.
    let mut b = bytes.clone();
    b[2] = rectype::BGNSTR;
    assert!(matches!(
        GdsLibrary::from_bytes(&b),
        Err(GdsError::UnexpectedRecord { offset: 0, .. })
    ));

    // Odd record length is structurally illegal.
    let mut b = bytes.clone();
    b[1] = b[1].wrapping_add(1);
    assert!(matches!(
        GdsLibrary::from_bytes(&b),
        Err(GdsError::BadRecordLength { .. } | GdsError::Truncated { .. })
    ));

    // Trailing garbage after ENDLIB is rejected, not ignored.
    let mut b = bytes.clone();
    b.extend_from_slice(&[0, 0]);
    assert!(matches!(
        GdsLibrary::from_bytes(&b),
        Err(GdsError::TrailingData { .. } | GdsError::BadRecordLength { .. })
    ));

    // Flipping any single byte never panics (errors are fine, many flips
    // still parse — e.g. a coordinate change).
    for i in 0..bytes.len() {
        let mut b = bytes.clone();
        b[i] ^= 0xFF;
        let _ = GdsLibrary::from_bytes(&b);
    }
}

/// The exact i32 corner values encode and decode losslessly in an XY
/// record — the coordinate extremes the emitter's range check admits.
#[test]
fn xy_corner_values_roundtrip() {
    let pts = vec![
        (i32::MIN, i32::MIN),
        (i32::MAX, i32::MIN),
        (i32::MAX, i32::MAX),
        (i32::MIN, i32::MAX),
        (i32::MIN, i32::MIN),
    ];
    let flat: Vec<i32> = pts.iter().flat_map(|&(x, y)| [x, y]).collect();
    let mut buf = Vec::new();
    record::push_i32_record(&mut buf, rectype::XY, &flat).unwrap();
    let mut pos = 0;
    let rec = record::read_record(&buf, &mut pos).unwrap();
    assert_eq!(rec.xy_pairs().unwrap(), pts);
    assert_eq!(pos, buf.len());
}

/// Seeded layer-map defects: techlint rejects each with its exact
/// `TECH.GDS.*` id, and the flow's zeroth gate refuses the deck before a
/// single layout is generated or simulation runs.
fn assert_gds_defect_caught(rule_id: &str, break_deck: impl Fn(&mut Technology)) {
    let lib = Library::standard();
    let mut tech = Technology::sky130ish();
    break_deck(&mut tech);

    let report = techlint_preflight(&tech, &lib);
    assert!(!report.is_passing(), "{rule_id}: deck unexpectedly clean");
    assert!(
        report.has_rule(rule_id),
        "{rule_id} not reported; got {:?}",
        report
            .violations
            .iter()
            .map(|v| v.rule_id.as_str())
            .collect::<Vec<_>>()
    );

    let spec = CsAmp::spec();
    let biases = CsAmp::biases(&Technology::sky130ish(), &lib).unwrap();
    match optimized_flow_with(&tech, &lib, &spec, &biases, 7, gds_options()) {
        Err(FlowError::Verify { first, .. }) => {
            assert!(
                first.contains(rule_id),
                "flow error cites {first:?}, expected {rule_id}"
            );
        }
        Err(other) => panic!("{rule_id}: expected Verify error, got {other:?}"),
        Ok(_) => panic!("{rule_id}: flow completed on a broken deck"),
    }
}

#[test]
fn uncovered_drawn_layer_is_rejected() {
    assert_gds_defect_caught("TECH.GDS.COVERAGE", |tech| {
        tech.gds.entries.retain(|e| e.name != "poly");
    });
}

#[test]
fn colliding_layer_numbers_are_rejected() {
    assert_gds_defect_caught("TECH.GDS.DUP", |tech| {
        let (l, d) = (tech.gds.entries[0].layer, tech.gds.entries[0].datatype);
        tech.gds.entries[2].layer = l;
        tech.gds.entries[2].datatype = d;
    });
}

#[test]
fn nonpositive_units_are_rejected() {
    assert_gds_defect_caught("TECH.GDS.UNITS", |tech| {
        tech.gds.unit_in_m = -1e-9;
    });
}

/// The small fix: the layer map participates in the deck fingerprint, so
/// editing it invalidates cached evaluations.
#[test]
fn layer_map_edit_invalidates_cached_evaluations() {
    let base = Technology::finfet7();
    let mut edited = base.clone();
    edited.gds.entries[0].layer = 41;

    assert_ne!(base.fingerprint(), edited.fingerprint());

    // Cache-level proof: a warm run on the base deck replays stored
    // results, while the same persistent store under the edited deck gives
    // exactly a cold start (the only hits are within-run self-hits, the
    // same count a fresh store yields — `EvalKey` embeds the deck
    // fingerprint, so every persisted entry misses).
    let lib = Library::standard();
    let spec = CsAmp::spec();
    let biases = CsAmp::biases(&base, &lib).unwrap();
    let path = std::env::temp_dir().join(format!("prima-gds-fp-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let opts = |p: &std::path::Path| FlowOptions {
        cache: CachePolicy::Persistent(p.to_path_buf()),
        ..FlowOptions::default()
    };
    let cold = optimized_flow_with(&base, &lib, &spec, &biases, 7, opts(&path)).unwrap();
    let cold = cold.cache.unwrap();
    assert!(cold.misses > 0);
    let warm = optimized_flow_with(&base, &lib, &spec, &biases, 7, opts(&path)).unwrap();
    let warm = warm.cache.unwrap();
    assert!(
        warm.hits > cold.hits,
        "same-deck warm run must replay persisted results ({warm:?} vs {cold:?})"
    );
    let invalidated = optimized_flow_with(&edited, &lib, &spec, &biases, 7, opts(&path)).unwrap();
    let stats = invalidated.cache.unwrap();
    assert_eq!(
        (stats.hits, stats.misses),
        (cold.hits, cold.misses),
        "layer-map edit must reduce the warm store to a cold start"
    );
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `real8` is lossless over the unit-size range: the format carries a
    /// 56-bit mantissa (f64 has 53) and normalization only scales by
    /// powers of two, so decode(encode(v)) is bit-exact.
    #[test]
    fn real8_roundtrips_bit_exactly(m in -1.0e30f64..1.0e30f64) {
        let encoded = record::encode_real8(m).unwrap();
        prop_assert_eq!(record::decode_real8(&encoded).to_bits(), m.to_bits());
    }

    /// String records round-trip through the NUL-padding of odd lengths
    /// (printable-ASCII payloads of every length 1..=21, odd included).
    #[test]
    fn string_records_roundtrip(
        chars in proptest::collection::vec(32u8..127u8, 1..22)
    ) {
        let s = String::from_utf8(chars).unwrap();
        let mut buf = Vec::new();
        record::push_str_record(&mut buf, rectype::STRING, &s).unwrap();
        prop_assert_eq!(buf.len() % 2, 0, "records are always even-length");
        let mut pos = 0;
        let rec = record::read_record(&buf, &mut pos).unwrap();
        prop_assert_eq!(rec.rectype, rectype::STRING);
        prop_assert_eq!(rec.datatype, datatype::ASCII);
        prop_assert_eq!(rec.ascii().unwrap(), s);
        prop_assert_eq!(pos, buf.len());
    }

    /// XY records round-trip across the full i32 coordinate range.
    #[test]
    fn xy_records_roundtrip_at_extremes(
        pts in proptest::collection::vec(
            (i32::MIN..=i32::MAX, i32::MIN..=i32::MAX),
            1..12,
        )
    ) {
        let flat: Vec<i32> = pts.iter().flat_map(|&(x, y)| [x, y]).collect();
        let mut buf = Vec::new();
        record::push_i32_record(&mut buf, rectype::XY, &flat).unwrap();
        let mut pos = 0;
        let rec = record::read_record(&buf, &mut pos).unwrap();
        prop_assert_eq!(rec.xy_pairs().unwrap(), pts);
    }

    /// Whole-library round trip with extreme (but ring-closed) boundary
    /// coordinates stays element-exact.
    #[test]
    fn extreme_boundaries_roundtrip(
        x0 in i32::MIN..=i32::MAX, y0 in i32::MIN..=i32::MAX,
        layer in 0i16..256, dt in 0i16..4,
    ) {
        let (x1, y1) = (x0 ^ 0x55aa, y0 ^ 0x2a55);
        let lib = GdsLibrary {
            name: "p".to_string(),
            unit_in_user: 1e-3,
            unit_in_m: 1e-9,
            structures: vec![GdsStructure {
                name: "s".to_string(),
                elements: vec![GdsElement::Boundary {
                    layer,
                    datatype: dt,
                    xy: vec![(x0, y0), (x1, y0), (x1, y1), (x0, y1), (x0, y0)],
                }],
            }],
        };
        let bytes = lib.to_bytes().unwrap();
        let back = GdsLibrary::from_bytes(&bytes).unwrap();
        prop_assert!(diff(&lib, &back).is_empty());
    }
}
