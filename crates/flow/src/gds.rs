//! GDS-II stream-out stage: folding a finished flow's geometry into a
//! [`prima_gds::GdsDesign`].
//!
//! Runs only under [`crate::GdsPolicy::On`], strictly after the verify and
//! ERC gates pass — the stream a caller receives is always gate-clean. Each
//! placed instance becomes its own GDS structure, drawn from the mask
//! geometry the verify gate rendered and checked (no cell is rendered
//! twice), referenced from a top structure that also carries the routed
//! track rectangles, the design outline, and one TEXT pin label per routed
//! net so layout viewers show named pins.

use prima_gds::{GdsCellDef, GdsDesign, GdsLabel, GdsPlacement};
use prima_geom::{Point, Rect};
use prima_layout::MaskLayer;
use prima_pdk::{RouteDir, Technology};
use prima_route::detail::DetailedResult;
use prima_verify::CellArtifact;

/// Resolves a rendered [`MaskLayer`] to the stack-layer name the deck's
/// layer map is keyed by. The cell renderer's M1/M2 are the two lowest
/// routing metals of the stack, whatever the deck calls them.
fn mask_layer_name(tech: &Technology, layer: MaskLayer) -> String {
    match layer {
        MaskLayer::Diffusion => "diff".to_string(),
        MaskLayer::Fin => "fin".to_string(),
        MaskLayer::Poly => "poly".to_string(),
        MaskLayer::DummyPoly => "dummy_poly".to_string(),
        MaskLayer::Boundary => "boundary".to_string(),
        MaskLayer::M1 => metal_name(tech, 0),
        MaskLayer::M2 => metal_name(tech, 1),
    }
}

fn metal_name(tech: &Technology, index: usize) -> String {
    tech.metals
        .get(index)
        .map(|m| m.name.clone())
        .unwrap_or_else(|| "boundary".to_string())
}

/// Builds the [`GdsDesign`] of a finished flow named `circuit`: one
/// structure per verified cell, in placement order, plus a top structure
/// over `bbox` with the routed tracks and one label per net of `pins`.
/// Pure assembly — every name stays in prima vocabulary; the emitter
/// resolves them through the deck's layer map.
pub(crate) fn build_design(
    tech: &Technology,
    circuit: &str,
    verified: &[CellArtifact],
    pins: &[(String, Vec<Point>)],
    bbox: Rect,
    detailed: &DetailedResult,
) -> GdsDesign {
    let mut cells = Vec::with_capacity(verified.len());
    let mut placements = Vec::with_capacity(verified.len());
    for CellArtifact {
        instance: name,
        outline,
        geometry,
    } in verified
    {
        // Flat-flow blocks and passives have no mask geometry; they become
        // outline-only structures so the hierarchy stays complete.
        match geometry {
            Some(geom) => {
                cells.push(GdsCellDef {
                    name: name.clone(),
                    rects: geom
                        .rects
                        .iter()
                        .map(|(l, r)| (mask_layer_name(tech, *l), *r))
                        .collect(),
                });
                // SREF origin maps the rendered cell's lower-left corner
                // onto the placed outline's — robust to renders whose
                // local bbox does not start at the origin.
                placements.push(GdsPlacement {
                    cell: name.clone(),
                    at: Point::new(outline.lo.x - geom.bbox.lo.x, outline.lo.y - geom.bbox.lo.y),
                });
            }
            None => {
                cells.push(GdsCellDef {
                    name: name.clone(),
                    rects: vec![(
                        "boundary".to_string(),
                        Rect::from_size(Point::new(0, 0), outline.width(), outline.height()),
                    )],
                });
                placements.push(GdsPlacement {
                    cell: name.clone(),
                    at: outline.lo,
                });
            }
        }
    }

    // Routed tracks as drawn metal rectangles: one minimum-width wire per
    // occupied track, centred on the track grid, spanning the assignment.
    let mut top_rects = vec![("boundary".to_string(), bbox)];
    for a in &detailed.assignments {
        let Some(metal) = a.layer.checked_sub(1).and_then(|i| tech.metals.get(i)) else {
            continue;
        };
        let (s0, s1) = (a.span.0.min(a.span.1), a.span.0.max(a.span.1));
        for &t in &a.tracks {
            let cross = t * metal.pitch;
            let (lo, hi) = (cross - metal.min_width / 2, cross + metal.min_width / 2);
            let rect = match metal.dir {
                RouteDir::Horizontal => Rect::new(Point::new(s0, lo), Point::new(s1, hi)),
                RouteDir::Vertical => Rect::new(Point::new(lo, s0), Point::new(hi, s1)),
            };
            top_rects.push((metal.name.clone(), rect));
        }
    }

    // One pin label per routed net, anchored at its first pin, on the
    // lowest routing metal — enough for KLayout to show named pins.
    let label_layer = metal_name(tech, 0);
    let labels = pins
        .iter()
        .filter_map(|(net, points)| {
            points.first().map(|p| GdsLabel {
                text: net.clone(),
                at: *p,
                layer: label_layer.clone(),
            })
        })
        .collect();

    GdsDesign {
        name: circuit.to_string(),
        cells,
        placements,
        top_rects,
        labels,
    }
}
