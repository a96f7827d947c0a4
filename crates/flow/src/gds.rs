//! GDS-II stream-out stage: folding a finished flow's geometry into a
//! [`prima_gds::GdsDesign`] and serializing it.
//!
//! Runs only under [`crate::GdsPolicy::On`], strictly after the verify and
//! ERC gates pass — the stream a caller receives is always gate-clean. Each
//! placed instance becomes its own GDS structure (re-rendered mask geometry
//! via [`prima_layout::render()`], the same drawn rectangles the DRC pass
//! checked), referenced from a top structure that also carries the routed
//! track rectangles, the design outline, and one TEXT pin label per routed
//! net so layout viewers show named pins.

use std::collections::BTreeMap;

use prima_gds::{stream_out, GdsArtifact, GdsCellDef, GdsDesign, GdsLabel, GdsPlacement};
use prima_geom::{Point, Rect};
use prima_layout::{render, MaskLayer, PrimitiveLayout};
use prima_pdk::{RouteDir, Technology};
use prima_primitives::Library;
use prima_route::detail::DetailedResult;

use crate::circuits::CircuitSpec;
use crate::FlowError;

/// Everything the stream-out stage reads, borrowed from the flow's
/// success path just before the outcome is assembled.
pub(crate) struct GdsCtx<'a> {
    pub tech: &'a Technology,
    pub lib: &'a Library,
    pub spec: &'a CircuitSpec,
    /// Chosen layout variant per instance (empty for the flat flow).
    pub chosen: &'a BTreeMap<String, PrimitiveLayout>,
    /// Placed outline per block, in placement order.
    pub rects: &'a [(String, Rect)],
    /// Pin positions per routed net.
    pub pins: &'a [(String, Vec<Point>)],
    /// Placement bounding box (the top-structure outline).
    pub bbox: Rect,
    /// Detailed-routing track assignment.
    pub detailed: &'a DetailedResult,
}

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

/// Builds the [`GdsDesign`] for a finished flow. Pure assembly — every
/// name stays in prima vocabulary; the emitter resolves them through the
/// deck's layer map.
pub(crate) fn build_design(ctx: &GdsCtx<'_>) -> GdsDesign {
    let mut cells = Vec::with_capacity(ctx.rects.len());
    let mut placements = Vec::with_capacity(ctx.rects.len());
    for (name, outline) in ctx.rects {
        // Re-render the chosen variant's mask geometry (the verify gate's
        // idiom). Flat-flow blocks and passives have none; they become
        // outline-only structures so the hierarchy stays complete.
        let geometry = ctx
            .spec
            .instances
            .iter()
            .find(|i| &i.name == name)
            .and_then(|inst| {
                ctx.chosen.get(name).and_then(|layout| {
                    ctx.lib
                        .get(&inst.def)
                        .and_then(|def| render(ctx.tech, &def.spec, &layout.config).ok())
                })
            });
        match geometry {
            Some(geom) => {
                cells.push(GdsCellDef {
                    name: name.clone(),
                    rects: geom
                        .rects
                        .iter()
                        .map(|(l, r)| (mask_layer_name(ctx.tech, *l), *r))
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
    let mut top_rects = vec![("boundary".to_string(), ctx.bbox)];
    for a in &ctx.detailed.assignments {
        let Some(metal) = a.layer.checked_sub(1).and_then(|i| ctx.tech.metals.get(i)) else {
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
    let label_layer = metal_name(ctx.tech, 0);
    let labels = ctx
        .pins
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
        name: ctx.spec.name.clone(),
        cells,
        placements,
        top_rects,
        labels,
    }
}

/// Builds and serializes the design, wrapping emitter failures in
/// [`FlowError::Gds`].
pub(crate) fn stream_out_stage(ctx: &GdsCtx<'_>) -> Result<GdsArtifact, FlowError> {
    stream_out(ctx.tech, &build_design(ctx)).map_err(FlowError::Gds)
}
