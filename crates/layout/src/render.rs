//! Mask-geometry rendering of generated cells: the actual rectangles a
//! layout viewer would show (diffusion, fins, poly, dummies, M1 stubs, M2
//! trunks), plus an SVG export for quick visual inspection.
//!
//! The electrical path ([`crate::generate`]) reduces geometry to parasitics
//! and LDE parameters; this module draws the shapes on the same validated
//! cell frame, so the masks the DRC gate checks and the parasitics the
//! testbenches simulate describe one cell.

use prima_geom::{Nm, Point, Rect};
use prima_pdk::Technology;

use crate::cell::{frame, CellConfig, Frame, LayoutError, PrimitiveSpec};

/// Drawn mask layers of a rendered cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaskLayer {
    /// Active diffusion region.
    Diffusion,
    /// Fin lines.
    Fin,
    /// Transistor gates.
    Poly,
    /// Dummy (tied-off) gates at the row ends.
    DummyPoly,
    /// Local interconnect stubs.
    M1,
    /// Mesh trunk straps.
    M2,
    /// Cell boundary.
    Boundary,
}

/// A rendered cell: rectangles per mask layer.
#[derive(Debug, Clone, PartialEq)]
pub struct CellGeometry {
    /// Cell bounding box.
    pub bbox: Rect,
    /// All rectangles, in drawing order.
    pub rects: Vec<(MaskLayer, Rect)>,
}

impl CellGeometry {
    /// Number of rectangles on one layer.
    pub fn count(&self, layer: MaskLayer) -> usize {
        self.rects.iter().filter(|(l, _)| *l == layer).count()
    }

    /// Iterates rectangles of one layer.
    pub fn layer(&self, layer: MaskLayer) -> impl Iterator<Item = &Rect> {
        self.rects
            .iter()
            .filter(move |(l, _)| *l == layer)
            .map(|(_, r)| r)
    }

    /// Renders the cell as a standalone SVG document (1 nm = 0.02 px).
    pub fn to_svg(&self) -> String {
        const SCALE: f64 = 0.02;
        let w = self.bbox.width() as f64 * SCALE;
        let h = self.bbox.height() as f64 * SCALE;
        let mut out = format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w:.1}\" height=\"{h:.1}\" \
             viewBox=\"0 0 {w:.1} {h:.1}\">\n"
        );
        for (layer, r) in &self.rects {
            let (fill, opacity) = match layer {
                MaskLayer::Diffusion => ("#3c8d40", 0.5),
                MaskLayer::Fin => ("#1b5e20", 0.9),
                MaskLayer::Poly => ("#c62828", 0.8),
                MaskLayer::DummyPoly => ("#8d6e63", 0.6),
                MaskLayer::M1 => ("#1565c0", 0.6),
                MaskLayer::M2 => ("#6a1b9a", 0.5),
                MaskLayer::Boundary => ("none", 1.0),
            };
            let stroke = if *layer == MaskLayer::Boundary {
                " stroke=\"#000\" stroke-width=\"0.5\""
            } else {
                ""
            };
            // SVG y axis points down; flip.
            let x = r.lo.x as f64 * SCALE;
            let y = (self.bbox.hi.y - r.hi.y) as f64 * SCALE;
            let rw = r.width() as f64 * SCALE;
            let rh = r.height() as f64 * SCALE;
            out.push_str(&format!(
                "  <rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{rw:.2}\" height=\"{rh:.2}\" \
                 fill=\"{fill}\" fill-opacity=\"{opacity}\"{stroke}/>\n"
            ));
        }
        out.push_str("</svg>\n");
        out
    }
}

/// Renders the drawn geometry of a primitive cell configuration.
///
/// # Errors
///
/// Same validation as [`crate::generate`], on the same frame: zero
/// structural parameters, an empty device list or a zero device ratio are
/// rejected.
pub fn render(
    tech: &Technology,
    spec: &PrimitiveSpec,
    cfg: &CellConfig,
) -> Result<CellGeometry, LayoutError> {
    let Frame {
        dummy_cols,
        n_cols,
        row_height,
        bbox,
        ..
    } = frame(tech, spec, cfg)?;
    let fin = &tech.fin;

    let mut rects: Vec<(MaskLayer, Rect)> = vec![(MaskLayer::Boundary, bbox)];
    let x0 = fin.cell_width_overhead / 2;
    let diff_h = cfg.nfin as Nm * fin.fin_pitch;

    for row in 0..cfg.m as Nm {
        let y0 = row * row_height + fin.cell_height_overhead / 2;
        // One continuous diffusion strip per row (dummies extend it).
        rects.push((
            MaskLayer::Diffusion,
            Rect::from_size(
                Point::new(x0 - fin.diff_extension, y0),
                n_cols as Nm * fin.poly_pitch + 2 * fin.diff_extension,
                diff_h,
            ),
        ));
        // Fins.
        for k in 0..cfg.nfin as Nm {
            rects.push((
                MaskLayer::Fin,
                Rect::from_size(
                    Point::new(
                        x0 - fin.diff_extension,
                        y0 + k * fin.fin_pitch + (fin.fin_pitch - fin.fin_width) / 2,
                    ),
                    n_cols as Nm * fin.poly_pitch + 2 * fin.diff_extension,
                    fin.fin_width,
                ),
            ));
        }
        // Gates and stubs.
        for col in 0..n_cols {
            let is_dummy = col < dummy_cols || col >= n_cols - dummy_cols;
            let gx = x0 + col as Nm * fin.poly_pitch + (fin.poly_pitch - fin.gate_length) / 2;
            rects.push((
                if is_dummy {
                    MaskLayer::DummyPoly
                } else {
                    MaskLayer::Poly
                },
                Rect::from_size(
                    Point::new(gx, y0 - fin.diff_extension),
                    fin.gate_length,
                    diff_h + 2 * fin.diff_extension,
                ),
            ));
            if !is_dummy {
                // M1 stub over the source/drain region right of the gate.
                let sx = gx + fin.gate_length + 2;
                rects.push((
                    MaskLayer::M1,
                    Rect::from_size(Point::new(sx, y0), tech.metal(1).min_width, diff_h / 2),
                ));
            }
        }
        // M2 trunks: one strap per net track at the top of the row.
        let n_nets = spec.nets().len() as Nm;
        for t in 0..n_nets {
            let ty = y0 + diff_h + t * tech.metal(2).pitch / 2;
            if ty + tech.metal(2).min_width <= (row + 1) * row_height {
                rects.push((
                    MaskLayer::M2,
                    Rect::from_size(
                        Point::new(x0, ty),
                        n_cols as Nm * fin.poly_pitch,
                        tech.metal(2).min_width,
                    ),
                ));
            }
        }
    }

    Ok(CellGeometry { bbox, rects })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{DeviceSpec, PlacementPattern};
    use prima_spice::devices::FetPolarity;

    fn dp_spec() -> PrimitiveSpec {
        PrimitiveSpec::new(
            "dp",
            vec![
                DeviceSpec::new("MA", FetPolarity::Nmos, "da", "ga", "s"),
                DeviceSpec::new("MB", FetPolarity::Nmos, "db", "gb", "s"),
            ],
        )
    }

    #[test]
    fn rendered_counts_match_configuration() {
        let tech = Technology::finfet7();
        let cfg = CellConfig::new(8, 6, 2, PlacementPattern::Abba);
        let g = render(&tech, &dp_spec(), &cfg).unwrap();
        // 12 real gates per row × 2 rows.
        assert_eq!(g.count(MaskLayer::Poly), 24);
        // 4 dummies per row (2 each end).
        assert_eq!(g.count(MaskLayer::DummyPoly), 8);
        // 8 fins per row × 2 rows.
        assert_eq!(g.count(MaskLayer::Fin), 16);
        // One diffusion strip per row.
        assert_eq!(g.count(MaskLayer::Diffusion), 2);
        // One M1 stub per real gate.
        assert_eq!(g.count(MaskLayer::M1), 24);
    }

    #[test]
    fn all_geometry_stays_inside_the_cell() {
        let tech = Technology::finfet7();
        let cfg = CellConfig::new(12, 8, 3, PlacementPattern::Abab);
        let g = render(&tech, &dp_spec(), &cfg).unwrap();
        let outer = g.bbox.expand(tech.fin.diff_extension + 2);
        for (layer, r) in &g.rects {
            assert!(
                outer.contains(r.lo) && outer.contains(r.hi),
                "{layer:?} rect {r} escapes the cell {outer}"
            );
        }
    }

    #[test]
    fn bbox_matches_generate() {
        let tech = Technology::finfet7();
        let cfg = CellConfig::new(8, 20, 6, PlacementPattern::Abba);
        let g = render(&tech, &dp_spec(), &cfg).unwrap();
        let l = crate::generate(&tech, &dp_spec(), &cfg).unwrap();
        assert_eq!(g.bbox, l.bbox, "renderer and extractor disagree on size");
    }

    #[test]
    fn zero_ratio_is_rejected_by_generate_and_render() {
        // A zero-ratio device has no columns; both views refuse the cell
        // rather than one of them drawing it without that device.
        let tech = Technology::finfet7();
        let spec = PrimitiveSpec::new(
            "cm0",
            vec![
                DeviceSpec::new("MREF", FetPolarity::Nmos, "in", "in", "vss"),
                DeviceSpec::with_ratio("MOUT", FetPolarity::Nmos, "out", "in", "vss", 0),
            ],
        );
        let cfg = CellConfig::new(4, 4, 1, PlacementPattern::Abba);
        assert!(matches!(
            crate::generate(&tech, &spec, &cfg),
            Err(LayoutError::BadConfig { .. })
        ));
        assert!(matches!(
            render(&tech, &spec, &cfg),
            Err(LayoutError::BadConfig { .. })
        ));
    }

    #[test]
    fn gates_sit_on_the_poly_grid() {
        let tech = Technology::finfet7();
        let cfg = CellConfig::new(4, 4, 1, PlacementPattern::Aabb);
        let g = render(&tech, &dp_spec(), &cfg).unwrap();
        let offset =
            tech.fin.cell_width_overhead / 2 + (tech.fin.poly_pitch - tech.fin.gate_length) / 2;
        for r in g.layer(MaskLayer::Poly) {
            assert_eq!(
                (r.lo.x - offset) % tech.fin.poly_pitch,
                0,
                "gate at {} off grid",
                r.lo.x
            );
            assert_eq!(r.width(), tech.fin.gate_length);
        }
    }

    #[test]
    fn svg_export_is_wellformed() {
        let tech = Technology::finfet7();
        let cfg = CellConfig::new(8, 6, 1, PlacementPattern::Abba);
        let g = render(&tech, &dp_spec(), &cfg).unwrap();
        let svg = g.to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<rect").count(), g.rects.len());
        assert!(svg.contains("#c62828"), "poly color present");
    }

    #[test]
    fn invalid_configs_rejected() {
        let tech = Technology::finfet7();
        assert!(render(
            &tech,
            &dp_spec(),
            &CellConfig::new(0, 4, 1, PlacementPattern::Abba)
        )
        .is_err());
        let empty = PrimitiveSpec::new("none", vec![]);
        assert!(render(
            &tech,
            &empty,
            &CellConfig::new(4, 4, 1, PlacementPattern::Abba)
        )
        .is_err());
    }
}
