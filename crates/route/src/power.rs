//! Power-grid synthesis and IR-drop estimation.
//!
//! The paper routes power manually and folds the resulting IR drop into
//! every evaluated layout (§IV). This module plays that role: straps of a
//! chosen layer are drawn across the placement at a fixed pitch, each block
//! taps the nearest strap, and the worst-case IR drop is estimated from
//! the per-block supply currents — yielding the effective series
//! resistance the circuit-level testbenches place in the rail.

use prima_geom::{Nm, Rect};
use prima_pdk::Technology;

/// Power-grid construction parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowerGridSpec {
    /// Strap metal layer (1-based; typically a thick upper layer).
    pub layer: usize,
    /// Vertical pitch between straps (nm).
    pub strap_pitch: Nm,
    /// Width of each strap in routing tracks (parallel min-width wires).
    pub strap_tracks: u32,
}

impl PowerGridSpec {
    /// Grid parameters adapted to a deck: 4-track straps at a 3 µm pitch on
    /// the node's topmost routing layer, capped at layer 6 (so a
    /// SKY130-style five-layer stack straps on its real top layer).
    pub fn for_tech(tech: &Technology) -> Self {
        PowerGridSpec {
            layer: tech.metal_count().clamp(1, 6),
            strap_pitch: 3000,
            strap_tracks: 4,
        }
    }
}

/// Result of synthesizing a power grid over a placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReport {
    /// Number of horizontal straps drawn.
    pub strap_count: usize,
    /// Total strap wirelength (nm).
    pub strap_length_nm: Nm,
    /// Worst block IR drop (V).
    pub worst_drop_v: f64,
    /// Effective series resistance seen by the whole circuit (Ω):
    /// worst drop divided by total current.
    pub effective_r_ohm: f64,
    /// Y coordinate of every strap row (chip coordinates, nm). Strap rows
    /// carry the supply and the well/substrate taps, so they double as the
    /// tap rows the ERC well-tap-distance check measures against.
    pub strap_rows: Vec<Nm>,
    /// Static IR drop (V) per input block, in `blocks` order — the
    /// per-instance numbers behind `worst_drop_v`.
    pub block_drops: Vec<f64>,
}

/// Synthesizes the grid and estimates IR drop.
///
/// `blocks` pairs each placed block rectangle with its supply current (A).
/// The supply pad is assumed at the placement's left edge, so a block's
/// feed resistance grows with its x-position; blocks between two straps
/// share them.
///
/// # Panics
///
/// Panics if `spec.strap_tracks` is zero or `spec.layer` is not in the
/// stack.
pub fn synthesize(
    tech: &Technology,
    placement_bbox: Rect,
    blocks: &[(Rect, f64)],
    spec: &PowerGridSpec,
) -> PowerReport {
    assert!(spec.strap_tracks > 0, "straps need at least one track");
    let layer = tech.metal(spec.layer);
    let width = placement_bbox.width().max(1);
    let height = placement_bbox.height().max(1);
    let strap_count = (height / spec.strap_pitch).max(1) as usize + 1;
    let strap_length_nm = width * strap_count as Nm;

    let strap_rows: Vec<Nm> = (0..strap_count)
        .map(|i| placement_bbox.lo.y + i as Nm * spec.strap_pitch)
        .collect();

    let total_current: f64 = blocks.iter().map(|(_, i)| i).sum();
    let mut worst_drop: f64 = 0.0;
    let mut block_drops = Vec::with_capacity(blocks.len());
    for (rect, current) in blocks {
        // Distance from the left-edge pad to the block's center along the
        // strap; blocks straddling strap rows split their current over the
        // two nearest straps.
        let x_dist = (rect.center().x - placement_bbox.lo.x).max(0);
        let sharing = if strap_count > 1 { 2.0 } else { 1.0 };
        let r_feed = layer.resistance(x_dist, spec.strap_tracks) / sharing;
        // Everyone upstream of this block also pulls through the shared
        // trunk: approximate with half the total current over half the
        // feed (uniform draw along the strap).
        let drop = current * r_feed + 0.5 * (total_current - current) * r_feed * 0.5;
        block_drops.push(drop);
        worst_drop = worst_drop.max(drop);
    }
    let effective_r = if total_current > 0.0 {
        worst_drop / total_current
    } else {
        0.0
    };
    PowerReport {
        strap_count,
        strap_length_nm,
        worst_drop_v: worst_drop,
        effective_r_ohm: effective_r.max(0.05),
        strap_rows,
        block_drops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_geom::Point;

    fn tech() -> Technology {
        Technology::finfet7()
    }

    fn bbox() -> Rect {
        Rect::from_size(Point::new(0, 0), 12_000, 9_000)
    }

    #[test]
    fn straps_cover_the_placement() {
        let t = tech();
        let r = synthesize(&t, bbox(), &[], &PowerGridSpec::for_tech(&t));
        assert_eq!(r.strap_count, 4); // 9000/3000 + 1
        assert_eq!(r.strap_length_nm, 48_000);
        assert_eq!(r.worst_drop_v, 0.0);
        assert_eq!(r.strap_rows, vec![0, 3000, 6000, 9000]);
        assert!(r.block_drops.is_empty());
    }

    #[test]
    fn farther_blocks_drop_more() {
        let t = tech();
        let near = vec![(Rect::from_size(Point::new(500, 0), 1000, 1000), 1e-3)];
        let far = vec![(Rect::from_size(Point::new(10_000, 0), 1000, 1000), 1e-3)];
        let spec = PowerGridSpec::for_tech(&t);
        let rn = synthesize(&t, bbox(), &near, &spec);
        let rf = synthesize(&t, bbox(), &far, &spec);
        assert!(rf.worst_drop_v > rn.worst_drop_v);
        assert!(rf.effective_r_ohm > rn.effective_r_ohm);
    }

    #[test]
    fn wider_straps_reduce_drop() {
        let t = tech();
        let blocks = vec![(Rect::from_size(Point::new(8_000, 2_000), 1000, 1000), 2e-3)];
        let thin = synthesize(
            &t,
            bbox(),
            &blocks,
            &PowerGridSpec {
                strap_tracks: 1,
                ..PowerGridSpec::for_tech(&t)
            },
        );
        let wide = synthesize(
            &t,
            bbox(),
            &blocks,
            &PowerGridSpec {
                strap_tracks: 8,
                ..PowerGridSpec::for_tech(&t)
            },
        );
        assert!(wide.worst_drop_v < thin.worst_drop_v / 4.0);
    }

    #[test]
    fn more_current_more_drop() {
        let t = tech();
        let spec = PowerGridSpec::for_tech(&t);
        let lo = synthesize(
            &t,
            bbox(),
            &[(Rect::from_size(Point::new(6_000, 0), 1000, 1000), 100e-6)],
            &spec,
        );
        let hi = synthesize(
            &t,
            bbox(),
            &[(Rect::from_size(Point::new(6_000, 0), 1000, 1000), 1e-3)],
            &spec,
        );
        assert!(hi.worst_drop_v > 5.0 * lo.worst_drop_v);
        // Effective R is current-normalized, so it stays put.
        assert!((hi.effective_r_ohm / lo.effective_r_ohm - 1.0).abs() < 0.3);
    }

    #[test]
    fn for_tech_follows_the_stack() {
        // Six-metal nodes keep the thick top layer; a five-layer SKY130-ish
        // stack clamps to its real top instead of panicking mid-flow.
        assert_eq!(PowerGridSpec::for_tech(&Technology::finfet7()).layer, 6);
        let sky = Technology::sky130ish();
        let spec = PowerGridSpec::for_tech(&sky);
        assert_eq!(spec.layer, 5);
        let r = synthesize(&sky, bbox(), &[], &spec);
        assert!(r.strap_count > 0);
    }

    #[test]
    #[should_panic(expected = "at least one track")]
    fn zero_tracks_rejected() {
        let t = tech();
        let _ = synthesize(
            &t,
            bbox(),
            &[],
            &PowerGridSpec {
                strap_tracks: 0,
                ..PowerGridSpec::for_tech(&t)
            },
        );
    }
}
