//! # prima-place
//!
//! A simulated-annealing placer for analog blocks, in the spirit of the
//! symmetry-aware placers the paper builds on (reference 18 there):
//!
//! * each block offers several **variants** — the aspect-ratio options the
//!   primitive-selection step produces — and the annealer picks positions
//!   *and* variants together;
//! * **symmetry pairs** are placed as rigid mirrored units about a shared
//!   vertical axis (differential signal paths stay matched);
//! * the cost is half-perimeter wirelength plus bounding-box area plus a
//!   steep overlap penalty that anneals to a legal placement.
//!
//! ## Example
//!
//! ```
//! use prima_place::{Block, Net, PlacementProblem, Placer};
//!
//! let mut p = PlacementProblem::new();
//! let a = p.add_block(Block::new("dp", vec![(2000, 1000), (1000, 2000)]));
//! let b = p.add_block(Block::new("cm", vec![(1500, 1000)]));
//! p.add_net(Net::new("n1", vec![a, b]));
//! let placement = Placer::new(42).place(&p).unwrap();
//! assert!(!placement.has_overlaps(&p));
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use prima_geom::{Nm, Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Errors from placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// The problem is structurally invalid.
    BadProblem {
        /// Description of the violated constraint.
        reason: String,
    },
    /// Annealing finished but overlaps remain (iteration budget too small
    /// for the instance).
    Illegal {
        /// Number of overlapping block pairs remaining.
        overlaps: usize,
    },
}

impl fmt::Display for PlaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlaceError::BadProblem { reason } => write!(f, "bad placement problem: {reason}"),
            PlaceError::Illegal { overlaps } => {
                write!(f, "placement still has {overlaps} overlapping pairs")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// A placeable block with one or more size variants (w, h) in nm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Block name.
    pub name: String,
    /// Candidate footprints (width, height) in nm; the annealer chooses one.
    pub variants: Vec<(Nm, Nm)>,
}

impl Block {
    /// Creates a block.
    ///
    /// # Panics
    ///
    /// Panics if `variants` is empty or contains a non-positive dimension.
    pub fn new(name: &str, variants: Vec<(Nm, Nm)>) -> Self {
        assert!(!variants.is_empty(), "block {name} has no variants");
        assert!(
            variants.iter().all(|&(w, h)| w > 0 && h > 0),
            "block {name} has a non-positive variant"
        );
        Block {
            name: name.to_string(),
            variants,
        }
    }
}

/// A net connecting block pins (block centers in this coarse model).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Net name.
    pub name: String,
    /// Indices of connected blocks.
    pub pins: Vec<usize>,
}

impl Net {
    /// Creates a net over block indices.
    pub fn new(name: &str, pins: Vec<usize>) -> Self {
        Net {
            name: name.to_string(),
            pins,
        }
    }
}

/// A placement problem.
#[derive(Debug, Clone, Default)]
pub struct PlacementProblem {
    blocks: Vec<Block>,
    nets: Vec<Net>,
    symmetry: Vec<(usize, usize)>,
}

impl PlacementProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a block, returning its index.
    pub fn add_block(&mut self, block: Block) -> usize {
        self.blocks.push(block);
        self.blocks.len() - 1
    }

    /// Adds a net.
    pub fn add_net(&mut self, net: Net) {
        self.nets.push(net);
    }

    /// Declares blocks `a` and `b` a symmetry pair (mirrored about a shared
    /// vertical axis, same y).
    ///
    /// # Panics
    ///
    /// Panics if the indices are equal or out of range, or if a block is
    /// already in a pair.
    pub fn add_symmetry(&mut self, a: usize, b: usize) {
        assert!(a != b, "a block cannot mirror itself");
        assert!(
            a < self.blocks.len() && b < self.blocks.len(),
            "symmetry indices out of range"
        );
        assert!(
            self.symmetry
                .iter()
                .all(|&(x, y)| x != a && y != a && x != b && y != b),
            "block already in a symmetry pair"
        );
        self.symmetry.push((a, b));
    }

    /// The blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }
}

/// A finished placement: position and chosen variant per block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Lower-left corner per block.
    pub positions: Vec<Point>,
    /// Chosen variant index per block.
    pub variants: Vec<usize>,
}

impl Placement {
    /// Rectangle of block `i` under this placement.
    pub fn rect(&self, problem: &PlacementProblem, i: usize) -> Rect {
        let (w, h) = problem.blocks[i].variants[self.variants[i]];
        Rect::from_size(self.positions[i], w, h)
    }

    /// Bounding box over all blocks.
    pub fn bbox(&self, problem: &PlacementProblem) -> Rect {
        let mut bb = self.rect(problem, 0);
        for i in 1..problem.blocks.len() {
            bb = bb.union(&self.rect(problem, i));
        }
        bb
    }

    /// Total half-perimeter wirelength over all nets (nm).
    pub fn hpwl(&self, problem: &PlacementProblem) -> Nm {
        problem
            .nets
            .iter()
            .map(|net| {
                if net.pins.len() < 2 {
                    return 0;
                }
                let mut bb: Option<Rect> = None;
                for &p in &net.pins {
                    let c = self.rect(problem, p).center();
                    let r = Rect::new(c, c);
                    bb = Some(match bb {
                        Some(b) => b.union(&r),
                        None => r,
                    });
                }
                bb.map(|b| b.half_perimeter()).unwrap_or(0)
            })
            .sum()
    }

    /// Number of overlapping block pairs.
    pub fn overlap_pairs(&self, problem: &PlacementProblem) -> usize {
        let n = problem.blocks.len();
        let mut count = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if self.rect(problem, i).overlaps(&self.rect(problem, j)) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Returns `true` when any two blocks overlap.
    pub fn has_overlaps(&self, problem: &PlacementProblem) -> bool {
        self.overlap_pairs(problem) > 0
    }

    /// Checks the symmetry constraints: paired blocks share y and are
    /// mirrored about a common axis (within `tol` nm).
    pub fn respects_symmetry(&self, problem: &PlacementProblem, tol: Nm) -> bool {
        problem.symmetry.iter().all(|&(a, b)| {
            let ra = self.rect(problem, a);
            let rb = self.rect(problem, b);
            if (ra.lo.y - rb.lo.y).abs() > tol {
                return false;
            }
            // Mirrored: the pair's centers are equidistant from their common
            // midpoint by construction; sizes must match for a true mirror.
            (ra.width() - rb.width()).abs() <= tol && (ra.height() - rb.height()).abs() <= tol
        })
    }
}

/// Moves per temperature step (at least; scaled up with the block count).
const MOVES_PER_TEMP: usize = 300;
/// Number of temperature steps.
const TEMP_STEPS: usize = 120;
/// Initial temperature (cost units).
const T0: f64 = 1e7;
/// Geometric cooling factor per step.
const COOLING: f64 = 0.92;
/// Weight of bounding-box area against wirelength.
const AREA_WEIGHT: f64 = 0.5;

/// Simulated-annealing placer.
#[derive(Debug, Clone)]
pub struct Placer {
    seed: u64,
}

impl Placer {
    /// Creates a placer with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Placer { seed }
    }

    /// Runs the annealer.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::BadProblem`] for empty problems or symmetry
    /// pairs whose variants cannot mirror (different sizes in every
    /// combination), and [`PlaceError::Illegal`] when overlaps survive the
    /// schedule.
    pub fn place(&self, problem: &PlacementProblem) -> Result<Placement, PlaceError> {
        let n = problem.blocks.len();
        if n == 0 {
            return Err(PlaceError::BadProblem {
                reason: "no blocks".to_string(),
            });
        }
        let mut pair_variants = Vec::with_capacity(problem.symmetry.len());
        for &(a, b) in &problem.symmetry {
            match matching_variants(problem, a, b) {
                Some(v) => pair_variants.push((a, b, v)),
                None => {
                    return Err(PlaceError::BadProblem {
                        reason: format!(
                            "symmetry pair ({}, {}) has no matching variant sizes",
                            problem.blocks[a].name, problem.blocks[b].name
                        ),
                    })
                }
            }
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        // Scale the move budget with the instance count: variant-rich,
        // many-block problems need proportionally more exploration.
        let moves_per_temp = MOVES_PER_TEMP.max(60 * n);

        // Initial placement: blocks on a diagonal-ish grid, variant 0 (or
        // the first mirror-compatible variant for pairs).
        let grid: Nm = problem
            .blocks
            .iter()
            .flat_map(|b| b.variants.iter().map(|&(w, h)| w.max(h)))
            .max()
            .unwrap_or(1000)
            + 200;
        let cols = (n as f64).sqrt().ceil() as usize;
        let mut state = Placement {
            positions: (0..n)
                .map(|i| Point::new((i % cols) as Nm * grid, (i / cols) as Nm * grid))
                .collect(),
            variants: vec![0; n],
        };
        for &(a, b, (va, vb)) in &pair_variants {
            state.variants[a] = va;
            state.variants[b] = vb;
            self.enforce_pair(problem, &mut state, a, b);
        }

        let mut cost = self.cost(problem, &state);
        let mut best = state.clone();
        let mut best_cost = cost;
        let mut temp = T0;

        for _ in 0..TEMP_STEPS {
            for _ in 0..moves_per_temp {
                let candidate = self.propose(problem, &state, &mut rng, grid);
                let c = self.cost(problem, &candidate);
                let accept = c <= cost || {
                    let p = ((cost - c) / temp).exp();
                    rng.gen::<f64>() < p
                };
                if accept {
                    state = candidate;
                    cost = c;
                    if c < best_cost {
                        best = state.clone();
                        best_cost = c;
                    }
                }
            }
            temp *= COOLING;
        }

        let overlaps = best.overlap_pairs(problem);
        if overlaps > 0 {
            return Err(PlaceError::Illegal { overlaps });
        }
        Ok(best)
    }

    /// Annealing cost: HPWL + area + overlap penalty.
    fn cost(&self, problem: &PlacementProblem, p: &Placement) -> f64 {
        let hpwl = p.hpwl(problem) as f64;
        let bb = p.bbox(problem);
        let area = (bb.width() as f64) * (bb.height() as f64);
        // Overlap penalty proportional to overlapping area, steep.
        let mut overlap = 0.0;
        let n = problem.blocks.len();
        for i in 0..n {
            for j in (i + 1)..n {
                if let Some(x) = p.rect(problem, i).intersection(&p.rect(problem, j)) {
                    overlap += (x.width() as f64) * (x.height() as f64);
                }
            }
        }
        hpwl + AREA_WEIGHT * area.sqrt() + 50.0 * overlap.sqrt() * (1.0 + overlap.sqrt())
    }

    /// Proposes a random move, preserving symmetry pairs.
    fn propose(
        &self,
        problem: &PlacementProblem,
        state: &Placement,
        rng: &mut StdRng,
        grid: Nm,
    ) -> Placement {
        let mut cand = state.clone();
        let n = problem.blocks.len();
        let kind = rng.gen_range(0..4);
        let i = rng.gen_range(0..n);
        match kind {
            // Displace.
            0 => {
                let dx = rng.gen_range(-2 * grid..=2 * grid);
                let dy = rng.gen_range(-2 * grid..=2 * grid);
                cand.positions[i] = cand.positions[i].offset(dx, dy);
            }
            // Swap positions of two blocks.
            1 => {
                let j = rng.gen_range(0..n);
                cand.positions.swap(i, j);
            }
            // Change variant.
            2 => {
                let nv = problem.blocks[i].variants.len();
                if nv > 1 {
                    cand.variants[i] = rng.gen_range(0..nv);
                }
            }
            // Small jitter for refinement.
            _ => {
                let dx = rng.gen_range(-grid / 4..=grid / 4);
                let dy = rng.gen_range(-grid / 4..=grid / 4);
                cand.positions[i] = cand.positions[i].offset(dx, dy);
            }
        }
        // Re-impose symmetry for any touched pair.
        for &(a, b) in &problem.symmetry {
            if let Some((va, vb)) = matching_variants_including(problem, a, b, cand.variants[a]) {
                cand.variants[a] = va;
                cand.variants[b] = vb;
            }
            self.enforce_pair(problem, &mut cand, a, b);
        }
        cand
    }

    /// Places `b` as the mirror of `a` about the axis at their midpoint,
    /// sharing y.
    fn enforce_pair(&self, problem: &PlacementProblem, p: &mut Placement, a: usize, b: usize) {
        let (wa, _) = problem.blocks[a].variants[p.variants[a]];
        // b abuts a to the right with a one-pitch gap, same y: a rigid
        // mirrored unit whose internal axis sits between the two blocks.
        let gap = 200;
        p.positions[b] = Point::new(p.positions[a].x + wa + gap, p.positions[a].y);
    }
}

/// First variant pair of equal size shared by blocks `a` and `b`.
fn matching_variants(problem: &PlacementProblem, a: usize, b: usize) -> Option<(usize, usize)> {
    for (ia, va) in problem.blocks[a].variants.iter().enumerate() {
        if let Some(ib) = problem.blocks[b].variants.iter().position(|vb| vb == va) {
            return Some((ia, ib));
        }
    }
    None
}

/// Matching variant pair preferring `want_a` for block `a`.
fn matching_variants_including(
    problem: &PlacementProblem,
    a: usize,
    b: usize,
    want_a: usize,
) -> Option<(usize, usize)> {
    let va = problem.blocks[a].variants[want_a];
    if let Some(ib) = problem.blocks[b].variants.iter().position(|vb| *vb == va) {
        return Some((want_a, ib));
    }
    matching_variants(problem, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_block_problem() -> PlacementProblem {
        let mut p = PlacementProblem::new();
        let a = p.add_block(Block::new("a", vec![(2000, 1000), (1000, 2000)]));
        let b = p.add_block(Block::new("b", vec![(1500, 1200)]));
        let c = p.add_block(Block::new("c", vec![(800, 800)]));
        p.add_net(Net::new("n1", vec![a, b]));
        p.add_net(Net::new("n2", vec![b, c]));
        p.add_net(Net::new("n3", vec![a, c]));
        p
    }

    #[test]
    fn places_without_overlap() {
        let p = three_block_problem();
        let placement = Placer::new(1).place(&p).unwrap();
        assert!(!placement.has_overlaps(&p));
        assert!(placement.hpwl(&p) > 0);
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let p = three_block_problem();
        let a = Placer::new(7).place(&p).unwrap();
        let b = Placer::new(7).place(&p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn symmetry_pairs_stay_mirrored() {
        let mut p = PlacementProblem::new();
        let a = p.add_block(Block::new("dpl", vec![(1000, 800)]));
        let b = p.add_block(Block::new("dpr", vec![(1000, 800)]));
        let c = p.add_block(Block::new("cm", vec![(1200, 900)]));
        p.add_net(Net::new("n1", vec![a, c]));
        p.add_net(Net::new("n2", vec![b, c]));
        p.add_symmetry(a, b);
        let placement = Placer::new(3).place(&p).unwrap();
        assert!(!placement.has_overlaps(&p));
        assert!(placement.respects_symmetry(&p, 1));
        // Same y, adjacent x.
        assert_eq!(
            placement.positions[a].y, placement.positions[b].y,
            "pair shares a row"
        );
    }

    #[test]
    fn annealer_uses_variants_to_shrink() {
        // Two long blocks fit much better when one rotates; the annealer
        // should find a compact arrangement using variants.
        let mut p = PlacementProblem::new();
        let a = p.add_block(Block::new("a", vec![(4000, 500), (500, 4000)]));
        let b = p.add_block(Block::new("b", vec![(4000, 500), (500, 4000)]));
        p.add_net(Net::new("n", vec![a, b]));
        let placement = Placer::new(11).place(&p).unwrap();
        assert!(!placement.has_overlaps(&p));
        let bb = placement.bbox(&p);
        // Worst case (both horizontal, stacked diagonally) is ~8000 wide;
        // any sensible packing is far smaller in area.
        assert!(bb.area() < 8000 * 8000, "bounding box {bb} too large");
    }

    #[test]
    fn empty_problem_is_rejected() {
        let p = PlacementProblem::new();
        assert!(matches!(
            Placer::new(0).place(&p),
            Err(PlaceError::BadProblem { .. })
        ));
    }

    #[test]
    fn symmetry_without_matching_variants_is_rejected() {
        let mut p = PlacementProblem::new();
        let a = p.add_block(Block::new("a", vec![(1000, 800)]));
        let b = p.add_block(Block::new("b", vec![(900, 700)]));
        p.add_symmetry(a, b);
        assert!(matches!(
            Placer::new(0).place(&p),
            Err(PlaceError::BadProblem { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "cannot mirror itself")]
    fn self_symmetry_panics() {
        let mut p = PlacementProblem::new();
        let a = p.add_block(Block::new("a", vec![(1000, 800)]));
        p.add_symmetry(a, a);
    }

    #[test]
    fn hpwl_matches_hand_computation() {
        let mut p = PlacementProblem::new();
        let a = p.add_block(Block::new("a", vec![(100, 100)]));
        let b = p.add_block(Block::new("b", vec![(100, 100)]));
        p.add_net(Net::new("n", vec![a, b]));
        let placement = Placement {
            positions: vec![Point::new(0, 0), Point::new(300, 400)],
            variants: vec![0, 0],
        };
        // Centers at (50,50) and (350,450): HPWL = 300 + 400.
        assert_eq!(placement.hpwl(&p), 700);
    }
}

#[cfg(test)]
mod negative_tests {
    use super::*;

    #[test]
    fn respects_symmetry_detects_violations() {
        let mut p = PlacementProblem::new();
        let a = p.add_block(Block::new("a", vec![(1000, 800)]));
        let b = p.add_block(Block::new("b", vec![(1000, 800)]));
        p.add_symmetry(a, b);
        // Different y rows: violated.
        let bad = Placement {
            positions: vec![Point::new(0, 0), Point::new(2000, 500)],
            variants: vec![0, 0],
        };
        assert!(!bad.respects_symmetry(&p, 1));
        // Same row: satisfied.
        let good = Placement {
            positions: vec![Point::new(0, 0), Point::new(2000, 0)],
            variants: vec![0, 0],
        };
        assert!(good.respects_symmetry(&p, 1));
    }

    #[test]
    #[should_panic(expected = "already in a symmetry pair")]
    fn double_pairing_panics() {
        let mut p = PlacementProblem::new();
        let a = p.add_block(Block::new("a", vec![(1000, 800)]));
        let b = p.add_block(Block::new("b", vec![(1000, 800)]));
        let c = p.add_block(Block::new("c", vec![(1000, 800)]));
        p.add_symmetry(a, b);
        p.add_symmetry(a, c);
    }

    #[test]
    fn hpwl_ignores_single_pin_nets() {
        let mut p = PlacementProblem::new();
        let a = p.add_block(Block::new("a", vec![(100, 100)]));
        p.add_net(Net::new("dangling", vec![a]));
        let placement = Placement {
            positions: vec![Point::new(0, 0)],
            variants: vec![0],
        };
        assert_eq!(placement.hpwl(&p), 0);
    }
}
