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
//! A move is applied in place and re-scores only the blocks it moves: at
//! most four, the drawn block, a swap partner and their symmetry partners.
//! The annealer caches each block's rect, each net's HPWL and the overlap
//! total, so a move costs O(k·n) for k ≤ 4 moved blocks instead of an
//! O(n²) re-score of a cloned placement; a rejected move is undone from
//! its record. The overlap total is an exact integer, which equals the
//! f64 sum of the per-pair areas bit for bit while it stays below 2^53
//! nm², so every move is accepted or rejected exactly as a full re-score
//! would decide.
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

    /// Bounding box over all blocks (`Rect::default()` when there are
    /// none).
    pub fn bbox(&self, problem: &PlacementProblem) -> Rect {
        bounding_box((0..problem.blocks.len()).map(|i| self.rect(problem, i)))
    }

    /// Total half-perimeter wirelength over all nets (nm).
    pub fn hpwl(&self, problem: &PlacementProblem) -> Nm {
        problem
            .nets
            .iter()
            .map(|net| net_hpwl(&net.pins, |p| self.rect(problem, p).center()))
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
    /// Returns [`PlaceError::BadProblem`] for empty problems, nets naming a
    /// block index past the block count, or symmetry pairs whose variants
    /// cannot mirror (different sizes in every combination), and
    /// [`PlaceError::Illegal`] when overlaps survive the schedule.
    pub fn place(&self, problem: &PlacementProblem) -> Result<Placement, PlaceError> {
        let n = problem.blocks.len();
        if n == 0 {
            return Err(PlaceError::BadProblem {
                reason: "no blocks".to_string(),
            });
        }
        for net in &problem.nets {
            if let Some(pin) = net.pins.iter().find(|&&p| p >= n) {
                return Err(PlaceError::BadProblem {
                    reason: format!("net {} names block {pin}, but there are {n}", net.name),
                });
            }
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
            enforce_pair(problem, &mut state, a, b);
        }

        let mut anneal = Anneal::new(problem, state);
        let mut cost = anneal.cost();
        let mut best = anneal.state.clone();
        let mut best_cost = cost;
        let mut temp = T0;

        for _ in 0..TEMP_STEPS {
            for _ in 0..moves_per_temp {
                anneal.propose(&mut rng, grid);
                let c = anneal.rescore();
                let accept = c <= cost || {
                    let p = ((cost - c) / temp).exp();
                    rng.gen::<f64>() < p
                };
                if accept {
                    cost = c;
                    if c < best_cost {
                        best.clone_from(&anneal.state);
                        best_cost = c;
                    }
                } else {
                    anneal.undo();
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
}

/// One block as it was before the current move.
struct Moved {
    block: usize,
    position: Point,
    variant: usize,
    rect: Rect,
}

/// The annealer's state, with every cost term cached so that a move
/// re-scores only the blocks it moves.
struct Anneal<'a> {
    problem: &'a PlacementProblem,
    /// The symmetry pair `(a, b)` each block belongs to, if any.
    pair_of: Vec<Option<(usize, usize)>>,
    /// The nets of two or more pins on each block, each listed once.
    nets_of: Vec<Vec<usize>>,
    state: Placement,
    rects: Vec<Rect>,
    net_hpwl: Vec<Nm>,
    hpwl: Nm,
    /// Total overlap area over all block pairs (nm²), exact. Below 2^53
    /// nm² it equals, bit for bit, the f64 sum of the per-pair areas,
    /// since every term and partial sum is then an exactly representable
    /// integer; the cost therefore matches a full re-score.
    overlap: i128,
    /// Undo record of the current move: the blocks it moved and the nets
    /// it re-scored, as they were, and the totals before it.
    moved: Vec<Moved>,
    old_nets: Vec<(usize, Nm)>,
    old_hpwl: Nm,
    old_overlap: i128,
    /// Marks set and cleared within one move.
    is_moved: Vec<bool>,
    net_seen: Vec<bool>,
}

impl<'a> Anneal<'a> {
    fn new(problem: &'a PlacementProblem, state: Placement) -> Self {
        let n = problem.blocks.len();
        let mut pair_of = vec![None; n];
        for &(a, b) in &problem.symmetry {
            pair_of[a] = Some((a, b));
            pair_of[b] = Some((a, b));
        }
        let mut nets_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (k, net) in problem.nets.iter().enumerate() {
            if net.pins.len() < 2 {
                continue;
            }
            for &p in &net.pins {
                if !nets_of[p].contains(&k) {
                    nets_of[p].push(k);
                }
            }
        }
        let rects: Vec<Rect> = (0..n).map(|i| state.rect(problem, i)).collect();
        let net_hpwl: Vec<Nm> = problem
            .nets
            .iter()
            .map(|net| net_hpwl(&net.pins, |p| rects[p].center()))
            .collect();
        let mut overlap = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                overlap += overlap_area(&rects[i], &rects[j]);
            }
        }
        Anneal {
            problem,
            pair_of,
            nets_of,
            state,
            hpwl: net_hpwl.iter().sum(),
            net_hpwl,
            rects,
            overlap,
            moved: Vec::with_capacity(4),
            old_nets: Vec::new(),
            old_hpwl: 0,
            old_overlap: 0,
            is_moved: vec![false; n],
            net_seen: vec![false; problem.nets.len()],
        }
    }

    /// Cost of the current state.
    fn cost(&self) -> f64 {
        cost_of(
            self.hpwl,
            bounding_box(self.rects.iter().copied()),
            self.overlap,
        )
    }

    /// Records block `i` and its symmetry partner as touched by the
    /// current move, before the move changes them.
    fn touch(&mut self, i: usize) {
        let (a, b) = self.pair_of[i].unwrap_or((i, i));
        for t in [a, b] {
            if self.moved.iter().all(|m| m.block != t) {
                self.moved.push(Moved {
                    block: t,
                    position: self.state.positions[t],
                    variant: self.state.variants[t],
                    rect: self.rects[t],
                });
            }
        }
    }

    /// Applies a random move in place, preserving symmetry pairs. The
    /// draws are those of a full-copy proposal: kind, block, then the
    /// offsets, the swap partner or the variant.
    fn propose(&mut self, rng: &mut StdRng, grid: Nm) {
        let n = self.rects.len();
        self.moved.clear();
        let kind = rng.gen_range(0..4);
        let i = rng.gen_range(0..n);
        self.touch(i);
        match kind {
            // Displace.
            0 => {
                let dx = rng.gen_range(-2 * grid..=2 * grid);
                let dy = rng.gen_range(-2 * grid..=2 * grid);
                self.state.positions[i] = self.state.positions[i].offset(dx, dy);
            }
            // Swap positions of two blocks.
            1 => {
                let j = rng.gen_range(0..n);
                self.touch(j);
                self.state.positions.swap(i, j);
            }
            // Change variant.
            2 => {
                let nv = self.problem.blocks[i].variants.len();
                if nv > 1 {
                    self.state.variants[i] = rng.gen_range(0..nv);
                }
            }
            // Small jitter for refinement.
            _ => {
                let dx = rng.gen_range(-grid / 4..=grid / 4);
                let dy = rng.gen_range(-grid / 4..=grid / 4);
                self.state.positions[i] = self.state.positions[i].offset(dx, dy);
            }
        }
        // Re-impose symmetry on the touched pairs. Pairs are disjoint and
        // every untouched pair is still mirrored, so this leaves the state
        // a re-imposition over all pairs would.
        for k in 0..self.moved.len() {
            let t = self.moved[k].block;
            if let Some((a, b)) = self.pair_of[t].filter(|&(a, _)| a == t) {
                let state = &mut self.state;
                if let Some((va, vb)) =
                    matching_variants_including(self.problem, a, b, state.variants[a])
                {
                    state.variants[a] = va;
                    state.variants[b] = vb;
                }
                enforce_pair(self.problem, state, a, b);
            }
        }
    }

    /// Brings the cached rects, net HPWLs and overlap total up to date
    /// with the moved blocks, and returns the new cost.
    fn rescore(&mut self) -> f64 {
        self.old_hpwl = self.hpwl;
        self.old_overlap = self.overlap;
        self.old_nets.clear();
        // A block the move put back where it was (the second block of a
        // pair, or a variant drawn again) changes nothing.
        let state = &self.state;
        self.moved.retain(|m| {
            state.positions[m.block] != m.position || state.variants[m.block] != m.variant
        });
        for m in &self.moved {
            self.is_moved[m.block] = true;
            self.rects[m.block] = self.state.rect(self.problem, m.block);
        }
        for (k, m) in self.moved.iter().enumerate() {
            let (old, new) = (m.rect, self.rects[m.block]);
            for (u, r) in self.rects.iter().enumerate() {
                if !self.is_moved[u] {
                    self.overlap += overlap_area(&new, r) - overlap_area(&old, r);
                }
            }
            for other in &self.moved[k + 1..] {
                self.overlap +=
                    overlap_area(&new, &self.rects[other.block]) - overlap_area(&old, &other.rect);
            }
        }
        for m in &self.moved {
            self.is_moved[m.block] = false;
            for &k in &self.nets_of[m.block] {
                if self.net_seen[k] {
                    continue;
                }
                self.net_seen[k] = true;
                let h = net_hpwl(&self.problem.nets[k].pins, |p| self.rects[p].center());
                self.old_nets.push((k, self.net_hpwl[k]));
                self.hpwl += h - self.net_hpwl[k];
                self.net_hpwl[k] = h;
            }
        }
        for &(k, _) in &self.old_nets {
            self.net_seen[k] = false;
        }
        self.cost()
    }

    /// Reverts the last move.
    fn undo(&mut self) {
        for m in &self.moved {
            self.state.positions[m.block] = m.position;
            self.state.variants[m.block] = m.variant;
            self.rects[m.block] = m.rect;
        }
        for &(k, h) in &self.old_nets {
            self.net_hpwl[k] = h;
        }
        self.hpwl = self.old_hpwl;
        self.overlap = self.old_overlap;
    }
}

/// Annealing cost: HPWL + area + overlap penalty.
fn cost_of(hpwl: Nm, bbox: Rect, overlap: i128) -> f64 {
    let area = (bbox.width() as f64) * (bbox.height() as f64);
    // Overlap penalty proportional to overlapping area, steep.
    let overlap = overlap as f64;
    hpwl as f64 + AREA_WEIGHT * area.sqrt() + 50.0 * overlap.sqrt() * (1.0 + overlap.sqrt())
}

/// Smallest rect covering all of `rects` (`Rect::default()` for none).
fn bounding_box(rects: impl Iterator<Item = Rect>) -> Rect {
    rects.reduce(|a, b| a.union(&b)).unwrap_or_default()
}

/// Half-perimeter of one net's pin centers (0 below two pins).
fn net_hpwl(pins: &[usize], center: impl Fn(usize) -> Point) -> Nm {
    if pins.len() < 2 {
        return 0;
    }
    let (mut x0, mut y0, mut x1, mut y1) = (Nm::MAX, Nm::MAX, Nm::MIN, Nm::MIN);
    for &p in pins {
        let c = center(p);
        x0 = x0.min(c.x);
        y0 = y0.min(c.y);
        x1 = x1.max(c.x);
        y1 = y1.max(c.y);
    }
    (x1 - x0) + (y1 - y0)
}

/// Interior overlap area of two rects (nm²; 0 when they only touch).
fn overlap_area(a: &Rect, b: &Rect) -> i128 {
    let w = a.hi.x.min(b.hi.x) - a.lo.x.max(b.lo.x);
    let h = a.hi.y.min(b.hi.y) - a.lo.y.max(b.lo.y);
    if w > 0 && h > 0 {
        w as i128 * h as i128
    } else {
        0
    }
}

/// Places `b` as the mirror of `a` about the axis at their midpoint,
/// sharing y.
fn enforce_pair(problem: &PlacementProblem, p: &mut Placement, a: usize, b: usize) {
    let (wa, _) = problem.blocks[a].variants[p.variants[a]];
    // b abuts a to the right with a one-pitch gap, same y: a rigid
    // mirrored unit whose internal axis sits between the two blocks.
    let gap = 200;
    p.positions[b] = Point::new(p.positions[a].x + wa + gap, p.positions[a].y);
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
mod oracle;

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
    fn bbox_of_no_blocks_is_the_empty_rect() {
        let placement = Placement {
            positions: vec![],
            variants: vec![],
        };
        assert_eq!(placement.bbox(&PlacementProblem::new()), Rect::default());
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
    fn net_past_the_block_count_is_rejected() {
        let mut p = PlacementProblem::new();
        p.add_block(Block::new("a", vec![(1000, 800)]));
        p.add_block(Block::new("b", vec![(900, 700)]));
        p.add_net(Net::new("n", vec![0, 5]));
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
