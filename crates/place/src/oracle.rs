//! The annealer as it was before moves were scored incrementally, kept
//! as the oracle of [`Placer::place`]: every move clones the whole
//! placement, and every cost rebuilds every rect, every net's HPWL (by a
//! union of per-pin rects) and the all-pairs overlap. The incremental
//! annealer must return the identical `Result` on generated problems and
//! on the placement problems the optimized flow builds.

use super::*;
use proptest::prelude::*;

mod fixtures;

/// The full-recompute placer.
struct Oracle {
    seed: u64,
}

impl Oracle {
    /// Runs the annealer.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError::BadProblem`] for empty problems or symmetry
    /// pairs whose variants cannot mirror (different sizes in every
    /// combination), and [`PlaceError::Illegal`] when overlaps survive the
    /// schedule.
    fn place(&self, problem: &PlacementProblem) -> Result<Placement, PlaceError> {
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
        let hpwl = hpwl(p, problem) as f64;
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

/// Total half-perimeter wirelength over all nets (nm).
fn hpwl(p: &Placement, problem: &PlacementProblem) -> Nm {
    problem
        .nets
        .iter()
        .map(|net| {
            if net.pins.len() < 2 {
                return 0;
            }
            let mut bb: Option<Rect> = None;
            for &pin in &net.pins {
                let c = p.rect(problem, pin).center();
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

/// Generated problems: 1–16 blocks of 1–3 variants, 0–12 nets (single-pin
/// nets and repeated pins included) and 0–3 symmetry pairs. Three pairs in
/// four copy one of `a`'s sizes into `b`; the rest keep their own sizes
/// and mostly fail as [`PlaceError::BadProblem`].
fn problems() -> impl Strategy<Value = PlacementProblem> {
    let size = (100i64..3000, 100i64..3000);
    (
        prop::collection::vec(prop::collection::vec(size, 1..=3), 1..=16),
        prop::collection::vec(prop::collection::vec(0usize..16, 1..=5), 0..=12),
        prop::collection::vec(
            (0usize..16, 0usize..16, 0usize..3, 0usize..3, 0u8..4),
            0..=3,
        ),
    )
        .prop_map(|(mut blocks, nets, pairs)| {
            let n = blocks.len();
            let mut paired = vec![false; n];
            let mut symmetry = Vec::new();
            for (a, b, ka, kb, share) in pairs {
                let (a, b) = (a % n, b % n);
                if a == b || paired[a] || paired[b] {
                    continue;
                }
                (paired[a], paired[b]) = (true, true);
                if share != 0 {
                    let (ka, kb) = (ka % blocks[a].len(), kb % blocks[b].len());
                    blocks[b][kb] = blocks[a][ka];
                }
                symmetry.push((a, b));
            }
            let mut p = PlacementProblem::new();
            for (i, variants) in blocks.into_iter().enumerate() {
                p.add_block(Block::new(&format!("b{i}"), variants));
            }
            for (k, pins) in nets.into_iter().enumerate() {
                p.add_net(Net::new(
                    &format!("n{k}"),
                    pins.into_iter().map(|q| q % n).collect(),
                ));
            }
            for (a, b) in symmetry {
                p.add_symmetry(a, b);
            }
            p
        })
}

proptest! {
    #[test]
    fn incremental_annealer_matches_the_oracle(problem in problems(), seed in any::<u64>()) {
        prop_assert_eq!(Placer::new(seed).place(&problem), Oracle { seed }.place(&problem));
    }
}

#[test]
fn flow_problems_match_the_oracle() {
    for f in &fixtures::FIXTURES {
        let mut p = PlacementProblem::new();
        for &(name, variants) in f.blocks {
            p.add_block(Block::new(name, variants.to_vec()));
        }
        for &(name, pins) in f.nets {
            p.add_net(Net::new(name, pins.to_vec()));
        }
        for &(a, b) in f.pairs {
            p.add_symmetry(a, b);
        }
        for seed in [42, 7, 17] {
            let placed = Placer::new(seed).place(&p);
            assert!(
                placed.is_ok(),
                "{} on {}, seed {seed}: {placed:?}",
                f.circuit,
                f.deck
            );
            assert_eq!(
                placed,
                Oracle { seed }.place(&p),
                "{} on {}, seed {seed}",
                f.circuit,
                f.deck
            );
        }
    }
}
