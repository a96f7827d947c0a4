//! Property tests for the detailed router: whatever order nets are
//! inserted in, whatever widths they request and however they are paired
//! for symmetric routing, two spans assigned to the same track of the same
//! layer always keep the layer's minimum spacing, and every segment gets
//! exactly its net's width in tracks.

#![allow(clippy::unwrap_used)]

use std::collections::HashMap;

use prima_geom::Point;
use prima_pdk::Technology;
use prima_route::detail::{DetailRouter, DetailedResult};
use prima_route::{GlobalRouter, RoutingProblem};
use proptest::prelude::*;

/// The invariant under test: every pair of assignments sharing a track on
/// one layer is separated by at least that layer's `min_space` along the
/// track. This is strictly stronger than `verify_no_conflicts` (which only
/// rejects overlapping spans).
fn same_track_min_space_holds(res: &DetailedResult, tech: &Technology) -> Result<(), String> {
    for (i, a) in res.assignments.iter().enumerate() {
        for b in &res.assignments[i + 1..] {
            if a.layer != b.layer || !a.tracks.iter().any(|t| b.tracks.contains(t)) {
                continue;
            }
            let gap = tech.rules.metal(a.layer).min_space;
            let clear = a.span.1 + gap <= b.span.0 || b.span.1 + gap <= a.span.0;
            if !clear {
                return Err(format!(
                    "{} {:?} and {} {:?} share a track on M{} with < {} nm spacing",
                    a.net, a.span, b.net, b.span, a.layer, gap
                ));
            }
        }
    }
    Ok(())
}

/// One randomly-generated horizontal net.
#[derive(Debug, Clone)]
struct GenNet {
    y: i64,
    x0: i64,
    len: i64,
    width: u32,
}

fn gen_net() -> impl Strategy<Value = GenNet> {
    (0i64..200, 0i64..3000, 500i64..4000, 1u32..=3).prop_map(|(y, x0, len, width)| GenNet {
        y,
        x0,
        len,
        width,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized nets crowding one horizontal corridor, inserted in a
    /// random order, with random pairs of adjacent nets routed as
    /// symmetric pairs: every successful assignment respects same-track
    /// minimum spacing and gives each segment its net's width, and no
    /// insertion order or pairing can break either.
    #[test]
    fn same_track_spacing_survives_any_insertion_order(
        nets in proptest::collection::vec(gen_net(), 2..6),
        order in any::<u64>(),
        pair_mask in any::<u64>(),
    ) {
        let tech = Technology::finfet7();
        // Deterministic shuffle of the insertion order from the seed.
        let mut ordered: Vec<(usize, &GenNet)> = nets.iter().enumerate().collect();
        let mut state = order;
        for i in (1..ordered.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            ordered.swap(i, j);
        }

        let mut problem = RoutingProblem::new();
        let mut widths = HashMap::new();
        for (ix, n) in &ordered {
            let name = format!("n{ix}");
            problem.add_net(
                &name,
                vec![Point::new(n.x0, n.y), Point::new(n.x0 + n.len, n.y)],
            );
            widths.insert(name, n.width);
        }
        let routes = GlobalRouter::new(&tech)
            .route(&problem)
            .unwrap()
            .routes()
            .to_vec();

        // Bit `i` of the mask pairs the `i`-th inserted net with the next
        // one, unless the `i`-th is already its predecessor's partner.
        let mut pairs = Vec::new();
        let mut i = 0;
        while i + 1 < ordered.len() {
            if pair_mask >> i & 1 == 1 {
                pairs.push((format!("n{}", ordered[i].0), format!("n{}", ordered[i + 1].0)));
                i += 2;
            } else {
                i += 1;
            }
        }

        match DetailRouter::new(&tech).assign_with_symmetry(&routes, &widths, &pairs) {
            Ok(res) => {
                prop_assert!(res.verify_no_conflicts());
                let spacing = same_track_min_space_holds(&res, &tech);
                prop_assert!(spacing.is_ok(), "{}", spacing.unwrap_err());
                for route in &routes {
                    let assigned = res.net(&route.net);
                    prop_assert_eq!(assigned.len(), route.segments.len());
                    for a in assigned {
                        prop_assert_eq!(a.tracks.len(), widths[&route.net] as usize);
                    }
                }
            }
            // Congestion is a legal outcome for a crowded corridor; the
            // property only constrains successful assignments.
            Err(_) => prop_assume!(false),
        }
    }
}
