//! Detailed routing: track assignment for the global routes.
//!
//! The paper's flow ends with a detailed router that *consumes* the
//! optimized wire widths — "the optimized widths are a requirement for the
//! detailed router" (§I). This module implements that stage on the track
//! grid: every global-route segment is assigned `k` adjacent routing
//! tracks on its layer (the parallel-route count the port optimization
//! reconciled for its net), shifting away from already-occupied tracks,
//! and symmetric net pairs can be constrained to mirrored tracks.

use std::cell::RefCell;
use std::collections::HashMap;

use prima_geom::Nm;
use prima_pdk::Technology;

use crate::{NetRoute, Segment};

/// Spans on the same track must keep at least `gap` nm between them so the
/// drawn wires respect the layer's minimum spacing; the occupancy map does
/// not record net identity, so the rule applies uniformly.
fn spans_clear(a: (Nm, Nm), b: (Nm, Nm), gap: Nm) -> bool {
    a.1 + gap <= b.0 || b.1 + gap <= a.0
}

/// Errors from detailed routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetailError {
    /// No free tracks within the search window for a segment.
    Congested {
        /// The net that could not be assigned.
        net: String,
        /// Layer on which assignment failed.
        layer: usize,
    },
    /// A net's requested width is zero.
    ZeroWidth {
        /// The offending net.
        net: String,
    },
    /// A symmetric pair's segment lists fell out of sync during joint
    /// assignment — an internal invariant surfaced as a typed error (not a
    /// panic) so a repair loop can retry with a different ordering.
    PairDesync {
        /// Net of the pair whose segment index went out of range.
        net: String,
    },
    /// The router's [`CancelToken`](prima_cache::CancelToken) tripped; the
    /// assignment was abandoned at a net boundary. Not retryable.
    Cancelled(prima_cache::Cancelled),
    /// A segment referenced a metal layer outside the deck's stack — a
    /// global-routing bug surfaced as a typed error instead of a panic.
    BadLayer {
        /// The net whose segment carried the bad layer.
        net: String,
        /// The underlying rule-lookup failure.
        source: prima_pdk::RuleError,
    },
}

impl std::fmt::Display for DetailError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetailError::Congested { net, layer } => {
                write!(f, "no free tracks for net {net} on M{layer}")
            }
            DetailError::ZeroWidth { net } => write!(f, "net {net} requests zero tracks"),
            DetailError::PairDesync { net } => {
                write!(f, "symmetric pair of net {net} lost segment alignment")
            }
            DetailError::Cancelled(c) => write!(f, "detailed routing abandoned: {c}"),
            DetailError::BadLayer { net, source } => {
                write!(f, "net {net} routed on a layer outside the stack: {source}")
            }
        }
    }
}

impl From<prima_cache::Cancelled> for DetailError {
    fn from(c: prima_cache::Cancelled) -> Self {
        DetailError::Cancelled(c)
    }
}

impl std::error::Error for DetailError {}

/// One segment's track assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackAssignment {
    /// Net name.
    pub net: String,
    /// Layer (1-based).
    pub layer: usize,
    /// Occupied track indices (adjacent, one per parallel route).
    pub tracks: Vec<i64>,
    /// Span along the track direction (nm).
    pub span: (Nm, Nm),
}

/// The detailed-routing result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DetailedResult {
    /// All assignments, in routing order.
    pub assignments: Vec<TrackAssignment>,
}

impl DetailedResult {
    /// Assignments of one net.
    pub fn net(&self, name: &str) -> Vec<&TrackAssignment> {
        self.assignments.iter().filter(|a| a.net == name).collect()
    }

    /// Checks that no two assignments of different nets share a track with
    /// overlapping spans.
    pub fn verify_no_conflicts(&self) -> bool {
        for (i, a) in self.assignments.iter().enumerate() {
            for b in &self.assignments[i + 1..] {
                if a.net == b.net || a.layer != b.layer {
                    continue;
                }
                let spans_overlap = a.span.0 < b.span.1 && b.span.0 < a.span.1;
                if !spans_overlap {
                    continue;
                }
                if a.tracks.iter().any(|t| b.tracks.contains(t)) {
                    return false;
                }
            }
        }
        true
    }

    /// Total number of occupied (track × segment) slots.
    pub fn occupied_slots(&self) -> usize {
        self.assignments.iter().map(|a| a.tracks.len()).sum()
    }
}

/// Maximum track shift explored per segment before reporting congestion.
const MAX_SHIFT: i64 = 40;

/// Track shifts in search order, nearest first: 0, +1, −1, +2, −2, … ±
/// [`MAX_SHIFT`].
fn shift_order() -> impl Iterator<Item = i64> {
    std::iter::once(0).chain((1..=MAX_SHIFT).flat_map(|m| [m, -m]))
}

/// The detailed router.
#[derive(Debug, Clone)]
pub struct DetailRouter<'t> {
    tech: &'t Technology,
    /// Per-net forced-congestion counters for fault injection: the next
    /// `n` assignment attempts of a net report [`DetailError::Congested`]
    /// before any search runs. Interior-mutable because assignment takes
    /// `&self`; counters persist across calls on the same router, so a
    /// retry after an injected failure genuinely succeeds.
    forced_failures: RefCell<HashMap<String, u32>>,
    /// Cooperative cancellation, checked at every net boundary.
    cancel: Option<prima_cache::CancelToken>,
}

impl<'t> DetailRouter<'t> {
    /// Creates a detailed router.
    pub fn new(tech: &'t Technology) -> Self {
        DetailRouter {
            tech,
            forced_failures: RefCell::new(HashMap::new()),
            cancel: None,
        }
    }

    /// Attaches (or detaches) a cooperative cancel token; a tripped token
    /// fails the next net's assignment with [`DetailError::Cancelled`].
    pub fn set_cancel(&mut self, token: Option<prima_cache::CancelToken>) {
        self.cancel = token;
    }

    /// Cooperative checkpoint at a net boundary.
    fn check_cancel(&self) -> Result<(), DetailError> {
        if let Some(token) = &self.cancel {
            token.check()?;
        }
        Ok(())
    }

    /// Forces the next `count` assignment attempts of `net` to report
    /// congestion (fault injection for resilience testing). Counts
    /// accumulate across calls.
    pub fn inject_failure(&mut self, net: &str, count: u32) {
        if count > 0 {
            *self
                .forced_failures
                .borrow_mut()
                .entry(net.to_string())
                .or_insert(0) += count;
        }
    }

    /// Consumes one forced failure of `net`, if any is pending.
    fn take_forced_failure(&self, net: &str) -> bool {
        let mut forced = self.forced_failures.borrow_mut();
        match forced.get_mut(net) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    forced.remove(net);
                }
                true
            }
            _ => false,
        }
    }

    /// The injected congestion for a route, when one is pending.
    fn forced_congestion(&self, route: &NetRoute) -> Option<DetailError> {
        if self.take_forced_failure(&route.net) {
            Some(DetailError::Congested {
                net: route.net.clone(),
                layer: route.segments.first().map(|s| s.layer).unwrap_or(1),
            })
        } else {
            None
        }
    }

    /// Assigns tracks to every segment of every route, with
    /// *symmetric-route constraints*: each `(a, b)` net pair uses identical
    /// track shifts segment-for-segment, the geometric constraint the
    /// paper's detailed router applies to keep a matched pair's input
    /// offset intact (§III-B1). Nets outside `pairs` (all of them when it
    /// is empty) are assigned independently, nearest free tracks first. A
    /// net named by more than one route is assigned once, at its first.
    ///
    /// `widths` gives the parallel-route count per net (defaults to 1 for
    /// nets not present — e.g. the conventional flow).
    ///
    /// # Errors
    ///
    /// Returns [`DetailError::ZeroWidth`] for a zero width request,
    /// [`DetailError::Congested`] when no free adjacent-track group exists
    /// within the shift window, and [`DetailError::Cancelled`] when the
    /// cancel token trips at a net boundary.
    pub fn assign_with_symmetry(
        &self,
        routes: &[NetRoute],
        widths: &HashMap<String, u32>,
        pairs: &[(String, String)],
    ) -> Result<DetailedResult, DetailError> {
        let mut occupied: HashMap<(usize, i64), Vec<(Nm, Nm)>> = HashMap::new();
        let mut result = DetailedResult::default();
        let partner_of = |net: &str| -> Option<&str> {
            pairs.iter().find_map(|(a, b)| {
                if a == net {
                    Some(b.as_str())
                } else if b == net {
                    Some(a.as_str())
                } else {
                    None
                }
            })
        };
        let mut done: Vec<String> = Vec::new();

        for route in routes {
            if done.contains(&route.net) {
                continue;
            }
            self.check_cancel()?;
            if let Some(err) = self.forced_congestion(route) {
                return Err(err);
            }
            let k = widths.get(&route.net).copied().unwrap_or(1);
            if k == 0 {
                return Err(DetailError::ZeroWidth {
                    net: route.net.clone(),
                });
            }
            match partner_of(&route.net).and_then(|p| routes.iter().find(|r| r.net == p)) {
                Some(partner) => {
                    if let Some(err) = self.forced_congestion(partner) {
                        return Err(err);
                    }
                    let kp = widths.get(&partner.net).copied().unwrap_or(1);
                    if kp == 0 {
                        return Err(DetailError::ZeroWidth {
                            net: partner.net.clone(),
                        });
                    }
                    // Symmetric assignment is best-effort: when the pair's
                    // global topologies cannot satisfy equal shifts (e.g.
                    // differing Steiner trees), fall back to independent
                    // conflict-free assignment rather than failing the
                    // whole layout.
                    let mut occ_trial = occupied.clone();
                    let trial = self.try_symmetric_pair(route, partner, k, kp, &mut occ_trial);
                    if let Ok(mut assigns) = trial {
                        occupied = occ_trial;
                        result.assignments.append(&mut assigns);
                        done.push(route.net.clone());
                        done.push(partner.net.clone());
                        continue;
                    }
                    for r in [route, partner] {
                        let kk = widths.get(&r.net).copied().unwrap_or(1);
                        for seg in &r.segments {
                            let a = self.assign_segment(&r.net, seg, kk, &mut occupied)?;
                            result.assignments.push(a);
                        }
                    }
                    done.push(route.net.clone());
                    done.push(partner.net.clone());
                }
                None => {
                    for seg in &route.segments {
                        let a = self.assign_segment(&route.net, seg, k, &mut occupied)?;
                        result.assignments.push(a);
                    }
                    done.push(route.net.clone());
                }
            }
        }
        Ok(result)
    }

    /// Min-space of a 1-based metal layer; 0 (no constraint) for a layer
    /// outside the stack — callers only pass layers already validated by
    /// segment assignment, so the fallback is never load-bearing.
    fn min_space(&self, layer: usize) -> Nm {
        self.tech.rules.try_metal(layer).map_or(0, |r| r.min_space)
    }

    /// Attempts the fully symmetric (equal-shift) assignment of a pair,
    /// mutating `occupied` only on success of each segment pair.
    fn try_symmetric_pair(
        &self,
        route: &NetRoute,
        partner: &NetRoute,
        k: u32,
        kp: u32,
        occupied: &mut HashMap<(usize, i64), Vec<(Nm, Nm)>>,
    ) -> Result<Vec<TrackAssignment>, DetailError> {
        let mut out = Vec::new();
        let n_seg = route.segments.len().min(partner.segments.len());
        for ix in 0..n_seg {
            let seg_a = route.segments.get(ix).ok_or(DetailError::PairDesync {
                net: route.net.clone(),
            })?;
            let seg_b = partner.segments.get(ix).ok_or(DetailError::PairDesync {
                net: partner.net.clone(),
            })?;
            let (a_asgn, shift) =
                self.assign_segment_shifted(&route.net, seg_a, k, occupied, None)?;
            let partner_try = self
                .assign_segment_shifted(&partner.net, seg_b, kp, occupied, Some(shift))
                .ok()
                .filter(|(b_asgn, _)| !self.collide(&a_asgn, b_asgn));
            let (a_asgn, b_asgn) = match partner_try {
                Some((b_asgn, _)) => (a_asgn, b_asgn),
                None => self.assign_pair_jointly(route, partner, ix, k, kp, occupied)?,
            };
            occupy(occupied, &a_asgn);
            occupy(occupied, &b_asgn);
            out.push(a_asgn);
            out.push(b_asgn);
        }
        // Remaining unmatched segments route independently.
        for r in [route, partner] {
            let kk = if r.net == route.net { k } else { kp };
            for seg in r.segments.iter().skip(n_seg) {
                let a = self.assign_segment(&r.net, seg, kk, occupied)?;
                out.push(a);
            }
        }
        Ok(out)
    }

    /// Joint shift search for a symmetric pair's `ix`-th segments.
    #[allow(clippy::too_many_arguments)]
    fn assign_pair_jointly(
        &self,
        a: &NetRoute,
        b: &NetRoute,
        ix: usize,
        ka: u32,
        kb: u32,
        occupied: &HashMap<(usize, i64), Vec<(Nm, Nm)>>,
    ) -> Result<(TrackAssignment, TrackAssignment), DetailError> {
        let seg_a = a
            .segments
            .get(ix)
            .ok_or(DetailError::PairDesync { net: a.net.clone() })?;
        let seg_b = b
            .segments
            .get(ix)
            .ok_or(DetailError::PairDesync { net: b.net.clone() })?;
        for shift in shift_order() {
            let ra = self.assign_segment_shifted(&a.net, seg_a, ka, occupied, Some(shift));
            let rb = self.assign_segment_shifted(&b.net, seg_b, kb, occupied, Some(shift));
            if let (Ok((aa, _)), Ok((bb, _))) = (ra, rb) {
                if !self.collide(&aa, &bb) {
                    return Ok((aa, bb));
                }
            }
        }
        Err(DetailError::Congested {
            net: a.net.clone(),
            layer: seg_a.layer,
        })
    }

    /// Whether two assignments of a symmetric pair collide: the same layer,
    /// spans closer than its min-space, and a shared track.
    fn collide(&self, a: &TrackAssignment, b: &TrackAssignment) -> bool {
        // Layer validated when the assignment was produced.
        let gap = self.min_space(a.layer);
        a.layer == b.layer
            && !spans_clear(a.span, b.span, gap)
            && a.tracks.iter().any(|t| b.tracks.contains(t))
    }

    /// Trial assignment of `k` adjacent tracks at a fixed shift (`Some`) or
    /// at the first free shift in [`shift_order`] (`None`), without
    /// mutating the occupancy map.
    fn assign_segment_shifted(
        &self,
        net: &str,
        seg: &Segment,
        k: u32,
        occupied: &HashMap<(usize, i64), Vec<(Nm, Nm)>>,
        fixed_shift: Option<i64>,
    ) -> Result<(TrackAssignment, i64), DetailError> {
        let pitch = self
            .tech
            .try_metal(seg.layer)
            .map_err(|source| DetailError::BadLayer {
                net: net.to_string(),
                source,
            })?
            .pitch;
        let horizontal = seg.from.y == seg.to.y;
        // Track coordinate: the perpendicular axis.
        let perp = if horizontal { seg.from.y } else { seg.from.x };
        let base_track = perp.div_euclid(pitch);
        let span = if horizontal {
            (seg.from.x.min(seg.to.x), seg.from.x.max(seg.to.x))
        } else {
            (seg.from.y.min(seg.to.y), seg.from.y.max(seg.to.y))
        };
        let gap = self.min_space(seg.layer);
        let free = |shift: i64| {
            (0..k as i64).all(|d| {
                occupied
                    .get(&(seg.layer, base_track + shift + d))
                    .map(|spans| spans.iter().all(|&s| spans_clear(s, span, gap)))
                    .unwrap_or(true)
            })
        };
        let shift = match fixed_shift {
            Some(shift) => Some(shift).filter(|&sh| free(sh)),
            None => shift_order().find(|&sh| free(sh)),
        }
        .ok_or_else(|| DetailError::Congested {
            net: net.to_string(),
            layer: seg.layer,
        })?;
        let start = base_track + shift;
        Ok((
            TrackAssignment {
                net: net.to_string(),
                layer: seg.layer,
                tracks: (0..k as i64).map(|d| start + d).collect(),
                span,
            },
            shift,
        ))
    }

    /// Finds `k` adjacent free tracks for one segment, preferring the track
    /// closest to the global route's position, and occupies them.
    fn assign_segment(
        &self,
        net: &str,
        seg: &Segment,
        k: u32,
        occupied: &mut HashMap<(usize, i64), Vec<(Nm, Nm)>>,
    ) -> Result<TrackAssignment, DetailError> {
        let (a, _) = self.assign_segment_shifted(net, seg, k, occupied, None)?;
        occupy(occupied, &a);
        Ok(a)
    }
}

/// Marks an assignment's tracks as occupied over its span.
fn occupy(occupied: &mut HashMap<(usize, i64), Vec<(Nm, Nm)>>, a: &TrackAssignment) {
    for &t in &a.tracks {
        occupied.entry((a.layer, t)).or_default().push(a.span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GlobalRouter, RoutingProblem};
    use prima_geom::Point;

    fn tech() -> Technology {
        Technology::finfet7()
    }

    fn route_two_nets(t: &Technology) -> Vec<NetRoute> {
        let mut p = RoutingProblem::new();
        p.add_net("a", vec![Point::new(0, 0), Point::new(5000, 0)]);
        p.add_net("b", vec![Point::new(0, 10), Point::new(5000, 10)]);
        GlobalRouter::new(t).route(&p).unwrap().routes().to_vec()
    }

    #[test]
    fn parallel_width_occupies_adjacent_tracks() {
        let t = tech();
        let routes = route_two_nets(&t);
        let mut widths = HashMap::new();
        widths.insert("a".to_string(), 4u32);
        let res = DetailRouter::new(&t)
            .assign_with_symmetry(&routes, &widths, &[])
            .unwrap();
        let a = res.net("a");
        assert_eq!(a[0].tracks.len(), 4);
        for w in a[0].tracks.windows(2) {
            assert_eq!(w[1] - w[0], 1, "tracks must be adjacent");
        }
        // Net b defaults to one track.
        assert_eq!(res.net("b")[0].tracks.len(), 1);
        assert!(res.verify_no_conflicts());
    }

    #[test]
    fn conflicting_nets_shift_apart() {
        let t = tech();
        // Both nets want the same y=0-ish horizontal corridor.
        let routes = route_two_nets(&t);
        let widths = HashMap::new();
        let res = DetailRouter::new(&t)
            .assign_with_symmetry(&routes, &widths, &[])
            .unwrap();
        assert!(res.verify_no_conflicts());
        let ta = &res.net("a")[0].tracks;
        let tb = &res.net("b")[0].tracks;
        assert_ne!(ta, tb, "overlapping spans must land on distinct tracks");
    }

    #[test]
    fn non_overlapping_spans_share_tracks() {
        let t = tech();
        let mut p = RoutingProblem::new();
        p.add_net("left", vec![Point::new(0, 0), Point::new(1000, 0)]);
        p.add_net("right", vec![Point::new(3000, 0), Point::new(4000, 0)]);
        let routes = GlobalRouter::new(&t).route(&p).unwrap().routes().to_vec();
        let res = DetailRouter::new(&t)
            .assign_with_symmetry(&routes, &HashMap::new(), &[])
            .unwrap();
        // Same preferred track is fine: the spans do not overlap.
        assert_eq!(res.net("left")[0].tracks, res.net("right")[0].tracks);
        assert!(res.verify_no_conflicts());
    }

    #[test]
    fn congestion_is_reported() {
        let t = tech();
        let routes = route_two_nets(&t);
        let mut widths = HashMap::new();
        // Demand more adjacent tracks than the shift window can provide
        // for both nets at once.
        widths.insert("a".to_string(), 400u32);
        widths.insert("b".to_string(), 450u32);
        assert!(matches!(
            DetailRouter::new(&t).assign_with_symmetry(&routes, &widths, &[]),
            Err(DetailError::Congested { .. })
        ));
    }

    #[test]
    fn injected_failures_fire_then_clear() {
        let t = tech();
        let routes = route_two_nets(&t);
        let mut router = DetailRouter::new(&t);
        router.inject_failure("a", 2);
        // First two attempts fail with congestion on the faulted net …
        for _ in 0..2 {
            match router.assign_with_symmetry(&routes, &HashMap::new(), &[]) {
                Err(DetailError::Congested { net, .. }) => assert_eq!(net, "a"),
                other => panic!("expected injected congestion, got {other:?}"),
            }
        }
        // … then the counter is spent and routing succeeds on the SAME
        // router instance (the property the flow's retry loop relies on).
        let res = router
            .assign_with_symmetry(&routes, &HashMap::new(), &[])
            .unwrap();
        assert!(res.verify_no_conflicts());
    }

    #[test]
    fn injected_failures_fire_in_symmetric_mode() {
        let t = tech();
        let routes = route_two_nets(&t);
        let mut router = DetailRouter::new(&t);
        router.inject_failure("b", 1);
        let pairs = vec![("a".to_string(), "b".to_string())];
        assert!(matches!(
            router.assign_with_symmetry(&routes, &HashMap::new(), &pairs),
            Err(DetailError::Congested { net, .. }) if net == "b"
        ));
        assert!(router
            .assign_with_symmetry(&routes, &HashMap::new(), &pairs)
            .is_ok());
    }

    #[test]
    fn cancelled_token_aborts_assignment() {
        let t = tech();
        let routes = route_two_nets(&t);
        let mut router = DetailRouter::new(&t);
        let token = prima_cache::CancelToken::new();
        token.cancel();
        router.set_cancel(Some(token));
        assert!(matches!(
            router.assign_with_symmetry(&routes, &HashMap::new(), &[]),
            Err(DetailError::Cancelled(_))
        ));
        let pairs = vec![("a".to_string(), "b".to_string())];
        assert!(matches!(
            router.assign_with_symmetry(&routes, &HashMap::new(), &pairs),
            Err(DetailError::Cancelled(_))
        ));
        // Detaching the token restores normal operation on the same router.
        router.set_cancel(None);
        assert!(router
            .assign_with_symmetry(&routes, &HashMap::new(), &[])
            .is_ok());
    }

    #[test]
    fn zero_width_rejected() {
        let t = tech();
        let routes = route_two_nets(&t);
        let mut widths = HashMap::new();
        widths.insert("a".to_string(), 0u32);
        assert!(matches!(
            DetailRouter::new(&t).assign_with_symmetry(&routes, &widths, &[]),
            Err(DetailError::ZeroWidth { .. })
        ));
    }

    #[test]
    fn symmetric_pairs_share_track_shifts() {
        let t = tech();
        let mut p = RoutingProblem::new();
        // A mirrored pair of drain routes plus an interferer.
        p.add_net("da", vec![Point::new(0, 0), Point::new(4000, 0)]);
        p.add_net("db", vec![Point::new(0, 200), Point::new(4000, 200)]);
        p.add_net("x", vec![Point::new(0, 40), Point::new(4000, 40)]);
        let routes = GlobalRouter::new(&t).route(&p).unwrap().routes().to_vec();
        let mut widths = HashMap::new();
        widths.insert("da".to_string(), 2u32);
        widths.insert("db".to_string(), 2u32);
        let pairs = vec![("da".to_string(), "db".to_string())];
        let res = DetailRouter::new(&t)
            .assign_with_symmetry(&routes, &widths, &pairs)
            .unwrap();
        assert!(res.verify_no_conflicts());
        let a = &res.net("da")[0];
        let b = &res.net("db")[0];
        assert_eq!(a.tracks.len(), 2);
        assert_eq!(b.tracks.len(), 2);
        // Identical shift from each segment's own base track: the pitch
        // offset between the two assignments equals the geometric offset of
        // the pair (200 nm here spans several track indices, but the shift
        // applied on top of each base is the same).
        let pitch = t.metal(a.layer).pitch;
        let base_a = 0i64.div_euclid(pitch);
        let base_b = 200i64.div_euclid(pitch);
        assert_eq!(a.tracks[0] - base_a, b.tracks[0] - base_b, "equal shifts");
    }

    #[test]
    fn symmetry_falls_back_to_joint_search_under_conflict() {
        let t = tech();
        let mut p = RoutingProblem::new();
        // An interferer occupies the mirrored pair's preferred corridor.
        p.add_net("blocker", vec![Point::new(0, 56), Point::new(4000, 56)]);
        p.add_net("da", vec![Point::new(0, 0), Point::new(4000, 0)]);
        p.add_net("db", vec![Point::new(0, 112), Point::new(4000, 112)]);
        let routes = GlobalRouter::new(&t).route(&p).unwrap().routes().to_vec();
        let pairs = vec![("da".to_string(), "db".to_string())];
        let res = DetailRouter::new(&t)
            .assign_with_symmetry(&routes, &HashMap::new(), &pairs)
            .unwrap();
        assert!(res.verify_no_conflicts());
        // Still symmetric after the fallback: equal shifts from the bases.
        let a = &res.net("da")[0];
        let b = &res.net("db")[0];
        let pitch = t.metal(a.layer).pitch;
        assert_eq!(
            a.tracks[0] - 0i64.div_euclid(pitch),
            b.tracks[0] - 112i64.div_euclid(pitch)
        );
    }

    #[test]
    fn coincident_symmetric_pair_falls_back_to_independent() {
        // Identical geometry cannot satisfy equal-shift symmetry (the nets
        // would land on the same tracks); the router falls back to an
        // independent, still conflict-free assignment.
        let t = tech();
        let mut p = RoutingProblem::new();
        p.add_net("da", vec![Point::new(0, 0), Point::new(4000, 0)]);
        p.add_net("db", vec![Point::new(0, 0), Point::new(4000, 0)]);
        let routes = GlobalRouter::new(&t).route(&p).unwrap().routes().to_vec();
        let pairs = vec![("da".to_string(), "db".to_string())];
        let res = DetailRouter::new(&t)
            .assign_with_symmetry(&routes, &HashMap::new(), &pairs)
            .unwrap();
        assert!(res.verify_no_conflicts());
        assert_ne!(res.net("da")[0].tracks, res.net("db")[0].tracks);
    }

    #[test]
    fn l_shapes_get_one_assignment_per_segment() {
        let t = tech();
        let mut p = RoutingProblem::new();
        p.add_net("n", vec![Point::new(0, 0), Point::new(2000, 3000)]);
        let routes = GlobalRouter::new(&t).route(&p).unwrap().routes().to_vec();
        let res = DetailRouter::new(&t)
            .assign_with_symmetry(&routes, &HashMap::new(), &[])
            .unwrap();
        assert_eq!(res.net("n").len(), 2, "one assignment per L segment");
        // Layers match the global segments.
        let layers: Vec<usize> = res.net("n").iter().map(|a| a.layer).collect();
        assert!(layers.contains(&3) && layers.contains(&4));
    }
}
