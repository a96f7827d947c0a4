//! # prima-route
//!
//! A coarse-grid multilayer global router. It consumes a legal placement,
//! decomposes each multi-pin net into two-pin edges via a minimum spanning
//! tree (the Steiner handling the paper describes: every branch of a net's
//! tree uses the same parallel-route count), routes each edge as an L-shape
//! on the preferred-direction layer pair, tracks per-cell congestion, and
//! reports exactly what primitive port optimization needs: per net, the
//! **length per layer** and **via count**.
//!
//! ## Example
//!
//! ```
//! use prima_geom::Point;
//! use prima_pdk::Technology;
//! use prima_route::{GlobalRouter, RoutingProblem};
//!
//! let tech = Technology::finfet7();
//! let mut p = RoutingProblem::new();
//! p.add_net("n1", vec![Point::new(0, 0), Point::new(4000, 2000)]);
//! let routes = GlobalRouter::new(&tech).route(&p).unwrap();
//! let n1 = routes.net("n1").unwrap();
//! assert_eq!(n1.total_len_nm(), 6000);
//! assert!(n1.via_count > 0);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod detail;
pub mod power;

use std::collections::HashMap;
use std::fmt;

use prima_geom::{Nm, Point};
use prima_pdk::{RouteDir, Technology};

/// Errors from global routing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// A net has fewer than two pins.
    DegenerateNet {
        /// The net name.
        net: String,
    },
    /// No nets to route.
    Empty,
    /// Internal invariant broken while growing a net's spanning tree.
    Internal {
        /// The net being routed when the invariant failed.
        net: String,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::DegenerateNet { net } => write!(f, "net {net} has fewer than two pins"),
            RouteError::Empty => write!(f, "no nets to route"),
            RouteError::Internal { net } => {
                write!(f, "internal spanning-tree invariant broken on net {net}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Routing input: named nets with pin locations (nm).
#[derive(Debug, Clone, Default)]
pub struct RoutingProblem {
    nets: Vec<(String, Vec<Point>)>,
}

impl RoutingProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a net with its pin locations.
    pub fn add_net(&mut self, name: &str, pins: Vec<Point>) {
        self.nets.push((name.to_string(), pins));
    }

    /// The nets.
    pub fn nets(&self) -> &[(String, Vec<Point>)] {
        &self.nets
    }
}

/// One routed segment: a straight run on a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// 1-based metal layer.
    pub layer: usize,
    /// Start point.
    pub from: Point,
    /// End point (same x or same y as `from`).
    pub to: Point,
}

impl Segment {
    /// Segment length (nm).
    pub fn len_nm(&self) -> Nm {
        self.from.manhattan(self.to)
    }
}

/// The routed geometry of one net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetRoute {
    /// Net name.
    pub net: String,
    /// Straight segments.
    pub segments: Vec<Segment>,
    /// Via transitions along the route (including pin drops).
    pub via_count: u32,
}

impl NetRoute {
    /// Total routed length (nm).
    pub fn total_len_nm(&self) -> Nm {
        self.segments.iter().map(|s| s.len_nm()).sum()
    }

    /// Length per layer: `(layer, nm)` sorted by layer.
    pub fn len_per_layer(&self) -> Vec<(usize, Nm)> {
        let mut map: HashMap<usize, Nm> = HashMap::new();
        for s in &self.segments {
            *map.entry(s.layer).or_insert(0) += s.len_nm();
        }
        let mut v: Vec<(usize, Nm)> = map.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// The layer carrying the most wirelength (ties to the lower layer).
    pub fn dominant_layer(&self) -> usize {
        self.len_per_layer()
            .into_iter()
            .max_by_key(|&(layer, len)| (len, std::cmp::Reverse(layer)))
            .map(|(layer, _)| layer)
            .unwrap_or(3)
    }
}

/// The full routing result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingResult {
    routes: Vec<NetRoute>,
}

impl RoutingResult {
    /// Assembles a result from pre-built routes — for fixtures and for
    /// tools that import routed geometry rather than running the router.
    pub fn from_routes(routes: Vec<NetRoute>) -> Self {
        RoutingResult { routes }
    }

    /// Route of a net by name.
    pub fn net(&self, name: &str) -> Option<&NetRoute> {
        self.routes.iter().find(|r| r.net == name)
    }

    /// All routes.
    pub fn routes(&self) -> &[NetRoute] {
        &self.routes
    }

    /// Total wirelength over all nets (nm).
    pub fn total_wirelength(&self) -> Nm {
        self.routes.iter().map(|r| r.total_len_nm()).sum()
    }
}

/// Congestion grid cell size (nm).
const CELL_SIZE_NM: Nm = 500;

/// The global router.
#[derive(Debug, Clone)]
pub struct GlobalRouter {
    /// Layer used for horizontal inter-block segments.
    h_layer: usize,
    /// Layer used for vertical inter-block segments.
    v_layer: usize,
}

impl GlobalRouter {
    /// Creates a router choosing the lowest inter-block layer pair (M3/M4
    /// in the default stack) according to the technology's preferred
    /// directions.
    pub fn new(tech: &Technology) -> Self {
        // Find the first layer at or above M3 per direction.
        let mut h_layer = 4;
        let mut v_layer = 3;
        for (i, m) in tech.metals.iter().enumerate().skip(2) {
            match m.dir {
                RouteDir::Horizontal => {
                    h_layer = i + 1;
                    break;
                }
                RouteDir::Vertical => {}
            }
        }
        for (i, m) in tech.metals.iter().enumerate().skip(2) {
            match m.dir {
                RouteDir::Vertical => {
                    v_layer = i + 1;
                    break;
                }
                RouteDir::Horizontal => {}
            }
        }
        GlobalRouter { h_layer, v_layer }
    }

    /// Routes every net.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::Empty`] for an empty problem and
    /// [`RouteError::DegenerateNet`] for nets with fewer than two pins.
    pub fn route(&self, problem: &RoutingProblem) -> Result<RoutingResult, RouteError> {
        if problem.nets.is_empty() {
            return Err(RouteError::Empty);
        }
        let mut routes = Vec::new();
        let mut congestion: HashMap<(Nm, Nm), Nm> = HashMap::new();
        for (name, pins) in &problem.nets {
            if pins.len() < 2 {
                return Err(RouteError::DegenerateNet { net: name.clone() });
            }
            let mut segments = Vec::new();
            let mut vias = 0u32;
            // Prim's MST over Manhattan distance.
            let mut in_tree = vec![false; pins.len()];
            in_tree[0] = true;
            for _ in 1..pins.len() {
                let mut best: Option<(usize, usize, Nm)> = None;
                for (i, &ti) in in_tree.iter().enumerate() {
                    if !ti {
                        continue;
                    }
                    for (j, &tj) in in_tree.iter().enumerate() {
                        if tj {
                            continue;
                        }
                        let d = pins[i].manhattan(pins[j]);
                        if best.map(|(_, _, bd)| d < bd).unwrap_or(true) {
                            best = Some((i, j, d));
                        }
                    }
                }
                let (i, j, _) = best.ok_or_else(|| RouteError::Internal { net: name.clone() })?;
                in_tree[j] = true;
                let (segs, v) = self.route_edge(pins[i], pins[j], &mut congestion);
                segments.extend(segs);
                vias += v;
            }
            // Pin drops: each pin climbs from M1 to the routing layers.
            vias += pins.len() as u32;
            routes.push(NetRoute {
                net: name.clone(),
                segments,
                via_count: vias,
            });
        }
        Ok(RoutingResult { routes })
    }

    /// Routes one two-pin edge as the less congested of the two L-shapes.
    fn route_edge(
        &self,
        a: Point,
        b: Point,
        congestion: &mut HashMap<(Nm, Nm), Nm>,
    ) -> (Vec<Segment>, u32) {
        let corner1 = Point::new(b.x, a.y); // horizontal first
        let corner2 = Point::new(a.x, b.y); // vertical first
        let cong = |p: Point, q: Point, map: &HashMap<(Nm, Nm), Nm>| -> Nm {
            let cell = |pt: Point| (pt.x.div_euclid(CELL_SIZE_NM), pt.y.div_euclid(CELL_SIZE_NM));
            // Sample congestion at the endpoints and midpoint.
            let mid = Point::new((p.x + q.x) / 2, (p.y + q.y) / 2);
            [p, mid, q]
                .iter()
                .map(|&pt| map.get(&cell(pt)).copied().unwrap_or(0))
                .sum()
        };
        let cost1 = cong(a, corner1, congestion) + cong(corner1, b, congestion);
        let cost2 = cong(a, corner2, congestion) + cong(corner2, b, congestion);
        let corner = if cost1 <= cost2 { corner1 } else { corner2 };

        let mut segments = Vec::new();
        let mut vias = 0;
        for (p, q) in [(a, corner), (corner, b)] {
            if p == q {
                continue;
            }
            let layer = if p.y == q.y {
                self.h_layer
            } else {
                self.v_layer
            };
            segments.push(Segment {
                layer,
                from: p,
                to: q,
            });
            self.mark(p, q, congestion);
        }
        if segments.len() == 2 {
            // Layer change at the corner.
            vias += 1;
        }
        (segments, vias)
    }

    fn mark(&self, p: Point, q: Point, congestion: &mut HashMap<(Nm, Nm), Nm>) {
        let steps = (p.manhattan(q) / CELL_SIZE_NM).max(1);
        for s in 0..=steps {
            let t = s as f64 / steps as f64;
            let x = p.x + ((q.x - p.x) as f64 * t) as Nm;
            let y = p.y + ((q.y - p.y) as f64 * t) as Nm;
            let cell = (x.div_euclid(CELL_SIZE_NM), y.div_euclid(CELL_SIZE_NM));
            *congestion.entry(cell).or_insert(0) += CELL_SIZE_NM.min(p.manhattan(q));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::finfet7()
    }

    #[test]
    fn two_pin_l_route() {
        let t = tech();
        let mut p = RoutingProblem::new();
        p.add_net("n", vec![Point::new(0, 0), Point::new(3000, 1000)]);
        let res = GlobalRouter::new(&t).route(&p).unwrap();
        let r = res.net("n").unwrap();
        assert_eq!(r.total_len_nm(), 4000);
        assert_eq!(r.segments.len(), 2);
        // One corner via plus two pin drops.
        assert_eq!(r.via_count, 3);
        // Layers respect preferred directions (M3 vertical, M4 horizontal).
        for s in &r.segments {
            if s.from.y == s.to.y {
                assert_eq!(s.layer, 4, "horizontal on M4");
            } else {
                assert_eq!(s.layer, 3, "vertical on M3");
            }
        }
    }

    #[test]
    fn straight_route_has_no_corner_via() {
        let t = tech();
        let mut p = RoutingProblem::new();
        p.add_net("n", vec![Point::new(0, 0), Point::new(0, 5000)]);
        let res = GlobalRouter::new(&t).route(&p).unwrap();
        let r = res.net("n").unwrap();
        assert_eq!(r.segments.len(), 1);
        assert_eq!(r.via_count, 2); // just the two pin drops
    }

    #[test]
    fn multipin_uses_mst() {
        let t = tech();
        let mut p = RoutingProblem::new();
        // Three collinear pins: MST length = 2000, not 3000 (star).
        p.add_net(
            "n",
            vec![Point::new(0, 0), Point::new(1000, 0), Point::new(2000, 0)],
        );
        let res = GlobalRouter::new(&t).route(&p).unwrap();
        assert_eq!(res.net("n").unwrap().total_len_nm(), 2000);
    }

    #[test]
    fn len_per_layer_and_dominant() {
        let t = tech();
        let mut p = RoutingProblem::new();
        p.add_net("n", vec![Point::new(0, 0), Point::new(5000, 1000)]);
        let res = GlobalRouter::new(&t).route(&p).unwrap();
        let r = res.net("n").unwrap();
        let per = r.len_per_layer();
        assert_eq!(per.len(), 2);
        let h: Nm = per.iter().filter(|(l, _)| *l == 4).map(|(_, n)| n).sum();
        let v: Nm = per.iter().filter(|(l, _)| *l == 3).map(|(_, n)| n).sum();
        assert_eq!(h, 5000);
        assert_eq!(v, 1000);
        assert_eq!(r.dominant_layer(), 4);
    }

    #[test]
    fn degenerate_and_empty_inputs() {
        let t = tech();
        assert!(matches!(
            GlobalRouter::new(&t).route(&RoutingProblem::new()),
            Err(RouteError::Empty)
        ));
        let mut p = RoutingProblem::new();
        p.add_net("n", vec![Point::new(0, 0)]);
        assert!(matches!(
            GlobalRouter::new(&t).route(&p),
            Err(RouteError::DegenerateNet { .. })
        ));
    }

    #[test]
    fn congestion_steers_second_net() {
        let t = tech();
        let mut p = RoutingProblem::new();
        // Two nets with identical L-options; after the first is routed, the
        // second should prefer the other corner, so total peak congestion
        // stays bounded.
        p.add_net("a", vec![Point::new(0, 0), Point::new(2000, 2000)]);
        p.add_net("b", vec![Point::new(0, 0), Point::new(2000, 2000)]);
        let res = GlobalRouter::new(&t).route(&p).unwrap();
        assert_eq!(res.routes().len(), 2);
        assert!(res.total_wirelength() == 8000);
    }
}
