//! The traced replay: one flow job re-run through each layer's public
//! entry points, in flow order, with a span around every call.
//!
//! The orchestration between the calls mirrors the optimized flow's
//! fault-free path (a job the benchmark checked is `Health::Clean`, so no
//! gate fallback ran). Where the flow's glue is private — pin offsets,
//! the quality guard, the ERC and GDS assembly — it is restated here; the
//! replay's area, wirelength and GDS bytes are compared with the flow's,
//! so any drift between the two shows as a fidelity failure.

use std::collections::HashMap;
use std::sync::Arc;

use prima_cache::{CachePolicy, EvalCache, Fingerprintable};
use prima_core::{
    clamp_to_em_floor, reconcile, route_wire, std_config_space, EvalLedger, GlobalRoute, NoFaults,
    Optimizer, Phase, PortConstraint, RepairBudgets, SolverLimits,
};
use prima_erc::{
    check_erc, CentroidGroup, ErcArtifacts, NetCurrent, PortTap, SupplyTap, SymmetryPair,
};
use prima_flow::circuits::CircuitSpec;
use prima_flow::{schem_preflight, techlint_preflight};
use prima_gds::{stream_out, GdsCellDef, GdsDesign, GdsLabel, GdsLibrary, GdsPlacement};
use prima_geom::{Point, Rect};
use prima_layout::{render, MaskLayer, PlacementPattern, PrimitiveLayout, PrimitiveSpec};
use prima_pdk::{RouteDir, Technology};
use prima_place::{Block, Net, PlacementProblem, Placer};
use prima_primitives::{Bias, Library, TESTBENCH_VERSION};
use prima_route::detail::{DetailError, DetailRouter};
use prima_route::power::{synthesize, PowerGridSpec, PowerReport};
use prima_route::{GlobalRouter, NetRoute, RoutingProblem, RoutingResult};
use prima_verify::lints::{LintInputs, PortInterval};
use prima_verify::{check_flow, CellArtifact, FlowArtifacts};

use crate::trace::Tracer;

/// Where a replayed job's evaluations are cached.
pub enum ReplayCache<'a> {
    Off,
    /// An open store shared across jobs (the warm serving replay).
    Shared(&'a Arc<EvalCache>),
    /// A store file the job opens and snapshots itself, like the flow
    /// does under `CachePolicy::Persistent`.
    Persistent(&'a std::path::Path),
}

/// What the replay produced, for the fidelity check and the counters.
#[derive(Debug, Clone, Default)]
pub struct ReplayOut {
    pub area_um2: f64,
    pub wirelength_um: f64,
    pub gds_bytes: Vec<u8>,
    pub sims: [usize; 3],
    pub candidates: usize,
    pub bin_winners: usize,
    pub lookups: u64,
    pub stores: u64,
    pub cache_bytes: u64,
    pub route_retries: u32,
}

const N_BINS: usize = 3;
/// The flow's per-block current when a bias record names none.
const DEFAULT_BLOCK_A: f64 = 150e-6;

fn is_power_net(net: &str) -> bool {
    matches!(net, "vdd" | "vssn" | "vdd_ext")
}

fn bias_of(
    tech: &Technology,
    biases: &HashMap<String, Bias>,
    inst: &str,
    def: &prima_primitives::PrimitiveDef,
) -> Bias {
    biases
        .get(inst)
        .cloned()
        .unwrap_or_else(|| Bias::nominal(tech, &def.class))
}

fn block_current(bias: Option<&Bias>) -> f64 {
    match bias {
        Some(b) => b.i("tail", b.i("ref", DEFAULT_BLOCK_A)),
        None => DEFAULT_BLOCK_A,
    }
}

/// FNV-1a of a port name: the flow's deterministic pin offset inside a
/// block.
fn port_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Replays one optimized-flow job. Errors name the stage that failed.
#[allow(clippy::too_many_arguments)]
pub fn replay_job(
    tr: &mut Tracer,
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    biases: &HashMap<String, Bias>,
    seed: u64,
    cache: ReplayCache<'_>,
) -> Result<ReplayOut, String> {
    let root = tr.open("flow");
    let out = replay_inner(tr, tech, lib, spec, biases, seed, cache);
    tr.close(root);
    out
}

#[allow(clippy::too_many_arguments)]
fn replay_inner(
    tr: &mut Tracer,
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    biases: &HashMap<String, Bias>,
    seed: u64,
    cache: ReplayCache<'_>,
) -> Result<ReplayOut, String> {
    let mut out = ReplayOut::default();

    // 1. Preflight gates.
    let techlint = tr.span("techlint", || techlint_preflight(tech, lib));
    if !techlint.is_passing() {
        return Err("techlint preflight failed".to_string());
    }
    let schem = tr.span("schem", || schem_preflight(tech, lib, spec, Some(biases)));
    if !schem.is_passing() {
        return Err("schem preflight failed".to_string());
    }

    let mut opt = Optimizer::new(tech);
    let store = match cache {
        ReplayCache::Off => None,
        ReplayCache::Shared(c) => Some(Arc::clone(c)),
        ReplayCache::Persistent(path) => Some(tr.span("cache.open", || {
            Arc::new(EvalCache::open(
                CachePolicy::Persistent(path.to_path_buf()),
                tech.fingerprint(),
                TESTBENCH_VERSION,
            ))
        })),
    };
    let stats0 = store.as_ref().map(|c| c.stats()).unwrap_or_default();
    if let Some(c) = &store {
        opt.set_cache(Arc::clone(c));
    }
    opt.set_solver_limits(SolverLimits::default());
    let mut ledger = EvalLedger::new();

    // 2. Algorithm 1 per unique (def, fins, bias): selection, then tuning
    // of every bin winner.
    type Memo = (String, u64, Bias, Vec<(PrimitiveLayout, f64)>);
    let mut memo: Vec<Memo> = Vec::new();
    let mut active_of: Vec<(String, Vec<(PrimitiveLayout, f64)>)> = Vec::new();
    for inst in &spec.instances {
        let def = lib
            .get(&inst.def)
            .ok_or_else(|| format!("unknown primitive {}", inst.def))?;
        if def.spec.devices.is_empty() {
            continue;
        }
        let bias = bias_of(tech, biases, &inst.name, def);
        if let Some((.., active)) = memo
            .iter()
            .find(|(d, f, b, _)| *d == inst.def && *f == inst.total_fins && *b == bias)
        {
            active_of.push((inst.name.clone(), active.clone()));
            continue;
        }
        let configs = std_config_space(inst.total_fins);
        if configs.is_empty() {
            continue;
        }
        let bins = tr
            .span("core.select", || {
                opt.select_bins(def, &bias, &configs, N_BINS, &NoFaults, &mut ledger)
            })
            .map_err(|e| format!("selection of {}: {e}", inst.name))?;
        let bins: Vec<_> = bins.into_iter().filter(|b| !b.ranked.is_empty()).collect();
        if bins.is_empty() {
            return Err(format!("no candidates for {}", inst.name));
        }
        out.candidates += configs.len();
        out.bin_winners += bins.len();
        let mut active = Vec::with_capacity(bins.len());
        for bin in &bins {
            let pick = &bin.ranked[0];
            let tuned = tr.span("core.tune", || opt.tune(def, &bias, pick.layout.clone()));
            active.push(match tuned {
                Ok(t) => (t.layout, t.cost),
                Err(_) => (pick.layout.clone(), pick.cost),
            });
        }
        memo.push((inst.def.clone(), inst.total_fins, bias, active.clone()));
        active_of.push((inst.name.clone(), active));
    }

    // Quality guard: drop aspect-ratio options far costlier than the best.
    let mut cell_options: HashMap<String, Vec<PrimitiveLayout>> = HashMap::new();
    for (name, active) in &active_of {
        let best = active.iter().map(|a| a.1).fold(f64::INFINITY, f64::min);
        let mut keep: Vec<usize> = (0..active.len())
            .filter(|&i| active[i].1 <= (2.0 * best).max(best + 5.0))
            .collect();
        if keep.is_empty() {
            keep = (0..active.len()).collect();
        }
        cell_options.insert(
            name.clone(),
            keep.iter().map(|&i| active[i].0.clone()).collect(),
        );
    }

    // 3. Placement and global routing.
    let mut problem = PlacementProblem::new();
    let mut index_of: HashMap<String, usize> = HashMap::new();
    for inst in &spec.instances {
        let variants: Vec<(i64, i64)> = match cell_options.get(&inst.name) {
            Some(layouts) if !layouts.is_empty() => layouts
                .iter()
                .map(|l| (l.bbox.width(), l.bbox.height()))
                .collect(),
            _ => vec![(1000, 1000)],
        };
        let ix = problem.add_block(Block::new(&inst.name, variants));
        index_of.insert(inst.name.clone(), ix);
    }
    for net in spec.nets() {
        if is_power_net(&net) {
            continue;
        }
        let mut pins: Vec<usize> = spec
            .taps(&net)
            .iter()
            .map(|(inst, _)| index_of[&inst.name])
            .collect();
        pins.sort_unstable();
        pins.dedup();
        if pins.len() >= 2 {
            problem.add_net(Net::new(&net, pins));
        }
    }
    for (a, b) in &spec.symmetry {
        if let (Some(&ia), Some(&ib)) = (index_of.get(a), index_of.get(b)) {
            problem.add_symmetry(ia, ib);
        }
    }
    let placement = tr
        .span("place", || Placer::new(seed).place(&problem))
        .map_err(|e| format!("placement: {e}"))?;
    let bbox = placement.bbox(&problem);
    out.area_um2 = bbox.area() as f64 * 1e-6;
    let mut chosen: HashMap<String, PrimitiveLayout> = HashMap::new();
    for inst in &spec.instances {
        if let Some(layouts) = cell_options.get(&inst.name) {
            if !layouts.is_empty() {
                let v = placement.variants[index_of[&inst.name]].min(layouts.len() - 1);
                chosen.insert(inst.name.clone(), layouts[v].clone());
            }
        }
    }
    let mut routing_problem = RoutingProblem::new();
    let mut pins_of: Vec<(String, Vec<Point>)> = Vec::new();
    for net in spec.nets() {
        if is_power_net(&net) {
            continue;
        }
        let mut pins: Vec<Point> = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        for (inst, port) in spec.taps(&net) {
            if seen.contains(&inst.name.as_str()) {
                continue;
            }
            seen.push(&inst.name);
            let r = placement.rect(&problem, index_of[&inst.name]);
            let c = r.center();
            let h = port_hash(port);
            let dx = (h % 1024) as i64 * (r.width() / 2) / 1024 - r.width() / 4;
            let dy = ((h / 1024) % 1024) as i64 * (r.height() / 2) / 1024 - r.height() / 4;
            pins.push(Point::new(c.x + dx, c.y + dy));
        }
        if pins.len() >= 2 {
            routing_problem.add_net(&net, pins.clone());
            pins_of.push((net.clone(), pins));
        }
    }
    let routing = tr
        .span("route.global", || {
            GlobalRouter::new(tech).route(&routing_problem)
        })
        .map_err(|e| format!("global routing: {e}"))?;
    out.wirelength_um = routing.total_wirelength() as f64 / 1000.0;
    let rects: Vec<(String, Rect)> = spec
        .instances
        .iter()
        .map(|inst| {
            (
                inst.name.clone(),
                placement.rect(&problem, index_of[&inst.name]),
            )
        })
        .collect();
    let blocks: Vec<(Rect, f64)> = rects
        .iter()
        .map(|(name, r)| (*r, block_current(biases.get(name))))
        .collect();
    let power: Option<PowerReport> = if blocks.is_empty() {
        None
    } else {
        Some(tr.span("route.power", || {
            synthesize(tech, bbox, &blocks, &PowerGridSpec::for_tech(tech))
        }))
    };

    // 4. Algorithm 2: port constraints, EM clamp, reconciliation.
    let mut net_routes: HashMap<String, GlobalRoute> = HashMap::new();
    for net in spec.nets() {
        if is_power_net(&net) {
            continue;
        }
        if let Some(route) = routing.net(&net) {
            net_routes.insert(
                net.clone(),
                GlobalRoute {
                    layer: route.dominant_layer(),
                    len_nm: route.total_len_nm(),
                    via_ends: 2,
                },
            );
        }
    }
    let mut per_net: HashMap<String, Vec<PortConstraint>> = HashMap::new();
    for inst in &spec.instances {
        let Some(def) = lib.get(&inst.def) else {
            continue;
        };
        if def.spec.devices.is_empty() {
            continue;
        }
        let bias = bias_of(tech, biases, &inst.name, def);
        let mut routes: HashMap<String, GlobalRoute> = HashMap::new();
        for (port, net) in &inst.conn {
            if let Some(gr) = net_routes.get(net) {
                routes.insert(port.clone(), *gr);
            }
        }
        if routes.is_empty() {
            continue;
        }
        let layout = chosen.get(&inst.name);
        let cons = tr
            .span("core.ports", || {
                opt.port_constraints(def, &bias, layout, inst.total_fins, &routes)
            })
            .map_err(|e| format!("port constraints of {}: {e}", inst.name))?;
        for c in cons {
            if let Some(net) = inst.net_of(&c.net) {
                per_net
                    .entry(net.to_string())
                    .or_default()
                    .push(PortConstraint {
                        net: net.to_string(),
                        ..c
                    });
            }
        }
    }
    let currents = net_currents(tech, lib, spec, biases, &pins_of);
    let floors: HashMap<String, u32> = tr.span("erc.em_floor", || {
        currents
            .iter()
            .filter_map(|nc| {
                routing.net(&nc.net).map(|route| {
                    (
                        nc.net.clone(),
                        prima_erc::em::em_floor(tech, route, nc.worst_a),
                    )
                })
            })
            .collect()
    });
    // Reconciled widths, plus the wire model the flow builds from each
    // (its realization's net RC), kept so the span covers the same work.
    let widths: HashMap<String, u32> = tr.span("core.reconcile", || {
        for (net, constraints) in &mut per_net {
            if let Some(&floor) = floors.get(net) {
                clamp_to_em_floor(constraints, floor);
            }
        }
        let mut widths = HashMap::new();
        for (net, constraints) in &per_net {
            let w = reconcile(constraints).w;
            widths.insert(net.clone(), w);
            if let Some(gr) = net_routes.get(net) {
                std::hint::black_box(route_wire(tech, gr, w));
            }
        }
        for (net, gr) in &net_routes {
            if !widths.contains_key(net) {
                let k = floors.get(net).copied().unwrap_or(1);
                widths.insert(net.clone(), k);
                std::hint::black_box(route_wire(tech, gr, k));
            }
        }
        widths
    });
    out.sims = [
        opt.counter().count(Phase::Selection),
        opt.counter().count(Phase::Tuning),
        opt.counter().count(Phase::PortConstraints),
    ];

    // 5. Detailed routing, retried with the flow's perturbed net order.
    let router = DetailRouter::new(tech);
    let mut routes: Vec<NetRoute> = routing.routes().to_vec();
    let budget = RepairBudgets::default().route_attempts;
    let mut attempt: u32 = 0;
    let detailed = loop {
        attempt += 1;
        let res = tr.span("route.detail", || {
            router.assign_with_symmetry(&routes, &widths, &spec.symmetric_nets)
        });
        match res {
            Ok(d) => break d,
            Err(e) => {
                let net = match &e {
                    DetailError::Congested { net, .. }
                    | DetailError::ZeroWidth { net }
                    | DetailError::PairDesync { net }
                    | DetailError::BadLayer { net, .. } => net.clone(),
                    DetailError::Cancelled(_) => return Err(format!("detail routing: {e}")),
                };
                if attempt >= budget {
                    return Err(format!("detail routing exhausted: {e}"));
                }
                out.route_retries += 1;
                routes = perturb_routes(routes, &net, attempt as usize);
            }
        }
    };

    // 6. Verify and ERC gates, on the re-rendered mask geometry.
    let geometry_of = render_chosen(tr, tech, lib, spec, &chosen);
    let mut artifacts = FlowArtifacts::new(&spec.name, tech);
    for (name, outline) in &rects {
        artifacts.cells.push(CellArtifact {
            instance: name.clone(),
            outline: *outline,
            geometry: geometry_of.get(name).cloned().flatten(),
        });
    }
    artifacts.pins = pins_of.clone();
    artifacts.routing = Some(&routing);
    artifacts.detailed = Some(&detailed);
    artifacts.expected_nets = pins_of.iter().map(|(n, _)| n.clone()).collect();
    artifacts.lints = LintInputs {
        metric_weights: metric_weights(spec, lib),
        aspect_candidates: cell_options
            .values()
            .flatten()
            .map(|l| l.aspect_ratio())
            .collect(),
        n_bins: N_BINS,
        ports: port_intervals(&per_net, &widths),
    };
    let verify = tr.span("verify", || check_flow(&artifacts));
    if !verify.is_passing() {
        return Err(format!("verify gate: {} error(s)", verify.error_count()));
    }
    let erc_art = erc_artifacts(
        tech,
        lib,
        spec,
        biases,
        &routing,
        &widths,
        &rects,
        &chosen,
        power.as_ref(),
        currents,
    );
    let erc = tr.span("erc", || check_erc(&erc_art));
    if !erc.is_passing() {
        return Err(format!("erc gate: {} error(s)", erc.error_count()));
    }

    // The flow snapshots whatever store it ran against once the gates
    // pass (a no-op for memory-only stores).
    if let Some(c) = &store {
        tr.span("cache.save", || c.save())
            .map_err(|e| format!("cache snapshot: {e}"))?;
    }
    if let Some(c) = &store {
        let s = c.stats();
        out.lookups = (s.hits + s.misses) - (stats0.hits + stats0.misses);
        out.stores = s.misses - stats0.misses;
        out.cache_bytes = s.bytes;
    }

    // 7. GDS stream-out and re-parse. Stream-out renders every cell
    // again, as the flow does.
    let geometry_of = render_chosen(tr, tech, lib, spec, &chosen);
    let design = gds_design(tech, spec, &geometry_of, &rects, &pins_of, bbox, &detailed);
    let art = tr
        .span("gds.write", || stream_out(tech, &design))
        .map_err(|e| format!("gds stream-out: {e}"))?;
    tr.span("gds.parse", || GdsLibrary::from_bytes(&art.bytes))
        .map_err(|e| format!("gds re-parse: {e}"))?;
    out.gds_bytes = art.bytes;
    Ok(out)
}

/// Renders each chosen cell's mask geometry, one span per call.
fn render_chosen(
    tr: &mut Tracer,
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    chosen: &HashMap<String, PrimitiveLayout>,
) -> HashMap<String, Option<prima_layout::CellGeometry>> {
    let mut out = HashMap::new();
    for inst in &spec.instances {
        let geometry = chosen.get(&inst.name).and_then(|layout| {
            lib.get(&inst.def).and_then(|def| {
                tr.span("layout.render", || {
                    render(tech, &def.spec, &layout.config).ok()
                })
            })
        });
        out.insert(inst.name.clone(), geometry);
    }
    out
}

fn perturb_routes(mut routes: Vec<NetRoute>, failing: &str, attempt: usize) -> Vec<NetRoute> {
    let (mut front, mut rest): (Vec<NetRoute>, Vec<NetRoute>) =
        routes.drain(..).partition(|r| r.net == failing);
    if !rest.is_empty() {
        let k = attempt % rest.len();
        rest.rotate_left(k);
    }
    front.extend(rest);
    front
}

fn metric_weights(spec: &CircuitSpec, lib: &Library) -> Vec<(String, f64)> {
    let mut seen: Vec<&str> = Vec::new();
    let mut weights = Vec::new();
    for inst in &spec.instances {
        let Some(def) = lib.get(&inst.def) else {
            continue;
        };
        if seen.contains(&def.name.as_str()) {
            continue;
        }
        seen.push(&def.name);
        for m in &def.metrics {
            weights.push((format!("{}.{}", def.name, m.name), m.weight));
        }
    }
    weights
}

fn port_intervals(
    per_net: &HashMap<String, Vec<PortConstraint>>,
    widths: &HashMap<String, u32>,
) -> Vec<PortInterval> {
    let mut out = Vec::new();
    for (net, constraints) in per_net {
        let lo = constraints.iter().map(|c| c.w_min).max().unwrap_or(1);
        let hi = constraints.iter().filter_map(|c| c.w_max).min();
        if hi.is_none_or(|h| lo <= h) {
            out.push(PortInterval {
                net: net.clone(),
                w_min: lo,
                w_max: hi,
                reconciled: widths.get(net).copied(),
            });
        } else {
            for c in constraints {
                out.push(PortInterval {
                    net: net.clone(),
                    w_min: c.w_min,
                    w_max: c.w_max,
                    reconciled: None,
                });
            }
        }
    }
    out
}

fn gate_only_port(spec: &PrimitiveSpec, port: &str) -> bool {
    let gates = spec.devices.iter().any(|d| d.gate == port);
    let conducts = spec
        .devices
        .iter()
        .any(|d| d.drain == port || d.source == port);
    gates && !conducts
}

fn port_current_a(spec: &PrimitiveSpec, bias: &Bias, port: &str) -> f64 {
    let base = bias.i("tail", bias.i("ref", DEFAULT_BLOCK_A));
    spec.devices
        .iter()
        .filter(|d| d.drain == port || d.source == port)
        .map(|d| base * d.ratio as f64)
        .fold(0.0, f64::max)
}

/// Worst-case current per routed net, one budget per pin.
fn net_currents(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    biases: &HashMap<String, Bias>,
    pins: &[(String, Vec<Point>)],
) -> Vec<NetCurrent> {
    let mut out = Vec::new();
    for (net, points) in pins {
        let mut order: Vec<&str> = Vec::new();
        let mut bounds: Vec<f64> = Vec::new();
        for (inst, _) in spec.taps(net) {
            if order.contains(&inst.name.as_str()) {
                continue;
            }
            order.push(&inst.name);
            let bound = match lib.get(&inst.def) {
                Some(def) if !def.spec.devices.is_empty() => {
                    let bias = bias_of(tech, biases, &inst.name, def);
                    inst.conn
                        .iter()
                        .filter(|(_, n)| n == net)
                        .map(|(port, _)| port_current_a(&def.spec, &bias, port))
                        .fold(0.0, f64::max)
                }
                _ => DEFAULT_BLOCK_A,
            };
            bounds.push(bound);
        }
        let worst = bounds.iter().fold(0.0f64, |a, &b| a.max(b));
        if worst <= 0.0 {
            continue;
        }
        let taps = if bounds.len() == points.len() {
            points.iter().copied().zip(bounds).collect()
        } else {
            Vec::new()
        };
        out.push(NetCurrent {
            net: net.clone(),
            worst_a: worst,
            taps,
        });
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn erc_artifacts<'a>(
    tech: &'a Technology,
    lib: &Library,
    spec: &CircuitSpec,
    biases: &HashMap<String, Bias>,
    routing: &'a RoutingResult,
    widths: &HashMap<String, u32>,
    rects: &[(String, Rect)],
    layouts: &HashMap<String, PrimitiveLayout>,
    power: Option<&PowerReport>,
    currents: Vec<NetCurrent>,
) -> ErcArtifacts<'a> {
    let mut art = ErcArtifacts::new(&spec.name, tech);
    art.routing = Some(routing);
    art.net_widths = widths.clone();
    art.net_currents = currents;
    if let Some(power) = power {
        for (i, (name, _)) in rects.iter().enumerate() {
            let Some(inst) = spec.instances.iter().find(|x| x.name == *name) else {
                continue;
            };
            let grid_drop = power.block_drops.get(i).copied().unwrap_or(0.0);
            let current = block_current(biases.get(name));
            let mut supply_ports: Vec<(&str, &str)> = inst
                .conn
                .iter()
                .filter(|(_, net)| is_power_net(net))
                .map(|(p, n)| (p.as_str(), n.as_str()))
                .collect();
            supply_ports.sort_unstable();
            for (port, net) in supply_ports {
                let internal_r = layouts
                    .get(name)
                    .and_then(|l| l.net_parasitics(port).ok())
                    .map_or(0.0, |p| p.r_access_ohm);
                art.supply.push(SupplyTap {
                    instance: name.clone(),
                    net: net.to_string(),
                    current_a: current,
                    grid_drop_v: grid_drop,
                    internal_r_ohm: internal_r,
                });
            }
        }
        art.tap_rows = power.strap_rows.clone();
    }
    art.outlines = rects.to_vec();
    art.pairs = spec
        .symmetry
        .iter()
        .map(|(a, b)| SymmetryPair {
            a: a.clone(),
            b: b.clone(),
        })
        .collect();
    art.centroid_groups = centroid_groups(spec, layouts);
    for inst in &spec.instances {
        let def = lib.get(&inst.def);
        let mut conns: Vec<(&str, &str)> = inst
            .conn
            .iter()
            .map(|(p, n)| (p.as_str(), n.as_str()))
            .collect();
        conns.sort_unstable();
        for (port, net) in conns {
            art.port_taps.push(PortTap {
                instance: inst.name.clone(),
                port: port.to_string(),
                net: net.to_string(),
                is_gate_only: def.is_some_and(|d| gate_only_port(&d.spec, port)),
            });
        }
        if let Some(def) = def {
            if !def.spec.devices.is_empty() {
                art.declared_ports
                    .push((inst.name.clone(), def.ports.clone()));
            }
        }
    }
    let mut by_net: HashMap<&str, bool> = HashMap::new();
    for tap in &art.port_taps {
        *by_net.entry(tap.net.as_str()).or_insert(true) &= tap.is_gate_only;
    }
    let mut external: Vec<String> = by_net
        .into_iter()
        .filter(|&(_, all_gate)| all_gate)
        .map(|(n, _)| n.to_string())
        .collect();
    external.sort_unstable();
    art.external_nets = external;
    art
}

fn centroid_groups(
    spec: &CircuitSpec,
    layouts: &HashMap<String, PrimitiveLayout>,
) -> Vec<CentroidGroup> {
    let mut out = Vec::new();
    for inst in &spec.instances {
        let Some(layout) = layouts.get(&inst.name) else {
            continue;
        };
        if layout.config.pattern != PlacementPattern::Abba || layout.devices.len() < 2 {
            continue;
        }
        let min_w = layout
            .devices
            .iter()
            .map(|d| d.w_m)
            .fold(f64::INFINITY, f64::min);
        let ratio = |w: f64| -> u64 {
            if min_w > 0.0 && min_w.is_finite() {
                (w / min_w).round().max(1.0) as u64
            } else {
                1
            }
        };
        let balanced = layout
            .devices
            .iter()
            .all(|d| (layout.config.nf as u64 * ratio(d.w_m)).is_multiple_of(2));
        if !balanced {
            continue;
        }
        out.push(CentroidGroup {
            instance: inst.name.clone(),
            centroids: layout
                .devices
                .iter()
                .map(|d| (d.name.clone(), d.centroid_x_nm))
                .collect(),
        });
    }
    out
}

fn metal_name(tech: &Technology, index: usize) -> String {
    tech.metals
        .get(index)
        .map(|m| m.name.clone())
        .unwrap_or_else(|| "boundary".to_string())
}

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

/// The flow's stream-out design: one structure per placed instance, the
/// routed tracks and pin labels in the top structure.
fn gds_design(
    tech: &Technology,
    spec: &CircuitSpec,
    geometry_of: &HashMap<String, Option<prima_layout::CellGeometry>>,
    rects: &[(String, Rect)],
    pins: &[(String, Vec<Point>)],
    bbox: Rect,
    detailed: &prima_route::detail::DetailedResult,
) -> GdsDesign {
    let mut cells = Vec::with_capacity(rects.len());
    let mut placements = Vec::with_capacity(rects.len());
    for (name, outline) in rects {
        match geometry_of.get(name).and_then(Option::as_ref) {
            Some(geom) => {
                cells.push(GdsCellDef {
                    name: name.clone(),
                    rects: geom
                        .rects
                        .iter()
                        .map(|(l, r)| (mask_layer_name(tech, *l), *r))
                        .collect(),
                });
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
        name: spec.name.clone(),
        cells,
        placements,
        top_rects,
        labels,
    }
}
