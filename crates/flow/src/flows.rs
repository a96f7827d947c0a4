//! The three evaluated layout flows (§IV): this work's optimized flow, the
//! conventional geometry-only baseline, and a manual-layout proxy.
//!
//! All flows share the placement and global-routing substrates and the same
//! manually-routed supply (IR drop included), differing exactly where the
//! paper differs: whether primitive layouts and port wire widths are chosen
//! by performance optimization or by defaults.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prima_cache::{CacheEventKind, CachePolicy, CacheStats, EvalCache, Fingerprintable};
use prima_core::{
    clamp_to_em_floor, quality_allowance, reconcile, route_wire, std_config_space, BinRanked,
    CancelToken, EvalLedger, Evaluated, FaultInjector, FaultPlan, GlobalRoute, NoFaults, Optimizer,
    Phase, PortConstraint, RepairBudgets, RepairCursor, ResilienceReport, RuleKind, Severity,
    SolverLimits, Violation,
};
use prima_erc::NetCurrent;
use prima_gds::GdsArtifact;
use prima_geom::Point;
use prima_layout::{generate, render, CellConfig, PlacementPattern, PrimitiveLayout};
use prima_pdk::Technology;
use prima_place::{Block, Net, Placement, PlacementProblem, Placer};
use prima_primitives::{Bias, ExternalWire, Library, PrimitiveDef, TESTBENCH_VERSION};
use prima_route::detail::{DetailError, DetailRouter, DetailedResult};
use prima_route::power::{synthesize, PowerGridSpec, PowerReport};
use prima_route::{GlobalRouter, NetRoute, RoutingProblem, RoutingResult};
use prima_verify::lints::{LintInputs, PortInterval};
use prima_verify::{check_flow, CellArtifact, FlowArtifacts, VerifyReport};

use crate::builder::{PrimitiveInst, Realization};
use crate::circuits::CircuitSpec;
use crate::corners::{corner_stage, CornerCtx, CornerPolicy, CornerReport};
use crate::electrical::{self, block_current, erc};
use crate::gds::{stream_out_stage, GdsCtx};
use crate::preflight::{schem_preflight, techlint_preflight};
use crate::FlowError;

/// Which flow produced a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// This work: primitive selection → tuning → place/route → port
    /// optimization.
    Optimized,
    /// Geometry-only baseline: default cells, single wires, no parasitic or
    /// LDE optimization.
    Conventional,
    /// Manual-layout proxy: the optimized flow with an extended search
    /// budget (see DESIGN.md for the substitution argument).
    Manual,
}

/// The static-gate policy: a single variant, kept so existing
/// [`FlowOptions`] literals still build. Every flow runs all four gates
/// (techlint, schem, DRC/LVS, ERC) in every build; any error-severity
/// violation fails it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyPolicy {
    /// The gates run (the only behaviour).
    #[default]
    On,
}

/// Whether the flow streams the finished layout out as a binary GDS-II
/// library (prima-gds) and attaches it to the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GdsPolicy {
    /// No stream-out (the default): the flow is bit-identical to a build
    /// without the GDS subsystem.
    #[default]
    Off,
    /// Stream out after the gates pass; a mapping or range failure aborts
    /// the flow with [`FlowError::Gds`].
    On,
}

impl GdsPolicy {
    /// Whether stream-out runs under this policy.
    pub fn enabled(self) -> bool {
        matches!(self, GdsPolicy::On)
    }
}

/// Switches for ablating individual steps of the optimized flow.
///
/// Not `Copy`: [`CachePolicy::Persistent`] carries a path.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowOptions {
    /// Run Algorithm 1 step 2 (parallel-wire tuning of selected layouts).
    pub tuning: bool,
    /// Run Algorithm 2 (port-constraint generation + reconciliation);
    /// disabled, every route keeps a single wire.
    pub port_optimization: bool,
    /// Static-gate policy; one variant, since the gates always run.
    pub verify: VerifyPolicy,
    /// Content-addressed evaluation caching (prima-cache). Off by default:
    /// cached runs produce bit-identical layouts but different simulation
    /// counts, and the counts are part of the paper's exhibits.
    pub cache: CachePolicy,
    /// Solver iteration limits: no fields, and nothing reads them. The
    /// bounds are constants of the DC and transient solvers.
    pub solver: SolverLimits,
    /// Wall-clock budget for the whole flow, measured from entry. Checked
    /// cooperatively — at candidate, Newton-iteration, route, and stage
    /// boundaries — so an expired run unwinds with [`FlowError::Cancelled`]
    /// shortly after the deadline, never mid-structure.
    pub deadline: Option<Duration>,
    /// Externally-owned cancellation handle. When both a token and a
    /// `deadline` are given, the token's deadline is tightened to whichever
    /// is earlier (visible to every clone of the token).
    pub cancel: Option<CancelToken>,
    /// PVT corner / Monte-Carlo mismatch evaluation of surviving
    /// candidates. Off by default: a zero-corner run takes exactly the
    /// nominal-only path and is bit-identical to it.
    pub corners: CornerPolicy,
    /// Binary GDS-II stream-out of the finished layout (prima-gds). Off
    /// by default; when on, the outcome carries a [`prima_gds::GdsArtifact`]
    /// whose bytes re-parse to a geometrically exact copy.
    pub gds: GdsPolicy,
}

impl Default for FlowOptions {
    fn default() -> Self {
        FlowOptions {
            tuning: true,
            port_optimization: true,
            verify: VerifyPolicy::default(),
            cache: CachePolicy::Off,
            solver: SolverLimits::default(),
            deadline: None,
            cancel: None,
            corners: CornerPolicy::Off,
            gds: GdsPolicy::Off,
        }
    }
}

/// Result of running a flow on a circuit.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Which flow ran.
    pub kind: FlowKind,
    /// The physical realization (layouts + net wires + supply IR).
    pub realization: Realization,
    /// Wall-clock runtime of the flow (Table VIII).
    pub runtime: Duration,
    /// Simulation counts per optimization phase (Table V).
    pub sims: BTreeMap<&'static str, usize>,
    /// Placement bounding-box area (µm²).
    pub area_um2: f64,
    /// Total global-route wirelength (µm).
    pub wirelength_um: f64,
    /// Detailed-routing track assignment (consumes the reconciled
    /// parallel-route widths, per the paper's hand-off to the detailed
    /// router).
    pub detailed: DetailedResult,
    /// Technology/library lint report ([`crate::preflight::techlint_preflight`]:
    /// deck self-consistency plus library feasibility on this deck), run
    /// before *everything* — the zeroth gate of the techlint → schem →
    /// layout → verify → erc chain. Always `Some` and always passing: a
    /// broken deck aborts the flow with [`FlowError::Verify`] carrying the
    /// exact `TECH.*`/`LIB.*` rule id.
    pub techlint: Option<VerifyReport>,
    /// Schematic preflight report ([`crate::schem`]: connectivity-graph lints,
    /// bias/sizing legality, topology recognition), run *before* any layout
    /// or simulation. Always `Some` and always passing: a failing preflight
    /// aborts the flow with [`FlowError::Verify`] in microseconds, before
    /// the optimizer is constructed.
    pub schem: Option<VerifyReport>,
    /// Static verification report (DRC + LVS-lite + lints). Always `Some`
    /// and always passing (no error-severity findings): unrepairable
    /// errors abort the flow with [`FlowError::Verify`]; degraded-severity
    /// findings ride along.
    pub verify: Option<VerifyReport>,
    /// Electrical rule check report (prima-erc: EM, IR, symmetry,
    /// connectivity hygiene), run right after the geometric gate. Like
    /// `verify`, always `Some` and always passing.
    pub erc: Option<VerifyReport>,
    /// What the flow survived: candidate evaluations lost to faults or
    /// panics, routing retries, gate-driven candidate fallbacks, and the
    /// overall health verdict. [`Health::Clean`](prima_core::Health::Clean)
    /// means the flow took the same path a fault-free run would.
    pub resilience: ResilienceReport,
    /// Evaluation-cache counters, when caching was enabled (see
    /// [`FlowOptions::cache`]). Hits substitute stored metric values
    /// bit-for-bit and are excluded from `sims`.
    pub cache: Option<CacheStats>,
    /// Degraded-severity cache incidents (`CACHE.CORRUPT`,
    /// `CACHE.INVALIDATED`, `CACHE.IO`): disk-tier problems absorbed by
    /// cold-starting the affected entries. Also recorded as resilience
    /// degradations; never fatal.
    pub cache_diagnostics: Vec<Violation>,
    /// Variation results, when [`FlowOptions::corners`] enabled the sweep:
    /// per-corner measures and worst-case margins per instance, the
    /// Monte-Carlo yield estimate (seed recorded), and any `CORNER.*`
    /// degradations (also mirrored into `resilience`).
    pub corners: Option<CornerReport>,
    /// The streamed-out GDS-II library, when [`FlowOptions::gds`] enabled
    /// stream-out. Carries the serialized bytes plus the in-memory
    /// [`prima_gds::GdsLibrary`] they were written from, so callers can
    /// re-parse and diff without touching disk.
    pub gds: Option<GdsArtifact>,
}

/// Fallback supply-rail series resistance when the power grid cannot be
/// synthesized (no placed blocks).
pub const SUPPLY_R_OHM: f64 = 6.0;

/// Nets excluded from signal routing/port optimization (power is routed
/// manually, as in the paper).
pub(crate) fn is_power_net(net: &str) -> bool {
    matches!(net, "vdd" | "vssn" | "vdd_ext")
}

/// The global route of every routed signal net, keyed by net name.
fn signal_routes(spec: &CircuitSpec, routing: &RoutingResult) -> HashMap<String, GlobalRoute> {
    let mut out = HashMap::new();
    for net in spec.nets() {
        if is_power_net(&net) {
            continue;
        }
        if let Some(route) = routing.net(&net) {
            out.insert(
                net,
                GlobalRoute {
                    layer: route.dominant_layer(),
                    len_nm: route.total_len_nm(),
                    via_ends: 2,
                },
            );
        }
    }
    out
}

/// A deterministic "default" configuration for the conventional flow: the
/// blocked pattern whose cell is closest to square — geometric constraints
/// met (a layout tool always targets compact, near-square cells), but no
/// electrical evaluation of any kind.
fn default_config(
    tech: &Technology,
    spec: &prima_layout::PrimitiveSpec,
    total_fins: u64,
) -> Option<CellConfig> {
    let mut configs = std_config_space(total_fins);
    configs.retain(|c| c.pattern == PlacementPattern::Aabb);
    // Geometry-only flows skip the LDE countermeasures: no edge dummies
    // (the paper lists dummy insertion among the optimizations with an
    // area/parasitic trade-off the conventional baseline does not weigh).
    for c in &mut configs {
        c.dummies = false;
    }
    configs.sort_by(|a, b| {
        let ar = |cfg: &CellConfig| {
            generate(tech, spec, cfg)
                .map(|l| {
                    let ar = l.aspect_ratio();
                    // Distance from square on a log scale.
                    ar.max(1.0 / ar)
                })
                .unwrap_or(f64::INFINITY)
        };
        ar(a).total_cmp(&ar(b))
    });
    configs.first().copied()
}

/// Runs the optimized (this-work) flow.
///
/// # Errors
///
/// Propagates optimization, placement, routing, and evaluation failures.
pub fn optimized_flow(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    biases: &HashMap<String, Bias>,
    seed: u64,
) -> Result<FlowOutcome, FlowError> {
    let (kind, options) = (FlowKind::Optimized, FlowOptions::default());
    let run = Run::new(tech, lib, spec, Some(biases), seed, kind, options);
    run_flow(run, &NoFaults)
}

/// Runs the optimized flow under a fault-injection plan with bounded
/// repair: faulted candidate evaluations are isolated and skipped, routing
/// failures retried with perturbed net orderings, and gate failures
/// repaired by falling back to the next-best candidate in the offending
/// aspect-ratio bin. A zero-fault [`FaultPlan`] reproduces
/// [`optimized_flow`] bit for bit.
///
/// # Errors
///
/// Same conditions as [`optimized_flow`]. When the detail router exhausts
/// its [`RepairBudgets::default`] attempts, the error is
/// [`FlowError::RepairExhausted`] with stage `"detail routing"`. A gate
/// failure that runs out of gate attempts surfaces as the gate's own
/// [`FlowError::Verify`]; one that runs out of fallback candidates first
/// is [`FlowError::RepairExhausted`] with stage `"verify gate"` or
/// `"erc gate"`.
pub fn optimized_flow_resilient(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    biases: &HashMap<String, Bias>,
    seed: u64,
    options: FlowOptions,
    plan: &FaultPlan,
) -> Result<FlowOutcome, FlowError> {
    let kind = FlowKind::Optimized;
    let run = Run::new(tech, lib, spec, Some(biases), seed, kind, options);
    run_flow(run, plan)
}

/// Runs the optimized flow with individual steps ablated (for the
/// step-contribution studies).
///
/// # Errors
///
/// Same conditions as [`optimized_flow`].
pub fn optimized_flow_with(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    biases: &HashMap<String, Bias>,
    seed: u64,
    options: FlowOptions,
) -> Result<FlowOutcome, FlowError> {
    let kind = FlowKind::Optimized;
    let run = Run::new(tech, lib, spec, Some(biases), seed, kind, options);
    run_flow(run, &NoFaults)
}

/// Runs the manual-layout proxy: the optimized flow with a wider search.
///
/// # Errors
///
/// Same conditions as [`optimized_flow`].
pub fn manual_flow(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    biases: &HashMap<String, Bias>,
    seed: u64,
) -> Result<FlowOutcome, FlowError> {
    let (kind, options) = (FlowKind::Manual, FlowOptions::default());
    let run = Run::new(tech, lib, spec, Some(biases), seed, kind, options);
    run_flow(run, &NoFaults)
}

/// Runs the conventional geometry-only baseline.
///
/// This models the non-hierarchical flow the paper compares against
/// ("transistors are laid out to meet geometrical constraints … but
/// performs no optimizations for parasitics", §IV): every *transistor* is
/// an individual placement block — there are no matched multi-device
/// cells — so the signal nets span many more, farther-apart pins than the
/// hierarchical flow's. Device-local parasitics are approximated by the
/// default (squarest, dummy-less, untuned) cell generation.
///
/// It takes no options: the four static gates (techlint, schem, DRC/LVS,
/// ERC) always run.
///
/// # Errors
///
/// Propagates placement/routing/generation failures, and gate
/// violations as [`FlowError::Verify`]. When the detail router exhausts
/// its [`RepairBudgets::default`] attempts, the error is
/// [`FlowError::RepairExhausted`] with stage `"detail routing"`.
pub fn conventional_flow(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    seed: u64,
) -> Result<FlowOutcome, FlowError> {
    let (kind, options) = (FlowKind::Conventional, FlowOptions::default());
    let run = Run::new(tech, lib, spec, None, seed, kind, options);
    let [techlint, schem] = preflight(&run)?;
    let layouts = default_cells(&run)?;
    let placed = flat_place_and_route(&run)?;
    let (supply_r_ohm, power) = supply_grid(&run, &placed);
    let wires = single_wires(&run, &placed);
    let mut resilience = ResilienceReport::new();
    let router = detail_router(&run, &NoFaults);
    let detailed = detail_route(&run, &router, &placed, &wires.widths, &mut resilience)?;
    let verify = gate(verify(&run, &placed, &detailed, LintInputs::default()))?;
    let erc = gate(erc(&run, &placed, &layouts, power.as_ref(), &wires))?;
    let reports = [techlint, schem, verify, erc];
    let realization = Realization {
        layouts,
        net_wires: wires.net_wires,
        supply_r_ohm,
    };
    let outcome = finish(&run, reports, realization, &placed, detailed);
    Ok(FlowOutcome {
        resilience,
        ..outcome
    })
}

/// One instance of a run, resolved once: its definition and the bias it is
/// evaluated under.
pub(crate) struct Inst<'a> {
    /// The circuit instance: name, sizing and connections.
    pub(crate) inst: &'a PrimitiveInst,
    /// Its primitive definition.
    pub(crate) def: &'a PrimitiveDef,
    /// Its bias record, else the nominal bias of its class.
    pub(crate) bias: Bias,
}

/// The fixed inputs of one flow run, shared by every stage.
pub(crate) struct Run<'a> {
    pub(crate) tech: &'a Technology,
    pub(crate) lib: &'a Library,
    pub(crate) spec: &'a CircuitSpec,
    seed: u64,
    /// Per-instance operating points; the conventional baseline has none.
    pub(crate) biases: Option<&'a HashMap<String, Bias>>,
    pub(crate) kind: FlowKind,
    options: FlowOptions,
    /// The caller's token, a deadline token, or both merged.
    cancel: Option<CancelToken>,
    start: Instant,
    /// Every instance whose definition the library holds, in spec order.
    /// The schematic gate (`SCHEM.DEF`) rejects any other before a stage
    /// reads this.
    pub(crate) insts: Vec<Inst<'a>>,
}

impl<'a> Run<'a> {
    fn new(
        tech: &'a Technology,
        lib: &'a Library,
        spec: &'a CircuitSpec,
        biases: Option<&'a HashMap<String, Bias>>,
        seed: u64,
        kind: FlowKind,
        options: FlowOptions,
    ) -> Self {
        let start = Instant::now();
        let cancel = effective_cancel(&options);
        let insts = spec
            .instances
            .iter()
            .filter_map(|inst| {
                let def = lib.get(&inst.def)?;
                let bias = biases
                    .and_then(|b| b.get(&inst.name))
                    .cloned()
                    .unwrap_or_else(|| Bias::nominal(tech, &def.class));
                Some(Inst { inst, def, bias })
            })
            .collect();
        Run {
            tech,
            lib,
            spec,
            seed,
            biases,
            kind,
            options,
            cancel,
            start,
            insts,
        }
    }

    /// The instances with devices: passives are neither optimized nor
    /// laid out.
    fn sized(&self) -> impl Iterator<Item = &Inst<'a>> {
        self.insts.iter().filter(|i| !i.def.spec.devices.is_empty())
    }

    /// The definition of the instance named `name`.
    fn def_of(&self, name: &str) -> Option<&'a PrimitiveDef> {
        self.insts
            .iter()
            .find(|i| i.inst.name == name)
            .map(|i| i.def)
    }

    /// Aspect-ratio bins per primitive: the manual proxy searches one more.
    fn n_bins(&self) -> usize {
        match self.kind {
            FlowKind::Manual => 4,
            _ => 3,
        }
    }
}

/// Shared optimized/manual pipeline with fault isolation and repair
/// bounded by [`RepairBudgets::default`]. With [`NoFaults`] and no organic
/// failures every loop below runs exactly once and the result is
/// bit-identical to the pre-resilience flow.
fn run_flow(run: Run<'_>, injector: &dyn FaultInjector) -> Result<FlowOutcome, FlowError> {
    let [techlint, schem] = preflight(&run)?;
    let (opt, cache) = optimizer(&run);
    let mut resilience = ResilienceReport::new();
    let mut ledger = EvalLedger::new();
    let mut states = select(&run, &opt, injector, &mut ledger, &mut resilience)?;
    let corners = corner_sweep(&run, &opt, cache, &mut states, &mut ledger, &mut resilience)?;
    let router = detail_router(&run, injector);
    let metric_weights = metric_weights(&run);
    let mut gate_attempt: u32 = 0;
    loop {
        gate_attempt += 1;
        checkpoint(&run.cancel)?;
        let cells = cell_options(&run, &states)?;
        let mut placed = place_and_route(&run, &cells)?;
        let (supply_r_ohm, power) = supply_grid(&run, &placed);
        let wires = ports(&run, &opt, &placed)?;
        let detailed = detail_route(&run, &router, &placed, &wires.widths, &mut resilience)?;
        let lints = LintInputs {
            metric_weights: metric_weights.clone(),
            aspect_candidates: cells
                .values()
                .flatten()
                .map(|(_, l)| l.aspect_ratio())
                .collect(),
            n_bins: run.n_bins(),
            ports: port_intervals(&run, &wires),
        };
        let verify = verify(&run, &placed, &detailed, lints);
        let erc = erc(&run, &placed, &placed.chosen, power.as_ref(), &wires);
        let failing = [("verify", &verify), ("erc", &erc)]
            .into_iter()
            .find(|(_, r)| !r.is_passing());
        let Some((gate_name, report)) = failing else {
            resilience.absorb_ledger(&ledger);
            let (cache, cache_diagnostics) = finish_cache(opt.cache(), &mut resilience);
            let gds = stream_out(&run, &placed, &detailed)?;
            let realization = Realization {
                layouts: std::mem::take(&mut placed.chosen),
                net_wires: wires.net_wires,
                supply_r_ohm,
            };
            let reports = [techlint, schem, verify, erc];
            return Ok(FlowOutcome {
                sims: sim_counts(&opt),
                resilience,
                cache,
                cache_diagnostics,
                corners,
                gds,
                ..finish(&run, reports, realization, &placed, detailed)
            });
        };
        if gate_attempt >= RepairBudgets::default().gate_attempts {
            // Out of budget: surface the gate failure itself.
            return Err(gate_error(report));
        }
        let failure = (gate_name, report);
        let on_trial = &placed.chosen_bin;
        if !repair(
            &opt,
            &run,
            &mut states,
            on_trial,
            failure,
            &mut ledger,
            &mut resilience,
        ) {
            return Err(FlowError::RepairExhausted {
                circuit: run.spec.name.clone(),
                stage: format!("{gate_name} gate"),
                attempts: gate_attempt,
                last: first_error(report),
            });
        }
        resilience.gate_retries += 1;
    }
}

/// Stage (every flow): the deck gate, then the schematic gate. A deck whose
/// rule tables drifted from its stack dies with an exact `TECH.*`/`LIB.*`
/// rule id instead of panicking inside a router, and a malformed request
/// with exact `SCHEM.*` ids before any optimizer exists. Also refuses to
/// start a run whose budget is already spent.
fn preflight(run: &Run<'_>) -> Result<[VerifyReport; 2], FlowError> {
    checkpoint(&run.cancel)?;
    let techlint = gate(techlint_preflight(run.tech, run.lib))?;
    let schem = gate(schem_preflight(run.tech, run.lib, run.spec, run.biases))?;
    Ok([techlint, schem])
}

/// The run's optimizer: the evaluation cache and cancel token, and the
/// manual proxy's wider tuning and port search. The cache handle is
/// returned too: corner-perturbed optimizers share the same store under
/// their own key address space (see `Optimizer::set_cache`).
fn optimizer<'a>(run: &Run<'a>) -> (Optimizer<'a>, Option<Arc<EvalCache>>) {
    let mut opt = Optimizer::new(run.tech);
    let cache = open_cache(&run.options.cache, run.tech);
    if let Some(cache) = &cache {
        opt.set_cache(cache.clone());
    }
    if let Some(token) = &run.cancel {
        opt.set_cancel(token.clone());
    }
    if run.kind == FlowKind::Manual {
        opt.max_tuning_wires = 10;
        opt.max_port_routes = 10;
    }
    (opt, cache)
}

/// Stage (optimized and manual): Algorithm 1 per primitive, selection then
/// tuning of each bin's winner. Instances sharing (definition, sizing,
/// bias) — e.g. the sixteen identical current-starved inverters of the
/// VCO — are optimized once and start from the same ranked bins; the
/// repair loop may then walk their fallback cursors apart per instance.
/// Candidate evaluations that fail or panic are recorded in the ledger and
/// skipped inside `select_bins`; the bins hold the survivors.
fn select<'a>(
    run: &Run<'a>,
    opt: &Optimizer,
    injector: &dyn FaultInjector,
    ledger: &mut EvalLedger,
    resilience: &mut ResilienceReport,
) -> Result<Vec<(String, InstState<'a>)>, FlowError> {
    let mut states: Vec<(String, InstState<'a>)> = Vec::new();
    // Each group's key and the state index of its leader.
    let mut groups: Vec<((&str, u64, &Bias), usize)> = Vec::new();
    for Inst { inst, def, bias } in run.sized() {
        if let Some(&(_, group)) = groups
            .iter()
            .find(|((d, f, b), _)| *d == inst.def && *f == inst.total_fins && *b == bias)
        {
            let leader = &states[group].1;
            let state = InstState {
                def,
                bias: bias.clone(),
                cursor: RepairCursor::new(leader.bins.len()),
                dead: vec![false; leader.bins.len()],
                bins: leader.bins.clone(),
                active: leader.active.clone(),
                group,
            };
            states.push((inst.name.clone(), state));
            continue;
        }
        let configs = std_config_space(inst.total_fins);
        let bins: Vec<BinRanked> = opt
            .select_bins(def, bias, &configs, run.n_bins(), injector, ledger)?
            .into_iter()
            .filter(|b| !b.ranked.is_empty())
            .collect();
        if bins.is_empty() {
            return Err(FlowError::NoCandidates {
                instance: inst.name.clone(),
            });
        }
        let tuning = run.options.tuning;
        let active = bins
            .iter()
            .filter_map(|bin| bin.ranked.first())
            .map(|pick| tuned_candidate(opt, def, bias, pick, tuning, resilience, &inst.name))
            .collect();
        let group = states.len();
        groups.push(((inst.def.as_str(), inst.total_fins, bias), group));
        let state = InstState {
            def,
            bias: bias.clone(),
            cursor: RepairCursor::new(bins.len()),
            dead: vec![false; bins.len()],
            bins,
            active,
            group,
        };
        states.push((inst.name.clone(), state));
    }
    Ok(states)
}

/// Stage (optimized and manual, under [`CornerPolicy::Sweep`]): PVT corner
/// gating and Monte-Carlo mismatch of the surviving candidates, between
/// selection and placement. Exhaustion degrades (`CORNER.*` diagnostics),
/// never errors; cancellation unwinds.
fn corner_sweep(
    run: &Run<'_>,
    opt: &Optimizer,
    cache: Option<Arc<EvalCache>>,
    states: &mut [(String, InstState<'_>)],
    ledger: &mut EvalLedger,
    resilience: &mut ResilienceReport,
) -> Result<Option<CornerReport>, FlowError> {
    let CornerPolicy::Sweep(copts) = &run.options.corners else {
        return Ok(None);
    };
    let ctx = CornerCtx {
        tech: run.tech,
        opt,
        copts,
        tuning: run.options.tuning,
        cache,
        cancel: &run.cancel,
    };
    Ok(Some(corner_stage(&ctx, states, ledger, resilience)?))
}

/// Stage (conventional): the default layout of every sized instance, the
/// squarest blocked configuration, untuned.
fn default_cells(run: &Run<'_>) -> Result<BTreeMap<String, PrimitiveLayout>, FlowError> {
    let mut layouts = BTreeMap::new();
    for Inst { inst, def, .. } in run.sized() {
        if let Some(cfg) = default_config(run.tech, &def.spec, inst.total_fins) {
            let layout = generate(run.tech, &def.spec, &cfg).map_err(prima_core::OptError::from)?;
            layouts.insert(inst.name.clone(), layout);
        }
    }
    Ok(layouts)
}

/// Each instance's current option set: the live bins' active candidates,
/// each with its bin. Quality guard: the placer chooses among these by
/// geometry alone, so aspect-ratio options whose cost is far off the best
/// are dropped — they would let a pathological bin winner into the layout.
fn cell_options(
    run: &Run<'_>,
    states: &[(String, InstState<'_>)],
) -> Result<HashMap<String, Vec<(usize, PrimitiveLayout)>>, FlowError> {
    let mut cells = HashMap::new();
    for (name, st) in states {
        let live: Vec<usize> = (0..st.active.len()).filter(|&i| !st.dead[i]).collect();
        if live.is_empty() {
            return Err(FlowError::NoCandidates {
                instance: name.clone(),
            });
        }
        let best = live
            .iter()
            .map(|&i| st.active[i].1)
            .fold(f64::INFINITY, f64::min);
        let mut keep: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&i| st.active[i].1 <= quality_allowance(best))
            .collect();
        if keep.is_empty() {
            keep = live.clone();
        }
        if run.kind == FlowKind::Manual {
            // The expert commits to the single best-performing cell and
            // hand-fits the floorplan around it.
            let best_bin = live
                .iter()
                .copied()
                .min_by(|&a, &b| st.active[a].1.total_cmp(&st.active[b].1));
            keep = best_bin.into_iter().collect();
        }
        let options = keep.iter().map(|&i| (i, st.active[i].0.clone())).collect();
        cells.insert(name.clone(), options);
    }
    Ok(cells)
}

/// Stage (optimized and manual): places the cells, choosing an option per
/// instance, and global-routes the signal nets.
fn place_and_route(
    run: &Run<'_>,
    options: &HashMap<String, Vec<(usize, PrimitiveLayout)>>,
) -> Result<PlacedDesign, FlowError> {
    let spec = run.spec;
    let mut problem = PlacementProblem::new();
    let mut blocks: Vec<(String, usize)> = Vec::new();
    let mut index_of: HashMap<String, usize> = HashMap::new();
    for inst in &spec.instances {
        let variants: Vec<(i64, i64)> = match options.get(&inst.name) {
            Some(layouts) if !layouts.is_empty() => layouts
                .iter()
                .map(|(_, l)| (l.bbox.width(), l.bbox.height()))
                .collect(),
            // Passives / unoptimized: a nominal footprint.
            _ => vec![(1000, 1000)],
        };
        let ix = problem.add_block(Block::new(&inst.name, variants));
        index_of.insert(inst.name.clone(), ix);
        blocks.push((inst.name.clone(), ix));
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
    let placement = Placer::new(run.seed).place(&problem)?;

    // Chosen layout per instance = the variant the placer picked.
    let mut chosen = BTreeMap::new();
    let mut chosen_bin = HashMap::new();
    for inst in &spec.instances {
        if let Some(layouts) = options.get(&inst.name).filter(|l| !l.is_empty()) {
            let v = placement.variants[index_of[&inst.name]].min(layouts.len() - 1);
            let (bin, layout) = &layouts[v];
            chosen.insert(inst.name.clone(), layout.clone());
            chosen_bin.insert(inst.name.clone(), *bin);
        }
    }

    // Routing: pins at per-net port positions inside each block. A cell's
    // ports sit at distinct boundary locations, so each net gets a
    // deterministic offset from the block center derived from its name —
    // this is what lets the detailed router keep symmetric pairs apart.
    let placed = global_route(run, &problem, &placement, &blocks, |net| {
        let mut pins: Vec<Point> = Vec::new();
        let mut seen = Vec::new();
        for (inst, port) in spec.taps(net) {
            if seen.contains(&inst.name) {
                continue;
            }
            seen.push(inst.name.clone());
            let r = placement.rect(&problem, index_of[&inst.name]);
            let c = r.center();
            let h = port_hash(port);
            let dx = (h % 1024) as i64 * (r.width() / 2) / 1024 - r.width() / 4;
            let dy = ((h / 1024) % 1024) as i64 * (r.height() / 2) / 1024 - r.height() / 4;
            pins.push(Point::new(c.x + dx, c.y + dy));
        }
        pins
    })?;
    Ok(PlacedDesign {
        chosen,
        chosen_bin,
        ..placed
    })
}

/// Stage (conventional): flat, transistor-level placement and routing.
/// Each device of each primitive is its own block, and every signal net
/// pins onto every connected device individually.
fn flat_place_and_route(run: &Run<'_>) -> Result<PlacedDesign, FlowError> {
    let tech = run.tech;
    let mut problem = PlacementProblem::new();
    // (instance, block ix) per block, plus which nets its terminals use.
    let mut blocks: Vec<(String, usize)> = Vec::new();
    let mut block_nets: Vec<Vec<String>> = Vec::new();
    for Inst { inst, def, .. } in run.sized() {
        for d in &def.spec.devices {
            // A lone transistor block: square-ish footprint from its fin
            // count on the technology grid.
            let fins = (inst.total_fins * d.ratio as u64).max(1);
            let area_nm2 =
                fins as f64 * tech.fin.fin_pitch as f64 * tech.fin.poly_pitch as f64 * 2.0;
            let side = (area_nm2.sqrt() as i64).max(200);
            let ix = problem.add_block(Block::new(
                &format!("{}::{}", inst.name, d.name),
                vec![(side, side)],
            ));
            blocks.push((inst.name.clone(), ix));
            let nets: Vec<String> = [&d.drain, &d.gate, &d.source]
                .iter()
                .filter_map(|port| inst.net_of(port).map(str::to_string))
                .collect();
            block_nets.push(nets);
        }
    }
    // The blocks whose terminals touch `net`.
    let on_net = |net: &str| -> Vec<usize> {
        (0..block_nets.len())
            .filter(|&i| block_nets[i].iter().any(|n| n == net))
            .collect()
    };
    for net in run.spec.nets() {
        if is_power_net(&net) {
            continue;
        }
        let pins = on_net(&net);
        if pins.len() >= 2 {
            problem.add_net(Net::new(&net, pins));
        }
    }
    let placement = Placer::new(run.seed).place(&problem)?;
    global_route(run, &problem, &placement, &blocks, |net| {
        on_net(net)
            .into_iter()
            .map(|i| placement.rect(&problem, i).center())
            .collect()
    })
}

/// The tail both placements share: global-routes every signal net over the
/// pins `pins_of` gives it (a net with fewer than two stays unrouted) and
/// assembles the hand-off, with no cells chosen. `blocks` names each
/// reported outline and gives its block index.
fn global_route(
    run: &Run<'_>,
    problem: &PlacementProblem,
    placement: &Placement,
    blocks: &[(String, usize)],
    pins_of: impl Fn(&str) -> Vec<Point>,
) -> Result<PlacedDesign, FlowError> {
    let mut routing_problem = RoutingProblem::new();
    let mut pins: Vec<(String, Vec<Point>)> = Vec::new();
    for net in run.spec.nets() {
        if is_power_net(&net) {
            continue;
        }
        let net_pins = pins_of(&net);
        if net_pins.len() >= 2 {
            routing_problem.add_net(&net, net_pins.clone());
            pins.push((net, net_pins));
        }
    }
    let routing = GlobalRouter::new(run.tech).route(&routing_problem)?;
    let bbox = placement.bbox(problem);
    Ok(PlacedDesign {
        area_um2: bbox.area() as f64 * 1e-6,
        routing,
        chosen: BTreeMap::new(),
        chosen_bin: HashMap::new(),
        bbox,
        rects: blocks
            .iter()
            .map(|(name, ix)| (name.clone(), placement.rect(problem, *ix)))
            .collect(),
        pins,
    })
}

/// Stage (every flow): synthesizes the (manually-routed, in the paper's
/// terms) power grid over the placement. Returns the effective rail
/// resistance and the grid report, whose strap rows and per-block feed
/// drops feed the ERC gate's IR and well-tap checks.
fn supply_grid(run: &Run<'_>, placed: &PlacedDesign) -> (f64, Option<PowerReport>) {
    if placed.rects.is_empty() {
        return (SUPPLY_R_OHM, None);
    }
    let blocks: Vec<(prima_geom::Rect, f64)> = placed
        .rects
        .iter()
        .map(|(name, r)| (*r, block_current(run.biases.and_then(|b| b.get(name)))))
        .collect();
    let spec = PowerGridSpec::for_tech(run.tech);
    let report = synthesize(run.tech, placed.bbox, &blocks, &spec);
    (report.effective_r_ohm.clamp(0.05, 25.0), Some(report))
}

/// What Algorithm 2 hands on: the wire RC per net, the parallel-route count
/// the detailed router and ERC read, the currents ERC's EM pass checks and
/// the port constraints the lints fold.
#[derive(Default)]
pub(crate) struct Wires {
    net_wires: BTreeMap<String, ExternalWire>,
    pub(crate) widths: HashMap<String, u32>,
    pub(crate) currents: Vec<NetCurrent>,
    per_net: HashMap<String, Vec<PortConstraint>>,
}

/// Stage (optimized and manual): Algorithm 2. Port constraints per
/// primitive, reconciled per net into a parallel-route count.
fn ports(run: &Run<'_>, opt: &Optimizer, placed: &PlacedDesign) -> Result<Wires, FlowError> {
    let port_optimization = run.options.port_optimization;
    let net_routes = signal_routes(run.spec, &placed.routing);
    let mut per_net: HashMap<String, Vec<PortConstraint>> = HashMap::new();
    for Inst { inst, def, bias } in run.sized() {
        // The routes at this primitive's ports, keyed by port net name.
        let routes: HashMap<String, GlobalRoute> = inst
            .conn
            .iter()
            .filter_map(|(port, net)| net_routes.get(net).map(|gr| (port.clone(), *gr)))
            .collect();
        if routes.is_empty() {
            continue;
        }
        let layout = placed.chosen.get(&inst.name);
        for c in opt.port_constraints(def, bias, layout, inst.total_fins, &routes)? {
            // Back-map the port name to the circuit net.
            if let Some(net) = inst.net_of(&c.net) {
                let net = net.to_string();
                let c = PortConstraint {
                    net: net.clone(),
                    ..c
                };
                per_net.entry(net).or_default().push(c);
            }
        }
    }
    // EM clamp: raise every net's width interval to the EM-safe floor for
    // its worst-case current *before* reconciliation, so the widths handed
    // to the detailed router pass the electrical gate by construction; the
    // gate's EM pass reads the same currents. Currents only exist when
    // port optimization runs — the ablated flow chooses no widths, so there
    // is nothing to keep safe.
    let currents = if port_optimization {
        electrical::net_currents(run.spec, &run.insts, &placed.pins)
    } else {
        Vec::new()
    };
    let mut floors: HashMap<String, u32> = HashMap::new();
    for nc in &currents {
        if let Some(route) = placed.routing.net(&nc.net) {
            let floor = prima_erc::em::em_floor(run.tech, route, nc.worst_a);
            floors.insert(nc.net.clone(), floor);
        }
    }
    for (net, constraints) in &mut per_net {
        if let Some(&floor) = floors.get(net) {
            clamp_to_em_floor(constraints, floor);
        }
    }
    let mut widths: HashMap<String, u32> = HashMap::new();
    for (net, constraints) in &per_net {
        let w = if port_optimization {
            reconcile(constraints).w
        } else {
            1
        };
        widths.insert(net.clone(), w);
    }
    // Routed nets no primitive constrained still get the EM-safe width
    // (single wires when the net carries no known current).
    let mut net_wires = BTreeMap::new();
    for (net, gr) in &net_routes {
        let floor = || floors.get(net).copied().unwrap_or(1);
        let w = *widths.entry(net.clone()).or_insert_with(floor);
        net_wires.insert(net.clone(), route_wire(run.tech, gr, w));
    }
    Ok(Wires {
        net_wires,
        widths,
        currents,
        per_net,
    })
}

/// Stage (conventional): single-wire routes everywhere, k = 1. The
/// baseline chooses no widths and has no operating points, so its wires
/// carry no currents for ERC's EM pass.
fn single_wires(run: &Run<'_>, placed: &PlacedDesign) -> Wires {
    let net_wires = signal_routes(run.spec, &placed.routing)
        .into_iter()
        .map(|(net, gr)| (net, route_wire(run.tech, &gr, 1)))
        .collect();
    Wires {
        net_wires,
        ..Wires::default()
    }
}

/// The run's detailed router, one for the whole run: injected route faults
/// are consumed by the attempt that trips over them and stay consumed, so a
/// retry can succeed.
fn detail_router<'a>(run: &Run<'a>, injector: &dyn FaultInjector) -> DetailRouter<'a> {
    let mut router = DetailRouter::new(run.tech);
    router.set_cancel(run.cancel.clone());
    for net in run.spec.nets() {
        let n = injector.route_failures(&net);
        if n > 0 {
            router.inject_failure(&net, n);
        }
    }
    router
}

/// Stage (every flow): detailed routing at the reconciled widths (paper
/// §I: "the optimized widths are a requirement for the detailed router").
/// A failed attempt is retried with a perturbed net order — the failing
/// net first — up to the route budget.
fn detail_route(
    run: &Run<'_>,
    router: &DetailRouter<'_>,
    placed: &PlacedDesign,
    widths: &HashMap<String, u32>,
    resilience: &mut ResilienceReport,
) -> Result<DetailedResult, FlowError> {
    let mut routes: Cow<'_, [NetRoute]> = Cow::Borrowed(placed.routing.routes());
    let mut attempt: u32 = 0;
    loop {
        attempt += 1;
        let e = match router.assign_with_symmetry(&routes, widths, &run.spec.symmetric_nets) {
            Ok(d) => return Ok(d),
            Err(e) => e,
        };
        let net = match &e {
            DetailError::Congested { net, .. }
            | DetailError::ZeroWidth { net }
            | DetailError::PairDesync { net }
            | DetailError::BadLayer { net, .. } => net.clone(),
            // Cancellation is not a routing failure: no retry, no
            // perturbed re-attempt — unwind immediately.
            DetailError::Cancelled(c) => return Err(FlowError::Cancelled(*c)),
        };
        if attempt >= RepairBudgets::default().route_attempts {
            return Err(FlowError::RepairExhausted {
                circuit: run.spec.name.clone(),
                stage: "detail routing".to_string(),
                attempts: attempt,
                last: e.to_string(),
            });
        }
        resilience.route_retries += 1;
        let action = format!("attempt {attempt} failed ({e}); retrying with perturbed net order");
        resilience.record("routing", &net, action);
        routes = Cow::Owned(perturb_routes(routes.into_owned(), &net, attempt as usize));
    }
}

/// The cost weights of every distinct definition's metrics, in instance
/// order, for the weight lint.
fn metric_weights(run: &Run<'_>) -> Vec<(String, f64)> {
    let mut seen: Vec<&str> = Vec::new();
    let mut weights = Vec::new();
    for Inst { def, .. } in &run.insts {
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

/// Stage (every flow): the static verification gate (DRC + LVS-lite +
/// lints) over each placed block. A chosen cell's mask geometry is
/// re-rendered, since the DRC pass checks the drawn rectangles, not the
/// parasitic model; the flat flow's per-transistor blocks carry none, so
/// its pass covers placement legality, routing DRC and connectivity.
fn verify(
    run: &Run<'_>,
    placed: &PlacedDesign,
    detailed: &DetailedResult,
    lints: LintInputs,
) -> VerifyReport {
    let mut artifacts = FlowArtifacts::new(&run.spec.name, run.tech);
    artifacts.cells = placed
        .rects
        .iter()
        .map(|(name, outline)| CellArtifact {
            instance: name.clone(),
            outline: *outline,
            geometry: placed.chosen.get(name).and_then(|layout| {
                let def = run.def_of(name)?;
                render(run.tech, &def.spec, &layout.config).ok()
            }),
        })
        .collect();
    artifacts.pins = placed.pins.clone();
    artifacts.routing = Some(&placed.routing);
    artifacts.detailed = Some(detailed);
    artifacts.expected_nets = placed.pins.iter().map(|(n, _)| n.clone()).collect();
    artifacts.lints = lints;
    check_flow(&artifacts)
}

/// Stage (optimized and manual, under [`GdsPolicy::On`]): GDS-II
/// stream-out, run only on the gate-clean geometry.
fn stream_out(
    run: &Run<'_>,
    placed: &PlacedDesign,
    detailed: &DetailedResult,
) -> Result<Option<GdsArtifact>, FlowError> {
    if !run.options.gds.enabled() {
        return Ok(None);
    }
    let ctx = GdsCtx {
        tech: run.tech,
        lib: run.lib,
        spec: run.spec,
        chosen: &placed.chosen,
        rects: &placed.rects,
        pins: &placed.pins,
        bbox: placed.bbox,
        detailed,
    };
    Ok(Some(stream_out_stage(&ctx)?))
}

/// Simulation counts per optimization phase.
fn sim_counts(opt: &Optimizer) -> BTreeMap<&'static str, usize> {
    let count = |phase| opt.counter().count(phase);
    BTreeMap::from([
        ("selection", count(Phase::Selection)),
        ("tuning", count(Phase::Tuning)),
        ("ports", count(Phase::PortConstraints)),
        ("corners", count(Phase::Corners)),
    ])
}

/// Stage (every flow): the outcome of a run whose four gates passed, in
/// gate order. Each flow sets its own resilience record over this, and the
/// optimized flow its simulation counts, cache, corner and GDS results.
fn finish(
    run: &Run<'_>,
    [techlint, schem, verify, erc]: [VerifyReport; 4],
    realization: Realization,
    placed: &PlacedDesign,
    detailed: DetailedResult,
) -> FlowOutcome {
    FlowOutcome {
        kind: run.kind,
        realization,
        runtime: run.start.elapsed(),
        sims: BTreeMap::new(),
        area_um2: placed.area_um2,
        wirelength_um: placed.routing.total_wirelength() as f64 / 1000.0,
        detailed,
        techlint: Some(techlint),
        schem: Some(schem),
        verify: Some(verify),
        erc: Some(erc),
        resilience: ResilienceReport::new(),
        cache: None,
        cache_diagnostics: Vec::new(),
        corners: None,
        gds: None,
    }
}

/// Gate repair (optimized and manual): demotes one instance's bin on trial
/// — the candidate the placer actually put in the layout — to its next
/// candidate, or drops the bin. Victim priority: instances a violation
/// names, then instances tapping a violation's net, then spec order; the
/// first with a usable fallback is repaired. Returns whether one was.
fn repair(
    opt: &Optimizer,
    run: &Run<'_>,
    states: &mut [(String, InstState<'_>)],
    on_trial: &HashMap<String, usize>,
    (gate_name, report): (&str, &VerifyReport),
    ledger: &mut EvalLedger,
    resilience: &mut ResilienceReport,
) -> bool {
    let first = first_error(report);
    let mut victims: Vec<String> = Vec::new();
    for scope in error_scopes(report) {
        if states.iter().any(|(n, _)| *n == scope) {
            victims.push(scope);
        } else {
            victims.extend(run.spec.taps(&scope).iter().map(|(i, _)| i.name.clone()));
        }
    }
    victims.extend(states.iter().map(|(n, _)| n.clone()));
    let mut uniq: Vec<String> = Vec::new();
    for v in victims {
        if !uniq.contains(&v) {
            uniq.push(v);
        }
    }
    for name in uniq {
        let Some((_, st)) = states.iter_mut().find(|(n, _)| *n == name) else {
            continue;
        };
        let Some(&bin) = on_trial.get(&name) else {
            continue;
        };
        let why = Fallback {
            opt,
            tuning: run.options.tuning,
            stage: "gate",
            inst: &name,
            cause: format!("{gate_name} gate failed ({first})"),
            note: format!("failed {gate_name} gate: {first}"),
        };
        let fell_back = st.fall_back(bin, &why, ledger, resilience);
        if fell_back.is_some() || st.drop_bin(bin, &why, resilience) {
            return true;
        }
    }
    false
}

/// Opens the evaluation cache `policy` asks for, keyed under this
/// technology's content fingerprint and the current testbench revision.
fn open_cache(policy: &CachePolicy, tech: &Technology) -> Option<Arc<EvalCache>> {
    match policy {
        CachePolicy::Off => None,
        // `resolve` hands back the caller's store for `CachePolicy::Shared`
        // (the serving layer's per-tenant namespaces) and opens a fresh one
        // otherwise.
        policy => Some(EvalCache::resolve(
            policy.clone(),
            tech.fingerprint(),
            TESTBENCH_VERSION,
        )),
    }
}

/// Snapshots the cache to disk and converts its disk-tier incidents into
/// degraded-severity diagnostics plus resilience degradations. A failing
/// snapshot is itself such an incident — cache problems are never fatal.
fn finish_cache(
    cache: Option<&EvalCache>,
    resilience: &mut ResilienceReport,
) -> (Option<CacheStats>, Vec<Violation>) {
    let Some(cache) = cache else {
        return (None, Vec::new());
    };
    let mut diagnostics = Vec::new();
    if let Err(e) = cache.save() {
        diagnostics.push(Violation::new(
            "CACHE.IO",
            RuleKind::Lint,
            Severity::Degraded,
            Some("cache".to_string()),
            format!("snapshot failed: {e}"),
        ));
    }
    for event in cache.events() {
        let rule_id = match event.kind {
            CacheEventKind::Corrupt => "CACHE.CORRUPT",
            CacheEventKind::Invalidated => "CACHE.INVALIDATED",
            CacheEventKind::Io => "CACHE.IO",
        };
        diagnostics.push(Violation::new(
            rule_id,
            RuleKind::Lint,
            Severity::Degraded,
            Some("cache".to_string()),
            event.detail,
        ));
    }
    for v in &diagnostics {
        resilience.record("cache", &v.rule_id, v.message.clone());
    }
    (Some(cache.stats()), diagnostics)
}

/// Turns a failing verification report into a flow error; passing reports
/// (no error-severity findings — degraded/warning findings ride along)
/// pass through for the outcome.
fn gate(report: VerifyReport) -> Result<VerifyReport, FlowError> {
    if report.is_passing() {
        Ok(report)
    } else {
        Err(gate_error(&report))
    }
}

/// The effective cancellation handle of one run: the caller's token, a
/// fresh deadline token, or both merged (earliest deadline wins; the
/// tightening is visible to every clone of the caller's token).
fn effective_cancel(options: &FlowOptions) -> Option<CancelToken> {
    match (&options.cancel, options.deadline) {
        (Some(t), Some(d)) => {
            t.tighten_deadline(d);
            Some(t.clone())
        }
        (Some(t), None) => Some(t.clone()),
        (None, Some(d)) => Some(CancelToken::with_deadline(d)),
        (None, None) => None,
    }
}

/// Cooperative stage-boundary checkpoint: a no-op without a token.
pub(crate) fn checkpoint(cancel: &Option<CancelToken>) -> Result<(), FlowError> {
    match cancel {
        Some(t) => t.check().map_err(FlowError::from),
        None => Ok(()),
    }
}

/// The flow error a failing report maps to: the first error-severity
/// violation names the failure.
fn gate_error(report: &VerifyReport) -> FlowError {
    FlowError::Verify {
        circuit: report.circuit.clone(),
        violations: report.error_count(),
        first: first_error(report),
    }
}

/// The first error-severity violation of a report, rendered.
fn first_error(report: &VerifyReport) -> String {
    report
        .violations
        .iter()
        .find(|v| v.severity == Severity::Error)
        .map(|v| v.to_string())
        .unwrap_or_default()
}

/// Per-instance selection state carried through the repair loop: the full
/// ranked aspect-ratio bins from Algorithm 1, the fallback cursor, the
/// currently active (tuned) candidate per bin, and which bins have been
/// exhausted and dropped.
pub(crate) struct InstState<'a> {
    /// The instance's primitive definition (its name is the
    /// [`EvalLedger`] key).
    pub(crate) def: &'a PrimitiveDef,
    /// Bias record the candidates were evaluated under.
    pub(crate) bias: Bias,
    /// Ranked candidates per aspect-ratio bin, best-first.
    pub(crate) bins: Vec<BinRanked>,
    /// Which rank each bin currently fields.
    pub(crate) cursor: RepairCursor,
    /// The active (tuned) candidate and its cost, one per bin.
    pub(crate) active: Vec<(PrimitiveLayout, f64)>,
    /// Bins dropped after exhausting their fallbacks.
    pub(crate) dead: Vec<bool>,
    /// Index, in the flow's state list, of the first instance with this
    /// one's definition, total fins and bias: its own index when it leads
    /// the group. Members of a group share one selection, and the corner
    /// stage gates the leader and replays the outcome onto the rest.
    pub(crate) group: usize,
}

/// Why a repair loop replaces an instance's candidate, and what it needs
/// to re-tune the replacement.
pub(crate) struct Fallback<'a> {
    /// Optimizer the replacement is re-tuned with.
    pub(crate) opt: &'a Optimizer<'a>,
    /// Whether the flow tunes selected candidates.
    pub(crate) tuning: bool,
    /// Degradation stage the repair is recorded under.
    pub(crate) stage: &'static str,
    /// The instance under repair (the degradation scope).
    pub(crate) inst: &'a str,
    /// What failed; prefixes every degradation message.
    pub(crate) cause: String,
    /// The reason the failed candidate is ledgered with.
    pub(crate) note: String,
}

impl InstState<'_> {
    /// Replaces the candidate `bin` fields: ledgers it as failed (unless it
    /// already is), demotes the bin to its next candidate not ledgered as
    /// failed, re-tunes that pick and records the fallback. Returns the new
    /// rank, or `None` when the bin is exhausted.
    pub(crate) fn fall_back(
        &mut self,
        bin: usize,
        why: &Fallback<'_>,
        ledger: &mut EvalLedger,
        resilience: &mut ResilienceReport,
    ) -> Option<usize> {
        let key = &self.def.name;
        let cur = self.cursor.current(bin);
        if let Some(&cand) = self.bins[bin].candidates.get(cur) {
            if !ledger.is_failed(key, cand) {
                ledger.record(key, cand, false, why.note.clone());
            }
        }
        let pairs = self.bins[bin].id_pairs(key);
        let rank = self.cursor.demote(bin, &pairs, ledger)?;
        let pick = self.bins[bin].ranked.get(rank)?;
        self.active[bin] = tuned_candidate(
            why.opt, self.def, &self.bias, pick, why.tuning, resilience, why.inst,
        );
        resilience.record(
            why.stage,
            why.inst,
            format!("{}; bin {bin} fell back to rank {rank}", why.cause),
        );
        Some(rank)
    }

    /// Drops exhausted `bin` so the placer stops choosing it, as long as
    /// the instance keeps another live bin. Returns whether it was dropped.
    pub(crate) fn drop_bin(
        &mut self,
        bin: usize,
        why: &Fallback<'_>,
        resilience: &mut ResilienceReport,
    ) -> bool {
        let other_live = self.dead.iter().enumerate().any(|(i, d)| !d && i != bin);
        if other_live {
            self.dead[bin] = true;
            resilience.record(
                why.stage,
                why.inst,
                format!("{}; bin {bin} exhausted, dropped", why.cause),
            );
        }
        other_live
    }
}

/// Tunes one selected candidate when tuning is enabled; a tuning failure
/// degrades to the untuned candidate instead of aborting the flow.
fn tuned_candidate(
    opt: &Optimizer,
    def: &PrimitiveDef,
    bias: &Bias,
    pick: &Evaluated,
    tuning: bool,
    resilience: &mut ResilienceReport,
    inst: &str,
) -> (PrimitiveLayout, f64) {
    if !tuning {
        return (pick.layout.clone(), pick.cost);
    }
    match opt.tune(def, bias, pick.layout.clone()) {
        Ok(t) => (t.layout, t.cost),
        Err(e) => {
            resilience.record(
                "tuning",
                inst,
                format!("tuning failed ({e}); keeping the untuned candidate"),
            );
            (pick.layout.clone(), pick.cost)
        }
    }
}

/// Reorders routes so the failing net goes first and the remainder rotates
/// by the attempt number — a deterministic perturbation that changes which
/// tracks are occupied when the failing net asks for one.
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

/// Scopes of a failing report's error-severity violations, in order.
fn error_scopes(report: &VerifyReport) -> Vec<String> {
    report
        .violations
        .iter()
        .filter(|v| v.severity == Severity::Error)
        .filter_map(|v| v.scope.clone())
        .collect()
}

/// Folds each net's port constraints into lint intervals: when the
/// intervals intersect, the reconciled width must lie in the intersection;
/// disjoint intervals (the Algorithm-2 cost-sum fallback) are checked
/// individually for well-formedness only. The ablated flow reconciles
/// nothing, so it has no intervals to check.
fn port_intervals(run: &Run<'_>, wires: &Wires) -> Vec<PortInterval> {
    let mut out = Vec::new();
    if !run.options.port_optimization {
        return out;
    }
    for (net, constraints) in &wires.per_net {
        let lo = constraints.iter().map(|c| c.w_min).max().unwrap_or(1);
        let hi = constraints.iter().filter_map(|c| c.w_max).min();
        let overlapped = hi.is_none_or(|h| lo <= h);
        if overlapped {
            out.push(PortInterval {
                net: net.clone(),
                w_min: lo,
                w_max: hi,
                reconciled: wires.widths.get(net).copied(),
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

/// Deterministic small hash of a port name (FNV-1a) used to spread port
/// positions over a cell boundary.
fn port_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Everything placement + global routing hands back to a flow: the block
/// geometry (for power-grid synthesis), the chosen layout variants, and
/// the per-net routing pins (for the verification pass).
pub(crate) struct PlacedDesign {
    /// Placement bounding-box area (µm²).
    area_um2: f64,
    /// Global routing of the signal nets.
    pub(crate) routing: RoutingResult,
    /// Chosen layout variant per instance (empty for the flat flow).
    chosen: BTreeMap<String, PrimitiveLayout>,
    /// The aspect-ratio bin each chosen cell came from (empty for the flat
    /// flow): the bin on trial when a gate fails.
    chosen_bin: HashMap<String, usize>,
    /// Placement bounding box.
    bbox: prima_geom::Rect,
    /// Placed outline per block, in placement order.
    pub(crate) rects: Vec<(String, prima_geom::Rect)>,
    /// Pin positions per routed net (only nets with ≥ 2 pins).
    pins: Vec<(String, Vec<Point>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::CsAmp;

    #[test]
    fn conventional_flow_produces_layouts_and_wires() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let spec = CsAmp::spec();
        let out = conventional_flow(&tech, &lib, &spec, 7).unwrap();
        assert_eq!(out.kind, FlowKind::Conventional);
        assert_eq!(out.realization.layouts.len(), 2);
        // The shared output net got a single-wire route.
        assert!(out.realization.net_wires.contains_key("vout"));
        assert!(out.realization.net_wires["vout"].r_ohm > 0.0);
        assert!(out.area_um2 > 0.0);
        // The baseline takes no options: all four gates ran and passed.
        assert!(out.techlint.is_some_and(|r| r.is_passing()));
        assert!(out.schem.is_some_and(|r| r.is_passing()));
        assert!(out.verify.is_some_and(|r| r.is_passing()));
        assert!(out.erc.is_some_and(|r| r.is_passing()));
    }

    #[test]
    fn gates_are_on_by_default_in_every_build() {
        // Nothing turns the gates off: the optimized flow under default
        // options returns all four reports, each passing.
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let spec = CsAmp::spec();
        let biases = CsAmp::biases(&tech, &lib).unwrap();
        let out = optimized_flow(&tech, &lib, &spec, &biases, 7).unwrap();
        for report in [out.techlint, out.schem, out.verify, out.erc] {
            assert!(report.is_some_and(|r| r.is_passing()));
        }
    }

    #[test]
    fn optimized_flow_runs_all_phases() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let spec = CsAmp::spec();
        let biases = CsAmp::biases(&tech, &lib).unwrap();
        let out = optimized_flow(&tech, &lib, &spec, &biases, 7).unwrap();
        assert_eq!(out.realization.layouts.len(), 2);
        assert!(out.sims["selection"] > 0, "selection sims recorded");
        assert!(out.sims["tuning"] > 0, "tuning sims recorded");
        assert!(out.sims["ports"] > 0, "port sims recorded");
        // Port optimization may widen the route beyond one wire; either way
        // the wire exists and is consistent.
        assert!(out.realization.net_wires.contains_key("vout"));
    }

    #[test]
    fn outcome_maps_print_the_same_in_every_run() {
        // The realization's maps and the simulation counts are ordered, so
        // their `Debug` does not depend on any hasher's per-map keys.
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let spec = CsAmp::spec();
        let biases = CsAmp::biases(&tech, &lib).unwrap();
        let print = || {
            let out = optimized_flow(&tech, &lib, &spec, &biases, 7).unwrap();
            format!("{:?} {:?}", out.realization, out.sims)
        };
        let first = print();
        for _ in 1..9 {
            assert_eq!(print(), first);
        }
    }

    #[test]
    fn conventional_flow_is_flat_per_transistor() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let spec = crate::circuits::CsAmp::spec();
        let conv = conventional_flow(&tech, &lib, &spec, 5).unwrap();
        // Two primitives, two transistors total — each its own block, and
        // the default cells still carry the device-local parasitics.
        assert_eq!(conv.realization.layouts.len(), 2);
        assert!(conv.area_um2 > 0.0);
        // Every routed signal net is single-wire (k = 1 ⇒ full route R).
        for (net, wire) in &conv.realization.net_wires {
            assert!(wire.r_ohm > 0.0, "net {net} has no resistance");
        }
        assert!(conv.detailed.verify_no_conflicts());
    }

    #[test]
    fn port_hash_is_stable_and_spreads() {
        // Deterministic across calls…
        assert_eq!(port_hash("da"), port_hash("da"));
        // …and distinct for the names that must not collide (symmetric
        // pairs land at different port positions).
        assert_ne!(port_hash("da") % 1024, port_hash("db") % 1024);
        assert_ne!(port_hash("sa") % 1024, port_hash("sb") % 1024);
        assert_ne!(port_hash("outp") % 1024, port_hash("outn") % 1024);
    }

    #[test]
    fn flow_options_ablate_steps() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let spec = crate::circuits::CsAmp::spec();
        let biases = crate::circuits::CsAmp::biases(&tech, &lib).unwrap();
        let off = FlowOptions {
            tuning: false,
            port_optimization: false,
            ..FlowOptions::default()
        };
        let out = optimized_flow_with(&tech, &lib, &spec, &biases, 7, off).unwrap();
        // With port optimization off, every routed net is a single wire:
        // its resistance equals the k = 1 wire for the same route.
        assert!(out.sims["tuning"] == 0, "tuning must not simulate");
        assert!(out.realization.net_wires.contains_key("vout"));
        let on = optimized_flow(&tech, &lib, &spec, &biases, 7).unwrap();
        assert!(on.sims["tuning"] > 0);
    }

    #[test]
    fn expired_deadline_refuses_to_start() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let spec = crate::circuits::CsAmp::spec();
        let biases = crate::circuits::CsAmp::biases(&tech, &lib).unwrap();
        let opts = FlowOptions {
            deadline: Some(Duration::ZERO),
            ..FlowOptions::default()
        };
        match optimized_flow_with(&tech, &lib, &spec, &biases, 7, opts) {
            Err(crate::FlowError::Cancelled(c)) => {
                assert_eq!(c.reason, prima_cache::CancelReason::Deadline);
            }
            other => panic!("expected Cancelled(Deadline), got {other:?}"),
        }
    }

    #[test]
    fn cancel_mid_flow_unwinds_as_cancelled() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let spec = crate::circuits::CsAmp::spec();
        let biases = crate::circuits::CsAmp::biases(&tech, &lib).unwrap();
        // Trip deterministically a few checkpoints in: deep inside the
        // first candidate evaluations' Newton iterations.
        let token = CancelToken::cancel_after_checks(50);
        let opts = FlowOptions {
            cancel: Some(token),
            ..FlowOptions::default()
        };
        match optimized_flow_with(&tech, &lib, &spec, &biases, 7, opts) {
            Err(crate::FlowError::Cancelled(c)) => {
                assert_eq!(c.reason, prima_cache::CancelReason::Trip);
            }
            other => panic!("expected Cancelled(Trip), got {other:?}"),
        }
    }

    #[test]
    fn unrepresentable_deadline_matches_the_plain_flow() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let spec = crate::circuits::CsAmp::spec();
        let biases = crate::circuits::CsAmp::biases(&tech, &lib).unwrap();
        let opts = FlowOptions {
            deadline: Some(Duration::MAX),
            ..FlowOptions::default()
        };
        let far = optimized_flow_with(&tech, &lib, &spec, &biases, 7, opts).unwrap();
        let plain = optimized_flow(&tech, &lib, &spec, &biases, 7).unwrap();
        assert_eq!(far.area_um2.to_bits(), plain.area_um2.to_bits());
        assert_eq!(far.wirelength_um.to_bits(), plain.wirelength_um.to_bits());
        assert_eq!(far.detailed, plain.detailed);
        assert_eq!(far.realization.layouts, plain.realization.layouts);
        assert_eq!(far.sims, plain.sims);
    }

    #[test]
    fn default_config_is_deterministic_blocked_and_squarish() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let dp = lib.get("dp").unwrap();
        let a = default_config(&tech, &dp.spec, 96).unwrap();
        let b = default_config(&tech, &dp.spec, 96).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.pattern, PlacementPattern::Aabb);
        assert_eq!(a.total_fins(), 96);
        // Near-square: the geometric test rules out strip cells.
        let l = generate(&tech, &dp.spec, &a).unwrap();
        let ar = l.aspect_ratio();
        assert!(ar > 0.2 && ar < 5.0, "aspect ratio {ar}");
    }
}
