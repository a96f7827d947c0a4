//! The three evaluated layout flows (§IV): this work's optimized flow, the
//! conventional geometry-only baseline, and a manual-layout proxy.
//!
//! All flows share the placement and global-routing substrates and the same
//! manually-routed supply (IR drop included), differing exactly where the
//! paper differs: whether primitive layouts and port wire widths are chosen
//! by performance optimization or by defaults.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use prima_cache::{CacheEventKind, CachePolicy, CacheStats, EvalCache, Fingerprintable};
use prima_core::{
    clamp_to_em_floor, quality_allowance, reconcile, route_wire, BinRanked, CancelToken,
    EvalLedger, Evaluated, FaultInjector, FaultPlan, GlobalRoute, NoFaults, Optimizer, Phase,
    PortConstraint, RepairBudgets, RepairCursor, ResilienceReport, RuleKind, Severity,
    SolverLimits, Violation,
};
use prima_geom::Point;
use prima_layout::{generate, render, CellConfig, PlacementPattern, PrimitiveLayout};
use prima_pdk::Technology;
use prima_place::{Block, Net, PlacementProblem, Placer};
use prima_primitives::{Bias, Library, PrimitiveDef, TESTBENCH_VERSION};
use prima_route::detail::{DetailError, DetailRouter, DetailedResult};
use prima_route::power::{synthesize, PowerGridSpec, PowerReport};
use prima_route::{GlobalRouter, NetRoute, RoutingProblem, RoutingResult};
use prima_verify::lints::{LintInputs, PortInterval};
use prima_verify::{check_flow, CellArtifact, FlowArtifacts, VerifyReport};

use crate::builder::Realization;
use crate::circuits::CircuitSpec;
use crate::corners::{CornerPolicy, CornerReport};
use crate::electrical::{self, ErcBuild};
use crate::preflight;
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
    pub sims: HashMap<&'static str, usize>,
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
    pub gds: Option<prima_gds::GdsArtifact>,
}

/// Fallback supply-rail series resistance when the power grid cannot be
/// synthesized (no placed blocks).
pub const SUPPLY_R_OHM: f64 = 6.0;

/// Estimated supply current of one instance, from its bias record.
fn block_current(bias: Option<&Bias>) -> f64 {
    match bias {
        Some(b) => b.i("tail", b.i("ref", 150e-6)),
        None => 150e-6,
    }
}

/// Synthesizes the (manually-routed, in the paper's terms) power grid over
/// a placement and returns the effective rail resistance together with the
/// full grid report (strap rows and per-block feed drops feed the ERC
/// gate's IR and well-tap checks).
fn supply_grid(
    tech: &Technology,
    placement_blocks: &[(prima_geom::Rect, f64)],
    bbox: prima_geom::Rect,
) -> (f64, Option<PowerReport>) {
    if placement_blocks.is_empty() {
        return (SUPPLY_R_OHM, None);
    }
    let report = synthesize(tech, bbox, placement_blocks, &PowerGridSpec::for_tech(tech));
    let r = report.effective_r_ohm.clamp(0.05, 25.0);
    (r, Some(report))
}

/// Nets excluded from signal routing/port optimization (power is routed
/// manually, as in the paper).
pub(crate) fn is_power_net(net: &str) -> bool {
    matches!(net, "vdd" | "vssn" | "vdd_ext")
}

/// The configuration space explored for a primitive of `total_fins` — the
/// standard space the schematic preflight's `SCHEM.SIZE` rule validates
/// against, so an instance that reaches the optimizer always has at least
/// one candidate.
fn config_space(total_fins: u64) -> Vec<CellConfig> {
    prima_core::std_config_space(total_fins)
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
    let mut configs = config_space(total_fins);
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
    run_flow(
        tech,
        lib,
        spec,
        biases,
        seed,
        FlowKind::Optimized,
        FlowOptions::default(),
        &NoFaults,
    )
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
    run_flow(
        tech,
        lib,
        spec,
        biases,
        seed,
        FlowKind::Optimized,
        options,
        plan,
    )
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
    run_flow(
        tech,
        lib,
        spec,
        biases,
        seed,
        FlowKind::Optimized,
        options,
        &NoFaults,
    )
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
    run_flow(
        tech,
        lib,
        spec,
        biases,
        seed,
        FlowKind::Manual,
        FlowOptions::default(),
        &NoFaults,
    )
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
/// violations as [`FlowError::Verify`].
pub fn conventional_flow(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    seed: u64,
) -> Result<FlowOutcome, FlowError> {
    let start = Instant::now();

    // Zeroth gate: the deck itself must be self-consistent and able to
    // carry the primitive library before any request-specific checking.
    let techlint = Some(gate(preflight::techlint_preflight(tech, lib))?);

    // Schematic preflight: reject malformed requests before generating any
    // geometry. The baseline has no bias records; nominal per-class biases
    // are library invariants and need no re-check.
    let schem = Some(gate(preflight::schem_preflight(tech, lib, spec, None))?);

    // Default layouts: squarest blocked configuration, untuned.
    let mut layouts: HashMap<String, PrimitiveLayout> = HashMap::new();
    for inst in &spec.instances {
        let def = lib.get(&inst.def).ok_or(FlowError::UnknownPrimitive {
            name: inst.def.clone(),
        })?;
        if def.spec.devices.is_empty() {
            continue;
        }
        if let Some(cfg) = default_config(tech, &def.spec, inst.total_fins) {
            let layout = generate(tech, &def.spec, &cfg).map_err(prima_core::OptError::from)?;
            layouts.insert(inst.name.clone(), layout);
        }
    }

    // Flat placement: one block per transistor.
    let placed = flat_place_and_route(tech, lib, spec, seed)?;
    let blocks: Vec<(prima_geom::Rect, f64)> = placed
        .rects
        .iter()
        .map(|(_, r)| (*r, block_current(None)))
        .collect();
    let (supply_r, power) = supply_grid(tech, &blocks, placed.bbox);

    // Single-wire routes everywhere: k = 1.
    let mut net_wires = HashMap::new();
    for net in spec.nets() {
        if is_power_net(&net) {
            continue;
        }
        if let Some(route) = placed.routing.net(&net) {
            let gr = GlobalRoute {
                layer: route.dominant_layer(),
                len_nm: route.total_len_nm(),
                via_ends: 2,
            };
            net_wires.insert(net.clone(), route_wire(tech, &gr, 1));
        }
    }

    let detailed = DetailRouter::new(tech)
        .assign_with_symmetry(
            placed.routing.routes(),
            &HashMap::new(),
            &spec.symmetric_nets,
        )
        .map_err(|e| FlowError::Measurement {
            what: format!("detailed routing failed: {e}"),
        })?;

    // Verification gate: the flat flow has no rendered cell masks (blocks
    // are abstract per-transistor footprints), so the pass covers
    // placement legality, routing DRC, and connectivity.
    let mut artifacts = FlowArtifacts::new(&spec.name, tech);
    artifacts.cells = placed
        .rects
        .iter()
        .map(|(name, r)| CellArtifact {
            instance: name.clone(),
            outline: *r,
            geometry: None,
        })
        .collect();
    artifacts.pins = placed.pins.clone();
    artifacts.routing = Some(&placed.routing);
    artifacts.detailed = Some(&detailed);
    artifacts.expected_nets = placed.pins.iter().map(|(n, _)| n.clone()).collect();
    let verify = Some(gate(check_flow(&artifacts))?);

    // Electrical gate. The baseline has no operating-point data (the
    // paper's conventional flow "performs no optimizations for
    // parasitics"), so the EM pass has no currents to propagate and the
    // flat placement makes no symmetry claims; IR, well-tap reach, and
    // connectivity hygiene still apply.
    let erc = Some(gate(electrical::erc_report(&ErcBuild {
        tech,
        lib,
        spec,
        biases: None,
        routing: Some(&placed.routing),
        widths: &HashMap::new(),
        pins: &placed.pins,
        rects: &placed.rects,
        layouts: &layouts,
        power: power.as_ref(),
        with_currents: false,
        with_symmetry: false,
    }))?);

    Ok(FlowOutcome {
        kind: FlowKind::Conventional,
        techlint,
        schem,
        realization: Realization {
            layouts,
            net_wires,
            supply_r_ohm: supply_r,
        },
        runtime: start.elapsed(),
        sims: HashMap::new(),
        area_um2: placed.area_um2,
        wirelength_um: placed.routing.total_wirelength() as f64 / 1000.0,
        detailed,
        verify,
        erc,
        resilience: ResilienceReport::default(),
        cache: None,
        cache_diagnostics: Vec::new(),
        corners: None,
        gds: None,
    })
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
pub(crate) struct InstState {
    /// Primitive definition name (the [`EvalLedger`] key).
    pub(crate) def: String,
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
}

/// Why a repair loop replaces an instance's candidate, and what it needs
/// to re-tune the replacement.
pub(crate) struct Fallback<'a> {
    /// Optimizer the replacement is re-tuned with.
    pub(crate) opt: &'a Optimizer<'a>,
    /// The instance's primitive definition.
    pub(crate) def: &'a PrimitiveDef,
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

impl InstState {
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
        let cur = self.cursor.current(bin);
        if let Some(&cand) = self.bins[bin].candidates.get(cur) {
            if !ledger.is_failed(&self.def, cand) {
                ledger.record(&self.def, cand, false, why.note.clone());
            }
        }
        let pairs = self.bins[bin].id_pairs(&self.def);
        let rank = self.cursor.demote(bin, &pairs, ledger)?;
        let pick = self.bins[bin].ranked.get(rank)?;
        self.active[bin] = tuned_candidate(
            why.opt, why.def, &self.bias, pick, why.tuning, resilience, why.inst,
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

/// Shared optimized/manual implementation with fault isolation and repair
/// bounded by [`RepairBudgets::default`]. With [`NoFaults`] and no organic
/// failures every loop below runs exactly once and the result is
/// bit-identical to the pre-resilience flow.
#[allow(clippy::too_many_arguments)]
fn run_flow(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    biases: &HashMap<String, Bias>,
    seed: u64,
    kind: FlowKind,
    options: FlowOptions,
    injector: &dyn FaultInjector,
) -> Result<FlowOutcome, FlowError> {
    let start = Instant::now();
    let budgets = RepairBudgets::default();

    // Cancellation: merge the caller's token with the options deadline, and
    // refuse to start a run whose budget is already spent.
    let cancel = effective_cancel(&options);
    checkpoint(&cancel)?;

    // Zeroth gate: deck self-consistency + library feasibility. A deck
    // whose rule tables drifted from its stack dies here with an exact
    // `TECH.*`/`LIB.*` rule id instead of panicking inside a router.
    let techlint = gate(preflight::techlint_preflight(tech, lib))?;

    // Schematic preflight: the whole lint suite costs microseconds, so a
    // malformed request dies with exact `SCHEM.*` rule ids before the
    // optimizer (and its simulation counter) even exists.
    let schem = gate(preflight::schem_preflight(tech, lib, spec, Some(biases)))?;

    let mut opt = Optimizer::new(tech);
    // The Arc is kept: corner-perturbed optimizers share the same store
    // under their own key address space (see `Optimizer::set_cache`).
    let cache_arc = open_cache(&options.cache, tech);
    if let Some(cache) = &cache_arc {
        opt.set_cache(cache.clone());
    }
    if let Some(token) = &cancel {
        opt.set_cancel(token.clone());
    }
    let n_bins = match kind {
        FlowKind::Manual => 4,
        _ => 3,
    };
    if kind == FlowKind::Manual {
        opt.max_tuning_wires = 10;
        opt.max_port_routes = 10;
    }
    let mut resilience = ResilienceReport::new();
    let mut ledger = EvalLedger::new();

    // ---- Algorithm 1 per primitive: selection + tuning -------------------
    // Instances sharing (definition, sizing, bias) — e.g. the sixteen
    // identical current-starved inverters of the VCO — are optimized once
    // and start from the same ranked bins; the repair loop may then walk
    // their fallback cursors apart per instance. Candidate evaluations that
    // fail or panic are recorded in the ledger and skipped inside
    // `select_bins`; the bins hold the survivors.
    let mut states: Vec<(String, InstState)> = Vec::new();
    type Memo = (
        String,
        u64,
        Bias,
        Vec<BinRanked>,
        Vec<(PrimitiveLayout, f64)>,
    );
    let mut memo: Vec<Memo> = Vec::new();
    for inst in &spec.instances {
        let def = lib.get(&inst.def).ok_or(FlowError::UnknownPrimitive {
            name: inst.def.clone(),
        })?;
        if def.spec.devices.is_empty() {
            continue;
        }
        let bias = biases
            .get(&inst.name)
            .cloned()
            .unwrap_or_else(|| Bias::nominal(tech, &def.class));
        if let Some((.., bins, active)) = memo
            .iter()
            .find(|(d, f, b, ..)| *d == inst.def && *f == inst.total_fins && *b == bias)
        {
            states.push((
                inst.name.clone(),
                InstState {
                    def: inst.def.clone(),
                    bias: bias.clone(),
                    cursor: RepairCursor::new(bins.len()),
                    dead: vec![false; bins.len()],
                    bins: bins.clone(),
                    active: active.clone(),
                },
            ));
            continue;
        }
        let configs = config_space(inst.total_fins);
        if configs.is_empty() {
            continue;
        }
        let bins: Vec<BinRanked> = opt
            .select_bins(def, &bias, &configs, n_bins, injector, &mut ledger)?
            .into_iter()
            .filter(|b| !b.ranked.is_empty())
            .collect();
        if bins.is_empty() {
            return Err(FlowError::NoCandidates {
                instance: inst.name.clone(),
            });
        }
        let mut active = Vec::with_capacity(bins.len());
        for bin in &bins {
            if let Some(pick) = bin.ranked.first() {
                active.push(tuned_candidate(
                    &opt,
                    def,
                    &bias,
                    pick,
                    options.tuning,
                    &mut resilience,
                    &inst.name,
                ));
            }
        }
        memo.push((
            inst.def.clone(),
            inst.total_fins,
            bias.clone(),
            bins.clone(),
            active.clone(),
        ));
        states.push((
            inst.name.clone(),
            InstState {
                def: inst.def.clone(),
                bias,
                cursor: RepairCursor::new(bins.len()),
                dead: vec![false; bins.len()],
                bins,
                active,
            },
        ));
    }

    // ---- Variation stage: PVT corner gating + Monte-Carlo mismatch ------
    // Runs between selection/tuning and placement: surviving bin
    // candidates are re-evaluated across the enabled corner set and gated
    // on worst-case satisfaction, with corner-only failures repaired by
    // next-best-candidate fallback under the corner budget. Exhaustion
    // degrades (CORNER.* diagnostics), never errors; cancellation unwinds.
    let corner_report = match &options.corners {
        CornerPolicy::Off => None,
        CornerPolicy::Sweep(copts) => Some(crate::corners::corner_stage(
            &crate::corners::CornerCtx {
                tech,
                lib,
                opt: &opt,
                copts,
                tuning: options.tuning,
                cache: cache_arc.clone(),
                cancel: &cancel,
            },
            &mut states,
            &mut ledger,
            &mut resilience,
        )?),
    };

    // One detail router for the whole run: injected route faults are
    // consumed by the attempt that trips over them and stay consumed, so a
    // retry can succeed.
    let mut router = DetailRouter::new(tech);
    router.set_cancel(cancel.clone());
    for net in spec.nets() {
        let n = injector.route_failures(&net);
        if n > 0 {
            router.inject_failure(&net, n);
        }
    }

    // ---- Place/route + Algorithm 2 + gates, with bounded repair ----------
    let mut gate_attempt: u32 = 0;
    loop {
        gate_attempt += 1;
        checkpoint(&cancel)?;

        // Current option set per instance: the live bins' active
        // candidates. Quality guard: the placer chooses among these by
        // geometry alone, so drop aspect-ratio options whose cost is far
        // off the best — they would let a pathological bin winner into the
        // layout.
        let mut cell_options: HashMap<String, Vec<PrimitiveLayout>> = HashMap::new();
        let mut kept_bins: HashMap<String, Vec<usize>> = HashMap::new();
        for (name, st) in &states {
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
            if kind == FlowKind::Manual {
                // The expert commits to the single best-performing cell and
                // hand-fits the floorplan around it.
                let bi = live
                    .iter()
                    .copied()
                    .min_by(|&a, &b| st.active[a].1.total_cmp(&st.active[b].1))
                    .ok_or_else(|| FlowError::NoCandidates {
                        instance: name.clone(),
                    })?;
                keep = vec![bi];
            }
            cell_options.insert(
                name.clone(),
                keep.iter().map(|&i| st.active[i].0.clone()).collect(),
            );
            kept_bins.insert(name.clone(), keep);
        }

        // ---- Place (variant selection) and global-route ------------------
        let placed = place_and_route(tech, spec, &cell_options, seed)?;
        let (routing, chosen) = (&placed.routing, &placed.chosen);
        let blocks: Vec<(prima_geom::Rect, f64)> = placed
            .rects
            .iter()
            .map(|(name, r)| (*r, block_current(biases.get(name))))
            .collect();
        let (supply_r, power) = supply_grid(tech, &blocks, placed.bbox);

        // ---- Algorithm 2: port constraints + reconciliation --------------
        let mut per_net: HashMap<String, Vec<PortConstraint>> = HashMap::new();
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
        for inst in &spec.instances {
            let def = lib.get(&inst.def).ok_or(FlowError::UnknownPrimitive {
                name: inst.def.clone(),
            })?;
            if def.spec.devices.is_empty() {
                continue;
            }
            let bias = biases
                .get(&inst.name)
                .cloned()
                .unwrap_or_else(|| Bias::nominal(tech, &def.class));
            // The routes at this primitive's ports, keyed by port net name.
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
            let cons = opt.port_constraints(def, &bias, layout, inst.total_fins, &routes)?;
            for c in cons {
                // Back-map the port name to the circuit net.
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
        // EM clamp: raise every net's width interval to the EM-safe floor
        // for its worst-case current *before* reconciliation, so the widths
        // Algorithm 2 hands the detailed router pass the electrical gate by
        // construction. Currents only exist when port optimization runs —
        // the ablated flow chooses no widths, so there is nothing to keep
        // safe.
        let currents = if options.port_optimization {
            electrical::net_currents(tech, lib, spec, biases, &placed.pins)
        } else {
            Vec::new()
        };
        let mut floors: HashMap<String, u32> = HashMap::new();
        for nc in &currents {
            if let Some(route) = routing.net(&nc.net) {
                floors.insert(
                    nc.net.clone(),
                    prima_erc::em::em_floor(tech, route, nc.worst_a),
                );
            }
        }
        for (net, constraints) in &mut per_net {
            if let Some(&floor) = floors.get(net) {
                clamp_to_em_floor(constraints, floor);
            }
        }
        let mut net_wires = HashMap::new();
        let mut widths: HashMap<String, u32> = HashMap::new();
        for (net, constraints) in &per_net {
            let w = if options.port_optimization {
                reconcile(constraints).w
            } else {
                1
            };
            widths.insert(net.clone(), w);
            if let Some(gr) = net_routes.get(net) {
                net_wires.insert(net.clone(), route_wire(tech, gr, w));
            }
        }
        // Routed nets no primitive constrained still get the EM-safe width
        // (single wires when the net carries no known current).
        for (net, gr) in &net_routes {
            if !widths.contains_key(net) {
                let k = floors.get(net).copied().unwrap_or(1);
                widths.insert(net.clone(), k);
                net_wires.insert(net.clone(), route_wire(tech, gr, k));
            }
        }

        let mut sims = HashMap::new();
        sims.insert("selection", opt.counter().count(Phase::Selection));
        sims.insert("tuning", opt.counter().count(Phase::Tuning));
        sims.insert("ports", opt.counter().count(Phase::PortConstraints));
        sims.insert("corners", opt.counter().count(Phase::Corners));

        // Hand the reconciled widths to the detailed router (paper §I: "the
        // optimized widths are a requirement for the detailed router"),
        // retrying with a perturbed net ordering — the failing net first —
        // when an attempt fails, up to the route budget.
        let mut routes: Vec<NetRoute> = routing.routes().to_vec();
        let mut route_attempt: u32 = 0;
        let detailed = loop {
            route_attempt += 1;
            match router.assign_with_symmetry(&routes, &widths, &spec.symmetric_nets) {
                Ok(d) => break d,
                Err(e) => {
                    let net = match &e {
                        DetailError::Congested { net, .. }
                        | DetailError::ZeroWidth { net }
                        | DetailError::PairDesync { net }
                        | DetailError::BadLayer { net, .. } => net.clone(),
                        // Cancellation is not a routing failure: no retry,
                        // no perturbed re-attempt — unwind immediately.
                        DetailError::Cancelled(c) => return Err(FlowError::Cancelled(*c)),
                    };
                    if route_attempt >= budgets.route_attempts {
                        return Err(FlowError::RepairExhausted {
                            circuit: spec.name.clone(),
                            stage: "detail routing".to_string(),
                            attempts: route_attempt,
                            last: e.to_string(),
                        });
                    }
                    resilience.route_retries += 1;
                    resilience.record(
                        "routing",
                        &net,
                        format!(
                            "attempt {route_attempt} failed ({e}); \
                             retrying with perturbed net order"
                        ),
                    );
                    routes = perturb_routes(routes, &net, route_attempt as usize);
                }
            }
        };

        // ---- Static verification gate (DRC + LVS-lite + lints) -----------
        let outline_of: HashMap<&str, prima_geom::Rect> =
            placed.rects.iter().map(|(n, r)| (n.as_str(), *r)).collect();
        let mut artifacts = FlowArtifacts::new(&spec.name, tech);
        for inst in &spec.instances {
            let Some(&outline) = outline_of.get(inst.name.as_str()) else {
                continue;
            };
            // Re-render the chosen variant's mask geometry; the DRC pass
            // checks the drawn rectangles, not the parasitic model.
            let geometry = chosen.get(&inst.name).and_then(|layout| {
                lib.get(&inst.def)
                    .and_then(|def| render(tech, &def.spec, &layout.config).ok())
            });
            artifacts.cells.push(CellArtifact {
                instance: inst.name.clone(),
                outline,
                geometry,
            });
        }
        artifacts.pins = placed.pins.clone();
        artifacts.routing = Some(routing);
        artifacts.detailed = Some(&detailed);
        artifacts.expected_nets = placed.pins.iter().map(|(n, _)| n.clone()).collect();
        artifacts.lints = LintInputs {
            metric_weights: {
                let mut seen_defs: Vec<&str> = Vec::new();
                let mut weights = Vec::new();
                for inst in &spec.instances {
                    let Some(def) = lib.get(&inst.def) else {
                        continue;
                    };
                    if seen_defs.contains(&def.name.as_str()) {
                        continue;
                    }
                    seen_defs.push(&def.name);
                    for m in &def.metrics {
                        weights.push((format!("{}.{}", def.name, m.name), m.weight));
                    }
                }
                weights
            },
            aspect_candidates: cell_options
                .values()
                .flatten()
                .map(|l| l.aspect_ratio())
                .collect(),
            n_bins,
            ports: if options.port_optimization {
                port_intervals(&per_net, &widths)
            } else {
                Vec::new()
            },
        };
        let verify = check_flow(&artifacts);

        // Electrical gate: EM over the routed topology at the reconciled
        // widths (clean by construction thanks to the clamp above), static
        // IR on the synthesized grid, symmetry/matching lints, and
        // connectivity hygiene.
        let erc = electrical::erc_report(&ErcBuild {
            tech,
            lib,
            spec,
            biases: Some(biases),
            routing: Some(routing),
            widths: &widths,
            pins: &placed.pins,
            rects: &placed.rects,
            layouts: &placed.chosen,
            power: power.as_ref(),
            with_currents: options.port_optimization,
            with_symmetry: true,
        });

        // ---- Gate verdict + bounded candidate-fallback repair ------------
        let failure: Option<(&'static str, usize, String, Vec<String>)> =
            [("verify", &verify), ("erc", &erc)]
                .into_iter()
                .find(|(_, r)| !r.is_passing())
                .map(|(g, r)| (g, r.error_count(), first_error(r), error_scopes(r)));
        let Some((gate_name, n_errors, first, scopes)) = failure else {
            resilience.absorb_ledger(&ledger);
            let (cache_stats, cache_diagnostics) = finish_cache(opt.cache(), &mut resilience);
            // Stream-out runs only on the gate-clean geometry, just before
            // `placed.chosen` is moved into the realization.
            let gds = if options.gds.enabled() {
                Some(crate::gds::stream_out_stage(&crate::gds::GdsCtx {
                    tech,
                    lib,
                    spec,
                    chosen: &placed.chosen,
                    rects: &placed.rects,
                    pins: &placed.pins,
                    bbox: placed.bbox,
                    detailed: &detailed,
                })?)
            } else {
                None
            };
            return Ok(FlowOutcome {
                kind,
                techlint: Some(techlint.clone()),
                schem: Some(schem.clone()),
                realization: Realization {
                    layouts: placed.chosen,
                    net_wires,
                    supply_r_ohm: supply_r,
                },
                runtime: start.elapsed(),
                sims,
                area_um2: placed.area_um2,
                wirelength_um: placed.routing.total_wirelength() as f64 / 1000.0,
                detailed,
                verify: Some(verify),
                erc: Some(erc),
                resilience,
                cache: cache_stats,
                cache_diagnostics,
                corners: corner_report.clone(),
                gds,
            });
        };
        if gate_attempt >= budgets.gate_attempts {
            // Out of budget: surface the gate failure itself.
            return Err(FlowError::Verify {
                circuit: spec.name.clone(),
                violations: n_errors,
                first,
            });
        }

        // Victim priority: instances a violation names, then instances
        // tapping a violation's net, then spec order. The first victim with
        // a usable fallback gets its chosen bin demoted (the candidate on
        // trial is the one the placer actually put in the layout).
        let mut victims: Vec<String> = Vec::new();
        for scope in &scopes {
            if states.iter().any(|(n, _)| n == scope) {
                victims.push(scope.clone());
            } else {
                for (inst, _) in spec.taps(scope) {
                    victims.push(inst.name.clone());
                }
            }
        }
        victims.extend(states.iter().map(|(n, _)| n.clone()));
        let mut uniq: Vec<String> = Vec::new();
        for v in victims {
            if !uniq.contains(&v) {
                uniq.push(v);
            }
        }

        let mut repaired = false;
        for name in uniq {
            let Some((_, st)) = states.iter_mut().find(|(n, _)| *n == name) else {
                continue;
            };
            let Some(bin) = placed
                .chosen_variant
                .get(&name)
                .and_then(|&v| kept_bins.get(&name).and_then(|ks| ks.get(v)))
                .copied()
            else {
                continue;
            };
            let def = lib.get(&st.def).ok_or(FlowError::UnknownPrimitive {
                name: st.def.clone(),
            })?;
            let why = Fallback {
                opt: &opt,
                def,
                tuning: options.tuning,
                stage: "gate",
                inst: &name,
                cause: format!("{gate_name} gate failed ({first})"),
                note: format!("failed {gate_name} gate: {first}"),
            };
            let fell_back = st.fall_back(bin, &why, &mut ledger, &mut resilience);
            if fell_back.is_some() || st.drop_bin(bin, &why, &mut resilience) {
                repaired = true;
                break;
            }
        }
        if !repaired {
            return Err(FlowError::RepairExhausted {
                circuit: spec.name.clone(),
                stage: format!("{gate_name} gate"),
                attempts: gate_attempt,
                last: first,
            });
        }
        resilience.gate_retries += 1;
    }
}

/// Folds each net's port constraints into lint intervals: when the
/// intervals intersect, the reconciled width must lie in the intersection;
/// disjoint intervals (the Algorithm-2 cost-sum fallback) are checked
/// individually for well-formedness only.
fn port_intervals(
    per_net: &HashMap<String, Vec<PortConstraint>>,
    widths: &HashMap<String, u32>,
) -> Vec<PortInterval> {
    let mut out = Vec::new();
    for (net, constraints) in per_net {
        let lo = constraints.iter().map(|c| c.w_min).max().unwrap_or(1);
        let hi = constraints.iter().filter_map(|c| c.w_max).min();
        let overlapped = hi.is_none_or(|h| lo <= h);
        if overlapped {
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

/// Flat (transistor-level) placement and routing for the conventional
/// baseline: each device of each primitive is its own block, and every
/// signal net pins onto every connected device individually.
fn flat_place_and_route(
    tech: &Technology,
    lib: &Library,
    spec: &CircuitSpec,
    seed: u64,
) -> Result<PlacedDesign, FlowError> {
    let mut problem = PlacementProblem::new();
    // (instance, device) blocks plus which net each block's terminals use.
    let mut block_nets: Vec<Vec<String>> = Vec::new();
    let mut index_of: Vec<(String, usize)> = Vec::new(); // (inst, block ix)
    for inst in &spec.instances {
        let def = lib.get(&inst.def).ok_or(FlowError::UnknownPrimitive {
            name: inst.def.clone(),
        })?;
        if def.spec.devices.is_empty() {
            continue;
        }
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
            index_of.push((inst.name.clone(), ix));
            let nets: Vec<String> = [&d.drain, &d.gate, &d.source]
                .iter()
                .filter_map(|port| inst.net_of(port).map(str::to_string))
                .collect();
            block_nets.push(nets);
        }
    }
    for net in spec.nets() {
        if is_power_net(&net) {
            continue;
        }
        let pins: Vec<usize> = block_nets
            .iter()
            .enumerate()
            .filter(|(_, nets)| nets.contains(&net))
            .map(|(i, _)| i)
            .collect();
        if pins.len() >= 2 {
            problem.add_net(Net::new(&net, pins));
        }
    }
    let placement = Placer::new(seed).place(&problem)?;
    let area = placement.bbox(&problem).area() as f64 * 1e-6;

    let mut routing_problem = RoutingProblem::new();
    let mut net_pins: Vec<(String, Vec<Point>)> = Vec::new();
    for net in spec.nets() {
        if is_power_net(&net) {
            continue;
        }
        let pins: Vec<Point> = block_nets
            .iter()
            .enumerate()
            .filter(|(_, nets)| nets.contains(&net))
            .map(|(i, _)| placement.rect(&problem, i).center())
            .collect();
        if pins.len() >= 2 {
            routing_problem.add_net(&net, pins.clone());
            net_pins.push((net.clone(), pins));
        }
    }
    let routing = GlobalRouter::new(tech).route(&routing_problem)?;
    let rects: Vec<(String, prima_geom::Rect)> = index_of
        .iter()
        .map(|(inst, ix)| (inst.clone(), placement.rect(&problem, *ix)))
        .collect();
    let bbox = placement.bbox(&problem);
    Ok(PlacedDesign {
        area_um2: area,
        routing,
        chosen: HashMap::new(),
        chosen_variant: HashMap::new(),
        bbox,
        rects,
        pins: net_pins,
    })
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
struct PlacedDesign {
    /// Placement bounding-box area (µm²).
    area_um2: f64,
    /// Global routing of the signal nets.
    routing: RoutingResult,
    /// Chosen layout variant per instance (empty for the flat flow).
    chosen: HashMap<String, PrimitiveLayout>,
    /// Index of the chosen variant into the instance's option list (empty
    /// for the flat flow) — the repair loop maps it back to the
    /// aspect-ratio bin on trial after a gate failure.
    chosen_variant: HashMap<String, usize>,
    /// Placement bounding box.
    bbox: prima_geom::Rect,
    /// Placed outline per block, in placement order.
    rects: Vec<(String, prima_geom::Rect)>,
    /// Pin positions per routed net (only nets with ≥ 2 pins).
    pins: Vec<(String, Vec<Point>)>,
}

/// Places the blocks (choosing a variant per instance) and global-routes
/// the signal nets. Returns the placement area (µm²), the routing result,
/// the chosen layout per instance, and the placed geometry.
fn place_and_route(
    tech: &Technology,
    spec: &CircuitSpec,
    options: &HashMap<String, Vec<PrimitiveLayout>>,
    seed: u64,
) -> Result<PlacedDesign, FlowError> {
    let mut problem = PlacementProblem::new();
    let mut index_of: HashMap<String, usize> = HashMap::new();
    for inst in &spec.instances {
        let variants: Vec<(i64, i64)> = match options.get(&inst.name) {
            Some(layouts) if !layouts.is_empty() => layouts
                .iter()
                .map(|l| (l.bbox.width(), l.bbox.height()))
                .collect(),
            // Passives / unoptimized: a nominal footprint.
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

    let placement = Placer::new(seed).place(&problem)?;
    let area = placement.bbox(&problem).area() as f64 * 1e-6;

    // Chosen layout per instance = the variant the placer picked.
    let mut chosen = HashMap::new();
    let mut chosen_variant = HashMap::new();
    for inst in &spec.instances {
        if let Some(layouts) = options.get(&inst.name) {
            if !layouts.is_empty() {
                let v = placement.variants[index_of[&inst.name]].min(layouts.len() - 1);
                chosen.insert(inst.name.clone(), layouts[v].clone());
                chosen_variant.insert(inst.name.clone(), v);
            }
        }
    }

    // Routing: pins at per-net port positions inside each block. A cell's
    // ports sit at distinct boundary locations, so each net gets a
    // deterministic offset from the block center derived from its name —
    // this is what lets the detailed router keep symmetric pairs apart.
    let mut routing_problem = RoutingProblem::new();
    let mut net_pins: Vec<(String, Vec<Point>)> = Vec::new();
    for net in spec.nets() {
        if is_power_net(&net) {
            continue;
        }
        let mut pins: Vec<Point> = Vec::new();
        let mut seen = Vec::new();
        for (inst, port) in spec.taps(&net) {
            if seen.contains(&inst.name) {
                continue;
            }
            seen.push(inst.name.clone());
            let ix = index_of[&inst.name];
            let r = placement.rect(&problem, ix);
            let c = r.center();
            let h = port_hash(port);
            let dx = (h % 1024) as i64 * (r.width() / 2) / 1024 - r.width() / 4;
            let dy = ((h / 1024) % 1024) as i64 * (r.height() / 2) / 1024 - r.height() / 4;
            pins.push(Point::new(c.x + dx, c.y + dy));
        }
        if pins.len() >= 2 {
            routing_problem.add_net(&net, pins.clone());
            net_pins.push((net.clone(), pins));
        }
    }
    let routing = GlobalRouter::new(tech).route(&routing_problem)?;
    let rects: Vec<(String, prima_geom::Rect)> = spec
        .instances
        .iter()
        .map(|inst| {
            let ix = index_of[&inst.name];
            (inst.name.clone(), placement.rect(&problem, ix))
        })
        .collect();
    let bbox = placement.bbox(&problem);
    Ok(PlacedDesign {
        area_um2: area,
        routing,
        chosen,
        chosen_variant,
        bbox,
        rects,
        pins: net_pins,
    })
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
