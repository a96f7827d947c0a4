//! Variation as first-class, *deterministic* flow scenarios: PVT corner
//! sweeps and seeded Monte-Carlo mismatch, the types a flow reports them
//! in, and the flow stage that runs them.
//!
//! The paper's methodology selects primitive layouts from nominal
//! post-layout simulation; this module supplies the variation vocabulary
//! the optimized flow layers on top of it:
//!
//! * [`CornerPolicy`] / [`CornerOptions`] — how a flow enables the sweep:
//!   which named corners from the deck's [`CornerSet`], the corner-repair
//!   budget and the Monte-Carlo sample count. The sampler's seed is
//!   [`MC_SEED`], and the worst-case gate's allowance is
//!   [`quality_allowance`].
//! * [`MismatchSampler`] — a splitmix-style counter PRNG producing
//!   per-instance standard-normal `(z_vth, z_mobility)` draws keyed by a
//!   stable instance fingerprint. Draws are a pure function of
//!   `(seed, fingerprint, sample index)`, so sampling is order-invariant
//!   under instance reordering and exactly replayable from the recorded
//!   seed.
//! * [`CornerReport`] and friends — the per-corner measures, worst-case
//!   margins, and yield estimate a flow surfaces in its outcome.
//! * [`corner_bias`] — retargets a [`Bias`] to a corner: supply-ratiometric
//!   scaling plus replica-style threshold tracking of midrail gate
//!   references, so sweeps measure layout margin rather than fixed-bias
//!   starvation.
//!
//! The stage ([`corner_stage`]) runs between Algorithm 1 (selection +
//! tuning) and placement. Every live bin's active candidate is
//! re-evaluated across the enabled corner set and gated on *worst-case*
//! satisfaction; the gate is corner-relative — the schematic reference is
//! recomputed at each corner, so the cost measures the layout-induced
//! degradation *at that corner* rather than the corner's raw metric shift
//! (which even a perfect layout cannot avoid). The allowance is the
//! selection stage's quality guard, [`quality_allowance`] of the nominal
//! cost.
//!
//! A candidate that fails only at a corner is repaired exactly like a
//! gate failure: its evaluation is ledgered and the bin's cursor falls
//! back to the next-best candidate, under the explicit corner budget.
//! When the budget (or the bin) exhausts, the stage keeps the candidate
//! with the best worst-case margin seen, emits a degraded-severity
//! `CORNER.EXHAUSTED` diagnostic, and lets the flow continue — corner
//! trouble degrades an outcome, it never turns a placeable circuit into
//! an error. Cancellation is different: every corner and sample boundary
//! checkpoints the token, so serve deadlines unwind promptly.
//!
//! Technologies perturbed here change only model cards, supply, and
//! temperature, so each corner optimizer addresses the shared evaluation
//! cache under its own technology fingerprint: warm corner sweeps hit,
//! nominal entries are never aliased.
//!
//! [`CornerSet`]: prima_pdk::CornerSet

use std::collections::HashMap;
use std::sync::Arc;

use prima_cache::{EvalCache, Fingerprint, FpHasher};
use prima_core::{
    quality_allowance, CancelToken, EvalLedger, OptError, Optimizer, Phase, ResilienceReport,
    RuleKind, Severity, SimCounter, Violation,
};
use prima_layout::PrimitiveLayout;
use prima_pdk::{CornerSpec, Technology};
use prima_primitives::{Bias, Library, MetricValues, PrimitiveDef};

use crate::flows::{checkpoint, Fallback, InstState};
use crate::FlowError;

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// Whether (and how) a flow evaluates variation scenarios.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum CornerPolicy {
    /// No corner or mismatch evaluation: the flow is bit-identical to the
    /// nominal-only flow.
    #[default]
    Off,
    /// Re-evaluate surviving candidates across the enabled corner set and
    /// gate on worst-case satisfaction.
    Sweep(CornerOptions),
}

/// Tuning knobs for a corner sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerOptions {
    /// Names of deck corners to evaluate, in this order; `None` sweeps the
    /// deck's full table. Unknown names are reported as `CORNER.UNKNOWN`
    /// diagnostics, not errors.
    pub corners: Option<Vec<String>>,
    /// Candidate-fallback budget for corner-only failures: how many
    /// next-best candidates may be tried per primitive instance before the
    /// flow degrades (mirrors the route/gate repair budgets).
    pub repair_attempts: usize,
    /// Monte-Carlo mismatch samples per instance; `0` disables the yield
    /// estimate.
    pub mc_samples: u32,
}

impl Default for CornerOptions {
    fn default() -> Self {
        CornerOptions {
            corners: None,
            repair_attempts: 4,
            mc_samples: 8,
        }
    }
}

/// Seed of the Monte-Carlo mismatch sampler; recorded in the report so any
/// yield number can be replayed exactly.
pub const MC_SEED: u64 = 0x5eed_c0de;

// ---------------------------------------------------------------------------
// Seeded Monte-Carlo mismatch sampler
// ---------------------------------------------------------------------------

/// One per-instance mismatch draw: standard-normal deviates for threshold
/// and mobility. The flow scales them by the deck's Pelgrom sigma for the
/// instance geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MismatchDraw {
    /// Standard-normal deviate for the threshold shift.
    pub z_vth: f64,
    /// Standard-normal deviate for the mobility (kp) scale.
    pub z_mobility: f64,
}

/// Seeded, order-invariant mismatch sampler.
///
/// Each draw is a pure function of `(seed, instance fingerprint, sample
/// index)` through a splitmix64 chain and a Box–Muller transform — no
/// internal state advances, so shuffling the order instances are sampled
/// in (or sampling them from different threads) changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MismatchSampler {
    seed: u64,
}

impl MismatchSampler {
    /// Creates a sampler for a seed.
    pub fn new(seed: u64) -> Self {
        MismatchSampler { seed }
    }

    /// The seed, for recording in reports.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The draw for one instance (by stable fingerprint) and sample index.
    pub fn draw(&self, instance: Fingerprint, sample: u32) -> MismatchDraw {
        let s0 = splitmix64(self.seed ^ instance.0);
        let s1 = splitmix64(s0 ^ instance.1.rotate_left(17));
        let s2 = splitmix64(s1 ^ u64::from(sample));
        let u1 = unit_open(splitmix64(s2 ^ 0x5bf0_3635));
        let u2 = unit_open(splitmix64(s2 ^ 0x9e37_79b9));
        // Box–Muller: two independent N(0, 1) deviates from two uniforms.
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        MismatchDraw {
            z_vth: r * theta.cos(),
            z_mobility: r * theta.sin(),
        }
    }
}

/// One step of the splitmix64 output function (Steele et al.; the same
/// finalizer vendored rand's `SplitMix64` uses).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a u64 to the open interval (0, 1) — never exactly 0, so
/// `ln(u1)` is always finite.
fn unit_open(x: u64) -> f64 {
    (((x >> 11) as f64) + 0.5) * (1.0 / 9_007_199_254_740_992.0)
}

/// The stable fingerprint the sampler keys an instance by: circuit
/// instance name, primitive definition name, and sizing. Deliberately
/// *not* the layout fingerprint — the same instance keeps its draws while
/// candidates are swapped during corner repair, so yield comparisons
/// across candidates are paired.
pub fn instance_fingerprint(instance: &str, def: &str, total_fins: u64) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_tag("CornerInstance");
    h.write_str(instance);
    h.write_str(def);
    h.write_u64(total_fins);
    h.finish()
}

// ---------------------------------------------------------------------------
// Bias scaling
// ---------------------------------------------------------------------------

/// A bias retargeted to a corner. Two effects compose, mirroring how bias
/// rails behave in silicon:
///
/// * **Supply scaling** — the rail and every forced port voltage scale
///   with `vdd_scale` (testbench sources are ratiometric: gate biases are
///   generated from the rail). Bias currents and loads stay nominal.
/// * **Threshold tracking** — analog bias levels in the midrail band
///   (10–90% of nominal `vdd`) follow the corner's threshold shift, the
///   way a replica or constant-current bias generator holds a device's
///   overdrive constant across process. A level is classified by which
///   polarity's implied overdrive (`v − vth_n` from ground, or
///   `vdd − v − vth_p` from the rail, both thresholds at *nominal*) is
///   the more plausible gate drive; the level then shifts with that
///   polarity's corner threshold (up for a slower NMOS, down for a
///   slower PMOS — thresholds are stored as magnitudes). Ports pinned
///   near the rails — grounds, enables, clocks — stay pinned.
///
/// Without tracking, a fixed gate bias computed at nominal vth starves
/// its device at slow corners and the sweep reports a bias artifact
/// instead of a layout margin.
pub fn corner_bias(tech: &Technology, bias: &Bias, spec: &CornerSpec) -> Bias {
    if spec.is_identity() {
        return bias.clone();
    }
    // A "plausible" gate drive sits around 20% of the rail; classify each
    // level by whichever polarity's implied overdrive lands closer.
    let target = 0.2 * bias.vdd;
    let mut b = bias.clone();
    b.vdd *= spec.vdd_scale;
    for v in b.port_v.values_mut() {
        let frac = if bias.vdd > 0.0 { *v / bias.vdd } else { 0.0 };
        let ovn = *v - tech.nmos.vth0;
        let ovp = (bias.vdd - *v) - tech.pmos.vth0;
        *v *= spec.vdd_scale;
        if frac <= 0.1 || frac >= 0.9 || (ovn <= 0.0 && ovp <= 0.0) {
            continue;
        }
        if (ovn - target).abs() <= (ovp - target).abs() {
            *v += spec.nmos_vth_shift_v;
        } else {
            *v -= spec.pmos_vth_shift_v;
        }
    }
    b
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// One corner's evaluation of one primitive instance's chosen candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerMeasure {
    /// Corner name.
    pub corner: String,
    /// Cost of the chosen layout against the *corner's own* schematic
    /// reference (layout-induced degradation at that corner). Infinite
    /// when the corner evaluation failed to converge.
    pub cost: f64,
    /// Allowance minus cost: positive margins pass, negative fail.
    pub margin: f64,
    /// Whether the worst-case gate passed at this corner.
    pub pass: bool,
}

/// Corner results for one primitive instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceCorners {
    /// Circuit instance name.
    pub instance: String,
    /// Primitive definition evaluated.
    pub def: String,
    /// Nominal cost of the finally-chosen candidate.
    pub nominal_cost: f64,
    /// Per-corner measures, in sweep order.
    pub measures: Vec<CornerMeasure>,
    /// Worst (smallest) margin across corners.
    pub worst_margin: f64,
    /// Name of the corner with the worst margin.
    pub worst_corner: String,
    /// How many fallback candidates corner repair consumed for this
    /// instance (0 = first candidate passed everywhere).
    pub fallbacks: usize,
    /// Monte-Carlo pass count for this instance, when sampling ran.
    pub mc_passed: Option<u32>,
}

/// Monte-Carlo yield estimate for a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McYield {
    /// Sampler seed (replay key).
    pub seed: u64,
    /// Samples drawn per instance.
    pub samples: u32,
    /// Samples in which *every* instance passed its mismatch gate.
    pub passed: u32,
}

impl McYield {
    /// Fraction of samples passing, in `[0, 1]`.
    pub fn yield_fraction(&self) -> f64 {
        if self.samples == 0 {
            return 1.0;
        }
        f64::from(self.passed) / f64::from(self.samples)
    }
}

/// The variation section of a flow outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerReport {
    /// Corner names evaluated, in sweep order.
    pub corners: Vec<String>,
    /// Per-instance corner results.
    pub instances: Vec<InstanceCorners>,
    /// Worst margin across all instances and corners.
    pub worst_margin: f64,
    /// Monte-Carlo yield, when sampling was enabled.
    pub mc: Option<McYield>,
    /// Simulations charged to the corner phase.
    pub sims: usize,
    /// `CORNER.*` diagnostics (budget exhaustion, unknown corner names);
    /// mirrored into the flow's resilience report.
    pub diagnostics: Vec<Violation>,
    /// Total fallback candidates consumed by corner repair.
    pub fallbacks: usize,
}

impl CornerReport {
    /// True when every instance passed every corner without degradation.
    pub fn all_pass(&self) -> bool {
        self.diagnostics.is_empty()
            && self
                .instances
                .iter()
                .all(|i| i.measures.iter().all(|m| m.pass))
    }

    /// Measures for one instance, by name.
    pub fn instance(&self, name: &str) -> Option<&InstanceCorners> {
        self.instances.iter().find(|i| i.instance == name)
    }
}

// ---------------------------------------------------------------------------
// The corner stage
// ---------------------------------------------------------------------------

/// Relative 1-sigma of the Monte-Carlo mobility (kp) scale. The decks
/// carry a Pelgrom coefficient for V_th but none for beta; 1% is the
/// standard order for current-factor mismatch at these device sizes.
const SIGMA_MOBILITY: f64 = 0.01;

/// Everything the stage borrows from the running flow.
pub(crate) struct CornerCtx<'a, 't> {
    /// Nominal technology.
    pub tech: &'t Technology,
    /// Primitive library.
    pub lib: &'a Library,
    /// The nominal optimizer (fallback candidates re-tune at nominal).
    pub opt: &'a Optimizer<'t>,
    /// Sweep options.
    pub copts: &'a CornerOptions,
    /// Whether tuning is enabled (fallback candidates follow the flow).
    pub tuning: bool,
    /// Shared evaluation cache, if the flow opened one.
    pub cache: Option<Arc<EvalCache>>,
    /// Cooperative cancellation handle.
    pub cancel: &'a Option<CancelToken>,
}

impl CornerCtx<'_, '_> {
    /// An optimizer over a perturbed deck sharing this flow's cache,
    /// cancel token, and simulation counter.
    fn perturbed_opt<'p>(&self, tech: &'p Technology, counter: &SimCounter) -> Optimizer<'p> {
        let mut o = Optimizer::new(tech);
        if let Some(cache) = &self.cache {
            o.set_cache(cache.clone());
        }
        if let Some(token) = self.cancel {
            o.set_cancel(token.clone());
        }
        o.set_counter(counter.clone());
        o
    }
}

/// Cost of one layout against the *corner's own* schematic reference.
/// `Ok(f64::INFINITY)` is a corner failure (non-convergence or any other
/// evaluation error at the corner); cancellation unwinds as an error.
fn eval_at(
    opt_c: &Optimizer,
    def: &PrimitiveDef,
    bias_c: &Bias,
    sch_c: &MetricValues,
    layout: &PrimitiveLayout,
) -> Result<f64, FlowError> {
    match opt_c.evaluate_layout(def, bias_c, layout.clone(), sch_c, Phase::Corners) {
        Ok(e) => Ok(e.cost),
        Err(OptError::Cancelled(c)) => Err(FlowError::Cancelled(c)),
        Err(_) => Ok(f64::INFINITY),
    }
}

/// The corner's schematic reference, or `None` when the corner itself
/// fails to converge at the schematic level (every candidate then fails
/// this corner). Cancellation unwinds as an error.
fn schematic_at(
    opt_c: &Optimizer,
    def: &PrimitiveDef,
    bias_c: &Bias,
    total_fins: u64,
) -> Result<Option<MetricValues>, FlowError> {
    match opt_c.schematic_reference_at(def, bias_c, total_fins, Phase::Corners) {
        Ok(v) => Ok(Some(v)),
        Err(OptError::Cancelled(c)) => Err(FlowError::Cancelled(c)),
        Err(_) => Ok(None),
    }
}

/// One corner's prepared evaluation environment.
struct CornerEnv {
    spec: CornerSpec,
    tech: Technology,
}

/// The measures of one candidate across the corner environments, plus the
/// worst margin and first failing corner.
struct SweepResult {
    measures: Vec<CornerMeasure>,
    worst_margin: f64,
    worst_corner: String,
    failed_at: Option<String>,
}

/// Runs the corner gating + Monte-Carlo stage over the selection states.
/// Mutates the states' cursors/active candidates through corner repair;
/// never fails except on cancellation or a missing library definition.
pub(crate) fn corner_stage(
    ctx: &CornerCtx<'_, '_>,
    states: &mut [(String, InstState)],
    ledger: &mut EvalLedger,
    resilience: &mut ResilienceReport,
) -> Result<CornerReport, FlowError> {
    let copts = ctx.copts;
    let counter = ctx.opt.counter().clone();
    let mut diagnostics: Vec<Violation> = Vec::new();

    // Resolve the enabled corner list against the deck's table. Unknown
    // names degrade (the rest of the sweep still runs) rather than error.
    let table = &ctx.tech.corners;
    let envs: Vec<CornerEnv> = match &copts.corners {
        None => table.corners.clone(),
        Some(names) => names
            .iter()
            .filter_map(|n| match table.get(n) {
                Some(c) => Some(c.clone()),
                None => {
                    diagnostics.push(Violation::new(
                        "CORNER.UNKNOWN",
                        RuleKind::Lint,
                        Severity::Degraded,
                        Some(n.clone()),
                        format!(
                            "corner {n:?} is not in {}'s table ({:?}); skipped",
                            ctx.tech.name,
                            table.names()
                        ),
                    ));
                    None
                }
            })
            .collect(),
    }
    .into_iter()
    .map(|spec| CornerEnv {
        tech: ctx.tech.apply_corner(&spec),
        spec,
    })
    .collect();
    for v in &diagnostics {
        resilience.record("corners", &v.rule_id, v.message.clone());
    }

    let mut instances: Vec<InstanceCorners> = Vec::new();
    let mut total_fallbacks = 0usize;

    // ---- Worst-case corner gating with bounded candidate fallback -------
    // Instances sharing (def, sizing, bias) were selected together and
    // still share identical cursors here, so gating decisions computed for
    // the first member are replayed onto the rest (Monte-Carlo below stays
    // per-instance: draws are keyed by instance name).
    type GroupKey = (String, u64, Bias);
    // key -> (index into `instances`, representative state index)
    let mut done: Vec<(GroupKey, usize, usize)> = Vec::new();
    for si in 0..states.len() {
        checkpoint(ctx.cancel)?;
        let (name, st) = &states[si];
        let name = name.clone();
        let def = ctx
            .lib
            .get(&st.def)
            .ok_or_else(|| FlowError::UnknownPrimitive {
                name: st.def.clone(),
            })?;
        let total_fins = st
            .active
            .first()
            .map(|(l, _)| l.config.total_fins())
            .unwrap_or(0);
        let key: GroupKey = (st.def.clone(), total_fins, st.bias.clone());
        if let Some(&(_, idx, rep_si)) = done.iter().find(|(k, ..)| *k == key) {
            // Replay the representative's gating outcome onto this member:
            // same ranked bins, same bias — the gate decisions are
            // identical, so only the cursors/actives need copying.
            let rep = instances[idx].clone();
            let (cursor, active, dead) = {
                let (_, rs) = &states[rep_si];
                (rs.cursor.clone(), rs.active.clone(), rs.dead.clone())
            };
            let (_, st) = &mut states[si];
            st.cursor = cursor;
            st.active = active;
            st.dead = dead;
            instances.push(InstanceCorners {
                instance: name,
                ..rep
            });
            continue;
        }

        let (_, st) = &mut states[si];
        let live: Vec<usize> = (0..st.active.len()).filter(|&i| !st.dead[i]).collect();
        let mut inst_fallbacks = 0usize;
        // Per-bin gating; the instance's reported measures come from its
        // best-cost live bin after repair.
        let mut per_bin: HashMap<usize, SweepResult> = HashMap::new();
        for &bin in &live {
            let mut attempts = 0usize;
            // Best candidate seen in this bin by worst-case margin, for
            // restoration when the budget exhausts.
            let mut best: Option<(f64, (PrimitiveLayout, f64), SweepResult)> = None;
            loop {
                checkpoint(ctx.cancel)?;
                let nominal_cost = st.active[bin].1;
                let allowance = quality_allowance(nominal_cost);
                let sweep = sweep_candidate(
                    ctx,
                    &counter,
                    &envs,
                    def,
                    &st.bias,
                    total_fins,
                    &st.active[bin].0,
                    allowance,
                )?;
                // The current candidate's verdict decides whether to keep
                // repairing; `best` tracks the best worst-case margin seen
                // for restoration on exhaustion. A passing candidate always
                // wins (its worst margin is ≥ 0, a failing one's is < 0).
                let current_failed = sweep.failed_at.clone();
                if best.as_ref().is_none_or(|(m, ..)| sweep.worst_margin > *m) {
                    best = Some((sweep.worst_margin, st.active[bin].clone(), sweep));
                }
                let Some(fail_corner) = current_failed else {
                    break; // every corner passed
                };
                if attempts >= copts.repair_attempts {
                    // Budget exhausted: restore the best-margin candidate
                    // and degrade.
                    if let Some((_, cand, _)) = &best {
                        st.active[bin] = cand.clone();
                    }
                    let v = Violation::new(
                        "CORNER.EXHAUSTED",
                        RuleKind::Lint,
                        Severity::Degraded,
                        Some(name.clone()),
                        format!(
                            "corner repair budget ({}) exhausted in bin {bin}: \
                             candidate still fails at corner {fail_corner:?}; \
                             keeping best worst-case candidate",
                            copts.repair_attempts
                        ),
                    );
                    resilience.record("corners", &v.rule_id, v.message.clone());
                    diagnostics.push(v);
                    break;
                }
                // Ledger the failing candidate and fall back.
                let why = Fallback {
                    opt: ctx.opt,
                    def,
                    tuning: ctx.tuning,
                    stage: "corners",
                    inst: &name,
                    cause: format!("corner gate failed at {fail_corner:?}"),
                    note: format!("failed corner gate at {fail_corner:?}"),
                };
                if st.fall_back(bin, &why, ledger, resilience).is_some() {
                    attempts += 1;
                    inst_fallbacks += 1;
                    continue;
                }
                // Bin exhausted. Drop it if the instance keeps another live
                // bin; otherwise restore and degrade.
                if !st.drop_bin(bin, &why, resilience) {
                    if let Some((_, cand, _)) = &best {
                        st.active[bin] = cand.clone();
                    }
                    let v = Violation::new(
                        "CORNER.EXHAUSTED",
                        RuleKind::Lint,
                        Severity::Degraded,
                        Some(name.clone()),
                        format!(
                            "all candidates in the last live bin {bin} fail at \
                             corner {fail_corner:?}; keeping best worst-case candidate"
                        ),
                    );
                    resilience.record("corners", &v.rule_id, v.message.clone());
                    diagnostics.push(v);
                }
                break;
            }
            if !st.dead[bin] {
                if let Some((_, _, sweep)) = best {
                    per_bin.insert(bin, sweep);
                }
            }
        }

        // Report the best-cost live bin's measures.
        let report_bin = (0..st.active.len())
            .filter(|&i| !st.dead[i] && per_bin.contains_key(&i))
            .min_by(|&a, &b| st.active[a].1.total_cmp(&st.active[b].1));
        let (measures, worst_margin, worst_corner, nominal_cost) = match report_bin {
            Some(bin) => {
                let s = &per_bin[&bin];
                (
                    s.measures.clone(),
                    s.worst_margin,
                    s.worst_corner.clone(),
                    st.active[bin].1,
                )
            }
            None => (Vec::new(), f64::INFINITY, String::new(), f64::NAN),
        };
        total_fallbacks += inst_fallbacks;
        done.push((key, instances.len(), si));
        instances.push(InstanceCorners {
            instance: name,
            def: st.def.clone(),
            nominal_cost,
            measures,
            worst_margin,
            worst_corner,
            fallbacks: inst_fallbacks,
            mc_passed: None,
        });
    }

    // ---- Seeded Monte-Carlo mismatch yield ------------------------------
    let mc = if copts.mc_samples > 0 {
        Some(run_mc(ctx, &counter, states, &mut instances)?)
    } else {
        None
    };

    let worst_margin = instances
        .iter()
        .map(|i| i.worst_margin)
        .fold(f64::INFINITY, f64::min);
    Ok(CornerReport {
        corners: envs.iter().map(|e| e.spec.name.clone()).collect(),
        instances,
        worst_margin,
        mc,
        sims: counter.count(Phase::Corners),
        diagnostics,
        fallbacks: total_fallbacks,
    })
}

/// Evaluates one candidate across all corner environments.
#[allow(clippy::too_many_arguments)]
fn sweep_candidate(
    ctx: &CornerCtx<'_, '_>,
    counter: &SimCounter,
    envs: &[CornerEnv],
    def: &PrimitiveDef,
    bias: &Bias,
    total_fins: u64,
    layout: &PrimitiveLayout,
    allowance: f64,
) -> Result<SweepResult, FlowError> {
    let mut measures = Vec::with_capacity(envs.len());
    let mut worst_margin = f64::INFINITY;
    let mut worst_corner = String::new();
    let mut failed_at = None;
    for env in envs {
        checkpoint(ctx.cancel)?;
        let opt_c = ctx.perturbed_opt(&env.tech, counter);
        let bias_c = corner_bias(ctx.tech, bias, &env.spec);
        let cost = match schematic_at(&opt_c, def, &bias_c, total_fins)? {
            Some(sch_c) => eval_at(&opt_c, def, &bias_c, &sch_c, layout)?,
            None => f64::INFINITY,
        };
        let margin = allowance - cost;
        let pass = cost <= allowance;
        if !pass && failed_at.is_none() {
            failed_at = Some(env.spec.name.clone());
        }
        if margin < worst_margin {
            worst_margin = margin;
            worst_corner = env.spec.name.clone();
        }
        measures.push(CornerMeasure {
            corner: env.spec.name.clone(),
            cost,
            margin,
            pass,
        });
    }
    Ok(SweepResult {
        measures,
        worst_margin,
        worst_corner,
        failed_at,
    })
}

/// Runs the per-instance mismatch samples and folds them into a circuit
/// yield: a sample passes when *every* instance passes its gate under its
/// own draw.
fn run_mc(
    ctx: &CornerCtx<'_, '_>,
    counter: &SimCounter,
    states: &[(String, InstState)],
    instances: &mut [InstanceCorners],
) -> Result<McYield, FlowError> {
    let copts = ctx.copts;
    let sampler = MismatchSampler::new(MC_SEED);
    let mut sample_pass = vec![true; copts.mc_samples as usize];
    for (name, st) in states {
        checkpoint(ctx.cancel)?;
        let def = ctx
            .lib
            .get(&st.def)
            .ok_or_else(|| FlowError::UnknownPrimitive {
                name: st.def.clone(),
            })?;
        // The instance's best live candidate is the one gated.
        let Some((layout, nominal_cost)) = (0..st.active.len())
            .filter(|&i| !st.dead[i])
            .min_by(|&a, &b| st.active[a].1.total_cmp(&st.active[b].1))
            .map(|i| (&st.active[i].0, st.active[i].1))
        else {
            continue;
        };
        let total_fins = layout.config.total_fins();
        let allowance = quality_allowance(nominal_cost);
        // Pelgrom sigma at this sizing (same geometry the offset
        // testbench uses for the schematic view).
        let sigma_vth = ctx.tech.variation.sigma_vth(
            ctx.tech.fin.weff_m((total_fins as u32).max(1)),
            ctx.tech.fin.gate_length as f64 * 1e-9,
        );
        let fp = instance_fingerprint(name, &st.def, total_fins);
        let mut passed = 0u32;
        for s in 0..copts.mc_samples {
            checkpoint(ctx.cancel)?;
            let draw = sampler.draw(fp, s);
            let mtech = ctx.tech.apply_mismatch(
                draw.z_vth * sigma_vth,
                (1.0 + SIGMA_MOBILITY * draw.z_mobility).clamp(0.5, 1.5),
            );
            let opt_m = ctx.perturbed_opt(&mtech, counter);
            let cost = match schematic_at(&opt_m, def, &st.bias, total_fins)? {
                Some(sch_m) => eval_at(&opt_m, def, &st.bias, &sch_m, layout)?,
                None => f64::INFINITY,
            };
            if cost <= allowance {
                passed += 1;
            } else {
                sample_pass[s as usize] = false;
            }
        }
        if let Some(inst) = instances.iter_mut().find(|i| i.instance == *name) {
            inst.mc_passed = Some(passed);
        }
    }
    Ok(McYield {
        seed: MC_SEED,
        samples: copts.mc_samples,
        passed: sample_pass.iter().filter(|p| **p).count() as u32,
    })
}
