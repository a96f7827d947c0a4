//! # prima-core
//!
//! The optimized-primitives methodology of the DATE 2021 paper, on top of
//! the `prima-*` substrates:
//!
//! * **Cost model** ([`cost`]) — Eqs. (5)–(6): weighted sum of per-metric
//!   deviations of the layout from the schematic reference.
//! * **Primitive layout optimization** ([`selection`], [`tuning`]) —
//!   Algorithm 1: enumerate `nfin`/`nf`/`m`/pattern configurations at
//!   constant total fins, simulate each metric, bin by aspect ratio, keep
//!   the per-bin winners, then add parallel wires at the tuning terminals
//!   until the cost stops improving (or its maximum-curvature point).
//! * **Primitive port optimization** ([`ports`]) — Algorithm 2: convert
//!   global-route geometry into port wiring RC, sweep the number of
//!   parallel routes, derive `[w_min, w_max]` interval constraints per net,
//!   and reconcile constraints across primitives sharing a net.
//! * **Accounting** ([`accounting`]) — simulation counting per phase, the
//!   basis of the paper's Table V runtime analysis.
//! * **Parallel sweeps** ([`par`]) — every independent simulation of a
//!   phase fans out through one bounded [`par_map`].
//!
//! ## Example
//!
//! ```no_run
//! use prima_core::{enumerate_configs, EvalLedger, NoFaults, Optimizer};
//! use prima_pdk::Technology;
//! use prima_primitives::{Bias, Library};
//!
//! let tech = Technology::finfet7();
//! let lib = Library::standard();
//! let dp = lib.get("dp").unwrap();
//! let bias = Bias::nominal(&tech, &dp.class);
//! let opt = Optimizer::new(&tech);
//! let configs = enumerate_configs(960, &[8, 12, 16, 24], 2);
//! let bins = opt
//!     .select_bins(dp, &bias, &configs, 3, &NoFaults, &mut EvalLedger::new())
//!     .unwrap();
//! let best = &bins[0].ranked[0];
//! let tuned = opt.tune(dp, &bias, best.layout.clone()).unwrap();
//! assert!(tuned.cost <= best.cost);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod accounting;
pub mod cost;
pub mod diagnostics;
pub mod par;
pub mod ports;
pub mod resilience;
pub mod selection;
pub mod serve;
pub mod tuning;

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use prima_cache::{EvalCache, EvalKey, Fingerprintable};
use prima_layout::LayoutError;
use prima_pdk::Technology;
use prima_primitives::{
    evaluate_all, external_wires_fingerprint, Bias, EvalError, ExternalWire, LayoutView,
    MetricValues, PrimitiveDef, TESTBENCH_VERSION,
};
use prima_spice::analysis::AnalysisError;
use prima_spice::{with_solve_ctrl, SolveCtrl};

pub use accounting::{Phase, SimCounter};
pub use cost::{cost_of, deviation_percent, quality_allowance, CostBreakdown};
pub use diagnostics::{sort_dedupe, RuleKind, Severity, VerifyReport, Violation};
pub use par::par_map;
pub use ports::{
    clamp_to_em_floor, reconcile, route_wire, GlobalRoute, PortConstraint, ReconciledNet,
};
pub use resilience::{
    Degradation, EvalFault, EvalLedger, FaultInjector, FaultPlan, Health, LedgerEntry, NoFaults,
    RepairBudgets, RepairCursor, ResilienceReport,
};
pub use selection::{
    enumerate_configs, std_config_space, BinRanked, Evaluated, STD_M_MAX, STD_NFIN_CHOICES,
};
pub use serve::{RequestReport, ServeOutcome, ServeReport};

// The serving vocabulary: cancellation lives in `prima-cache` (the base
// crate every layer can see) and solver limits in `prima-spice`; both are
// re-exported here because core is where flows and services import from.
pub use prima_cache::{CancelReason, CancelToken, Cancelled};
pub use prima_spice::SolverLimits;

/// Errors from the optimization flow.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// A primitive evaluation failed.
    Eval(EvalError),
    /// Layout generation failed.
    Layout(LayoutError),
    /// No feasible candidate survived (empty config list, empty bins…).
    NoCandidates {
        /// What stage ran dry.
        stage: String,
    },
    /// The attached [`CancelToken`] tripped (explicit cancel or deadline);
    /// the optimization was abandoned at a candidate or solver boundary.
    Cancelled(Cancelled),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Eval(e) => write!(f, "evaluation failed: {e}"),
            OptError::Layout(e) => write!(f, "layout generation failed: {e}"),
            OptError::NoCandidates { stage } => write!(f, "no candidates in {stage}"),
            OptError::Cancelled(c) => write!(f, "optimization abandoned: {c}"),
        }
    }
}

impl std::error::Error for OptError {}

impl From<EvalError> for OptError {
    fn from(e: EvalError) -> Self {
        // A cancellation surfacing through the testbench's analysis stack is
        // a control-flow signal, not an evaluation failure: unwrap it so it
        // can never be ledgered, cached, or retried as one.
        if let EvalError::Analysis(AnalysisError::Cancelled(c)) = &e {
            return OptError::Cancelled(*c);
        }
        OptError::Eval(e)
    }
}

impl From<Cancelled> for OptError {
    fn from(c: Cancelled) -> Self {
        OptError::Cancelled(c)
    }
}

impl From<LayoutError> for OptError {
    fn from(e: LayoutError) -> Self {
        OptError::Layout(e)
    }
}

/// The methodology façade: owns tech + counters, exposes the two
/// optimization steps.
#[derive(Debug)]
pub struct Optimizer<'t> {
    tech: &'t Technology,
    /// Content fingerprint of `tech`, computed once at construction and
    /// folded into every [`EvalKey`]. For a nominal deck this equals the
    /// cache's own fingerprint; a corner- or mismatch-perturbed deck gets
    /// its own address space inside the same cache file, so warm corner
    /// sweeps hit while nominal entries are never aliased.
    tech_fp: prima_cache::Fingerprint,
    counter: SimCounter,
    cache: Option<Arc<EvalCache>>,
    /// Solver limits + cancel token installed around every evaluation.
    ctrl: SolveCtrl,
    /// Maximum parallel wires explored during primitive tuning.
    pub max_tuning_wires: u32,
    /// Maximum parallel routes explored during port optimization.
    pub max_port_routes: u32,
}

impl<'t> Optimizer<'t> {
    /// Creates an optimizer over a technology with default sweep limits.
    pub fn new(tech: &'t Technology) -> Self {
        Optimizer {
            tech,
            tech_fp: tech.fingerprint(),
            counter: SimCounter::new(),
            cache: None,
            ctrl: SolveCtrl::default(),
            max_tuning_wires: 7,
            max_port_routes: 8,
        }
    }

    /// The technology in use.
    pub fn tech(&self) -> &Technology {
        self.tech
    }

    /// The simulation counter (shared across phases).
    pub fn counter(&self) -> &SimCounter {
        &self.counter
    }

    /// Replaces the simulation counter with a shared one, so several
    /// optimizers (e.g. one per PVT corner) account into a single ledger.
    pub fn set_counter(&mut self, counter: SimCounter) {
        self.counter = counter;
    }

    /// Attaches a content-addressed evaluation cache. Keys are addressed
    /// by this optimizer's own technology fingerprint, so a cache opened
    /// under the nominal deck can be shared with corner-perturbed
    /// optimizers without aliasing nominal entries.
    pub fn set_cache(&mut self, cache: Arc<EvalCache>) {
        self.cache = Some(cache);
    }

    /// The attached evaluation cache, if any.
    pub fn cache(&self) -> Option<&EvalCache> {
        self.cache.as_deref()
    }

    /// Overrides the solver iteration limits every evaluation runs under.
    pub fn set_solver_limits(&mut self, limits: SolverLimits) {
        self.ctrl.limits = limits;
    }

    /// Attaches a cancel token, checked at every candidate boundary and —
    /// via the ambient solver scope — at every Newton iteration inside the
    /// testbenches.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.ctrl.cancel = Some(token);
    }

    /// The attached cancel token, if any.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.ctrl.cancel.as_ref()
    }

    /// Runs one testbench evaluation through the cache, when one is attached.
    ///
    /// A hit substitutes the stored metric values bit-for-bit and records no
    /// simulations — the counter measures real testbench work, which is also
    /// why hits can never be charged against repair budgets (those count
    /// route/gate attempts downstream, not lookups). A miss evaluates,
    /// records the counter, and stores only the `Ok` result: failed or
    /// fault-injected evaluations propagate their error before any store, so
    /// ledgered candidates never poison the cache.
    pub(crate) fn eval_values(
        &self,
        def: &PrimitiveDef,
        view: LayoutView<'_>,
        bias: &Bias,
        ext: &HashMap<String, ExternalWire>,
        phase: Phase,
    ) -> Result<MetricValues, OptError> {
        // Candidate boundary: a cancelled request stops before touching the
        // cache or spending a single simulation.
        if let Some(token) = &self.ctrl.cancel {
            token.check()?;
        }
        let key = self
            .cache
            .as_deref()
            .filter(|c| c.is_enabled())
            .map(|_| EvalKey {
                tech: self.tech_fp,
                def: def.fingerprint(),
                view: view.fingerprint(),
                bias: bias.fingerprint(),
                wires: external_wires_fingerprint(ext),
                testbench_version: TESTBENCH_VERSION,
            });
        if let (Some(cache), Some(key)) = (self.cache.as_deref(), key.as_ref()) {
            if let Some(values) = cache.lookup(key) {
                return Ok(values);
            }
        }
        // The ambient scope makes every solver the testbench constructs on
        // *this thread* honor our limits and token; `with_solve_ctrl` must
        // therefore be re-entered on each parallel candidate worker — which
        // happens naturally because eval_values runs on the worker.
        let values = with_solve_ctrl(self.ctrl.clone(), || {
            evaluate_all(self.tech, def, view, bias, ext)
        })?;
        self.counter.record(phase, def.metrics.len());
        if let (Some(cache), Some(key)) = (self.cache.as_deref(), key) {
            cache.store(key, &values);
        }
        Ok(values)
    }
}
