//! # prima-flow
//!
//! End-to-end hierarchical analog layout flows over the prima substrates,
//! reproducing the paper's evaluation (§IV):
//!
//! * **Benchmark circuits** ([`circuits`]) — the common-source amplifier of
//!   Fig. 2/Table I, the high-frequency five-transistor OTA, the StrongARM
//!   comparator, and the eight-stage differential RO-VCO, each expressed as
//!   primitive instances plus a circuit-level testbench.
//! * **Flows** ([`flows`]) — `optimized` (this work: primitive selection →
//!   tuning → placement → global routing → port optimization),
//!   `conventional` (geometry-only: default cells, single wires), and a
//!   `manual` proxy (extended search standing in for expert layout; see
//!   DESIGN.md for the substitution argument).
//! * **Assembly** ([`builder`]) — expands primitive instances (schematic or
//!   extracted layouts) into one flat simulator circuit, inserting
//!   global-route RC on the top-level nets and supply IR resistance.
//! * **Preflight** ([`preflight`], [`schem`], and the private `techlint`
//!   module) — the two static gates every flow runs first. The deck gate
//!   lints the technology and proves the primitive library manufacturable
//!   on it (`TECH.*`/`LIB.*`); the schematic gate runs connectivity-graph
//!   lints, bias and sizing legality, and topology recognition
//!   (`SCHEM.*`). A malformed deck or request dies in milliseconds with
//!   exact rule ids instead of seconds into a cold optimization run.
//! * **Variation** — PVT corner sweeps and seeded Monte-Carlo mismatch
//!   ([`CornerPolicy`], [`MismatchSampler`], [`CornerReport`]), run by the
//!   optimized flow between selection and placement.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod builder;
pub mod circuits;
mod corners;
mod electrical;
pub mod flows;
mod gds;
pub mod preflight;
pub mod schem;
mod techlint;
#[cfg(test)]
mod tests;
// Unit tests of the deck gate's two rule families. They live beside the
// gate in `techlint/` and sit at the crate root, so each keeps the
// `deck::tests::<name>` or `library::tests::<name>` path it had while the
// gate was a crate of its own.
#[cfg(test)]
#[path = "techlint/deck_tests.rs"]
mod deck;
#[cfg(test)]
#[path = "techlint/library_tests.rs"]
mod library;

use std::fmt;

use prima_core::OptError;
use prima_place::PlaceError;
use prima_primitives::EvalError;
use prima_route::RouteError;
use prima_spice::analysis::AnalysisError;
use prima_spice::measure::MeasureError;
use prima_spice::netlist::SpiceError;

pub use builder::{build_circuit, PrimitiveInst, Realization};
pub use corners::{
    corner_bias, instance_fingerprint, CornerMeasure, CornerOptions, CornerPolicy, CornerReport,
    InstanceCorners, McYield, MismatchDraw, MismatchSampler, MC_SEED,
};
pub use flows::{
    conventional_flow, manual_flow, optimized_flow, optimized_flow_resilient, optimized_flow_with,
    FlowKind, FlowOptions, FlowOutcome, GdsPolicy, VerifyPolicy,
};
pub use preflight::{schem_preflight, techlint_preflight};
pub use prima_cache::{CacheHub, CachePolicy, CacheStats, Namespace};
pub use prima_core::{
    CancelReason, CancelToken, Cancelled, FaultPlan, Health, RepairBudgets, RequestReport,
    ResilienceReport, ServeOutcome, ServeReport, SolverLimits,
};
pub use prima_gds::{GdsArtifact, GdsError, GdsLibrary};

/// Errors from circuit assembly and flow execution.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// A referenced primitive is missing from the library.
    UnknownPrimitive {
        /// The missing library key.
        name: String,
    },
    /// An instance connection references a port the primitive lacks.
    BadConnection {
        /// Instance name.
        instance: String,
        /// The offending port.
        port: String,
    },
    /// Netlist construction failed.
    Spice(SpiceError),
    /// Simulation failed.
    Analysis(AnalysisError),
    /// Primitive evaluation failed.
    Eval(EvalError),
    /// The optimization step failed.
    Opt(OptError),
    /// Placement failed.
    Place(PlaceError),
    /// Routing failed.
    Route(RouteError),
    /// A circuit-level measurement could not be extracted.
    Measurement {
        /// What failed.
        what: String,
    },
    /// Cell generation produced no layout candidates for an instance.
    NoCandidates {
        /// The instance with an empty candidate set.
        instance: String,
    },
    /// A static gate (techlint, schem, verify or erc) found error-severity
    /// violations: the preflights never repair, and a verify or erc failure
    /// lands here once it outlasts the gate-attempt budget.
    Verify {
        /// Circuit that failed verification.
        circuit: String,
        /// Total violation count.
        violations: usize,
        /// The first violation, formatted.
        first: String,
    },
    /// The bounded repair loop gave up: the detail router ran out of
    /// attempts, or a failing gate ran out of fallback candidates. A gate
    /// that runs out of attempts first surfaces as [`FlowError::Verify`].
    RepairExhausted {
        /// Circuit whose repair failed.
        circuit: String,
        /// Stage that exhausted its budget: `"detail routing"`,
        /// `"verify gate"` or `"erc gate"`.
        stage: String,
        /// Attempts spent before giving up.
        attempts: u32,
        /// The last failure, formatted.
        last: String,
    },
    /// The flow's [`CancelToken`] tripped — an explicit cancel or an
    /// expired wall-clock deadline — and the run was abandoned at the next
    /// cooperative checkpoint. Never retried by the serving layer.
    Cancelled(Cancelled),
    /// GDS-II stream-out failed after the gates passed — an unmapped
    /// layer, a coordinate off the 32-bit database grid, or a unit size
    /// outside `real8` range. Only reachable with [`GdsPolicy::On`].
    Gds(prima_gds::GdsError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::UnknownPrimitive { name } => write!(f, "unknown primitive {name}"),
            FlowError::BadConnection { instance, port } => {
                write!(f, "instance {instance} connects missing port {port}")
            }
            FlowError::Spice(e) => write!(f, "netlist: {e}"),
            FlowError::Analysis(e) => write!(f, "analysis: {e}"),
            FlowError::Eval(e) => write!(f, "evaluation: {e}"),
            FlowError::Opt(e) => write!(f, "optimization: {e}"),
            FlowError::Place(e) => write!(f, "placement: {e}"),
            FlowError::Route(e) => write!(f, "routing: {e}"),
            FlowError::Measurement { what } => write!(f, "measurement: {what}"),
            FlowError::NoCandidates { instance } => {
                write!(f, "no layout candidates generated for instance {instance}")
            }
            FlowError::Verify {
                circuit,
                violations,
                first,
            } => write!(
                f,
                "verification: {circuit} has {violations} violation(s), first: {first}"
            ),
            FlowError::RepairExhausted {
                circuit,
                stage,
                attempts,
                last,
            } => write!(
                f,
                "repair exhausted: {circuit} {stage} failed after {attempts} attempt(s), last: {last}"
            ),
            FlowError::Cancelled(c) => write!(f, "flow abandoned: {c}"),
            FlowError::Gds(e) => write!(f, "gds stream-out: {e}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<SpiceError> for FlowError {
    fn from(e: SpiceError) -> Self {
        FlowError::Spice(e)
    }
}
impl From<AnalysisError> for FlowError {
    fn from(e: AnalysisError) -> Self {
        // Cancellation is control flow, not an analysis failure: surface it
        // as such so the serving layer never classifies it as retryable.
        match e {
            AnalysisError::Cancelled(c) => FlowError::Cancelled(c),
            e => FlowError::Analysis(e),
        }
    }
}
impl From<EvalError> for FlowError {
    fn from(e: EvalError) -> Self {
        if let EvalError::Analysis(AnalysisError::Cancelled(c)) = &e {
            return FlowError::Cancelled(*c);
        }
        FlowError::Eval(e)
    }
}
impl From<OptError> for FlowError {
    fn from(e: OptError) -> Self {
        match e {
            OptError::Cancelled(c) => FlowError::Cancelled(c),
            e => FlowError::Opt(e),
        }
    }
}
impl From<Cancelled> for FlowError {
    fn from(c: Cancelled) -> Self {
        FlowError::Cancelled(c)
    }
}
impl From<PlaceError> for FlowError {
    fn from(e: PlaceError) -> Self {
        FlowError::Place(e)
    }
}
impl From<RouteError> for FlowError {
    fn from(e: RouteError) -> Self {
        FlowError::Route(e)
    }
}
impl From<MeasureError> for FlowError {
    fn from(e: MeasureError) -> Self {
        FlowError::Measurement {
            what: e.to_string(),
        }
    }
}
