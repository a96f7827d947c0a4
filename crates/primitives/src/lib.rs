//! # prima-primitives
//!
//! The analog primitive library of the optimized-primitives methodology
//! (paper §II): for each primitive class the library records
//!
//! * the **performance metrics** that tie the primitive to circuit-level
//!   behavior, with an importance weight α ∈ {1, 0.5, 0.1} (Table II),
//! * the **tuning terminals** whose RC can be traded off by adding parallel
//!   wires, with correlation annotations, and
//! * a **testbench** per metric — a small SPICE setup (Fig. 4 style) that
//!   measures the metric through actual circuit simulation, never through
//!   the simplified analytic equations.
//!
//! Primitives are evaluated either as *schematic* (ideal, no parasitics or
//! LDEs — the reference `x_sch`) or against a generated
//! [`prima_layout::PrimitiveLayout`] (the candidate `x_layout`), optionally
//! with external port wiring attached (the port-optimization step).
//!
//! ## Example
//!
//! ```
//! use prima_primitives::{Library, LayoutView, evaluate_metric, Bias};
//! use prima_pdk::Technology;
//!
//! let tech = Technology::finfet7();
//! let lib = Library::standard();
//! let dp = lib.get("dp").unwrap();
//! let bias = Bias::nominal(&tech, &dp.class);
//! let gm = evaluate_metric(
//!     &tech,
//!     dp,
//!     &dp.metrics[0],
//!     LayoutView::Schematic { total_fins: 960 },
//!     &bias,
//!     &Default::default(),
//! )
//! .unwrap();
//! assert!(gm > 0.0);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

mod bias;
mod circuit;
mod fingerprint;
mod library;
mod metrics;
mod testbench;

pub use bias::Bias;
pub use circuit::{as_subcircuit, ExternalWire, LayoutView};
pub use fingerprint::{external_wires_fingerprint, TESTBENCH_VERSION};
pub use library::{Library, PrimitiveClass, PrimitiveDef, TuningTerminal};
pub use metrics::{Metric, MetricKind, MetricValues};
pub use testbench::{evaluate_all, evaluate_metric, EvalError};
