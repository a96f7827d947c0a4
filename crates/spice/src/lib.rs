//! # prima-spice
//!
//! A compact, self-contained circuit simulator built for *primitive-level*
//! analog layout optimization, in the style of the DATE 2021 paper
//! "Analog Layout Generation using Optimized Primitives".
//!
//! The simulator implements modified nodal analysis (MNA) with:
//!
//! * nonlinear **DC** operating-point analysis (Newton–Raphson with gmin and
//!   source stepping fallbacks, and a warm start from a nearby operating
//!   point for sweeps),
//! * small-signal **AC** analysis (complex MNA around the DC operating point),
//! * **transient** analysis from the DC operating point
//!   (trapezoidal/backward-Euler companion models with a Newton solve per
//!   timestep), and
//! * `.measure`-style post-processing ([`measure`]) for the metrics used by
//!   primitive testbenches: gain, unity-gain frequency, phase margin, 3 dB
//!   bandwidth, delays, oscillation frequency, and average power.
//!
//! The three analyses share one set of element stamps, and DC and transient
//! share one damped Newton loop ([`analysis`]).
//!
//! Devices are the ones primitive testbenches build: resistors, capacitors,
//! independent V/I sources, and a smooth FinFET-flavored compact model
//! ([`devices::FetModel`]) whose current is C¹-continuous from weak to
//! strong inversion, making Newton iterations robust. The model exposes the
//! layout-dependent knobs the methodology optimizes: per-instance
//! threshold/mobility shifts from layout-dependent effects (LDEs) and
//! junction capacitances proportional to drain/source diffusion geometry.
//!
//! Circuits are built programmatically with [`netlist::Circuit`]; nested
//! blocks are flattened into it with [`netlist::Circuit::instantiate`].
//!
//! ## Example
//!
//! ```
//! use prima_spice::netlist::Circuit;
//! use prima_spice::analysis::dc::DcSolver;
//!
//! // A resistive divider: 1 V across two 1 kΩ resistors.
//! let mut c = Circuit::new();
//! let vin = c.node("vin");
//! let mid = c.node("mid");
//! c.vsource("V1", vin, Circuit::GROUND, 1.0);
//! c.resistor("R1", vin, mid, 1e3).unwrap();
//! c.resistor("R2", mid, Circuit::GROUND, 1e3).unwrap();
//! let op = DcSolver::new().solve(&c).unwrap();
//! assert!((op.voltage(mid) - 0.5).abs() < 1e-9);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod ctrl;
pub mod devices;
pub mod measure;
pub mod netlist;
pub mod num;

pub use analysis::ac::{AcResult, AcSolver, FrequencySweep};
pub use analysis::dc::{DcSolver, OperatingPoint};
pub use analysis::tran::{TranResult, TranSolver};
pub use ctrl::{current_solve_ctrl, with_solve_ctrl, SolveCtrl};
pub use devices::{FetInstance, FetModel, FetPolarity};
pub use netlist::{Circuit, NodeId, SpiceError};
pub use num::Complex;
