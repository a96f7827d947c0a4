//! Per-class SPICE testbenches (Fig. 4 style) that measure primitive
//! performance metrics by actual circuit simulation.
//!
//! Every metric is one self-contained simulation setup: biases and
//! excitations at the primitive's (far) ports, a measurement, and nothing
//! else — exactly the "cheap SPICE simulations on small structures" the
//! paper relies on instead of analytic equations.
//!
//! Three metrics search a bias point: a pair's input offset, a switched
//! pair's tail bias and an inverter's trip point. Each builds its scaffold
//! once, moves one source in place per probe, warm-starts each DC solve
//! from the last ([`DcSolver::solve_near`]), and brackets the crossing
//! with a secant search (`find_crossing`). Metrics evaluated together
//! share their simulations ([`evaluate_all`]).

// Each scaffold builds its own circuit from constants and pre-validated
// bias values, then reads back only elements it just inserted; every
// `expect` in this module states one of those construction invariants,
// not a recoverable failure (those surface as `EvalError`).
#![allow(clippy::expect_used)]

use std::collections::HashMap;
use std::fmt;

use prima_pdk::Technology;
use prima_spice::analysis::ac::{AcSolver, FrequencySweep};
use prima_spice::analysis::dc::{DcSolver, OperatingPoint};
use prima_spice::analysis::tran::TranSolver;
use prima_spice::analysis::AnalysisError;
use prima_spice::devices::FetPolarity;
use prima_spice::measure::{self, Edge};
use prima_spice::netlist::{Circuit, Element, SpiceError, Waveform};
use prima_spice::num::Complex;

use crate::bias::Bias;
use crate::circuit::{build_scaffold, ExternalWire, LayoutView, Scaffold};
use crate::library::{PrimitiveClass, PrimitiveDef};
use crate::metrics::{Metric, MetricKind, MetricValues};

/// Frequency at which transconductances and resistances are measured (low
/// enough that capacitances do not intrude).
const F_GM: f64 = 1e6;
/// Frequency at which capacitances are measured.
const F_CAP: f64 = 1e9;
/// Frequency at which the differential-pair Gm is measured: the pair's
/// circuit context is a multi-GHz amplifier/comparator, so the delivered
/// signal current is evaluated where the wire RC actually bites.
const F_GM_DP: f64 = 5e9;
/// Bracket width (V) at which the input-offset and trip-point searches
/// stop: the DC solver's node-voltage tolerance.
const SEARCH_VTOL: f64 = 1e-9;

/// Errors from primitive evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Netlist construction failed.
    Spice(SpiceError),
    /// The simulator did not converge / the system was singular.
    Analysis(AnalysisError),
    /// The metric is not defined for this primitive class, or the view is
    /// invalid (e.g. FET layout for a passive).
    Unsupported {
        /// Description of the mismatch.
        reason: String,
    },
    /// The measurement could not be extracted from the simulation result.
    MeasurementFailed {
        /// What failed (e.g. "no unity crossing").
        what: String,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Spice(e) => write!(f, "netlist error: {e}"),
            EvalError::Analysis(e) => write!(f, "analysis error: {e}"),
            EvalError::Unsupported { reason } => write!(f, "unsupported: {reason}"),
            EvalError::MeasurementFailed { what } => write!(f, "measurement failed: {what}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<AnalysisError> for EvalError {
    fn from(e: AnalysisError) -> Self {
        EvalError::Analysis(e)
    }
}

impl From<SpiceError> for EvalError {
    fn from(e: SpiceError) -> Self {
        EvalError::Spice(e)
    }
}

impl From<measure::MeasureError> for EvalError {
    fn from(e: measure::MeasureError) -> Self {
        EvalError::MeasurementFailed {
            what: e.to_string(),
        }
    }
}

/// Evaluates every metric of a primitive; returns name → value.
///
/// The metrics share simulations: a metric another one needs (the `Gm` of
/// `Gm/Ctotal`) is measured once, and the current-starved inverter's delay
/// and supply current read one transient.
///
/// # Errors
///
/// Propagates the first metric evaluation failure.
pub fn evaluate_all(
    tech: &Technology,
    def: &PrimitiveDef,
    view: LayoutView<'_>,
    bias: &Bias,
    externals: &HashMap<String, ExternalWire>,
) -> Result<MetricValues, EvalError> {
    let mut measured = HashMap::new();
    let mut out = MetricValues::new();
    for m in &def.metrics {
        let v = metric_value(tech, def, m.kind, view, bias, externals, &mut measured)?;
        out.insert(m.name.clone(), v);
    }
    Ok(out)
}

/// Evaluates one metric of a primitive through its testbench.
///
/// # Errors
///
/// Returns [`EvalError::Unsupported`] for metric/class mismatches and
/// propagates simulator failures.
pub fn evaluate_metric(
    tech: &Technology,
    def: &PrimitiveDef,
    metric: &Metric,
    view: LayoutView<'_>,
    bias: &Bias,
    externals: &HashMap<String, ExternalWire>,
) -> Result<f64, EvalError> {
    metric_value(
        tech,
        def,
        metric.kind,
        view,
        bias,
        externals,
        &mut HashMap::new(),
    )
}

/// Measures the metric `kind`, or returns it from `measured`, the values
/// this evaluation has measured so far.
fn metric_value(
    tech: &Technology,
    def: &PrimitiveDef,
    kind: MetricKind,
    view: LayoutView<'_>,
    bias: &Bias,
    externals: &HashMap<String, ExternalWire>,
    measured: &mut HashMap<MetricKind, f64>,
) -> Result<f64, EvalError> {
    if let Some(&v) = measured.get(&kind) {
        return Ok(v);
    }
    let v = match &def.class {
        PrimitiveClass::DifferentialPair => {
            dp_metric(tech, def, kind, view, bias, externals, measured)
        }
        PrimitiveClass::CurrentMirror { .. } | PrimitiveClass::CurrentSource => {
            output_stage_metric(tech, def, kind, view, bias, externals)
        }
        PrimitiveClass::Amplifier => amp_metric(tech, def, kind, view, bias, externals),
        PrimitiveClass::Load => load_metric(tech, def, kind, view, bias, externals),
        PrimitiveClass::Switch => switch_metric(tech, def, kind, view, bias, externals),
        PrimitiveClass::CrossCoupled => {
            ccpair_metric(tech, def, kind, view, bias, externals, measured)
        }
        PrimitiveClass::CurrentStarvedInverter => {
            csi_metric(tech, def, kind, view, bias, externals, measured)
        }
        PrimitiveClass::PassiveCap { design_f } => {
            passive_cap_metric(kind, view, externals, *design_f)
        }
        PrimitiveClass::PassiveRes { design_ohm } => {
            passive_res_metric(kind, view, externals, *design_ohm)
        }
    }?;
    measured.insert(kind, v);
    Ok(v)
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

/// Drives the PMOS-bulk/supply node; every testbench calls this first.
fn drive_supply(s: &mut Scaffold, vdd: f64) {
    let node = s.vdd_node;
    s.circuit.vsource("VBULKP", node, Circuit::GROUND, vdd);
}

/// Grounds a port (0 V source so its current remains measurable).
fn ground_port(s: &mut Scaffold, net: &str) {
    let n = s.at(net);
    s.circuit
        .vsource(&format!("VGND_{net}"), n, Circuit::GROUND, 0.0);
}

/// Adds the bias load capacitance at a port's far node, if any.
fn add_load(s: &mut Scaffold, bias: &Bias, net: &str) {
    let c = bias.load(net);
    if c > 0.0 {
        let n = s.at(net);
        s.circuit
            .capacitor(&format!("CL_{net}"), n, Circuit::GROUND, c)
            .expect("load cap is validated by Bias setters");
    }
}

/// Complex admittance seen by the voltage source `drive` (which must carry
/// `ac_mag = 1`) at frequency `f`.
fn admittance(circuit: &Circuit, drive: &str, f: f64) -> Result<Complex, EvalError> {
    let res = AcSolver::new().solve(circuit, &FrequencySweep::List(vec![f]))?;
    let branch = res
        .branch_phasor(drive, 0)
        .ok_or(EvalError::MeasurementFailed {
            what: format!("no branch current for {drive}"),
        })?;
    // Branch current flows out of the + node through the source, so the
    // current delivered into the network is its negation.
    Ok(-branch)
}

/// Output resistance `1/Re Y` seen by the voltage source `drive` (which
/// must carry `ac_mag = 1`) at [`F_GM`].
fn output_resistance(circuit: &Circuit, drive: &str) -> Result<f64, EvalError> {
    let y = admittance(circuit, drive, F_GM)?;
    if y.re <= 0.0 {
        return Err(EvalError::MeasurementFailed {
            what: format!("non-positive output conductance {}", y.re),
        });
    }
    Ok(1.0 / y.re)
}

/// Capacitance `Im Y / 2πf` of an admittance `y` measured at `f`.
fn capacitance(y: Complex, f: f64) -> f64 {
    y.im / (2.0 * std::f64::consts::PI * f)
}

/// Ties the primitive's optional rail ports: `vss` to ground, then `vdd`
/// to the supply.
fn tie_rails(s: &mut Scaffold, def: &PrimitiveDef, vdd: f64) {
    if def.ports.iter().any(|p| p == "vss") {
        ground_port(s, "vss");
    }
    if def.ports.iter().any(|p| p == "vdd") {
        let n = s.at("vdd");
        s.circuit.vsource("VSUP", n, Circuit::GROUND, vdd);
    }
}

/// A testbench scaffold whose DC operating point is re-solved as its
/// sources move in place; each solve warm-starts from the last one that
/// converged.
struct DcProbe {
    s: Scaffold,
    solver: DcSolver,
    last: Option<OperatingPoint>,
}

impl DcProbe {
    fn new(s: Scaffold) -> Self {
        DcProbe {
            s,
            solver: DcSolver::new(),
            last: None,
        }
    }

    /// Solves the operating point at the sources' present values.
    fn solve(&mut self) -> Result<&OperatingPoint, AnalysisError> {
        let op = match &self.last {
            Some(near) => self.solver.solve_near(&self.s.circuit, near)?,
            None => self.solver.solve(&self.s.circuit)?,
        };
        Ok(self.last.insert(op))
    }
}

/// Sets the DC value of the voltage source `name`, which the testbench
/// added, in place.
fn set_dc(circuit: &mut Circuit, name: &str, v: f64) {
    let wave = circuit
        .elements_mut()
        .iter_mut()
        .find_map(|e| match e {
            Element::VSource { name: n, wave, .. } if n == name => Some(wave),
            _ => None,
        })
        .expect("the testbench added this source");
    *wave = Waveform::Dc(v);
}

/// Where an increasing `f` crosses zero in `[lo, hi]`, by the Illinois
/// variant of regula falsi.
///
/// Each end comes with its value of `f` when known. A probe bisects the
/// bracket while an end's value is unknown or not finite, so the first
/// probe of an unprobed bracket is its midpoint and a non-finite value
/// takes a bisection step; otherwise it interpolates between the ends.
/// Positive values move the upper end, negative ones the lower. The
/// search stops after `max_evals` probes or once the bracket is at most
/// `tol` wide, and returns the bracket's midpoint, or a probe where `f` is
/// exactly zero. When every probe has one sign, the bracket closes onto
/// one end, as bisection's does.
fn find_crossing<E>(
    (mut a, mut fa): (f64, Option<f64>),
    (mut b, mut fb): (f64, Option<f64>),
    tol: f64,
    max_evals: usize,
    mut f: impl FnMut(f64) -> Result<f64, E>,
) -> Result<f64, E> {
    // Which end the last probe replaced: a retained end whose value is
    // halved after two replacements of the other keeps both ends moving.
    let mut last_moved_upper = None;
    for _ in 0..max_evals {
        if b - a <= tol {
            break;
        }
        let x = match (fa, fb) {
            (Some(fa), Some(fb)) if fa.is_finite() && fb.is_finite() => {
                let x = a - fa * (b - a) / (fb - fa);
                if a < x && x < b {
                    x
                } else {
                    0.5 * (a + b)
                }
            }
            _ => 0.5 * (a + b),
        };
        let fx = f(x)?;
        if fx == 0.0 {
            return Ok(x);
        }
        let upper = fx > 0.0;
        if upper {
            (b, fb) = (x, Some(fx));
        } else {
            (a, fa) = (x, Some(fx));
        }
        if last_moved_upper == Some(upper) {
            let stale = if upper { &mut fa } else { &mut fb };
            *stale = stale.map(|v| 0.5 * v);
        }
        last_moved_upper = Some(upper);
    }
    Ok(0.5 * (a + b))
}

/// First device polarity of a primitive (its "driving" flavor).
fn polarity(def: &PrimitiveDef) -> FetPolarity {
    def.spec
        .devices
        .first()
        .map(|d| d.polarity)
        .unwrap_or(FetPolarity::Nmos)
}

// ---------------------------------------------------------------------------
// Differential pair
// ---------------------------------------------------------------------------

/// Gate common-mode voltage of a differential pair's testbenches.
fn dp_vcm(def: &PrimitiveDef, bias: &Bias) -> f64 {
    let vcm_def = match polarity(def) {
        FetPolarity::Nmos => 0.55 * bias.vdd,
        FetPolarity::Pmos => 0.45 * bias.vdd,
    };
    bias.v("cm_in", vcm_def)
}

/// Builds the DP bias scaffold shared by the Gm / C / offset testbenches,
/// with both gates at the common-mode voltage.
fn dp_scaffold(
    tech: &Technology,
    def: &PrimitiveDef,
    view: LayoutView<'_>,
    bias: &Bias,
    externals: &HashMap<String, ExternalWire>,
    ac_inputs: bool,
    ac_drain: bool,
) -> Result<Scaffold, EvalError> {
    let mut s = build_scaffold(tech, def, view, externals)?;
    let vdd = bias.vdd;
    let pol = polarity(def);
    let (vd_def, vcas_def) = match pol {
        FetPolarity::Nmos => (0.65 * vdd, 0.80 * vdd),
        FetPolarity::Pmos => (0.35 * vdd, 0.20 * vdd),
    };
    let vcm = dp_vcm(def, bias);
    let vd = bias.v("vd", vd_def);
    drive_supply(&mut s, vdd);

    let (ga, gb, da, db) = (s.at("ga"), s.at("gb"), s.at("da"), s.at("db"));
    let (in_ac_a, in_ac_b) = if ac_inputs { (0.5, -0.5) } else { (0.0, 0.0) };
    s.circuit
        .vsource_ac("VGA", ga, Circuit::GROUND, vcm, in_ac_a);
    s.circuit
        .vsource_ac("VGB", gb, Circuit::GROUND, vcm, in_ac_b);
    if ac_drain {
        // Capacitance measurement: drive the drain directly.
        s.circuit.vsource_ac("VDA", da, Circuit::GROUND, vd, 1.0);
        s.circuit.vsource_ac("VDB", db, Circuit::GROUND, vd, 0.0);
    } else {
        // Gm/offset measurement: the drains drive the downstream load
        // resistance (the 1/gm of a mirror's diode input) and the measured
        // quantity is the current *delivered through* it — route and mesh
        // resistance genuinely steal signal current here.
        let rl = bias.drain_load_ohm.max(1e-3);
        let mda = s.circuit.node("mda#l");
        let mdb = s.circuit.node("mdb#l");
        s.circuit
            .resistor("RLA", da, mda, rl)
            .expect("positive load resistance");
        s.circuit
            .resistor("RLB", db, mdb, rl)
            .expect("positive load resistance");
        s.circuit.vsource_ac("VDA", mda, Circuit::GROUND, vd, 0.0);
        s.circuit.vsource_ac("VDB", mdb, Circuit::GROUND, vd, 0.0);
    }
    add_load(&mut s, bias, "da");
    add_load(&mut s, bias, "db");

    if def.ports.iter().any(|p| p == "s") {
        let tail = bias.i("tail", 300e-6);
        let sn = s.at("s");
        match pol {
            // NMOS tail sinks current from the sources to ground.
            FetPolarity::Nmos => s.circuit.isource("ITAIL", sn, Circuit::GROUND, tail),
            // PMOS tail feeds current into the sources.
            FetPolarity::Pmos => s.circuit.isource("ITAIL", Circuit::GROUND, sn, tail),
        }
    }
    if def.ports.iter().any(|p| p == "vcas") {
        let v = bias.v("vcas", vcas_def);
        let n = s.at("vcas");
        s.circuit.vsource("VCAS", n, Circuit::GROUND, v);
    }
    if def.ports.iter().any(|p| p == "vss") {
        ground_port(&mut s, "vss");
    }
    if def.ports.iter().any(|p| p == "clk") {
        // Switched pair: at a rail-driven clock the DC point is deep
        // triode and Gm is meaningless. Characterize at the *evaluation
        // current* instead: search the tail-switch gate voltage at which
        // the pair carries the bias tail current — the clocked analogue of
        // the designer's tail bias.
        let n = s.at("clk");
        s.circuit.vsource("VCLK", n, Circuit::GROUND, vdd);
        let target = bias.i("tail", 300e-6);
        // An NMOS switch passes more current as its gate rises, a PMOS
        // switch less: orient the excess current to rise with the clock.
        let orient = match pol {
            FetPolarity::Nmos => 1.0,
            FetPolarity::Pmos => -1.0,
        };
        // Resolve the gate voltage as 18 bisection steps would.
        let (lo, hi) = (0.15, vdd);
        let tol = (hi - lo) / f64::from(1u32 << 18);
        let mut probe = DcProbe::new(s);
        let v = find_crossing((lo, None), (hi, None), tol, 18, |v| {
            set_dc(&mut probe.s.circuit, "VCLK", v);
            let excess = match probe.solve() {
                Ok(op) => {
                    op.branch_current("VDA").unwrap_or(0.0).abs()
                        + op.branch_current("VDB").unwrap_or(0.0).abs()
                        - target
                }
                Err(e @ AnalysisError::Cancelled(_)) => return Err(e),
                // A point that does not converge counts as too much current.
                Err(_) => f64::INFINITY,
            };
            Ok(orient * excess)
        })?;
        set_dc(&mut probe.s.circuit, "VCLK", v);
        s = probe.s;
    }
    Ok(s)
}

/// Differential Gm (A/V) of a DP scaffold built with AC inputs.
fn dp_gm(s: &Scaffold) -> Result<f64, EvalError> {
    let res = AcSolver::new().solve(&s.circuit, &FrequencySweep::List(vec![F_GM_DP]))?;
    let ia = res.branch_phasor("VDA", 0).expect("VDA");
    let ib = res.branch_phasor("VDB", 0).expect("VDB");
    Ok((ia - ib).norm())
}

/// Drain capacitance (F) of a DP scaffold built with an AC drain drive.
fn dp_drain_cap(s: &Scaffold) -> Result<f64, EvalError> {
    Ok(capacitance(admittance(&s.circuit, "VDA", F_CAP)?, F_CAP))
}

/// `Gm/Ctotal` from a measured Gm and drain capacitance.
fn dp_gm_over_ctotal(gm: f64, c: f64) -> Result<f64, EvalError> {
    if c <= 0.0 {
        return Err(EvalError::MeasurementFailed {
            what: format!("non-positive drain capacitance {c}"),
        });
    }
    Ok(gm / c)
}

fn dp_metric(
    tech: &Technology,
    def: &PrimitiveDef,
    kind: MetricKind,
    view: LayoutView<'_>,
    bias: &Bias,
    externals: &HashMap<String, ExternalWire>,
    measured: &mut HashMap<MetricKind, f64>,
) -> Result<f64, EvalError> {
    match kind {
        MetricKind::Gm => dp_gm(&dp_scaffold(tech, def, view, bias, externals, true, false)?),
        MetricKind::GmOverCtotal => {
            let gm = metric_value(tech, def, MetricKind::Gm, view, bias, externals, measured)?;
            let s = dp_scaffold(tech, def, view, bias, externals, false, true)?;
            dp_gm_over_ctotal(gm, dp_drain_cap(&s)?)
        }
        MetricKind::InputOffset => {
            // Search the differential input at which the drain currents
            // match, moving the gate sources in place.
            let vcm = dp_vcm(def, bias);
            let s = dp_scaffold(tech, def, view, bias, externals, false, false)?;
            let mut probe = DcProbe::new(s);
            let mut diff = |d: f64| -> Result<f64, EvalError> {
                set_dc(&mut probe.s.circuit, "VGA", vcm + d / 2.0);
                set_dc(&mut probe.s.circuit, "VGB", vcm - d / 2.0);
                let op = probe.solve()?;
                let ia = op.branch_current("VDA").expect("VDA exists");
                let ib = op.branch_current("VDB").expect("VDB exists");
                Ok(ia - ib)
            };
            // The first probe is the bracket midpoint, where a balanced
            // pair stops.
            let f0 = diff(0.0)?;
            if f0 == 0.0 {
                return Ok(0.0);
            }
            let (lo, hi) = (-0.06f64, 0.06f64);
            let (flo, fhi) = (diff(lo)?, diff(hi)?);
            if flo == 0.0 {
                return Ok(lo.abs());
            }
            if flo.signum() == fhi.signum() {
                // Offset beyond the search range: report the boundary.
                return Ok(hi);
            }
            // Orient the difference to rise across the bracket, and search
            // the half whose ends change sign.
            let o = fhi.signum();
            let (a, b) = if o * f0 < 0.0 {
                ((0.0, Some(o * f0)), (hi, Some(o * fhi)))
            } else {
                ((lo, Some(o * flo)), (0.0, Some(o * f0)))
            };
            let d = find_crossing(a, b, SEARCH_VTOL, 39, |d| diff(d).map(|v| o * v))?;
            Ok(d.abs())
        }
        other => Err(EvalError::Unsupported {
            reason: format!("metric {other:?} on a differential pair"),
        }),
    }
}

// ---------------------------------------------------------------------------
// Current mirrors / sources / loads
// ---------------------------------------------------------------------------

/// The testbench a current mirror and a current source share. One input
/// element sets the output current: a mirror's reference current `IREF`
/// into `in`, or a source's gate bias `VB` at `vb`. The output stage
/// follows: `VOUT` holds `out` (with a unit AC drive when `ac_out`), then
/// the rail ties.
fn output_stage_scaffold(
    tech: &Technology,
    def: &PrimitiveDef,
    view: LayoutView<'_>,
    bias: &Bias,
    externals: &HashMap<String, ExternalWire>,
    mirror: bool,
    ac_out: bool,
) -> Result<Scaffold, EvalError> {
    let mut s = build_scaffold(tech, def, view, externals)?;
    let vdd = bias.vdd;
    drive_supply(&mut s, vdd);
    let pol = polarity(def);
    if mirror {
        let iref = bias.i("ref", 100e-6);
        let in_n = s.at("in");
        match pol {
            FetPolarity::Nmos => s.circuit.isource("IREF", Circuit::GROUND, in_n, iref),
            FetPolarity::Pmos => s.circuit.isource("IREF", in_n, Circuit::GROUND, iref),
        }
    } else {
        let vb = bias.v(
            "vb",
            match pol {
                FetPolarity::Nmos => 0.45 * vdd,
                FetPolarity::Pmos => 0.55 * vdd,
            },
        );
        let vb_n = s.at("vb");
        s.circuit.vsource("VB", vb_n, Circuit::GROUND, vb);
    }
    let vout = bias.v("vout", 0.5 * vdd);
    let out_n = s.at("out");
    s.circuit.vsource_ac(
        "VOUT",
        out_n,
        Circuit::GROUND,
        vout,
        if ac_out { 1.0 } else { 0.0 },
    );
    tie_rails(&mut s, def, vdd);
    Ok(s)
}

/// Output current, output resistance and output capacitance of a current
/// mirror or a current source.
fn output_stage_metric(
    tech: &Technology,
    def: &PrimitiveDef,
    kind: MetricKind,
    view: LayoutView<'_>,
    bias: &Bias,
    externals: &HashMap<String, ExternalWire>,
) -> Result<f64, EvalError> {
    let mirror = matches!(def.class, PrimitiveClass::CurrentMirror { .. });
    let scaffold = |ac_out| output_stage_scaffold(tech, def, view, bias, externals, mirror, ac_out);
    match kind {
        MetricKind::OutputCurrent => {
            let s = scaffold(false)?;
            let op = DcSolver::new().solve(&s.circuit)?;
            Ok(op.branch_current("VOUT").expect("VOUT").abs())
        }
        MetricKind::OutputResistance => output_resistance(&scaffold(true)?.circuit, "VOUT"),
        MetricKind::Cout => {
            let s = scaffold(true)?;
            Ok(capacitance(admittance(&s.circuit, "VOUT", F_CAP)?, F_CAP))
        }
        other => Err(EvalError::Unsupported {
            reason: format!(
                "metric {other:?} on {}",
                if mirror {
                    "a current mirror"
                } else {
                    "a current source"
                }
            ),
        }),
    }
}

fn amp_metric(
    tech: &Technology,
    def: &PrimitiveDef,
    kind: MetricKind,
    view: LayoutView<'_>,
    bias: &Bias,
    externals: &HashMap<String, ExternalWire>,
) -> Result<f64, EvalError> {
    let build = |ac_in: f64, ac_out: f64| -> Result<Scaffold, EvalError> {
        let mut s = build_scaffold(tech, def, view, externals)?;
        let vdd = bias.vdd;
        drive_supply(&mut s, vdd);
        let pol = polarity(def);
        let vin = bias.v(
            "vin",
            match pol {
                FetPolarity::Nmos => 0.5 * vdd,
                FetPolarity::Pmos => 0.5 * vdd,
            },
        );
        let vout = bias.v("vout", 0.55 * vdd);
        let in_n = s.at("in");
        s.circuit
            .vsource_ac("VIN", in_n, Circuit::GROUND, vin, ac_in);
        let out_n = s.at("out");
        s.circuit
            .vsource_ac("VOUT", out_n, Circuit::GROUND, vout, ac_out);
        add_load(&mut s, bias, "out");
        tie_rails(&mut s, def, vdd);
        Ok(s)
    };
    match kind {
        MetricKind::Gm => {
            let s = build(1.0, 0.0)?;
            let res = AcSolver::new().solve(&s.circuit, &FrequencySweep::List(vec![F_GM]))?;
            Ok(res.branch_phasor("VOUT", 0).expect("VOUT").norm())
        }
        MetricKind::OutputResistance => output_resistance(&build(0.0, 1.0)?.circuit, "VOUT"),
        MetricKind::Cout => {
            let s = build(0.0, 1.0)?;
            Ok(capacitance(admittance(&s.circuit, "VOUT", F_CAP)?, F_CAP))
        }
        other => Err(EvalError::Unsupported {
            reason: format!("metric {other:?} on an amplifier stage"),
        }),
    }
}

fn load_metric(
    tech: &Technology,
    def: &PrimitiveDef,
    kind: MetricKind,
    view: LayoutView<'_>,
    bias: &Bias,
    externals: &HashMap<String, ExternalWire>,
) -> Result<f64, EvalError> {
    let build = |ac: f64| -> Result<Scaffold, EvalError> {
        let mut s = build_scaffold(tech, def, view, externals)?;
        let vdd = bias.vdd;
        drive_supply(&mut s, vdd);
        let pol = polarity(def);
        let iref = bias.i("ref", 100e-6);
        let out_n = s.at("out");
        match pol {
            FetPolarity::Nmos => {
                s.circuit
                    .isource_wave("IBIAS", Circuit::GROUND, out_n, Waveform::Dc(iref), ac)
            }
            FetPolarity::Pmos => {
                s.circuit
                    .isource_wave("IBIAS", out_n, Circuit::GROUND, Waveform::Dc(iref), ac)
            }
        }
        tie_rails(&mut s, def, vdd);
        Ok(s)
    };
    let impedance = |f: f64| -> Result<Complex, EvalError> {
        let s = build(1.0)?;
        let res = AcSolver::new().solve(&s.circuit, &FrequencySweep::List(vec![f]))?;
        let out_n = s.at("out");
        Ok(res.phasor(out_n, 0))
    };
    match kind {
        MetricKind::OutputResistance => {
            let z = impedance(F_GM)?;
            Ok(z.re.abs())
        }
        MetricKind::Cout => {
            let z = impedance(F_CAP)?;
            Ok(capacitance(z.recip(), F_CAP).abs())
        }
        other => Err(EvalError::Unsupported {
            reason: format!("metric {other:?} on a load"),
        }),
    }
}

fn switch_metric(
    tech: &Technology,
    def: &PrimitiveDef,
    kind: MetricKind,
    view: LayoutView<'_>,
    bias: &Bias,
    externals: &HashMap<String, ExternalWire>,
) -> Result<f64, EvalError> {
    let build = |ac_b: f64| -> Result<Scaffold, EvalError> {
        let mut s = build_scaffold(tech, def, view, externals)?;
        let vdd = bias.vdd;
        drive_supply(&mut s, vdd);
        let pol = polarity(def);
        let von = bias.v(
            "von",
            match pol {
                FetPolarity::Nmos => vdd,
                FetPolarity::Pmos => 0.0,
            },
        );
        let vsig = bias.v("vsig", 0.4 * vdd);
        let en = s.at("en");
        s.circuit.vsource("VEN", en, Circuit::GROUND, von);
        let a = s.at("a");
        s.circuit.vsource("VA", a, Circuit::GROUND, vsig);
        let b = s.at("b");
        // Pull a small test current out of b; Ron = Δv / i.
        s.circuit.isource("ITEST", b, Circuit::GROUND, 10e-6);
        if ac_b > 0.0 {
            s.circuit
                .isource_wave("IAC", Circuit::GROUND, b, Waveform::Dc(0.0), ac_b);
        }
        Ok(s)
    };
    match kind {
        MetricKind::OnResistance => {
            let s = build(0.0)?;
            let op = DcSolver::new().solve(&s.circuit)?;
            let vsig = bias.v("vsig", 0.4 * bias.vdd);
            let vb = op.voltage(s.at("b"));
            Ok((vsig - vb).abs() / 10e-6)
        }
        MetricKind::Cout => {
            let s = build(1.0)?;
            let res = AcSolver::new().solve(&s.circuit, &FrequencySweep::List(vec![F_CAP]))?;
            let z = res.phasor(s.at("b"), 0);
            Ok(capacitance(z.recip(), F_CAP).abs())
        }
        other => Err(EvalError::Unsupported {
            reason: format!("metric {other:?} on a switch"),
        }),
    }
}

fn ccpair_metric(
    tech: &Technology,
    def: &PrimitiveDef,
    kind: MetricKind,
    view: LayoutView<'_>,
    bias: &Bias,
    externals: &HashMap<String, ExternalWire>,
    measured: &mut HashMap<MetricKind, f64>,
) -> Result<f64, EvalError> {
    let build = |ac_p: f64, ac_n: f64| -> Result<Scaffold, EvalError> {
        let mut s = build_scaffold(tech, def, view, externals)?;
        let vdd = bias.vdd;
        drive_supply(&mut s, vdd);
        let vd = bias.v("vd", 0.6 * vdd);
        let outp = s.at("outp");
        s.circuit.vsource_ac("VOP", outp, Circuit::GROUND, vd, ac_p);
        let outn = s.at("outn");
        s.circuit.vsource_ac("VON", outn, Circuit::GROUND, vd, ac_n);
        add_load(&mut s, bias, "outp");
        add_load(&mut s, bias, "outn");
        if def.ports.iter().any(|p| p == "s") {
            let tail = bias.i("tail", 200e-6);
            let sn = s.at("s");
            s.circuit.isource("ITAIL", sn, Circuit::GROUND, tail);
        }
        // Split-source latches ground their NMOS sources directly.
        for port in ["sa", "sb"] {
            if def.ports.iter().any(|p| p == port) {
                ground_port(&mut s, port);
            }
        }
        // Starved latches take their control rails as inputs.
        if def.ports.iter().any(|p| p == "vbn") {
            let v = bias.v("vbn", 0.55 * vdd);
            let n = s.at("vbn");
            s.circuit.vsource("VBN", n, Circuit::GROUND, v);
        }
        if def.ports.iter().any(|p| p == "vbp") {
            let v = bias.v("vbp", 0.45 * vdd);
            let n = s.at("vbp");
            s.circuit.vsource("VBP", n, Circuit::GROUND, v);
        }
        tie_rails(&mut s, def, vdd);
        Ok(s)
    };
    match kind {
        MetricKind::Gm => {
            // Differential drive; the cross-coupled pair responds with a
            // negative differential conductance whose magnitude is gm.
            let s = build(0.5, -0.5)?;
            let res = AcSolver::new().solve(&s.circuit, &FrequencySweep::List(vec![F_GM]))?;
            let ip = res.branch_phasor("VOP", 0).expect("VOP");
            let in_ = res.branch_phasor("VON", 0).expect("VON");
            Ok((ip - in_).norm())
        }
        MetricKind::Cout => {
            let s = build(1.0, 0.0)?;
            Ok(capacitance(admittance(&s.circuit, "VOP", F_CAP)?, F_CAP).abs())
        }
        MetricKind::GmOverCtotal => {
            // Regeneration figure of merit: gm over output capacitance.
            let gm = metric_value(tech, def, MetricKind::Gm, view, bias, externals, measured)?;
            let c = metric_value(tech, def, MetricKind::Cout, view, bias, externals, measured)?;
            if c <= 0.0 {
                return Err(EvalError::MeasurementFailed {
                    what: format!("non-positive latch output capacitance {c}"),
                });
            }
            Ok(gm / c)
        }
        other => Err(EvalError::Unsupported {
            reason: format!("metric {other:?} on a cross-coupled pair"),
        }),
    }
}

// ---------------------------------------------------------------------------
// Current-starved inverter
// ---------------------------------------------------------------------------

fn csi_scaffold(
    tech: &Technology,
    def: &PrimitiveDef,
    view: LayoutView<'_>,
    bias: &Bias,
    externals: &HashMap<String, ExternalWire>,
    in_wave: Waveform,
) -> Result<Scaffold, EvalError> {
    let mut s = build_scaffold(tech, def, view, externals)?;
    let vdd = bias.vdd;
    drive_supply(&mut s, vdd);
    let vbn = bias.v("vbn", 0.55 * vdd);
    let vbp = bias.v("vbp", 0.45 * vdd);
    let n = s.at("vbn");
    s.circuit.vsource("VBN", n, Circuit::GROUND, vbn);
    let n = s.at("vbp");
    s.circuit.vsource("VBP", n, Circuit::GROUND, vbp);
    let n = s.at("vdd");
    s.circuit.vsource("VSUP", n, Circuit::GROUND, vdd);
    ground_port(&mut s, "vss");
    let in_n = s.at("in");
    s.circuit
        .vsource_wave("VIN", in_n, Circuit::GROUND, in_wave, 0.0);
    add_load(&mut s, bias, "out");
    Ok(s)
}

/// Timestep of the current-starved inverter's transient (s): 1,000 steps
/// over its 1.5 ns horizon.
const CSI_STEP: f64 = 1.5e-12;

/// One measurement read from a shared simulation: its value, or why it
/// could not be read.
type Measured = Result<f64, EvalError>;

/// The current-starved inverter's pulse transient at timestep `dt`: its
/// average propagation delay and its average supply current.
fn csi_transient(
    tech: &Technology,
    def: &PrimitiveDef,
    view: LayoutView<'_>,
    bias: &Bias,
    externals: &HashMap<String, ExternalWire>,
    dt: f64,
) -> Result<(Measured, Measured), EvalError> {
    let vdd = bias.vdd;
    let pulse = Waveform::Pulse {
        v1: 0.0,
        v2: vdd,
        delay: 0.15e-9,
        rise: 20e-12,
        fall: 20e-12,
        width: 0.6e-9,
        period: f64::INFINITY,
    };
    let s = csi_scaffold(tech, def, view, bias, externals, pulse)?;
    let res = TranSolver::new(dt, 1.5e-9).solve(&s.circuit)?;
    let t = res.times();
    let delay = || -> Result<f64, EvalError> {
        let vin = res.voltage(s.port["in"]);
        let vout = res.voltage(s.port["out"]);
        let half = vdd / 2.0;
        let d_hl = measure::delay(t, &vin, half, Edge::Rising, 1, &vout, half, Edge::Falling)
            .map_err(|e| EvalError::MeasurementFailed {
                what: format!("no output fall: {e}"),
            })?;
        let d_lh = measure::delay(t, &vin, half, Edge::Falling, 1, &vout, half, Edge::Rising)
            .map_err(|e| EvalError::MeasurementFailed {
                what: format!("no output rise: {e}"),
            })?;
        Ok(0.5 * (d_hl + d_lh))
    };
    let current = || -> Result<f64, EvalError> {
        let i = res
            .branch_current("VSUP")
            .ok_or(EvalError::MeasurementFailed {
                what: "no supply branch".to_string(),
            })?;
        let i_abs: Vec<f64> = i.iter().map(|x| x.abs()).collect();
        Ok(measure::average(t, &i_abs, 0.15e-9, 1.45e-9)?)
    };
    Ok((delay(), current()))
}

fn csi_metric(
    tech: &Technology,
    def: &PrimitiveDef,
    kind: MetricKind,
    view: LayoutView<'_>,
    bias: &Bias,
    externals: &HashMap<String, ExternalWire>,
    measured: &mut HashMap<MetricKind, f64>,
) -> Result<f64, EvalError> {
    let vdd = bias.vdd;
    match kind {
        MetricKind::Delay | MetricKind::OutputCurrent => {
            let (delay, current) = csi_transient(tech, def, view, bias, externals, CSI_STEP)?;
            // One transient gives both: keep the one not asked for.
            let (v, other_kind, other) = if kind == MetricKind::Delay {
                (delay, MetricKind::OutputCurrent, current)
            } else {
                (current, MetricKind::Delay, delay)
            };
            if let Ok(o) = other {
                measured.insert(other_kind, o);
            }
            v
        }
        MetricKind::Gain => {
            // Find the trip point, then measure the DC slope around it,
            // moving the input source in place.
            let s = csi_scaffold(tech, def, view, bias, externals, Waveform::Dc(0.0))?;
            let out = s.port["out"];
            let mut probe = DcProbe::new(s);
            let mut out_at = |vin: f64| -> Result<f64, EvalError> {
                set_dc(&mut probe.s.circuit, "VIN", vin);
                Ok(probe.solve()?.voltage(out))
            };
            // The output falls as the input rises.
            let trip = find_crossing((0.0, None), (vdd, None), SEARCH_VTOL, 30, |vin| {
                out_at(vin).map(|out| vdd / 2.0 - out)
            })?;
            let dv = 2e-3;
            let g = (out_at(trip + dv)? - out_at(trip - dv)?).abs() / (2.0 * dv);
            Ok(g)
        }
        other => Err(EvalError::Unsupported {
            reason: format!("metric {other:?} on a current-starved inverter"),
        }),
    }
}

// ---------------------------------------------------------------------------
// Passives
// ---------------------------------------------------------------------------

/// Intrinsic series resistance assumed for the schematic reference of a MOM
/// capacitor (plate resistance).
const CAP_INTRINSIC_R: f64 = 5.0;

fn passive_cap_metric(
    kind: MetricKind,
    view: LayoutView<'_>,
    externals: &HashMap<String, ExternalWire>,
    design_f: f64,
) -> Result<f64, EvalError> {
    if matches!(view, LayoutView::Layout(_)) {
        return Err(EvalError::Unsupported {
            reason: "passive capacitors are not FET tilings; evaluate schematic + externals"
                .to_string(),
        });
    }
    let mut c = Circuit::new();
    let a = c.node("a");
    let plate = c.node("plate");
    let b = c.node("b");
    let ra = externals.get("a").map(|w| w.r_ohm).unwrap_or(0.0) + CAP_INTRINSIC_R;
    let rb = externals.get("b").map(|w| w.r_ohm).unwrap_or(0.0);
    let cext: f64 = externals.values().map(|w| w.c_f).sum();
    c.vsource_ac("VDRV", a, Circuit::GROUND, 0.0, 1.0);
    c.resistor("RA", a, plate, ra.max(1e-3))
        .map_err(EvalError::Spice)?;
    c.capacitor("CMAIN", plate, b, design_f)
        .map_err(EvalError::Spice)?;
    if cext > 0.0 {
        c.capacitor("CEXT", plate, Circuit::GROUND, cext)
            .map_err(EvalError::Spice)?;
    }
    c.resistor("RB", b, Circuit::GROUND, rb.max(1e-3))
        .map_err(EvalError::Spice)?;
    match kind {
        MetricKind::Capacitance => Ok(capacitance(admittance(&c, "VDRV", F_GM)?, F_GM)),
        MetricKind::Bandwidth => {
            let ceff = capacitance(admittance(&c, "VDRV", F_GM)?, F_GM);
            let rtot = ra + rb.max(1e-3);
            Ok(1.0 / (2.0 * std::f64::consts::PI * rtot * ceff.max(1e-21)))
        }
        other => Err(EvalError::Unsupported {
            reason: format!("metric {other:?} on a capacitor"),
        }),
    }
}

fn passive_res_metric(
    kind: MetricKind,
    view: LayoutView<'_>,
    externals: &HashMap<String, ExternalWire>,
    design_ohm: f64,
) -> Result<f64, EvalError> {
    if matches!(view, LayoutView::Layout(_)) {
        return Err(EvalError::Unsupported {
            reason: "passive resistors are not FET tilings; evaluate schematic + externals"
                .to_string(),
        });
    }
    // `VDRV` reaches port `a` through `a`'s wire, and each wire's
    // capacitance sits at its own port.
    let wire = |port: &str| externals.get(port).copied().unwrap_or_default();
    let (wa, wb) = (wire("a"), wire("b"));
    let mut c = Circuit::new();
    let drv = c.node("drv");
    let a = c.node("a");
    let b = c.node("b");
    c.vsource_ac("VDRV", drv, Circuit::GROUND, 1.0, 1.0);
    c.resistor("RA", drv, a, wa.r_ohm.max(1e-3))
        .map_err(EvalError::Spice)?;
    c.resistor("RMAIN", a, b, design_ohm.max(1e-3))
        .map_err(EvalError::Spice)?;
    for (name, n, w) in [("CA", a, wa), ("CB", b, wb)] {
        if w.c_f > 0.0 {
            c.capacitor(name, n, Circuit::GROUND, w.c_f)
                .map_err(EvalError::Spice)?;
        }
    }
    match kind {
        MetricKind::Resistance => {
            // Port `b` reaches ground through its wire.
            c.resistor("RB", b, Circuit::GROUND, wb.r_ohm.max(1e-3))
                .map_err(EvalError::Spice)?;
            let op = DcSolver::new().solve(&c)?;
            let i = op.branch_current("VDRV").expect("VDRV").abs();
            if i <= 0.0 {
                return Err(EvalError::MeasurementFailed {
                    what: "no current through resistor".to_string(),
                });
            }
            Ok(1.0 / i)
        }
        MetricKind::Cout => {
            // Port `b`'s far end stays open, so `VDRV` sees both ports'
            // wire capacitance, `b`'s through the resistor. Remove the
            // resistive part: C = Im(Y)/ω.
            Ok(capacitance(admittance(&c, "VDRV", F_CAP)?, F_CAP).abs())
        }
        other => Err(EvalError::Unsupported {
            reason: format!("metric {other:?} on a resistor"),
        }),
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;
    use prima_layout::{generate, CellConfig, PlacementPattern};

    /// Probes of `find_crossing` on `f`, with its result.
    fn probes(
        lo: (f64, Option<f64>),
        hi: (f64, Option<f64>),
        tol: f64,
        max_evals: usize,
        f: impl Fn(f64) -> f64,
    ) -> (f64, Vec<f64>) {
        let mut xs = Vec::new();
        let x = find_crossing::<()>(lo, hi, tol, max_evals, |x| {
            xs.push(x);
            Ok(f(x))
        })
        .unwrap();
        (x, xs)
    }

    #[test]
    fn crossing_search_beats_bisection_on_a_tanh() {
        // A pair's differential current against its input: flat tails, a
        // steep middle, crossing off-center.
        let root = 1.234_567e-3;
        let f = |x: f64| ((x - root) / 5e-3).tanh();
        let (x, xs) = probes((-0.06, None), (0.06, None), 1e-9, 40, f);
        assert!((x - root).abs() <= 1e-9, "{x} vs {root}");
        assert_eq!(xs[0], 0.0, "the first probe is the midpoint");
        // Bisection needs ⌈log2(0.12 / 1e-9)⌉ = 27 probes for this width.
        assert!(xs.len() < 14, "{} probes", xs.len());
    }

    #[test]
    fn non_finite_value_takes_a_bisection_step() {
        let mut calls = 0;
        let mut xs = Vec::new();
        let x = find_crossing::<()>((0.0, Some(-1.0)), (1.0, Some(3.0)), 1e-12, 60, |x| {
            xs.push(x);
            calls += 1;
            // The first probe "does not converge".
            Ok(if calls == 1 {
                f64::INFINITY
            } else {
                x.powi(3) - 1e-3
            })
        })
        .unwrap();
        assert_eq!(xs[0], 0.25, "interpolated between finite ends");
        assert_eq!(xs[1], 0.125, "bisects the bracket the infinity closed");
        assert!((x - 0.1).abs() < 1e-9, "{x}");
    }

    #[test]
    fn crossing_search_respects_its_cap() {
        // A step never reads exactly zero, so only the cap stops a search
        // with no width tolerance.
        let f = |x: f64| if x < 1e-2 { -1.0 } else { 1.0 };
        for cap in [1, 7, 60] {
            let (_, xs) = probes((-0.06, None), (0.06, None), 0.0, cap, f);
            assert_eq!(xs.len(), cap);
        }
        // Without a sign change it converges to the end, as bisection does.
        let (x, xs) = probes((0.15, None), (0.8, None), 0.65 / 262_144.0, 18, |_| 1.0);
        assert_eq!(xs.len(), 18);
        let (lo, mut hi) = (0.15f64, 0.8f64);
        for _ in 0..18 {
            hi = 0.5 * (lo + hi);
        }
        assert_eq!(x, 0.5 * (lo + hi));
    }

    fn setup() -> (Technology, Library) {
        (Technology::finfet7(), Library::standard())
    }

    #[test]
    fn dp_schematic_gm_is_positive_and_sane() {
        let (tech, lib) = setup();
        let dp = lib.get("dp").unwrap();
        let bias = Bias::nominal(&tech, &dp.class);
        let gm = evaluate_metric(
            &tech,
            dp,
            dp.metric("Gm").unwrap(),
            LayoutView::Schematic { total_fins: 960 },
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        // 300 µA tail in a 46 µm pair: gm of a few mA/V (near weak inversion
        // gm ≈ I/(n·Vt) bounds it at ~8.6 mA/V).
        assert!(gm > 1e-3 && gm < 2e-2, "Gm = {gm}");
    }

    #[test]
    fn dp_layout_gm_degrades_vs_schematic() {
        let (tech, lib) = setup();
        let dp = lib.get("dp").unwrap();
        let bias = Bias::nominal(&tech, &dp.class);
        let sch = evaluate_metric(
            &tech,
            dp,
            dp.metric("Gm").unwrap(),
            LayoutView::Schematic { total_fins: 960 },
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        let layout = generate(
            &tech,
            &dp.spec,
            &CellConfig::new(8, 20, 6, PlacementPattern::Abba),
        )
        .unwrap();
        let lay = evaluate_metric(
            &tech,
            dp,
            dp.metric("Gm").unwrap(),
            LayoutView::Layout(&layout),
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        assert!(lay < sch, "layout Gm {lay} vs schematic {sch}");
        let degradation = (sch - lay) / sch;
        assert!(
            degradation < 0.25,
            "Gm degradation should be percent-level, got {degradation}"
        );
    }

    #[test]
    fn dp_offset_zero_for_schematic_and_common_centroid() {
        let (tech, lib) = setup();
        let dp = lib.get("dp").unwrap();
        let bias = Bias::nominal(&tech, &dp.class);
        let off_sch = evaluate_metric(
            &tech,
            dp,
            dp.metric("offset").unwrap(),
            LayoutView::Schematic { total_fins: 192 },
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        assert!(off_sch < 1e-5, "schematic offset {off_sch}");
        let abba = generate(
            &tech,
            &dp.spec,
            &CellConfig::new(8, 12, 2, PlacementPattern::Abba),
        )
        .unwrap();
        let off_abba = evaluate_metric(
            &tech,
            dp,
            dp.metric("offset").unwrap(),
            LayoutView::Layout(&abba),
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        let aabb = generate(
            &tech,
            &dp.spec,
            &CellConfig::new(8, 12, 2, PlacementPattern::Aabb),
        )
        .unwrap();
        let off_aabb = evaluate_metric(
            &tech,
            dp,
            dp.metric("offset").unwrap(),
            LayoutView::Layout(&aabb),
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        assert!(
            off_abba < off_aabb,
            "common centroid {off_abba} should beat blocked {off_aabb}"
        );
    }

    #[test]
    fn mirror_current_tracks_reference() {
        let (tech, lib) = setup();
        for name in ["cm", "cm_1to2", "cm_pmos"] {
            let cm = lib.get(name).unwrap();
            let bias = Bias::nominal(&tech, &cm.class);
            let iout = evaluate_metric(
                &tech,
                cm,
                cm.metric("Iout").unwrap(),
                LayoutView::Schematic { total_fins: 64 },
                &bias,
                &HashMap::new(),
            )
            .unwrap();
            let ratio = match &cm.class {
                PrimitiveClass::CurrentMirror { ratio } => *ratio as f64,
                _ => unreachable!(),
            };
            let ideal = 100e-6 * ratio;
            let err = (iout - ideal).abs() / ideal;
            assert!(err < 0.2, "{name}: Iout {iout} vs ideal {ideal}");
        }
    }

    #[test]
    fn csrc_metrics() {
        let (tech, lib) = setup();
        let cs = lib.get("csrc").unwrap();
        let bias = Bias::nominal(&tech, &cs.class);
        let view = LayoutView::Schematic { total_fins: 64 };
        let i = evaluate_metric(
            &tech,
            cs,
            cs.metric("I").unwrap(),
            view,
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        assert!(i > 1e-6, "current source delivers {i}");
        let ro = evaluate_metric(
            &tech,
            cs,
            cs.metric("ro").unwrap(),
            view,
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        assert!(ro > 1e3, "ro = {ro}");
    }

    #[test]
    fn amp_gm_and_ro() {
        let (tech, lib) = setup();
        let amp = lib.get("cs_amp").unwrap();
        let bias = Bias::nominal(&tech, &amp.class);
        let view = LayoutView::Schematic { total_fins: 96 };
        let gm = evaluate_metric(
            &tech,
            amp,
            amp.metric("Gm").unwrap(),
            view,
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        let ro = evaluate_metric(
            &tech,
            amp,
            amp.metric("ro").unwrap(),
            view,
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        assert!(gm > 1e-4, "gm = {gm}");
        assert!(ro > 1e3, "ro = {ro}");
        // Intrinsic gain should be sensible for a short-channel FinFET stage.
        let av = gm * ro;
        assert!(av > 3.0 && av < 1e3, "gain {av}");
    }

    #[test]
    fn load_diode_low_impedance() {
        let (tech, lib) = setup();
        let ld = lib.get("load_diode").unwrap();
        let bias = Bias::nominal(&tech, &ld.class);
        let view = LayoutView::Schematic { total_fins: 64 };
        let ro = evaluate_metric(
            &tech,
            ld,
            ld.metric("ro").unwrap(),
            view,
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        // Diode-connected: ro ≈ 1/gm — hundreds of ohms to a few kΩ here.
        assert!(ro > 10.0 && ro < 1e5, "diode ro {ro}");
    }

    #[test]
    fn switch_ron_reasonable() {
        let (tech, lib) = setup();
        let sw = lib.get("switch").unwrap();
        let bias = Bias::nominal(&tech, &sw.class);
        let view = LayoutView::Schematic { total_fins: 32 };
        let ron = evaluate_metric(
            &tech,
            sw,
            sw.metric("Ron").unwrap(),
            view,
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        assert!(ron > 1.0 && ron < 1e4, "Ron {ron}");
    }

    #[test]
    fn csi_delay_and_current() {
        let (tech, lib) = setup();
        let csi = lib.get("csi").unwrap();
        let bias = Bias::nominal(&tech, &csi.class);
        let view = LayoutView::Schematic { total_fins: 16 };
        let d = evaluate_metric(
            &tech,
            csi,
            csi.metric("delay").unwrap(),
            view,
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        assert!(d > 1e-12 && d < 1e-9, "delay {d}");
        let i = evaluate_metric(
            &tech,
            csi,
            csi.metric("I").unwrap(),
            view,
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        assert!(i > 1e-7, "avg current {i}");
        let g = evaluate_metric(
            &tech,
            csi,
            csi.metric("gain").unwrap(),
            view,
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        assert!(g > 1.0, "inverter gain {g}");
    }

    /// The CSI's delay and supply current at its 1.5 ps step stay within
    /// 2.5% of the same testbench at a 16× finer step: on the schematic
    /// and on a spread of standard-space layouts, bare and with a wire on
    /// `out`, on all three decks.
    #[test]
    fn csi_transient_matches_a_16x_finer_step() {
        let lib = Library::standard();
        let csi = lib.get("csi").unwrap();
        let configs = [
            (2, 8, 1, PlacementPattern::Aabb, true),
            (4, 4, 1, PlacementPattern::Abab, true),
            (4, 2, 2, PlacementPattern::Abba, false),
        ];
        let out_wire = HashMap::from([(
            "out".to_string(),
            ExternalWire {
                r_ohm: 40.0,
                c_f: 3e-15,
            },
        )]);
        for tech in [
            Technology::finfet7(),
            Technology::bulk16(),
            Technology::sky130ish(),
        ] {
            let bias = Bias::nominal(&tech, &csi.class);
            let layouts: Vec<_> = configs
                .iter()
                .map(|&(nfin, nf, m, pattern, dummies)| {
                    let mut cfg = CellConfig::new(nfin, nf, m, pattern);
                    cfg.dummies = dummies;
                    generate(&tech, &csi.spec, &cfg).unwrap()
                })
                .collect();
            let mut views = vec![LayoutView::Schematic { total_fins: 16 }];
            views.extend(layouts.iter().map(LayoutView::Layout));
            for view in views {
                for externals in [HashMap::new(), out_wire.clone()] {
                    let run = |dt| {
                        let (d, i) =
                            csi_transient(&tech, csi, view, &bias, &externals, dt).unwrap();
                        (d.unwrap(), i.unwrap())
                    };
                    let (d, i) = run(CSI_STEP);
                    let (d_fine, i_fine) = run(CSI_STEP / 16.0);
                    for (what, coarse, fine) in [("delay", d, d_fine), ("current", i, i_fine)] {
                        let dev = (coarse - fine).abs() / fine;
                        assert!(
                            dev < 0.025,
                            "{}: {what} {coarse:e} vs {fine:e} at the finer step ({:.2}%)",
                            tech.name,
                            100.0 * dev
                        );
                    }
                }
            }
        }
    }

    /// The poly resistor against closed forms: `R` is the 2 kΩ design
    /// value plus each port's wire resistance, and `C` is the wire
    /// capacitance at whichever port carries it (within 5%: at `F_CAP`,
    /// ω·R·C ≈ 0.04 for 3 fF behind 2 kΩ). The bare resistor reads no `C`.
    #[test]
    fn passive_res_matches_closed_forms() {
        let (tech, lib) = setup();
        let res = lib.get("res_poly").unwrap();
        let bias = Bias::nominal(&tech, &res.class);
        let view = LayoutView::Schematic { total_fins: 0 };
        let wire = |r_ohm, c_f| ExternalWire { r_ohm, c_f };
        let cases = [
            ("bare", HashMap::new()),
            (
                "wire a",
                HashMap::from([("a".to_string(), wire(40.0, 3e-15))]),
            ),
            (
                "wire b",
                HashMap::from([("b".to_string(), wire(40.0, 3e-15))]),
            ),
            (
                "wires a, b",
                HashMap::from([
                    ("a".to_string(), wire(25.0, 0.0)),
                    ("b".to_string(), wire(60.0, 0.0)),
                ]),
            ),
        ];
        for (what, externals) in cases {
            let values = evaluate_all(&tech, res, view, &bias, &externals).unwrap();
            let port = |p: &str| externals.get(p).copied().unwrap_or_default();
            let r_want = 2e3 + port("a").r_ohm + port("b").r_ohm;
            let c_want = port("a").c_f + port("b").c_f;
            let (r, c) = (values["R"], values["C"]);
            assert!(
                (r - r_want).abs() / r_want < 1e-5,
                "{what}: R {r} vs {r_want}"
            );
            if c_want == 0.0 {
                assert_eq!(c, 0.0, "{what}: C");
            } else {
                assert!(
                    (c - c_want).abs() / c_want < 0.05,
                    "{what}: C {c:e} vs {c_want:e}"
                );
            }
        }
    }

    /// The three admittance helpers on an all-linear circuit, a unit-AC
    /// drive into R ∥ C to ground. The AC solver also stamps its 1e-12 S
    /// node conductance, so Y = 1/R + gmin + j·2πf·C at every frequency:
    /// the output resistance is R ∥ 1/gmin (1.5e-9 below R here) and the
    /// capacitance is C.
    #[test]
    fn admittance_helpers_read_a_parallel_rc() {
        let (r_ohm, c_f, gmin) = (1.5e3, 4e-15, 1e-12);
        let mut circuit = Circuit::new();
        let n = circuit.node("n");
        circuit.vsource_ac("VT", n, Circuit::GROUND, 0.0, 1.0);
        circuit.resistor("R", n, Circuit::GROUND, r_ohm).unwrap();
        circuit.capacitor("C", n, Circuit::GROUND, c_f).unwrap();
        let r = output_resistance(&circuit, "VT").unwrap();
        let r_want = 1.0 / (1.0 / r_ohm + gmin);
        let c = capacitance(admittance(&circuit, "VT", F_CAP).unwrap(), F_CAP);
        assert!((r - r_want).abs() / r_want < 1e-9, "R {r} vs {r_want}");
        assert!((c - c_f).abs() / c_f < 1e-9, "C {c:e} vs {c_f:e}");
    }

    #[test]
    fn passive_cap_measures_design_value() {
        let (_, lib) = setup();
        let cap = lib.get("cap_mom").unwrap();
        let tech = Technology::finfet7();
        let bias = Bias::nominal(&tech, &cap.class);
        let c = evaluate_metric(
            &tech,
            cap,
            cap.metric("C").unwrap(),
            LayoutView::Schematic { total_fins: 0 },
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        assert!((c - 100e-15).abs() / 100e-15 < 0.02, "C = {c}");
        // Heavier port wiring lowers the usable bandwidth.
        let mut ext = HashMap::new();
        ext.insert(
            "a".to_string(),
            ExternalWire {
                r_ohm: 200.0,
                c_f: 5e-15,
            },
        );
        let f0 = evaluate_metric(
            &tech,
            cap,
            cap.metric("f").unwrap(),
            LayoutView::Schematic { total_fins: 0 },
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        let f1 = evaluate_metric(
            &tech,
            cap,
            cap.metric("f").unwrap(),
            LayoutView::Schematic { total_fins: 0 },
            &bias,
            &ext,
        )
        .unwrap();
        assert!(f1 < f0, "wiring lowers bandwidth: {f1} vs {f0}");
    }

    #[test]
    fn passive_res_measures_design_value() {
        let (tech, lib) = setup();
        let res = lib.get("res_poly").unwrap();
        let bias = Bias::nominal(&tech, &res.class);
        let r = evaluate_metric(
            &tech,
            res,
            res.metric("R").unwrap(),
            LayoutView::Schematic { total_fins: 0 },
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        assert!((r - 2e3).abs() / 2e3 < 0.01, "R = {r}");
    }

    #[test]
    fn evaluate_all_returns_every_metric() {
        let (tech, lib) = setup();
        let dp = lib.get("dp").unwrap();
        let bias = Bias::nominal(&tech, &dp.class);
        let vals = evaluate_all(
            &tech,
            dp,
            LayoutView::Schematic { total_fins: 192 },
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        assert_eq!(vals.len(), 3);
        assert!(vals.contains_key("Gm"));
        assert!(vals.contains_key("Gm/Ctotal"));
        assert!(vals.contains_key("offset"));
    }

    #[test]
    fn wrong_metric_kind_is_unsupported() {
        let (tech, lib) = setup();
        let dp = lib.get("dp").unwrap();
        let bias = Bias::nominal(&tech, &dp.class);
        let bogus = Metric::new("delay", MetricKind::Delay, 1.0);
        assert!(matches!(
            evaluate_metric(
                &tech,
                dp,
                &bogus,
                LayoutView::Schematic { total_fins: 64 },
                &bias,
                &HashMap::new()
            ),
            Err(EvalError::Unsupported { .. })
        ));
    }

    #[test]
    fn external_wire_degrades_dp_gm_over_ct() {
        let (tech, lib) = setup();
        let dp = lib.get("dp").unwrap();
        let bias = Bias::nominal(&tech, &dp.class);
        let view = LayoutView::Schematic { total_fins: 960 };
        let base = evaluate_metric(
            &tech,
            dp,
            dp.metric("Gm/Ctotal").unwrap(),
            view,
            &bias,
            &HashMap::new(),
        )
        .unwrap();
        let mut ext = HashMap::new();
        for net in ["da", "db"] {
            ext.insert(
                net.to_string(),
                ExternalWire {
                    r_ohm: 120.0,
                    c_f: 4e-15,
                },
            );
        }
        let wired = evaluate_metric(
            &tech,
            dp,
            dp.metric("Gm/Ctotal").unwrap(),
            view,
            &bias,
            &ext,
        )
        .unwrap();
        assert!(
            wired < base,
            "extra drain wiring lowers Gm/Ct: {wired} vs {base}"
        );
    }
}

#[cfg(test)]
mod library_sweep {
    use super::*;
    use crate::library::Library;

    /// Every library entry must evaluate every one of its metrics on a
    /// schematic view — no dangling metric kinds, no non-converging
    /// testbenches anywhere in the catalog.
    #[test]
    fn every_primitive_evaluates_all_metrics() {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        for def in lib.iter() {
            let bias = Bias::nominal(&tech, &def.class);
            let fins = if def.spec.devices.is_empty() { 0 } else { 32 };
            let vals = evaluate_all(
                &tech,
                def,
                LayoutView::Schematic { total_fins: fins },
                &bias,
                &HashMap::new(),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", def.name));
            for m in &def.metrics {
                let v = vals[&m.name];
                assert!(v.is_finite(), "{}::{} = {v}", def.name, m.name);
            }
        }
    }

    /// And with a generated layout (the non-passive entries).
    #[test]
    fn every_fet_primitive_evaluates_from_layout() {
        use prima_layout::{generate, CellConfig, PlacementPattern};
        let tech = Technology::finfet7();
        let lib = Library::standard();
        for def in lib.iter() {
            if def.spec.devices.is_empty() {
                continue;
            }
            let bias = Bias::nominal(&tech, &def.class);
            let cfg = CellConfig::new(4, 4, 2, PlacementPattern::Abab);
            let layout = generate(&tech, &def.spec, &cfg)
                .unwrap_or_else(|e| panic!("{}: generation {e}", def.name));
            let vals = evaluate_all(
                &tech,
                def,
                LayoutView::Layout(&layout),
                &bias,
                &HashMap::new(),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", def.name));
            for m in &def.metrics {
                assert!(
                    vals[&m.name].is_finite(),
                    "{}::{} not finite",
                    def.name,
                    m.name
                );
            }
        }
    }
}
