//! Transient analysis: trapezoidal integration with a Newton solve per step.
//!
//! Capacitors and inductors become companion conductance/source pairs; the
//! FET's bias-dependent Meyer capacitances are refreshed from the last
//! accepted timepoint. The first step (and any step that fails to converge
//! under trapezoidal) uses backward Euler, which is L-stable and damps the
//! artificial ringing trapezoidal can produce from inconsistent initial
//! conditions — exactly what the oscillator kick-start relies on.

use std::collections::HashMap;

use crate::netlist::{Circuit, Element, NodeId};
use crate::num::Matrix;

use super::dc::{stamp_branch_kcl, stamp_conductance, stamp_transconductance, DcSolver};
use super::{AnalysisError, Topology};

/// How the transient run is initialized.
#[derive(Debug, Clone, Default)]
pub enum InitialState {
    /// Start from the DC operating point (default).
    #[default]
    OperatingPoint,
    /// Start from the DC operating point, then force the listed node
    /// voltages. The resulting inconsistency acts as a kick — the standard
    /// way to start a ring oscillator whose DC point is metastable.
    Kick(HashMap<NodeId, f64>),
    /// Start from all-zero node voltages ("UIC"), honoring capacitor `ic`
    /// values where present.
    Uic,
}

/// Result of a transient run: the full solution trajectory.
#[derive(Debug, Clone)]
pub struct TranResult {
    topo: Topology,
    times: Vec<f64>,
    data: Vec<Vec<f64>>,
}

impl TranResult {
    /// The simulated timepoints (seconds), including `t = 0`.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of stored timepoints.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the run produced no timepoints (never happens for a
    /// successful solve; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage waveform of `node` across all timepoints.
    pub fn voltage(&self, node: NodeId) -> Vec<f64> {
        self.data
            .iter()
            .map(|x| self.topo.voltage_in(x, node))
            .collect()
    }

    /// Branch-current waveform of a voltage-defined element.
    pub fn branch_current(&self, name: &str) -> Option<Vec<f64>> {
        let ix = self.topo.branch_ix_by_name(name)?;
        Some(self.data.iter().map(|x| x[ix]).collect())
    }
}

/// Per-step Newton convergence tolerance on node voltages (V).
const VTOL: f64 = 1e-7;

/// Fixed-step transient solver. Like [`DcSolver`], construction snapshots
/// the ambient [`SolveCtrl`](crate::ctrl::SolveCtrl) scope for its Newton
/// cap and cancel token.
#[derive(Debug, Clone)]
pub struct TranSolver {
    dt: f64,
    t_stop: f64,
    initial: InitialState,
    max_newton: usize,
    cancel: Option<prima_cache::CancelToken>,
}

impl TranSolver {
    /// Creates a solver with timestep `dt` running to `t_stop` (seconds).
    pub fn new(dt: f64, t_stop: f64) -> Self {
        let ctrl = crate::ctrl::current_solve_ctrl();
        TranSolver {
            dt,
            t_stop,
            initial: InitialState::OperatingPoint,
            max_newton: ctrl.limits.tran_max_newton,
            cancel: ctrl.cancel,
        }
    }

    /// Sets the initialization strategy.
    pub fn initial(mut self, initial: InitialState) -> Self {
        self.initial = initial;
        self
    }

    /// Runs the transient analysis.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::BadParameters`] for a non-positive timestep
    /// or horizon, and propagates DC/Newton failures.
    pub fn solve(&self, circuit: &Circuit) -> Result<TranResult, AnalysisError> {
        if !(self.dt > 0.0 && self.dt.is_finite()) {
            return Err(AnalysisError::BadParameters {
                reason: format!("timestep must be positive, got {}", self.dt),
            });
        }
        if !(self.t_stop > 0.0 && self.t_stop.is_finite()) {
            return Err(AnalysisError::BadParameters {
                reason: format!("stop time must be positive, got {}", self.t_stop),
            });
        }
        let topo = Topology::build(circuit);
        let dim = topo.dim();

        // Initial solution.
        let mut x = match &self.initial {
            InitialState::OperatingPoint => DcSolver::new().solve_vector(circuit, &topo)?,
            InitialState::Kick(overrides) => {
                let mut x = DcSolver::new().solve_vector(circuit, &topo)?;
                for (&node, &v) in overrides {
                    if let Some(i) = topo.vix(node) {
                        x[i] = v;
                    }
                }
                x
            }
            InitialState::Uic => {
                let mut x = vec![0.0; dim];
                for el in circuit.elements() {
                    if let Element::Capacitor {
                        a, b, ic: Some(v), ..
                    } = el
                    {
                        // Apply v(a)−v(b)=ic naively: set a to ic if b grounded.
                        if b.is_ground() {
                            if let Some(i) = topo.vix(*a) {
                                x[i] = *v;
                            }
                        } else if a.is_ground() {
                            if let Some(i) = topo.vix(*b) {
                                x[i] = -*v;
                            }
                        }
                    }
                }
                x
            }
        };

        // Reactive-element states.
        let mut states = ReactiveState::init(circuit, &topo, &x);

        let n_steps = (self.t_stop / self.dt).ceil() as usize;
        let mut times = Vec::with_capacity(n_steps + 1);
        let mut data = Vec::with_capacity(n_steps + 1);
        times.push(0.0);
        data.push(x.clone());

        let mut mat = Matrix::<f64>::zero(dim);
        let mut rhs = vec![0.0; dim];

        for step in 1..=n_steps {
            let t = step as f64 * self.dt;
            // First step is BE; later steps are trapezoidal with BE fallback.
            let methods: &[Method] = if step == 1 {
                &[Method::BackwardEuler]
            } else {
                &[Method::Trapezoidal, Method::BackwardEuler]
            };
            let mut solved = None;
            for &method in methods {
                match self.newton_step(
                    circuit, &topo, &x, &states, t, self.dt, method, &mut mat, &mut rhs,
                ) {
                    Ok(next) => {
                        solved = Some((next, method));
                        break;
                    }
                    // Cancellation aborts the run; no method fallback.
                    Err(e @ AnalysisError::Cancelled(_)) => return Err(e),
                    Err(_) => continue,
                }
            }
            match solved {
                Some((next, method)) => {
                    states.advance(circuit, &topo, &next, self.dt, method);
                    x = next;
                }
                None => {
                    // Stiff step: sub-divide into backward-Euler substeps.
                    const SUBDIV: usize = 8;
                    let sub_dt = self.dt / SUBDIV as f64;
                    for k in 1..=SUBDIV {
                        let ts = t - self.dt + k as f64 * sub_dt;
                        let next = self
                            .newton_step(
                                circuit,
                                &topo,
                                &x,
                                &states,
                                ts,
                                sub_dt,
                                Method::BackwardEuler,
                                &mut mat,
                                &mut rhs,
                            )
                            .map_err(|e| match e {
                                e @ AnalysisError::Cancelled(_) => e,
                                _ => AnalysisError::NoConvergence {
                                    phase: format!("tran substep at t={ts:e}"),
                                    iterations: self.max_newton,
                                },
                            })?;
                        states.advance(circuit, &topo, &next, sub_dt, Method::BackwardEuler);
                        x = next;
                    }
                }
            }
            times.push(t);
            data.push(x.clone());
        }
        Ok(TranResult { topo, times, data })
    }

    /// Newton iteration for one timestep.
    #[allow(clippy::too_many_arguments)]
    fn newton_step(
        &self,
        circuit: &Circuit,
        topo: &Topology,
        x_prev: &[f64],
        states: &ReactiveState,
        t: f64,
        dt: f64,
        method: Method,
        mat: &mut Matrix<f64>,
        rhs: &mut [f64],
    ) -> Result<Vec<f64>, AnalysisError> {
        let mut x = x_prev.to_vec();
        for _ in 0..self.max_newton {
            if let Some(token) = &self.cancel {
                token.check()?;
            }
            mat.clear();
            rhs.iter_mut().for_each(|v| *v = 0.0);
            assemble_tran(circuit, topo, &x, states, t, dt, method, mat, rhs);
            let x_new = mat.solve(rhs)?;
            let mut max_dv: f64 = 0.0;
            for i in 0..topo.node_unknowns() {
                max_dv = max_dv.max((x_new[i] - x[i]).abs());
            }
            for (i, xi) in x.iter_mut().enumerate() {
                if i < topo.node_unknowns() {
                    *xi += (x_new[i] - *xi).clamp(-0.3, 0.3);
                } else {
                    *xi = x_new[i];
                }
            }
            if max_dv < VTOL {
                return Ok(x);
            }
        }
        Err(AnalysisError::NoConvergence {
            phase: format!("tran newton at t={t:e} ({method:?})"),
            iterations: self.max_newton,
        })
    }
}

/// Integration method for a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Method {
    Trapezoidal,
    BackwardEuler,
}

/// Per-element reactive state carried between timesteps.
#[derive(Debug, Clone)]
struct ReactiveState {
    /// For each explicit capacitor (by element index): (v, i).
    caps: HashMap<usize, (f64, f64)>,
    /// For each inductor (by element index): (i, v).
    inductors: HashMap<usize, (f64, f64)>,
    /// For each FET (by element index): five cap states (v, i) in the order
    /// gs, gd, gb, db, sb, plus the cap values frozen for the current step.
    fet_caps: HashMap<usize, [CapState; 5]>,
}

#[derive(Debug, Clone, Copy, Default)]
struct CapState {
    c: f64,
    v: f64,
    i: f64,
}

impl ReactiveState {
    fn init(circuit: &Circuit, topo: &Topology, x: &[f64]) -> Self {
        let mut caps = HashMap::new();
        let mut inductors = HashMap::new();
        let mut fet_caps = HashMap::new();
        for (idx, el) in circuit.elements().iter().enumerate() {
            match el {
                Element::Capacitor { a, b, ic, .. } => {
                    let v = ic.unwrap_or(topo.voltage_in(x, *a) - topo.voltage_in(x, *b));
                    caps.insert(idx, (v, 0.0));
                }
                Element::Inductor { .. } => {
                    let i0 = topo.branch_ix(idx).map(|k| x[k]).unwrap_or(0.0);
                    inductors.insert(idx, (i0, 0.0));
                }
                Element::Fet(fet) => {
                    let vd = topo.voltage_in(x, fet.d);
                    let vg = topo.voltage_in(x, fet.g);
                    let vs = topo.voltage_in(x, fet.s);
                    let vb = topo.voltage_in(x, fet.b);
                    let c = fet.capacitances(vd, vg, vs, vb);
                    let pairs = fet_cap_pairs(fet);
                    let vals = [c.cgs, c.cgd, c.cgb, c.cdb, c.csb];
                    let mut arr = [CapState::default(); 5];
                    for (slot, ((a, b), cv)) in pairs.iter().zip(vals.iter()).enumerate() {
                        arr[slot] = CapState {
                            c: *cv,
                            v: topo.voltage_in(x, *a) - topo.voltage_in(x, *b),
                            i: 0.0,
                        };
                    }
                    fet_caps.insert(idx, arr);
                }
                _ => {}
            }
        }
        ReactiveState {
            caps,
            inductors,
            fet_caps,
        }
    }

    /// Updates states after a step is accepted at solution `x`.
    // State maps were seeded from this same circuit's elements and the
    // topology from the same netlist, so every lookup is an invariant,
    // not a recoverable condition.
    #[allow(clippy::expect_used)]
    fn advance(&mut self, circuit: &Circuit, topo: &Topology, x: &[f64], dt: f64, method: Method) {
        for (idx, el) in circuit.elements().iter().enumerate() {
            match el {
                Element::Capacitor { a, b, farads, .. } => {
                    let (v_old, i_old) = self.caps[&idx];
                    let v_new = topo.voltage_in(x, *a) - topo.voltage_in(x, *b);
                    let i_new = match method {
                        Method::Trapezoidal => 2.0 * farads / dt * (v_new - v_old) - i_old,
                        Method::BackwardEuler => farads / dt * (v_new - v_old),
                    };
                    self.caps.insert(idx, (v_new, i_new));
                }
                Element::Inductor { a, b, .. } => {
                    let k = topo.branch_ix(idx).expect("inductor branch");
                    let i_new = x[k];
                    let v_new = topo.voltage_in(x, *a) - topo.voltage_in(x, *b);
                    self.inductors.insert(idx, (i_new, v_new));
                }
                Element::Fet(fet) => {
                    let vd = topo.voltage_in(x, fet.d);
                    let vg = topo.voltage_in(x, fet.g);
                    let vs = topo.voltage_in(x, fet.s);
                    let vb = topo.voltage_in(x, fet.b);
                    let c = fet.capacitances(vd, vg, vs, vb);
                    let vals = [c.cgs, c.cgd, c.cgb, c.cdb, c.csb];
                    let pairs = fet_cap_pairs(fet);
                    let arr = self.fet_caps.get_mut(&idx).expect("fet state");
                    for slot in 0..5 {
                        let (a, b) = pairs[slot];
                        let v_new = topo.voltage_in(x, a) - topo.voltage_in(x, b);
                        let st = &mut arr[slot];
                        let i_new = match method {
                            Method::Trapezoidal => 2.0 * st.c / dt * (v_new - st.v) - st.i,
                            Method::BackwardEuler => st.c / dt * (v_new - st.v),
                        };
                        st.v = v_new;
                        st.i = i_new;
                        st.c = vals[slot]; // refresh cap for the next step
                    }
                }
                _ => {}
            }
        }
    }
}

fn fet_cap_pairs(fet: &crate::devices::FetInstance) -> [(NodeId, NodeId); 5] {
    [
        (fet.g, fet.s),
        (fet.g, fet.d),
        (fet.g, fet.b),
        (fet.d, fet.b),
        (fet.s, fet.b),
    ]
}

/// Stamps one capacitor companion model.
#[allow(clippy::too_many_arguments)]
fn stamp_cap_companion(
    mat: &mut Matrix<f64>,
    rhs: &mut [f64],
    topo: &Topology,
    a: NodeId,
    b: NodeId,
    c: f64,
    state_v: f64,
    state_i: f64,
    dt: f64,
    method: Method,
) {
    if c <= 0.0 {
        return;
    }
    let (geq, ieq) = match method {
        Method::Trapezoidal => {
            let g = 2.0 * c / dt;
            (g, -g * state_v - state_i)
        }
        Method::BackwardEuler => {
            let g = c / dt;
            (g, -g * state_v)
        }
    };
    stamp_conductance(mat, topo, a, b, geq);
    if let Some(ia) = topo.vix(a) {
        rhs[ia] -= ieq;
    }
    if let Some(ib) = topo.vix(b) {
        rhs[ib] += ieq;
    }
}

#[allow(clippy::too_many_arguments)]
// The topology is derived from the very circuit being stamped, so every
// branch element has a branch row and every reactive element a seeded
// state entry; `expect` documents that invariant rather than a
// recoverable condition.
#[allow(clippy::expect_used)]
fn assemble_tran(
    circuit: &Circuit,
    topo: &Topology,
    x: &[f64],
    states: &ReactiveState,
    t: f64,
    dt: f64,
    method: Method,
    mat: &mut Matrix<f64>,
    rhs: &mut [f64],
) {
    const GMIN: f64 = 1e-12;
    for i in 0..topo.node_unknowns() {
        mat.stamp(i, i, GMIN);
    }
    for (idx, el) in circuit.elements().iter().enumerate() {
        match el {
            Element::Resistor { a, b, ohms, .. } => {
                stamp_conductance(mat, topo, *a, *b, 1.0 / ohms);
            }
            Element::Capacitor { a, b, farads, .. } => {
                let (v, i) = states.caps[&idx];
                stamp_cap_companion(mat, rhs, topo, *a, *b, *farads, v, i, dt, method);
            }
            Element::Inductor { a, b, henries, .. } => {
                let k = topo.branch_ix(idx).expect("inductor branch");
                stamp_branch_kcl(mat, topo, *a, *b, k);
                if let Some(ia) = topo.vix(*a) {
                    mat.stamp(k, ia, 1.0);
                }
                if let Some(ib) = topo.vix(*b) {
                    mat.stamp(k, ib, -1.0);
                }
                let (i_old, v_old) = states.inductors[&idx];
                match method {
                    Method::Trapezoidal => {
                        let r = 2.0 * henries / dt;
                        mat.stamp(k, k, -r);
                        rhs[k] += -r * i_old - v_old;
                    }
                    Method::BackwardEuler => {
                        let r = henries / dt;
                        mat.stamp(k, k, -r);
                        rhs[k] += -r * i_old;
                    }
                }
            }
            Element::VSource { pos, neg, wave, .. } => {
                let k = topo.branch_ix(idx).expect("vsource branch");
                stamp_branch_kcl(mat, topo, *pos, *neg, k);
                if let Some(ip) = topo.vix(*pos) {
                    mat.stamp(k, ip, 1.0);
                }
                if let Some(in_) = topo.vix(*neg) {
                    mat.stamp(k, in_, -1.0);
                }
                rhs[k] += wave.value_at(t);
            }
            Element::ISource { pos, neg, wave, .. } => {
                let i = wave.value_at(t);
                if let Some(ip) = topo.vix(*pos) {
                    rhs[ip] -= i;
                }
                if let Some(in_) = topo.vix(*neg) {
                    rhs[in_] += i;
                }
            }
            Element::Vcvs {
                p, n, cp, cn, gain, ..
            } => {
                let k = topo.branch_ix(idx).expect("vcvs branch");
                stamp_branch_kcl(mat, topo, *p, *n, k);
                for (node, sign) in [(*p, 1.0), (*n, -1.0), (*cp, -gain), (*cn, *gain)] {
                    if let Some(i) = topo.vix(node) {
                        mat.stamp(k, i, sign);
                    }
                }
            }
            Element::Vccs {
                p, n, cp, cn, gm, ..
            } => {
                stamp_transconductance(mat, topo, *p, *n, *cp, *cn, *gm);
            }
            Element::Fet(fet) => {
                // Conduction: same Newton linearization as DC.
                let vd = topo.voltage_in(x, fet.d);
                let vg = topo.voltage_in(x, fet.g);
                let vs = topo.voltage_in(x, fet.s);
                let vb = topo.voltage_in(x, fet.b);
                let e = fet.eval(vd, vg, vs, vb);
                let ieq =
                    e.id_raw - (e.did_dvd * vd + e.did_dvg * vg + e.did_dvs * vs + e.did_dvb * vb);
                let partials = [
                    (fet.d, e.did_dvd),
                    (fet.g, e.did_dvg),
                    (fet.s, e.did_dvs),
                    (fet.b, e.did_dvb),
                ];
                if let Some(id_) = topo.vix(fet.d) {
                    for (node, dp) in partials {
                        if let Some(col) = topo.vix(node) {
                            mat.stamp(id_, col, dp);
                        }
                    }
                    rhs[id_] -= ieq;
                }
                if let Some(is_) = topo.vix(fet.s) {
                    for (node, dp) in partials {
                        if let Some(col) = topo.vix(node) {
                            mat.stamp(is_, col, -dp);
                        }
                    }
                    rhs[is_] += ieq;
                }
                // Charge storage: frozen caps as companions.
                let pairs = fet_cap_pairs(fet);
                let arr = &states.fet_caps[&idx];
                for slot in 0..5 {
                    let (a, b) = pairs[slot];
                    let st = arr[slot];
                    stamp_cap_companion(mat, rhs, topo, a, b, st.c, st.v, st.i, dt, method);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Waveform;

    #[test]
    fn rejects_bad_parameters() {
        let c = Circuit::new();
        assert!(TranSolver::new(0.0, 1e-9).solve(&c).is_err());
        assert!(TranSolver::new(1e-12, -1.0).solve(&c).is_err());
    }

    #[test]
    fn rc_charging_curve() {
        // Step 1 V into R=1k, C=1n: v(t) = 1 - exp(-t/RC), tau = 1 µs.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource_wave(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 1.0,
                period: f64::INFINITY,
            },
            0.0,
        );
        c.resistor("R1", vin, out, 1e3).unwrap();
        c.capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        let res = TranSolver::new(1e-8, 5e-6).solve(&c).unwrap();
        let v = res.voltage(out);
        let t = res.times();
        // Compare to the analytic curve at a few points.
        for &frac in &[0.2, 0.5, 0.9] {
            let target_t = 5e-6 * frac;
            let i = t.iter().position(|&x| x >= target_t).unwrap();
            let expect = 1.0 - (-t[i] / 1e-6).exp();
            assert!(
                (v[i] - expect).abs() < 5e-3,
                "at t={} got {} expect {}",
                t[i],
                v[i],
                expect
            );
        }
    }

    #[test]
    fn lc_oscillation_period() {
        // Ideal LC tank with an initial capacitor voltage rings at
        // f = 1/(2π√(LC)).
        let mut c = Circuit::new();
        let a = c.node("a");
        c.capacitor_ic("C1", a, Circuit::GROUND, 1e-9, 1.0).unwrap();
        c.inductor("L1", a, Circuit::GROUND, 1e-6).unwrap();
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-6f64 * 1e-9).sqrt());
        let period = 1.0 / f0;
        let res = TranSolver::new(period / 400.0, period * 3.0)
            .initial(InitialState::Uic)
            .solve(&c)
            .unwrap();
        let v = res.voltage(a);
        let t = res.times();
        // Find the first two downward zero crossings to estimate the period.
        let mut crossings = Vec::new();
        for i in 1..v.len() {
            if v[i - 1] > 0.0 && v[i] <= 0.0 {
                let frac = v[i - 1] / (v[i - 1] - v[i]);
                crossings.push(t[i - 1] + frac * (t[i] - t[i - 1]));
            }
        }
        assert!(crossings.len() >= 2, "no oscillation detected");
        let measured = crossings[1] - crossings[0];
        assert!(
            (measured - period).abs() / period < 0.01,
            "period {measured} vs {period}"
        );
    }

    #[test]
    fn cap_charge_conservation_through_divider() {
        // Two series caps across a step: final division by capacitance.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        c.vsource_wave(
            "V1",
            vin,
            Circuit::GROUND,
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 1e-9,
                rise: 1e-10,
                fall: 1e-10,
                width: 1.0,
                period: f64::INFINITY,
            },
            0.0,
        );
        c.capacitor("C1", vin, mid, 1e-12).unwrap();
        c.capacitor("C2", mid, Circuit::GROUND, 3e-12).unwrap();
        // Bleed resistor keeps DC defined without affecting the fast edge.
        c.resistor("RB", mid, Circuit::GROUND, 1e9).unwrap();
        let res = TranSolver::new(1e-11, 20e-9).solve(&c).unwrap();
        let v = res.voltage(mid);
        // After the edge: v(mid) = C1/(C1+C2) = 0.25.
        let settled = v[v.len() / 2];
        assert!((settled - 0.25).abs() < 0.01, "divider voltage {settled}");
    }

    #[test]
    fn inverter_switches_in_transient() {
        use crate::devices::{FetInstance, FetModel, FetPolarity};
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GROUND, 0.8);
        c.vsource_wave(
            "VIN",
            vin,
            Circuit::GROUND,
            Waveform::Pulse {
                v1: 0.0,
                v2: 0.8,
                delay: 0.2e-9,
                rise: 20e-12,
                fall: 20e-12,
                width: 1e-9,
                period: f64::INFINITY,
            },
            0.0,
        );
        let mut mn = FetInstance::new(
            "MN",
            out,
            vin,
            Circuit::GROUND,
            Circuit::GROUND,
            FetModel::ideal(FetPolarity::Nmos),
            2e-6,
            50e-9,
        );
        mn.model.cox = 0.02;
        let mut mp = FetInstance::new(
            "MP",
            out,
            vin,
            vdd,
            vdd,
            FetModel::ideal(FetPolarity::Pmos),
            4e-6,
            50e-9,
        );
        mp.model.cox = 0.02;
        c.fet(mn).unwrap();
        c.fet(mp).unwrap();
        c.capacitor("CL", out, Circuit::GROUND, 2e-15).unwrap();
        let res = TranSolver::new(2e-12, 1.2e-9).solve(&c).unwrap();
        let v = res.voltage(out);
        assert!(v[0] > 0.75, "initial high, got {}", v[0]);
        assert!(
            *v.last().unwrap() < 0.05,
            "final low, got {}",
            v.last().unwrap()
        );
    }
}
