//! Transient analysis: trapezoidal integration with a Newton solve per step.
//!
//! A run starts from the DC operating point. Capacitors become companion
//! conductance/source pairs; the FET's bias-dependent Meyer capacitances are
//! refreshed from the last accepted timepoint. Each step stamps the same
//! real-valued system as DC, with the sources at their value at the step's
//! time and each companion stamped after its element, and solves it with
//! the same damped Newton loop. The first step (and any step that fails to
//! converge under trapezoidal) uses backward Euler, which is L-stable and
//! damps the artificial ringing trapezoidal can produce from inconsistent
//! initial conditions.

use crate::devices::FetInstance;
use crate::netlist::{Circuit, Element, NodeId, Waveform};
use crate::num::{LuWorkspace, Matrix};

use super::dc::DcSolver;
use super::{
    assemble_real, fet_cap_pairs, newton, stamp_isource, stamp_pattern, stamp_two_terminal,
    AnalysisError, Topology,
};

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

    /// Branch-current waveform of an independent voltage source.
    pub fn branch_current(&self, name: &str) -> Option<Vec<f64>> {
        let ix = self.topo.branch_ix_by_name(name)?;
        Some(self.data.iter().map(|x| x[ix]).collect())
    }
}

/// Per-step Newton convergence tolerance on node voltages (V).
const VTOL: f64 = 1e-7;
/// Conductance from every node to ground in each step (S).
const GMIN: f64 = 1e-12;
/// Newton iterations per timestep.
const MAX_NEWTON: usize = 60;

/// Fixed-step transient solver, bounded by 60 Newton iterations per
/// step. Like [`DcSolver`], construction snapshots the
/// ambient [`SolveCtrl`](crate::ctrl::SolveCtrl) scope for its cancel
/// token.
#[derive(Debug, Clone)]
pub struct TranSolver {
    dt: f64,
    t_stop: f64,
    cancel: Option<prima_cache::CancelToken>,
}

impl TranSolver {
    /// Creates a solver with timestep `dt` running to `t_stop` (seconds).
    pub fn new(dt: f64, t_stop: f64) -> Self {
        TranSolver {
            dt,
            t_stop,
            cancel: crate::ctrl::current_solve_ctrl().cancel,
        }
    }

    /// Runs the transient analysis from the DC operating point.
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
        let mut x = DcSolver::new().solve_vector(circuit, &topo)?;
        let mut states = ReactiveState::init(circuit, &topo, &x);

        let n_steps = (self.t_stop / self.dt).ceil() as usize;
        let mut times = Vec::with_capacity(n_steps + 1);
        let mut data = Vec::with_capacity(n_steps + 1);
        times.push(0.0);
        data.push(x.clone());

        let mut mat = Matrix::<f64>::zero(dim);
        let mut rhs = vec![0.0; dim];
        // Every Newton iteration of the run shares one sparsity pattern, so
        // they share one LU workspace.
        let mut lu = LuWorkspace::new(dim, stamp_pattern(circuit, &topo));
        // One Newton solve of the step of length `dt` ending at `t`; `None`
        // when it runs out of iterations.
        let mut solve = |x: &[f64], states: &ReactiveState, t: f64, dt: f64, method: Method| {
            let assemble = |x: &[f64], mat: &mut Matrix<f64>, rhs: &mut [f64]| {
                let storage = |idx: usize, mat: &mut Matrix<f64>, rhs: &mut [f64]| {
                    states.stamp(idx, &topo, dt, method, mat, rhs);
                };
                let source = |wave: &Waveform| wave.value_at(t);
                assemble_real(circuit, &topo, x, GMIN, source, storage, mat, rhs);
            };
            newton(
                &topo,
                x,
                VTOL,
                MAX_NEWTON,
                self.cancel.as_ref(),
                &mut mat,
                &mut rhs,
                Some(&mut lu),
                assemble,
            )
        };

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
                match solve(&x, &states, t, self.dt, method) {
                    Ok(Some(next)) => {
                        solved = Some((next, method));
                        break;
                    }
                    // Cancellation aborts the run; no method fallback.
                    Err(e @ AnalysisError::Cancelled(_)) => return Err(e),
                    Ok(None) | Err(_) => {}
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
                        let next = match solve(&x, &states, ts, sub_dt, Method::BackwardEuler) {
                            Ok(Some(next)) => next,
                            Err(e @ AnalysisError::Cancelled(_)) => return Err(e),
                            Ok(None) | Err(_) => {
                                return Err(AnalysisError::NoConvergence {
                                    phase: format!("tran substep at t={ts:e}"),
                                    iterations: MAX_NEWTON,
                                })
                            }
                        };
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
}

/// Integration method for a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Method {
    Trapezoidal,
    BackwardEuler,
}

/// Charge-storage state carried between timesteps, by element index: one
/// slot per capacitor, five per FET (gs, gd, gb, db, sb), none for any
/// other element.
#[derive(Debug, Clone)]
struct ReactiveState {
    slots: Vec<Vec<CapState>>,
}

/// One capacitance from `a` to `b`: its value for the coming step, and its
/// voltage and current at the last accepted timepoint.
#[derive(Debug, Clone, Copy)]
struct CapState {
    a: NodeId,
    b: NodeId,
    c: f64,
    v: f64,
    i: f64,
}

/// A FET's five capacitances at its bias in `x`.
fn fet_caps_at(fet: &FetInstance, topo: &Topology, x: &[f64]) -> [(NodeId, NodeId, f64); 5] {
    let [vd, vg, vs, vb] = topo.fet_voltages(x, fet);
    fet_cap_pairs(fet, &fet.capacitances(vd, vg, vs, vb))
}

impl ReactiveState {
    fn init(circuit: &Circuit, topo: &Topology, x: &[f64]) -> Self {
        let slot = |(a, b, c): (NodeId, NodeId, f64)| CapState {
            a,
            b,
            c,
            v: topo.voltage_in(x, a) - topo.voltage_in(x, b),
            i: 0.0,
        };
        let slots = circuit
            .elements()
            .iter()
            .map(|el| match el {
                Element::Capacitor { a, b, farads, .. } => vec![slot((*a, *b, *farads))],
                Element::Fet(fet) => fet_caps_at(fet, topo, x).map(slot).to_vec(),
                _ => Vec::new(),
            })
            .collect();
        ReactiveState { slots }
    }

    /// Stamps the companion models of element `idx`'s capacitances: each a
    /// conductance plus a current source.
    fn stamp(
        &self,
        idx: usize,
        topo: &Topology,
        dt: f64,
        method: Method,
        mat: &mut Matrix<f64>,
        rhs: &mut [f64],
    ) {
        for st in &self.slots[idx] {
            if st.c <= 0.0 {
                continue;
            }
            let (geq, ieq) = match method {
                Method::Trapezoidal => {
                    let g = 2.0 * st.c / dt;
                    (g, -g * st.v - st.i)
                }
                Method::BackwardEuler => {
                    let g = st.c / dt;
                    (g, -g * st.v)
                }
            };
            stamp_two_terminal(mat, topo, st.a, st.b, geq);
            stamp_isource(rhs, topo, st.a, st.b, ieq);
        }
    }

    /// Updates states after a step is accepted at solution `x`.
    fn advance(&mut self, circuit: &Circuit, topo: &Topology, x: &[f64], dt: f64, method: Method) {
        for (el, slots) in circuit.elements().iter().zip(&mut self.slots) {
            for st in slots.iter_mut() {
                let v_new = topo.voltage_in(x, st.a) - topo.voltage_in(x, st.b);
                st.i = match method {
                    Method::Trapezoidal => 2.0 * st.c / dt * (v_new - st.v) - st.i,
                    Method::BackwardEuler => st.c / dt * (v_new - st.v),
                };
                st.v = v_new;
            }
            // A FET's capacitances follow its bias: refresh them for the
            // next step.
            if let Element::Fet(fet) = el {
                for (st, (_, _, c)) in slots.iter_mut().zip(fet_caps_at(fet, topo, x)) {
                    st.c = c;
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

    /// The analyzed pattern holds every entry that DC assembly and either
    /// integration method write, for every element kind, and nothing they
    /// never write.
    #[test]
    fn stamp_pattern_covers_every_element_kind() {
        use crate::devices::{FetInstance, FetModel, FetPolarity};
        use std::collections::BTreeSet;
        // A FET whose five capacitances can all be nonzero.
        fn fet(name: &str, [d, g, s, b]: [NodeId; 4], polarity: FetPolarity) -> FetInstance {
            let mut f = FetInstance::new(name, d, g, s, b, FetModel::ideal(polarity), 2e-6, 50e-9);
            f.model.cox = 0.02;
            f.model.cgso = 1e-10;
            f.model.cgdo = 1e-10;
            f.model.cj = 1e-3;
            (f.ad, f.as_) = (1e-14, 2e-14);
            f
        }
        // A label and the elements it adds to an empty circuit.
        type Case = (&'static str, fn(&mut Circuit));
        let cases: [Case; 7] = [
            ("resistors", |c| {
                let (a, b) = (c.node("a"), c.node("b"));
                c.resistor("R1", a, b, 1e3).unwrap();
                c.resistor("R2", b, Circuit::GROUND, 2e3).unwrap();
            }),
            ("capacitors", |c| {
                let (a, b) = (c.node("a"), c.node("b"));
                c.capacitor("C1", a, b, 1e-15).unwrap();
                c.capacitor("C2", Circuit::GROUND, a, 2e-15).unwrap();
            }),
            ("voltage sources, node to ground and node to node", |c| {
                let (a, b) = (c.node("a"), c.node("b"));
                c.vsource("V1", a, Circuit::GROUND, 0.5);
                c.vsource("V2", Circuit::GROUND, b, 0.2);
                c.vsource("V3", a, b, 0.1);
            }),
            ("current sources", |c| {
                let (a, b) = (c.node("a"), c.node("b"));
                c.isource("I1", a, b, 1e-6);
                c.isource("I2", Circuit::GROUND, a, 1e-6);
            }),
            ("FET with grounded source and bulk", |c| {
                let (d, g) = (c.node("d"), c.node("g"));
                c.fet(fet(
                    "M",
                    [d, g, Circuit::GROUND, Circuit::GROUND],
                    FetPolarity::Nmos,
                ))
                .unwrap();
            }),
            ("diode-connected FET, bulk tied to source", |c| {
                let (d, s) = (c.node("d"), c.node("s"));
                c.fet(fet("M", [d, d, s, s], FetPolarity::Pmos)).unwrap();
            }),
            ("FET on four nodes", |c| {
                let nodes = ["d", "g", "s", "b"].map(|n| c.node(n));
                c.fet(fet("M", nodes, FetPolarity::Nmos)).unwrap();
            }),
        ];
        for (what, build) in cases {
            let mut c = Circuit::new();
            build(&mut c);
            let topo = Topology::build(&c);
            let dim = topo.dim();
            let pattern: BTreeSet<(usize, usize)> = stamp_pattern(&c, &topo).into_iter().collect();
            let mut written = BTreeSet::new();
            // Off and on biases, so every Meyer capacitance is nonzero in
            // one of them.
            for x in [vec![0.0; dim], (1..=dim).map(|i| 0.3 * i as f64).collect()] {
                let states = ReactiveState::init(&c, &topo, &x);
                for method in [None, Some(Method::Trapezoidal), Some(Method::BackwardEuler)] {
                    let mut mat = Matrix::<f64>::zero(dim);
                    let mut rhs = vec![0.0; dim];
                    let storage = |idx: usize, mat: &mut Matrix<f64>, rhs: &mut [f64]| {
                        if let Some(method) = method {
                            states.stamp(idx, &topo, 1e-12, method, mat, rhs);
                        }
                    };
                    let source = |w: &Waveform| w.value_at(0.0);
                    assemble_real(&c, &topo, &x, GMIN, source, storage, &mut mat, &mut rhs);
                    for r in 0..dim {
                        for col in 0..dim {
                            if mat[(r, col)] != 0.0 {
                                assert!(pattern.contains(&(r, col)), "{what}: ({r}, {col})");
                                written.insert((r, col));
                            }
                        }
                    }
                }
            }
            assert_eq!(written, pattern, "{what}: entries never written");
        }
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
