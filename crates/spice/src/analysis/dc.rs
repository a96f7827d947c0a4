//! Nonlinear DC operating-point analysis.
//!
//! Newton–Raphson with voltage-step damping, a gmin ladder, and source
//! stepping as fallback — the classic SPICE convergence toolkit, sized for
//! the small circuits primitive testbenches produce. The assembly and the
//! Newton loop are the ones transient uses, with no charge storage and the
//! sources at their `t = 0⁻` values.
//!
//! A sweep that moves a source a little between solves warm-starts each
//! one from the last operating point ([`DcSolver::solve_near`]): one Newton
//! solve at the ladder's final gmin, with the ladder as its fallback.

use std::collections::HashMap;

use crate::devices::FetCaps;
use crate::netlist::{Circuit, NodeId, Waveform};
use crate::num::Matrix;

use super::{assemble_real, newton, AnalysisError, Topology};

/// Per-FET operating-point record.
#[derive(Debug, Clone, Copy)]
pub struct FetOp {
    /// Drain current (A), positive into the drain terminal.
    pub id: f64,
    /// Transconductance (S).
    pub gm: f64,
    /// Output conductance (S).
    pub gds: f64,
    /// Body transconductance (S).
    pub gmb: f64,
    /// Gate–source voltage in the device frame (V).
    pub vgs: f64,
    /// Drain–source voltage in the device frame (V).
    pub vds: f64,
    /// Bulk–source voltage in the device frame (V).
    pub vbs: f64,
    /// Bias-dependent capacitances.
    pub caps: FetCaps,
}

/// A solved DC operating point.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    topo: Topology,
    x: Vec<f64>,
    fet_ops: HashMap<String, FetOp>,
}

impl OperatingPoint {
    /// Node voltage at the operating point (0 for ground).
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.topo.voltage_in(&self.x, node)
    }

    /// Branch current through an independent voltage source, by
    /// case-insensitive name. Positive current flows from the source's
    /// positive terminal through it to the negative terminal.
    pub fn branch_current(&self, name: &str) -> Option<f64> {
        self.topo.branch_ix_by_name(name).map(|i| self.x[i])
    }

    /// Per-FET operating info by instance name.
    pub fn fet_op(&self, name: &str) -> Option<&FetOp> {
        self.fet_ops.get(name)
    }
}

/// Absolute node-voltage convergence tolerance of a Newton solve (V).
const VTOL: f64 = 1e-9;
/// Newton iterations per strategy rung.
const MAX_ITERATIONS: usize = 200;
/// The gmin continuation ladder: descending conductances to ground (S).
const GMIN_LADDER: [f64; 5] = [1e-3, 1e-5, 1e-7, 1e-9, 1e-12];
/// The ladder's last rung, where a warm start solves.
const GMIN_FINAL: f64 = GMIN_LADDER[GMIN_LADDER.len() - 1];
/// Source-stepping points of the fallback strategy.
const SOURCE_STEPS: usize = 10;

/// Newton-based DC solver. Create with [`DcSolver::new`], then call
/// [`DcSolver::solve`].
///
/// Every solve is bounded by the same constants: 200 Newton iterations
/// per rung of a five-rung gmin ladder, then 10 source-stepping points.
/// [`DcSolver::new`] snapshots the ambient [`SolveCtrl`] scope's cancel
/// token, so deeply-nested testbench code honors the flow's deadline
/// without any signature changes. The scope is the only way to cancel a
/// solve.
///
/// [`SolveCtrl`]: crate::ctrl::SolveCtrl
#[derive(Debug, Clone)]
pub struct DcSolver {
    cancel: Option<prima_cache::CancelToken>,
}

impl Default for DcSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl DcSolver {
    /// Creates a solver from the ambient [`SolveCtrl`](crate::ctrl::SolveCtrl)
    /// scope (outside any scope, no cancel token).
    pub fn new() -> Self {
        DcSolver {
            cancel: crate::ctrl::current_solve_ctrl().cancel,
        }
    }

    /// Solves for the DC operating point.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::NoConvergence`] when Newton, the gmin ladder,
    /// and source stepping all fail, or [`AnalysisError::Linear`] when the
    /// system is structurally singular.
    pub fn solve(&self, circuit: &Circuit) -> Result<OperatingPoint, AnalysisError> {
        let topo = Topology::build(circuit);
        let x = self.solve_vector(circuit, &topo)?;
        Ok(operating_point(circuit, topo, x))
    }

    /// Solves for the DC operating point starting from `near`, a solved
    /// operating point of the same circuit with its sources moved a little.
    ///
    /// One Newton solve runs from `near` at the ladder's final gmin. When
    /// `near` has another MNA dimension, or that solve fails, this is
    /// [`DcSolver::solve`].
    ///
    /// # Errors
    ///
    /// As [`DcSolver::solve`]; [`AnalysisError::Cancelled`] returns at
    /// once, with no fallback.
    pub fn solve_near(
        &self,
        circuit: &Circuit,
        near: &OperatingPoint,
    ) -> Result<OperatingPoint, AnalysisError> {
        let topo = Topology::build(circuit);
        if near.x.len() == topo.dim() {
            match self.newton_at(circuit, &topo, &near.x, GMIN_FINAL, 1.0) {
                Ok(Some(x)) => return Ok(operating_point(circuit, topo, x)),
                Err(e @ AnalysisError::Cancelled(_)) => return Err(e),
                Ok(None) | Err(_) => {}
            }
        }
        self.solve(circuit)
    }

    /// One Newton solve from `x0` at a fixed gmin and source scale.
    fn newton_at(
        &self,
        circuit: &Circuit,
        topo: &Topology,
        x0: &[f64],
        gmin: f64,
        src_scale: f64,
    ) -> Result<Option<Vec<f64>>, AnalysisError> {
        let dim = topo.dim();
        let mut mat = Matrix::<f64>::zero(dim);
        let mut rhs = vec![0.0; dim];
        let assemble = |x: &[f64], mat: &mut Matrix<f64>, rhs: &mut [f64]| {
            let source = |wave: &Waveform| wave.dc_value() * src_scale;
            assemble_real(circuit, topo, x, gmin, source, |_, _, _| {}, mat, rhs);
        };
        newton(
            topo,
            x0,
            VTOL,
            MAX_ITERATIONS,
            self.cancel.as_ref(),
            &mut mat,
            &mut rhs,
            None,
            assemble,
        )
    }

    /// Solves and returns only the raw solution vector (used by AC/transient
    /// to seed their initial state).
    pub(crate) fn solve_vector(
        &self,
        circuit: &Circuit,
        topo: &Topology,
    ) -> Result<Vec<f64>, AnalysisError> {
        let dim = topo.dim();
        // One Newton solve at fixed gmin and source scale.
        let solve_at = |x0: &[f64], gmin: f64, src_scale: f64| {
            self.newton_at(circuit, topo, x0, gmin, src_scale)?
                .ok_or_else(|| AnalysisError::NoConvergence {
                    phase: format!("dc (gmin={gmin:e}, scale={src_scale})"),
                    iterations: MAX_ITERATIONS,
                })
        };

        // Strategy 1: gmin ladder from a zero start.
        let mut x = vec![0.0; dim];
        let mut ladder_ok = true;
        for gmin in GMIN_LADDER {
            match solve_at(&x, gmin, 1.0) {
                Ok(next) => x = next,
                // A cancelled rung must not fall through to source stepping:
                // the whole solve is abandoned.
                Err(e @ AnalysisError::Cancelled(_)) => return Err(e),
                Err(_) => {
                    ladder_ok = false;
                    break;
                }
            }
        }
        if ladder_ok {
            return Ok(x);
        }

        // Strategy 2: source stepping at a fixed safe gmin, then relax gmin.
        let mut x = vec![0.0; dim];
        for step in 1..=SOURCE_STEPS {
            let alpha = step as f64 / SOURCE_STEPS as f64;
            x = solve_at(&x, 1e-9, alpha)?;
        }
        for &gmin in &[1e-10, 1e-12] {
            x = solve_at(&x, gmin, 1.0)?;
        }
        Ok(x)
    }
}

/// The operating point of `circuit` at solution `x`, with every FET's
/// small-signal record.
fn operating_point(circuit: &Circuit, topo: Topology, x: Vec<f64>) -> OperatingPoint {
    let mut fet_ops = HashMap::new();
    for fet in circuit.fets() {
        let [vd, vg, vs, vb] = topo.fet_voltages(&x, fet);
        let e = fet.eval(vd, vg, vs, vb);
        let caps = fet.capacitances(vd, vg, vs, vb);
        fet_ops.insert(
            fet.name.clone(),
            FetOp {
                id: e.id_raw,
                gm: e.gm,
                gds: e.gds,
                gmb: e.gmb,
                vgs: e.vgs,
                vds: e.vds,
                vbs: e.vbs,
                caps,
            },
        );
    }
    OperatingPoint { topo, x, fet_ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::{FetInstance, FetModel, FetPolarity};

    #[test]
    fn divider() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        c.vsource("V1", vin, Circuit::GROUND, 2.0);
        c.resistor("R1", vin, mid, 1e3).unwrap();
        c.resistor("R2", mid, Circuit::GROUND, 3e3).unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        assert!((op.voltage(mid) - 1.5).abs() < 1e-6);
        // I = 2 V / 4 kΩ = 0.5 mA through V1.
        assert!((op.branch_current("V1").unwrap() + 0.5e-3).abs() < 1e-9);
    }

    #[test]
    fn capacitor_is_open_in_dc() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GROUND, 1.0);
        c.resistor("R1", a, b, 1e3).unwrap();
        c.capacitor("C1", b, Circuit::GROUND, 1e-12).unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        // No DC path through the cap: node b floats up to the full 1 V.
        assert!((op.voltage(b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn current_source_convention() {
        let mut c = Circuit::new();
        let a = c.node("a");
        // 1 mA pushed from ground into node a (pos=gnd, neg=a pulls current
        // out of a — so use pos=a to pull out).  With pos=gnd, neg=a: current
        // flows gnd -> a through the source, raising v(a) across R.
        c.isource("I1", Circuit::GROUND, a, 1e-3);
        c.resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        assert!((op.voltage(a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nmos_diode_connected_bias() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.vsource("VDD", vdd, Circuit::GROUND, 0.8);
        c.resistor("R1", vdd, d, 10e3).unwrap();
        let m = FetInstance::new(
            "M1",
            d,
            d,
            Circuit::GROUND,
            Circuit::GROUND,
            FetModel::ideal(FetPolarity::Nmos),
            2e-6,
            100e-9,
        );
        c.fet(m).unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        let vgs = op.voltage(d);
        // Diode-connected: vgs above vth, below vdd.
        assert!(vgs > 0.25 && vgs < 0.8, "vgs = {vgs}");
        let fop = op.fet_op("M1").unwrap();
        // KCL: drain current equals resistor current.
        let ir = (0.8 - vgs) / 10e3;
        assert!((fop.id - ir).abs() / ir < 1e-5, "id {} vs {}", fop.id, ir);
    }

    #[test]
    fn cmos_inverter_transfer() {
        // NMOS + PMOS inverter at mid input should sit near mid rail.
        let vdd_v = 0.8;
        let mk = |vin: f64| {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let vin_n = c.node("vin");
            let out = c.node("out");
            c.vsource("VDD", vdd, Circuit::GROUND, vdd_v);
            c.vsource("VIN", vin_n, Circuit::GROUND, vin);
            c.fet(FetInstance::new(
                "MN",
                out,
                vin_n,
                Circuit::GROUND,
                Circuit::GROUND,
                FetModel::ideal(FetPolarity::Nmos),
                1e-6,
                100e-9,
            ))
            .unwrap();
            c.fet(FetInstance::new(
                "MP",
                out,
                vin_n,
                vdd,
                vdd,
                FetModel::ideal(FetPolarity::Pmos),
                2e-6,
                100e-9,
            ))
            .unwrap();
            let op = DcSolver::new().solve(&c).unwrap();
            op.voltage(out)
        };
        let lo_in = mk(0.0);
        let hi_in = mk(vdd_v);
        assert!(lo_in > 0.75, "out for low in: {lo_in}");
        assert!(hi_in < 0.05, "out for high in: {hi_in}");
        // Transfer curve is monotone decreasing.
        let mut last = f64::INFINITY;
        for i in 0..=8 {
            let v = mk(vdd_v * i as f64 / 8.0);
            assert!(v <= last + 1e-6);
            last = v;
        }
    }

    #[test]
    fn cancelled_token_aborts_solve() {
        use crate::ctrl::{with_solve_ctrl, SolveCtrl};
        use prima_cache::{CancelReason, CancelToken};
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        c.vsource("V1", vin, Circuit::GROUND, 2.0);
        c.resistor("R1", vin, mid, 1e3).unwrap();
        c.resistor("R2", mid, Circuit::GROUND, 3e3).unwrap();
        let scoped = |token: CancelToken| {
            with_solve_ctrl(
                SolveCtrl {
                    cancel: Some(token),
                },
                || DcSolver::new().solve(&c),
            )
        };
        let token = CancelToken::new();
        token.cancel();
        match scoped(token) {
            Err(AnalysisError::Cancelled(e)) => assert_eq!(e.reason, CancelReason::Explicit),
            other => panic!("expected Cancelled, got {other:?}"),
        }
        // An untripped token changes nothing.
        assert!(scoped(CancelToken::new()).is_ok());
    }

    #[test]
    fn ambient_scope_cancels_nested_solvers() {
        use crate::ctrl::{with_solve_ctrl, SolveCtrl};
        use prima_cache::CancelToken;
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource("V1", a, Circuit::GROUND, 1.0);
        c.resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let res = with_solve_ctrl(
            SolveCtrl {
                cancel: Some(token),
            },
            || DcSolver::new().solve(&c),
        );
        assert!(matches!(res, Err(AnalysisError::Cancelled(_))));
    }

    /// A CMOS inverter driven at `vin`, biased near its trip point.
    fn inverter(vin: f64) -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin_n = c.node("vin");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GROUND, 0.8);
        c.vsource("VIN", vin_n, Circuit::GROUND, vin);
        for (name, pol, s, w) in [
            ("MN", FetPolarity::Nmos, Circuit::GROUND, 1e-6),
            ("MP", FetPolarity::Pmos, vdd, 2e-6),
        ] {
            let m = FetInstance::new(name, out, vin_n, s, s, FetModel::ideal(pol), w, 100e-9);
            c.fet(m).unwrap();
        }
        c
    }

    #[test]
    fn warm_start_from_a_nearby_point_matches_a_cold_solve() {
        let solver = DcSolver::new();
        let near = solver.solve(&inverter(0.40)).unwrap();
        for vin in [0.401, 0.41, 0.45, 0.2] {
            let c = inverter(vin);
            let warm = solver.solve_near(&c, &near).unwrap();
            let cold = solver.solve(&c).unwrap();
            for (w, k) in warm.x.iter().zip(&cold.x).take(c.node_count() - 1) {
                assert!((w - k).abs() <= 1e-9, "vin {vin}: {w} vs {k}");
            }
        }
    }

    #[test]
    fn warm_start_of_another_dimension_is_a_cold_solve() {
        let solver = DcSolver::new();
        let mut other = inverter(0.4);
        let extra = other.node("extra");
        other.resistor("R1", extra, Circuit::GROUND, 1e3).unwrap();
        let near = solver.solve(&other).unwrap();
        let c = inverter(0.41);
        let warm = solver.solve_near(&c, &near).unwrap();
        let cold = solver.solve(&c).unwrap();
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&warm.x), bits(&cold.x));
    }

    #[test]
    fn warm_start_in_a_cancelled_scope_is_cancelled() {
        use crate::ctrl::{with_solve_ctrl, SolveCtrl};
        use prima_cache::CancelToken;
        let near = DcSolver::new().solve(&inverter(0.4)).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let ctrl = SolveCtrl {
            cancel: Some(token),
        };
        let res = with_solve_ctrl(ctrl, || DcSolver::new().solve_near(&inverter(0.41), &near));
        assert!(matches!(res, Err(AnalysisError::Cancelled(_))), "{res:?}");
    }

    #[test]
    fn floating_node_handled_by_gmin() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("float");
        c.vsource("V1", a, Circuit::GROUND, 1.0);
        c.capacitor("C1", a, b, 1e-15).unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        assert!(op.voltage(b).abs() < 1e-3);
    }
}
