//! Nonlinear DC operating-point analysis.
//!
//! Newton–Raphson with voltage-step damping, a gmin ladder, and source
//! stepping as fallback — the classic SPICE convergence toolkit, sized for
//! the small circuits primitive testbenches produce.

use std::collections::HashMap;

use crate::devices::FetCaps;
use crate::netlist::{Circuit, Element, NodeId};
use crate::num::Matrix;

use super::{AnalysisError, Topology};

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

    /// Branch current through a voltage-defined element (V source, VCVS,
    /// inductor), by case-insensitive name. Positive current flows from the
    /// element's positive terminal through it to the negative terminal.
    pub fn branch_current(&self, name: &str) -> Option<f64> {
        self.topo.branch_ix_by_name(name).map(|i| self.x[i])
    }

    /// Per-FET operating info by instance name.
    pub fn fet_op(&self, name: &str) -> Option<&FetOp> {
        self.fet_ops.get(name)
    }

    /// All FET operating records.
    pub fn fet_ops(&self) -> &HashMap<String, FetOp> {
        &self.fet_ops
    }

    /// The raw MNA solution vector.
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// The topology this solution is laid out against.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

/// Absolute node-voltage convergence tolerance of a Newton solve (V).
const VTOL: f64 = 1e-9;
/// Largest node-voltage change one Newton iteration may take (V).
const DAMPING: f64 = 0.3;

/// Newton-based DC solver. Create with [`DcSolver::new`], then call
/// [`DcSolver::solve`].
///
/// [`DcSolver::new`] snapshots the ambient [`SolveCtrl`] scope (iteration
/// limits + cancel token), so deeply-nested testbench code honors the
/// flow's solver budget and deadline without any signature changes. The
/// scope is the only way to bound or cancel a solve.
///
/// [`SolveCtrl`]: crate::ctrl::SolveCtrl
#[derive(Debug, Clone)]
pub struct DcSolver {
    max_iterations: usize,
    gmin_ladder: Vec<f64>,
    source_steps: usize,
    cancel: Option<prima_cache::CancelToken>,
}

impl Default for DcSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl DcSolver {
    /// Creates a solver from the ambient [`SolveCtrl`](crate::ctrl::SolveCtrl)
    /// scope (outside any scope, the [`SolverLimits`] defaults and no
    /// cancel token).
    ///
    /// [`SolverLimits`]: crate::ctrl::SolverLimits
    pub fn new() -> Self {
        let ctrl = crate::ctrl::current_solve_ctrl();
        DcSolver {
            max_iterations: ctrl.limits.dc_max_iterations,
            gmin_ladder: ctrl.limits.dc_gmin_ladder,
            source_steps: ctrl.limits.dc_source_steps,
            cancel: ctrl.cancel,
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
        let mut fet_ops = HashMap::new();
        for fet in circuit.fets() {
            let vd = topo.voltage_in(&x, fet.d);
            let vg = topo.voltage_in(&x, fet.g);
            let vs = topo.voltage_in(&x, fet.s);
            let vb = topo.voltage_in(&x, fet.b);
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
        Ok(OperatingPoint { topo, x, fet_ops })
    }

    /// Solves and returns only the raw solution vector (used by AC/transient
    /// to seed their initial state).
    pub(crate) fn solve_vector(
        &self,
        circuit: &Circuit,
        topo: &Topology,
    ) -> Result<Vec<f64>, AnalysisError> {
        // Strategy 1: gmin ladder from a zero start.
        let mut x = vec![0.0; topo.dim()];
        let mut ladder_ok = true;
        for &gmin in &self.gmin_ladder {
            match self.newton(circuit, topo, &x, gmin, 1.0) {
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
        let mut x = vec![0.0; topo.dim()];
        for step in 1..=self.source_steps {
            let alpha = step as f64 / self.source_steps as f64;
            x = self.newton(circuit, topo, &x, 1e-9, alpha)?;
        }
        for &gmin in &[1e-10, 1e-12] {
            x = self.newton(circuit, topo, &x, gmin, 1.0)?;
        }
        Ok(x)
    }

    /// One Newton solve at fixed gmin and source scale.
    fn newton(
        &self,
        circuit: &Circuit,
        topo: &Topology,
        x0: &[f64],
        gmin: f64,
        src_scale: f64,
    ) -> Result<Vec<f64>, AnalysisError> {
        let dim = topo.dim();
        let mut x = x0.to_vec();
        let mut mat = Matrix::<f64>::zero(dim);
        let mut rhs = vec![0.0; dim];

        for _iter in 0..self.max_iterations {
            if let Some(token) = &self.cancel {
                token.check()?;
            }
            mat.clear();
            rhs.iter_mut().for_each(|v| *v = 0.0);
            assemble_dc(circuit, topo, &x, gmin, src_scale, &mut mat, &mut rhs);
            let x_new = mat.solve(&rhs)?;

            // Convergence on node voltages (branch currents follow).
            let mut max_dv: f64 = 0.0;
            for i in 0..topo.node_unknowns() {
                max_dv = max_dv.max((x_new[i] - x[i]).abs());
            }
            // Damped update on voltages; currents take the full step.
            for i in 0..dim {
                if i < topo.node_unknowns() {
                    let dv = (x_new[i] - x[i]).clamp(-DAMPING, DAMPING);
                    x[i] += dv;
                } else {
                    x[i] = x_new[i];
                }
            }
            if max_dv < VTOL {
                return Ok(x);
            }
        }
        Err(AnalysisError::NoConvergence {
            phase: format!("dc (gmin={gmin:e}, scale={src_scale})"),
            iterations: self.max_iterations,
        })
    }
}

/// Assembles the DC Jacobian and RHS at the linearization point `x`.
///
/// Capacitors are open; inductors are 0 V branches; sources are scaled by
/// `src_scale`; every node row gets `gmin` to ground.
// The topology is derived from the very circuit being stamped, so every
// branch element has a branch row; `expect` documents that invariant
// rather than a recoverable condition.
#[allow(clippy::expect_used)]
pub(crate) fn assemble_dc(
    circuit: &Circuit,
    topo: &Topology,
    x: &[f64],
    gmin: f64,
    src_scale: f64,
    mat: &mut Matrix<f64>,
    rhs: &mut [f64],
) {
    for i in 0..topo.node_unknowns() {
        mat.stamp(i, i, gmin);
    }
    for (idx, el) in circuit.elements().iter().enumerate() {
        match el {
            Element::Resistor { a, b, ohms, .. } => {
                stamp_conductance(mat, topo, *a, *b, 1.0 / ohms);
            }
            Element::Capacitor { .. } => {}
            Element::Inductor { a, b, .. } => {
                let k = topo.branch_ix(idx).expect("inductor branch");
                stamp_branch_kcl(mat, topo, *a, *b, k);
                // Branch equation: v(a) − v(b) = 0.
                if let Some(ia) = topo.vix(*a) {
                    mat.stamp(k, ia, 1.0);
                }
                if let Some(ib) = topo.vix(*b) {
                    mat.stamp(k, ib, -1.0);
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
                rhs[k] += wave.dc_value() * src_scale;
            }
            Element::ISource { pos, neg, wave, .. } => {
                let i = wave.dc_value() * src_scale;
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
            }
        }
    }
}

/// Stamps a conductance `g` between nodes `a` and `b`.
pub(crate) fn stamp_conductance(
    mat: &mut Matrix<f64>,
    topo: &Topology,
    a: NodeId,
    b: NodeId,
    g: f64,
) {
    let ia = topo.vix(a);
    let ib = topo.vix(b);
    if let Some(i) = ia {
        mat.stamp(i, i, g);
    }
    if let Some(j) = ib {
        mat.stamp(j, j, g);
    }
    if let (Some(i), Some(j)) = (ia, ib) {
        mat.stamp(i, j, -g);
        mat.stamp(j, i, -g);
    }
}

/// Stamps the KCL coupling of a branch current `k` flowing `pos → neg`.
pub(crate) fn stamp_branch_kcl(
    mat: &mut Matrix<f64>,
    topo: &Topology,
    pos: NodeId,
    neg: NodeId,
    k: usize,
) {
    if let Some(ip) = topo.vix(pos) {
        mat.stamp(ip, k, 1.0);
    }
    if let Some(in_) = topo.vix(neg) {
        mat.stamp(in_, k, -1.0);
    }
}

/// Stamps a VCCS: `i(p→n) = gm · v(cp, cn)`.
pub(crate) fn stamp_transconductance(
    mat: &mut Matrix<f64>,
    topo: &Topology,
    p: NodeId,
    n: NodeId,
    cp: NodeId,
    cn: NodeId,
    gm: f64,
) {
    for (row, rsign) in [(p, 1.0), (n, -1.0)] {
        if let Some(r) = topo.vix(row) {
            for (col, csign) in [(cp, 1.0), (cn, -1.0)] {
                if let Some(c) = topo.vix(col) {
                    mat.stamp(r, c, gm * rsign * csign);
                }
            }
        }
    }
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
    fn inductor_is_short_in_dc() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GROUND, 1.0);
        c.inductor("L1", a, b, 1e-9).unwrap();
        c.resistor("R1", b, Circuit::GROUND, 1e3).unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-6);
        assert!((op.branch_current("L1").unwrap() - 1e-3).abs() < 1e-8);
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
    fn vcvs_amplifies() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GROUND, 0.1);
        c.vcvs("E1", b, Circuit::GROUND, a, Circuit::GROUND, 10.0);
        c.resistor("RL", b, Circuit::GROUND, 1e3).unwrap();
        let op = DcSolver::new().solve(&c).unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn vccs_injects() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GROUND, 1.0);
        // i(b->gnd via source) = gm*v(a) = 1 mA pulled out of b.
        c.vccs("G1", b, Circuit::GROUND, a, Circuit::GROUND, 1e-3);
        c.resistor("RB", b, Circuit::GROUND, 1e3).unwrap();
        // Current is drawn from node b through the VCCS to ground: v(b) = -1.
        let op = DcSolver::new().solve(&c).unwrap();
        assert!((op.voltage(b) + 1.0).abs() < 1e-6);
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
                    ..SolveCtrl::default()
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
                ..SolveCtrl::default()
            },
            || DcSolver::new().solve(&c),
        );
        assert!(matches!(res, Err(AnalysisError::Cancelled(_))));
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
