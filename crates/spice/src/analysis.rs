//! Circuit analyses: DC operating point, small-signal AC, and transient.
//!
//! All three share one modified-nodal-analysis unknown layout, built by
//! [`Topology`]: the voltages of every non-ground node followed by one branch
//! current per independent voltage source. They also share one set of
//! element stamps, written here once for real and complex matrices. DC and
//! transient assemble the same real-valued system and solve it with the same
//! damped Newton loop; AC builds its complex system from the same stamps.

use std::collections::HashMap;
use std::fmt;

use prima_cache::CancelToken;

use crate::devices::{FetCaps, FetEval, FetInstance};
use crate::netlist::{Circuit, Element, NodeId, Waveform};
use crate::num::{LinearError, LuWorkspace, Matrix, Scalar};

pub mod ac;
pub mod dc;
pub mod tran;

/// Error from an analysis run.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The linear solve inside the analysis failed.
    Linear(LinearError),
    /// Newton iteration failed to converge after all fallback strategies.
    NoConvergence {
        /// Analysis phase that failed (e.g. "dc", "tran step").
        phase: String,
        /// Iterations attempted in the last strategy.
        iterations: usize,
    },
    /// Analysis parameters were invalid (e.g. non-positive timestep).
    BadParameters {
        /// Description of the violated constraint.
        reason: String,
    },
    /// The ambient [`CancelToken`] tripped
    /// (explicit cancel or deadline); the solve was abandoned mid-iteration.
    Cancelled(prima_cache::Cancelled),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Linear(e) => write!(f, "linear solve failed: {e}"),
            AnalysisError::NoConvergence { phase, iterations } => {
                write!(f, "no convergence in {phase} after {iterations} iterations")
            }
            AnalysisError::BadParameters { reason } => write!(f, "bad parameters: {reason}"),
            AnalysisError::Cancelled(c) => write!(f, "solve abandoned: {c}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<LinearError> for AnalysisError {
    fn from(e: LinearError) -> Self {
        AnalysisError::Linear(e)
    }
}

impl From<prima_cache::Cancelled> for AnalysisError {
    fn from(c: prima_cache::Cancelled) -> Self {
        AnalysisError::Cancelled(c)
    }
}

/// The MNA unknown layout of a circuit.
///
/// Unknown vector `x` is `[v(node 1), …, v(node N), i(branch 0), …]`, with
/// one branch per independent voltage source, in element order.
#[derive(Debug, Clone)]
pub struct Topology {
    n_nodes: usize,
    n_branches: usize,
    /// element index -> branch unknown, `None` for every other element.
    branch_of_element: Vec<Option<usize>>,
    /// element name -> branch ordinal (for current measurements).
    branch_by_name: HashMap<String, usize>,
}

impl Topology {
    /// Builds the unknown layout for a circuit.
    pub fn build(circuit: &Circuit) -> Self {
        let n_nodes = circuit.node_count() - 1;
        let mut n_branches = 0;
        let mut branch_of_element = Vec::new();
        let mut branch_by_name = HashMap::new();
        for el in circuit.elements() {
            let mut branch = None;
            if let Element::VSource { name, .. } = el {
                branch_by_name.insert(name.to_ascii_lowercase(), n_branches);
                branch = Some(n_nodes + n_branches);
                n_branches += 1;
            }
            branch_of_element.push(branch);
        }
        Topology {
            n_nodes,
            n_branches,
            branch_of_element,
            branch_by_name,
        }
    }

    /// Number of non-ground nodes.
    #[inline]
    pub fn node_unknowns(&self) -> usize {
        self.n_nodes
    }

    /// Total MNA dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n_nodes + self.n_branches
    }

    /// Unknown index of a node voltage (`None` for ground).
    #[inline]
    pub fn vix(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Unknown index of the branch current of element `element_index`.
    #[inline]
    pub fn branch_ix(&self, element_index: usize) -> Option<usize> {
        self.branch_of_element.get(element_index).copied().flatten()
    }

    /// Unknown index of the branch current of the voltage source named
    /// `name` (case-insensitive).
    #[inline]
    pub fn branch_ix_by_name(&self, name: &str) -> Option<usize> {
        self.branch_by_name
            .get(&name.to_ascii_lowercase())
            .map(|&b| self.n_nodes + b)
    }

    /// Voltage of `node` given a solution vector (0 for ground).
    #[inline]
    pub fn voltage_in(&self, x: &[f64], node: NodeId) -> f64 {
        match self.vix(node) {
            Some(i) => x[i],
            None => 0.0,
        }
    }

    /// Drain, gate, source and bulk voltages of `fet` in `x`.
    pub(crate) fn fet_voltages(&self, x: &[f64], fet: &FetInstance) -> [f64; 4] {
        [fet.d, fet.g, fet.s, fet.b].map(|node| self.voltage_in(x, node))
    }
}

/// Stamps a two-terminal admittance `y` between nodes `a` and `b`: a
/// conductance in DC and transient, `g + jωC` in AC.
pub(crate) fn stamp_two_terminal<T: Scalar>(
    mat: &mut Matrix<T>,
    topo: &Topology,
    a: NodeId,
    b: NodeId,
    y: T,
) {
    let ia = topo.vix(a);
    let ib = topo.vix(b);
    if let Some(i) = ia {
        mat.stamp(i, i, y);
    }
    if let Some(j) = ib {
        mat.stamp(j, j, y);
    }
    if let (Some(i), Some(j)) = (ia, ib) {
        mat.stamp(i, j, -y);
        mat.stamp(j, i, -y);
    }
}

/// Stamps an independent voltage source whose branch current is unknown
/// `k`: the current leaves node `pos` into the source and returns at `neg`,
/// and branch row `k` holds `v(pos) − v(neg) = value`.
pub(crate) fn stamp_vsource<T: Scalar>(
    mat: &mut Matrix<T>,
    rhs: &mut [T],
    topo: &Topology,
    pos: NodeId,
    neg: NodeId,
    k: usize,
    value: T,
) {
    let ip = topo.vix(pos);
    let in_ = topo.vix(neg);
    if let Some(i) = ip {
        mat.stamp(i, k, T::ONE);
    }
    if let Some(i) = in_ {
        mat.stamp(i, k, -T::ONE);
    }
    if let Some(i) = ip {
        mat.stamp(k, i, T::ONE);
    }
    if let Some(i) = in_ {
        mat.stamp(k, i, -T::ONE);
    }
    rhs[k] += value;
}

/// Stamps a current `i` that leaves node `pos`, flows through the element,
/// and enters node `neg`: an independent current source, or the current
/// term of a linearized FET or a capacitor companion model.
pub(crate) fn stamp_isource<T: Scalar>(
    rhs: &mut [T],
    topo: &Topology,
    pos: NodeId,
    neg: NodeId,
    i: T,
) {
    if let Some(ip) = topo.vix(pos) {
        rhs[ip] -= i;
    }
    if let Some(in_) = topo.vix(neg) {
        rhs[in_] += i;
    }
}

/// Stamps a FET's drain-current partials `∂id/∂v` of its drain, gate,
/// source and bulk voltages into the drain row, and their negation into
/// the source row.
pub(crate) fn stamp_fet_partials<T: Scalar>(
    mat: &mut Matrix<T>,
    topo: &Topology,
    fet: &FetInstance,
    e: &FetEval,
) {
    let partials = [
        (fet.d, e.did_dvd),
        (fet.g, e.did_dvg),
        (fet.s, e.did_dvs),
        (fet.b, e.did_dvb),
    ];
    for (row, sign) in [(fet.d, 1.0), (fet.s, -1.0)] {
        if let Some(r) = topo.vix(row) {
            for (node, dp) in partials {
                if let Some(col) = topo.vix(node) {
                    mat.stamp(r, col, T::from(sign * dp));
                }
            }
        }
    }
}

/// A FET's five capacitances as `(a, b, farads)` terminal pairs, in the
/// order gs, gd, gb, db, sb.
pub(crate) fn fet_cap_pairs(fet: &FetInstance, caps: &FetCaps) -> [(NodeId, NodeId, f64); 5] {
    [
        (fet.g, fet.s, caps.cgs),
        (fet.g, fet.d, caps.cgd),
        (fet.g, fet.b, caps.cgb),
        (fet.d, fet.b, caps.cdb),
        (fet.s, fet.b, caps.csb),
    ]
}

/// Assembles the real-valued MNA Jacobian and right-hand side linearized at
/// `x`, for DC and transient alike.
///
/// Every node row gets `gmin` to ground; then each element is stamped in
/// element order. Capacitors conduct nothing here, and `source` values each
/// independent source's waveform. After each element, `storage` stamps that
/// element's charge storage, given its index; DC stores no charge. Keep this
/// order: each matrix entry is a floating-point sum, so reordering the
/// stamps changes results in the last bits.
// The topology is derived from the very circuit being stamped, so every
// voltage source has a branch row; `expect` documents that invariant rather
// than a recoverable condition.
#[allow(clippy::expect_used, clippy::too_many_arguments)]
pub(crate) fn assemble_real(
    circuit: &Circuit,
    topo: &Topology,
    x: &[f64],
    gmin: f64,
    source: impl Fn(&Waveform) -> f64,
    mut storage: impl FnMut(usize, &mut Matrix<f64>, &mut [f64]),
    mat: &mut Matrix<f64>,
    rhs: &mut [f64],
) {
    for i in 0..topo.node_unknowns() {
        mat.stamp(i, i, gmin);
    }
    for (idx, el) in circuit.elements().iter().enumerate() {
        match el {
            Element::Resistor { a, b, ohms, .. } => {
                stamp_two_terminal(mat, topo, *a, *b, 1.0 / ohms);
            }
            Element::Capacitor { .. } => {}
            Element::VSource { pos, neg, wave, .. } => {
                let k = topo.branch_ix(idx).expect("vsource branch");
                stamp_vsource(mat, rhs, topo, *pos, *neg, k, source(wave));
            }
            Element::ISource { pos, neg, wave, .. } => {
                stamp_isource(rhs, topo, *pos, *neg, source(wave));
            }
            Element::Fet(fet) => {
                let [vd, vg, vs, vb] = topo.fet_voltages(x, fet);
                let e = fet.eval(vd, vg, vs, vb);
                stamp_fet_partials(mat, topo, fet, &e);
                let ieq =
                    e.id_raw - (e.did_dvd * vd + e.did_dvg * vg + e.did_dvs * vs + e.did_dvb * vb);
                stamp_isource(rhs, topo, fet.d, fet.s, ieq);
            }
        }
        storage(idx, mat, rhs);
    }
}

/// Every Jacobian entry that [`assemble_real`] and a transient's companion
/// models can write for `circuit`, whatever the values: each node's gmin,
/// the stamps of every resistor, source and FET, and a conductance across
/// every capacitance, a FET's five included.
pub(crate) fn stamp_pattern(circuit: &Circuit, topo: &Topology) -> Vec<(usize, usize)> {
    let mut at: Vec<(usize, usize)> = (0..topo.node_unknowns()).map(|i| (i, i)).collect();
    let two_terminal = |at: &mut Vec<_>, a: NodeId, b: NodeId| {
        let (ia, ib) = (topo.vix(a), topo.vix(b));
        at.extend(ia.map(|i| (i, i)));
        at.extend(ib.map(|j| (j, j)));
        if let (Some(i), Some(j)) = (ia, ib) {
            at.extend([(i, j), (j, i)]);
        }
    };
    for (idx, el) in circuit.elements().iter().enumerate() {
        match el {
            Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => {
                two_terminal(&mut at, *a, *b);
            }
            Element::VSource { pos, neg, .. } => {
                if let Some(k) = topo.branch_ix(idx) {
                    for i in [*pos, *neg].into_iter().filter_map(|n| topo.vix(n)) {
                        at.extend([(i, k), (k, i)]);
                    }
                }
            }
            Element::ISource { .. } => {}
            Element::Fet(fet) => {
                let terminals = [fet.d, fet.g, fet.s, fet.b];
                for r in [fet.d, fet.s].into_iter().filter_map(|n| topo.vix(n)) {
                    at.extend(
                        terminals
                            .into_iter()
                            .filter_map(|n| topo.vix(n))
                            .map(|c| (r, c)),
                    );
                }
                // Only the terminal pairs are read, not the values.
                let caps = fet.capacitances(0.0, 0.0, 0.0, 0.0);
                for (a, b, _) in fet_cap_pairs(fet, &caps) {
                    two_terminal(&mut at, a, b);
                }
            }
        }
    }
    at
}

/// Largest node-voltage change one Newton iteration may take (V).
const DAMPING: f64 = 0.3;

/// Damped Newton–Raphson from `x0`, shared by DC and transient.
///
/// Each iteration clears `mat` and `rhs`, lets `assemble` stamp the system
/// linearized at the current iterate, and solves it in place: `mat` is left
/// holding its LU factors and `rhs` the solution. With `lu`, the clear and
/// the solve go through that workspace, whose pattern must cover every
/// stamp; without, through the dense routine. Both give the same solution.
/// Node voltages move by at most 0.3 V per iteration; branch currents take
/// the full step. The solve has converged once no node moves by `vtol` or
/// more. `Ok(None)` means `max_iterations` ran out; the caller reports that
/// in its own terms.
///
/// # Errors
///
/// [`AnalysisError::Linear`] for a singular or non-finite system, and
/// [`AnalysisError::Cancelled`] once `cancel` trips.
#[allow(clippy::too_many_arguments)]
pub(crate) fn newton(
    topo: &Topology,
    x0: &[f64],
    vtol: f64,
    max_iterations: usize,
    cancel: Option<&CancelToken>,
    mat: &mut Matrix<f64>,
    rhs: &mut [f64],
    mut lu: Option<&mut LuWorkspace>,
    mut assemble: impl FnMut(&[f64], &mut Matrix<f64>, &mut [f64]),
) -> Result<Option<Vec<f64>>, AnalysisError> {
    let mut x = x0.to_vec();
    for _ in 0..max_iterations {
        if let Some(token) = cancel {
            token.check()?;
        }
        match lu.as_deref() {
            Some(lu) => lu.clear(mat),
            None => mat.clear(),
        }
        rhs.iter_mut().for_each(|v| *v = 0.0);
        assemble(&x, mat, rhs);
        match lu.as_deref_mut() {
            Some(lu) => lu.solve_in_place(mat, rhs)?,
            None => mat.solve_in_place(rhs)?,
        }
        let x_new = &*rhs;
        let mut max_dv: f64 = 0.0;
        for i in 0..topo.node_unknowns() {
            max_dv = max_dv.max((x_new[i] - x[i]).abs());
        }
        for (i, xi) in x.iter_mut().enumerate() {
            if i < topo.node_unknowns() {
                *xi += (x_new[i] - *xi).clamp(-DAMPING, DAMPING);
            } else {
                *xi = x_new[i];
            }
        }
        if max_dv < vtol {
            return Ok(Some(x));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_counts_branches() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GROUND, 1.0);
        c.resistor("R1", a, b, 1e3).unwrap();
        c.isource("I1", b, Circuit::GROUND, 1e-3);
        c.vsource("V2", b, Circuit::GROUND, 2.0);
        let t = Topology::build(&c);
        assert_eq!(t.node_unknowns(), 2);
        assert_eq!(t.dim(), 4);
        assert_eq!(t.vix(Circuit::GROUND), None);
        assert_eq!(t.vix(a), Some(0));
        assert_eq!(t.branch_ix_by_name("v1"), Some(2));
        assert_eq!(t.branch_ix_by_name("V2"), Some(3));
        assert_eq!(t.branch_ix(0), Some(2));
        assert_eq!(t.branch_ix_by_name("I1"), None);
        assert_eq!(t.branch_ix_by_name("R1"), None);
    }
}
