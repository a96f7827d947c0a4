//! Circuit analyses: DC operating point, small-signal AC, and transient.
//!
//! All three share one modified-nodal-analysis unknown layout, built by
//! [`Topology`]: the voltages of every non-ground node followed by one branch
//! current per voltage-defined element (independent V sources, VCVS, and
//! inductors).

use std::collections::HashMap;
use std::fmt;

use crate::netlist::{Circuit, Element, NodeId};
use crate::num::LinearError;

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
    /// The ambient [`CancelToken`](prima_cache::CancelToken) tripped
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

/// Kind of MNA branch (current unknown) an element introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchKind {
    /// Independent voltage source.
    VSource,
    /// Voltage-controlled voltage source.
    Vcvs,
    /// Inductor (short in DC, integrated in transient).
    Inductor,
}

/// The MNA unknown layout of a circuit.
///
/// Unknown vector `x` is `[v(node 1), …, v(node N), i(branch 0), …]`.
#[derive(Debug, Clone)]
pub struct Topology {
    n_nodes: usize,
    /// (element index, kind) per branch, in element order.
    branches: Vec<(usize, BranchKind)>,
    /// element index -> branch ordinal.
    branch_of_element: HashMap<usize, usize>,
    /// element name -> branch ordinal (for current measurements).
    branch_by_name: HashMap<String, usize>,
}

impl Topology {
    /// Builds the unknown layout for a circuit.
    pub fn build(circuit: &Circuit) -> Self {
        let n_nodes = circuit.node_count() - 1;
        let mut branches = Vec::new();
        let mut branch_of_element = HashMap::new();
        let mut branch_by_name = HashMap::new();
        for (idx, el) in circuit.elements().iter().enumerate() {
            let kind = match el {
                Element::VSource { .. } => Some(BranchKind::VSource),
                Element::Vcvs { .. } => Some(BranchKind::Vcvs),
                Element::Inductor { .. } => Some(BranchKind::Inductor),
                _ => None,
            };
            if let Some(kind) = kind {
                let ordinal = branches.len();
                branches.push((idx, kind));
                branch_of_element.insert(idx, ordinal);
                branch_by_name.insert(el.name().to_ascii_lowercase(), ordinal);
            }
        }
        Topology {
            n_nodes,
            branches,
            branch_of_element,
            branch_by_name,
        }
    }

    /// Number of non-ground nodes.
    #[inline]
    pub fn node_unknowns(&self) -> usize {
        self.n_nodes
    }

    /// Number of branch-current unknowns.
    #[inline]
    pub fn branch_unknowns(&self) -> usize {
        self.branches.len()
    }

    /// Total MNA dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.n_nodes + self.branches.len()
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
        self.branch_of_element
            .get(&element_index)
            .map(|&b| self.n_nodes + b)
    }

    /// Unknown index of the branch current of the element named `name`
    /// (case-insensitive). Only voltage-defined elements have branches.
    #[inline]
    pub fn branch_ix_by_name(&self, name: &str) -> Option<usize> {
        self.branch_by_name
            .get(&name.to_ascii_lowercase())
            .map(|&b| self.n_nodes + b)
    }

    /// The branches in element order: `(element index, kind)`.
    pub fn branches(&self) -> &[(usize, BranchKind)] {
        &self.branches
    }

    /// Voltage of `node` given a solution vector (0 for ground).
    #[inline]
    pub fn voltage_in(&self, x: &[f64], node: NodeId) -> f64 {
        match self.vix(node) {
            Some(i) => x[i],
            None => 0.0,
        }
    }
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
        c.inductor("L1", b, Circuit::GROUND, 1e-9).unwrap();
        c.vcvs("E1", b, Circuit::GROUND, a, Circuit::GROUND, 2.0);
        let t = Topology::build(&c);
        assert_eq!(t.node_unknowns(), 2);
        assert_eq!(t.branch_unknowns(), 3);
        assert_eq!(t.dim(), 5);
        assert_eq!(t.vix(Circuit::GROUND), None);
        assert_eq!(t.vix(a), Some(0));
        assert_eq!(t.branch_ix_by_name("v1"), Some(2));
        assert_eq!(t.branch_ix_by_name("L1"), Some(3));
        assert_eq!(t.branch_ix_by_name("E1"), Some(4));
        assert_eq!(t.branch_ix_by_name("R1"), None);
    }
}
