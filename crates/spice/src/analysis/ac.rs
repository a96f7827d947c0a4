//! Small-signal AC analysis: complex MNA around a DC operating point.

use crate::netlist::{Circuit, Element, NodeId};
use crate::num::{Complex, Matrix};

use super::dc::{DcSolver, OperatingPoint};
use super::{
    fet_cap_pairs, stamp_fet_partials, stamp_isource, stamp_two_terminal, stamp_vsource,
    AnalysisError, Topology,
};

/// Frequency grid specification for an AC sweep.
#[derive(Debug, Clone, PartialEq)]
pub enum FrequencySweep {
    /// Logarithmic sweep with `points_per_decade` points from `start` to
    /// `stop` (Hz), inclusive of the endpoints.
    Decade {
        /// Start frequency in Hz (> 0).
        start: f64,
        /// Stop frequency in Hz (> start).
        stop: f64,
        /// Points per decade (≥ 1).
        points_per_decade: usize,
    },
    /// An explicit list of frequencies in Hz.
    List(Vec<f64>),
}

impl FrequencySweep {
    /// Expands the specification into a concrete frequency list.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::BadParameters`] for non-positive or reversed
    /// frequency bounds.
    pub fn frequencies(&self) -> Result<Vec<f64>, AnalysisError> {
        match self {
            FrequencySweep::Decade {
                start,
                stop,
                points_per_decade,
            } => {
                if !(*start > 0.0 && stop > start && *points_per_decade >= 1) {
                    return Err(AnalysisError::BadParameters {
                        reason: format!(
                            "decade sweep requires 0 < start < stop, ppd >= 1; got {start}..{stop} ppd {points_per_decade}"
                        ),
                    });
                }
                let decades = (stop / start).log10();
                let n = (decades * *points_per_decade as f64).ceil() as usize + 1;
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let f = start * 10f64.powf(i as f64 / *points_per_decade as f64);
                    if f > *stop * (1.0 + 1e-12) {
                        break;
                    }
                    out.push(f);
                }
                if out.last().is_none_or(|&f| f < *stop) {
                    out.push(*stop);
                }
                Ok(out)
            }
            FrequencySweep::List(fs) => {
                if fs.is_empty() || fs.iter().any(|f| !(f.is_finite() && *f > 0.0)) {
                    return Err(AnalysisError::BadParameters {
                        reason: "frequency list must be non-empty and positive".to_string(),
                    });
                }
                Ok(fs.clone())
            }
        }
    }
}

/// Result of an AC sweep: one complex MNA solution per frequency.
#[derive(Debug, Clone)]
pub struct AcResult {
    topo: Topology,
    freqs: Vec<f64>,
    solutions: Vec<Vec<Complex>>,
}

impl AcResult {
    /// The swept frequencies in Hz.
    pub fn frequencies(&self) -> &[f64] {
        &self.freqs
    }

    /// Complex node voltage at frequency index `fidx`.
    pub fn phasor(&self, node: NodeId, fidx: usize) -> Complex {
        match self.topo.vix(node) {
            Some(i) => self.solutions[fidx][i],
            None => Complex::ZERO,
        }
    }

    /// Complex branch current of an independent voltage source at `fidx`.
    pub fn branch_phasor(&self, name: &str, fidx: usize) -> Option<Complex> {
        self.topo
            .branch_ix_by_name(name)
            .map(|i| self.solutions[fidx][i])
    }

    /// Magnitude response of a node across the sweep.
    pub fn magnitude(&self, node: NodeId) -> Vec<f64> {
        (0..self.freqs.len())
            .map(|i| self.phasor(node, i).norm())
            .collect()
    }
}

/// AC solver: computes the operating point, then sweeps frequency.
#[derive(Debug, Clone, Default)]
pub struct AcSolver {
    dc: DcSolver,
}

impl AcSolver {
    /// Creates a solver with default DC convergence settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs the sweep, computing the operating point internally.
    ///
    /// # Errors
    ///
    /// Propagates DC convergence failures and singular AC systems.
    pub fn solve(
        &self,
        circuit: &Circuit,
        sweep: &FrequencySweep,
    ) -> Result<AcResult, AnalysisError> {
        let op = self.dc.solve(circuit)?;
        self.solve_at_op(circuit, &op, sweep)
    }

    /// Runs the sweep around an existing operating point (avoids re-solving
    /// DC when several sweeps share a bias).
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::Linear`] if the complex system is singular at
    /// any frequency.
    pub fn solve_at_op(
        &self,
        circuit: &Circuit,
        op: &OperatingPoint,
        sweep: &FrequencySweep,
    ) -> Result<AcResult, AnalysisError> {
        let topo = Topology::build(circuit);
        let freqs = sweep.frequencies()?;
        let dim = topo.dim();
        let mut solutions = Vec::with_capacity(freqs.len());
        let mut mat = Matrix::<Complex>::zero(dim);
        let mut rhs = vec![Complex::ZERO; dim];

        for &f in &freqs {
            let omega = 2.0 * std::f64::consts::PI * f;
            mat.clear();
            rhs.iter_mut().for_each(|v| *v = Complex::ZERO);
            assemble_ac(circuit, &topo, op, omega, &mut mat, &mut rhs);
            let x = mat.solve(&rhs)?;
            solutions.push(x);
        }
        Ok(AcResult {
            topo,
            freqs,
            solutions,
        })
    }
}

// The topology is derived from the very circuit being stamped, so every
// voltage source has a branch row and the operating point covers every FET;
// `expect` documents that invariant rather than a recoverable condition.
#[allow(clippy::expect_used)]
fn assemble_ac(
    circuit: &Circuit,
    topo: &Topology,
    op: &OperatingPoint,
    omega: f64,
    mat: &mut Matrix<Complex>,
    rhs: &mut [Complex],
) {
    const GMIN: f64 = 1e-12;
    for i in 0..topo.node_unknowns() {
        mat.stamp(i, i, Complex::from_re(GMIN));
    }
    for (idx, el) in circuit.elements().iter().enumerate() {
        match el {
            Element::Resistor { a, b, ohms, .. } => {
                stamp_two_terminal(mat, topo, *a, *b, Complex::from_re(1.0 / ohms));
            }
            Element::Capacitor { a, b, farads, .. } => {
                stamp_two_terminal(mat, topo, *a, *b, Complex::new(0.0, omega * farads));
            }
            Element::VSource {
                pos, neg, ac_mag, ..
            } => {
                let k = topo.branch_ix(idx).expect("vsource branch");
                stamp_vsource(mat, rhs, topo, *pos, *neg, k, Complex::from_re(*ac_mag));
            }
            Element::ISource {
                pos, neg, ac_mag, ..
            } => {
                stamp_isource(rhs, topo, *pos, *neg, Complex::from_re(*ac_mag));
            }
            Element::Fet(fet) => {
                let fop = op
                    .fet_op(&fet.name)
                    .expect("operating point covers every FET");
                // Re-evaluate raw-frame partials at the OP voltages.
                let vd = op.voltage(fet.d);
                let vg = op.voltage(fet.g);
                let vs = op.voltage(fet.s);
                let vb = op.voltage(fet.b);
                stamp_fet_partials(mat, topo, fet, &fet.eval(vd, vg, vs, vb));
                // Bias-dependent capacitances.
                for (a, b, c) in fet_cap_pairs(fet, &fop.caps) {
                    if c > 0.0 {
                        stamp_two_terminal(mat, topo, a, b, Complex::new(0.0, omega * c));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;

    #[test]
    fn sweep_expansion_decade() {
        let s = FrequencySweep::Decade {
            start: 1e3,
            stop: 1e6,
            points_per_decade: 1,
        };
        let f = s.frequencies().unwrap();
        assert_eq!(f.len(), 4);
        assert!((f[0] - 1e3).abs() < 1.0 && (f[3] - 1e6).abs() < 1.0);
    }

    #[test]
    fn sweep_rejects_bad_bounds() {
        assert!(FrequencySweep::Decade {
            start: 0.0,
            stop: 1e6,
            points_per_decade: 10
        }
        .frequencies()
        .is_err());
        assert!(FrequencySweep::List(vec![]).frequencies().is_err());
        assert!(FrequencySweep::List(vec![-1.0]).frequencies().is_err());
    }

    #[test]
    fn rc_lowpass_pole() {
        // R = 1 kΩ, C = 1 nF: f3dB = 1/(2πRC) ≈ 159.15 kHz.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource_ac("V1", vin, Circuit::GROUND, 0.0, 1.0);
        c.resistor("R1", vin, out, 1e3).unwrap();
        c.capacitor("C1", out, Circuit::GROUND, 1e-9).unwrap();
        let f3db = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 1e-9);
        let res = AcSolver::new()
            .solve(
                &c,
                &FrequencySweep::List(vec![f3db / 100.0, f3db, f3db * 100.0]),
            )
            .unwrap();
        let mags = res.magnitude(out);
        assert!((mags[0] - 1.0).abs() < 1e-3);
        assert!((mags[1] - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!(mags[2] < 0.02);
        // Phase at the pole is −45°.
        let ph = res.phasor(out, 1).arg();
        assert!((ph + std::f64::consts::FRAC_PI_4).abs() < 1e-3);
    }

    #[test]
    fn vsource_ammeter_reads_capacitor_current() {
        // 0 V source in series with a cap: branch current = jωC·V.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let x = c.node("x");
        c.vsource_ac("VIN", vin, Circuit::GROUND, 0.0, 1.0);
        c.vsource("VMEAS", vin, x, 0.0);
        c.capacitor("C1", x, Circuit::GROUND, 1e-12).unwrap();
        let f = 1e9;
        let res = AcSolver::new()
            .solve(&c, &FrequencySweep::List(vec![f]))
            .unwrap();
        let i = res.branch_phasor("VMEAS", 0).unwrap();
        let expect = 2.0 * std::f64::consts::PI * f * 1e-12;
        assert!((i.norm() - expect).abs() / expect < 1e-6);
        // Current through a cap leads voltage by 90°.
        assert!((i.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-6);
    }
}
