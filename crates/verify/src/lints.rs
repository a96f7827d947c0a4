//! Flow-level consistency lints.
//!
//! These checks do not look at geometry; they validate the optimization
//! bookkeeping the flow ran on:
//!
//! * **LINT.WEIGHTS** — metric weights must be finite, non-negative, and
//!   have a positive sum, otherwise the normalized cost of Eq. 5–6 is
//!   undefined.
//! * **LINT.BINS** — aspect-ratio binning must partition the evaluated
//!   candidates: every candidate finite and positive, a positive bin
//!   count, and bins (equal chunks of the sorted candidates) covering
//!   every candidate exactly once with monotone boundaries.
//! * **LINT.PORTS** — every Algorithm-2 port interval `[w_min, w_max]`
//!   must be non-empty, and the reconciled width (when present) must lie
//!   inside it, with at most one reconciled width per net.

use std::collections::HashMap;

use crate::{RuleKind, Severity, Violation};

/// One port-width constraint with its reconciliation outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortInterval {
    /// Net the constraint applies to.
    pub net: String,
    /// Minimum acceptable width (number of parallel wires).
    pub w_min: u32,
    /// Maximum acceptable width; `None` = unbounded.
    pub w_max: Option<u32>,
    /// Width chosen by reconciliation, when that stage ran.
    pub reconciled: Option<u32>,
}

/// Inputs to the lint pass; default (empty) inputs lint nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintInputs {
    /// Metric name and cost weight, as fed to the cost function.
    pub metric_weights: Vec<(String, f64)>,
    /// Aspect ratios of every evaluated configuration.
    pub aspect_candidates: Vec<f64>,
    /// Number of aspect-ratio bins the selection stage used.
    pub n_bins: usize,
    /// Port intervals with reconciliation outcomes.
    pub ports: Vec<PortInterval>,
}

/// Runs every lint over the provided inputs.
pub fn check_lints(inputs: &LintInputs) -> Vec<Violation> {
    let mut out = Vec::new();
    out.extend(lint_weights(&inputs.metric_weights));
    out.extend(lint_aspect_bins(&inputs.aspect_candidates, inputs.n_bins));
    out.extend(lint_ports(&inputs.ports));
    out
}

/// Weights must be normalizable: finite, non-negative, positive sum.
pub fn lint_weights(weights: &[(String, f64)]) -> Vec<Violation> {
    let mut out = Vec::new();
    if weights.is_empty() {
        return out;
    }
    let mut sum = 0.0;
    for (name, w) in weights {
        if !w.is_finite() || *w < 0.0 {
            out.push(Violation::new(
                "LINT.WEIGHTS",
                RuleKind::Lint,
                Severity::Error,
                Some(name.clone()),
                format!("metric {name}: weight {w} is not finite and non-negative"),
            ));
        } else {
            sum += w;
        }
    }
    if sum <= 0.0 {
        out.push(Violation::new(
            "LINT.WEIGHTS",
            RuleKind::Lint,
            Severity::Error,
            None,
            format!("weights sum to {sum}; normalized cost (Eq. 5-6) is undefined"),
        ));
    }
    out
}

/// Bins must partition the sorted candidates: all finite and positive,
/// positive bin count, monotone non-overlapping chunk boundaries covering
/// every candidate.
pub fn lint_aspect_bins(candidates: &[f64], n_bins: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    if candidates.is_empty() {
        return out;
    }
    let mut sorted = Vec::with_capacity(candidates.len());
    for &ar in candidates {
        if !ar.is_finite() || ar <= 0.0 {
            out.push(Violation::new(
                "LINT.BINS",
                RuleKind::Lint,
                Severity::Error,
                None,
                format!("aspect-ratio candidate {ar} is not finite and positive"),
            ));
        } else {
            sorted.push(ar);
        }
    }
    if n_bins == 0 {
        out.push(Violation::new(
            "LINT.BINS",
            RuleKind::Lint,
            Severity::Error,
            None,
            "selection ran with zero aspect-ratio bins".to_string(),
        ));
        return out;
    }
    if sorted.is_empty() {
        return out;
    }
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let chunk = sorted.len().div_ceil(n_bins);
    let bins: Vec<&[f64]> = sorted.chunks(chunk).collect();
    let covered: usize = bins.iter().map(|b| b.len()).sum();
    if covered != sorted.len() {
        out.push(Violation::new(
            "LINT.BINS",
            RuleKind::Lint,
            Severity::Error,
            None,
            format!(
                "bins cover {covered} of {} candidates — binning is not exhaustive",
                sorted.len()
            ),
        ));
    }
    for w in bins.windows(2) {
        let (hi_prev, lo_next) = (w[0][w[0].len() - 1], w[1][0]);
        if hi_prev > lo_next {
            out.push(Violation::new(
                "LINT.BINS",
                RuleKind::Lint,
                Severity::Error,
                None,
                format!("bin boundary decreases ({hi_prev} > {lo_next}) — bins overlap"),
            ));
        }
    }
    out
}

/// Port intervals must be non-empty and reconciled consistently.
pub fn lint_ports(ports: &[PortInterval]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut reconciled_by_net: HashMap<&str, u32> = HashMap::new();
    for p in ports {
        if p.w_min == 0 {
            out.push(Violation::new(
                "LINT.PORTS",
                RuleKind::Lint,
                Severity::Error,
                Some(p.net.clone()),
                format!("net {}: port interval starts at width 0", p.net),
            ));
        }
        if let Some(w_max) = p.w_max {
            if w_max < p.w_min {
                out.push(Violation::new(
                    "LINT.PORTS",
                    RuleKind::Lint,
                    Severity::Error,
                    Some(p.net.clone()),
                    format!(
                        "net {}: empty port interval [{}, {}]",
                        p.net, p.w_min, w_max
                    ),
                ));
                continue;
            }
        }
        if let Some(w) = p.reconciled {
            let below = w < p.w_min;
            let above = p.w_max.is_some_and(|m| w > m);
            if below || above {
                out.push(Violation::new(
                    "LINT.PORTS",
                    RuleKind::Lint,
                    Severity::Error,
                    Some(p.net.clone()),
                    format!(
                        "net {}: reconciled width {w} outside [{}, {}]",
                        p.net,
                        p.w_min,
                        p.w_max.map_or("∞".to_string(), |m| m.to_string())
                    ),
                ));
            }
            if let Some(&prev) = reconciled_by_net.get(p.net.as_str()) {
                if prev != w {
                    out.push(Violation::new(
                        "LINT.PORTS",
                        RuleKind::Lint,
                        Severity::Error,
                        Some(p.net.clone()),
                        format!(
                            "net {}: reconciled to both {prev} and {w} — inconsistent",
                            p.net
                        ),
                    ));
                }
            } else {
                reconciled_by_net.insert(p.net.as_str(), w);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_inputs_lint_clean() {
        let inputs = LintInputs {
            metric_weights: vec![("gain".into(), 1.0), ("power".into(), 0.5)],
            aspect_candidates: vec![0.5, 1.0, 2.0, 4.0, 0.8],
            n_bins: 3,
            ports: vec![PortInterval {
                net: "out".into(),
                w_min: 1,
                w_max: Some(4),
                reconciled: Some(2),
            }],
        };
        assert!(check_lints(&inputs).is_empty());
    }

    #[test]
    fn bad_weight_and_zero_sum_flagged() {
        let v = lint_weights(&[("a".into(), f64::NAN), ("b".into(), 0.0)]);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule_id == "LINT.WEIGHTS"));
    }

    #[test]
    fn non_finite_candidate_and_zero_bins_flagged() {
        let v = lint_aspect_bins(&[1.0, f64::INFINITY], 2);
        assert_eq!(v.len(), 1);
        let v = lint_aspect_bins(&[1.0, 2.0], 0);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn empty_interval_and_out_of_range_reconciliation_flagged() {
        let v = lint_ports(&[
            PortInterval {
                net: "a".into(),
                w_min: 3,
                w_max: Some(2),
                reconciled: None,
            },
            PortInterval {
                net: "b".into(),
                w_min: 2,
                w_max: Some(4),
                reconciled: Some(8),
            },
        ]);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule_id == "LINT.PORTS"));
    }

    #[test]
    fn conflicting_reconciliation_flagged() {
        let v = lint_ports(&[
            PortInterval {
                net: "n".into(),
                w_min: 1,
                w_max: None,
                reconciled: Some(2),
            },
            PortInterval {
                net: "n".into(),
                w_min: 1,
                w_max: None,
                reconciled: Some(3),
            },
        ]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("inconsistent"));
    }
}
