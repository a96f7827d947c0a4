//! Structured diagnostics shared by every static gate.
//!
//! Both sign-off passes — `prima-verify` (geometry + connectivity) and
//! `prima-erc` (electrical rules + symmetry lints) — report through the
//! same types: a [`Violation`] names the rule that fired, where, and by
//! how much; a [`VerifyReport`] aggregates one pass. Keeping the types
//! here (below both crates in the dependency graph) means the flow can
//! gate on either report identically and bench tooling prints them with
//! one code path.

use std::fmt;

use prima_geom::Rect;

/// How bad a finding is. Gates fail on [`Severity::Error`]; warnings and
/// degradations are surfaced but do not abort a flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Severity {
    /// Must be fixed; the gate fails.
    #[default]
    Error,
    /// Suspicious but not fatal; reported without failing the gate.
    Warning,
    /// The check itself ran in a degraded (conservative) mode — e.g. a
    /// current-propagation pass that fell back to worst-case bounds — so
    /// the result is safe but less precise than intended. Reported without
    /// failing the gate; resilience tooling aggregates these.
    Degraded,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Degraded => "degraded",
        })
    }
}

/// What kind of check produced a violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleKind {
    /// Shape narrower than the layer's minimum width.
    Width,
    /// Same-layer clearance below minimum spacing.
    Spacing,
    /// Connected component below minimum area.
    Area,
    /// Shape off its placement grid.
    Grid,
    /// Via cut insufficiently enclosed by metal.
    Enclosure,
    /// Geometric overlap of shapes on different nets.
    Short,
    /// Overlapping placed cell outlines.
    Placement,
    /// Net electrically broken (or a pin left unreached).
    Open,
    /// Expected net with no drawn wiring at all.
    Missing,
    /// Flow-level consistency lint (weights, bins, port intervals).
    Lint,
    /// Electromigration: current density beyond a wire or via limit.
    Em,
    /// Static IR drop on a supply net beyond the technology budget.
    Ir,
    /// Symmetry or matching constraint not honored in geometry.
    Symmetry,
    /// Floating gate: a net that nothing drives.
    Floating,
    /// Declared primitive port left unconnected.
    Dangling,
    /// Cell farther from a well tap row than the technology allows.
    Tap,
}

impl RuleKind {
    /// `true` for the kinds produced by the electrical (ERC) pass.
    pub fn is_electrical(self) -> bool {
        matches!(
            self,
            RuleKind::Em
                | RuleKind::Ir
                | RuleKind::Symmetry
                | RuleKind::Floating
                | RuleKind::Dangling
                | RuleKind::Tap
        )
    }
}

impl fmt::Display for RuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RuleKind::Width => "width",
            RuleKind::Spacing => "spacing",
            RuleKind::Area => "area",
            RuleKind::Grid => "grid",
            RuleKind::Enclosure => "enclosure",
            RuleKind::Short => "short",
            RuleKind::Placement => "placement",
            RuleKind::Open => "open",
            RuleKind::Missing => "missing",
            RuleKind::Lint => "lint",
            RuleKind::Em => "em",
            RuleKind::Ir => "ir",
            RuleKind::Symmetry => "symmetry",
            RuleKind::Floating => "floating",
            RuleKind::Dangling => "dangling",
            RuleKind::Tap => "tap",
        };
        f.write_str(s)
    }
}

/// One structured diagnostic: which rule failed, where, and by how much.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable rule identifier, e.g. `"M2.SPACE"`, `"LVS.OPEN"`,
    /// `"EM.WIDTH"`, `"SYM.MIRROR"`, `"LINT.WEIGHTS"`.
    pub rule_id: String,
    /// What kind of check fired.
    pub kind: RuleKind,
    /// How bad the finding is.
    pub severity: Severity,
    /// Drawn layer involved, when the rule is geometric.
    pub layer: Option<String>,
    /// Cell instance or net the violation belongs to, when known.
    pub scope: Option<String>,
    /// Offending rectangles (cell-local for cell DRC, chip coordinates
    /// for placement/routing checks).
    pub rects: Vec<Rect>,
    /// Measured value (nm, nm² for area; µV or µA for electrical rules),
    /// when the rule is quantitative.
    pub found: Option<i64>,
    /// Required value the measurement failed against.
    pub required: Option<i64>,
    /// Human-readable one-line explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.rule_id, self.message)?;
        if let (Some(found), Some(required)) = (self.found, self.required) {
            write!(f, " (found {found}, required {required})")?;
        }
        Ok(())
    }
}

/// Aggregated result of a verification pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Circuit (or cell) the pass ran on.
    pub circuit: String,
    /// Names of the checks that actually ran, in order.
    pub checks_run: Vec<String>,
    /// All violations found, in discovery order.
    pub violations: Vec<Violation>,
    /// Number of nets examined by the connectivity pass.
    pub nets_checked: usize,
    /// Number of rectangles examined by the DRC pass.
    pub rects_checked: usize,
}

impl VerifyReport {
    /// `true` when no check fired.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of violations of one kind.
    pub fn count(&self, kind: RuleKind) -> usize {
        self.violations.iter().filter(|v| v.kind == kind).count()
    }

    /// Number of [`Severity::Error`] findings.
    pub fn error_count(&self) -> usize {
        self.violations
            .iter()
            .filter(|v| v.severity == Severity::Error)
            .count()
    }

    /// `true` when no [`Severity::Error`] finding fired — degraded-mode
    /// and warning diagnostics may still be present. This is the predicate
    /// flow gates fail on.
    pub fn is_passing(&self) -> bool {
        self.error_count() == 0
    }

    /// `true` if some violation carries the given rule id.
    pub fn has_rule(&self, rule_id: &str) -> bool {
        self.violations.iter().any(|v| v.rule_id == rule_id)
    }

    /// One-line summary suitable for a bench report.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!(
                "{}: clean ({} rects, {} nets, {} checks)",
                self.circuit,
                self.rects_checked,
                self.nets_checked,
                self.checks_run.len()
            )
        } else {
            format!(
                "{}: {} violation(s) — drc {} / lvs {} / erc {} / lint {}",
                self.circuit,
                self.violations.len(),
                self.violations
                    .iter()
                    .filter(|v| {
                        !v.kind.is_electrical()
                            && !matches!(
                                v.kind,
                                RuleKind::Open
                                    | RuleKind::Missing
                                    | RuleKind::Short
                                    | RuleKind::Lint
                            )
                    })
                    .count(),
                self.violations
                    .iter()
                    .filter(|v| {
                        matches!(v.kind, RuleKind::Open | RuleKind::Missing | RuleKind::Short)
                    })
                    .count(),
                self.violations
                    .iter()
                    .filter(|v| v.kind.is_electrical())
                    .count(),
                self.count(RuleKind::Lint),
            )
        }
    }

    /// Records that a named check ran and appends its findings.
    pub fn absorb(&mut self, check: &str, mut violations: Vec<Violation>) {
        self.checks_run.push(check.to_string());
        self.violations.append(&mut violations);
    }

    /// Puts the report into canonical form: violations in the stable
    /// [`sort_dedupe`] order with exact duplicates removed. Every gate
    /// (verify, erc, schem) finalizes before returning, so repeated runs —
    /// and runs over shuffled input orders — produce identical reports.
    pub fn finalize(&mut self) {
        sort_dedupe(&mut self.violations);
    }
}

/// Stable severity rank: errors first, then warnings, then degradations —
/// the order a reader triages them in.
fn severity_rank(s: Severity) -> u8 {
    match s {
        Severity::Error => 0,
        Severity::Warning => 1,
        Severity::Degraded => 2,
    }
}

/// Sorts a violation list into a stable canonical order — severity
/// (errors first), then rule id, scope, layer, measured values, message —
/// and removes exact duplicates. Input order never leaks through: two gate
/// runs that discover the same findings in different orders (parallel
/// sweeps, shuffled instance iteration) finalize to the same list, and a
/// finding reported twice by overlapping checks appears once.
pub fn sort_dedupe(violations: &mut Vec<Violation>) {
    violations.sort_by(|a, b| {
        severity_rank(a.severity)
            .cmp(&severity_rank(b.severity))
            .then_with(|| a.rule_id.cmp(&b.rule_id))
            .then_with(|| a.scope.cmp(&b.scope))
            .then_with(|| a.layer.cmp(&b.layer))
            .then_with(|| a.found.cmp(&b.found))
            .then_with(|| a.required.cmp(&b.required))
            .then_with(|| a.message.cmp(&b.message))
            .then_with(|| (a.kind as u8).cmp(&(b.kind as u8)))
            .then_with(|| a.rects.len().cmp(&b.rects.len()))
    });
    violations.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule_id: &str, kind: RuleKind, severity: Severity) -> Violation {
        Violation {
            rule_id: rule_id.to_string(),
            kind,
            severity,
            layer: None,
            scope: None,
            rects: Vec::new(),
            found: Some(3),
            required: Some(2),
            message: "test finding".to_string(),
        }
    }

    #[test]
    fn report_counts_by_kind_severity_and_rule() {
        let mut report = VerifyReport {
            circuit: "fixture".into(),
            ..VerifyReport::default()
        };
        report.absorb("erc.em", vec![v("EM.WIDTH", RuleKind::Em, Severity::Error)]);
        report.absorb(
            "erc.symmetry",
            vec![v("SYM.MIRROR", RuleKind::Symmetry, Severity::Warning)],
        );
        assert!(!report.is_clean());
        assert_eq!(report.count(RuleKind::Em), 1);
        assert_eq!(report.error_count(), 1);
        assert!(report.has_rule("SYM.MIRROR"));
        assert!(!report.has_rule("IR.BUDGET"));
        assert_eq!(report.checks_run, vec!["erc.em", "erc.symmetry"]);
        assert!(report.summary().contains("erc 2"));
    }

    #[test]
    fn violation_display_includes_measurement() {
        let s = v("EM.WIDTH", RuleKind::Em, Severity::Error).to_string();
        assert_eq!(s, "EM.WIDTH: test finding (found 3, required 2)");
    }

    #[test]
    fn sort_dedupe_orders_by_severity_then_rule_and_drops_duplicates() {
        let mut list = vec![
            v("SYM.MIRROR", RuleKind::Symmetry, Severity::Warning),
            v("EM.WIDTH", RuleKind::Em, Severity::Error),
            v("EM.WIDTH", RuleKind::Em, Severity::Error),
            v("EM.VIA", RuleKind::Em, Severity::Error),
        ];
        sort_dedupe(&mut list);
        assert_eq!(list.len(), 3, "exact duplicate removed");
        assert_eq!(list[0].rule_id, "EM.VIA");
        assert_eq!(list[1].rule_id, "EM.WIDTH");
        assert_eq!(list[2].rule_id, "SYM.MIRROR", "warnings sort last");
    }

    #[test]
    fn sort_dedupe_is_input_order_independent() {
        let items = vec![
            v("A.ONE", RuleKind::Lint, Severity::Warning),
            v("B.TWO", RuleKind::Short, Severity::Error),
            v("A.TWO", RuleKind::Lint, Severity::Error),
            v("B.TWO", RuleKind::Short, Severity::Error),
        ];
        let mut fwd = items.clone();
        let mut rev: Vec<Violation> = items.into_iter().rev().collect();
        sort_dedupe(&mut fwd);
        sort_dedupe(&mut rev);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn finalize_canonicalizes_a_report() {
        let mut report = VerifyReport::default();
        report.absorb("x", vec![v("Z.RULE", RuleKind::Lint, Severity::Warning)]);
        report.absorb("y", vec![v("A.RULE", RuleKind::Lint, Severity::Error)]);
        report.absorb("y2", vec![v("A.RULE", RuleKind::Lint, Severity::Error)]);
        report.finalize();
        assert_eq!(report.violations.len(), 2);
        assert_eq!(report.violations[0].rule_id, "A.RULE");
        // checks_run keeps its run order; only findings are canonicalized.
        assert_eq!(report.checks_run, vec!["x", "y", "y2"]);
    }
}
