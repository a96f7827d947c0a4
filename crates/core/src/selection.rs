//! Primitive selection (Algorithm 1, step 1): enumerate layout
//! configurations at constant total fins, simulate every metric of each,
//! bin by aspect ratio, and keep the minimum-cost layout per bin.

use prima_layout::{generate, CellConfig, PlacementPattern, PrimitiveLayout};
use prima_primitives::{Bias, EvalError, LayoutView, MetricValues, PrimitiveDef};
use prima_spice::analysis::AnalysisError;

use crate::accounting::Phase;
use crate::cost::{cost_of, CostBreakdown};
use crate::par::par_map;
use crate::resilience::{EvalFault, EvalLedger, FaultInjector};
use crate::{OptError, Optimizer};

/// A fully evaluated layout candidate.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The generated (and possibly tuned) layout.
    pub layout: PrimitiveLayout,
    /// Total cost (Eq. 5).
    pub cost: f64,
    /// Per-metric deviations.
    pub breakdown: Vec<CostBreakdown>,
    /// Schematic reference metric values.
    pub sch: MetricValues,
    /// Layout metric values.
    pub values: MetricValues,
}

/// Enumerates `nfin`/`nf`/`m` factorizations of `total_fins` combined with
/// every placement pattern and both dummy settings — the Fig. 5 option
/// space plus the dummy trade-off the paper calls out ("dummies reduce LOD
/// effects, but increase area and wire parasitics").
///
/// `nfin` is restricted to the given choices; `m` ranges `1..=m_max`;
/// `nf` must land in `[2, 64]`.
/// The `nfin` choices the flows explore — the fin-quantized unit-device
/// heights the cell generator supports. Shared with the schematic gate so
/// sizing legality is judged against exactly the space the flow searches.
pub const STD_NFIN_CHOICES: &[u32] = &[2, 3, 4, 6, 8, 12, 16, 24, 32];

/// The multiplier bound the flows explore (`m` in `nfin·nf·m`).
pub const STD_M_MAX: u32 = 8;

/// The standard configuration space for a primitive of `total_fins`:
/// [`enumerate_configs`] over [`STD_NFIN_CHOICES`] and [`STD_M_MAX`]. An
/// empty result means the sizing admits no legal `(nfin, nf, m)`
/// decomposition — the flow would find no candidates, so the schematic
/// gate rejects such an instance before any simulation runs.
pub fn std_config_space(total_fins: u64) -> Vec<CellConfig> {
    enumerate_configs(total_fins, STD_NFIN_CHOICES, STD_M_MAX)
}

pub fn enumerate_configs(total_fins: u64, nfin_choices: &[u32], m_max: u32) -> Vec<CellConfig> {
    let mut out = Vec::new();
    for &nfin in nfin_choices {
        if nfin == 0 || !total_fins.is_multiple_of(nfin as u64) {
            continue;
        }
        let rest = total_fins / nfin as u64;
        for m in 1..=m_max {
            if !rest.is_multiple_of(m as u64) {
                continue;
            }
            let nf = rest / m as u64;
            if !(2..=64).contains(&nf) {
                continue;
            }
            for pattern in PlacementPattern::ALL {
                for dummies in [true, false] {
                    let mut cfg = CellConfig::new(nfin, nf as u32, m, pattern);
                    cfg.dummies = dummies;
                    out.push(cfg);
                }
            }
        }
    }
    out
}

impl<'t> Optimizer<'t> {
    /// Evaluates the schematic reference metric values of a primitive.
    ///
    /// # Errors
    ///
    /// Propagates testbench failures.
    pub fn schematic_reference(
        &self,
        def: &PrimitiveDef,
        bias: &Bias,
        total_fins: u64,
    ) -> Result<MetricValues, OptError> {
        self.schematic_reference_at(def, bias, total_fins, Phase::Selection)
    }

    /// [`Optimizer::schematic_reference`] with an explicit accounting
    /// phase, so corner re-evaluations charge `Phase::Corners` rather than
    /// selection.
    ///
    /// # Errors
    ///
    /// Propagates testbench failures.
    pub fn schematic_reference_at(
        &self,
        def: &PrimitiveDef,
        bias: &Bias,
        total_fins: u64,
        phase: Phase,
    ) -> Result<MetricValues, OptError> {
        self.eval_values(
            def,
            LayoutView::Schematic { total_fins },
            bias,
            &Default::default(),
            phase,
        )
    }

    /// Evaluates one concrete layout against a precomputed schematic
    /// reference.
    ///
    /// # Errors
    ///
    /// Propagates testbench failures.
    pub fn evaluate_layout(
        &self,
        def: &PrimitiveDef,
        bias: &Bias,
        layout: PrimitiveLayout,
        sch: &MetricValues,
        phase: Phase,
    ) -> Result<Evaluated, OptError> {
        let values = self.eval_values(
            def,
            LayoutView::Layout(&layout),
            bias,
            &Default::default(),
            phase,
        )?;
        let (cost, breakdown) = cost_of(&def.metrics, sch, &values);
        Ok(Evaluated {
            layout,
            cost,
            breakdown,
            sch: sch.clone(),
            values,
        })
    }

    /// Algorithm 1, step 1: generates and evaluates every configuration,
    /// splits candidates into `n_bins` aspect-ratio bins (ordered by aspect
    /// ratio), and keeps the **whole ranked bin**: `ranked[0]` is the bin's
    /// minimum-cost winner, and the remainder is the fallback order the
    /// flow's repair loop walks when a winner later fails a sign-off gate.
    ///
    /// All candidate evaluations are independent and run through
    /// [`par_map`], mirroring the paper's parallel-simulation argument
    /// (Table V). A panicking evaluation is isolated to its own result and
    /// a failing one returns a typed error — both are recorded in `ledger`
    /// and the candidate is dropped, never aborting the run. `injector` may
    /// force either failure mode deterministically (see
    /// [`crate::resilience::FaultPlan`]); pass
    /// [`crate::resilience::NoFaults`] for a plain run.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::NoCandidates`] for an empty config list or when
    /// every candidate evaluation failed, and [`OptError::Cancelled`] when
    /// the attached cancel token tripped.
    pub fn select_bins(
        &self,
        def: &PrimitiveDef,
        bias: &Bias,
        configs: &[CellConfig],
        n_bins: usize,
        injector: &dyn FaultInjector,
        ledger: &mut EvalLedger,
    ) -> Result<Vec<BinRanked>, OptError> {
        if configs.is_empty() || n_bins == 0 {
            return Err(OptError::NoCandidates {
                stage: "selection: empty configuration list".to_string(),
            });
        }
        let sch = self.schematic_reference(def, bias, configs[0].total_fins())?;

        let indexed: Vec<(usize, &CellConfig)> = configs.iter().enumerate().collect();
        let results = par_map(&indexed, |&(idx, cfg)| -> Result<Evaluated, OptError> {
            match injector.eval_fault(&def.name, idx) {
                Some(EvalFault::Panic) => panic!("injected panic: {} candidate {idx}", def.name),
                Some(EvalFault::NonConvergence) => {
                    return Err(OptError::Eval(EvalError::Analysis(
                        AnalysisError::NoConvergence {
                            phase: format!("injected fault: {} candidate {idx}", def.name),
                            iterations: 0,
                        },
                    )));
                }
                None => {}
            }
            let layout = generate(self.tech(), &def.spec, cfg)?;
            self.evaluate_layout(def, bias, layout, &sch, Phase::Selection)
        });

        let mut evaluated: Vec<(usize, Evaluated)> = Vec::with_capacity(results.len());
        for (idx, result) in results.into_iter().enumerate() {
            match result {
                Ok(Ok(ev)) => evaluated.push((idx, ev)),
                // A cancelled candidate means the request (not the
                // candidate) is done: propagate without ledgering, so the
                // untried remainder is not condemned as failed and a later
                // uncancelled run starts from a clean slate.
                Ok(Err(OptError::Cancelled(c))) => return Err(OptError::Cancelled(c)),
                Ok(Err(e)) => ledger.record(&def.name, idx, false, e.to_string()),
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "candidate evaluation panicked".to_string());
                    ledger.record(&def.name, idx, true, format!("panic: {msg}"));
                }
            }
        }
        if evaluated.is_empty() {
            return Err(OptError::NoCandidates {
                stage: format!(
                    "selection: all {} candidate evaluations of {} failed",
                    configs.len(),
                    def.name
                ),
            });
        }

        // Stable sort by aspect ratio, quantile chunks, then a stable sort
        // by cost inside each bin, so rank 0 is the bin's first-minimal
        // candidate in aspect-ratio order.
        evaluated.sort_by(|a, b| {
            a.1.layout
                .aspect_ratio()
                .total_cmp(&b.1.layout.aspect_ratio())
        });
        let n_bins = n_bins.min(evaluated.len());
        let chunk = evaluated.len().div_ceil(n_bins);
        let mut bins: Vec<BinRanked> = Vec::with_capacity(n_bins);
        for bin in evaluated.chunks(chunk) {
            let mut ranked: Vec<(usize, Evaluated)> = bin.to_vec();
            ranked.sort_by(|a, b| a.1.cost.total_cmp(&b.1.cost));
            bins.push(BinRanked {
                candidates: ranked.iter().map(|(idx, _)| *idx).collect(),
                ranked: ranked.into_iter().map(|(_, ev)| ev).collect(),
            });
        }
        Ok(bins)
    }
}

/// One aspect-ratio bin with every surviving candidate ranked best-first
/// (by Eq. 5 cost). `ranked[0]` is the bin winner; the remainder is the
/// fallback order the repair loop walks.
#[derive(Debug, Clone)]
pub struct BinRanked {
    /// Original candidate indices (into the enumerated config list),
    /// parallel to `ranked`. These are the ids the [`EvalLedger`] tracks.
    pub candidates: Vec<usize>,
    /// Evaluated survivors, best (lowest-cost) first.
    pub ranked: Vec<Evaluated>,
}

impl BinRanked {
    /// `(def-relative candidate id, evaluated)` pairs in rank order for a
    /// given primitive name — the shape [`crate::resilience::RepairCursor`]
    /// consumes.
    pub fn id_pairs(&self, def: &str) -> Vec<(String, usize)> {
        self.candidates
            .iter()
            .map(|&c| (def.to_string(), c))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prima_pdk::Technology;
    use prima_primitives::Library;

    #[test]
    fn enumeration_covers_fig5_configs() {
        let configs = enumerate_configs(960, &[8, 12, 16, 24], 8);
        // Must contain the paper's Table III corners (as config triples).
        for (nfin, nf, m) in [(8u32, 20u32, 6u32), (16, 12, 5), (24, 20, 2), (12, 20, 4)] {
            assert!(
                configs
                    .iter()
                    .any(|c| c.nfin == nfin && c.nf == nf && c.m == m),
                "missing ({nfin},{nf},{m})"
            );
        }
        // Every candidate preserves total fins.
        for c in &configs {
            assert_eq!(c.total_fins(), 960);
        }
        // Patterns × dummy settings appear six-fold per shape.
        assert_eq!(configs.len() % 6, 0);
        // Both dummy settings are present.
        assert!(configs.iter().any(|c| c.dummies));
        assert!(configs.iter().any(|c| !c.dummies));
    }

    #[test]
    fn enumeration_handles_non_divisible() {
        assert!(enumerate_configs(7, &[2, 4], 4).is_empty());
        let one_fin = enumerate_configs(8, &[4], 2);
        assert!(!one_fin.is_empty());
    }

    #[test]
    fn select_returns_binned_options() {
        use crate::resilience::{EvalLedger, NoFaults};
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let dp = lib.get("dp").unwrap();
        let bias = Bias::nominal(&tech, &dp.class);
        let opt = Optimizer::new(&tech);
        // A smaller device keeps the test fast: 96 fins.
        let configs = enumerate_configs(96, &[4, 8], 4);
        assert!(configs.len() >= 9);
        let mut ledger = EvalLedger::new();
        let bins = opt
            .select_bins(dp, &bias, &configs, 3, &NoFaults, &mut ledger)
            .unwrap();
        assert!(ledger.is_empty());
        assert_eq!(bins.len(), 3);
        // Every candidate lands in exactly one bin.
        let ranked: usize = bins.iter().map(|b| b.ranked.len()).sum();
        assert_eq!(ranked, configs.len());
        // Bins are ordered by aspect ratio.
        for w in bins.windows(2) {
            let last = w[0].ranked.iter().map(|e| e.layout.aspect_ratio());
            let first = w[1].ranked.iter().map(|e| e.layout.aspect_ratio());
            assert!(last.fold(f64::MIN, f64::max) <= first.fold(f64::MAX, f64::min));
        }
        for bin in &bins {
            assert_eq!(bin.ranked.len(), bin.candidates.len());
            // Ranked best-first, with finite costs.
            for w in bin.ranked.windows(2) {
                assert!(w[0].cost <= w[1].cost);
            }
            assert!(bin.ranked.iter().all(|e| e.cost.is_finite()));
        }
        // The counter saw every simulation.
        let sims = opt.counter().count(crate::Phase::Selection);
        assert_eq!(sims, (configs.len() + 1) * dp.metrics.len());
    }

    #[test]
    fn select_bins_survives_injected_faults() {
        use crate::resilience::{EvalLedger, FaultPlan};
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let dp = lib.get("dp").unwrap();
        let bias = Bias::nominal(&tech, &dp.class);
        let opt = Optimizer::new(&tech);
        let configs = enumerate_configs(96, &[4, 8], 4);
        let plan = FaultPlan::new(5)
            .with_eval_fail_rate(0.3)
            .with_eval_panic("dp", 0);
        let mut ledger = EvalLedger::new();
        let bins = opt
            .select_bins(dp, &bias, &configs, 3, &plan, &mut ledger)
            .unwrap();
        assert!(!ledger.is_empty(), "expected some candidates to fail");
        assert!(ledger.is_failed("dp", 0));
        assert!(ledger.panics() >= 1);
        let survivors: usize = bins.iter().map(|b| b.ranked.len()).sum();
        assert_eq!(survivors + ledger.len(), configs.len());
        // No ledger-failed candidate survived into any bin.
        for bin in &bins {
            for &c in &bin.candidates {
                assert!(!ledger.is_failed("dp", c));
            }
        }
    }

    #[test]
    fn select_bins_errors_when_everything_fails() {
        use crate::resilience::{EvalLedger, FaultPlan};
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let dp = lib.get("dp").unwrap();
        let bias = Bias::nominal(&tech, &dp.class);
        let opt = Optimizer::new(&tech);
        let configs = enumerate_configs(96, &[4, 8], 4);
        let plan = FaultPlan::new(5).with_eval_fail_rate(1.0);
        let mut ledger = EvalLedger::new();
        assert!(matches!(
            opt.select_bins(dp, &bias, &configs, 3, &plan, &mut ledger),
            Err(OptError::NoCandidates { .. })
        ));
        assert_eq!(ledger.len(), configs.len());
    }

    #[test]
    fn select_bins_propagates_cancellation_without_ledgering() {
        use crate::resilience::{EvalLedger, FaultInjector};
        use crate::CancelToken;
        // Cancels the request as candidate 0 starts; candidates 2 and 7
        // would fail on their own.
        struct CancelFirst(CancelToken);
        impl FaultInjector for CancelFirst {
            fn eval_fault(&self, _def: &str, candidate: usize) -> Option<EvalFault> {
                match candidate {
                    0 => {
                        self.0.cancel();
                        None
                    }
                    2 | 7 => Some(EvalFault::NonConvergence),
                    _ => None,
                }
            }
        }
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let dp = lib.get("dp").unwrap();
        let bias = Bias::nominal(&tech, &dp.class);
        let token = CancelToken::new();
        let mut opt = Optimizer::new(&tech);
        opt.set_cancel(token.clone());
        let configs = enumerate_configs(96, &[4, 8], 4);
        let mut ledger = EvalLedger::new();
        let result = opt.select_bins(dp, &bias, &configs, 3, &CancelFirst(token), &mut ledger);
        assert!(matches!(result, Err(OptError::Cancelled(_))));
        // The request was cancelled, not the candidates: nothing is
        // condemned, not even the ones that failed on their own.
        assert!(ledger.is_empty());
    }

    #[test]
    fn select_rejects_empty_inputs() {
        use crate::resilience::{EvalLedger, NoFaults};
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let dp = lib.get("dp").unwrap();
        let bias = Bias::nominal(&tech, &dp.class);
        let opt = Optimizer::new(&tech);
        let configs = enumerate_configs(96, &[4, 8], 4);
        let mut ledger = EvalLedger::new();
        for (cfgs, n_bins) in [(&[][..], 3), (&configs[..], 0)] {
            assert!(matches!(
                opt.select_bins(dp, &bias, cfgs, n_bins, &NoFaults, &mut ledger),
                Err(OptError::NoCandidates { .. })
            ));
        }
        // Rejected before any simulation.
        assert_eq!(opt.counter().total(), 0);
        assert!(ledger.is_empty());
    }
}
