//! The benchmark circuits, the policies every job runs under, and the
//! output checks and Table VI deviation shared by all workloads.

use std::collections::HashMap;
use std::path::PathBuf;

use prima_flow::circuits::{CircuitSpec, CsAmp, FiveTOta, RoVco, StrongArm};
use prima_flow::{
    CachePolicy, CornerPolicy, FlowError, FlowOptions, FlowOutcome, GdsPolicy, Health, Realization,
    SolverLimits, VerifyPolicy,
};
use prima_gds::{GdsArtifact, GdsLibrary};
use prima_pdk::Technology;
use prima_primitives::{Bias, Library};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Circuit {
    CsAmp,
    Ota,
    StrongArm,
    Vco,
}

impl Circuit {
    pub fn name(self) -> &'static str {
        match self {
            Circuit::CsAmp => "cs_amp",
            Circuit::Ota => "ota5t",
            Circuit::StrongArm => "strongarm",
            Circuit::Vco => "vco",
        }
    }

    pub fn spec(self) -> CircuitSpec {
        match self {
            Circuit::CsAmp => CsAmp::spec(),
            Circuit::Ota => FiveTOta::spec(),
            Circuit::StrongArm => StrongArm::spec(),
            Circuit::Vco => RoVco::small().spec(),
        }
    }

    fn biases(self, tech: &Technology, lib: &Library) -> Result<HashMap<String, Bias>, FlowError> {
        match self {
            Circuit::CsAmp => CsAmp::biases(tech, lib),
            Circuit::Ota => FiveTOta::biases(tech, lib),
            Circuit::StrongArm => StrongArm::biases(tech, lib),
            Circuit::Vco => RoVco::small().biases(tech, lib),
        }
    }

    /// The circuit's public `measure` metrics, in declaration order.
    /// `None` for the RO-VCO, whose tuning-curve sweep takes ~12 s and is
    /// left out of the Table VI deviation.
    pub fn measure(
        self,
        tech: &Technology,
        lib: &Library,
        r: &Realization,
    ) -> Option<Result<Vec<f64>, FlowError>> {
        Some(match self {
            Circuit::CsAmp => CsAmp::measure(tech, lib, r)
                .map(|m| vec![m.gain_db, m.ugf_ghz, m.power_uw, m.current_ua]),
            Circuit::Ota => FiveTOta::measure(tech, lib, r).map(|m| {
                vec![
                    m.current_ua,
                    m.gain_db,
                    m.ugf_ghz,
                    m.f3db_mhz,
                    m.phase_margin_deg,
                ]
            }),
            Circuit::StrongArm => {
                StrongArm::measure(tech, lib, r).map(|m| vec![m.delay_ps, m.power_uw])
            }
            Circuit::Vco => return None,
        })
    }
}

/// Deck, library and the per-circuit specs and biases a workload uses.
pub struct Env {
    pub tech: Technology,
    pub lib: Library,
    pub specs: HashMap<Circuit, (CircuitSpec, HashMap<String, Bias>)>,
}

impl Env {
    pub fn new(circuits: &[Circuit]) -> Result<Self, String> {
        let tech = Technology::finfet7();
        let lib = Library::standard();
        let mut specs = HashMap::new();
        for &c in circuits {
            let biases = c
                .biases(&tech, &lib)
                .map_err(|e| format!("{} biases: {e}", c.name()))?;
            specs.insert(c, (c.spec(), biases));
        }
        Ok(Env { tech, lib, specs })
    }

    pub fn spec(&self, c: Circuit) -> &CircuitSpec {
        &self.specs[&c].0
    }

    pub fn biases(&self, c: Circuit) -> &HashMap<String, Bias> {
        &self.specs[&c].1
    }
}

/// Every policy set explicitly, so a changed default cannot change the
/// measured work: gates and stream-out on, corners off, default solver
/// limits, tuning and port optimization on.
pub fn flow_options(cache: CachePolicy) -> FlowOptions {
    FlowOptions {
        tuning: true,
        port_optimization: true,
        verify: VerifyPolicy::On,
        cache,
        solver: SolverLimits::default(),
        deadline: None,
        cancel: None,
        corners: CornerPolicy::Off,
        gds: GdsPolicy::On,
    }
}

pub fn persistent(path: &std::path::Path) -> CachePolicy {
    CachePolicy::Persistent(PathBuf::from(path))
}

/// Output checks on one finished flow: clean health, all four gate
/// reports, and GDS bytes that re-parse to the artifact's library.
pub fn check_outcome(out: &FlowOutcome) -> Vec<String> {
    let mut errs = Vec::new();
    if out.resilience.health != Health::Clean {
        errs.push(format!("health {:?}", out.resilience.health));
    }
    for (gate, report) in [
        ("techlint", &out.techlint),
        ("schem", &out.schem),
        ("verify", &out.verify),
        ("erc", &out.erc),
    ] {
        match report {
            None => errs.push(format!("{gate} report missing")),
            Some(r) if !r.is_passing() => errs.push(format!("{gate} report failing")),
            Some(_) => {}
        }
    }
    match &out.gds {
        None => errs.push("no GDS artifact".to_string()),
        Some(art) => errs.extend(check_gds(art)),
    }
    errs
}

pub fn check_gds(art: &GdsArtifact) -> Vec<String> {
    match GdsLibrary::from_bytes(&art.bytes) {
        Err(e) => vec![format!("GDS does not re-parse: {e}")],
        Ok(parsed) => {
            let diffs = prima_gds::diff(&parsed, &art.library);
            if diffs.is_empty() {
                Vec::new()
            } else {
                vec![format!(
                    "GDS round trip differs in {} place(s)",
                    diffs.len()
                )]
            }
        }
    }
}

/// Table VI deviation of one realization, percent: mean over the
/// circuit's metrics of |layout − schematic| / |schematic|.
pub fn deviation_pct(schematic: &[f64], layout: &[f64]) -> f64 {
    let n = schematic.len().min(layout.len());
    let sum: f64 = schematic
        .iter()
        .zip(layout)
        .map(|(s, l)| (l - s).abs() / s.abs().max(1e-30))
        .sum();
    100.0 * sum / n.max(1) as f64
}

/// Mean deviation over distinct (circuit, seed) realizations, measuring
/// each circuit's schematic reference once.
pub fn circuit_dev_pct(env: &Env, jobs: &[(Circuit, &Realization)]) -> Result<f64, String> {
    let mut sch: HashMap<Circuit, Vec<f64>> = HashMap::new();
    let mut devs = Vec::new();
    for &(c, r) in jobs {
        let Some(lay) = c.measure(&env.tech, &env.lib, r) else {
            continue;
        };
        let lay = lay.map_err(|e| format!("{} measure: {e}", c.name()))?;
        if let std::collections::hash_map::Entry::Vacant(slot) = sch.entry(c) {
            let s = c
                .measure(&env.tech, &env.lib, &Realization::schematic())
                .unwrap_or(Ok(Vec::new()))
                .map_err(|e| format!("{} schematic measure: {e}", c.name()))?;
            slot.insert(s);
        }
        devs.push(deviation_pct(&sch[&c], &lay));
    }
    if devs.is_empty() {
        return Err("no job with a Table VI measurement".to_string());
    }
    Ok(crate::util::mean(&devs))
}
