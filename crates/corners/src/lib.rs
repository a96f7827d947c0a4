//! # prima-corners
//!
//! PVT corner sweeps and seeded Monte-Carlo mismatch as first-class,
//! *deterministic* flow scenarios.
//!
//! The paper's methodology selects primitive layouts from nominal
//! post-layout simulation; this crate supplies the variation vocabulary
//! the optimized flow layers on top of it:
//!
//! * [`CornerPolicy`] / [`CornerOptions`] — how a flow enables the sweep:
//!   which named corners from the deck's [`CornerSet`], the corner-repair
//!   budget and the Monte-Carlo sample count. The sampler's seed is
//!   [`MC_SEED`], and the worst-case gate's allowance is
//!   [`prima_core::quality_allowance`].
//! * [`MismatchSampler`] — a splitmix-style counter PRNG producing
//!   per-instance standard-normal `(z_vth, z_mobility)` draws keyed by a
//!   stable instance fingerprint. Draws are a pure function of
//!   `(seed, fingerprint, sample index)`, so sampling is order-invariant
//!   under instance reordering and exactly replayable from the recorded
//!   seed.
//! * [`CornerReport`] and friends — the per-corner measures, worst-case
//!   margins, and yield estimate a flow surfaces in its outcome.
//! * [`corner_bias`] — retargets a [`Bias`] to a corner: supply-ratiometric
//!   scaling plus replica-style threshold tracking of midrail gate
//!   references, so sweeps measure layout margin rather than fixed-bias
//!   starvation.
//!
//! The flow-side evaluation loop lives in `prima-flow`; this crate stays
//! below it so services and benches can speak the types without linking
//! the flow.
//!
//! [`CornerSet`]: prima_pdk::CornerSet

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use prima_cache::{Fingerprint, FpHasher};
use prima_core::diagnostics::Violation;
use prima_pdk::{CornerSpec, Technology};
use prima_primitives::Bias;

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// Whether (and how) a flow evaluates variation scenarios.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum CornerPolicy {
    /// No corner or mismatch evaluation: the flow is bit-identical to the
    /// nominal-only flow.
    #[default]
    Off,
    /// Re-evaluate surviving candidates across the enabled corner set and
    /// gate on worst-case satisfaction.
    Sweep(CornerOptions),
}

/// Tuning knobs for a corner sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerOptions {
    /// Names of deck corners to evaluate, in this order; `None` sweeps the
    /// deck's full table. Unknown names are reported as `CORNER.UNKNOWN`
    /// diagnostics, not errors.
    pub corners: Option<Vec<String>>,
    /// Candidate-fallback budget for corner-only failures: how many
    /// next-best candidates may be tried per primitive instance before the
    /// flow degrades (mirrors the PR-4 route/gate repair budgets).
    pub repair_attempts: usize,
    /// Monte-Carlo mismatch samples per instance; `0` disables the yield
    /// estimate.
    pub mc_samples: u32,
}

impl Default for CornerOptions {
    fn default() -> Self {
        CornerOptions {
            corners: None,
            repair_attempts: 4,
            mc_samples: 8,
        }
    }
}

/// Seed of the Monte-Carlo mismatch sampler; recorded in the report so any
/// yield number can be replayed exactly.
pub const MC_SEED: u64 = 0x5eed_c0de;

// ---------------------------------------------------------------------------
// Seeded Monte-Carlo mismatch sampler
// ---------------------------------------------------------------------------

/// One per-instance mismatch draw: standard-normal deviates for threshold
/// and mobility. The flow scales them by the deck's Pelgrom sigma for the
/// instance geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MismatchDraw {
    /// Standard-normal deviate for the threshold shift.
    pub z_vth: f64,
    /// Standard-normal deviate for the mobility (kp) scale.
    pub z_mobility: f64,
}

/// Seeded, order-invariant mismatch sampler.
///
/// Each draw is a pure function of `(seed, instance fingerprint, sample
/// index)` through a splitmix64 chain and a Box–Muller transform — no
/// internal state advances, so shuffling the order instances are sampled
/// in (or sampling them from different threads) changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MismatchSampler {
    seed: u64,
}

impl MismatchSampler {
    /// Creates a sampler for a seed.
    pub fn new(seed: u64) -> Self {
        MismatchSampler { seed }
    }

    /// The seed, for recording in reports.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The draw for one instance (by stable fingerprint) and sample index.
    pub fn draw(&self, instance: Fingerprint, sample: u32) -> MismatchDraw {
        let s0 = splitmix64(self.seed ^ instance.0);
        let s1 = splitmix64(s0 ^ instance.1.rotate_left(17));
        let s2 = splitmix64(s1 ^ u64::from(sample));
        let u1 = unit_open(splitmix64(s2 ^ 0x5bf0_3635));
        let u2 = unit_open(splitmix64(s2 ^ 0x9e37_79b9));
        // Box–Muller: two independent N(0, 1) deviates from two uniforms.
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        MismatchDraw {
            z_vth: r * theta.cos(),
            z_mobility: r * theta.sin(),
        }
    }
}

/// One step of the splitmix64 output function (Steele et al.; the same
/// finalizer vendored rand's `SplitMix64` uses).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a u64 to the open interval (0, 1) — never exactly 0, so
/// `ln(u1)` is always finite.
fn unit_open(x: u64) -> f64 {
    (((x >> 11) as f64) + 0.5) * (1.0 / 9_007_199_254_740_992.0)
}

/// The stable fingerprint the sampler keys an instance by: circuit
/// instance name, primitive definition name, and sizing. Deliberately
/// *not* the layout fingerprint — the same instance keeps its draws while
/// candidates are swapped during corner repair, so yield comparisons
/// across candidates are paired.
pub fn instance_fingerprint(instance: &str, def: &str, total_fins: u64) -> Fingerprint {
    let mut h = FpHasher::new();
    h.write_tag("CornerInstance");
    h.write_str(instance);
    h.write_str(def);
    h.write_u64(total_fins);
    h.finish()
}

// ---------------------------------------------------------------------------
// Bias scaling
// ---------------------------------------------------------------------------

/// A bias retargeted to a corner. Two effects compose, mirroring how bias
/// rails behave in silicon:
///
/// * **Supply scaling** — the rail and every forced port voltage scale
///   with `vdd_scale` (testbench sources are ratiometric: gate biases are
///   generated from the rail). Bias currents and loads stay nominal.
/// * **Threshold tracking** — analog bias levels in the midrail band
///   (10–90% of nominal `vdd`) follow the corner's threshold shift, the
///   way a replica or constant-current bias generator holds a device's
///   overdrive constant across process. A level is classified by which
///   polarity's implied overdrive (`v − vth_n` from ground, or
///   `vdd − v − vth_p` from the rail, both thresholds at *nominal*) is
///   the more plausible gate drive; the level then shifts with that
///   polarity's corner threshold (up for a slower NMOS, down for a
///   slower PMOS — thresholds are stored as magnitudes). Ports pinned
///   near the rails — grounds, enables, clocks — stay pinned.
///
/// Without tracking, a fixed gate bias computed at nominal vth starves
/// its device at slow corners and the sweep reports a bias artifact
/// instead of a layout margin.
pub fn corner_bias(tech: &Technology, bias: &Bias, spec: &CornerSpec) -> Bias {
    if spec.is_identity() {
        return bias.clone();
    }
    // A "plausible" gate drive sits around 20% of the rail; classify each
    // level by whichever polarity's implied overdrive lands closer.
    let target = 0.2 * bias.vdd;
    let mut b = bias.clone();
    b.vdd *= spec.vdd_scale;
    for v in b.port_v.values_mut() {
        let frac = if bias.vdd > 0.0 { *v / bias.vdd } else { 0.0 };
        let ovn = *v - tech.nmos.vth0;
        let ovp = (bias.vdd - *v) - tech.pmos.vth0;
        *v *= spec.vdd_scale;
        if frac <= 0.1 || frac >= 0.9 || (ovn <= 0.0 && ovp <= 0.0) {
            continue;
        }
        if (ovn - target).abs() <= (ovp - target).abs() {
            *v += spec.nmos_vth_shift_v;
        } else {
            *v -= spec.pmos_vth_shift_v;
        }
    }
    b
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// One corner's evaluation of one primitive instance's chosen candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerMeasure {
    /// Corner name.
    pub corner: String,
    /// Cost of the chosen layout against the *corner's own* schematic
    /// reference (layout-induced degradation at that corner). Infinite
    /// when the corner evaluation failed to converge.
    pub cost: f64,
    /// Allowance minus cost: positive margins pass, negative fail.
    pub margin: f64,
    /// Whether the worst-case gate passed at this corner.
    pub pass: bool,
}

/// Corner results for one primitive instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceCorners {
    /// Circuit instance name.
    pub instance: String,
    /// Primitive definition evaluated.
    pub def: String,
    /// Nominal cost of the finally-chosen candidate.
    pub nominal_cost: f64,
    /// Per-corner measures, in sweep order.
    pub measures: Vec<CornerMeasure>,
    /// Worst (smallest) margin across corners.
    pub worst_margin: f64,
    /// Name of the corner with the worst margin.
    pub worst_corner: String,
    /// How many fallback candidates corner repair consumed for this
    /// instance (0 = first candidate passed everywhere).
    pub fallbacks: usize,
    /// Monte-Carlo pass count for this instance, when sampling ran.
    pub mc_passed: Option<u32>,
}

/// Monte-Carlo yield estimate for a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McYield {
    /// Sampler seed (replay key).
    pub seed: u64,
    /// Samples drawn per instance.
    pub samples: u32,
    /// Samples in which *every* instance passed its mismatch gate.
    pub passed: u32,
}

impl McYield {
    /// Fraction of samples passing, in `[0, 1]`.
    pub fn yield_fraction(&self) -> f64 {
        if self.samples == 0 {
            return 1.0;
        }
        f64::from(self.passed) / f64::from(self.samples)
    }
}

/// The variation section of a flow outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerReport {
    /// Corner names evaluated, in sweep order.
    pub corners: Vec<String>,
    /// Per-instance corner results.
    pub instances: Vec<InstanceCorners>,
    /// Worst margin across all instances and corners.
    pub worst_margin: f64,
    /// Monte-Carlo yield, when sampling was enabled.
    pub mc: Option<McYield>,
    /// Simulations charged to the corner phase.
    pub sims: usize,
    /// `CORNER.*` diagnostics (budget exhaustion, unknown corner names);
    /// mirrored into the flow's resilience report.
    pub diagnostics: Vec<Violation>,
    /// Total fallback candidates consumed by corner repair.
    pub fallbacks: usize,
}

impl CornerReport {
    /// True when every instance passed every corner without degradation.
    pub fn all_pass(&self) -> bool {
        self.diagnostics.is_empty()
            && self
                .instances
                .iter()
                .all(|i| i.measures.iter().all(|m| m.pass))
    }

    /// Measures for one instance, by name.
    pub fn instance(&self, name: &str) -> Option<&InstanceCorners> {
        self.instances.iter().find(|i| i.instance == name)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    #[test]
    fn draws_are_order_invariant_and_seed_sensitive() {
        let s = MismatchSampler::new(42);
        let a = instance_fingerprint("m1", "dp", 960);
        let b = instance_fingerprint("m2", "dp", 960);
        let d_a = s.draw(a, 0);
        let d_b = s.draw(b, 0);
        // Re-draw in the opposite order: bit-identical.
        assert_eq!(s.draw(b, 0), d_b);
        assert_eq!(s.draw(a, 0), d_a);
        // Distinct instances, samples, and seeds decorrelate.
        assert_ne!(d_a, d_b);
        assert_ne!(s.draw(a, 1), d_a);
        assert_ne!(MismatchSampler::new(43).draw(a, 0), d_a);
    }

    #[test]
    fn draws_are_standard_normal_ish() {
        let s = MismatchSampler::new(7);
        let fp = instance_fingerprint("m", "cs", 480);
        let n = 4000u32;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for i in 0..n {
            let d = s.draw(fp, i);
            for z in [d.z_vth, d.z_mobility] {
                assert!(z.is_finite());
                sum += z;
                sum2 += z * z;
            }
        }
        let cnt = f64::from(n) * 2.0;
        let mean = sum / cnt;
        let var = sum2 / cnt - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn corner_bias_scales_rail_and_ports_only() {
        let mut bias = Bias {
            vdd: 0.8,
            port_v: HashMap::new(),
            port_load_c: HashMap::new(),
            currents: HashMap::new(),
            drain_load_ohm: 1234.0,
        };
        bias.port_v.insert("g".into(), 0.4);
        bias.currents.insert("tail".into(), 1e-4);
        let tech = Technology::finfet7();
        let vdd_low = CornerSpec {
            name: "vdd_low".into(),
            vdd_scale: 0.9,
            ..CornerSpec::tt()
        };
        let b = corner_bias(&tech, &bias, &vdd_low);
        assert!((b.vdd - 0.72).abs() < 1e-12);
        assert!((b.port_v["g"] - 0.36).abs() < 1e-12);
        assert_eq!(b.currents["tail"], 1e-4);
        assert_eq!(b.drain_load_ohm, 1234.0);
        assert_eq!(corner_bias(&tech, &bias, &CornerSpec::tt()), bias);
    }

    #[test]
    fn corner_bias_tracks_thresholds_by_polarity() {
        // sky130ish: vth_n 0.48, vth_p 0.45, vdd 1.8. A low gate reference
        // is NMOS-referenced (tracks up at ss); a high one is
        // PMOS-referenced (tracks down); rails stay pinned.
        let tech = Technology::sky130ish();
        let ss = tech.corners.get("ss").cloned().unwrap();
        let mut bias = Bias {
            vdd: 1.8,
            port_v: HashMap::new(),
            port_load_c: HashMap::new(),
            currents: HashMap::new(),
            drain_load_ohm: 0.0,
        };
        bias.port_v.insert("vbn".into(), 0.60);
        bias.port_v.insert("vbp".into(), 1.20);
        bias.port_v.insert("gnd_ref".into(), 0.0);
        bias.port_v.insert("en".into(), 1.8);
        let b = corner_bias(&tech, &bias, &ss);
        assert!((b.port_v["vbn"] - (0.60 + ss.nmos_vth_shift_v)).abs() < 1e-12);
        assert!((b.port_v["vbp"] - (1.20 - ss.pmos_vth_shift_v)).abs() < 1e-12);
        assert_eq!(b.port_v["gnd_ref"], 0.0);
        assert_eq!(b.port_v["en"], 1.8);
    }

    #[test]
    fn yield_fraction_handles_zero_samples() {
        let y = McYield {
            seed: 1,
            samples: 0,
            passed: 0,
        };
        assert_eq!(y.yield_fraction(), 1.0);
    }
}
