//! PVT corner descriptions: named perturbations of a [`Technology`]'s
//! model cards, supply, and temperature.
//!
//! A corner is pure data — a [`CornerSpec`] records *how far* each knob
//! moves from nominal, and [`Technology::apply_corner`] materializes the
//! perturbed deck. Because the corner only rewrites `FetModel` fields,
//! `vdd`, and junction temperature, the perturbed technology's
//! fingerprint differs from nominal (the model cards feed the hash) while
//! its geometry, design rules, and metal stack stay byte-identical — the
//! layout and routing stages of a flow are corner-invariant by
//! construction, only evaluation changes.
//!
//! [`CornerBounds`] declares the envelope the deck author considers
//! physical; the deck gate's `TECH.CORNER.*` rules reject any table
//! whose corners escape it (or that lacks an identity `tt`, or repeats a
//! name) before a single simulation runs.
//!
//! [`Technology`]: crate::Technology
//! [`Technology::apply_corner`]: crate::Technology::apply_corner

use prima_cache::{Fingerprintable, FpHasher};

/// One named PVT point, expressed as deltas from the nominal deck.
///
/// The identity corner (all shifts zero, all scales one, no temperature
/// override) is conventionally named `tt`; [`CornerSpec::is_identity`]
/// recognizes it structurally regardless of name.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerSpec {
    /// Corner name (`"ss"`, `"ff"`, `"vdd_low"`, …). Unique within a set.
    pub name: String,
    /// Additive NMOS threshold shift (V); slow NMOS is positive.
    pub nmos_vth_shift_v: f64,
    /// Additive PMOS threshold shift (V); slow PMOS is positive (PMOS
    /// `vth0` is stored as a positive magnitude in the model cards).
    pub pmos_vth_shift_v: f64,
    /// Multiplicative NMOS transconductance-parameter scale.
    pub nmos_kp_scale: f64,
    /// Multiplicative PMOS transconductance-parameter scale.
    pub pmos_kp_scale: f64,
    /// Multiplicative supply scale (corner vdd = nominal vdd × this).
    pub vdd_scale: f64,
    /// Junction temperature override (°C); `None` keeps nominal.
    pub temp_c: Option<f64>,
}

impl CornerSpec {
    /// The identity corner: nominal deck, conventionally named `tt`.
    pub fn tt() -> Self {
        CornerSpec {
            name: "tt".to_string(),
            nmos_vth_shift_v: 0.0,
            pmos_vth_shift_v: 0.0,
            nmos_kp_scale: 1.0,
            pmos_kp_scale: 1.0,
            vdd_scale: 1.0,
            temp_c: None,
        }
    }

    /// True when applying this corner leaves the deck unchanged.
    pub fn is_identity(&self) -> bool {
        self.nmos_vth_shift_v == 0.0
            && self.pmos_vth_shift_v == 0.0
            && self.nmos_kp_scale == 1.0
            && self.pmos_kp_scale == 1.0
            && self.vdd_scale == 1.0
            && self.temp_c.is_none()
    }
}

/// The envelope a deck's corners are allowed to span. Declared alongside
/// the corner table so preflight can reject an implausible corner (a vdd
/// collapse, a 1 V threshold shift) as a data error rather than
/// discovering it as a solver non-convergence mid-flow.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerBounds {
    /// Largest allowed |vth shift| for either polarity (V).
    pub max_vth_shift_v: f64,
    /// Allowed (min, max) for both kp scales.
    pub kp_scale: (f64, f64),
    /// Allowed (min, max) supply scale.
    pub vdd_scale: (f64, f64),
    /// Allowed (min, max) junction temperature (°C).
    pub temp_c: (f64, f64),
}

impl Default for CornerBounds {
    fn default() -> Self {
        CornerBounds {
            max_vth_shift_v: 0.1,
            kp_scale: (0.8, 1.2),
            vdd_scale: (0.85, 1.15),
            temp_c: (-40.0, 125.0),
        }
    }
}

/// A technology's corner table: the named PVT points plus the declared
/// bounds they must respect. An empty set (the `Default`) means the deck
/// ships no corners; flows treat that the same as `CornerPolicy::Off`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CornerSet {
    /// Named corners, `tt` first by convention.
    pub corners: Vec<CornerSpec>,
    /// Declared perturbation envelope for the table.
    pub bounds: CornerBounds,
}

impl CornerSet {
    /// Looks up a corner by name.
    pub fn get(&self, name: &str) -> Option<&CornerSpec> {
        self.corners.iter().find(|c| c.name == name)
    }

    /// Corner names in table order.
    pub fn names(&self) -> Vec<String> {
        self.corners.iter().map(|c| c.name.clone()).collect()
    }

    /// The standard nine-point table (tt, four process corners, vdd ±10%,
    /// temperature extremes) for a given process/vdd perturbation scale.
    fn standard(
        vth_shift_v: f64,
        kp_swing: f64,
        temp_cold: f64,
        temp_hot: f64,
        bounds: CornerBounds,
    ) -> Self {
        let p = |name: &str, nv: f64, pv: f64, nk: f64, pk: f64| CornerSpec {
            name: name.to_string(),
            nmos_vth_shift_v: nv,
            pmos_vth_shift_v: pv,
            nmos_kp_scale: nk,
            pmos_kp_scale: pk,
            vdd_scale: 1.0,
            temp_c: None,
        };
        let slow = 1.0 - kp_swing;
        let fast = 1.0 + kp_swing;
        CornerSet {
            corners: vec![
                CornerSpec::tt(),
                p("ss", vth_shift_v, vth_shift_v, slow, slow),
                p("ff", -vth_shift_v, -vth_shift_v, fast, fast),
                p("sf", vth_shift_v, -vth_shift_v, slow, fast),
                p("fs", -vth_shift_v, vth_shift_v, fast, slow),
                CornerSpec {
                    name: "vdd_low".to_string(),
                    vdd_scale: 0.9,
                    ..CornerSpec::tt()
                },
                CornerSpec {
                    name: "vdd_high".to_string(),
                    vdd_scale: 1.1,
                    ..CornerSpec::tt()
                },
                CornerSpec {
                    name: "temp_cold".to_string(),
                    temp_c: Some(temp_cold),
                    ..CornerSpec::tt()
                },
                CornerSpec {
                    name: "temp_hot".to_string(),
                    temp_c: Some(temp_hot),
                    ..CornerSpec::tt()
                },
            ],
            bounds,
        }
    }

    /// Corner table for the synthetic 7 nm FinFET node.
    pub fn standard_finfet7() -> Self {
        Self::standard(
            0.030,
            0.06,
            -40.0,
            125.0,
            CornerBounds {
                max_vth_shift_v: 0.05,
                kp_scale: (0.90, 1.10),
                vdd_scale: (0.85, 1.15),
                temp_c: (-40.0, 125.0),
            },
        )
    }

    /// Corner table for the synthetic 16 nm bulk node.
    pub fn standard_bulk16() -> Self {
        Self::standard(
            0.040,
            0.08,
            -40.0,
            125.0,
            CornerBounds {
                max_vth_shift_v: 0.06,
                kp_scale: (0.88, 1.12),
                vdd_scale: (0.85, 1.15),
                temp_c: (-40.0, 125.0),
            },
        )
    }

    /// Corner table for the sky130-flavored node (larger spreads, as on a
    /// mature node).
    pub fn standard_sky130ish() -> Self {
        Self::standard(
            0.060,
            0.10,
            -40.0,
            125.0,
            CornerBounds {
                max_vth_shift_v: 0.08,
                kp_scale: (0.85, 1.15),
                vdd_scale: (0.85, 1.15),
                temp_c: (-40.0, 125.0),
            },
        )
    }
}

impl Fingerprintable for CornerSpec {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("CornerSpec");
        h.write_str(&self.name);
        h.write_f64(self.nmos_vth_shift_v);
        h.write_f64(self.pmos_vth_shift_v);
        h.write_f64(self.nmos_kp_scale);
        h.write_f64(self.pmos_kp_scale);
        h.write_f64(self.vdd_scale);
        self.temp_c.feed(h);
    }
}

impl Fingerprintable for CornerBounds {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("CornerBounds");
        h.write_f64(self.max_vth_shift_v);
        h.write_f64(self.kp_scale.0);
        h.write_f64(self.kp_scale.1);
        h.write_f64(self.vdd_scale.0);
        h.write_f64(self.vdd_scale.1);
        h.write_f64(self.temp_c.0);
        h.write_f64(self.temp_c.1);
    }
}

impl Fingerprintable for CornerSet {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("CornerSet");
        self.corners.feed(h);
        self.bounds.feed(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tt_is_identity() {
        assert!(CornerSpec::tt().is_identity());
        let mut c = CornerSpec::tt();
        c.vdd_scale = 0.9;
        assert!(!c.is_identity());
    }

    #[test]
    fn standard_tables_have_unique_names_and_tt_first() {
        for set in [
            CornerSet::standard_finfet7(),
            CornerSet::standard_bulk16(),
            CornerSet::standard_sky130ish(),
        ] {
            assert_eq!(set.corners[0].name, "tt");
            assert!(set.corners[0].is_identity());
            let names = set.names();
            let mut dedup = names.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), names.len(), "duplicate corner names");
            assert_eq!(names.len(), 9);
        }
    }

    #[test]
    fn corners_stay_inside_declared_bounds() {
        for set in [
            CornerSet::standard_finfet7(),
            CornerSet::standard_bulk16(),
            CornerSet::standard_sky130ish(),
        ] {
            let b = &set.bounds;
            for c in &set.corners {
                assert!(c.nmos_vth_shift_v.abs() <= b.max_vth_shift_v, "{}", c.name);
                assert!(c.pmos_vth_shift_v.abs() <= b.max_vth_shift_v, "{}", c.name);
                for k in [c.nmos_kp_scale, c.pmos_kp_scale] {
                    assert!(k >= b.kp_scale.0 && k <= b.kp_scale.1, "{}", c.name);
                }
                assert!(
                    c.vdd_scale >= b.vdd_scale.0 && c.vdd_scale <= b.vdd_scale.1,
                    "{}",
                    c.name
                );
                if let Some(t) = c.temp_c {
                    assert!(t >= b.temp_c.0 && t <= b.temp_c.1, "{}", c.name);
                }
            }
        }
    }
}
