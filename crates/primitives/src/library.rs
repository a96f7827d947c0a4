//! The primitive library: Table II encoded as data, extended to the 20+
//! entries a production library carries (paper §II-A lists the families).

use prima_layout::{DeviceSpec, PrimitiveSpec};
use prima_spice::devices::FetPolarity;

use crate::metrics::{Metric, MetricKind};

/// Functional class of a primitive; selects the testbench recipes.
#[derive(Debug, Clone, PartialEq)]
pub enum PrimitiveClass {
    /// Matched differential pair (tail-biased).
    DifferentialPair,
    /// Current mirror with `ratio` output copies per reference unit.
    CurrentMirror {
        /// Output/reference size ratio.
        ratio: u32,
    },
    /// Single-device current source/sink biased by a gate voltage.
    CurrentSource,
    /// Single-device common-source amplifier stage.
    Amplifier,
    /// Diode-connected load.
    Load,
    /// Pass switch.
    Switch,
    /// Cross-coupled pair (negative-gm cell).
    CrossCoupled,
    /// Current-starved inverter (VCO delay stage).
    CurrentStarvedInverter,
    /// Passive capacitor with `design_f` farads.
    PassiveCap {
        /// Design capacitance in farads.
        design_f: f64,
    },
    /// Passive resistor with `design_ohm` ohms.
    PassiveRes {
        /// Design resistance in ohms.
        design_ohm: f64,
    },
}

/// A tuning terminal: the nets whose trunk wiring may be widened, and
/// whether its optimum depends on another terminal's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuningTerminal {
    /// Terminal label used in reports (e.g. `"source"`).
    pub name: String,
    /// The layout nets tuned together (symmetric nets move in lockstep).
    pub nets: Vec<String>,
    /// Name of a terminal this one is correlated with, if any; correlated
    /// terminals are swept jointly (paper Algorithm 1, lines 9–13).
    pub correlated_with: Option<String>,
}

impl TuningTerminal {
    /// Creates an uncorrelated terminal over the given nets.
    pub fn new(name: &str, nets: &[&str]) -> Self {
        TuningTerminal {
            name: name.to_string(),
            nets: nets.iter().map(|s| s.to_string()).collect(),
            correlated_with: None,
        }
    }

    /// Marks this terminal correlated with another.
    pub fn correlated(mut self, other: &str) -> Self {
        self.correlated_with = Some(other.to_string());
        self
    }
}

/// A complete library entry.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimitiveDef {
    /// Library key (e.g. `"dp"`).
    pub name: String,
    /// Human-readable description.
    pub description: String,
    /// Functional class (testbench selector).
    pub class: PrimitiveClass,
    /// Device/net template handed to the cell generator.
    pub spec: PrimitiveSpec,
    /// Performance metrics with weights (Table II).
    pub metrics: Vec<Metric>,
    /// Tuning terminals (Table II right column).
    pub tuning: Vec<TuningTerminal>,
    /// External port nets, in a stable order.
    pub ports: Vec<String>,
}

impl PrimitiveDef {
    /// Tuning terminal by name.
    pub fn terminal(&self, name: &str) -> Option<&TuningTerminal> {
        self.tuning.iter().find(|t| t.name == name)
    }

    /// Metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// The primitive library.
#[derive(Debug, Clone, Default)]
pub struct Library {
    defs: Vec<PrimitiveDef>,
}

impl Library {
    /// Builds the standard library (Table II plus the families §II-A lists).
    pub fn standard() -> Self {
        let mut defs = Vec::new();
        let n = FetPolarity::Nmos;
        let p = FetPolarity::Pmos;
        let ports = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();

        // --- Differential pairs -------------------------------------------------
        defs.push(PrimitiveDef {
            name: "dp".into(),
            description: "NMOS differential pair".into(),
            class: PrimitiveClass::DifferentialPair,
            spec: PrimitiveSpec::new(
                "dp",
                vec![
                    DeviceSpec::new("MA", n, "da", "ga", "s"),
                    DeviceSpec::new("MB", n, "db", "gb", "s"),
                ],
            ),
            metrics: vec![
                Metric::new("Gm", MetricKind::Gm, 0.5),
                Metric::new("Gm/Ctotal", MetricKind::GmOverCtotal, 0.5),
                Metric::with_spec("offset", MetricKind::InputOffset, 1.0, 2.0e-4),
            ],
            tuning: vec![
                TuningTerminal::new("source", &["s"]),
                TuningTerminal::new("drain", &["da", "db"]),
            ],
            ports: ports(&["da", "db", "ga", "gb", "s"]),
        });
        defs.push(PrimitiveDef {
            name: "dp_pmos".into(),
            description: "PMOS differential pair".into(),
            class: PrimitiveClass::DifferentialPair,
            spec: PrimitiveSpec::new(
                "dp_pmos",
                vec![
                    DeviceSpec::new("MA", p, "da", "ga", "s"),
                    DeviceSpec::new("MB", p, "db", "gb", "s"),
                ],
            ),
            metrics: vec![
                Metric::new("Gm", MetricKind::Gm, 0.5),
                Metric::new("Gm/Ctotal", MetricKind::GmOverCtotal, 0.5),
                Metric::with_spec("offset", MetricKind::InputOffset, 1.0, 2.0e-4),
            ],
            tuning: vec![
                TuningTerminal::new("source", &["s"]),
                TuningTerminal::new("drain", &["da", "db"]),
            ],
            ports: ports(&["da", "db", "ga", "gb", "s"]),
        });
        defs.push(PrimitiveDef {
            name: "dp_cascode".into(),
            description: "cascoded NMOS differential pair".into(),
            class: PrimitiveClass::DifferentialPair,
            spec: PrimitiveSpec::new(
                "dp_cascode",
                vec![
                    DeviceSpec::new("MA", n, "xa", "ga", "s"),
                    DeviceSpec::new("MB", n, "xb", "gb", "s"),
                    DeviceSpec::new("MCA", n, "da", "vcas", "xa"),
                    DeviceSpec::new("MCB", n, "db", "vcas", "xb"),
                ],
            ),
            metrics: vec![
                Metric::new("Gm", MetricKind::Gm, 0.5),
                Metric::new("Gm/Ctotal", MetricKind::GmOverCtotal, 0.5),
                Metric::with_spec("offset", MetricKind::InputOffset, 1.0, 2.0e-4),
            ],
            tuning: vec![
                TuningTerminal::new("source", &["s"]),
                TuningTerminal::new("drain", &["da", "db"]),
            ],
            ports: ports(&["da", "db", "ga", "gb", "s", "vcas"]),
        });
        defs.push(PrimitiveDef {
            name: "dp_switched".into(),
            description: "switched differential pair (comparator input)".into(),
            class: PrimitiveClass::DifferentialPair,
            spec: PrimitiveSpec::new(
                "dp_switched",
                vec![
                    DeviceSpec::new("MA", n, "da", "ga", "s"),
                    DeviceSpec::new("MB", n, "db", "gb", "s"),
                    DeviceSpec::new("MSW", n, "s", "clk", "vss"),
                ],
            ),
            metrics: vec![
                Metric::new("Gm", MetricKind::Gm, 0.5),
                Metric::new("Gm/Ctotal", MetricKind::GmOverCtotal, 0.5),
                Metric::with_spec("offset", MetricKind::InputOffset, 1.0, 2.0e-4),
            ],
            tuning: vec![
                TuningTerminal::new("source", &["s"]),
                TuningTerminal::new("drain", &["da", "db"]),
            ],
            ports: ports(&["da", "db", "ga", "gb", "clk", "vss"]),
        });

        // --- Current mirrors ----------------------------------------------------
        for (name, ratio, desc) in [
            ("cm", 1u32, "1:1 NMOS passive current mirror"),
            ("cm_1to2", 2, "1:2 NMOS current mirror"),
            ("cm_1to4", 4, "1:4 NMOS current mirror"),
            ("cm_1to8", 8, "1:8 NMOS current mirror"),
        ] {
            defs.push(PrimitiveDef {
                name: name.into(),
                description: desc.into(),
                class: PrimitiveClass::CurrentMirror { ratio },
                spec: PrimitiveSpec::new(
                    name,
                    vec![
                        DeviceSpec::new("MREF", n, "in", "in", "vss"),
                        DeviceSpec::with_ratio("MOUT", n, "out", "in", "vss", ratio),
                    ],
                ),
                metrics: vec![
                    Metric::new("Iout", MetricKind::OutputCurrent, 1.0),
                    Metric::new("Cout", MetricKind::Cout, 0.1),
                ],
                tuning: vec![
                    TuningTerminal::new("source", &["vss"]),
                    TuningTerminal::new("drain", &["out"]),
                ],
                ports: ports(&["in", "out", "vss"]),
            });
        }
        defs.push(PrimitiveDef {
            name: "cm_pmos".into(),
            description: "1:1 PMOS (active-load) current mirror".into(),
            class: PrimitiveClass::CurrentMirror { ratio: 1 },
            spec: PrimitiveSpec::new(
                "cm_pmos",
                vec![
                    DeviceSpec::new("MREF", p, "in", "in", "vdd"),
                    DeviceSpec::new("MOUT", p, "out", "in", "vdd"),
                ],
            ),
            metrics: vec![
                Metric::new("Iout", MetricKind::OutputCurrent, 1.0),
                Metric::new("Cout", MetricKind::Cout, 0.5),
            ],
            tuning: vec![
                TuningTerminal::new("source", &["vdd"]),
                TuningTerminal::new("drain", &["out"]),
            ],
            ports: ports(&["in", "out", "vdd"]),
        });
        defs.push(PrimitiveDef {
            name: "cm_cascode".into(),
            description: "cascoded NMOS current mirror".into(),
            class: PrimitiveClass::CurrentMirror { ratio: 1 },
            spec: PrimitiveSpec::new(
                "cm_cascode",
                vec![
                    DeviceSpec::new("MREF", n, "x1", "x1", "vss"),
                    DeviceSpec::new("MCREF", n, "in", "in", "x1"),
                    DeviceSpec::new("MOUT", n, "x2", "x1", "vss"),
                    DeviceSpec::new("MCOUT", n, "out", "in", "x2"),
                ],
            ),
            metrics: vec![
                Metric::new("Iout", MetricKind::OutputCurrent, 1.0),
                Metric::new("Cout", MetricKind::Cout, 0.1),
            ],
            tuning: vec![
                TuningTerminal::new("source", &["vss"]),
                TuningTerminal::new("drain", &["out"]),
            ],
            ports: ports(&["in", "out", "vss"]),
        });

        // --- Current sources / loads -------------------------------------------
        defs.push(PrimitiveDef {
            name: "csrc".into(),
            description: "NMOS current source (gate-biased)".into(),
            class: PrimitiveClass::CurrentSource,
            spec: PrimitiveSpec::new("csrc", vec![DeviceSpec::new("MCS", n, "out", "vb", "vss")]),
            metrics: vec![
                Metric::new("I", MetricKind::OutputCurrent, 1.0),
                Metric::new("ro", MetricKind::OutputResistance, 0.5),
            ],
            tuning: vec![
                TuningTerminal::new("source", &["vss"]),
                TuningTerminal::new("drain", &["out"]),
            ],
            ports: ports(&["out", "vb", "vss"]),
        });
        defs.push(PrimitiveDef {
            name: "csrc_pmos".into(),
            description: "PMOS current source (gate-biased)".into(),
            class: PrimitiveClass::CurrentSource,
            spec: PrimitiveSpec::new(
                "csrc_pmos",
                vec![DeviceSpec::new("MCS", p, "out", "vb", "vdd")],
            ),
            metrics: vec![
                Metric::new("I", MetricKind::OutputCurrent, 1.0),
                Metric::new("ro", MetricKind::OutputResistance, 0.5),
            ],
            tuning: vec![
                TuningTerminal::new("source", &["vdd"]),
                TuningTerminal::new("drain", &["out"]),
            ],
            ports: ports(&["out", "vb", "vdd"]),
        });
        defs.push(PrimitiveDef {
            name: "load_diode".into(),
            description: "diode-connected NMOS load".into(),
            class: PrimitiveClass::Load,
            spec: PrimitiveSpec::new(
                "load_diode",
                vec![DeviceSpec::new("ML", n, "out", "out", "vss")],
            ),
            metrics: vec![
                Metric::new("ro", MetricKind::OutputResistance, 1.0),
                Metric::new("Cout", MetricKind::Cout, 0.5),
            ],
            tuning: vec![TuningTerminal::new("out", &["out"])],
            ports: ports(&["out", "vss"]),
        });
        defs.push(PrimitiveDef {
            name: "load_diode_pmos".into(),
            description: "diode-connected PMOS load".into(),
            class: PrimitiveClass::Load,
            spec: PrimitiveSpec::new(
                "load_diode_pmos",
                vec![DeviceSpec::new("ML", p, "out", "out", "vdd")],
            ),
            metrics: vec![
                Metric::new("ro", MetricKind::OutputResistance, 1.0),
                Metric::new("Cout", MetricKind::Cout, 0.5),
            ],
            tuning: vec![TuningTerminal::new("out", &["out"])],
            ports: ports(&["out", "vdd"]),
        });

        // --- Amplifier stages ----------------------------------------------------
        defs.push(PrimitiveDef {
            name: "cs_amp".into(),
            description: "common-source NMOS amplifier stage".into(),
            class: PrimitiveClass::Amplifier,
            spec: PrimitiveSpec::new("cs_amp", vec![DeviceSpec::new("M1", n, "out", "in", "vss")]),
            metrics: vec![
                Metric::new("Gm", MetricKind::Gm, 1.0),
                Metric::new("ro", MetricKind::OutputResistance, 0.5),
            ],
            tuning: vec![
                TuningTerminal::new("source", &["vss"]),
                TuningTerminal::new("drain", &["out"]),
            ],
            ports: ports(&["out", "in", "vss"]),
        });
        defs.push(PrimitiveDef {
            name: "cs_amp_pmos".into(),
            description: "common-source PMOS amplifier stage".into(),
            class: PrimitiveClass::Amplifier,
            spec: PrimitiveSpec::new(
                "cs_amp_pmos",
                vec![DeviceSpec::new("M1", p, "out", "in", "vdd")],
            ),
            metrics: vec![
                Metric::new("Gm", MetricKind::Gm, 1.0),
                Metric::new("ro", MetricKind::OutputResistance, 0.5),
            ],
            tuning: vec![
                TuningTerminal::new("source", &["vdd"]),
                TuningTerminal::new("drain", &["out"]),
            ],
            ports: ports(&["out", "in", "vdd"]),
        });
        defs.push(PrimitiveDef {
            name: "sf".into(),
            description: "source follower (common drain)".into(),
            class: PrimitiveClass::Amplifier,
            spec: PrimitiveSpec::new("sf", vec![DeviceSpec::new("M1", n, "vdd", "in", "out")]),
            metrics: vec![
                Metric::new("Gm", MetricKind::Gm, 1.0),
                Metric::new("ro", MetricKind::OutputResistance, 0.5),
            ],
            tuning: vec![TuningTerminal::new("out", &["out"])],
            ports: ports(&["vdd", "in", "out"]),
        });

        // --- Digital-like analog structures --------------------------------------
        defs.push(PrimitiveDef {
            name: "switch".into(),
            description: "NMOS pass switch".into(),
            class: PrimitiveClass::Switch,
            spec: PrimitiveSpec::new("switch", vec![DeviceSpec::new("MSW", n, "b", "en", "a")]),
            metrics: vec![
                // A switch's on-resistance and the capacitance it adds to
                // the switched node matter comparably in clocked circuits.
                Metric::new("Ron", MetricKind::OnResistance, 0.5),
                Metric::new("Cout", MetricKind::Cout, 0.5),
            ],
            tuning: vec![TuningTerminal::new("channel", &["a", "b"])],
            ports: ports(&["a", "b", "en"]),
        });
        defs.push(PrimitiveDef {
            name: "ccpair".into(),
            description: "cross-coupled NMOS pair (negative gm)".into(),
            class: PrimitiveClass::CrossCoupled,
            spec: PrimitiveSpec::new(
                "ccpair",
                vec![
                    DeviceSpec::new("MA", n, "outp", "outn", "s"),
                    DeviceSpec::new("MB", n, "outn", "outp", "s"),
                ],
            ),
            metrics: vec![
                Metric::new("Gm", MetricKind::Gm, 0.5),
                // Regeneration speed is gm/C: weight the ratio highest.
                Metric::new("Gm/Ctotal", MetricKind::GmOverCtotal, 1.0),
            ],
            tuning: vec![
                TuningTerminal::new("source", &["s"]),
                TuningTerminal::new("drain", &["outp", "outn"]),
            ],
            ports: ports(&["outp", "outn", "s"]),
        });
        defs.push(PrimitiveDef {
            name: "csi".into(),
            description: "current-starved inverter (VCO delay stage)".into(),
            class: PrimitiveClass::CurrentStarvedInverter,
            spec: PrimitiveSpec::new(
                "csi",
                vec![
                    DeviceSpec::new("MPB", p, "vp", "vbp", "vdd"),
                    DeviceSpec::new("MP", p, "out", "in", "vp"),
                    DeviceSpec::new("MN", n, "out", "in", "vn"),
                    DeviceSpec::new("MNB", n, "vn", "vbn", "vss"),
                ],
            ),
            metrics: vec![
                Metric::new("delay", MetricKind::Delay, 1.0),
                Metric::new("I", MetricKind::OutputCurrent, 1.0),
                Metric::new("gain", MetricKind::Gain, 0.5),
            ],
            tuning: vec![
                TuningTerminal::new("starve", &["vp", "vn"]).correlated("out"),
                TuningTerminal::new("out", &["out"]).correlated("starve"),
            ],
            ports: ports(&["in", "out", "vbp", "vbn", "vdd", "vss"]),
        });
        defs.push(PrimitiveDef {
            name: "switch_pmos".into(),
            description: "PMOS pass/precharge switch".into(),
            class: PrimitiveClass::Switch,
            spec: PrimitiveSpec::new(
                "switch_pmos",
                vec![DeviceSpec::new("MSW", p, "b", "en", "a")],
            ),
            metrics: vec![
                // A switch's on-resistance and the capacitance it adds to
                // the switched node matter comparably in clocked circuits.
                Metric::new("Ron", MetricKind::OnResistance, 0.5),
                Metric::new("Cout", MetricKind::Cout, 0.5),
            ],
            tuning: vec![TuningTerminal::new("channel", &["a", "b"])],
            ports: ports(&["a", "b", "en"]),
        });
        defs.push(PrimitiveDef {
            name: "latch".into(),
            description: "cross-coupled inverter latch with split NMOS sources (StrongARM core)"
                .into(),
            class: PrimitiveClass::CrossCoupled,
            spec: PrimitiveSpec::new(
                "latch",
                vec![
                    DeviceSpec::new("MNA", n, "outp", "outn", "sa"),
                    DeviceSpec::new("MNB", n, "outn", "outp", "sb"),
                    DeviceSpec::new("MPA", p, "outp", "outn", "vdd"),
                    DeviceSpec::new("MPB", p, "outn", "outp", "vdd"),
                ],
            ),
            metrics: vec![
                Metric::new("Gm", MetricKind::Gm, 0.5),
                Metric::new("Gm/Ctotal", MetricKind::GmOverCtotal, 1.0),
            ],
            tuning: vec![
                TuningTerminal::new("source", &["sa", "sb"]),
                TuningTerminal::new("drain", &["outp", "outn"]),
            ],
            ports: ports(&["outp", "outn", "sa", "sb", "vdd"]),
        });
        defs.push(PrimitiveDef {
            name: "latch_starved".into(),
            description: "current-starved cross-coupled latch (tracks a VCO's control rails)"
                .into(),
            class: PrimitiveClass::CrossCoupled,
            spec: PrimitiveSpec::new(
                "latch_starved",
                vec![
                    DeviceSpec::new("MPT", p, "pt", "vbp", "vdd"),
                    DeviceSpec::new("MPA", p, "outp", "outn", "pt"),
                    DeviceSpec::new("MPB", p, "outn", "outp", "pt"),
                    DeviceSpec::new("MNA", n, "outp", "outn", "st"),
                    DeviceSpec::new("MNB", n, "outn", "outp", "st"),
                    DeviceSpec::new("MNT", n, "st", "vbn", "vss"),
                ],
            ),
            metrics: vec![
                Metric::new("Gm", MetricKind::Gm, 0.5),
                Metric::new("Gm/Ctotal", MetricKind::GmOverCtotal, 1.0),
            ],
            tuning: vec![
                TuningTerminal::new("source", &["st", "pt"]),
                TuningTerminal::new("drain", &["outp", "outn"]),
            ],
            ports: ports(&["outp", "outn", "vbp", "vbn", "vdd", "vss"]),
        });
        defs.push(PrimitiveDef {
            name: "inv_cc".into(),
            description: "cross-coupled inverter pair (latch core)".into(),
            class: PrimitiveClass::CrossCoupled,
            spec: PrimitiveSpec::new(
                "inv_cc",
                vec![
                    DeviceSpec::new("MNA", n, "outp", "outn", "s"),
                    DeviceSpec::new("MNB", n, "outn", "outp", "s"),
                    DeviceSpec::new("MPA", p, "outp", "outn", "vdd"),
                    DeviceSpec::new("MPB", p, "outn", "outp", "vdd"),
                ],
            ),
            metrics: vec![
                Metric::new("Gm", MetricKind::Gm, 0.5),
                Metric::new("Gm/Ctotal", MetricKind::GmOverCtotal, 1.0),
            ],
            tuning: vec![
                TuningTerminal::new("source", &["s"]),
                TuningTerminal::new("drain", &["outp", "outn"]),
            ],
            ports: ports(&["outp", "outn", "s", "vdd"]),
        });

        // --- Passives -------------------------------------------------------------
        defs.push(PrimitiveDef {
            name: "cap_mom".into(),
            description: "MOM finger capacitor".into(),
            class: PrimitiveClass::PassiveCap { design_f: 100e-15 },
            spec: PrimitiveSpec::new("cap_mom", vec![]),
            metrics: vec![
                Metric::new("C", MetricKind::Capacitance, 1.0),
                Metric::new("f", MetricKind::Bandwidth, 0.1),
            ],
            tuning: vec![TuningTerminal::new("plates", &["a", "b"])],
            ports: ports(&["a", "b"]),
        });
        defs.push(PrimitiveDef {
            name: "res_poly".into(),
            description: "poly resistor".into(),
            class: PrimitiveClass::PassiveRes { design_ohm: 2e3 },
            spec: PrimitiveSpec::new("res_poly", vec![]),
            metrics: vec![
                Metric::new("R", MetricKind::Resistance, 1.0),
                // Schematic parasitic C is zero, so Eq. 6 falls back to the
                // 1 fF spec.
                Metric::with_spec("C", MetricKind::Cout, 0.1, 1e-15),
            ],
            tuning: vec![TuningTerminal::new("terminals", &["a", "b"])],
            ports: ports(&["a", "b"]),
        });

        Library { defs }
    }

    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&PrimitiveDef> {
        self.defs.iter().find(|d| d.name == name)
    }

    /// All entries.
    pub fn iter(&self) -> impl Iterator<Item = &PrimitiveDef> {
        self.defs.iter()
    }

    /// Replaces the entry with `def`'s name, or appends it. This is how a
    /// design iterates on one primitive's spec: an incremental re-run then
    /// re-evaluates only the candidates whose content fingerprint changed.
    pub fn upsert(&mut self, def: PrimitiveDef) {
        match self.defs.iter_mut().find(|d| d.name == def.name) {
            Some(slot) => *slot = def,
            None => self.defs.push(def),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the library is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_has_paper_scale() {
        let lib = Library::standard();
        // Paper: "20–30 primitive netlists".
        assert!(lib.len() >= 20, "library has {} entries", lib.len());
    }

    #[test]
    fn table2_weights_match_paper() {
        let lib = Library::standard();
        let dp = lib.get("dp").unwrap();
        assert_eq!(dp.metric("Gm").unwrap().weight, 0.5);
        assert_eq!(dp.metric("Gm/Ctotal").unwrap().weight, 0.5);
        assert_eq!(dp.metric("offset").unwrap().weight, 1.0);

        let cm = lib.get("cm").unwrap();
        assert_eq!(cm.metric("Iout").unwrap().weight, 1.0);
        assert_eq!(cm.metric("Cout").unwrap().weight, 0.1);
        // Active (PMOS) mirror carries medium weight on Cout.
        let cma = lib.get("cm_pmos").unwrap();
        assert_eq!(cma.metric("Cout").unwrap().weight, 0.5);

        let csi = lib.get("csi").unwrap();
        assert_eq!(csi.metric("delay").unwrap().weight, 1.0);
        assert_eq!(csi.metric("I").unwrap().weight, 1.0);
        assert_eq!(csi.metric("gain").unwrap().weight, 0.5);

        let cs = lib.get("cs_amp").unwrap();
        assert_eq!(cs.metric("Gm").unwrap().weight, 1.0);
        assert_eq!(cs.metric("ro").unwrap().weight, 0.5);

        let cap = lib.get("cap_mom").unwrap();
        assert_eq!(cap.metric("C").unwrap().weight, 1.0);
        assert_eq!(cap.metric("f").unwrap().weight, 0.1);
    }

    #[test]
    fn dp_offset_spec_is_near_a_tenth_of_the_pelgrom_offset() {
        // The paper sets the DP offset spec to 10% of the random offset
        // (§II). For a 960-fin finfet7 pair, a tenth of the Pelgrom σ of
        // the pair's ΔV_th lands near the 0.2 mV the library carries.
        let tech = prima_pdk::Technology::finfet7();
        let w = tech.fin.weff_m(960);
        let l = tech.fin.gate_length as f64 * 1e-9;
        let tenth = 0.1 * tech.variation.sigma_vth(w, l);
        assert!(tenth > 0.5e-4 && tenth < 5e-4, "10% of σ is {tenth} V");
        let lib = Library::standard();
        let spec = lib.get("dp").unwrap().metric("offset").unwrap().spec;
        assert_eq!(spec, Some(2.0e-4));
    }

    #[test]
    fn csi_terminals_are_correlated() {
        let lib = Library::standard();
        let csi = lib.get("csi").unwrap();
        assert_eq!(
            csi.terminal("starve").unwrap().correlated_with.as_deref(),
            Some("out")
        );
        assert_eq!(
            csi.terminal("out").unwrap().correlated_with.as_deref(),
            Some("starve")
        );
        // DP terminals are independent.
        let dp = lib.get("dp").unwrap();
        assert!(dp.terminal("source").unwrap().correlated_with.is_none());
    }

    #[test]
    fn mirror_ratios() {
        let lib = Library::standard();
        for (name, want) in [("cm", 1u32), ("cm_1to2", 2), ("cm_1to8", 8)] {
            match &lib.get(name).unwrap().class {
                PrimitiveClass::CurrentMirror { ratio } => assert_eq!(*ratio, want),
                other => panic!("{name} has class {other:?}"),
            }
        }
    }

    #[test]
    fn ports_are_subset_of_spec_nets() {
        let lib = Library::standard();
        for def in lib.iter() {
            if def.spec.devices.is_empty() {
                continue; // passives have no FET template
            }
            let nets = def.spec.nets();
            for p in &def.ports {
                assert!(nets.contains(p), "{}: port {p} not in spec nets", def.name);
            }
        }
    }

    #[test]
    fn tuning_nets_exist() {
        let lib = Library::standard();
        for def in lib.iter() {
            if def.spec.devices.is_empty() {
                continue;
            }
            let nets = def.spec.nets();
            for t in &def.tuning {
                for n in &t.nets {
                    assert!(nets.contains(n), "{}: tuning net {n} missing", def.name);
                }
            }
        }
    }
}
