//! # prima-pdk
//!
//! A synthetic, gridded FinFET process design kit.
//!
//! The paper evaluates on a commercial FinFET node behind an NDA; this crate
//! substitutes a self-consistent synthetic technology that exposes every
//! knob the optimized-primitives methodology exercises:
//!
//! * fin/poly grid geometry (all primitive layouts are tilings of unit
//!   transistors on this grid),
//! * a six-layer metal stack with per-layer resistance and capacitance so
//!   wire-width (parallel-wire) trade-offs are real,
//! * via resistances, so layer choice matters,
//! * layout-dependent-effect coefficients (LOD/stress and well-proximity)
//!   that convert extracted `SA`/`SB`/`SC` distances into threshold and
//!   mobility shifts, and
//! * compact-model cards for the NMOS/PMOS flavors.
//!
//! Everything is plain data: an alternate node is a different
//! `Technology` value, not different code.
//!
//! ## Example
//!
//! ```
//! use prima_pdk::Technology;
//! let tech = Technology::finfet7();
//! assert_eq!(tech.fin.gate_length, 14);
//! let m3 = tech.metal(3);
//! assert!(m3.r_ohm_per_um > tech.metal(6).r_ohm_per_um);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use prima_spice::devices::{FetModel, FetPolarity};

pub mod corners;
pub mod gdsmap;

pub use corners::{CornerBounds, CornerSet, CornerSpec};
pub use gdsmap::{GdsLayerEntry, GdsLayerMap, GDS_FEOL_LAYERS};

/// Nanometres (matches `prima_geom::Nm`; re-declared here to keep the PDK
/// crate independent of geometry).
pub type Nm = i64;

/// Typed failure of a metal/via rule lookup. Flow paths use the `try_*`
/// accessors returning this error so an out-of-stack layer index becomes a
/// reportable condition instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleError {
    /// A 1-based metal layer index beyond the deck's stack.
    MetalOutOfRange {
        /// Requested 1-based layer.
        layer: usize,
        /// Layers in the stack.
        count: usize,
    },
    /// A 1-based via level beyond the deck's via stack.
    ViaOutOfRange {
        /// Requested 1-based via level.
        level: usize,
        /// Via levels in the stack.
        count: usize,
    },
}

impl std::fmt::Display for RuleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuleError::MetalOutOfRange { layer, count } => {
                write!(f, "metal layer M{layer} not in {count}-layer stack")
            }
            RuleError::ViaOutOfRange { level, count } => {
                write!(f, "via level V{level} not in {count}-level via stack")
            }
        }
    }
}

impl std::error::Error for RuleError {}

/// Fin-grid and gate-grid geometry of the node.
#[derive(Debug, Clone, PartialEq)]
pub struct FinGeometry {
    /// Vertical pitch between fins (nm).
    pub fin_pitch: Nm,
    /// Drawn fin width (nm).
    pub fin_width: Nm,
    /// Effective electrical width contributed by one fin (nm).
    pub weff_per_fin: Nm,
    /// Contacted poly (gate) pitch (nm).
    pub poly_pitch: Nm,
    /// Gate length (nm).
    pub gate_length: Nm,
    /// Source/drain diffusion extension per side of a gate (nm).
    pub diff_extension: Nm,
    /// Extra cell height for rails and well margins (nm).
    pub cell_height_overhead: Nm,
    /// Extra cell width for diffusion breaks and dummies (nm).
    pub cell_width_overhead: Nm,
}

impl FinGeometry {
    /// Effective channel width in metres of `nfins` fins.
    pub fn weff_m(&self, nfins: u32) -> f64 {
        nfins as f64 * self.weff_per_fin as f64 * 1e-9
    }

    /// Junction area (m²) of one contacted diffusion region spanning
    /// `nfin` fins.
    pub fn diff_area_m2(&self, nfin: u32) -> f64 {
        let a_nm2 = nfin as f64 * (self.diff_extension as f64) * (self.fin_pitch as f64);
        a_nm2 * 1e-18
    }

    /// Junction perimeter (m) of one contacted diffusion region spanning
    /// `nfin` fins.
    pub fn diff_perimeter_m(&self, nfin: u32) -> f64 {
        let p_nm = 2.0 * self.diff_extension as f64 + 2.0 * nfin as f64 * self.fin_pitch as f64;
        p_nm * 1e-9
    }
}

/// Preferred routing direction of a metal layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteDir {
    /// Horizontal tracks.
    Horizontal,
    /// Vertical tracks.
    Vertical,
}

/// Electrical and geometric description of one metal layer.
#[derive(Debug, Clone, PartialEq)]
pub struct MetalLayer {
    /// Layer name (`M1` …).
    pub name: String,
    /// Preferred direction.
    pub dir: RouteDir,
    /// Routing track pitch (nm).
    pub pitch: Nm,
    /// Minimum wire width (nm).
    pub min_width: Nm,
    /// Resistance of a minimum-width wire (Ω per µm of length).
    pub r_ohm_per_um: f64,
    /// Capacitance of a minimum-width wire (F per µm of length).
    pub c_f_per_um: f64,
}

impl MetalLayer {
    /// Resistance in ohms of a `len_nm` long wire built from `n_parallel`
    /// minimum-width wires strapped together.
    ///
    /// # Panics
    ///
    /// Panics if `n_parallel` is zero.
    pub fn resistance(&self, len_nm: Nm, n_parallel: u32) -> f64 {
        assert!(n_parallel > 0, "need at least one wire");
        self.r_ohm_per_um * (len_nm as f64 / 1000.0) / n_parallel as f64
    }

    /// Capacitance in farads of the same parallel bundle. Strapped parallel
    /// wires act as one effectively wider wire: the first wire pays area
    /// plus both fringes; each additional wire adds mostly area (shared
    /// sidewalls), modeled as a 0.35 marginal factor.
    pub fn capacitance(&self, len_nm: Nm, n_parallel: u32) -> f64 {
        assert!(n_parallel > 0, "need at least one wire");
        let scale = 1.0 + 0.35 * (n_parallel as f64 - 1.0);
        self.c_f_per_um * (len_nm as f64 / 1000.0) * scale
    }
}

/// Layout-dependent-effect coefficients and evaluation.
///
/// LOD (length-of-diffusion / stress) shifts both V_th and mobility as a
/// function of the distances `SA`/`SB` from the gate to the two diffusion
/// edges; WPE (well-proximity effect) shifts V_th as a function of the
/// distance `SC` to the well edge. Forms follow the standard BSIM
/// `1/(SA+L/2)`-style expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct LdeParams {
    /// LOD threshold coefficient (V·nm).
    pub kvth_lod: f64,
    /// LOD mobility coefficient (nm); positive degrades mobility for NMOS.
    pub kmu_lod: f64,
    /// WPE threshold coefficient (V·nm).
    pub kvth_wpe: f64,
    /// WPE distance offset (nm) keeping the shift finite at the well edge.
    pub sc_offset: f64,
    /// Reference inverse-LOD at which shifts are defined as zero (1/nm);
    /// devices laid out at the reference stress see no shift, matching how
    /// foundry models are centered on a nominal layout.
    pub inv_sa_ref: f64,
}

impl LdeParams {
    /// Stress measure `1/(SA+L/2) + 1/(SB+L/2)` in 1/nm.
    pub fn inv_sa(&self, sa_nm: f64, sb_nm: f64, l_nm: f64) -> f64 {
        1.0 / (sa_nm + l_nm / 2.0) + 1.0 / (sb_nm + l_nm / 2.0)
    }

    /// LOD-induced threshold shift (V) at stress measure `inv_sa` (see
    /// [`LdeParams::inv_sa`]), relative to the reference layout.
    pub fn dvth_lod(&self, inv_sa: f64) -> f64 {
        self.kvth_lod * (inv_sa - self.inv_sa_ref)
    }

    /// LOD-induced mobility multiplier at stress measure `inv_sa` (1.0 at
    /// the reference layout).
    pub fn mobility_lod(&self, inv_sa: f64) -> f64 {
        let shift = self.kmu_lod * (inv_sa - self.inv_sa_ref);
        (1.0 - shift).clamp(0.5, 1.5)
    }

    /// WPE-induced threshold shift (V) at distance `sc_nm` from the well
    /// edge.
    pub fn dvth_wpe(&self, sc_nm: f64) -> f64 {
        self.kvth_wpe / (sc_nm.max(0.0) + self.sc_offset)
    }
}

/// Process-variation description used for mismatch/offset analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationParams {
    /// Pelgrom coefficient for V_th mismatch (V·√m): σ(ΔVth) = avth/√(WL).
    pub avth: f64,
    /// Systematic across-die V_th gradient (V per µm of x-distance).
    pub vth_gradient_per_um: f64,
}

impl VariationParams {
    /// Random V_th mismatch sigma (V) for a device of area `w_m × l_m`.
    pub fn sigma_vth(&self, w_m: f64, l_m: f64) -> f64 {
        self.avth / (w_m * l_m).sqrt()
    }

    /// Systematic V_th at horizontal position `x_nm` relative to the cell
    /// origin (linear process gradient).
    pub fn gradient_vth(&self, x_nm: f64) -> f64 {
        self.vth_gradient_per_um * (x_nm / 1000.0)
    }
}

/// Width/space/area rules of one drawn layer (nm, nm, nm²).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerRule {
    /// Layer name (`"diff"`, `"fin"`, `"poly"`, `"M1"` …).
    pub layer: String,
    /// Minimum drawn width of a shape's short side (nm).
    pub min_width: Nm,
    /// Minimum clearance between disjoint same-layer shapes (nm).
    pub min_space: Nm,
    /// Minimum area of a connected same-layer shape (nm²).
    pub min_area_nm2: i64,
}

/// Cut size and metal enclosure of the via level above one metal layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViaRule {
    /// Via name (`"V1"` = M1→M2 …).
    pub name: String,
    /// Square cut side length (nm).
    pub cut: Nm,
    /// Required metal enclosure of the cut on every side (nm).
    pub enclosure: Nm,
}

/// A layer whose shapes must sit on a fixed pitch grid *within a cell*
/// (coordinates are taken relative to the cell origin).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridRule {
    /// Layer name the rule applies to.
    pub layer: String,
    /// Grid pitch (nm).
    pub pitch: Nm,
    /// Offset of the first grid line from the cell origin (nm).
    pub offset: Nm,
}

/// The design-rule section of a [`Technology`]: everything a static DRC
/// pass needs to judge drawn geometry, derived from the same fin-grid and
/// metal-stack numbers the generators consume so the rule deck and the
/// generators cannot drift apart.
///
/// ```
/// use prima_pdk::Technology;
/// let tech = Technology::finfet7();
/// // Metal spacing is the track pitch minus the minimum width …
/// let m1 = tech.rules.metal(1);
/// assert_eq!(m1.min_space, tech.metal(1).pitch - tech.metal(1).min_width);
/// // … vias are enclosed by at least a quarter of the lower wire width …
/// let v3 = tech.rules.via(3);
/// assert!(v3.enclosure >= tech.metal(3).min_width / 4);
/// // … and gates sit on the contacted poly pitch.
/// let poly = tech.rules.grid("poly").unwrap();
/// assert_eq!(poly.pitch, tech.fin.poly_pitch);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignRules {
    /// Manufacturing grid (nm); every drawn coordinate must be a multiple.
    pub grid_nm: Nm,
    /// Front-end layer rules: diffusion, fin, poly.
    pub feol: Vec<LayerRule>,
    /// Back-end rules, `metal[0]` = M1 (same order as `Technology::metals`).
    pub metal: Vec<LayerRule>,
    /// Via rules, `vias[0]` = V1 (M1→M2).
    pub vias: Vec<ViaRule>,
    /// In-cell placement grids (poly columns, M1 stub columns).
    pub grids: Vec<GridRule>,
}

impl DesignRules {
    /// Derives the rule deck from the fin grid and metal stack. The
    /// derivation encodes the node's contract: metal space = pitch − width,
    /// via cuts are half the lower wire width with quarter-width enclosure,
    /// FEOL spaces come from the tiling margins the cell generator leaves.
    pub fn derive(fin: &FinGeometry, metals: &[MetalLayer]) -> Self {
        let metal = metals
            .iter()
            .map(|m| LayerRule {
                layer: m.name.clone(),
                min_width: m.min_width,
                min_space: (m.pitch - m.min_width).max(1),
                min_area_nm2: m.min_width * m.min_width,
            })
            .collect();
        let vias = metals
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                // The cut plus its enclosure must fit inside a minimum-width
                // wire on *both* connected layers, so size from the narrower
                // one (upper layers are narrower than lower ones on decks
                // with LI-style local interconnect).
                let cut = (w[0].min_width.min(w[1].min_width) / 2).max(1);
                ViaRule {
                    name: format!("V{}", i + 1),
                    cut,
                    enclosure: cut / 2,
                }
            })
            .collect();
        let feol = vec![
            LayerRule {
                layer: "diff".to_string(),
                // Strips span whole rows; the short side is the fin stack.
                min_width: fin.fin_pitch,
                min_space: (fin.cell_width_overhead - 2 * fin.diff_extension).max(1),
                min_area_nm2: fin.fin_pitch * fin.poly_pitch,
            },
            LayerRule {
                layer: "fin".to_string(),
                min_width: fin.fin_width,
                min_space: (fin.fin_pitch - fin.fin_width).max(1),
                min_area_nm2: fin.fin_width * fin.fin_width,
            },
            LayerRule {
                layer: "poly".to_string(),
                min_width: fin.gate_length,
                min_space: (fin.poly_pitch - fin.gate_length).max(1),
                min_area_nm2: fin.gate_length * fin.gate_length,
            },
        ];
        let grids = vec![
            GridRule {
                layer: "poly".to_string(),
                pitch: fin.poly_pitch,
                offset: fin.cell_width_overhead / 2 + (fin.poly_pitch - fin.gate_length) / 2,
            },
            GridRule {
                // Bottom-metal stubs land a fixed clearance right of each
                // gate. The grid is named after whatever the deck calls its
                // bottom routing layer ("M1", "LI", …).
                layer: metals
                    .first()
                    .map_or_else(|| "M1".to_string(), |m| m.name.clone()),
                pitch: fin.poly_pitch,
                offset: fin.cell_width_overhead / 2
                    + (fin.poly_pitch - fin.gate_length) / 2
                    + fin.gate_length
                    + 2,
            },
        ];
        DesignRules {
            grid_nm: 1,
            feol,
            metal,
            vias,
            grids,
        }
    }

    /// Metal rule by 1-based layer index, or a typed error if the layer is
    /// not in the stack. Flow paths use this; tests and examples may use the
    /// panicking [`DesignRules::metal`].
    pub fn try_metal(&self, layer: usize) -> Result<&LayerRule, RuleError> {
        if (1..=self.metal.len()).contains(&layer) {
            Ok(&self.metal[layer - 1])
        } else {
            Err(RuleError::MetalOutOfRange {
                layer,
                count: self.metal.len(),
            })
        }
    }

    /// Metal rule by 1-based layer index.
    ///
    /// # Panics
    ///
    /// Panics if the layer does not exist; use [`DesignRules::try_metal`] on
    /// flow paths.
    pub fn metal(&self, layer: usize) -> &LayerRule {
        match self.try_metal(layer) {
            Ok(r) => r,
            Err(e) => panic!("no rules for metal layer M{layer}: {e}"),
        }
    }

    /// Via rule above a 1-based metal layer (`try_via(1)` = V1 = M1→M2), or
    /// a typed error if the via level is not in the stack.
    pub fn try_via(&self, lower_layer: usize) -> Result<&ViaRule, RuleError> {
        if (1..=self.vias.len()).contains(&lower_layer) {
            Ok(&self.vias[lower_layer - 1])
        } else {
            Err(RuleError::ViaOutOfRange {
                level: lower_layer,
                count: self.vias.len(),
            })
        }
    }

    /// Via rule above a 1-based metal layer (`via(1)` = V1 = M1→M2).
    ///
    /// # Panics
    ///
    /// Panics if the via level does not exist; use [`DesignRules::try_via`]
    /// on flow paths.
    pub fn via(&self, lower_layer: usize) -> &ViaRule {
        match self.try_via(lower_layer) {
            Ok(r) => r,
            Err(e) => panic!("no via level above M{lower_layer}: {e}"),
        }
    }

    /// FEOL rule by layer name, if present.
    pub fn feol(&self, layer: &str) -> Option<&LayerRule> {
        self.feol.iter().find(|r| r.layer == layer)
    }

    /// In-cell grid rule by layer name, if present.
    pub fn grid(&self, layer: &str) -> Option<&GridRule> {
        self.grids.iter().find(|r| r.layer == layer)
    }
}

/// Electrical sign-off limits — the data the ERC pass checks against.
///
/// Everything is stored as plain numbers on the [`Technology`] so a node
/// swap changes the limits without touching any checker code. Wire EM
/// limits follow the usual mA-per-µm-of-width form (so wider layers carry
/// proportionally more); via limits are per cut.
#[derive(Debug, Clone, PartialEq)]
pub struct ElectricalRules {
    /// Electromigration limit of drawn wire, mA of DC current per µm of
    /// wire width. A minimum-width wire on layer `l` may carry
    /// `em_ma_per_um × min_width(l)` mA.
    pub em_ma_per_um: f64,
    /// Electromigration limit per via cut (mA), one entry per via level:
    /// `em_ma_per_cut[0]` = V1 (M1→M2).
    pub em_ma_per_cut: Vec<f64>,
    /// Static IR-drop budget on supply nets, as a fraction of `vdd`.
    pub ir_frac_vdd: f64,
    /// Maximum allowed distance (nm) from any cell edge to the nearest
    /// well-tap / substrate-strap row.
    pub max_tap_distance_nm: Nm,
    /// Geometric tolerance (nm) when checking declared symmetry in the
    /// placement (mirror offsets, row alignment, centroid coincidence).
    pub sym_tolerance_nm: Nm,
}

/// The full technology description.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Node name.
    pub name: String,
    /// Nominal supply voltage (V).
    pub vdd: f64,
    /// Fin/gate grid geometry.
    pub fin: FinGeometry,
    /// Metal stack, `metals[0]` = M1.
    pub metals: Vec<MetalLayer>,
    /// Via resistance (Ω per cut) for the transition above each layer:
    /// `via_r[0]` = V1 (M1→M2).
    pub via_r: Vec<f64>,
    /// Via capacitance (F per cut).
    pub via_c: f64,
    /// LDE coefficients for NMOS.
    pub lde_n: LdeParams,
    /// LDE coefficients for PMOS (stress acts with opposite mobility sign in
    /// real silicon; the synthetic node keeps the same form, smaller k).
    pub lde_p: LdeParams,
    /// Variation / mismatch description.
    pub variation: VariationParams,
    /// NMOS model card.
    pub nmos: FetModel,
    /// PMOS model card.
    pub pmos: FetModel,
    /// Static design-rule deck derived from the same geometry numbers.
    pub rules: DesignRules,
    /// Electrical sign-off limits (EM, IR, symmetry, well taps).
    pub electrical: ElectricalRules,
    /// Named PVT corner table (may be empty on decks without corner data).
    pub corners: CornerSet,
    /// GDS-II stream-out layer mapping: unit sizes plus the layer/datatype
    /// pair for every drawn stack layer. Part of the deck fingerprint —
    /// editing it invalidates cached evaluations. An empty map is rejected
    /// by techlint's `TECH.GDS.COVERAGE` before any stream-out.
    pub gds: GdsLayerMap,
}

impl Technology {
    /// The default synthetic 7 nm-class FinFET node used throughout the
    /// reproduction. Numbers are self-consistent order-of-magnitude values
    /// for such a node, not any foundry's data.
    pub fn finfet7() -> Self {
        let lde_n = LdeParams {
            kvth_lod: 0.06,
            kmu_lod: 0.5,
            kvth_wpe: 2.2,
            sc_offset: 120.0,
            inv_sa_ref: 2.0 / (60.0 + 7.0),
        };
        let lde_p = LdeParams {
            kvth_lod: -0.045,
            kmu_lod: -0.35,
            kvth_wpe: 1.6,
            sc_offset: 120.0,
            inv_sa_ref: 2.0 / (60.0 + 7.0),
        };
        let fin = FinGeometry {
            fin_pitch: 27,
            fin_width: 7,
            weff_per_fin: 48,
            poly_pitch: 54,
            gate_length: 14,
            diff_extension: 25,
            cell_height_overhead: 140,
            cell_width_overhead: 108,
        };
        let metals = vec![
            MetalLayer {
                name: "M1".into(),
                dir: RouteDir::Vertical,
                pitch: 36,
                min_width: 18,
                r_ohm_per_um: 130.0,
                c_f_per_um: 0.20e-15,
            },
            MetalLayer {
                name: "M2".into(),
                dir: RouteDir::Horizontal,
                pitch: 40,
                min_width: 20,
                r_ohm_per_um: 95.0,
                c_f_per_um: 0.20e-15,
            },
            MetalLayer {
                name: "M3".into(),
                dir: RouteDir::Vertical,
                pitch: 48,
                min_width: 24,
                r_ohm_per_um: 60.0,
                c_f_per_um: 0.22e-15,
            },
            MetalLayer {
                name: "M4".into(),
                dir: RouteDir::Horizontal,
                pitch: 56,
                min_width: 28,
                r_ohm_per_um: 38.0,
                c_f_per_um: 0.24e-15,
            },
            MetalLayer {
                name: "M5".into(),
                dir: RouteDir::Vertical,
                pitch: 76,
                min_width: 38,
                r_ohm_per_um: 22.0,
                c_f_per_um: 0.26e-15,
            },
            MetalLayer {
                name: "M6".into(),
                dir: RouteDir::Horizontal,
                pitch: 90,
                min_width: 45,
                r_ohm_per_um: 14.0,
                c_f_per_um: 0.28e-15,
            },
        ];
        let rules = DesignRules::derive(&fin, &metals);
        Technology {
            name: "finfet7".to_string(),
            vdd: 0.8,
            corners: CornerSet::standard_finfet7(),
            gds: GdsLayerMap::derive(&metals),
            fin,
            metals,
            rules,
            electrical: ElectricalRules {
                em_ma_per_um: 8.0,
                em_ma_per_cut: vec![0.25, 0.30, 0.35, 0.45, 0.60],
                ir_frac_vdd: 0.05,
                max_tap_distance_nm: 5_000,
                sym_tolerance_nm: 40,
            },
            via_r: vec![22.0, 18.0, 14.0, 10.0, 7.0],
            via_c: 0.02e-15,
            lde_n,
            lde_p,
            variation: VariationParams {
                avth: 1.6e-9,
                vth_gradient_per_um: 0.8e-3,
            },
            nmos: FetModel {
                polarity: FetPolarity::Nmos,
                vth0: 0.26,
                kp: 520e-6,
                lambda: 0.28,
                n_slope: 1.35,
                gamma: 0.20,
                phi: 0.85,
                cox: 0.030,
                cgso: 0.25e-9,
                cgdo: 0.25e-9,
                cj: 0.45e-3,
                cjsw: 0.035e-9,
                temp_c: 27.0,
            },
            pmos: FetModel {
                polarity: FetPolarity::Pmos,
                vth0: 0.24,
                kp: 470e-6,
                lambda: 0.32,
                n_slope: 1.38,
                gamma: 0.18,
                phi: 0.85,
                cox: 0.030,
                cgso: 0.25e-9,
                cgdo: 0.25e-9,
                cj: 0.5e-3,
                cjsw: 0.04e-9,
                temp_c: 27.0,
            },
        }
    }

    /// A synthetic 16 nm-class *bulk* planar node — the extension the
    /// paper's conclusion claims ("this work can readily be extended to
    /// other technologies including bulk nodes"). Same schema, different
    /// numbers: relaxed pitches, lower wire resistance, weaker LDEs
    /// (planar channels see less stress), higher junction capacitance
    /// (bulk junctions), and a planar "fin" abstraction where one "fin"
    /// is a 100 nm slice of drawn width.
    pub fn bulk16() -> Self {
        let lde_n = LdeParams {
            kvth_lod: 0.03,
            kmu_lod: 0.25,
            kvth_wpe: 1.2,
            sc_offset: 200.0,
            inv_sa_ref: 2.0 / (120.0 + 16.0),
        };
        let lde_p = LdeParams {
            kvth_lod: -0.022,
            kmu_lod: -0.18,
            kvth_wpe: 0.9,
            sc_offset: 200.0,
            inv_sa_ref: 2.0 / (120.0 + 16.0),
        };
        let fin = FinGeometry {
            fin_pitch: 100,
            fin_width: 100,
            weff_per_fin: 100,
            poly_pitch: 90,
            gate_length: 32,
            diff_extension: 60,
            cell_height_overhead: 250,
            cell_width_overhead: 180,
        };
        let metals = vec![
            MetalLayer {
                name: "M1".into(),
                dir: RouteDir::Vertical,
                pitch: 64,
                min_width: 32,
                r_ohm_per_um: 55.0,
                c_f_per_um: 0.19e-15,
            },
            MetalLayer {
                name: "M2".into(),
                dir: RouteDir::Horizontal,
                pitch: 64,
                min_width: 32,
                r_ohm_per_um: 45.0,
                c_f_per_um: 0.19e-15,
            },
            MetalLayer {
                name: "M3".into(),
                dir: RouteDir::Vertical,
                pitch: 80,
                min_width: 40,
                r_ohm_per_um: 30.0,
                c_f_per_um: 0.21e-15,
            },
            MetalLayer {
                name: "M4".into(),
                dir: RouteDir::Horizontal,
                pitch: 100,
                min_width: 50,
                r_ohm_per_um: 18.0,
                c_f_per_um: 0.23e-15,
            },
            MetalLayer {
                name: "M5".into(),
                dir: RouteDir::Vertical,
                pitch: 140,
                min_width: 70,
                r_ohm_per_um: 10.0,
                c_f_per_um: 0.25e-15,
            },
            MetalLayer {
                name: "M6".into(),
                dir: RouteDir::Horizontal,
                pitch: 200,
                min_width: 100,
                r_ohm_per_um: 6.0,
                c_f_per_um: 0.27e-15,
            },
        ];
        let rules = DesignRules::derive(&fin, &metals);
        Technology {
            name: "bulk16".to_string(),
            vdd: 0.9,
            corners: CornerSet::standard_bulk16(),
            gds: GdsLayerMap::derive(&metals),
            fin,
            metals,
            rules,
            electrical: ElectricalRules {
                em_ma_per_um: 5.0,
                em_ma_per_cut: vec![0.30, 0.35, 0.40, 0.50, 0.70],
                ir_frac_vdd: 0.05,
                max_tap_distance_nm: 8_000,
                sym_tolerance_nm: 80,
            },
            via_r: vec![12.0, 10.0, 8.0, 6.0, 4.0],
            via_c: 0.03e-15,
            lde_n,
            lde_p,
            variation: VariationParams {
                avth: 2.6e-9,
                vth_gradient_per_um: 0.5e-3,
            },
            nmos: FetModel {
                polarity: FetPolarity::Nmos,
                vth0: 0.38,
                kp: 330e-6,
                lambda: 0.12,
                n_slope: 1.45,
                gamma: 0.35,
                phi: 0.9,
                cox: 0.014,
                cgso: 0.30e-9,
                cgdo: 0.30e-9,
                cj: 1.1e-3,
                cjsw: 0.10e-9,
                temp_c: 27.0,
            },
            pmos: FetModel {
                polarity: FetPolarity::Pmos,
                vth0: 0.36,
                kp: 140e-6,
                lambda: 0.14,
                n_slope: 1.5,
                gamma: 0.32,
                phi: 0.9,
                cox: 0.014,
                cgso: 0.30e-9,
                cgdo: 0.30e-9,
                cj: 1.2e-3,
                cjsw: 0.11e-9,
                temp_c: 27.0,
            },
        }
    }

    /// A deliberately stressed SKY130-flavored 130 nm-class bulk node: the
    /// fixture that proves the flow is PDK-agnostic. Unlike the two
    /// synthetic nodes it has
    ///
    /// * a **local-interconnect-style bottom layer** (`LI`) that is *wider*
    ///   and far more resistive than the metal above it — width quantization
    ///   is non-monotone up the stack,
    /// * **non-uniform pitches** (LI 340, M1/M2 280, M3/M4 600) instead of a
    ///   smooth progression,
    /// * **fewer levels**: 5 routing layers and 4 via levels, and
    /// * a 1.8 V thick-oxide device pair.
    ///
    /// Numbers are order-of-magnitude SKY130 (open PDK), not the real deck.
    pub fn sky130ish() -> Self {
        let lde_n = LdeParams {
            kvth_lod: 0.012,
            kmu_lod: 0.10,
            kvth_wpe: 0.8,
            sc_offset: 300.0,
            inv_sa_ref: 2.0 / (240.0 + 75.0),
        };
        let lde_p = LdeParams {
            kvth_lod: -0.009,
            kmu_lod: -0.08,
            kvth_wpe: 0.6,
            sc_offset: 300.0,
            inv_sa_ref: 2.0 / (240.0 + 75.0),
        };
        let fin = FinGeometry {
            // Planar abstraction: one "fin" is a 200 nm slice of width.
            fin_pitch: 200,
            fin_width: 200,
            weff_per_fin: 200,
            poly_pitch: 430,
            gate_length: 150,
            diff_extension: 130,
            // Row gap is overhead − 2·diff_extension; must clear the derived
            // poly min_space (poly_pitch − gate_length = 280): 600−260 = 340.
            cell_height_overhead: 600,
            cell_width_overhead: 300,
        };
        let metals = vec![
            MetalLayer {
                name: "LI".into(),
                dir: RouteDir::Vertical,
                pitch: 340,
                min_width: 170,
                // Titanium nitride local interconnect: enormously resistive.
                r_ohm_per_um: 75.0,
                c_f_per_um: 0.10e-15,
            },
            MetalLayer {
                name: "M1".into(),
                dir: RouteDir::Horizontal,
                pitch: 280,
                min_width: 140,
                r_ohm_per_um: 0.90,
                c_f_per_um: 0.11e-15,
            },
            MetalLayer {
                name: "M2".into(),
                dir: RouteDir::Vertical,
                pitch: 280,
                min_width: 140,
                r_ohm_per_um: 0.90,
                c_f_per_um: 0.11e-15,
            },
            MetalLayer {
                name: "M3".into(),
                dir: RouteDir::Horizontal,
                pitch: 600,
                min_width: 300,
                r_ohm_per_um: 0.16,
                c_f_per_um: 0.12e-15,
            },
            MetalLayer {
                name: "M4".into(),
                dir: RouteDir::Vertical,
                pitch: 600,
                min_width: 300,
                r_ohm_per_um: 0.16,
                c_f_per_um: 0.12e-15,
            },
        ];
        let rules = DesignRules::derive(&fin, &metals);
        Technology {
            name: "sky130ish".to_string(),
            vdd: 1.8,
            corners: CornerSet::standard_sky130ish(),
            gds: GdsLayerMap::derive(&metals),
            fin,
            metals,
            rules,
            electrical: ElectricalRules {
                em_ma_per_um: 3.0,
                em_ma_per_cut: vec![0.30, 0.35, 0.50, 0.70],
                ir_frac_vdd: 0.05,
                max_tap_distance_nm: 15_000,
                sym_tolerance_nm: 100,
            },
            via_r: vec![9.0, 9.0, 3.4, 3.4],
            via_c: 0.05e-15,
            lde_n,
            lde_p,
            variation: VariationParams {
                avth: 5.0e-9,
                vth_gradient_per_um: 0.3e-3,
            },
            nmos: FetModel {
                polarity: FetPolarity::Nmos,
                vth0: 0.48,
                kp: 180e-6,
                lambda: 0.08,
                n_slope: 1.5,
                gamma: 0.45,
                phi: 0.9,
                cox: 0.008,
                cgso: 0.35e-9,
                cgdo: 0.35e-9,
                cj: 1.0e-3,
                cjsw: 0.12e-9,
                temp_c: 27.0,
            },
            pmos: FetModel {
                polarity: FetPolarity::Pmos,
                vth0: 0.45,
                kp: 60e-6,
                lambda: 0.10,
                n_slope: 1.55,
                gamma: 0.40,
                phi: 0.9,
                cox: 0.008,
                cgso: 0.35e-9,
                cgdo: 0.35e-9,
                cj: 1.1e-3,
                cjsw: 0.13e-9,
                temp_c: 27.0,
            },
        }
    }

    /// Metal layer by 1-based index (`try_metal(1)` = M1), or a typed error
    /// if the layer is not in this node's stack.
    pub fn try_metal(&self, layer: usize) -> Result<&MetalLayer, RuleError> {
        if (1..=self.metals.len()).contains(&layer) {
            Ok(&self.metals[layer - 1])
        } else {
            Err(RuleError::MetalOutOfRange {
                layer,
                count: self.metals.len(),
            })
        }
    }

    /// Metal layer by 1-based index (`metal(1)` = M1).
    ///
    /// # Panics
    ///
    /// Panics if the layer does not exist in this node; use
    /// [`Technology::try_metal`] on flow paths.
    pub fn metal(&self, layer: usize) -> &MetalLayer {
        match self.try_metal(layer) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Number of metal layers.
    pub fn metal_count(&self) -> usize {
        self.metals.len()
    }

    /// Total via resistance (Ω) of a single-cut stack from `from_layer` to
    /// `to_layer` (1-based, either order).
    pub fn via_stack_r(&self, from_layer: usize, to_layer: usize) -> f64 {
        let (lo, hi) = if from_layer <= to_layer {
            (from_layer, to_layer)
        } else {
            (to_layer, from_layer)
        };
        assert!(lo >= 1 && hi <= self.metals.len(), "layer out of range");
        self.via_r[(lo - 1)..(hi - 1)].iter().sum()
    }

    /// Electromigration limit (A) of one minimum-width wire on a 1-based
    /// metal layer.
    ///
    /// # Panics
    ///
    /// Panics if the layer does not exist in this node.
    pub fn em_wire_limit_a(&self, layer: usize) -> f64 {
        let m = self.metal(layer);
        self.electrical.em_ma_per_um * (m.min_width as f64 / 1000.0) * 1e-3
    }

    /// Electromigration limit (A) of one via cut at a 1-based via level, or
    /// a typed error if the level has no stored limit.
    pub fn try_em_via_limit_a(&self, level: usize) -> Result<f64, RuleError> {
        if (1..=self.electrical.em_ma_per_cut.len()).contains(&level) {
            Ok(self.electrical.em_ma_per_cut[level - 1] * 1e-3)
        } else {
            Err(RuleError::ViaOutOfRange {
                level,
                count: self.electrical.em_ma_per_cut.len(),
            })
        }
    }

    /// Electromigration limit (A) of one via cut at a 1-based via level
    /// (`em_via_limit_a(1)` = V1, the M1→M2 transition).
    ///
    /// # Panics
    ///
    /// Panics if the via level does not exist in this node; use
    /// [`Technology::try_em_via_limit_a`] on flow paths.
    pub fn em_via_limit_a(&self, level: usize) -> f64 {
        match self.try_em_via_limit_a(level) {
            Ok(v) => v,
            Err(e) => panic!("via level V{level} not in stack: {e}"),
        }
    }

    /// Number of parallel minimum-width routes needed to carry `amps` of
    /// worst-case DC current on a 1-based metal layer without violating
    /// any EM limit — the wire limit of the layer itself and every via
    /// level of the M1-to-`layer` access stack (each parallel route adds
    /// one cut per level, so cut count scales with the route count).
    ///
    /// Always at least 1; monotone non-decreasing in `amps`.
    pub fn em_required_routes(&self, layer: usize, amps: f64) -> u32 {
        let amps = amps.abs();
        let per_route = |limit: f64| -> u32 {
            if limit <= 0.0 {
                return 1;
            }
            (amps / limit).ceil().max(1.0) as u32
        };
        let mut need = per_route(self.em_wire_limit_a(layer));
        for level in 1..layer {
            need = need.max(per_route(self.em_via_limit_a(level)));
        }
        need
    }

    /// Static IR-drop budget (V) on supply nets for this node.
    pub fn ir_budget_v(&self) -> f64 {
        self.electrical.ir_frac_vdd * self.vdd
    }

    /// LDE parameters for a polarity.
    pub fn lde(&self, polarity: FetPolarity) -> &LdeParams {
        match polarity {
            FetPolarity::Nmos => &self.lde_n,
            FetPolarity::Pmos => &self.lde_p,
        }
    }

    /// Model card for a polarity.
    pub fn model(&self, polarity: FetPolarity) -> &FetModel {
        match polarity {
            FetPolarity::Nmos => &self.nmos,
            FetPolarity::Pmos => &self.pmos,
        }
    }

    /// The deck perturbed to one PVT corner: model thresholds shifted,
    /// transconductance scaled, supply scaled, junction temperature
    /// retargeted. Geometry, design rules, and the metal stack are
    /// untouched, so layouts and routes generated at nominal remain valid
    /// at every corner — only electrical evaluation changes.
    pub fn apply_corner(&self, c: &CornerSpec) -> Technology {
        let mut t = self.clone();
        t.vdd *= c.vdd_scale;
        t.nmos.vth0 += c.nmos_vth_shift_v;
        t.pmos.vth0 += c.pmos_vth_shift_v;
        t.nmos.kp *= c.nmos_kp_scale;
        t.pmos.kp *= c.pmos_kp_scale;
        if let Some(temp) = c.temp_c {
            t.nmos = t.nmos.at_temperature(temp);
            t.pmos = t.pmos.at_temperature(temp);
        }
        t
    }

    /// The deck perturbed by one local-mismatch draw: an additive
    /// threshold shift and a multiplicative mobility (kp) scale applied to
    /// both polarities. Used by the Monte-Carlo sampler to evaluate one
    /// instance under one sampled deviation; supply and temperature stay
    /// nominal.
    pub fn apply_mismatch(&self, delta_vth_v: f64, mobility_scale: f64) -> Technology {
        let mut t = self.clone();
        t.nmos.vth0 += delta_vth_v;
        t.pmos.vth0 += delta_vth_v;
        t.nmos.kp *= mobility_scale;
        t.pmos.kp *= mobility_scale;
        t
    }
}

// ---------------------------------------------------------------------------
// Content fingerprints (prima-cache). Every field of every sub-struct is fed:
// a parameter the evaluator never reads costs one spurious invalidation, but
// a parameter missed here would serve stale results after a PDK edit.

use prima_cache::{Fingerprintable, FpHasher};

impl Fingerprintable for FinGeometry {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("FinGeometry");
        for v in [
            self.fin_pitch,
            self.fin_width,
            self.weff_per_fin,
            self.poly_pitch,
            self.gate_length,
            self.diff_extension,
            self.cell_height_overhead,
            self.cell_width_overhead,
        ] {
            h.write_i64(v);
        }
    }
}

impl Fingerprintable for RouteDir {
    fn feed(&self, h: &mut FpHasher) {
        h.write_u8(match self {
            RouteDir::Horizontal => 0,
            RouteDir::Vertical => 1,
        });
    }
}

impl Fingerprintable for MetalLayer {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("MetalLayer");
        h.write_str(&self.name);
        self.dir.feed(h);
        h.write_i64(self.pitch);
        h.write_i64(self.min_width);
        h.write_f64(self.r_ohm_per_um);
        h.write_f64(self.c_f_per_um);
    }
}

impl Fingerprintable for LdeParams {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("LdeParams");
        for v in [
            self.kvth_lod,
            self.kmu_lod,
            self.kvth_wpe,
            self.sc_offset,
            self.inv_sa_ref,
        ] {
            h.write_f64(v);
        }
    }
}

impl Fingerprintable for VariationParams {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("VariationParams");
        h.write_f64(self.avth);
        h.write_f64(self.vth_gradient_per_um);
    }
}

impl Fingerprintable for LayerRule {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("LayerRule");
        h.write_str(&self.layer);
        h.write_i64(self.min_width);
        h.write_i64(self.min_space);
        h.write_i64(self.min_area_nm2);
    }
}

impl Fingerprintable for ViaRule {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("ViaRule");
        h.write_str(&self.name);
        h.write_i64(self.cut);
        h.write_i64(self.enclosure);
    }
}

impl Fingerprintable for GridRule {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("GridRule");
        h.write_str(&self.layer);
        h.write_i64(self.pitch);
        h.write_i64(self.offset);
    }
}

impl Fingerprintable for DesignRules {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("DesignRules");
        h.write_i64(self.grid_nm);
        self.feol.feed(h);
        self.metal.feed(h);
        self.vias.feed(h);
        self.grids.feed(h);
    }
}

impl Fingerprintable for ElectricalRules {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("ElectricalRules");
        h.write_f64(self.em_ma_per_um);
        self.em_ma_per_cut.feed(h);
        h.write_f64(self.ir_frac_vdd);
        h.write_i64(self.max_tap_distance_nm);
        h.write_i64(self.sym_tolerance_nm);
    }
}

impl Fingerprintable for Technology {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("Technology");
        h.write_str(&self.name);
        h.write_f64(self.vdd);
        self.fin.feed(h);
        self.metals.feed(h);
        self.via_r.feed(h);
        h.write_f64(self.via_c);
        self.lde_n.feed(h);
        self.lde_p.feed(h);
        self.variation.feed(h);
        self.nmos.feed(h);
        self.pmos.feed(h);
        self.rules.feed(h);
        self.electrical.feed(h);
        self.corners.feed(h);
        self.gds.feed(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_node_is_consistent() {
        let t = Technology::finfet7();
        assert_eq!(t.metals.len(), 6);
        assert_eq!(t.via_r.len(), 5);
        // Upper metals are less resistive, at least as capacitive per µm.
        for w in t.metals.windows(2) {
            assert!(w[0].r_ohm_per_um > w[1].r_ohm_per_um);
            assert!(w[0].c_f_per_um <= w[1].c_f_per_um);
        }
        // Directions alternate.
        for w in t.metals.windows(2) {
            assert_ne!(w[0].dir, w[1].dir);
        }
    }

    #[test]
    fn wire_resistance_divides_by_parallel_count() {
        let t = Technology::finfet7();
        let m3 = t.metal(3);
        let r1 = m3.resistance(2000, 1);
        let r4 = m3.resistance(2000, 4);
        assert!((r1 / r4 - 4.0).abs() < 1e-12);
        // 2 µm of M3 at 60 Ω/µm = 120 Ω.
        assert!((r1 - 120.0).abs() < 1e-9);
    }

    #[test]
    fn wire_capacitance_grows_sublinearly() {
        let t = Technology::finfet7();
        let m3 = t.metal(3);
        let c1 = m3.capacitance(1000, 1);
        let c2 = m3.capacitance(1000, 2);
        let c4 = m3.capacitance(1000, 4);
        assert!(c2 > c1 && c2 < 2.0 * c1);
        // Marginal wires are area-dominated: doubling the bundle does not
        // double the capacitance.
        assert!(c4 < 2.0 * c2 && c4 > c2);
    }

    #[test]
    #[should_panic(expected = "at least one wire")]
    fn zero_parallel_wires_rejected() {
        let t = Technology::finfet7();
        let _ = t.metal(1).resistance(100, 0);
    }

    #[test]
    fn via_stack_resistance_accumulates() {
        let t = Technology::finfet7();
        assert_eq!(t.via_stack_r(1, 1), 0.0);
        assert!((t.via_stack_r(1, 2) - 22.0).abs() < 1e-12);
        assert!((t.via_stack_r(1, 4) - (22.0 + 18.0 + 14.0)).abs() < 1e-12);
        // Symmetric in argument order.
        assert_eq!(t.via_stack_r(4, 1), t.via_stack_r(1, 4));
    }

    #[test]
    #[should_panic(expected = "not in")]
    fn metal_out_of_range_panics() {
        let t = Technology::finfet7();
        let _ = t.metal(9);
    }

    #[test]
    fn lod_shift_decreases_with_distance() {
        let t = Technology::finfet7();
        let lde = &t.lde_n;
        let near = lde.dvth_lod(lde.inv_sa(30.0, 30.0, 14.0));
        let far = lde.dvth_lod(lde.inv_sa(300.0, 300.0, 14.0));
        assert!(near > far, "stress relaxes with distance: {near} vs {far}");
        // At the reference layout the shift is zero by construction.
        let at_ref = lde.dvth_lod(lde.inv_sa(60.0, 60.0, 14.0));
        assert!(at_ref.abs() < 1e-6, "reference shift {at_ref}");
    }

    #[test]
    fn wpe_shift_monotone_in_well_distance() {
        let t = Technology::finfet7();
        let mut last = f64::INFINITY;
        for sc in [50.0, 100.0, 200.0, 400.0, 800.0] {
            let v = t.lde_n.dvth_wpe(sc);
            assert!(v > 0.0 && v < last);
            last = v;
        }
    }

    #[test]
    fn mobility_multiplier_clamped() {
        let lde = LdeParams {
            kvth_lod: 0.0,
            kmu_lod: 1e6,
            kvth_wpe: 0.0,
            sc_offset: 1.0,
            inv_sa_ref: 0.0,
        };
        assert_eq!(lde.mobility_lod(lde.inv_sa(1.0, 1.0, 14.0)), 0.5);
    }

    #[test]
    fn mismatch_scales_with_area() {
        let t = Technology::finfet7();
        let small = t.variation.sigma_vth(100e-9, 14e-9);
        let big = t.variation.sigma_vth(400e-9, 14e-9);
        assert!((small / big - 2.0).abs() < 1e-9);
    }

    #[test]
    fn diffusion_geometry_scales_with_fins() {
        let f = Technology::finfet7().fin;
        assert!((f.diff_area_m2(8) / f.diff_area_m2(4) - 2.0).abs() < 1e-12);
        assert!(f.diff_perimeter_m(8) < 2.0 * f.diff_perimeter_m(4));
        assert!((f.weff_m(960) - 46.08e-6).abs() < 1e-9);
    }

    #[test]
    fn bulk_node_is_consistent_and_distinct() {
        let b = Technology::bulk16();
        assert_eq!(b.metals.len(), 6);
        assert_eq!(b.via_r.len(), 5);
        for w in b.metals.windows(2) {
            assert!(w[0].r_ohm_per_um > w[1].r_ohm_per_um);
            assert_ne!(w[0].dir, w[1].dir);
        }
        let f = Technology::finfet7();
        // Bulk: weaker stress effects, heavier junctions, relaxed pitches.
        assert!(b.lde_n.kvth_lod < f.lde_n.kvth_lod);
        assert!(b.nmos.cj > f.nmos.cj);
        assert!(b.fin.poly_pitch > f.fin.poly_pitch);
        assert!(b.vdd > f.vdd);
    }

    #[test]
    fn sky130ish_node_is_stressed_but_coherent() {
        let t = Technology::sky130ish();
        assert_eq!(t.metals.len(), 5, "5 routing layers incl. LI");
        assert_eq!(t.via_r.len(), 4);
        assert_eq!(t.electrical.em_ma_per_cut.len(), 4);
        // The deliberately stressed bits: LI is *wider* than the metal above
        // it (non-monotone width quantization) and pitches are non-uniform.
        assert!(t.metals[0].min_width > t.metals[1].min_width);
        assert!(t.metals[0].name == "LI");
        assert_ne!(t.metals[1].pitch, t.metals[3].pitch);
        // Resistance still falls (weakly) going up; directions alternate.
        for w in t.metals.windows(2) {
            assert!(w[0].r_ohm_per_um >= w[1].r_ohm_per_um);
            assert_ne!(w[0].dir, w[1].dir);
        }
        // Geometry contracts the cell generator relies on.
        assert!(t.metals[0].pitch <= t.fin.poly_pitch);
        assert!(t.fin.fin_pitch >= t.metals[0].min_width);
        // Bottom-grid rule is named after LI, not a hardcoded "M1".
        assert!(t.rules.grid("LI").is_some());
    }

    #[test]
    fn try_accessors_report_typed_errors() {
        let t = Technology::sky130ish();
        assert_eq!(t.try_metal(5).map(|m| m.name.as_str()), Ok("M4"));
        assert_eq!(
            t.try_metal(6),
            Err(RuleError::MetalOutOfRange { layer: 6, count: 5 })
        );
        assert!(t.rules.try_metal(1).is_ok());
        assert_eq!(
            t.rules.try_via(5),
            Err(RuleError::ViaOutOfRange { level: 5, count: 4 })
        );
        assert!(t.try_em_via_limit_a(4).is_ok());
        assert!(t.try_em_via_limit_a(5).is_err());
        // The error renders the layer and the stack size.
        let msg = t.try_metal(6).unwrap_err().to_string();
        assert!(msg.contains("M6") && msg.contains("5-layer"), "{msg}");
    }

    #[test]
    fn design_rules_are_consistent_with_geometry() {
        for tech in [
            Technology::finfet7(),
            Technology::bulk16(),
            Technology::sky130ish(),
        ] {
            let rules = &tech.rules;
            assert_eq!(rules.grid_nm, 1);
            assert_eq!(rules.metal.len(), tech.metal_count());
            assert_eq!(rules.vias.len(), tech.metal_count() - 1);
            for (i, m) in tech.metals.iter().enumerate() {
                let r = rules.metal(i + 1);
                assert_eq!(r.layer, m.name);
                assert_eq!(r.min_width, m.min_width);
                // Two wires on adjacent tracks sit exactly at min_space:
                // the deck must accept the router's track grid.
                assert_eq!(r.min_space, (m.pitch - m.min_width).max(1));
                assert!(r.min_area_nm2 > 0);
            }
            for (i, v) in rules.vias.iter().enumerate() {
                // The cut plus its enclosure must fit in a minimum-width
                // wire on both connected layers.
                let lower = tech.metal(i + 1).min_width;
                let upper = tech.metal(i + 2).min_width;
                assert!(v.cut + 2 * v.enclosure <= lower.min(upper));
                assert!(v.cut >= 1);
            }
            for layer in ["diff", "fin", "poly"] {
                let r = rules.feol(layer).expect("FEOL rule present");
                assert!(r.min_width >= 1 && r.min_space >= 1);
            }
            // Gates repeat on the contacted poly pitch; the first gate of a
            // cell sits centred in its poly column.
            let poly = rules.grid("poly").expect("poly grid rule");
            assert_eq!(poly.pitch, tech.fin.poly_pitch);
            assert_eq!(
                poly.offset,
                tech.fin.cell_width_overhead / 2 + (tech.fin.poly_pitch - tech.fin.gate_length) / 2
            );
            // The stub grid is named after the deck's bottom routing layer.
            assert!(rules.grid(&tech.metals[0].name).is_some());
        }
    }

    #[test]
    fn em_limits_follow_the_stored_data() {
        let tech = Technology::finfet7();
        // A minimum-width M3 wire: 24 nm × 8 mA/µm = 0.192 mA.
        let limit = tech.em_wire_limit_a(3);
        assert!((limit - 0.192e-3).abs() < 1e-9, "{limit}");
        // Wider layers carry more per wire.
        assert!(tech.em_wire_limit_a(4) > limit);
        // Below the limit one route suffices; above it the count climbs.
        assert_eq!(tech.em_required_routes(3, 0.15e-3), 1);
        assert_eq!(tech.em_required_routes(3, 0.30e-3), 2);
        assert_eq!(tech.em_required_routes(3, 0.70e-3), 4);
        // The budget is a fraction of vdd.
        assert!((tech.ir_budget_v() - 0.05 * tech.vdd).abs() < 1e-12);
    }

    #[test]
    fn em_required_routes_counts_via_cuts_too() {
        let mut tech = Technology::finfet7();
        // Make the V1 cut the binding limit: a route on M3 needs cuts at
        // V1 and V2, so a tiny V1 allowance forces extra parallel routes
        // even though the wire itself could carry the current.
        tech.electrical.em_ma_per_cut[0] = 0.05;
        assert_eq!(tech.em_required_routes(3, 0.15e-3), 3);
        // M1 itself has no via stack below it — only the wire limit binds.
        assert_eq!(tech.em_required_routes(1, 0.1e-3), 1);
    }
}
