//! The primitive cell generator: unit-transistor tiling, diffusion-sharing
//! analysis, and LDE geometry extraction.

use std::collections::BTreeMap;
use std::fmt;

use prima_geom::{Nm, Point, Rect};
use prima_pdk::Technology;
use prima_spice::devices::FetPolarity;

use crate::extract::{NetAttachment, NetWiring};

/// Errors produced by the cell generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// A structural parameter was zero or inconsistent.
    BadConfig {
        /// Description of the violated constraint.
        reason: String,
    },
    /// The requested net does not exist in the primitive.
    UnknownNet {
        /// The missing net name.
        net: String,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::BadConfig { reason } => write!(f, "bad cell config: {reason}"),
            LayoutError::UnknownNet { net } => write!(f, "unknown net {net}"),
        }
    }
}

impl std::error::Error for LayoutError {}

/// One transistor of a primitive: polarity and terminal net names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Instance name (used for the generated FET instance).
    pub name: String,
    /// Channel polarity.
    pub polarity: FetPolarity,
    /// Drain net name.
    pub drain: String,
    /// Gate net name.
    pub gate: String,
    /// Source net name.
    pub source: String,
    /// Relative size ratio (fingers multiplier, ≥ 1); a 1:8 current mirror
    /// uses ratio 1 for the reference and 8 for the output device.
    pub ratio: u32,
}

impl DeviceSpec {
    /// Creates a unit-ratio device.
    pub fn new(name: &str, polarity: FetPolarity, drain: &str, gate: &str, source: &str) -> Self {
        DeviceSpec {
            name: name.to_string(),
            polarity,
            drain: drain.to_string(),
            gate: gate.to_string(),
            source: source.to_string(),
            ratio: 1,
        }
    }

    /// Creates a device with a size ratio relative to the unit device.
    pub fn with_ratio(
        name: &str,
        polarity: FetPolarity,
        drain: &str,
        gate: &str,
        source: &str,
        ratio: u32,
    ) -> Self {
        DeviceSpec {
            ratio,
            ..DeviceSpec::new(name, polarity, drain, gate, source)
        }
    }
}

/// A primitive's electrical template: the devices to tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimitiveSpec {
    /// Primitive name.
    pub name: String,
    /// Devices (1–4 for typical primitives).
    pub devices: Vec<DeviceSpec>,
}

impl PrimitiveSpec {
    /// Creates a primitive spec.
    pub fn new(name: &str, devices: Vec<DeviceSpec>) -> Self {
        PrimitiveSpec {
            name: name.to_string(),
            devices,
        }
    }

    /// All distinct net names, in first-appearance order.
    pub fn nets(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for d in &self.devices {
            for n in [&d.drain, &d.gate, &d.source] {
                if !seen.contains(n) {
                    seen.push(n.clone());
                }
            }
        }
        seen
    }
}

/// Placement pattern of device fingers within a row (Fig. 5 / Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPattern {
    /// Common-centroid `A…B…B…A` — cancels a linear process gradient.
    Abba,
    /// Interdigitated `ABAB…` — partially cancels the gradient.
    Abab,
    /// Blocked `AA…BB…` — no gradient cancellation, best diffusion sharing
    /// within each device.
    Aabb,
}

impl PlacementPattern {
    /// All patterns, in the order the paper tabulates them.
    pub const ALL: [PlacementPattern; 3] = [
        PlacementPattern::Abba,
        PlacementPattern::Abab,
        PlacementPattern::Aabb,
    ];
}

impl fmt::Display for PlacementPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PlacementPattern::Abba => "ABBA",
            PlacementPattern::Abab => "ABAB",
            PlacementPattern::Aabb => "AABB",
        };
        f.write_str(s)
    }
}

/// A layout configuration: the knobs of Fig. 5(b) plus pattern and dummies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellConfig {
    /// Fins per finger.
    pub nfin: u32,
    /// Fingers per unit device.
    pub nf: u32,
    /// Multiplicity (rows of units).
    pub m: u32,
    /// Finger arrangement within a row.
    pub pattern: PlacementPattern,
    /// Whether to add two dummy fingers at each row end (relaxes LOD stress
    /// at the cost of area and a little extra capacitance).
    pub dummies: bool,
    /// Whether the cell uses FinFET-style mesh routing (one trunk strap per
    /// unit row). Performance-aware flows always do; a geometry-only flow
    /// routes each net with a single trunk.
    pub mesh: bool,
}

impl CellConfig {
    /// Creates a config with dummies and mesh routing enabled (the common
    /// FinFET practice).
    pub fn new(nfin: u32, nf: u32, m: u32, pattern: PlacementPattern) -> Self {
        CellConfig {
            nfin,
            nf,
            m,
            pattern,
            dummies: true,
            mesh: true,
        }
    }

    /// Total fins per unit device: `nfin · nf · m`.
    pub fn total_fins(&self) -> u64 {
        self.nfin as u64 * self.nf as u64 * self.m as u64
    }
}

/// Per-device geometry extracted from the generated layout.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceGeometry {
    /// Device name from the spec.
    pub name: String,
    /// Polarity.
    pub polarity: FetPolarity,
    /// Total effective width (m).
    pub w_m: f64,
    /// Channel length (m).
    pub l_m: f64,
    /// Combined layout-dependent V_th shift (V): LOD + WPE + systematic
    /// gradient at the device centroid.
    pub delta_vth: f64,
    /// LOD-induced mobility multiplier.
    pub mobility_scale: f64,
    /// Mean stress measure `1/(SA+L/2)+1/(SB+L/2)` (1/nm), for reporting.
    pub inv_sa_mean: f64,
    /// Mean distance to the nearest well edge (nm).
    pub sc_mean_nm: f64,
    /// X-centroid of the device's fingers (nm from cell left edge).
    pub centroid_x_nm: f64,
}

/// A generated primitive layout with extracted parasitics and LDE data.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimitiveLayout {
    /// Name of the primitive this was generated from.
    pub primitive: String,
    /// The generating configuration.
    pub config: CellConfig,
    /// Cell bounding box (nm).
    pub bbox: Rect,
    /// Per-device geometry, in spec order.
    pub devices: Vec<DeviceGeometry>,
    /// Per-net wiring model (keyed by net name). Ordered maps, so `Debug`
    /// and the fingerprint read the nets in one order in every process.
    pub(crate) nets: BTreeMap<String, NetWiring>,
    /// Tuning state: parallel trunk wires per net (default 1).
    pub(crate) parallel_wires: BTreeMap<String, u32>,
}

impl PrimitiveLayout {
    /// Bounding-box aspect ratio (width / height).
    pub fn aspect_ratio(&self) -> f64 {
        self.bbox.aspect_ratio()
    }

    /// Cell area in µm².
    pub fn area_um2(&self) -> f64 {
        self.bbox.area() as f64 * 1e-6
    }

    /// Geometry record of a device by name.
    pub fn device(&self, name: &str) -> Option<&DeviceGeometry> {
        self.devices.iter().find(|d| d.name == name)
    }

    /// Sets the number of parallel trunk wires on a net (primitive tuning).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::UnknownNet`] for nets not in the layout and
    /// [`LayoutError::BadConfig`] for `k == 0`.
    pub fn set_parallel_wires(&mut self, net: &str, k: u32) -> Result<(), LayoutError> {
        if k == 0 {
            return Err(LayoutError::BadConfig {
                reason: "parallel wire count must be >= 1".to_string(),
            });
        }
        if !self.nets.contains_key(net) {
            return Err(LayoutError::UnknownNet {
                net: net.to_string(),
            });
        }
        self.parallel_wires.insert(net.to_string(), k);
        Ok(())
    }

    /// Current parallel-wire count on a net (1 if never tuned).
    pub fn parallel_wires(&self, net: &str) -> u32 {
        self.parallel_wires.get(net).copied().unwrap_or(1)
    }

    /// Extracted parasitics of a net under the current tuning state.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::UnknownNet`] if the net is not in the layout.
    pub fn net_parasitics(&self, net: &str) -> Result<crate::NetParasitics, LayoutError> {
        let wiring = self.nets.get(net).ok_or_else(|| LayoutError::UnknownNet {
            net: net.to_string(),
        })?;
        Ok(wiring.parasitics(self.parallel_wires(net)))
    }
}

/// Internal: one diffusion region in the row scan.
#[derive(Debug, Clone)]
struct Region {
    /// Net the region carries (`None` for dummy tie-off regions).
    net: Option<String>,
    /// Polarity of the adjacent devices (for junction-cap coefficients).
    polarity: FetPolarity,
}

/// The validated outline of one cell configuration: what [`generate`]
/// extracts parasitics from and [`crate::render()`] draws masks on.
pub(crate) struct Frame {
    /// Device index per finger column of one row, dummies excluded.
    pub(crate) seq: Vec<usize>,
    /// Dummy columns at each row end.
    pub(crate) dummy_cols: usize,
    /// Columns per row, dummies included.
    pub(crate) n_cols: usize,
    /// Height of one unit row (nm).
    pub(crate) row_height: Nm,
    /// Cell bounding box, anchored at the origin: `n_cols` poly pitches
    /// plus the width overhead by `m` rows.
    pub(crate) bbox: Rect,
}

/// Validates a configuration and lays out its frame.
///
/// # Errors
///
/// Returns [`LayoutError::BadConfig`] when any of `nfin`, `nf`, `m` is zero,
/// the spec has no devices, or a device ratio is zero.
pub(crate) fn frame(
    tech: &Technology,
    spec: &PrimitiveSpec,
    cfg: &CellConfig,
) -> Result<Frame, LayoutError> {
    if cfg.nfin == 0 || cfg.nf == 0 || cfg.m == 0 {
        return Err(LayoutError::BadConfig {
            reason: format!("nfin/nf/m must all be >= 1, got {cfg:?}"),
        });
    }
    if spec.devices.is_empty() {
        return Err(LayoutError::BadConfig {
            reason: "primitive has no devices".to_string(),
        });
    }
    if spec.devices.iter().any(|d| d.ratio == 0) {
        return Err(LayoutError::BadConfig {
            reason: "device ratio must be >= 1".to_string(),
        });
    }
    let fin = &tech.fin;
    let seq = arrange(cfg.pattern, &spec.devices, cfg.nf);
    let dummy_cols: usize = if cfg.dummies { 2 } else { 0 };
    let n_cols = seq.len() + 2 * dummy_cols;
    let row_height: Nm = cfg.nfin as Nm * fin.fin_pitch + fin.cell_height_overhead;
    let width: Nm = n_cols as Nm * fin.poly_pitch + fin.cell_width_overhead;
    let height: Nm = cfg.m as Nm * row_height;
    Ok(Frame {
        seq,
        dummy_cols,
        n_cols,
        row_height,
        bbox: Rect::from_size(Point::new(0, 0), width, height),
    })
}

/// Generates a primitive layout for the given configuration.
///
/// # Errors
///
/// Returns [`LayoutError::BadConfig`] when any of `nfin`, `nf`, `m` is zero,
/// the spec has no devices, or a device ratio is zero.
pub fn generate(
    tech: &Technology,
    spec: &PrimitiveSpec,
    cfg: &CellConfig,
) -> Result<PrimitiveLayout, LayoutError> {
    let Frame {
        seq,
        dummy_cols,
        n_cols,
        row_height,
        bbox,
    } = frame(tech, spec, cfg)?;
    let fin = &tech.fin;

    // ---- Diffusion-region scan (orientation greedy for sharing) -----------
    // regions[i] sits left of column i's gate; one more region after the last.
    // `col_terms[j] = (left_net, right_net)` for column j.
    let mut col_terms: Vec<(Option<String>, Option<String>, Option<usize>)> =
        Vec::with_capacity(n_cols);
    for _ in 0..dummy_cols {
        col_terms.push((None, None, None));
    }
    let mut prev_right: Option<String> = None;
    for (pos, &dev_ix) in seq.iter().enumerate() {
        let d = &spec.devices[dev_ix];
        // Choose the finger orientation that (a) shares diffusion with the
        // abutting region and, failing that, (b) leaves a terminal that the
        // *next* finger's device can share — the flip that makes an
        // interdigitated differential pair abut its tail sources.
        let next_dev = seq.get(pos + 1).map(|&ix| &spec.devices[ix]);
        let score = |left: &str, right: &str| {
            let mut s = 0;
            if prev_right.as_deref() == Some(left) {
                s += 2;
            }
            if let Some(nd) = next_dev {
                if right == nd.source || right == nd.drain {
                    s += 1;
                }
            }
            s
        };
        let fwd = score(&d.source, &d.drain);
        let rev = score(&d.drain, &d.source);
        let (left, right) = if rev > fwd {
            (d.drain.clone(), d.source.clone())
        } else {
            (d.source.clone(), d.drain.clone())
        };
        prev_right = Some(right.clone());
        col_terms.push((Some(left), Some(right), Some(dev_ix)));
    }
    for _ in 0..dummy_cols {
        col_terms.push((None, None, None));
    }

    // Build the region list between/around columns.
    let mut regions: Vec<Region> = Vec::new();
    // Map: region index -> (net). Also track which regions touch which device.
    let mut region_of_gap: Vec<usize> = Vec::with_capacity(n_cols + 1);
    {
        // Gap g sits left of column g (0-based); gap n_cols is the far right.
        for g in 0..=n_cols {
            let left_col_right_net = if g > 0 {
                col_terms[g - 1].1.clone()
            } else {
                None
            };
            let right_col_left_net = if g < n_cols {
                col_terms[g].0.clone()
            } else {
                None
            };
            // The gap's net: shared when both sides agree; otherwise the gap
            // holds two electrically separate regions — model as the union
            // where each side contributes its own region. For simplicity a
            // mismatched gap creates a region per distinct net.
            let nets: Vec<Option<String>> = match (&left_col_right_net, &right_col_left_net) {
                (Some(a), Some(b)) if a == b => vec![Some(a.clone())],
                (a, b) => {
                    let mut v = Vec::new();
                    if a.is_some() {
                        v.push(a.clone());
                    }
                    if b.is_some() {
                        v.push(b.clone());
                    }
                    if v.is_empty() {
                        v.push(None);
                    }
                    v
                }
            };
            // Polarity: take from an adjacent real device, default Nmos.
            let pol = col_terms
                .get(g.saturating_sub(if g > 0 { 1 } else { 0 }))
                .and_then(|t| t.2)
                .or_else(|| col_terms.get(g).and_then(|t| t.2))
                .map(|ix| spec.devices[ix].polarity)
                .unwrap_or(FetPolarity::Nmos);
            region_of_gap.push(regions.len());
            for net in nets {
                regions.push(Region { net, polarity: pol });
            }
        }
    }

    // ---- Per-device LDE geometry -------------------------------------------
    // Contiguous diffusion runs: a run breaks where a gap holds two regions
    // of different nets… for LOD purposes the diffusion is continuous as
    // long as *some* diffusion exists, which in this generator is the whole
    // row (dummies included).  Run = full row; SA/SB measured to row ends.
    let mut devices_out = Vec::with_capacity(spec.devices.len());
    let l_nm = fin.gate_length as f64;
    for (di, d) in spec.devices.iter().enumerate() {
        let cols: Vec<usize> = col_terms
            .iter()
            .enumerate()
            .filter_map(|(j, t)| (t.2 == Some(di)).then_some(j))
            .collect();
        debug_assert!(!cols.is_empty());
        let pitch = fin.poly_pitch as f64;
        let mut inv_sa_sum = 0.0;
        let mut centroid_sum = 0.0;
        for &j in &cols {
            let x_gate = (j as f64 + 0.5) * pitch + fin.cell_width_overhead as f64 / 2.0;
            // SA: distance from this gate to the left end of the diffusion
            // row; SB: to the right end. Dummies extend the diffusion.
            let sa = (j as f64 + 0.5) * pitch;
            let sb = (n_cols as f64 - j as f64 - 0.5) * pitch;
            let lde = tech.lde(d.polarity);
            inv_sa_sum += lde.inv_sa(sa, sb, l_nm);
            centroid_sum += x_gate;
        }
        let n = cols.len() as f64;
        let inv_sa_mean = inv_sa_sum / n;
        // Well edges bound the cell above and below its rows, so the
        // well-proximity distance is a function of the row stack (aspect
        // ratio), common to every device in the cell: the mean over rows of
        // the distance from the row center to the nearer well edge.
        let sc_mean = {
            let h = bbox.height() as f64;
            let rh = row_height as f64;
            (0..cfg.m)
                .map(|r| {
                    let y = (r as f64 + 0.5) * rh;
                    y.min(h - y)
                })
                .sum::<f64>()
                / cfg.m as f64
        };
        let centroid_x = centroid_sum / n;
        let lde = tech.lde(d.polarity);
        let dvth_lod = lde.dvth_lod(inv_sa_mean);
        let mobility = lde.mobility_lod(inv_sa_mean);
        let dvth_wpe = lde.dvth_wpe(sc_mean);
        let dvth_gradient = tech.variation.gradient_vth(centroid_x);
        let w_m = fin.weff_m(cfg.nfin * cfg.nf * cfg.m * d.ratio);
        devices_out.push(DeviceGeometry {
            name: d.name.clone(),
            polarity: d.polarity,
            w_m,
            l_m: fin.gate_length as f64 * 1e-9,
            delta_vth: dvth_lod + dvth_wpe + dvth_gradient,
            mobility_scale: mobility,
            inv_sa_mean,
            sc_mean_nm: sc_mean,
            centroid_x_nm: centroid_x,
        });
    }

    // ---- Per-net wiring & junction extraction ------------------------------
    let mut nets: BTreeMap<String, NetWiring> = BTreeMap::new();
    for net in spec.nets() {
        // Attachment columns: gates for gate nets, adjacent gaps for S/D.
        let mut cols: Vec<usize> = Vec::new();
        let mut n_regions = 0usize;
        let mut junction_c = 0.0f64;
        for (j, t) in col_terms.iter().enumerate() {
            if let Some(dev_ix) = t.2 {
                let d = &spec.devices[dev_ix];
                if d.gate == net {
                    cols.push(j);
                }
            }
        }
        for r in &regions {
            if r.net.as_deref() == Some(net.as_str()) {
                n_regions += 1;
                let model = tech.model(r.polarity);
                junction_c += model.cj * fin.diff_area_m2(cfg.nfin)
                    + model.cjsw * fin.diff_perimeter_m(cfg.nfin);
            }
        }
        // Diffusion attachments: any gap carrying this net touches columns
        // on both sides; approximate attachment columns by scanning gaps.
        for g in 0..=n_cols {
            let touches = {
                let left = if g > 0 {
                    col_terms[g - 1].1.as_deref()
                } else {
                    None
                };
                let right = if g < n_cols {
                    col_terms[g].0.as_deref()
                } else {
                    None
                };
                left == Some(net.as_str()) || right == Some(net.as_str())
            };
            if touches {
                cols.push(g.min(n_cols.saturating_sub(1)));
            }
        }
        if cols.is_empty() && n_regions == 0 {
            continue;
        }
        cols.sort_unstable();
        cols.dedup();
        let span_cols = if cols.len() > 1 {
            (cols[cols.len() - 1] - cols[0]) as Nm
        } else {
            1
        };
        let span_nm = span_cols * fin.poly_pitch;
        // Trunk: horizontal span per row plus reach to the cell edge (port),
        // replicated per row; vertical tie between rows when m > 1.
        let trunk_len_nm = span_nm + bbox.width() / 2 + (cfg.m as Nm - 1) * row_height;
        // Stub: each attachment drops half the finger height on M1.
        let stub_len_nm = (cfg.nfin as Nm * fin.fin_pitch) / 2;
        let attachments = cols.len() as u32 * cfg.m;
        nets.insert(
            net.clone(),
            NetWiring {
                net: net.clone(),
                attachment: NetAttachment {
                    count: attachments.max(1),
                    stub_len_nm,
                },
                trunk_len_nm,
                span_nm,
                base_wires: if cfg.mesh { cfg.m.max(1) } else { 1 },
                junction_c_f: junction_c * cfg.m as f64,
                n_regions: n_regions * cfg.m as usize,
                m1_r_per_um: tech.metal(1).r_ohm_per_um,
                m1_c_per_um: tech.metal(1).c_f_per_um,
                m2_r_per_um: tech.metal(2).r_ohm_per_um,
                m2_c_per_um: tech.metal(2).c_f_per_um,
                via_r: tech.via_stack_r(1, 2),
            },
        );
    }

    Ok(PrimitiveLayout {
        primitive: spec.name.clone(),
        config: *cfg,
        bbox,
        devices: devices_out,
        nets,
        parallel_wires: BTreeMap::new(),
    })
}

/// Produces the per-row column sequence (device index per finger column).
fn arrange(pattern: PlacementPattern, devices: &[DeviceSpec], nf: u32) -> Vec<usize> {
    let counts: Vec<u32> = devices.iter().map(|d| nf * d.ratio).collect();
    match pattern {
        PlacementPattern::Aabb => {
            let mut seq = Vec::new();
            for (ix, &c) in counts.iter().enumerate() {
                seq.extend(std::iter::repeat_n(ix, c as usize));
            }
            seq
        }
        PlacementPattern::Abab => {
            // Round-robin until all fingers are placed.
            let mut remaining = counts.clone();
            let mut seq = Vec::new();
            loop {
                let mut placed = false;
                for (ix, r) in remaining.iter_mut().enumerate() {
                    if *r > 0 {
                        seq.push(ix);
                        *r -= 1;
                        placed = true;
                    }
                }
                if !placed {
                    break;
                }
            }
            seq
        }
        PlacementPattern::Abba => {
            // Mirror-symmetric: first half in order, second half reversed.
            let mut halves: Vec<Vec<usize>> = vec![Vec::new(), Vec::new()];
            for (ix, &c) in counts.iter().enumerate() {
                let first = (c / 2) as usize;
                let second = c as usize - first;
                halves[0].extend(std::iter::repeat_n(ix, first));
                halves[1].extend(std::iter::repeat_n(ix, second));
            }
            let mut seq = halves[0].clone();
            let mut tail = halves[1].clone();
            tail.reverse();
            seq.extend(tail);
            seq
        }
    }
}

// ---------------------------------------------------------------------------
// Content fingerprints (prima-cache). PrimitiveLayout's wiring maps are
// ordered, so they feed in key order.

use prima_cache::{Fingerprintable, FpHasher};

impl Fingerprintable for DeviceSpec {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("DeviceSpec");
        h.write_str(&self.name);
        self.polarity.feed(h);
        h.write_str(&self.drain);
        h.write_str(&self.gate);
        h.write_str(&self.source);
        h.write_u32(self.ratio);
    }
}

impl Fingerprintable for PrimitiveSpec {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("PrimitiveSpec");
        h.write_str(&self.name);
        self.devices.feed(h);
    }
}

impl Fingerprintable for PlacementPattern {
    fn feed(&self, h: &mut FpHasher) {
        h.write_u8(match self {
            PlacementPattern::Abba => 0,
            PlacementPattern::Abab => 1,
            PlacementPattern::Aabb => 2,
        });
    }
}

impl Fingerprintable for CellConfig {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("CellConfig");
        h.write_u32(self.nfin);
        h.write_u32(self.nf);
        h.write_u32(self.m);
        self.pattern.feed(h);
        h.write_bool(self.dummies);
        h.write_bool(self.mesh);
    }
}

impl Fingerprintable for DeviceGeometry {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("DeviceGeometry");
        h.write_str(&self.name);
        self.polarity.feed(h);
        for v in [
            self.w_m,
            self.l_m,
            self.delta_vth,
            self.mobility_scale,
            self.inv_sa_mean,
            self.sc_mean_nm,
            self.centroid_x_nm,
        ] {
            h.write_f64(v);
        }
    }
}

impl Fingerprintable for PrimitiveLayout {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("PrimitiveLayout");
        h.write_str(&self.primitive);
        self.config.feed(h);
        self.bbox.feed(h);
        self.devices.feed(h);
        h.write_u64(self.nets.len() as u64);
        for (name, w) in &self.nets {
            h.write_str(name);
            w.feed(h);
        }
        h.write_u64(self.parallel_wires.len() as u64);
        for (name, &k) in &self.parallel_wires {
            h.write_str(name);
            h.write_u32(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dp_spec() -> PrimitiveSpec {
        PrimitiveSpec::new(
            "dp",
            vec![
                DeviceSpec::new("MA", FetPolarity::Nmos, "da", "ga", "s"),
                DeviceSpec::new("MB", FetPolarity::Nmos, "db", "gb", "s"),
            ],
        )
    }

    #[test]
    fn rejects_zero_parameters() {
        let tech = Technology::finfet7();
        let spec = dp_spec();
        for cfg in [
            CellConfig::new(0, 4, 1, PlacementPattern::Abba),
            CellConfig::new(4, 0, 1, PlacementPattern::Abba),
            CellConfig::new(4, 4, 0, PlacementPattern::Abba),
        ] {
            assert!(matches!(
                generate(&tech, &spec, &cfg),
                Err(LayoutError::BadConfig { .. })
            ));
        }
        let empty = PrimitiveSpec::new("none", vec![]);
        assert!(generate(
            &tech,
            &empty,
            &CellConfig::new(4, 4, 1, PlacementPattern::Abba)
        )
        .is_err());
    }

    #[test]
    fn arrangement_patterns() {
        let devs = dp_spec().devices;
        assert_eq!(arrange(PlacementPattern::Aabb, &devs, 2), vec![0, 0, 1, 1]);
        assert_eq!(arrange(PlacementPattern::Abab, &devs, 2), vec![0, 1, 0, 1]);
        assert_eq!(arrange(PlacementPattern::Abba, &devs, 2), vec![0, 1, 1, 0]);
    }

    #[test]
    fn arrangement_with_ratio() {
        let cm = PrimitiveSpec::new(
            "cm18",
            vec![
                DeviceSpec::new("MREF", FetPolarity::Nmos, "in", "in", "vss"),
                DeviceSpec::with_ratio("MOUT", FetPolarity::Nmos, "out", "in", "vss", 3),
            ],
        );
        let seq = arrange(PlacementPattern::Aabb, &cm.devices, 2);
        assert_eq!(seq.iter().filter(|&&x| x == 0).count(), 2);
        assert_eq!(seq.iter().filter(|&&x| x == 1).count(), 6);
    }

    #[test]
    fn constant_fins_give_different_aspect_ratios() {
        // The Fig. 5 configurations: nfin·nf·m = 960 in every case.
        let tech = Technology::finfet7();
        let spec = dp_spec();
        let ars: Vec<f64> = [(8u32, 20u32, 6u32), (16, 12, 5), (24, 20, 2)]
            .iter()
            .map(|&(nfin, nf, m)| {
                let cfg = CellConfig::new(nfin, nf, m, PlacementPattern::Abba);
                assert_eq!(cfg.total_fins(), 960);
                generate(&tech, &spec, &cfg).unwrap().aspect_ratio()
            })
            .collect();
        assert!(ars[0] < ars[2], "tall config flatter than wide: {ars:?}");
        // All three must be distinct enough to bin.
        assert!((ars[0] - ars[1]).abs() > 0.05);
        assert!((ars[1] - ars[2]).abs() > 0.05);
    }

    #[test]
    fn abba_cancels_gradient_offset() {
        let tech = Technology::finfet7();
        let spec = dp_spec();
        let gen = |p| {
            let l = generate(&tech, &spec, &CellConfig::new(8, 8, 2, p)).unwrap();
            (l.device("MA").unwrap().centroid_x_nm - l.device("MB").unwrap().centroid_x_nm).abs()
        };
        let abba = gen(PlacementPattern::Abba);
        let abab = gen(PlacementPattern::Abab);
        let aabb = gen(PlacementPattern::Aabb);
        assert!(abba < 1.0, "ABBA centroid mismatch {abba} nm");
        assert!(abab < aabb, "ABAB {abab} should beat AABB {aabb}");
        assert!(aabb > 100.0, "AABB centroid mismatch should be large");
    }

    #[test]
    fn dummies_relax_stress() {
        let tech = Technology::finfet7();
        let spec = dp_spec();
        let mut with = CellConfig::new(8, 8, 2, PlacementPattern::Abba);
        with.dummies = true;
        let mut without = with;
        without.dummies = false;
        let lw = generate(&tech, &spec, &with).unwrap();
        let lo = generate(&tech, &spec, &without).unwrap();
        // Dummies push diffusion ends away: lower stress measure.
        assert!(lw.device("MA").unwrap().inv_sa_mean < lo.device("MA").unwrap().inv_sa_mean);
        // …at the cost of area.
        assert!(lw.bbox.width() > lo.bbox.width());
    }

    #[test]
    fn shared_source_reduces_junction_regions() {
        let tech = Technology::finfet7();
        let spec = dp_spec();
        // ABAB: A and B alternate and share the tail source diffusion.
        let abab = generate(
            &tech,
            &spec,
            &CellConfig::new(8, 8, 1, PlacementPattern::Abab),
        )
        .unwrap();
        let aabb = generate(
            &tech,
            &spec,
            &CellConfig::new(8, 8, 1, PlacementPattern::Aabb),
        )
        .unwrap();
        let s_abab = abab.nets.get("s").unwrap().n_regions;
        let s_aabb = aabb.nets.get("s").unwrap().n_regions;
        assert!(
            s_abab <= s_aabb,
            "interdigitation should share tail diffusion: {s_abab} vs {s_aabb}"
        );
    }

    #[test]
    fn tuning_reduces_resistance_increases_cap() {
        let tech = Technology::finfet7();
        let spec = dp_spec();
        let mut l = generate(
            &tech,
            &spec,
            &CellConfig::new(8, 20, 2, PlacementPattern::Abba),
        )
        .unwrap();
        let base = l.net_parasitics("s").unwrap();
        l.set_parallel_wires("s", 4).unwrap();
        let tuned = l.net_parasitics("s").unwrap();
        assert!(tuned.r_ohm < base.r_ohm);
        assert!(tuned.c_total_f > base.c_total_f);
        assert_eq!(l.parallel_wires("s"), 4);
        assert_eq!(l.parallel_wires("da"), 1);
    }

    #[test]
    fn tuning_rejects_bad_inputs() {
        let tech = Technology::finfet7();
        let spec = dp_spec();
        let mut l = generate(
            &tech,
            &spec,
            &CellConfig::new(4, 4, 1, PlacementPattern::Abba),
        )
        .unwrap();
        assert!(matches!(
            l.set_parallel_wires("s", 0),
            Err(LayoutError::BadConfig { .. })
        ));
        assert!(matches!(
            l.set_parallel_wires("nope", 2),
            Err(LayoutError::UnknownNet { .. })
        ));
        assert!(matches!(
            l.net_parasitics("nope"),
            Err(LayoutError::UnknownNet { .. })
        ));
    }

    #[test]
    fn width_scales_with_total_fins() {
        let tech = Technology::finfet7();
        let spec = dp_spec();
        let l = generate(
            &tech,
            &spec,
            &CellConfig::new(8, 20, 6, PlacementPattern::Abba),
        )
        .unwrap();
        let w = l.device("MA").unwrap().w_m;
        // 8 × 20 × 6 = 960 fins × 48 nm = 46.08 µm.
        assert!((w - 46.08e-6).abs() < 1e-9, "W = {w}");
    }

    /// A dp layout with two nets tuned, as selection and tuning leave one.
    fn tuned_dp() -> PrimitiveLayout {
        let tech = Technology::finfet7();
        let mut l = generate(
            &tech,
            &dp_spec(),
            &CellConfig::new(8, 20, 2, PlacementPattern::Abba),
        )
        .unwrap();
        l.set_parallel_wires("s", 4).unwrap();
        l.set_parallel_wires("da", 2).unwrap();
        l
    }

    #[test]
    fn tuned_layout_fingerprint_is_pinned() {
        // Cache keys depend on this digest: it moves only with the layout's
        // content, never with how the wiring maps are stored.
        assert_eq!(
            tuned_dp().fingerprint().to_string(),
            "1daedfed9d6ded7e49ed98ed821d7fbc"
        );
    }

    #[test]
    fn debug_of_a_tuned_layout_is_deterministic() {
        let first = format!("{:?}", tuned_dp());
        for _ in 0..8 {
            assert_eq!(format!("{:?}", tuned_dp()), first);
        }
    }

    #[test]
    fn edge_devices_see_more_wpe() {
        let tech = Technology::finfet7();
        let spec = dp_spec();
        // In AABB, device A sits at the left edge: smaller SC than ABBA's A.
        let aabb = generate(
            &tech,
            &spec,
            &CellConfig::new(8, 8, 1, PlacementPattern::Aabb),
        )
        .unwrap();
        let a_sc = aabb.device("MA").unwrap().sc_mean_nm;
        let b_sc = aabb.device("MB").unwrap().sc_mean_nm;
        // Both halves are symmetric here; SC should be comparable.
        assert!(a_sc > 0.0 && b_sc > 0.0);
    }
}
