//! Deck self-consistency lints (`TECH.*`).
//!
//! Every check here inspects only the [`Technology`] value — no geometry is
//! generated, no simulator touched. The checks encode the invariants the
//! rest of the workspace silently assumes: the router wants an H/V layer
//! pair above M2, the EM pass indexes `em_ma_per_cut` by via level, DRC
//! zips `rules.metal` against `metals`, and the evaluators treat resistance
//! as non-increasing up the stack when trading off wire layers.

use prima_core::diagnostics::{RuleKind, Severity, Violation};
use prima_pdk::{GdsLayerMap, LdeParams, RouteDir, Technology};

/// Runs every deck lint and returns the findings (unsorted; the caller's
/// report finalizes them into canonical order).
pub(crate) fn lint_deck(tech: &Technology) -> Vec<Violation> {
    let mut out = Vec::new();

    lint_supply_and_limits(tech, &mut out);
    lint_fin_geometry(tech, &mut out);
    lint_lde(&tech.lde_n, "lde_n", &mut out);
    lint_lde(&tech.lde_p, "lde_p", &mut out);
    lint_variation(tech, &mut out);
    lint_corners(tech, &mut out);

    if tech.metals.is_empty() {
        out.push(Violation::new(
            crate::RULE_STACK_EMPTY,
            RuleKind::Missing,
            Severity::Error,
            None,
            "technology has no metal layers; nothing can be routed".into(),
        ));
        // Every remaining check dereferences the stack — stop here.
        return out;
    }

    lint_stack(tech, &mut out);
    lint_monotonicity(tech, &mut out);
    lint_rule_sections(tech, &mut out);
    lint_vias(tech, &mut out);
    lint_em_tables(tech, &mut out);
    lint_grid_divisibility(tech, &mut out);
    lint_gds_map(tech, &mut out);

    out
}

fn finite_pos(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// Supply voltage, IR budget, tap distance, symmetry tolerance.
fn lint_supply_and_limits(tech: &Technology, out: &mut Vec<Violation>) {
    if !tech.vdd.is_finite() || !(0.2..=5.5).contains(&tech.vdd) {
        out.push(Violation::new(
            crate::RULE_SUPPLY,
            RuleKind::Lint,
            Severity::Error,
            None,
            format!(
                "vdd = {} V is outside the plausible 0.2–5.5 V supply band",
                tech.vdd
            ),
        ));
    }
    let ir = tech.electrical.ir_frac_vdd;
    if !ir.is_finite() || ir <= 0.0 || ir > 0.5 {
        out.push(Violation::new(
            crate::RULE_IR_BUDGET,
            RuleKind::Ir,
            Severity::Error,
            None,
            format!("ir_frac_vdd = {ir} must lie in (0, 0.5]"),
        ));
    }
    if !finite_pos(tech.electrical.em_ma_per_um) {
        out.push(Violation::new(
            crate::RULE_EM_WIRE,
            RuleKind::Em,
            Severity::Error,
            None,
            format!(
                "em_ma_per_um = {} must be positive and finite",
                tech.electrical.em_ma_per_um
            ),
        ));
    }
    if tech.electrical.max_tap_distance_nm < 1 {
        out.push(Violation::new(
            crate::RULE_TAP_RANGE,
            RuleKind::Tap,
            Severity::Error,
            None,
            format!(
                "max_tap_distance_nm = {} leaves no legal cell position",
                tech.electrical.max_tap_distance_nm
            ),
        ));
    }
    if tech.electrical.sym_tolerance_nm < 0 {
        out.push(Violation::new(
            crate::RULE_TAP_RANGE,
            RuleKind::Symmetry,
            Severity::Error,
            None,
            format!(
                "sym_tolerance_nm = {} is negative",
                tech.electrical.sym_tolerance_nm
            ),
        ));
    }
}

/// Fin/poly grid: positive pitches and the drawn feature fitting its pitch.
fn lint_fin_geometry(tech: &Technology, out: &mut Vec<Violation>) {
    let fin = &tech.fin;
    let mut bad = |msg: String| {
        out.push(Violation::new(
            crate::RULE_FIN_GEOM,
            RuleKind::Lint,
            Severity::Error,
            None,
            msg,
        ));
    };
    if fin.fin_pitch < 1 || fin.fin_width < 1 || fin.weff_per_fin < 1 {
        bad(format!(
            "fin_pitch/fin_width/weff_per_fin must all be >= 1 (got {}/{}/{})",
            fin.fin_pitch, fin.fin_width, fin.weff_per_fin
        ));
    } else if fin.fin_width > fin.fin_pitch {
        bad(format!(
            "fin_width {} exceeds fin_pitch {}; fins would merge",
            fin.fin_width, fin.fin_pitch
        ));
    }
    if fin.poly_pitch < 1 || fin.gate_length < 1 {
        bad(format!(
            "poly_pitch/gate_length must be >= 1 (got {}/{})",
            fin.poly_pitch, fin.gate_length
        ));
    } else if fin.gate_length > fin.poly_pitch {
        bad(format!(
            "gate_length {} exceeds poly_pitch {}; gates would merge",
            fin.gate_length, fin.poly_pitch
        ));
    }
    if fin.diff_extension < 1 {
        bad(format!(
            "diff_extension {} leaves no room for source/drain contacts",
            fin.diff_extension
        ));
    }
    if fin.cell_height_overhead < 0 || fin.cell_width_overhead < 0 {
        bad(format!(
            "cell overheads must be non-negative (got {}/{})",
            fin.cell_height_overhead, fin.cell_width_overhead
        ));
    }
}

fn lint_lde(lde: &LdeParams, which: &str, out: &mut Vec<Violation>) {
    let fields = [
        ("kvth_lod", lde.kvth_lod, 1.0),
        ("kmu_lod", lde.kmu_lod, 10.0),
        ("kvth_wpe", lde.kvth_wpe, 100.0),
    ];
    for (name, value, bound) in fields {
        if !value.is_finite() || value.abs() > bound {
            out.push(Violation::new(
                crate::RULE_LDE_RANGE,
                RuleKind::Lint,
                Severity::Error,
                Some(which.to_string()),
                format!("{which}.{name} = {value} outside |x| <= {bound}"),
            ));
        }
    }
    if !finite_pos(lde.sc_offset) {
        out.push(Violation::new(
            crate::RULE_LDE_RANGE,
            RuleKind::Lint,
            Severity::Error,
            Some(which.to_string()),
            format!(
                "{which}.sc_offset = {} must be positive (keeps WPE finite at the well edge)",
                lde.sc_offset
            ),
        ));
    }
    if !lde.inv_sa_ref.is_finite() || lde.inv_sa_ref < 0.0 {
        out.push(Violation::new(
            crate::RULE_LDE_RANGE,
            RuleKind::Lint,
            Severity::Error,
            Some(which.to_string()),
            format!("{which}.inv_sa_ref = {} must be >= 0", lde.inv_sa_ref),
        ));
    }
}

fn lint_variation(tech: &Technology, out: &mut Vec<Violation>) {
    let var = &tech.variation;
    // Pelgrom coefficients live in the nV·√m to µV·√m decades; anything
    // past 1e-6 V·√m would predict volt-scale mismatch on real devices.
    if !finite_pos(var.avth) || var.avth > 1e-6 {
        out.push(Violation::new(
            crate::RULE_VAR_RANGE,
            RuleKind::Lint,
            Severity::Error,
            None,
            format!("avth = {} V·√m outside (0, 1e-6]", var.avth),
        ));
    }
    if !var.vth_gradient_per_um.is_finite() || var.vth_gradient_per_um.abs() > 0.1 {
        out.push(Violation::new(
            crate::RULE_VAR_RANGE,
            RuleKind::Lint,
            Severity::Error,
            None,
            format!(
                "vth_gradient_per_um = {} V/µm outside |g| <= 0.1",
                var.vth_gradient_per_um
            ),
        ));
    }
}

/// Corner-table sanity: an empty table is fine (the deck simply ships no
/// corners), but a non-empty one must carry an identity `tt`, unique
/// names, and every perturbation inside the declared bounds — a broken
/// table dies here with exact rule ids instead of surfacing as solver
/// non-convergence three stages into a sweep.
fn lint_corners(tech: &Technology, out: &mut Vec<Violation>) {
    let set = &tech.corners;
    if set.corners.is_empty() {
        return;
    }
    match set.get("tt") {
        None => out.push(Violation::new(
            crate::RULE_CORNER_TT,
            RuleKind::Missing,
            Severity::Error,
            None,
            format!(
                "corner table {:?} has no \"tt\" corner; the nominal point \
                 must be a named member so sweeps can reference it",
                set.names()
            ),
        )),
        Some(tt) if !tt.is_identity() => out.push(Violation::new(
            crate::RULE_CORNER_TT,
            RuleKind::Lint,
            Severity::Error,
            Some("tt".to_string()),
            "\"tt\" corner is not the identity: nominal must mean nominal".to_string(),
        )),
        Some(_) => {}
    }
    let names = set.names();
    for (i, name) in names.iter().enumerate() {
        if names[..i].contains(name) {
            out.push(Violation::new(
                crate::RULE_CORNER_DUP,
                RuleKind::Lint,
                Severity::Error,
                Some(name.clone()),
                format!("corner name {name:?} appears more than once"),
            ));
        }
    }
    let b = &set.bounds;
    let bounds_ok = b.max_vth_shift_v.is_finite()
        && b.max_vth_shift_v >= 0.0
        && finite_pos(b.kp_scale.0)
        && b.kp_scale.1.is_finite()
        && b.kp_scale.0 <= b.kp_scale.1
        && finite_pos(b.vdd_scale.0)
        && b.vdd_scale.1.is_finite()
        && b.vdd_scale.0 <= b.vdd_scale.1
        && b.temp_c.0.is_finite()
        && b.temp_c.1.is_finite()
        && b.temp_c.0 <= b.temp_c.1;
    if !bounds_ok {
        out.push(Violation::new(
            crate::RULE_CORNER_RANGE,
            RuleKind::Lint,
            Severity::Error,
            None,
            format!("corner bounds are malformed: {b:?}"),
        ));
        return;
    }
    for c in &set.corners {
        let mut breach = |what: String| {
            out.push(Violation::new(
                crate::RULE_CORNER_RANGE,
                RuleKind::Lint,
                Severity::Error,
                Some(c.name.clone()),
                format!("corner {:?}: {what}", c.name),
            ));
        };
        for (tag, shift) in [
            ("nmos_vth_shift_v", c.nmos_vth_shift_v),
            ("pmos_vth_shift_v", c.pmos_vth_shift_v),
        ] {
            if !shift.is_finite() || shift.abs() > b.max_vth_shift_v {
                breach(format!(
                    "{tag} = {shift} V outside |shift| <= {}",
                    b.max_vth_shift_v
                ));
            }
        }
        for (tag, scale) in [
            ("nmos_kp_scale", c.nmos_kp_scale),
            ("pmos_kp_scale", c.pmos_kp_scale),
        ] {
            if !scale.is_finite() || scale < b.kp_scale.0 || scale > b.kp_scale.1 {
                breach(format!("{tag} = {scale} outside {:?}", b.kp_scale));
            }
        }
        if !c.vdd_scale.is_finite() || c.vdd_scale < b.vdd_scale.0 || c.vdd_scale > b.vdd_scale.1 {
            breach(format!(
                "vdd_scale = {} outside {:?}",
                c.vdd_scale, b.vdd_scale
            ));
        }
        if let Some(t) = c.temp_c {
            if !t.is_finite() || t < b.temp_c.0 || t > b.temp_c.1 {
                breach(format!("temp_c = {t} °C outside {:?}", b.temp_c));
            }
        }
    }
}

/// Stack shape: names, directions, per-layer width/space/area coherence.
fn lint_stack(tech: &Technology, out: &mut Vec<Violation>) {
    // Duplicate drawn-layer names confuse every by-name lookup (grids,
    // FEOL rules, reports).
    let mut names: Vec<&str> = tech
        .metals
        .iter()
        .map(|m| m.name.as_str())
        .chain(tech.rules.feol.iter().map(|r| r.layer.as_str()))
        .collect();
    names.sort_unstable();
    for pair in names.windows(2) {
        if pair[0] == pair[1] {
            out.push(Violation::new(
                crate::RULE_NAME_DUP,
                RuleKind::Lint,
                Severity::Error,
                Some(pair[0].to_string()),
                format!("layer name {:?} used more than once", pair[0]),
            ));
        }
    }

    for (i, m) in tech.metals.iter().enumerate() {
        let scope = Some(m.name.clone());
        if m.min_width < 1 || m.min_width > m.pitch {
            out.push(Violation::new(
                crate::RULE_METAL_WIDTH,
                RuleKind::Width,
                Severity::Error,
                scope.clone(),
                format!(
                    "{}: min_width {} must lie in [1, pitch {}]",
                    m.name, m.min_width, m.pitch
                ),
            ));
        }
        if !finite_pos(m.r_ohm_per_um) || !m.c_f_per_um.is_finite() || m.c_f_per_um < 0.0 {
            out.push(Violation::new(
                crate::RULE_METAL_RC,
                RuleKind::Lint,
                Severity::Error,
                scope.clone(),
                format!(
                    "{}: r_ohm_per_um {} / c_f_per_um {} must be positive-finite / non-negative",
                    m.name, m.r_ohm_per_um, m.c_f_per_um
                ),
            ));
        }
        if let Some(next) = tech.metals.get(i + 1) {
            if m.dir == next.dir {
                out.push(Violation::new(
                    crate::RULE_STACK_DIR,
                    RuleKind::Lint,
                    Severity::Warning,
                    scope,
                    format!(
                        "{} and {} share direction {:?}; adjacent-layer jogs need a third layer",
                        m.name, next.name, m.dir
                    ),
                ));
            }
        }
    }

    // The global router scans layers 3.. for one horizontal and one
    // vertical trunk layer; a stack without the pair silently keeps its
    // out-of-stack defaults and panics deep inside routing.
    let upper = &tech.metals[2.min(tech.metals.len())..];
    let has_h = upper.iter().any(|m| m.dir == RouteDir::Horizontal);
    let has_v = upper.iter().any(|m| m.dir == RouteDir::Vertical);
    if !(has_h && has_v) {
        out.push(Violation::new(
            crate::RULE_ROUTE_PAIR,
            RuleKind::Missing,
            Severity::Error,
            None,
            format!(
                "no horizontal+vertical routing pair above M2 ({} layer(s) total); \
                 the global router needs one of each",
                tech.metals.len()
            ),
        ));
    }
}

/// Electrical monotonicity up the stack: upper layers are thicker copper
/// (resistance must not increase) and vias get larger (via resistance must
/// not increase). Capacitance ordering is advisory only.
fn lint_monotonicity(tech: &Technology, out: &mut Vec<Violation>) {
    for pair in tech.metals.windows(2) {
        let (lo, hi) = (&pair[0], &pair[1]);
        if hi.r_ohm_per_um > lo.r_ohm_per_um {
            out.push(Violation::new(
                crate::RULE_MONO_R,
                RuleKind::Lint,
                Severity::Error,
                Some(hi.name.clone()),
                format!(
                    "r_ohm_per_um rises going up the stack: {} = {} above {} = {}",
                    hi.name, hi.r_ohm_per_um, lo.name, lo.r_ohm_per_um
                ),
            ));
        }
        if hi.c_f_per_um < lo.c_f_per_um {
            out.push(Violation::new(
                crate::RULE_MONO_C,
                RuleKind::Lint,
                Severity::Warning,
                Some(hi.name.clone()),
                format!(
                    "c_f_per_um falls going up the stack: {} = {} above {} = {}",
                    hi.name, hi.c_f_per_um, lo.name, lo.c_f_per_um
                ),
            ));
        }
    }
    for (i, pair) in tech.via_r.windows(2).enumerate() {
        if pair[1] > pair[0] {
            out.push(Violation::new(
                crate::RULE_MONO_VIA,
                RuleKind::Lint,
                Severity::Error,
                Some(format!("V{}", i + 2)),
                format!(
                    "via_r rises going up the stack: V{} = {} above V{} = {}",
                    i + 2,
                    pair[1],
                    i + 1,
                    pair[0]
                ),
            ));
        }
    }
}

/// Rule-deck sections must mirror the stack: one metal rule row per layer
/// (same name, coherent width/space/area) and one via rule per level.
fn lint_rule_sections(tech: &Technology, out: &mut Vec<Violation>) {
    let rules = &tech.rules;
    if rules.metal.len() != tech.metals.len() {
        out.push(Violation::new(
            crate::RULE_RULES_COUNT,
            RuleKind::Lint,
            Severity::Error,
            None,
            format!(
                "rules.metal has {} row(s) for a {}-layer stack",
                rules.metal.len(),
                tech.metals.len()
            ),
        ));
    }
    if rules.vias.len() + 1 != tech.metals.len() {
        out.push(Violation::new(
            crate::RULE_RULES_COUNT,
            RuleKind::Lint,
            Severity::Error,
            None,
            format!(
                "rules.vias has {} level(s); a {}-layer stack needs {}",
                rules.vias.len(),
                tech.metals.len(),
                tech.metals.len() - 1
            ),
        ));
    }
    for (m, r) in tech.metals.iter().zip(&rules.metal) {
        if m.name != r.layer {
            out.push(Violation::new(
                crate::RULE_RULES_NAME,
                RuleKind::Lint,
                Severity::Error,
                Some(m.name.clone()),
                format!(
                    "stack layer {:?} has rule row named {:?}; by-name lookups will miss",
                    m.name, r.layer
                ),
            ));
        }
        if r.min_space < 1 || r.min_width + r.min_space > m.pitch {
            out.push(Violation::new(
                crate::RULE_METAL_SPACE,
                RuleKind::Spacing,
                Severity::Error,
                Some(m.name.clone()),
                format!(
                    "{}: min_width {} + min_space {} must fit the track pitch {}",
                    m.name, r.min_width, r.min_space, m.pitch
                ),
            ));
        }
        // Smaller than width² is vacuous (any min-width shape passes);
        // far larger would outlaw the generator's own contact stubs.
        if r.min_area_nm2 < 1 || r.min_area_nm2 > 16 * r.min_width * r.min_width {
            out.push(Violation::new(
                crate::RULE_METAL_AREA,
                RuleKind::Area,
                Severity::Error,
                Some(m.name.clone()),
                format!(
                    "{}: min_area {} nm² outside [1, 16·min_width²={}]",
                    m.name,
                    r.min_area_nm2,
                    16 * r.min_width * r.min_width
                ),
            ));
        }
    }
}

/// Via stack: complete, positive, and every cut + enclosure fitting inside
/// a minimum-width wire on *both* connected layers.
fn lint_vias(tech: &Technology, out: &mut Vec<Violation>) {
    if tech.via_r.len() + 1 != tech.metals.len() {
        out.push(Violation::new(
            crate::RULE_VIA_COUNT,
            RuleKind::Missing,
            Severity::Error,
            None,
            format!(
                "via_r has {} entr(ies); a {}-layer stack has {} via level(s)",
                tech.via_r.len(),
                tech.metals.len(),
                tech.metals.len() - 1
            ),
        ));
    }
    for (i, r) in tech.via_r.iter().enumerate() {
        if !finite_pos(*r) {
            out.push(Violation::new(
                crate::RULE_VIA_R,
                RuleKind::Lint,
                Severity::Error,
                Some(format!("V{}", i + 1)),
                format!("via_r[V{}] = {r} must be positive and finite", i + 1),
            ));
        }
    }
    if !tech.via_c.is_finite() || tech.via_c < 0.0 {
        out.push(Violation::new(
            crate::RULE_VIA_R,
            RuleKind::Lint,
            Severity::Error,
            None,
            format!("via_c = {} must be non-negative and finite", tech.via_c),
        ));
    }
    for (i, via) in tech.rules.vias.iter().enumerate() {
        let scope = Some(via.name.clone());
        if via.cut < 1 || via.enclosure < 0 {
            out.push(Violation::new(
                crate::RULE_VIA_FIT,
                RuleKind::Enclosure,
                Severity::Error,
                scope,
                format!(
                    "{}: cut {} must be >= 1 and enclosure {} >= 0",
                    via.name, via.cut, via.enclosure
                ),
            ));
            continue;
        }
        let (Some(lower), Some(upper)) = (tech.metals.get(i), tech.metals.get(i + 1)) else {
            continue; // level count already reported by TECH.RULES.COUNT
        };
        let need = via.cut + 2 * via.enclosure;
        let have = lower.min_width.min(upper.min_width);
        if need > have {
            out.push(Violation::new(
                crate::RULE_VIA_FIT,
                RuleKind::Enclosure,
                Severity::Error,
                scope,
                format!(
                    "{}: cut {} + 2×enclosure {} = {} does not fit the narrower \
                     connected wire ({} nm)",
                    via.name, via.cut, via.enclosure, need, have
                ),
            ));
        }
    }
}

/// EM table length must agree with the via stack, entries positive.
fn lint_em_tables(tech: &Technology, out: &mut Vec<Violation>) {
    let cuts = &tech.electrical.em_ma_per_cut;
    if cuts.len() != tech.via_r.len() {
        out.push(Violation::new(
            crate::RULE_EM_VIA,
            RuleKind::Em,
            Severity::Error,
            None,
            format!(
                "em_ma_per_cut has {} entr(ies) for {} via level(s); \
                 the ERC pass indexes them one-to-one",
                cuts.len(),
                tech.via_r.len()
            ),
        ));
    }
    for (i, limit) in cuts.iter().enumerate() {
        if !finite_pos(*limit) {
            out.push(Violation::new(
                crate::RULE_EM_VIA,
                RuleKind::Em,
                Severity::Error,
                Some(format!("V{}", i + 1)),
                format!(
                    "em_ma_per_cut[V{}] = {limit} must be positive and finite",
                    i + 1
                ),
            ));
        }
    }
}

/// Every drawn dimension must land on the manufacturing grid.
fn lint_grid_divisibility(tech: &Technology, out: &mut Vec<Violation>) {
    let g = tech.rules.grid_nm;
    if g < 1 {
        out.push(Violation::new(
            crate::RULE_GRID_DIV,
            RuleKind::Grid,
            Severity::Error,
            None,
            format!("grid_nm = {g} must be >= 1"),
        ));
        return;
    }
    let mut check = |what: String, v: i64| {
        if v % g != 0 {
            out.push(Violation::new(
                crate::RULE_GRID_DIV,
                RuleKind::Grid,
                Severity::Error,
                None,
                format!("{what} = {v} nm is not a multiple of the {g} nm grid"),
            ));
        }
    };
    let fin = &tech.fin;
    for (name, v) in [
        ("fin.fin_pitch", fin.fin_pitch),
        ("fin.fin_width", fin.fin_width),
        ("fin.poly_pitch", fin.poly_pitch),
        ("fin.gate_length", fin.gate_length),
        ("fin.diff_extension", fin.diff_extension),
        ("fin.cell_height_overhead", fin.cell_height_overhead),
        ("fin.cell_width_overhead", fin.cell_width_overhead),
    ] {
        check(name.to_string(), v);
    }
    for m in &tech.metals {
        check(format!("{}.pitch", m.name), m.pitch);
        check(format!("{}.min_width", m.name), m.min_width);
    }
    for r in tech.rules.metal.iter().chain(&tech.rules.feol) {
        check(format!("rules.{}.min_width", r.layer), r.min_width);
        check(format!("rules.{}.min_space", r.layer), r.min_space);
    }
    for v in &tech.rules.vias {
        check(format!("rules.{}.cut", v.name), v.cut);
        check(format!("rules.{}.enclosure", v.name), v.enclosure);
    }
    for grid in &tech.rules.grids {
        check(format!("grids.{}.pitch", grid.layer), grid.pitch);
        check(format!("grids.{}.offset", grid.layer), grid.offset);
    }
}

/// GDS-II layer map: positive unit sizes, an entry for every drawn layer,
/// and collision-free assignments. Enforced here — statically, before any
/// simulation — so stream-out never discovers a hole in the map at the end
/// of a multi-minute flow.
fn lint_gds_map(tech: &Technology, out: &mut Vec<Violation>) {
    let map = &tech.gds;
    for (what, v) in [
        ("unit_in_user", map.unit_in_user),
        ("unit_in_m", map.unit_in_m),
    ] {
        if !finite_pos(v) {
            out.push(Violation::new(
                crate::RULE_GDS_UNITS,
                RuleKind::Lint,
                Severity::Error,
                None,
                format!("gds.{what} = {v} must be positive and finite"),
            ));
        }
    }
    for name in GdsLayerMap::required_layers(&tech.metals) {
        if map.get(&name).is_none() {
            out.push(Violation::new(
                crate::RULE_GDS_COVERAGE,
                RuleKind::Missing,
                Severity::Error,
                Some(name.clone()),
                format!("drawn layer {name} has no gds layer-map entry; stream-out would fail"),
            ));
        }
    }
    for (i, a) in map.entries.iter().enumerate() {
        for b in &map.entries[i + 1..] {
            if a.name == b.name {
                out.push(Violation::new(
                    crate::RULE_GDS_DUP,
                    RuleKind::Lint,
                    Severity::Error,
                    Some(a.name.clone()),
                    format!("gds layer map lists {} twice", a.name),
                ));
            } else if (a.layer, a.datatype) == (b.layer, b.datatype) {
                out.push(Violation::new(
                    crate::RULE_GDS_DUP,
                    RuleKind::Lint,
                    Severity::Error,
                    Some(a.name.clone()),
                    format!(
                        "{} and {} share gds ({}, {}); the layers would merge on stream-out",
                        a.name, b.name, a.layer, a.datatype
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_tech;

    #[test]
    fn bundled_decks_have_no_deck_errors() {
        for tech in [
            Technology::finfet7(),
            Technology::bulk16(),
            Technology::sky130ish(),
        ] {
            let report = check_tech(&tech);
            assert!(
                report.is_passing(),
                "{}: {:#?}",
                tech.name,
                report.violations
            );
        }
    }

    #[test]
    fn missing_tt_corner_is_rejected() {
        let mut tech = Technology::finfet7();
        tech.corners.corners.retain(|c| c.name != "tt");
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_CORNER_TT));
        assert!(!report.is_passing());
    }

    #[test]
    fn non_identity_tt_is_rejected() {
        let mut tech = Technology::finfet7();
        tech.corners.corners[0].vdd_scale = 1.05;
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_CORNER_TT));
    }

    #[test]
    fn duplicate_corner_names_are_rejected() {
        let mut tech = Technology::finfet7();
        let dup = tech.corners.corners[1].clone();
        tech.corners.corners.push(dup);
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_CORNER_DUP));
    }

    #[test]
    fn out_of_bounds_corner_is_rejected() {
        let mut tech = Technology::finfet7();
        tech.corners.corners[1].nmos_vth_shift_v = 1.0;
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_CORNER_RANGE));

        let mut tech = Technology::sky130ish();
        tech.corners.corners[5].vdd_scale = 0.55;
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_CORNER_RANGE));

        let mut tech = Technology::bulk16();
        tech.corners.corners[8].temp_c = Some(400.0);
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_CORNER_RANGE));
    }

    #[test]
    fn empty_corner_table_is_fine() {
        let mut tech = Technology::finfet7();
        tech.corners = prima_pdk::CornerSet::default();
        let report = check_tech(&tech);
        assert!(report.is_passing(), "{:#?}", report.violations);
    }

    #[test]
    fn missing_layer_map_entry_is_rejected() {
        let mut tech = Technology::finfet7();
        tech.gds.entries.retain(|e| e.name != "poly");
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_GDS_COVERAGE));
        assert!(!report.is_passing());
    }

    #[test]
    fn empty_layer_map_is_rejected() {
        // A deck built without a layer map.
        let mut tech = Technology::sky130ish();
        tech.gds = GdsLayerMap::default();
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_GDS_COVERAGE));
    }

    #[test]
    fn colliding_layer_numbers_are_rejected() {
        let mut tech = Technology::finfet7();
        let (l, d) = (tech.gds.entries[0].layer, tech.gds.entries[0].datatype);
        tech.gds.entries[1].layer = l;
        tech.gds.entries[1].datatype = d;
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_GDS_DUP));
    }

    #[test]
    fn bad_gds_units_are_rejected() {
        let mut tech = Technology::bulk16();
        tech.gds.unit_in_m = 0.0;
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_GDS_UNITS));
    }

    #[test]
    fn empty_stack_is_terminal() {
        let mut tech = Technology::finfet7();
        tech.metals.clear();
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_STACK_EMPTY));
        assert!(!report.is_passing());
    }

    #[test]
    fn rising_resistance_trips_monotonicity() {
        let mut tech = Technology::finfet7();
        tech.metals[3].r_ohm_per_um = 500.0;
        let report = check_tech(&tech);
        assert!(
            report.has_rule(crate::RULE_MONO_R),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn rising_via_resistance_trips_monotonicity() {
        let mut tech = Technology::sky130ish();
        tech.via_r[2] = 99.0;
        assert!(check_tech(&tech).has_rule(crate::RULE_MONO_VIA));
    }

    #[test]
    fn truncated_em_table_is_reported() {
        let mut tech = Technology::bulk16();
        tech.electrical.em_ma_per_cut.pop();
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_EM_VIA));
        assert!(!report.is_passing());
    }

    #[test]
    fn truncated_via_stack_is_reported() {
        let mut tech = Technology::finfet7();
        tech.via_r.pop();
        assert!(check_tech(&tech).has_rule(crate::RULE_VIA_COUNT));
    }

    #[test]
    fn oversized_via_is_reported() {
        let mut tech = Technology::finfet7();
        tech.rules.vias[0].enclosure = 50;
        assert!(check_tech(&tech).has_rule(crate::RULE_VIA_FIT));
    }

    #[test]
    fn off_grid_rule_is_reported() {
        let mut tech = Technology::finfet7();
        tech.rules.grid_nm = 5;
        // finfet7 pitches (36, 54 …) are not all multiples of 5.
        assert!(check_tech(&tech).has_rule(crate::RULE_GRID_DIV));
    }

    #[test]
    fn width_exceeding_pitch_is_reported() {
        let mut tech = Technology::bulk16();
        tech.metals[1].min_width = tech.metals[1].pitch + 2;
        assert!(check_tech(&tech).has_rule(crate::RULE_METAL_WIDTH));
    }

    #[test]
    fn rule_row_name_drift_is_reported() {
        let mut tech = Technology::sky130ish();
        tech.rules.metal[0].layer = "MET1".into();
        assert!(check_tech(&tech).has_rule(crate::RULE_RULES_NAME));
    }

    #[test]
    fn missing_route_pair_is_reported() {
        let mut tech = Technology::finfet7();
        // Force everything above M2 vertical: no horizontal trunk layer.
        for m in tech.metals.iter_mut().skip(2) {
            m.dir = RouteDir::Vertical;
        }
        assert!(check_tech(&tech).has_rule(crate::RULE_ROUTE_PAIR));
    }

    #[test]
    fn direction_repeat_is_a_warning_only() {
        let mut tech = Technology::finfet7();
        tech.metals[4].dir = RouteDir::Horizontal; // M4 and M5 both horizontal
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_STACK_DIR));
        assert!(report.is_passing(), "{:?}", report.violations);
    }

    #[test]
    fn bad_supply_and_ir_are_reported() {
        let mut tech = Technology::finfet7();
        tech.vdd = 48.0;
        tech.electrical.ir_frac_vdd = 0.0;
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_SUPPLY));
        assert!(report.has_rule(crate::RULE_IR_BUDGET));
    }

    #[test]
    fn bad_lde_and_variation_are_reported() {
        let mut tech = Technology::bulk16();
        tech.lde_n.sc_offset = 0.0;
        tech.variation.avth = -1.0;
        let report = check_tech(&tech);
        assert!(report.has_rule(crate::RULE_LDE_RANGE));
        assert!(report.has_rule(crate::RULE_VAR_RANGE));
    }

    #[test]
    fn merged_gates_are_reported() {
        let mut tech = Technology::sky130ish();
        tech.fin.gate_length = tech.fin.poly_pitch + 10;
        assert!(check_tech(&tech).has_rule(crate::RULE_FIN_GEOM));
    }
}
