//! Parasitic extraction: per-net wiring models and their lumped reductions.
//!
//! Each primitive net is modeled as a mesh: per-attachment M1 stubs in
//! parallel, feeding a horizontal trunk (M2) that spans the net's columns,
//! replicated once per unit row (`m` rows ⇒ `m` parallel trunks, the
//! FinFET mesh-routing idiom), reaching the port at the cell edge. The
//! paper's *primitive tuning* multiplies the trunk count by `k` parallel
//! wires: resistance divides by `k`, wire capacitance grows by ≈ `0.9·k`.

use prima_geom::Nm;

/// How device terminals attach to the net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NetAttachment {
    /// Number of parallel attachment stubs (fingers/regions × rows).
    pub count: u32,
    /// Length of each M1 stub (nm).
    pub stub_len_nm: Nm,
}

/// Internal wiring description of one net (pre-reduction).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NetWiring {
    /// Net name.
    pub net: String,
    /// Attachment stubs.
    pub attachment: NetAttachment,
    /// Trunk length per parallel wire (nm): span + port reach + row ties.
    pub trunk_len_nm: Nm,
    /// Horizontal span over attachment columns (nm), for reporting.
    pub span_nm: Nm,
    /// Parallel trunks inherent to the layout (one per unit row).
    pub base_wires: u32,
    /// Total junction capacitance attached to the net (F).
    pub junction_c_f: f64,
    /// Number of diffusion regions carrying the net (for reporting).
    pub n_regions: usize,
    /// M1 sheet properties (Ω/µm, F/µm at min width).
    pub m1_r_per_um: f64,
    /// M1 capacitance per µm.
    pub m1_c_per_um: f64,
    /// M2 sheet properties.
    pub m2_r_per_um: f64,
    /// M2 capacitance per µm.
    pub m2_c_per_um: f64,
    /// Via-stack resistance from M1 to the trunk layer (Ω per cut).
    pub via_r: f64,
}

/// Fraction of the single-wire trunk resistance seen *before* the common
/// point by each device's current (mesh spreading). This is what makes
/// shared nets (a differential pair's tail) still matter electrically even
/// though the common node is a virtual ground for differential signals.
const TRUNK_SPREAD_ACCESS: f64 = 0.10;
/// Fraction of the single-wire trunk resistance from the common point to
/// the cell port.
const TRUNK_SPREAD_COMMON: f64 = 0.40;

impl NetWiring {
    /// Reduces the mesh to a lumped model with `k` tuning wires in parallel
    /// with the base trunks: a per-device *access* resistance (stub bundle
    /// plus local trunk spreading) in series before the net's common point,
    /// and a *common* resistance from there to the port.
    pub fn parasitics(&self, k: u32) -> NetParasitics {
        assert!(k >= 1, "parallel wire count must be >= 1");
        let um = |nm: Nm| nm as f64 / 1000.0;

        // Stubs: the device's attachments in parallel, each stub + one via.
        let stub_r = self.m1_r_per_um * um(self.attachment.stub_len_nm) + self.via_r;
        let r_stubs = stub_r / self.attachment.count.max(1) as f64;

        let wires = (self.base_wires * k) as f64;
        let trunk_r_single = self.m2_r_per_um * um(self.trunk_len_nm);
        let r_access = r_stubs + trunk_r_single * TRUNK_SPREAD_ACCESS / wires;
        let r_common = trunk_r_single * TRUNK_SPREAD_COMMON / wires;

        // Capacitance: every stub and every trunk wire contributes; parallel
        // trunks share sidewalls (0.9 packing beyond the first wire).
        // Stubs share straps with the diffusion contacts; only part of the
        // drawn stub length is *additional* metal capacitance.
        const STUB_CAP_SHARE: f64 = 0.35;
        let c_stubs = self.m1_c_per_um
            * um(self.attachment.stub_len_nm)
            * self.attachment.count as f64
            * STUB_CAP_SHARE;
        // Mesh trunks share sidewalls with neighbouring straps: the first
        // wire carries 0.6 of a lone wire's capacitance, each tuning wire
        // adds the 0.35 area-dominated marginal share.
        let trunk_wire_c = self.m2_c_per_um * um(self.trunk_len_nm) * self.base_wires as f64;
        let c_trunk = trunk_wire_c * (0.6 + 0.35 * (k as f64 - 1.0));

        NetParasitics {
            net: self.net.clone(),
            r_ohm: r_common,
            r_access_ohm: r_access,
            c_wire_f: c_stubs + c_trunk,
            c_junction_f: self.junction_c_f,
            c_total_f: c_stubs + c_trunk + self.junction_c_f,
            wire_len_nm: self.trunk_len_nm + self.attachment.stub_len_nm,
            n_parallel: k,
        }
    }
}

/// Lumped parasitics of a net under a given tuning state.
#[derive(Debug, Clone, PartialEq)]
pub struct NetParasitics {
    /// Net name.
    pub net: String,
    /// Common resistance from the net's hub to the primitive port (Ω).
    pub r_ohm: f64,
    /// Per-device access resistance in series before the hub (Ω) — the part
    /// of the mesh each transistor's current traverses alone, which is what
    /// degenerates a differential pair even though the hub itself is a
    /// virtual ground for differential excitation.
    pub r_access_ohm: f64,
    /// Wire (routing) capacitance (F).
    pub c_wire_f: f64,
    /// Junction (diffusion) capacitance (F).
    pub c_junction_f: f64,
    /// Total net capacitance (F).
    pub c_total_f: f64,
    /// Representative wire length (nm), for reporting.
    pub wire_len_nm: Nm,
    /// Parallel trunk-wire count this was evaluated at.
    pub n_parallel: u32,
}

impl prima_cache::Fingerprintable for NetAttachment {
    fn feed(&self, h: &mut prima_cache::FpHasher) {
        h.write_u32(self.count);
        h.write_i64(self.stub_len_nm);
    }
}

impl prima_cache::Fingerprintable for NetWiring {
    fn feed(&self, h: &mut prima_cache::FpHasher) {
        h.write_tag("NetWiring");
        h.write_str(&self.net);
        self.attachment.feed(h);
        h.write_i64(self.trunk_len_nm);
        h.write_i64(self.span_nm);
        h.write_u32(self.base_wires);
        h.write_f64(self.junction_c_f);
        h.write_usize(self.n_regions);
        for v in [
            self.m1_r_per_um,
            self.m1_c_per_um,
            self.m2_r_per_um,
            self.m2_c_per_um,
            self.via_r,
        ] {
            h.write_f64(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wiring() -> NetWiring {
        NetWiring {
            net: "s".to_string(),
            attachment: NetAttachment {
                count: 40,
                stub_len_nm: 108,
            },
            trunk_len_nm: 2000,
            span_nm: 1500,
            base_wires: 2,
            junction_c_f: 1e-15,
            n_regions: 10,
            m1_r_per_um: 130.0,
            m1_c_per_um: 0.2e-15,
            m2_r_per_um: 95.0,
            m2_c_per_um: 0.2e-15,
            via_r: 22.0,
        }
    }

    #[test]
    fn resistance_divides_by_tuning_wires() {
        let w = wiring();
        let p1 = w.parasitics(1);
        let p4 = w.parasitics(4);
        let stub = (130.0 * 0.108 + 22.0) / 40.0;
        let trunk_single = 95.0 * 2.0; // Ω for the full 2 µm trunk
        let common1 = trunk_single * TRUNK_SPREAD_COMMON / 2.0;
        let access1 = stub + trunk_single * TRUNK_SPREAD_ACCESS / 2.0;
        assert!((p1.r_ohm - common1).abs() < 1e-9);
        assert!((p1.r_access_ohm - access1).abs() < 1e-9);
        // Tuning divides the trunk parts by k; the stub part is unchanged.
        assert!((p4.r_ohm - common1 / 4.0).abs() < 1e-9);
        assert!((p4.r_access_ohm - (stub + (access1 - stub) / 4.0)).abs() < 1e-9);
    }

    #[test]
    fn capacitance_grows_with_tuning() {
        let w = wiring();
        let c1 = w.parasitics(1).c_total_f;
        let c2 = w.parasitics(2).c_total_f;
        let c3 = w.parasitics(3).c_total_f;
        assert!(c2 > c1 && c3 > c2);
        // Junction cap is constant across tuning.
        assert_eq!(w.parasitics(1).c_junction_f, w.parasitics(5).c_junction_f);
    }

    #[test]
    fn totals_are_consistent() {
        let p = wiring().parasitics(3);
        assert!((p.c_total_f - (p.c_wire_f + p.c_junction_f)).abs() < 1e-24);
        assert_eq!(p.n_parallel, 3);
    }

    #[test]
    #[should_panic(expected = "parallel wire count")]
    fn zero_wires_panics() {
        let _ = wiring().parasitics(0);
    }
}
