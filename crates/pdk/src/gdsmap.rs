//! Per-technology GDS-II layer mapping.
//!
//! Stream-out (prima-gds) needs two things only the deck can declare: the
//! database/user unit sizes of an emitted library, and the GDS
//! layer/datatype pair standing for each drawn stack layer. Both live
//! here, on [`crate::Technology`], so the mapping is versioned with the
//! deck — it participates in the deck fingerprint, and editing it
//! invalidates cached evaluations exactly like any other deck change.
//!
//! Coverage and uniqueness of the table are enforced statically by
//! the deck gate (`TECH.GDS.*`), not at stream-out time: a deck whose
//! layer map cannot carry its own stack is refused before any simulation.

use prima_cache::{Fingerprintable, FpHasher};

use crate::MetalLayer;

/// One drawn stack layer's GDS number assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct GdsLayerEntry {
    /// Stack-layer name (`"diff"`, `"poly"`, a metal's name, ...).
    pub name: String,
    /// GDS layer number.
    pub layer: u16,
    /// GDS datatype number.
    pub datatype: u16,
}

/// The deck's GDS-II stream-out table: unit sizes plus one
/// [`GdsLayerEntry`] per drawn layer.
#[derive(Debug, Clone, PartialEq)]
pub struct GdsLayerMap {
    /// Size of one database unit in user units (`1e-3` = the user unit is
    /// a micron when the database unit is a nanometre).
    pub unit_in_user: f64,
    /// Size of one database unit in metres (`1e-9` = nanometre database
    /// grid, matching the `Nm` coordinates everywhere else in prima).
    pub unit_in_m: f64,
    /// Layer assignments, in stack order.
    pub entries: Vec<GdsLayerEntry>,
}

impl Default for GdsLayerMap {
    /// An *empty* map on the standard nanometre grid; techlint's
    /// `TECH.GDS.COVERAGE` flags it before any stream-out is attempted.
    fn default() -> Self {
        GdsLayerMap {
            unit_in_user: 1e-3,
            unit_in_m: 1e-9,
            entries: Vec::new(),
        }
    }
}

/// Front-end drawn layers every deck must map (besides its metals):
/// diffusion, fin, gate poly, dummy poly, and the cell outline.
pub const GDS_FEOL_LAYERS: [&str; 5] = ["diff", "fin", "poly", "dummy_poly", "boundary"];

impl GdsLayerMap {
    /// Derives the conventional assignment for a metal stack: fixed FEOL
    /// numbers (diffusion 1, fin 2, poly 3 with dummies on datatype 1,
    /// outline 63) and metals from layer 10 upward — the scheme all three
    /// bundled decks declare.
    pub fn derive(metals: &[MetalLayer]) -> Self {
        let mut entries = vec![
            GdsLayerEntry {
                name: "diff".to_string(),
                layer: 1,
                datatype: 0,
            },
            GdsLayerEntry {
                name: "fin".to_string(),
                layer: 2,
                datatype: 0,
            },
            GdsLayerEntry {
                name: "poly".to_string(),
                layer: 3,
                datatype: 0,
            },
            GdsLayerEntry {
                name: "dummy_poly".to_string(),
                layer: 3,
                datatype: 1,
            },
            GdsLayerEntry {
                name: "boundary".to_string(),
                layer: 63,
                datatype: 0,
            },
        ];
        for (i, m) in metals.iter().enumerate() {
            entries.push(GdsLayerEntry {
                name: m.name.clone(),
                layer: 10 + i as u16,
                datatype: 0,
            });
        }
        GdsLayerMap {
            unit_in_user: 1e-3,
            unit_in_m: 1e-9,
            entries,
        }
    }

    /// Looks up the (layer, datatype) pair for a stack-layer name.
    pub fn get(&self, name: &str) -> Option<(u16, u16)> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| (e.layer, e.datatype))
    }

    /// Every stack-layer name a deck with these metals must cover.
    pub fn required_layers(metals: &[MetalLayer]) -> Vec<String> {
        GDS_FEOL_LAYERS
            .iter()
            .map(|s| s.to_string())
            .chain(metals.iter().map(|m| m.name.clone()))
            .collect()
    }
}

impl Fingerprintable for GdsLayerEntry {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("GdsLayerEntry");
        h.write_str(&self.name);
        h.write_u32(u32::from(self.layer));
        h.write_u32(u32::from(self.datatype));
    }
}

impl Fingerprintable for GdsLayerMap {
    fn feed(&self, h: &mut FpHasher) {
        h.write_tag("GdsLayerMap");
        h.write_f64(self.unit_in_user);
        h.write_f64(self.unit_in_m);
        self.entries.feed(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_covers_every_required_layer() {
        let tech = crate::Technology::finfet7();
        let map = GdsLayerMap::derive(&tech.metals);
        for name in GdsLayerMap::required_layers(&tech.metals) {
            assert!(map.get(&name).is_some(), "missing layer-map entry {name}");
        }
    }

    #[test]
    fn derive_pairs_are_unique() {
        let tech = crate::Technology::sky130ish();
        let map = GdsLayerMap::derive(&tech.metals);
        for (i, a) in map.entries.iter().enumerate() {
            for b in &map.entries[i + 1..] {
                assert!(
                    (a.layer, a.datatype) != (b.layer, b.datatype),
                    "{} and {} share GDS ({}, {})",
                    a.name,
                    b.name,
                    a.layer,
                    a.datatype
                );
            }
        }
    }

    #[test]
    fn default_map_is_empty_on_nm_units() {
        let map = GdsLayerMap::default();
        assert!(map.entries.is_empty());
        assert_eq!(map.unit_in_m, 1e-9);
    }
}
