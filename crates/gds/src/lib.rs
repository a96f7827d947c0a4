//! # prima-gds
//!
//! Binary GDS-II stream-out and re-parse, with zero external dependencies:
//! the interop gateway that lets every prima layout leave the process and
//! open in KLayout (or feed a foundry DRC/LVS deck).
//!
//! Three layers:
//!
//! * **Records** ([`record`]) — the GDS-II wire format: big-endian
//!   `[u16 length][u8 record type][u8 data type]` headers, two's-complement
//!   integers, NUL-padded ASCII strings, and the excess-64 base-16 `real8`
//!   float used by the UNITS record. Every encode/decode is total over
//!   typed [`GdsError`]s — the crate carries the same deny-level
//!   `unwrap_used` lint wall as the rest of the workspace.
//! * **Model** ([`GdsLibrary`] / [`GdsStructure`] / [`GdsElement`]) — an
//!   in-memory library using the record subset prima emits: BOUNDARY
//!   polygons, SREF placements, and TEXT port labels. [`GdsLibrary::to_bytes`]
//!   serializes, [`GdsLibrary::from_bytes`] strictly re-parses (unknown
//!   records, bad lengths, and truncation are errors, not skips), and
//!   [`diff()`] reports any geometric disagreement — the round-trip
//!   `write → re-parse → diff` must come back empty.
//! * **Emission** ([`GdsDesign`] / [`stream_out`]) — maps prima's
//!   `Rect`-based cell geometry, placements, routed tracks, and pin labels
//!   onto GDS structures through the technology's [`prima_pdk::GdsLayerMap`]
//!   (layer/datatype per stack layer, declared on the deck and folded into
//!   its fingerprint).
//!
//! Timestamps in BGNLIB/BGNSTR are fixed at zero so identical layouts
//! serialize to identical bytes — stream-out is deterministic and
//! cache-friendly by construction.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

pub mod diff;
pub mod emit;
pub mod model;
pub mod record;

use std::fmt;

pub use diff::{diff, GdsDiff};
pub use emit::{emit, stream_out, GdsArtifact, GdsCellDef, GdsDesign, GdsLabel, GdsPlacement};
pub use model::{GdsElement, GdsLibrary, GdsStructure};

/// Typed failure of GDS encoding, decoding, or emission. Every variant is
/// a recoverable verdict on the stream or the design — nothing in this
/// crate panics on malformed input.
#[derive(Debug, Clone, PartialEq)]
pub enum GdsError {
    /// The stream ended inside a record (header or payload).
    Truncated {
        /// Byte offset of the incomplete record.
        offset: usize,
    },
    /// A record header carried an illegal length (< 4 bytes or odd).
    BadRecordLength {
        /// Byte offset of the record.
        offset: usize,
        /// The length field as read.
        length: u16,
    },
    /// A record type that is valid GDS-II but outside the subset this
    /// parser accepts, or a record out of its mandatory position.
    UnexpectedRecord {
        /// Byte offset of the record.
        offset: usize,
        /// The record-type byte as read.
        record_type: u8,
        /// What the parser was expecting at this position.
        expected: &'static str,
    },
    /// A record's data-type byte disagrees with its record type.
    BadDataType {
        /// Byte offset of the record.
        offset: usize,
        /// The data-type byte as read.
        found: u8,
        /// The data-type byte the record type mandates.
        expected: u8,
    },
    /// A payload with the right data type but an impossible shape (wrong
    /// element count, unclosed polygon ring, empty name...).
    BadPayload {
        /// Byte offset of the record.
        offset: usize,
        /// What was wrong.
        what: String,
    },
    /// A string payload contained non-printable or non-ASCII bytes.
    BadString {
        /// Byte offset of the record.
        offset: usize,
    },
    /// Bytes remain after ENDLIB.
    TrailingData {
        /// Offset of the first trailing byte.
        offset: usize,
    },
    /// A coordinate does not fit the signed 32-bit database-unit grid.
    CoordOverflow {
        /// The offending nanometre coordinate.
        value: i64,
    },
    /// A float cannot be represented as a GDS `real8` (non-finite or
    /// outside the excess-64 exponent range).
    BadReal {
        /// The offending value.
        value: f64,
    },
    /// A structure, library, or label name with characters outside the
    /// printable-ASCII set GDS-II allows.
    BadName {
        /// The offending name.
        name: String,
    },
    /// A record payload would exceed the u16 record-length field.
    RecordTooLong {
        /// Payload length in bytes.
        payload: usize,
    },
    /// The design references a drawn layer the technology's layer map
    /// does not cover.
    UnmappedLayer {
        /// The uncovered stack-layer name.
        layer: String,
    },
}

impl fmt::Display for GdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GdsError::Truncated { offset } => {
                write!(f, "stream truncated inside record at byte {offset}")
            }
            GdsError::BadRecordLength { offset, length } => {
                write!(f, "illegal record length {length} at byte {offset}")
            }
            GdsError::UnexpectedRecord {
                offset,
                record_type,
                expected,
            } => write!(
                f,
                "unexpected record type 0x{record_type:02x} at byte {offset} (expected {expected})"
            ),
            GdsError::BadDataType {
                offset,
                found,
                expected,
            } => write!(
                f,
                "record at byte {offset} carries data type 0x{found:02x}, expected 0x{expected:02x}"
            ),
            GdsError::BadPayload { offset, what } => {
                write!(f, "bad payload at byte {offset}: {what}")
            }
            GdsError::BadString { offset } => {
                write!(f, "non-ASCII string payload at byte {offset}")
            }
            GdsError::TrailingData { offset } => {
                write!(f, "trailing data after ENDLIB at byte {offset}")
            }
            GdsError::CoordOverflow { value } => {
                write!(f, "coordinate {value} nm exceeds the 32-bit GDS grid")
            }
            GdsError::BadReal { value } => {
                write!(f, "{value} is not representable as a GDS real8")
            }
            GdsError::BadName { name } => {
                write!(f, "name {name:?} contains characters GDS-II forbids")
            }
            GdsError::RecordTooLong { payload } => {
                write!(
                    f,
                    "payload of {payload} bytes exceeds the record length field"
                )
            }
            GdsError::UnmappedLayer { layer } => {
                write!(
                    f,
                    "stack layer {layer:?} has no GDS layer-map entry on this deck"
                )
            }
        }
    }
}

impl std::error::Error for GdsError {}
