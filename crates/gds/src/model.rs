//! In-memory GDS-II library model: serialization and strict re-parsing.

use crate::record::{
    datatype, push_i16_record, push_i32_record, push_real8_record, push_record, push_str_record,
    read_record, rectype, RawRecord,
};
use crate::GdsError;

/// GDS-II stream version emitted (release 6).
pub const GDS_VERSION: i16 = 600;

/// One element inside a structure — the subset prima emits.
#[derive(Debug, Clone, PartialEq)]
pub enum GdsElement {
    /// A filled polygon on a layer/datatype pair. The coordinate ring is
    /// closed (first point repeated last), in database units.
    Boundary {
        /// GDS layer number.
        layer: i16,
        /// GDS datatype number.
        datatype: i16,
        /// Closed coordinate ring, database units.
        xy: Vec<(i32, i32)>,
    },
    /// A placement of another structure at an origin.
    Sref {
        /// Referenced structure name.
        structure: String,
        /// Placement origin, database units.
        origin: (i32, i32),
    },
    /// A text label (KLayout renders these as named pins).
    Text {
        /// GDS layer number.
        layer: i16,
        /// GDS texttype number.
        texttype: i16,
        /// Label anchor, database units.
        origin: (i32, i32),
        /// The label text.
        text: String,
    },
}

/// A named structure (cell) holding elements.
#[derive(Debug, Clone, PartialEq)]
pub struct GdsStructure {
    /// Structure name (STRNAME).
    pub name: String,
    /// Elements in stream order.
    pub elements: Vec<GdsElement>,
}

/// A GDS-II library: name, unit sizes, and structures in stream order.
#[derive(Debug, Clone, PartialEq)]
pub struct GdsLibrary {
    /// Library name (LIBNAME).
    pub name: String,
    /// Size of one database unit in user units (UNITS field 1; `1e-3`
    /// makes the user unit a micron when the database unit is a
    /// nanometre).
    pub unit_in_user: f64,
    /// Size of one database unit in metres (UNITS field 2; `1e-9` = nm).
    pub unit_in_m: f64,
    /// Structures in stream order; referenced structures must precede the
    /// top structure for single-pass consumers, and prima emits them that
    /// way.
    pub structures: Vec<GdsStructure>,
}

/// Twelve zero i16s standing in for the BGNLIB/BGNSTR timestamps:
/// identical layouts must serialize to identical bytes.
const EPOCH: [i16; 12] = [0; 12];

fn check_name(name: &str) -> Result<(), GdsError> {
    if !crate::record::legal_name(name) {
        return Err(GdsError::BadName {
            name: name.to_string(),
        });
    }
    Ok(())
}

impl GdsLibrary {
    /// Serializes the library to a binary GDS-II stream.
    ///
    /// # Errors
    ///
    /// [`GdsError::BadName`] for names outside the GDS character set,
    /// [`GdsError::BadReal`] for unit sizes outside the `real8` range,
    /// [`GdsError::BadPayload`] for an unclosed boundary ring, and
    /// [`GdsError::RecordTooLong`] for a polygon too large for one record.
    pub fn to_bytes(&self) -> Result<Vec<u8>, GdsError> {
        let mut out = Vec::with_capacity(1024);
        push_i16_record(&mut out, rectype::HEADER, &[GDS_VERSION])?;
        push_i16_record(&mut out, rectype::BGNLIB, &EPOCH)?;
        check_name(&self.name)?;
        push_str_record(&mut out, rectype::LIBNAME, &self.name)?;
        push_real8_record(
            &mut out,
            rectype::UNITS,
            &[self.unit_in_user, self.unit_in_m],
        )?;
        for s in &self.structures {
            push_i16_record(&mut out, rectype::BGNSTR, &EPOCH)?;
            check_name(&s.name)?;
            push_str_record(&mut out, rectype::STRNAME, &s.name)?;
            for el in &s.elements {
                write_element(&mut out, el)?;
            }
            push_record(&mut out, rectype::ENDSTR, datatype::NONE, &[])?;
        }
        push_record(&mut out, rectype::ENDLIB, datatype::NONE, &[])?;
        Ok(out)
    }

    /// Strictly parses a binary GDS-II stream: the mandatory header
    /// sequence, then structures of boundary/SREF/text elements, then
    /// ENDLIB with nothing after it. Anything else — unknown records,
    /// records out of position, short payloads, truncation — is a typed
    /// [`GdsError`], never a panic or a silent skip.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, GdsError> {
        let mut pos = 0usize;
        let header = expect(buf, &mut pos, rectype::HEADER, "HEADER")?;
        let _version = header.single_i16()?;
        let bgnlib = expect(buf, &mut pos, rectype::BGNLIB, "BGNLIB")?;
        expect_timestamps(&bgnlib)?;
        let name = expect(buf, &mut pos, rectype::LIBNAME, "LIBNAME")?.ascii()?;
        let units = expect(buf, &mut pos, rectype::UNITS, "UNITS")?;
        let unit_vals = units.real8s()?;
        let [unit_in_user, unit_in_m] = unit_vals.as_slice() else {
            return Err(GdsError::BadPayload {
                offset: units.offset,
                what: format!("UNITS with {} reals, expected 2", unit_vals.len()),
            });
        };

        let mut structures = Vec::new();
        loop {
            let rec = read_record(buf, &mut pos)?;
            match rec.rectype {
                rectype::BGNSTR => {
                    expect_timestamps(&rec)?;
                    structures.push(read_structure(buf, &mut pos)?);
                }
                rectype::ENDLIB => {
                    if pos != buf.len() {
                        return Err(GdsError::TrailingData { offset: pos });
                    }
                    return Ok(GdsLibrary {
                        name,
                        unit_in_user: *unit_in_user,
                        unit_in_m: *unit_in_m,
                        structures,
                    });
                }
                other => {
                    return Err(GdsError::UnexpectedRecord {
                        offset: rec.offset,
                        record_type: other,
                        expected: "BGNSTR or ENDLIB",
                    })
                }
            }
        }
    }

    /// Looks a structure up by name.
    pub fn structure(&self, name: &str) -> Option<&GdsStructure> {
        self.structures.iter().find(|s| s.name == name)
    }
}

fn write_element(out: &mut Vec<u8>, el: &GdsElement) -> Result<(), GdsError> {
    match el {
        GdsElement::Boundary {
            layer,
            datatype: dt,
            xy,
        } => {
            if xy.len() < 4 || xy.first() != xy.last() {
                return Err(GdsError::BadPayload {
                    offset: out.len(),
                    what: format!("boundary ring of {} points is not closed", xy.len()),
                });
            }
            push_record(out, rectype::BOUNDARY, datatype::NONE, &[])?;
            push_i16_record(out, rectype::LAYER, &[*layer])?;
            push_i16_record(out, rectype::DATATYPE, &[*dt])?;
            push_xy(out, xy)?;
        }
        GdsElement::Sref { structure, origin } => {
            check_name(structure)?;
            push_record(out, rectype::SREF, datatype::NONE, &[])?;
            push_str_record(out, rectype::SNAME, structure)?;
            push_xy(out, &[*origin])?;
        }
        GdsElement::Text {
            layer,
            texttype,
            origin,
            text,
        } => {
            push_record(out, rectype::TEXT, datatype::NONE, &[])?;
            push_i16_record(out, rectype::LAYER, &[*layer])?;
            push_i16_record(out, rectype::TEXTTYPE, &[*texttype])?;
            push_xy(out, &[*origin])?;
            push_str_record(out, rectype::STRING, text)?;
        }
    }
    push_record(out, rectype::ENDEL, datatype::NONE, &[])
}

fn push_xy(out: &mut Vec<u8>, pts: &[(i32, i32)]) -> Result<(), GdsError> {
    let mut vals = Vec::with_capacity(pts.len() * 2);
    for &(x, y) in pts {
        vals.push(x);
        vals.push(y);
    }
    push_i32_record(out, rectype::XY, &vals)
}

/// Reads the next record and demands a specific type.
fn expect<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    rt: u8,
    what: &'static str,
) -> Result<RawRecord<'a>, GdsError> {
    let rec = read_record(buf, pos)?;
    if rec.rectype != rt {
        return Err(GdsError::UnexpectedRecord {
            offset: rec.offset,
            record_type: rec.rectype,
            expected: what,
        });
    }
    Ok(rec)
}

fn expect_timestamps(rec: &RawRecord<'_>) -> Result<(), GdsError> {
    let vals = rec.i16s()?;
    if vals.len() != 12 {
        return Err(GdsError::BadPayload {
            offset: rec.offset,
            what: format!("timestamp record with {} i16s, expected 12", vals.len()),
        });
    }
    Ok(())
}

/// Parses one structure body: STRNAME, elements, ENDSTR. The caller has
/// already consumed BGNSTR.
fn read_structure(buf: &[u8], pos: &mut usize) -> Result<GdsStructure, GdsError> {
    let name = expect(buf, pos, rectype::STRNAME, "STRNAME")?.ascii()?;
    let mut elements = Vec::new();
    loop {
        let rec = read_record(buf, pos)?;
        match rec.rectype {
            rectype::BOUNDARY => elements.push(read_boundary(buf, pos)?),
            rectype::SREF => elements.push(read_sref(buf, pos)?),
            rectype::TEXT => elements.push(read_text(buf, pos)?),
            rectype::ENDSTR => return Ok(GdsStructure { name, elements }),
            other => {
                return Err(GdsError::UnexpectedRecord {
                    offset: rec.offset,
                    record_type: other,
                    expected: "BOUNDARY, SREF, TEXT, or ENDSTR",
                })
            }
        }
    }
}

fn read_boundary(buf: &[u8], pos: &mut usize) -> Result<GdsElement, GdsError> {
    let layer = expect(buf, pos, rectype::LAYER, "LAYER")?.single_i16()?;
    let dt = expect(buf, pos, rectype::DATATYPE, "DATATYPE")?.single_i16()?;
    let xy_rec = expect(buf, pos, rectype::XY, "XY")?;
    let xy = xy_rec.xy_pairs()?;
    if xy.len() < 4 || xy.first() != xy.last() {
        return Err(GdsError::BadPayload {
            offset: xy_rec.offset,
            what: format!("boundary ring of {} points is not closed", xy.len()),
        });
    }
    expect(buf, pos, rectype::ENDEL, "ENDEL")?;
    Ok(GdsElement::Boundary {
        layer,
        datatype: dt,
        xy,
    })
}

fn read_sref(buf: &[u8], pos: &mut usize) -> Result<GdsElement, GdsError> {
    let structure = expect(buf, pos, rectype::SNAME, "SNAME")?.ascii()?;
    let xy_rec = expect(buf, pos, rectype::XY, "XY")?;
    let origin = single_point(&xy_rec)?;
    expect(buf, pos, rectype::ENDEL, "ENDEL")?;
    Ok(GdsElement::Sref { structure, origin })
}

fn read_text(buf: &[u8], pos: &mut usize) -> Result<GdsElement, GdsError> {
    let layer = expect(buf, pos, rectype::LAYER, "LAYER")?.single_i16()?;
    let texttype = expect(buf, pos, rectype::TEXTTYPE, "TEXTTYPE")?.single_i16()?;
    let xy_rec = expect(buf, pos, rectype::XY, "XY")?;
    let origin = single_point(&xy_rec)?;
    let text = expect(buf, pos, rectype::STRING, "STRING")?.ascii()?;
    expect(buf, pos, rectype::ENDEL, "ENDEL")?;
    Ok(GdsElement::Text {
        layer,
        texttype,
        origin,
        text,
    })
}

fn single_point(rec: &RawRecord<'_>) -> Result<(i32, i32), GdsError> {
    let pts = rec.xy_pairs()?;
    match pts.as_slice() {
        [p] => Ok(*p),
        other => Err(GdsError::BadPayload {
            offset: rec.offset,
            what: format!("expected one XY point, found {}", other.len()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GdsLibrary {
        GdsLibrary {
            name: "lib".to_string(),
            unit_in_user: 1e-3,
            unit_in_m: 1e-9,
            structures: vec![
                GdsStructure {
                    name: "cell_a".to_string(),
                    elements: vec![GdsElement::Boundary {
                        layer: 10,
                        datatype: 0,
                        xy: vec![(0, 0), (100, 0), (100, 50), (0, 50), (0, 0)],
                    }],
                },
                GdsStructure {
                    name: "top".to_string(),
                    elements: vec![
                        GdsElement::Sref {
                            structure: "cell_a".to_string(),
                            origin: (-40, 7),
                        },
                        GdsElement::Text {
                            layer: 10,
                            texttype: 0,
                            origin: (5, 5),
                            text: "vout".to_string(),
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let lib = sample();
        let bytes = lib.to_bytes().unwrap();
        let back = GdsLibrary::from_bytes(&bytes).unwrap();
        assert_eq!(lib, back);
    }

    #[test]
    fn every_truncation_prefix_is_a_typed_error() {
        let bytes = sample().to_bytes().unwrap();
        for cut in 0..bytes.len() {
            let r = GdsLibrary::from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes must not parse");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes.extend_from_slice(&[0, 0]);
        assert!(matches!(
            GdsLibrary::from_bytes(&bytes),
            Err(GdsError::TrailingData { .. })
        ));
    }

    #[test]
    fn unclosed_ring_is_rejected_on_write() {
        let mut lib = sample();
        lib.structures[0].elements[0] = GdsElement::Boundary {
            layer: 1,
            datatype: 0,
            xy: vec![(0, 0), (10, 0), (10, 10)],
        };
        assert!(matches!(lib.to_bytes(), Err(GdsError::BadPayload { .. })));
    }
}
