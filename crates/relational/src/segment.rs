//! Segments: the unit of storage and transfer.
//!
//! In the paper, each PostgreSQL relation is stored in Swift as a set of
//! 1 GB file segments, one object per segment, fetched on demand over HTTP
//! GET. A [`Segment`] is our equivalent: a batch of rows plus a binary
//! codec so segments can round-trip through an opaque byte-oriented object
//! store exactly like a Swift blob would.
//!
//! Physical-vs-logical sizing: a segment carries a few thousand physical
//! rows (keeping real join work fast) while the catalog assigns it a
//! *logical* byte size (1 GB) used for virtual-time transfer-cost
//! accounting. See `DESIGN.md` §4.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::RelationalError;
use crate::schema::Schema;
use crate::tuple::Row;
use crate::value::Value;

/// Magic tag identifying the segment wire format (``SKP1``).
const MAGIC: u32 = 0x534B_5031;

/// A batch of rows belonging to one table segment.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    schema: Schema,
    rows: Vec<Row>,
}

impl Segment {
    /// Creates a segment, validating every row against the schema.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Result<Self, RelationalError> {
        if let Some(pos) = rows.iter().position(|r| !r.conforms_to(&schema)) {
            return Err(RelationalError::SchemaMismatch {
                detail: format!("row {pos} does not conform to schema {schema}"),
            });
        }
        Ok(Segment { schema, rows })
    }

    /// Creates a segment without per-row validation (generator fast path;
    /// the generators are themselves schema-driven).
    pub fn new_unchecked(schema: Schema, rows: Vec<Row>) -> Self {
        Segment { schema, rows }
    }

    /// The segment's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Serializes the segment to the binary wire format.
    ///
    /// Layout: magic, row count, then per row per column a 1-byte type tag
    /// followed by the payload. The schema itself is *not* encoded — the
    /// catalog is the source of truth, mirroring how the paper's FUSE layer
    /// maps filenode-named objects back to relations.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + self.rows.len() * self.schema.len() * 9);
        buf.put_u32(MAGIC);
        buf.put_u32(self.schema.len() as u32);
        buf.put_u64(self.rows.len() as u64);
        for row in &self.rows {
            for v in row.values() {
                encode_value(&mut buf, v);
            }
        }
        buf.freeze()
    }

    /// Deserializes a segment previously produced by [`Segment::encode`].
    pub fn decode(schema: &Schema, mut data: Bytes) -> Result<Self, RelationalError> {
        let err = |detail: &str| RelationalError::Codec {
            detail: detail.to_string(),
        };
        if data.remaining() < 16 {
            return Err(err("segment too short for header"));
        }
        if data.get_u32() != MAGIC {
            return Err(err("bad magic"));
        }
        let ncols = data.get_u32() as usize;
        if ncols != schema.len() {
            return Err(RelationalError::SchemaMismatch {
                detail: format!(
                    "encoded column count {ncols} != schema arity {}",
                    schema.len()
                ),
            });
        }
        let nrows = data.get_u64() as usize;
        let mut rows = Vec::with_capacity(nrows);
        for _ in 0..nrows {
            let mut values = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                values.push(decode_value(&mut data)?);
            }
            rows.push(Row::new(values));
        }
        if data.has_remaining() {
            return Err(err("trailing bytes after last row"));
        }
        Segment::new(schema.clone(), rows)
    }
}

fn encode_value(buf: &mut BytesMut, v: &Value) {
    match v {
        Value::Null => buf.put_u8(0),
        Value::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(*b as u8);
        }
        Value::Int(i) => {
            buf.put_u8(2);
            buf.put_i64(*i);
        }
        Value::Float(f) => {
            buf.put_u8(3);
            buf.put_f64(*f);
        }
        Value::Str(s) => {
            buf.put_u8(4);
            buf.put_u32(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Date(d) => {
            buf.put_u8(5);
            buf.put_i32(*d);
        }
    }
}

fn decode_value(data: &mut Bytes) -> Result<Value, RelationalError> {
    let err = |detail: &str| RelationalError::Codec {
        detail: detail.to_string(),
    };
    if !data.has_remaining() {
        return Err(err("unexpected end of segment"));
    }
    let tag = data.get_u8();
    let need = |data: &Bytes, n: usize| {
        if data.remaining() < n {
            Err(err("truncated value"))
        } else {
            Ok(())
        }
    };
    Ok(match tag {
        0 => Value::Null,
        1 => {
            need(data, 1)?;
            Value::Bool(data.get_u8() != 0)
        }
        2 => {
            need(data, 8)?;
            Value::Int(data.get_i64())
        }
        3 => {
            need(data, 8)?;
            Value::Float(data.get_f64())
        }
        4 => {
            need(data, 4)?;
            let len = data.get_u32() as usize;
            need(data, len)?;
            let bytes = data.split_to(len);
            let s = std::str::from_utf8(&bytes).map_err(|_| err("invalid utf-8 in string"))?;
            Value::str(s)
        }
        5 => {
            need(data, 4)?;
            Value::Date(data.get_i32())
        }
        t => return Err(err(&format!("unknown value tag {t}"))),
    })
}

/// Expected type tag sequence check helper used by tests and fuzzing.
pub fn codec_roundtrip(seg: &Segment) -> Result<Segment, RelationalError> {
    Segment::decode(seg.schema(), seg.encode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::DataType;

    fn sample_schema() -> Schema {
        Schema::of(&[
            ("k", DataType::Int),
            ("mode", DataType::Str),
            ("price", DataType::Float),
            ("ship", DataType::Date),
            ("flag", DataType::Bool),
        ])
    }

    fn sample_segment() -> Segment {
        let rows = vec![
            Row::new(vec![
                Value::Int(1),
                Value::str("MAIL"),
                Value::Float(10.5),
                Value::Date(100),
                Value::Bool(true),
            ]),
            Row::new(vec![
                Value::Int(2),
                Value::str("SHIP"),
                Value::Float(-3.25),
                Value::Date(-7),
                Value::Bool(false),
            ]),
            Row::new(vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ]),
        ];
        Segment::new(sample_schema(), rows).unwrap()
    }

    #[test]
    fn roundtrip_preserves_rows() {
        let seg = sample_segment();
        let back = codec_roundtrip(&seg).unwrap();
        assert_eq!(seg, back);
    }

    #[test]
    fn empty_segment_roundtrips() {
        let seg = Segment::new(sample_schema(), vec![]).unwrap();
        assert_eq!(codec_roundtrip(&seg).unwrap().len(), 0);
    }

    #[test]
    fn rejects_bad_magic() {
        let seg = sample_segment();
        let mut bytes = seg.encode().to_vec();
        bytes[0] ^= 0xFF;
        let res = Segment::decode(seg.schema(), Bytes::from(bytes));
        assert!(matches!(res, Err(RelationalError::Codec { .. })));
    }

    #[test]
    fn rejects_truncation() {
        let seg = sample_segment();
        let bytes = seg.encode();
        let cut = bytes.slice(..bytes.len() - 3);
        assert!(Segment::decode(seg.schema(), cut).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let seg = sample_segment();
        let mut bytes = seg.encode().to_vec();
        bytes.push(0xAB);
        assert!(Segment::decode(seg.schema(), Bytes::from(bytes)).is_err());
    }

    #[test]
    fn rejects_wrong_schema_arity() {
        let seg = sample_segment();
        let narrow = Schema::of(&[("k", DataType::Int)]);
        assert!(matches!(
            Segment::decode(&narrow, seg.encode()),
            Err(RelationalError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn new_validates_rows() {
        let s = Schema::of(&[("k", DataType::Int)]);
        assert!(Segment::new(s.clone(), vec![row!["oops"]]).is_err());
        assert!(Segment::new(s, vec![row![1i64]]).is_ok());
    }
}
