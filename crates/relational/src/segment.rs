//! Segments: the unit of storage and transfer.
//!
//! In the paper, each PostgreSQL relation is stored in Swift as a set of
//! 1 GB file segments, one object per segment, fetched on demand over HTTP
//! GET. A [`Segment`] is our equivalent: one table slice stored column by
//! column, plus a binary codec so segments can round-trip through an
//! opaque byte-oriented object store exactly like a Swift blob would.
//!
//! # Layout
//!
//! Each column is one typed run of values — `i64`, `f64`, `i32` days,
//! `bool`, or `u32` codes into the segment's string dictionary — plus a
//! null bitmap that exists only when the column holds a NULL. Every
//! string column of a segment codes into one shared dictionary of
//! `Arc<str>` entries, each distinct string stored once, so handing a
//! string out as a [`Value`] clones an `Arc`, never the bytes. A row is
//! a position: [`RowRef`] pairs the segment with it and reads a column
//! value as a borrowed [`ValueRef`]; [`Row`]s are materialised only for
//! results, group keys and the row-major constructors.
//!
//! Filters run per column over a selection vector
//! ([`scan::select`](crate::ops::scan::select)), hash indexes hash keys
//! straight out of the key column, and a predicate on a string column is
//! decided once per dictionary entry.
//!
//! Physical-vs-logical sizing: a segment carries a few thousand physical
//! rows (keeping real join work fast) while the catalog assigns it a
//! *logical* byte size (1 GB) used for virtual-time transfer-cost
//! accounting; see `skipper_datagen::dataset::segments_for`.

use std::fmt;
use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::RelationalError;
use crate::hash::FxHashMap;
use crate::schema::{DataType, Schema};
use crate::tuple::Row;
use crate::value::{Value, ValueRef};

/// Magic tag identifying the segment wire format (``SKP1``).
const MAGIC: u32 = 0x534B_5031;

/// The typed values of one column, borrowed from its segment; a NULL
/// slot holds the type's zero.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ColumnValues<'a> {
    /// Booleans.
    Bool(&'a [bool]),
    /// 64-bit integers.
    Int(&'a [i64]),
    /// 64-bit floats.
    Float(&'a [f64]),
    /// Codes into the segment's string dictionary.
    Str(&'a [u32]),
    /// Days since the TPC-H epoch.
    Date(&'a [i32]),
}

/// One column of a segment: its typed values and its NULLs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Column<'a> {
    values: ColumnValues<'a>,
    /// The segment's null bitmap and this column's first bit in it, when
    /// the column holds a NULL.
    nulls: Option<(&'a [u64], usize)>,
}

impl<'a> Column<'a> {
    /// The typed values.
    #[inline]
    pub(crate) fn values(&self) -> ColumnValues<'a> {
        self.values
    }

    /// True when the column holds at least one NULL.
    #[inline]
    pub(crate) fn has_nulls(&self) -> bool {
        self.nulls.is_some()
    }

    /// True when the value at `pos` is NULL.
    #[inline]
    pub(crate) fn is_null(&self, pos: usize) -> bool {
        self.nulls
            .is_some_and(|(bits, first)| bit(bits, first + pos))
    }
}

#[inline]
fn bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

/// One table segment, stored column by column (see the module docs).
///
/// The columns of one type share one vector, in schema order: column
/// `col` of type `Int` is `ints[s * len..(s + 1) * len]` with `s` its
/// place among the schema's `Int` columns, so a segment costs one
/// allocation per column type it uses rather than one per column. The
/// integer columns sit in the segment itself (inline when they hold at
/// most eight values) and everything else in one `Rest` box, which an
/// all-integer segment without NULLs never allocates: a tiny one — a
/// synthetic payload of a few rows — costs no allocation beyond its
/// header.
#[derive(Clone)]
pub struct Segment {
    schema: Schema,
    len: usize,
    ints: Ints,
    rest: Option<Box<Rest>>,
}

/// Integer values held inline in a segment header.
const INLINE_INTS: usize = 8;

/// The integer columns of a segment: inline up to [`INLINE_INTS`]
/// values, else one exact-capacity vector.
#[derive(Clone)]
enum Ints {
    Inline { len: u8, values: [i64; INLINE_INTS] },
    Heap(Vec<i64>),
}

impl Ints {
    /// Room for `n` values, pushed in order.
    fn with_capacity(n: usize) -> Self {
        if n <= INLINE_INTS {
            Ints::Inline {
                len: 0,
                values: [0; INLINE_INTS],
            }
        } else {
            Ints::Heap(Vec::with_capacity(n))
        }
    }

    /// `n` zeros, to be overwritten in any order.
    fn zeroed(n: usize) -> Self {
        if n <= INLINE_INTS {
            Ints::Inline {
                len: n as u8,
                values: [0; INLINE_INTS],
            }
        } else {
            Ints::Heap(vec![0; n])
        }
    }

    #[inline]
    fn as_slice(&self) -> &[i64] {
        match self {
            Ints::Inline { len, values } => &values[..*len as usize],
            Ints::Heap(values) => values,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [i64] {
        match self {
            Ints::Inline { len, values } => &mut values[..*len as usize],
            Ints::Heap(values) => values,
        }
    }
}

impl Extend<i64> for Ints {
    fn extend<I: IntoIterator<Item = i64>>(&mut self, iter: I) {
        match self {
            Ints::Inline { len, values } => {
                for v in iter {
                    values[*len as usize] = v;
                    *len += 1;
                }
            }
            Ints::Heap(values) => values.extend(iter),
        }
    }
}

/// The columns of a segment other than its integers, its NULLs and its
/// dictionary.
#[derive(Clone, Default)]
struct Rest {
    floats: Box<[f64]>,
    dates: Box<[i32]>,
    codes: Box<[u32]>,
    bools: Box<[bool]>,
    /// NULL bits, column `col`'s at `col * len + pos`; present only when
    /// some column holds a NULL.
    nulls: Option<Box<[u64]>>,
    /// Bit `col` set ⇔ column `col` holds a NULL.
    null_cols: u64,
    dict: Box<[Arc<str>]>,
}

/// Most columns a segment holds (the width of `null_cols`).
const MAX_COLUMNS: usize = 64;

impl Segment {
    /// Creates a segment from rows, validating every row against the
    /// schema.
    pub fn new(schema: Schema, rows: Vec<Row>) -> Result<Self, RelationalError> {
        if let Some(pos) = rows.iter().position(|r| !r.conforms_to(&schema)) {
            return Err(RelationalError::SchemaMismatch {
                detail: format!("row {pos} does not conform to schema {schema}"),
            });
        }
        Ok(Segment::new_unchecked(schema, rows))
    }

    /// Creates a segment from rows without the up-front conformance
    /// scan: one pass per column moves its values into exact-capacity
    /// typed vectors.
    ///
    /// # Panics
    /// Panics if a row's arity or a value does not fit the schema.
    pub fn new_unchecked(schema: Schema, rows: Vec<Row>) -> Self {
        if let Some(pos) = rows.iter().position(|r| r.len() != schema.len()) {
            panic!(
                "row {pos} of {} values does not fit schema {schema}",
                rows[pos].len()
            );
        }
        let len = rows.len();
        let mut nulls = Nulls::new(&schema, len);
        let mut ints = Ints::with_capacity(schema.columns_of(DataType::Int) * len);
        // An all-integer schema builds nothing else.
        let mut others = (schema.columns_of(DataType::Int) < schema.len())
            .then(|| Others::new(&schema, len, false));
        for (col, field) in schema.fields().iter().enumerate() {
            let fits = match (field.dtype, &mut others) {
                (DataType::Int, _) => fill(&mut ints, &mut nulls, col, &rows, Value::as_int),
                (dtype, Some(others)) => others.fill(dtype, &mut nulls, col, &rows),
                (_, None) => unreachable!("a non-integer column has its vectors"),
            };
            assert!(fits, "a value does not fit column {col} of schema {schema}");
        }
        drop(rows);
        Segment::assemble(schema, len, ints, others, nulls)
    }

    /// The segment made of its finished parts.
    fn assemble(
        schema: Schema,
        len: usize,
        ints: Ints,
        others: Option<Others>,
        nulls: Nulls,
    ) -> Segment {
        debug_assert_eq!(
            ints.as_slice().len(),
            schema.columns_of(DataType::Int) * len
        );
        let rest = match (others, nulls.bits) {
            (None, None) => None,
            (others, bits) => {
                let others = others.unwrap_or_default();
                // Exact capacity: no conversion below reallocates.
                Some(Box::new(Rest {
                    floats: others.floats.into_boxed_slice(),
                    dates: others.dates.into_boxed_slice(),
                    codes: others.codes.into_boxed_slice(),
                    bools: others.bools.into_boxed_slice(),
                    nulls: bits.map(Vec::into_boxed_slice),
                    null_cols: nulls.cols,
                    dict: others.dict.entries.into_boxed_slice(),
                }))
            }
        };
        Segment {
            schema,
            len,
            ints,
            rest,
        }
    }

    /// The segment's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Column `col`.
    #[inline]
    pub(crate) fn column(&self, col: usize) -> Column<'_> {
        let (dtype, slot) = self.schema.place(col);
        let span = slot * self.len..(slot + 1) * self.len;
        if dtype == DataType::Int && self.rest.is_none() {
            return Column {
                values: ColumnValues::Int(&self.ints.as_slice()[span]),
                nulls: None,
            };
        }
        let rest = self.rest();
        let values = match dtype {
            DataType::Int => ColumnValues::Int(&self.ints.as_slice()[span]),
            DataType::Float => ColumnValues::Float(&rest.floats[span]),
            DataType::Date => ColumnValues::Date(&rest.dates[span]),
            DataType::Str => ColumnValues::Str(&rest.codes[span]),
            DataType::Bool => ColumnValues::Bool(&rest.bools[span]),
        };
        let nulls = match &rest.nulls {
            Some(bits) if rest.null_cols >> col & 1 == 1 => Some((&bits[..], col * self.len)),
            _ => None,
        };
        Column { values, nulls }
    }

    /// The non-integer part; present whenever a non-integer column is.
    #[inline]
    fn rest(&self) -> &Rest {
        self.rest
            .as_deref()
            .expect("a segment with a non-integer column or a NULL has its rest")
    }

    /// The string dictionary every string column codes into.
    #[inline]
    pub(crate) fn dictionary(&self) -> &[Arc<str>] {
        self.rest.as_ref().map_or(&[], |rest| &rest.dict)
    }

    /// The value at row `pos`, column `col`.
    #[inline]
    pub fn value(&self, pos: usize, col: usize) -> ValueRef<'_> {
        debug_assert!(pos < self.len, "row {pos} of {}", self.len);
        let (dtype, slot) = self.schema.place(col);
        let at = slot * self.len + pos;
        let Some(rest) = self.rest.as_deref() else {
            return ValueRef::Int(self.ints.as_slice()[at]);
        };
        if rest.null_cols >> col & 1 == 1 {
            if let Some(bits) = &rest.nulls {
                if bit(bits, col * self.len + pos) {
                    return ValueRef::Null;
                }
            }
        }
        match dtype {
            DataType::Int => ValueRef::Int(self.ints.as_slice()[at]),
            DataType::Float => ValueRef::Float(rest.floats[at]),
            DataType::Date => ValueRef::Date(rest.dates[at]),
            DataType::Str => ValueRef::Str(&rest.dict[rest.codes[at] as usize]),
            DataType::Bool => ValueRef::Bool(rest.bools[at]),
        }
    }

    /// Row `pos`.
    #[inline]
    pub fn row(&self, pos: usize) -> RowRef<'_> {
        debug_assert!(pos < self.len, "row {pos} of {}", self.len);
        RowRef {
            segment: self,
            pos: pos as u32,
        }
    }

    /// Every row, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = RowRef<'_>> + '_ {
        (0..self.len).map(move |pos| self.row(pos))
    }

    /// Serializes the segment to the binary wire format.
    ///
    /// Layout: magic, column count, row count, then per row per column a
    /// 1-byte type tag followed by the payload. The schema itself is
    /// *not* encoded — the catalog is the source of truth, mirroring how
    /// the paper's FUSE layer maps filenode-named objects back to
    /// relations.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + self.len * self.schema.len() * 9);
        buf.put_u32(MAGIC);
        buf.put_u32(self.schema.len() as u32);
        buf.put_u64(self.len as u64);
        for pos in 0..self.len {
            for col in 0..self.schema.len() {
                encode_value(&mut buf, self.value(pos, col));
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
        if nrows >= u32::MAX as usize {
            return Err(err("segment exceeds 32-bit row positions"));
        }
        // Every value takes at least its tag byte.
        if nrows.saturating_mul(ncols) > data.remaining() {
            return Err(err("truncated value"));
        }
        let mut builder = SegmentBuilder::new(schema.clone(), nrows);
        for pos in 0..nrows {
            for col in 0..ncols {
                let value = decode_value(&mut data)?;
                if !schema.field(col).dtype.admits(&value) {
                    return Err(RelationalError::SchemaMismatch {
                        detail: format!("row {pos} does not conform to schema {schema}"),
                    });
                }
                builder.push(value.as_ref());
            }
        }
        if data.has_remaining() {
            return Err(err("trailing bytes after last row"));
        }
        Ok(builder.finish())
    }
}

/// Segments are equal when they hold the same rows under the same
/// schema, however their dictionaries happen to be ordered.
impl PartialEq for Segment {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.len == other.len
            && (0..self.schema.len())
                .all(|col| (0..self.len).all(|pos| self.value(pos, col) == other.value(pos, col)))
    }
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Segment {} ", self.schema)?;
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One row of a segment: the segment and a position in it. `Copy`, two
/// words; reads go straight to the columns.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    segment: &'a Segment,
    pos: u32,
}

impl<'a> RowRef<'a> {
    /// The value of column `col`.
    #[inline]
    pub fn get(self, col: usize) -> ValueRef<'a> {
        self.segment.value(self.pos as usize, col)
    }

    /// The segment the row lives in.
    #[inline]
    pub fn segment(self) -> &'a Segment {
        self.segment
    }

    /// The row's position in its segment.
    #[inline]
    pub fn position(self) -> usize {
        self.pos as usize
    }

    /// The row as an owned [`Row`].
    pub fn to_row(self) -> Row {
        Row::new(
            (0..self.segment.schema.len())
                .map(|col| self.get(col).to_value())
                .collect(),
        )
    }
}

impl fmt::Debug for RowRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.to_row())
    }
}

/// A segment's string dictionary while it is written: entries in code
/// order plus the code of each distinct string.
#[derive(Default)]
struct Dictionary {
    entries: Vec<Arc<str>>,
    codes: FxHashMap<Arc<str>, u32>,
}

impl Dictionary {
    /// The code of `s`, allocating an entry if it is new.
    #[inline]
    fn code_of(&mut self, s: &str) -> u32 {
        match self.codes.get(s) {
            Some(&code) => code,
            None => self.insert(Arc::from(s)),
        }
    }

    /// The code of `s`, which becomes the entry itself if it is new.
    #[inline]
    fn code_of_arc(&mut self, s: &Arc<str>) -> u32 {
        match self.codes.get(&**s) {
            Some(&code) => code,
            None => self.insert(Arc::clone(s)),
        }
    }

    fn insert(&mut self, s: Arc<str>) -> u32 {
        let code = u32::try_from(self.entries.len()).expect("dictionary exceeds 32-bit codes");
        self.codes.insert(Arc::clone(&s), code);
        self.entries.push(s);
        code
    }
}

/// Appends column `col` of `rows` to `out`, reading each value with
/// `get` and recording NULLs; false when a value has another type.
#[inline]
fn fill<T: Default>(
    out: &mut impl Extend<T>,
    nulls: &mut Nulls,
    col: usize,
    rows: &[Row],
    mut get: impl FnMut(&Value) -> Option<T>,
) -> bool {
    let mut fits = true;
    out.extend(rows.iter().enumerate().map(|(pos, row)| {
        let value = row.get(col);
        if value.is_null() {
            nulls.set(col, pos);
            return T::default();
        }
        get(value).unwrap_or_else(|| {
            fits = false;
            T::default()
        })
    }));
    fits
}

/// The NULL bits of a segment of `len` rows and `ncols` columns under
/// construction.
struct Nulls {
    len: usize,
    ncols: usize,
    bits: Option<Vec<u64>>,
    cols: u64,
}

impl Nulls {
    /// No NULL yet, in a segment of `len` rows of `schema`.
    fn new(schema: &Schema, len: usize) -> Self {
        assert!(
            schema.len() <= MAX_COLUMNS,
            "a segment holds at most {MAX_COLUMNS} columns, not {}",
            schema.len()
        );
        assert!(
            len < u32::MAX as usize,
            "segment of {len} rows exceeds 32-bit row positions"
        );
        Nulls {
            len,
            ncols: schema.len(),
            bits: None,
            cols: 0,
        }
    }

    /// Marks row `pos` of column `col` NULL.
    #[cold]
    fn set(&mut self, col: usize, pos: usize) {
        let (len, ncols) = (self.len, self.ncols);
        let bits = self
            .bits
            .get_or_insert_with(|| vec![0; (ncols * len).div_ceil(64)]);
        let i = col * len + pos;
        bits[i / 64] |= 1 << (i % 64);
        self.cols |= 1 << col;
    }
}

/// The non-integer vectors of a segment under construction.
#[derive(Default)]
struct Others {
    floats: Vec<f64>,
    dates: Vec<i32>,
    codes: Vec<u32>,
    bools: Vec<bool>,
    dict: Dictionary,
}

impl Others {
    /// Empty vectors with exact room for `len` rows of `schema` (or, when
    /// `zeroed`, exactly that many zeros, to be overwritten in any order).
    fn new(schema: &Schema, len: usize, zeroed: bool) -> Self {
        fn vec<T: Clone + Default>(n: usize, zeroed: bool) -> Vec<T> {
            if zeroed {
                vec![T::default(); n]
            } else {
                Vec::with_capacity(n)
            }
        }
        let room = |dtype| schema.columns_of(dtype) * len;
        Others {
            floats: vec(room(DataType::Float), zeroed),
            dates: vec(room(DataType::Date), zeroed),
            codes: vec(room(DataType::Str), zeroed),
            bools: vec(room(DataType::Bool), zeroed),
            dict: Dictionary::default(),
        }
    }

    /// Appends column `col` of `rows`, of type `dtype`; see [`fill`].
    fn fill(&mut self, dtype: DataType, nulls: &mut Nulls, col: usize, rows: &[Row]) -> bool {
        let Others {
            floats,
            dates,
            codes,
            bools,
            dict,
        } = self;
        match dtype {
            DataType::Date => fill(dates, nulls, col, rows, Value::as_date),
            DataType::Float => fill(floats, nulls, col, rows, |v| match v {
                Value::Float(f) => Some(*f),
                _ => None,
            }),
            DataType::Bool => fill(bools, nulls, col, rows, |v| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            }),
            DataType::Str => fill(codes, nulls, col, rows, |v| match v {
                Value::Str(s) => Some(dict.code_of_arc(s)),
                _ => None,
            }),
            DataType::Int => unreachable!("integers are filled apart"),
        }
    }
}

/// Writes a segment of a fixed number of rows, row by row: each push
/// fills the next column of the current row, in schema order, and wraps
/// to the next row after the last column. Strings are interned into the
/// segment's dictionary as they arrive.
pub struct SegmentBuilder {
    schema: Schema,
    ints: Ints,
    others: Others,
    nulls: Nulls,
    rows: usize,
    next_col: usize,
    pos: usize,
}

impl SegmentBuilder {
    /// A builder for a segment of exactly `rows` rows.
    pub fn new(schema: Schema, rows: usize) -> Self {
        // Row-major pushes land column-major: size every vector now.
        let nulls = Nulls::new(&schema, rows);
        let ints = Ints::zeroed(schema.columns_of(DataType::Int) * rows);
        let others = Others::new(&schema, rows, true);
        SegmentBuilder {
            schema,
            ints,
            others,
            nulls,
            rows,
            next_col: 0,
            pos: 0,
        }
    }

    /// The type and vector index of the next push, then advances.
    #[inline]
    fn advance(&mut self) -> (DataType, usize) {
        assert!(
            self.pos < self.rows,
            "segment holds only {} rows",
            self.rows
        );
        let col = self.next_col;
        let (dtype, slot) = self.schema.place(col);
        let at = slot * self.rows + self.pos;
        self.next_col += 1;
        if self.next_col == self.schema.len() {
            self.next_col = 0;
            self.pos += 1;
        }
        (dtype, at)
    }

    #[cold]
    fn mismatch(&self, what: &str) -> ! {
        panic!(
            "{what} does not fit the next column of schema {}",
            self.schema
        )
    }

    /// Pushes an integer.
    #[inline]
    pub fn int(&mut self, v: i64) -> &mut Self {
        match self.advance() {
            (DataType::Int, at) => self.ints.as_mut_slice()[at] = v,
            _ => self.mismatch("an integer"),
        }
        self
    }

    /// Pushes a float.
    #[inline]
    pub fn float(&mut self, v: f64) -> &mut Self {
        match self.advance() {
            (DataType::Float, at) => self.others.floats[at] = v,
            _ => self.mismatch("a float"),
        }
        self
    }

    /// Pushes a date (days since the TPC-H epoch).
    #[inline]
    pub fn date(&mut self, v: i32) -> &mut Self {
        match self.advance() {
            (DataType::Date, at) => self.others.dates[at] = v,
            _ => self.mismatch("a date"),
        }
        self
    }

    /// Pushes a boolean.
    #[inline]
    pub fn bool(&mut self, v: bool) -> &mut Self {
        match self.advance() {
            (DataType::Bool, at) => self.others.bools[at] = v,
            _ => self.mismatch("a boolean"),
        }
        self
    }

    /// Pushes a string, interning it into the dictionary.
    #[inline]
    pub fn str(&mut self, s: &str) -> &mut Self {
        let code = self.others.dict.code_of(s);
        self.code(code)
    }

    fn code(&mut self, code: u32) -> &mut Self {
        match self.advance() {
            (DataType::Str, at) => self.others.codes[at] = code,
            _ => self.mismatch("a string"),
        }
        self
    }

    /// Pushes a NULL.
    pub(crate) fn null(&mut self) -> &mut Self {
        let (col, pos) = (self.next_col, self.pos);
        self.advance();
        self.nulls.set(col, pos);
        self
    }

    /// Pushes any value; a string keeps its `Arc` as the dictionary
    /// entry when it is new.
    pub(crate) fn push(&mut self, value: ValueRef<'_>) -> &mut Self {
        match value {
            ValueRef::Null => self.null(),
            ValueRef::Bool(b) => self.bool(b),
            ValueRef::Int(i) => self.int(i),
            ValueRef::Float(f) => self.float(f),
            ValueRef::Date(d) => self.date(d),
            ValueRef::Str(s) => {
                let code = self.others.dict.code_of_arc(s);
                self.code(code)
            }
        }
    }

    /// Pushes every value of `row`.
    pub fn push_row(&mut self, row: RowRef<'_>) -> &mut Self {
        for col in 0..row.segment.schema.len() {
            self.push(row.get(col));
        }
        self
    }

    /// The finished segment.
    ///
    /// # Panics
    /// Panics unless every row was written in full.
    pub fn finish(self) -> Segment {
        let written = if self.schema.is_empty() {
            self.rows
        } else {
            self.pos
        };
        assert!(
            written == self.rows && self.next_col == 0,
            "segment of {} rows ends after {} rows and {} columns",
            self.rows,
            self.pos,
            self.next_col
        );
        let others =
            (self.schema.columns_of(DataType::Int) < self.schema.len()).then_some(self.others);
        Segment::assemble(self.schema, self.rows, self.ints, others, self.nulls)
    }
}

fn encode_value(buf: &mut BytesMut, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => buf.put_u8(0),
        ValueRef::Bool(b) => {
            buf.put_u8(1);
            buf.put_u8(b as u8);
        }
        ValueRef::Int(i) => {
            buf.put_u8(2);
            buf.put_i64(i);
        }
        ValueRef::Float(f) => {
            buf.put_u8(3);
            buf.put_f64(f);
        }
        ValueRef::Str(s) => {
            buf.put_u8(4);
            buf.put_u32(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        ValueRef::Date(d) => {
            buf.put_u8(5);
            buf.put_i32(d);
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
        let back = Segment::decode(seg.schema(), seg.encode()).unwrap();
        assert_eq!(seg, back);
    }

    #[test]
    fn empty_segment_roundtrips() {
        let seg = Segment::new(sample_schema(), vec![]).unwrap();
        let back = Segment::decode(seg.schema(), seg.encode()).unwrap();
        assert_eq!(back.len(), 0);
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

    #[test]
    fn columns_are_typed_with_nulls_in_a_bitmap() {
        let seg = sample_segment();
        assert_eq!(seg.len(), 3);
        assert!(matches!(seg.column(0).values(), ColumnValues::Int(v) if v == [1, 2, 0]));
        assert!(matches!(seg.column(1).values(), ColumnValues::Str(v) if v == [0, 1, 0]));
        assert_eq!(&*seg.dictionary()[1], "SHIP");
        assert!(seg.column(3).has_nulls());
        assert!(!seg.column(3).is_null(1) && seg.column(3).is_null(2));
        assert_eq!(seg.value(1, 2), ValueRef::Float(-3.25));
        assert!(seg.value(2, 1).is_null());
        assert_eq!(seg.row(1).to_row().get(1), &Value::str("SHIP"));
    }

    #[test]
    fn strings_share_one_dictionary_entry() {
        let schema = Schema::of(&[("a", DataType::Str), ("b", DataType::Str)]);
        let seg = Segment::new(schema, vec![row!["x", "y"], row!["y", "x"]]).unwrap();
        assert_eq!(seg.dictionary().len(), 2);
        assert!(!seg.column(0).has_nulls());
        // A string value handed out clones the entry's `Arc`.
        let (Value::Str(a), Value::Str(b)) =
            (seg.value(0, 0).to_value(), seg.value(1, 1).to_value())
        else {
            panic!("strings expected");
        };
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn small_integer_columns_live_inline() {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        let rows = |n: i64| (0..n).map(|i| row![i, 10 * i]).collect::<Vec<_>>();
        let tiny = Segment::new_unchecked(schema.clone(), rows(4));
        assert!(matches!(tiny.ints, Ints::Inline { len: 8, .. }));
        assert!(tiny.rest.is_none());
        let big = Segment::new_unchecked(schema.clone(), rows(5));
        assert!(matches!(&big.ints, Ints::Heap(v) if v.len() == 10 && v.capacity() == 10));
        for (seg, n) in [(&tiny, 4), (&big, 5)] {
            assert!(matches!(seg.column(1).values(), ColumnValues::Int(v) if v.len() == n));
            assert_eq!(seg.value(n - 1, 1), ValueRef::Int(10 * (n as i64 - 1)));
        }
        // The row-by-row builder lands in the same places.
        let mut built = SegmentBuilder::new(schema, 4);
        for i in 0..4 {
            built.int(i).int(10 * i);
        }
        assert_eq!(built.finish(), tiny);
    }

    #[test]
    #[should_panic(expected = "does not fit column")]
    fn unchecked_rows_of_the_wrong_type_panic() {
        let s = Schema::of(&[("k", DataType::Int)]);
        let _ = Segment::new_unchecked(s, vec![row!["oops"]]);
    }

    #[test]
    fn unchecked_rows_of_the_wrong_arity_panic() {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
        for odd in [row![1i64, 2i64, 3i64], row![1i64]] {
            let schema = schema.clone();
            let panic = std::panic::catch_unwind(|| {
                Segment::new_unchecked(schema, vec![row![0i64, 0i64], odd])
            })
            .expect_err("a row of the wrong arity was accepted");
            let msg = panic.downcast_ref::<String>().map_or("", String::as_str);
            assert!(
                msg.contains("row 1 of") && msg.contains("does not fit"),
                "{msg}"
            );
        }
    }
}
