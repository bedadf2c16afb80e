//! Records and their fixed-width serialization.
//!
//! A [`Record`] is one tuple of a versioned relation: a primary key plus the
//! data columns declared by the relation's [`Schema`].
//! Every storage engine in Decibel copies complete records on update
//! (no-overwrite storage, §5.5) and the version-first scheme needs delete
//! *tombstones* — "a special record with a deleted header bit to indicate the
//! key of the record that was deleted" (§3.3) — so the serialized form
//! carries a one-byte header whose bit 0 marks tombstones.

use crate::error::{DbError, Result};
use crate::projection::Projection;
use crate::schema::{ColumnType, Schema, KEY_BYTES, RECORD_HEADER_BYTES};

/// Header flag bit marking a delete tombstone.
const FLAG_TOMBSTONE: u8 = 0b0000_0001;

/// One tuple: an immutable primary key plus fixed-width integer fields.
///
/// Field values are held as `u64` regardless of the schema's column width;
/// serialization narrows them to the declared [`ColumnType`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Record {
    key: u64,
    fields: Vec<u64>,
    tombstone: bool,
}

impl Record {
    /// Creates a live record with the given key and field values.
    pub fn new(key: u64, fields: Vec<u64>) -> Self {
        Record {
            key,
            fields,
            tombstone: false,
        }
    }

    /// Creates a delete tombstone for `key` under `schema` (tombstones carry
    /// zeroed fields so records stay fixed-width, as in the paper's
    /// version-first segment files).
    pub fn tombstone(key: u64, schema: &Schema) -> Self {
        Record {
            key,
            fields: vec![0; schema.num_columns()],
            tombstone: true,
        }
    }

    /// The immutable primary key that tracks this record across versions.
    #[inline]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The data fields (empty semantics for tombstones).
    #[inline]
    pub fn fields(&self) -> &[u64] {
        &self.fields
    }

    /// Returns the value of data column `i`.
    #[inline]
    pub fn field(&self, i: usize) -> u64 {
        self.fields[i]
    }

    /// Mutably updates data column `i` (used by workload generators; engines
    /// never mutate stored records in place).
    pub fn set_field(&mut self, i: usize, v: u64) {
        self.fields[i] = v;
    }

    /// Mutable access to the data fields (projection support).
    #[inline]
    pub(crate) fn fields_mut(&mut self) -> &mut [u64] {
        &mut self.fields
    }

    /// Whether this record is a delete tombstone.
    #[inline]
    pub fn is_tombstone(&self) -> bool {
        self.tombstone
    }

    /// Serializes into `buf` (which must be exactly `schema.record_size()`
    /// bytes). Values wider than the column type are truncated, mirroring a
    /// fixed-width relational layout.
    pub fn write_to(&self, schema: &Schema, buf: &mut [u8]) -> Result<()> {
        schema.check_arity(self.fields.len())?;
        debug_assert_eq!(buf.len(), schema.record_size());
        buf[0] = if self.tombstone { FLAG_TOMBSTONE } else { 0 };
        buf[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + KEY_BYTES]
            .copy_from_slice(&self.key.to_le_bytes());
        let mut off = RECORD_HEADER_BYTES + KEY_BYTES;
        match schema.column_type() {
            ColumnType::U32 => {
                for &v in &self.fields {
                    buf[off..off + 4].copy_from_slice(&(v as u32).to_le_bytes());
                    off += 4;
                }
            }
            ColumnType::U64 => {
                for &v in &self.fields {
                    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
                    off += 8;
                }
            }
        }
        Ok(())
    }

    /// Serializes into a fresh buffer of `schema.record_size()` bytes.
    pub fn to_bytes(&self, schema: &Schema) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; schema.record_size()];
        self.write_to(schema, &mut buf)?;
        Ok(buf)
    }

    /// Deserializes a record from a fixed-width slot.
    pub fn read_from(schema: &Schema, buf: &[u8]) -> Result<Record> {
        if buf.len() != schema.record_size() {
            return Err(DbError::corrupt(format!(
                "record slot is {} bytes, schema says {}",
                buf.len(),
                schema.record_size()
            )));
        }
        let tombstone = buf[0] & FLAG_TOMBSTONE != 0;
        let key = u64::from_le_bytes(
            buf[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + KEY_BYTES]
                .try_into()
                .unwrap(),
        );
        let mut fields = Vec::with_capacity(schema.num_columns());
        let body = &buf[RECORD_HEADER_BYTES + KEY_BYTES..];
        // `chunks_exact` lets the compiler hoist the bounds checks out of
        // the per-field loop — this decode is the inner loop of every scan.
        match schema.column_type() {
            ColumnType::U32 => {
                fields.extend(
                    body.chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().unwrap()) as u64),
                );
            }
            ColumnType::U64 => {
                fields.extend(
                    body.chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
                );
            }
        }
        debug_assert_eq!(fields.len(), schema.num_columns());
        Ok(Record {
            key,
            fields,
            tombstone,
        })
    }

    /// Deserializes only the projected columns from a full-width slot;
    /// non-projected fields read as `0`. Equivalent to
    /// [`Record::read_from`] + [`Record::project`] without decoding the
    /// skipped columns — the inner loop of a projected scan.
    pub fn read_projected(schema: &Schema, buf: &[u8], projection: &Projection) -> Result<Record> {
        let Projection::Columns(cols) = projection else {
            return Record::read_from(schema, buf);
        };
        if buf.len() != schema.record_size() {
            return Err(DbError::corrupt(format!(
                "record slot is {} bytes, schema says {}",
                buf.len(),
                schema.record_size()
            )));
        }
        let (key, tombstone) = Record::peek_key(buf);
        let mut fields = vec![0u64; schema.num_columns()];
        for &c in cols {
            fields[c] = Record::read_raw_field(schema, buf, c);
        }
        Ok(Record {
            key,
            fields,
            tombstone,
        })
    }

    /// Reads data column `col` straight from a full-width slot without
    /// decoding anything else. The caller guarantees `col` is in range and
    /// `buf` is a whole slot ([`Schema::record_size`] bytes).
    #[inline]
    pub fn read_raw_field(schema: &Schema, buf: &[u8], col: usize) -> u64 {
        let off = schema.col_offset(col);
        match schema.column_type() {
            ColumnType::U32 => u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as u64,
            ColumnType::U64 => u64::from_le_bytes(buf[off..off + 8].try_into().unwrap()),
        }
    }

    /// Serializes the projected image — header + key + projected column
    /// bytes in ascending column order ([`Projection::image_size`] bytes)
    /// — appending to `out`. This is what scan batches ship on the wire:
    /// a 2-of-12-column query moves 2 columns, not 12.
    pub fn write_projected_image(
        &self,
        schema: &Schema,
        projection: &Projection,
        out: &mut Vec<u8>,
    ) -> Result<()> {
        let Projection::Columns(cols) = projection else {
            let start = out.len();
            out.resize(start + schema.record_size(), 0);
            return self.write_to(schema, &mut out[start..]);
        };
        schema.check_arity(self.fields.len())?;
        out.push(if self.tombstone { FLAG_TOMBSTONE } else { 0 });
        out.extend_from_slice(&self.key.to_le_bytes());
        for &c in cols {
            let v = self.fields[c];
            match schema.column_type() {
                ColumnType::U32 => out.extend_from_slice(&(v as u32).to_le_bytes()),
                ColumnType::U64 => out.extend_from_slice(&v.to_le_bytes()),
            }
        }
        Ok(())
    }

    /// Appends to `out` the projected image of a serialized full-width
    /// `slot` — byte for byte what [`Record::read_projected`] followed by
    /// [`Record::write_projected_image`] produces, with no `Record` in
    /// between. For [`Projection::All`] the image *is* the slot. The
    /// caller guarantees `slot` is a whole slot and the projection's
    /// columns are in range (see [`Projection::validate`]).
    #[inline]
    pub fn copy_projected_image(
        schema: &Schema,
        slot: &[u8],
        projection: &Projection,
        out: &mut Vec<u8>,
    ) {
        let Projection::Columns(cols) = projection else {
            out.extend_from_slice(slot);
            return;
        };
        out.extend_from_slice(&slot[..RECORD_HEADER_BYTES + KEY_BYTES]);
        let width = schema.column_type().width();
        for &c in cols {
            let off = schema.col_offset(c);
            out.extend_from_slice(&slot[off..off + width]);
        }
    }

    /// Deserializes a projected image written by
    /// [`Record::write_projected_image`]; non-projected fields read as
    /// `0`. `buf` must be exactly [`Projection::image_size`] bytes.
    pub fn read_projected_image(
        schema: &Schema,
        buf: &[u8],
        projection: &Projection,
    ) -> Result<Record> {
        let Projection::Columns(cols) = projection else {
            return Record::read_from(schema, buf);
        };
        if buf.len() != projection.image_size(schema) {
            return Err(DbError::corrupt(format!(
                "projected record image is {} bytes, projection says {}",
                buf.len(),
                projection.image_size(schema)
            )));
        }
        let (key, tombstone) = Record::peek_key(buf);
        let mut fields = vec![0u64; schema.num_columns()];
        let mut off = RECORD_HEADER_BYTES + KEY_BYTES;
        let width = schema.column_type().width();
        for &c in cols {
            fields[c] = match schema.column_type() {
                ColumnType::U32 => u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as u64,
                ColumnType::U64 => u64::from_le_bytes(buf[off..off + 8].try_into().unwrap()),
            };
            off += width;
        }
        Ok(Record {
            key,
            fields,
            tombstone,
        })
    }

    /// Reads only the header and key of a serialized record — used by scans
    /// that filter before paying full deserialization.
    pub fn peek_key(buf: &[u8]) -> (u64, bool) {
        let tombstone = buf[0] & FLAG_TOMBSTONE != 0;
        let key = u64::from_le_bytes(
            buf[RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + KEY_BYTES]
                .try_into()
                .unwrap(),
        );
        (key, tombstone)
    }

    /// Returns the indexes of data columns whose values differ between
    /// `self` and `other`. Used by three-way merges to find field-level
    /// conflicts (§2.2.3: "two records ... conflict if they (a) have the same
    /// primary key and (b) different field values").
    pub fn changed_fields(&self, other: &Record) -> Vec<usize> {
        debug_assert_eq!(self.fields.len(), other.fields.len());
        (0..self.fields.len())
            .filter(|&i| self.fields[i] != other.fields[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};

    fn schema3() -> Schema {
        Schema::new(3, ColumnType::U32)
    }

    #[test]
    fn roundtrip_u32() {
        let s = schema3();
        let r = Record::new(42, vec![1, 2, 3]);
        let bytes = r.to_bytes(&s).unwrap();
        assert_eq!(bytes.len(), s.record_size());
        let back = Record::read_from(&s, &bytes).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn roundtrip_u64() {
        let s = Schema::new(2, ColumnType::U64);
        let r = Record::new(u64::MAX, vec![u64::MAX, 7]);
        let back = Record::read_from(&s, &r.to_bytes(&s).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn u32_columns_truncate_wide_values() {
        let s = schema3();
        let r = Record::new(1, vec![u64::MAX, 0, 0]);
        let back = Record::read_from(&s, &r.to_bytes(&s).unwrap()).unwrap();
        assert_eq!(back.field(0), u32::MAX as u64);
    }

    #[test]
    fn tombstone_roundtrip() {
        let s = schema3();
        let t = Record::tombstone(9, &s);
        assert!(t.is_tombstone());
        let back = Record::read_from(&s, &t.to_bytes(&s).unwrap()).unwrap();
        assert!(back.is_tombstone());
        assert_eq!(back.key(), 9);
    }

    #[test]
    fn peek_key_reads_header_only() {
        let s = schema3();
        let bytes = Record::new(77, vec![0, 0, 0]).to_bytes(&s).unwrap();
        assert_eq!(Record::peek_key(&bytes), (77, false));
        let t = Record::tombstone(78, &s).to_bytes(&s).unwrap();
        assert_eq!(Record::peek_key(&t), (78, true));
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let s = schema3();
        let r = Record::new(1, vec![1, 2]);
        assert!(r.to_bytes(&s).is_err());
    }

    #[test]
    fn wrong_slot_size_is_corrupt() {
        let s = schema3();
        let err = Record::read_from(&s, &[0u8; 4]).unwrap_err();
        assert!(matches!(err, crate::error::DbError::Corrupt { .. }));
    }

    #[test]
    fn projected_decode_matches_decode_then_project() {
        for ct in [ColumnType::U32, ColumnType::U64] {
            let s = Schema::new(4, ct);
            let r = Record::new(9, vec![11, 22, 33, 44]);
            let slot = r.to_bytes(&s).unwrap();
            for proj in [
                Projection::all(),
                Projection::of(&[]),
                Projection::of(&[0]),
                Projection::of(&[1, 3]),
                Projection::of(&[0, 1, 2, 3]),
            ] {
                let fast = Record::read_projected(&s, &slot, &proj).unwrap();
                let mut reference = Record::read_from(&s, &slot).unwrap();
                reference.project(&proj);
                assert_eq!(fast, reference, "{proj:?}");
            }
            assert_eq!(Record::read_raw_field(&s, &slot, 2), 33);
        }
    }

    #[test]
    fn projected_image_round_trips() {
        let s = Schema::new(4, ColumnType::U32);
        let r = Record::new(77, vec![1, 2, 3, 4]);
        let proj = Projection::of(&[1, 3]);
        let mut img = Vec::new();
        r.write_projected_image(&s, &proj, &mut img).unwrap();
        assert_eq!(img.len(), proj.image_size(&s));
        let back = Record::read_projected_image(&s, &img, &proj).unwrap();
        assert_eq!(back.key(), 77);
        assert_eq!(back.fields(), &[0, 2, 0, 4]);
        // The All projection is byte-identical to the full image.
        let mut full = Vec::new();
        r.write_projected_image(&s, &Projection::All, &mut full)
            .unwrap();
        assert_eq!(full, r.to_bytes(&s).unwrap());
        // Tombstone flag survives the projected form.
        let t = Record::tombstone(5, &s);
        let mut img = Vec::new();
        t.write_projected_image(&s, &proj, &mut img).unwrap();
        assert!(Record::read_projected_image(&s, &img, &proj)
            .unwrap()
            .is_tombstone());
        // Copying the image off a slot equals decode-then-encode.
        for (rec, p) in [(&r, &proj), (&r, &Projection::All), (&t, &proj)] {
            let slot = rec.to_bytes(&s).unwrap();
            let (mut copied, mut encoded) = (Vec::new(), Vec::new());
            Record::copy_projected_image(&s, &slot, p, &mut copied);
            Record::read_projected(&s, &slot, p)
                .unwrap()
                .write_projected_image(&s, p, &mut encoded)
                .unwrap();
            assert_eq!(copied, encoded, "{p:?}");
        }
        // A truncated image is corrupt, not a short record.
        assert!(Record::read_projected_image(&s, &img[..img.len() - 1], &proj).is_err());
    }

    #[test]
    fn changed_fields_reports_diffs() {
        let a = Record::new(1, vec![1, 2, 3]);
        let mut b = a.clone();
        b.set_field(1, 99);
        assert_eq!(a.changed_fields(&b), vec![1]);
        assert!(a.changed_fields(&a.clone()).is_empty());
    }
}
