//! Typed per-point metadata records.
//!
//! Each point in a collection carries one [`MetaRecord`]: an ordered map
//! of field name → [`Value`]. A record's `Persist` bytes are a
//! deterministic line-oriented text encoding — field names and atoms are
//! restricted charsets, so no escaping is needed. A namespace stores all
//! of its records in one object, `meta` (see `collection.rs` for the
//! layout): each record's bytes in id order, prefixed by their `u32` LE
//! length ([`pack`] / [`unpack`]).

use crate::predicate::{valid_atom, valid_field, Value};
use metall::{Persist, StoreError};
use std::collections::BTreeMap;
use std::fmt;

/// An ordered field → value map attached to one point.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetaRecord {
    fields: BTreeMap<String, Value>,
}

impl MetaRecord {
    /// An empty record (matches no predicate term).
    pub fn new() -> MetaRecord {
        MetaRecord::default()
    }

    /// Set a field, validating the name (and atom charset for strings).
    /// Returns the previous value, if any.
    pub fn set(&mut self, field: impl Into<String>, value: Value) -> Result<Option<Value>, String> {
        let field = field.into();
        if !valid_field(&field) {
            return Err(format!("invalid field name {field:?}"));
        }
        if let Value::Str(s) = &value {
            if !valid_atom(s) {
                return Err(format!("invalid atom {s:?}"));
            }
        }
        Ok(self.fields.insert(field, value))
    }

    /// Look up a field.
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.fields.get(field)
    }

    /// Iterate fields in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The synthetic record stamped on generated and online-inserted
    /// points: a single `bucket` Int field in `[0, 100)`, a pure FNV-1a
    /// function of `(seed, id)`. Filtered serving traffic draws range
    /// predicates over this field, so selectivity is controllable without
    /// any external metadata source.
    pub fn bucket_record(seed: u64, id: u64) -> MetaRecord {
        let mut bytes = [0u8; 16];
        bytes[..8].copy_from_slice(&seed.to_le_bytes());
        bytes[8..].copy_from_slice(&id.to_le_bytes());
        let bucket = (metall::checksum::fnv1a(&bytes) % 100) as i64;
        let mut rec = MetaRecord::new();
        rec.set("bucket", Value::Int(bucket))
            .expect("'bucket' is a valid field name");
        rec
    }

    /// Parse the `field=value` comma-list form the CLI accepts
    /// (e.g. `tier=gold,year=2023`). Empty input gives an empty record.
    pub fn parse_kv(text: &str) -> Result<MetaRecord, String> {
        let mut rec = MetaRecord::new();
        for pair in text.split(',').filter(|p| !p.trim().is_empty()) {
            let (k, v) = pair
                .split_once('=')
                .ok_or_else(|| format!("metadata pair {pair:?}: want field=value"))?;
            let (k, v) = (k.trim(), v.trim());
            let value = if v.starts_with('-') || v.starts_with(|c: char| c.is_ascii_digit()) {
                Value::Int(
                    v.parse::<i64>()
                        .map_err(|_| format!("invalid integer value {v:?}"))?,
                )
            } else {
                Value::atom(v)?
            };
            rec.set(k, value)?;
        }
        Ok(rec)
    }
}

impl fmt::Display for MetaRecord {
    /// Canonical `field=value` comma-list, in field-name order.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{k}={v}")?;
        }
        Ok(())
    }
}

impl Persist for MetaRecord {
    /// One line per field: `name i <int>` or `name s <atom>`.
    fn persist_to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        for (k, v) in &self.fields {
            match v {
                Value::Int(i) => out.push_str(&format!("{k} i {i}\n")),
                Value::Str(s) => out.push_str(&format!("{k} s {s}\n")),
            }
        }
        out.into_bytes()
    }

    fn persist_from_bytes(bytes: &[u8]) -> metall::Result<Self> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| StoreError::Decode(format!("meta record not utf-8: {e}")))?;
        let mut rec = MetaRecord::new();
        for line in text.lines() {
            let mut parts = line.splitn(3, ' ');
            let bad = || StoreError::Decode(format!("bad meta record line {line:?}"));
            let field = parts.next().ok_or_else(bad)?;
            let tag = parts.next().ok_or_else(bad)?;
            let raw = parts.next().ok_or_else(bad)?;
            let value = match tag {
                "i" => Value::Int(raw.parse::<i64>().map_err(|_| bad())?),
                "s" => Value::atom(raw).map_err(|_| bad())?,
                _ => return Err(bad()),
            };
            rec.set(field, value).map_err(|_| bad())?;
        }
        Ok(rec)
    }
}

/// Every record's `Persist` bytes in order, each prefixed by its `u32` LE
/// length: the namespace's one `meta` object.
pub(crate) fn pack(records: &[MetaRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for rec in records {
        let bytes = rec.persist_to_bytes();
        let len = u32::try_from(bytes.len()).expect("a metadata record under 4 GiB");
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Parse a [`pack`]ed blob that must hold exactly `count` records. A
/// truncated length, a truncated or undecodable record, or a count other
/// than `count` is `Err`.
pub(crate) fn unpack(blob: &[u8], count: usize) -> Result<Vec<MetaRecord>, String> {
    let mut records = Vec::with_capacity(count);
    let mut rest = blob;
    while !rest.is_empty() {
        let id = records.len();
        let (len, tail) = rest
            .split_first_chunk::<4>()
            .ok_or_else(|| format!("meta: record {id}'s length is cut short"))?;
        let len = u32::from_le_bytes(*len) as usize;
        if tail.len() < len {
            return Err(format!(
                "meta: record {id} wants {len} bytes, {} remain",
                tail.len()
            ));
        }
        let (bytes, tail) = tail.split_at(len);
        records.push(MetaRecord::persist_from_bytes(bytes).map_err(|e| format!("meta: {e}"))?);
        rest = tail;
    }
    if records.len() != count {
        return Err(format!(
            "meta: holds {} records, the namespace has {count} points",
            records.len()
        ));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persist_round_trip() {
        let mut r = MetaRecord::new();
        r.set("tier", Value::Str("gold".into())).unwrap();
        r.set("year", Value::Int(-5)).unwrap();
        let bytes = r.persist_to_bytes();
        assert_eq!(MetaRecord::persist_from_bytes(&bytes).unwrap(), r);
        assert_eq!(
            MetaRecord::persist_from_bytes(&MetaRecord::new().persist_to_bytes()).unwrap(),
            MetaRecord::new()
        );
    }

    #[test]
    fn parse_kv_and_display() {
        let r = MetaRecord::parse_kv("tier=gold, year=2023").unwrap();
        assert_eq!(r.to_string(), "tier=gold,year=2023");
        assert_eq!(r.get("year"), Some(&Value::Int(2023)));
        assert_eq!(MetaRecord::parse_kv("").unwrap(), MetaRecord::new());
        assert!(MetaRecord::parse_kv("tier").is_err());
        assert!(MetaRecord::parse_kv("tier=9a").is_err());
        assert!(MetaRecord::parse_kv("9x=1").is_err());
    }

    #[test]
    fn bucket_record_is_deterministic_and_in_range() {
        for id in 0..200u64 {
            let r = MetaRecord::bucket_record(7, id);
            assert_eq!(r, MetaRecord::bucket_record(7, id));
            match r.get("bucket") {
                Some(&Value::Int(b)) => assert!((0..100).contains(&b)),
                other => panic!("bad bucket field: {other:?}"),
            }
        }
        // Seed-sensitive: at least one id maps to a different bucket.
        assert!((0..200u64)
            .any(|id| { MetaRecord::bucket_record(7, id) != MetaRecord::bucket_record(8, id) }));
    }

    #[test]
    fn set_rejects_bad_names_and_atoms() {
        let mut r = MetaRecord::new();
        assert!(r.set("ok_name", Value::Int(1)).unwrap().is_none());
        assert!(r.set("ok_name", Value::Int(2)).unwrap().is_some());
        assert!(r.set("bad-name", Value::Int(1)).is_err());
        assert!(r.set("x", Value::Str("has space".into())).is_err());
    }
}
