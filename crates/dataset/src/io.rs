//! Readers/writers for the standard ANN benchmark binary formats.
//!
//! * `.fvecs` / `.bvecs` / `.ivecs` (ANN-Benchmarks, TEXMEX): each record is
//!   a little-endian `u32` dimension followed by `dim` elements.
//! * `.fbin` / `.u8bin` (Big ANN Benchmarks): a header of two `u32`s
//!   (`n`, `dim`) followed by `n * dim` elements, row-major.
//!
//! These make the harness runnable against the real DEEP/BigANN files when
//! they are available, while the synthetic presets stand in otherwise.
//!
//! A damaged file is an [`io::ErrorKind::InvalidData`] error naming the
//! field at fault, never a panic or an allocation failure: every `dim` must
//! be at least 1 and every size a header claims must fit in the bytes the
//! file holds, checked before anything is allocated, and the f32 readers
//! refuse a non-finite coordinate ([`check_finite`]). A writer refuses
//! what its reader would, before the file is created: a set of no points
//! or of zero-dimensional ones is an [`io::ErrorKind::InvalidInput`] error.

use crate::set::{check_finite, PointSet};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `path` created for `n` records of `dim` elements, unless the `kind`
/// reader would refuse that file: no record, or a `dim` of 0.
fn create(path: &Path, kind: &str, n: usize, dim: usize) -> io::Result<BufWriter<File>> {
    if n == 0 || dim == 0 {
        let msg = format!("{kind}: cannot write {n} points of dim {dim} (need at least 1 of each)");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
    }
    Ok(BufWriter::new(File::create(path)?))
}

/// `path` opened for reading, and the bytes it holds.
fn open(path: &Path) -> io::Result<(BufReader<File>, u64)> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    Ok((BufReader::new(file), len))
}

/// The bytes `rows` rows of `dim` `elem`-byte elements take, checked before
/// anything is allocated: `dim` is at least 1 and the claim fits in the
/// `left` bytes the file holds past the field it was read from.
fn claimed(rows: usize, dim: usize, elem: usize, left: u64) -> Result<usize, String> {
    if dim == 0 {
        return Err("dim is 0 (need at least 1)".into());
    }
    let bytes = rows as u128 * dim as u128 * elem as u128;
    match usize::try_from(bytes) {
        Ok(fits) if bytes <= u128::from(left) => Ok(fits),
        _ => Err(format!(
            "claims {rows} x {dim} x {elem} bytes, the file holds {left} more"
        )),
    }
}

/// `bytes` as little-endian 4-byte words.
fn words<T>(bytes: &[u8], from_le: fn([u8; 4]) -> T) -> Vec<T> {
    bytes
        .chunks_exact(4)
        .map(|c| from_le(c.try_into().expect("chunks_exact(4) yields 4 bytes")))
        .collect()
}

/// Every dense point has the first one's dimension.
fn same_dim<T>(kind: &str, points: &[Vec<T>]) -> io::Result<()> {
    match points.iter().position(|p| p.len() != points[0].len()) {
        Some(i) => Err(bad(format!(
            "{kind} record {i}: dim {} differs from record 0's {}",
            points[i].len(),
            points[0].len()
        ))),
        None => Ok(()),
    }
}

// ---- xvecs family ----------------------------------------------------------

/// The records of a `kind` (`fvecs`, `bvecs`, `ivecs`) file, each a `u32`
/// count and that many `elem`-byte elements, through `decode`.
fn read_records<T>(
    path: &Path,
    kind: &str,
    elem: usize,
    decode: impl Fn(&[u8]) -> T,
) -> io::Result<Vec<T>> {
    let (mut r, mut left) = open(path)?;
    let mut records = Vec::new();
    let mut buf = Vec::new();
    while left > 0 {
        let i = records.len();
        if left < 4 {
            return Err(bad(format!(
                "{kind} record {i}: {left} trailing bytes, no dim field"
            )));
        }
        let dim = read_u32(&mut r)? as usize;
        left -= 4;
        let bytes =
            claimed(1, dim, elem, left).map_err(|why| bad(format!("{kind} record {i}: {why}")))?;
        buf.resize(bytes, 0);
        r.read_exact(&mut buf)?;
        left -= bytes as u64;
        records.push(decode(&buf));
    }
    Ok(records)
}

/// Write a dense f32 set as `.fvecs`.
pub fn write_fvecs(path: impl AsRef<Path>, set: &PointSet<Vec<f32>>) -> io::Result<()> {
    let mut w = create(path.as_ref(), "fvecs", set.len(), set.dim())?;
    for (_, p) in set.iter() {
        w.write_all(&(p.len() as u32).to_le_bytes())?;
        for &x in p {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Read an `.fvecs` file.
pub fn read_fvecs(path: impl AsRef<Path>) -> io::Result<PointSet<Vec<f32>>> {
    let points = read_records(path.as_ref(), "fvecs", 4, |b| words(b, f32::from_le_bytes))?;
    same_dim("fvecs", &points)?;
    check_finite(&points).map_err(bad)?;
    Ok(PointSet::new(points))
}

/// Write a dense u8 set as `.bvecs`.
pub fn write_bvecs(path: impl AsRef<Path>, set: &PointSet<Vec<u8>>) -> io::Result<()> {
    let mut w = create(path.as_ref(), "bvecs", set.len(), set.dim())?;
    for (_, p) in set.iter() {
        w.write_all(&(p.len() as u32).to_le_bytes())?;
        w.write_all(p)?;
    }
    w.flush()
}

/// Read a `.bvecs` file.
pub fn read_bvecs(path: impl AsRef<Path>) -> io::Result<PointSet<Vec<u8>>> {
    let points = read_records(path.as_ref(), "bvecs", 1, <[u8]>::to_vec)?;
    same_dim("bvecs", &points)?;
    Ok(PointSet::new(points))
}

/// Write ground-truth id lists as `.ivecs` (one record per query).
pub fn write_ivecs(path: impl AsRef<Path>, rows: &[Vec<u32>]) -> io::Result<()> {
    let shortest = rows.iter().map(Vec::len).min().unwrap_or(0);
    let mut w = create(path.as_ref(), "ivecs", rows.len(), shortest)?;
    for row in rows {
        w.write_all(&(row.len() as u32).to_le_bytes())?;
        for &x in row {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Read an `.ivecs` file.
pub fn read_ivecs(path: impl AsRef<Path>) -> io::Result<Vec<Vec<u32>>> {
    read_records(path.as_ref(), "ivecs", 4, |b| words(b, u32::from_le_bytes))
}

// ---- big-ann bin family ----------------------------------------------------

/// The `n * dim` elements of a Big-ANN `kind` (`fbin`, `u8bin`) file after
/// its `(n, dim)` header, as raw bytes, and `dim`.
fn read_bin(path: &Path, kind: &str, elem: usize) -> io::Result<(Vec<u8>, usize)> {
    let (mut r, len) = open(path)?;
    if len < 8 {
        return Err(bad(format!("{kind} header: {len} bytes, need 8")));
    }
    let n = read_u32(&mut r)? as usize;
    let dim = read_u32(&mut r)? as usize;
    let bytes =
        claimed(n, dim, elem, len - 8).map_err(|why| bad(format!("{kind} header: {why}")))?;
    let mut buf = vec![0u8; bytes];
    r.read_exact(&mut buf)?;
    Ok((buf, dim))
}

/// Write a dense f32 set in Big-ANN `.fbin` layout.
pub fn write_fbin(path: impl AsRef<Path>, set: &PointSet<Vec<f32>>) -> io::Result<()> {
    let mut w = create(path.as_ref(), "fbin", set.len(), set.dim())?;
    w.write_all(&(set.len() as u32).to_le_bytes())?;
    w.write_all(&(set.dim() as u32).to_le_bytes())?;
    for (_, p) in set.iter() {
        for &x in p {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()
}

/// Read a Big-ANN `.fbin` file.
pub fn read_fbin(path: impl AsRef<Path>) -> io::Result<PointSet<Vec<f32>>> {
    let (buf, dim) = read_bin(path.as_ref(), "fbin", 4)?;
    let points: Vec<Vec<f32>> = buf
        .chunks_exact(dim * 4)
        .map(|row| words(row, f32::from_le_bytes))
        .collect();
    check_finite(&points).map_err(bad)?;
    Ok(PointSet::new(points))
}

/// Write a dense u8 set in Big-ANN `.u8bin` layout.
pub fn write_u8bin(path: impl AsRef<Path>, set: &PointSet<Vec<u8>>) -> io::Result<()> {
    let mut w = create(path.as_ref(), "u8bin", set.len(), set.dim())?;
    w.write_all(&(set.len() as u32).to_le_bytes())?;
    w.write_all(&(set.dim() as u32).to_le_bytes())?;
    for (_, p) in set.iter() {
        w.write_all(p)?;
    }
    w.flush()
}

/// Read a Big-ANN `.u8bin` file.
pub fn read_u8bin(path: impl AsRef<Path>) -> io::Result<PointSet<Vec<u8>>> {
    let (buf, dim) = read_bin(path.as_ref(), "u8bin", 1)?;
    let points = buf.chunks_exact(dim).map(<[u8]>::to_vec).collect();
    Ok(PointSet::new(points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::uniform;
    use std::path::PathBuf;

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dataset-io-{tag}-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn fvecs_round_trip() {
        let path = tmpfile("fvecs");
        let set = uniform(20, 7, 1);
        write_fvecs(&path, &set).unwrap();
        let back = read_fvecs(&path).unwrap();
        assert_eq!(back, set);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn bvecs_round_trip() {
        let path = tmpfile("bvecs");
        let set = PointSet::new(vec![vec![1u8, 2, 3], vec![4, 5, 6]]);
        write_bvecs(&path, &set).unwrap();
        let back = read_bvecs(&path).unwrap();
        assert_eq!(back, set);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn ivecs_round_trip() {
        let path = tmpfile("ivecs");
        let rows = vec![vec![1u32, 2, 3], vec![7, 8, 9]];
        write_ivecs(&path, &rows).unwrap();
        assert_eq!(read_ivecs(&path).unwrap(), rows);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn fbin_round_trip() {
        let path = tmpfile("fbin");
        let set = uniform(13, 5, 2);
        write_fbin(&path, &set).unwrap();
        let back = read_fbin(&path).unwrap();
        assert_eq!(back, set);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn u8bin_round_trip() {
        let path = tmpfile("u8bin");
        let set = PointSet::new(vec![vec![0u8, 128, 255], vec![9, 9, 9]]);
        write_u8bin(&path, &set).unwrap();
        let back = read_u8bin(&path).unwrap();
        assert_eq!(back, set);
        std::fs::remove_file(path).unwrap();
    }

    /// Writes `n` points of dim 1 through one writer and reads them back
    /// through its reader: whether they came back equal.
    type RoundTrip = fn(&Path, usize) -> io::Result<bool>;

    #[test]
    fn every_writer_refuses_an_empty_set_and_round_trips_one_point() {
        let pairs: [(&str, RoundTrip); 5] = [
            ("fvecs", |p, n| {
                let set = PointSet::new(vec![vec![0.5f32]; n]);
                write_fvecs(p, &set)?;
                Ok(read_fvecs(p)? == set)
            }),
            ("bvecs", |p, n| {
                let set = PointSet::new(vec![vec![7u8]; n]);
                write_bvecs(p, &set)?;
                Ok(read_bvecs(p)? == set)
            }),
            ("ivecs", |p, n| {
                let rows = vec![vec![9u32]; n];
                write_ivecs(p, &rows)?;
                Ok(read_ivecs(p)? == rows)
            }),
            ("fbin", |p, n| {
                let set = PointSet::new(vec![vec![-2.25f32]; n]);
                write_fbin(p, &set)?;
                Ok(read_fbin(p)? == set)
            }),
            ("u8bin", |p, n| {
                let set = PointSet::new(vec![vec![255u8]; n]);
                write_u8bin(p, &set)?;
                Ok(read_u8bin(p)? == set)
            }),
        ];
        for (kind, round_trip) in pairs {
            let path = tmpfile(&format!("one-{kind}"));
            let _ = std::fs::remove_file(&path);
            let err = round_trip(&path, 0).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{kind}: {err}");
            let want = format!("{kind}: cannot write 0 points of dim 0 (need at least 1 of each)");
            assert_eq!(err.to_string(), want);
            assert!(!path.exists(), "{kind}: the refused write left a file");
            assert!(round_trip(&path, 1).unwrap(), "{kind}: one point of dim 1");
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn empty_fvecs_reads_empty_set() {
        let path = tmpfile("empty");
        std::fs::write(&path, []).unwrap();
        let set = read_fvecs(&path).unwrap();
        assert!(set.is_empty());
        std::fs::remove_file(path).unwrap();
    }

    /// A reader with its result dropped, so one table holds every format.
    type Reader = fn(PathBuf) -> io::Result<()>;
    const FVECS: Reader = |p| read_fvecs(p).map(drop);
    const BVECS: Reader = |p| read_bvecs(p).map(drop);
    const IVECS: Reader = |p| read_ivecs(p).map(drop);
    const FBIN: Reader = |p| read_fbin(p).map(drop);
    const U8BIN: Reader = |p| read_u8bin(p).map(drop);

    /// The little-endian bytes of `words`.
    fn le(words: &[u32]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Each file of `cases` is refused by its reader with `InvalidData` and
    /// the message given.
    fn refused(cases: &[(Vec<u8>, Reader, String)]) {
        let path = tmpfile("damaged");
        for (bytes, read, want) in cases {
            std::fs::write(&path, bytes).unwrap();
            let err = read(path.clone()).expect_err(want);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
            assert_eq!(&err.to_string(), want);
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn a_zero_dim_is_refused_by_every_reader() {
        let zero = |field: &str| format!("{field}: dim is 0 (need at least 1)");
        // A first record of dim 3, then one of dim 0.
        let xvecs = le(&[3, 1, 2, 3, 0]);
        refused(&[
            (le(&[3, 0]), FBIN, zero("fbin header")),
            (le(&[3, 0]), U8BIN, zero("u8bin header")),
            (xvecs.clone(), FVECS, zero("fvecs record 1")),
            (xvecs, IVECS, zero("ivecs record 1")),
            (le(&[0]), BVECS, zero("bvecs record 0")),
        ]);
    }

    #[test]
    fn a_size_larger_than_the_file_is_refused_before_allocating() {
        let claim = |field: &str, rows: u64, dim: u64, elem: u64, left: u64| {
            format!("{field}: claims {rows} x {dim} x {elem} bytes, the file holds {left} more")
        };
        // 4e9 points of dim 1 000: 16 TB claimed by an 8-byte file. A
        // truncated record or body is the same claim, a few bytes short:
        // dim = 4 with 2 elements present, and 2 x 3 elements with 5.
        let bin = le(&[4_000_000_000, 1_000]);
        let (xvecs, max) = (le(&[u32::MAX, 7]), u64::from(u32::MAX));
        let short_bin = le(&[2, 3, 0, 0, 0, 0, 0]);
        // A whole record, then 2 bytes of the next one's dim.
        let ragged = [le(&[1, 5]), vec![0, 0]].concat();
        #[rustfmt::skip]
        let cases = [
            (bin.clone(), FBIN, claim("fbin header", 4_000_000_000, 1_000, 4, 0)),
            (bin, U8BIN, claim("u8bin header", 4_000_000_000, 1_000, 1, 0)),
            (xvecs.clone(), FVECS, claim("fvecs record 0", 1, max, 4, 4)),
            (xvecs.clone(), BVECS, claim("bvecs record 0", 1, max, 1, 4)),
            (xvecs, IVECS, claim("ivecs record 0", 1, max, 4, 4)),
            (le(&[4, 1, 2]), FVECS, claim("fvecs record 0", 1, 4, 4, 8)),
            (le(&[4, 1, 2]), IVECS, claim("ivecs record 0", 1, 4, 4, 8)),
            (vec![4, 0, 0, 0, 1, 2], BVECS, claim("bvecs record 0", 1, 4, 1, 2)),
            (short_bin.clone(), FBIN, claim("fbin header", 2, 3, 4, 20)),
            (short_bin[..13].to_vec(), U8BIN, claim("u8bin header", 2, 3, 1, 5)),
            (short_bin[..5].to_vec(), FBIN, "fbin header: 5 bytes, need 8".into()),
            (ragged, IVECS, "ivecs record 1: 2 trailing bytes, no dim field".into()),
        ];
        refused(&cases);
    }

    #[test]
    fn non_finite_coordinates_are_refused_by_the_f32_readers() {
        let path = tmpfile("nonfinite");
        for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let set = PointSet::new(vec![vec![0.5, 1.0], vec![2.0, x]]);
            let want = format!("point 1 coordinate 1 is not finite ({x})");
            write_fvecs(&path, &set).unwrap();
            let fvecs = std::fs::read(&path).unwrap();
            write_fbin(&path, &set).unwrap();
            let fbin = std::fs::read(&path).unwrap();
            refused(&[(fvecs, FVECS, want.clone()), (fbin, FBIN, want)]);
        }
        std::fs::remove_file(path).unwrap();
    }
}
