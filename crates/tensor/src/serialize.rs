//! Binary (de)serialization of parameter stores.
//!
//! The paper ships fine-tuned checkpoints in its toolbox; we mirror that with
//! a small self-describing binary format (magic, version, then
//! `name / shape / f32-LE payload` records), written by [`save_filtered`]
//! in one pass into the caller's `Vec<u8>`.
//!
//! Decoding has one parser, [`Records::parse`], which checks every length
//! against the bytes that are actually there (a record declaring more
//! floats than fit in `usize` is as truncated as one declaring more than
//! the buffer holds), and one reader: the parsed [`Records`] are the
//! [`Init`] a model constructor builds every parameter from, and
//! [`Records::finish`] rejects a construction that left any parameter
//! without its record or any record without its parameter. No loader
//! writes into a store that already exists.

use crate::params::{Fill, Init, ParamStore};
use crate::Tensor;
use std::collections::HashMap;

const MAGIC: &[u8; 8] = b"DODUOWT1";

/// Errors produced when decoding a checkpoint.
#[derive(Debug, PartialEq, Eq)]
pub enum LoadError {
    /// Missing or wrong magic header.
    BadMagic,
    /// Buffer ended before the declared payload.
    Truncated,
    /// A parameter name was not valid UTF-8.
    BadName,
    /// The checkpoint holds a record no parameter asked for.
    UnknownParam(String),
    /// The model has a parameter the checkpoint has no record of.
    MissingParam(String),
    /// The checkpoint holds two records under one name.
    DuplicateParam(String),
    /// Shape in the checkpoint does not match the target parameter.
    ShapeMismatch {
        /// The offending parameter.
        name: String,
        /// Shape the target store declares.
        expected: (usize, usize),
        /// Shape found in the checkpoint.
        found: (usize, usize),
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::BadMagic => write!(f, "not a DODUO checkpoint (bad magic)"),
            LoadError::Truncated => write!(f, "checkpoint truncated"),
            LoadError::BadName => write!(f, "parameter name is not valid UTF-8"),
            LoadError::UnknownParam(n) => write!(f, "checkpoint record {n} matches no parameter"),
            LoadError::MissingParam(n) => write!(f, "checkpoint has no record of parameter {n}"),
            LoadError::DuplicateParam(n) => write!(f, "checkpoint holds parameter {n} twice"),
            LoadError::ShapeMismatch { name, expected, found } => write!(
                f,
                "shape mismatch for {name}: store has {expected:?}, checkpoint has {found:?}"
            ),
        }
    }
}

impl std::error::Error for LoadError {}

/// Serializes every parameter (name, shape, row-major f32 LE payload).
pub fn save(store: &ParamStore) -> Vec<u8> {
    let mut out = Vec::new();
    save_filtered(&mut out, store, |_| true);
    out
}

/// Appends the records of the parameters whose name satisfies `keep` to
/// `out` — e.g. `|n| n.starts_with("enc.")` to ship a pretrained encoder
/// without its MLM head (the pretrain → fine-tune handoff). Bytes already
/// in `out` are left as they are.
pub fn save_filtered(out: &mut Vec<u8>, store: &ParamStore, keep: impl Fn(&str) -> bool) {
    let kept: Vec<_> = store.iter().filter(|(_, p)| keep(&p.name)).map(|(_, p)| p).collect();
    let len: usize = kept.iter().map(|p| 12 + p.name.len() + 4 * p.value.data().len()).sum();
    out.reserve(MAGIC.len() + 4 + len);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(kept.len() as u32).to_le_bytes());
    for p in kept {
        out.extend_from_slice(&(p.name.len() as u32).to_le_bytes());
        out.extend_from_slice(p.name.as_bytes());
        out.extend_from_slice(&(p.value.rows() as u32).to_le_bytes());
        out.extend_from_slice(&(p.value.cols() as u32).to_le_bytes());
        out.extend(p.value.data().iter().flat_map(|v| v.to_le_bytes()));
    }
}

/// One weight record, borrowed from the checkpoint bytes.
struct Record<'a> {
    name: &'a str,
    shape: (usize, usize),
    /// `shape.0 * shape.1` little-endian `f32`s.
    payload: &'a [u8],
}

impl Record<'_> {
    fn tensor(&self) -> Tensor {
        let values = self
            .payload
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes(b.try_into().expect("chunks of 4 bytes")));
        Tensor::from_vec(self.shape.0, self.shape.1, values.collect())
    }
}

/// A checkpoint's weight records, parsed and not yet placed anywhere.
///
/// As an [`Init`], they give a model constructor each parameter's saved
/// value by name and never draw: a loader builds its store once, in the
/// constructor's own order, instead of drawing values and overwriting
/// them. A parameter with no record, or a record of another shape, is
/// noted (the constructor gets an empty placeholder and carries on) and
/// reported by [`Records::finish`], which also rejects records the
/// constructor never asked for.
pub struct Records<'a> {
    records: Vec<Record<'a>>,
    by_name: HashMap<&'a str, usize>,
    used: Vec<bool>,
    /// The first parameter the constructor asked for that could not be
    /// served.
    error: Option<LoadError>,
}

fn take<'a>(data: &mut &'a [u8], n: usize) -> Result<&'a [u8], LoadError> {
    if data.len() < n {
        return Err(LoadError::Truncated);
    }
    let (head, rest) = data.split_at(n);
    *data = rest;
    Ok(head)
}

fn take_u32(data: &mut &[u8]) -> Result<usize, LoadError> {
    Ok(u32::from_le_bytes(take(data, 4)?.try_into().expect("4 bytes")) as usize)
}

impl<'a> Records<'a> {
    /// Parses a [`save`] blob: the magic, then every declared record, each
    /// length checked before it is read. Two records under one name are an
    /// error. Bytes after the last declared record are ignored.
    pub fn parse(data: &'a [u8]) -> Result<Records<'a>, LoadError> {
        let mut data = data.strip_prefix(MAGIC.as_slice()).ok_or(LoadError::BadMagic)?;
        let count = take_u32(&mut data)?;
        let (mut records, mut by_name) = (Vec::new(), HashMap::new());
        for _ in 0..count {
            let name_len = take_u32(&mut data)?;
            let name =
                std::str::from_utf8(take(&mut data, name_len)?).map_err(|_| LoadError::BadName)?;
            let shape = (take_u32(&mut data)?, take_u32(&mut data)?);
            let bytes = shape.0.checked_mul(shape.1).and_then(|n| n.checked_mul(4));
            let payload = take(&mut data, bytes.ok_or(LoadError::Truncated)?)?;
            if by_name.insert(name, records.len()).is_some() {
                return Err(LoadError::DuplicateParam(name.to_owned()));
            }
            records.push(Record { name, shape, payload });
        }
        let used = vec![false; records.len()];
        Ok(Records { records, by_name, used, error: None })
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the checkpoint holds no record.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Ends a construction from these records: the first parameter that
    /// had no record or a mis-shaped one, else the first record no
    /// parameter asked for, else `Ok`.
    pub fn finish(self) -> Result<(), LoadError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        match self.used.iter().position(|&u| !u) {
            Some(i) => Err(LoadError::UnknownParam(self.records[i].name.to_owned())),
            None => Ok(()),
        }
    }
}

impl Init for Records<'_> {
    fn value(&mut self, name: &str, rows: usize, cols: usize, _fill: Fill) -> Tensor {
        let failure = match self.by_name.get(name) {
            Some(&i) => {
                self.used[i] = true;
                let rec = &self.records[i];
                if rec.shape == (rows, cols) {
                    return rec.tensor();
                }
                let (expected, found) = ((rows, cols), rec.shape);
                LoadError::ShapeMismatch { name: name.to_owned(), expected, found }
            }
            None => LoadError::MissingParam(name.to_owned()),
        };
        self.error.get_or_insert(failure);
        Tensor::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_store() -> ParamStore {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = ParamStore::new();
        s.add_randn("enc.w", 3, 4, 0.5, &mut rng);
        s.add_randn("enc.b", 1, 4, 0.5, &mut rng);
        s.add_randn("head.w", 4, 2, 0.5, &mut rng);
        s
    }

    /// The store `sample_store` registers, valued by `init`.
    fn build(init: &mut impl Init) -> ParamStore {
        let mut s = ParamStore::new();
        s.init("enc.w", 3, 4, Fill::Randn(0.5), init);
        s.init("enc.b", 1, 4, Fill::Randn(0.5), init);
        s.init("head.w", 4, 2, Fill::Randn(0.5), init);
        s
    }

    #[test]
    fn records_build_what_the_rng_built() {
        // Drawn through `init`, the store is `sample_store`'s, bit for bit.
        let src = build(&mut StdRng::seed_from_u64(5));
        for ((_, a), (_, b)) in src.iter().zip(sample_store().iter()) {
            assert_eq!(a.value.data(), b.value.data());
        }
        let blob = save(&src);
        let mut records = Records::parse(&blob).unwrap();
        let built = build(&mut records);
        records.finish().unwrap();
        assert_eq!(built.len(), src.len());
        for ((i, a), (j, b)) in src.iter().zip(built.iter()) {
            assert_eq!((i, &a.name, a.value.shape()), (j, &b.name, b.value.shape()));
            assert_eq!(a.value.data(), b.value.data());
        }
    }

    #[test]
    fn records_reject_missing_misshaped_and_unused_parameters() {
        let blob = save(&sample_store());
        let mut records = Records::parse(&blob).unwrap();
        let mut s = ParamStore::new();
        s.init("enc.w", 3, 4, Fill::Zeros, &mut records);
        s.init("enc.b", 1, 5, Fill::Zeros, &mut records);
        s.init("extra", 1, 1, Fill::Zeros, &mut records);
        match records.finish() {
            Err(LoadError::ShapeMismatch { name, expected, found }) => {
                assert_eq!((name.as_str(), expected, found), ("enc.b", (1, 5), (1, 4)));
            }
            other => panic!("expected the first failure, a shape mismatch, got {other:?}"),
        }
        let mut records = Records::parse(&blob).unwrap();
        ParamStore::new().init("extra", 1, 1, Fill::Zeros, &mut records);
        assert_eq!(records.finish(), Err(LoadError::MissingParam("extra".into())));
        let mut records = Records::parse(&blob).unwrap();
        ParamStore::new().init("enc.w", 3, 4, Fill::Zeros, &mut records);
        assert_eq!(records.finish(), Err(LoadError::UnknownParam("enc.b".into())));
    }

    #[test]
    fn oversized_and_duplicated_records_are_errors() {
        let mut blob = save(&sample_store());
        // Record 0 starts after magic + count: name length, "enc.w", rows, cols.
        let dims = 8 + 4 + 4 + "enc.w".len();
        blob[dims..dims + 8].copy_from_slice(&[0, 0, 0, 0x80, 0, 0, 0, 0x80]);
        assert_eq!(Records::parse(&blob).err(), Some(LoadError::Truncated));
        let mut s = ParamStore::new();
        s.add_zeros("w", 1, 1);
        let one = save(&s);
        let record = &one[12..];
        let twice = [&one[..8], &2u32.to_le_bytes(), record, record].concat();
        assert_eq!(Records::parse(&twice).err(), Some(LoadError::DuplicateParam("w".into())));
    }

    #[test]
    fn filtered_save_keeps_only_matching() {
        let src = sample_store();
        let mut blob = Vec::new();
        save_filtered(&mut blob, &src, |n| n.starts_with("enc."));
        let mut records = Records::parse(&blob).unwrap();
        assert_eq!(records.len(), 2);
        let mut s = ParamStore::new();
        s.init("enc.w", 3, 4, Fill::Zeros, &mut records);
        s.init("enc.b", 1, 4, Fill::Zeros, &mut records);
        records.finish().unwrap();
        for pid in 0..s.len() {
            assert_eq!(s.get(pid).data(), src.get(pid).data());
        }
        let mut records = Records::parse(&blob).unwrap();
        build(&mut records);
        assert_eq!(records.finish(), Err(LoadError::MissingParam("head.w".into())));
    }

    #[test]
    fn filtered_save_appends_after_what_the_buffer_holds() {
        let src = sample_store();
        let prefix = b"header bytes".to_vec();
        let mut out = prefix.clone();
        save_filtered(&mut out, &src, |_| true);
        assert_eq!(&out[..prefix.len()], prefix.as_slice());
        assert_eq!(&out[prefix.len()..], save(&src).as_slice());
        let mut records = Records::parse(&out[prefix.len()..]).unwrap();
        let built = build(&mut records);
        records.finish().unwrap();
        for ((_, a), (_, b)) in src.iter().zip(built.iter()) {
            assert_eq!((&a.name, a.value.shape()), (&b.name, b.value.shape()));
            assert_eq!(a.value.data(), b.value.data());
        }
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(Records::parse(b"NOTDODUO____").err(), Some(LoadError::BadMagic));
    }

    #[test]
    fn truncated_rejected() {
        let blob = save(&sample_store());
        for cut in [blob.len() - 5, 8 + 2, 8 + 4 + 3] {
            assert_eq!(Records::parse(&blob[..cut]).err(), Some(LoadError::Truncated), "cut {cut}");
        }
    }
}
