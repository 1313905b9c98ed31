//! Self-contained annotator checkpoints.
//!
//! `doduo_tensor::serialize` persists *weights only*: loading one requires
//! reconstructing the exact model shape, tokenizer, and label vocabularies
//! out of band. A daemon (`doduo-served`) that restarts from disk needs all
//! of that in one artifact, so an [`AnnotatorBundle`] owns every piece an
//! [`Annotator`] borrows and round-trips through a single
//! self-describing binary blob: magic + version, the [`DoduoConfig`] scalars,
//! the WordPiece vocabulary, both label vocabularies, and the weight records
//! (`serialize::save_filtered` on the model's parameter prefix, in place).
//!
//! Loading is strict: the model is built once, by its own constructor,
//! with each parameter taken from its weight record
//! (`serialize::Records`), so every model parameter must have exactly one
//! record of its exact shape and no record may be left over — a loaded
//! bundle annotates bit-identically to the one saved, and its store lists
//! the parameters in the order a freshly constructed one does. Nothing is
//! drawn at random and then overwritten. Corruption is detected, never
//! absorbed: structural damage (truncation, garbled lengths, lengths whose
//! byte count overflows) fails with an error naming the damaged section,
//! and a CRC32 over the whole payload catches any surviving bit flip —
//! including flips inside raw weight floats, which would otherwise decode
//! "cleanly" into a silently different model. The CRC folds 64 bytes a
//! step by carry-less multiplication where the CPU has it (eight a step
//! through compile-time tables elsewhere); with the records read in place,
//! a load costs about what reading the blob does.

use crate::model::{AttentionMode, DoduoConfig, DoduoModel, InputMode};
use crate::predictor::Annotator;
use doduo_table::{LabelVocab, SerializeConfig};
use doduo_tensor::{serialize, ParamStore};
use doduo_tokenizer::{Vocab, WordPiece};
use doduo_transformer::EncoderConfig;

const MAGIC: &[u8; 8] = b"DODUOBN2";

/// Slicing-by-8 tables of the reflected IEEE 802.3 polynomial, built at
/// compile time: `CRC_TABLES[0][b]` is the CRC register after shifting in
/// byte `b`, and `CRC_TABLES[k][b]` after `b` and then `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3) of `data`: the values of the bit-at-a-time
/// definition (the test oracle). Where the CPU reports `pclmulqdq` and
/// `sse4.1` (std's cached detection), every whole 16-byte block of an input
/// of 128 bytes or more goes through [`fold::fold_pclmul`]: carry-less
/// multiplies that fold 512 bits a step, about 0.06 ms a MB against the
/// table form's 0.8. The table form ([`crc32_update`]) takes other hosts,
/// shorter inputs and the tail. Both advance one CRC register, so where the
/// split falls does not move the value. On the path of every load and save.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut rest = data;
    #[cfg(target_arch = "x86_64")]
    if data.len() >= fold::MIN_LEN && fold::available() {
        let (head, tail) = data.split_at(data.len() & !15);
        // SAFETY: `fold::available` detected `pclmulqdq` and `sse4.1`.
        crc = unsafe { fold::fold_pclmul(crc, head) };
        rest = tail;
    }
    !crc32_update(crc, rest)
}

/// Advances the CRC register `crc` over `data`, eight bytes per step
/// through [`CRC_TABLES`] (slicing-by-8, about a tenth of the bitwise
/// cost): the whole CRC on hosts without carry-less multiply, and the tail
/// of [`crc32`] on those with it.
fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC-32 by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction", Intel,
/// 2009), in the bit-reflected domain of [`CRC_TABLES`].
#[cfg(target_arch = "x86_64")]
mod fold {
    /// Shortest input [`super::crc32`] folds; below it the table form is
    /// as fast.
    pub(super) const MIN_LEN: usize = 128;

    /// Whether [`fold_pclmul`] can run on this host.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// `x^n mod P(x)`, reflected (bit `31 - i` holds the coefficient of
    /// `x^i`): `n` multiplications by `x`, each a right shift that folds
    /// `x^32` back in as the reflected polynomial.
    const fn xn_mod_p(n: u32) -> u32 {
        let mut r = 0x8000_0000u32; // x^0
        let mut i = 0;
        while i < n {
            r = (r >> 1) ^ (0xEDB8_8320 & (r & 1).wrapping_neg());
            i += 1;
        }
        r
    }

    /// A folding multiplier: `x^n mod P(x)`, reflected, shifted left once
    /// so that the reflected 64×64 → 127-bit product lines up with the
    /// 128-bit lane it is XORed into.
    const fn fold_constant(n: u32) -> u64 {
        (xn_mod_p(n) as u64) << 1
    }

    /// The low 33 bits of `v` in reverse order.
    const fn reflect33(v: u64) -> u64 {
        v.reverse_bits() >> 31
    }

    /// `P(x)`, the degree-32 IEEE 802.3 polynomial, unreflected.
    const POLY: u64 = 0x1_04C1_1DB7;

    /// Barrett's `μ = ⌊x^64 / P(x)⌋` (degree 32) by long division,
    /// reflected.
    const fn barrett_mu() -> u64 {
        let mut rem: u128 = 1 << 64;
        let mut q = 0u64;
        let mut bit = 33;
        while bit > 0 {
            bit -= 1;
            if (rem >> (bit + 32)) & 1 == 1 {
                rem ^= (POLY as u128) << bit;
                q |= 1 << bit;
            }
        }
        reflect33(q)
    }

    /// Folds four lanes 512 bits forward: `(x^(4·128+32), x^(4·128−32))`.
    pub(super) const FOLD_4X128: (u64, u64) =
        (fold_constant(4 * 128 + 32), fold_constant(4 * 128 - 32));
    /// Folds one lane 128 bits forward: `(x^(128+32), x^(128−32))`.
    pub(super) const FOLD_128: (u64, u64) = (fold_constant(128 + 32), fold_constant(128 - 32));
    /// Folds 64 bits down to 32: `x^64`.
    pub(super) const FOLD_64: u64 = fold_constant(64);
    /// Barrett reduction: `(P′, μ)`, the reflected polynomial and quotient.
    pub(super) const BARRETT: (u64, u64) = (reflect33(POLY), barrett_mu());

    /// Advances the CRC register `crc` over `data` (whole 16-byte blocks,
    /// four at least): four 128-bit lanes fold forward 512 bits a step,
    /// collapse into one, which folds over the remaining blocks, down to
    /// 64 bits and by Barrett reduction to the 32-bit register. Each step
    /// is an identity mod `P(x)`, so the register equals
    /// [`super::crc32_update`]'s over the same bytes.
    ///
    /// # Safety
    /// The host must have `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold_pclmul(crc: u32, data: &[u8]) -> u32 {
        use std::arch::x86_64::*;
        assert!(data.len() >= 64 && data.len().is_multiple_of(16), "four whole blocks at least");
        let pair = |(lo, hi): (u64, u64)| _mm_set_epi64x(hi as i64, lo as i64);
        // `x` folded forward: its low half times `k.lo`, high half `k.hi`.
        let fold = |x: __m128i, k: __m128i| {
            _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(x, k), _mm_clmulepi64_si128::<0x11>(x, k))
        };
        let load = |block: &[u8]| _mm_loadu_si128(block.as_ptr() as *const __m128i);
        let mut x = [0, 1, 2, 3].map(|i| load(&data[16 * i..16 * (i + 1)]));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(crc as i32));
        let k = pair(FOLD_4X128);
        let mut chunks = data[64..].chunks_exact(64);
        for chunk in &mut chunks {
            for (lane, block) in x.iter_mut().zip(chunk.chunks_exact(16)) {
                *lane = _mm_xor_si128(fold(*lane, k), load(block));
            }
        }
        let k = pair(FOLD_128);
        let mut acc = x[0];
        for &lane in &x[1..] {
            acc = _mm_xor_si128(fold(acc, k), lane);
        }
        for block in chunks.remainder().chunks_exact(16) {
            acc = _mm_xor_si128(fold(acc, k), load(block));
        }
        // 128 → 64 bits: the low half times `x^(128−32)` onto the high.
        acc = _mm_xor_si128(_mm_srli_si128::<8>(acc), _mm_clmulepi64_si128::<0x10>(acc, k));
        // 64 → 32 bits: the low word times `x^64` onto the rest.
        let low32 = _mm_setr_epi32(!0, 0, !0, 0);
        let k = _mm_set_epi64x(0, FOLD_64 as i64);
        acc = _mm_xor_si128(
            _mm_srli_si128::<4>(acc),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), k),
        );
        // Barrett: `t = (acc·μ) mod x^32`, then `acc ⊕ t·P′` leaves the
        // register in the second word.
        let k = pair(BARRETT);
        let t = _mm_and_si128(_mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), k), low32);
        acc = _mm_xor_si128(acc, _mm_clmulepi64_si128::<0x00>(t, k));
        _mm_extract_epi32::<1>(acc) as u32
    }
}

/// Everything a serving process needs to annotate tables, under one owner:
/// weights, model, tokenizer, and label vocabularies.
pub struct AnnotatorBundle {
    /// The weights backing `model`.
    pub store: ParamStore,
    /// The fine-tuned (or otherwise fixed) model.
    pub model: DoduoModel,
    /// The tokenizer the model was trained with.
    pub tokenizer: WordPiece,
    /// Names for the column-type label ids.
    pub type_vocab: LabelVocab,
    /// Names for the column-relation label ids.
    pub rel_vocab: LabelVocab,
    /// Parameter-name prefix the model was registered under.
    prefix: String,
    /// The header CRC of the blob this bundle was loaded from; `None` for
    /// a bundle built in memory.
    crc: Option<u32>,
}

/// Errors produced when decoding an [`AnnotatorBundle`]. Structural errors
/// name the section they were detected in, so a corrupt checkpoint fails
/// with "bundle truncated in section `weights`" instead of a bare offset.
#[derive(Debug)]
pub enum BundleError {
    /// Missing or wrong magic header.
    BadMagic,
    /// Buffer ended before a declared payload, in the named section.
    Truncated(&'static str),
    /// A string in the named section was not valid UTF-8.
    BadString(&'static str),
    /// The tokenizer vocabulary section did not parse.
    BadVocab,
    /// An enum tag in the named section had an unknown value.
    BadTag {
        /// The section being decoded when the bad tag was read.
        section: &'static str,
        /// The unrecognized tag byte.
        tag: u8,
    },
    /// An oversized length prefix in the named section (larger than the
    /// remaining buffer could ever satisfy).
    BadLength(&'static str),
    /// The payload parsed but its CRC32 does not match: at least one bit
    /// flipped somewhere (possibly inside raw weight data, which has no
    /// structure of its own to fail on).
    ChecksumMismatch {
        /// CRC stored in the checkpoint header.
        stored: u32,
        /// CRC computed over the payload as read.
        computed: u32,
    },
    /// The configuration section is internally inconsistent (no model of
    /// that shape can be built), for the stated reason.
    BadConfig(&'static str),
    /// The weight section failed to load: it did not parse, or its records
    /// are not exactly the model's parameters (the error names the first
    /// one missing, duplicated, unknown or mis-shaped).
    Weights(serialize::LoadError),
    /// The named parameter holds a NaN or an infinity: the blob is intact
    /// (a diverged fine-tune saves a CRC-valid checkpoint) but the model
    /// it describes cannot score anything.
    NonFinite(String),
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::BadMagic => write!(f, "not an annotator bundle (bad magic)"),
            BundleError::Truncated(s) => write!(f, "annotator bundle truncated in section {s}"),
            BundleError::BadString(s) => write!(f, "bundle section {s} is not valid UTF-8"),
            BundleError::BadVocab => write!(f, "bundle tokenizer vocabulary did not parse"),
            BundleError::BadTag { section, tag } => {
                write!(f, "unknown enum tag {tag} in bundle section {section}")
            }
            BundleError::BadLength(s) => {
                write!(f, "implausible length in bundle section {s}")
            }
            BundleError::ChecksumMismatch { stored, computed } => write!(
                f,
                "bundle checksum mismatch (stored {stored:#010x}, computed {computed:#010x}): \
                 the checkpoint is corrupt"
            ),
            BundleError::BadConfig(why) => write!(f, "bundle config is inconsistent: {why}"),
            BundleError::Weights(e) => write!(f, "bundle weights: {e}"),
            BundleError::NonFinite(name) => {
                write!(f, "bundle parameter {name} holds non-finite values")
            }
        }
    }
}

impl std::error::Error for BundleError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The section currently being decoded, for error naming.
    section: &'static str,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], BundleError> {
        if n > self.buf.len() - self.pos {
            return Err(BundleError::Truncated(self.section));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, BundleError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, BundleError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn f32(&mut self) -> Result<f32, BundleError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn blob(&mut self) -> Result<&'a [u8], BundleError> {
        let n = self.u32()? as usize;
        // A garbled length prefix gets its own error: `take` would report
        // the same section, but "implausible length" is the truer story.
        if n > self.buf.len() - self.pos {
            return Err(BundleError::BadLength(self.section));
        }
        self.take(n)
    }

    fn string(&mut self) -> Result<String, BundleError> {
        String::from_utf8(self.blob()?.to_vec()).map_err(|_| BundleError::BadString(self.section))
    }
}

fn put_blob(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

fn put_vocab(out: &mut Vec<u8>, v: &LabelVocab) {
    out.extend_from_slice(&(v.len() as u32).to_le_bytes());
    for (_, name) in v.iter() {
        put_blob(out, name.as_bytes());
    }
}

fn read_vocab(r: &mut Reader<'_>) -> Result<LabelVocab, BundleError> {
    let n = r.u32()? as usize;
    let mut v = LabelVocab::new();
    for _ in 0..n {
        v.intern(&r.string()?);
    }
    Ok(v)
}

/// The CRC32 stored in a serialized bundle's header, without decoding the
/// payload. Returns `None` when `data` is not an annotator bundle (wrong
/// magic or too short). Serving uses this as the stable content fingerprint
/// in model-version labels: [`AnnotatorBundle::load`] verifies the payload
/// against this very field, so once a blob loads, the header CRC *is* the
/// checksum of the model that will answer requests.
pub fn blob_crc(data: &[u8]) -> Option<u32> {
    if data.len() < MAGIC.len() + 4 || &data[..MAGIC.len()] != MAGIC {
        return None;
    }
    Some(u32::from_le_bytes(data[MAGIC.len()..MAGIC.len() + 4].try_into().expect("4 bytes")))
}

impl AnnotatorBundle {
    /// Bundles freshly built parts. `prefix` is the parameter-name prefix
    /// `model` was registered under (its weights are saved as
    /// `"{prefix}.*"`).
    pub fn new(
        store: ParamStore,
        model: DoduoModel,
        tokenizer: WordPiece,
        type_vocab: LabelVocab,
        rel_vocab: LabelVocab,
        prefix: impl Into<String>,
    ) -> Self {
        let prefix = prefix.into();
        AnnotatorBundle { store, model, tokenizer, type_vocab, rel_vocab, prefix, crc: None }
    }

    /// The payload CRC32 this bundle's checkpoint header carries: the
    /// fingerprint half of every `x-model-version` label. A bundle
    /// [`AnnotatorBundle::load`] decoded answers with the CRC its bytes
    /// were just verified against, at no cost; one built in memory has no
    /// bytes yet and serializes itself once to find out. The two agree —
    /// loading a blob `save` wrote and saving it again gives back the same
    /// bytes — unless a loaded bundle's weights are written in place
    /// afterwards (a fine-tune of a copy): save that one to fingerprint it.
    pub fn crc(&self) -> u32 {
        self.crc.unwrap_or_else(|| blob_crc(&self.save()).expect("a saved bundle has a header"))
    }

    /// A borrowed annotator over the bundle's parts.
    pub fn annotator(&self) -> Annotator<'_> {
        Annotator {
            model: &self.model,
            store: &self.store,
            tokenizer: &self.tokenizer,
            type_vocab: &self.type_vocab,
            rel_vocab: &self.rel_vocab,
        }
    }

    /// Builds the opt-in int8 serving twin of this bundle's model — done
    /// once at load, reused for every forward pass. Quantization happens
    /// strictly *after* the bundle's structural and CRC integrity checks,
    /// so a corrupt checkpoint can never reach the quantizer.
    pub fn quantized(&self) -> crate::quant::QuantizedModel {
        crate::quant::QuantizedModel::from_model(&self.model, &self.store)
    }

    /// Serializes the whole bundle into one self-describing blob: magic,
    /// CRC32 of everything after the checksum field, then the sections
    /// (config scalars, prefix, tokenizer, label vocabularies, weights).
    pub fn save(&self) -> Vec<u8> {
        let cfg = self.model.config();
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&[0u8; 4]); // checksum placeholder
        out.push(match cfg.input_mode {
            InputMode::TableWise => 0,
            InputMode::SingleColumn => 1,
        });
        out.push(match cfg.attention {
            AttentionMode::Full => 0,
            AttentionMode::ColumnVisibility => 1,
        });
        out.push(cfg.multi_label as u8);
        out.push(cfg.serialize.include_metadata as u8);
        for v in [
            cfg.n_types as u32,
            cfg.n_rels as u32,
            cfg.serialize.max_tokens_per_col as u32,
            cfg.serialize.max_seq as u32,
            cfg.encoder.vocab_size as u32,
            cfg.encoder.hidden as u32,
            cfg.encoder.layers as u32,
            cfg.encoder.heads as u32,
            cfg.encoder.ffn as u32,
            cfg.encoder.max_seq as u32,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&cfg.encoder.dropout.to_le_bytes());
        put_blob(&mut out, self.prefix.as_bytes());
        out.extend_from_slice(&(self.tokenizer.max_word_len() as u32).to_le_bytes());
        put_blob(&mut out, self.tokenizer.vocab().to_text().as_bytes());
        put_vocab(&mut out, &self.type_vocab);
        put_vocab(&mut out, &self.rel_vocab);
        let dotted = format!("{}.", self.prefix);
        let at = out.len() + 4;
        out.extend_from_slice(&[0u8; 4]); // weights length, patched below
        serialize::save_filtered(&mut out, &self.store, |n| n.starts_with(&dotted));
        let len = (out.len() - at) as u32;
        out[at - 4..at].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&out[MAGIC.len() + 4..]);
        out[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes a [`AnnotatorBundle::save`] blob. The model is built from
    /// the recorded configuration with every parameter taken from its
    /// weight record — nothing is drawn and overwritten — so the store
    /// lists the same names, shapes and ids as [`DoduoModel::new`] on that
    /// configuration, and annotations are bit-identical to the saved
    /// bundle's. Strictness is layered: structural damage fails with an
    /// error naming the section, the payload CRC (verified after parsing)
    /// rejects any bit flip the structure could not notice, an
    /// inconsistent configuration is refused before anything is built, a
    /// missing, duplicated, unknown or mis-shaped weight record fails
    /// naming the parameter, and an intact blob whose weights hold a NaN
    /// or an infinity is rejected by name.
    pub fn load(data: &[u8]) -> Result<AnnotatorBundle, BundleError> {
        let mut r = Reader { buf: data, pos: 0, section: "header" };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(BundleError::BadMagic);
        }
        let stored_crc = r.u32()?;
        let payload_start = r.pos;
        r.section = "config";
        let input_mode = match r.u8()? {
            0 => InputMode::TableWise,
            1 => InputMode::SingleColumn,
            t => return Err(BundleError::BadTag { section: "config", tag: t }),
        };
        let attention = match r.u8()? {
            0 => AttentionMode::Full,
            1 => AttentionMode::ColumnVisibility,
            t => return Err(BundleError::BadTag { section: "config", tag: t }),
        };
        let multi_label = r.u8()? != 0;
        let include_metadata = r.u8()? != 0;
        let n_types = r.u32()? as usize;
        let n_rels = r.u32()? as usize;
        let max_tokens_per_col = r.u32()? as usize;
        let ser_max_seq = r.u32()? as usize;
        let encoder = EncoderConfig {
            vocab_size: r.u32()? as usize,
            hidden: r.u32()? as usize,
            layers: r.u32()? as usize,
            heads: r.u32()? as usize,
            ffn: r.u32()? as usize,
            max_seq: r.u32()? as usize,
            dropout: r.f32()?,
        };
        r.section = "prefix";
        let prefix = r.string()?;
        r.section = "tokenizer";
        let max_word_len = r.u32()? as usize;
        let vocab_text = r.string()?;
        let vocab = Vocab::from_text(&vocab_text).ok_or(BundleError::BadVocab)?;
        let tokenizer = WordPiece::from_vocab(vocab, max_word_len);
        r.section = "type_vocab";
        let type_vocab = read_vocab(&mut r)?;
        r.section = "rel_vocab";
        let rel_vocab = read_vocab(&mut r)?;
        r.section = "weights";
        let weights = r.blob()?;
        let computed = crc32(&data[payload_start..]);
        if computed != stored_crc {
            return Err(BundleError::ChecksumMismatch { stored: stored_crc, computed });
        }

        encoder.check().map_err(BundleError::BadConfig)?;
        let mut records = serialize::Records::parse(weights).map_err(BundleError::Weights)?;
        // Every layer owns several records, so more layers than records is a
        // forged count: refuse it before the constructor loops over it.
        if encoder.layers > records.len() {
            return Err(BundleError::BadConfig("more encoder layers than weight records"));
        }
        let mut ser = SerializeConfig::new(max_tokens_per_col, ser_max_seq);
        if include_metadata {
            ser = ser.with_metadata();
        }
        let cfg = DoduoConfig::new(encoder, n_types, n_rels, multi_label)
            .with_input_mode(input_mode)
            .with_attention(attention)
            .with_serialize(ser);
        let mut store = ParamStore::new();
        let model = DoduoModel::new(&mut store, cfg, &prefix, &mut records);
        records.finish().map_err(BundleError::Weights)?;
        if let Some((_, p)) = store.iter().find(|(_, p)| p.value.has_non_finite()) {
            return Err(BundleError::NonFinite(p.name.clone()));
        }
        let crc = Some(stored_crc);
        Ok(AnnotatorBundle { store, model, tokenizer, type_vocab, rel_vocab, prefix, crc })
    }

    /// Writes [`AnnotatorBundle::save`]'s blob to `path`. The file is what
    /// `doduo-served --checkpoint` and the repro harness exchange.
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.save())
    }

    /// Reads and decodes a checkpoint file, folding I/O and decode failures
    /// into one displayable error that names the path.
    pub fn load_from(path: impl AsRef<std::path::Path>) -> Result<AnnotatorBundle, String> {
        let path = path.as_ref();
        let blob = std::fs::read(path)
            .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
        AnnotatorBundle::load(&blob)
            .map_err(|e| format!("cannot load checkpoint {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doduo_table::{Column, Table};
    use doduo_tokenizer::TrainConfig as TokTrain;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The CRC-32 definition, one bit at a time: the oracle the folding
    /// and table forms are held to.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn crc_paths_match_the_bitwise_definition() {
        #[cfg(target_arch = "x86_64")]
        let folded = fold::available();
        #[cfg(not(target_arch = "x86_64"))]
        let folded = false;
        let path = if folded { "pclmulqdq folding + table tail" } else { "slicing-by-8 table" };
        println!("crc32 path on this host: {path}");
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926, "the IEEE check value");
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        let table = |data: &[u8]| !crc32_update(0xFFFF_FFFF, data);
        let check = |data: &[u8], what: &str| {
            let want = crc32_bitwise(data);
            assert_eq!(crc32(data), want, "dispatching crc32, {what}");
            assert_eq!(table(data), want, "table form, {what}");
        };
        let mut rng = StdRng::seed_from_u64(31);
        let big: Vec<u8> = (0..(3 << 20) + 77).map(|_| rng.gen_range(0..=255u8)).collect();
        for len in 0..=1024 {
            check(&big[..len], &format!("length {len}"));
        }
        for offset in 0..64 {
            for len in [0, 1, 15, 16, 63, 64, 65, 127, 128, 129, 143, 255, 256, 1000, 4099] {
                check(&big[offset..offset + len], &format!("offset {offset}, length {len}"));
            }
        }
        check(&big, "3 MB of random bytes");
        check(&bundle().save(), "a whole checkpoint");
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn folding_constants_are_the_published_ones() {
        assert_eq!(fold::FOLD_4X128, (0x1_5444_2bd4, 0x1_c6e4_1596));
        assert_eq!(fold::FOLD_128, (0x1_7519_97d0, 0xccaa_009e));
        assert_eq!(fold::FOLD_64, 0x1_63cd_6124);
        assert_eq!(fold::BARRETT, (0x1_DB71_0641, 0x1_F701_1641));
    }

    fn bundle() -> AnnotatorBundle {
        let tok = WordPiece::train(
            ["alpha beta gamma one two three"],
            &TokTrain { merges: 60, min_pair_count: 1, max_word_len: 16 },
        );
        let mut tv = LabelVocab::new();
        tv.intern("t.a");
        tv.intern("t.b");
        tv.intern("t.c");
        let mut rv = LabelVocab::new();
        rv.intern("r.x");
        rv.intern("r.y");
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let enc = EncoderConfig::tiny(tok.vocab_size());
        let max_seq = enc.max_seq;
        let cfg = DoduoConfig::new(enc, 3, 2, true)
            .with_serialize(SerializeConfig::new(8, max_seq).with_metadata());
        let model = DoduoModel::new(&mut store, cfg, "m", &mut rng);
        AnnotatorBundle::new(store, model, tok, tv, rv, "m")
    }

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                Column::with_name("letters", vec!["alpha".into(), "beta".into()]),
                Column::new(vec!["one".into(), "two".into()]),
            ],
        )
    }

    #[test]
    fn save_load_round_trips_bit_identically() {
        let b = bundle();
        let blob = b.save();
        let loaded = AnnotatorBundle::load(&blob).expect("bundle loads");
        let cfg = loaded.model.config();
        assert_eq!(cfg.n_types, 3);
        assert_eq!(cfg.n_rels, 2);
        assert!(cfg.multi_label);
        assert!(cfg.serialize.include_metadata);
        let a = b.annotator().annotate(&table());
        let c = loaded.annotator().annotate(&table());
        assert_eq!(a.types.len(), c.types.len());
        for (x, y) in a.types.iter().zip(&c.types) {
            for ((n1, s1), (n2, s2)) in x.labels.iter().zip(&y.labels) {
                assert_eq!(n1, n2);
                assert_eq!(s1.to_bits(), s2.to_bits(), "loaded bundle must match bitwise");
            }
        }
        assert_eq!(a.relations.len(), c.relations.len());
    }

    #[test]
    fn the_weights_section_is_a_standalone_filtered_save() {
        let mut b = bundle();
        // A parameter outside the model's prefix stays out of both.
        b.store.add_zeros("other.w", 2, 2);
        let blob = b.save();
        let mut weights = Vec::new();
        let dotted = format!("{}.", b.prefix);
        serialize::save_filtered(&mut weights, &b.store, |n| n.starts_with(&dotted));
        let (head, section) = blob.split_at(blob.len() - weights.len());
        assert_eq!(section, weights.as_slice(), "the blob ends with the weights section");
        assert_eq!(head[head.len() - 4..], (weights.len() as u32).to_le_bytes());
        let loaded = AnnotatorBundle::load(&blob).expect("bundle loads");
        assert_eq!(loaded.store.len() + 1, b.store.len());
    }

    #[test]
    fn corrupt_bundles_are_rejected() {
        assert!(matches!(AnnotatorBundle::load(b"not a bundle"), Err(BundleError::BadMagic)));
        let mut blob = bundle().save();
        blob.truncate(blob.len() / 2);
        assert!(AnnotatorBundle::load(&blob).is_err());
    }

    #[test]
    fn blob_crc_reads_the_verified_header_checksum() {
        let blob = bundle().save();
        let crc = blob_crc(&blob).expect("valid bundle has a header CRC");
        assert_eq!(crc, u32::from_le_bytes(blob[8..12].try_into().unwrap()));
        // The header field is exactly what load() verifies the payload
        // against, so a loadable blob's blob_crc is its model fingerprint.
        AnnotatorBundle::load(&blob).expect("loads");
        assert_eq!(blob_crc(b"not a bundle"), None);
        assert_eq!(blob_crc(&blob[..6]), None);
        let mut flipped = blob.clone();
        flipped[20] ^= 1;
        assert_eq!(blob_crc(&flipped), Some(crc), "header CRC is positional");
        assert!(AnnotatorBundle::load(&flipped).is_err(), "but the flip no longer matches it");
    }
}
