//! Corruption tests for `AnnotatorBundle` checkpoints: truncating or
//! bit-flipping any section of a saved blob must fail `load` with a clean,
//! section-naming error — never a panic, never a silently different model.
//! Bit flips in raw weight floats have no structure to trip over, so the
//! payload CRC is what turns "loads fine, annotates differently" into an
//! error. Blobs that pass the CRC because they were written that way (the
//! header resealed after the damage) must still fail when their records
//! are not exactly the model's parameters, or their config describes no
//! model, naming what is wrong.

use doduo_core::{AnnotatorBundle, BundleError, DoduoConfig, DoduoModel};
use doduo_table::{Column, LabelVocab, SerializeConfig, Table};
use doduo_tensor::serialize::{self, LoadError};
use doduo_tensor::{ParamStore, Tensor};
use doduo_tokenizer::{TrainConfig as TokTrain, WordPiece};
use doduo_transformer::EncoderConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bundle() -> AnnotatorBundle {
    let tok = WordPiece::train(
        ["alpha beta gamma one two three"],
        &TokTrain { merges: 60, min_pair_count: 1, max_word_len: 16 },
    );
    let mut tv = LabelVocab::new();
    tv.intern("t.a");
    tv.intern("t.b");
    let mut rv = LabelVocab::new();
    rv.intern("r.x");
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(7);
    let enc = EncoderConfig::tiny(tok.vocab_size());
    let max_seq = enc.max_seq;
    let cfg = DoduoConfig::new(enc, 2, 1, true)
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

/// Byte ranges of each checkpoint section, reconstructed from the bundle's
/// own parts (mirrors the save layout: magic, crc, config scalars, prefix
/// blob, tokenizer, label vocabularies, weights blob).
fn section_ranges(b: &AnnotatorBundle, blob_len: usize) -> Vec<(&'static str, usize, usize)> {
    let vocab_len = |v: &LabelVocab| 4 + v.iter().map(|(_, n)| 4 + n.len()).sum::<usize>();
    let mut out = Vec::new();
    let mut pos = 0usize;
    let mut push = |name: &'static str, len: usize, pos: &mut usize| {
        out.push((name, *pos, *pos + len));
        *pos += len;
    };
    push("header", 8 + 4, &mut pos); // magic + crc
    push("config", 4 + 10 * 4 + 4, &mut pos); // 4 tag bytes, 10 u32s, dropout f32
    push("prefix", 4 + 1, &mut pos); // "m"
    let vocab_text = b.tokenizer.vocab().to_text();
    push("tokenizer", 4 + 4 + vocab_text.len(), &mut pos);
    push("type_vocab", vocab_len(&b.type_vocab), &mut pos);
    push("rel_vocab", vocab_len(&b.rel_vocab), &mut pos);
    push("weights", blob_len - pos, &mut pos);
    out
}

/// A structural (section-naming) failure — what truncation must produce.
fn is_structural(e: &BundleError) -> bool {
    matches!(
        e,
        BundleError::BadMagic
            | BundleError::Truncated(_)
            | BundleError::BadString(_)
            | BundleError::BadVocab
            | BundleError::BadTag { .. }
            | BundleError::BadLength(_)
    )
}

/// `(id, name, shape)` of every parameter, in registration order.
fn layout(store: &ParamStore) -> Vec<(usize, String, (usize, usize))> {
    store.iter().map(|(id, p)| (id, p.name.clone(), p.value.shape())).collect()
}

#[test]
fn clean_blob_round_trips() {
    let b = bundle();
    let blob = b.save();
    let loaded = AnnotatorBundle::load(&blob).expect("clean blob loads");
    let a = b.annotator().annotate(&table());
    let c = loaded.annotator().annotate(&table());
    assert_eq!((a.types.len(), a.relations.len()), (c.types.len(), c.relations.len()));
    for (x, y) in a.types.iter().zip(&c.types) {
        for ((n1, s1), (n2, s2)) in x.labels.iter().zip(&y.labels) {
            assert_eq!(n1, n2);
            assert_eq!(s1.to_bits(), s2.to_bits());
        }
    }
    for (x, y) in a.relations.iter().zip(&c.relations) {
        for ((n1, s1), (n2, s2)) in x.labels.iter().zip(&y.labels) {
            assert_eq!(n1, n2);
            assert_eq!(s1.to_bits(), s2.to_bits());
        }
    }
    // Built from its records, the loaded store is the constructor's own:
    // same names, shapes and ids in the same order (Adam state, gradient
    // clipping and a fine-tune of the loaded bundle all walk that order),
    // holding the saved values.
    let mut fresh = ParamStore::new();
    let cfg = loaded.model.config().clone();
    DoduoModel::new(&mut fresh, cfg, "m", &mut StdRng::seed_from_u64(0));
    assert_eq!(layout(&loaded.store), layout(&fresh));
    assert_eq!(layout(&loaded.store), layout(&b.store));
    for ((_, x), (_, y)) in loaded.store.iter().zip(b.store.iter()) {
        assert!(x.value.data().iter().zip(y.value.data()).all(|(p, q)| p.to_bits() == q.to_bits()));
    }
    assert_eq!(loaded.crc(), b.crc(), "the verified header CRC is the saved one");
    // The layout map below must cover the blob exactly, or the per-section
    // assertions are aimed at the wrong bytes.
    let ranges = section_ranges(&b, blob.len());
    assert_eq!(ranges.last().expect("sections").2, blob.len());
}

/// Rewrites the header CRC to match the payload (the CRC-32 definition,
/// bit by bit): a blob whose only fault is the one the test put in.
fn reseal(blob: &mut [u8]) {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in &blob[12..] {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    blob[8..12].copy_from_slice(&(!crc).to_le_bytes());
}

/// `b`'s blob with its weights section replaced by `weights`, resealed.
fn with_weights(b: &AnnotatorBundle, weights: &[u8]) -> Vec<u8> {
    let blob = b.save();
    let (_, lo, _) = *section_ranges(b, blob.len()).last().expect("weights section");
    let mut out = [&blob[..lo], &(weights.len() as u32).to_le_bytes(), weights].concat();
    reseal(&mut out);
    out
}

/// The weight records `serialize::save` writes for `params`, in order.
fn records(params: &[(String, Tensor)]) -> Vec<u8> {
    let mut store = ParamStore::new();
    for (name, value) in params {
        store.add(name.clone(), value.clone());
    }
    serialize::save(&store).to_vec()
}

fn params(b: &AnnotatorBundle) -> Vec<(String, Tensor)> {
    b.store.iter().map(|(_, p)| (p.name.clone(), p.value.clone())).collect()
}

/// Loads `b` with `weights` as its records, expecting a weights error that
/// names `name`.
fn weights_error(b: &AnnotatorBundle, weights: &[u8], name: &str) -> LoadError {
    match AnnotatorBundle::load(&with_weights(b, weights)) {
        Err(BundleError::Weights(e)) => {
            assert!(e.to_string().contains(name), "the error must name {name}: {e}");
            e
        }
        Err(other) => panic!("expected a weights error naming {name}, got {other}"),
        Ok(_) => panic!("records faulty at {name} loaded"),
    }
}

#[test]
fn resealed_records_of_the_model_itself_load() {
    let b = bundle();
    let loaded = AnnotatorBundle::load(&with_weights(&b, &records(&params(&b)))).expect("loads");
    assert_eq!(layout(&loaded.store), layout(&b.store));
}

/// Before records were the initializer, a blob without a record kept that
/// parameter's seed-0 random draw and served different relation scores.
#[test]
fn a_missing_weight_record_is_rejected_by_name() {
    let b = bundle();
    let kept: Vec<_> = params(&b).into_iter().filter(|(n, _)| n != "m.rel.out.w").collect();
    let err = weights_error(&b, &records(&kept), "m.rel.out.w");
    assert_eq!(err, LoadError::MissingParam("m.rel.out.w".into()));
}

#[test]
fn a_duplicated_weight_record_is_rejected_by_name() {
    let b = bundle();
    let all = params(&b);
    let weights = records(&all);
    let again = records(&all[3..4]);
    let count = u32::from_le_bytes(weights[8..12].try_into().unwrap()) + 1;
    let dup = [&weights[..8], &count.to_le_bytes(), &weights[12..], &again[12..]].concat();
    let err = weights_error(&b, &dup, &all[3].0);
    assert_eq!(err, LoadError::DuplicateParam(all[3].0.clone()));
}

#[test]
fn an_unknown_weight_record_is_rejected_by_name() {
    let b = bundle();
    let mut all = params(&b);
    all.push(("m.extra.w".into(), Tensor::zeros(2, 2)));
    let err = weights_error(&b, &records(&all), "m.extra.w");
    assert_eq!(err, LoadError::UnknownParam("m.extra.w".into()));
}

#[test]
fn a_misshaped_weight_record_is_rejected_by_name() {
    let b = bundle();
    let mut all = params(&b);
    let (name, value) = all.iter_mut().find(|(n, _)| n == "m.type.out.b").expect("type bias");
    *value = Tensor::zeros(1, value.cols() + 1);
    let name = name.clone();
    match weights_error(&b, &records(&all), &name) {
        LoadError::ShapeMismatch { name: n, expected, found } => {
            assert_eq!((n.as_str(), expected, found), (name.as_str(), (1, 2), (1, 3)));
        }
        other => panic!("expected a shape mismatch, got {other}"),
    }
}

/// A record declaring 2^31 × 2^31 floats: its byte count overflows `usize`,
/// which used to panic the loader ("capacity overflow" in release builds,
/// "attempt to multiply with overflow" in debug) — and with it the daemon
/// thread that decodes `POST /v1/model` bodies.
#[test]
fn a_record_whose_size_overflows_is_an_error_not_a_panic() {
    let b = bundle();
    let mut weights = records(&params(&b));
    // Record 0 follows the magic and count: name length, name, rows, cols.
    let dims = 8 + 4 + 4 + b.store.name(0).len();
    weights[dims..dims + 8].copy_from_slice(&[0, 0, 0, 0x80, 0, 0, 0, 0x80]);
    match AnnotatorBundle::load(&with_weights(&b, &weights)) {
        Err(BundleError::Weights(LoadError::Truncated)) => {}
        Err(other) => panic!("expected a truncated weights section, got {other}"),
        Ok(_) => panic!("an oversized record loaded"),
    }
}

/// A config that passes the CRC but describes no buildable model — a
/// zero head count, a width the heads do not divide, more layers than
/// the blob has records — is an error, not a panic or a runaway build.
#[test]
fn an_inconsistent_config_is_rejected_before_building() {
    let b = bundle();
    let blob = b.save();
    // Config u32s follow the 4 tag bytes: n_types, n_rels, budget,
    // max_seq, vocab, hidden, layers, heads, ffn, max_seq.
    let field = |i: usize| 12 + 4 + 4 * i;
    for (i, value) in [(7usize, 0u32), (5, 33), (6, u32::MAX)] {
        let mut bad = blob.clone();
        bad[field(i)..field(i) + 4].copy_from_slice(&value.to_le_bytes());
        reseal(&mut bad);
        match AnnotatorBundle::load(&bad) {
            Err(BundleError::BadConfig(why)) => assert!(!why.is_empty()),
            Err(other) => panic!("config field {i} = {value}: wrong error {other}"),
            Ok(_) => panic!("config field {i} = {value} loaded"),
        }
    }
}

#[test]
fn truncation_in_every_section_names_a_section() {
    let b = bundle();
    let blob = b.save();
    for (name, lo, hi) in section_ranges(&b, blob.len()) {
        let cut = (lo + hi) / 2; // mid-section
        let err = AnnotatorBundle::load(&blob[..cut])
            .err()
            .unwrap_or_else(|| panic!("truncation at {cut} (in {name}) must fail"));
        assert!(is_structural(&err), "truncation in {name} must be a structural error, got: {err}");
        let msg = err.to_string();
        assert!(
            msg.contains("section") || msg.contains("magic") || msg.contains("vocabulary"),
            "error for {name} should name what broke: {msg}"
        );
    }
}

#[test]
fn truncation_at_every_sampled_length_is_an_error_not_a_panic() {
    let b = bundle();
    let blob = b.save();
    let step = (blob.len() / 257).max(1);
    for cut in (0..blob.len()).step_by(step) {
        assert!(AnnotatorBundle::load(&blob[..cut]).is_err(), "prefix of {cut} bytes loaded");
    }
}

#[test]
fn bit_flip_in_every_section_is_rejected() {
    let b = bundle();
    let blob = b.save();
    for (name, lo, hi) in section_ranges(&b, blob.len()) {
        // Flip a bit at the start, middle, and end of the section.
        for pos in [lo, (lo + hi) / 2, hi - 1] {
            for bit in [0u8, 7] {
                let mut bad = blob.clone();
                bad[pos] ^= 1 << bit;
                let err = AnnotatorBundle::load(&bad).err().unwrap_or_else(|| {
                    panic!("bit {bit} of byte {pos} ({name}) flipped but the bundle loaded")
                });
                // Any error is acceptable as long as it is an error (the
                // CRC backstops sections with no structure of their own).
                let _ = err.to_string(); // and it must render
            }
        }
    }
}

#[test]
fn weight_bit_flips_cannot_silently_change_the_model() {
    let b = bundle();
    let blob = b.save();
    let (_, lo, hi) = *section_ranges(&b, blob.len()).last().expect("weights section");
    // Raw float data: every flip decodes "cleanly", so only the checksum
    // stands between this and a silently different model.
    let mut rng = StdRng::seed_from_u64(99);
    use rand::Rng;
    for _ in 0..32 {
        let pos = rng.gen_range(lo + 16..hi); // skip the record framing
        let mut bad = blob.clone();
        bad[pos] ^= 1 << rng.gen_range(0..8u8);
        match AnnotatorBundle::load(&bad) {
            Err(BundleError::ChecksumMismatch { .. }) => {}
            Err(other) => {
                // Flips that land in record framing may fail structurally
                // first; that is fine too.
                assert!(is_structural(&other) || matches!(other, BundleError::Weights(_)));
            }
            Ok(_) => panic!("weight flip at byte {pos} loaded without an error"),
        }
    }
}

/// The int8 serving path (`load` then [`AnnotatorBundle::quantized`]) must
/// reject exactly what the f32 path rejects: quantization happens strictly
/// after the structural checks and the payload CRC, so no corrupted blob
/// can ever reach the weight-quantization step. This asserts the coupling
/// — every truncation and bit flip that fails `load` fails the quantized
/// pipeline with the *same* error, before `quantized()` runs.
#[test]
fn quantized_mode_rejects_the_same_corruptions() {
    let b = bundle();
    let blob = b.save();
    // The quantized load pipeline: same entry point, quantize on success.
    let quant_load = |bytes: &[u8]| AnnotatorBundle::load(bytes).map(|b| b.quantized());
    for (name, lo, hi) in section_ranges(&b, blob.len()) {
        let cut = (lo + hi) / 2;
        let f32_err = AnnotatorBundle::load(&blob[..cut]).err();
        let quant_err = quant_load(&blob[..cut]).err();
        assert_eq!(
            f32_err.map(|e| e.to_string()),
            quant_err.map(|e| e.to_string()),
            "truncation in {name}: quantized load must fail exactly like f32"
        );
        for pos in [lo, (lo + hi) / 2, hi - 1] {
            let mut bad = blob.clone();
            bad[pos] ^= 1 << 3;
            let f32_err = AnnotatorBundle::load(&bad).err();
            let quant_err = quant_load(&bad).err();
            assert!(quant_err.is_some(), "flip at byte {pos} ({name}) reached quantization");
            assert_eq!(
                f32_err.map(|e| e.to_string()),
                quant_err.map(|e| e.to_string()),
                "flip in {name}: quantized load must fail exactly like f32"
            );
        }
    }
}

/// A diverged fine-tune saves a blob that is structurally perfect and
/// CRC-valid but holds NaN/inf weights. Serving it would feed non-finite
/// scores to every request, so `load` rejects it by parameter name — in
/// the f32 and the int8 pipeline alike, before quantization.
#[test]
fn non_finite_weights_are_rejected_at_load() {
    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut b = bundle();
        let id = b.store.find("m.type.out.w").expect("type head weight");
        b.store.get_mut(id).data_mut()[3] = poison;
        let blob = b.save();
        for quant in [false, true] {
            let loaded = AnnotatorBundle::load(&blob).map(|l| quant.then(|| l.quantized()));
            match loaded {
                Err(BundleError::NonFinite(name)) => assert_eq!(name, "m.type.out.w"),
                Err(other) => panic!("{poison} weight: wrong error {other}"),
                Ok(_) => panic!("{poison} weight loaded (quant: {quant})"),
            }
        }
    }
}

/// A clean blob quantizes identically whether the bundle was freshly built
/// or round-tripped through checkpoint bytes: the weights the CRC protects
/// are the weights the int8 packer reads.
#[test]
fn clean_blob_quantizes_identically_after_round_trip() {
    let b = bundle();
    let loaded = AnnotatorBundle::load(&b.save()).expect("clean blob loads");
    let t = table();
    let groups = [b.model.serialize_for_types(&t, &b.tokenizer)];
    let refs: Vec<&[_]> = groups.iter().map(Vec::as_slice).collect();
    let fresh = b.quantized().annotate_serialized(&b.annotator(), &refs);
    let reloaded = loaded.quantized().annotate_serialized(&loaded.annotator(), &refs);
    for (x, y) in fresh.iter().zip(&reloaded) {
        assert_eq!(x.types.len(), y.types.len());
        for (p, q) in x.types.iter().zip(&y.types) {
            for ((n1, s1), (n2, s2)) in p.labels.iter().zip(&q.labels) {
                assert_eq!(n1, n2);
                assert_eq!(s1.to_bits(), s2.to_bits(), "int8 scores must survive the round trip");
            }
        }
    }
}

#[test]
fn sampled_bit_flips_never_panic() {
    let b = bundle();
    let blob = b.save();
    let step = (blob.len() / 509).max(1);
    for pos in (0..blob.len()).step_by(step) {
        let mut bad = blob.clone();
        bad[pos] ^= 0x10;
        assert!(AnnotatorBundle::load(&bad).is_err(), "flip at byte {pos} loaded");
    }
}
