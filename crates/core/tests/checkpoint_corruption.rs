//! Corruption tests for `AnnotatorBundle` checkpoints: truncating or
//! bit-flipping any section of a saved blob must fail `load` with a clean,
//! section-naming error — never a panic, never a silently different model.
//! Bit flips in raw weight floats have no structure to trip over, so the
//! payload CRC is what turns "loads fine, annotates differently" into an
//! error.

use doduo_core::{AnnotatorBundle, BundleError, DoduoConfig, DoduoModel};
use doduo_table::{Column, LabelVocab, SerializeConfig, Table};
use doduo_tensor::ParamStore;
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

#[test]
fn clean_blob_round_trips() {
    let b = bundle();
    let blob = b.save();
    let loaded = AnnotatorBundle::load(&blob).expect("clean blob loads");
    let a = b.annotator().annotate(&table());
    let c = loaded.annotator().annotate(&table());
    for (x, y) in a.types.iter().zip(&c.types) {
        for ((n1, s1), (n2, s2)) in x.labels.iter().zip(&y.labels) {
            assert_eq!(n1, n2);
            assert_eq!(s1.to_bits(), s2.to_bits());
        }
    }
    // The layout map below must cover the blob exactly, or the per-section
    // assertions are aimed at the wrong bytes.
    let ranges = section_ranges(&b, blob.len());
    assert_eq!(ranges.last().expect("sections").2, blob.len());
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
