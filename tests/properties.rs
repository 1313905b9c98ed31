//! Property-based tests (proptest) over the core invariants of the
//! reproduction: serialization structure, tokenizer behavior, metric
//! bounds, clustering-metric invariances, autograd correctness on randomly
//! shaped inputs, and the parsers of untrusted bytes — the daemon's HTTP
//! framing, the client's response-head reader, the stream endpoint's
//! document splitter, the JSON reader and the checkpoint loader — on
//! generated and arbitrary bytes.
#![allow(clippy::needless_range_loop)]

use doduo_core::{AnnotatorBundle, DoduoConfig, DoduoModel};
use doduo_eval::{completeness, connected_components, homogeneity, multi_label_micro, v_measure};
use doduo_served::http::{
    parse_head, read_response_head, reason_for, render_response, BodyDecoder, BodyFraming, Head,
    ReadError, MAX_HEAD_BYTES,
};
use doduo_served::json::{Json, StreamSplitter};
use doduo_table::{serialize_table, Column, LabelVocab, SerializeConfig, Table};
use doduo_tensor::{Gradients, ParamStore, Tape, Tensor};
use doduo_tokenizer::{TrainConfig, WordPiece, CLS, SEP};
use doduo_transformer::EncoderConfig;
use proptest::prelude::*;

fn word() -> impl Strategy<Value = String> {
    "[a-z]{1,8}".prop_map(|s| s)
}

fn cell() -> impl Strategy<Value = String> {
    prop_oneof![
        word(),
        "[0-9]{1,6}".prop_map(|s| s),
        (word(), word()).prop_map(|(a, b)| format!("{a} {b}")),
    ]
}

fn table() -> impl Strategy<Value = Table> {
    (1usize..5, 1usize..5).prop_flat_map(|(cols, rows)| {
        proptest::collection::vec(proptest::collection::vec(cell(), rows..rows + 1), cols..cols + 1)
            .prop_map(|columns| Table::new("prop", columns.into_iter().map(Column::new).collect()))
    })
}

fn shared_tokenizer() -> &'static WordPiece {
    use std::sync::OnceLock;
    static TOK: OnceLock<WordPiece> = OnceLock::new();
    TOK.get_or_init(|| {
        WordPiece::train(
            // Every letter/digit both word-initial and as a continuation
            // piece, so any [a-z0-9]+ word can be decomposed.
            [
                "the quick brown fox jumps over the lazy dog",
                "0 1 2 3 4 5 6 7 8 9",
                "x0 x1 x2 x3 x4 x5 x6 x7 x8 x9",
                "a b c d e f g h i j k l m n o p q r s t u v w x y z",
                "xa xb xc xd xe xf xg xh xi xj xk xl xm xn xo xp xq xr xs xt xu xv xw xx xy xz",
            ],
            &TrainConfig { merges: 100, min_pair_count: 1, max_word_len: 24 },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// serialize(T) structure (§4.2): one [CLS] per column at the recorded
    /// positions, exactly one trailing [SEP], length within the cap, and
    /// col_of_token aligned.
    #[test]
    fn serialization_structure_invariants(t in table(), budget in 1usize..40, cap in 16usize..128) {
        let tok = shared_tokenizer();
        let cfg = SerializeConfig::new(budget, cap);
        let st = serialize_table(&t, tok, &cfg);
        prop_assert_eq!(st.cls_positions.len(), t.n_cols());
        prop_assert!(st.ids.len() <= cap);
        prop_assert_eq!(st.ids.len(), st.col_of_token.len());
        prop_assert_eq!(*st.ids.last().unwrap(), SEP);
        prop_assert_eq!(st.ids.iter().filter(|&&i| i == CLS).count(), t.n_cols());
        for (c, &p) in st.cls_positions.iter().enumerate() {
            prop_assert_eq!(st.ids[p as usize], CLS);
            prop_assert_eq!(st.col_of_token[p as usize], c as u32);
        }
        // Column ids are non-decreasing over the sequence (SEP sentinel at the end).
        let cols: Vec<u32> = st.col_of_token[..st.col_of_token.len() - 1].to_vec();
        prop_assert!(cols.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Tokenizer encodes never panic, never emit special ids, and decoding
    /// known-alphabet words roundtrips.
    #[test]
    fn tokenizer_safety(text in proptest::collection::vec(word(), 1..6)) {
        let tok = shared_tokenizer();
        let joined = text.join(" ");
        let ids = tok.encode(&joined);
        prop_assert!(ids.iter().all(|&i| (i as usize) < tok.vocab_size()));
        prop_assert!(ids.iter().all(|&i| i > 4 || i == doduo_tokenizer::UNK));
        let decoded = tok.decode(&ids);
        prop_assert_eq!(decoded, joined);
    }

    /// Micro F1 stays in [0,1], equals 1 iff predictions match gold sets.
    #[test]
    fn micro_f1_bounds(
        labels in proptest::collection::vec(
            (proptest::collection::vec(0u32..6, 1..3), proptest::collection::vec(0u32..6, 1..3)),
            1..20
        )
    ) {
        let pred: Vec<Vec<u32>> = labels.iter().map(|(p, _)| { let mut p = p.clone(); p.sort_unstable(); p.dedup(); p }).collect();
        let gold: Vec<Vec<u32>> = labels.iter().map(|(_, g)| { let mut g = g.clone(); g.sort_unstable(); g.dedup(); g }).collect();
        let m = multi_label_micro(&pred, &gold);
        prop_assert!((0.0..=1.0).contains(&m.f1));
        prop_assert!((0.0..=1.0).contains(&m.precision));
        prop_assert!((0.0..=1.0).contains(&m.recall));
        let self_match = multi_label_micro(&gold, &gold);
        prop_assert!((self_match.f1 - 1.0).abs() < 1e-12);
    }

    /// V-measure is permutation-invariant in cluster ids and bounded.
    #[test]
    fn v_measure_invariances(assign in proptest::collection::vec(0usize..5, 2..30), offset in 1usize..7) {
        let gold: Vec<usize> = assign.iter().map(|&a| a % 3).collect();
        let pred = assign.clone();
        let v = v_measure(&gold, &pred);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        // Relabeling predictions must not change any score.
        let relabeled: Vec<usize> = pred.iter().map(|&p| (p + offset) * 13).collect();
        prop_assert!((v_measure(&gold, &relabeled) - v).abs() < 1e-9);
        prop_assert!((homogeneity(&gold, &relabeled) - homogeneity(&gold, &pred)).abs() < 1e-9);
        prop_assert!((completeness(&gold, &relabeled) - completeness(&gold, &pred)).abs() < 1e-9);
    }

    /// Connected components: every match really merges, non-matches stay
    /// apart (checked against a brute-force reachability).
    #[test]
    fn connected_components_correct(n in 2usize..12, edges in proptest::collection::vec((0usize..12, 0usize..12), 0..10)) {
        let edges: Vec<(usize, usize)> = edges.into_iter()
            .filter(|&(a, b)| a < n && b < n && a != b)
            .collect();
        let cc = connected_components(n, &edges);
        // Brute force reachability.
        let mut reach = vec![vec![false; n]; n];
        for i in 0..n { reach[i][i] = true; }
        for &(a, b) in &edges { reach[a][b] = true; reach[b][a] = true; }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    if reach[i][k] && reach[k][j] {
                        reach[i][j] = true;
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(cc[i] == cc[j], reach[i][j], "nodes {} {}", i, j);
            }
        }
    }

    /// Autograd: analytic gradients of a random two-layer network match
    /// finite differences for random shapes.
    #[test]
    fn autograd_matches_finite_differences(
        rows in 1usize..4,
        inner in 1usize..5,
        classes in 2usize..4,
        seed in 0u64..1000,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut store = ParamStore::new();
        let w = store.add_randn("w", 3, inner, 0.5, &mut rng);
        let b = store.add_zeros("b", 1, inner);
        let out = store.add_randn("out", inner, classes, 0.5, &mut rng);
        let out_b = store.add_zeros("out_b", 1, classes);
        let x = Tensor::randn(rows, 3, 1.0, &mut rng);
        let targets: Vec<u32> = (0..rows).map(|i| (i % classes) as u32).collect();

        let loss_fn = |store: &ParamStore| {
            let mut tape = Tape::new(store);
            let xn = tape.input(x.clone());
            let h = tape.linear(xn, w, b);
            let a = tape.gelu(h);
            let logits = tape.linear(a, out, out_b);
            let l = tape.softmax_ce(logits, &targets);
            tape.value(l).scalar_value()
        };

        let mut grads = Gradients::new(&store);
        {
            let mut tape = Tape::new(&store);
            let xn = tape.input(x.clone());
            let h = tape.linear(xn, w, b);
            let a = tape.gelu(h);
            let logits = tape.linear(a, out, out_b);
            let l = tape.softmax_ce(logits, &targets);
            tape.backward(l, &mut grads);
        }
        // Check a few random scalars of `w` against central differences.
        let eps = 1e-2f32;
        for &i in &[0usize, (3 * inner - 1) / 2, 3 * inner - 1] {
            let orig = store.get(w).data()[i];
            store.get_mut(w).data_mut()[i] = orig + eps;
            let up = loss_fn(&store);
            store.get_mut(w).data_mut()[i] = orig - eps;
            let down = loss_fn(&store);
            store.get_mut(w).data_mut()[i] = orig;
            let numeric = (up - down) / (2.0 * eps);
            let analytic = grads.get(w).map_or(0.0, |g| g.data()[i]);
            prop_assert!(
                (numeric - analytic).abs() < 0.05 + 0.05 * numeric.abs().max(analytic.abs()),
                "grad mismatch at {}: {} vs {}", i, numeric, analytic
            );
        }
    }
}

/// The pipelined request after every generated one.
const NEXT: &[u8] = b"GET /v1/healthz HTTP/1.1\r\n\r\n";

/// Payload bytes (any value but 255, which the range leaves out).
fn payload(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..255, len)
}

/// A valid request — random headers on CRLF or bare-LF lines, then no
/// body, a `Content-Length` one, or a chunked one with random sizes,
/// extensions, hex case and trailers — followed by [`NEXT`]. Returns the
/// bytes, the head's length, its framing, the body and the body's length
/// on the wire.
fn wire() -> impl Strategy<Value = (Vec<u8>, usize, BodyFraming, Vec<u8>, usize)> {
    let headers = proptest::collection::vec("x-[a-z]{1,6}: [a-z0-9]{0,10}", 0..4);
    let ext = prop_oneof![Just(String::new()), ";[a-z]{1,5}", ";[a-z]{1,4}=[a-z0-9]{1,4}"];
    let chunks = proptest::collection::vec((payload(1..40), ext, 0u8..2), 0..6);
    let trailers = proptest::collection::vec("x-[a-z]{1,5}: [a-z]{0,6}", 0..3);
    (headers, 0u8..2, 0u8..3, payload(0..300), chunks, trailers).prop_map(
        |(headers, bare_lf, kind, payload, chunks, trailers)| {
            let eol = if bare_lf == 1 { "\n" } else { "\r\n" };
            let mut head = format!("POST /v1/annotate?q=1 HTTP/1.1{eol}");
            headers.iter().for_each(|h| head.push_str(&format!("{h}{eol}")));
            let (framing, framed, body) = match kind {
                0 => (BodyFraming::None, Vec::new(), Vec::new()),
                1 => {
                    head.push_str(&format!("content-length: {}{eol}", payload.len()));
                    (BodyFraming::Length(payload.len()), payload.clone(), payload)
                }
                _ => {
                    head.push_str(&format!("transfer-encoding: chunked{eol}"));
                    let mut framed = Vec::new();
                    for (data, ext, upper) in &chunks {
                        let n = data.len();
                        let size = if *upper == 1 { format!("{n:X}") } else { format!("{n:x}") };
                        framed.extend(
                            [format!("{size}{ext}\r\n").as_bytes(), data, b"\r\n"].concat(),
                        );
                    }
                    framed.extend_from_slice(b"0\r\n");
                    trailers.iter().for_each(|t| framed.extend(format!("{t}\r\n").into_bytes()));
                    framed.extend_from_slice(b"\r\n");
                    (BodyFraming::Chunked, framed, chunks.into_iter().flat_map(|c| c.0).collect())
                }
            };
            head.push_str(eol);
            let framed_len = framed.len();
            ([head.as_bytes(), &framed, NEXT].concat(), head.len(), framing, body, framed_len)
        },
    )
}

/// What feeding a request found: the head, the bytes the head and the body
/// took, the body, and the bytes left over.
type Fed = (Head, usize, usize, Vec<u8>, Vec<u8>);

/// Feeds `bytes` the way the reactor does, in pieces of `pieces` (cycled):
/// each is appended to a buffer, the head is parsed off its front once
/// complete — every earlier parse must ask for more — and the decoder then
/// eats from the front of what remains, all of it until the body ends.
fn feed(bytes: &[u8], pieces: &[usize]) -> Result<Fed, String> {
    let (mut buf, mut body, mut used) = (Vec::new(), Vec::new(), 0);
    let mut head: Option<(Head, usize, BodyDecoder)> = None;
    let mut at = 0;
    for &len in pieces.iter().cycle() {
        if at == bytes.len() {
            break;
        }
        let end = (at + len).min(bytes.len());
        buf.extend_from_slice(&bytes[at..end]);
        at = end;
        if head.is_none() {
            let Some((h, n)) = parse_head(&buf).map_err(|e| format!("head: {e:?}"))? else {
                continue;
            };
            buf.drain(..n);
            let dec = BodyDecoder::new(h.framing);
            head = Some((h, n, dec));
        }
        let (_, _, dec) = head.as_mut().expect("parsed above");
        if !dec.is_done() {
            let n = dec.push(&buf, &mut body).map_err(|e| format!("body: {e:?}"))?;
            if !dec.is_done() && n != buf.len() {
                return Err(format!("an unfinished body left {} bytes", buf.len() - n));
            }
            buf.drain(..n);
            used += n;
        }
    }
    let (h, n, dec) = head.ok_or("the head never completed")?;
    if !dec.is_done() {
        return Err("the body never completed".into());
    }
    Ok((h, n, used, body, buf))
}

/// Bytes built from HTTP's pieces often enough to reach the header and
/// chunk grammars, and from any other byte.
fn noise() -> impl Strategy<Value = Vec<u8>> {
    let piece = prop_oneof![
        (0u8..255).prop_map(|b| vec![b]),
        Just(b"\r\n".to_vec()),
        Just(b"POST / HTTP/1.1".to_vec()),
        Just(b"content-length:".to_vec()),
        Just(b"transfer-encoding: chunked".to_vec()),
        "[0-9a-fA-F+;= ]{1,6}".prop_map(String::into_bytes),
    ];
    proptest::collection::vec(piece, 0..80).prop_map(|pieces| pieces.concat())
}

/// Decodes `bytes` under `framing`, capped and uncapped, in pieces of
/// `pieces` (cycled): each push may take what it was given (or less, once
/// the body ends) or reject with `Bad` / `TooLarge`.
fn decode_noise(framing: BodyFraming, bytes: &[u8], pieces: &[usize]) -> Result<(), String> {
    for mut dec in [BodyDecoder::new(framing), BodyDecoder::unbounded(framing)] {
        let mut at = 0;
        for &len in pieces.iter().cycle() {
            if at == bytes.len() || dec.is_done() {
                break;
            }
            let end = (at + len).min(bytes.len());
            match dec.push(&bytes[at..end], &mut Vec::new()) {
                Ok(n) if n <= end - at => at = end,
                Ok(n) => return Err(format!("took {n} of {} bytes", end - at)),
                Err(ReadError::Bad(_) | ReadError::TooLarge(_)) => break,
                Err(e) => return Err(format!("a decode is not timed: {e:?}")),
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `parse_head` + `BodyDecoder` are split-invariant: a valid request
    /// fed in any pieces gives the same head, bytes taken and body as one
    /// whole feed, which finds what was generated and leaves the pipelined
    /// request after it untouched.
    #[test]
    fn http_framing_is_split_invariant(w in wire(), pieces in proptest::collection::vec(1usize..24, 1..32)) {
        let (bytes, head_len, framing, body, framed_len) = w;
        let whole = feed(&bytes, &[bytes.len()])?;
        prop_assert_eq!(whole.0.framing, framing);
        prop_assert_eq!((whole.1, whole.2), (head_len, framed_len));
        prop_assert_eq!((&whole.3[..], &whole.4[..]), (&body[..], NEXT));
        prop_assert_eq!(feed(&bytes, &pieces)?, whole, "pieces {:?}", pieces);
    }

    /// Arbitrary bytes — alone, behind a request line, or as a chunked body
    /// — never panic either parser: a head parse asks for more, is `Bad` or
    /// `TooLarge`, or parses and its body then decodes or is rejected; and
    /// every framing decodes the raw bytes the same ways.
    #[test]
    fn http_framing_never_panics_on_arbitrary_bytes(
        form in 0u8..3, noise in noise(), len in 0usize..300, pieces in proptest::collection::vec(1usize..24, 1..8),
    ) {
        let prefix: &[u8] = match form {
            0 => b"",
            1 => b"POST /v1/annotate HTTP/1.1\r\n",
            _ => b"POST /v1/annotate HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        };
        let bytes = [prefix, &noise, if form == 1 { b"\r\n\r\n" } else { b"" }].concat();
        match parse_head(&bytes) {
            Ok(None) | Err(ReadError::Bad(_) | ReadError::TooLarge(_)) => {}
            Err(e) => prop_assert!(false, "a head parse is not timed: {:?}", e),
            Ok(Some((head, n))) => decode_noise(head.framing, &bytes[n..], &pieces)?,
        }
        for framing in [BodyFraming::None, BodyFraming::Length(len), BodyFraming::Chunked] {
            decode_noise(framing, &bytes, &pieces)?;
        }
    }
}

/// Splits `bytes` fed in pieces of `pieces` (cycled), stopping at the
/// first error as the stream endpoint does: every document, whether it
/// errored, and whether a document was left open.
fn split(bytes: &[u8], pieces: &[usize]) -> (Vec<String>, bool, bool) {
    let mut splitter = StreamSplitter::new(64);
    let (mut docs, mut at) = (Vec::new(), 0);
    for &len in pieces.iter().cycle() {
        if at == bytes.len() {
            return (docs, false, splitter.mid_document());
        }
        let end = (at + len).min(bytes.len());
        match splitter.push(&bytes[at..end]) {
            Ok(more) => docs.extend(more),
            Err(_) => return (docs, true, splitter.mid_document()),
        }
        at = end;
    }
    unreachable!("the cycle ends when the bytes do")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `read_response_head` — what every client dial reads from a peer —
    /// reads back what `render_response` wrote (status, length,
    /// keep-alive, `retry-after`, `x-model-version`); is an error on every
    /// cut of that head short of its end and on a header line past the
    /// head cap, even one that ends;
    /// and never panics on arbitrary bytes, bare or behind a status line.
    #[test]
    fn response_head_reader_round_trips_and_never_panics(
        status in 200u16..600,
        retry_after in (0u8..2, 0u64..100_000).prop_map(|(on, secs)| (on == 1).then_some(secs)),
        version in (0u8..2, "[0-9]{1,3}-[0-9a-f]{8}").prop_map(|(on, v)| (on == 1).then_some(v)),
        body in payload(0..64),
        keep_alive in (0u8..2).prop_map(|b| b == 1),
        endless in MAX_HEAD_BYTES..2 * MAX_HEAD_BYTES,
        noise in noise(),
    ) {
        let mut extra = String::new();
        if let Some(secs) = retry_after {
            extra.push_str(&format!("retry-after: {secs}\r\n"));
        }
        if let Some(v) = &version {
            extra.push_str(&format!("x-model-version: {v}\r\n"));
        }
        let wire = render_response(status, reason_for(status), "application/json", &extra, &body, keep_alive);
        let head = read_response_head(&mut &wire[..]).map_err(|e| e.to_string())?;
        prop_assert_eq!(head.status, status);
        prop_assert_eq!(head.framing, BodyFraming::Length(body.len()));
        prop_assert_eq!(head.keep_alive, keep_alive);
        prop_assert_eq!(head.retry_after, retry_after);
        prop_assert_eq!(head.model_version, version);
        prop_assert_eq!(head.content_type.as_deref(), Some("application/json"));
        for end in 0..wire.len() - body.len() {
            prop_assert!(read_response_head(&mut &wire[..end]).is_err(), "a head cut at {}", end);
        }
        let long = [&b"HTTP/1.1 200 OK\r\nx-pad: "[..], &vec![b'x'; endless], b"\r\n\r\n"].concat();
        prop_assert!(read_response_head(&mut &long[..]).is_err(), "a header line past the cap");
        let _ = read_response_head(&mut &noise[..]);
        let _ = read_response_head(&mut &[&b"HTTP/1.1 200 OK\r\n"[..], &noise].concat()[..]);
    }

    /// `json::StreamSplitter` — what splits `/v1/annotate_stream` uploads —
    /// never panics on arbitrary bytes (invalid UTF-8, stray quotes and
    /// escapes, documents past its cap), and fed in any pieces it errors
    /// exactly when one whole feed does, and otherwise finds the same
    /// documents and ends in the same state.
    #[test]
    fn stream_splitter_is_split_invariant_on_arbitrary_bytes(
        docs in proptest::collection::vec((0u8..16, proptest::collection::vec(prop_oneof![
            (0u8..255).prop_map(|b| vec![b]),
            Just(vec![0xE2, 0x82]),
            Just(b"{".to_vec()),
            Just(b"}".to_vec()),
            Just(b"[]".to_vec()),
            Just(b"\"".to_vec()),
            Just(b"\\".to_vec()),
            Just(b"{}".to_vec()),
            Just(b"\"k\"".to_vec()),
            Just(br#""a\"}b""#.to_vec()),
            Just(b" ".to_vec()),
            // Plain text, weighted threefold.
            "[a-z:,]{1,8}".prop_map(String::into_bytes),
            "[a-z:,]{1,8}".prop_map(String::into_bytes),
            "[a-z:,]{1,8}".prop_map(String::into_bytes),
        ], 0..10)), 0..8),
        pieces in proptest::collection::vec(1usize..12, 1..8),
    ) {
        // Mostly documents between whitespace, now and then a stray byte
        // where a document should open.
        let bytes: Vec<u8> = docs
            .into_iter()
            .flat_map(|(gap, inner)| {
                let gap = if gap == 0 { vec![b'x'] } else { b" \n"[..gap as usize % 3].to_vec() };
                [gap, b"{".to_vec(), inner.concat(), b"}".to_vec()].concat()
            })
            .collect();
        let whole = split(&bytes, &[bytes.len().max(1)]);
        let (docs, errored, open) = split(&bytes, &pieces);
        prop_assert_eq!(errored, whole.1, "pieces {:?}", pieces);
        if !errored {
            prop_assert_eq!((docs, open), (whole.0, whole.2), "pieces {:?}", pieces);
        }
    }
}

/// A saved `tiny` bundle: the valid checkpoint the loader's fuzz target
/// cuts and edits.
fn checkpoint_blob() -> &'static [u8] {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;
    static BLOB: OnceLock<Vec<u8>> = OnceLock::new();
    BLOB.get_or_init(|| {
        let tok = WordPiece::train(
            ["alpha beta gamma one two three"],
            &TrainConfig { merges: 60, min_pair_count: 1, max_word_len: 16 },
        );
        let (mut types, mut rels) = (LabelVocab::new(), LabelVocab::new());
        types.intern("t.a");
        types.intern("t.b");
        rels.intern("r.x");
        let enc = EncoderConfig::tiny(tok.vocab_size());
        let cfg = DoduoConfig::new(enc, 2, 1, true).with_serialize(SerializeConfig::new(8, 64));
        let mut store = ParamStore::new();
        let model = DoduoModel::new(&mut store, cfg, "m", &mut StdRng::seed_from_u64(3));
        AnnotatorBundle::new(store, model, tok, types, rels, "m").save()
    })
}

/// Rewrites a bundle blob's header CRC (bytes 8..12) to match its payload
/// — the CRC-32 definition, one bit at a time — so an edit reaches the
/// decoders behind the checksum instead of stopping at it.
fn reseal(blob: &mut [u8]) {
    if blob.len() < 12 {
        return;
    }
    let mut crc = 0xFFFF_FFFFu32;
    for &b in &blob[12..] {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    blob[8..12].copy_from_slice(&(!crc).to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `AnnotatorBundle::load` — what `--checkpoint` and `POST /v1/model`
    /// run on bytes from outside — returns a bundle or an error, never a
    /// panic, on: random bytes, bare or behind the bundle magic with a
    /// matching CRC; random prefixes of a valid blob; and random byte edits
    /// of one, CRC fixed up after — a third anywhere, a third in the first
    /// KiB (tokenizer, vocabularies, first record framing), a third in the
    /// first 80 bytes (the config scalars).
    /// Whatever loads reports the header CRC it was verified against and
    /// saves to a blob that loads again.
    #[test]
    fn checkpoint_load_never_panics(
        form in 0u8..4,
        noise in proptest::collection::vec(0u8..255, 0..600),
        cut in 0usize..usize::MAX,
        edits in proptest::collection::vec((0u8..3, 0usize..usize::MAX, 0u8..255), 1..6),
    ) {
        let blob = checkpoint_blob();
        let bytes = match form {
            0 => noise,
            1 => {
                let mut b = [&blob[..12], &noise].concat();
                reseal(&mut b);
                b
            }
            2 => blob[..cut % (blob.len() + 1)].to_vec(),
            _ => {
                let mut b = blob.to_vec();
                for (front, pos, byte) in edits {
                    let span = [b.len(), 1024, 80][front as usize].min(b.len());
                    b[pos % span] = byte;
                }
                reseal(&mut b);
                b
            }
        };
        if let Ok(loaded) = AnnotatorBundle::load(&bytes) {
            prop_assert_eq!(Some(loaded.crc()), doduo_core::blob_crc(&bytes));
            prop_assert!(AnnotatorBundle::load(&loaded.save()).is_ok(), "a loaded bundle re-saves");
        }
    }
}

/// The JSON reader's hard cases: punctuation, the pieces of numbers JSON
/// rejects (`1.`, `-.5`, `007`, `1e`), every escape (`\u` surrogate pairs,
/// lone or cut halves, a signed `\u+041` among them), raw control bytes,
/// and one-, two-, three- and four-byte characters.
const JSON_PIECES: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    " ",
    "-1.5e3",
    "0",
    ".",
    "e",
    "+",
    "00",
    "\\u+041",
    "true",
    "nul",
    "\\n",
    "\\\"",
    "\\\\",
    "\\/",
    "\\b\\f\\r\\t",
    "\\u0041",
    "\\ud834\\udd1e",
    "\\ud834",
    "\\udd1e",
    "\\u12",
    "\\x",
    "\u{0}",
    "\u{1f}",
    "\n",
    "\t",
    "é",
    "☃",
    "𝄞",
];

fn json_text() -> impl Strategy<Value = String> {
    let piece =
        prop_oneof![(0..JSON_PIECES.len()).prop_map(|i| JSON_PIECES[i].to_string()), "[a-z]{1,6}"];
    proptest::collection::vec(piece, 0..40).prop_map(|pieces| pieces.concat())
}

/// A random value tree whose strings draw from [`JSON_PIECES`], so its
/// encoding escapes quotes, backslashes and control bytes and carries
/// multi-byte and astral characters raw.
fn json_tree(rng: &mut rand::rngs::StdRng, depth: usize) -> Json {
    use rand::Rng;
    let text = |rng: &mut rand::rngs::StdRng| -> String {
        (0..rng.gen_range(0..6)).map(|_| JSON_PIECES[rng.gen_range(0..JSON_PIECES.len())]).collect()
    };
    match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => Json::Num(rng.gen_range(-1e6..1e6)),
        3 => Json::Str(text(rng)),
        4 => Json::Arr((0..rng.gen_range(0..4)).map(|_| json_tree(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.gen_range(0..4)).map(|_| (text(rng), json_tree(rng, depth - 1))).collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Json::parse` — what every `/v1/annotate` body and stream document
    /// goes through on the reactor thread — never panics on text built
    /// from JSON's hard cases, nor on any prefix of an encoded value tree;
    /// whatever it accepts re-encodes to text that parses to the same
    /// value, and a whole encoding parses back to its tree.
    #[test]
    fn json_parse_never_panics_and_round_trips(noise in json_text(), seed in 0u64..u64::MAX) {
        use rand::SeedableRng;
        if let Ok(v) = Json::parse(&noise) {
            prop_assert_eq!(Json::parse(&v.encode()), Ok(v), "from {:?}", noise);
        }
        let tree = json_tree(&mut rand::rngs::StdRng::seed_from_u64(seed), 2);
        let enc = tree.encode();
        for (end, _) in enc.char_indices() {
            let _ = Json::parse(&enc[..end]);
        }
        prop_assert_eq!(Json::parse(&enc), Ok(tree), "{}", enc);
    }
}
