//! The Doduo model (§4, Figure 1).
//!
//! A shared Transformer encoder over the serialized table plus two output
//! heads (hard parameter sharing):
//!
//! * **column-type head** — dense layer over each column's `[CLS]`
//!   embedding, `softmax(g_type(LM(T)_{i_j}))` (eq. 1);
//! * **column-relation head** — dense layer over the *concatenation* of two
//!   column `[CLS]` embeddings, `softmax(g_rel(LM(T)_{i_j} ⊕ LM(T)_{i_k}))`
//!   (eq. 2).
//!
//! The same struct also covers the paper's ablations: `Dosolo` is this model
//! trained on one task only; `DosoloSCol` sets [`InputMode::SingleColumn`]
//! (per-column / per-pair serialization, §4.1); the TURL baseline sets
//! [`AttentionMode::ColumnVisibility`] which restricts self-attention with
//! TURL's visibility matrix (§5.4).

use doduo_table::{
    serialize_column_pair, serialize_single_column, serialize_table, SerializeConfig,
    SerializedTable, Table, NO_COLUMN,
};
use doduo_tensor::{AttnMask, Fill, Init, ParamId, ParamStore};
use doduo_tokenizer::WordPiece;
use doduo_transformer::{mask_from_fn, BatchSeq, Dense, Encoder, EncoderConfig, Ops};
use rand::Rng;

/// How tables are presented to the encoder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InputMode {
    /// Doduo's table-wise serialization: the whole table in one sequence,
    /// one `[CLS]` per column (§4.2).
    TableWise,
    /// The single-column baseline (§4.1, `DosoloSCol`): each column (or
    /// column pair) is its own sequence.
    SingleColumn,
}

/// Self-attention connectivity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttentionMode {
    /// Doduo: full self-attention across the serialized table.
    Full,
    /// TURL's visibility matrix: cell tokens see only their own column (plus
    /// `[SEP]`); `[CLS]` column markers see each other (§5.4).
    ColumnVisibility,
}

/// Model + task configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct DoduoConfig {
    /// Shape of the shared encoder.
    pub encoder: EncoderConfig,
    /// Size of the column-type label space `|C_type|`.
    pub n_types: usize,
    /// Size of the column-relation label space `|C_rel|`.
    pub n_rels: usize,
    /// `true` for WikiTable-style multi-label tasks (BCE loss, §5.3);
    /// `false` for VizNet-style multi-class (cross-entropy).
    pub multi_label: bool,
    /// Table-serialization policy (§4.2 token budgets, `+metadata`).
    pub serialize: SerializeConfig,
    /// Table-wise vs single-column serialization (§4.1-4.2).
    pub input_mode: InputMode,
    /// Full vs TURL-style visibility-restricted attention (§5.4).
    pub attention: AttentionMode,
}

impl DoduoConfig {
    /// Doduo with sensible experiment defaults on top of a given encoder.
    pub fn new(encoder: EncoderConfig, n_types: usize, n_rels: usize, multi_label: bool) -> Self {
        let max_seq = encoder.max_seq;
        DoduoConfig {
            encoder,
            n_types,
            n_rels,
            multi_label,
            serialize: SerializeConfig::new(32, max_seq),
            input_mode: InputMode::TableWise,
            attention: AttentionMode::Full,
        }
    }

    /// Switches the serialization/input mode (builder style).
    pub fn with_input_mode(mut self, mode: InputMode) -> Self {
        self.input_mode = mode;
        self
    }

    /// Switches the attention connectivity (builder style).
    pub fn with_attention(mut self, attention: AttentionMode) -> Self {
        self.attention = attention;
        self
    }

    /// Replaces the serialization policy (builder style).
    pub fn with_serialize(mut self, s: SerializeConfig) -> Self {
        self.serialize = s;
        self
    }
}

/// The two output heads `{g_type, g_rel}` as a forward applies them — each
/// dense → GELU → dense — over whichever tier's [`Dense`] layers (the f32
/// parameters, [`DoduoModel::heads`], or their int8 twins,
/// `QuantizedModel::heads`) and on whichever backend ([`Ops`]: a tape or
/// the serving executor).
pub(crate) struct Heads<'a> {
    pub(crate) type_dense: Dense<'a>,
    pub(crate) type_out: Dense<'a>,
    pub(crate) rel_dense: Dense<'a>,
    pub(crate) rel_out: Dense<'a>,
}

fn head<F: Ops>(f: &mut F, x: &F::Node, dense: Dense<'_>, out: Dense<'_>) -> F::Node {
    let h = f.dense(x, dense);
    let act = f.gelu(h);
    let logits = f.dense(&act, out);
    f.free(act);
    logits
}

impl Heads<'_> {
    /// Column-type logits `[n_cols, |C_type|]` from column embeddings.
    pub(crate) fn type_logits<F: Ops>(&self, f: &mut F, cols: &F::Node) -> F::Node {
        head(f, cols, self.type_dense, self.type_out)
    }

    /// Relation logits for `n` column pairs, from a `[_, d]`
    /// column-embedding node and parallel subject/object row indices into
    /// it (eq. 2's `g_rel(LM(T)_{i_j} ⊕ LM(T)_{i_k})`). The batched
    /// annotation walk selects rows out of a whole batch's packed column
    /// matrix here.
    pub(crate) fn rel_logits<F: Ops>(
        &self,
        f: &mut F,
        cols: &F::Node,
        n: usize,
        subj: impl Iterator<Item = u32>,
        obj: impl Iterator<Item = u32>,
    ) -> F::Node {
        assert!(n > 0, "no relation pairs requested");
        let a = f.row_select(cols, n, subj);
        let b = f.row_select(cols, n, obj);
        let pair = f.concat_cols(a, b);
        let logits = head(f, &pair, self.rel_dense, self.rel_out);
        f.free(pair);
        logits
    }
}

/// The Doduo annotation model `M = (LM, {g_type, g_rel})`.
pub struct DoduoModel {
    cfg: DoduoConfig,
    /// The shared Transformer encoder (`LM` in `M = (LM, {g_type, g_rel})`).
    pub encoder: Encoder,
    pub(crate) type_dense_w: ParamId,
    pub(crate) type_dense_b: ParamId,
    pub(crate) type_out_w: ParamId,
    pub(crate) type_out_b: ParamId,
    pub(crate) rel_dense_w: ParamId,
    pub(crate) rel_dense_b: ParamId,
    pub(crate) rel_out_w: ParamId,
    pub(crate) rel_out_b: ParamId,
}

impl DoduoModel {
    /// Registers encoder + head parameters. The relation head consumes `2d`
    /// (a pair of column embeddings) in table-wise mode and `d` (the single
    /// `[CLS]` of a serialized pair) in single-column mode. Every value
    /// comes from `init`: drawn from a random source, or restored from a
    /// checkpoint's records (see [`Encoder::new`]).
    pub fn new<I: Init + ?Sized>(
        store: &mut ParamStore,
        cfg: DoduoConfig,
        prefix: &str,
        init: &mut I,
    ) -> Self {
        let encoder = Encoder::new(store, cfg.encoder.clone(), prefix, init);
        let d = cfg.encoder.hidden;
        let rel_in = match cfg.input_mode {
            InputMode::TableWise => 2 * d,
            InputMode::SingleColumn => d,
        };
        let (n_types, n_rels) = (cfg.n_types, cfg.n_rels.max(1));
        let mut p = |s: &str, rows, cols, fill| {
            store.init(format!("{prefix}.{s}"), rows, cols, fill, &mut *init)
        };
        let w = Fill::Randn(0.02);
        DoduoModel {
            encoder,
            type_dense_w: p("type.dense.w", d, d, w),
            type_dense_b: p("type.dense.b", 1, d, Fill::Zeros),
            type_out_w: p("type.out.w", d, n_types, w),
            type_out_b: p("type.out.b", 1, n_types, Fill::Zeros),
            rel_dense_w: p("rel.dense.w", rel_in, d, w),
            rel_dense_b: p("rel.dense.b", 1, d, Fill::Zeros),
            rel_out_w: p("rel.out.w", d, n_rels, w),
            rel_out_b: p("rel.out.b", 1, n_rels, Fill::Zeros),
            cfg,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &DoduoConfig {
        &self.cfg
    }

    /// Builds TURL's visibility mask for a serialized table: token `i` sees
    /// token `j` iff they share a column, `j` is `[SEP]`, or both are
    /// column `[CLS]` markers.
    pub fn visibility_mask(&self, st: &SerializedTable) -> Option<AttnMask> {
        match self.cfg.attention {
            AttentionMode::Full => None,
            AttentionMode::ColumnVisibility => {
                let col = st.col_of_token.clone();
                let is_cls: Vec<bool> = {
                    let mut v = vec![false; st.ids.len()];
                    for &p in &st.cls_positions {
                        v[p as usize] = true;
                    }
                    v
                };
                Some(mask_from_fn(st.ids.len(), move |i, j| {
                    col[i] == col[j]
                        || col[j] == NO_COLUMN
                        || col[i] == NO_COLUMN
                        || (is_cls[i] && is_cls[j])
                }))
            }
        }
    }

    /// Encodes a serialized table on backend `f` — a training tape (`rng`
    /// feeds its dropout), an inference tape or the executor — and returns
    /// the `[n_cols, d]` matrix of contextualized column representations
    /// (the `[CLS]` rows, §4.3). Those rows are all the heads read, so they
    /// are all the encoder keeps of its top layer: the last block computes
    /// — and a tape's `backward` differentiates — `n_cols` rows, not
    /// `st.len()`, to the bits and the `rng` state of doing them all.
    pub fn column_embeddings<F: Ops, R: Rng + ?Sized>(
        &self,
        f: &mut F,
        st: &SerializedTable,
        rng: &mut R,
    ) -> F::Node {
        let mask = self.visibility_mask(st);
        let seq = std::iter::once(BatchSeq { ids: &st.ids, mask: mask.as_ref() });
        let cls = std::iter::once(Some(st.cls_positions.as_slice()));
        self.encoder.encode(f, seq, cls, rng)
    }

    /// Both heads over this model's f32 parameters.
    pub(crate) fn heads(&self) -> Heads<'static> {
        Heads {
            type_dense: Dense::F32 { w: self.type_dense_w, b: self.type_dense_b },
            type_out: Dense::F32 { w: self.type_out_w, b: self.type_out_b },
            rel_dense: Dense::F32 { w: self.rel_dense_w, b: self.rel_dense_b },
            rel_out: Dense::F32 { w: self.rel_out_w, b: self.rel_out_b },
        }
    }

    /// Column-type logits for every column of a serialized table, on
    /// backend `f` (see [`DoduoModel::column_embeddings`]).
    pub fn type_logits<F: Ops, R: Rng + ?Sized>(
        &self,
        f: &mut F,
        st: &SerializedTable,
        rng: &mut R,
    ) -> F::Node {
        let cols = self.column_embeddings(f, st, rng);
        let logits = self.heads().type_logits(f, &cols);
        f.free(cols);
        logits
    }

    /// Relation logits `[n_pairs, |C_rel|]` for the given `(subject,
    /// object)` column-index pairs of a table-wise serialization (eq. 2).
    pub fn rel_logits<F: Ops, R: Rng + ?Sized>(
        &self,
        f: &mut F,
        st: &SerializedTable,
        pairs: &[(usize, usize)],
        rng: &mut R,
    ) -> F::Node {
        assert_eq!(
            self.cfg.input_mode,
            InputMode::TableWise,
            "pairwise logits need table-wise mode"
        );
        assert!(!pairs.is_empty(), "no relation pairs requested");
        let cols = self.column_embeddings(f, st, rng);
        let subj = pairs.iter().map(|p| p.0 as u32);
        let obj = pairs.iter().map(|p| p.1 as u32);
        let logits = self.heads().rel_logits(f, &cols, pairs.len(), subj, obj);
        f.free(cols);
        logits
    }

    /// Relation logits for a *single-column-pair* serialization (the
    /// `DosoloSCol` path): the pair's one `[CLS]` embedding feeds the head.
    pub fn rel_logits_single<F: Ops, R: Rng + ?Sized>(
        &self,
        f: &mut F,
        st: &SerializedTable,
        rng: &mut R,
    ) -> F::Node {
        assert_eq!(
            self.cfg.input_mode,
            InputMode::SingleColumn,
            "single-pair logits need single-column mode"
        );
        let cols = self.column_embeddings(f, st, rng);
        let heads = self.heads();
        let logits = head(f, &cols, heads.rel_dense, heads.rel_out);
        f.free(cols);
        logits
    }

    /// Serializes `table` according to this model's input mode for the
    /// *type* task: table-wise → one sequence; single-column → one sequence
    /// per column.
    pub fn serialize_for_types(&self, table: &Table, tok: &WordPiece) -> Vec<SerializedTable> {
        match self.cfg.input_mode {
            InputMode::TableWise => vec![serialize_table(table, tok, &self.cfg.serialize)],
            InputMode::SingleColumn => (0..table.n_cols())
                .map(|c| serialize_single_column(table, c, tok, &self.cfg.serialize))
                .collect(),
        }
    }

    /// Serializes a column pair for the relation task in single-column mode.
    pub fn serialize_pair(
        &self,
        table: &Table,
        a: usize,
        b: usize,
        tok: &WordPiece,
    ) -> SerializedTable {
        serialize_column_pair(table, a, b, tok, &self.cfg.serialize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doduo_table::{Column, Table};
    use doduo_tensor::Tape;
    use doduo_tokenizer::{TrainConfig, WordPiece};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tok() -> WordPiece {
        WordPiece::train(
            ["alpha beta gamma delta epsilon one two three four"],
            &TrainConfig { merges: 100, min_pair_count: 1, max_word_len: 16 },
        )
    }

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                Column::new(vec!["alpha".into(), "beta".into()]),
                Column::new(vec!["one".into(), "two".into()]),
                Column::new(vec!["gamma delta".into(), "epsilon".into()]),
            ],
        )
    }

    fn build(mode: InputMode, attention: AttentionMode) -> (ParamStore, DoduoModel, WordPiece) {
        let t = tok();
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = DoduoConfig::new(EncoderConfig::tiny(t.vocab_size()), 7, 4, true)
            .with_input_mode(mode)
            .with_attention(attention);
        let m = DoduoModel::new(&mut store, cfg, "doduo", &mut rng);
        (store, m, t)
    }

    #[test]
    fn type_logits_shape_table_wise() {
        let (store, m, t) = build(InputMode::TableWise, AttentionMode::Full);
        let st = &m.serialize_for_types(&table(), &t)[0];
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape = Tape::inference(&store);
        let logits = m.type_logits(&mut tape, st, &mut rng);
        assert_eq!(tape.value(logits).shape(), (3, 7));
    }

    #[test]
    fn type_logits_shape_single_column() {
        let (store, m, t) = build(InputMode::SingleColumn, AttentionMode::Full);
        let sts = m.serialize_for_types(&table(), &t);
        assert_eq!(sts.len(), 3, "one sequence per column");
        let mut rng = StdRng::seed_from_u64(1);
        for st in &sts {
            let mut tape = Tape::inference(&store);
            let logits = m.type_logits(&mut tape, st, &mut rng);
            assert_eq!(tape.value(logits).shape(), (1, 7));
        }
    }

    #[test]
    fn rel_logits_shape() {
        let (store, m, t) = build(InputMode::TableWise, AttentionMode::Full);
        let st = &m.serialize_for_types(&table(), &t)[0];
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape = Tape::inference(&store);
        let logits = m.rel_logits(&mut tape, st, &[(0, 1), (0, 2)], &mut rng);
        assert_eq!(tape.value(logits).shape(), (2, 4));
    }

    #[test]
    fn rel_logits_single_pair() {
        let (store, m, t) = build(InputMode::SingleColumn, AttentionMode::Full);
        let st = m.serialize_pair(&table(), 0, 2, &t);
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape = Tape::inference(&store);
        let logits = m.rel_logits_single(&mut tape, &st, &mut rng);
        assert_eq!(tape.value(logits).shape(), (1, 4));
    }

    #[test]
    fn training_logits_and_gradients_match_every_row_then_select_bitwise() {
        // What the trainer records — the encoder keeping the `[CLS]` rows,
        // dropout on — against the same heads over every top-layer row and
        // a `row_select`: logits, every gradient and the next draw from the
        // dropout stream, for both heads, with and without TURL's mask.
        use doduo_tensor::{Gradients, Tensor};
        for attention in [AttentionMode::Full, AttentionMode::ColumnVisibility] {
            let t = tok();
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(5);
            let mut enc = EncoderConfig::tiny(t.vocab_size());
            enc.dropout = 0.1;
            let cfg = DoduoConfig::new(enc, 7, 4, true).with_attention(attention);
            let m = DoduoModel::new(&mut store, cfg, "doduo", &mut rng);
            for p in 0..store.len() {
                let (r, c) = store.get(p).shape();
                *store.get_mut(p) = Tensor::randn(r, c, 0.2, &mut rng);
            }
            let st = &m.serialize_for_types(&table(), &t)[0];
            let pairs = [(0usize, 1usize), (0, 2)];
            for rel in [false, true] {
                let run = |kept: bool| {
                    let mut rng = StdRng::seed_from_u64(9);
                    let mut tape = Tape::new(&store);
                    let logits = match (kept, rel) {
                        (true, false) => m.type_logits(&mut tape, st, &mut rng),
                        (true, true) => m.rel_logits(&mut tape, st, &pairs, &mut rng),
                        (false, _) => {
                            let mask = m.visibility_mask(st);
                            let every_row =
                                m.encoder.forward(&mut tape, &st.ids, mask.as_ref(), &mut rng);
                            let cols = tape.row_select(every_row, &st.cls_positions);
                            if rel {
                                let (subj, obj) = (pairs.iter().map(|p| p.0 as u32), [1u32, 2]);
                                m.heads().rel_logits(&mut tape, &cols, 2, subj, obj.into_iter())
                            } else {
                                m.heads().type_logits(&mut tape, &cols)
                            }
                        }
                    };
                    let (rows, cols) = tape.value(logits).shape();
                    let loss = tape.bce_logits(logits, &Tensor::full(rows, cols, 1.0));
                    let mut grads = Gradients::new(&store);
                    tape.backward(loss, &mut grads);
                    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
                    let grads: Vec<Option<Vec<u32>>> =
                        (0..store.len()).map(|p| grads.get(p).map(bits)).collect();
                    let logits: Vec<u32> = bits(tape.value(logits));
                    (logits, grads, rng.gen::<u64>())
                };
                assert_eq!(run(true), run(false), "{attention:?}, relation head: {rel}");
            }
        }
    }

    #[test]
    fn visibility_mask_blocks_cross_column_cells() {
        let (_store, m, t) = build(InputMode::TableWise, AttentionMode::ColumnVisibility);
        let st = &m.serialize_for_types(&table(), &t)[0];
        let mask = m.visibility_mask(st).expect("visibility mode");
        let s = st.ids.len();
        // A cell token of column 0 (position 1) must NOT see a cell token of
        // column 1 (position right after its CLS).
        let c1_cls = st.cls_positions[1] as usize;
        let cell0 = 1usize;
        let cell1 = c1_cls + 1;
        assert!(mask[cell0 * s + cell1] < -1e8, "cross-column cell edge must be masked");
        // But CLS0 sees CLS1.
        let c0_cls = st.cls_positions[0] as usize;
        assert_eq!(mask[c0_cls * s + c1_cls], 0.0, "CLS-CLS edges stay visible");
        // And everyone sees the final [SEP].
        assert_eq!(mask[cell0 * s + (s - 1)], 0.0);
        // Same-column edges stay visible.
        assert_eq!(mask[cell0 * s + c0_cls], 0.0);
    }

    #[test]
    fn full_attention_has_no_mask() {
        let (_store, m, t) = build(InputMode::TableWise, AttentionMode::Full);
        let st = &m.serialize_for_types(&table(), &t)[0];
        assert!(m.visibility_mask(st).is_none());
    }

    #[test]
    fn turl_and_doduo_differ_in_output() {
        let (store, m_full, t) = build(InputMode::TableWise, AttentionMode::Full);
        let st = &m_full.serialize_for_types(&table(), &t)[0];
        let mut rng = StdRng::seed_from_u64(1);
        let mut tape1 = Tape::inference(&store);
        let full = m_full.type_logits(&mut tape1, st, &mut rng);
        // Same weights, restricted attention.
        let (_s2, m_vis, _t2) = build(InputMode::TableWise, AttentionMode::ColumnVisibility);
        let mut tape2 = Tape::inference(&store);
        let mask = m_vis.visibility_mask(st).unwrap();
        let enc = m_full.encoder.forward(&mut tape2, &st.ids, Some(&mask), &mut rng);
        let cols = tape2.row_select(enc, &st.cls_positions);
        let vis = m_full.heads().type_logits(&mut tape2, &cols);
        let d: f32 = tape1
            .value(full)
            .data()
            .iter()
            .zip(tape2.value(vis).data().iter())
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(d > 1e-4, "visibility restriction must change predictions");
    }
}
