//! Table serialization (§4.2): turning a table into one token sequence.
//!
//! Doduo's table-wise scheme is
//! `serialize(T) ::= [CLS] v_1^1 ... [CLS] v_1^n ... v_m^n [SEP]` —
//! one `[CLS]` per column whose output embedding becomes that column's
//! contextualized representation. The single-column baseline (§4.1)
//! serializes one column (`[CLS] v_1 ... v_m [SEP]`) or one column pair
//! (`[CLS] v ... [SEP] v' ... [SEP]`).

use crate::model::Table;
use doduo_tokenizer::{WordPiece, CLS, SEP};

/// Marker for tokens not belonging to any column (`[SEP]`).
pub const NO_COLUMN: u32 = u32::MAX;

/// Serialization policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SerializeConfig {
    /// Token budget per column (Table 8's `MaxToken/col`); `0` = unlimited
    /// up to `max_seq`.
    pub max_tokens_per_col: usize,
    /// Overall sequence cap (the encoder's `max_seq`). Column budgets are
    /// shrunk evenly if the table would not fit.
    pub max_seq: usize,
    /// `+metadata` variant (Table 3): prepend the column header to its
    /// values.
    pub include_metadata: bool,
}

impl SerializeConfig {
    pub fn new(max_tokens_per_col: usize, max_seq: usize) -> Self {
        SerializeConfig { max_tokens_per_col, max_seq, include_metadata: false }
    }

    pub fn with_metadata(mut self) -> Self {
        self.include_metadata = true;
        self
    }

    /// How many columns fit under this policy (Table 8's "Max. # of cols"):
    /// each column costs `1 + max_tokens_per_col` tokens plus the final
    /// `[SEP]`.
    pub fn max_supported_cols(&self) -> usize {
        if self.max_tokens_per_col == 0 {
            return 1;
        }
        (self.max_seq - 1) / (1 + self.max_tokens_per_col)
    }
}

/// A serialized token sequence with column bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SerializedTable {
    /// WordPiece ids, including `[CLS]`/`[SEP]` markers.
    pub ids: Vec<u32>,
    /// Position of each column's `[CLS]` token, in column order.
    pub cls_positions: Vec<u32>,
    /// For every token, the column it belongs to ([`NO_COLUMN`] for the
    /// trailing `[SEP]`). `[CLS]` markers belong to their column. Used to
    /// build TURL's visibility matrix.
    pub col_of_token: Vec<u32>,
}

impl SerializedTable {
    pub fn n_cols(&self) -> usize {
        self.cls_positions.len()
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The effective per-column token budget of a table-wise serialization of
/// `n_cols` columns: the configured `max_tokens_per_col`, shrunk evenly so
/// `n_cols` columns (each costing `1 + budget` tokens) plus the trailing
/// `[SEP]` fit under `max_seq`. Exposed so serving-side tokenization caches
/// can key cached column tokens by the exact budget the serializer will
/// use.
pub fn table_wise_budget(cfg: &SerializeConfig, n_cols: usize) -> usize {
    assert!(n_cols > 0, "cannot serialize a table with no columns");
    let mut budget = cfg.max_tokens_per_col;
    let fit = (cfg.max_seq.saturating_sub(1 + n_cols)) / n_cols;
    if budget == 0 || budget > fit {
        budget = fit.max(1);
    }
    budget
}

/// The effective token budget of a single-column serialization (§4.1) —
/// the single-sequence counterpart of [`table_wise_budget`].
pub fn single_column_budget(cfg: &SerializeConfig) -> usize {
    effective_single_budget(cfg, 1)
}

/// Tokenizes one column's content under a token budget: optional header
/// first (the `+metadata` variant), then cell values in row order,
/// truncated to `budget` ids (`0` = unlimited). This is the unit of work a
/// serving-side tokenization cache memoizes.
pub fn column_tokens(
    table: &Table,
    col: usize,
    tok: &WordPiece,
    budget: usize,
    include_metadata: bool,
) -> Vec<u32> {
    let column = &table.columns[col];
    let mut out = Vec::new();
    if include_metadata {
        if let Some(name) = &column.name {
            out.extend(tok.encode(name));
        }
    }
    for v in &column.values {
        if budget > 0 && out.len() >= budget {
            break;
        }
        out.extend(tok.encode(v));
    }
    if budget > 0 && out.len() > budget {
        out.truncate(budget);
    }
    out
}

/// Doduo's table-wise serialization: all columns, one `[CLS]` each, one
/// trailing `[SEP]`.
pub fn serialize_table(table: &Table, tok: &WordPiece, cfg: &SerializeConfig) -> SerializedTable {
    let n = table.n_cols();
    let budget = table_wise_budget(cfg, n);
    let toks: Vec<Vec<u32>> =
        (0..n).map(|c| column_tokens(table, c, tok, budget, cfg.include_metadata)).collect();
    let st = assemble_table_wise(&toks);
    debug_assert!(
        st.ids.len() <= cfg.max_seq,
        "serialized length {} > cap {}",
        st.ids.len(),
        cfg.max_seq
    );
    st
}

/// Assembles a table-wise serialization (§4.2) from already-tokenized
/// columns: `[CLS] toks_1 ... [CLS] toks_n [SEP]`, with the column
/// bookkeeping filled in. [`serialize_table`] is exactly
/// [`column_tokens`] per column (under [`table_wise_budget`]) followed by
/// this assembly, so a caller memoizing column tokens reproduces it
/// byte-identically.
pub fn assemble_table_wise<T: AsRef<[u32]>>(col_tokens: &[T]) -> SerializedTable {
    assert!(!col_tokens.is_empty(), "cannot serialize a table with no columns");
    // One `[CLS]` per column and the trailing `[SEP]`: the length is known,
    // so neither vector grows by doubling (at 166 tokens that took several
    // reallocations each and ended 60% over size).
    let len = col_tokens.iter().map(|t| t.as_ref().len() + 1).sum::<usize>() + 1;
    let mut ids = Vec::with_capacity(len);
    let mut cls_positions = Vec::with_capacity(col_tokens.len());
    let mut col_of_token = Vec::with_capacity(len);
    for (c, toks) in col_tokens.iter().enumerate() {
        let toks = toks.as_ref();
        cls_positions.push(ids.len() as u32);
        ids.push(CLS);
        col_of_token.push(c as u32);
        col_of_token.extend(std::iter::repeat_n(c as u32, toks.len()));
        ids.extend_from_slice(toks);
    }
    ids.push(SEP);
    col_of_token.push(NO_COLUMN);
    SerializedTable { ids, cls_positions, col_of_token }
}

/// Assembles a single-column serialization (§4.1) from already-tokenized
/// content: `[CLS] toks [SEP]`. The cached-tokenization counterpart of
/// [`serialize_single_column`].
pub fn assemble_single_column(tokens: &[u32]) -> SerializedTable {
    let mut ids = Vec::with_capacity(tokens.len() + 2);
    ids.push(CLS);
    ids.extend_from_slice(tokens);
    ids.push(SEP);
    let mut col_of_token = vec![0u32; ids.len()];
    *col_of_token.last_mut().expect("non-empty") = NO_COLUMN;
    SerializedTable { ids, cls_positions: vec![0], col_of_token }
}

/// Single-column serialization (§4.1): `[CLS] values [SEP]`, one `[CLS]`.
pub fn serialize_single_column(
    table: &Table,
    col: usize,
    tok: &WordPiece,
    cfg: &SerializeConfig,
) -> SerializedTable {
    let budget = single_column_budget(cfg);
    assemble_single_column(&column_tokens(table, col, tok, budget, cfg.include_metadata))
}

/// Column-pair serialization (§4.1):
/// `[CLS] v_1..v_m [SEP] v'_1..v'_m [SEP]`. The single `[CLS]` embedding
/// represents the pair.
pub fn serialize_column_pair(
    table: &Table,
    col_a: usize,
    col_b: usize,
    tok: &WordPiece,
    cfg: &SerializeConfig,
) -> SerializedTable {
    let budget = effective_single_budget(cfg, 2);
    let mut ids = vec![CLS];
    let mut col_of_token = vec![0u32];
    let ta = column_tokens(table, col_a, tok, budget, cfg.include_metadata);
    col_of_token.extend(std::iter::repeat_n(0u32, ta.len()));
    ids.extend(ta);
    ids.push(SEP);
    col_of_token.push(NO_COLUMN);
    let tb = column_tokens(table, col_b, tok, budget, cfg.include_metadata);
    col_of_token.extend(std::iter::repeat_n(1u32, tb.len()));
    ids.extend(tb);
    ids.push(SEP);
    col_of_token.push(NO_COLUMN);
    SerializedTable { ids, cls_positions: vec![0], col_of_token }
}

fn effective_single_budget(cfg: &SerializeConfig, parts: usize) -> usize {
    let fit = cfg.max_seq.saturating_sub(1 + parts) / parts;
    if cfg.max_tokens_per_col == 0 || cfg.max_tokens_per_col > fit {
        fit.max(1)
    } else {
        cfg.max_tokens_per_col
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Column;
    use doduo_tokenizer::TrainConfig;

    fn tok() -> WordPiece {
        WordPiece::train(
            [
                "happy feet cars flushed away george miller john lasseter david bowers usa uk france film director country",
            ],
            &TrainConfig { merges: 300, min_pair_count: 1, max_word_len: 24 },
        )
    }

    fn film_table() -> Table {
        Table::new(
            "films",
            vec![
                Column::with_name("film", vec!["Happy Feet".into(), "Cars".into()]),
                Column::with_name("director", vec!["George Miller".into(), "John Lasseter".into()]),
                Column::with_name("country", vec!["USA".into(), "UK".into()]),
            ],
        )
    }

    #[test]
    fn table_wise_layout_matches_section_4_2() {
        let t = tok();
        let cfg = SerializeConfig::new(32, 192);
        let s = serialize_table(&film_table(), &t, &cfg);
        // One [CLS] per column, all at the recorded positions.
        assert_eq!(s.n_cols(), 3);
        for (&p, c) in s.cls_positions.iter().zip(0u32..) {
            assert_eq!(s.ids[p as usize], CLS);
            assert_eq!(s.col_of_token[p as usize], c);
        }
        // Exactly 3 [CLS] and a single trailing [SEP].
        assert_eq!(s.ids.iter().filter(|&&i| i == CLS).count(), 3);
        assert_eq!(s.ids.iter().filter(|&&i| i == SEP).count(), 1);
        assert_eq!(*s.ids.last().unwrap(), SEP);
        assert_eq!(*s.col_of_token.last().unwrap(), NO_COLUMN);
        assert_eq!(s.ids.len(), s.col_of_token.len());
    }

    #[test]
    fn budget_caps_column_tokens() {
        let t = tok();
        let tight = SerializeConfig::new(2, 192);
        let s = serialize_table(&film_table(), &t, &tight);
        // 3 cols * (1 CLS + 2 tokens) + SEP = 10.
        assert_eq!(s.ids.len(), 10);
        let loose = SerializeConfig::new(32, 192);
        let s2 = serialize_table(&film_table(), &t, &loose);
        assert!(s2.ids.len() > s.ids.len());
    }

    #[test]
    fn max_seq_shrinks_budget_evenly() {
        let t = tok();
        let cfg = SerializeConfig::new(64, 16);
        let s = serialize_table(&film_table(), &t, &cfg);
        assert!(s.ids.len() <= 16, "len {}", s.ids.len());
        assert_eq!(s.n_cols(), 3, "all columns retained under a tiny cap");
    }

    #[test]
    fn metadata_variant_injects_headers() {
        let t = tok();
        let plain = serialize_table(&film_table(), &t, &SerializeConfig::new(32, 192));
        let meta =
            serialize_table(&film_table(), &t, &SerializeConfig::new(32, 192).with_metadata());
        assert!(meta.ids.len() > plain.ids.len());
        // Header token ("film") right after the first [CLS].
        let film_id = t.encode("film")[0];
        assert_eq!(meta.ids[1], film_id);
    }

    #[test]
    fn single_column_layout() {
        let t = tok();
        let s = serialize_single_column(&film_table(), 1, &t, &SerializeConfig::new(32, 192));
        assert_eq!(s.ids[0], CLS);
        assert_eq!(*s.ids.last().unwrap(), SEP);
        assert_eq!(s.cls_positions, vec![0]);
        assert_eq!(s.ids.iter().filter(|&&i| i == CLS).count(), 1);
    }

    #[test]
    fn pair_layout_has_two_seps() {
        let t = tok();
        let s = serialize_column_pair(&film_table(), 0, 1, &t, &SerializeConfig::new(32, 192));
        assert_eq!(s.ids[0], CLS);
        assert_eq!(s.ids.iter().filter(|&&i| i == SEP).count(), 2);
        assert_eq!(*s.ids.last().unwrap(), SEP);
        // Tokens after the middle SEP belong to column "1".
        let mid = s.ids.iter().position(|&i| i == SEP).unwrap();
        assert!(s.col_of_token[mid + 1..].iter().all(|&c| c == 1 || c == NO_COLUMN));
    }

    #[test]
    fn max_supported_cols_matches_paper_formula() {
        // Paper's Table 8 with BERT's 512-token budget: 8 -> 56, 16 -> 30,
        // 32 -> 15.
        assert_eq!(SerializeConfig::new(8, 512).max_supported_cols(), 56);
        assert_eq!(SerializeConfig::new(16, 512).max_supported_cols(), 30);
        assert_eq!(SerializeConfig::new(32, 512).max_supported_cols(), 15);
    }
}
