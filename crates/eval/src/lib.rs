//! # doduo-eval
//!
//! Evaluation machinery for the DODUO reproduction:
//!
//! * [`metrics`] — micro/macro precision, recall and F1 for multi-label
//!   (WikiTable) and multi-class (VizNet) column annotation (§5.3), and
//!   the one decoding of logits into label sets they score.
//! * [`cluster`] — k-means plus Homogeneity / Completeness / V-Measure for
//!   the §7 case study, and connected-components construction of cluster
//!   labels from schema-matcher output.
//! * [`probing`] — average rank / normalized-perplexity aggregation for the
//!   LM-probing analysis (Tables 12-13).
//! * [`attention`] — co-occurrence-normalized inter-column attention
//!   dependency (Figure 6).

pub mod attention;
pub mod cluster;
pub mod metrics;
pub mod probing;

pub use attention::DependencyAccumulator;
pub use cluster::{completeness, connected_components, homogeneity, kmeans, v_measure};
pub use metrics::{
    class_support, decode_labels, macro_f1, multi_class_micro, multi_label_micro, per_class_prf,
    per_class_prf_multi, Counts, Prf,
};
pub use probing::{aggregate_probes, top_bottom, ClassProbeStats, ProbeItem};
