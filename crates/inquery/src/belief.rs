//! Inference-network belief functions.
//!
//! "INQUERY is a probabilistic information retrieval system based upon a
//! Bayesian inference network model. ... the Bayesian method of combining
//! belief assigns a numeric value to each document" (Sections 3.1, 4).
//!
//! The leaf (term) belief follows the published INQUERY formulation
//! (Turtle & Croft, TOIS 1991; the tf normalisation is the INQUERY variant
//! with document-length correction):
//!
//! ```text
//! T = tf / (tf + 0.5 + 1.5 · (dl / avg_dl))        (term-frequency weight)
//! I = ln((N + 0.5) / df) / ln(N + 1)               (inverse document freq.)
//! belief = d + (1 - d) · T · I,  d = 0.4           (default belief)
//! ```
//!
//! Each line evaluates left to right in `f64`, parentheses first; that
//! order fixes the bits every ranker must reproduce. A term that is absent
//! (`tf = 0`), a list with `df = 0` and an empty collection (`N = 0`) all
//! give `d`; `I` is clamped at zero (`df > N`); `dl / avg_dl` reads 1 when
//! `avg_dl` is zero.
//!
//! `I` depends only on the term's list and the length term
//! `1.5 · (dl / avg_dl)` only on the document, so rankers build each once —
//! [`BeliefParams::list_idf`] per list, [`BeliefParams::len_term`] per
//! document — and [`BeliefParams::belief`] combines them per posting.
//! [`BeliefParams::term_belief`] is that composition, so every evaluator
//! computes the same bits in the same operation order.
//!
//! Query operators combine child beliefs per document:
//! `#and` = product, `#or` = 1 − ∏(1 − pᵢ), `#not` = 1 − p,
//! `#sum` = mean, `#wsum` = weighted mean, `#max` = maximum.

/// Tunable parameters of the belief functions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeliefParams {
    /// The default belief assigned when a term is absent (INQUERY's 0.4).
    pub default_belief: f64,
    /// The additive tf-normalisation constant (0.5).
    pub tf_base: f64,
    /// The document-length normalisation multiplier (1.5).
    pub len_factor: f64,
}

impl Default for BeliefParams {
    fn default() -> Self {
        BeliefParams { default_belief: 0.4, tf_base: 0.5, len_factor: 1.5 }
    }
}

/// Collection-level statistics the belief functions need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectionStats {
    /// Number of documents in the collection.
    pub num_docs: u32,
    /// Mean document length in tokens.
    pub avg_doc_len: f64,
}

/// The per-list factor of the belief formula, fixed by a term's document
/// frequency: the clamped idf `I`, or nothing when every posting of the
/// list scores the default belief (`df = 0` or `N = 0`). Built by
/// [`BeliefParams::list_idf`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ListIdf(Option<f64>);

impl BeliefParams {
    /// Belief contributed by a term occurring `tf` times in a document of
    /// `doc_len` tokens, where the term appears in `df` documents.
    pub fn term_belief(&self, tf: u32, doc_len: u32, df: u32, stats: &CollectionStats) -> f64 {
        self.belief(tf, self.len_term(doc_len, stats), self.list_idf(df, stats))
    }

    /// The idf factor `I` of a term in `df` documents (two `ln` and a
    /// divide — build it once per list, not per posting).
    pub fn list_idf(&self, df: u32, stats: &CollectionStats) -> ListIdf {
        if df == 0 || stats.num_docs == 0 {
            return ListIdf(None);
        }
        let n = stats.num_docs as f64;
        let i = ((n + 0.5) / df as f64).ln() / (n + 1.0).ln();
        ListIdf(Some(i.max(0.0))) // df == N gives a tiny positive value; df > N is clamped
    }

    /// The document-length term `len_factor · (dl / avg_dl)` of a document
    /// of `doc_len` tokens (one divide — build it once per document).
    pub fn len_term(&self, doc_len: u32, stats: &CollectionStats) -> f64 {
        let dl_ratio =
            if stats.avg_doc_len > 0.0 { doc_len as f64 / stats.avg_doc_len } else { 1.0 };
        self.len_factor * dl_ratio
    }

    /// Belief of one posting: `tf` occurrences in a document whose
    /// [`len_term`](Self::len_term) is `len_term`, in a list whose
    /// [`list_idf`](Self::list_idf) is `idf`.
    #[inline]
    pub fn belief(&self, tf: u32, len_term: f64, idf: ListIdf) -> f64 {
        match idf.0 {
            Some(i) if tf > 0 => {
                let t = tf as f64 / (tf as f64 + self.tf_base + len_term);
                self.default_belief + (1.0 - self.default_belief) * t * i
            }
            _ => self.default_belief,
        }
    }

    /// `#and`: the product of child beliefs.
    pub fn and(beliefs: impl IntoIterator<Item = f64>) -> f64 {
        beliefs.into_iter().product()
    }

    /// `#or`: 1 − ∏(1 − pᵢ).
    pub fn or(beliefs: impl IntoIterator<Item = f64>) -> f64 {
        1.0 - beliefs.into_iter().map(|p| 1.0 - p).product::<f64>()
    }

    /// `#not`: 1 − p.
    pub fn not(belief: f64) -> f64 {
        1.0 - belief
    }

    /// `#sum`: the mean of child beliefs.
    pub fn sum(beliefs: &[f64]) -> f64 {
        if beliefs.is_empty() {
            0.0
        } else {
            beliefs.iter().sum::<f64>() / beliefs.len() as f64
        }
    }

    /// `#wsum`: the weighted mean of child beliefs.
    pub fn wsum(weighted: &[(f64, f64)]) -> f64 {
        let total: f64 = weighted.iter().map(|(w, _)| w).sum();
        if total == 0.0 {
            0.0
        } else {
            weighted.iter().map(|(w, p)| w * p).sum::<f64>() / total
        }
    }

    /// `#max`: the maximum child belief.
    pub fn max(beliefs: impl IntoIterator<Item = f64>) -> f64 {
        beliefs.into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: CollectionStats = CollectionStats { num_docs: 1000, avg_doc_len: 100.0 };

    fn params() -> BeliefParams {
        BeliefParams::default()
    }

    #[test]
    fn absent_term_gets_default_belief() {
        assert_eq!(params().term_belief(0, 100, 10, &STATS), 0.4);
    }

    #[test]
    fn belief_increases_with_tf() {
        let p = params();
        let b1 = p.term_belief(1, 100, 10, &STATS);
        let b2 = p.term_belief(2, 100, 10, &STATS);
        let b10 = p.term_belief(10, 100, 10, &STATS);
        assert!(b1 > 0.4);
        assert!(b2 > b1);
        assert!(b10 > b2);
        assert!(b10 < 1.0);
    }

    #[test]
    fn rare_terms_score_higher_than_common_terms() {
        let p = params();
        let rare = p.term_belief(3, 100, 2, &STATS);
        let common = p.term_belief(3, 100, 800, &STATS);
        assert!(rare > common);
    }

    #[test]
    fn longer_documents_are_penalised() {
        let p = params();
        let short = p.term_belief(3, 50, 10, &STATS);
        let long = p.term_belief(3, 500, 10, &STATS);
        assert!(short > long);
    }

    #[test]
    fn term_in_every_document_contributes_almost_nothing() {
        let p = params();
        let b = p.term_belief(5, 100, 1000, &STATS);
        assert!((0.4..0.41).contains(&b), "belief {b}");
    }

    #[test]
    fn belief_is_always_a_probability() {
        let p = params();
        for tf in [0u32, 1, 5, 100, 10_000] {
            for df in [1u32, 10, 999, 1000] {
                for dl in [1u32, 100, 100_000] {
                    let b = p.term_belief(tf, dl, df, &STATS);
                    assert!((0.0..=1.0).contains(&b), "tf={tf} df={df} dl={dl}: {b}");
                }
            }
        }
    }

    #[test]
    fn operator_combinators() {
        assert!((BeliefParams::and([0.5, 0.5]) - 0.25).abs() < 1e-12);
        assert!((BeliefParams::or([0.5, 0.5]) - 0.75).abs() < 1e-12);
        assert!((BeliefParams::not(0.3) - 0.7).abs() < 1e-12);
        assert!((BeliefParams::sum(&[0.2, 0.4, 0.6]) - 0.4).abs() < 1e-12);
        assert!(
            (BeliefParams::wsum(&[(1.0, 0.2), (3.0, 0.6)]) - 0.5).abs() < 1e-12,
            "weighted mean"
        );
        assert_eq!(BeliefParams::max([0.1, 0.9, 0.5]), 0.9);
        assert_eq!(BeliefParams::sum(&[]), 0.0);
        assert_eq!(BeliefParams::wsum(&[]), 0.0);
    }

    #[test]
    fn empty_collection_is_safe() {
        let empty = CollectionStats { num_docs: 0, avg_doc_len: 0.0 };
        assert_eq!(params().term_belief(5, 10, 1, &empty), 0.4);
    }

    /// The belief formula as one inline expression, the way it was written
    /// before it was split into per-list and per-document factors. Kept
    /// verbatim as the oracle for the split.
    fn inline_term_belief(
        p: &BeliefParams,
        tf: u32,
        doc_len: u32,
        df: u32,
        stats: &CollectionStats,
    ) -> f64 {
        if tf == 0 || df == 0 || stats.num_docs == 0 {
            return p.default_belief;
        }
        let dl_ratio =
            if stats.avg_doc_len > 0.0 { doc_len as f64 / stats.avg_doc_len } else { 1.0 };
        let t = tf as f64 / (tf as f64 + p.tf_base + p.len_factor * dl_ratio);
        let n = stats.num_docs as f64;
        let i = ((n + 0.5) / df as f64).ln() / (n + 1.0).ln();
        let i = i.max(0.0); // df == N gives a tiny positive value; df > N is clamped
        p.default_belief + (1.0 - p.default_belief) * t * i
    }

    #[test]
    fn split_belief_is_bit_identical_to_the_inline_formula() {
        let tuned = BeliefParams { default_belief: 0.3, tf_base: 0.75, len_factor: 1.2 };
        let mut checked = 0;
        for p in [params(), tuned] {
            for num_docs in [0u32, 1, 2, 999, 1000, 12_000, u32::MAX] {
                for avg_doc_len in [0.0, 1.0, 87.25, 100.0, 1e9] {
                    let stats = CollectionStats { num_docs, avg_doc_len };
                    for df in [0u32, 1, 2, 10, 999, 1000, 1001, 12_000, 50_000, u32::MAX] {
                        // Built once per list, reused for every posting.
                        let idf = p.list_idf(df, &stats);
                        for doc_len in [0u32, 1, 7, 100, 4096, u32::MAX] {
                            let len_term = p.len_term(doc_len, &stats);
                            for tf in [0u32, 1, 2, 3, 17, 1000, u32::MAX - 1, u32::MAX] {
                                let oracle = inline_term_belief(&p, tf, doc_len, df, &stats);
                                let split = p.belief(tf, len_term, idf);
                                let composed = p.term_belief(tf, doc_len, df, &stats);
                                assert_eq!(
                                    oracle.to_bits(),
                                    split.to_bits(),
                                    "tf={tf} dl={doc_len} df={df} {stats:?} {p:?}"
                                );
                                assert_eq!(oracle.to_bits(), composed.to_bits());
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(checked, 2 * 7 * 5 * 10 * 6 * 8);
    }
}
