//! Synthetic document collection generation.
//!
//! The paper's collections (CACM abstracts, the private Legal corpus,
//! TIPSTER news) are unavailable or impractically large, so the benchmark
//! harness generates collections calibrated to preserve the properties the
//! evaluation depends on:
//!
//! * a Zipf vocabulary (Figure 1's inverted-list size distribution, with
//!   ~50% of records at or under 12 bytes),
//! * topical structure (documents of the same topic share characteristic
//!   terms, giving query sets coherent relevant-document sets and the
//!   cross-query term repetition the caching results rely on),
//! * the relative document counts and lengths of the four collections
//!   (scaled; see DESIGN.md §4).
//!
//! Generation is fully deterministic: each document is derived from the
//! collection seed and its ordinal, so judgments and queries can be
//! recomputed independently of generation order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::words::word;
use crate::zipf::PowerLaw;

/// Parameters of one synthetic collection.
#[derive(Debug, Clone)]
pub struct CollectionSpec {
    /// Display name ("CACM", "Legal", ...).
    pub name: String,
    /// Number of documents.
    pub num_docs: usize,
    /// Mean document length in tokens (actual lengths are uniform in
    /// `[0.5, 1.5] × mean`).
    pub mean_doc_len: usize,
    /// Vocabulary pool size (distinct terms that *can* occur).
    pub vocab_size: usize,
    /// Zipf exponent of the global term distribution.
    pub zipf_s: f64,
    /// Number of topics; each document belongs to `doc_id % num_topics`.
    pub num_topics: usize,
    /// Fraction of tokens drawn from the document's topic terms instead of
    /// the global distribution.
    pub topic_mix: f64,
    /// Characteristic terms per topic.
    pub terms_per_topic: usize,
    /// Probability that a token is a "rare" word drawn uniformly from a
    /// huge tail pool instead of the Zipf core — the hapax legomena
    /// (names, codes, typos) that make "nearly half of the terms" occur
    /// only once or twice (Section 2).
    pub rare_rate: f64,
    /// Size of the rare-word tail pool (ranks `vocab_size ..`).
    pub rare_pool: usize,
    /// Master seed.
    pub seed: u64,
}

impl CollectionSpec {
    /// A small spec for unit tests.
    pub fn tiny(seed: u64) -> Self {
        CollectionSpec {
            name: "tiny".into(),
            num_docs: 200,
            mean_doc_len: 60,
            vocab_size: 5_000,
            zipf_s: 1.0,
            num_topics: 10,
            topic_mix: 0.2,
            terms_per_topic: 8,
            rare_rate: 0.01,
            rare_pool: 1 << 22,
            seed,
        }
    }
}

/// One generated document.
#[derive(Debug, Clone)]
pub struct Document {
    /// External identifier, e.g. "LEGAL-000042".
    pub name: String,
    /// The document text.
    pub text: String,
    /// The topic this document belongs to.
    pub topic: usize,
}

/// A deterministic synthetic collection.
#[derive(Debug)]
pub struct SyntheticCollection {
    spec: CollectionSpec,
    zipf: PowerLaw,
    /// `topic_terms[t]` are the vocabulary ranks characteristic of topic `t`.
    topic_terms: Vec<Vec<usize>>,
}

impl SyntheticCollection {
    /// Prepares the generator for `spec`.
    pub fn new(spec: CollectionSpec) -> Self {
        assert!(spec.num_topics > 0, "at least one topic is required");
        let zipf = PowerLaw::new(spec.vocab_size, spec.zipf_s);
        // Topic terms come from the mid-frequency band: rare enough to be
        // discriminative, frequent enough that their inverted lists are the
        // medium/large records queries actually touch (Figure 2).
        let band_lo = (spec.vocab_size / 200).max(16);
        let band_hi = (spec.vocab_size / 4).max(band_lo + 1);
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x7091_c0de);
        let topic_terms = (0..spec.num_topics)
            .map(|_| (0..spec.terms_per_topic).map(|_| rng.gen_range(band_lo..band_hi)).collect())
            .collect();
        SyntheticCollection { spec, zipf, topic_terms }
    }

    /// The collection's parameters.
    pub fn spec(&self) -> &CollectionSpec {
        &self.spec
    }

    /// The characteristic term ranks of `topic`.
    pub fn topic_terms(&self, topic: usize) -> &[usize] {
        &self.topic_terms[topic % self.spec.num_topics]
    }

    /// The topic of document `doc_id`.
    pub fn topic_of(&self, doc_id: usize) -> usize {
        doc_id % self.spec.num_topics
    }

    /// Document ids belonging to `topic`, capped at `limit`.
    pub fn docs_of_topic(&self, topic: usize, limit: usize) -> Vec<u32> {
        (0..self.spec.num_docs)
            .skip(topic % self.spec.num_topics)
            .step_by(self.spec.num_topics)
            .take(limit)
            .map(|d| d as u32)
            .collect()
    }

    /// Runs the deterministic token-rank stream of document `doc_id`,
    /// invoking `f(rank, is_rare)` for every token.
    fn compose(&self, doc_id: usize, mut f: impl FnMut(usize, bool)) {
        assert!(doc_id < self.spec.num_docs);
        let mut rng =
            StdRng::seed_from_u64(self.spec.seed.wrapping_add(doc_id as u64 * 2_654_435_761));
        let topic = self.topic_of(doc_id);
        let terms = &self.topic_terms[topic];
        let len_range = (self.spec.mean_doc_len / 2).max(4)..=self.spec.mean_doc_len * 3 / 2;
        let len = rng.gen_range(len_range);
        for _ in 0..len {
            let draw: f64 = rng.gen();
            if draw < self.spec.topic_mix {
                f(terms[rng.gen_range(0..terms.len())], false);
            } else if draw < self.spec.topic_mix + self.spec.rare_rate {
                // A hapax-tail word: effectively unique in the collection.
                f(self.spec.vocab_size + rng.gen_range(0..self.spec.rare_pool), true);
            } else {
                f(self.zipf.sample(&mut rng), false);
            }
        }
    }

    /// Generates document `doc_id` (deterministic).
    pub fn document(&self, doc_id: usize) -> Document {
        let mut text = String::with_capacity(self.spec.mean_doc_len * 8);
        self.compose(doc_id, |rank, _| {
            if !text.is_empty() {
                text.push(' ');
            }
            text.push_str(&word(rank));
        });
        Document {
            name: format!("{}-{:06}", self.spec.name.to_uppercase(), doc_id),
            text,
            topic: self.topic_of(doc_id),
        }
    }

    /// The hapax-tail word ranks that occur in document `doc_id` — terms
    /// whose inverted records land in the small object pool. Used by the
    /// query generator so that "the small inverted lists are accessed
    /// rarely" (Figure 2) rather than never.
    pub fn rare_ranks_in(&self, doc_id: usize) -> Vec<usize> {
        let mut out = Vec::new();
        self.compose(doc_id, |rank, is_rare| {
            if is_rare {
                out.push(rank);
            }
        });
        out
    }

    /// Iterates all documents in order.
    pub fn documents(&self) -> impl Iterator<Item = Document> + '_ {
        (0..self.spec.num_docs).map(move |i| self.document(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticCollection::new(CollectionSpec::tiny(42));
        let b = SyntheticCollection::new(CollectionSpec::tiny(42));
        for i in [0usize, 17, 199] {
            assert_eq!(a.document(i).text, b.document(i).text);
            assert_eq!(a.document(i).name, b.document(i).name);
        }
        let c = SyntheticCollection::new(CollectionSpec::tiny(43));
        assert_ne!(a.document(0).text, c.document(0).text);
    }

    #[test]
    fn documents_have_expected_lengths() {
        let c = SyntheticCollection::new(CollectionSpec::tiny(1));
        for doc in c.documents().take(50) {
            let tokens = doc.text.split_whitespace().count();
            assert!((30..=90).contains(&tokens), "{} tokens", tokens);
        }
    }

    #[test]
    fn topic_terms_appear_more_often_within_their_topic() {
        let spec = CollectionSpec { topic_mix: 0.3, ..CollectionSpec::tiny(5) };
        let c = SyntheticCollection::new(spec);
        let topic = 3usize;
        let term = word(c.topic_terms(topic)[0]);
        let count_in = |docs: &[u32]| -> usize {
            docs.iter().map(|&d| c.document(d as usize).text.matches(&term).count()).sum()
        };
        let on_topic = c.docs_of_topic(topic, 20);
        let off_topic = c.docs_of_topic((topic + 1) % 10, 20);
        assert!(count_in(&on_topic) > count_in(&off_topic));
    }

    #[test]
    fn docs_of_topic_matches_topic_of() {
        let c = SyntheticCollection::new(CollectionSpec::tiny(9));
        for topic in 0..10 {
            let docs = c.docs_of_topic(topic, 5);
            assert!(!docs.is_empty());
            for d in docs {
                assert_eq!(c.topic_of(d as usize), topic);
            }
        }
    }

    #[test]
    fn names_are_stable_and_prefixed() {
        let c = SyntheticCollection::new(CollectionSpec::tiny(2));
        assert_eq!(c.document(7).name, "TINY-000007");
    }
}
