//! A seeded large corpus (≥2k documents): needle-in-a-haystack retrieval at scale.
//!
//! The paper's demonstration corpora have a handful of documents, which makes every
//! retrieval strategy trivially fast and leaves sharding nothing to do. This generator
//! produces a corpus big enough to exercise index build and sharded query latency: a
//! small set of *signal* documents (a synthetic ranking scenario, the same shape as use
//! case #1) spread evenly through thousands of seeded filler documents with a disjoint
//! `term{N}` vocabulary. The question's terms only occur in the signal documents, so
//! retrieval must find the needles, and the explanation that follows runs over a
//! normal-sized context — the *corpus* is large, not the prompt.
//!
//! Spreading the signal documents evenly through the corpus also guarantees that any
//! contiguous partitioning into a handful of shards puts needles in different shards,
//! which makes this the standard workload for the sharded-vs-single equivalence checks
//! and benchmarks.

use crate::scenario::Scenario;
use crate::synthetic::{self, FillerConfig, RankingConfig};
use rage_retrieval::Corpus;

/// Configuration of the large-corpus scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LargeCorpusConfig {
    /// Total number of documents (signal + filler).
    pub num_docs: usize,
    /// Number of signal documents, which is also the retrieval depth `k`.
    pub retrieval_k: usize,
    /// Words per filler document.
    pub filler_words_per_doc: usize,
    /// Filler vocabulary size (Zipf-like skew, disjoint from the signal vocabulary).
    pub vocabulary: usize,
    /// RNG seed (the whole corpus is deterministic in this seed).
    pub seed: u64,
}

impl Default for LargeCorpusConfig {
    fn default() -> Self {
        Self {
            num_docs: 2048,
            retrieval_k: 6,
            filler_words_per_doc: 30,
            vocabulary: 4000,
            seed: 23,
        }
    }
}

/// Generate the large-corpus scenario.
///
/// # Panics
/// If `num_docs` does not leave room for the signal documents.
pub fn scenario(config: LargeCorpusConfig) -> Scenario {
    assert!(
        config.num_docs > config.retrieval_k,
        "num_docs must exceed retrieval_k"
    );
    let ranking = synthetic::ranking_scenario(RankingConfig {
        num_sources: config.retrieval_k,
        num_entities: 3,
        filler_words: 6,
        seed: config.seed,
    });
    let filler = synthetic::filler_corpus(FillerConfig {
        num_docs: config.num_docs - config.retrieval_k,
        words_per_doc: config.filler_words_per_doc,
        vocabulary: config.vocabulary,
        seed: config.seed ^ 0x5EED_CAFE,
    });

    // Interleave: signal document j sits at position j * num_docs / k, so contiguous
    // shard partitions split the needles across shards instead of clustering them.
    let k = config.retrieval_k;
    let stride = config.num_docs / k;
    let signal_positions: Vec<usize> = (0..k).map(|j| j * stride).collect();
    let mut signal = ranking.corpus.documents().iter().cloned();
    let mut fillers = filler.documents().iter().cloned();
    let mut corpus = Corpus::new();
    for position in 0..config.num_docs {
        if signal_positions.contains(&position) {
            corpus.push(signal.next().expect("k signal documents"));
        } else {
            corpus.push(fillers.next().expect("num_docs - k filler documents"));
        }
    }

    Scenario {
        name: format!("large-corpus-n{}", config.num_docs),
        question: ranking.question,
        corpus,
        retrieval_k: config.retrieval_k,
        prior: ranking.prior,
        expected_full_context_answer: ranking.expected_full_context_answer,
        expected_empty_context_answer: ranking.expected_empty_context_answer,
        description: format!(
            "Needle-in-a-haystack corpus: {} signal documents spread through {} seeded \
             filler documents (seed {}); retrieval must locate the needles and the \
             index is large enough for sharding to matter.",
            config.retrieval_k,
            config.num_docs - config.retrieval_k,
            config.seed
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rage_retrieval::{IndexBuilder, Searcher};

    #[test]
    fn default_scenario_is_at_least_2k_docs() {
        let s = scenario(LargeCorpusConfig::default());
        assert!(s.corpus_size() >= 2048);
        assert_eq!(s.retrieval_k, 6);
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = scenario(LargeCorpusConfig::default());
        let b = scenario(LargeCorpusConfig::default());
        assert_eq!(a.corpus, b.corpus);
        let c = scenario(LargeCorpusConfig {
            seed: 99,
            ..LargeCorpusConfig::default()
        });
        assert_ne!(a.corpus, c.corpus);
    }

    #[test]
    fn retrieval_finds_exactly_the_signal_documents() {
        let config = LargeCorpusConfig {
            num_docs: 256,
            ..LargeCorpusConfig::default()
        };
        let s = scenario(config);
        let searcher = Searcher::new(IndexBuilder::default().build(&s.corpus));
        let hits = searcher.search(&s.question, s.retrieval_k);
        assert_eq!(hits.len(), s.retrieval_k);
        assert!(hits.iter().all(|h| h.doc_id.starts_with("synthetic-")));
    }

    #[test]
    fn signal_documents_land_in_different_shards() {
        let config = LargeCorpusConfig {
            num_docs: 256,
            ..LargeCorpusConfig::default()
        };
        let s = scenario(config);
        let sharded = Searcher::from_corpus(&s.corpus, 4);
        // Every shard holds 64 contiguous documents and the 6 needles sit at stride
        // 42, so at least 3 different shards contain a needle; the merged ranking must
        // still equal the single-index one.
        let single = Searcher::new(IndexBuilder::default().build(&s.corpus));
        assert_eq!(
            single.search(&s.question, s.retrieval_k),
            sharded.search(&s.question, s.retrieval_k)
        );
    }

    #[test]
    #[should_panic(expected = "num_docs must exceed")]
    fn too_small_corpus_rejected() {
        scenario(LargeCorpusConfig {
            num_docs: 4,
            ..LargeCorpusConfig::default()
        });
    }
}
