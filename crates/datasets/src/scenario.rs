//! The [`Scenario`] bundle: everything needed to run one demonstration use case.

use rage_llm::knowledge::PriorKnowledge;
use rage_retrieval::Corpus;

/// A complete demonstration scenario: corpus, question, retrieval depth, the model's
/// prior knowledge and the behaviour the paper describes for it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Short machine-friendly name (`big-three`, `us-open`, `timeline`, ...).
    pub name: String,
    /// The natural-language question posed to the system (also the retrieval query).
    pub question: String,
    /// The knowledge corpus to index.
    pub corpus: Corpus,
    /// Retrieval depth `k` (number of sources pulled into the context).
    pub retrieval_k: usize,
    /// The model's prior (pre-trained) knowledge relevant to the question.
    pub prior: PriorKnowledge,
    /// The answer the paper reports for the full retrieved context.
    pub expected_full_context_answer: String,
    /// The answer the model gives with an empty context (prior knowledge only).
    pub expected_empty_context_answer: String,
    /// Free-text description used in reports and documentation.
    pub description: String,
}

impl Scenario {
    /// Number of documents in the scenario corpus.
    pub fn corpus_size(&self) -> usize {
        self.corpus.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::{big_three, timeline, us_open};

    #[test]
    fn all_scenarios_are_well_formed() {
        for scenario in [
            big_three::scenario(),
            us_open::scenario(),
            timeline::scenario(),
        ] {
            assert!(!scenario.name.is_empty());
            assert!(!scenario.question.is_empty());
            assert!(scenario.corpus_size() >= scenario.retrieval_k);
            assert!(!scenario.expected_full_context_answer.is_empty());
            assert!(!scenario.expected_empty_context_answer.is_empty());
        }
    }

    #[test]
    fn scenario_names_are_unique() {
        let names = [
            big_three::scenario().name,
            us_open::scenario().name,
            timeline::scenario().name,
        ];
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
    }
}
