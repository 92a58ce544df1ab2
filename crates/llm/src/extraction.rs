//! Question typing and candidate-answer extraction.
//!
//! The simulated model grounds its answers in the context: every source is scanned for
//! candidate answer spans (named entities, counts, years) whose plausibility depends on
//! nearby cue words. The extraction is deliberately simple — surface patterns over
//! capitalised spans and four-digit years — because the RAGE corpora are short factual
//! statements; what matters for the reproduction is that evidence comes *from the
//! sources*, so that removing or demoting a source genuinely changes the answer.

use crate::tokenizer::SimTokenizer;

/// The kind of question being asked, which selects the answer-aggregation policy.
#[derive(Debug, Clone, PartialEq)]
pub enum QuestionKind {
    /// "Which/who is the best/greatest/most …" — a single superlative entity.
    Superlative,
    /// "Most recent / latest / current …" — the entity with the latest associated year.
    MostRecent,
    /// "How many times did ENTITY …" — a count over supporting sources.
    Count {
        /// The entity whose occurrences are being counted, lowercased, if detected.
        entity: Option<String>,
        /// Optional inclusive year range mentioned in the question ("between X and Y").
        year_range: Option<(i32, i32)>,
    },
    /// Anything else — answered with the best-supported extracted entity.
    Factoid,
}

/// A candidate answer extracted from one source.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The candidate answer text (surface form, original casing).
    pub answer: String,
    /// Extraction confidence in `[0, 1]`, driven by nearby cue words.
    pub confidence: f64,
    /// A year associated with the candidate, when one appears in the source.
    pub year: Option<i32>,
}

/// Words that never start or continue an entity span even when capitalised.
const ENTITY_BLOCKLIST: &[&str] = &[
    "the", "a", "an", "in", "on", "at", "of", "and", "or", "but", "it", "its", "this", "that",
    "these", "those", "he", "she", "they", "we", "his", "her", "their", "our", "is", "was", "are",
    "were", "who", "what", "when", "which", "how", "why", "between", "among", "during", "however",
    "although", "since", "after", "before", "for", "with", "by", "from", "to",
];

/// Cue words that boost a nearby candidate's confidence.
const CUE_WORDS: &[&str] = &[
    "first",
    "leads",
    "leader",
    "most",
    "best",
    "greatest",
    "top",
    "champion",
    "champions",
    "winner",
    "won",
    "wins",
    "title",
    "titles",
    "record",
    "named",
    "awarded",
    "crowned",
    "ranked",
    "ranks",
    "victory",
    "defeated",
];

/// Number of tokens on either side of an entity span scanned for cue words.
const CUE_WINDOW: usize = 5;

/// Classify a question into its [`QuestionKind`].
pub fn classify_question(question: &str) -> QuestionKind {
    let lower = question.to_lowercase();
    let tokenizer = SimTokenizer::new();
    if lower.contains("how many")
        || lower.contains("how often")
        || lower.contains("number of times")
    {
        let entity = extract_entities(question)
            .into_iter()
            .map(|e| e.0.to_lowercase())
            .next();
        let years = extract_years(&tokenizer.words(question));
        let year_range = if years.len() >= 2 {
            let min = *years.iter().min().unwrap();
            let max = *years.iter().max().unwrap();
            Some((min, max))
        } else {
            None
        };
        return QuestionKind::Count { entity, year_range };
    }
    if lower.contains("most recent")
        || lower.contains("latest")
        || lower.contains("current ")
        || lower.contains("last winner")
        || lower.contains("reigning")
    {
        return QuestionKind::MostRecent;
    }
    if lower.contains("best")
        || lower.contains("greatest")
        || lower.contains("better")
        || lower.contains(" top ")
        || lower.contains("most successful")
        || lower.contains("who is the most")
    {
        return QuestionKind::Superlative;
    }
    QuestionKind::Factoid
}

/// Capitalised-word spans in the original (cased) text, returned as
/// `(entity text, start word index, end word index)` over the word sequence.
pub fn extract_entities(text: &str) -> Vec<(String, usize, usize)> {
    // Word-split preserving case (same segmentation as SimTokenizer::words but cased).
    let mut words: Vec<String> = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() || ch == '\'' {
            current.push(ch);
        } else if !current.is_empty() {
            words.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        words.push(current);
    }

    let is_entity_word = |w: &str| -> bool {
        let mut chars = w.chars();
        let first_upper = chars.next().is_some_and(|c| c.is_uppercase());
        first_upper
            && w.chars().any(|c| c.is_alphabetic())
            && !ENTITY_BLOCKLIST.contains(&w.to_lowercase().as_str())
    };

    let mut entities = Vec::new();
    let mut i = 0;
    while i < words.len() {
        if is_entity_word(&words[i]) {
            let start = i;
            let mut span = vec![words[i].clone()];
            let mut j = i + 1;
            while j < words.len() && is_entity_word(&words[j]) {
                span.push(words[j].clone());
                j += 1;
            }
            entities.push((span.join(" "), start, j));
            i = j;
        } else {
            i += 1;
        }
    }
    entities
}

/// Four-digit years (1900–2100) appearing in a word sequence.
pub fn extract_years(words: &[String]) -> Vec<i32> {
    words
        .iter()
        .filter_map(|w| w.parse::<i32>().ok())
        .filter(|&y| (1900..=2100).contains(&y))
        .collect()
}

/// Extract answer candidates from a single source text, relative to a question.
///
/// Candidates whose surface form already occurs in the question are dropped (they name
/// the thing being asked about, not the answer), except for [`QuestionKind::Count`],
/// whose target entity is expected to appear in both.
pub fn extract_candidates(
    kind: &QuestionKind,
    question: &str,
    source_text: &str,
) -> Vec<Candidate> {
    let tokenizer = SimTokenizer::new();
    let question_lower = question.to_lowercase();
    let source_words_cased: Vec<String> = {
        let mut words: Vec<String> = Vec::new();
        let mut current = String::new();
        for ch in source_text.chars() {
            if ch.is_alphanumeric() || ch == '\'' {
                current.push(ch);
            } else if !current.is_empty() {
                words.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            words.push(current);
        }
        words
    };
    let source_words_lower: Vec<String> = tokenizer.words(source_text);
    let years = extract_years(&source_words_lower);
    let entities = extract_entities(source_text);

    let mut candidates = Vec::new();
    for (entity, start, end) in entities {
        let entity_lower = entity.to_lowercase();
        // Entities named in the question are usually the *topic*, not the answer
        // ("US Open" in "who won the US Open"), so they are filtered out — except for
        // counting questions (the counted entity must appear in both) and superlative
        // questions, which often enumerate the candidate answers explicitly ("the best
        // among Djokovic, Federer and Nadal").
        let keep_even_if_in_question =
            matches!(kind, QuestionKind::Count { .. } | QuestionKind::Superlative);
        if !keep_even_if_in_question && question_lower.contains(&entity_lower) {
            continue;
        }
        // Cue scan in a window around the entity span; the boost saturates after two
        // cues so that cue-dense sources cannot drown out positional effects.
        let window_start = start.saturating_sub(CUE_WINDOW);
        let window_end = (end + CUE_WINDOW).min(source_words_cased.len());
        let cue_hits = source_words_cased[window_start..window_end]
            .iter()
            .filter(|w| CUE_WORDS.contains(&w.to_lowercase().as_str()))
            .count();
        let confidence = (0.4 + 0.25 * cue_hits.min(2) as f64).min(1.0);

        // Associate the year closest to the entity span, if any year exists.
        let year = closest_year(&source_words_cased, start, end, &years);

        candidates.push(Candidate {
            answer: entity,
            confidence,
            year,
        });
    }

    // For counting questions a source with a year but no explicit entity match still
    // carries signal; candidates already cover that because the entity filter is off.
    candidates
}

/// The year (from `years`) whose mention lies closest to the entity span.
fn closest_year(words: &[String], start: usize, end: usize, years: &[i32]) -> Option<i32> {
    if years.is_empty() {
        return None;
    }
    let mut best: Option<(usize, i32)> = None;
    for (idx, word) in words.iter().enumerate() {
        if let Ok(y) = word.parse::<i32>() {
            if (1900..=2100).contains(&y) {
                // Years following the entity ("Gauff triumphed in 2023") are preferred
                // over years preceding it when the distances are comparable, matching
                // how such statements are usually phrased.
                let distance = if idx < start {
                    start - idx + 1
                } else {
                    idx.saturating_sub(end)
                };
                if best.is_none_or(|(d, _)| distance < d) {
                    best = Some((distance, y));
                }
            }
        }
    }
    best.map(|(_, y)| y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_superlative() {
        assert_eq!(
            classify_question("Who is the best tennis player among the Big Three?"),
            QuestionKind::Superlative
        );
        assert_eq!(
            classify_question("Which player is the greatest of all time?"),
            QuestionKind::Superlative
        );
    }

    #[test]
    fn classifies_most_recent() {
        assert_eq!(
            classify_question("Who is the most recent US Open women's champion?"),
            QuestionKind::MostRecent
        );
        assert_eq!(
            classify_question("Who is the latest winner?"),
            QuestionKind::MostRecent
        );
    }

    #[test]
    fn classifies_count_with_entity_and_range() {
        let kind = classify_question(
            "How many times did Novak Djokovic win the Player of the Year award between 2010 and 2019?",
        );
        match kind {
            QuestionKind::Count { entity, year_range } => {
                assert_eq!(entity.as_deref(), Some("novak djokovic"));
                assert_eq!(year_range, Some((2010, 2019)));
            }
            other => panic!("expected Count, got {other:?}"),
        }
    }

    #[test]
    fn classifies_count_without_range() {
        let kind = classify_question("How many titles does Rafael Nadal have?");
        match kind {
            QuestionKind::Count { entity, year_range } => {
                assert_eq!(entity.as_deref(), Some("rafael nadal"));
                assert_eq!(year_range, None);
            }
            other => panic!("expected Count, got {other:?}"),
        }
    }

    #[test]
    fn classifies_factoid_fallback() {
        assert_eq!(
            classify_question("Where was the 2019 final played?"),
            QuestionKind::Factoid
        );
    }

    #[test]
    fn extracts_multiword_entities() {
        let entities = extract_entities("Roger Federer ranks first, ahead of Rafael Nadal.");
        let names: Vec<&str> = entities.iter().map(|(e, _, _)| e.as_str()).collect();
        assert!(names.contains(&"Roger Federer"));
        assert!(names.contains(&"Rafael Nadal"));
    }

    #[test]
    fn blocklist_words_do_not_form_entities() {
        let entities = extract_entities("The winner was announced. However, It rained.");
        let names: Vec<&str> = entities.iter().map(|(e, _, _)| e.as_str()).collect();
        assert!(!names.contains(&"The"));
        assert!(!names.contains(&"However"));
        assert!(!names.contains(&"It"));
    }

    #[test]
    fn extracts_years_in_range() {
        let words: Vec<String> = [
            "in", "2023", "she", "beat", "the", "1999", "record", "12345",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(extract_years(&words), vec![2023, 1999]);
    }

    #[test]
    fn candidate_confidence_reflects_cues() {
        let kind = QuestionKind::Superlative;
        let question = "Who is the best tennis player?";
        let strong = extract_candidates(
            &kind,
            question,
            "Roger Federer ranks first with the most match wins.",
        );
        let weak = extract_candidates(&kind, question, "Roger Federer lives in Switzerland.");
        let strong_conf = strong
            .iter()
            .find(|c| c.answer == "Roger Federer")
            .unwrap()
            .confidence;
        let weak_conf = weak
            .iter()
            .find(|c| c.answer == "Roger Federer")
            .unwrap()
            .confidence;
        assert!(strong_conf > weak_conf);
    }

    #[test]
    fn question_entities_are_not_candidates() {
        let kind = QuestionKind::MostRecent;
        let question = "Who is the most recent US Open women's champion?";
        let candidates = extract_candidates(
            &kind,
            question,
            "Coco Gauff won the US Open women's championship in 2023.",
        );
        let names: Vec<&str> = candidates.iter().map(|c| c.answer.as_str()).collect();
        assert!(names.contains(&"Coco Gauff"));
        assert!(!names.contains(&"US Open"));
    }

    #[test]
    fn count_questions_keep_the_target_entity() {
        let kind =
            classify_question("How many times did Novak Djokovic win between 2010 and 2019?");
        let candidates = extract_candidates(
            &kind,
            "How many times did Novak Djokovic win between 2010 and 2019?",
            "Novak Djokovic was named Player of the Year in 2015.",
        );
        assert!(candidates.iter().any(|c| c.answer == "Novak Djokovic"));
    }

    #[test]
    fn years_are_associated_with_the_nearest_entity() {
        let kind = QuestionKind::Factoid;
        let candidates = extract_candidates(
            &kind,
            "who won?",
            "Iga Swiatek won in 2022 while Coco Gauff triumphed in 2023.",
        );
        let swiatek = candidates
            .iter()
            .find(|c| c.answer == "Iga Swiatek")
            .unwrap();
        let gauff = candidates
            .iter()
            .find(|c| c.answer == "Coco Gauff")
            .unwrap();
        assert_eq!(swiatek.year, Some(2022));
        assert_eq!(gauff.year, Some(2023));
    }

    #[test]
    fn no_entities_yields_no_candidates() {
        let kind = QuestionKind::Factoid;
        let candidates = extract_candidates(&kind, "who won?", "the quick brown fox jumps");
        assert!(candidates.is_empty());
    }
}
