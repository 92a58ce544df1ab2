//! Text analysis: tokenisation, stopword removal and light stemming.
//!
//! The analyzer mirrors the behaviour of Lucene's `EnglishAnalyzer` (used by Pyserini's
//! default BM25 configuration) closely enough for ranking parity on the corpora RAGE
//! works with: Unicode-aware lowercasing word segmentation, a small English stopword
//! list, and a conservative suffix stemmer (a light variant of the Porter S1 rules).

/// English stopwords removed by the default analyzer.
///
/// The list matches Lucene's `EnglishAnalyzer::ENGLISH_STOP_WORDS_SET`.
pub const ENGLISH_STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if", "in", "into", "is", "it",
    "no", "not", "of", "on", "or", "such", "that", "the", "their", "then", "there", "these",
    "they", "this", "to", "was", "will", "with",
];

/// Configuration of the analysis chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzerConfig {
    /// Lowercase tokens before further processing.
    pub lowercase: bool,
    /// Remove the stopwords in [`ENGLISH_STOPWORDS`].
    pub remove_stopwords: bool,
    /// Apply the light suffix stemmer.
    pub stem: bool,
    /// Minimum token length kept after analysis (shorter tokens are dropped).
    pub min_token_len: usize,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        Self {
            lowercase: true,
            remove_stopwords: true,
            stem: true,
            min_token_len: 1,
        }
    }
}

/// A tokenizer + normaliser used for both indexing and query analysis.
///
/// Both sides of retrieval must use the *same* analyzer for scores to make sense, so
/// [`crate::index::IndexBuilder`] stores the tokenizer inside the built index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tokenizer {
    config: AnalyzerConfig,
}

impl Tokenizer {
    /// Create a tokenizer with the given configuration.
    pub fn new(config: AnalyzerConfig) -> Self {
        Self { config }
    }

    /// A tokenizer that only splits and lowercases (no stopword removal, no stemming).
    ///
    /// Useful when exact surface forms matter, e.g. for answer-string matching.
    pub fn whitespace() -> Self {
        Self {
            config: AnalyzerConfig {
                lowercase: true,
                remove_stopwords: false,
                stem: false,
                min_token_len: 1,
            },
        }
    }

    /// The analyzer configuration in use.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Split raw text into analysed terms.
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        self.raw_tokens(text)
            .into_iter()
            .filter_map(|tok| self.normalize(&tok))
            .collect()
    }

    /// Split raw text into surface tokens without normalisation (keeps case, stopwords).
    pub fn raw_tokens(&self, text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut current = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() || ch == '\'' {
                current.push(ch);
            } else if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            tokens.push(current);
        }
        tokens
    }

    /// Normalise a single surface token; returns `None` if the token is filtered out.
    pub fn normalize(&self, token: &str) -> Option<String> {
        let mut tok = if self.config.lowercase {
            token.to_lowercase()
        } else {
            token.to_string()
        };
        // Strip possessive suffix before stopword / stemming decisions ("Federer's" -> "federer").
        if let Some(stripped) = tok.strip_suffix("'s") {
            tok = stripped.to_string();
        }
        tok = tok.trim_matches('\'').to_string();
        if tok.is_empty() || tok.chars().count() < self.config.min_token_len {
            return None;
        }
        if self.config.remove_stopwords && ENGLISH_STOPWORDS.contains(&tok.as_str()) {
            return None;
        }
        if self.config.stem {
            tok = light_stem(&tok);
        }
        if tok.is_empty() {
            None
        } else {
            Some(tok)
        }
    }
}

/// A conservative English suffix stemmer (light variant of the Porter step-1 rules).
///
/// It only removes plural and simple verbal suffixes, never rewriting the stem itself,
/// which keeps it safe for proper nouns ("federer", "djokovic") that dominate the RAGE
/// demonstration corpora.
pub fn light_stem(token: &str) -> String {
    let t = token;
    let len = t.chars().count();
    // Never stem very short tokens or tokens with digits (years, counts).
    if len <= 3 || t.chars().any(|c| c.is_ascii_digit()) {
        return t.to_string();
    }
    if let Some(stem) = t.strip_suffix("sses") {
        return format!("{stem}ss");
    }
    if let Some(stem) = t.strip_suffix("ies") {
        return format!("{stem}y");
    }
    if t.ends_with("ss") || t.ends_with("us") || t.ends_with("is") {
        return t.to_string();
    }
    if let Some(stem) = t.strip_suffix("ings") {
        if stem.chars().count() >= 3 {
            return stem.to_string();
        }
    }
    if let Some(stem) = t.strip_suffix("ing") {
        if stem.chars().count() >= 3 {
            return stem.to_string();
        }
    }
    if let Some(stem) = t.strip_suffix("ed") {
        if stem.chars().count() >= 3 {
            return stem.to_string();
        }
    }
    if let Some(stem) = t.strip_suffix('s') {
        if !stem.ends_with('s') {
            return stem.to_string();
        }
    }
    t.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_and_lowercases() {
        let tok = Tokenizer::default();
        let terms = tok.tokenize("Roger Federer WON 369 matches!");
        assert_eq!(terms, vec!["roger", "federer", "won", "369", "matche"]);
    }

    #[test]
    fn removes_stopwords() {
        let tok = Tokenizer::default();
        let terms = tok.tokenize("the best of the big three");
        assert!(!terms.contains(&"the".to_string()));
        assert!(!terms.contains(&"of".to_string()));
        assert!(terms.contains(&"best".to_string()));
        assert!(terms.contains(&"big".to_string()));
    }

    #[test]
    fn whitespace_tokenizer_keeps_stopwords() {
        let tok = Tokenizer::whitespace();
        let terms = tok.tokenize("The Answer Is Federer");
        assert_eq!(terms, vec!["the", "answer", "is", "federer"]);
    }

    #[test]
    fn strips_possessive() {
        let tok = Tokenizer::default();
        let terms = tok.tokenize("Djokovic's titles");
        assert_eq!(terms, vec!["djokovic", "title"]);
    }

    #[test]
    fn stemmer_plural_rules() {
        assert_eq!(light_stem("matches"), "matche"); // light stemmer: only strips final s
        assert_eq!(light_stem("wins"), "win");
        assert_eq!(light_stem("ladies"), "lady");
        assert_eq!(light_stem("classes"), "class");
        assert_eq!(light_stem("tennis"), "tennis");
        assert_eq!(light_stem("surplus"), "surplus");
    }

    #[test]
    fn stemmer_verbal_rules() {
        assert_eq!(light_stem("ranked"), "rank");
        assert_eq!(light_stem("ranking"), "rank");
        assert_eq!(light_stem("rankings"), "rank");
        // Short stems are preserved.
        assert_eq!(light_stem("ring"), "ring");
        assert_eq!(light_stem("red"), "red");
    }

    #[test]
    fn stemmer_preserves_numbers_and_years() {
        assert_eq!(light_stem("2023s"), "2023s");
        assert_eq!(light_stem("369"), "369");
    }

    #[test]
    fn empty_and_punctuation_only_input() {
        let tok = Tokenizer::default();
        assert!(tok.tokenize("").is_empty());
        assert!(tok.tokenize("!!! --- ???").is_empty());
    }

    #[test]
    fn unicode_words_survive() {
        let tok = Tokenizer::default();
        let terms = tok.tokenize("Gaël Monfils était présent");
        assert!(terms.contains(&"gaël".to_string()));
        assert!(terms.contains(&"était".to_string()));
    }

    #[test]
    fn min_token_len_filters_short_tokens() {
        let tok = Tokenizer::new(AnalyzerConfig {
            min_token_len: 3,
            remove_stopwords: false,
            ..AnalyzerConfig::default()
        });
        let terms = tok.tokenize("a an the best");
        assert_eq!(terms, vec!["the", "best"]);
    }

    #[test]
    fn raw_tokens_preserve_case() {
        let tok = Tokenizer::default();
        assert_eq!(
            tok.raw_tokens("Coco Gauff, 2023"),
            vec!["Coco", "Gauff", "2023"]
        );
    }
}
