//! Documents, corpora and JSONL persistence.
//!
//! RAGE's knowledge sources are plain documents with an identifier, a title and a body.
//! A [`Corpus`] is an ordered collection of documents with unique identifiers; it is the
//! unit that gets indexed. Corpora can be round-tripped through the JSONL interchange
//! format Pyserini uses (`{"id": ..., "contents": ...}` one object per line).

use std::collections::{BTreeMap, HashSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use rage_json::{write_json_string, JsonValue};
use serde::{Deserialize, Serialize};

use crate::error::RetrievalError;

/// A single knowledge source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Document {
    /// Stable identifier, unique within a corpus.
    pub id: String,
    /// Short human-readable title.
    pub title: String,
    /// Main body text used for indexing and prompting.
    pub text: String,
    /// Optional key/value metadata (e.g. `year`, `metric`, `recency`).
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub fields: BTreeMap<String, String>,
}

impl Document {
    /// Create a document with empty metadata.
    pub fn new(id: impl Into<String>, title: impl Into<String>, text: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            text: text.into(),
            fields: BTreeMap::new(),
        }
    }

    /// Attach a metadata field (builder style).
    pub fn with_field(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.insert(key.into(), value.into());
        self
    }

    /// Title and body concatenated — the text that gets indexed and shown to the LLM.
    pub fn full_text(&self) -> String {
        if self.title.is_empty() {
            self.text.clone()
        } else {
            format!("{}. {}", self.title, self.text)
        }
    }

    /// Number of Unicode scalar values in the body.
    pub fn len_chars(&self) -> usize {
        self.text.chars().count()
    }
}

/// An ordered collection of documents with unique ids.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Corpus {
    documents: Vec<Document>,
    /// Ids of `documents`, kept in lockstep so the uniqueness check on every append
    /// is a hash probe instead of a linear scan (building a registry-scale corpus
    /// document by document used to be quadratic in corpus size).
    ids: HashSet<String>,
}

impl PartialEq for Corpus {
    fn eq(&self, other: &Self) -> bool {
        // `ids` is derived state; document order and content define equality.
        self.documents == other.documents
    }
}

impl Corpus {
    /// Create an empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a corpus from documents, failing on duplicate ids.
    pub fn from_documents(documents: Vec<Document>) -> Result<Self, RetrievalError> {
        let mut corpus = Corpus::new();
        for doc in documents {
            corpus.try_push(doc)?;
        }
        Ok(corpus)
    }

    /// Append a document, panicking on a duplicate id.
    ///
    /// Use [`Corpus::try_push`] when the id provenance is untrusted.
    pub fn push(&mut self, doc: Document) {
        self.try_push(doc).expect("duplicate document id");
    }

    /// Append a document, failing on a duplicate id.
    pub fn try_push(&mut self, doc: Document) -> Result<(), RetrievalError> {
        if self.ids.contains(&doc.id) {
            return Err(RetrievalError::DuplicateDocumentId(doc.id));
        }
        self.ids.insert(doc.id.clone());
        self.documents.push(doc);
        Ok(())
    }

    /// Remove a document by id, returning it. `None` when the id is not present.
    pub fn remove(&mut self, id: &str) -> Option<Document> {
        if !self.ids.remove(id) {
            return None;
        }
        let pos = self.documents.iter().position(|d| d.id == id)?;
        Some(self.documents.remove(pos))
    }

    /// Replace the document carrying `doc.id` in place, returning the previous
    /// version. Fails with [`RetrievalError::UnknownDocument`] when no document with
    /// that id exists.
    pub fn replace(&mut self, doc: Document) -> Result<Document, RetrievalError> {
        match self.documents.iter_mut().find(|d| d.id == doc.id) {
            Some(slot) => Ok(std::mem::replace(slot, doc)),
            None => Err(RetrievalError::UnknownDocument(doc.id)),
        }
    }

    /// Insert or replace: replace the document carrying `doc.id` if present, append
    /// it otherwise. Returns the previous version when there was one.
    pub fn upsert(&mut self, doc: Document) -> Option<Document> {
        match self.documents.iter_mut().find(|d| d.id == doc.id) {
            Some(slot) => Some(std::mem::replace(slot, doc)),
            None => {
                self.ids.insert(doc.id.clone());
                self.documents.push(doc);
                None
            }
        }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Whether the corpus holds no documents.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// Iterate over documents in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Document> {
        self.documents.iter()
    }

    /// All documents as a slice, in insertion order.
    pub fn documents(&self) -> &[Document] {
        &self.documents
    }

    /// Find a document by id.
    pub fn get(&self, id: &str) -> Option<&Document> {
        self.documents.iter().find(|d| d.id == id)
    }

    /// Read a corpus from a JSONL reader: one JSON document object per line.
    ///
    /// Each line must carry at least an `id`; the body may be under `text` or (as in
    /// Pyserini collections) `contents`.
    pub fn read_jsonl<R: Read>(reader: R) -> Result<Self, RetrievalError> {
        // An optional string member: absent or null yields `None`, any other
        // non-string type is a loud error (matching the strictness of a typed
        // deserializer, so corpus corruption cannot load silently).
        fn optional_string(value: &JsonValue, key: &str) -> Result<Option<String>, String> {
            match value.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(JsonValue::String(s)) => Ok(Some(s.clone())),
                Some(_) => Err(format!("field `{key}` must be a string")),
            }
        }

        fn parse_record(line: &str) -> Result<Document, String> {
            let value = JsonValue::parse(line).map_err(|e| e.to_string())?;
            if !matches!(value, JsonValue::Object(_)) {
                return Err("expected a JSON object".to_string());
            }
            let id = optional_string(&value, "id")?.ok_or("missing string field `id`")?;
            let title = optional_string(&value, "title")?.unwrap_or_default();
            let text = match optional_string(&value, "text")? {
                Some(text) => text,
                None => optional_string(&value, "contents")?.unwrap_or_default(),
            };
            let fields = match value.get("fields") {
                None | Some(JsonValue::Null) => BTreeMap::new(),
                Some(fields @ JsonValue::Object(members)) => {
                    if members
                        .iter()
                        .any(|(_, v)| !matches!(v, JsonValue::String(_)))
                    {
                        return Err("field `fields` must map strings to strings".to_string());
                    }
                    fields.string_map()
                }
                Some(_) => return Err("field `fields` must be an object".to_string()),
            };
            Ok(Document {
                id,
                title,
                text,
                fields,
            })
        }

        let buf = BufReader::new(reader);
        let mut corpus = Corpus::new();
        for (lineno, line) in buf.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let document = parse_record(&line).map_err(|message| RetrievalError::CorpusParse {
                line: lineno + 1,
                message,
            })?;
            corpus.try_push(document)?;
        }
        Ok(corpus)
    }

    /// Write the corpus as JSONL.
    pub fn write_jsonl<W: Write>(&self, mut writer: W) -> Result<(), RetrievalError> {
        for doc in &self.documents {
            let mut line = String::new();
            line.push_str("{\"id\":");
            write_json_string(&mut line, &doc.id);
            line.push_str(",\"title\":");
            write_json_string(&mut line, &doc.title);
            line.push_str(",\"text\":");
            write_json_string(&mut line, &doc.text);
            if !doc.fields.is_empty() {
                line.push_str(",\"fields\":{");
                for (i, (key, value)) in doc.fields.iter().enumerate() {
                    if i > 0 {
                        line.push(',');
                    }
                    write_json_string(&mut line, key);
                    line.push(':');
                    write_json_string(&mut line, value);
                }
                line.push('}');
            }
            line.push('}');
            writeln!(writer, "{line}")?;
        }
        Ok(())
    }

    /// Load a corpus from a JSONL file on disk.
    pub fn load_jsonl(path: impl AsRef<Path>) -> Result<Self, RetrievalError> {
        let file = std::fs::File::open(path)?;
        Self::read_jsonl(file)
    }

    /// Save the corpus to a JSONL file on disk.
    pub fn save_jsonl(&self, path: impl AsRef<Path>) -> Result<(), RetrievalError> {
        let file = std::fs::File::create(path)?;
        self.write_jsonl(file)
    }
}

impl FromIterator<Document> for Corpus {
    fn from_iter<T: IntoIterator<Item = Document>>(iter: T) -> Self {
        let mut corpus = Corpus::new();
        for doc in iter {
            corpus.push(doc);
        }
        corpus
    }
}

impl IntoIterator for Corpus {
    type Item = Document;
    type IntoIter = std::vec::IntoIter<Document>;

    fn into_iter(self) -> Self::IntoIter {
        self.documents.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Corpus {
        let mut c = Corpus::new();
        c.push(
            Document::new("d1", "Match wins", "Federer has 369 match wins")
                .with_field("metric", "match_wins"),
        );
        c.push(Document::new(
            "d2",
            "Grand slams",
            "Djokovic has 24 grand slams",
        ));
        c
    }

    #[test]
    fn push_and_get() {
        let c = sample();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get("d1").unwrap().title, "Match wins");
        assert!(c.get("missing").is_none());
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut c = sample();
        let err = c.try_push(Document::new("d1", "dup", "dup")).unwrap_err();
        assert!(matches!(err, RetrievalError::DuplicateDocumentId(_)));
    }

    #[test]
    fn remove_replace_and_upsert() {
        let mut c = sample();
        let removed = c.remove("d1").unwrap();
        assert_eq!(removed.title, "Match wins");
        assert!(c.remove("d1").is_none());
        assert_eq!(c.len(), 1);

        let old = c
            .replace(Document::new("d2", "Slams", "Djokovic has 24 majors"))
            .unwrap();
        assert_eq!(old.title, "Grand slams");
        assert_eq!(c.get("d2").unwrap().title, "Slams");
        assert!(matches!(
            c.replace(Document::new("ghost", "", "x")),
            Err(RetrievalError::UnknownDocument(_))
        ));

        assert!(c.upsert(Document::new("d3", "", "new doc")).is_none());
        assert!(c.upsert(Document::new("d3", "", "newer doc")).is_some());
        assert_eq!(c.get("d3").unwrap().text, "newer doc");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn from_documents_checks_duplicates() {
        let docs = vec![Document::new("a", "", "x"), Document::new("a", "", "y")];
        assert!(Corpus::from_documents(docs).is_err());
    }

    #[test]
    fn full_text_includes_title() {
        let d = Document::new("d", "Title", "Body");
        assert_eq!(d.full_text(), "Title. Body");
        let d = Document::new("d", "", "Body only");
        assert_eq!(d.full_text(), "Body only");
    }

    #[test]
    fn jsonl_round_trip() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_jsonl(&mut buf).unwrap();
        let restored = Corpus::read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(c, restored);
    }

    #[test]
    fn jsonl_null_text_falls_back_to_contents() {
        let jsonl = r#"{"id": "p1", "text": null, "contents": "US Open 2023 champion Coco Gauff"}"#;
        let c = Corpus::read_jsonl(jsonl.as_bytes()).unwrap();
        assert_eq!(
            c.get("p1").unwrap().text,
            "US Open 2023 champion Coco Gauff"
        );
    }

    #[test]
    fn jsonl_rejects_wrongly_typed_members() {
        for bad in [
            r#"{"id": 3, "text": "x"}"#,
            r#"{"id": "d", "title": 3}"#,
            r#"{"id": "d", "text": ["x"]}"#,
            r#"{"id": "d", "fields": {"year": 2023}}"#,
            r#"{"id": "d", "fields": "not a map"}"#,
        ] {
            let err = Corpus::read_jsonl(bad.as_bytes()).unwrap_err();
            assert!(
                matches!(err, RetrievalError::CorpusParse { line: 1, .. }),
                "input {bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn jsonl_accepts_pyserini_contents_field() {
        let jsonl = r#"{"id": "p1", "contents": "US Open 2023 champion Coco Gauff"}"#;
        let c = Corpus::read_jsonl(jsonl.as_bytes()).unwrap();
        assert_eq!(
            c.get("p1").unwrap().text,
            "US Open 2023 champion Coco Gauff"
        );
    }

    #[test]
    fn jsonl_skips_blank_lines() {
        let jsonl = "\n{\"id\": \"a\", \"text\": \"x\"}\n\n{\"id\": \"b\", \"text\": \"y\"}\n";
        let c = Corpus::read_jsonl(jsonl.as_bytes()).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn jsonl_reports_line_numbers_on_error() {
        let jsonl = "{\"id\": \"a\", \"text\": \"x\"}\nnot json\n";
        let err = Corpus::read_jsonl(jsonl.as_bytes()).unwrap_err();
        match err {
            RetrievalError::CorpusParse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("rage_retrieval_doc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.jsonl");
        let c = sample();
        c.save_jsonl(&path).unwrap();
        let restored = Corpus::load_jsonl(&path).unwrap();
        assert_eq!(c, restored);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn collect_from_iterator() {
        let c: Corpus = (0..5)
            .map(|i| Document::new(format!("d{i}"), "", format!("text {i}")))
            .collect();
        assert_eq!(c.len(), 5);
        let ids: Vec<_> = c.into_iter().map(|d| d.id).collect();
        assert_eq!(ids, vec!["d0", "d1", "d2", "d3", "d4"]);
    }
}
