//! Natural-language prompt assembly.
//!
//! RAGE combines the query `q` and the retrieved context `Dq` into a prompt `p` that
//! instructs the LLM to answer using the delimited sources. [`PromptBuilder`] renders
//! that prompt text (for provenance display and logging) and produces the structured
//! [`LlmInput`] consumed by the model substrate.

use rage_llm::{LlmInput, SourceText};

/// Prompt template configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromptBuilder {
    /// Instruction preamble placed before the sources.
    pub instruction: String,
    /// Delimiter line printed before each source; `{index}` and `{id}` are substituted.
    pub source_header: String,
    /// Line introducing the question at the end of the prompt.
    pub question_header: String,
}

impl Default for PromptBuilder {
    fn default() -> Self {
        Self {
            instruction: "Answer the question using only the information contained in the \
                          following delimited sources. Reply with a short answer."
                .to_string(),
            source_header: "[Source {index}: {id}]".to_string(),
            question_header: "Question:".to_string(),
        }
    }
}

impl PromptBuilder {
    /// Render the full natural-language prompt `p` for a question and ordered sources.
    pub fn render(&self, question: &str, sources: &[SourceText]) -> String {
        let mut prompt = String::new();
        prompt.push_str(&self.instruction);
        prompt.push_str("\n\n");
        if sources.is_empty() {
            prompt.push_str("(no sources provided)\n\n");
        } else {
            for (index, source) in sources.iter().enumerate() {
                let header = self
                    .source_header
                    .replace("{index}", &(index + 1).to_string())
                    .replace("{id}", &source.id);
                prompt.push_str(&header);
                prompt.push('\n');
                prompt.push_str(&source.text);
                prompt.push_str("\n\n");
            }
        }
        prompt.push_str(&self.question_header);
        prompt.push(' ');
        prompt.push_str(question);
        prompt
    }

    /// The structured input handed to the language model.
    pub fn build_input(&self, question: &str, sources: &[SourceText]) -> LlmInput {
        LlmInput::new(question, sources.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources() -> Vec<SourceText> {
        vec![
            SourceText::new("doc-a", "Federer leads match wins."),
            SourceText::new("doc-b", "Djokovic leads grand slams."),
        ]
    }

    #[test]
    fn renders_instruction_sources_and_question() {
        let builder = PromptBuilder::default();
        let prompt = builder.render("Who is the best?", &sources());
        assert!(prompt.starts_with("Answer the question"));
        assert!(prompt.contains("[Source 1: doc-a]"));
        assert!(prompt.contains("[Source 2: doc-b]"));
        assert!(prompt.contains("Federer leads match wins."));
        assert!(prompt.ends_with("Question: Who is the best?"));
    }

    #[test]
    fn source_order_is_preserved_in_the_prompt() {
        let builder = PromptBuilder::default();
        let prompt = builder.render("q", &sources());
        let pos_a = prompt.find("doc-a").unwrap();
        let pos_b = prompt.find("doc-b").unwrap();
        assert!(pos_a < pos_b);

        let mut reversed = sources();
        reversed.reverse();
        let prompt = builder.render("q", &reversed);
        let pos_a = prompt.find("doc-a").unwrap();
        let pos_b = prompt.find("doc-b").unwrap();
        assert!(pos_b < pos_a);
    }

    #[test]
    fn empty_context_is_stated_explicitly() {
        let builder = PromptBuilder::default();
        let prompt = builder.render("Who won?", &[]);
        assert!(prompt.contains("(no sources provided)"));
        assert!(prompt.contains("Who won?"));
    }

    #[test]
    fn custom_templates_are_applied() {
        let builder = PromptBuilder {
            instruction: "INSTRUCTION".into(),
            source_header: "### {id} ###".into(),
            question_header: "Q>".into(),
        };
        let prompt = builder.render("why?", &sources());
        assert!(prompt.starts_with("INSTRUCTION"));
        assert!(prompt.contains("### doc-a ###"));
        assert!(prompt.contains("Q> why?"));
    }

    #[test]
    fn build_input_round_trips_sources() {
        let builder = PromptBuilder::default();
        let input = builder.build_input("q", &sources());
        assert_eq!(input.question, "q");
        assert_eq!(input.num_sources(), 2);
        assert_eq!(input.sources[0].id, "doc-a");
    }
}
