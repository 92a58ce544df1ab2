//! Outside-in tracing: spans and counts recorded around calls into each
//! layer's public functions, plus the library replay that mirrors a
//! `Service` scenario runtime through traced wrappers of the public
//! `Retriever`, `LanguageModel` and `Evaluate` traits.
//!
//! A span names its layer by the prefix before the first `.` (`server`,
//! `report`, `core`, `llm`, `retrieval`); `gap.*` spans are the replay's own
//! glue, the time no layer accounts for. Spans of one operation share its id.
//! A span's children are either nested inside it in time (the replay's
//! sections, forwards and searches) or the same work made as a separate,
//! later call one layer down (the HTTP round trip's child is the same call
//! made directly on the shared `Service`). Self time is a span's duration
//! minus its children's.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use rage_core::counterfactual::{
    find_combination_counterfactual, find_permutation_counterfactual, CounterfactualConfig,
    SearchDirection,
};
use rage_core::evaluator::{CacheStats, Evaluate, Evaluator};
use rage_core::explanation::ReportConfig;
use rage_core::insights::{random_permutations, Insights, DEFAULT_MIN_CONFIDENCE};
use rage_core::optimal::{ranked_orders_with_budget, OptimalConfig, OrderObjective};
use rage_core::{
    Context, Perturbation, RagPipeline, RagResponse, RageError, RageReport, SearchBudget,
};
use rage_datasets::Scenario;
use rage_llm::cache::PrefixCache;
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_llm::{Generation, LanguageModel, LlmInput};
use rage_retrieval::{
    CorpusVersion, Document, LiveSearcher, RankedSource, RetrievalError, Retriever,
};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub ns: u64,
}

/// One recorded count.
#[derive(Debug, Clone)]
pub struct Count {
    pub name: &'static str,
    pub value: f64,
}

#[derive(Default)]
struct Tracer {
    enabled: bool,
    op: u64,
    stack: Vec<usize>,
    spans: Vec<Span>,
    counts: Vec<Count>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Turn recording on or off for the calling thread.
pub fn set_enabled(enabled: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = enabled);
}

/// Start a new operation on the calling thread.
pub fn begin_op(op: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.op = op;
        t.stack.clear();
    });
}

/// Time `f` as a span named `name` under the innermost open span; returns
/// the span's index (`usize::MAX` while tracing is off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, usize) {
    let index = TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return usize::MAX;
        }
        let index = t.spans.len();
        let span = Span {
            op: t.op,
            name,
            parent: t.stack.last().copied(),
            ns: 0,
        };
        t.spans.push(span);
        t.stack.push(index);
        index
    });
    if index == usize::MAX {
        return (f(), index);
    }
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.spans[index].ns = ns;
        t.stack.pop();
    });
    (out, index)
}

/// Run `f` with `parent` as the open span, so spans `f` records become its
/// children although they run after it ended.
pub fn within<T>(parent: usize, f: impl FnOnce() -> T) -> T {
    if parent == usize::MAX {
        return f();
    }
    TRACER.with(|t| t.borrow_mut().stack.push(parent));
    let out = f();
    TRACER.with(|t| t.borrow_mut().stack.pop());
    out
}

/// Record a count.
pub fn count(name: &'static str, value: f64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if t.enabled {
            t.counts.push(Count { name, value });
        }
    });
}

/// Drain the calling thread's spans and counts.
pub fn take() -> (Vec<Span>, Vec<Count>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        (std::mem::take(&mut t.spans), std::mem::take(&mut t.counts))
    })
}

/// The spans and counts of a traced phase, indexed for the metrics.
#[derive(Default)]
pub struct Ledger {
    /// `(op, name, duration ns, self ns)` per span.
    rows: Vec<(u64, &'static str, u64, i64)>,
    counts: Vec<Count>,
    /// Root span duration per op.
    roots: HashMap<u64, u64>,
}

impl Ledger {
    /// Add one thread's recording.
    pub fn absorb(&mut self, spans: Vec<Span>, counts: Vec<Count>) {
        let mut child_ns = vec![0u64; spans.len()];
        for span in &spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.ns;
            }
        }
        for (span, children) in spans.iter().zip(child_ns) {
            if span.parent.is_none() {
                *self.roots.entry(span.op).or_default() += span.ns;
            }
            self.rows.push((
                span.op,
                span.name,
                span.ns,
                span.ns as i64 - children as i64,
            ));
        }
        self.counts.extend(counts);
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.rows
            .iter()
            .filter(|row| is_under(row.1, name))
            .map(|row| row.2 as f64 / 1e6)
            .collect()
    }

    /// Self times of every span named `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.rows
            .iter()
            .filter(|row| is_under(row.1, name))
            .map(|row| row.3 as f64 / 1e6)
            .collect()
    }

    /// Total duration of spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    /// Sum of a count over all ops.
    pub fn count_sum(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Sum of root-span durations, in milliseconds.
    pub fn root_ms(&self) -> f64 {
        self.roots.values().sum::<u64>() as f64 / 1e6
    }

    /// Sum of self times of every span in `layer` (its name prefix), in ms.
    pub fn layer_self_ms(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .filter(|row| row.1.split('.').next() == Some(layer))
            .map(|row| row.3 as f64 / 1e6)
            .sum()
    }

    /// Sum of the negative self times of every span, in ms, as a positive
    /// number: time a separately-made child ran beyond its parent, which no
    /// layer can be credited with.
    pub fn negative_self_ms(&self) -> f64 {
        self.negative_self_by_span().iter().map(|(_, ms)| ms).sum()
    }

    /// `negative_self_ms` split by span name, largest first.
    pub fn negative_self_by_span(&self) -> Vec<(&'static str, f64)> {
        let mut by_span: HashMap<&'static str, f64> = HashMap::new();
        for row in &self.rows {
            if row.3 < 0 {
                *by_span.entry(row.1).or_default() += -row.3 as f64 / 1e6;
            }
        }
        let mut by_span: Vec<_> = by_span.into_iter().collect();
        by_span.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        by_span
    }
}

/// Whether span `name` is `query` or one of its `query.*` refinements.
fn is_under(name: &str, query: &str) -> bool {
    name.strip_prefix(query)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
}

// ---------------------------------------------------------------------------
// Traced wrappers of the public traits.

/// A `Retriever` over a live index that times every search.
pub struct TracedRetriever(pub Arc<LiveSearcher>);

impl Retriever for TracedRetriever {
    fn try_search(&self, query: &str, k: usize) -> Result<Vec<RankedSource>, RetrievalError> {
        count("retrieval.search_calls", 1.0);
        span("retrieval.search", || self.0.try_search(query, k)).0
    }

    fn score_document(&self, query: &str, doc_id: &str) -> Result<f64, RetrievalError> {
        span("retrieval.score", || self.0.score_document(query, doc_id)).0
    }

    fn num_docs(&self) -> usize {
        self.0.num_docs()
    }

    fn corpus_version(&self) -> Option<CorpusVersion> {
        self.0.corpus_version()
    }
}

/// A `LanguageModel` that times every forward and counts prompt tokens.
pub struct TracedLlm(pub SimLlm);

impl LanguageModel for TracedLlm {
    fn generate(&self, input: &LlmInput) -> Generation {
        let generation = span("llm.generate", || self.0.generate(input)).0;
        count("llm.calls", 1.0);
        count("llm.prompt_tokens", generation.prompt_tokens as f64);
        generation
    }

    fn batch_generate(&self, inputs: &[LlmInput]) -> Vec<Generation> {
        let generations = span("llm.batch", || self.0.batch_generate(inputs)).0;
        count("llm.calls", inputs.len() as f64);
        count("llm.batch_calls", 1.0);
        count("llm.batch_inputs", inputs.len() as f64);
        let tokens: usize = generations.iter().map(|g| g.prompt_tokens).sum();
        count("llm.prompt_tokens", tokens as f64);
        generations
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// An `Evaluate` over the replay's evaluator that counts batch sizes.
struct TracedEvaluator<'a>(&'a Evaluator);

impl Evaluate for TracedEvaluator<'_> {
    fn context(&self) -> &Context {
        Evaluate::context(self.0)
    }

    fn question(&self) -> &str {
        Evaluate::question(self.0)
    }

    fn generation_for(&self, perturbation: &Perturbation) -> Result<Generation, RageError> {
        Evaluate::generation_for(self.0, perturbation)
    }

    fn evaluate_batch(&self, perturbations: &[Perturbation]) -> Vec<Result<Generation, RageError>> {
        count("core.batches", 1.0);
        count("core.batch_items", perturbations.len() as f64);
        Evaluate::evaluate_batch(self.0, perturbations)
    }

    fn preferred_batch(&self) -> usize {
        Evaluate::preferred_batch(self.0)
    }

    fn llm_calls(&self) -> usize {
        Evaluate::llm_calls(self.0)
    }

    fn evaluations(&self) -> usize {
        Evaluate::evaluations(self.0)
    }

    fn cache_stats(&self) -> CacheStats {
        Evaluate::cache_stats(self.0)
    }

    fn prompt_text(&self, perturbation: &Perturbation) -> Result<String, RageError> {
        Evaluate::prompt_text(self.0, perturbation)
    }
}

macro_rules! sections {
    ($($name:ident),*) => {
        [$((
            stringify!($name),
            concat!("core.section.", stringify!($name)),
            concat!("core.section_evals.", stringify!($name)),
            concat!("core.section_llm_calls.", stringify!($name)),
        )),*]
    };
}

/// The report sections in `RageReport::generate_with_deadline` order, with
/// their span, evaluation-count and LLM-call-count names.
pub const SECTIONS: [(&str, &str, &str, &str); 8] = sections!(
    baseline,
    scores,
    top_down,
    bottom_up,
    permutation,
    best_orders,
    worst_orders,
    insights
);

/// Time one report section and count the evaluations and LLM calls it paid.
fn section<T>(name: &str, evaluator: &Evaluator, f: impl FnOnce() -> T) -> T {
    let &(_, span_name, evals_name, calls_name) = SECTIONS
        .iter()
        .find(|section| section.0 == name)
        .expect("a listed section");
    let evals = evaluator.evaluations();
    let calls = evaluator.llm_calls();
    let out = span(span_name, f).0;
    count(evals_name, (evaluator.evaluations() - evals) as f64);
    count(calls_name, (evaluator.llm_calls() - calls) as f64);
    out
}

/// One corpus mutation, as sent to the server and mirrored into the replay.
#[derive(Debug, Clone)]
pub enum Write {
    Add(Document),
    Upsert(Document),
    Remove(String),
}

/// A library pipeline that mirrors one `Service` scenario runtime: a 1-shard
/// `LiveSearcher` over the scenario corpus and a `SimLlm` with the scenario
/// prior and its own `PrefixCache`, behind the traced wrappers.
pub struct Mirror {
    question: String,
    retrieval_k: usize,
    live: Arc<LiveSearcher>,
    prefix_cache: Arc<PrefixCache>,
    pipeline: RagPipeline<TracedRetriever>,
}

impl Mirror {
    /// Build the mirror; also returns the index build time in milliseconds.
    pub fn new(scenario: &Scenario) -> (Self, f64) {
        let start = Instant::now();
        let live = Arc::new(LiveSearcher::from_corpus(&scenario.corpus, 1));
        let build_ms = start.elapsed().as_secs_f64() * 1e3;
        let prefix_cache = Arc::new(PrefixCache::default());
        let llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()))
            .with_prefix_cache(Arc::clone(&prefix_cache));
        let pipeline =
            RagPipeline::new(TracedRetriever(Arc::clone(&live)), Arc::new(TracedLlm(llm)));
        let mirror = Mirror {
            question: scenario.question.clone(),
            retrieval_k: scenario.retrieval_k,
            live,
            prefix_cache,
            pipeline,
        };
        (mirror, build_ms)
    }

    /// Apply a mutation the server accepted; like the service, every
    /// mutation clears the prefix cache.
    pub fn apply(&self, write: &Write) -> Result<(), RetrievalError> {
        span("retrieval.write", || match write {
            Write::Add(doc) => self.live.add(doc.clone()).map(drop),
            Write::Upsert(doc) => self.live.upsert(doc.clone()).map(drop),
            Write::Remove(id) => self.live.remove(id).map(drop),
        })
        .0?;
        self.prefix_cache.clear();
        Ok(())
    }

    /// Start the next report from a cold prefix cache, as the service does
    /// after a mutation.
    pub fn clear_prefix_cache(&self) {
        self.prefix_cache.clear();
    }

    /// The scenario report, section by section, as `Service::report` builds
    /// it (without the corpus provenance only the service stamps).
    pub fn report(&self, config: &ReportConfig) -> Result<RageReport, RageError> {
        let (_, evaluator) = span("core.ask", || {
            self.pipeline
                .ask_and_explain(&self.question, self.retrieval_k)
        })
        .0?;
        let traced = TracedEvaluator(&evaluator);
        let e = &traced;
        let (full_context_answer, empty_context_answer) = section("baseline", &evaluator, || {
            Ok::<_, RageError>((e.full_context_answer()?, e.empty_context_answer()?))
        })?;
        let source_scores = section("scores", &evaluator, || config.scoring.source_scores(e))?;
        let combination_config = CounterfactualConfig {
            direction: SearchDirection::TopDown,
            scoring: config.scoring,
            max_size: None,
            budget: SearchBudget::from(config.combination_budget),
            prune: false,
        };
        let top_down = section("top_down", &evaluator, || {
            find_combination_counterfactual(e, &combination_config)
        })?;
        let bottom_up = section("bottom_up", &evaluator, || {
            find_combination_counterfactual(
                e,
                &CounterfactualConfig {
                    direction: SearchDirection::BottomUp,
                    ..combination_config
                },
            )
        })?;
        let permutation = section("permutation", &evaluator, || {
            find_permutation_counterfactual(e, &SearchBudget::from(config.permutation_budget))
        })?;
        let optimal_config = OptimalConfig {
            scoring: config.scoring,
            position_bias: config.position_bias,
            num_orders: config.num_optimal_orders,
        };
        let (best_orders, best_marker) = section("best_orders", &evaluator, || {
            ranked_orders_with_budget(
                e,
                &optimal_config,
                OrderObjective::Best,
                &SearchBudget::UNLIMITED,
            )
        })?;
        let (worst_orders, worst_marker) = section("worst_orders", &evaluator, || {
            ranked_orders_with_budget(
                e,
                &optimal_config,
                OrderObjective::Worst,
                &SearchBudget::UNLIMITED,
            )
        })?;
        let insights = section("insights", &evaluator, || {
            let samples = random_permutations(e.k(), config.insight_samples, config.seed);
            Insights::with_budget(
                e,
                &samples,
                DEFAULT_MIN_CONFIDENCE,
                &SearchBudget::UNLIMITED,
            )
        })?;
        let memo = evaluator.cache_stats();
        count("core.memo_hits", memo.hits as f64);
        count("core.memo_lookups", memo.lookups() as f64);
        Ok(RageReport {
            question: evaluator.question().to_string(),
            context: evaluator.context().clone(),
            full_context_answer,
            empty_context_answer,
            source_scores,
            top_down,
            bottom_up,
            permutation,
            permutation_budget: config.effective_permutation_budget(),
            best_orders,
            worst_orders,
            placements_completeness: best_marker.merge(worst_marker),
            insights,
            evaluations: evaluator.evaluations(),
            llm_calls: evaluator.llm_calls(),
            corpus: None,
        })
    }

    /// One ask, through the batched entry point the service's ask dispatcher
    /// uses.
    pub fn ask(&self, query: &str, k: usize) -> Result<RagResponse, RageError> {
        span("core.ask", || self.pipeline.ask_many(&[query], k))
            .0
            .pop()
            .expect("one response per query")
    }
}
