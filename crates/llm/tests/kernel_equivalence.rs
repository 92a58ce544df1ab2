//! Differential bit-identity suite: the fused kernel forward pass versus the
//! straight-line reference implementation.
//!
//! The `kernels` module promises that [`Transformer::forward_cached`] is
//! **bit-identical** to [`Transformer::forward_reference`] — same `f64`
//! operation order inside every fused loop, so every golden snapshot and
//! prefix-cache guarantee in the workspace holds unchanged. This suite
//! enforces that promise at three levels:
//!
//! 1. **Transformer level** — `f64::to_bits` equality of every attention
//!    weight over SplitMix64-randomised prompts × transformer configurations
//!    (dims, heads, layers, temperature, seed), with the prefix cache off,
//!    on-and-cold, and on-and-warm.
//! 2. **Model level** — `SimLlm` generations (answers *and* raw attention
//!    read-outs) match between a fused and a reference-forward model.
//! 3. **Evaluator level** — full `RageReport`s produced through 1/2/4-thread
//!    `ParallelEvaluator` worker pools over a fused model equal the reference
//!    model's, cache on and off.
//!
//! A fourth check pins the production read-out: the source masses of
//! [`Transformer::forward_readout`] equal `aggregate_*(forward_cached)` bit
//! for bit, causal and bidirectional, cache off, cold and warm, including
//! prompts at the read-out's edges.
//!
//! Everything is seeded; failures reproduce deterministically.

//! Every test here pins [`KernelBackend::Scalar`] explicitly: the
//! bit-identity contract is a property of the scalar kernels, and pinning
//! keeps the suite green when the crate is built with `--features simd`
//! (which only flips the *default* backend). The SIMD backend has its own
//! ULP-bounded differential suite in `simd_equivalence.rs`.

use std::sync::Arc;

use rage_core::explanation::ReportConfig;
use rage_core::{ParallelEvaluator, RagPipeline, RageReport};
use rage_datasets::{big_three, us_open, Scenario};
use rage_llm::attention::{Readout, SourceAttention};
use rage_llm::cache::PrefixCache;
use rage_llm::kernels::KernelBackend;
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_llm::tokenizer::{PromptToken, Segment, SimTokenizer, TokenizedPrompt};
use rage_llm::transformer::{AttentionRecord, Transformer, TransformerConfig};
use rage_llm::{LanguageModel, LlmInput, SourceText};
use rage_retrieval::{IndexBuilder, Searcher};

/// A transformer pinned to the scalar oracle backend.
fn scalar_transformer(config: TransformerConfig) -> Transformer {
    Transformer::new(config).with_backend(KernelBackend::Scalar)
}

/// SplitMix64 step — the workspace's standard deterministic mixer.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small vocabulary with deliberate overlap so random prompts contain
/// repeated tokens (the prefix cache's bread and butter) and question/source
/// lexical matches.
const VOCABULARY: &[&str] = &[
    "who", "won", "the", "most", "titles", "federer", "djokovic", "nadal", "open", "grand", "slam",
    "in", "wins", "clay", "court", "year", "champion", "recent", "first", "weeks",
];

fn random_words(state: &mut u64, len: usize) -> String {
    (0..len)
        .map(|_| VOCABULARY[(splitmix64(state) % VOCABULARY.len() as u64) as usize])
        .collect::<Vec<_>>()
        .join(" ")
}

/// A randomised prompt: 2–6 question words, 0–5 sources of 1–9 words each.
fn random_input(state: &mut u64) -> LlmInput {
    let question_len = 2 + (splitmix64(state) % 5) as usize;
    let question = random_words(state, question_len);
    let num_sources = (splitmix64(state) % 6) as usize;
    let sources = (0..num_sources)
        .map(|i| {
            let len = 1 + (splitmix64(state) % 9) as usize;
            SourceText::new(format!("s{i}"), random_words(state, len))
        })
        .collect();
    LlmInput::new(question, sources)
}

/// Assert two attention records are identical down to the last bit.
fn assert_bit_identical(label: &str, fused: &AttentionRecord, reference: &AttentionRecord) {
    assert_eq!(fused.seq_len, reference.seq_len, "{label}: seq_len");
    assert_eq!(
        fused.layers.len(),
        reference.layers.len(),
        "{label}: layer count"
    );
    for (l, (fl, rl)) in fused.layers.iter().zip(reference.layers.iter()).enumerate() {
        assert_eq!(
            fl.heads.len(),
            rl.heads.len(),
            "{label}: heads at layer {l}"
        );
        for (h, (fm, rm)) in fl.heads.iter().zip(rl.heads.iter()).enumerate() {
            assert_eq!(
                (fm.rows, fm.cols),
                (rm.rows, rm.cols),
                "{label}: shape at layer {l} head {h}"
            );
            for (i, (f, r)) in fm.data.iter().zip(rm.data.iter()).enumerate() {
                assert_eq!(
                    f.to_bits(),
                    r.to_bits(),
                    "{label}: layer {l} head {h} entry {i}: fused {f:e} vs reference {r:e}"
                );
            }
        }
    }
}

/// The configuration sweep: every dim/head/layer shape the kernels must
/// handle, including non-power-of-two head counts (where the head-averaging
/// division must stay a division), dims that don't divide evenly, and a
/// single-token-block dimension smaller than the kernel block size.
fn config_sweep() -> Vec<TransformerConfig> {
    let mut configs = Vec::new();
    for (dim, heads, layers) in [
        (32, 2, 2), // the default shape
        (32, 3, 2), // heads don't divide dim; head-average is a true division
        (8, 1, 1),  // minimal shape
        (17, 4, 3), // odd dim, deeper stack
        (3, 2, 2),  // head_dim == 1
        (64, 8, 1), // wide and shallow
    ] {
        configs.push(TransformerConfig {
            layers,
            heads,
            dim,
            temperature: 0.35,
            seed: 0x5eed_1234 ^ ((dim as u64) << 8) ^ heads as u64,
            causal: false,
        });
    }
    // Temperature extremes sharpen/flatten the softmax.
    configs.push(TransformerConfig {
        temperature: 0.05,
        ..TransformerConfig::default()
    });
    configs.push(TransformerConfig {
        temperature: 3.0,
        ..TransformerConfig::default()
    });
    configs
}

#[test]
fn fused_forward_is_bit_identical_to_reference_across_configs_and_prompts() {
    let tokenizer = SimTokenizer::new();
    let mut state = 0x1234_5678_9ABC_DEF0;
    for config in config_sweep() {
        let transformer = scalar_transformer(config);
        for round in 0..8 {
            let input = random_input(&mut state);
            let prompt = tokenizer.tokenize_prompt(&input);
            let fused = transformer.forward(&prompt);
            let reference = transformer.forward_reference(&prompt, None);
            assert_bit_identical(
                &format!(
                    "dim={} heads={} layers={} t={} round={round}",
                    config.dim, config.heads, config.layers, config.temperature
                ),
                &fused,
                &reference,
            );
        }
    }
}

#[test]
fn fused_forward_matches_reference_with_prefix_cache_cold_and_warm() {
    let tokenizer = SimTokenizer::new();
    let mut state = 0xFEED_FACE_CAFE_BEEF;
    for config in [
        TransformerConfig::default(),
        TransformerConfig {
            heads: 3,
            dim: 24,
            ..TransformerConfig::default()
        },
    ] {
        let transformer = scalar_transformer(config);
        // Separate caches per path: stats differ by construction, values may
        // not. Warmth builds up across rounds as prompts share tokens.
        let fused_cache = PrefixCache::default();
        let reference_cache = PrefixCache::default();
        for round in 0..10 {
            let input = random_input(&mut state);
            let prompt = tokenizer.tokenize_prompt(&input);
            let uncached = transformer.forward_reference(&prompt, None);
            let fused_cached = transformer.forward_cached(&prompt, Some(&fused_cache));
            let reference_cached = transformer.forward_reference(&prompt, Some(&reference_cache));
            let label = format!("dim={} heads={} round={round}", config.dim, config.heads);
            assert_bit_identical(
                &format!("{label} fused+cache vs plain"),
                &fused_cached,
                &uncached,
            );
            assert_bit_identical(
                &format!("{label} fused+cache vs reference+cache"),
                &fused_cached,
                &reference_cached,
            );
        }
        assert!(
            fused_cache.stats().hits > 0,
            "warm rounds must produce cache hits"
        );
    }
}

#[test]
fn fused_and_reference_caches_are_interchangeable() {
    // A cache warmed by the fused path must serve the reference path
    // unchanged and vice versa — entries are bit-identical, so sharing one
    // cache across both implementations is legal.
    let tokenizer = SimTokenizer::new();
    let transformer = scalar_transformer(TransformerConfig::default());
    let shared = PrefixCache::default();
    let mut state = 0x0BAD_F00D;
    for _ in 0..6 {
        let input = random_input(&mut state);
        let prompt = tokenizer.tokenize_prompt(&input);
        let fused = transformer.forward_cached(&prompt, Some(&shared));
        let reference = transformer.forward_reference(&prompt, Some(&shared));
        assert_bit_identical("shared cache", &fused, &reference);
    }
}

fn assert_masses_bit_identical(label: &str, got: &SourceAttention, want: &SourceAttention) {
    let bits = |a: &SourceAttention| a.masses.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(got),
        bits(want),
        "{label}: {:?} vs {:?}",
        got.masses,
        want.masses
    );
}

/// Prompts at the read-out's edges: no sources, a one-token question (the
/// marker alone), an empty source, and hand-built layouts whose question
/// span starts mid-sequence, ends the sequence, or is empty — the tokenizer
/// always starts the question at 0, so only these reach the last layer's
/// directly-scored (unmirrored) rows.
fn edge_prompts(tokenizer: &SimTokenizer, state: &mut u64) -> Vec<TokenizedPrompt> {
    let mut prompts = vec![
        tokenizer.tokenize_prompt(&LlmInput::without_context("who won the most")),
        tokenizer.tokenize_prompt(&LlmInput::new(
            "",
            vec![
                SourceText::new("a", "federer wins"),
                SourceText::new("b", "clay"),
            ],
        )),
        tokenizer.tokenize_prompt(&LlmInput::new(
            "who won",
            vec![SourceText::new("a", ""), SourceText::new("b", "nadal open")],
        )),
    ];
    let n = 11;
    for (question_span, source_spans) in [
        ((3, 6), vec![(0, 3), (6, 11)]),
        ((10, 11), vec![(0, 4), (4, 10)]),
        ((7, 7), vec![(0, 7), (7, 11)]),
        ((0, 11), vec![(2, 5)]),
    ] {
        let tokens = (0..n)
            .map(|_| PromptToken {
                id: 8 + (splitmix64(state) % 40) as u32,
                segment: Segment::Question,
            })
            .collect();
        prompts.push(TokenizedPrompt {
            tokens,
            source_spans,
            question_span,
        });
    }
    prompts
}

#[test]
fn readout_masses_are_bit_identical_to_aggregated_records() {
    let tokenizer = SimTokenizer::new();
    let mut state = 0x0EAD_0A57;
    for causal in [false, true] {
        for mut config in config_sweep() {
            config.causal = causal;
            let transformer = scalar_transformer(config);
            // One cache across the sweep's prompts (warmth builds up) and a
            // fresh one per prompt and read-out (cold), besides no cache.
            let shared = PrefixCache::default();
            let mut prompts = edge_prompts(&tokenizer, &mut state);
            for _ in 0..6 {
                prompts.push(tokenizer.tokenize_prompt(&random_input(&mut state)));
            }
            for (i, prompt) in prompts.iter().enumerate() {
                let record = transformer.forward_cached(prompt, None);
                for readout in [Readout::Question, Readout::WholePrompt] {
                    let cold = PrefixCache::default();
                    let label = format!(
                        "dim={} heads={} layers={} causal={causal} prompt={i} {readout:?}",
                        config.dim, config.heads, config.layers
                    );
                    let want = readout.aggregate(&record, prompt);
                    // The second pass over the shared cache has seen this
                    // very prompt: warm for every token.
                    for (cache_label, cache) in [
                        ("off", None),
                        ("cold", Some(&cold)),
                        ("shared", Some(&shared)),
                        ("warm", Some(&shared)),
                    ] {
                        let got = transformer.forward_readout(prompt, cache, readout);
                        assert_masses_bit_identical(
                            &format!("{label} cache={cache_label}"),
                            &got,
                            &want,
                        );
                    }
                }
            }
            assert!(shared.stats().hits > 0, "warm rounds must hit the cache");
        }
    }
}

#[test]
fn sim_llm_generations_match_reference_forward_bitwise() {
    let mut state = 0x5EED_0001;
    for heads in [2usize, 3] {
        let config = SimLlmConfig {
            transformer: TransformerConfig {
                heads,
                ..TransformerConfig::default()
            },
            ..SimLlmConfig::default()
        };
        let fused = SimLlm::new(config.clone()).with_kernel_backend(KernelBackend::Scalar);
        let reference = SimLlm::new(config).with_reference_forward();
        for round in 0..12 {
            let input = random_input(&mut state);
            let f = fused.generate(&input);
            let r = reference.generate(&input);
            assert_eq!(f.answer, r.answer, "heads={heads} round={round}: answer");
            assert_eq!(f.text, r.text, "heads={heads} round={round}: text");
            assert_eq!(
                f.prompt_tokens, r.prompt_tokens,
                "heads={heads} round={round}: prompt tokens"
            );
            assert_eq!(
                f.source_attention.len(),
                r.source_attention.len(),
                "heads={heads} round={round}: attention length"
            );
            for (i, (a, b)) in f
                .source_attention
                .iter()
                .zip(r.source_attention.iter())
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "heads={heads} round={round}: attention[{i}] {a:e} vs {b:e}"
                );
            }
        }
    }
}

/// A pipeline over a scenario whose model uses the fused or reference
/// forward, with or without a prefix cache.
fn pipeline_for(scenario: &Scenario, reference: bool, prefix_cache: bool) -> RagPipeline {
    let searcher = Searcher::new(IndexBuilder::default().build(&scenario.corpus));
    let mut llm = SimLlm::new(SimLlmConfig::default().with_prior(scenario.prior.clone()))
        .with_kernel_backend(KernelBackend::Scalar);
    if reference {
        llm = llm.with_reference_forward();
    }
    if prefix_cache {
        llm = llm.with_prefix_cache(Arc::new(PrefixCache::default()));
    }
    RagPipeline::new(searcher, Arc::new(llm))
}

fn report_config() -> ReportConfig {
    ReportConfig {
        num_optimal_orders: 2,
        combination_budget: Some(24),
        permutation_budget: Some(16),
        insight_samples: 8,
        seed: 7,
        ..ReportConfig::default()
    }
}

#[test]
fn parallel_evaluator_reports_match_reference_model_across_thread_counts() {
    // The whole explanation stack — counterfactual searches, permutation
    // sensitivity, optimal placements, insights — over the fused kernels,
    // through 1/2/4-thread worker pools, cache off and on, must reproduce
    // the reference model's report exactly.
    let config = report_config();
    for scenario in [us_open::scenario(), big_three::scenario()] {
        let (_, reference_eval) = pipeline_for(&scenario, true, false)
            .ask_and_explain(&scenario.question, scenario.retrieval_k)
            .expect("scenario question retrieves a context");
        let reference_report = RageReport::generate(&reference_eval, &config).unwrap();

        for threads in [1usize, 2, 4] {
            for prefix_cache in [false, true] {
                let (_, evaluator) = pipeline_for(&scenario, false, prefix_cache)
                    .ask_and_explain(&scenario.question, scenario.retrieval_k)
                    .expect("scenario question retrieves a context");
                let parallel = ParallelEvaluator::new(evaluator, threads);
                let report = RageReport::generate(&parallel, &config).unwrap();
                // Explanation content must be fully identical; only raw cost
                // counters may differ (speculative batch windows), which is
                // why the comparison goes field by field through PartialEq on
                // the explanation-bearing members.
                assert_eq!(
                    report.question, reference_report.question,
                    "{} @{threads}t cache={prefix_cache}: question",
                    scenario.name
                );
                assert_eq!(
                    report.full_context_answer, reference_report.full_context_answer,
                    "{} @{threads}t cache={prefix_cache}: answer",
                    scenario.name
                );
                assert_eq!(
                    report.empty_context_answer, reference_report.empty_context_answer,
                    "{} @{threads}t cache={prefix_cache}: empty answer",
                    scenario.name
                );
                assert_eq!(
                    report.source_scores, reference_report.source_scores,
                    "{} @{threads}t cache={prefix_cache}: source scores",
                    scenario.name
                );
                assert_eq!(
                    report.top_down.counterfactual, reference_report.top_down.counterfactual,
                    "{} @{threads}t cache={prefix_cache}: top-down",
                    scenario.name
                );
                assert_eq!(
                    report.bottom_up.counterfactual, reference_report.bottom_up.counterfactual,
                    "{} @{threads}t cache={prefix_cache}: bottom-up",
                    scenario.name
                );
                assert_eq!(
                    report.permutation.counterfactual, reference_report.permutation.counterfactual,
                    "{} @{threads}t cache={prefix_cache}: permutation",
                    scenario.name
                );
                assert_eq!(
                    report.best_orders, reference_report.best_orders,
                    "{} @{threads}t cache={prefix_cache}: best orders",
                    scenario.name
                );
                assert_eq!(
                    report.worst_orders, reference_report.worst_orders,
                    "{} @{threads}t cache={prefix_cache}: worst orders",
                    scenario.name
                );
                assert_eq!(
                    report.insights.distribution, reference_report.insights.distribution,
                    "{} @{threads}t cache={prefix_cache}: insight distribution",
                    scenario.name
                );
                assert_eq!(
                    report.insights.table, reference_report.insights.table,
                    "{} @{threads}t cache={prefix_cache}: insight table",
                    scenario.name
                );
                assert_eq!(
                    report.insights.rules, reference_report.insights.rules,
                    "{} @{threads}t cache={prefix_cache}: insight rules",
                    scenario.name
                );
            }
        }
    }
}

#[test]
fn sequential_fused_report_equals_reference_report_exactly() {
    // With identical (sequential) evaluation order even the cost counters
    // must agree: the kernels change *nothing* observable.
    let config = report_config();
    let scenario = big_three::scenario();
    let (_, fused_eval) = pipeline_for(&scenario, false, false)
        .ask_and_explain(&scenario.question, scenario.retrieval_k)
        .unwrap();
    let (_, reference_eval) = pipeline_for(&scenario, true, false)
        .ask_and_explain(&scenario.question, scenario.retrieval_k)
        .unwrap();
    let fused = RageReport::generate(&fused_eval, &config).unwrap();
    let reference = RageReport::generate(&reference_eval, &config).unwrap();
    assert_eq!(fused, reference);
}
