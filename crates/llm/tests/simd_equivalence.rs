//! Differential suite for the SIMD kernel backend and the causal-attention
//! mode.
//!
//! Three layers of guarantees, complementing `kernel_equivalence.rs` (which
//! pins the scalar backend's strict bit-identity):
//!
//! 1. **Remainder-lane sweep** — every kernel over exhaustive small shapes
//!    (`dim`/`key_dim`/context length `0..=17`, covering 1, primes, and the
//!    4-lane block boundaries), scalar backend bit-compared against the
//!    straight-line formula and the SIMD backend against its own fixed-order
//!    lane oracle. Tail handling is where vector ports rot; this pins it
//!    before and after.
//! 2. **SIMD divergence bound** — the SIMD backend is deliberately *not*
//!    bit-identical to the scalar oracle (tree-reduced dots, polynomial
//!    `exp`, combined-head mix). This suite measures the divergence of whole
//!    forward passes across the configuration sweep and asserts the measured
//!    ULP bound, so any regression that widens the gap fails loudly — in
//!    debug and (via CI) release codegen.
//! 3. **Causal mode** — the causal fused path (both backends) against the
//!    causal reference, the full-visibility identities (a single-token
//!    prompt, and the last row of a one-layer stack, are mask-independent),
//!    and proof that the mask actually changes a registry scenario's
//!    attention read-out.
//! 4. **Production read-out** — under the SIMD backend the source masses of
//!    `Transformer::forward_readout` equal `aggregate_*(forward_cached)` of
//!    the same backend bit for bit, causal and bidirectional, cache off, cold
//!    and warm. (The scalar backend's twin lives in `kernel_equivalence.rs`.)

use std::sync::Arc;

use rage_datasets::us_open;
use rage_llm::attention::{Readout, SourceAttention};
use rage_llm::cache::PrefixCache;
use rage_llm::kernels::{self, KernelBackend};
use rage_llm::model::{SimLlm, SimLlmConfig};
use rage_llm::tokenizer::{PromptToken, Segment, SimTokenizer, TokenizedPrompt};
use rage_llm::transformer::{AttentionRecord, Transformer, TransformerConfig};
use rage_llm::{LanguageModel, LlmInput, SourceText};

/// SplitMix64 step — the workspace's standard deterministic mixer.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_vec(state: &mut u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
        .collect()
}

/// ULP distance between two finite doubles of the same sign (0 for equal).
fn ulp_distance(a: f64, b: f64) -> u64 {
    if a == b {
        return 0;
    }
    (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
}

/// The same configuration sweep the bit-identity suite uses.
fn config_sweep() -> Vec<TransformerConfig> {
    let mut configs = Vec::new();
    for (dim, heads, layers) in [
        (32, 2, 2),
        (32, 3, 2),
        (8, 1, 1),
        (17, 4, 3),
        (3, 2, 2),
        (64, 8, 1),
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

/// A synthetic prompt of exactly `n` tokens (no tokenizer involved), so
/// context length can be swept exhaustively including 0 and 1.
fn prompt_of_len(n: usize, state: &mut u64) -> TokenizedPrompt {
    let tokens = (0..n)
        .map(|_| PromptToken {
            id: 8 + (splitmix64(state) % 40) as u32,
            segment: Segment::Question,
        })
        .collect();
    TokenizedPrompt {
        tokens,
        source_spans: Vec::new(),
        question_span: (0, n),
    }
}

// --------------------------------------------------------------------------
// 1. Remainder-lane sweep: exhaustive small shapes for every kernel.
// --------------------------------------------------------------------------

/// Straight-line oracle for the SIMD tree reduction: lane `l` accumulates
/// elements `l, l+4, l+8, …` (remainder elements land in lanes `0..rem`),
/// partials combine as `(a0+a1)+(a2+a3)`. Any change to the lane order in
/// `kernels::simd` shows up here as a bit difference.
fn tree_dot_oracle(a: &[f64], b: &[f64]) -> f64 {
    // Lanes start at `-0.0`, the float-sum identity, matching the kernel.
    let mut acc = [-0.0f64; 4];
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        acc[i % 4] += x * y;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

fn sequential_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[test]
fn small_dimension_sweep_scores_and_matvec() {
    let mut state = 0x5111;
    for n in 0..=17usize {
        for key_dim in 0..=17usize {
            let query = random_vec(&mut state, key_dim);
            let keys = random_vec(&mut state, n * key_dim);
            let scale = 1.25;

            let mut scalar = vec![f64::NAN; n];
            KernelBackend::Scalar.scores_into(&query, &keys, key_dim, scale, &mut scalar);
            let mut simd = vec![f64::NAN; n];
            KernelBackend::Simd.scores_into(&query, &keys, key_dim, scale, &mut simd);

            for k in 0..n {
                let row = &keys[k * key_dim..(k + 1) * key_dim];
                let seq = sequential_dot(&query, row) * scale;
                let tree = tree_dot_oracle(&query, row) * scale;
                assert_eq!(
                    scalar[k].to_bits(),
                    seq.to_bits(),
                    "scalar n={n} key_dim={key_dim} k={k}"
                );
                assert_eq!(
                    simd[k].to_bits(),
                    tree.to_bits(),
                    "simd lane order n={n} key_dim={key_dim} k={k}"
                );
            }

            // matvec is the same computation with rows/cols naming.
            if n > 0 {
                let mut out = vec![f64::NAN; n];
                KernelBackend::Simd.matvec_into(&keys, n, key_dim, &query, &mut out);
                for (k, o) in out.iter().enumerate() {
                    let tree = tree_dot_oracle(&query, &keys[k * key_dim..(k + 1) * key_dim]);
                    assert_eq!(
                        o.to_bits(),
                        tree.to_bits(),
                        "matvec n={n} key_dim={key_dim}"
                    );
                }
            }
        }
    }
}

#[test]
fn small_dimension_sweep_softmax() {
    let mut state = 0x50F;
    for n in 0..=17usize {
        let scores = random_vec(&mut state, n)
            .iter()
            .map(|x| x * 9.0)
            .collect::<Vec<_>>();

        // Scalar backend: bit-identical to the straight-line reference.
        let mut scalar = scores.clone();
        let scalar_sum = KernelBackend::Scalar.softmax_exp_inplace(&mut scalar);
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut reference = scores.clone();
        let mut ref_sum = 0.0;
        for s in reference.iter_mut() {
            *s = (*s - max).exp();
            ref_sum += *s;
        }
        assert_eq!(scalar_sum.to_bits(), ref_sum.to_bits(), "n={n}");
        for (a, b) in scalar.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
        }

        // SIMD backend: same maximum (order-insensitive), each exponential
        // within the polynomial's ULP bound, weights still a distribution.
        let mut simd = scores.clone();
        let simd_sum = KernelBackend::Simd.softmax_exp_inplace(&mut simd);
        if n == 0 {
            assert_eq!(simd_sum, 0.0);
            continue;
        }
        for (k, (a, b)) in simd.iter().zip(&reference).enumerate() {
            assert!(
                ulp_distance(*a, *b) <= 8,
                "n={n} k={k}: simd exp {a:e} vs libm {b:e}"
            );
        }
        let mut weights = simd.clone();
        KernelBackend::Simd.weights_inplace(&mut weights, simd_sum);
        let total: f64 = weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "n={n}: {total}");
    }
}

#[test]
fn small_dimension_sweep_mix_and_residual() {
    let mut state = 0x3117;
    for n in 0..=17usize {
        for dim in 1..=17usize {
            let weights = random_vec(&mut state, n)
                .iter()
                .map(|x| x.abs())
                .collect::<Vec<_>>();
            let values = random_vec(&mut state, n * dim);
            for heads in [1.0f64, 2.0, 3.0] {
                let mut reference = random_vec(&mut state, dim);
                let mut fused = reference.clone();
                for k in 0..n {
                    for d in 0..dim {
                        reference[d] += weights[k] * values[k * dim + d] / heads;
                    }
                }
                // Scalar is bitwise the reference at every head count. The
                // SIMD backend folds `1/heads` into the weights: exact (so
                // still bitwise) for the power-of-two counts, ULP-divergent
                // for heads=3 where the fold itself rounds.
                for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
                    let simd_divergent =
                        backend == KernelBackend::Simd && heads.log2().fract() != 0.0;
                    let mut out = fused.clone();
                    backend.mix_accumulate(&weights, &values, dim, heads, &mut out);
                    for d in 0..dim {
                        if simd_divergent {
                            // The weight fold rounds once per key, so the
                            // accumulated error is bounded by ~1 ULP of each
                            // |term| — an absolute bound, because the sum
                            // itself may cancel to any magnitude.
                            assert!(
                                (out[d] - reference[d]).abs() <= 1e-13,
                                "{backend:?} n={n} dim={dim} heads={heads} d={d}: {} vs {}",
                                out[d],
                                reference[d]
                            );
                        } else {
                            assert_eq!(
                                out[d].to_bits(),
                                reference[d].to_bits(),
                                "{backend:?} n={n} dim={dim} heads={heads} d={d}"
                            );
                        }
                    }
                }
                fused.clear();
            }

            // residual_normalize over n rows of width dim, both backends.
            let hidden = random_vec(&mut state, n * dim);
            let mixed = random_vec(&mut state, n * dim);
            let mut reference = hidden.clone();
            for t in 0..n {
                let row = &mut reference[t * dim..(t + 1) * dim];
                for d in 0..dim {
                    row[d] = 0.5 * row[d] + 0.5 * mixed[t * dim + d];
                }
                rage_llm::embedding::normalize(row);
            }
            for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
                let mut out = hidden.clone();
                backend.residual_normalize(&mut out, &mixed, dim);
                for (a, b) in out.iter().zip(&reference) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{backend:?} n={n} dim={dim}");
                }
            }
        }
    }
}

// --------------------------------------------------------------------------
// 2. The SIMD divergence bound over whole forward passes.
// --------------------------------------------------------------------------

/// Maximum ULP distance between corresponding attention weights.
fn max_attention_ulp(a: &AttentionRecord, b: &AttentionRecord) -> u64 {
    assert_eq!(a.seq_len, b.seq_len);
    assert_eq!(a.layers.len(), b.layers.len());
    let mut worst = 0u64;
    for (la, lb) in a.layers.iter().zip(&b.layers) {
        for (ha, hb) in la.heads.iter().zip(&lb.heads) {
            for (x, y) in ha.data.iter().zip(&hb.data) {
                assert!(x.is_finite() && y.is_finite(), "{x} vs {y}");
                worst = worst.max(ulp_distance(*x, *y));
            }
        }
    }
    worst
}

/// The documented divergence bound: across the configuration sweep ×
/// randomised prompts, SIMD attention weights stay within this many ULPs of
/// the scalar oracle's. Measured worst case on this sweep is ~2k ULP
/// (≈ 4.4e-13 relative); the assertion leaves headroom for codegen variation
/// without letting a real divergence (a wrong lane order is millions of
/// ULPs) through. Quoted in the `kernels` module docs — keep in sync.
const SIMD_ULP_BOUND: u64 = 16_384;

#[test]
fn simd_forward_divergence_from_scalar_is_ulp_bounded() {
    let tokenizer = SimTokenizer::new();
    let mut state = 0xD1FF_B0B0;
    let mut worst = 0u64;
    for causal in [false, true] {
        for mut config in config_sweep() {
            config.causal = causal;
            let scalar = Transformer::new(config).with_backend(KernelBackend::Scalar);
            let simd = Transformer::new(config).with_backend(KernelBackend::Simd);
            for round in 0..6 {
                let input = random_input(&mut state);
                let prompt = tokenizer.tokenize_prompt(&input);
                let a = scalar.forward(&prompt);
                let b = simd.forward(&prompt);
                let ulp = max_attention_ulp(&a, &b);
                worst = worst.max(ulp);
                assert!(
                    ulp <= SIMD_ULP_BOUND,
                    "dim={} heads={} layers={} causal={causal} round={round}: {ulp} ULP",
                    config.dim,
                    config.heads,
                    config.layers
                );
            }
        }
    }
    // The bound must stay *meaningful*: if the backends ever became
    // bit-identical this suite should be folded into kernel_equivalence.
    assert!(worst > 0, "SIMD backend unexpectedly bit-identical");
}

#[test]
fn simd_forward_is_deterministic_and_cache_invariant() {
    // Under the SIMD backend, cached and uncached forwards must still be
    // bit-identical to each other (the backend participates in cache fills
    // via the backend-aware projection).
    let tokenizer = SimTokenizer::new();
    let transformer =
        Transformer::new(TransformerConfig::default()).with_backend(KernelBackend::Simd);
    let cache = PrefixCache::default();
    let mut state = 0xCAC4E;
    for round in 0..8 {
        let input = random_input(&mut state);
        let prompt = tokenizer.tokenize_prompt(&input);
        let plain = transformer.forward(&prompt);
        let cached = transformer.forward_cached(&prompt, Some(&cache));
        let again = transformer.forward_cached(&prompt, Some(&cache));
        assert_eq!(plain, cached, "round {round}: cold cache changed bits");
        assert_eq!(plain, again, "round {round}: warm cache changed bits");
    }
    assert!(cache.stats().hits > 0, "warm rounds must hit the cache");
}

#[test]
fn context_length_sweep_small_prompts_both_backends() {
    // Context lengths 0..=17 (empty prompt, single token, block boundaries,
    // primes) through whole forward passes: scalar stays bit-identical to
    // the reference, SIMD stays within the divergence bound, and attention
    // rows remain distributions over the visible prefix.
    let mut state = 0xC047EC7;
    for causal in [false, true] {
        let config = TransformerConfig {
            causal,
            ..TransformerConfig::default()
        };
        let scalar = Transformer::new(config).with_backend(KernelBackend::Scalar);
        let simd = Transformer::new(config).with_backend(KernelBackend::Simd);
        for n in 0..=17usize {
            let prompt = prompt_of_len(n, &mut state);
            let reference = scalar.forward_reference(&prompt, None);
            let fused = scalar.forward(&prompt);
            assert_eq!(fused, reference, "scalar causal={causal} n={n}");
            let vectored = simd.forward(&prompt);
            if n == 0 {
                assert_eq!(vectored.seq_len, 0);
                continue;
            }
            assert!(
                max_attention_ulp(&reference, &vectored) <= SIMD_ULP_BOUND,
                "simd causal={causal} n={n}"
            );
            for layer in &vectored.layers {
                for head in &layer.heads {
                    for q in 0..n {
                        let visible = if causal { q + 1 } else { n };
                        let row = head.row(q);
                        let sum: f64 = row[..visible].iter().sum();
                        assert!((sum - 1.0).abs() < 1e-9, "causal={causal} n={n} q={q}");
                        assert!(row[visible..].iter().all(|w| *w == 0.0));
                    }
                }
            }
        }
    }
}

// --------------------------------------------------------------------------
// 3. Causal mode.
// --------------------------------------------------------------------------

#[test]
fn causal_fused_matches_causal_reference_bitwise() {
    // The scalar fused causal path against the causal reference, across the
    // sweep — the same contract the bidirectional path has.
    let tokenizer = SimTokenizer::new();
    let mut state = 0xCA5A_1111;
    for mut config in config_sweep() {
        config.causal = true;
        let transformer = Transformer::new(config).with_backend(KernelBackend::Scalar);
        for round in 0..6 {
            let input = random_input(&mut state);
            let prompt = tokenizer.tokenize_prompt(&input);
            let fused = transformer.forward(&prompt);
            let reference = transformer.forward_reference(&prompt, None);
            assert_eq!(
                fused, reference,
                "dim={} heads={} round={round}",
                config.dim, config.heads
            );
        }
    }
}

#[test]
fn full_visibility_causal_is_bit_identical_to_non_causal() {
    // Where the causal mask hides nothing, masked and unmasked attention are
    // the same computation and must agree bitwise:
    // (a) a single-token prompt — every row's prefix is the whole sequence;
    // (b) the last query row of a one-layer stack — its visible prefix is
    //     the whole sequence, and with a single layer no masked row can
    //     perturb its inputs.
    let mut state = 0xF011;
    let base = TransformerConfig {
        layers: 1,
        ..TransformerConfig::default()
    };
    let causal_config = TransformerConfig {
        causal: true,
        ..base
    };
    for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
        let plain = Transformer::new(base).with_backend(backend);
        let masked = Transformer::new(causal_config).with_backend(backend);

        let single = prompt_of_len(1, &mut state);
        assert_eq!(
            plain.forward(&single),
            masked.forward(&single),
            "{backend:?}: single-token prompt must be mask-independent"
        );

        for n in [2usize, 5, 12] {
            let prompt = prompt_of_len(n, &mut state);
            let a = plain.forward(&prompt);
            let b = masked.forward(&prompt);
            let last_plain = a.layers[0].heads.iter().map(|h| h.row(n - 1).to_vec());
            let last_masked = b.layers[0].heads.iter().map(|h| h.row(n - 1).to_vec());
            for (h, (x, y)) in last_plain.zip(last_masked).enumerate() {
                let bits_x: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
                let bits_y: Vec<u64> = y.iter().map(|v| v.to_bits()).collect();
                assert_eq!(bits_x, bits_y, "{backend:?} n={n} head={h}: last row");
            }
        }
    }
}

#[test]
fn causal_masking_changes_registry_scenario_attention() {
    // The mask must be observable end to end: the us_open registry scenario's
    // per-source attention read-out changes when the model goes causal, and
    // the causal read-out is still a usable distribution (the aggregation
    // switch in SimLlm::effective_attention keeps it from collapsing to
    // zero despite the question-first prompt layout).
    let scenario = us_open::scenario();
    let input = LlmInput::new(
        scenario.question.clone(),
        scenario
            .corpus
            .iter()
            .map(|doc| SourceText::new(doc.id.clone(), doc.text.clone()))
            .collect::<Vec<_>>(),
    );

    let plain = SimLlm::new(SimLlmConfig::default());
    let causal_config = SimLlmConfig {
        transformer: TransformerConfig {
            causal: true,
            ..TransformerConfig::default()
        },
        ..SimLlmConfig::default()
    };
    let causal = SimLlm::new(causal_config);

    let a = plain.generate(&input);
    let b = causal.generate(&input);
    assert_eq!(a.source_attention.len(), b.source_attention.len());
    assert_ne!(
        a.source_attention, b.source_attention,
        "causal masking must change the attention read-out"
    );
    let causal_total: f64 = b.source_attention.iter().sum();
    assert!(
        (causal_total - 1.0).abs() < 1e-9,
        "causal attention must stay a distribution, got total {causal_total}"
    );
    assert!(
        b.source_attention.iter().any(|w| *w > 0.0),
        "causal attention must not collapse to zero"
    );
}

#[test]
fn causal_generation_is_deterministic_across_backends_and_caches() {
    let causal_config = SimLlmConfig {
        transformer: TransformerConfig {
            causal: true,
            ..TransformerConfig::default()
        },
        ..SimLlmConfig::default()
    };
    let scenario = us_open::scenario();
    let input = LlmInput::new(
        scenario.question.clone(),
        scenario
            .corpus
            .iter()
            .take(4)
            .map(|doc| SourceText::new(doc.id.clone(), doc.text.clone()))
            .collect::<Vec<_>>(),
    );
    for backend in [KernelBackend::Scalar, KernelBackend::Simd] {
        let plain = SimLlm::new(causal_config.clone()).with_kernel_backend(backend);
        let cached = SimLlm::new(causal_config.clone())
            .with_kernel_backend(backend)
            .with_prefix_cache(Arc::new(PrefixCache::default()));
        let a = plain.generate(&input);
        let b = cached.generate(&input);
        let c = cached.generate(&input);
        assert_eq!(a, b, "{backend:?}: cold cache changed a causal generation");
        assert_eq!(a, c, "{backend:?}: warm cache changed a causal generation");
    }
}

// --------------------------------------------------------------------------
// 4. The production read-out.
// --------------------------------------------------------------------------

#[test]
fn simd_readout_masses_are_bit_identical_to_aggregated_records() {
    let tokenizer = SimTokenizer::new();
    let mut state = 0x51AD_0A57;
    let bits = |a: &SourceAttention| a.masses.iter().map(|m| m.to_bits()).collect::<Vec<_>>();
    for causal in [false, true] {
        for mut config in config_sweep() {
            config.causal = causal;
            let transformer = Transformer::new(config).with_backend(KernelBackend::Simd);
            let shared = PrefixCache::default();
            let mut prompts = vec![
                tokenizer.tokenize_prompt(&LlmInput::without_context("who won")),
                tokenizer.tokenize_prompt(&LlmInput::new(
                    "",
                    vec![
                        SourceText::new("a", "federer wins"),
                        SourceText::new("b", ""),
                    ],
                )),
            ];
            // A question span starting mid-sequence: the last layer scores
            // those rows directly instead of mirroring earlier rows.
            let mut shifted = prompt_of_len(13, &mut state);
            shifted.question_span = (5, 9);
            shifted.source_spans = vec![(0, 5), (9, 13)];
            prompts.push(shifted);
            for _ in 0..6 {
                prompts.push(tokenizer.tokenize_prompt(&random_input(&mut state)));
            }
            for (i, prompt) in prompts.iter().enumerate() {
                let record = transformer.forward_cached(prompt, None);
                for readout in [Readout::Question, Readout::WholePrompt] {
                    let want = readout.aggregate(&record, prompt);
                    let cold = PrefixCache::default();
                    for (cache_label, cache) in [
                        ("off", None),
                        ("cold", Some(&cold)),
                        ("shared", Some(&shared)),
                        ("warm", Some(&shared)),
                    ] {
                        let got = transformer.forward_readout(prompt, cache, readout);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "dim={} heads={} layers={} causal={causal} prompt={i} {readout:?} \
                             cache={cache_label}: {:?} vs {:?}",
                            config.dim,
                            config.heads,
                            config.layers,
                            got.masses,
                            want.masses
                        );
                    }
                }
            }
            assert!(shared.stats().hits > 0, "warm rounds must hit the cache");
        }
    }
}

#[test]
fn simd_default_follows_feature_flag_in_models() {
    let expected = if cfg!(feature = "simd") {
        KernelBackend::Simd
    } else {
        KernelBackend::Scalar
    };
    assert_eq!(
        SimLlm::new(SimLlmConfig::default()).kernel_backend(),
        expected
    );
    assert_eq!(kernels::KernelBackend::default(), expected);
}
