//! Fused-kernel forward pass vs the straight-line reference, across context
//! sizes — the microbench behind the `kernels` module's existence.
//!
//! The two paths are bit-identical by contract (`tests/kernel_equivalence.rs`
//! in `rage-llm` enforces it); this target tracks the *speed* side: how much
//! the flat buffers, blocking and mirrored score matrix buy at each sequence
//! length, what the SIMD backend buys on top of the scalar fused path
//! (`forward/simd_speedup/k=*` — ULP-divergent by contract, pinned by
//! `tests/simd_equivalence.rs`), and what the prefix cache adds on top.
//! At k=10 and k=20 it also times the production read-out path
//! (`forward/readout/k=*`, question read-out masses straight from the
//! forward) against the full-record fused pass
//! (`forward/readout_speedup/k=*`).
//!
//! ```text
//! cargo bench --bench kernels [-- --json KERNELS.json]
//! ```

use rage_bench::{black_box, scaled, section, Runner};
use rage_llm::attention::Readout;
use rage_llm::cache::PrefixCache;
use rage_llm::kernels::KernelBackend;
use rage_llm::tokenizer::SimTokenizer;
use rage_llm::transformer::{Transformer, TransformerConfig};
use rage_llm::{LlmInput, SourceText};

/// A deterministic prompt with `k` sources (tennis-flavoured filler so token
/// overlap with the question is realistic).
fn prompt_for(tokenizer: &SimTokenizer, k: usize) -> rage_llm::tokenizer::TokenizedPrompt {
    let sources = (0..k)
        .map(|i| {
            SourceText::new(
                format!("s{i}"),
                format!(
                    "player number {i} won the open championship title in year {}",
                    2000 + i
                ),
            )
        })
        .collect();
    tokenizer.tokenize_prompt(&LlmInput::new(
        "who won the most open championship titles",
        sources,
    ))
}

fn main() {
    let mut runner = Runner::from_args();
    let tokenizer = SimTokenizer::new();
    // Backends pinned via the enum (not the cargo feature) so scalar and SIMD
    // legs land side by side in every build.
    let transformer =
        Transformer::new(TransformerConfig::default()).with_backend(KernelBackend::Scalar);
    let vectored = Transformer::new(TransformerConfig::default()).with_backend(KernelBackend::Simd);

    for k in [2usize, 5, 10, 20] {
        let prompt = prompt_for(&tokenizer, k);
        let tokens = prompt.len();
        section(&format!("kernels: forward, k={k} ({tokens} tokens)"));

        let fused = runner.bench(&format!("forward/fused/k={k}"), scaled(300), || {
            black_box(transformer.forward(&prompt));
        });
        let reference = runner.bench(&format!("forward/reference/k={k}"), scaled(100), || {
            black_box(transformer.forward_reference(&prompt, None));
        });
        runner.ratio(&format!("forward/fused_speedup/k={k}"), &reference, &fused);

        if k >= 10 {
            let readout = runner.bench(&format!("forward/readout/k={k}"), scaled(300), || {
                black_box(transformer.forward_readout(&prompt, None, Readout::Question));
            });
            runner.ratio(&format!("forward/readout_speedup/k={k}"), &fused, &readout);
        }

        let simd = runner.bench(&format!("forward/simd/k={k}"), scaled(300), || {
            black_box(vectored.forward(&prompt));
        });
        runner.ratio(&format!("forward/simd_speedup/k={k}"), &fused, &simd);

        // Warm prefix cache on top of the fused path (the production setup).
        let cache = PrefixCache::default();
        transformer.forward_cached(&prompt, Some(&cache));
        let cached = runner.bench(&format!("forward/fused+cache/k={k}"), scaled(300), || {
            black_box(transformer.forward_cached(&prompt, Some(&cache)));
        });
        runner.ratio(&format!("forward/cache_speedup/k={k}"), &fused, &cached);
        runner.cache_counters(&format!("forward/prefix_cache/k={k}"), cache.stats());
    }

    runner.finish();
}
