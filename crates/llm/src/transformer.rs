//! A small, honest multi-head attention stack.
//!
//! The simulator does not pretend to be a 7B-parameter chat model, but the one thing
//! RAGE reads *out of* the model — attention, summed over layers, heads and tokens —
//! must come from a real attention computation for the attention-based relevance
//! scoring path to be meaningful. This module implements exactly that: token
//! embeddings are projected per head, scaled dot-product attention is computed with a
//! softmax per query position, and hidden states are updated through a residual mix of
//! the attended values.
//!
//! Three entry points share that computation:
//!
//! * [`Transformer::forward_readout`] — **production**. It returns per-source attention
//!   masses directly and computes only the attention rows the [`Readout`] reads.
//! * [`Transformer::forward_cached`] (and [`Transformer::forward`]) — the full-record
//!   path for tests and benches. It records every layer's per-head attention matrix,
//!   over the same layer driver and kernels as the read-out path.
//! * [`Transformer::forward_reference`] — the straight-line oracle both are tested
//!   against.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::attention::{accumulate_row, Readout, SourceAttention};
use crate::cache::PrefixCache;
use crate::embedding::{dot, normalize, Embedder, EmbeddingConfig};
use crate::kernels;
use crate::tokenizer::TokenizedPrompt;

/// Configuration of the attention stack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransformerConfig {
    /// Number of attention layers.
    pub layers: usize,
    /// Number of attention heads per layer.
    pub heads: usize,
    /// Model (embedding) dimensionality.
    pub dim: usize,
    /// Softmax temperature; lower values sharpen attention onto matching tokens.
    pub temperature: f64,
    /// Seed for the deterministic projection matrices and embeddings.
    pub seed: u64,
    /// Causal attention: query position `q` attends only to key positions
    /// `k <= q` (decoder-style masking of future positions). Off by default —
    /// the read-out the explanation engine aggregates was calibrated on
    /// bidirectional attention. With the workspace's question-first prompt
    /// layout, causal masking means question rows never see source tokens,
    /// so [`SimLlm`](crate::model::SimLlm) switches its aggregation to the
    /// whole-prompt variant when this is on (see `SimLlm::effective_attention`).
    pub causal: bool,
}

impl Default for TransformerConfig {
    fn default() -> Self {
        Self {
            layers: 2,
            heads: 2,
            dim: 32,
            temperature: 0.35,
            seed: 0x5eed_1234,
            causal: false,
        }
    }
}

/// A dense row-major `rows × cols` matrix of attention weights or projections.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major data.
    pub data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element overwrite.
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        self.data[r * self.cols + c] = value;
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// One row as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }
}

/// Attention matrices of one layer, one entry per head. Each matrix is `n × n` with
/// rows = query positions, columns = key positions, rows summing to 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerAttention {
    /// Per-head attention matrices.
    pub heads: Vec<Matrix>,
}

/// The recorded attention of a full forward pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttentionRecord {
    /// Per-layer attention.
    pub layers: Vec<LayerAttention>,
    /// Sequence length the attention was computed over.
    pub seq_len: usize,
}

impl AttentionRecord {
    /// Total number of attention matrices (layers × heads).
    pub fn num_matrices(&self) -> usize {
        self.layers.iter().map(|l| l.heads.len()).sum()
    }
}

/// The simulated attention stack.
#[derive(Debug, Clone)]
pub struct Transformer {
    config: TransformerConfig,
    embedder: Embedder,
    /// Per layer, per head: a `head_dim × dim` projection applied to both queries and keys.
    projections: Vec<Vec<Matrix>>,
    /// Which kernel implementation the fused forwards run on.
    backend: kernels::KernelBackend,
    /// Recycled `n × n` buffers for attention matrices and combined-weight
    /// scratch. At report-scale prompts these allocations are large enough
    /// that the system allocator hands them back to the OS on every drop,
    /// and the page faults of re-touching fresh pages cost more than an
    /// entire softmax pass per forward. [`Transformer::forward_readout`]
    /// returns every buffer it takes; [`Transformer::forward_cached`] keeps
    /// its matrices in the record it returns. Clones share the pool.
    scratch: Arc<Mutex<Vec<Vec<f64>>>>,
}

/// Upper bound on pooled scratch buffers. Production keeps no records, so a
/// [`Transformer::forward_readout`] holds at most one layer's head matrices
/// plus the combined-weight matrix at once — three buffers for the default
/// two-head model — and returns them all. Twelve therefore covers four
/// concurrent forwards (a default-config explanation runs one at a time per
/// request) while capping idle memory at `SCRATCH_CAP · n²` doubles.
const SCRATCH_CAP: usize = 12;

/// SplitMix64 step (kept local to avoid a circular helper dependency).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_float(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

impl Transformer {
    /// Build a transformer with deterministic projection weights.
    pub fn new(config: TransformerConfig) -> Self {
        assert!(config.layers > 0, "at least one layer required");
        assert!(config.heads > 0, "at least one head required");
        assert!(config.dim > 0, "positive dimension required");
        let head_dim = (config.dim / config.heads).max(1);
        let embedder = Embedder::new(EmbeddingConfig {
            dim: config.dim,
            seed: config.seed,
            ..EmbeddingConfig::default()
        });
        let mut projections = Vec::with_capacity(config.layers);
        let mut state = config.seed ^ 0xABCD_EF01_2345_6789;
        for _layer in 0..config.layers {
            let mut heads = Vec::with_capacity(config.heads);
            for _head in 0..config.heads {
                let mut m = Matrix::zeros(head_dim, config.dim);
                for value in m.data.iter_mut() {
                    // Scaled random projection: approximately preserves dot products
                    // (Johnson–Lindenstrauss style), so lexical overlap between the
                    // question and a source still yields the highest attention scores.
                    *value = unit_float(splitmix64(&mut state)) / (head_dim as f64).sqrt();
                }
                heads.push(m);
            }
            projections.push(heads);
        }
        Self {
            config,
            embedder,
            projections,
            backend: kernels::KernelBackend::default(),
            scratch: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Pop a pooled buffer resized to `len`. When `zeroed` is false the
    /// contents are stale and the caller must overwrite every element (the
    /// bidirectional score pass does); when true the buffer is zero-filled,
    /// matching a fresh `vec![0.0; len]` bit-for-bit.
    fn take_scratch(&self, len: usize, zeroed: bool) -> Vec<f64> {
        let mut buf = self
            .scratch
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        if buf.len() != len {
            buf.clear();
            buf.resize(len, 0.0);
        } else if zeroed {
            buf.fill(0.0);
        }
        buf
    }

    /// Return one buffer to the pool (bounded by [`SCRATCH_CAP`]).
    fn give_scratch(&self, buf: Vec<f64>) {
        let mut pool = self.scratch.lock().expect("scratch pool poisoned");
        if pool.len() < SCRATCH_CAP {
            pool.push(buf);
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TransformerConfig {
        &self.config
    }

    /// Select the kernel backend the fused forward pass runs on (builder
    /// style). See the [`kernels`] module docs for the backend contract.
    ///
    /// The backend participates in every fused computation *including the
    /// values stored into a [`PrefixCache`]*, so a cache warmed under one
    /// backend must never be shared with a model running another — the
    /// scalar and SIMD projections differ by ULPs and mixing them would make
    /// cached and uncached forwards diverge.
    pub fn with_backend(mut self, backend: kernels::KernelBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The kernel backend in use.
    pub fn backend(&self) -> kernels::KernelBackend {
        self.backend
    }

    /// Project a hidden-state vector with one head's projection matrix —
    /// reference operation order (sequential row dots), used by
    /// [`Transformer::forward_reference`] regardless of backend.
    fn project(&self, layer: usize, head: usize, hidden: &[f64]) -> Vec<f64> {
        let proj = &self.projections[layer][head];
        (0..proj.rows).map(|r| dot(proj.row(r), hidden)).collect()
    }

    /// Backend-dispatched projection, used by the fused path's cache-miss
    /// closure so that cached and uncached fused forwards agree bit-for-bit
    /// under *either* backend. (Under the scalar backend this is bit-identical
    /// to [`Transformer::project`]; under SIMD the dots are tree-reduced.)
    fn project_fused(&self, layer: usize, head: usize, hidden: &[f64]) -> Vec<f64> {
        let proj = &self.projections[layer][head];
        let mut out = vec![0.0; proj.rows];
        self.backend
            .matvec_into(&proj.data, proj.rows, proj.cols, hidden, &mut out);
        out
    }

    /// Run the forward pass over a tokenised prompt and record every attention matrix.
    ///
    /// Equivalent to [`Transformer::forward_cached`] with no cache.
    pub fn forward(&self, prompt: &TokenizedPrompt) -> AttentionRecord {
        self.forward_cached(prompt, None)
    }

    /// Run the forward pass, reusing per-`(token, position)` state from a
    /// [`PrefixCache`] when one is supplied, and record every attention matrix.
    ///
    /// This is the full-record path for tests and benches; production reads
    /// source masses through [`Transformer::forward_readout`], which shares
    /// this pass's layer driver but keeps no record.
    ///
    /// Only state that is a pure function of `(token id, position)` is taken
    /// from the cache — the input embeddings and the layer-0 per-head
    /// query/key projections (at layer 0 the hidden state *is* the input
    /// embedding). Deeper layers depend on the whole sequence and are always
    /// recomputed, so the returned [`AttentionRecord`] is bit-identical to an
    /// uncached forward pass.
    ///
    /// Implemented on the fused [`kernels`]: flat row-major buffers, blocked
    /// inner loops, and a mirrored score matrix (the pre-softmax score
    /// `dot(pᵩ, pₖ)·scale` is bit-symmetric in `q`/`k`, so only the upper
    /// triangle is computed; under causal masking each row's visible prefix
    /// is computed directly instead). The last layer's value mix and residual
    /// update are skipped: no attention matrix depends on them. Under
    /// [`KernelBackend::Scalar`](kernels::KernelBackend::Scalar) the result
    /// is guaranteed bit-identical to [`Transformer::forward_reference`] —
    /// see the [`kernels`] module docs for the contract and
    /// `tests/kernel_equivalence.rs` for its enforcement. Under
    /// [`KernelBackend::Simd`](kernels::KernelBackend::Simd) the result is
    /// deterministic but ULP-divergent from the oracle (tree-reduced dots,
    /// polynomial softmax `exp`, combined-head value mix), with the bound
    /// pinned by `tests/simd_equivalence.rs`.
    pub fn forward_cached(
        &self,
        prompt: &TokenizedPrompt,
        cache: Option<&PrefixCache>,
    ) -> AttentionRecord {
        let n = prompt.len();
        let mut layers = Vec::with_capacity(self.config.layers);
        self.run_layers(prompt, cache, 0..n, |heads, _first_row| {
            layers.push(LayerAttention { heads });
        });
        AttentionRecord { layers, seq_len: n }
    }

    /// The production forward pass: per-source attention masses under
    /// `readout`, computed from only the attention rows it reads.
    ///
    /// Bit-identical to `readout.aggregate(&self.forward_cached(prompt,
    /// cache), prompt)` under either backend. Layers before the last run in
    /// full, because the next layer's hidden states need every row; their
    /// matrices are pooled scratch, read and handed back. The last layer
    /// projects keys for every token but scores and softmaxes only the
    /// read-out rows, and skips the value mix and residual. Read-out rows
    /// that start past position 0 have no earlier rows to mirror, so each
    /// is scored directly against all keys; `dot` is bit-commutative, so a
    /// direct row equals the mirrored one. Masses accumulate in the
    /// aggregation's order — layer, head, row, span — so the sums round
    /// identically.
    ///
    /// [`Readout::Question`] reads about ten rows of a 100–600-token prompt.
    /// [`Readout::WholePrompt`] — the causal models' read-out — reads every
    /// row, so it saves only the last layer's mix and residual and the
    /// record's allocations; its masked entries read as the zeros a record
    /// holds.
    pub fn forward_readout(
        &self,
        prompt: &TokenizedPrompt,
        cache: Option<&PrefixCache>,
        readout: Readout,
    ) -> SourceAttention {
        let n = prompt.len();
        let spans = &prompt.source_spans;
        let mut masses = vec![0.0; spans.len()];
        if n == 0 || spans.is_empty() {
            return SourceAttention { masses };
        }
        let rows = readout.rows(prompt);
        self.run_layers(prompt, cache, rows.clone(), |heads, first_row| {
            for head in &heads {
                for q in rows.clone() {
                    accumulate_row(&mut masses, head.row(q - first_row), spans);
                }
            }
            for head in heads {
                self.give_scratch(head.data);
            }
        });
        SourceAttention { masses }
    }

    /// The layer driver shared by [`Transformer::forward_cached`] and
    /// [`Transformer::forward_readout`].
    ///
    /// Runs every layer and hands its per-head attention matrices to
    /// `visit(heads, first_row)` once the layer is done. Every layer but the
    /// last produces all `n` rows (`first_row == 0`). The last layer produces
    /// only `last_rows` (which must lie within `0..n`): matrix row `i` holds
    /// query position `first_row + i`, and its value mix and residual update
    /// are skipped because nothing reads them. Matrices come from the scratch
    /// pool; the visitor either keeps them or gives them back.
    fn run_layers(
        &self,
        prompt: &TokenizedPrompt,
        cache: Option<&PrefixCache>,
        last_rows: Range<usize>,
        mut visit: impl FnMut(Vec<Matrix>, usize),
    ) {
        let n = prompt.len();
        if n == 0 {
            return;
        }
        let dim = self.config.dim;
        let heads_f = self.config.heads as f64;
        let head_dim = self.projections[0][0].rows;

        // Flat row-major hidden states, one `dim` row per token.
        let mut hidden = vec![0.0f64; n * dim];
        match cache {
            Some(cache) => {
                for (pos, token) in prompt.tokens.iter().enumerate() {
                    let row = cache.embedding(token.id, pos, || self.embedder.embed(token.id, pos));
                    hidden[pos * dim..(pos + 1) * dim].copy_from_slice(&row);
                }
            }
            None => {
                for (pos, token) in prompt.tokens.iter().enumerate() {
                    let row = self.embedder.embed(token.id, pos);
                    hidden[pos * dim..(pos + 1) * dim].copy_from_slice(&row);
                }
            }
        }

        // Scratch buffers reused across layers and heads.
        let mut projected = vec![0.0f64; n * head_dim];
        let mut mixed = vec![0.0f64; n * dim];

        let backend = self.backend;
        let causal = self.config.causal;
        let last_layer = self.config.layers - 1;
        // The SIMD backend folds the per-head value mixes into one combined
        // pass per query: the head weight rows are summed first, then the
        // values are traversed once instead of once per head. Same math,
        // reassociated — part of the backend's documented ULP divergence.
        // (With one head the fold is the identity, so skip the extra copy.)
        let combine_mix = backend == kernels::KernelBackend::Simd && self.config.heads > 1;
        let mut combined = vec![0.0f64; if combine_mix && causal { n } else { 0 }];
        // Full combined-weight matrix for the tiled mix (bidirectional SIMD
        // path only — causal rows have ragged visible prefixes — and only
        // when some layer mixes at all). Stale pool contents are fine:
        // assembly assigns every element before the mix reads it.
        let mut combined_all = if combine_mix && !causal && last_layer > 0 {
            self.take_scratch(n * n, false)
        } else {
            Vec::new()
        };
        let inv_heads = kernels::exact_reciprocal(heads_f).unwrap_or(1.0 / heads_f);

        for layer in 0..self.config.layers {
            let last = layer == last_layer;
            let rows = if last { last_rows.clone() } else { 0..n };
            let mut head_matrices = Vec::with_capacity(self.config.heads);
            mixed.fill(0.0);

            for head in 0..self.config.heads {
                // Shared Q/K state into the flat buffer: at layer 0 the
                // projection input is the (token, position) embedding, so the
                // projected vector can be reused across prompts via the
                // prefix cache. Every token is projected, even in a last
                // layer that scores only a few rows: they are all keys.
                match cache {
                    Some(cache) if layer == 0 => {
                        for (pos, token) in prompt.tokens.iter().enumerate() {
                            let row = cache.layer0_projection(head, token.id, pos, || {
                                self.project_fused(layer, head, &hidden[pos * dim..(pos + 1) * dim])
                            });
                            projected[pos * head_dim..(pos + 1) * head_dim].copy_from_slice(&row);
                        }
                    }
                    _ => {
                        let proj = &self.projections[layer][head];
                        for pos in 0..n {
                            backend.matvec_into(
                                &proj.data,
                                proj.rows,
                                proj.cols,
                                &hidden[pos * dim..(pos + 1) * dim],
                                &mut projected[pos * head_dim..(pos + 1) * head_dim],
                            );
                        }
                    }
                }
                let scale = 1.0 / ((head_dim as f64).sqrt() * self.config.temperature);

                // Pre-softmax scores. Bidirectional: `dot(pᵩ, pₖ)` performs
                // the same multiply/add sequence as `dot(pₖ, pᵩ)`, so the
                // matrix is bit-symmetric — when the rows start at 0, each
                // row mirrors the columns left of its diagonal from rows
                // already computed and scores the rest; otherwise each row is
                // scored directly against every key, with the same bits.
                // Causal: each row needs only its visible prefix `k <= q`
                // (the lower triangle), and earlier rows never computed those
                // columns, so the prefix is computed directly — no mirror,
                // same `n(n+1)/2` total dot products. Scores are computed
                // straight into the attention matrix, which comes from the
                // scratch pool: the bidirectional pass overwrites every
                // element, while the causal pass needs the masked upper
                // triangle zeroed, exactly like a fresh allocation. The
                // mirror reads earlier rows of `attn` itself, which still
                // hold raw scores because the softmax pass below only starts
                // once every row is written.
                let mut attn = Matrix {
                    rows: rows.len(),
                    cols: n,
                    data: self.take_scratch(rows.len() * n, causal),
                };
                let mirror = !causal && rows.start == 0;
                for q in rows.clone() {
                    let row_start = (q - rows.start) * n;
                    let query = &projected[q * head_dim..(q + 1) * head_dim];
                    if causal {
                        let visible = q + 1;
                        backend.scores_into(
                            query,
                            &projected[..visible * head_dim],
                            head_dim,
                            scale,
                            &mut attn.data[row_start..row_start + visible],
                        );
                    } else {
                        let first = if mirror { q } else { 0 };
                        for k in 0..first {
                            attn.data[row_start + k] = attn.data[k * n + q];
                        }
                        backend.scores_into(
                            query,
                            &projected[first * head_dim..n * head_dim],
                            head_dim,
                            scale,
                            &mut attn.data[row_start + first..row_start + n],
                        );
                    }
                }
                for q in rows.clone() {
                    // Fused softmax + value mix over the query's visible
                    // weight prefix; masked (future) positions stay at the
                    // allocation's zeros, exactly like the reference's
                    // untouched entries.
                    let visible = if causal { q + 1 } else { n };
                    let row = attn.row_mut(q - rows.start);
                    let sum = backend.softmax_exp_inplace(&mut row[..visible]);
                    backend.weights_inplace(&mut row[..visible], sum);
                    if !last && !combine_mix {
                        backend.mix_accumulate(
                            &row[..visible],
                            &hidden[..visible * dim],
                            dim,
                            heads_f,
                            &mut mixed[q * dim..(q + 1) * dim],
                        );
                    }
                }
                head_matrices.push(attn);
            }

            if last {
                visit(head_matrices, rows.start);
                break;
            }
            if combine_mix && !causal {
                // Assemble the head-averaged combined-weight matrix, then
                // run one tiled mix over the whole layer so the hidden
                // buffer streams through L1-sized key tiles exactly once
                // instead of once per query. The fold is the identical
                // `(w₀ + w₁ + …) · (1/heads)` product `simd::mix_accumulate`
                // forms per key, so the tiled mix rounds exactly like the
                // per-query kernel.
                let (first_head, rest_heads) = head_matrices
                    .split_first()
                    .expect("combine_mix requires heads > 1");
                let (last_head, mid_heads) = rest_heads
                    .split_last()
                    .expect("combine_mix requires heads > 1");
                for q in 0..n {
                    let dst = &mut combined_all[q * n..(q + 1) * n];
                    dst.copy_from_slice(first_head.row(q));
                    for attn in mid_heads {
                        for (c, w) in dst.iter_mut().zip(attn.row(q)) {
                            *c += *w;
                        }
                    }
                    for (c, w) in dst.iter_mut().zip(last_head.row(q)) {
                        *c = (*c + *w) * inv_heads;
                    }
                }
                kernels::simd::mix_tiled(&combined_all, &hidden, dim, &mut mixed);
            } else if combine_mix {
                let (first_head, rest_heads) = head_matrices
                    .split_first()
                    .expect("combine_mix requires heads > 1");
                for q in 0..n {
                    let visible = q + 1;
                    let combined = &mut combined[..visible];
                    // Assign from the first head, accumulate the rest — one
                    // fewer pass over the row than zero-fill-then-add.
                    for (c, w) in combined.iter_mut().zip(&first_head.row(q)[..visible]) {
                        *c = *w;
                    }
                    for attn in rest_heads {
                        for (c, w) in combined.iter_mut().zip(&attn.row(q)[..visible]) {
                            *c += *w;
                        }
                    }
                    backend.mix_accumulate(
                        combined,
                        &hidden[..visible * dim],
                        dim,
                        heads_f,
                        &mut mixed[q * dim..(q + 1) * dim],
                    );
                }
            }

            backend.residual_normalize(&mut hidden, &mixed, dim);
            visit(head_matrices, 0);
        }
        if !combined_all.is_empty() {
            self.give_scratch(combined_all);
        }
    }

    /// The straight-line reference forward pass — the oracle the fused
    /// kernels are differentially tested against.
    ///
    /// This is the original (pre-kernel) implementation, kept compiled and
    /// public on purpose: `tests/kernel_equivalence.rs` asserts that
    /// [`Transformer::forward_cached`] matches it down to `f64::to_bits` for
    /// every prompt, configuration and cache state. It is not intended for
    /// production use — it allocates per query position and chases
    /// `Vec<Vec<f64>>` pointers — but any behavioural change to the forward
    /// pass must be made here *and* in the kernels, keeping both in lockstep.
    pub fn forward_reference(
        &self,
        prompt: &TokenizedPrompt,
        cache: Option<&PrefixCache>,
    ) -> AttentionRecord {
        let n = prompt.len();
        if n == 0 {
            return AttentionRecord {
                layers: Vec::new(),
                seq_len: 0,
            };
        }
        let mut hidden: Vec<Vec<f64>> = match cache {
            Some(cache) => prompt
                .tokens
                .iter()
                .enumerate()
                .map(|(pos, token)| {
                    (*cache.embedding(token.id, pos, || self.embedder.embed(token.id, pos))).clone()
                })
                .collect(),
            None => self
                .embedder
                .embed_sequence(&prompt.tokens.iter().map(|t| t.id).collect::<Vec<_>>()),
        };

        let mut layers = Vec::with_capacity(self.config.layers);
        for layer in 0..self.config.layers {
            let mut head_matrices = Vec::with_capacity(self.config.heads);
            // Mixed value accumulator for the residual update, averaged over heads.
            let mut mixed: Vec<Vec<f64>> = vec![vec![0.0; self.config.dim]; n];

            for head in 0..self.config.heads {
                // Shared Q/K state: at layer 0 the projection input is the
                // (token, position) embedding, so the projected vector can be
                // reused across prompts via the prefix cache.
                let projected: Vec<Arc<Vec<f64>>> = match cache {
                    Some(cache) if layer == 0 => hidden
                        .iter()
                        .enumerate()
                        .map(|(pos, h)| {
                            cache.layer0_projection(head, prompt.tokens[pos].id, pos, || {
                                self.project(layer, head, h)
                            })
                        })
                        .collect(),
                    _ => hidden
                        .iter()
                        .map(|h| Arc::new(self.project(layer, head, h)))
                        .collect(),
                };
                let head_dim = projected[0].len() as f64;
                let scale = 1.0 / (head_dim.sqrt() * self.config.temperature);

                let mut attn = Matrix::zeros(n, n);
                for q in 0..n {
                    // Scores for query q against every visible key (all of
                    // them, or the causal prefix `k <= q`; masked positions
                    // keep the matrix's zero initialisation).
                    let visible = if self.config.causal { q + 1 } else { n };
                    let mut scores: Vec<f64> = (0..visible)
                        .map(|k| dot(&projected[q], &projected[k]) * scale)
                        .collect();
                    // Numerically-stable softmax.
                    let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                    let mut sum = 0.0;
                    for s in scores.iter_mut() {
                        *s = (*s - max).exp();
                        sum += *s;
                    }
                    for (k, s) in scores.iter().enumerate() {
                        let weight = s / sum;
                        attn.set(q, k, weight);
                        for d in 0..self.config.dim {
                            mixed[q][d] += weight * hidden[k][d] / self.config.heads as f64;
                        }
                    }
                }
                head_matrices.push(attn);
            }

            // Residual update + renormalisation keeps hidden states bounded across layers.
            for (h, m) in hidden.iter_mut().zip(mixed.iter()) {
                for d in 0..self.config.dim {
                    h[d] = 0.5 * h[d] + 0.5 * m[d];
                }
                normalize(h);
            }

            layers.push(LayerAttention {
                heads: head_matrices,
            });
        }

        AttentionRecord { layers, seq_len: n }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::SimTokenizer;
    use crate::{LlmInput, SourceText};

    fn record_for(question: &str, sources: Vec<SourceText>) -> (AttentionRecord, TokenizedPrompt) {
        let tok = SimTokenizer::new();
        let prompt = tok.tokenize_prompt(&LlmInput::new(question, sources));
        let transformer = Transformer::new(TransformerConfig::default());
        (transformer.forward(&prompt), prompt)
    }

    #[test]
    fn records_expected_shapes() {
        let (record, prompt) = record_for(
            "who wins",
            vec![
                SourceText::new("a", "federer wins"),
                SourceText::new("b", "nadal clay"),
            ],
        );
        let config = TransformerConfig::default();
        assert_eq!(record.layers.len(), config.layers);
        assert_eq!(record.num_matrices(), config.layers * config.heads);
        assert_eq!(record.seq_len, prompt.len());
        for layer in &record.layers {
            for head in &layer.heads {
                assert_eq!(head.rows, prompt.len());
                assert_eq!(head.cols, prompt.len());
            }
        }
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let (record, prompt) = record_for(
            "who has the most grand slam titles",
            vec![
                SourceText::new("a", "djokovic holds the most grand slam titles"),
                SourceText::new("b", "the pasta should boil for nine minutes"),
            ],
        );
        for layer in &record.layers {
            for head in &layer.heads {
                for q in 0..prompt.len() {
                    let row_sum: f64 = (0..prompt.len()).map(|k| head.get(q, k)).sum();
                    assert!((row_sum - 1.0).abs() < 1e-9, "row {q} sums to {row_sum}");
                }
            }
        }
    }

    #[test]
    fn attention_is_nonnegative() {
        let (record, _) = record_for("q", vec![SourceText::new("a", "alpha beta gamma")]);
        for layer in &record.layers {
            for head in &layer.heads {
                assert!(head.data.iter().all(|&w| w >= 0.0));
            }
        }
    }

    #[test]
    fn lexical_overlap_attracts_attention() {
        // A source sharing the question's words should receive more first-layer
        // attention from the question tokens than an unrelated source of equal length.
        let tok = SimTokenizer::new();
        // Both sources tokenise to the same length so span size cannot confound the
        // comparison; only lexical overlap with the question differs.
        let input = LlmInput::new(
            "who holds the most grand slam titles",
            vec![
                SourceText::new("match", "djokovic holds the most grand slam titles overall"),
                SourceText::new(
                    "noise",
                    "recipe simmers garlic onions beside fresh basil leaves",
                ),
            ],
        );
        let prompt = tok.tokenize_prompt(&input);
        let transformer = Transformer::new(TransformerConfig::default());
        let record = transformer.forward(&prompt);

        let (q_start, q_end) = prompt.question_span;
        let mass = |span: (usize, usize)| -> f64 {
            let mut total = 0.0;
            for layer in &record.layers {
                for head in &layer.heads {
                    for q in q_start..q_end {
                        for k in span.0..span.1 {
                            total += head.get(q, k);
                        }
                    }
                }
            }
            total
        };
        let matching = mass(prompt.source_spans[0]);
        let unrelated = mass(prompt.source_spans[1]);
        assert!(
            matching > unrelated,
            "matching source got {matching}, unrelated got {unrelated}"
        );
    }

    #[test]
    fn cached_forward_is_bit_identical_to_uncached() {
        let tok = SimTokenizer::new();
        let transformer = Transformer::new(TransformerConfig::default());
        let cache = PrefixCache::default();
        for sources in [
            vec![
                SourceText::new("a", "federer leads match wins"),
                SourceText::new("b", "djokovic holds the most slams"),
            ],
            // Swapped order and a truncated context reuse the question prefix.
            vec![
                SourceText::new("b", "djokovic holds the most slams"),
                SourceText::new("a", "federer leads match wins"),
            ],
            vec![SourceText::new("a", "federer leads match wins")],
        ] {
            let prompt = tok.tokenize_prompt(&LlmInput::new("who wins the most", sources));
            let plain = transformer.forward(&prompt);
            let cached = transformer.forward_cached(&prompt, Some(&cache));
            assert_eq!(plain, cached);
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "prefix reuse must produce hits");
    }

    #[test]
    fn forward_is_deterministic() {
        let (a, _) = record_for("question", vec![SourceText::new("s", "some text here")]);
        let (b, _) = record_for("question", vec![SourceText::new("s", "some text here")]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_give_different_attention() {
        let tok = SimTokenizer::new();
        let prompt = tok.tokenize_prompt(&LlmInput::new(
            "q",
            vec![SourceText::new("s", "alpha beta gamma delta")],
        ));
        let a = Transformer::new(TransformerConfig {
            seed: 1,
            ..TransformerConfig::default()
        })
        .forward(&prompt);
        let b = Transformer::new(TransformerConfig {
            seed: 2,
            ..TransformerConfig::default()
        })
        .forward(&prompt);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_prompt_yields_empty_record() {
        let tok = SimTokenizer::new();
        let prompt = tok.tokenize_prompt(&LlmInput::without_context(""));
        // The question marker token is always present, so force a truly empty prompt.
        let empty = TokenizedPrompt {
            tokens: Vec::new(),
            source_spans: Vec::new(),
            question_span: (0, 0),
        };
        assert_eq!(prompt.len(), 1);
        let record = Transformer::new(TransformerConfig::default()).forward(&empty);
        assert_eq!(record.seq_len, 0);
        assert!(record.layers.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_rejected() {
        Transformer::new(TransformerConfig {
            layers: 0,
            ..TransformerConfig::default()
        });
    }

    #[test]
    fn matrix_accessors() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
    }
}
