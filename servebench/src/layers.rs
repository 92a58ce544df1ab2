//! The per-layer metrics of a traced run, and the probes that time set-up
//! layers (scenario build, index build, corpus provenance) from outside.

use std::time::Instant;

use rage_report::{scenarios, Service};

use crate::common::{Metrics, Phase, SCENARIOS};
use crate::stats::{median, ratio};
use crate::trace::{Ledger, Mirror, SECTIONS};

/// Set-up layers timed from outside.
#[derive(Default)]
pub struct Probes {
    /// Median `Service::corpus_provenance` time per registry scenario.
    pub provenance_ms: Vec<(&'static str, f64)>,
    /// `LiveSearcher::from_corpus` over the workload's scenarios, summed.
    pub index_build_ms: f64,
    /// `ScenarioRegistry::build` over the workload's scenarios, summed.
    pub dataset_build_ms: f64,
}

/// Build the replay mirrors of the workload's scenarios, timing the
/// scenario and index builds.
pub fn mirrors(names: &[&'static str], probes: &mut Probes) -> Vec<Mirror> {
    names
        .iter()
        .map(|name| {
            let start = Instant::now();
            let scenario = scenarios::registry()
                .build(name)
                .expect("registry scenario");
            probes.dataset_build_ms += start.elapsed().as_secs_f64() * 1e3;
            let (mirror, build_ms) = Mirror::new(&scenario);
            probes.index_build_ms += build_ms;
            mirror
        })
        .collect()
}

/// Time `corpus_provenance` on every scenario (median of five calls).
pub fn probe_provenance(service: &Service, probes: &mut Probes) {
    for name in SCENARIOS {
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                let _ = std::hint::black_box(service.corpus_provenance(name));
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        probes.provenance_ms.push((name, median(&times)));
    }
}

/// Every per-layer metric, from the untraced phase's counters, the traced
/// phase's spans and the probes, plus each layer's share of the traced
/// operations' time. A metric a workload does not exercise reads 0.
pub fn layer_metrics(
    untraced: &Phase,
    traced: &Phase,
    ledger: &Ledger,
    probes: &Probes,
) -> (Metrics, Vec<String>) {
    let mut m = Metrics::default();
    let ops = traced.book.primary_ms().len() as f64;
    let per_op = |total: f64| ratio(total, ops);
    let d = &untraced.delta;

    // server
    m.put(
        "server.self_ms_p50",
        median(&ledger.self_ms("server.http")),
        "ms",
    );
    m.put(
        "server.ask_queue_ms_p50",
        median(&ledger.self_ms("server.http.ask")),
        "ms",
    );
    m.put(
        "server.ask_batch_mean",
        ratio(d.ask_requests as f64, d.ask_batches as f64),
        "requests",
    );
    m.put("server.cpu_util", ratio(d.cpu_s, untraced.wall_s), "cores");
    m.put("server.connections", d.connections as f64, "count");

    // report
    m.put(
        "report.cache_hit_rate",
        ratio(
            d.report_hits as f64,
            (d.report_hits + d.report_misses) as f64,
        ),
        "ratio",
    );
    m.put(
        "report.hit_ms_p50",
        median(&ledger.durations_ms("report.hit")),
        "ms",
    );
    for (name, ms) in &probes.provenance_ms {
        m.put(format!("report.provenance_ms.{name}"), *ms, "ms");
    }
    for format in ["json", "md", "html"] {
        let span = format!("report.render.{format}");
        m.put(
            format!("report.render_ms_p50.{format}"),
            median(&ledger.durations_ms(&span)),
            "ms",
        );
    }
    m.put(
        "report.miss_self_ms",
        median(&ledger.self_ms("report.service.report")),
        "ms",
    );
    m.put(
        "report.write_ms_p50",
        median(&ledger.durations_ms("report.write")),
        "ms",
    );

    // core
    for (section, span, _, _) in SECTIONS {
        m.put(
            format!("core.section_ms.{section}"),
            per_op(ledger.total_ms(span)),
            "ms",
        );
    }
    for (_, _, evals, _) in SECTIONS {
        m.put(evals, per_op(ledger.count_sum(evals)), "count");
    }
    for (_, _, _, calls) in SECTIONS {
        m.put(calls, per_op(ledger.count_sum(calls)), "count");
    }
    m.put(
        "core.memo_hit_rate",
        ratio(
            ledger.count_sum("core.memo_hits"),
            ledger.count_sum("core.memo_lookups"),
        ),
        "ratio",
    );
    m.put(
        "core.batch_size_mean",
        ratio(
            ledger.count_sum("core.batch_items"),
            ledger.count_sum("core.batches"),
        ),
        "count",
    );
    m.put(
        "core.ask_ms_p50",
        median(&ledger.durations_ms("core.ask")),
        "ms",
    );

    // llm
    let calls = ledger.count_sum("llm.calls");
    let tokens = ledger.count_sum("llm.prompt_tokens");
    let batch_calls = ledger.count_sum("llm.batch_calls");
    let batch_inputs = ledger.count_sum("llm.batch_inputs");
    let mut forward_ms = ledger.durations_ms("llm.generate");
    let mean_batch = ratio(batch_inputs, batch_calls);
    forward_ms.extend(
        ledger
            .durations_ms("llm.batch")
            .iter()
            .map(|ms| ratio(*ms, mean_batch)),
    );
    let forward_total_ms = ledger.total_ms("llm.generate") + ledger.total_ms("llm.batch");
    m.put("llm.calls", per_op(calls), "count");
    m.put("llm.generate_ms_p50", median(&forward_ms), "ms");
    m.put("llm.prompt_tokens_mean", ratio(tokens, calls), "tokens");
    m.put(
        "llm.ns_per_token",
        ratio(forward_total_ms * 1e6, tokens),
        "ns/token",
    );
    m.put(
        "llm.prefix_hit_rate",
        ratio(d.prefix_hits as f64, d.prefix_lookups as f64),
        "ratio",
    );
    m.put("llm.batch_size_mean", mean_batch, "count");

    // retrieval
    let search_us: Vec<f64> = ledger
        .durations_ms("retrieval.search")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    m.put("retrieval.search_us_p50", median(&search_us), "us");
    m.put(
        "retrieval.search_calls",
        per_op(ledger.count_sum("retrieval.search_calls")),
        "count",
    );
    let write_us: Vec<f64> = ledger
        .durations_ms("retrieval.write")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    m.put("retrieval.write_us_p50", median(&write_us), "us");
    m.put("retrieval.index_build_ms", probes.index_build_ms, "ms");

    // datasets
    m.put("datasets.build_ms", probes.dataset_build_ms, "ms");

    // the trace itself
    // Uncovered: the replay's own glue, and every negative self time (a
    // child measured longer than its parent leaves that excess unattributed).
    let root_ms = ledger.root_ms();
    let negative_ms = ledger.negative_self_ms();
    m.put(
        "trace.coverage",
        1.0 - ratio(ledger.layer_self_ms("gap") + negative_ms, root_ms),
        "ratio",
    );
    m.put(
        "trace.overhead",
        ratio(traced.ops_per_s(), untraced.ops_per_s()),
        "ratio",
    );
    let mut shares: Vec<String> = ["server", "report", "core", "llm", "retrieval", "gap"]
        .iter()
        .map(|layer| {
            let share = ratio(ledger.layer_self_ms(layer), root_ms);
            format!("share {layer} {:.4}", share + 0.0)
        })
        .collect();
    shares.push(format!(
        "share negative {:.4}",
        ratio(negative_ms, root_ms) + 0.0
    ));
    for (span, ms) in ledger.negative_self_by_span() {
        shares.push(format!("share negative {span} {:.4}", ratio(ms, root_ms)));
    }
    (m, shares)
}
