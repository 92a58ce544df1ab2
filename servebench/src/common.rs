//! What every workload shares: the served stand, the closed-loop sample
//! book, counter snapshots around a phase, golden snapshots and the
//! per-layer metric table.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rage_json::JsonValue;
use rage_report::{Document, Service};
use rage_server::{Server, ServerConfig};

use crate::client::Response;
use crate::stats::median;
use crate::trace::{self, Ledger, Write};

/// Every registry scenario, in registry order.
pub const SCENARIOS: [&str; 9] = [
    "us_open",
    "big_three",
    "timeline",
    "synthetic",
    "large_corpus",
    "multi_hop",
    "adversarial",
    "live_updates",
    "entity_registry",
];

macro_rules! snapshot {
    ($name:literal, $ext:literal) => {
        include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../crates/report/tests/snapshots/",
            $name,
            ".",
            $ext
        ))
    };
}

/// The golden JSON and markdown renderings of a scenario's seed report.
pub fn golden(name: &str) -> (&'static str, &'static str) {
    match name {
        "us_open" => (snapshot!("us_open", "json"), snapshot!("us_open", "md")),
        "big_three" => (snapshot!("big_three", "json"), snapshot!("big_three", "md")),
        "timeline" => (snapshot!("timeline", "json"), snapshot!("timeline", "md")),
        "synthetic" => (snapshot!("synthetic", "json"), snapshot!("synthetic", "md")),
        "large_corpus" => (
            snapshot!("large_corpus", "json"),
            snapshot!("large_corpus", "md"),
        ),
        "multi_hop" => (snapshot!("multi_hop", "json"), snapshot!("multi_hop", "md")),
        "adversarial" => (
            snapshot!("adversarial", "json"),
            snapshot!("adversarial", "md"),
        ),
        "live_updates" => (
            snapshot!("live_updates", "json"),
            snapshot!("live_updates", "md"),
        ),
        "entity_registry" => (
            snapshot!("entity_registry", "json"),
            snapshot!("entity_registry", "md"),
        ),
        other => panic!("no golden snapshot for scenario {other:?}"),
    }
}

/// The doc ids of the context sources of a golden JSON report.
pub fn golden_context_ids(golden_json: &str) -> Vec<String> {
    JsonValue::parse(golden_json)
        .ok()
        .and_then(|doc| {
            doc.get("context")?
                .get("sources")?
                .as_array()
                .map(|sources| {
                    sources
                        .iter()
                        .filter_map(|s| s.get("doc_id")?.as_str().map(str::to_string))
                        .collect()
                })
        })
        .unwrap_or_default()
}

/// The question of a golden JSON report.
pub fn golden_question(golden_json: &str) -> String {
    JsonValue::parse(golden_json)
        .ok()
        .and_then(|doc| doc.get("question")?.as_str().map(str::to_string))
        .unwrap_or_default()
}

/// Corpus provenance the service stamps on a served report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    pub version: u64,
    pub num_docs: usize,
}

/// Split a served JSON report into the library-path rendering (without the
/// trailing `corpus` member only the service stamps) and that stamp.
pub fn strip_corpus(served: &str) -> Option<(String, Stamp)> {
    let at = served.rfind(",\"corpus\":{")?;
    let member = served.get(at + 10..served.len().checked_sub(1)?)?;
    let corpus = JsonValue::parse(member).ok()?;
    let stamp = Stamp {
        version: corpus.get("version")?.as_usize()? as u64,
        num_docs: corpus.get("num_docs")?.as_usize()?,
    };
    if !served.ends_with("}}") {
        return None;
    }
    Some((format!("{}}}", &served[..at]), stamp))
}

/// The `corpus` member of a write response.
pub fn write_stamp(body: &str) -> Option<Stamp> {
    let doc = JsonValue::parse(body).ok()?;
    let corpus = doc.get("corpus")?;
    Some(Stamp {
        version: corpus.get("version")?.as_usize()? as u64,
        num_docs: corpus.get("num_docs")?.as_usize()?,
    })
}

/// The `POST /corpus/docs` body that writes `doc` into `scenario`.
pub fn doc_body(scenario: &str, doc: &Document, mode: &str) -> String {
    let fields = doc
        .fields
        .iter()
        .map(|(k, v)| (k.clone(), JsonValue::String(v.clone())))
        .collect();
    JsonValue::Object(vec![
        ("scenario".into(), JsonValue::String(scenario.to_string())),
        ("mode".into(), JsonValue::String(mode.to_string())),
        (
            "doc".into(),
            JsonValue::Object(vec![
                ("id".into(), JsonValue::String(doc.id.clone())),
                ("title".into(), JsonValue::String(doc.title.clone())),
                ("text".into(), JsonValue::String(doc.text.clone())),
                ("fields".into(), JsonValue::Object(fields)),
            ]),
        ),
    ])
    .render()
}

/// One HTTP operation, timed as the root span of a new op.
pub fn timed(
    op: &mut u64,
    span: &'static str,
    request: impl FnOnce() -> Result<Response, String>,
) -> (f64, Result<Response, String>, usize) {
    *op += 1;
    trace::begin_op(*op);
    let start = Instant::now();
    let (response, index) = trace::span(span, request);
    (start.elapsed().as_secs_f64() * 1e3, response, index)
}

/// A served stand: the shared service and the HTTP server over it.
pub struct Stand {
    pub service: Arc<Service>,
    pub server: Server,
}

impl Stand {
    /// Start a server over a fresh service on an OS-chosen local port.
    pub fn start() -> Result<Stand, String> {
        let service = Arc::new(Service::new());
        let server = Server::start("127.0.0.1:0", Arc::clone(&service), ServerConfig::default())
            .map_err(|err| format!("server start: {err}"))?;
        Ok(Stand { service, server })
    }
}

/// Set-ups per run: at least `MIN_SETUPS`, and more until they took
/// `SETUP_SECONDS` in all, so a short set-up is sampled over as long a span
/// of time as a long one.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 2.0;

/// Set the stand up repeatedly and keep the last; returns the stand, every
/// set-up time in seconds (`setup_s` is their median) and the calibration
/// loop's time, run once after the set-ups and untimed. The first set-up is
/// timed from process start. Dropping a stand stops its server and joins
/// the server's threads.
pub fn set_up(
    process_start: Instant,
    mut setup: impl FnMut() -> Result<Stand, String>,
) -> Result<(Stand, Vec<f64>, f64), String> {
    let begun = Instant::now();
    let mut times = Vec::new();
    let mut stand = None;
    while times.len() < MIN_SETUPS || begun.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(stand.take());
        let start = if times.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        stand = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((
        stand.expect("at least one set-up"),
        times,
        crate::calibrate(),
    ))
}

/// What a latency sample is alike with: one scenario's reads in one
/// format, one scenario's reports, one scenario's writes of one kind. The
/// samples of a class cost about the same, while the classes of a workload
/// differ by 10× and more, so a median pooled over classes sits on the
/// slope between them, where a small shift in which operations were slowed
/// moves it far. The latency metrics therefore take each class's median
/// first and combine the classes after (see [`class_median`]).
pub type Class = (&'static str, &'static str);

/// One timed operation.
pub struct Sample {
    pub kind: Kind,
    pub class: Class,
    pub ms: f64,
    /// When it completed.
    pub done: Instant,
}

/// Latencies and outcomes of one closed-loop phase, shared by its clients.
#[derive(Default)]
pub struct Book {
    pub samples: Vec<Sample>,
    pub ops: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// What an operation was, for the sample book.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Primary,
    Insert,
    Delete,
}

impl Kind {
    /// The kind of a corpus write.
    pub fn of(write: &Write) -> Kind {
        match write {
            Write::Remove(_) => Kind::Delete,
            Write::Add(_) | Write::Upsert(_) => Kind::Insert,
        }
    }
}

impl Book {
    pub fn record(&mut self, kind: Kind, class: Class, ms: f64, outcome: Result<(), String>) {
        self.ops += 1;
        self.attempted += 1;
        self.samples.push(Sample {
            kind,
            class,
            ms,
            done: Instant::now(),
        });
        if let Err(err) = outcome {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(err);
            }
        }
    }

    /// A failed check outside any timed operation.
    pub fn fail(&mut self, err: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(err);
        }
    }

    /// The latencies of the primary operation.
    pub fn primary_ms(&self) -> Vec<f64> {
        self.of(|kind| kind == Kind::Primary)
            .map(|sample| sample.ms)
            .collect()
    }

    /// The samples whose kind passes `keep`.
    pub fn of(&self, keep: impl Fn(Kind) -> bool) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(move |sample| keep(sample.kind))
    }

    pub fn absorb(&mut self, other: Book) {
        self.samples.extend(other.samples);
        self.ops += other.ops;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for err in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(err);
            }
        }
    }
}

/// Counters read around a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub at: Option<Instant>,
    pub cpu_s: f64,
    pub report_hits: u64,
    pub report_misses: u64,
    pub ask_requests: u64,
    pub ask_batches: u64,
    pub connections: u64,
    pub prefix_hits: u64,
    pub prefix_lookups: u64,
}

impl Counters {
    pub fn read(stand: &Stand, scenarios: &[&str]) -> Counters {
        let cache = stand.service.report_cache_stats();
        let batch = stand.server.batch_stats();
        let (mut prefix_hits, mut prefix_lookups) = (0, 0);
        for name in scenarios {
            if let Some(stats) = stand.service.prefix_cache_stats(name, None) {
                prefix_hits += stats.hits;
                prefix_lookups += stats.lookups();
            }
        }
        Counters {
            at: Some(Instant::now()),
            cpu_s: process_cpu_seconds(),
            report_hits: cache.hits,
            report_misses: cache.misses,
            ask_requests: batch.requests,
            ask_batches: batch.batches,
            connections: stand.server.connections_accepted(),
            prefix_hits,
            prefix_lookups,
        }
    }

    /// `self - before`, with the wall time between the two reads.
    pub fn since(&self, before: &Counters) -> (Counters, f64) {
        let wall = match (self.at, before.at) {
            (Some(after), Some(start)) => after.duration_since(start).as_secs_f64(),
            _ => 0.0,
        };
        let delta = Counters {
            at: None,
            cpu_s: self.cpu_s - before.cpu_s,
            report_hits: self.report_hits - before.report_hits,
            report_misses: self.report_misses - before.report_misses,
            ask_requests: self.ask_requests - before.ask_requests,
            ask_batches: self.ask_batches - before.ask_batches,
            connections: self.connections - before.connections,
            prefix_hits: self.prefix_hits - before.prefix_hits,
            prefix_lookups: self.prefix_lookups - before.prefix_lookups,
        };
        (delta, wall)
    }
}

/// One measured phase: its samples, the counter deltas and its wall time.
pub struct Phase {
    pub book: Book,
    pub delta: Counters,
    pub wall_s: f64,
}

impl Phase {
    /// Operations over the phase's whole wall time.
    pub fn ops_per_s(&self) -> f64 {
        self.book.ops as f64 / self.wall_s
    }
}

/// Run `body` between two counter reads.
pub fn phase(stand: &Stand, scenarios: &[&str], body: impl FnOnce() -> Book) -> Phase {
    let before = Counters::read(stand, scenarios);
    let book = body();
    let (delta, wall_s) = Counters::read(stand, scenarios).since(&before);
    Phase {
        book,
        delta,
        wall_s,
    }
}

/// Run `clients` closed-loop client threads; each gets its index and adds
/// its samples (and, when traced, its spans) to the phase.
pub fn run_clients(
    clients: usize,
    traced: bool,
    ledger: &Mutex<Ledger>,
    client: impl Fn(usize) -> Book + Sync,
) -> Book {
    let book = Mutex::new(Book::default());
    std::thread::scope(|scope| {
        for id in 0..clients {
            let (client, book) = (&client, &book);
            scope.spawn(move || {
                crate::trace::set_enabled(traced);
                let mine = client(id);
                crate::trace::set_enabled(false);
                let (spans, counts) = crate::trace::take();
                ledger.lock().expect("ledger lock").absorb(spans, counts);
                book.lock().expect("book lock").absorb(mine);
            });
        }
    });
    book.into_inner().expect("book lock")
}

/// Process CPU time (user + system) from `/proc/self/stat`, in seconds.
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in USER_HZ (100 per second) ticks.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size (`VmHWM`) of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were put.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 an empty f64 sum yields into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// The median over classes of each class's median latency: the middle of
/// the class medians, the mean of the two middle ones when their count is
/// even (so two classes give their mean). A class median holds while fewer
/// than half of its operations were slowed, and the middle of the class
/// medians moves only as far as the classes' own medians move.
pub fn class_median<'a>(samples: impl Iterator<Item = &'a Sample>) -> f64 {
    let mut classes: Vec<(Class, Vec<f64>)> = Vec::new();
    for sample in samples {
        match classes.iter_mut().find(|(class, _)| *class == sample.class) {
            Some((_, ms)) => ms.push(sample.ms),
            None => classes.push((sample.class, vec![sample.ms])),
        }
    }
    let medians: Vec<f64> = classes.iter().map(|(_, ms)| median(ms)).collect();
    crate::stats::middle(&medians)
}

/// Consecutive windows of `window` samples in completion order; a trailing
/// part window is left out. All samples form one window when `window` is 0
/// or more than there are.
fn windows(mut samples: Vec<&Sample>, window: usize) -> Vec<Vec<&Sample>> {
    samples.sort_by_key(|sample| sample.done);
    if window == 0 || samples.len() < window {
        return vec![samples];
    }
    samples.chunks_exact(window).map(<[_]>::to_vec).collect()
}

/// The mean over `windows` of `stat` on each window's samples of the kinds
/// `keep` passes, and the range of the per-window values; a window without
/// such samples is left out.
fn over_windows(
    windows: &[Vec<&Sample>],
    keep: impl Fn(Kind) -> bool,
    stat: impl Fn(&[&Sample]) -> f64,
) -> (f64, f64, f64) {
    let values: Vec<f64> = windows
        .iter()
        .map(|w| -> Vec<&Sample> { w.iter().copied().filter(|s| keep(s.kind)).collect() })
        .filter(|kept| !kept.is_empty())
        .map(|kept| stat(&kept))
        .collect();
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    let (lo, hi) = values.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &v| {
        (lo.min(v), hi.max(v))
    });
    (mean, lo, hi)
}

/// The end-to-end metrics of an untraced phase, with the write latencies
/// of `writes`, and a note of the samples behind them (`error_rate` is
/// reported from the run's `attempted` and `failed` counts).
///
/// The runner's speed changes every few seconds, by up to 1.5× (other
/// tenants of the host), so a median over a whole run reports the speed
/// that held for most of the run and jumps when that share crosses one
/// half. The latency metrics are therefore medians within windows of
/// `window` consecutive operations, short enough that one speed holds
/// through most of each, and a run reports the mean over its windows. The
/// tail percentile needs more samples than a window holds on `explain` and
/// `lookup`; with `tail_in_windows` false it is taken over the whole run.
pub fn end_to_end(
    phase: &Phase,
    writes: &Book,
    setup_times: &[f64],
    tail: f64,
    window: usize,
    tail_in_windows: bool,
) -> (Metrics, String) {
    use crate::stats::percentile;
    let is_primary = |kind| kind == Kind::Primary;
    let is_write = |kind| kind != Kind::Primary;
    let ms = |samples: &[&Sample]| samples.iter().map(|s| s.ms).collect::<Vec<_>>();
    let phase_windows = windows(phase.book.samples.iter().collect(), window);
    let (p50, p50_lo, p50_hi) = over_windows(&phase_windows, is_primary, |s| {
        class_median(s.iter().copied())
    });
    let tail_windows = if tail_in_windows {
        phase_windows.clone()
    } else {
        windows(phase.book.samples.iter().collect(), 0)
    };
    let (tail_ms, tail_lo, tail_hi) =
        over_windows(&tail_windows, is_primary, |s| percentile(&ms(s), tail));
    let tail_beyond = tail_windows
        .iter()
        .map(|w| {
            let primary: Vec<&Sample> = w.iter().copied().filter(|s| is_primary(s.kind)).collect();
            crate::stats::beyond(&ms(&primary), tail)
        })
        .min()
        .unwrap_or(0);
    let write_windows = windows(writes.samples.iter().collect(), window);
    let (write_p50, _, _) = over_windows(&write_windows, is_write, |s| {
        class_median(s.iter().copied())
    });

    let mut m = Metrics::default();
    m.put("ops_per_s", phase.ops_per_s(), "1/s");
    m.put("latency_ms_p50", p50, "ms");
    m.put("latency_ms_tail", tail_ms, "ms");
    m.put("write_ms_p50", write_p50, "ms");
    m.put("setup_s", median(setup_times), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");

    let all_ms = phase.book.primary_ms();
    let quantiles = |ps: &[f64]| -> String {
        ps.iter()
            .map(|&p| format!("p{p}={:.4}", percentile(&all_ms, p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let kind_p50 = |kind| median(&writes.of(|k| k == kind).map(|s| s.ms).collect::<Vec<_>>());
    let note = format!(
        "samples: {} primary ops, {} writes, {} set-ups; {} windows of {window} ops \
         (p50 {p50_lo:.4}..{p50_hi:.4}), {} write windows; tail over {} window(s) \
         ({tail_lo:.4}..{tail_hi:.4}, at least {tail_beyond} beyond p{tail} in each); \
         pooled quantiles {}; insert p50={:.4} delete p50={:.4}",
        all_ms.len(),
        writes.of(is_write).count(),
        setup_times.len(),
        phase_windows.len(),
        write_windows.len(),
        tail_windows.len(),
        quantiles(&[25.0, 40.0, 50.0, 60.0, 75.0, 90.0, 92.0, 95.0, 99.0, 99.9]),
        kind_p50(Kind::Insert),
        kind_p50(Kind::Delete),
    );
    (m, note)
}
