//! `browse`: the forward-free serving path — seeded `GET /report` over every
//! scenario × {json, md, html} from a report cache warmed in set-up, with
//! `GET /stats` at a fixed share, over two connections, closed loop,
//! read-only.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use rage_json::JsonValue;
use rage_report::{render_html, render_markdown, to_json, ReportFormat, Service};

use crate::client::{Client, Response};
use crate::common::{
    end_to_end, golden, phase, run_clients, set_up, strip_corpus, timed, Book, Kind, Phase, Stand,
    SCENARIOS,
};
use crate::layers::{layer_metrics, mirrors, probe_provenance, Probes};
use crate::lookup::{self, Writer};
use crate::stats::Rng;
use crate::trace::{self, Ledger};
use crate::{Args, Outcome};

const CLIENTS: usize = 2;
/// Throughput and latency window, in completed operations (about a
/// second): `ops_per_s`, `latency_ms_p50` and `latency_ms_tail` are medians
/// over windows of this many reads.
const WINDOW_OPS: usize = 1000;
/// Writes of the probe that follows the read-only phase (an even number
/// leaves the seed corpus behind).
const PROBE_WRITES: usize = 200;

/// In the untraced phase each client keeps reading until the run's time is
/// up and it made this many reads, so the run holds at least one whole
/// latency window.
const MIN_READS: usize = WINDOW_OPS / CLIENTS;

/// `latency_ms_tail` percentile: the highest that keeps 10 of the 1000
/// reads of a latency window beyond it.
pub const TAIL_PERCENTILE: f64 = 99.0;

fn setup() -> Result<Stand, String> {
    let stand = Stand::start()?;
    // Warm the report cache: one cold report per scenario.
    for name in SCENARIOS {
        stand
            .service
            .report(name, None)
            .map_err(|err| format!("{name}: warm-up report: {err}"))?;
    }
    Ok(stand)
}

pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let (stand, setup_times, calibration_before_ms) = set_up(process_start, setup)?;
    let first_html: Mutex<HashMap<&'static str, String>> = Mutex::new(HashMap::new());
    // In the traced run one operation runs at a time, so the HTTP read and
    // its direct repeats meet the same corpus-lock state.
    let turn = Mutex::new(());
    let ledger = Mutex::new(Ledger::default());
    let run_phase = |traced: bool, stream: u64| {
        phase(&stand, &SCENARIOS, || {
            run_clients(CLIENTS, traced, &ledger, |id| {
                let rng = Rng::new(args.seed, stream + id as u64);
                client_loop(
                    &stand,
                    rng,
                    &first_html,
                    traced.then_some(&turn),
                    id,
                    args.seconds,
                )
            })
        })
    };

    let untraced = run_phase(false, 100);
    let mut book = Book::default();
    let mut notes = Vec::new();
    check_phase(&untraced, &mut book);
    let mut layers = None;
    if args.trace {
        let mut probes = Probes::default();
        // Scenario and index builds are set-up work here; time them too.
        drop(mirrors(&SCENARIOS, &mut probes));
        let traced = run_phase(true, 200);
        probe_provenance(&stand.service, &mut probes);
        notes.push(format!(
            "traced read samples {}",
            traced.book.primary_ms().len()
        ));
        check_phase(&traced, &mut book);
        let ledger = ledger.lock().expect("ledger lock");
        let (metrics, shares) = layer_metrics(&untraced, &traced, &ledger, &probes);
        layers = Some(metrics);
        notes.extend(shares);
        book.absorb(traced.book);
    }
    // The phases above are read-only; write latency comes from a probe
    // after them.
    let probe = write_probe(&stand, args.seed);
    let (metrics, note) = end_to_end(
        &untraced,
        &probe,
        &setup_times,
        TAIL_PERCENTILE,
        WINDOW_OPS,
        true,
    );
    notes.insert(0, note);
    book.absorb(untraced.book);
    book.absorb(probe);
    Ok(Outcome {
        book,
        end_to_end: metrics,
        layers,
        notes,
        calibration_before_ms,
    })
}

/// Every read must hit the warm cache and run no forward.
fn check_phase(phase: &Phase, book: &mut Book) {
    if phase.delta.report_misses != 0 {
        book.fail(format!(
            "{} report reads missed the warm cache",
            phase.delta.report_misses
        ));
    }
    if phase.delta.prefix_lookups != 0 {
        book.fail(format!(
            "{} model prefix lookups on the forward-free path",
            phase.delta.prefix_lookups
        ));
    }
}

/// One read of the mix.
#[derive(Clone, Copy)]
enum Read {
    Report(&'static str, &'static str),
    Stats,
}

/// One block of the mix: every scenario in every format once, plus
/// `/stats` for a tenth of the block.
fn block() -> Vec<Read> {
    let mut reads: Vec<Read> = SCENARIOS
        .iter()
        .flat_map(|&name| ["json", "md", "html"].map(|format| Read::Report(name, format)))
        .collect();
    let stats = reads.len() / 9;
    reads.extend(std::iter::repeat_n(Read::Stats, stats));
    reads
}

fn client_loop(
    stand: &Stand,
    mut rng: Rng,
    first_html: &Mutex<HashMap<&'static str, String>>,
    turn: Option<&Mutex<()>>,
    id: usize,
    seconds: f64,
) -> Book {
    let mut client = Client::new(stand.server.addr());
    let service = &stand.service;
    let mut book = Book::default();
    let mut op = (id as u64) << 32;
    let mut queue = Vec::new();
    let start = Instant::now();
    let traced = turn.is_some();
    let min_reads = if traced { 0 } else { MIN_READS as u64 };
    while book.ops < min_reads || start.elapsed().as_secs_f64() < seconds {
        let _turn = turn.map(|turn| turn.lock().expect("turn lock"));
        if queue.is_empty() {
            queue = block();
            rng.shuffle(&mut queue);
        }
        let (name, format) = match queue.pop().expect("refilled above") {
            Read::Report(name, format) => (name, format),
            Read::Stats => {
                let (ms, response, http) = timed(&mut op, "server.http.stats", || {
                    client.request("GET", "/stats", None)
                });
                let outcome = check_stats(response);
                if traced {
                    trace::within(http, || {
                        trace::span("report.stats", || {
                            (service.report_cache_stats(), service.corpus_versions())
                        })
                    });
                }
                book.record(Kind::Primary, ("stats", "stats"), ms, outcome);
                continue;
            }
        };
        let path = format!("/report?scenario={name}&format={format}");
        let (ms, response, http) = timed(&mut op, "server.http.read", || {
            client.request("GET", &path, None)
        });
        let mut outcome = check_read(response, name, format, first_html);
        if let (true, Ok(served)) = (traced, &outcome) {
            outcome = trace::within(http, || traced_read(service, name, format, served))
                .map(|()| String::new());
        }
        book.record(Kind::Primary, (name, format), ms, outcome.map(drop));
    }
    book
}

fn check_stats(response: Result<Response, String>) -> Result<(), String> {
    let response = response?;
    if response.status != 200 {
        return Err(format!("stats status {}", response.status));
    }
    let doc = JsonValue::parse(&response.body).map_err(|err| format!("stats body: {err}"))?;
    if doc
        .get("report_cache")
        .and_then(|c| c.get("hits"))
        .is_none()
    {
        return Err("stats without report_cache counters".to_string());
    }
    Ok(())
}

/// Check a served rendering; returns its bytes.
fn check_read(
    response: Result<Response, String>,
    name: &'static str,
    format: &str,
    first_html: &Mutex<HashMap<&'static str, String>>,
) -> Result<String, String> {
    let response = response?;
    if response.status != 200 {
        return Err(format!("{name}.{format}: status {}", response.status));
    }
    let (golden_json, golden_md) = golden(name);
    let equal = match format {
        "json" => strip_corpus(&response.body).is_some_and(|(report, stamp)| {
            stamp.version == 1 && format!("{report}\n") == golden_json
        }),
        "md" => response.body == golden_md,
        _ => {
            let mut first = first_html.lock().expect("html lock");
            let first = first.entry(name).or_insert_with(|| response.body.clone());
            *first == response.body
        }
    };
    if !equal {
        return Err(format!(
            "{name}.{format}: served bytes differ from the expected rendering"
        ));
    }
    Ok(response.body)
}

/// The same read made directly on the service, split into the cache hit
/// (with its corpus provenance) and the render.
fn traced_read(service: &Service, name: &str, format: &str, served: &str) -> Result<(), String> {
    let parsed = ReportFormat::parse(format).map_err(|err| err.to_string())?;
    let (direct, svc) = trace::span("report.render_report", || {
        service.render_report(name, parsed, None)
    });
    if direct.map_err(|err| format!("{name}: direct read: {err}"))? != served {
        return Err(format!(
            "{name}.{format}: direct Service read differs from the served one"
        ));
    }
    trace::within(svc, || {
        let (report, hit) = trace::span("report.hit", || service.report(name, None));
        let report = report.map_err(|err| format!("{name}: direct hit: {err}"))?;
        trace::within(hit, || {
            trace::span("report.provenance", || service.corpus_provenance(name)).0
        })
        .map_err(|err| format!("{name}: provenance: {err}"))?;
        let rendered = match parsed {
            ReportFormat::Json => trace::span("report.render.json", || to_json(&report).render()).0,
            ReportFormat::Markdown => {
                trace::span("report.render.md", || render_markdown(&report)).0
            }
            ReportFormat::Html => trace::span("report.render.html", || render_html(&report)).0,
        };
        if rendered != served {
            return Err(format!(
                "{name}.{format}: render of the cached report differs"
            ));
        }
        Ok(())
    })
}

/// Registry-maintenance writes (as in `lookup`) after the read phase:
/// `PROBE_WRITES` alternating upserts and deletes of new seeded records.
fn write_probe(stand: &Stand, seed: u64) -> Book {
    let mut book = Book::default();
    let version = match stand.service.corpus_provenance(lookup::SCENARIO) {
        Ok(provenance) => provenance.version,
        Err(err) => {
            book.fail(format!("probe: {err}"));
            return book;
        }
    };
    let mut writer = Writer::new(Rng::new(seed, 300), version);
    let mut client = Client::new(stand.server.addr());
    for _ in 0..PROBE_WRITES {
        let (write, _) = writer.next();
        let (method, path, body) = Writer::request(&write);
        let start = Instant::now();
        let response = client.request(method, &path, body.as_deref());
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let outcome = lookup::check_write(response, &mut writer);
        book.record(Kind::of(&write), lookup::write_class(&write), ms, outcome);
    }
    book
}
