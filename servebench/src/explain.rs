//! `explain`: the paper's interactive loop — remove a source, re-explain,
//! restore it, re-explain — over every registry scenario, one connection,
//! closed loop. Every report is a cache miss that runs cold through
//! retrieval, the prompt, the forwards and all report sections.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use rage_report::{scenarios, to_json, Document, ReportFormat, Service};

use crate::client::{Client, Response};
use crate::common::{
    doc_body, end_to_end, golden, golden_context_ids, golden_question, phase, run_clients, set_up,
    strip_corpus, timed, write_stamp, Book, Kind, Phase, Stand, SCENARIOS,
};
use crate::layers::{layer_metrics, mirrors, probe_provenance, Probes};
use crate::stats::Rng;
use crate::trace::{self, Ledger, Mirror, Write};
use crate::{Args, Outcome};

/// Whole cycles over every scenario are always completed, and at least this
/// many per untraced phase, so every run weighs every scenario equally and
/// the tail percentile keeps its samples.
const MIN_CYCLES: usize = 7;

/// Operations of one cycle, four per scenario: a cycle is a latency window.
const CYCLE_OPS: usize = 4 * SCENARIOS.len();

/// `latency_ms_tail` percentile: the highest that keeps 10 of the 126
/// report samples of seven cycles beyond it.
pub const TAIL_PERCENTILE: f64 = 92.0;

/// One scenario's seeded inputs.
struct Target {
    name: &'static str,
    golden_json: &'static str,
    seed_docs: usize,
    /// The golden report's context sources in seeded order; cycle `c`
    /// removes and restores source `c % len`, so every run spreads its
    /// cycles over the context rather than over one seeded source.
    removed: Vec<Document>,
    /// The corpus's first two documents. The traced run re-writes one that
    /// is live unchanged, to make the direct `Service` call miss the cache
    /// too.
    touch: [Document; 2],
}

impl Target {
    /// The source cycle `cycle` removes.
    fn removed(&self, cycle: usize) -> &Document {
        &self.removed[cycle % self.removed.len()]
    }

    /// A document cycle `cycle` leaves live.
    fn touch(&self, cycle: usize) -> &Document {
        let removed = &self.removed(cycle).id;
        self.touch
            .iter()
            .find(|doc| doc.id != *removed)
            .expect("two distinct documents")
    }
}

fn targets(seed: u64) -> Vec<Target> {
    let mut rng = Rng::new(seed, 1);
    SCENARIOS
        .iter()
        .map(|&name| {
            let scenario = scenarios::registry()
                .build(name)
                .expect("registry scenario");
            let (golden_json, _) = golden(name);
            let mut ids = golden_context_ids(golden_json);
            rng.shuffle(&mut ids);
            let removed = ids
                .iter()
                .map(|id| {
                    scenario
                        .corpus
                        .get(id)
                        .expect("golden context source is in the seed corpus")
                        .clone()
                })
                .collect();
            let mut docs = scenario.corpus.iter().cloned();
            let touch = [(); 2].map(|()| docs.next().expect("corpus holds two documents"));
            Target {
                name,
                golden_json,
                seed_docs: scenario.corpus.len(),
                removed,
                touch,
            }
        })
        .collect()
}

/// What the checks carry across cycles and phases.
struct Expect {
    /// Cycles completed so far, over all phases.
    cycle: usize,
    /// Corpus version the last write of each scenario produced.
    version: HashMap<&'static str, u64>,
    /// The report of each scenario without each removed source, from the
    /// first cycle that removed it.
    removed_report: HashMap<(&'static str, String), String>,
}

fn setup() -> Result<Stand, String> {
    let stand = Stand::start()?;
    // Materialise every runtime (scenario build + index build) without
    // generating a report: one ask of the scenario's question each.
    for name in SCENARIOS {
        let question = golden_question(golden(name).0);
        stand
            .service
            .ask(name, &question, None)
            .map_err(|err| format!("{name}: warm-up ask: {err}"))?;
    }
    Ok(stand)
}

pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let (stand, setup_times, calibration_before_ms) = set_up(process_start, setup)?;
    let targets = targets(args.seed);
    let state = Mutex::new((
        Rng::new(args.seed, 2),
        Expect {
            cycle: 0,
            version: SCENARIOS
                .iter()
                .map(|&name| {
                    let version = stand
                        .service
                        .corpus_provenance(name)
                        .map_or(0, |p| p.version);
                    (name, version)
                })
                .collect(),
            removed_report: HashMap::new(),
        },
    ));
    let ledger = Mutex::new(Ledger::default());
    let run_phase = |mirrors: Option<&[Mirror]>, min_cycles: usize| {
        phase(&stand, &SCENARIOS, || {
            run_clients(1, mirrors.is_some(), &ledger, |_| {
                let mut state = state.lock().expect("explain state");
                let (rng, expect) = &mut *state;
                cycles(
                    &stand,
                    &targets,
                    rng,
                    expect,
                    mirrors,
                    args.seconds,
                    min_cycles,
                )
            })
        })
    };

    let untraced = run_phase(None, MIN_CYCLES);
    let mut book = Book::default();
    check_phase(&untraced, &mut book);
    let (metrics, note) = end_to_end(
        &untraced,
        &untraced.book,
        &setup_times,
        TAIL_PERCENTILE,
        CYCLE_OPS,
        false,
    );
    let mut notes = vec![note];
    let mut layers = None;
    if args.trace {
        let mut probes = Probes::default();
        let mirrors = mirrors(&SCENARIOS, &mut probes);
        let traced = run_phase(Some(&mirrors), 1);
        check_phase(&traced, &mut book);
        probe_provenance(&stand.service, &mut probes);
        let ledger = ledger.lock().expect("ledger lock");
        notes.push(format!(
            "traced report samples {}",
            traced.book.primary_ms().len()
        ));
        let (metrics, shares) = layer_metrics(&untraced, &traced, &ledger, &probes);
        layers = Some(metrics);
        notes.extend(shares);
        book.absorb(traced.book);
    }
    book.absorb(untraced.book);
    Ok(Outcome {
        book,
        end_to_end: metrics,
        layers,
        notes,
        calibration_before_ms,
    })
}

/// Every explain report must miss the report cache.
fn check_phase(phase: &Phase, book: &mut Book) {
    if phase.delta.report_hits != 0 {
        book.fail(format!(
            "{} report requests hit the cache",
            phase.delta.report_hits
        ));
    }
}

/// Whole cycles over every scenario in seeded order until `seconds` have
/// passed and at least `min_cycles` ran. With `mirrors`, every operation is
/// also made directly on the service and replayed through the library.
fn cycles(
    stand: &Stand,
    targets: &[Target],
    rng: &mut Rng,
    expect: &mut Expect,
    mirrors: Option<&[Mirror]>,
    seconds: f64,
    min_cycles: usize,
) -> Book {
    let mut client = Client::new(stand.server.addr());
    let service = &stand.service;
    let mut book = Book::default();
    let mut op = 0u64;
    let start = Instant::now();
    let mut cycle = 0;
    while cycle < min_cycles || start.elapsed().as_secs_f64() < seconds {
        let mut order: Vec<usize> = (0..targets.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let t = &targets[i];
            let removed = t.removed(expect.cycle);
            let mirror = mirrors.map(|m| &m[i]);

            // 1. Remove this cycle's source.
            let path = format!("/corpus/docs/{}?scenario={}", removed.id, t.name);
            let (ms, response, http) = timed(&mut op, "server.http.write", || {
                client.request("DELETE", &path, None)
            });
            let mut outcome = check_write(response, t, t.seed_docs - 1, expect);
            if let (Some(mirror), Ok(())) = (mirror, &outcome) {
                outcome = trace::within(http, || {
                    let write = Write::Remove(removed.id.clone());
                    traced_write(service, t, removed, mirror, write, expect)
                });
            }
            book.record(Kind::Delete, (t.name, "delete"), ms, outcome);

            // 2. Explain without it.
            let path = format!("/report?scenario={}&format=json", t.name);
            let (ms, response, http) = timed(&mut op, "server.http.report", || {
                client.request("GET", &path, None)
            });
            let mut outcome = check_report(response, t, Some(removed), expect);
            if let (Some(mirror), Ok(served)) = (mirror, &outcome) {
                outcome = trace::within(http, || traced_report(service, t, mirror, served, expect))
                    .map(|()| String::new());
            }
            book.record(Kind::Primary, (t.name, "without"), ms, outcome.map(drop));

            // 3. Restore the identical document.
            let body = doc_body(t.name, removed, "add");
            let (ms, response, http) = timed(&mut op, "server.http.write", || {
                client.request("POST", "/corpus/docs", Some(&body))
            });
            let mut outcome = check_write(response, t, t.seed_docs, expect);
            if let (Some(mirror), Ok(())) = (mirror, &outcome) {
                outcome = trace::within(http, || {
                    let write = Write::Add(removed.clone());
                    traced_write(service, t, removed, mirror, write, expect)
                });
            }
            book.record(Kind::Insert, (t.name, "insert"), ms, outcome);

            // 4. Explain again: the seed report, byte for byte.
            let (ms, response, http) = timed(&mut op, "server.http.report", || {
                client.request("GET", &path, None)
            });
            let mut outcome = check_report(response, t, None, expect);
            if let (Some(mirror), Ok(served)) = (mirror, &outcome) {
                outcome = trace::within(http, || traced_report(service, t, mirror, served, expect))
                    .map(|()| String::new());
            }
            book.record(Kind::Primary, (t.name, "restored"), ms, outcome.map(drop));
        }
        cycle += 1;
        expect.cycle += 1;
    }
    book
}

fn check_write(
    response: Result<Response, String>,
    t: &Target,
    num_docs: usize,
    expect: &mut Expect,
) -> Result<(), String> {
    let response = response?;
    if response.status != 200 {
        return Err(format!(
            "{}: write status {}: {}",
            t.name, response.status, response.body
        ));
    }
    let stamp = write_stamp(&response.body)
        .ok_or_else(|| format!("{}: write response without corpus", t.name))?;
    let last = expect.version[t.name];
    if stamp.version <= last || stamp.num_docs != num_docs {
        return Err(format!(
            "{}: write answered version {} with {} docs after version {last}, want {num_docs} docs",
            t.name, stamp.version, stamp.num_docs
        ));
    }
    expect.version.insert(t.name, stamp.version);
    Ok(())
}

/// Check a served report, made without `removed` if given; returns it
/// without the service's corpus stamp.
fn check_report(
    response: Result<Response, String>,
    t: &Target,
    removed: Option<&Document>,
    expect: &mut Expect,
) -> Result<String, String> {
    let response = response?;
    if response.status != 200 {
        return Err(format!(
            "{}: report status {}: {}",
            t.name, response.status, response.body
        ));
    }
    let (report, stamp) = strip_corpus(&response.body)
        .ok_or_else(|| format!("{}: report without corpus provenance", t.name))?;
    let num_docs = t.seed_docs - usize::from(removed.is_some());
    if stamp.version != expect.version[t.name] || stamp.num_docs != num_docs {
        return Err(format!(
            "{}: report stamped version {} with {} docs, want version {} with {num_docs}",
            t.name, stamp.version, stamp.num_docs, expect.version[t.name]
        ));
    }
    let Some(removed) = removed else {
        if format!("{report}\n") != t.golden_json {
            return Err(format!(
                "{}: restored report differs from the golden",
                t.name
            ));
        }
        return Ok(report);
    };
    let key = (t.name, removed.id.clone());
    if let Some(first) = expect.removed_report.get(&key) {
        if *first != report {
            return Err(format!(
                "{}: report without {} changed across cycles",
                t.name, removed.id
            ));
        }
    } else {
        if golden_context_ids(&report).contains(&removed.id) {
            return Err(format!(
                "{}: removed source {} still cited",
                t.name, removed.id
            ));
        }
        expect.removed_report.insert(key, report.clone());
    }
    Ok(report)
}

/// The same write made directly on the service, and mirrored into the
/// replay. The service first gets the inverse write (untimed), so the timed
/// call meets the state the HTTP write met.
fn traced_write(
    service: &Service,
    t: &Target,
    removed: &Document,
    mirror: &Mirror,
    write: Write,
    expect: &mut Expect,
) -> Result<(), String> {
    let fail = |err: rage_report::ServiceError| format!("{}: direct write: {err}", t.name);
    let (provenance, span) = match &write {
        Write::Remove(id) => {
            service
                .add_document(t.name, removed.clone())
                .map_err(fail)?;
            trace::span("report.write", || service.remove_document(t.name, id))
        }
        Write::Add(doc) | Write::Upsert(doc) => {
            service.remove_document(t.name, &doc.id).map_err(fail)?;
            trace::span("report.write", || service.add_document(t.name, doc.clone()))
        }
    };
    expect
        .version
        .insert(t.name, provenance.map_err(fail)?.version);
    trace::within(span, || mirror.apply(&write))
        .map_err(|err| format!("{}: mirror write: {err}", t.name))
}

/// The same report made directly on the service (after an identical
/// re-write of a live document, so it misses too), then replayed section by
/// section through the library; both must equal the served bytes.
fn traced_report(
    service: &Service,
    t: &Target,
    mirror: &Mirror,
    served: &str,
    expect: &mut Expect,
) -> Result<(), String> {
    let touched = service
        .update_document(t.name, t.touch(expect.cycle).clone())
        .map_err(|err| format!("{}: touch: {err}", t.name))?;
    expect.version.insert(t.name, touched.version);
    let (direct, svc) = trace::span("report.service.report", || {
        service.render_report(t.name, ReportFormat::Json, None)
    });
    let direct = direct.map_err(|err| format!("{}: direct report: {err}", t.name))?;
    match strip_corpus(&direct) {
        Some((report, stamp)) if report == served && stamp.version == touched.version => {}
        _ => {
            return Err(format!(
                "{}: direct Service report differs from the served one",
                t.name
            ))
        }
    }
    let config = service.config().clone();
    let replayed = trace::within(svc, || {
        trace::span("gap.replay", || {
            mirror.clear_prefix_cache();
            let report = mirror.report(&config)?;
            Ok::<_, rage_core::RageError>(
                trace::span("report.render.json", || to_json(&report).render()).0,
            )
        })
        .0
    })
    .map_err(|err| format!("{}: replay: {err}", t.name))?;
    if replayed != served {
        return Err(format!(
            "{}: library replay drifted from the served report",
            t.name
        ));
    }
    Ok(())
}
