//! `lookup`: ROR-style batch affiliation matching — seeded `POST /ask`
//! entity-resolution queries (k = 10) against `entity_registry` over two
//! connections, closed loop, with every tenth operation of a client a
//! registry-maintenance write (upsert a new organisation record, delete it on
//! the next write), so the corpus stays near its seed size.

use std::sync::{Mutex, OnceLock, RwLock};
use std::time::Instant;

use rage_core::RagResponse;
use rage_datasets::entity_registry::{
    registry_corpus, resolution_queries, EntityRegistryConfig, ResolutionQuery,
};
use rage_json::JsonValue;
use rage_report::{Document, Service};

use crate::client::{Client, Response};
use crate::common::{
    doc_body, end_to_end, phase, run_clients, set_up, timed, write_stamp, Book, Class, Kind, Stand,
};
use crate::layers::{layer_metrics, mirrors, probe_provenance, Probes};
use crate::stats::Rng;
use crate::trace::{self, Ledger, Mirror, Write};
use crate::{Args, Outcome};

pub const SCENARIO: &str = "entity_registry";
const K: usize = 10;
const CLIENTS: usize = 2;
/// Every `WRITE_EVERY`th operation of a client is a write.
const WRITE_EVERY: usize = 10;
/// Latency window, in completed operations (about three seconds).
const WINDOW_OPS: usize = 100;
/// Size of the seeded query pool (one query per seed organisation).
const QUERY_POOL: usize = 4096;

/// In the untraced phase each client keeps asking until the run's time is
/// up and it made this many asks, so the tail percentile keeps its samples.
const MIN_ASKS: usize = 350;

/// `latency_ms_tail` percentile: the highest that keeps 10 of the at least
/// 700 asks beyond it.
pub const TAIL_PERCENTILE: f64 = 98.5;

/// New records the maintenance writes draw from: the registry generator's
/// records past the seed registry, so they are worded exactly like it.
const NEW_RECORDS: usize = 4096;

/// The registry generator's records `QUERY_POOL..QUERY_POOL + NEW_RECORDS`,
/// made once. The generator is sequential, so its first `QUERY_POOL`
/// records are the seed registry and the rest are new to it.
fn new_records() -> &'static [Document] {
    static RECORDS: OnceLock<Vec<Document>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let config = EntityRegistryConfig {
            num_orgs: QUERY_POOL + NEW_RECORDS,
            ..EntityRegistryConfig::default()
        };
        registry_corpus(config).documents()[QUERY_POOL..].to_vec()
    })
}

/// The maintenance writer: at most one extra record is live at a time.
pub struct Writer {
    rng: Rng,
    records: &'static [Document],
    live: Option<Document>,
    version: u64,
}

impl Writer {
    /// A writer whose records derive from `rng`, over a corpus at `version`.
    pub fn new(rng: Rng, version: u64) -> Self {
        Writer {
            rng,
            records: new_records(),
            live: None,
            version,
        }
    }

    /// A write as an HTTP request: method, path and body.
    pub fn request(write: &Write) -> (&'static str, String, Option<String>) {
        match write {
            Write::Remove(id) => (
                "DELETE",
                format!("/corpus/docs/{id}?scenario={SCENARIO}"),
                None,
            ),
            Write::Upsert(doc) | Write::Add(doc) => (
                "POST",
                "/corpus/docs".to_string(),
                Some(doc_body(SCENARIO, doc, "upsert")),
            ),
        }
    }

    /// The next write: delete the live extra record, or upsert a new one;
    /// with the record it concerns.
    pub fn next(&mut self) -> (Write, Document) {
        match self.live.take() {
            Some(doc) => (Write::Remove(doc.id.clone()), doc),
            None => {
                let doc = self.records[self.rng.below(self.records.len())].clone();
                self.live = Some(doc.clone());
                (Write::Upsert(doc.clone()), doc)
            }
        }
    }
}

fn ask_body(query: &str) -> String {
    JsonValue::Object(vec![
        ("scenario".into(), JsonValue::String(SCENARIO.to_string())),
        ("query".into(), JsonValue::String(query.to_string())),
        ("k".into(), JsonValue::Number(K as f64)),
    ])
    .render()
}

/// The `/ask` response document the server renders for `response`.
fn ask_json(query: &str, response: &RagResponse) -> String {
    let sources = response
        .context
        .sources
        .iter()
        .map(|source| {
            JsonValue::Object(vec![
                ("doc_id".into(), JsonValue::String(source.doc_id.clone())),
                ("rank".into(), JsonValue::Number(source.rank as f64)),
                (
                    "retrieval_score".into(),
                    JsonValue::Number(source.retrieval_score),
                ),
            ])
        })
        .collect();
    JsonValue::Object(vec![
        ("scenario".into(), JsonValue::String(SCENARIO.to_string())),
        ("query".into(), JsonValue::String(query.to_string())),
        (
            "answer".into(),
            JsonValue::String(response.answer().to_string()),
        ),
        ("k".into(), JsonValue::Number(response.k() as f64)),
        ("sources".into(), JsonValue::Array(sources)),
    ])
    .render()
}

fn setup() -> Result<Stand, String> {
    let stand = Stand::start()?;
    // Build the registry runtime (scenario build + index build).
    let warm = &resolution_queries(EntityRegistryConfig::default(), 1)[0];
    stand
        .service
        .ask(SCENARIO, &warm.query, Some(K))
        .map_err(|err| format!("warm-up ask: {err}"))?;
    Ok(stand)
}

pub fn run(args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let (stand, setup_times, calibration_before_ms) = set_up(process_start, setup)?;
    let pool = resolution_queries(EntityRegistryConfig::default(), QUERY_POOL);
    let version = stand
        .service
        .corpus_provenance(SCENARIO)
        .map_err(|err| err.to_string())?
        .version;
    let writer = Mutex::new(Writer::new(Rng::new(args.seed, 10), version));
    let ledger = Mutex::new(Ledger::default());
    // In the traced run an ask and its direct and replayed repeats must see
    // one corpus state: asks share this gate, writes take it exclusively.
    let gate = RwLock::new(());
    let run_phase = |mirror: Option<&Mirror>, stream: u64| {
        let clients = Clients {
            stand: &stand,
            pool: &pool,
            writer: &writer,
            gate: &gate,
            mirror,
            seconds: args.seconds,
        };
        phase(&stand, &[SCENARIO], || {
            let mut book = run_clients(CLIENTS, mirror.is_some(), &ledger, |id| {
                clients.run(Rng::new(args.seed, stream + id as u64), id)
            });
            // Leave the seed corpus behind for the next phase.
            let mut writer = writer.lock().expect("writer lock");
            if let Some(doc) = writer.live.take() {
                match stand.service.remove_document(SCENARIO, &doc.id) {
                    Ok(provenance) => writer.version = provenance.version,
                    Err(err) => book.fail(format!("cleanup: {err}")),
                }
                if let Some(mirror) = mirror {
                    if let Err(err) = mirror.apply(&Write::Remove(doc.id)) {
                        book.fail(format!("mirror cleanup: {err}"));
                    }
                }
            }
            book
        })
    };

    let untraced = run_phase(None, 100);
    let (metrics, note) = end_to_end(
        &untraced,
        &untraced.book,
        &setup_times,
        TAIL_PERCENTILE,
        WINDOW_OPS,
        false,
    );
    let mut notes = vec![note];
    let mut book = Book::default();
    let mut layers = None;
    if args.trace {
        let mut probes = Probes::default();
        let mirror = mirrors(&[SCENARIO], &mut probes).pop().expect("one mirror");
        let traced = run_phase(Some(&mirror), 200);
        probe_provenance(&stand.service, &mut probes);
        notes.push(format!(
            "traced ask samples {}",
            traced.book.primary_ms().len()
        ));
        let ledger = ledger.lock().expect("ledger lock");
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

/// What the closed-loop clients of a phase share.
struct Clients<'a> {
    stand: &'a Stand,
    pool: &'a [ResolutionQuery],
    writer: &'a Mutex<Writer>,
    gate: &'a RwLock<()>,
    mirror: Option<&'a Mirror>,
    seconds: f64,
}

impl Clients<'_> {
    /// One client's closed loop.
    fn run(&self, mut rng: Rng, id: usize) -> Book {
        let Clients {
            stand,
            pool,
            writer,
            gate,
            mirror,
            seconds,
        } = *self;
        let mut client = Client::new(stand.server.addr());
        let service = &stand.service;
        let mut book = Book::default();
        let mut op = (id as u64) << 32;
        let start = Instant::now();
        let (mut n, mut asks) = (0usize, 0usize);
        let min_asks = if mirror.is_some() { 0 } else { MIN_ASKS };
        while asks < min_asks || start.elapsed().as_secs_f64() < seconds {
            n += 1;
            if n.is_multiple_of(WRITE_EVERY) {
                // Writes are serialised, so an upsert and the delete of its
                // record never race.
                let mut writer = writer.lock().expect("writer lock");
                let _exclusive = mirror.map(|_| gate.write().expect("gate lock"));
                let (write, record) = writer.next();
                let (method, path, body) = Writer::request(&write);
                let (ms, response, http) = timed(&mut op, "server.http.write", || {
                    client.request(method, &path, body.as_deref())
                });
                let mut outcome = check_write(response, &mut writer);
                if let (Some(mirror), Ok(())) = (mirror, &outcome) {
                    outcome = trace::within(http, || {
                        traced_write(service, mirror, &write, record, &mut writer)
                    });
                }
                book.record(Kind::of(&write), write_class(&write), ms, outcome);
            } else {
                asks += 1;
                let _shared = mirror.map(|_| gate.read().expect("gate lock"));
                let lookup = &pool[rng.below(pool.len())];
                let body = ask_body(&lookup.query);
                let (ms, response, http) = timed(&mut op, "server.http.ask", || {
                    client.request("POST", "/ask", Some(&body))
                });
                let mut outcome = check_ask(response, lookup);
                if let (Some(mirror), Ok(served)) = (mirror, &outcome) {
                    outcome = trace::within(http, || traced_ask(service, mirror, lookup, served))
                        .map(|()| String::new());
                }
                book.record(Kind::Primary, (SCENARIO, "ask"), ms, outcome.map(drop));
            }
        }
        book
    }
}

/// The sample class of a registry-maintenance write.
pub fn write_class(write: &Write) -> Class {
    match Kind::of(write) {
        Kind::Delete => (SCENARIO, "delete"),
        _ => (SCENARIO, "insert"),
    }
}

pub fn check_write(response: Result<Response, String>, writer: &mut Writer) -> Result<(), String> {
    let response = response?;
    if response.status != 200 {
        return Err(format!(
            "write status {}: {}",
            response.status, response.body
        ));
    }
    let stamp = write_stamp(&response.body).ok_or("write response without corpus")?;
    if stamp.version <= writer.version {
        return Err(format!(
            "write answered version {} after version {}",
            stamp.version, writer.version
        ));
    }
    writer.version = stamp.version;
    Ok(())
}

/// Check an answer resolves to its record; returns the served body.
fn check_ask(
    response: Result<Response, String>,
    lookup: &ResolutionQuery,
) -> Result<String, String> {
    let response = response?;
    if response.status != 200 {
        return Err(format!("ask status {}: {}", response.status, response.body));
    }
    let doc = JsonValue::parse(&response.body).map_err(|err| format!("ask body: {err}"))?;
    let cited = doc
        .get("sources")
        .and_then(JsonValue::as_array)
        .is_some_and(|sources| {
            sources.iter().any(|source| {
                source.get("doc_id").and_then(JsonValue::as_str) == Some(&lookup.expected_doc_id)
            })
        });
    if !cited {
        return Err(format!(
            "ask {:?} did not retrieve {}",
            lookup.query, lookup.expected_doc_id
        ));
    }
    Ok(response.body)
}

/// The same write made directly on the service after its untimed inverse,
/// and mirrored into the replay.
fn traced_write(
    service: &Service,
    mirror: &Mirror,
    write: &Write,
    record: Document,
    writer: &mut Writer,
) -> Result<(), String> {
    let fail = |err: rage_report::ServiceError| format!("direct write: {err}");
    let (provenance, span) = match write {
        Write::Remove(id) => {
            service.upsert_document(SCENARIO, record).map_err(fail)?;
            trace::span("report.write", || service.remove_document(SCENARIO, id))
        }
        Write::Upsert(doc) | Write::Add(doc) => {
            service.remove_document(SCENARIO, &doc.id).map_err(fail)?;
            trace::span("report.write", || {
                service.upsert_document(SCENARIO, doc.clone())
            })
        }
    };
    writer.version = provenance.map_err(fail)?.version;
    trace::within(span, || mirror.apply(write)).map_err(|err| format!("mirror write: {err}"))
}

/// The same ask made directly on the service, then replayed through the
/// library; both must equal the served answer.
fn traced_ask(
    service: &Service,
    mirror: &Mirror,
    lookup: &ResolutionQuery,
    served: &str,
) -> Result<(), String> {
    let (direct, svc) = trace::span("report.service.ask", || {
        service.ask(SCENARIO, &lookup.query, Some(K))
    });
    let direct = direct.map_err(|err| format!("direct ask: {err}"))?;
    let replayed = trace::within(svc, || {
        trace::span("gap.replay", || mirror.ask(&lookup.query, K)).0
    })
    .map_err(|err| format!("replay ask: {err}"))?;
    if direct != replayed {
        return Err(format!(
            "replayed ask {:?} differs from Service::ask",
            lookup.query
        ));
    }
    if ask_json(&lookup.query, &replayed) != served {
        return Err(format!(
            "replayed ask {:?} differs from the served bytes",
            lookup.query
        ));
    }
    Ok(())
}
