//! The service workload: an in-process `Service` (2 pool threads, cache
//! 1024) over TCP, driven closed-loop by 2 client connections that each
//! wait for a reply before sending the next request.
//!
//! Half the requests come from four hot scenarios, primed during set-up,
//! so they are cache hits. The other half are fresh misses drawn from
//! `table`/`protect`/`nash`/`simulate`, with parameters (and, for
//! `simulate`, a seed) from `child_seed(seed, pass)`. One pass is 50
//! requests per client; one operation is one request.
//!
//! The traced run adds a TCP pass whose client-side stages become spans,
//! then replays pass 0's requests through the public request, cache and
//! ops functions and through `serve_stream` on in-memory buffers, which
//! splits a request's latency into parse, key, lookup, compute, render
//! and transport.

use crate::metrics::{self, MetricSet};
use crate::spans::{nanos, Spans};
use crate::workload::{median_setup, secs, timed_passes, Measured, Scale, Settings, Tally};
use greednet_runtime::{child_seed, ScopedTimer};
use greednet_serve::{CacheStats, Request, RequestKind, ResultCache, ServeOptions, Service};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Client connections (the benchmark host has two cores).
pub const CLIENTS: usize = 2;
/// Service pool threads.
pub const SERVICE_THREADS: usize = 2;
/// Service cache capacity, in entries.
pub const CACHE: usize = 1024;
/// Set-up repetitions (one set-up starts a service, connects the clients
/// and primes the hot set).
const SETUP_REPS: usize = 3;
/// Horizon of the `simulate` misses.
const SIM_HORIZON: f64 = 20_000.0;

/// The hot set: request bodies (without an id) every pass keeps asking.
pub const HOT: [&str; 4] = [
    r#""kind":"table","rates":[0.05,0.1,0.2]"#,
    r#""kind":"protect","n":4,"victim":0.1,"discipline":"fs""#,
    r#""kind":"protect","n":6,"victim":0.05,"discipline":"fifo""#,
    r#""kind":"table","rates":[0.1,0.2,0.3,0.4]"#,
];

/// One request of a pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// Request id, unique within a run.
    pub id: String,
    /// The JSON fields after the id.
    pub body: String,
}

impl Line {
    /// The JSONL request.
    #[must_use]
    pub fn text(&self) -> String {
        format!("{{\"id\":\"{}\",{}}}", self.id, self.body)
    }
}

fn per_client(scale: Scale) -> usize {
    match scale {
        Scale::Full => 50,
        Scale::Tiny => 3,
    }
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The requests of pass `pass`, one list per client. Whether a request is
/// hot, and every cold request's parameters, come from
/// `child_seed(seed, pass)`; the hot bodies never depend on the seed.
#[must_use]
pub fn pass_lines(seed: u64, pass: u64, per_client: usize) -> Vec<Vec<Line>> {
    let pass_seed = child_seed(seed, pass);
    (0..CLIENTS)
        .map(|c| {
            (0..per_client)
                .map(|r| {
                    let z = child_seed(pass_seed, (c * per_client + r) as u64);
                    let id = format!("p{pass}c{c}r{r}");
                    let body = if unit(child_seed(z, 0)) < 0.5 {
                        HOT[(z % HOT.len() as u64) as usize].to_string()
                    } else {
                        cold_body(z)
                    };
                    Line { id, body }
                })
                .collect()
        })
        .collect()
}

/// A fresh scenario from draw `z`: never repeated, so always a miss.
fn cold_body(z: u64) -> String {
    let u = |k: u64| unit(child_seed(z, k));
    let pick = |k: u64, n: u64| (child_seed(z, k) % n) as usize;
    let list = |count: usize, lo: f64, span: f64, sep: &str, fmt: &dyn Fn(f64) -> String| {
        (0..count)
            .map(|i| fmt(lo + span * u(10 + i as u64)))
            .collect::<Vec<_>>()
            .join(sep)
    };
    let plain = |x: f64| format!("{x}");
    match pick(1, 4) {
        0 => format!(
            r#""kind":"table","rates":[{}]"#,
            list(2 + pick(2, 3), 0.01, 0.29, ",", &plain)
        ),
        1 => format!(
            r#""kind":"protect","n":{},"victim":{},"discipline":"{}""#,
            2 + pick(2, 7),
            0.01 + 0.09 * u(3),
            ["fs", "fifo", "sp"][pick(4, 3)]
        ),
        2 => format!(
            r#""kind":"nash","discipline":"fs","users":"{}""#,
            list(2 + pick(2, 2), 0.2, 0.8, ";", &|w| format!("log:{w},1.0"))
        ),
        _ => format!(
            r#""kind":"simulate","rates":[{}],"discipline":"{}","horizon":{SIM_HORIZON},"seed":{}"#,
            list(2 + pick(2, 2), 0.05, 0.2, ",", &plain),
            ["fifo", "lifo", "ps", "sp", "fs", "sfq"][pick(4, 6)],
            z >> 11
        ),
    }
}

/// The service's answer to one request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Canonical cache key (hex) from the `accepted` record.
    pub key: String,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// The result's `data` bytes, verbatim.
    pub payload: String,
    /// The error record, if the request failed.
    pub error: Option<String>,
}

/// Reads records for request `id` until its result or error arrives.
/// Returns the reply and the number of records and bytes read. Records
/// are matched on the wire format (`type` first, then `id`), as any
/// client would.
fn read_reply<R: BufRead>(reader: &mut R, id: &str) -> Result<(Reply, usize, usize), String> {
    let ours = format!("\"id\":\"{id}\"");
    let mut key = String::new();
    let (mut records, mut bytes) = (0, 0);
    loop {
        let mut record = String::new();
        let n = reader
            .read_line(&mut record)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err(format!("connection closed before the reply to {id}"));
        }
        records += 1;
        bytes += n;
        let record = record.trim_end();
        if !record.contains(&ours) {
            continue;
        }
        if record.starts_with("{\"type\":\"accepted\"") {
            key = field(record, "\"key\":\"")
                .and_then(|rest| rest.split('"').next())
                .unwrap_or_default()
                .to_string();
        } else if record.starts_with("{\"type\":\"result\"") {
            let (head, data) = record
                .split_once("\"data\":")
                .ok_or_else(|| format!("result without data: {record}"))?;
            let payload = data
                .strip_suffix('}')
                .ok_or_else(|| format!("unterminated result: {record}"))?;
            let reply = Reply {
                key,
                cached: head.contains("\"cached\":true"),
                payload: payload.to_string(),
                error: None,
            };
            return Ok((reply, records, bytes));
        } else if record.starts_with("{\"type\":\"error\"") {
            let reply = Reply {
                key,
                cached: false,
                payload: String::new(),
                error: Some(record.to_string()),
            };
            return Ok((reply, records, bytes));
        }
    }
}

/// The text after the first `prefix` in `record`.
fn field<'a>(record: &'a str, prefix: &str) -> Option<&'a str> {
    record.find(prefix).map(|at| &record[at + prefix.len()..])
}

/// One closed-loop client connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client { reader, writer })
    }

    fn call(&mut self, line: &Line) -> Result<Reply, String> {
        self.writer
            .write_all(format!("{}\n", line.text()).as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        read_reply(&mut self.reader, &line.id).map(|(reply, _, _)| reply)
    }
}

/// A service listening on an ephemeral local port, with its clients.
struct Harness {
    service: Arc<Service>,
    addr: SocketAddr,
    thread: JoinHandle<Result<(), String>>,
    clients: Vec<Client>,
    /// Payload per cache key, from the primed hot set and every miss.
    known: BTreeMap<String, String>,
}

impl Harness {
    /// Starts the service, connects the clients and primes the hot set.
    fn start() -> Result<Harness, String> {
        let service = Arc::new(Service::new(ServeOptions {
            threads: SERVICE_THREADS,
            cache_capacity: CACHE,
        }));
        let (tx, rx) = std::sync::mpsc::channel();
        let server = Arc::clone(&service);
        let thread = std::thread::spawn(move || {
            server
                .serve_tcp("127.0.0.1:0", move |addr| {
                    if tx.send(addr).is_err() {
                        eprintln!("serve: nobody is waiting for the bound address");
                    }
                })
                .map_err(|e| e.to_string())
        });
        let Ok(addr) = rx.recv() else {
            return Err(match thread.join() {
                Ok(Err(e)) => format!("service failed to start: {e}"),
                _ => "service failed to start".to_string(),
            });
        };
        let mut harness = Harness {
            service,
            addr,
            thread,
            clients: Vec::new(),
            known: BTreeMap::new(),
        };
        match harness.connect_and_prime() {
            Ok(()) => Ok(harness),
            Err(e) => Err(match harness.stop() {
                Ok(()) => e,
                Err(stop) => format!("{e}; then {stop}"),
            }),
        }
    }

    fn connect_and_prime(&mut self) -> Result<(), String> {
        for _ in 0..CLIENTS {
            self.clients.push(Client::connect(self.addr)?);
        }
        for (k, body) in HOT.iter().enumerate() {
            let line = Line {
                id: format!("prime{k}"),
                body: (*body).to_string(),
            };
            let reply = self.clients[0].call(&line)?;
            if let Some(e) = reply.error {
                return Err(format!("priming {body} failed: {e}"));
            }
            self.known.insert(reply.key, reply.payload);
        }
        Ok(())
    }

    /// Closes the clients, shuts the service down and joins its thread.
    fn stop(self) -> Result<(), String> {
        drop(self.clients);
        let mut stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .write_all(b"{\"kind\":\"shutdown\"}\n")
            .map_err(|e| format!("shutdown: {e}"))?;
        let mut rest = String::new();
        stream
            .read_to_string(&mut rest)
            .map_err(|e| format!("shutdown: {e}"))?;
        self.thread
            .join()
            .map_err(|_| "service thread panicked".to_string())?
    }

    /// Runs one pass: each client sends its lines closed-loop on its own
    /// thread. Returns per-request `(line, reply, start_ns, end_ns)` on
    /// `clock`, clients in order.
    fn pass(
        &mut self,
        lines: &[Vec<Line>],
        clock: &ScopedTimer,
    ) -> Result<Vec<(Line, Reply, u64, u64)>, String> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(lines)
                .map(|(client, lines)| {
                    scope.spawn(move || {
                        lines
                            .iter()
                            .map(|line| {
                                let start = nanos(clock);
                                let reply = client.call(line)?;
                                Ok((line.clone(), reply, start, nanos(clock)))
                            })
                            .collect::<Result<Vec<_>, String>>()
                    })
                })
                .collect();
            let mut all = Vec::new();
            for handle in handles {
                all.extend(
                    handle
                        .join()
                        .map_err(|_| "client thread panicked".to_string())??,
                );
            }
            Ok(all)
        })
    }

    /// Checks a pass's replies: no errors, every hit byte-identical to the
    /// miss that filled it, and the service counted one cache lookup per
    /// request.
    fn check_pass(
        &mut self,
        replies: &[(Line, Reply, u64, u64)],
        before: CacheStats,
        tally: &mut Tally,
    ) {
        for (line, reply, start, end) in replies {
            let ms = end.saturating_sub(*start) as f64 / 1e6;
            let check = if let Some(e) = &reply.error {
                Err(format!("{}: error record {e}", line.id))
            } else if reply.cached {
                match self.known.get(&reply.key) {
                    Some(p) if *p == reply.payload => Ok(()),
                    _ => Err(format!("{}: hit differs from its miss", line.id)),
                }
            } else {
                match self.known.insert(reply.key.clone(), reply.payload.clone()) {
                    Some(p) if p != reply.payload => {
                        Err(format!("{}: recomputed payload differs", line.id))
                    }
                    _ => Ok(()),
                }
            };
            tally.op(ms, check);
        }
        let after = self.service.stats();
        let lookups = (after.hits + after.misses) - (before.hits + before.misses);
        tally.fail_on(if lookups == replies.len() as u64 {
            Ok(())
        } else {
            Err(format!(
                "{lookups} cache lookups for {} requests",
                replies.len()
            ))
        });
    }
}

/// Stage times of the requests replayed through the public functions.
#[derive(Debug, Default)]
struct Replay {
    parse: Vec<f64>,
    key: Vec<f64>,
    lookup: Vec<f64>,
    compute: BTreeMap<&'static str, Vec<f64>>,
    render: Vec<f64>,
    stream_hit: Vec<f64>,
    stream_miss: Vec<f64>,
    records: usize,
    bytes: usize,
}

/// Computes and renders one cacheable request as the service would.
/// Returns the kind, the payload, and the compute and render seconds.
fn compute(kind: &RequestKind) -> Result<(&'static str, String, f64, f64), String> {
    fn timed<T, E: std::fmt::Display>(
        f: impl FnOnce() -> Result<T, E>,
    ) -> Result<(T, f64), String> {
        let timer = ScopedTimer::start("compute");
        let out = f().map_err(|e| e.to_string())?;
        Ok((out, secs(&timer)))
    }
    let (name, json, compute_s) = match kind {
        RequestKind::Table(s) => {
            let (o, t) = timed(|| Ok::<_, String>(s.outcome()))?;
            ("table", o.to_json(), t)
        }
        RequestKind::Protect(s) => {
            let (o, t) = timed(|| s.outcome())?;
            ("protect", o.to_json(), t)
        }
        RequestKind::Nash(s) => {
            let (o, t) = timed(|| s.solve())?;
            ("nash", o.to_json(), t)
        }
        RequestKind::Simulate(s) => {
            let (o, t) = timed(|| s.outcome())?;
            ("simulate", o.to_json(), t)
        }
        _ => return Err("the workload only sends table/protect/nash/simulate".into()),
    };
    let timer = ScopedTimer::start("render");
    let payload = json.to_compact();
    Ok((name, payload, compute_s, secs(&timer)))
}

/// Replays `lines` through parse → key → lookup → compute → render, and
/// through `serve_stream` on in-memory buffers, each against a fresh
/// cache primed with the hot set. Compares every payload with the one
/// the TCP pass returned.
fn replay(
    lines: &[(Line, Reply, u64, u64)],
    known: &BTreeMap<String, String>,
    tally: &mut Tally,
    spans: &mut Spans,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let mut cache = ResultCache::new(CACHE);
    let stream_service = Service::new(ServeOptions {
        threads: SERVICE_THREADS,
        cache_capacity: CACHE,
    });
    for (k, body) in HOT.iter().enumerate() {
        let text = format!("{{\"id\":\"prime{k}\",{body}}}\n");
        let req = Request::parse_line(text.trim_end()).map_err(|e| e.to_string())?;
        let key = req.kind.cache_key().ok_or("hot request has no key")?;
        let (_, payload, _, _) = compute(&req.kind)?;
        cache.insert(key, payload);
        stream_service
            .serve_stream(text.as_bytes(), Vec::new())
            .map_err(|e| e.to_string())?;
    }
    for (line, reply, _, _) in lines {
        let text = line.text();
        let id = Some(line.id.as_str());
        let t0 = spans.now_ns();
        let req = Request::parse_line(&text).map_err(|e| e.to_string())?;
        let t1 = spans.now_ns();
        let key = req.kind.cache_key().ok_or("request has no key")?;
        let t2 = spans.now_ns();
        let hit = cache.get(key);
        let t3 = spans.now_ns();
        let mut stages = Vec::new();
        let payload = match hit {
            Some(p) => p,
            None => {
                let (name, p, compute_s, render_s) = compute(&req.kind)?;
                let t4 = spans.now_ns();
                cache.insert(key, p.clone());
                out.compute.entry(name).or_default().push(compute_s);
                out.render.push(render_s);
                let computed = t3 + (compute_s * 1e9) as u64;
                stages.push((format!("serve.compute.{name}"), t3, computed));
                stages.push(("serve.render".to_string(), computed, t4));
                p
            }
        };
        tally.fail_on(same(line, reply, &payload, known));
        let s0 = spans.now_ns();
        let mut buf = Vec::new();
        stream_service
            .serve_stream(format!("{text}\n").as_bytes(), &mut buf)
            .map_err(|e| e.to_string())?;
        let s1 = spans.now_ns();
        let (streamed, records, bytes) = read_reply(&mut buf.as_slice(), &line.id)?;
        tally.fail_on(same(line, reply, &streamed.payload, known));
        out.records += records;
        out.bytes += bytes;
        let stream_s = (s1 - s0) as f64 / 1e9;
        if streamed.cached {
            out.stream_hit.push(stream_s);
        } else {
            out.stream_miss.push(stream_s);
        }
        out.parse.push((t1 - t0) as f64 / 1e9);
        out.key.push((t2 - t1) as f64 / 1e9);
        out.lookup.push((t3 - t2) as f64 / 1e9);

        let root = spans.record("serve.replay", 0, id, t0, s1);
        spans.record("serve.parse", root, id, t0, t1);
        spans.record("serve.key", root, id, t1, t2);
        spans.record("serve.lookup", root, id, t2, t3);
        for (name, start, end) in stages {
            spans.record(name, root, id, start, end);
        }
        spans.record("serve.stream", root, id, s0, s1);
    }
    Ok(out)
}

/// A replayed payload must equal what the TCP pass returned.
fn same(
    line: &Line,
    reply: &Reply,
    payload: &str,
    known: &BTreeMap<String, String>,
) -> Result<(), String> {
    let tcp = if reply.cached {
        known.get(&reply.key).map(String::as_str)
    } else {
        Some(reply.payload.as_str())
    };
    if tcp == Some(payload) {
        Ok(())
    } else {
        Err(format!(
            "{}: replayed payload differs from the TCP reply",
            line.id
        ))
    }
}

/// Measures the service workload.
pub(crate) fn measure(
    settings: &Settings,
    tally: &mut Tally,
    layers: &mut MetricSet,
    spans: &mut Spans,
) -> Result<Measured, String> {
    let per_client = per_client(settings.scale);
    let (mut harness, setup_s) = median_setup(SETUP_REPS, Harness::start, Harness::stop)?;
    let result = drive(&mut harness, per_client, settings, tally, layers, spans);
    let stopped = harness.stop();
    let measured = result?;
    stopped?;
    Ok(Measured {
        setup_s,
        ..measured
    })
}

fn drive(
    harness: &mut Harness,
    per_client: usize,
    settings: &Settings,
    tally: &mut Tally,
    layers: &mut MetricSet,
    spans: &mut Spans,
) -> Result<Measured, String> {
    let clock = spans.clock();
    let mut first = Vec::new();
    let (mut hit_ms, mut miss_ms) = (Vec::new(), Vec::new());
    let pass_s = timed_passes(settings.seconds, tally, |pass, tally| {
        let before = harness.service.stats();
        let replies = harness.pass(&pass_lines(settings.seed, pass, per_client), clock)?;
        harness.check_pass(&replies, before, tally);
        for (_, reply, start, end) in &replies {
            let ms = end.saturating_sub(*start) as f64 / 1e6;
            if reply.cached {
                hit_ms.push(ms);
            } else {
                miss_ms.push(ms);
            }
        }
        if pass == 0 {
            first = replies;
        }
        Ok(())
    })?;
    if !settings.trace {
        return Ok(Measured {
            setup_s: 0.0,
            pass_s,
            traced_s: 0.0,
        });
    }
    let stats = harness.service.stats();

    // Traced TCP pass: a fresh pass (its misses are new), with the
    // client-side stages of every request recorded as spans.
    let timer = ScopedTimer::start("traced");
    let traced = harness.pass(
        &pass_lines(settings.seed, pass_s.len() as u64, per_client),
        spans.clock(),
    )?;
    let traced_s = secs(&timer);
    harness.check_pass(&traced, stats, tally);
    for (line, _, start, end) in &traced {
        spans.record("serve.request", 0, Some(line.id.as_str()), *start, *end);
    }

    let r = replay(&first, &harness.known, tally, spans)?;
    let us = |v: &[f64]| metrics::mean(v) * 1e6;
    // Transport is what TCP adds to a hit, the one request shape whose
    // in-memory time is all the non-transport work: a miss computes while
    // its result record waits on the socket, so the two overlap.
    let tcp_hit_ms = metrics::mean(
        &first
            .iter()
            .filter(|(_, reply, _, _)| reply.cached)
            .map(|(_, _, s, e)| e.saturating_sub(*s) as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    let requests = first.len().max(1) as f64;
    layers.set("serve.request.parse_us", us(&r.parse));
    layers.set("serve.canon.key_us", us(&r.key));
    layers.set("serve.cache.lookup_us", us(&r.lookup));
    layers.set("serve.cache.hits", stats.hits as f64);
    layers.set("serve.cache.misses", stats.misses as f64);
    layers.set("serve.cache.evictions", stats.evictions as f64);
    layers.set("serve.cache.hit_rate", stats.hit_rate());
    for (kind, name) in [
        ("table", "serve.ops.compute_ms.table"),
        ("protect", "serve.ops.compute_ms.protect"),
        ("nash", "serve.ops.compute_ms.nash"),
        ("simulate", "serve.ops.compute_ms.simulate"),
    ] {
        let times = r.compute.get(kind).map_or(&[][..], Vec::as_slice);
        layers.set(name, metrics::mean(times) * 1e3);
    }
    layers.set("serve.ops.render_us", us(&r.render));
    layers.set("serve.service.stream_us.hit", us(&r.stream_hit));
    layers.set("serve.service.stream_us.miss", us(&r.stream_miss));
    layers.set(
        "serve.service.records_per_request",
        r.records as f64 / requests,
    );
    layers.set("serve.service.bytes_per_request", r.bytes as f64 / requests);
    layers.set(
        "serve.service.transport_ms",
        tcp_hit_ms - metrics::mean(&r.stream_hit) * 1e3,
    );
    layers.set("serve.client.hit_p50_ms", metrics::median(&hit_ms));
    layers.set("serve.client.miss_p50_ms", metrics::median(&miss_ms));
    Ok(Measured {
        setup_s: 0.0,
        pass_s,
        traced_s,
    })
}
