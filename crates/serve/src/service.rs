//! The service loop: requests in, records out, over stdio or TCP.
//!
//! One [`Service`] owns the result cache and is shared by every
//! connection. Single requests execute on the caller's thread; `batch`
//! requests fan their cache misses onto the deterministic scoped pool
//! (`parallel_map_indexed`), which merges results in task order — so
//! response bytes are independent of the pool width and of how clients
//! interleave, and any repeated scenario is answered from the cache with
//! the exact bytes of the first computation.
//!
//! Transport is line-delimited JSON over either stdin/stdout or a
//! hand-rolled TCP loop (one thread per connection, no external crates):
//! requests are newline-terminated JSON objects, responses are
//! newline-terminated records, flushed after every record so clients can
//! stream.

use crate::cache::{CacheStats, ResultCache};
use crate::error::ServeError;
use crate::request::{
    accepted_record, error_record, progress_record, result_record, stats_record, Request,
    RequestKind,
};
use greednet_runtime::parallel_map_indexed;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

/// Service configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker threads for `batch` fan-out (response bytes are identical
    /// at any width; this only changes wall-clock time).
    pub threads: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 1,
            cache_capacity: 1024,
        }
    }
}

/// The shared scenario service.
pub struct Service {
    threads: usize,
    cache: Mutex<ResultCache>,
    shutdown: AtomicBool,
}

impl Service {
    /// Builds a service with the given options.
    #[must_use]
    pub fn new(opts: ServeOptions) -> Service {
        Service {
            threads: opts.threads.max(1),
            cache: Mutex::new(ResultCache::new(opts.cache_capacity)),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Current cache counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        self.lock_cache().stats()
    }

    /// Whether a `shutdown` request has been handled.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, ResultCache> {
        // A poisoned lock means another connection thread panicked
        // mid-operation; the cache's state is still a consistent map
        // (both indexes are updated before any compute), so recover it.
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Executes one cacheable request kind, going through the cache.
    /// Returns the payload bytes and whether they came from the cache.
    ///
    /// # Errors
    /// [`ServeError::BadRequest`] from the underlying computation, or for
    /// kinds that have no payload (`batch`/`stats`/`shutdown`).
    pub fn execute(&self, kind: &RequestKind) -> Result<(String, bool), ServeError> {
        let Some(key) = kind.cache_key() else {
            return Err(ServeError::BadRequest(
                "this request kind has no single result payload".into(),
            ));
        };
        if let Some(payload) = self.lock_cache().get(key) {
            return Ok((payload, true));
        }
        let payload = compute_payload(kind)?;
        self.lock_cache().insert(key, payload.clone());
        Ok((payload, false))
    }

    /// Serves one request stream: reads JSONL requests from `reader`,
    /// writes JSONL records to `writer`, flushing after each record.
    /// Returns `true` if the stream ended because of a `shutdown`
    /// request (the flag is also set on the service).
    ///
    /// # Errors
    /// [`ServeError::Io`] when the transport fails. Request-level
    /// failures are answered with `error` records and never propagate.
    pub fn serve_stream<R: BufRead, W: Write>(
        &self,
        reader: R,
        mut writer: W,
    ) -> Result<bool, ServeError> {
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let req = match Request::parse_line(&line) {
                Ok(req) => req,
                Err(e) => {
                    emit(&mut writer, &error_record(None, &e))?;
                    continue;
                }
            };
            let id = req.id.as_deref();
            // Latch the flag before any write: a client may send
            // `shutdown` and close immediately, making every subsequent
            // emit fail — the shutdown must still be observed.
            if matches!(req.kind, RequestKind::Shutdown) {
                self.shutdown.store(true, Ordering::SeqCst);
            }
            emit(&mut writer, &accepted_record(id, req.kind.cache_key()))?;
            match &req.kind {
                RequestKind::Stats => {
                    emit(&mut writer, &stats_record(id, &self.stats()))?;
                }
                RequestKind::Shutdown => {
                    emit(
                        &mut writer,
                        &result_record(id, false, r#"{"stopping":true}"#),
                    )?;
                    return Ok(true);
                }
                RequestKind::Batch(subs) => {
                    self.serve_batch(&mut writer, id, subs)?;
                }
                _ => {
                    if self.peek_cached(&req.kind) {
                        // Answered from cache: no compute stage.
                    } else {
                        emit(&mut writer, &progress_record(id, "compute"))?;
                    }
                    match self.execute(&req.kind) {
                        Ok((payload, cached)) => {
                            emit(&mut writer, &result_record(id, cached, &payload))?;
                        }
                        Err(e) => emit(&mut writer, &error_record(id, &e))?,
                    }
                }
            }
        }
        Ok(false)
    }

    /// Whether the request is already cached (without counting a lookup).
    fn peek_cached(&self, kind: &RequestKind) -> bool {
        kind.cache_key()
            .is_some_and(|key| self.lock_cache().contains(key))
    }

    /// Runs a batch: probes the cache for every sub-request, computes the
    /// distinct misses on the deterministic pool, and emits one
    /// result/error record per sub-request in submission order.
    fn serve_batch<W: Write>(
        &self,
        writer: &mut W,
        batch_id: Option<&str>,
        subs: &[Request],
    ) -> Result<(), ServeError> {
        // Probe phase: collect hits and deduplicate misses by key.
        let mut probed: Vec<Result<(u128, Option<String>), ServeError>> =
            Vec::with_capacity(subs.len());
        let mut miss_keys: BTreeMap<u128, usize> = BTreeMap::new();
        let mut tasks: Vec<&RequestKind> = Vec::new();
        {
            let mut cache = self.lock_cache();
            for sub in subs {
                match sub.kind.cache_key() {
                    Some(key) => {
                        let hit = cache.get(key);
                        if hit.is_none() && !miss_keys.contains_key(&key) {
                            miss_keys.insert(key, tasks.len());
                            tasks.push(&sub.kind);
                        }
                        probed.push(Ok((key, hit)));
                    }
                    None => probed.push(Err(ServeError::BadRequest(
                        "only nash/simulate/table/protect/exp/largen requests may appear in a batch"
                            .into(),
                    ))),
                }
            }
        }
        if !tasks.is_empty() {
            emit(
                writer,
                &progress_record(
                    batch_id,
                    &format!("compute {} of {}", tasks.len(), subs.len()),
                ),
            )?;
        }
        // Compute phase: distinct misses fan out on the deterministic
        // pool; results merge in task-index order.
        let computed =
            parallel_map_indexed(self.threads, tasks.len(), |i| compute_payload(tasks[i]));
        {
            let mut cache = self.lock_cache();
            for (key, &task) in miss_keys.iter().map(|(k, v)| (*k, v)) {
                if let Ok(payload) = &computed[task] {
                    cache.insert(key, payload.clone());
                }
            }
        }
        // Emit phase: one record per sub-request, in submission order.
        for (sub, probe) in subs.iter().zip(&probed) {
            let sub_id = sub.id.as_deref().or(batch_id);
            match probe {
                Err(e) => emit(writer, &error_record(sub_id, e))?,
                Ok((_, Some(payload))) => emit(writer, &result_record(sub_id, true, payload))?,
                Ok((key, None)) => match miss_keys.get(key).map(|&i| &computed[i]) {
                    Some(Ok(payload)) => {
                        emit(writer, &result_record(sub_id, false, payload))?;
                    }
                    Some(Err(e)) => emit(writer, &error_record(sub_id, e))?,
                    None => emit(
                        writer,
                        &error_record(
                            sub_id,
                            &ServeError::BadRequest("batch bookkeeping lost a task".into()),
                        ),
                    )?,
                },
            }
        }
        Ok(())
    }

    /// Serves stdin/stdout until EOF or a `shutdown` request.
    ///
    /// # Errors
    /// [`ServeError::Io`] when stdio fails.
    pub fn serve_stdio(&self) -> Result<(), ServeError> {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        self.serve_stream(stdin.lock(), BufWriter::new(stdout.lock()))?;
        Ok(())
    }

    /// Binds `addr` and serves TCP connections (one thread each) until a
    /// `shutdown` request arrives on any connection. Returns the bound
    /// local address via `on_bound` before accepting (use it to learn
    /// the port when binding `127.0.0.1:0`).
    ///
    /// # Errors
    /// [`ServeError::Io`] if the bind fails; per-connection failures are
    /// contained to their connection.
    pub fn serve_tcp<F: FnOnce(std::net::SocketAddr)>(
        &self,
        addr: &str,
        on_bound: F,
    ) -> Result<(), ServeError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        on_bound(local);
        std::thread::scope(|scope| {
            for stream in listener.incoming() {
                if self.shutdown_requested() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                scope.spawn(move || self.serve_connection(stream, local));
            }
        });
        Ok(())
    }

    /// Handles one TCP connection; when the stream ends with the
    /// shutdown flag latched, pokes the listener with a no-op connection
    /// so its blocking `accept` wakes up and observes the flag. The poke
    /// is keyed off the flag, not the stream result: a client that sends
    /// `shutdown` and disconnects makes the response writes fail with a
    /// broken pipe, and the shutdown must still take effect.
    fn serve_connection(&self, stream: TcpStream, local: std::net::SocketAddr) {
        let reader = match stream.try_clone() {
            Ok(s) => BufReader::new(s),
            Err(_) => return,
        };
        let stopped = self.serve_stream(reader, BufWriter::new(stream));
        if matches!(stopped, Ok(true)) || self.shutdown_requested() {
            drop(TcpStream::connect(local));
        }
    }
}

/// Computes the payload bytes for one cacheable request kind.
fn compute_payload(kind: &RequestKind) -> Result<String, ServeError> {
    match kind {
        RequestKind::Nash(s) => Ok(s.solve()?.to_json().to_compact()),
        RequestKind::Simulate(s) => Ok(s.outcome()?.to_json().to_compact()),
        RequestKind::Table(s) => Ok(s.outcome().to_json().to_compact()),
        RequestKind::Protect(s) => Ok(s.outcome()?.to_json().to_compact()),
        RequestKind::Exp(s) => Ok(s.run_json()?.to_compact()),
        RequestKind::Largen(s) => Ok(s.solve()?.to_json().to_compact()),
        RequestKind::Batch(_) | RequestKind::Stats | RequestKind::Shutdown => Err(
            ServeError::BadRequest("this request kind has no single result payload".into()),
        ),
    }
}

fn emit<W: Write>(writer: &mut W, record: &str) -> Result<(), ServeError> {
    writer.write_all(record.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_lines(service: &Service, lines: &str) -> Vec<String> {
        let mut out = Vec::new();
        service
            .serve_stream(lines.as_bytes(), &mut out)
            .expect("stream");
        String::from_utf8(out)
            .expect("utf8")
            .lines()
            .map(String::from)
            .collect()
    }

    #[test]
    fn single_request_misses_then_hits_with_identical_payload() {
        let service = Service::new(ServeOptions::default());
        let line = r#"{"kind":"table","id":"t","rates":[0.05,0.1,0.2]}"#;
        let first = run_lines(&service, line);
        let second = run_lines(&service, line);
        // miss: accepted, progress, result; hit: accepted, result.
        assert_eq!(first.len(), 3);
        assert_eq!(second.len(), 2);
        assert!(first[2].contains(r#""cached":false"#));
        assert!(second[1].contains(r#""cached":true"#));
        let data = |rec: &str| rec.split(r#""data":"#).nth(1).map(String::from);
        assert_eq!(data(&first[2]), data(&second[1]));
        let stats = service.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn equivalent_spellings_are_cache_hits() {
        // Array-form families normalize like the string form, and an
        // experiment at 0 threads runs on the one worker that 1 names.
        let service = Service::new(ServeOptions::default());
        for (first, second, key) in [
            (
                r#"{"kind":"nash","users":"LOG:0.5,1.0; linear:1.0,0.4"}"#,
                r#"{"kind":"nash","users":[{"family":"LOG","a":0.5,"b":1.0},{"family":"linear","a":1.0,"b":0.4}]}"#,
                "d482648e33f89446c0e62c9516c701eb",
            ),
            (
                r#"{"kind":"exp","exp":"t1","smoke":true,"threads":1}"#,
                r#"{"kind":"exp","exp":"t1","smoke":true,"threads":0}"#,
                "f412015ca46963af1c5f4bb4c1ce8867",
            ),
        ] {
            let out = run_lines(&service, &format!("{first}\n{second}\n"));
            // miss: accepted, progress, result; hit: accepted, result.
            assert_eq!(out.len(), 5, "{out:?}");
            assert!(out[0].contains(key) && out[3].contains(key), "{out:?}");
            assert!(out[4].contains(r#""cached":true"#), "{out:?}");
        }
    }

    #[test]
    fn omitted_and_explicit_default_warmup_share_key_and_payload() {
        // The cache key fills an omitted warm-up with the engine's
        // default, so spelling the default out keys and computes the
        // same simulation. Fresh services, so both answers are computed.
        let horizon = 4321.0;
        let warmup = horizon * greednet_des::DEFAULT_WARMUP_FRACTION;
        let base = format!(r#"{{"kind":"simulate","rates":[0.2,0.1],"horizon":{horizon}"#);
        let fresh = || Service::new(ServeOptions::default());
        let omitted = run_lines(&fresh(), &format!("{base}}}"));
        let explicit = run_lines(&fresh(), &format!(r#"{base},"warmup":{warmup}}}"#));
        // accepted (with the key), progress, result (with the payload).
        assert_eq!(omitted.len(), 3, "{omitted:?}");
        assert!(omitted[2].contains(r#""cached":false"#), "{omitted:?}");
        assert_eq!(omitted, explicit);
    }

    #[test]
    fn parse_and_request_errors_do_not_kill_the_stream() {
        let service = Service::new(ServeOptions::default());
        let out = run_lines(
            &service,
            "not json\n{\"kind\":\"protect\",\"n\":0}\n{\"kind\":\"stats\"}\n",
        );
        assert!(out[0].contains(r#""error":"parse""#));
        // protect with n=0: accepted, progress, then a bad_request error.
        assert!(out[1].contains(r#""type":"accepted""#));
        assert!(out[3].contains(r#""error":"bad_request""#));
        assert!(out[3].contains("--n must be >= 1"));
        // The stream is still alive and answers stats.
        assert!(out.last().expect("records").contains(r#""type":"stats""#));
    }

    #[test]
    fn batch_deduplicates_and_preserves_order() {
        let service = Service::new(ServeOptions {
            threads: 4,
            cache_capacity: 64,
        });
        let out = run_lines(
            &service,
            r#"{"kind":"batch","id":"b","requests":[
                {"kind":"table","id":"s1","rates":[0.1,0.2]},
                {"kind":"protect","id":"s2","n":4,"victim":0.1},
                {"kind":"table","id":"s3","rates":[0.1,0.2]},
                {"kind":"stats","id":"s4"}]}"#
                .replace('\n', " ")
                .as_str(),
        );
        let results: Vec<&String> = out
            .iter()
            .filter(|l| l.contains(r#""type":"result""#) || l.contains(r#""type":"error""#))
            .collect();
        assert_eq!(results.len(), 4);
        assert!(results[0].contains(r#""id":"s1""#));
        assert!(results[1].contains(r#""id":"s2""#));
        assert!(results[2].contains(r#""id":"s3""#));
        assert!(results[3].contains(r#""error":"bad_request""#));
        // s1 and s3 share one computation: only two misses were computed.
        let stats = service.stats();
        assert_eq!(stats.entries, 2);
        // duplicate probe for s3 counted as a miss but produced no task.
        assert_eq!(stats.misses, 3);
    }

    #[test]
    fn batch_payloads_are_thread_count_invariant() {
        let batch = r#"{"kind":"batch","requests":[{"kind":"nash","id":"a"},{"kind":"table","id":"b","rates":[0.05,0.1,0.2]},{"kind":"protect","id":"c"}]}"#;
        let mut outputs = Vec::new();
        for threads in [1usize, 4, 8] {
            let service = Service::new(ServeOptions {
                threads,
                cache_capacity: 0,
            });
            outputs.push(run_lines(&service, batch).join("\n"));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[1], outputs[2]);
    }

    #[test]
    fn shutdown_stops_the_stream_and_sets_the_flag() {
        let service = Service::new(ServeOptions::default());
        let out = run_lines(
            &service,
            "{\"kind\":\"shutdown\",\"id\":\"z\"}\n{\"kind\":\"stats\"}\n",
        );
        assert!(service.shutdown_requested());
        // The trailing stats request is never served.
        assert!(out.last().expect("records").contains("stopping"));
    }

    #[test]
    fn tcp_round_trip_serves_and_shuts_down() {
        let service = Service::new(ServeOptions::default());
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            scope.spawn(|| {
                service
                    .serve_tcp("127.0.0.1:0", move |addr| {
                        tx.send(addr).expect("send addr");
                    })
                    .expect("serve_tcp");
            });
            let addr = rx.recv().expect("bound addr");
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(b"{\"kind\":\"table\",\"id\":\"x\",\"rates\":[0.1]}\n")
                .expect("send");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("accepted");
            assert!(line.contains("accepted"), "{line}");
            stream
                .write_all(b"{\"kind\":\"shutdown\"}\n")
                .expect("send");
            // Drain until the connection closes.
            let mut rest = String::new();
            while reader.read_line(&mut rest).is_ok_and(|n| n > 0) {}
            assert!(rest.contains("stopping") || line.contains("stopping"));
        });
        assert!(service.shutdown_requested());
    }
}
