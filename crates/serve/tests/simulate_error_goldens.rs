//! Execution-time `simulate` errors, pinned through `Service::serve_stream`.
//!
//! These requests parse and key, then fail when the simulator validates
//! its configuration: a warm-up at or past the horizon, fewer than four
//! batch-means windows, and a horizon that is not positive. Each row is
//! the exact transcript the service streams back: `accepted` with the
//! key, `progress`, then the `error` record. The rows were recorded before
//! the simulator's one validation moved into `Engine::new`.

use greednet_serve::{ServeOptions, Service};

/// `(request line, the three records it is answered with)`.
#[rustfmt::skip]
const ROWS: &[(&str, [&str; 3])] = &[
    (
        r#"{"kind":"simulate","id":"warmup-past-horizon","rates":[0.2,0.1],"horizon":5000,"warmup":6000}"#,
        [
            r#"{"type":"accepted","id":"warmup-past-horizon","key":"5394817f90266ececf0058ba26fb5214"}"#,
            r#"{"type":"progress","id":"warmup-past-horizon","stage":"compute"}"#,
            r#"{"type":"error","id":"warmup-past-horizon","error":"bad_request","message":"invalid horizon: horizon 5000 / warmup 6000"}"#,
        ],
    ),
    (
        r#"{"kind":"simulate","id":"warmup-at-horizon","rates":[0.2,0.1],"horizon":5000,"warmup":5000}"#,
        [
            r#"{"type":"accepted","id":"warmup-at-horizon","key":"ad5a5f67ba08106fce2b799c4542ee55"}"#,
            r#"{"type":"progress","id":"warmup-at-horizon","stage":"compute"}"#,
            r#"{"type":"error","id":"warmup-at-horizon","error":"bad_request","message":"invalid horizon: horizon 5000 / warmup 5000"}"#,
        ],
    ),
    (
        r#"{"kind":"simulate","id":"two-windows","rates":[0.2,0.1],"windows":2}"#,
        [
            r#"{"type":"accepted","id":"two-windows","key":"9ff8357b0363b4a5e633be3a1398a9e6"}"#,
            r#"{"type":"progress","id":"two-windows","stage":"compute"}"#,
            r#"{"type":"error","id":"two-windows","error":"bad_request","message":"invalid window count: batch-means confidence intervals need at least 4 windows, got 2"}"#,
        ],
    ),
    (
        r#"{"kind":"simulate","id":"negative-horizon","rates":[0.2,0.1],"horizon":-5}"#,
        [
            r#"{"type":"accepted","id":"negative-horizon","key":"d777513c7c2069258494c810b6413d00"}"#,
            r#"{"type":"progress","id":"negative-horizon","stage":"compute"}"#,
            r#"{"type":"error","id":"negative-horizon","error":"bad_request","message":"invalid horizon: horizon -5 / warmup -0.5"}"#,
        ],
    ),
    (
        r#"{"kind":"simulate","id":"zero-horizon","rates":[0.2,0.1],"horizon":0}"#,
        [
            r#"{"type":"accepted","id":"zero-horizon","key":"b656ef9fed68c52a94f61eb2665070cd"}"#,
            r#"{"type":"progress","id":"zero-horizon","stage":"compute"}"#,
            r#"{"type":"error","id":"zero-horizon","error":"bad_request","message":"invalid horizon: horizon 0 / warmup 0"}"#,
        ],
    ),
];

#[test]
fn simulate_validation_errors_stream_their_pinned_records() {
    let service = Service::new(ServeOptions::default());
    let input: String = ROWS.iter().map(|(line, _)| format!("{line}\n")).collect();
    let mut out = Vec::new();
    service
        .serve_stream(input.as_bytes(), &mut out)
        .expect("stream");
    let got: Vec<String> = String::from_utf8(out)
        .expect("utf8")
        .lines()
        .map(String::from)
        .collect();
    let want: Vec<&str> = ROWS.iter().flat_map(|(_, records)| *records).collect();
    assert_eq!(got, want);
    // A failed computation is never cached.
    assert_eq!(service.stats().entries, 0);
}
