//! The embedded HTTP surface: one std-only listener, and the
//! `ANT_METRICS_ADDR` exporter that runs on it.
//!
//! [`listen`] binds a TCP listener and serves it from one background
//! thread, one short-lived connection at a time. It blocks in `accept`, so
//! a request is served the moment it arrives, and pauses briefly after a
//! failed `accept` (e.g. out of file descriptors) rather than spin. A
//! request is a head plus `Content-Length` bytes of body, at most 256 KB
//! in all: a head that never reaches its blank line answers `400`, a longer
//! body `413`. The listener answers three routes itself:
//!
//! - `GET /metrics` — the process-wide [`Registry`](crate::metrics::Registry)
//!   rendered as Prometheus text exposition (format 0.0.4). Counters render
//!   as `counter` families, gauges as `gauge`, and each histogram expands to
//!   `_count` (counter) plus `_min`/`_mean`/`_p50`/`_p95`/`_max` gauges.
//!   Names are sanitized to the exposition grammar by [`sanitize_metric_name`].
//! - `GET /status` — the most recent `ant-status/1` JSON published by any
//!   [`StatusReporter`](crate::progress::StatusReporter) in this process,
//!   straight from memory (no file read). `503` until the first publish.
//! - `GET /healthz` — liveness: always `200 ok`.
//!
//! Every other request goes to the route function the caller passes in
//! (`ant-sweepd` passes its `/jobs` routes); one that no route takes
//! answers `404` for `GET` and `405` for any other method.
//! [`Listener::shutdown`] stops the listener by a flag plus one wake
//! connection. [`http_get`] and [`http_post`] are the matching client.
//!
//! The exporter is off by default: with `ANT_METRICS_ADDR` unset the only
//! cost is one cached environment lookup, no thread, no socket, no
//! allocation on any hot path. Binding to port `0` picks a free port; the
//! resolved address is written to `ANT_METRICS_ADDR_FILE` (default
//! `target/experiments/metrics.addr`) so a harness that requested port `0`
//! can discover where to scrape.
//!
//! The built-in routes are strictly read-only over shared state the run
//! already maintains — serving a scrape never touches simulated state, so
//! the byte-identity and steady-state-allocation gates hold with the
//! exporter enabled.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::{registry, InstrumentSnapshot};
use crate::progress::latest_status_json;

/// Per-connection socket timeout: a stalled peer must never wedge the
/// listener thread for long.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Largest request (head + body) the listener will buffer.
const MAX_REQUEST_BYTES: usize = 256 * 1024;

/// Pause after a failed `accept`, so a persistent error does not spin the
/// listener.
const ACCEPT_RETRY: Duration = Duration::from_millis(5);

const JSON: &str = "application/json";
const TEXT: &str = "text/plain; charset=utf-8";

/// One answer: status line, content type, body.
pub type Response = (&'static str, &'static str, String);

/// A request as a route function sees it.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// The method, e.g. `GET`.
    pub method: &'a str,
    /// The target's path; any query string is dropped.
    pub path: &'a str,
    /// The body, decoded as UTF-8 (lossily).
    pub body: &'a str,
}

/// A running [`listen`]er. Dropping it leaves the listener serving for the
/// life of the process.
#[derive(Debug)]
pub struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Listener {
    /// The bound address (useful after requesting port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener: sets the stop flag, then connects once to wake
    /// the `accept` it blocks in (over loopback for a wildcard address).
    /// Joins the thread only when that connection was made, i.e. when the
    /// listener is sure to return.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target.set_ip(match target.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        if TcpStream::connect_timeout(&target, IO_TIMEOUT).is_ok() {
            let _ = self.thread.join();
        }
    }

    /// Blocks until the listener thread exits, which it does only after a
    /// [`Listener::shutdown`].
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// The `ANT_METRICS_ADDR` value, or `None` when unset/falsy. Truthiness
/// matches the other `ANT_*` switches: `""`, `0`, `false`, `off`, and `no`
/// all mean disabled.
pub fn metrics_addr() -> Option<String> {
    let value = std::env::var("ANT_METRICS_ADDR").ok()?;
    let trimmed = value.trim();
    crate::truthy(trimmed).then(|| trimmed.to_string())
}

/// Where the resolved bind address is written: `ANT_METRICS_ADDR_FILE` if
/// set, else `target/experiments/metrics.addr` (honouring
/// `CARGO_TARGET_DIR`).
pub fn metrics_addr_file() -> PathBuf {
    if let Ok(path) = std::env::var("ANT_METRICS_ADDR_FILE") {
        if !path.trim().is_empty() {
            return PathBuf::from(path);
        }
    }
    crate::experiments_dir().join("metrics.addr")
}

/// Starts the exporter if `ANT_METRICS_ADDR` is set, once per process.
///
/// Returns the bound address (useful when the variable requested port `0`),
/// or `None` when the exporter is disabled or failed to bind. Idempotent:
/// every call after the first returns the cached outcome, so runner and
/// harness code can call it freely.
pub fn init_from_env() -> Option<SocketAddr> {
    static STATE: OnceLock<Option<SocketAddr>> = OnceLock::new();
    *STATE.get_or_init(|| {
        let addr = metrics_addr()?;
        match serve(&addr) {
            Ok(bound) => {
                write_addr_file(&metrics_addr_file(), bound);
                eprintln!("[ant-obs] metrics exporter listening on http://{bound}");
                Some(bound)
            }
            Err(err) => {
                eprintln!("[ant-obs] metrics exporter failed to bind {addr}: {err}");
                None
            }
        }
    })
}

/// Whether the exporter is (now) running. Starts it if `ANT_METRICS_ADDR`
/// asks for one and it has not started yet.
pub fn active() -> bool {
    init_from_env().is_some()
}

/// Sleeps for `ANT_METRICS_LINGER_MS` milliseconds when the exporter is
/// active, keeping short-lived experiment processes scrapeable after their
/// run completes. No-op when the exporter is off or the variable is
/// unset/zero/unparsable.
pub fn linger_from_env() {
    if !active() {
        return;
    }
    let ms = std::env::var("ANT_METRICS_LINGER_MS")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0);
    if ms == 0 {
        return;
    }
    eprintln!("[ant-obs] lingering {ms}ms for final scrapes (ANT_METRICS_LINGER_MS)");
    std::thread::sleep(Duration::from_millis(ms));
}

/// Binds `addr` and serves the built-in routes for the life of the process.
/// Public so tests (and tools that manage their own lifecycle) can run an
/// exporter without touching the environment; production code should go
/// through [`init_from_env`].
pub fn serve(addr: &str) -> std::io::Result<SocketAddr> {
    Ok(listen(addr, |_| None)?.addr)
}

/// Binds `addr` and spawns the listener thread. `routes` answers what the
/// built-in routes do not; `None` means no route takes the request.
///
/// # Errors
///
/// Propagates bind and thread-spawn failures.
pub fn listen<F>(addr: &str, routes: F) -> std::io::Result<Listener>
where
    F: Fn(Request<'_>) -> Option<Response> + Send + 'static,
{
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = stop.clone();
    let thread = std::thread::Builder::new()
        .name("ant-http".to_string())
        .spawn(move || {
            // Requests are tiny and handled one at a time, which keeps the
            // listener allocation-bounded.
            for stream in listener.incoming() {
                if stopped.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = stream else {
                    std::thread::sleep(ACCEPT_RETRY);
                    continue;
                };
                let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                let (status, content_type, body) = answer(&mut stream, &routes);
                let _ = stream.write_all(
                    format!(
                        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    )
                    .as_bytes(),
                );
            }
        })?;
    Ok(Listener {
        addr: bound,
        stop,
        thread,
    })
}

/// Best-effort write of a listener's bound address to `path`, for a
/// harness that requested port `0`.
pub fn write_addr_file(path: &Path, addr: SocketAddr) {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let _ = std::fs::write(path, format!("{addr}\n"));
}

/// Reads one request (head, then `Content-Length` bytes of body) and
/// answers it: a built-in route, else `routes`, else `404`/`405`.
fn answer(mut stream: impl Read, routes: &dyn Fn(Request<'_>) -> Option<Response>) -> Response {
    let mut raw = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    let mut head_end = None;
    while head_end.is_none() && raw.len() < MAX_REQUEST_BYTES {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
            }
        }
    }
    let Some(head_end) = head_end else {
        return (
            "400 Bad Request",
            JSON,
            "{\"error\":\"malformed request\"}\n".to_string(),
        );
    };
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let content_length = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            if name.trim().eq_ignore_ascii_case("content-length") {
                value.trim().parse::<usize>().ok()
            } else {
                None
            }
        })
        .unwrap_or(0);
    if content_length > MAX_REQUEST_BYTES {
        return (
            "413 Payload Too Large",
            JSON,
            "{\"error\":\"body too large\"}\n".to_string(),
        );
    }
    while raw.len() < head_end + content_length {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
        }
    }
    let body = String::from_utf8_lossy(&raw[head_end..]);
    let mut request_line = head.lines().next().unwrap_or("").split_whitespace();
    let method = request_line.next().unwrap_or("");
    let target = request_line.next().unwrap_or("");
    let request = Request {
        method,
        path: target.split('?').next().unwrap_or(target),
        body: &body,
    };
    builtin(request)
        .or_else(|| routes(request))
        .unwrap_or_else(|| match method {
            "GET" => ("404 Not Found", TEXT, "unknown path\n".to_string()),
            _ => (
                "405 Method Not Allowed",
                TEXT,
                "unsupported method\n".to_string(),
            ),
        })
}

/// The routes every listener answers itself.
fn builtin(request: Request<'_>) -> Option<Response> {
    if request.method != "GET" {
        return None;
    }
    Some(match request.path {
        "/metrics" => {
            let mut body = render_build_info();
            body.push_str(&render_prometheus(&registry().snapshot_instruments()));
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", body)
        }
        "/status" => match latest_status_json() {
            Some(json) => ("200 OK", JSON, json + "\n"),
            None => (
                "503 Service Unavailable",
                JSON,
                "{\"error\":\"no status published yet\"}\n".to_string(),
            ),
        },
        "/healthz" => ("200 OK", TEXT, "ok\n".to_string()),
        _ => return None,
    })
}

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n` per the exposition grammar).
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// The constant `ant_build_info` family: a gauge fixed at 1 whose
/// `git_revision` label identifies the build serving the scrape — the same
/// revision every run manifest records in its host section, so a scraped
/// series can be joined back to the manifests it was produced by. The label
/// is empty when the revision cannot be resolved (e.g. no `.git`).
fn render_build_info() -> String {
    let revision = crate::manifest::git_revision_cached().unwrap_or_default();
    format!(
        "# TYPE ant_build_info gauge\nant_build_info{{git_revision=\"{}\"}} 1\n",
        escape_label_value(&revision)
    )
}

/// Rewrites `name` into the Prometheus metric-name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): an `ant_` namespace prefix, with every
/// character outside `[a-zA-Z0-9_]` replaced by `_`. The prefix both
/// namespaces the export and guarantees a legal leading character for raw
/// names that start with a digit.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("ant_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Formats a sample value per the exposition grammar (Go-style floats;
/// `NaN`, `+Inf`, `-Inf` spelled exactly so).
fn format_sample(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value.is_infinite() {
        if value > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{value}")
    }
}

/// Renders a typed registry snapshot as Prometheus text exposition.
///
/// Each instrument becomes one metric family with a `# TYPE` line. Raw
/// names that sanitize to the same family name are disambiguated with a
/// numeric suffix (`_2`, `_3`, …) in snapshot (sorted-name) order, so the
/// output never declares one family twice.
pub fn render_prometheus(snapshot: &[(String, InstrumentSnapshot)]) -> String {
    let mut used: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut unique_name = |raw: &str| -> String {
        let base = sanitize_metric_name(raw);
        let mut candidate = base.clone();
        let mut n = 2;
        while !used.insert(candidate.clone()) {
            candidate = format!("{base}_{n}");
            n += 1;
        }
        candidate
    };
    let mut out = String::with_capacity(64 * snapshot.len() + 64);
    for (raw, instrument) in snapshot {
        let family = unique_name(raw);
        match instrument {
            InstrumentSnapshot::Counter(value) => {
                out.push_str(&format!("# TYPE {family} counter\n{family} {value}\n"));
            }
            InstrumentSnapshot::Gauge(value) => {
                out.push_str(&format!(
                    "# TYPE {family} gauge\n{family} {}\n",
                    format_sample(*value)
                ));
            }
            InstrumentSnapshot::Histogram(hist) => {
                for (suffix, value) in hist.series() {
                    let series = format!("{family}_{suffix}");
                    let kind = if suffix == "count" {
                        "counter"
                    } else {
                        "gauge"
                    };
                    out.push_str(&format!(
                        "# TYPE {series} {kind}\n{series} {}\n",
                        format_sample(value)
                    ));
                }
            }
        }
    }
    out
}

/// `GET url` with [`http_post`]'s client.
///
/// # Errors
///
/// As [`http_post`].
pub fn http_get(url: &str) -> std::io::Result<(u16, String)> {
    http_request("GET", url, "")
}

/// A minimal `http://host:port/path` client for tests, `obsctl`, and
/// harness scripts: sends `body` to `url` and returns the status code and
/// body of the answer.
///
/// # Errors
///
/// Propagates connection and IO failures; HTTP-level errors come back as
/// the status code in the tuple.
pub fn http_post(url: &str, body: &str) -> std::io::Result<(u16, String)> {
    http_request("POST", url, body)
}

fn http_request(method: &str, url: &str, body: &str) -> std::io::Result<(u16, String)> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let (host_port, path) = match rest.find('/') {
        Some(idx) => rest.split_at(idx),
        None => (rest, "/"),
    };
    let mut stream = TcpStream::connect(host_port)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {host_port}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").unwrap_or((&response, ""));
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .unwrap_or(0);
    Ok((code, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    /// A valid job submission (a `POST /jobs` body).
    const JOB: &str = r#"{"tenant":"alice","model":"tiny","machines":["ant"],"sparsities":[0.9]}"#;

    fn no_routes(_: Request<'_>) -> Option<Response> {
        None
    }

    fn post_jobs(body: &str) -> Vec<u8> {
        format!(
            "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// Takes `POST /jobs` the way a job service does: a JSON body is
    /// accepted and echoed, anything else refused.
    fn jobs_route(request: Request<'_>) -> Option<Response> {
        ((request.method, request.path) == ("POST", "/jobs")).then(|| {
            match crate::json::parse(request.body) {
                Ok(_) => ("202 Accepted", JSON, request.body.to_string()),
                Err(_) => ("400 Bad Request", JSON, String::new()),
            }
        })
    }

    /// A reader that hands out one chunk per `read`.
    struct Chunks(std::collections::VecDeque<Vec<u8>>);

    impl Read for Chunks {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(mut chunk) = self.0.pop_front() else {
                return Ok(0);
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.0.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    #[test]
    fn head_without_its_blank_line_is_a_bad_request() {
        let head = b"GET /metrics HTTP/1.1\r\nHost: x\r\n".as_slice();
        let (status, content_type, body) = answer(head, &no_routes);
        assert_eq!((status, content_type), ("400 Bad Request", JSON));
        assert_eq!(body, "{\"error\":\"malformed request\"}\n");
        assert_eq!(answer(b"".as_slice(), &no_routes).0, "400 Bad Request");
    }

    #[test]
    fn content_length_over_the_cap_is_too_large() {
        let head = format!(
            "POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_REQUEST_BYTES + 1
        );
        let (status, content_type, body) = answer(head.as_bytes(), &jobs_route);
        assert_eq!((status, content_type), ("413 Payload Too Large", JSON));
        assert_eq!(body, "{\"error\":\"body too large\"}\n");
    }

    #[test]
    fn methods_and_paths_no_route_takes_answer_405_and_404() {
        for request in [
            "PUT /jobs",
            "POST /metrics",
            "DELETE /nope",
            "HEAD /healthz",
        ] {
            let raw = format!("{request} HTTP/1.1\r\n\r\n");
            let (status, content_type, _) = answer(raw.as_bytes(), &jobs_route);
            assert_eq!(
                (status, content_type),
                ("405 Method Not Allowed", TEXT),
                "{request}"
            );
        }
        assert_eq!(
            answer(b"GET /jobs HTTP/1.1\r\n\r\n".as_slice(), &jobs_route).0,
            "404 Not Found"
        );
        let (status, _, body) =
            answer(b"GET /healthz?x=1 HTTP/1.1\r\n\r\n".as_slice(), &jobs_route);
        assert_eq!((status, body.as_str()), ("200 OK", "ok\n"));
    }

    #[test]
    fn body_split_across_reads_is_routed_intact() {
        let raw = post_jobs(JOB);
        let head_end = raw.len() - JOB.len();
        for cuts in [
            vec![5],
            vec![head_end - 2],
            vec![head_end],
            vec![head_end + 7],
            vec![3, head_end + 1, raw.len() - 1],
        ] {
            let mut chunks = std::collections::VecDeque::new();
            let mut from = 0;
            for cut in cuts.iter().copied().chain([raw.len()]) {
                chunks.push_back(raw[from..cut].to_vec());
                from = cut;
            }
            let (status, _, body) = answer(Chunks(chunks), &jobs_route);
            assert_eq!(
                (status, body.as_str()),
                ("202 Accepted", JOB),
                "cuts {cuts:?}"
            );
        }
    }

    #[test]
    fn truncated_and_flipped_job_submissions_always_get_a_status() {
        // Each case is a pure function of (seed, case): a truncation, byte
        // flips, or both, delivered in two reads split at a drawn offset.
        const SEED: u64 = 0xA17;
        let valid = post_jobs(JOB);
        let mut statuses = std::collections::BTreeSet::new();
        for case in 0..2_000u64 {
            let mut h = splitmix64(SEED ^ splitmix64(case));
            let mut draw = |n: usize| {
                h = splitmix64(h);
                (h % n.max(1) as u64) as usize
            };
            let mut raw = valid.clone();
            let kind = draw(3);
            if kind != 1 {
                raw.truncate(draw(raw.len()));
            }
            if kind != 0 && !raw.is_empty() {
                for _ in 0..=draw(4) {
                    let at = draw(raw.len());
                    raw[at] ^= 1 << draw(8);
                }
            }
            let split = draw(raw.len() + 1);
            let chunks = [raw[..split].to_vec(), raw[split..].to_vec()].into();
            let (status, _, _) = answer(Chunks(chunks), &jobs_route);
            assert!(status[..3].parse::<u16>().is_ok(), "case {case}: {status}");
            statuses.insert(status);
        }
        // The mutations reach the route as well as the reader's refusals.
        for status in ["202 Accepted", "400 Bad Request", "405 Method Not Allowed"] {
            assert!(
                statuses.contains(status),
                "{status} never answered: {statuses:?}"
            );
        }
    }

    #[test]
    fn sanitize_covers_existing_metric_name_shapes() {
        assert_eq!(
            sanitize_metric_name("runner.pairs_done"),
            "ant_runner_pairs_done"
        );
        assert_eq!(
            sanitize_metric_name("runner.worker.00.executed"),
            "ant_runner_worker_00_executed"
        );
        assert_eq!(
            sanitize_metric_name("kernel/bitmask_and/min_us"),
            "ant_kernel_bitmask_and_min_us"
        );
        assert_eq!(sanitize_metric_name("0weird"), "ant_0weird");
        assert_eq!(sanitize_metric_name(""), "ant_");
    }

    #[test]
    fn sanitized_names_match_exposition_grammar() {
        for raw in [
            "runner.pairs_done",
            "kernel/fnir_scan/p50_us",
            "a b\tc",
            "Ünïcode-→-name",
        ] {
            let name = sanitize_metric_name(raw);
            let mut chars = name.chars();
            let first = chars.next().expect("non-empty");
            assert!(first.is_ascii_alphabetic() || first == '_' || first == ':');
            assert!(chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
        }
    }

    #[test]
    fn render_emits_typed_families() {
        let snapshot = vec![
            (
                "runner.pairs_done".to_string(),
                InstrumentSnapshot::Counter(42),
            ),
            ("runner.util".to_string(), InstrumentSnapshot::Gauge(0.5)),
        ];
        let text = render_prometheus(&snapshot);
        assert!(text.contains("# TYPE ant_runner_pairs_done counter\n"));
        assert!(text.contains("ant_runner_pairs_done 42\n"));
        assert!(text.contains("# TYPE ant_runner_util gauge\n"));
        assert!(text.contains("ant_runner_util 0.5\n"));
    }

    #[test]
    fn render_expands_histograms_and_skips_missing_stats() {
        let empty = HistogramSnapshot {
            count: 0,
            min: None,
            mean: None,
            p50: None,
            p95: None,
            max: None,
        };
        let text =
            render_prometheus(&[("pair_us".to_string(), InstrumentSnapshot::Histogram(empty))]);
        assert!(text.contains("# TYPE ant_pair_us_count counter\nant_pair_us_count 0\n"));
        assert!(
            !text.contains("ant_pair_us_min"),
            "empty histogram has no stats: {text}"
        );

        let full = HistogramSnapshot {
            count: 3,
            min: Some(1.0),
            mean: Some(2.0),
            p50: Some(2.0),
            p95: Some(3.0),
            max: Some(3.0),
        };
        let text =
            render_prometheus(&[("pair_us".to_string(), InstrumentSnapshot::Histogram(full))]);
        for series in [
            "ant_pair_us_count 3",
            "ant_pair_us_min 1",
            "ant_pair_us_mean 2",
            "ant_pair_us_p50 2",
            "ant_pair_us_p95 3",
            "ant_pair_us_max 3",
        ] {
            assert!(text.contains(series), "missing `{series}` in:\n{text}");
        }
    }

    #[test]
    fn render_disambiguates_sanitized_collisions() {
        let snapshot = vec![
            ("a.b".to_string(), InstrumentSnapshot::Counter(1)),
            ("a/b".to_string(), InstrumentSnapshot::Counter(2)),
        ];
        let text = render_prometheus(&snapshot);
        assert!(text.contains("ant_a_b 1\n"));
        assert!(text.contains("ant_a_b_2 2\n"));
        // Exactly one TYPE line per family.
        assert_eq!(text.matches("# TYPE ant_a_b counter").count(), 1);
        assert_eq!(text.matches("# TYPE ant_a_b_2 counter").count(), 1);
    }

    #[test]
    fn build_info_gauge_carries_the_manifest_git_revision() {
        let line = render_build_info();
        assert!(line.starts_with("# TYPE ant_build_info gauge\n"));
        let revision = crate::manifest::git_revision_cached().unwrap_or_default();
        assert!(
            line.contains(&format!(
                "ant_build_info{{git_revision=\"{revision}\"}} 1\n"
            )),
            "unexpected build info: {line}"
        );
        // The /metrics body leads with the build-info family.
        let (status, _, body) = answer(b"GET /metrics HTTP/1.1\r\n\r\n".as_slice(), &no_routes);
        assert_eq!(status, "200 OK");
        assert!(body.starts_with("# TYPE ant_build_info gauge\n"), "{body}");
    }

    #[test]
    fn label_values_escape_exposition_metacharacters() {
        assert_eq!(escape_label_value("abc123"), "abc123");
        assert_eq!(escape_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn non_finite_samples_use_exposition_spellings() {
        assert_eq!(format_sample(f64::NAN), "NaN");
        assert_eq!(format_sample(f64::INFINITY), "+Inf");
        assert_eq!(format_sample(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_sample(1.5), "1.5");
        assert_eq!(format_sample(7.0), "7");
    }
}
