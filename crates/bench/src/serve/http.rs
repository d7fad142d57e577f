//! The `ant-sweepd` wire surface: a zero-dependency HTTP/JSONL listener.
//!
//! Same discipline as the `ant-obs` metrics exporter it extends: one
//! short-lived connection at a time, bounded request sizes, socket
//! timeouts, and plain `std::net`. The listener blocks in `accept`, so a
//! request is served the moment it arrives;
//! [`Sweepd::shutdown`](super::Sweepd::shutdown) stops it cleanly by
//! setting the stop flag and then connecting once to wake it (the daemon
//! itself is designed to survive `kill -9`, but tests want orderly
//! teardown).
//!
//! Routes:
//!
//! - `POST /jobs` — submit a [`JobSpec`](super::JobSpec); `202` with id and
//!   queue position, `400` invalid spec, `429` queue full, `503` past
//!   deadline (the latter two counted as `sweepd.job.shed`).
//! - `GET /jobs` — the live jobs and the most recently finished ones with
//!   state, attempts, queue position, and ETA (schema `ant-sweepd-jobs/1`).
//! - `GET /jobs/{id}` — one job by external id or sequence number, read
//!   back from the spool once it has left memory.
//! - `GET /status` — the latest in-process `ant-status/1` snapshot (live
//!   runner progress of the executing job).
//! - `GET /metrics` — Prometheus text exposition of the process registry,
//!   including the `sweepd.queue.*` / `sweepd.job.*` instruments.
//! - `GET /healthz` — liveness.

use std::io::{Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use ant_obs::export::{render_build_info, render_prometheus};
use ant_obs::progress::latest_status_json;
use ant_sim::AntError;

use crate::serve::daemon::{self, Inner};

/// Per-connection socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Largest request (head + body) the daemon will buffer.
const MAX_REQUEST_BYTES: usize = 256 * 1024;

/// Pause after a failed `accept` (e.g. out of file descriptors), so a
/// persistent error does not spin the listener.
const ACCEPT_RETRY: Duration = Duration::from_millis(5);

/// Binds the configured address and spawns the serving thread. Returns the
/// bound address (for port-0 discovery) and the thread handle.
pub(crate) fn serve(
    inner: Arc<Inner>,
) -> Result<(SocketAddr, std::thread::JoinHandle<()>), AntError> {
    let listener = TcpListener::bind(&inner.config.addr)
        .map_err(|e| AntError::io(format!("bind {}", inner.config.addr), &e))?;
    let bound = listener
        .local_addr()
        .map_err(|e| AntError::io("local_addr", &e))?;
    let handle = std::thread::Builder::new()
        .name("ant-sweepd-http".to_string())
        .spawn(move || {
            // Requests are tiny and handled one at a time, which keeps the
            // surface allocation-bounded, like the metrics exporter.
            for stream in listener.incoming() {
                if inner.stop.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => handle_connection(stream, &inner),
                    Err(_) => std::thread::sleep(ACCEPT_RETRY),
                }
            }
        })
        .map_err(|e| AntError::io("spawn http thread", &e))?;
    Ok((bound, handle))
}

/// Wakes a listener blocked in `accept` on `addr` (a wildcard address is
/// reached over loopback). Returns whether the connection was made, i.e.
/// whether the listener is sure to return.
pub(crate) fn wake(addr: SocketAddr) -> bool {
    let mut target = addr;
    if target.ip().is_unspecified() {
        target.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    TcpStream::connect_timeout(&target, IO_TIMEOUT).is_ok()
}

/// Reads one request (head, then `Content-Length` bytes of body), routes
/// it, writes one response, closes.
fn handle_connection(mut stream: TcpStream, inner: &Inner) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut raw = Vec::with_capacity(512);
    let mut buf = [0u8; 1024];
    let mut head_end = None;
    // Phase 1: read until the blank line separating head from body.
    while head_end.is_none() && raw.len() < MAX_REQUEST_BYTES {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
            }
            Err(_) => break,
        }
    }
    let Some(head_end) = head_end else {
        respond(&mut stream, "400 Bad Request", "application/json", "{\"error\":\"malformed request\"}\n");
        return;
    };
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
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
        respond(&mut stream, "413 Payload Too Large", "application/json", "{\"error\":\"body too large\"}\n");
        return;
    }
    // Phase 2: the rest of the body.
    while raw.len() < head_end + content_length {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(_) => break,
        }
    }
    let body = String::from_utf8_lossy(&raw[head_end..]).to_string();

    let mut request_line = head.lines().next().unwrap_or("").split_whitespace();
    let method = request_line.next().unwrap_or("");
    let target = request_line.next().unwrap_or("");
    let path = target.split('?').next().unwrap_or(target);

    let (status, content_type, response) = route(inner, method, path, &body);
    respond(&mut stream, status, content_type, &response);
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// Maps `(method, path, body)` to `(status line, content type, body)`.
fn route(
    inner: &Inner,
    method: &str,
    path: &str,
    body: &str,
) -> (&'static str, &'static str, String) {
    const JSON: &str = "application/json";
    match (method, path) {
        ("POST", "/jobs") => {
            let (status, body) = daemon::submit(inner, body);
            (status, JSON, body)
        }
        ("GET", "/jobs") => ("200 OK", JSON, daemon::jobs_json(inner)),
        ("GET", p) if p.starts_with("/jobs/") => {
            match daemon::job_json(inner, &p["/jobs/".len()..]) {
                Some(body) => ("200 OK", JSON, body),
                None => ("404 Not Found", JSON, "{\"error\":\"unknown job\"}\n".to_string()),
            }
        }
        ("GET", "/status") => match latest_status_json() {
            Some(json) => ("200 OK", JSON, json + "\n"),
            None => (
                "503 Service Unavailable",
                JSON,
                "{\"error\":\"no status published yet\"}\n".to_string(),
            ),
        },
        ("GET", "/metrics") => {
            let mut out = render_build_info();
            out.push_str(&render_prometheus(
                &ant_obs::registry().snapshot_instruments(),
            ));
            ("200 OK", "text/plain; version=0.0.4; charset=utf-8", out)
        }
        ("GET", "/healthz") => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_string()),
        ("GET", _) => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "unknown path; try /jobs, /status, /metrics, /healthz\n".to_string(),
        ),
        _ => (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "unsupported method\n".to_string(),
        ),
    }
}

/// Minimal `POST` client for tests, `obsctl`, and harness scripts — the
/// write-side sibling of [`ant_obs::export::http_get`].
///
/// # Errors
///
/// Propagates connection and IO failures; HTTP-level errors come back as
/// the status code in the tuple.
pub fn http_post(url: &str, body: &str) -> std::io::Result<(u16, String)> {
    let rest = url.strip_prefix("http://").unwrap_or(url);
    let (host_port, path) = match rest.find('/') {
        Some(idx) => (&rest[..idx], &rest[idx..]),
        None => (rest, "/"),
    };
    let mut stream = TcpStream::connect(host_port)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(
        format!(
            "POST {path} HTTP/1.1\r\nHost: {host_port}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let mut parts = response.splitn(2, "\r\n\r\n");
    let head = parts.next().unwrap_or("");
    let body = parts.next().unwrap_or("").to_string();
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse::<u16>().ok())
        .unwrap_or(0);
    Ok((code, body))
}
