//! `ant-sweepd`: a fault-tolerant, multi-tenant sweep service.
//!
//! The `sweepd` binary wraps the pooled runner in a long-lived,
//! std-only HTTP/JSONL daemon:
//!
//! - [`spec`] — validated job specifications ([`JobSpec`]): model, machine
//!   list, sparsity grid, tenant, priority weight, deadline. Malformed
//!   submissions are rejected with typed 400s before touching the queue.
//! - [`queue`] — bounded weighted-fair admission ([`FairQueue`], stride
//!   scheduling): a weight-`w` tenant drains `w`× faster, nobody starves,
//!   and submissions past capacity shed with a typed 429.
//! - [`daemon`] — supervision ([`Sweepd`]): every attempt runs under
//!   `catch_unwind`, failures retry on a deterministic exponential-backoff
//!   schedule then quarantine, job deadlines cancel at pair-job boundaries
//!   via [`RunOptions::deadline_us`](crate::runner::RunOptions::deadline_us),
//!   and every state transition persists to a spool so a `kill -9` recovers
//!   to byte-identical results (checkpoints are keyed by
//!   [`JobSpec::content_hash`], so re-submission *resumes*).
//!
//! The daemon serves `POST /jobs` and `GET /jobs[/{id}]` on the `ant-obs`
//! listener ([`ant_obs::export::listen`]), which also answers
//! `GET /status`, `GET /metrics` and `GET /healthz`. Service health shows
//! up in the process metrics registry as `sweepd.queue.*` and
//! `sweepd.job.*`, scrapeable from the daemon's own `/metrics` endpoint and
//! renderable with `obsctl`.

pub mod daemon;
pub mod queue;
pub mod spec;

pub use ant_obs::export::http_post;
pub use daemon::{
    backoff_ms, AttemptRecord, Job, JobState, Sweepd, ERROR_SCHEMA, JOBS_SCHEMA, JOB_SCHEMA,
    RECENT_JOBS, RESULT_SCHEMA,
};
pub use queue::{FairQueue, Shed};
pub use spec::{JobSpec, MACHINES, MAX_WEIGHT, MODELS, SPARSIFIERS};

use std::path::PathBuf;

/// Daemon configuration, resolved once at startup (environment plus
/// defaults; see [`SweepdConfig::from_env`]).
#[derive(Debug, Clone)]
pub struct SweepdConfig {
    /// Listen address (`host:port`; port `0` picks a free port).
    pub addr: String,
    /// Spool directory: job records, per-cell checkpoints, results.
    pub spool: PathBuf,
    /// Maximum queued jobs across all tenants; submissions beyond it shed
    /// with a typed 429.
    pub queue_capacity: usize,
    /// Attempts per job before quarantine.
    pub max_attempts: u32,
    /// Base backoff in milliseconds; attempt `n` waits
    /// `base * 2^(n-1) + jitter(seed, seq, n)`.
    pub backoff_base_ms: u64,
    /// Where to write the bound address for port-0 discovery; `None` skips.
    pub addr_file: Option<PathBuf>,
    /// Runner worker threads per job (`None` = available CPUs).
    pub threads: Option<usize>,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Whether jobs publish live `ant-status/1` progress (served on
    /// `GET /status`).
    pub progress: bool,
}

impl Default for SweepdConfig {
    fn default() -> Self {
        SweepdConfig {
            addr: "127.0.0.1:0".to_string(),
            spool: ant_obs::experiments_dir().join("sweepd-spool"),
            queue_capacity: 64,
            max_attempts: 3,
            backoff_base_ms: 50,
            addr_file: None,
            threads: None,
            seed: 0xA17,
            progress: true,
        }
    }
}

impl SweepdConfig {
    /// Resolves configuration from the `ANT_SWEEPD_*` environment:
    ///
    /// | Variable                 | Default                             |
    /// |--------------------------|-------------------------------------|
    /// | `ANT_SWEEPD_ADDR`        | `127.0.0.1:0`                       |
    /// | `ANT_SWEEPD_SPOOL`       | `target/experiments/sweepd-spool`   |
    /// | `ANT_SWEEPD_ADDR_FILE`   | `target/experiments/sweepd.addr`    |
    /// | `ANT_SWEEPD_QUEUE`       | `64`                                |
    /// | `ANT_SWEEPD_MAX_ATTEMPTS`| `3`                                 |
    /// | `ANT_SWEEPD_BACKOFF_MS`  | `50`                                |
    /// | `ANT_SWEEPD_THREADS`     | available CPUs                      |
    /// | `ANT_SWEEPD_SEED`        | `0xA17` (the paper seed)            |
    ///
    /// Unparsable values fall back to the default with a warning rather
    /// than refusing to start.
    pub fn from_env() -> Self {
        let mut cfg = SweepdConfig {
            addr_file: Some(ant_obs::experiments_dir().join("sweepd.addr")),
            ..SweepdConfig::default()
        };
        if let Some(addr) = env_str("ANT_SWEEPD_ADDR") {
            cfg.addr = addr;
        }
        if let Some(spool) = env_str("ANT_SWEEPD_SPOOL") {
            cfg.spool = PathBuf::from(spool);
        }
        if let Some(file) = env_str("ANT_SWEEPD_ADDR_FILE") {
            cfg.addr_file = Some(PathBuf::from(file));
        }
        if let Some(v) = env_parse::<usize>("ANT_SWEEPD_QUEUE") {
            cfg.queue_capacity = v.max(1);
        }
        if let Some(v) = env_parse::<u32>("ANT_SWEEPD_MAX_ATTEMPTS") {
            cfg.max_attempts = v.max(1);
        }
        if let Some(v) = env_parse::<u64>("ANT_SWEEPD_BACKOFF_MS") {
            cfg.backoff_base_ms = v.max(1);
        }
        if let Some(v) = env_parse::<usize>("ANT_SWEEPD_THREADS") {
            cfg.threads = Some(v);
        }
        if let Some(v) = env_parse::<u64>("ANT_SWEEPD_SEED") {
            cfg.seed = v;
        }
        cfg
    }
}

fn env_str(key: &str) -> Option<String> {
    let value = std::env::var(key).ok()?;
    let trimmed = value.trim();
    if trimmed.is_empty() {
        return None;
    }
    Some(trimmed.to_string())
}

fn env_parse<T: std::str::FromStr>(key: &str) -> Option<T> {
    let raw = env_str(key)?;
    match raw.parse::<T>() {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("ant-sweepd: ignoring unparsable {key}={raw:?}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane_without_any_environment() {
        let cfg = SweepdConfig::default();
        assert_eq!(cfg.queue_capacity, 64);
        assert_eq!(cfg.max_attempts, 3);
        assert_eq!(cfg.backoff_base_ms, 50);
        assert!(cfg.addr.ends_with(":0"), "default binds an ephemeral port");
        assert!(cfg.spool.ends_with("sweepd-spool"));
    }
}
