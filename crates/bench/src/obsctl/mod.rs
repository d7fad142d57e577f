//! `obsctl`: unified offline analysis over the observability artifacts.
//!
//! The stack writes seven sidecar formats — span traces (JSONL), collapsed
//! flamegraph stacks (`.folded`), Perfetto timelines, the bench-history
//! ledger (`BENCH_history.jsonl`), the live `ant-status/1` file, the
//! per-(layer, phase, machine) `ant-redundancy/1` RCP-attribution ledger,
//! and the `ant-manifest/1` run manifest (whose `host` section carries the
//! simulation-cache table `obsctl cache` reads).
//! Each had its own ad-hoc consumer; this module is the one query tool over
//! all of them, exposed by the `obsctl` binary:
//!
//! ```text
//! obsctl trace      FILE [--name N] [--layer L] [--phase P] [--network NET]
//!                        [--machine M] [--top K] [--json]
//! obsctl flame      diff A.folded B.folded [--top K] [--json]
//! obsctl ledger     trend [--file PATH] [--label L] [--metric SUBSTR]
//!                         [--window N] [--threshold T] [--json]
//! obsctl status     [PATH|URL] [--follow] [--interval-ms N]
//! obsctl jobs       URL|FILE [--follow] [--interval-ms N]
//! obsctl redundancy FILE [--network NET] [--machine M] [--layer L]
//!                        [--phase P] [--top K] [--json]
//! obsctl cache      MANIFEST [--network NET] [--machine M] [--json]
//! ```
//!
//! Every subcommand is an *analysis* tool: it renders a report (markdown
//! table or a stable JSON schema under `--json`) and exits zero unless the
//! input itself is unusable. Gating stays with `bench_history compare`;
//! `obsctl ledger trend` reuses the exact same comparison
//! ([`crate::history::compare`]), so its per-metric verdicts always match
//! the gate's.

pub mod cache;
pub mod flame;
pub mod jobs;
pub mod redundancy;
pub mod status;
pub mod trace;
pub mod trend;

/// Where one `obsctl status` or `obsctl jobs` read comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// A file on disk: a status file or a saved job board.
    File(std::path::PathBuf),
    /// A server URL; the command's route is appended when it has no path.
    Http(String),
}

impl Source {
    /// Resolves a CLI operand: `http://` strings become HTTP sources (with
    /// `route`, `/status` or `/jobs`, appended when pathless), anything else
    /// a file path, and `None` the runner's default status file (only
    /// `obsctl status` takes no operand).
    pub fn resolve(operand: Option<&str>, route: &str) -> Source {
        let Some(raw) = operand else {
            return Source::File(ant_obs::progress::status_file());
        };
        match raw.strip_prefix("http://") {
            Some(rest) if !rest.contains('/') => Source::Http(format!("{raw}{route}")),
            Some(_) => Source::Http(raw.to_string()),
            None => Source::File(std::path::PathBuf::from(raw)),
        }
    }

    /// Reads the current document text from the source.
    ///
    /// # Errors
    ///
    /// Errors with a human-readable reason when the file is unreadable or
    /// the server is unreachable / non-200.
    pub fn fetch(&self) -> Result<String, String> {
        match self {
            Source::File(path) => std::fs::read_to_string(path)
                .map(|s| s.trim().to_string())
                .map_err(|e| format!("cannot read {}: {e}", path.display())),
            Source::Http(url) => match ant_obs::export::http_get(url) {
                Ok((200, body)) => Ok(body.trim().to_string()),
                Ok((code, body)) => Err(format!("{url} answered {code}: {}", body.trim())),
                Err(e) => Err(format!("cannot reach {url}: {e}")),
            },
        }
    }
}

/// Pulls `--name value` out of `args`, returning the value.
///
/// # Errors
///
/// Errors when the flag is present without a value.
pub fn take_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    if let Some(pos) = args.iter().position(|a| a == name) {
        if pos + 1 >= args.len() {
            return Err(format!("{name} needs a value"));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        return Ok(Some(value));
    }
    Ok(None)
}

/// Pulls a bare `--name` switch out of `args`; `true` when present.
pub fn take_switch(args: &mut Vec<String>, name: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == name) {
        args.remove(pos);
        return true;
    }
    false
}

/// Parses an optional numeric flag with a default.
///
/// # Errors
///
/// Errors when the flag is present but does not parse as `T`.
pub fn take_parsed<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match take_flag(args, name)? {
        Some(raw) => raw
            .parse::<T>()
            .map_err(|_| format!("{name} wants a value like {raw:?} to parse")),
        None => Ok(default),
    }
}

/// Nearest-rank percentile over an unsorted, non-empty sample slice
/// (`p` in 0..=100). Returns 0.0 on an empty slice.
pub(crate) fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = samples.len();
    let rank = ((p.clamp(0.0, 100.0) / 100.0) * n as f64).ceil() as usize;
    samples[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_flag_extracts_and_removes() {
        let mut args = vec!["--top".to_string(), "5".to_string(), "file".to_string()];
        assert_eq!(take_flag(&mut args, "--top").unwrap(), Some("5".to_string()));
        assert_eq!(args, vec!["file".to_string()]);
        assert_eq!(take_flag(&mut args, "--top").unwrap(), None);
        let mut dangling = vec!["--top".to_string()];
        assert!(take_flag(&mut dangling, "--top").is_err());
    }

    #[test]
    fn take_parsed_defaults_and_validates() {
        let mut args: Vec<String> = vec!["--top".into(), "7".into()];
        assert_eq!(take_parsed(&mut args, "--top", 30usize).unwrap(), 7);
        assert_eq!(take_parsed(&mut args, "--top", 30usize).unwrap(), 30);
        let mut bad: Vec<String> = vec!["--top".into(), "x".into()];
        assert!(take_parsed(&mut bad, "--top", 30usize).is_err());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v = vec![30.0, 10.0, 20.0];
        assert_eq!(percentile(&mut v, 50.0), 20.0);
        assert_eq!(percentile(&mut v, 100.0), 30.0);
        assert_eq!(percentile(&mut v, 0.0), 10.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }
}
