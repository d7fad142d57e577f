//! `obsctl status`: pretty-print a live `ant-status/1` run status.
//!
//! The source is either the status *file* the runner's `StatusReporter`
//! rewrites (`ANT_PROGRESS_FILE`, default `target/experiments/status.json`)
//! or the embedded exporter's `/status` endpoint when given an `http://`
//! URL. `--follow` re-reads the source on an interval until the run reports
//! `state == "done"`, giving a dependency-free `watch`-style progress view.

use std::fmt::Write as _;

use ant_obs::json::Json;

/// True when the status text reports a finished run (`state == "done"`).
pub fn is_done(text: &str) -> bool {
    ant_obs::parse_json(text)
        .ok()
        .and_then(|j| j.get("state").and_then(Json::as_str).map(str::to_string))
        .as_deref()
        == Some("done")
}

/// Renders one `ant-status/1` document as a human-readable block.
///
/// # Errors
///
/// Errors when the text is not valid JSON or not an `ant-status/1`
/// document.
pub fn render(text: &str) -> Result<String, String> {
    let json = ant_obs::parse_json(text).map_err(|e| format!("status is not valid JSON: {e}"))?;
    let schema = json.get("schema").and_then(Json::as_str);
    if schema != Some("ant-status/1") {
        return Err(format!(
            "expected an ant-status/1 document, got schema {:?}",
            schema.unwrap_or("(none)")
        ));
    }
    let s = |key: &str| json.get(key).and_then(Json::as_str).map(str::to_string);
    let u = |key: &str| json.get(key).and_then(Json::as_u64);
    let f = |key: &str| json.get(key).and_then(Json::as_f64);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} [{}] {} on {}",
        s("name").unwrap_or_else(|| "(unnamed)".to_string()),
        s("state").unwrap_or_else(|| "?".to_string()),
        s("network").unwrap_or_else(|| "?".to_string()),
        s("machine").unwrap_or_else(|| "?".to_string()),
    );
    let pairs_done = u("pairs_done").unwrap_or(0);
    let pairs_total = u("pairs_total").unwrap_or(0);
    let pct = if pairs_total > 0 {
        pairs_done as f64 / pairs_total as f64 * 100.0
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "  pairs  {pairs_done}/{pairs_total} ({pct:.1}%)  layers {}/{}  threads {}",
        u("layers_done").unwrap_or(0),
        u("layers_total").unwrap_or(0),
        u("threads").unwrap_or(0),
    );
    let _ = writeln!(
        out,
        "  rate   {:.1} pairs/s  elapsed {:.1}s  eta {}",
        f("pairs_per_sec").unwrap_or(0.0),
        f("elapsed_s").unwrap_or(0.0),
        match f("eta_s") {
            Some(eta) => format!("{eta:.1}s"),
            None => "-".to_string(),
        },
    );
    let _ = writeln!(
        out,
        "  health retries={} quarantined={} watchdog_slow={}",
        u("retries").unwrap_or(0),
        u("quarantined").unwrap_or(0),
        u("watchdog_slow").unwrap_or(0),
    );
    let mut identity: Vec<String> = Vec::new();
    if let Some(rev) = s("git_revision") {
        let short: String = rev.chars().take(10).collect();
        identity.push(format!("rev {short}"));
    }
    if let Some(resumed) = s("resumed_from") {
        identity.push(format!("resumed from {resumed}"));
    }
    if !identity.is_empty() {
        let _ = writeln!(out, "  build  {}", identity.join(", "));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obsctl::Source;

    fn sample(state: &str) -> String {
        format!(
            concat!(
                r#"{{"schema":"ant-status/1","elapsed_s":2.5,"eta_s":1.5,"#,
                r#""git_revision":"deadbeefcafe","layers_done":1,"layers_total":2,"#,
                r#""machine":"SCNN+","name":"fig09","network":"tiny","pairs_done":12,"#,
                r#""pairs_per_sec":4.8,"pairs_total":24,"quarantined":0,"#,
                r#""resumed_from":"ckpt.json","retries":1,"state":"{}","threads":3,"#,
                r#""updated_at_unix_ms":1,"watchdog_slow":0}}"#
            ),
            state
        )
    }

    #[test]
    fn resolve_maps_operands_to_sources() {
        assert_eq!(
            Source::resolve(Some("http://127.0.0.1:9100"), "/status"),
            Source::Http("http://127.0.0.1:9100/status".to_string())
        );
        assert_eq!(
            Source::resolve(Some("http://127.0.0.1:9100/status"), "/status"),
            Source::Http("http://127.0.0.1:9100/status".to_string())
        );
        assert_eq!(
            Source::resolve(Some("some/status.json"), "/status"),
            Source::File(std::path::PathBuf::from("some/status.json"))
        );
        assert!(matches!(Source::resolve(None, "/status"), Source::File(_)));
    }

    #[test]
    fn render_formats_the_status_block() {
        let out = render(&sample("running")).expect("renders");
        assert!(out.contains("fig09 [running] tiny on SCNN+"), "{out}");
        assert!(out.contains("pairs  12/24 (50.0%)"), "{out}");
        assert!(out.contains("layers 1/2"), "{out}");
        assert!(out.contains("eta 1.5s"), "{out}");
        assert!(out.contains("retries=1"), "{out}");
        assert!(out.contains("rev deadbeefca"), "{out}");
        assert!(out.contains("resumed from ckpt.json"), "{out}");
    }

    #[test]
    fn render_rejects_non_status_documents() {
        assert!(render("not json").is_err());
        assert!(render(r#"{"schema":"ant-bench/1"}"#).is_err());
    }

    #[test]
    fn is_done_gates_follow_mode() {
        assert!(is_done(&sample("done")));
        assert!(!is_done(&sample("running")));
        assert!(!is_done("garbage"));
    }

    #[test]
    fn file_source_round_trips() {
        let dir = std::env::temp_dir().join(format!("ant_obsctl_status_{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("status.json");
        std::fs::write(&path, sample("done")).expect("write sample");
        let source = Source::File(path.clone());
        let text = source.fetch().expect("fetch file");
        assert!(is_done(&text));
        assert!(render(&text).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
