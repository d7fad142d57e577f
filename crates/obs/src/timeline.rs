//! Chrome Trace Event / Perfetto JSON export of per-PE timelines in
//! *simulated* time.
//!
//! A [`Timeline`] collects complete ("ph":"X") slices — one per contiguous
//! run of cycles a PE spends on one cycle cause — plus process/thread
//! metadata, and serializes them in the Chrome Trace Event Format that
//! <https://ui.perfetto.dev> loads directly:
//!
//! ```json
//! {"traceEvents":[
//!   {"name":"thread_name","ph":"M","pid":0,"tid":3,"args":{"name":"PE 3"}},
//!   {"name":"compute","cat":"cycles","ph":"X","ts":120,"dur":64,
//!    "pid":0,"tid":3,"args":{"cycles":64}}
//! ]}
//! ```
//!
//! The convention is **1 simulated cycle = 1 µs** of trace time (`ts`/`dur`
//! are microseconds in the format), so Perfetto's duration readouts are
//! cycle counts with a µs suffix. Wall-clock time never appears here — the
//! JSONL trace (`ANT_TRACE`) covers that.
//!
//! Export is env-gated like tracing: [`enabled`] reads `ANT_PROFILE`
//! (truthy values turn the profiler's sidecar on; the `profile` bench
//! binary forces it on), and [`output_path`] resolves `ANT_PROFILE_FILE`
//! (default `target/experiments/<stem>.perfetto.json`).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::{write_json_string, Value};

/// Whether `ANT_PROFILE` requests Perfetto timeline export. Truthiness
/// matches `ANT_TRACE`: `""`, `0`, `false`, `off`, and `no` are unset.
pub fn enabled() -> bool {
    std::env::var("ANT_PROFILE").is_ok_and(|v| crate::truthy(&v))
}

/// Where the timeline JSON should go: `ANT_PROFILE_FILE` if set, else
/// `target/experiments/<stem>.perfetto.json` (honouring
/// `CARGO_TARGET_DIR`).
pub fn output_path(stem: &str) -> PathBuf {
    if let Ok(path) = std::env::var("ANT_PROFILE_FILE") {
        if !path.trim().is_empty() {
            return PathBuf::from(path);
        }
    }
    crate::experiments_dir().join(format!("{stem}.perfetto.json"))
}

/// One Chrome Trace Event.
#[derive(Debug, Clone)]
struct TraceEvent {
    name: String,
    cat: &'static str,
    ph: &'static str,
    ts: Option<u64>,
    dur: Option<u64>,
    pid: u64,
    tid: u64,
    args: Vec<(String, Value)>,
}

impl TraceEvent {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        write_json_string(&self.name, out);
        if !self.cat.is_empty() {
            out.push_str(",\"cat\":");
            write_json_string(self.cat, out);
        }
        out.push_str(",\"ph\":");
        write_json_string(self.ph, out);
        if let Some(ts) = self.ts {
            out.push_str(",\"ts\":");
            out.push_str(&ts.to_string());
        }
        if let Some(dur) = self.dur {
            out.push_str(",\"dur\":");
            out.push_str(&dur.to_string());
        }
        out.push_str(",\"pid\":");
        out.push_str(&self.pid.to_string());
        out.push_str(",\"tid\":");
        out.push_str(&self.tid.to_string());
        if !self.args.is_empty() {
            out.push_str(",\"args\":{");
            for (i, (key, value)) in self.args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_json_string(key, out);
                out.push(':');
                value.write_json(out);
            }
            out.push('}');
        }
        out.push('}');
    }
}

/// A Perfetto-loadable timeline under construction. Processes (`pid`) model
/// machines, threads (`tid`) model PEs, slices model contiguous cycle
/// spans attributed to one cause.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    events: Vec<TraceEvent>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events recorded so far (metadata included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names process `pid` (one per machine) in the Perfetto track list.
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.events.push(TraceEvent {
            name: "process_name".to_string(),
            cat: "",
            ph: "M",
            ts: None,
            dur: None,
            pid,
            tid: 0,
            args: vec![("name".to_string(), Value::Str(name.to_string()))],
        });
    }

    /// Names thread `tid` of process `pid` (one per PE).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(TraceEvent {
            name: "thread_name".to_string(),
            cat: "",
            ph: "M",
            ts: None,
            dur: None,
            pid,
            tid,
            args: vec![("name".to_string(), Value::Str(name.to_string()))],
        });
    }

    /// Records one complete slice: `dur_cycles` of simulated time starting
    /// at `start_cycle` on PE `tid` of machine `pid`, labelled `name`
    /// (typically a cycle-cause) under category `cat`. Zero-duration slices
    /// are dropped — Perfetto renders them as clutter.
    pub fn slice(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        cat: &'static str,
        start_cycle: u64,
        dur_cycles: u64,
    ) {
        self.slice_with_args(pid, tid, name, cat, start_cycle, dur_cycles, Vec::new());
    }

    /// Like [`Timeline::slice`], with extra `args` shown in Perfetto's
    /// detail panel. The cycle count is always included as `cycles`.
    #[allow(clippy::too_many_arguments)]
    pub fn slice_with_args(
        &mut self,
        pid: u64,
        tid: u64,
        name: &str,
        cat: &'static str,
        start_cycle: u64,
        dur_cycles: u64,
        mut args: Vec<(String, Value)>,
    ) {
        if dur_cycles == 0 {
            return;
        }
        args.insert(0, ("cycles".to_string(), Value::U64(dur_cycles)));
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat,
            ph: "X",
            ts: Some(start_cycle),
            dur: Some(dur_cycles),
            pid,
            tid,
            args,
        });
    }

    /// Serializes the whole timeline as one Chrome Trace Event JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            event.write_json(&mut out);
        }
        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }

    /// Writes the timeline JSON to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and file-write failures.
    pub fn write_to(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    fn sample() -> Timeline {
        let mut t = Timeline::new();
        t.process_name(0, "ANT");
        t.thread_name(0, 0, "PE 0");
        t.slice(0, 0, "startup", "cycles", 0, 5);
        t.slice(0, 0, "compute", "cycles", 5, 100);
        t.slice_with_args(
            0,
            0,
            "idle_imbalance",
            "cycles",
            105,
            7,
            vec![("pe_load".to_string(), Value::U64(105))],
        );
        t
    }

    #[test]
    fn json_parses_and_has_trace_events() {
        let json = parse(&sample().to_json()).expect("valid JSON");
        let events = json
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn slices_carry_required_keys() {
        let json = parse(&sample().to_json()).unwrap();
        for event in json.get("traceEvents").and_then(Json::as_array).unwrap() {
            let ph = event.get("ph").and_then(Json::as_str).unwrap();
            assert!(event.get("name").and_then(Json::as_str).is_some());
            assert!(event.get("pid").and_then(Json::as_u64).is_some());
            assert!(event.get("tid").and_then(Json::as_u64).is_some());
            match ph {
                "M" => {
                    assert!(event
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Json::as_str)
                        .is_some());
                }
                "X" => {
                    assert!(event.get("ts").and_then(Json::as_u64).is_some());
                    let dur = event.get("dur").and_then(Json::as_u64).unwrap();
                    let cycles = event
                        .get("args")
                        .and_then(|a| a.get("cycles"))
                        .and_then(Json::as_u64)
                        .unwrap();
                    assert_eq!(dur, cycles);
                }
                other => panic!("unexpected phase {other}"),
            }
        }
    }

    #[test]
    fn zero_duration_slices_are_dropped() {
        let mut t = Timeline::new();
        t.slice(0, 0, "compute", "cycles", 0, 0);
        assert!(t.is_empty());
    }

    #[test]
    fn slices_tile_the_pe_track_contiguously() {
        let json = parse(&sample().to_json()).unwrap();
        let mut cursor = 0;
        for event in json.get("traceEvents").and_then(Json::as_array).unwrap() {
            if event.get("ph").and_then(Json::as_str) != Some("X") {
                continue;
            }
            assert_eq!(event.get("ts").and_then(Json::as_u64).unwrap(), cursor);
            cursor += event.get("dur").and_then(Json::as_u64).unwrap();
        }
        assert_eq!(cursor, 112);
    }

    #[test]
    fn empty_timeline_is_valid_parseable_json() {
        // A run that records no slices (e.g. profiling disabled mid-way or a
        // zero-layer network) must still emit a file Perfetto accepts.
        let text = Timeline::new().to_json();
        assert_eq!(text, r#"{"traceEvents":[],"displayTimeUnit":"ns"}"#);
        let json = parse(&text).expect("valid JSON");
        let events = json
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        assert!(events.is_empty());
    }

    #[test]
    fn write_to_creates_parent_directories() {
        let dir =
            std::env::temp_dir().join(format!("ant-obs-timeline-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested/deeper/empty.perfetto.json");
        Timeline::new().write_to(&path).expect("write with parents");
        let text = fs::read_to_string(&path).expect("read back");
        assert!(parse(&text).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn output_path_honours_stem() {
        let path = output_path("profile_test_stem");
        assert!(path
            .to_string_lossy()
            .ends_with("profile_test_stem.perfetto.json"));
    }
}
