//! The saved per-layer record shared by the checkpoint sidecar
//! (`ant-checkpoint/1`) and the simulation-cache store (`ant-simcache/1`).
//!
//! Both files are append-only JSONL whose lines end in the same payload: a
//! layer's finalized `[forward, backward, update]` counter objects. This
//! module owns that payload's writer and reader (sweepd's result JSONL
//! writes the same counter object), the load that treats a missing file as
//! empty, and [`AppendLog`], the one append path with the shared
//! write-failure policy. Each store keeps its own line schema, skip
//! classification and write-time round-trip guard.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, ErrorKind, Write};
use std::path::{Path, PathBuf};

use ant_obs::json::{write_json_string, Json};
use ant_sim::chaos::{self, IoDomain, IoFault};
use ant_sim::SimStats;

/// Writes one counter object, `{"pe_cycles":N,...}`, in
/// [`SimStats::fields`] order.
pub(crate) fn write_counters(stats: &SimStats, out: &mut String) {
    out.push('{');
    for (fi, (name, value)) in stats.fields().iter().enumerate() {
        if fi > 0 {
            out.push(',');
        }
        write_json_string(name, out);
        let _ = write!(out, ":{value}");
    }
    out.push('}');
}

/// Writes the `[forward, backward, update]` phase array.
pub(crate) fn write_phases(phases: &[SimStats; 3], out: &mut String) {
    out.push('[');
    for (pi, stats) in phases.iter().enumerate() {
        if pi > 0 {
            out.push(',');
        }
        write_counters(stats, out);
    }
    out.push(']');
}

/// Reads a counter object: every [`SimStats`] counter exactly once, each
/// an integer. The error names what is wrong.
fn read_counters(json: &Json) -> Result<SimStats, &'static str> {
    let Json::Obj(map) = json else {
        return Err("phase entry is not an object");
    };
    let mut stats = SimStats::default();
    if map.len() != stats.fields().len() {
        return Err("phase entry has the wrong counter count");
    }
    for (name, value) in map {
        let value = value.as_u64().ok_or("counter is not an integer")?;
        if !stats.set_field(name, value) {
            return Err("unknown counter");
        }
    }
    Ok(stats)
}

/// Reads the phase array written by [`write_phases`].
pub(crate) fn read_phases(json: Option<&Json>) -> Result<[SimStats; 3], &'static str> {
    let items = json
        .and_then(Json::as_array)
        .ok_or("missing phases array")?;
    if items.len() != 3 {
        return Err("phases array must have three entries");
    }
    let mut phases = [SimStats::default(); 3];
    for (stats, item) in phases.iter_mut().zip(items) {
        *stats = read_counters(item)?;
    }
    Ok(phases)
}

/// Calls `line` for each non-blank line of `path`; a missing file reads as
/// empty.
pub(crate) fn load(path: &Path, line: impl FnMut(&str)) -> std::io::Result<()> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    text.lines().filter(|l| !l.trim().is_empty()).for_each(line);
    Ok(())
}

/// An append-only JSONL file. A torn write leaves a line that will not load
/// again; a failed write (an injected ENOSPC or a real IO error) warns once
/// and stops appending while the run continues.
#[derive(Debug)]
pub(crate) struct AppendLog {
    path: PathBuf,
    domain: IoDomain,
    /// `None` once a failed write has stopped appending.
    writer: Option<BufWriter<File>>,
    /// Lines offered so far: the deterministic index for injected IO faults
    /// (`ANT_CHAOS` `torn=`/`enospc=`).
    appended: u64,
}

impl AppendLog {
    /// Opens `path` for appending, creating it; with `truncate` it starts
    /// empty.
    pub(crate) fn open(path: &Path, domain: IoDomain, truncate: bool) -> std::io::Result<Self> {
        let mut options = OpenOptions::new();
        if truncate {
            options.write(true).truncate(true);
        } else {
            options.append(true);
        }
        let file = options.create(true).open(path)?;
        Ok(Self {
            path: path.to_path_buf(),
            domain,
            writer: Some(BufWriter::new(file)),
            appended: 0,
        })
    }

    /// Whether appending is still on.
    pub(crate) fn is_open(&self) -> bool {
        self.writer.is_some()
    }

    /// Appends `line` and a newline, flushed; returns whether the whole line
    /// reached the file.
    pub(crate) fn append(&mut self, line: &str) -> bool {
        let Some(writer) = self.writer.as_mut() else {
            return false;
        };
        let index = self.appended;
        self.appended += 1;
        let name = match self.domain {
            IoDomain::Checkpoint => "checkpoint",
            IoDomain::SimCache => "simcache",
            IoDomain::Spool => "spool",
        };
        let path = self.path.display();
        let written = match chaos::active().and_then(|c| c.io_fault_for(self.domain, index)) {
            Some(IoFault::TornWrite) => {
                ant_obs::registry()
                    .counter(&format!("{name}.io_torn"))
                    .incr();
                eprintln!(
                    "ant-bench: {name} {path}: injected torn write at line {index}; \
                     the line will not load"
                );
                let _ = write_line(writer, &line.as_bytes()[..line.len() / 2]);
                return false;
            }
            Some(IoFault::Enospc) => {
                ant_obs::registry()
                    .counter(&format!("{name}.io_enospc"))
                    .incr();
                Err(std::io::Error::other("injected ENOSPC"))
            }
            None => write_line(writer, line.as_bytes()),
        };
        if let Err(e) = written {
            eprintln!(
                "ant-bench: {name} {path}: write of line {index} failed ({e}); \
                 appending stopped, run continues"
            );
            self.writer = None;
            return false;
        }
        true
    }
}

fn write_line(writer: &mut BufWriter<File>, line: &[u8]) -> std::io::Result<()> {
    writer.write_all(line)?;
    writer.write_all(b"\n")?;
    writer.flush()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Seeded mutations of writer-produced lines for decoder tests, in the
    /// chaos idiom: each mutant is a pure function of `(seed, case)`.
    pub(crate) fn mutant(line: &str, seed: u64, case: u64) -> String {
        fn splitmix64(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }
        let mut h = splitmix64(seed ^ splitmix64(case));
        let mut draw = |n: usize| {
            h = splitmix64(h);
            (h % n.max(1) as u64) as usize
        };
        let mut bytes = line.as_bytes().to_vec();
        match draw(3) {
            // Byte flips, kept within ASCII so the mutant stays a `&str`.
            0 => {
                for _ in 0..=draw(3) {
                    let at = draw(bytes.len());
                    bytes[at] ^= 1 << draw(7);
                }
            }
            1 => bytes.truncate(draw(bytes.len())),
            // A splice of the line with itself: a range dropped or repeated.
            _ => {
                let (cut, resume) = (draw(bytes.len() + 1), draw(bytes.len() + 1));
                let tail = bytes[resume..].to_vec();
                bytes.truncate(cut);
                bytes.extend(tail);
            }
        }
        String::from_utf8(bytes).expect("ASCII lines mutate to ASCII")
    }

    #[test]
    fn a_failed_write_stops_appending() {
        // `/dev/full` accepts the open but fails every write with ENOSPC.
        let path = Path::new("/dev/full");
        if !path.exists() {
            return;
        }
        let mut log = AppendLog::open(path, IoDomain::Checkpoint, false).expect("open /dev/full");
        assert!(!log.append("{}"), "the write cannot reach the file");
        assert!(!log.is_open(), "a failed write stops appending");
        assert!(!log.append("{}"));
    }
}
