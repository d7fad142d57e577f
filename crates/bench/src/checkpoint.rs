//! Checkpoint/resume sidecar for network sweeps.
//!
//! Long sweeps (many networks x many machines) periodically persist each
//! completed layer's finalized per-phase stats to a JSONL sidecar. A
//! resumed run loads the sidecar, skips synthesis and simulation for every
//! layer already on disk, and merges the stored stats in serial layer
//! order — producing merged results byte-identical to an uninterrupted
//! run (per-layer RNG seeds derive from the layer index alone, so skipping
//! a layer cannot perturb its neighbours).
//!
//! One sidecar holds many runs: each line carries its `(network, machine)`
//! coordinates, a fingerprint of the experiment config and the
//! [`MODEL_VERSION`] it was simulated under. Lines whose fingerprint or
//! version does not match the current run are stale and ignored, as are
//! corrupt lines — a damaged checkpoint degrades to a partial resume,
//! never a wrong result. Layers that completed with quarantined pair
//! failures are *not* persisted, so a resumed run retries them. The line
//! payload and the append path are shared with the simulation cache
//! (`layer_log.rs`).

use std::collections::HashMap;
use std::path::Path;

use ant_obs::json::{write_json_string, Json};
use ant_sim::cache::MODEL_VERSION;
use ant_sim::chaos::IoDomain;
use ant_sim::{AntError, SimStats};

use crate::fingerprint::Fingerprint;
use crate::layer_log::{self, AppendLog};
use crate::runner::{ExperimentConfig, LayerCheckpoint};

/// Schema tag on every checkpoint line; bump on incompatible change.
pub const SCHEMA: &str = "ant-checkpoint/1";

type Key = (String, String, usize, String); // (network, machine, index, layer)

/// A JSONL checkpoint sidecar: loaded entries from previous runs plus an
/// append handle for this run's completed layers.
#[derive(Debug)]
pub struct CheckpointFile {
    fingerprint: Fingerprint,
    entries: HashMap<Key, [SimStats; 3]>,
    /// Stops appending after a failed write: the sweep keeps simulating,
    /// it just stops checkpointing.
    log: AppendLog,
    ignored: usize,
}

impl CheckpointFile {
    /// Starts a fresh checkpoint at `path` (truncating any existing file).
    pub fn create(path: impl AsRef<Path>, cfg: &ExperimentConfig) -> Result<Self, AntError> {
        Self::open(path.as_ref(), cfg, true)
    }

    /// Resumes from `path`: loads every usable line (corrupt or stale lines
    /// are skipped and counted, with one stderr warning), then reopens the
    /// file for appending. A missing file resumes nothing — identical to
    /// [`CheckpointFile::create`].
    pub fn resume(path: impl AsRef<Path>, cfg: &ExperimentConfig) -> Result<Self, AntError> {
        Self::open(path.as_ref(), cfg, false)
    }

    fn open(path: &Path, cfg: &ExperimentConfig, truncate: bool) -> Result<Self, AntError> {
        let fingerprint = Fingerprint::of(cfg);
        let mut entries = HashMap::new();
        let mut ignored = 0usize;
        if !truncate {
            layer_log::load(path, |line| match parse_line(line, &fingerprint) {
                Ok(Some((key, phases))) => {
                    entries.insert(key, phases);
                }
                Ok(None) | Err(_) => ignored += 1,
            })
            .map_err(|e| AntError::io(format!("read checkpoint {}", path.display()), &e))?;
        }
        if ignored > 0 {
            eprintln!(
                "ant-bench: checkpoint {}: ignored {ignored} stale or corrupt line(s)",
                path.display()
            );
        }
        let log = AppendLog::open(path, IoDomain::Checkpoint, truncate)
            .map_err(|e| AntError::io(format!("open checkpoint {}", path.display()), &e))?;
        Ok(Self {
            fingerprint,
            entries,
            log,
            ignored,
        })
    }

    /// Lines skipped while loading (corrupt, wrong schema, stale
    /// fingerprint, or another [`MODEL_VERSION`]).
    pub fn ignored_lines(&self) -> usize {
        self.ignored
    }

    /// Layer entries currently available for resume.
    pub fn resumable_layers(&self) -> usize {
        self.entries.len()
    }

    /// Scopes this file to one `(network, machine)` run; the returned view
    /// implements [`LayerCheckpoint`] for the runner.
    pub fn scope<'a>(&'a mut self, network: &str, machine: &str) -> RunCheckpoint<'a> {
        RunCheckpoint {
            file: self,
            network: network.to_string(),
            machine: machine.to_string(),
        }
    }
}

/// A [`CheckpointFile`] scoped to one `(network, machine)` run.
#[derive(Debug)]
pub struct RunCheckpoint<'a> {
    file: &'a mut CheckpointFile,
    network: String,
    machine: String,
}

impl RunCheckpoint<'_> {
    fn key(&self, layer_index: usize, layer_name: &str) -> Key {
        (
            self.network.clone(),
            self.machine.clone(),
            layer_index,
            layer_name.to_string(),
        )
    }
}

impl LayerCheckpoint for RunCheckpoint<'_> {
    fn lookup(&self, layer_index: usize, layer_name: &str) -> Option<[SimStats; 3]> {
        self.file
            .entries
            .get(&self.key(layer_index, layer_name))
            .copied()
    }

    fn record(
        &mut self,
        layer_index: usize,
        layer_name: &str,
        phases: &[SimStats; 3],
        clean: bool,
    ) {
        if !clean {
            // A layer with quarantined pair failures is partial; leaving it
            // out of the sidecar makes the resumed run retry it.
            return;
        }
        let key = self.key(layer_index, layer_name);
        let line = emit_line(&self.file.fingerprint, &key, phases);
        // Round-trip verify before persisting: `Json` numbers are `f64`,
        // so a counter above 2^53 would come back rounded. Better to drop
        // the entry (resume re-simulates the layer) than resume wrong.
        match parse_line(&line, &self.file.fingerprint) {
            Ok(Some((_, parsed))) if parsed == *phases => {}
            _ => {
                eprintln!(
                    "ant-bench: checkpoint: layer {layer_index} ({layer_name:?}) does not \
                     round-trip losslessly; not persisted"
                );
                return;
            }
        }
        self.file.log.append(&line);
        self.file.entries.insert(key, *phases);
    }
}

fn emit_line(fp: &Fingerprint, key: &Key, phases: &[SimStats; 3]) -> String {
    let (network, machine, layer_index, layer_name) = key;
    let [weight, activation, gradient] = fp.sparsity;
    let mut out = format!(
        "{{\"schema\":\"{SCHEMA}\",\"seed\":{},\"max_channels\":{},\"num_pes\":{},\
         \"sparsity\":[{weight},{activation},{gradient}],\"network\":",
        fp.seed, fp.max_channels, fp.num_pes
    );
    write_json_string(network, &mut out);
    out.push_str(",\"machine\":");
    write_json_string(machine, &mut out);
    out.push_str(&format!(",\"layer_index\":{layer_index},\"layer\":"));
    write_json_string(layer_name, &mut out);
    out.push_str(",\"phases\":");
    layer_log::write_phases(phases, &mut out);
    out.push_str(&format!(",\"version\":{MODEL_VERSION}}}"));
    out
}

/// Parses one checkpoint line. `Ok(None)` means the line is well-formed
/// but belongs to another experiment config or [`MODEL_VERSION`] (stale);
/// `Err` means the line is corrupt. A line without a version stamp was
/// written before lines carried one, under version 1.
fn parse_line(line: &str, expect: &Fingerprint) -> Result<Option<(Key, [SimStats; 3])>, AntError> {
    let bad = |reason: &str| AntError::corrupt("checkpoint", reason.to_string());
    let json =
        ant_obs::parse_json(line).map_err(|e| AntError::corrupt("checkpoint", e.to_string()))?;
    if json.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(bad("missing or unknown schema tag"));
    }
    let u64_field = |key: &str| {
        json.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| bad(&format!("missing integer field {key:?}")))
    };
    let str_field = |key: &str| {
        json.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| bad(&format!("missing string field {key:?}")))
    };
    let sparsity = json
        .get("sparsity")
        .and_then(Json::as_array)
        .and_then(|items| items.iter().map(Json::as_f64).collect::<Option<Vec<_>>>())
        .and_then(|values| <[f64; 3]>::try_from(values).ok())
        .ok_or_else(|| bad("sparsity is not three numbers"))?;
    let fingerprint = Fingerprint {
        seed: u64_field("seed")?,
        max_channels: u64_field("max_channels")?,
        num_pes: u64_field("num_pes")?,
        sparsity,
    };
    let version = match json.get("version") {
        None => 1,
        Some(_) => u64_field("version")?,
    };
    if fingerprint != *expect || version != u64::from(MODEL_VERSION) {
        return Ok(None);
    }
    let key: Key = (
        str_field("network")?,
        str_field("machine")?,
        u64_field("layer_index")? as usize,
        str_field("layer")?,
    );
    let phases = layer_log::read_phases(json.get("phases")).map_err(bad)?;
    Ok(Some((key, phases)))
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "ant-checkpoint-test-{tag}-{}.jsonl",
            std::process::id()
        ));
        p
    }

    fn sample_stats(salt: u64) -> [SimStats; 3] {
        let mut phases = [SimStats::default(); 3];
        for (pi, stats) in phases.iter_mut().enumerate() {
            for (i, (name, _)) in SimStats::default().fields().iter().enumerate() {
                stats.set_field(name, salt + (pi as u64) * 100 + i as u64);
            }
        }
        phases
    }

    fn key(index: usize, layer: &str) -> Key {
        (
            "netA".to_string(),
            "ANT".to_string(),
            index,
            layer.to_string(),
        )
    }

    #[test]
    fn round_trips_through_the_sidecar() {
        let cfg = ExperimentConfig::paper_default();
        let path = temp_path("roundtrip");
        let phases = sample_stats(7);
        {
            let mut file = CheckpointFile::create(&path, &cfg).unwrap();
            let mut scope = file.scope("netA", "ANT");
            scope.record(0, "conv1", &phases, true);
            scope.record(1, "conv2", &sample_stats(9), false); // dirty: dropped
        }
        let mut resumed = CheckpointFile::resume(&path, &cfg).unwrap();
        assert_eq!(resumed.ignored_lines(), 0);
        assert_eq!(resumed.resumable_layers(), 1);
        let scope = resumed.scope("netA", "ANT");
        assert_eq!(scope.lookup(0, "conv1"), Some(phases));
        assert_eq!(scope.lookup(1, "conv2"), None);
        assert_eq!(scope.lookup(0, "other"), None);
        drop(resumed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_fingerprint_and_corrupt_lines_are_skipped() {
        let cfg = ExperimentConfig::paper_default();
        let path = temp_path("stale");
        {
            let mut file = CheckpointFile::create(&path, &cfg).unwrap();
            file.scope("netA", "ANT")
                .record(0, "conv1", &sample_stats(3), true);
        }
        // Append garbage plus a line from a different seed.
        let mut other = cfg;
        other.seed ^= 1;
        let stale = emit_line(&Fingerprint::of(&other), &key(1, "conv2"), &sample_stats(5));
        // And a line of this config simulated under another model version.
        let other_version = emit_line(&Fingerprint::of(&cfg), &key(2, "conv3"), &sample_stats(6))
            .replacen(
                &format!("\"version\":{MODEL_VERSION}}}"),
                &format!("\"version\":{}}}", MODEL_VERSION + 1),
                1,
            );
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not json at all\n");
        text.push_str(&stale);
        text.push('\n');
        text.push_str(&other_version);
        text.push('\n');
        std::fs::write(&path, text).unwrap();

        let resumed = CheckpointFile::resume(&path, &cfg).unwrap();
        assert_eq!(resumed.ignored_lines(), 3);
        assert_eq!(resumed.resumable_layers(), 1);
        drop(resumed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_counters_are_not_persisted() {
        let cfg = ExperimentConfig::paper_default();
        let path = temp_path("oversized");
        let mut phases = sample_stats(1);
        phases[0].pe_cycles = (1u64 << 53) + 1; // not representable in f64
        {
            let mut file = CheckpointFile::create(&path, &cfg).unwrap();
            file.scope("netA", "ANT").record(0, "conv1", &phases, true);
        }
        let resumed = CheckpointFile::resume(&path, &cfg).unwrap();
        assert_eq!(resumed.resumable_layers(), 0);
        drop(resumed);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fingerprint_wire_format_is_pinned() {
        // Sidecar files already on disk must keep resuming, so both the
        // emitted fingerprint prefix and the acceptance of a line without a
        // version stamp are pinned to literal bytes here. Breaking this
        // test means every existing checkpoint goes stale.
        let cfg = ExperimentConfig::paper_default();
        let line = emit_line(&Fingerprint::of(&cfg), &key(0, "conv1"), &sample_stats(7));
        assert!(
            line.starts_with(
                "{\"schema\":\"ant-checkpoint/1\",\"seed\":2583,\"max_channels\":4,\
                 \"num_pes\":64,\"sparsity\":[0.9,0.9,0.9],\"network\":\"netA\""
            ),
            "fingerprint prefix changed: {line}"
        );

        // A literal line as written before lines carried a version (empty
        // counters keep it short); it must still parse as resumable.
        let mut stored = String::from(
            "{\"schema\":\"ant-checkpoint/1\",\"seed\":2583,\"max_channels\":4,\
             \"num_pes\":64,\"sparsity\":[0.9,0.9,0.9],\"network\":\"netA\",\
             \"machine\":\"ANT\",\"layer_index\":0,\"layer\":\"conv1\",\"phases\":[",
        );
        for pi in 0..3 {
            if pi > 0 {
                stored.push(',');
            }
            stored.push('{');
            for (fi, (name, _)) in SimStats::default().fields().iter().enumerate() {
                if fi > 0 {
                    stored.push(',');
                }
                stored.push_str(&format!("\"{name}\":0"));
            }
            stored.push('}');
        }
        stored.push_str("]}");
        let parsed = parse_line(&stored, &Fingerprint::of(&cfg))
            .expect("unstamped line parses")
            .expect("unstamped line is current");
        assert_eq!(parsed.0, key(0, "conv1"));
        assert_eq!(parsed.1, [SimStats::default(); 3]);
    }

    #[test]
    fn mutated_lines_are_rejected_or_re_emit_exactly() {
        let cfg = ExperimentConfig::paper_default();
        let fp = Fingerprint::of(&cfg);
        let line = emit_line(&fp, &key(3, "conv4"), &sample_stats(7));
        let mut accepted = 0;
        for case in 0..2_000 {
            let mutant = layer_log::tests::mutant(&line, 0xC4EC, case);
            let Ok(Some((key, phases))) = parse_line(&mutant, &fp) else {
                continue;
            };
            accepted += 1;
            let again = parse_line(&emit_line(&fp, &key, &phases), &fp);
            assert_eq!(
                again.ok().flatten(),
                Some((key, phases)),
                "case {case}: {mutant}"
            );
        }
        // Flips inside counter digits and names keep some lines decodable.
        assert!(accepted > 0, "no mutant was accepted");
    }

    #[test]
    fn missing_file_resumes_nothing() {
        let cfg = ExperimentConfig::paper_default();
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        let resumed = CheckpointFile::resume(&path, &cfg).unwrap();
        assert_eq!(resumed.resumable_layers(), 0);
        assert_eq!(resumed.ignored_lines(), 0);
        drop(resumed);
        std::fs::remove_file(&path).unwrap();
    }
}
