//! The redundancy observatory's ledger: per-(layer, phase, machine) RCP
//! attribution rows and the `ant-redundancy/1` JSONL sidecar.
//!
//! The runner already finalizes every layer's per-phase [`SimStats`](ant_sim::SimStats)
//! (see [`crate::runner::LayerStats::phases`]); the ledger derives one
//! [`RedundancyRow`] per (layer, phase) from them — counters via
//! [`ant_sim::RedundancyRecord`], the analytic paper-Eq. 6 efficiency from
//! the layer's phase shapes — and serializes the rows as JSONL with
//! sorted keys, one schema-tagged object per line. Because the rows are a
//! pure view over stats the run produced anyway, enabling the observatory
//! cannot perturb cycles or energy: fig09 stays byte-identical.
//!
//! Layers that had quarantined pair jobs are flagged `partial` — their
//! counters exclude the quarantined pairs' work (the runner never merged
//! it), so downstream consumers can keep or drop them explicitly.
//!
//! `obsctl redundancy` is the offline consumer; the
//! [`RedundancyLedger::record_metrics`] mirror feeds the live `/metrics`
//! exporter.

use std::fs;
use std::io;
use std::path::PathBuf;

use ant_conv::efficiency::{TrainingPhase, TrainingPhases};
use ant_sim::RedundancyRecord;
use ant_workloads::NetworkModel;

use crate::report::experiments_dir;
use crate::runner::NetworkResult;

/// Schema tag carried by every sidecar line.
pub const SCHEMA: &str = "ant-redundancy/1";

/// One (network, machine, layer, phase) redundancy-attribution row.
#[derive(Debug, Clone, PartialEq)]
pub struct RedundancyRow {
    /// Network label.
    pub network: String,
    /// Machine label.
    pub machine: String,
    /// Index of the layer in the network spec.
    pub layer_index: usize,
    /// Layer name from the spec.
    pub layer: String,
    /// Which training-phase convolution the row attributes.
    pub phase: TrainingPhase,
    /// Derived redundancy counters for this scope.
    pub record: RedundancyRecord,
    /// Paper Eq. 6 analytic dense outer-product efficiency of this phase's
    /// convolution shape (`H_out*W_out / (H*W)`), when the shape is
    /// constructible from the spec.
    pub eq6_efficiency: Option<f64>,
    /// True when quarantined pair jobs left this layer's counters
    /// incomplete.
    pub partial: bool,
}

impl RedundancyRow {
    /// Serializes the row as one `ant-redundancy/1` JSON object with
    /// sorted keys (diff-stable sidecars, like the manifest sections).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(360);
        out.push('{');
        let r = &self.record;
        push_u64(&mut out, "effectual_macs", r.effectual_macs);
        push_f64(&mut out, "efficiency", r.efficiency());
        match self.eq6_efficiency {
            Some(eq6) => push_f64(&mut out, "eq6_efficiency", eq6),
            None => push_raw(&mut out, "eq6_efficiency", "null"),
        }
        push_u64(&mut out, "false_negatives", r.false_negatives());
        push_str(&mut out, "layer", &self.layer);
        push_u64(&mut out, "layer_index", self.layer_index as u64);
        push_str(&mut out, "machine", &self.machine);
        push_u64(&mut out, "mults", r.mults);
        push_str(&mut out, "network", &self.network);
        push_u64(&mut out, "pairs_total", r.pairs_total);
        push_raw(
            &mut out,
            "partial",
            if self.partial { "true" } else { "false" },
        );
        push_str(&mut out, "phase", self.phase.paper_name());
        push_f64(&mut out, "rcps_avoided_fraction", r.rcps_avoided_fraction());
        push_u64(&mut out, "rcps_executed", r.rcps_executed);
        push_u64(&mut out, "rcps_skipped", r.rcps_skipped);
        push_u64(&mut out, "rcps_total", r.rcps_total());
        push_str(&mut out, "schema", SCHEMA);
        push_u64(&mut out, "sram_reads", r.sram_reads);
        push_u64(&mut out, "sram_writes", r.sram_writes);
        push_f64(&mut out, "window_tightness", r.window_tightness());
        out.push('}');
        out
    }
}

fn push_key(out: &mut String, key: &str) {
    if out.len() > 1 {
        out.push(',');
    }
    ant_obs::json::write_json_string(key, out);
    out.push(':');
}

fn push_u64(out: &mut String, key: &str, value: u64) {
    push_key(out, key);
    out.push_str(&value.to_string());
}

fn push_f64(out: &mut String, key: &str, value: f64) {
    push_key(out, key);
    if value.is_finite() {
        out.push_str(&format!("{value}"));
    } else {
        out.push_str("null");
    }
}

fn push_str(out: &mut String, key: &str, value: &str) {
    push_key(out, key);
    ant_obs::json::write_json_string(value, out);
}

fn push_raw(out: &mut String, key: &str, raw: &str) {
    push_key(out, key);
    out.push_str(raw);
}

/// Collects redundancy rows across a sweep and writes the sidecar.
#[derive(Debug, Clone, Default)]
pub struct RedundancyLedger {
    rows: Vec<RedundancyRow>,
}

impl RedundancyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attributes one simulated network: one row per (layer, phase) from
    /// the result's finalized per-phase layer stats. `net` must be the
    /// spec `result` was simulated from (it supplies the phase shapes for
    /// the analytic Eq. 6 column).
    pub fn add_network(&mut self, result: &NetworkResult, net: &NetworkModel) {
        let failed: std::collections::BTreeSet<usize> = result
            .failures
            .failures
            .iter()
            .map(|f| f.layer_index)
            .collect();
        for layer in &result.per_layer {
            let shapes = net.layers.get(layer.index).and_then(|spec| {
                TrainingPhases::for_layer(
                    spec.kernel_h,
                    spec.kernel_w,
                    spec.input_h,
                    spec.input_w,
                    spec.stride,
                    spec.padding,
                )
                .ok()
            });
            let phases = [
                TrainingPhase::Forward,
                TrainingPhase::Backward,
                TrainingPhase::Update,
            ];
            for (phase, stats) in phases.into_iter().zip(layer.phases.iter()) {
                self.rows.push(RedundancyRow {
                    network: result.network.to_string(),
                    machine: result.machine.to_string(),
                    layer_index: layer.index,
                    layer: layer.name.clone(),
                    phase,
                    record: RedundancyRecord::from_stats(stats),
                    eq6_efficiency: shapes
                        .as_ref()
                        .map(|s| s.shape(phase).outer_product_efficiency()),
                    partial: failed.contains(&layer.index),
                });
            }
        }
    }

    /// All rows, in insertion (network, layer, phase) order.
    pub fn rows(&self) -> &[RedundancyRow] {
        &self.rows
    }

    /// Number of rows collected.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the ledger holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Integer sum of every row's counters (the aggregate the manifest
    /// mirrors and `obsctl redundancy --json` must reproduce).
    pub fn totals(&self) -> RedundancyRecord {
        let mut totals = RedundancyRecord::default();
        for row in &self.rows {
            totals.accumulate(&row.record);
        }
        totals
    }

    /// The JSONL sidecar body: one schema-tagged object per row.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.rows.len() * 360);
        for row in &self.rows {
            out.push_str(&row.to_json());
            out.push('\n');
        }
        out
    }

    /// Writes the sidecar to `target/experiments/<name>.redundancy.jsonl`
    /// and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&self, name: &str) -> io::Result<PathBuf> {
        let dir = experiments_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.redundancy.jsonl"));
        fs::write(&path, self.to_jsonl())?;
        Ok(path)
    }

    /// Mirrors the headline fractions and aggregate counters into the
    /// process-wide registry as gauges (idempotent), so the embedded
    /// `/metrics` exporter serves them: per machine
    /// `redundancy.<machine>.{rcps_avoided_fraction,window_tightness,efficiency}`
    /// plus run-wide `redundancy.{rcps_total,rcps_executed,rcps_skipped}`.
    pub fn record_metrics(&self) {
        let registry = ant_obs::registry();
        let totals = self.totals();
        registry
            .gauge("redundancy.rcps_total")
            .set(totals.rcps_total() as f64);
        registry
            .gauge("redundancy.rcps_executed")
            .set(totals.rcps_executed as f64);
        registry
            .gauge("redundancy.rcps_skipped")
            .set(totals.rcps_skipped as f64);
        let mut machines: Vec<&str> = self.rows.iter().map(|r| r.machine.as_str()).collect();
        machines.sort_unstable();
        machines.dedup();
        for machine in machines {
            let mut agg = RedundancyRecord::default();
            for row in self.rows.iter().filter(|r| r.machine == machine) {
                agg.accumulate(&row.record);
            }
            registry
                .gauge(&format!("redundancy.{machine}.rcps_avoided_fraction"))
                .set(agg.rcps_avoided_fraction());
            registry
                .gauge(&format!("redundancy.{machine}.window_tightness"))
                .set(agg.window_tightness());
            registry
                .gauge(&format!("redundancy.{machine}.efficiency"))
                .set(agg.efficiency());
        }
    }

    /// Mirrors the aggregate RCP counters into an experiment manifest's
    /// stats section (`rcps_total`/`rcps_executed`/`rcps_skipped` plus the
    /// row count) — the values CI cross-checks against
    /// `obsctl redundancy --json`.
    pub fn record_manifest_stats(&self, manifest: &mut ant_obs::RunManifest) {
        let totals = self.totals();
        manifest.stat("rcps_total", totals.rcps_total());
        manifest.stat("rcps_executed", totals.rcps_executed);
        manifest.stat("rcps_skipped", totals.rcps_skipped);
        manifest.stat("redundancy_rows", self.rows.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{simulate_network, ExperimentConfig};
    use ant_obs::json::Json;
    use ant_sim::ant::AntAccelerator;
    use ant_sim::scnn::ScnnPlus;
    use ant_workloads::ConvLayerSpec;

    fn tiny_net() -> NetworkModel {
        NetworkModel {
            name: "tiny",
            layers: vec![
                ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
                ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
            ],
        }
    }

    fn tiny_ledger() -> (RedundancyLedger, NetworkResult, NetworkResult) {
        let cfg = ExperimentConfig::paper_default();
        let net = tiny_net();
        let scnn = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let ant = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
        let mut ledger = RedundancyLedger::new();
        ledger.add_network(&scnn, &net);
        ledger.add_network(&ant, &net);
        (ledger, scnn, ant)
    }

    #[test]
    fn ledger_covers_every_layer_phase_machine() {
        let (ledger, scnn, ant) = tiny_ledger();
        assert_eq!(ledger.len(), 2 * 2 * 3);
        // Rows sum exactly to the network totals across both machines.
        let totals = ledger.totals();
        let expected_executed = scnn.total.rcps_executed + ant.total.rcps_executed;
        let expected_skipped = scnn.total.rcps_skipped + ant.total.rcps_skipped;
        assert_eq!(totals.rcps_executed, expected_executed);
        assert_eq!(totals.rcps_skipped, expected_skipped);
        assert_eq!(
            totals.sram_reads,
            scnn.total.sram_reads() + ant.total.sram_reads()
        );
        assert!(ledger.rows().iter().all(|r| !r.partial));
    }

    #[test]
    fn rows_are_schema_tagged_sorted_key_json() {
        let (ledger, _, _) = tiny_ledger();
        for line in ledger.to_jsonl().lines() {
            let doc = ant_obs::parse_json(line).expect("valid JSON");
            assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
            // executed + skipped == total on every row.
            let get = |k: &str| doc.get(k).and_then(Json::as_u64).expect(k);
            assert_eq!(
                get("rcps_executed") + get("rcps_skipped"),
                get("rcps_total")
            );
            // Keys appear in sorted order in the raw line.
            let keys: Vec<&str> = line
                .split('"')
                .enumerate()
                .filter_map(|(i, s)| (i % 2 == 1).then_some(s))
                .filter(|s| line.contains(&format!("\"{s}\":")))
                .collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted, "unsorted keys in {line}");
        }
    }

    #[test]
    fn eq6_matches_shape_for_forward_phase() {
        let (ledger, _, _) = tiny_ledger();
        let row = ledger
            .rows()
            .iter()
            .find(|r| r.layer == "l1" && r.phase == TrainingPhase::Forward)
            .expect("l1 forward row");
        let shapes = TrainingPhases::for_layer(3, 3, 16, 16, 1, 1).unwrap();
        let expected = shapes
            .shape(TrainingPhase::Forward)
            .outer_product_efficiency();
        assert_eq!(row.eq6_efficiency, Some(expected));
    }

    #[test]
    fn manifest_mirror_matches_totals() {
        let (ledger, _, _) = tiny_ledger();
        let mut manifest = ant_obs::RunManifest::new("redundancy-test");
        ledger.record_manifest_stats(&mut manifest);
        let json = manifest.to_json();
        let doc = ant_obs::parse_json(&json).expect("manifest JSON");
        let stats = doc.get("stats").expect("stats section");
        let totals = ledger.totals();
        assert_eq!(
            stats.get("rcps_total").and_then(Json::as_u64),
            Some(totals.rcps_total())
        );
        assert_eq!(
            stats.get("rcps_skipped").and_then(Json::as_u64),
            Some(totals.rcps_skipped)
        );
        assert_eq!(
            stats.get("redundancy_rows").and_then(Json::as_u64),
            Some(ledger.len() as u64)
        );
    }
}
