//! Per-layer metrics of a traced run, derived from its spans and counters.
//!
//! Counts and times are per op of the traced phase (one Fig. 9
//! regeneration, or one sweepd job); ratios and store sizes are not.

use crate::measure::Metrics;
use crate::replay::machine_keys;
use crate::trace::Tracer;

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runner.calls", "count"),
    ("runner.ms", "ms"),
    ("runner.self_ms", "ms"),
    ("runner.worker_idle_ms", "ms"),
    ("runner.worker_util", "ratio"),
    ("runner.cache_hits", "count"),
    ("runner.analytic_pairs", "count"),
    ("runner.pair_retries", "count"),
    ("runner.quarantined", "count"),
    ("synth.layers", "count"),
    ("synth.pairs", "count"),
    ("synth.ms", "ms"),
    ("sim.ant.pairs", "count"),
    ("sim.ant.ms", "ms"),
    ("sim.ant.ns_per_pair", "ns"),
    ("sim.ant.errors", "count"),
    ("sim.scnn.pairs", "count"),
    ("sim.scnn.ms", "ms"),
    ("sim.scnn.ns_per_pair", "ns"),
    ("sim.scnn.errors", "count"),
    ("sim.gospa.pairs", "count"),
    ("sim.gospa.ms", "ms"),
    ("sim.gospa.ns_per_pair", "ns"),
    ("sim.gospa.errors", "count"),
    ("sim.dst.pairs", "count"),
    ("sim.dst.ms", "ms"),
    ("sim.dst.ns_per_pair", "ns"),
    ("sim.dst.errors", "count"),
    ("sim.dadiannao.pairs", "count"),
    ("sim.dadiannao.ms", "ms"),
    ("sim.dadiannao.ns_per_pair", "ns"),
    ("sim.dadiannao.errors", "count"),
    ("sim.tensordash.pairs", "count"),
    ("sim.tensordash.ms", "ms"),
    ("sim.tensordash.ns_per_pair", "ns"),
    ("sim.tensordash.errors", "count"),
    ("sim.analytic.pairs", "count"),
    ("sim.analytic.ms", "ms"),
    ("model.ant.cycles", "cycles"),
    ("model.scnn.cycles", "cycles"),
    ("model.ant.rcps_avoided", "ratio"),
    ("model.ant.mult_efficiency", "ratio"),
    ("model.scnn.mult_efficiency", "ratio"),
    ("fingerprint.keys", "count"),
    ("fingerprint.mb", "MB"),
    ("fingerprint.ms", "ms"),
    ("simcache.open_ms", "ms"),
    ("simcache.entries_loaded", "count"),
    ("simcache.skipped", "count"),
    ("simcache.lookups", "count"),
    ("simcache.hits", "count"),
    ("simcache.hit_ratio", "ratio"),
    ("simcache.lookup_ms", "ms"),
    ("simcache.records", "count"),
    ("simcache.record_ms", "ms"),
    ("simcache.store_mb", "MB"),
    ("checkpoint.opens", "count"),
    ("checkpoint.open_ms", "ms"),
    ("checkpoint.resumed_layers", "count"),
    ("checkpoint.records", "count"),
    ("checkpoint.record_ms", "ms"),
    ("sidecar.writes", "count"),
    ("sidecar.kb", "KB"),
    ("sidecar.ms", "ms"),
    ("serve.post_ms.p50", "ms"),
    ("serve.poll_ms.p50", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.run_ms.p50", "ms"),
    ("serve.run_ms_per_cell", "ms"),
    ("serve.shed", "count"),
    ("serve.http_errors", "count"),
    ("serve.attempts_per_job", "count"),
    ("serve.spool_kb", "KB"),
    ("alloc.count_per_op", "count"),
    ("alloc.mb_per_op", "MB"),
    ("trace.op_ms.p50", "ms"),
    ("trace.untraced_op_ms.p50", "ms"),
    ("trace.overhead_pct", "%"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Records the modelled counters of one runner result (ANT and SCNN+ only).
pub fn record_model(tracer: &mut Tracer, machine: &str, result: &ant_bench::NetworkResult) {
    let names = match machine {
        "ant" => [
            "model.ant.calls",
            "model.ant.cycles",
            "model.ant.useful",
            "model.ant.mults",
        ],
        "scnn" => [
            "model.scnn.calls",
            "model.scnn.cycles",
            "model.scnn.useful",
            "model.scnn.mults",
        ],
        _ => return,
    };
    let t = &result.total;
    for (name, value) in names.into_iter().zip([
        1.0,
        result.wall_cycles as f64,
        t.useful_mults as f64,
        t.mults as f64,
    ]) {
        tracer.add(name, value);
    }
    if machine == "ant" {
        tracer.add("model.ant.rcps_skipped", t.rcps_skipped as f64);
        tracer.add("model.ant.rcps_total", t.rcps_total() as f64);
    }
}

/// Fills every [`PER_LAYER`] metric from a traced phase of `ops` ops.
/// Metrics a workload measures itself (`serve.*`, `trace.*`) start at 0
/// and are overwritten by the caller.
pub fn per_layer(t: &Tracer, ops: usize) -> Metrics {
    let ops = ops.max(1) as f64;
    let per_op = |v: f64| v / ops;
    let span_ms = |name: &str| t.total(name).1;
    let mut m = Metrics::default();
    for (name, unit) in PER_LAYER {
        m.set(*name, 0.0, unit);
    }
    let mut set = |name: &str, value: f64| {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("metric is listed in PER_LAYER");
        m.set(name, value, unit);
    };
    let c = |name: &str| t.counter(name);

    set("runner.calls", per_op(c("runner.calls")));
    set("runner.ms", per_op(span_ms("runner")));
    set("runner.self_ms", per_op(c("runner.self_ns") / 1e6));
    set(
        "runner.worker_idle_ms",
        per_op(c("runner.worker_idle_ns") / 1e6),
    );
    set(
        "runner.worker_util",
        ratio(c("runner.worker_busy_ns"), c("runner.worker_wall_ns")),
    );
    for name in [
        "runner.cache_hits",
        "runner.analytic_pairs",
        "runner.pair_retries",
        "runner.quarantined",
        "synth.layers",
        "synth.pairs",
        "sim.analytic.pairs",
        "fingerprint.keys",
        "simcache.lookups",
        "simcache.hits",
        "simcache.records",
        "checkpoint.opens",
        "checkpoint.resumed_layers",
        "checkpoint.records",
        "sidecar.writes",
    ] {
        set(name, per_op(c(name)));
    }
    set("synth.ms", per_op(span_ms("synth")));
    for key in machine_keys() {
        let pairs = c(&format!("sim.{key}.pairs"));
        let ms = span_ms(&format!("sim.{key}"));
        set(&format!("sim.{key}.pairs"), per_op(pairs));
        set(&format!("sim.{key}.ms"), per_op(ms));
        set(&format!("sim.{key}.ns_per_pair"), ratio(ms * 1e6, pairs));
        set(
            &format!("sim.{key}.errors"),
            per_op(c(&format!("sim.{key}.errors"))),
        );
    }
    set("sim.analytic.ms", per_op(span_ms("sim.analytic")));
    set(
        "model.ant.cycles",
        ratio(c("model.ant.cycles"), c("model.ant.calls")),
    );
    set(
        "model.scnn.cycles",
        ratio(c("model.scnn.cycles"), c("model.scnn.calls")),
    );
    set(
        "model.ant.rcps_avoided",
        ratio(c("model.ant.rcps_skipped"), c("model.ant.rcps_total")),
    );
    set(
        "model.ant.mult_efficiency",
        ratio(c("model.ant.useful"), c("model.ant.mults")),
    );
    set(
        "model.scnn.mult_efficiency",
        ratio(c("model.scnn.useful"), c("model.scnn.mults")),
    );
    set("fingerprint.mb", per_op(c("fingerprint.bytes") / 1e6));
    set("fingerprint.ms", per_op(span_ms("fingerprint")));
    let (opens, open_ms) = t.total("simcache.open");
    set("simcache.open_ms", ratio(open_ms, opens as f64));
    set(
        "simcache.entries_loaded",
        ratio(c("simcache.entries_loaded"), opens as f64),
    );
    set(
        "simcache.skipped",
        ratio(c("simcache.skipped"), opens as f64),
    );
    set(
        "simcache.hit_ratio",
        ratio(c("simcache.hits"), c("simcache.lookups")),
    );
    set("simcache.lookup_ms", per_op(span_ms("simcache.lookup")));
    set("simcache.record_ms", per_op(span_ms("simcache.record")));
    set("simcache.store_mb", c("simcache.store_bytes") / 1e6);
    set("checkpoint.open_ms", per_op(span_ms("checkpoint.open")));
    set("checkpoint.record_ms", per_op(span_ms("checkpoint.record")));
    set("sidecar.kb", per_op(c("sidecar.bytes") / 1e3));
    set("sidecar.ms", per_op(span_ms("sidecar")));
    set("alloc.count_per_op", per_op(c("alloc.count")));
    set("alloc.mb_per_op", per_op(c("alloc.bytes") / 1e6));
    m
}

/// Opens the process simcache (as the first call after `set_override`
/// does) inside a `simcache.open` span and records what it loaded.
pub fn open_simcache(tracer: &mut Tracer) {
    let allocs = ant_obs::alloc::snapshot();
    let stats = tracer.time("simcache.open", ant_bench::simcache::stats);
    record_alloc(tracer, &allocs);
    if let Some(s) = stats {
        tracer.add("simcache.entries_loaded", s.loaded as f64);
        tracer.add(
            "simcache.skipped",
            (s.skipped_corrupt + s.skipped_stale + s.skipped_poisoned) as f64,
        );
    }
}

/// Sets the traced/untraced latency comparison.
pub fn set_overhead(m: &mut Metrics, traced_p50: f64, untraced_p50: f64) {
    m.set("trace.op_ms.p50", traced_p50, "ms");
    m.set("trace.untraced_op_ms.p50", untraced_p50, "ms");
    m.set(
        "trace.overhead_pct",
        ratio(traced_p50 - untraced_p50, untraced_p50) * 100.0,
        "%",
    );
}

/// Counts the allocator traffic since `before` into the tracer.
pub fn record_alloc(tracer: &mut Tracer, before: &ant_obs::alloc::AllocStats) {
    let delta = ant_obs::alloc::snapshot().delta_from(before);
    tracer.add("alloc.count", delta.allocs as f64);
    tracer.add("alloc.bytes", delta.allocated_bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_metric_is_reported_once() {
        let t = Tracer::new(std::time::Instant::now());
        let m = per_layer(&t, 1);
        assert_eq!(m.0.len(), PER_LAYER.len(), "names are unique");
        for (name, _) in PER_LAYER {
            assert_eq!(m.0[*name].0, 0.0, "{name} is zero when nothing ran");
        }
    }
}
