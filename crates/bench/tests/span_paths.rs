//! Span paths do not depend on which thread runs the work: the runner's
//! spawned synthesis and simulation workers enter the caller's open spans,
//! so every span name has one path in a traced multi-threaded run.
//!
//! The trace sink is process-global, so this binary holds one `#[test]`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ant_bench::runner::{try_simulate_network_parallel, ExperimentConfig, RunOptions};
use ant_sim::ant::AntAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_workloads::models;

#[test]
fn a_traced_two_thread_run_has_one_path_per_span_name() {
    let (sink, memory) = ant_obs::Sink::in_memory();
    ant_obs::trace::install(Arc::new(sink), false);
    let cfg = ExperimentConfig {
        max_channels: 2,
        ..ExperimentConfig::paper_default()
    };
    let opts = RunOptions {
        threads: Some(2),
        ..RunOptions::default()
    };
    let net = models::resnet18_cifar();
    {
        let _root = ant_obs::span("experiment");
        // SCNN+ synthesizes the network; ANT's call is served from the
        // operand slot, as in the Fig. 9 sweep.
        try_simulate_network_parallel(&ScnnPlus::paper_default(), &net, &cfg, &opts).unwrap();
        try_simulate_network_parallel(&AntAccelerator::paper_default(), &net, &cfg, &opts).unwrap();
    }
    ant_obs::trace::uninstall();

    let mut paths: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for record in memory.parsed() {
        if record.get("kind").and_then(|k| k.as_str()) != Some("span") {
            continue;
        }
        let name = record.get("name").and_then(|n| n.as_str()).unwrap();
        let path = record.get("path").and_then(|p| p.as_str()).unwrap();
        paths
            .entry(name.to_string())
            .or_default()
            .insert(path.to_string());
    }
    for name in ["synthesize_layer", "derive_planes", "pair_worker"] {
        assert!(paths.contains_key(name), "no {name} span in {paths:?}");
    }
    for (name, set) in &paths {
        assert_eq!(set.len(), 1, "span {name} has several paths: {set:?}");
    }
    assert_eq!(
        paths["pair_worker"].iter().next().unwrap(),
        "experiment/network/pair_worker"
    );
}
