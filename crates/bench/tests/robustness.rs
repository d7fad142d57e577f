//! Degradation and recovery behaviour of the hardened runner: bad configs
//! come back as typed errors, degenerate worker counts run inline, and a
//! checkpointed sweep resumes byte-identically.

use ant_bench::checkpoint::CheckpointFile;
use ant_bench::runner::{
    simulate_network, try_simulate_network_parallel, try_simulate_network_parallel_checkpointed,
    ExperimentConfig, NetworkResult, RunOptions,
};
use ant_sim::scnn::ScnnPlus;
use ant_sim::AntError;
use ant_workloads::{ConvLayerSpec, NetworkModel};

fn tiny_net() -> NetworkModel {
    NetworkModel {
        name: "robust-tiny",
        layers: vec![
            ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
            ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
        ],
    }
}

fn assert_same_result(a: &NetworkResult, b: &NetworkResult, label: &str) {
    assert_eq!(a.total, b.total, "{label}");
    assert_eq!(a.wall_cycles, b.wall_cycles, "{label}");
    for ((pa, sa), (pb, sb)) in a.per_phase.iter().zip(b.per_phase.iter()) {
        assert_eq!(pa, pb, "{label}");
        assert_eq!(sa, sb, "{label}");
    }
    assert_eq!(a.per_layer.len(), b.per_layer.len(), "{label}");
    for (la, lb) in a.per_layer.iter().zip(b.per_layer.iter()) {
        assert_eq!(la.stats, lb.stats, "{label} layer {}", la.name);
    }
}

#[test]
fn zero_threads_degrades_to_inline_serial() {
    let cfg = ExperimentConfig::paper_default();
    let net = tiny_net();
    let pe = ScnnPlus::paper_default();
    let serial = simulate_network(&pe, &net, &cfg);
    let opts = RunOptions {
        threads: Some(0),
        ..RunOptions::default()
    };
    let zero = try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("valid config");
    assert_same_result(&serial, &zero, "threads=0");
    assert!(!zero.partial);
}

#[test]
fn empty_network_and_empty_result_are_valid() {
    let cfg = ExperimentConfig::paper_default();
    let net = NetworkModel {
        name: "empty",
        layers: vec![],
    };
    let pe = ScnnPlus::paper_default();
    let result = try_simulate_network_parallel(&pe, &net, &cfg, &RunOptions::default())
        .expect("empty network is valid");
    assert_eq!(result.per_layer.len(), 0);
    assert_eq!(result.total, ant_sim::SimStats::default());
    assert!(result.failures.is_clean());
}

#[test]
fn invalid_configs_come_back_as_typed_errors() {
    let net = tiny_net();
    let pe = ScnnPlus::paper_default();
    let opts = RunOptions::default();

    let mut zero_pes = ExperimentConfig::paper_default();
    zero_pes.num_pes = 0;
    let err = try_simulate_network_parallel(&pe, &net, &zero_pes, &opts).unwrap_err();
    assert!(
        matches!(
            err,
            AntError::InvalidConfig {
                param: "num_pes",
                ..
            }
        ),
        "{err}"
    );

    let mut bad_sparsity = ExperimentConfig::paper_default();
    bad_sparsity.sparsity.weight = 1.5;
    let err = try_simulate_network_parallel(&pe, &net, &bad_sparsity, &opts).unwrap_err();
    assert!(
        matches!(
            err,
            AntError::InvalidConfig {
                param: "sparsity.weight",
                ..
            }
        ),
        "{err}"
    );

    let cfg = ExperimentConfig::paper_default();
    let bad_layer = NetworkModel {
        name: "bad",
        layers: vec![ConvLayerSpec::new("l0", 4, 2, 0, 16, 1, 1, 1)],
    };
    let err = try_simulate_network_parallel(&pe, &bad_layer, &cfg, &opts).unwrap_err();
    assert!(
        matches!(err, AntError::InvalidConfig { param: "layer", .. }),
        "{err}"
    );
}

#[test]
fn watchdog_budget_leaves_results_bit_identical() {
    let cfg = ExperimentConfig::paper_default();
    let net = tiny_net();
    let pe = ScnnPlus::paper_default();
    let serial = simulate_network(&pe, &net, &cfg);
    // A generous budget exercises the watchdog thread without flagging
    // anything; the watchdog observes, never perturbs.
    let opts = RunOptions {
        threads: Some(2),
        pair_budget_us: Some(60_000_000),
        ..RunOptions::default()
    };
    let watched = try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("watched run");
    assert_same_result(&serial, &watched, "watchdog");
    assert!(watched.failures.slow.is_empty());
}

#[test]
fn checkpointed_sweep_resumes_byte_identically() {
    let cfg = ExperimentConfig::paper_default();
    let net = tiny_net();
    let pe = ScnnPlus::paper_default();
    let opts = RunOptions::default();
    let serial = simulate_network(&pe, &net, &cfg);
    let mut path = std::env::temp_dir();
    path.push(format!("ant-robustness-ckpt-{}.jsonl", std::process::id()));

    // First pass: everything simulates, every layer persists.
    {
        let mut file = CheckpointFile::create(&path, &cfg).expect("create checkpoint");
        let mut scope = file.scope(net.name, "SCNN+");
        let first = try_simulate_network_parallel_checkpointed(&pe, &net, &cfg, &opts, &mut scope)
            .expect("checkpointed run");
        assert_same_result(&serial, &first, "checkpointed first pass");
    }

    // Second pass resumes every layer from disk — no synthesis, no
    // simulation — and must still merge byte-identically.
    let mut file = CheckpointFile::resume(&path, &cfg).expect("resume checkpoint");
    assert_eq!(file.resumable_layers(), net.layers.len());
    assert_eq!(file.ignored_lines(), 0);
    let mut scope = file.scope(net.name, "SCNN+");
    let resumed = try_simulate_network_parallel_checkpointed(&pe, &net, &cfg, &opts, &mut scope)
        .expect("resumed run");
    assert_same_result(&serial, &resumed, "resumed pass");
    drop(file);

    // A corrupted sidecar degrades to a partial resume, never a wrong
    // result: damaged lines are skipped and the layer re-simulates.
    let mut text = std::fs::read_to_string(&path).expect("read sidecar");
    text = text.replacen("\"phases\"", "\"phasez\"", 1);
    text.push_str("{\"schema\":\"something-else\"}\ngarbage\n");
    std::fs::write(&path, text).expect("corrupt sidecar");
    let mut file = CheckpointFile::resume(&path, &cfg).expect("resume corrupt checkpoint");
    assert_eq!(file.ignored_lines(), 3);
    assert_eq!(file.resumable_layers(), net.layers.len() - 1);
    let mut scope = file.scope(net.name, "SCNN+");
    let partial = try_simulate_network_parallel_checkpointed(&pe, &net, &cfg, &opts, &mut scope)
        .expect("partially resumed run");
    assert_same_result(&serial, &partial, "partially resumed pass");
    drop(file);
    std::fs::remove_file(&path).expect("cleanup");
}
