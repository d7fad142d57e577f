//! The runner's operand slot: the most recent network's synthesized layers,
//! shared by the next call on the same (config, network). A wrong key would
//! serve one network's operands to another, and the benchmark's own output
//! check goes through the same slot, so these sequences compare every
//! parallel run with the serial reference, which synthesizes on its own.
//!
//! The slot and the chaos and cache overrides are process-global, so
//! everything lives in one `#[test]`.

use std::collections::HashMap;

use ant_bench::runner::{
    held_operand_layers, simulate_network, try_simulate_network_parallel,
    try_simulate_network_parallel_checkpointed, ExperimentConfig, LayerCheckpoint, NetworkResult,
    RunOptions,
};
use ant_bench::simcache::{self, CacheOverride, SimCacheConfig};
use ant_sim::ant::AntAccelerator;
use ant_sim::chaos::{self, ChaosConfig};
use ant_sim::scnn::ScnnPlus;
use ant_sim::{ConvSim, SimStats};
use ant_workloads::models;
use ant_workloads::synth::LayerSparsity;
use ant_workloads::NetworkModel;

fn assert_same(parallel: &NetworkResult, serial: &NetworkResult, label: &str) {
    assert!(!parallel.partial, "{label}: partial");
    assert_eq!(parallel.total, serial.total, "{label}");
    assert_eq!(parallel.wall_cycles, serial.wall_cycles, "{label}");
    assert_eq!(parallel.per_phase, serial.per_phase, "{label}");
    assert_eq!(parallel.per_layer.len(), serial.per_layer.len(), "{label}");
    for (p, s) in parallel.per_layer.iter().zip(&serial.per_layer) {
        assert_eq!((p.index, &p.name), (s.index, &s.name), "{label}");
        assert_eq!(p.phases, s.phases, "{label} layer {}", s.name);
    }
}

/// Resumes the even layers from a finished serial run.
struct EvenLayers<'a>(&'a NetworkResult);

impl LayerCheckpoint for EvenLayers<'_> {
    fn lookup(&self, layer_index: usize, _layer_name: &str) -> Option<[SimStats; 3]> {
        layer_index
            .is_multiple_of(2)
            .then(|| self.0.per_layer[layer_index].phases)
    }

    fn record(&mut self, _: usize, _: &str, _: &[SimStats; 3], _: bool) {}
}

#[test]
fn operand_slot_serves_exactly_its_own_key() {
    let scnn = ScnnPlus::paper_default();
    let ant = AntAccelerator::paper_default();
    let machines: [&(dyn ConvSim + Sync); 2] = [&scnn, &ant];
    let base = ExperimentConfig {
        max_channels: 2,
        ..ExperimentConfig::paper_default()
    };
    let reseeded = ExperimentConfig {
        seed: base.seed + 1,
        ..base
    };
    let sparser = ExperimentConfig {
        sparsity: LayerSparsity::uniform(0.95),
        ..base
    };
    let net_a = models::vgg16_cifar();
    let net_b = models::resnet18_cifar();
    let cases = [
        (&net_a, &base),
        (&net_b, &base),
        (&net_a, &reseeded),
        (&net_a, &sparser),
    ];
    let key = |m: usize, net: &NetworkModel, cfg: &ExperimentConfig| {
        (m, net.name, cfg.seed, cfg.sparsity.weight.to_bits())
    };
    let references: HashMap<_, NetworkResult> = (0..2)
        .flat_map(|m| cases.map(|(net, cfg)| (m, net, cfg)))
        .map(|(m, net, cfg)| (key(m, net, cfg), simulate_network(machines[m], net, cfg)))
        .collect();
    let serial =
        |m: usize, net: &NetworkModel, cfg: &ExperimentConfig| &references[&key(m, net, cfg)];

    for threads in [1, 2, 7] {
        let opts = RunOptions {
            threads: Some(threads),
            ..RunOptions::default()
        };
        let check = |m: usize, net: &NetworkModel, cfg: &ExperimentConfig, step: &str| {
            let run = try_simulate_network_parallel(machines[m], net, cfg, &opts).unwrap();
            let label = format!(
                "threads={threads} {step}: {} on {}",
                machines[m].name(),
                net.name
            );
            assert_same(&run, serial(m, net, cfg), &label);
            assert_eq!(held_operand_layers(net, cfg), net.layers.len(), "{label}");
        };

        // The same (config, network) on SCNN+ then ANT: the second call is
        // served from the slot.
        check(0, &net_a, &base, "same key");
        check(1, &net_a, &base, "same key");
        // Network A, then B, then A: the slot follows the latest network
        // and never holds two.
        check(0, &net_b, &base, "A, B");
        assert_eq!(held_operand_layers(&net_a, &base), 0);
        check(1, &net_a, &base, "A, B, A");
        assert_eq!(held_operand_layers(&net_b, &base), 0);
        // A sparsity change and a seed change, each alone, are new keys.
        check(0, &net_a, &sparser, "sparsity change");
        assert_eq!(held_operand_layers(&net_a, &base), 0);
        check(1, &net_a, &base, "sparsity change back");
        check(1, &net_a, &reseeded, "seed change");
        assert_eq!(held_operand_layers(&net_a, &base), 0);

        // A checkpoint-resumed call synthesizes only the layers it runs;
        // the full call after it synthesizes the rest.
        let reference = serial(1, &net_b, &base);
        let mut checkpoint = EvenLayers(reference);
        let resumed =
            try_simulate_network_parallel_checkpointed(&ant, &net_b, &base, &opts, &mut checkpoint)
                .unwrap();
        assert_same(&resumed, reference, &format!("threads={threads} resumed"));
        assert_eq!(
            held_operand_layers(&net_b, &base),
            net_b.layers.len() / 2,
            "threads={threads}: the resumed call holds its odd layers only"
        );
        check(0, &net_b, &base, "full after resumed");

        // A chaos run whose faults reject shapes and truncate CSR planes
        // quarantines pairs but never touches the shared operands: the
        // clean call after it matches the serial run.
        chaos::set_override(Some(ChaosConfig {
            truncate_prob: 0.2,
            shape_prob: 0.2,
            ..ChaosConfig::quiet(7)
        }));
        let chaotic = try_simulate_network_parallel(&scnn, &net_b, &base, &opts).unwrap();
        chaos::set_override(None);
        assert!(
            chaotic.partial,
            "threads={threads}: chaos quarantined nothing"
        );
        assert!(chaotic
            .failures
            .failures
            .iter()
            .all(|f| matches!(f.error.kind(), "sparse" | "shape" | "operand")));
        assert_eq!(held_operand_layers(&net_b, &base), net_b.layers.len());
        check(0, &net_b, &base, "clean after chaos");
        check(1, &net_b, &base, "clean after chaos");
    }

    // The memo key hashes a layer's index and dimensions, not its name.
    // With the cache on, ResNet18's `conv1` (index 0, 64x3x3x3 at 32x32)
    // is served by the entry DenseNet-121's `conv0` recorded just before,
    // so the slot holds every ResNet18 layer but that one.
    simcache::set_override(CacheOverride::On(SimCacheConfig::default()));
    let opts = RunOptions {
        threads: Some(2),
        ..RunOptions::default()
    };
    let densenet = models::densenet121_cifar();
    assert_eq!(densenet.layers[0].name, "conv0");
    try_simulate_network_parallel(&scnn, &densenet, &base, &opts).unwrap();
    let run = try_simulate_network_parallel(&scnn, &net_b, &base, &opts).unwrap();
    simcache::set_override(CacheOverride::Env);
    assert_eq!(run.cache_hits, 1, "only conv1 is served by the cache");
    assert_eq!(held_operand_layers(&net_b, &base), net_b.layers.len() - 1);
    assert_same(
        &run,
        serial(0, &net_b, &base),
        "conv1 served by conv0's entry",
    );
}
