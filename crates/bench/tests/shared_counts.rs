//! The parallel runner counts each pair's useful products at most once per
//! operand slot: the first pair job of a machine that reads counts stores
//! it, and every later machine call on the slot reads it instead of
//! recounting. The serial runner counts per machine call through the
//! provided pair method, so it is the independent reference: a stored count
//! that differs from the pair's exact count moves the machines that read it
//! away from the serial run. The inner-product machines, which read no
//! count, run first, so the slot they leave holds no counts yet.
//!
//! The operand slot is process-global, so everything lives in one
//! `#[test]`.

use ant_bench::runner::{
    held_operand_layers, simulate_network, try_simulate_network_parallel, ExperimentConfig,
    NetworkResult, RunOptions,
};
use ant_sim::ant::AntAccelerator;
use ant_sim::dst::DstAccelerator;
use ant_sim::inner::{DenseInnerProduct, TensorDash};
use ant_sim::intersection::IntersectionAccelerator;
use ant_sim::scnn::ScnnPlus;
use ant_sim::ConvSim;
use ant_workloads::models;

fn assert_same(parallel: &NetworkResult, serial: &NetworkResult, label: &str) {
    assert!(!parallel.partial, "{label}: partial");
    assert_eq!(parallel.total, serial.total, "{label}");
    assert_eq!(parallel.wall_cycles, serial.wall_cycles, "{label}");
    for (p, s) in parallel.per_layer.iter().zip(&serial.per_layer) {
        assert_eq!(p.phases, s.phases, "{label} layer {}", s.name);
    }
    assert_eq!(parallel.per_layer.len(), serial.per_layer.len(), "{label}");
}

#[test]
fn every_machine_on_one_operand_slot_matches_the_serial_reference() {
    let machines: [Box<dyn ConvSim + Sync>; 6] = [
        Box::new(DenseInnerProduct::paper_default()),
        Box::new(TensorDash::paper_default()),
        Box::new(ScnnPlus::paper_default()),
        Box::new(AntAccelerator::paper_default()),
        Box::new(IntersectionAccelerator::training_default()),
        Box::new(DstAccelerator::paper_default()),
    ];
    let cfg = ExperimentConfig {
        max_channels: 2,
        ..ExperimentConfig::paper_default()
    };
    let net = models::resnet18_cifar();
    let serial: Vec<NetworkResult> = machines
        .iter()
        .map(|m| simulate_network(m.as_ref(), &net, &cfg))
        .collect();
    // The four outer-product machines read the count: a run where every
    // pair's count were zero would not be a check of it.
    for (machine, reference) in machines.iter().zip(&serial) {
        if machine.reads_useful_count() {
            assert!(reference.total.useful_mults > 0, "{}", machine.name());
        }
    }
    for threads in [1, 3] {
        let opts = RunOptions {
            threads: Some(threads),
            ..RunOptions::default()
        };
        for (machine, reference) in machines.iter().zip(&serial) {
            let run = try_simulate_network_parallel(machine.as_ref(), &net, &cfg, &opts).unwrap();
            let label = format!("threads={threads}: {}", machine.name());
            assert_same(&run, reference, &label);
            // The first machine synthesized the network; every later one
            // ran on the slot it left.
            assert_eq!(held_operand_layers(&net, &cfg), net.layers.len(), "{label}");
        }
    }
}
