//! Cross-crate integration: simulator machines vs each other and vs the
//! analytical models, on real workload geometries.

use std::cell::{Cell, RefCell};

use ant_bench::report::{geomean, percent, ratio};
use ant_bench::runner::{
    energy_ratio, pair_jobs, simulate_matmul_layers, simulate_network, simulate_network_parallel,
    speedup, try_simulate_network_parallel, ExperimentConfig, RunOptions,
};
use ant_bench::NetworkResult;
use ant_conv::matmul::MatmulShape;
use ant_conv::ConvShape;
use ant_core::anticipator::{AntConfig, Anticipator};
use ant_sim::ant::AntAccelerator;
use ant_sim::inner::{DenseInnerProduct, TensorDash};
use ant_sim::scnn::ScnnPlus;
use ant_sim::{ConvSim, EnergyModel, MatmulSim, SimScratch, SimStats};
use ant_sparse::CsrMatrix;
use ant_workloads::models;
use ant_workloads::synth::{synthesize_matmul, LayerSparsity};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_cfg() -> ExperimentConfig {
    ExperimentConfig {
        max_channels: 2,
        ..ExperimentConfig::paper_default()
    }
}

/// ANT vs SCNN+ invariants on every paper network: identical useful work,
/// strictly fewer executed multiplications, wall-clock and energy wins at
/// 90% sparsity.
#[test]
fn ant_dominates_scnn_on_all_networks() {
    let cfg = small_cfg();
    let energy = EnergyModel::paper_7nm();
    for net in models::figure9_networks() {
        let s = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
        let a = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
        assert_eq!(a.total.useful_mults, s.total.useful_mults, "{}", net.name);
        assert!(a.total.mults < s.total.mults, "{}", net.name);
        assert!(speedup(&s, &a) > 1.0, "{}", net.name);
        assert!(energy_ratio(&s, &a, &energy) > 1.0, "{}", net.name);
        assert!(
            a.total.rcps_avoided_fraction() > 0.6,
            "{}: avoided {:.3}",
            net.name,
            a.total.rcps_avoided_fraction()
        );
    }
}

/// Section 7.7 ordering: ANT > TensorDash > dense inner product at 90%.
#[test]
fn machine_ordering_at_high_sparsity() {
    let cfg = small_cfg();
    let net = models::resnet18_cifar();
    let dense = simulate_network(&DenseInnerProduct::paper_default(), &net, &cfg);
    let td = simulate_network(&TensorDash::paper_default(), &net, &cfg);
    let ant = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
    assert!(td.wall_cycles < dense.wall_cycles);
    assert!(ant.wall_cycles < td.wall_cycles);
}

/// The update phase is where ANT's advantage concentrates.
#[test]
fn update_phase_carries_the_win() {
    let cfg = small_cfg();
    let net = models::wrn_16_8_cifar();
    let s = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
    let a = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
    let phase = |r: &ant_bench::NetworkResult, p| {
        r.per_phase
            .iter()
            .find(|(q, _)| *q == p)
            .expect("phase present")
            .1
    };
    use ant_conv::efficiency::TrainingPhase::*;
    let upd_saving = phase(&s, Update).mults as f64 / phase(&a, Update).mults.max(1) as f64;
    let fwd_saving = phase(&s, Forward).mults as f64 / phase(&a, Forward).mults.max(1) as f64;
    assert!(
        upd_saving > 2.0 * fwd_saving,
        "update saving {upd_saving:.2} vs forward {fwd_saving:.2}"
    );
}

/// Multi-PE wall-clock: 64 PEs are ~64x faster than 1 PE under perfect load
/// balancing.
#[test]
fn perfect_load_balance_scaling() {
    let net = models::NetworkModel {
        name: "one-layer",
        layers: vec![ant_workloads::ConvLayerSpec::new("l", 4, 4, 3, 16, 1, 1, 1)],
    };
    let run = |num_pes| {
        let cfg = ExperimentConfig {
            sparsity: LayerSparsity::uniform(0.8),
            num_pes,
            ..ExperimentConfig::paper_default()
        };
        try_simulate_network_parallel(
            &ScnnPlus::paper_default(),
            &net,
            &cfg,
            &RunOptions::default(),
        )
        .expect("valid config")
    };
    let (one, many) = (run(1), run(64));
    assert_eq!(one.total, many.total);
    assert_eq!(one.wall_cycles, one.total.total_cycles());
    assert_eq!(many.wall_cycles, many.total.total_cycles().div_ceil(64));
}

/// Matmul machines agree on useful work across the Table 3 geometries.
#[test]
fn matmul_machines_agree_on_useful_work() {
    for spec in models::transformer_matmuls()
        .into_iter()
        .chain(models::rnn_matmuls())
    {
        let shape: MatmulShape = spec.shape();
        let mut rng = StdRng::seed_from_u64(17);
        let (image, kernel) = synthesize_matmul(&shape, 0.9, 0.9, &mut rng);
        let s = ScnnPlus::paper_default().simulate_matmul_pair(&image, &kernel, &shape);
        let a = AntAccelerator::paper_default().simulate_matmul_pair(&image, &kernel, &shape);
        assert_eq!(s.useful_mults, a.useful_mults, "{}", spec.name);
        assert!(a.mults <= s.mults, "{}", spec.name);
        assert!(
            a.rcps_avoided_fraction() > 0.95,
            "{}: {:.4}",
            spec.name,
            a.rcps_avoided_fraction()
        );
    }
}

/// Energy accounting is consistent: ANT saves SRAM traffic as well as
/// multiplications (the Fig. 7 mechanism).
#[test]
fn ant_saves_sram_traffic() {
    let cfg = small_cfg();
    let net = models::resnet18_cifar();
    let s = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
    let a = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
    assert!(a.total.kernel_value_reads < s.total.kernel_value_reads);
    assert!(a.total.sram_reads() < s.total.sram_reads());
}

/// The accumulator-bank observer sees exactly the useful products: summing
/// per-cycle output counts equals the useful multiplication counter, and a
/// 1-bank accumulator's stall cycles equal `useful - mult_cycles_with_work`.
#[test]
fn observer_accounts_for_every_useful_product() {
    use ant_core::anticipator::{AntConfig, Anticipator};
    use ant_sim::accum::AccumulatorBanks;
    let shape = ant_conv::ConvShape::new(8, 8, 12, 12, 1).unwrap();
    let mut rng = StdRng::seed_from_u64(77);
    let kernel = ant_sparse::CsrMatrix::from_dense(&ant_sparse::sparsify::random_with_sparsity(
        8, 8, 0.6, &mut rng,
    ));
    let image = ant_sparse::CsrMatrix::from_dense(&ant_sparse::sparsify::random_with_sparsity(
        12, 12, 0.6, &mut rng,
    ));
    let ant = Anticipator::new(AntConfig::paper_default());
    let mut seen = 0u64;
    let mut cycles_with_work = 0u64;
    let banks = AccumulatorBanks::new(1);
    let mut serialized = 0u64;
    let run = ant
        .run_conv_observed(&kernel, &image, &shape, |outputs| {
            seen += outputs.len() as u64;
            if !outputs.is_empty() {
                cycles_with_work += 1;
            }
            serialized += banks.conflict_cycles(outputs);
        })
        .unwrap();
    assert_eq!(seen, run.counters.useful);
    // One bank serializes everything: conflicts = useful - productive cycles.
    assert_eq!(serialized, seen - cycles_with_work);
}

/// Determinism: the same config and seed reproduce identical results across
/// machines and runs.
#[test]
fn experiments_are_reproducible() {
    let cfg = small_cfg();
    let net = models::vgg16_cifar();
    let a1 = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
    let a2 = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
    assert_eq!(a1.total, a2.total);
    assert_eq!(a1.wall_cycles, a2.wall_cycles);
}

/// Golden numbers: a pinned mini-experiment guards the whole pipeline
/// (synthesis -> pair decomposition -> machines) against silent behavioural
/// drift. StdRng (the workspace's deterministic xoshiro256** stand-in) is
/// stable across platforms, so these counters are exact.
#[test]
fn golden_mini_experiment() {
    let cfg = ExperimentConfig {
        sparsity: LayerSparsity::uniform(0.9),
        max_channels: 2,
        num_pes: 64,
        seed: 0xA17,
    };
    let net = ant_workloads::NetworkModel {
        name: "golden",
        layers: vec![ant_workloads::ConvLayerSpec::new("l", 4, 4, 3, 16, 1, 1, 1)],
    };
    let s = simulate_network(&ScnnPlus::paper_default(), &net, &cfg);
    let a = simulate_network(&AntAccelerator::paper_default(), &net, &cfg);
    // Useful work is identical by construction; pin it plus each machine's
    // executed multiplications.
    assert_eq!(s.total.useful_mults, a.total.useful_mults);
    let golden = (s.total.mults, a.total.mults, s.total.useful_mults);
    assert_eq!(
        golden,
        (11648, 3352, 1148),
        "pipeline behaviour drifted: got {golden:?}"
    );
}

/// The paper's headline numbers, pinned. The Fig. 9 grid runs at the
/// paper configuration through the parallel runner, SCNN+ then ANT per
/// network, exactly as the `fig09_speedup_energy` and `tab05_rcps_avoided`
/// binaries call it.
///
/// Each row is (quantity, paper, reproduced, tolerance): the geomeans
/// within 2.5% of the paper, the Table 5 average within 1.5 points. The
/// wall cycles are pinned exactly as `fig09_speedup_energy.csv` prints them,
/// so a host-side change that moves any simulated count fails here.
#[test]
fn fig09_and_table5_match_the_paper() {
    let cfg = ExperimentConfig::paper_default();
    let energy = EnergyModel::paper_7nm();
    let opts = RunOptions::default();
    let expected_cycles: [(&str, u64, u64); 5] = [
        ("DenseNet-121/CIFAR", 2_600_389, 443_152),
        ("ResNet18/CIFAR", 457_365, 218_356),
        ("VGG16/CIFAR", 173_861, 113_320),
        ("WRN-16-8/CIFAR", 1_248_902, 412_563),
        ("ResNet50/ImageNet", 26_849_909, 2_286_335),
    ];
    let nets = models::figure9_networks();
    assert_eq!(nets.len(), expected_cycles.len());
    let (mut speedups, mut energies, mut avoided) = (Vec::new(), Vec::new(), Vec::new());
    for (net, (name, scnn_cycles, ant_cycles)) in nets.iter().zip(expected_cycles) {
        let s = try_simulate_network_parallel(&ScnnPlus::paper_default(), net, &cfg, &opts)
            .expect("SCNN+ run");
        let a = try_simulate_network_parallel(&AntAccelerator::paper_default(), net, &cfg, &opts)
            .expect("ANT run");
        assert_eq!(net.name, name);
        assert!(!s.partial && !a.partial, "{name}: partial result");
        assert_eq!(
            (s.wall_cycles, a.wall_cycles),
            (scnn_cycles, ant_cycles),
            "{name}: (SCNN+, ANT) wall cycles drifted"
        );
        speedups.push(speedup(&s, &a));
        energies.push(energy_ratio(&s, &a, &energy));
        avoided.push(100.0 * a.total.rcps_avoided_fraction());
    }
    let (geo_speedup, geo_energy) = (geomean(&speedups), geomean(&energies));
    let average_avoided = avoided.iter().sum::<f64>() / avoided.len() as f64;
    let relative = |paper: f64, got: f64| (got - paper).abs() / paper;
    let rows = [
        (
            "Fig. 9 geomean speedup",
            3.71,
            geo_speedup,
            relative(3.71, geo_speedup),
            0.025,
        ),
        (
            "Fig. 9 geomean energy reduction",
            4.40,
            geo_energy,
            relative(4.40, geo_energy),
            0.025,
        ),
        (
            "Table 5 average RCPs avoided (%)",
            90.3,
            average_avoided,
            (average_avoided - 90.3).abs(),
            1.5,
        ),
    ];
    for (quantity, paper, reproduced, off_by, tolerance) in rows {
        assert!(
            off_by <= tolerance,
            "{quantity}: paper {paper}, reproduced {reproduced:.3}, off by {off_by:.4} > {tolerance}"
        );
    }
    // The reproduced values as the binaries print them (3.68x / 4.35x,
    // 91.0%), so a drift inside the tolerance is still noticed.
    assert_eq!(format!("{geo_speedup:.2}"), "3.68");
    assert_eq!(format!("{geo_energy:.2}"), "4.35");
    assert_eq!(format!("{average_avoided:.1}"), "91.0");
}

/// A machine that runs every pair it is handed through both of ANT's conv
/// paths, the functional `run_conv_with` and the counters-only
/// `run_conv_counters`, under the paper configuration and both Fig. 14
/// ablations, and records each pair whose counters differ.
#[derive(Debug, Default)]
struct BothAntPaths {
    pairs: Cell<u64>,
    mismatches: RefCell<Vec<String>>,
}

impl ConvSim for BothAntPaths {
    fn name(&self) -> &'static str {
        "ANT paths"
    }

    fn simulate_conv_pair_scratch(
        &self,
        kernel: &CsrMatrix,
        image: &CsrMatrix,
        shape: &ConvShape,
        scratch: &mut SimScratch,
    ) -> SimStats {
        let paper = AntConfig::paper_default();
        for config in [
            paper,
            AntConfig {
                use_s: false,
                ..paper
            },
            AntConfig {
                use_r: false,
                ..paper
            },
        ] {
            let ant = Anticipator::new(config);
            let functional = ant
                .run_conv_with(kernel, image, shape, &mut scratch.ant, |_| {})
                .expect("runner pairs match their shape");
            let counters = ant
                .run_conv_counters(kernel, image, shape, &mut scratch.ant)
                .expect("runner pairs match their shape");
            if counters != functional {
                self.mismatches.borrow_mut().push(format!(
                    "{shape} with {config:?}: {counters:?} != {functional:?}"
                ));
            }
        }
        self.pairs.set(self.pairs.get() + 1);
        SimStats::default()
    }
}

/// ANT's counters-only pair path reproduces the functional path's counters
/// on every pair ResNet18/CIFAR synthesizes at the paper seed, under the
/// paper configuration and both ablations.
#[test]
fn ant_counters_path_matches_the_functional_path_on_resnet18() {
    let check = BothAntPaths::default();
    let jobs = pair_jobs(
        &check,
        &models::resnet18_cifar(),
        &ExperimentConfig::paper_default(),
    );
    // Every sampled pair of the network's three phases, as Fig. 9 runs it.
    assert_eq!(check.pairs.get(), jobs.len() as u64);
    assert_eq!(jobs.len(), 516);
    let mismatches = check.mismatches.borrow();
    assert!(
        mismatches.is_empty(),
        "{} of {} pairs differ, first: {}",
        mismatches.len(),
        jobs.len(),
        mismatches[0]
    );
}

/// ANT at one array size and FNIR window against an SCNN+ result `s`, run
/// as the Fig. 12 and Fig. 13 binaries run them: (speedup, energy
/// reduction) over SCNN+.
fn ant_over(s: &NetworkResult, n: usize, k: usize, cfg: &ExperimentConfig) -> (f64, f64) {
    let ant = AntAccelerator::new(AntConfig {
        n,
        k,
        ..AntConfig::paper_default()
    });
    let a = simulate_network_parallel(&ant, &models::resnet18_cifar(), cfg);
    (
        speedup(s, &a),
        energy_ratio(s, &a, &EnergyModel::paper_7nm()),
    )
}

/// Fig. 12, pinned: ANT beats SCNN+ of the same array size at 4x4, 6x6 and
/// 8x8 (k = 4n), and every value is the one `fig12_multiplier_sweep`
/// prints.
#[test]
fn fig12_ant_wins_at_every_array_size() {
    let cfg = ExperimentConfig::paper_default();
    let expected = [
        (4, "2.09x", "2.74x"),
        (6, "1.54x", "2.45x"),
        (8, "1.33x", "2.29x"),
    ];
    for (n, printed_speedup, printed_energy) in expected {
        let s = simulate_network_parallel(&ScnnPlus::new(n), &models::resnet18_cifar(), &cfg);
        let (sp, en) = ant_over(&s, n, 4 * n, &cfg);
        assert!(
            sp > 1.0 && en > 1.0,
            "{n}x{n}: paper has ANT ahead, got {sp:.3}x / {en:.3}x"
        );
        assert_eq!(
            (ratio(sp), ratio(en)),
            (printed_speedup.to_string(), printed_energy.to_string()),
            "{n}x{n}"
        );
    }
}

/// Fig. 13, pinned: on the 4x4 array ANT beats SCNN+ at every `k >= 8`,
/// and `k = 4` (no FNIR slack, so feedback never fires) is the slowest
/// window at both 90% and 50% sparsity. Every value is the one
/// `fig13_fnir_sweep` prints.
#[test]
fn fig13_k4_bottlenecks_the_fnir_scan() {
    let dense = ExperimentConfig {
        sparsity: LayerSparsity::uniform(0.5),
        ..ExperimentConfig::paper_default()
    };
    let sweeps = [
        (
            ExperimentConfig::paper_default(),
            [
                ("2.02x", "2.81x"),
                ("2.08x", "2.77x"),
                ("2.09x", "2.74x"),
                ("2.09x", "2.73x"),
            ],
        ),
        (
            dense,
            [
                ("4.68x", "4.63x"),
                ("5.50x", "4.46x"),
                ("5.86x", "4.25x"),
                ("5.93x", "4.00x"),
            ],
        ),
    ];
    for (cfg, expected) in sweeps {
        let s =
            simulate_network_parallel(&ScnnPlus::paper_default(), &models::resnet18_cifar(), &cfg);
        let runs: Vec<(f64, f64)> = [4, 8, 16, 32].map(|k| ant_over(&s, 4, k, &cfg)).to_vec();
        for (&(sp, _), k) in runs[1..].iter().zip([8, 16, 32]) {
            assert!(sp > runs[0].0, "k = {k} must beat the k = 4 bottleneck");
            assert!(sp > 1.0, "k = {k}: paper has ANT ahead of SCNN+");
        }
        for ((sp, en), (printed_speedup, printed_energy)) in runs.into_iter().zip(expected) {
            assert_eq!(
                (ratio(sp), ratio(en)),
                (printed_speedup.to_string(), printed_energy.to_string())
            );
        }
    }
}

/// Fig. 14, pinned: both conditions together are 1.06x faster than `r`
/// alone in the paper (reproduced 1.04x, within 0.03), `r` is the dominant
/// condition, and each condition alone beats SCNN+ on cycles. Every value
/// is the one `fig14_ablation` prints.
#[test]
fn fig14_both_conditions_beat_r_alone() {
    let cfg = ExperimentConfig::paper_default();
    let net = models::resnet18_cifar();
    let energy = EnergyModel::paper_7nm();
    let s = simulate_network_parallel(&ScnnPlus::paper_default(), &net, &cfg);
    let paper = AntConfig::paper_default();
    let variants = [
        (
            AntConfig {
                use_s: false,
                ..paper
            },
            ["2.02x", "2.52x", "84.6%"],
        ),
        (
            AntConfig {
                use_r: false,
                ..paper
            },
            ["1.25x", "0.93x", "31.5%"],
        ),
        (paper, ["2.09x", "2.74x", "88.9%"]),
    ];
    let mut speedups = Vec::new();
    for (config, printed) in variants {
        let a = simulate_network_parallel(&AntAccelerator::new(config), &net, &cfg);
        let sp = speedup(&s, &a);
        assert!(sp > 1.0, "{config:?}: each condition alone beats SCNN+");
        assert_eq!(
            [
                ratio(sp),
                ratio(energy_ratio(&s, &a, &energy)),
                percent(a.total.rcps_avoided_fraction()),
            ],
            printed.map(String::from),
            "{config:?}"
        );
        speedups.push(sp);
    }
    let (r_only, s_only, both) = (speedups[0], speedups[1], speedups[2]);
    assert!(r_only > s_only, "r is the dominant condition");
    let both_over_r = both / r_only;
    assert!(
        (both_over_r - 1.06).abs() <= 0.03,
        "both / r-only: paper 1.06x, reproduced {both_over_r:.3}x"
    );
    assert_eq!(ratio(both_over_r), "1.04x");
}

/// Sec. 7.8, pinned: the paper has ANT eliminate over 99% of matmul RCPs
/// at 0%, 50% and 90% sparsity. The transformer meets that; the RNN's
/// small contracted dimension reads 98.1% at 90%, so its tolerance is one
/// point. Every value is the one `sec78_transformer_rnn` prints.
#[test]
fn sec78_ant_eliminates_nearly_all_matmul_rcps() {
    let ant = AntAccelerator::paper_default();
    let scnn = ScnnPlus::paper_default();
    let expected = [
        (
            "transformer",
            99.0,
            [
                ("100.0%", "292.00x"),
                ("100.0%", "277.20x"),
                ("99.9%", "230.99x"),
            ],
        ),
        (
            "RNN",
            98.0,
            [
                ("99.9%", "95.72x"),
                ("99.6%", "75.72x"),
                ("98.1%", "35.57x"),
            ],
        ),
    ];
    for ((name, specs), (expected_name, floor, printed)) in [
        ("transformer", models::transformer_matmuls()),
        ("RNN", models::rnn_matmuls()),
    ]
    .into_iter()
    .zip(expected)
    {
        assert_eq!(name, expected_name);
        for (sparsity, (printed_avoided, printed_cycles)) in
            [0.0, 0.5, 0.9].into_iter().zip(printed)
        {
            let a = simulate_matmul_layers(&ant, &specs, sparsity, 0x5ec78);
            let s = simulate_matmul_layers(&scnn, &specs, sparsity, 0x5ec78);
            let avoided = 100.0 * a.rcps_avoided_fraction();
            assert!(
                avoided >= floor,
                "{name} at {sparsity}: paper > 99%, reproduced {avoided:.2}% < {floor}%"
            );
            assert_eq!(
                (
                    percent(a.rcps_avoided_fraction()),
                    ratio(s.total_cycles() as f64 / a.total_cycles() as f64),
                ),
                (printed_avoided.to_string(), printed_cycles.to_string()),
                "{name} at {sparsity}"
            );
        }
    }
}
