//! The traced runner call: the benchmark replays, from the library's public
//! functions, the synth → fingerprint → simcache → sim calls the runner
//! makes for one `(network, machine)` run, timing each, then makes the real
//! runner call and checks that both agree layer by layer.
//!
//! `runner.self_ms` is the runner call's wall time minus the replayed
//! parts, so parts + self equals the call's wall time by construction.

use ant_bench::checkpoint::RunCheckpoint;
use ant_bench::fingerprint::{Fingerprint, KeyBuilder};
use ant_bench::runner::{
    try_simulate_network_parallel, try_simulate_network_parallel_checkpointed, ExperimentConfig,
    LayerCheckpoint, NetworkResult, RunOptions,
};
use ant_bench::serve::JobSpec;
use ant_bench::simcache;
use ant_conv::efficiency::TrainingPhase;
use ant_nn::trace::ConvPair;
use ant_sim::accelerator::STARTUP_CYCLES;
use ant_sim::cache::{CacheKey, MODEL_VERSION};
use ant_sim::{AntError, ConvSim, SimScratch, SimStats};
use ant_sparse::CsrMatrix;
use ant_workloads::synth::synthesize_layer;
use ant_workloads::{ConvLayerSpec, NetworkModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Tracer;

/// A simulated machine with the names the benchmark records it under.
pub struct Machine {
    /// Short key used in metric names (`ant`, `scnn`, `gospa`, ...).
    pub key: &'static str,
    /// Name in the sweepd machine registry (`scnn+` for SCNN+).
    pub registry: &'static str,
    /// Span around its pair simulations, and counters of pairs and errors.
    names: [&'static str; 3],
    /// The machine.
    pub pe: Box<dyn ConvSim + Send + Sync>,
}

/// Per machine: registry name, key, then its span and counter names.
const MACHINES: [(&str, &str, [&str; 3]); 6] = [
    ("ant", "ant", ["sim.ant", "sim.ant.pairs", "sim.ant.errors"]),
    (
        "scnn+",
        "scnn",
        ["sim.scnn", "sim.scnn.pairs", "sim.scnn.errors"],
    ),
    (
        "gospa",
        "gospa",
        ["sim.gospa", "sim.gospa.pairs", "sim.gospa.errors"],
    ),
    ("dst", "dst", ["sim.dst", "sim.dst.pairs", "sim.dst.errors"]),
    (
        "dadiannao",
        "dadiannao",
        [
            "sim.dadiannao",
            "sim.dadiannao.pairs",
            "sim.dadiannao.errors",
        ],
    ),
    (
        "tensordash",
        "tensordash",
        [
            "sim.tensordash",
            "sim.tensordash.pairs",
            "sim.tensordash.errors",
        ],
    ),
];

/// Every machine key, in metric order.
pub fn machine_keys() -> impl Iterator<Item = &'static str> {
    MACHINES.into_iter().map(|(_, key, _)| key)
}

impl Machine {
    /// Builds a machine by its sweepd registry name.
    pub fn from_registry(registry: &str) -> Machine {
        let (registry, key, names) = MACHINES
            .into_iter()
            .find(|(r, _, _)| *r == registry)
            .expect("a sweepd registry machine");
        Machine {
            key,
            registry,
            names,
            pe: JobSpec::build_machine(registry).expect("registry machine builds"),
        }
    }
}

/// A [`KeyBuilder`] that also counts the bytes it absorbs (each field is
/// an 8-byte length prefix plus its payload).
struct CountingKey {
    key: KeyBuilder,
    bytes: u64,
}

impl CountingKey {
    fn new() -> Self {
        CountingKey {
            key: KeyBuilder::new(),
            bytes: 0,
        }
    }

    fn u64(&mut self, v: u64) {
        self.key.write_u64(v);
        self.bytes += 16;
    }

    fn str(&mut self, s: &str) {
        self.key.write_str(s);
        self.bytes += 8 + s.len() as u64;
    }

    fn csr(&mut self, m: &CsrMatrix) {
        self.key.write_csr(m);
        let words = 3 + m.row_ptr().len() + m.col_idx().len();
        self.bytes += 16 * words as u64 + 12 * m.values().len() as u64;
    }
}

/// The runner's pre-synthesis memo key for one layer.
fn memo_key(id: &str, layer: &ConvLayerSpec, li: usize, cfg: &ExperimentConfig) -> CountingKey {
    let mut k = CountingKey::new();
    k.str("ant-simcache-synth");
    k.u64(u64::from(MODEL_VERSION));
    k.str(id);
    Fingerprint::of(cfg).write_to(&mut k.key);
    k.bytes += 6 * 16;
    k.u64(li as u64);
    k.str(&layer.name);
    for dim in [
        layer.out_channels,
        layer.in_channels,
        layer.kernel_h,
        layer.kernel_w,
        layer.input_h,
        layer.input_w,
        layer.stride,
        layer.padding,
        layer.count,
    ] {
        k.u64(dim as u64);
    }
    k
}

/// One synthesized layer: per phase, its sampled pairs and the distinct
/// resident-image count bounding the start-up charge.
pub struct LayerWork {
    scale: f64,
    phases: [(TrainingPhase, Vec<ConvPair>, u64); 3],
}

/// Synthesizes layer `li` exactly as the runner does (same seed
/// derivation, same phase order).
pub fn synthesize(
    layer: &ConvLayerSpec,
    li: usize,
    cfg: &ExperimentConfig,
) -> Result<LayerWork, AntError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (li as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let synth = synthesize_layer(layer, &cfg.sparsity, cfg.max_channels, &mut rng);
    let in_images = synth.trace.in_channels() as u64;
    let out_images = synth.trace.out_channels() as u64;
    Ok(LayerWork {
        scale: synth.channel_scale * layer.count as f64,
        phases: [
            (
                TrainingPhase::Forward,
                synth.trace.forward_pairs()?,
                in_images,
            ),
            (
                TrainingPhase::Backward,
                synth.trace.backward_pairs()?,
                out_images,
            ),
            (
                TrainingPhase::Update,
                synth.trace.update_pairs()?,
                in_images,
            ),
        ],
    })
}

/// The runner's content key for one synthesized layer.
fn content_key(id: &str, work: &LayerWork) -> CountingKey {
    let mut k = CountingKey::new();
    k.str("ant-simcache-content");
    k.u64(u64::from(MODEL_VERSION));
    k.str(id);
    k.u64(work.scale.to_bits());
    for (phase, pairs, distinct_images) in &work.phases {
        k.str(phase.paper_name());
        k.u64(*distinct_images);
        k.u64(pairs.len() as u64);
        for pair in pairs {
            for dim in [
                pair.shape.kernel_h(),
                pair.shape.kernel_w(),
                pair.shape.image_h(),
                pair.shape.image_w(),
                pair.shape.stride(),
                pair.shape.dilation(),
            ] {
                k.u64(dim as u64);
            }
            k.csr(&pair.kernel);
            k.csr(&pair.image);
        }
    }
    k
}

/// The runner's sampled-to-full-layer accounting for one phase.
pub fn finalize(mut raw: SimStats, distinct_images: u64, scale: f64) -> SimStats {
    raw.startup_cycles = raw.startup_cycles.min(STARTUP_CYCLES * distinct_images);
    raw.cycles.startup = raw.startup_cycles;
    raw.scaled_f64(scale)
}

fn count_key(tracer: &mut Tracer, key: CountingKey) -> CacheKey {
    tracer.add("fingerprint.keys", 1.0);
    tracer.add("fingerprint.bytes", key.bytes as f64);
    key.key.finish()
}

fn count_lookup(tracer: &mut Tracer, hit: bool) {
    tracer.add("simcache.lookups", 1.0);
    tracer.add("simcache.hits", f64::from(u8::from(hit)));
}

/// Times the runner's checkpoint writes from inside the runner call.
struct TimedCheckpoint<'a, 'b> {
    inner: &'a mut RunCheckpoint<'b>,
    tracer: &'a mut Tracer,
}

impl LayerCheckpoint for TimedCheckpoint<'_, '_> {
    fn lookup(&self, layer_index: usize, layer_name: &str) -> Option<[SimStats; 3]> {
        self.inner.lookup(layer_index, layer_name)
    }

    fn record(
        &mut self,
        layer_index: usize,
        layer_name: &str,
        phases: &[SimStats; 3],
        clean: bool,
    ) {
        let span = self.tracer.begin("checkpoint.record");
        self.inner.record(layer_index, layer_name, phases, clean);
        self.tracer.end(span);
        self.tracer.add("checkpoint.records", 1.0);
    }
}

/// What one traced call produced.
pub struct Traced {
    /// The runner's result.
    pub result: NetworkResult,
    /// Whether the replayed per-layer stats equal the runner's.
    pub replay_matches: bool,
}

/// One traced `(network, machine)` run: the replayed parts, then the real
/// runner call with `opts`, then the replayed cache writes. Spans: a
/// `call` span holding the parts and a `runner` span, whose own children
/// are the runner's checkpoint writes.
pub fn traced_call(
    tracer: &mut Tracer,
    m: &Machine,
    net: &NetworkModel,
    cfg: &ExperimentConfig,
    opts: &RunOptions,
    ckpt: Option<&mut RunCheckpoint<'_>>,
) -> Result<Traced, AntError> {
    let pe = m.pe.as_ref();
    let call = tracer.begin("call");
    // The runner consults the cache only when it is on and the machine has
    // an identity; with the environment cleared, chaos and detail tracing
    // are off.
    let cache_id = if simcache::enabled() {
        pe.cache_identity()
    } else {
        None
    };
    let mut scratch = SimScratch::new();
    let mut replayed: Vec<[SimStats; 3]> = Vec::with_capacity(net.layers.len());
    let mut writes: Vec<(CacheKey, CacheKey, [SimStats; 3])> = Vec::new();
    for (li, layer) in net.layers.iter().enumerate() {
        if let Some(prior) = ckpt.as_deref().and_then(|c| c.lookup(li, &layer.name)) {
            replayed.push(prior);
            continue;
        }
        let mut memo = None;
        if let Some(id) = cache_id.as_deref() {
            let key = tracer.time("fingerprint", || memo_key(id, layer, li, cfg));
            let key = count_key(tracer, key);
            let hit = tracer.time("simcache.lookup", || simcache::lookup_memo(&key));
            count_lookup(tracer, hit.is_some());
            if let Some(phases) = hit {
                replayed.push(phases);
                continue;
            }
            memo = Some(key);
        }
        let work = tracer.time("synth", || synthesize(layer, li, cfg))?;
        tracer.add("synth.layers", 1.0);
        let pairs: usize = work.phases.iter().map(|(_, p, _)| p.len()).sum();
        tracer.add("synth.pairs", pairs as f64);
        let mut content = None;
        if let Some(id) = cache_id.as_deref() {
            let key = tracer.time("fingerprint", || content_key(id, &work));
            let key = count_key(tracer, key);
            let hit = tracer.time("simcache.lookup", || simcache::lookup(&key));
            count_lookup(tracer, hit.is_some());
            if let Some(phases) = hit {
                // The runner then associates the memo key with the entry.
                writes.extend(memo.map(|s| (s, key, phases)));
                replayed.push(phases);
                continue;
            }
            content = Some(key);
        }
        let mut phases = [SimStats::default(); 3];
        let mut clean = true;
        for (pi, (_, pairs, distinct_images)) in work.phases.iter().enumerate() {
            let mut raw = SimStats::default();
            let mut emulate: Vec<&ConvPair> = pairs.iter().collect();
            if cache_id.is_some() {
                let before = emulate.len();
                tracer.time("sim.analytic", || {
                    emulate.retain(
                        |p| match pe.analytic_conv_pair(&p.kernel, &p.image, &p.shape) {
                            Some(stats) => {
                                raw.accumulate(&stats);
                                false
                            }
                            None => true,
                        },
                    )
                });
                tracer.add("sim.analytic.pairs", (before - emulate.len()) as f64);
            }
            let [span, pairs_counter, errors_counter] = m.names;
            let errors = tracer.time(span, || {
                let mut errors = 0u64;
                for p in &emulate {
                    match pe.try_simulate_conv_pair(&p.kernel, &p.image, &p.shape, &mut scratch) {
                        Ok(stats) => raw.accumulate(&stats),
                        Err(_) => errors += 1,
                    }
                }
                errors
            });
            tracer.add(pairs_counter, emulate.len() as f64);
            tracer.add(errors_counter, errors as f64);
            clean &= errors == 0;
            phases[pi] = finalize(raw, *distinct_images, work.scale);
        }
        // Only clean layers enter the cache.
        if let (Some(s), Some(c), true) = (memo, content, clean) {
            writes.push((s, c, phases));
        }
        replayed.push(phases);
    }

    let allocs = ant_obs::alloc::snapshot();
    let runner = tracer.begin("runner");
    let result = match ckpt {
        Some(inner) => {
            let mut timed = TimedCheckpoint {
                inner,
                tracer: &mut *tracer,
            };
            try_simulate_network_parallel_checkpointed(pe, net, cfg, opts, &mut timed)
        }
        None => try_simulate_network_parallel(pe, net, cfg, opts),
    };
    tracer.end(runner);
    crate::layers::record_alloc(tracer, &allocs);
    if !writes.is_empty() {
        tracer.time("simcache.record", || {
            for (synth, content, phases) in &writes {
                simcache::record(*synth, *content, phases);
            }
        });
        tracer.add("simcache.records", writes.len() as f64);
    }
    tracer.end(call);

    // The parts are the call's children other than the runner span plus
    // the runner span's own children (its checkpoint writes).
    let runner_ns = tracer.spans[runner].dur_ns();
    let parts_ns = tracer.spans[call].dur_ns() - tracer.self_ns(call) - tracer.self_ns(runner);
    tracer.add("runner.self_ns", runner_ns as f64 - parts_ns as f64);
    tracer.add("runner.parts_ns", parts_ns as f64);

    let result = result?;
    tracer.add("runner.calls", 1.0);
    tracer.add("runner.cache_hits", result.cache_hits as f64);
    tracer.add("runner.analytic_pairs", result.analytic_pairs as f64);
    tracer.add("runner.pair_retries", result.failures.retries as f64);
    tracer.add("runner.quarantined", result.failures.failures.len() as f64);
    let busy: u64 = result.workers.iter().map(|w| w.busy_ns).sum();
    let wall: u64 = result.workers.iter().map(|w| w.wall_ns).sum();
    let idle: u64 = result.workers.iter().map(|w| w.idle_ns).sum();
    tracer.add("runner.worker_busy_ns", busy as f64);
    tracer.add("runner.worker_wall_ns", wall as f64);
    tracer.add("runner.worker_idle_ns", idle as f64);
    let replay_matches = result.per_layer.len() == replayed.len()
        && result
            .per_layer
            .iter()
            .zip(&replayed)
            .all(|(layer, phases)| layer.phases == *phases);
    Ok(Traced {
        result,
        replay_matches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_bench::simcache::CacheOverride;

    fn tiny() -> NetworkModel {
        JobSpec::parse(r#"{"tenant":"t","model":"tiny","machines":["ant"],"sparsities":[0.9]}"#)
            .expect("spec")
            .build_model()
    }

    #[test]
    fn parts_plus_self_equal_the_runner_call_and_replay_matches() {
        simcache::set_override(CacheOverride::Off);
        let m = Machine::from_registry("ant");
        let cfg = ExperimentConfig::paper_default();
        let opts = RunOptions {
            threads: Some(1),
            telemetry: Some(true),
            progress: Some(false),
            ..RunOptions::default()
        };
        let mut tracer = Tracer::new(std::time::Instant::now());
        let traced = traced_call(&mut tracer, &m, &tiny(), &cfg, &opts, None).expect("runs");
        assert!(traced.replay_matches);
        assert!(!traced.result.partial);
        let runner = tracer
            .spans
            .iter()
            .position(|s| s.name == "runner")
            .expect("runner span");
        let parts: u64 = [
            "synth",
            "fingerprint",
            "simcache.lookup",
            "simcache.record",
            "sim.ant",
            "sim.analytic",
        ]
        .iter()
        .flat_map(|name| tracer.spans.iter().filter(move |s| s.name == *name))
        .map(|s| s.dur_ns())
        .sum();
        assert_eq!(tracer.counter("runner.parts_ns"), parts as f64);
        assert_eq!(
            tracer.counter("runner.parts_ns") + tracer.counter("runner.self_ns"),
            tracer.spans[runner].dur_ns() as f64
        );
        assert_eq!(tracer.counter("synth.layers"), 2.0);
        assert!(tracer.counter("sim.ant.pairs") > 0.0);
    }
}
