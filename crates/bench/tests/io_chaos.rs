//! Injected IO faults (`ANT_CHAOS` `torn=`/`enospc=`) against the
//! `ant-checkpoint/1` and `ant-simcache/1` writers.
//!
//! Pins the degradation contract: a torn write leaves a line that fails to
//! parse on reload (checkpoint entries re-simulate, cache entries miss), an
//! injected ENOSPC disables the writer with a counted warning, and in every
//! case the simulated results stay byte-identical to a fault-free run —
//! IO chaos degrades persistence, never correctness.
//!
//! Chaos and cache activation are process-global, so everything lives in
//! one `#[test]` (its own binary) to keep the windows from overlapping.

use ant_bench::checkpoint::CheckpointFile;
use ant_bench::runner::{
    simulate_network, try_simulate_network_parallel, try_simulate_network_parallel_checkpointed,
    ExperimentConfig, RunOptions,
};
use ant_bench::simcache::{self, CacheOverride, SimCacheConfig};
use ant_sim::chaos::{self, ChaosConfig};
use ant_sim::scnn::ScnnPlus;
use ant_workloads::{ConvLayerSpec, NetworkModel};

fn tiny_net() -> NetworkModel {
    NetworkModel {
        name: "io-chaos-tiny",
        layers: vec![
            ConvLayerSpec::new("l1", 4, 2, 3, 16, 1, 1, 1),
            ConvLayerSpec::new("l2", 4, 4, 3, 8, 1, 1, 2),
        ],
    }
}

fn torn_only(seed: u64) -> ChaosConfig {
    ChaosConfig {
        torn_prob: 1.0,
        ..ChaosConfig::quiet(seed)
    }
}

fn enospc_only(seed: u64) -> ChaosConfig {
    ChaosConfig {
        enospc_prob: 1.0,
        ..ChaosConfig::quiet(seed)
    }
}

#[test]
fn io_faults_degrade_to_fresh_runs_and_misses_never_wrong_results() {
    let cfg = ExperimentConfig::paper_default();
    let net = tiny_net();
    let pe = ScnnPlus::paper_default();
    let opts = RunOptions {
        threads: Some(2),
        ..RunOptions::default()
    };
    let baseline = simulate_network(&pe, &net, &cfg);
    let registry = ant_obs::registry();
    let tmp = std::env::temp_dir().join(format!("ant-io-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let ckpt_path = tmp.join("ckpt.jsonl");

    // --- Checkpoint torn writes -------------------------------------------
    // Every appended line is truncated on disk; the run itself is
    // unaffected, and a resume finds nothing usable so it re-simulates —
    // byte-identical to the uninterrupted baseline.
    let torn_before = registry.counter("checkpoint.io_torn").get();
    chaos::set_override(Some(torn_only(11)));
    let mut file = CheckpointFile::create(&ckpt_path, &cfg).expect("create checkpoint");
    let run = try_simulate_network_parallel_checkpointed(
        &pe,
        &net,
        &cfg,
        &opts,
        &mut file.scope(net.name, "SCNN+"),
    )
    .expect("torn-checkpoint run completes");
    chaos::set_override(None);
    drop(file);
    assert!(!run.partial, "IO faults must not taint the run");
    assert_eq!(run.total, baseline.total, "torn writes changed results");
    assert_eq!(
        registry.counter("checkpoint.io_torn").get() - torn_before,
        net.layers.len() as u64,
        "one torn write per recorded layer"
    );
    let mut resumed = CheckpointFile::resume(&ckpt_path, &cfg).expect("resume checkpoint");
    assert_eq!(resumed.resumable_layers(), 0, "torn lines must not resume");
    assert_eq!(resumed.ignored_lines(), net.layers.len());
    let rerun = try_simulate_network_parallel_checkpointed(
        &pe,
        &net,
        &cfg,
        &opts,
        &mut resumed.scope(net.name, "SCNN+"),
    )
    .expect("fresh rerun completes");
    assert_eq!(rerun.total, baseline.total, "degraded resume diverged");
    drop(resumed);

    // --- Checkpoint ENOSPC -------------------------------------------------
    // The first append hits the injected ENOSPC and disables checkpointing;
    // the sweep continues and later records are silently skipped (exactly
    // one counted fault), leaving an empty-but-valid sidecar.
    let enospc_before = registry.counter("checkpoint.io_enospc").get();
    chaos::set_override(Some(enospc_only(12)));
    let mut file = CheckpointFile::create(&ckpt_path, &cfg).expect("recreate checkpoint");
    let run = try_simulate_network_parallel_checkpointed(
        &pe,
        &net,
        &cfg,
        &opts,
        &mut file.scope(net.name, "SCNN+"),
    )
    .expect("enospc-checkpoint run completes");
    chaos::set_override(None);
    drop(file);
    assert_eq!(run.total, baseline.total, "ENOSPC changed results");
    assert_eq!(
        registry.counter("checkpoint.io_enospc").get() - enospc_before,
        1,
        "writer must disable after the first injected ENOSPC"
    );
    let resumed = CheckpointFile::resume(&ckpt_path, &cfg).expect("resume after ENOSPC");
    assert_eq!(resumed.resumable_layers(), 0);
    assert_eq!(
        resumed.ignored_lines(),
        0,
        "ENOSPC must not corrupt the file"
    );
    drop(resumed);

    // --- Simcache torn writes ----------------------------------------------
    // Every persisted cache line is truncated. The in-process entries stay
    // exact; a fresh activation (reload from disk) skips every torn line as
    // corrupt, so the warm run degrades to all-misses — and still matches
    // the baseline byte for byte.
    let cache_dir = tmp.join("cache-torn");
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");
    let torn_before = registry.counter("simcache.io_torn").get();
    simcache::set_override(CacheOverride::On(SimCacheConfig {
        dir: Some(cache_dir.clone()),
    }));
    chaos::set_override(Some(torn_only(13)));
    let cold = try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("cold run completes");
    chaos::set_override(None);
    assert_eq!(cold.total, baseline.total);
    assert_eq!(cold.cache_misses, net.layers.len() as u64);
    assert_eq!(
        registry.counter("simcache.io_torn").get() - torn_before,
        net.layers.len() as u64
    );
    let stats = simcache::stats().expect("cache active");
    assert_eq!(
        stats.entries,
        net.layers.len(),
        "in-memory entries stay exact"
    );
    assert_eq!(stats.dropped_writes, net.layers.len());
    // Fresh activation: reload from the torn file.
    simcache::set_override(CacheOverride::On(SimCacheConfig {
        dir: Some(cache_dir.clone()),
    }));
    let warm = try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("warm run completes");
    let stats = simcache::stats().expect("cache active");
    assert_eq!(stats.loaded, 0, "torn lines must not load");
    assert_eq!(stats.skipped_corrupt, net.layers.len());
    assert_eq!(warm.cache_hits, 0, "degraded cache must miss");
    assert_eq!(warm.cache_misses, net.layers.len() as u64);
    assert_eq!(warm.total, baseline.total, "degraded warm run diverged");

    // --- Simcache ENOSPC ---------------------------------------------------
    // The first persist disables the writer; the cache keeps serving from
    // memory and the on-disk store just stays empty.
    let cache_dir = tmp.join("cache-enospc");
    std::fs::create_dir_all(&cache_dir).expect("create cache dir");
    let enospc_before = registry.counter("simcache.io_enospc").get();
    simcache::set_override(CacheOverride::On(SimCacheConfig {
        dir: Some(cache_dir.clone()),
    }));
    chaos::set_override(Some(enospc_only(14)));
    let cold = try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("cold run completes");
    chaos::set_override(None);
    assert_eq!(cold.total, baseline.total);
    assert_eq!(
        registry.counter("simcache.io_enospc").get() - enospc_before,
        1,
        "writer must disable after the first injected ENOSPC"
    );
    // Same activation: the in-memory entries still serve hits.
    let warm = try_simulate_network_parallel(&pe, &net, &cfg, &opts).expect("warm run completes");
    assert_eq!(warm.cache_hits, net.layers.len() as u64);
    assert_eq!(warm.total, baseline.total);
    // Fresh activation: nothing persisted, clean (empty) reload.
    simcache::set_override(CacheOverride::On(SimCacheConfig {
        dir: Some(cache_dir.clone()),
    }));
    let stats = simcache::stats().expect("cache active");
    assert_eq!(stats.loaded, 0);
    assert_eq!(
        stats.skipped_corrupt, 0,
        "ENOSPC must not corrupt the store"
    );
    simcache::set_override(CacheOverride::Env);

    let _ = std::fs::remove_dir_all(&tmp);
}
