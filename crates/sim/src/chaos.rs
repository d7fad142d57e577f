//! Deterministic, seeded fault injection for robustness testing.
//!
//! The chaos harness lets tests (and brave operators) inject three kinds of
//! fault into the parallel network runner's pair jobs:
//!
//! * [`Fault::WorkerPanic`] — the job panics mid-simulation, exercising the
//!   `catch_unwind` isolation boundary.
//! * [`Fault::TruncatedCsr`] — the job's kernel plane is rebuilt with a
//!   truncated row-pointer array, exercising typed CSR validation.
//! * [`Fault::CorruptShape`] — the job's shape disagrees with its operands,
//!   exercising the `try_simulate_*` operand checks.
//!
//! Two further fault families target the layers *around* the simulator:
//!
//! * [`IoFault`] — short/torn writes and simulated `ENOSPC` against the
//!   sidecar writers (`ant-checkpoint/1`, `ant-simcache/1`, the sweepd
//!   spool). Both stores must degrade to misses/fresh runs with counted
//!   warnings, never to wrong results.
//! * [`ServiceFault`] — whole-job faults for the `ant-sweepd` supervisor:
//!   job-worker death (a panic around the entire job) and slow-job stalls,
//!   so the retry/backoff/quarantine loop is testable deterministically.
//!
//! Faults are a **pure function** of `(seed, layer, phase, pair, attempt)`
//! (pair faults), `(seed, domain, index)` (IO faults), or
//! `(seed, job, attempt)` (service faults): the same configuration injects
//! exactly the same faults regardless of thread count, which worker runs
//! which pair, or wall-clock time. Tests can therefore compute the expected quarantine set
//! up front by calling [`ChaosConfig::fault_for`] themselves. Including the
//! retry attempt in the hash means a fault can be configured to strike the
//! first attempt but spare the retry (or strike both), so both the
//! retried-success and the quarantined paths are reachable
//! deterministically.
//!
//! Activation is environment-gated: set `ANT_CHAOS` to a spec like
//!
//! ```text
//! ANT_CHAOS="seed=42,panic=0.02,truncate=0.01,shape=0.01"
//! ANT_CHAOS="seed=7,torn=0.2,enospc=0.05,job=0.5,stall=0.1,spool=0.1"
//! ```
//!
//! Omitted probabilities default to zero; `seed` defaults to zero. Tests
//! use [`chaos::set_override`](set_override) to install a configuration
//! without touching the process environment. When neither is present the
//! hot path costs one atomic load. Only the *pair* faults can perturb
//! simulated counters; [`ChaosConfig::perturbs_results`] tells the runner
//! whether the simulation cache must stand down, so an IO- or service-only
//! spec keeps the cache path testable end to end.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

use ant_core::AntError;

/// A fault the chaos harness can inject into one pair job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the job (caught by the runner's isolation boundary).
    WorkerPanic,
    /// Truncate the kernel plane's row pointers before simulating.
    TruncatedCsr,
    /// Hand the machine a shape that disagrees with the operands.
    CorruptShape,
}

impl Fault {
    /// Stable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            Fault::WorkerPanic => "worker_panic",
            Fault::TruncatedCsr => "truncated_csr",
            Fault::CorruptShape => "corrupt_shape",
        }
    }
}

/// An IO fault injected into a sidecar writer's append path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Persist only a prefix of the record (a short/torn write): the line
    /// lands corrupt on disk and the next load must skip it with a counted
    /// warning.
    TornWrite,
    /// Simulate `ENOSPC`: the write fails outright and the writer must
    /// disable persistence while the run continues.
    Enospc,
}

impl IoFault {
    /// Stable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            IoFault::TornWrite => "torn_write",
            IoFault::Enospc => "enospc",
        }
    }
}

/// Which sidecar writer an [`IoFault`] decision is for. The domain salts
/// the hash so the checkpoint and cache writers draw independent faults
/// from one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoDomain {
    /// The `ant-checkpoint/1` sidecar writer.
    Checkpoint,
    /// The `ant-simcache/1` store writer.
    SimCache,
    /// The sweepd spool (job records and results).
    Spool,
}

impl IoDomain {
    fn salt(self) -> u64 {
        match self {
            IoDomain::Checkpoint => 0xC4E0,
            IoDomain::SimCache => 0x51CA,
            IoDomain::Spool => 0x5900,
        }
    }
}

/// A service-level fault injected into one sweepd job attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceFault {
    /// The job worker dies (a panic around the whole job), exercising the
    /// supervisor's `catch_unwind` + retry/backoff + quarantine loop.
    JobDeath,
    /// The job stalls before running, exercising deadline enforcement and
    /// the watchdog's slow-job accounting.
    Stall,
}

impl ServiceFault {
    /// Stable tag for reports.
    pub fn tag(&self) -> &'static str {
        match self {
            ServiceFault::JobDeath => "job_death",
            ServiceFault::Stall => "stall",
        }
    }
}

/// A seeded fault-injection configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed mixed into every fault decision.
    pub seed: u64,
    /// Probability of [`Fault::WorkerPanic`] per (job, attempt).
    pub panic_prob: f64,
    /// Probability of [`Fault::TruncatedCsr`] per (job, attempt).
    pub truncate_prob: f64,
    /// Probability of [`Fault::CorruptShape`] per (job, attempt).
    pub shape_prob: f64,
    /// Probability of [`IoFault::TornWrite`] per appended sidecar record.
    pub torn_prob: f64,
    /// Probability of [`IoFault::Enospc`] per appended sidecar record.
    pub enospc_prob: f64,
    /// Probability of [`ServiceFault::JobDeath`] per (sweepd job, attempt).
    pub job_prob: f64,
    /// Probability of [`ServiceFault::Stall`] per (sweepd job, attempt).
    pub stall_prob: f64,
    /// Probability that one sweepd spool write fails per record.
    pub spool_prob: f64,
}

impl ChaosConfig {
    /// A configuration that never injects anything.
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            panic_prob: 0.0,
            truncate_prob: 0.0,
            shape_prob: 0.0,
            torn_prob: 0.0,
            enospc_prob: 0.0,
            job_prob: 0.0,
            stall_prob: 0.0,
            spool_prob: 0.0,
        }
    }

    /// Whether this configuration can alter simulated counters. Only the
    /// pair faults (`panic`/`truncate`/`shape`) quarantine work out of the
    /// stats; IO and service faults strike *around* the simulation and
    /// degrade to misses, retries, or fresh runs. The runner keeps the
    /// simulation cache armed when this is false.
    pub fn perturbs_results(&self) -> bool {
        self.panic_prob > 0.0 || self.truncate_prob > 0.0 || self.shape_prob > 0.0
    }

    /// Parses an `ANT_CHAOS` spec: comma-separated `key=value` entries with
    /// keys `seed`, `panic`, `truncate`, `shape`, `torn`, `enospc`, `job`,
    /// `stall`, `spool`.
    ///
    /// # Errors
    ///
    /// Returns [`AntError::InvalidConfig`] on unknown keys, unparsable
    /// values, or probabilities outside `[0, 1]`.
    pub fn parse(spec: &str) -> Result<Self, AntError> {
        let mut config = Self::quiet(0);
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry.split_once('=').ok_or_else(|| {
                AntError::invalid_config("ANT_CHAOS", format!("entry {entry:?} is not key=value"))
            })?;
            match key.trim() {
                "seed" => {
                    config.seed = value.trim().parse().map_err(|_| {
                        AntError::invalid_config(
                            "ANT_CHAOS",
                            format!("seed {value:?} is not a u64"),
                        )
                    })?;
                }
                key @ ("panic" | "truncate" | "shape" | "torn" | "enospc" | "job" | "stall"
                | "spool") => {
                    let prob: f64 = value.trim().parse().map_err(|_| {
                        AntError::invalid_config(
                            "ANT_CHAOS",
                            format!("{key} probability {value:?} is not a number"),
                        )
                    })?;
                    if !(0.0..=1.0).contains(&prob) {
                        return Err(AntError::invalid_config(
                            "ANT_CHAOS",
                            format!("{key} probability {prob} outside [0, 1]"),
                        ));
                    }
                    match key {
                        "panic" => config.panic_prob = prob,
                        "truncate" => config.truncate_prob = prob,
                        "shape" => config.shape_prob = prob,
                        "torn" => config.torn_prob = prob,
                        "enospc" => config.enospc_prob = prob,
                        "job" => config.job_prob = prob,
                        "stall" => config.stall_prob = prob,
                        _ => config.spool_prob = prob,
                    }
                }
                other => {
                    return Err(AntError::invalid_config(
                        "ANT_CHAOS",
                        format!("unknown key {other:?}"),
                    ));
                }
            }
        }
        Ok(config)
    }

    /// The fault (if any) to inject into attempt `attempt` of the pair job
    /// `(layer, phase, pair)`. Pure: depends only on the arguments and
    /// `self`.
    pub fn fault_for(
        &self,
        layer: usize,
        phase: usize,
        pair: usize,
        attempt: usize,
    ) -> Option<Fault> {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for word in [layer as u64, phase as u64, pair as u64, attempt as u64] {
            h = splitmix64(h ^ word.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        }
        // Map the hash onto [0, 1) and compare against cumulative bands so
        // one draw decides between the three fault kinds.
        let draw = (h >> 11) as f64 / (1u64 << 53) as f64;
        if draw < self.panic_prob {
            Some(Fault::WorkerPanic)
        } else if draw < self.panic_prob + self.truncate_prob {
            Some(Fault::TruncatedCsr)
        } else if draw < self.panic_prob + self.truncate_prob + self.shape_prob {
            Some(Fault::CorruptShape)
        } else {
            None
        }
    }

    /// The IO fault (if any) to inject into the `index`-th record appended
    /// by `domain`'s writer. Pure: depends only on the arguments and `self`.
    pub fn io_fault_for(&self, domain: IoDomain, index: u64) -> Option<IoFault> {
        let draw = self.draw(&[domain.salt(), index]);
        if draw < self.torn_prob {
            Some(IoFault::TornWrite)
        } else if draw < self.torn_prob + self.enospc_prob {
            Some(IoFault::Enospc)
        } else {
            None
        }
    }

    /// The service-level fault (if any) to inject into attempt `attempt` of
    /// the sweepd job with sequence number `job`. Pure.
    pub fn service_fault_for(&self, job: u64, attempt: usize) -> Option<ServiceFault> {
        let draw = self.draw(&[0x5EED, job, attempt as u64]);
        if draw < self.job_prob {
            Some(ServiceFault::JobDeath)
        } else if draw < self.job_prob + self.stall_prob {
            Some(ServiceFault::Stall)
        } else {
            None
        }
    }

    /// Whether the `index`-th sweepd spool write should fail. Pure.
    pub fn spool_fault_for(&self, index: u64) -> bool {
        self.draw(&[IoDomain::Spool.salt(), 0x5BAD, index]) < self.spool_prob
    }

    /// One uniform draw in `[0, 1)` from the seed and the given words.
    fn draw(&self, words: &[u64]) -> f64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for &word in words {
            h = splitmix64(h ^ word.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        }
        (h >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// 0 = not yet resolved, 1 = resolved off, 2 = resolved on (config in SPEC).
static STATE: AtomicU8 = AtomicU8::new(0);
static SPEC: Mutex<Option<ChaosConfig>> = Mutex::new(None);

/// The active chaos configuration, if any. One atomic load once resolved.
pub fn active() -> Option<ChaosConfig> {
    match STATE.load(Ordering::Acquire) {
        1 => None,
        2 => *SPEC.lock().unwrap_or_else(|p| p.into_inner()),
        _ => resolve_from_env(),
    }
}

fn resolve_from_env() -> Option<ChaosConfig> {
    let resolved = match std::env::var("ANT_CHAOS") {
        Ok(spec) if !spec.trim().is_empty() => match ChaosConfig::parse(&spec) {
            Ok(config) => Some(config),
            Err(e) => {
                eprintln!("ant-sim: ignoring invalid ANT_CHAOS: {e}");
                None
            }
        },
        _ => None,
    };
    install(resolved);
    resolved
}

fn install(config: Option<ChaosConfig>) {
    *SPEC.lock().unwrap_or_else(|p| p.into_inner()) = config;
    STATE.store(if config.is_some() { 2 } else { 1 }, Ordering::Release);
}

/// Installs (or clears, with `None`) a chaos configuration, overriding the
/// environment. Intended for tests; takes effect process-wide.
pub fn set_override(config: Option<ChaosConfig>) {
    install(config);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let c = ChaosConfig::parse("seed=42,panic=0.02,truncate=0.01,shape=0.5").unwrap();
        assert_eq!(c.seed, 42);
        assert!((c.panic_prob - 0.02).abs() < 1e-12);
        assert!((c.truncate_prob - 0.01).abs() < 1e-12);
        assert!((c.shape_prob - 0.5).abs() < 1e-12);
        // Whitespace and empty entries are tolerated.
        let c = ChaosConfig::parse(" seed = 7 , panic = 1.0 ,, ").unwrap();
        assert_eq!(c.seed, 7);
        assert!((c.panic_prob - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for spec in [
            "seed",           // not key=value
            "seed=abc",       // not a u64
            "panic=nope",     // not a number
            "panic=1.5",      // outside [0, 1]
            "truncate=-0.1",  // outside [0, 1]
            "frobnicate=0.5", // unknown key
        ] {
            let err = ChaosConfig::parse(spec).expect_err(spec);
            assert!(
                matches!(
                    err,
                    AntError::InvalidConfig {
                        param: "ANT_CHAOS",
                        ..
                    }
                ),
                "{spec}"
            );
        }
    }

    #[test]
    fn faults_are_deterministic_and_seed_sensitive() {
        let c = ChaosConfig {
            panic_prob: 0.2,
            truncate_prob: 0.2,
            shape_prob: 0.2,
            ..ChaosConfig::quiet(9)
        };
        let draws: Vec<_> = (0..64).map(|p| c.fault_for(1, 0, p, 0)).collect();
        assert_eq!(
            draws,
            (0..64).map(|p| c.fault_for(1, 0, p, 0)).collect::<Vec<_>>()
        );
        assert!(draws.iter().any(|f| f.is_some()));
        assert!(draws.iter().any(|f| f.is_none()));
        let other = ChaosConfig { seed: 10, ..c };
        assert_ne!(
            draws,
            (0..64)
                .map(|p| other.fault_for(1, 0, p, 0))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn attempt_changes_the_draw() {
        let c = ChaosConfig {
            panic_prob: 0.5,
            ..ChaosConfig::quiet(3)
        };
        // Over enough jobs, some faults must strike attempt 0 but spare
        // attempt 1 (the retried-success path) and some must strike both
        // (the quarantine path).
        let mut spared = 0;
        let mut struck_twice = 0;
        for pair in 0..256 {
            if c.fault_for(0, 0, pair, 0).is_some() {
                if c.fault_for(0, 0, pair, 1).is_some() {
                    struck_twice += 1;
                } else {
                    spared += 1;
                }
            }
        }
        assert!(spared > 0, "no retried-success path reachable");
        assert!(struck_twice > 0, "no quarantine path reachable");
    }

    #[test]
    fn probabilities_are_roughly_honored() {
        let c = ChaosConfig {
            panic_prob: 0.1,
            ..ChaosConfig::quiet(1234)
        };
        let hits = (0..10_000)
            .filter(|&p| c.fault_for(0, 0, p, 0).is_some())
            .count();
        assert!((800..1200).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn zero_probabilities_never_fire() {
        let c = ChaosConfig::quiet(99);
        assert!((0..1000).all(|p| c.fault_for(0, 1, p, 0).is_none()));
        assert!((0..1000).all(|i| c.io_fault_for(IoDomain::Checkpoint, i).is_none()));
        assert!((0..1000).all(|j| c.service_fault_for(j, 0).is_none()));
        assert!((0..1000).all(|i| !c.spool_fault_for(i)));
    }

    #[test]
    fn parse_accepts_service_and_io_keys() {
        let c =
            ChaosConfig::parse("seed=7,torn=0.2,enospc=0.1,job=0.5,stall=0.25,spool=0.3").unwrap();
        assert_eq!(c.seed, 7);
        assert!((c.torn_prob - 0.2).abs() < 1e-12);
        assert!((c.enospc_prob - 0.1).abs() < 1e-12);
        assert!((c.job_prob - 0.5).abs() < 1e-12);
        assert!((c.stall_prob - 0.25).abs() < 1e-12);
        assert!((c.spool_prob - 0.3).abs() < 1e-12);
        assert!(!c.perturbs_results(), "io/service faults never taint stats");
        assert!(ChaosConfig::parse("panic=0.1").unwrap().perturbs_results());
        assert!(ChaosConfig::parse("job=2.0").is_err());
    }

    #[test]
    fn io_faults_are_deterministic_and_domain_salted() {
        let c = ChaosConfig {
            torn_prob: 0.25,
            enospc_prob: 0.25,
            ..ChaosConfig::quiet(11)
        };
        let ckpt: Vec<_> = (0..128)
            .map(|i| c.io_fault_for(IoDomain::Checkpoint, i))
            .collect();
        assert_eq!(
            ckpt,
            (0..128)
                .map(|i| c.io_fault_for(IoDomain::Checkpoint, i))
                .collect::<Vec<_>>()
        );
        let cache: Vec<_> = (0..128)
            .map(|i| c.io_fault_for(IoDomain::SimCache, i))
            .collect();
        assert_ne!(ckpt, cache, "domains must draw independently");
        assert!(ckpt.contains(&Some(IoFault::TornWrite)));
        assert!(ckpt.contains(&Some(IoFault::Enospc)));
        assert!(ckpt.iter().any(|f| f.is_none()));
    }

    #[test]
    fn service_faults_cover_death_retry_and_quarantine_paths() {
        let c = ChaosConfig {
            job_prob: 0.4,
            stall_prob: 0.2,
            ..ChaosConfig::quiet(21)
        };
        let draws: Vec<_> = (0..256).map(|j| c.service_fault_for(j, 0)).collect();
        assert_eq!(
            draws,
            (0..256)
                .map(|j| c.service_fault_for(j, 0))
                .collect::<Vec<_>>()
        );
        assert!(draws.contains(&Some(ServiceFault::JobDeath)));
        assert!(draws.contains(&Some(ServiceFault::Stall)));
        assert!(draws.iter().any(|f| f.is_none()));
        // Some job must die on attempt 0 but survive attempt 1 (the
        // retried-success path) and some must die on enough consecutive
        // attempts to quarantine.
        let retried = (0..256u64).any(|j| {
            c.service_fault_for(j, 0) == Some(ServiceFault::JobDeath)
                && c.service_fault_for(j, 1).is_none()
        });
        let quarantined = (0..256u64)
            .any(|j| (0..3).all(|a| c.service_fault_for(j, a) == Some(ServiceFault::JobDeath)));
        assert!(retried, "no retried-success path reachable");
        assert!(quarantined, "no quarantine path reachable");
    }

    #[test]
    fn cumulative_bands_partition_fault_kinds() {
        let c = ChaosConfig {
            panic_prob: 0.3,
            truncate_prob: 0.3,
            shape_prob: 0.3,
            ..ChaosConfig::quiet(5)
        };
        let mut seen = [false; 3];
        for pair in 0..512 {
            match c.fault_for(2, 1, pair, 0) {
                Some(Fault::WorkerPanic) => seen[0] = true,
                Some(Fault::TruncatedCsr) => seen[1] = true,
                Some(Fault::CorruptShape) => seen[2] = true,
                None => {}
            }
        }
        assert_eq!(seen, [true; 3]);
    }
}
