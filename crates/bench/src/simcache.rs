//! The process-global content-addressed simulation cache (tier 1 of the
//! simulator's redundancy eliminator), gated by `ANT_CACHE` /
//! `ANT_CACHE_DIR`.
//!
//! The store itself ([`ant_sim::cache::LayerCache`]) is policy-free; this
//! module owns activation and persistence:
//!
//! * **Activation** — off by default. `ANT_CACHE=1` enables the in-memory
//!   cache for the process; `ANT_CACHE_DIR=path` additionally persists
//!   entries to `<path>/simcache.jsonl` (and implies `ANT_CACHE=1`). Tests
//!   drive activation with [`set_override`], chaos-style.
//! * **Persistence** — JSONL, schema [`SCHEMA`]. Every line carries the
//!   [`MODEL_VERSION`] stamp (version-mismatched lines are stale and
//!   skipped), a 128-bit content key plus the pre-synthesis memo key (hex —
//!   JSON numbers are `f64` and cannot hold 64-bit hashes), a self-check
//!   hash over the key and every counter (a poisoned entry — wrong cycles
//!   for its key — fails the check and is skipped), and the three
//!   finalized per-phase counter objects. Corrupt, truncated, stale, and
//!   poisoned lines are skipped and counted, never replayed; entries are
//!   round-trip verified at write time (a counter above 2^53 would come
//!   back rounded, so such entries stay in memory but are not persisted);
//!   a failed append disables persistence and the run continues. The
//!   counter payload and the append path are shared with the checkpoint
//!   sidecar (`layer_log.rs`).
//!
//! The runner decides *what* may enter the cache (clean layers only, never
//! under chaos injection); see `runner.rs` and docs/PERFORMANCE.md.

use std::path::PathBuf;
use std::sync::Mutex;

use ant_obs::json::Json;
use ant_sim::cache::{CacheKey, LayerCache, LayerPhases, MODEL_VERSION};
use ant_sim::chaos::IoDomain;

use crate::fingerprint::StableHasher;
use crate::layer_log::{self, AppendLog};

/// Schema tag on every persisted cache line; bump on incompatible change.
pub const SCHEMA: &str = "ant-simcache/1";

/// Cache activation settings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimCacheConfig {
    /// Directory holding `simcache.jsonl`; `None` keeps the cache
    /// in-memory only.
    pub dir: Option<PathBuf>,
}

/// Test-facing activation override (process-wide, like
/// [`ant_sim::chaos::set_override`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheOverride {
    /// Resolve from `ANT_CACHE` / `ANT_CACHE_DIR` (the default).
    Env,
    /// Force the cache off regardless of the environment.
    Off,
    /// Force the cache on with the given settings.
    On(SimCacheConfig),
}

/// Store-level counters for observability and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStoreStats {
    /// Layer results currently held in memory.
    pub entries: usize,
    /// Entries loaded from the on-disk store at activation.
    pub loaded: usize,
    /// Unparsable or truncated lines skipped at load.
    pub skipped_corrupt: usize,
    /// Lines with a foreign schema tag or a different [`MODEL_VERSION`].
    pub skipped_stale: usize,
    /// Lines whose self-check hash did not match their counters.
    pub skipped_poisoned: usize,
    /// Entries kept in memory whose line did not reach the on-disk store
    /// while it was still being appended to: the line failed the
    /// write-time round-trip verification, or its write was torn, hit
    /// ENOSPC or failed (the last two stop persistence, and later entries
    /// are not counted).
    pub dropped_writes: usize,
}

#[derive(Debug)]
struct Store {
    cache: LayerCache,
    /// The on-disk store, when one is configured and could be opened.
    log: Option<AppendLog>,
    /// Load and write counters; `entries` is read from `cache` instead.
    counts: CacheStoreStats,
}

#[derive(Debug)]
struct Global {
    over: CacheOverride,
    /// `Some` iff the cache is active and initialized for the current
    /// activation settings.
    store: Option<Store>,
    /// Whether `store` reflects the current `over`/env resolution.
    resolved: bool,
}

static GLOBAL: Mutex<Global> = Mutex::new(Global {
    over: CacheOverride::Env,
    store: None,
    resolved: false,
});

fn config_from_env() -> Option<SimCacheConfig> {
    let dir = std::env::var("ANT_CACHE_DIR")
        .ok()
        .map(|d| d.trim().to_string())
        .filter(|d| !d.is_empty())
        .map(PathBuf::from);
    match std::env::var("ANT_CACHE") {
        // An explicit off wins over the directory.
        Ok(flag) => ant_obs::truthy(&flag).then_some(SimCacheConfig { dir }),
        _ => dir.map(|d| SimCacheConfig { dir: Some(d) }), // dir implies on
    }
}

/// Installs (or clears, with [`CacheOverride::Env`]) an activation
/// override. Intended for tests; takes effect process-wide and always
/// resets the store (a fresh override starts from an empty in-memory
/// cache, reloading the on-disk store if one is configured).
pub fn set_override(over: CacheOverride) {
    let mut g = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    g.over = over;
    g.store = None;
    g.resolved = false;
}

fn with_store<T>(f: impl FnOnce(&mut Store) -> T) -> Option<T> {
    let mut g = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
    if !g.resolved {
        let config = match &g.over {
            CacheOverride::Env => config_from_env(),
            CacheOverride::Off => None,
            CacheOverride::On(cfg) => Some(cfg.clone()),
        };
        g.store = config.map(Store::open);
        g.resolved = true;
    }
    g.store.as_mut().map(f)
}

/// Whether the cache is active (environment or override).
pub fn enabled() -> bool {
    with_store(|_| ()).is_some()
}

/// Resolves a pre-synthesis memo key to stored per-phase stats.
pub fn lookup_memo(synth_key: &CacheKey) -> Option<LayerPhases> {
    with_store(|s| s.cache.get_memoized(synth_key).copied()).flatten()
}

/// Looks up stored per-phase stats by content key.
pub fn lookup(content_key: &CacheKey) -> Option<LayerPhases> {
    with_store(|s| s.cache.get(content_key).copied()).flatten()
}

/// Stores a finalized clean layer under its content key, memoizes the
/// pre-synthesis key, and appends to the on-disk store (when configured).
pub fn record(synth_key: CacheKey, content_key: CacheKey, phases: &LayerPhases) {
    let _ = with_store(|s| s.record(synth_key, content_key, phases));
}

/// Current store counters, `None` when the cache is off.
pub fn stats() -> Option<CacheStoreStats> {
    with_store(|s| CacheStoreStats {
        entries: s.cache.len(),
        ..s.counts
    })
}

impl Store {
    fn open(config: SimCacheConfig) -> Self {
        let mut store = Store {
            cache: LayerCache::new(),
            log: None,
            counts: CacheStoreStats::default(),
        };
        let Some(dir) = config.dir else {
            return store;
        };
        let path = dir.join("simcache.jsonl");
        let counts = &mut store.counts;
        let read = layer_log::load(&path, |line| match parse_entry(line) {
            Ok((synth, content, phases)) => {
                store.cache.insert(content, phases);
                if let Some(synth) = synth {
                    store.cache.remember(synth, content);
                }
                counts.loaded += 1;
            }
            Err(Skip::Corrupt) => counts.skipped_corrupt += 1,
            Err(Skip::Stale) => counts.skipped_stale += 1,
            Err(Skip::Poisoned) => counts.skipped_poisoned += 1,
        });
        if let Err(e) = read {
            eprintln!(
                "ant-bench: simcache {}: unreadable ({e}); starting empty",
                path.display()
            );
        }
        let skipped = counts.skipped_corrupt + counts.skipped_stale + counts.skipped_poisoned;
        if skipped > 0 {
            eprintln!(
                "ant-bench: simcache {}: skipped {skipped} line(s) \
                 ({} corrupt, {} stale, {} poisoned)",
                path.display(),
                counts.skipped_corrupt,
                counts.skipped_stale,
                counts.skipped_poisoned
            );
        }
        let _ = std::fs::create_dir_all(&dir);
        match AppendLog::open(&path, IoDomain::SimCache, false) {
            Ok(log) => store.log = Some(log),
            Err(e) => eprintln!(
                "ant-bench: simcache {}: cannot append ({e}); cache stays in-memory",
                path.display()
            ),
        }
        store
    }

    fn record(&mut self, synth_key: CacheKey, content_key: CacheKey, phases: &LayerPhases) {
        self.cache.insert(content_key, *phases);
        self.cache.remember(synth_key, content_key);
        let Some(log) = self.log.as_mut().filter(|log| log.is_open()) else {
            return;
        };
        let line = emit_entry(Some(synth_key), content_key, phases);
        // Round-trip verify before persisting: `Json` numbers are `f64`, so
        // a counter above 2^53 would come back rounded. The in-memory entry
        // stays (it is exact); only the disk write is dropped.
        let exact = matches!(parse_entry(&line),
            Ok((_, key, parsed)) if key == content_key && parsed == *phases);
        if !exact {
            eprintln!(
                "ant-bench: simcache: entry {} does not round-trip losslessly; not persisted",
                content_key.to_hex()
            );
        }
        if !(exact && log.append(&line)) {
            self.counts.dropped_writes += 1;
        }
    }
}

/// The self-check hash over (content key, version, every counter): detects
/// entries whose counters were altered after writing (poisoned) without
/// re-simulating anything at load time.
fn check_hash(content_key: CacheKey, phases: &LayerPhases) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(content_key.hi);
    h.write_u64(content_key.lo);
    h.write_u64(u64::from(MODEL_VERSION));
    for stats in phases {
        for (_, value) in stats.fields() {
            h.write_u64(value);
        }
    }
    h.finish()
}

fn emit_entry(synth_key: Option<CacheKey>, content_key: CacheKey, phases: &LayerPhases) -> String {
    let mut out = format!(
        "{{\"schema\":\"{SCHEMA}\",\"version\":{MODEL_VERSION},\"key\":\"{}\"",
        content_key.to_hex()
    );
    if let Some(synth) = synth_key {
        out.push_str(&format!(",\"synth\":\"{}\"", synth.to_hex()));
    }
    out.push_str(&format!(
        ",\"check\":\"{:016x}\",\"phases\":",
        check_hash(content_key, phases)
    ));
    layer_log::write_phases(phases, &mut out);
    out.push('}');
    out
}

enum Skip {
    Corrupt,
    Stale,
    Poisoned,
}

type ParsedEntry = (Option<CacheKey>, CacheKey, LayerPhases);

fn parse_entry(line: &str) -> Result<ParsedEntry, Skip> {
    let json = ant_obs::parse_json(line).map_err(|_| Skip::Corrupt)?;
    match json.get("schema").and_then(Json::as_str) {
        Some(schema) if schema == SCHEMA => {}
        Some(_) => return Err(Skip::Stale),
        None => return Err(Skip::Corrupt),
    }
    match json.get("version").and_then(Json::as_u64) {
        Some(v) if v == u64::from(MODEL_VERSION) => {}
        Some(_) => return Err(Skip::Stale),
        None => return Err(Skip::Corrupt),
    }
    let key = json
        .get("key")
        .and_then(Json::as_str)
        .and_then(CacheKey::from_hex)
        .ok_or(Skip::Corrupt)?;
    let synth = json
        .get("synth")
        .map(|v| v.as_str().and_then(CacheKey::from_hex).ok_or(Skip::Corrupt))
        .transpose()?;
    let check = json
        .get("check")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or(Skip::Corrupt)?;
    let phases = layer_log::read_phases(json.get("phases")).map_err(|_| Skip::Corrupt)?;
    if check != check_hash(key, &phases) {
        return Err(Skip::Poisoned);
    }
    Ok((synth, key, phases))
}

#[cfg(test)]
mod tests {
    use ant_sim::SimStats;

    use super::*;

    fn key(hi: u64, lo: u64) -> CacheKey {
        CacheKey { hi, lo }
    }

    fn sample_phases(salt: u64) -> LayerPhases {
        let mut phases = [SimStats::default(); 3];
        for (pi, stats) in phases.iter_mut().enumerate() {
            for (i, (name, _)) in SimStats::default().fields().iter().enumerate() {
                stats.set_field(name, salt + (pi as u64) * 100 + i as u64);
            }
        }
        phases
    }

    #[test]
    fn entries_round_trip_through_the_line_format() {
        let phases = sample_phases(11);
        let line = emit_entry(Some(key(7, 8)), key(1, 2), &phases);
        let (synth, content, parsed) = parse_entry(&line).ok().expect("parses");
        assert_eq!(synth, Some(key(7, 8)));
        assert_eq!(content, key(1, 2));
        assert_eq!(parsed, phases);
        // Without a memo key.
        let line = emit_entry(None, key(1, 2), &phases);
        let (synth, _, _) = parse_entry(&line).ok().expect("parses");
        assert_eq!(synth, None);
    }

    #[test]
    fn poisoned_counters_fail_the_check_hash() {
        let phases = sample_phases(3);
        let line = emit_entry(None, key(9, 9), &phases);
        // Tamper with one counter value but keep the line well-formed.
        let needle = "\"pe_cycles\":3";
        assert!(line.contains(needle), "fixture drifted: {line}");
        let poisoned = line.replacen(needle, "\"pe_cycles\":4", 1);
        assert!(matches!(parse_entry(&poisoned), Err(Skip::Poisoned)));
    }

    #[test]
    fn store_wire_format_is_pinned() {
        // A literal `ant-simcache/1` line (zero counters keep it short).
        // Stores already on disk must keep loading and the writer must keep
        // producing these bytes; breaking this test orphans every store.
        let mut stored = String::from(
            "{\"schema\":\"ant-simcache/1\",\"version\":1,\
             \"key\":\"11112222333344445555666677778888\",\
             \"synth\":\"0123456789abcdeffedcba9876543210\",\
             \"check\":\"b9e1a0cfccfc0d34\",\"phases\":[",
        );
        for pi in 0..3 {
            if pi > 0 {
                stored.push(',');
            }
            stored.push('{');
            for (fi, (name, _)) in SimStats::default().fields().iter().enumerate() {
                if fi > 0 {
                    stored.push(',');
                }
                stored.push_str(&format!("\"{name}\":0"));
            }
            stored.push('}');
        }
        stored.push_str("]}");
        let synth = key(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        let content = key(0x1111_2222_3333_4444, 0x5555_6666_7777_8888);
        let zero = [SimStats::default(); 3];
        assert_eq!(emit_entry(Some(synth), content, &zero), stored);
        let parsed = parse_entry(&stored).ok().expect("captured line loads");
        assert_eq!(parsed, (Some(synth), content, zero));
    }

    #[test]
    fn mutated_lines_are_rejected_or_keep_their_key_and_counters() {
        let phases = sample_phases(13);
        let line = emit_entry(Some(key(7, 8)), key(1, 2), &phases);
        let mut accepted = 0;
        for case in 0..2_000 {
            let mutant = layer_log::tests::mutant(&line, 0x51CA, case);
            if let Ok((_, content, parsed)) = parse_entry(&mutant) {
                accepted += 1;
                // The check hash covers the content key and every counter;
                // only the memo key may change.
                assert_eq!(
                    (content, parsed),
                    (key(1, 2), phases),
                    "case {case}: {mutant}"
                );
            }
        }
        assert!(accepted > 0, "no mutant was accepted");
    }

    #[test]
    fn stale_and_corrupt_lines_classify() {
        let phases = sample_phases(5);
        let line = emit_entry(None, key(1, 1), &phases);
        let stale_schema = line.replacen(SCHEMA, "ant-simcache/0", 1);
        assert!(matches!(parse_entry(&stale_schema), Err(Skip::Stale)));
        let stale_version = line.replacen(
            &format!("\"version\":{MODEL_VERSION}"),
            &format!("\"version\":{}", MODEL_VERSION + 1),
            1,
        );
        assert!(matches!(parse_entry(&stale_version), Err(Skip::Stale)));
        assert!(matches!(parse_entry("not json"), Err(Skip::Corrupt)));
        let truncated = &line[..line.len() / 2];
        assert!(matches!(parse_entry(truncated), Err(Skip::Corrupt)));
    }
}
