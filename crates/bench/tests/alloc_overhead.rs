//! End-to-end tests of the counting global allocator, run where it is
//! actually installed: every `ant-bench` binary and test links the crate's
//! `#[global_allocator]` (see `src/lib.rs`).
//!
//! The counters are process-global, so tests that flip counting on/off
//! serialize through a mutex; Rust runs these tests in threads.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// The test crate must reference ant-bench, or the linker drops the rlib —
// and with it the `#[global_allocator]` registration under test.
use ant_bench as _;

fn alloc_guard() -> &'static Mutex<()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD.get_or_init(|| Mutex::new(()))
}

#[test]
fn counting_allocator_is_installed_and_counts_real_traffic() {
    let _guard = alloc_guard().lock().unwrap_or_else(|e| e.into_inner());
    ant_obs::alloc::enable();
    assert!(ant_obs::alloc::counting_active());

    let before = ant_obs::alloc::snapshot();
    // black_box keeps release-mode LLVM from eliding the never-read
    // allocation entirely (which would make the delta count zero).
    let buf = std::hint::black_box(vec![0u8; 1 << 20]);
    let delta = ant_obs::alloc::snapshot().delta_from(&before);
    assert!(delta.allocs >= 1, "no allocations counted");
    assert!(
        delta.allocated_bytes >= buf.len() as u64,
        "1 MiB vec not reflected: {delta:?}"
    );
    drop(buf);
    let after_free = ant_obs::alloc::snapshot().delta_from(&before);
    assert!(
        after_free.net_bytes < delta.net_bytes,
        "freeing the vec must reduce net bytes"
    );
    ant_obs::alloc::disable();
}

#[test]
fn disabled_counting_path_is_near_free() {
    let _guard = alloc_guard().lock().unwrap_or_else(|e| e.into_inner());
    ant_obs::alloc::disable();
    assert!(!ant_obs::alloc::counting_active());

    // The disabled path is one relaxed atomic load per alloc/free. A
    // million boxed values must complete in well under a second; the bound
    // is deliberately loose for slow CI machines — the real guard is that
    // the disabled path never becomes a lock or a syscall.
    let start = Instant::now();
    let mut keep = 0u64;
    for i in 0..1_000_000u64 {
        let b = Box::new(i);
        keep = keep.wrapping_add(*b);
    }
    let elapsed = start.elapsed();
    assert!(keep > 0);
    assert!(
        elapsed.as_millis() < 2_000,
        "1M boxes with counting disabled took {elapsed:?}"
    );
}

#[test]
fn spans_carry_real_alloc_deltas_when_counting() {
    let _guard = alloc_guard().lock().unwrap_or_else(|e| e.into_inner());
    ant_obs::alloc::enable();
    let (sink, memory) = ant_obs::Sink::in_memory();
    ant_obs::trace::install(std::sync::Arc::new(sink), false);
    {
        let _span = ant_obs::span("allocating_work");
        let buf = vec![0u8; 256 * 1024];
        std::hint::black_box(&buf);
    }
    ant_obs::trace::uninstall();
    ant_obs::alloc::disable();

    let records = memory.parsed();
    let fields = records[0].get("fields").expect("span fields");
    let bytes = fields.get("alloc_bytes").unwrap().as_u64().unwrap();
    assert!(
        bytes >= 256 * 1024,
        "span alloc delta missed the 256 KiB buffer: {bytes}"
    );
    assert!(fields.get("allocs").unwrap().as_u64().unwrap() >= 1);
}

/// A trace bundle decoder reserves nothing its input does not justify:
/// every declared count is checked against the bytes that follow before a
/// `Vec` is reserved, and planes stay CSR. Once, a 262 KB bundle declaring
/// a 65536 x 65536 plane allocated a 16 GiB dense plane.
#[test]
fn trace_bundle_decode_allocates_in_proportion_to_its_input() {
    use ant_workloads::synth::{synthesize_layer, LayerSparsity};
    use ant_workloads::trace_io::{decode_traces, encode_traces};
    use ant_workloads::ConvLayerSpec;
    use rand::SeedableRng;

    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let spec = ConvLayerSpec::new("bundle", 3, 2, 3, 10, 2, 1, 1);
    let trace = synthesize_layer(&spec, &LayerSparsity::uniform(0.8), 4, &mut rng).trace;
    let bundle = encode_traces(&[trace]).to_vec();
    // The header of that bundle, then one empty 65536 x 65536 plane.
    let name_end = 12 + 4 + "bundle".len();
    let mut huge = bundle[..name_end + 12].to_vec();
    huge.extend_from_slice(&[0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]);
    huge.extend(std::iter::repeat_n(0u8, 4 * ((1 << 16) + 1)));
    let mut cases = vec![bundle.clone(), huge];
    for cut in [9, 20, bundle.len() / 2, bundle.len() - 1] {
        cases.push(bundle[..cut].to_vec());
    }

    let _guard = alloc_guard().lock().unwrap_or_else(|e| e.into_inner());
    ant_obs::alloc::enable();
    for case in &cases {
        let before = ant_obs::alloc::snapshot();
        let decoded = std::hint::black_box(decode_traces(case));
        let delta = ant_obs::alloc::snapshot().delta_from(&before);
        drop(decoded);
        assert!(
            delta.allocated_bytes <= 16 * case.len() as u64 + 4096,
            "a {}-byte bundle allocated {} bytes",
            case.len(),
            delta.allocated_bytes
        );
    }
    ant_obs::alloc::disable();
}
