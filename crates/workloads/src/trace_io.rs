//! Trace-bundle serialization.
//!
//! The paper's methodology revolves around *traces* — per-layer W/A/G_A
//! planes collected once and replayed through simulators. This module gives
//! them a compact on-disk format so a trace collected from one training run
//! (or shared by another group) can be replayed bit-identically later:
//!
//! ```text
//! magic "ANTTRC01"
//! u32 trace_count
//! per trace:
//!   u32 name_len, name bytes (utf-8)
//!   u32 stride, u32 K, u32 C
//!   K*C weight planes, C activation planes, K gradient planes
//! per plane (CSR): u32 rows, u32 cols, u32 nnz,
//!   (rows+1) x u32 row_ptr, nnz x u32 col_idx, nnz x f32 values (LE)
//! ```

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use ant_nn::ConvTrace;
use ant_sparse::CsrMatrix;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: &[u8; 8] = b"ANTTRC01";

/// Errors decoding a trace bundle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceIoError {
    /// The buffer does not start with the format magic.
    BadMagic,
    /// The buffer ended before the declared content.
    Truncated,
    /// A decoded field was inconsistent (bad UTF-8, invalid CSR, absurd
    /// dimensions).
    Corrupt(&'static str),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::BadMagic => write!(f, "not an ANT trace bundle (bad magic)"),
            TraceIoError::Truncated => write!(f, "trace bundle ends prematurely"),
            TraceIoError::Corrupt(what) => write!(f, "corrupt trace bundle: {what}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

/// Encodes a set of traces into the bundle format.
pub fn encode_traces(traces: &[ConvTrace]) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32(traces.len() as u32);
    for trace in traces {
        buf.put_u32(trace.name.len() as u32);
        buf.put_slice(trace.name.as_bytes());
        buf.put_u32(trace.stride() as u32);
        buf.put_u32(trace.out_channels() as u32);
        buf.put_u32(trace.in_channels() as u32);
        for k in 0..trace.out_channels() {
            for c in 0..trace.in_channels() {
                encode_plane(&mut buf, trace.weight(k, c));
            }
        }
        for c in 0..trace.in_channels() {
            encode_plane(&mut buf, trace.activation(c));
        }
        for k in 0..trace.out_channels() {
            encode_plane(&mut buf, trace.gradient(k));
        }
    }
    buf.freeze()
}

fn encode_plane(buf: &mut BytesMut, csr: &CsrMatrix) {
    buf.put_u32(csr.rows() as u32);
    buf.put_u32(csr.cols() as u32);
    buf.put_u32(csr.nnz() as u32);
    for &p in csr.row_ptr() {
        buf.put_u32(p as u32);
    }
    for &c in csr.col_idx() {
        buf.put_u32(c as u32);
    }
    for &v in csr.values() {
        buf.put_f32_le(v);
    }
}

/// The fewest bytes one encoded plane takes: its three `u32` dimensions
/// and a row pointer pair for at least one row.
const MIN_PLANE_BYTES: usize = 20;

/// The fewest bytes one encoded trace takes: name length, stride, `K`,
/// `C`, and three planes (`K = C = 1`).
const MIN_TRACE_BYTES: usize = 16 + 3 * MIN_PLANE_BYTES;

/// How many bytes of backward images a trace may derive per byte of the
/// bundle. A trace's dilated gradients grow with its stride; a bundle that
/// pairs a huge stride with tiny gradient planes would otherwise derive
/// far more than it holds.
const DERIVED_BYTES_PER_BUNDLE_BYTE: usize = 16;

/// Decodes a bundle back into traces.
///
/// Every allocation is justified by the bytes still to be read: each count
/// is checked against the smallest encoding that count needs before its
/// `Vec` is reserved, and no dense plane is built.
///
/// # Errors
///
/// Returns a [`TraceIoError`] describing the first malformation found; a
/// valid bundle round-trips bit-identically.
pub fn decode_traces(data: &[u8]) -> Result<Vec<ConvTrace>, TraceIoError> {
    let bundle_len = data.len();
    let mut data = data;
    if data.len() < MAGIC.len() || &data[..MAGIC.len()] != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    data.advance(MAGIC.len());
    let count = read_u32(&mut data)? as usize;
    if count > data.remaining() / MIN_TRACE_BYTES {
        return Err(TraceIoError::Truncated);
    }
    let mut traces = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = read_u32(&mut data)? as usize;
        if data.remaining() < name_len {
            return Err(TraceIoError::Truncated);
        }
        let name = String::from_utf8(data[..name_len].to_vec())
            .map_err(|_| TraceIoError::Corrupt("trace name is not utf-8"))?;
        data.advance(name_len);
        let stride = read_u32(&mut data)? as usize;
        let k = read_u32(&mut data)? as usize;
        let c = read_u32(&mut data)? as usize;
        if stride == 0 || k == 0 || c == 0 || k > 1 << 16 || c > 1 << 16 {
            return Err(TraceIoError::Corrupt("bad trace dimensions"));
        }
        if (k * c + c + k) > data.remaining() / MIN_PLANE_BYTES {
            return Err(TraceIoError::Truncated);
        }
        let mut weights = Vec::with_capacity(k);
        for _ in 0..k {
            let mut row = Vec::with_capacity(c);
            for _ in 0..c {
                row.push(decode_plane(&mut data)?);
            }
            weights.push(row);
        }
        let mut activations = Vec::with_capacity(c);
        for _ in 0..c {
            activations.push(decode_plane(&mut data)?);
        }
        let mut grad_out = Vec::with_capacity(k);
        for _ in 0..k {
            grad_out.push(decode_plane(&mut data)?);
        }
        check_derived_size(&weights[0][0], &grad_out[0], stride, k, bundle_len)?;
        let trace = ConvTrace::try_from_planes(&name, stride, weights, activations, grad_out)
            .map_err(|_| TraceIoError::Corrupt("planes admit no convolution"))?;
        traces.push(trace);
    }
    if data.remaining() > 0 {
        return Err(TraceIoError::Corrupt("trailing bytes after the last trace"));
    }
    Ok(traces)
}

/// Rejects a trace whose `k` backward images (each gradient dilated by
/// `stride` and padded by the kernel extent) would need more row-pointer
/// bytes than [`DERIVED_BYTES_PER_BUNDLE_BYTE`] allows for the bundle.
fn check_derived_size(
    kernel: &CsrMatrix,
    grad: &CsrMatrix,
    stride: usize,
    k: usize,
    bundle_len: usize,
) -> Result<(), TraceIoError> {
    let rows = (grad.rows() - 1)
        .saturating_mul(stride)
        .saturating_add(2 * kernel.rows());
    let bytes = rows.saturating_mul(k).saturating_mul(8);
    if bytes > bundle_len.saturating_mul(DERIVED_BYTES_PER_BUNDLE_BYTE) {
        return Err(TraceIoError::Corrupt("backward planes outgrow the bundle"));
    }
    Ok(())
}

fn decode_plane(data: &mut &[u8]) -> Result<CsrMatrix, TraceIoError> {
    let rows = read_u32(data)? as usize;
    let cols = read_u32(data)? as usize;
    let nnz = read_u32(data)? as usize;
    if rows == 0 || cols == 0 || rows > 1 << 16 || cols > 1 << 16 || nnz > rows * cols {
        return Err(TraceIoError::Corrupt("bad plane dimensions"));
    }
    if data.remaining() < 4 * (rows + 1) + 8 * nnz {
        return Err(TraceIoError::Truncated);
    }
    let row_ptr = (0..=rows).map(|_| data.get_u32() as usize).collect();
    let col_idx = (0..nnz).map(|_| data.get_u32() as usize).collect();
    let values: Vec<f32> = (0..nnz).map(|_| data.get_f32_le()).collect();
    // The encoder writes planes converted from dense, which never store a
    // zero; a stored zero would count as a product in every machine.
    if values.contains(&0.0) {
        return Err(TraceIoError::Corrupt("stored zero value"));
    }
    CsrMatrix::from_raw(rows, cols, row_ptr, col_idx, values)
        .map_err(|_| TraceIoError::Corrupt("invalid CSR plane"))
}

fn read_u32(data: &mut &[u8]) -> Result<u32, TraceIoError> {
    if data.remaining() < 4 {
        return Err(TraceIoError::Truncated);
    }
    Ok(data.get_u32())
}

/// Writes a trace bundle to disk.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save_traces(path: impl AsRef<Path>, traces: &[ConvTrace]) -> io::Result<()> {
    fs::write(path, encode_traces(traces))
}

/// Reads a trace bundle from disk.
///
/// # Errors
///
/// Propagates I/O errors; decode failures map to
/// [`io::ErrorKind::InvalidData`].
pub fn load_traces(path: impl AsRef<Path>) -> io::Result<Vec<ConvTrace>> {
    let data = fs::read(path)?;
    decode_traces(&data).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ConvLayerSpec;
    use crate::synth::{synthesize_layer, LayerSparsity};
    use ant_conv::efficiency::TrainingPhase;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_traces() -> Vec<ConvTrace> {
        let mut rng = StdRng::seed_from_u64(42);
        let spec_a = ConvLayerSpec::new("layer-a", 3, 2, 3, 10, 1, 1, 1);
        let spec_b = ConvLayerSpec::new("layer-b", 2, 3, 5, 12, 1, 0, 1);
        vec![
            synthesize_layer(&spec_a, &LayerSparsity::uniform(0.8), 4, &mut rng).trace,
            synthesize_layer(&spec_b, &LayerSparsity::uniform(0.5), 4, &mut rng).trace,
        ]
    }

    #[test]
    fn round_trip_is_exact() {
        let traces = sample_traces();
        let decoded = decode_traces(&encode_traces(&traces)).unwrap();
        assert_eq!(decoded.len(), traces.len());
        assert_eq!(decoded, traces);
    }

    #[test]
    fn file_round_trip() {
        let traces = sample_traces();
        let dir = std::env::temp_dir().join("ant-trace-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.anttrc");
        save_traces(&path, &traces).unwrap();
        let loaded = load_traces(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded, traces);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode_traces(b"NOTATRACE"), Err(TraceIoError::BadMagic));
        assert_eq!(decode_traces(b""), Err(TraceIoError::BadMagic));
    }

    #[test]
    fn truncation_detected() {
        let traces = sample_traces();
        let full = encode_traces(&traces);
        for cut in [9usize, 20, full.len() / 2, full.len() - 1] {
            let err = decode_traces(&full[..cut]).unwrap_err();
            assert!(
                matches!(err, TraceIoError::Truncated | TraceIoError::Corrupt(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corruption_detected() {
        let traces = sample_traces();
        let mut data = encode_traces(&traces).to_vec();
        // Stomp the trace count with an absurd value.
        data[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_traces(&data),
            Err(TraceIoError::Corrupt(_)) | Err(TraceIoError::Truncated)
        ));
    }

    /// Seeded mutations of an encoded bundle, in the chaos idiom: each
    /// mutant is a pure function of `(seed, case)`, one of bit flips, a
    /// truncation, or a splice of the bundle with itself.
    fn mutant(bundle: &[u8], seed: u64, case: u64) -> Vec<u8> {
        fn splitmix64(mut x: u64) -> u64 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        }
        let mut h = splitmix64(seed ^ splitmix64(case));
        let mut draw = |n: usize| {
            h = splitmix64(h);
            (h % n.max(1) as u64) as usize
        };
        let mut bytes = bundle.to_vec();
        match draw(3) {
            0 => {
                for _ in 0..=draw(3) {
                    let at = draw(bytes.len());
                    bytes[at] ^= 1 << draw(8);
                }
            }
            1 => bytes.truncate(draw(bytes.len())),
            _ => {
                let (cut, resume) = (draw(bytes.len() + 1), draw(bytes.len() + 1));
                let tail = bytes[resume..].to_vec();
                bytes.truncate(cut);
                bytes.extend(tail);
            }
        }
        bytes
    }

    /// Every mutant decodes to a typed error or to traces that re-encode
    /// byte for byte, and every decoded trace's three phases resolve to
    /// pairs whose planes match their shape: no panic anywhere.
    #[test]
    fn mutated_bundles_fail_typed_or_round_trip() {
        let bundle = encode_traces(&sample_traces());
        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..2_000 {
            let bytes = mutant(&bundle, 0x7EAC, case);
            let traces = match decode_traces(&bytes) {
                Ok(traces) => traces,
                Err(TraceIoError::BadMagic | TraceIoError::Truncated | TraceIoError::Corrupt(_)) => {
                    rejected += 1;
                    continue;
                }
            };
            accepted += 1;
            assert_eq!(encode_traces(&traces)[..], bytes[..], "case {case} re-encodes differently");
            for trace in &traces {
                for phase in TrainingPhase::ALL {
                    for (kernel, image, shape) in trace.pairs(phase) {
                        assert_eq!(kernel.shape(), (shape.kernel_h(), shape.kernel_w()), "case {case}");
                        assert_eq!(image.shape(), (shape.image_h(), shape.image_w()), "case {case}");
                    }
                }
            }
        }
        assert!(accepted > 0 && rejected > 0, "{accepted} accepted, {rejected} rejected");
    }

    /// A bundle's declared sizes are checked against its remaining bytes
    /// before anything is reserved, and no dense plane is built: a 262 KB
    /// bundle declaring a 65536 x 65536 plane once allocated 16 GiB.
    #[test]
    fn declared_sizes_beyond_the_bundle_are_typed_errors() {
        let header = |buf: &mut BytesMut, count: u32, k: u32, c: u32| {
            buf.put_slice(MAGIC);
            buf.put_u32(count);
            buf.put_u32(1);
            buf.put_slice(b"x");
            buf.put_u32(1);
            buf.put_u32(k);
            buf.put_u32(c);
        };
        let empty_plane = |buf: &mut BytesMut, rows: u32, cols: u32| {
            buf.put_u32(rows);
            buf.put_u32(cols);
            buf.put_u32(0);
            for _ in 0..=rows {
                buf.put_u32(0);
            }
        };
        // A huge empty weight plane over a 1 x 1 activation: decodes to
        // CSR and is then rejected, since no convolution fits.
        let mut huge = BytesMut::new();
        header(&mut huge, 1, 1, 1);
        empty_plane(&mut huge, 1 << 16, 1 << 16);
        empty_plane(&mut huge, 1, 1);
        empty_plane(&mut huge, 1, 1);
        assert!(huge.len() > 262_000);
        assert_eq!(
            decode_traces(&huge),
            Err(TraceIoError::Corrupt("planes admit no convolution"))
        );
        // The same plane declared with more non-zeros than bytes follow.
        let mut short = BytesMut::new();
        header(&mut short, 1, 1, 1);
        short.put_u32(1 << 16);
        short.put_u32(1 << 16);
        short.put_u32(1 << 30);
        assert_eq!(decode_traces(&short), Err(TraceIoError::Truncated));
        // Counts no bundle of this length can hold.
        let mut many = BytesMut::new();
        header(&mut many, u32::MAX, 1 << 16, 1 << 16);
        assert_eq!(decode_traces(&many), Err(TraceIoError::Truncated));
        let mut planes = BytesMut::new();
        header(&mut planes, 1, 1 << 16, 1 << 16);
        empty_plane(&mut planes, 1, 1);
        assert_eq!(decode_traces(&planes), Err(TraceIoError::Truncated));
        // A stride that would dilate tiny gradients into huge backward
        // images is refused before they are derived.
        let mut strided = BytesMut::new();
        strided.put_slice(MAGIC);
        strided.put_u32(1);
        strided.put_u32(1);
        strided.put_slice(b"x");
        strided.put_u32(1 << 15);
        strided.put_u32(1 << 10);
        strided.put_u32(1);
        for _ in 0..1 << 10 {
            empty_plane(&mut strided, 1, 1);
        }
        empty_plane(&mut strided, 1 << 16, 1);
        for _ in 0..1 << 10 {
            empty_plane(&mut strided, 2, 1);
        }
        assert_eq!(
            decode_traces(&strided),
            Err(TraceIoError::Corrupt("backward planes outgrow the bundle"))
        );
    }

    #[test]
    fn decoded_traces_still_feed_the_simulator() {
        let traces = sample_traces();
        let decoded = decode_traces(&encode_traces(&traces)).unwrap();
        let pairs = decoded[0].update_pairs().unwrap();
        assert!(!pairs.is_empty());
    }
}
