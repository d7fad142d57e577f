//! A small trainable CNN and its training loop, used to generate realistic
//! sparse traces.

use crate::data::Batch;
use crate::layers::{Conv2d, Layer, Linear, MaxPool2, Relu};
use crate::loss::{predictions, softmax_cross_entropy};
use crate::sparse_train::{ReSpropSparsifier, SwatSparsifier};
use crate::tensor::Tensor4;
use crate::trace::ConvTrace;

/// Which sparse-training algorithm drives a training step.
#[derive(Debug)]
pub enum SparseMode {
    /// Plain dense training.
    Dense,
    /// SWAT-style: top-K weights and backward activations.
    Swat(SwatSparsifier),
    /// ReSprop-style: delta-sparsified activation gradients.
    ReSprop(ReSpropSparsifier),
}

/// Metrics of one training step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepMetrics {
    /// Mean batch loss.
    pub loss: f32,
    /// Batch accuracy in `[0, 1]`.
    pub accuracy: f64,
}

/// A two-conv-block CNN: `conv-relu-pool` twice, then a linear classifier.
#[derive(Debug)]
pub struct SmallCnn {
    /// First convolution block.
    pub conv1: Conv2d,
    relu1: Relu,
    pool1: MaxPool2,
    /// Second convolution block.
    pub conv2: Conv2d,
    relu2: Relu,
    pool2: MaxPool2,
    fc: Linear,
    image_size: usize,
}

impl SmallCnn {
    /// Builds the network for `in_channels x size x size` inputs and
    /// `classes` outputs.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a multiple of 4 and at least 8 (two 2x2
    /// poolings must divide it).
    pub fn new(in_channels: usize, size: usize, classes: usize, seed: u64) -> Self {
        assert!(
            size >= 8 && size.is_multiple_of(4),
            "size must be a multiple of 4, >= 8"
        );
        let c1 = 8;
        let c2 = 12;
        let final_spatial = size / 4;
        Self {
            conv1: Conv2d::new(c1, in_channels, 3, 3, 1, 1, seed),
            relu1: Relu::new(),
            pool1: MaxPool2::new(),
            conv2: Conv2d::new(c2, c1, 3, 3, 1, 1, seed.wrapping_add(1)),
            relu2: Relu::new(),
            pool2: MaxPool2::new(),
            fc: Linear::new(
                classes,
                c2 * final_spatial * final_spatial,
                seed.wrapping_add(2),
            ),
            image_size: size,
        }
    }

    /// Runs the forward pass, returning the logits.
    pub fn forward(&mut self, images: &Tensor4) -> Tensor4 {
        assert_eq!(images.h(), self.image_size, "image size mismatch");
        let x = self.conv1.forward(images);
        let x = self.relu1.forward(&x);
        let x = self.pool1.forward(&x);
        let x = self.conv2.forward(&x);
        let x = self.relu2.forward(&x);
        let x = self.pool2.forward(&x);
        self.fc.forward(&x)
    }

    /// Runs one training step (forward, backward, SGD update) under the
    /// given sparse-training mode, and optionally captures traces for batch
    /// element 0.
    pub fn train_step(
        &mut self,
        batch: &Batch,
        lr: f32,
        mode: &mut SparseMode,
        capture: Option<&mut Vec<ConvTrace>>,
    ) -> StepMetrics {
        if let SparseMode::Swat(swat) = mode {
            let keep = swat.keep_fraction();
            self.conv1.set_topk_weight_mask(keep);
            self.conv2.set_topk_weight_mask(keep);
        }
        let logits = self.forward(&batch.images);
        let (loss, grad_logits) = softmax_cross_entropy(&logits, &batch.labels);
        let preds = predictions(&logits);
        let correct = preds
            .iter()
            .zip(batch.labels.iter())
            .filter(|(p, l)| p == l)
            .count();

        // Backward pass, sparsifying the conv-output gradients per mode.
        let g = self.fc.backward(&grad_logits);
        let g = self.pool2.backward(&g);
        let g = self.relu2.backward(&g);
        let g_conv2 = self.apply_gradient_sparsity(mode, "conv2", &g);
        let g = self.conv2.backward(&g_conv2);
        let g = self.pool1.backward(&g);
        let g = self.relu1.backward(&g);
        let g_conv1 = self.apply_gradient_sparsity(mode, "conv1", &g);
        let _ = self.conv1.backward(&g_conv1);

        if let Some(traces) = capture {
            traces.push(ConvTrace::from_layer("conv1", &self.conv1, &g_conv1, 0));
            traces.push(ConvTrace::from_layer("conv2", &self.conv2, &g_conv2, 0));
        }

        self.conv1.apply_grads(lr);
        self.conv2.apply_grads(lr);
        self.fc.apply_grads(lr);
        StepMetrics {
            loss,
            accuracy: correct as f64 / batch.labels.len() as f64,
        }
    }

    fn apply_gradient_sparsity(
        &mut self,
        mode: &mut SparseMode,
        layer: &str,
        grad: &Tensor4,
    ) -> Tensor4 {
        match mode {
            SparseMode::Dense => grad.clone(),
            // SWAT sparsifies activations (not gradients) in the backward
            // pass; the gradient flows dense, so pass it through here — the
            // activation side is handled at trace level via the weight mask
            // and ReLU-sparse activations.
            SparseMode::Swat(swat) => {
                let _ = swat;
                grad.clone()
            }
            SparseMode::ReSprop(rs) => rs.sparsify_gradient(layer, grad),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticDataset;

    #[test]
    fn forward_produces_logits() {
        let mut net = SmallCnn::new(1, 8, 4, 0);
        let images = Tensor4::from_fn(2, 1, 8, 8, |_, _, h, w| (h * w) as f32 * 0.05);
        let logits = net.forward(&images);
        assert_eq!(logits.shape(), (2, 4, 1, 1));
    }

    #[test]
    fn training_reduces_loss() {
        let mut ds = SyntheticDataset::new(1, 8, 3, 0.08, 5);
        let mut net = SmallCnn::new(1, 8, 3, 7);
        let mut mode = SparseMode::Dense;
        let first = {
            let batch = ds.sample_batch(16);
            net.train_step(&batch, 0.05, &mut mode, None).loss
        };
        let mut last = first;
        for _ in 0..30 {
            let batch = ds.sample_batch(16);
            last = net.train_step(&batch, 0.05, &mut mode, None).loss;
        }
        assert!(
            last < first * 0.8,
            "loss did not decrease: first {first}, last {last}"
        );
    }

    #[test]
    fn swat_mode_sparsifies_weights() {
        let mut ds = SyntheticDataset::new(1, 8, 3, 0.1, 6);
        let mut net = SmallCnn::new(1, 8, 3, 8);
        let mut mode = SparseMode::Swat(SwatSparsifier::new(0.8));
        let batch = ds.sample_batch(4);
        let _ = net.train_step(&batch, 0.05, &mut mode, None);
        assert!(
            (net.conv2.weight_sparsity() - 0.8).abs() < 0.05,
            "weight sparsity {}",
            net.conv2.weight_sparsity()
        );
    }

    #[test]
    fn resprop_mode_sparsifies_captured_gradients() {
        let mut ds = SyntheticDataset::new(1, 8, 3, 0.1, 9);
        let mut net = SmallCnn::new(1, 8, 3, 10);
        let mut mode = SparseMode::ReSprop(ReSpropSparsifier::new(0.9));
        // Warm up history, then capture.
        let batch = ds.sample_batch(4);
        let _ = net.train_step(&batch, 0.05, &mut mode, None);
        let batch2 = ds.sample_batch(4);
        let mut traces = Vec::new();
        let _ = net.train_step(&batch2, 0.05, &mut mode, Some(&mut traces));
        assert_eq!(traces.len(), 2);
        // The top-K runs over the whole batch tensor, so the captured
        // sample's planes can sit below the 90% target; with the workspace's
        // deterministic StdRng stream conv1 lands near 0.79 and conv2 at 0.75.
        for t in &traces {
            assert!(
                t.gradient_sparsity() > 0.7,
                "{}: gradient sparsity {}",
                t.name,
                t.gradient_sparsity()
            );
        }
    }

    #[test]
    fn captured_traces_have_layer_dims() {
        let mut ds = SyntheticDataset::new(1, 8, 3, 0.1, 2);
        let mut net = SmallCnn::new(1, 8, 3, 3);
        let mut mode = SparseMode::Dense;
        let batch = ds.sample_batch(2);
        let mut traces = Vec::new();
        let _ = net.train_step(&batch, 0.05, &mut mode, Some(&mut traces));
        let t1 = &traces[0];
        assert_eq!(t1.name, "conv1");
        assert_eq!(t1.out_channels(), 8);
        assert_eq!(t1.in_channels(), 1);
        assert_eq!(t1.activation(0).shape(), (10, 10)); // 8 + 2*pad
        let t2 = &traces[1];
        assert_eq!(t2.out_channels(), 12);
        assert_eq!(t2.in_channels(), 8);
        assert_eq!(t2.gradient(0).shape(), (4, 4));
    }
}
