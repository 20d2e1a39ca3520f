//! KV-cache quantization (§6.5.2 of the paper).
//!
//! To run attention end-to-end on AxCore, the key and value caches are
//! quantized to 4 bits with group size 64 **along the accumulation
//! dimension** of the matmul that consumes them:
//!
//! * the K cache accumulates over the head dimension in `Q·Kᵀ`;
//! * the V cache accumulates over the sequence dimension in `P·V`.
//!
//! The paper found format choice matters per cache: OPT-style models use
//! E1M2 for K and E3M0 for V; LLaMA-style models use E2M1 for K and E3M0
//! for V.
//!
//! An axis whose length is not a multiple of the group size (a small head,
//! a short window, a KV page of `block` positions) is grouped by
//! [`fit_group`]: the largest size ≤ `group_size` that divides it.

use crate::formats::QuantFormat;
use crate::group::{fit_group, GroupQuantizer};
use crate::matrix::QuantizedMatrix;

/// Per-model-family KV quantization configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvQuantConfig {
    /// Format for the key cache.
    pub k_format: QuantFormat,
    /// Format for the value cache.
    pub v_format: QuantFormat,
    /// Group size along the accumulation dimension.
    pub group_size: usize,
}

impl KvQuantConfig {
    /// The paper's OPT configuration: K in E1M2, V in E3M0, groups of 64.
    pub fn opt() -> Self {
        KvQuantConfig {
            k_format: QuantFormat::E1M2,
            v_format: QuantFormat::E3M0,
            group_size: 64,
        }
    }

    /// The paper's LLaMA-2 configuration: K in E2M1, V in E3M0, groups of 64.
    pub fn llama() -> Self {
        KvQuantConfig {
            k_format: QuantFormat::E2M1,
            v_format: QuantFormat::E3M0,
            group_size: 64,
        }
    }

    /// Quantize a key cache laid out for `Q·Kᵀ`, i.e. as the `accum × out`
    /// operand of a GEMM: row index = head-dimension channel (accumulation),
    /// column index = cached position. Groups run along the head dimension
    /// with size `fit_group(head_dim, group_size)`.
    pub fn quantize_k(&self, cache: &[f32], head_dim: usize, positions: usize) -> QuantizedMatrix {
        let g = fit_group(head_dim, self.group_size);
        GroupQuantizer::fixed(self.k_format, g).quantize(cache, head_dim, positions)
    }

    /// Quantize a value cache laid out for `P·V`: row index = cached
    /// position (accumulation), column index = head-dimension channel.
    /// Groups run along the positions with size
    /// `fit_group(positions, group_size)`.
    pub fn quantize_v(&self, cache: &[f32], positions: usize, head_dim: usize) -> QuantizedMatrix {
        let g = fit_group(positions, self.group_size);
        GroupQuantizer::fixed(self.v_format, g).quantize(cache, positions, head_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(rows: usize, cols: usize) -> Vec<f32> {
        (0..rows * cols)
            .map(|i| ((i * 2654435761usize % 1000) as f32 / 500.0 - 1.0) * 0.3)
            .collect()
    }

    #[test]
    fn paper_configs() {
        assert_eq!(KvQuantConfig::opt().k_format, QuantFormat::E1M2);
        assert_eq!(KvQuantConfig::opt().v_format, QuantFormat::E3M0);
        assert_eq!(KvQuantConfig::llama().k_format, QuantFormat::E2M1);
        assert_eq!(KvQuantConfig::llama().group_size, 64);
    }

    #[test]
    fn k_cache_groups_along_head_dim() {
        let cfg = KvQuantConfig::opt();
        let q = cfg.quantize_k(&cache(64, 10), 64, 10);
        assert_eq!(q.k, 64);
        assert_eq!(q.n, 10);
        assert_eq!(q.group_size, 64);
        assert!(q.mse(&cache(64, 10)) < 0.01);
    }

    #[test]
    fn v_cache_groups_along_positions() {
        let cfg = KvQuantConfig::llama();
        let q = cfg.quantize_v(&cache(128, 16), 128, 16);
        assert_eq!(q.k, 128);
        assert_eq!(q.num_groups(), 2);
    }

    #[test]
    fn small_heads_shrink_group() {
        let cfg = KvQuantConfig::opt();
        let q = cfg.quantize_k(&cache(32, 4), 32, 4);
        assert_eq!(q.group_size, 32);
    }

    #[test]
    fn ragged_axes_fit_their_group() {
        // 80 and 100 are above 64 and not multiples of it: the group is the
        // largest divisor ≤ 64 (40 and 50) instead of a panic.
        let cfg = KvQuantConfig::opt();
        assert_eq!(cfg.quantize_v(&cache(80, 16), 80, 16).group_size, 40);
        assert_eq!(cfg.quantize_v(&cache(100, 8), 100, 8).group_size, 50);
        assert_eq!(cfg.quantize_k(&cache(80, 3), 80, 3).group_size, 40);
    }
}
