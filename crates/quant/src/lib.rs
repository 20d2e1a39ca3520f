//! # axcore-quant
//!
//! Weight-only quantization for the AxCore reproduction (§2.2, §4.4 of the
//! paper):
//!
//! * [`QuantFormat`] — target code formats: FP4 variants (E1M2 / E2M1 /
//!   E3M0), FP8, INT4, INT8.
//! * [`GroupQuantizer`] — symmetric group-wise round-to-nearest
//!   quantization with FP16 scales (the paper's baseline scheme, group size
//!   128 for OPT-style models / 64 for LLaMA-style models); [`qdq_group`]
//!   rounds one strided group in place, [`code_group`] rounds it to codes
//!   and a scale (a sealed KV code page), [`fit_group`] fits a group size
//!   to an axis.
//! * [`grid`] — the exact FP4 rounding grid every FP4 group rounds
//!   through: threshold comparison against `midpoint × scale` in place of
//!   per-value softfloat, bit-identical to it.
//! * [`format_select`] — block-wise **adaptive format-aware** selection
//!   (Eq. 12): each `g × n` block picks the FP4 format minimizing the
//!   activation-weighted reconstruction error on calibration statistics.
//! * [`fpma_quant`] — FPMA-domain quantization/dequantization (Eqs. 14–15),
//!   where scaling is integer addition in the log domain and the
//!   compensation constants cancel by construction.
//! * [`act`] — Q8 activation block quantization (scale + compensation
//!   sum per 32-element block, `block_q8_1`-style) feeding the engines'
//!   W4A8 integer-activation tier.
//! * [`kv`] — KV-cache quantization (§6.5.2): 4-bit grouped along the
//!   accumulation dimension with per-cache format choices.
//! * [`QuantizedMatrix`] — the storage format every GEMM engine in the
//!   `axcore` crate consumes: per-element codes, per-(group, column) FP16
//!   scales, per-block formats.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod act;
pub mod format_select;
pub mod formats;
pub mod fpma_quant;
pub mod grid;
pub mod group;
pub mod kv;
pub mod matrix;
pub mod mx;
pub mod packing;

pub use act::{quantize_row_into, Q8Row, Q8_BLOCK};
pub use format_select::{CalibrationStats, FormatPolicy};
pub use formats::QuantFormat;
pub use grid::{Fp4Grid, ScaledGrid};
pub use group::{code_group, fit_group, qdq_group, GroupQuantizer};
pub use kv::KvQuantConfig;
pub use matrix::QuantizedMatrix;
pub use packing::{CodePlanes, PlaneShard};
