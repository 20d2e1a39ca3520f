//! The exact FP4 rounding grid (`axcore_quant::grid`) against the
//! softfloat oracle.
//!
//! Every reference here is built per value from `FpFormat::encode` /
//! `decode` and the FP16 softfloat, never from the grid: the group scale of
//! Eq. 1 in f64, each code as `encode(w / scale)`, each sealed word as
//! `decode(code) × scale` rounded to f32. Three levels are checked against
//! it:
//!
//! * the grid itself (`Fp4Grid::scaled`), on every threshold
//!   `midpoint × scale` and its f32 neighbours at every positive FP16
//!   scale, and on random values;
//! * `GroupQuantizer`'s codes, scales and formats, Fixed and AdaptiveFp4;
//! * sealed KV pages, read back through `KvArena::try_gather`, at blocks
//!   1, 3, 16, 64 and 80 and head widths 2, 4 and 16.
//!
//! Group inputs cover FP16 subnormal, normal and saturating scales, scales
//! that round to zero, values on and beside `midpoint × scale`, ±0, tiny
//! negatives, and groups holding NaN or ±inf, alone or mixed within one
//! page. A page whose groups the grid all rounds is sealed into codes and
//! scales and read back rebuilt from them; a page with any other group
//! stays f32.

use axcore_nn::kvcache::{KvArena, KvPageConfig};
use axcore_quant::{CalibrationStats, Fp4Grid, FormatPolicy, GroupQuantizer, KvQuantConfig, QuantFormat};
use axcore_softfloat::FP16;
use proptest::prelude::*;

const FP4: [QuantFormat; 3] = [QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0];

/// The format's non-negative magnitudes, increasing, from `decode`.
fn magnitudes(fmt: QuantFormat) -> Vec<f64> {
    let QuantFormat::Fp(f) = fmt else { panic!("{fmt} is not an FP format") };
    f.nonneg_finite_patterns().map(|b| f.decode(b)).collect()
}

/// The group scale of Eq. 1: FP16 bits and their value.
fn ref_scale(fmt: QuantFormat, group: &[f32]) -> (u16, f64) {
    let max_abs = group.iter().fold(0f64, |m, &w| m.max((w as f64).abs()));
    let scale = if max_abs == 0.0 { 1.0 } else { max_abs / fmt.max_abs() };
    let bits = FP16.encode(scale) as u16;
    (bits, FP16.decode(bits as u32))
}

fn ref_code(fmt: QuantFormat, w: f32, scale: f64) -> u8 {
    fmt.encode(w as f64 / scale)
}

fn ref_value(fmt: QuantFormat, w: f32, scale: f64) -> f64 {
    fmt.decode(ref_code(fmt, w, scale)) * scale
}

/// The group along an axis of `dim`: the largest size ≤ `group` dividing it.
fn ref_fit(dim: usize, group: usize) -> usize {
    (1..=group.min(dim)).rev().find(|g| dim.is_multiple_of(*g)).unwrap_or(1)
}

/// A small deterministic generator for group contents.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in [-1, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Kinds of group content; see [`group_values`].
const MODES: usize = 9;

/// One group of `len` values of kind `mode`, with exact ties aimed at
/// `fmt`'s grid under the group's own scale.
fn group_values(rng: &mut Rng, len: usize, mode: usize, fmt: QuantFormat) -> Vec<f32> {
    let spread = |rng: &mut Rng, mag: f64| -> Vec<f32> { (0..len).map(|_| (rng.unit() * mag) as f32).collect() };
    match mode {
        // Normal scales over six decades.
        0 => {
            let mag = 10f64.powi((rng.next() % 7) as i32 - 3);
            spread(rng, mag)
        }
        // FP16 subnormal scales.
        1 => spread(rng, 1e-6),
        // Scales past 65504 saturate.
        2 => spread(rng, 1e7),
        // Scales below 2^-25 round to FP16 zero.
        3 => spread(rng, 1e-9),
        // Values on `midpoint × scale` and its f32 neighbours.
        4 => {
            let mut g = spread(rng, 1.0);
            let top = (0..len).max_by(|&a, &b| g[a].abs().total_cmp(&g[b].abs())).unwrap_or(0);
            if let QuantFormat::Fp(_) = fmt {
                let (_, scale) = ref_scale(fmt, &g);
                let mags = magnitudes(fmt);
                for (j, w) in g.iter_mut().enumerate().filter(|&(j, _)| j != top) {
                    let i = rng.next() as usize % 7;
                    let t = ((mags[i] + mags[i + 1]) / 2.0 * scale) as f32;
                    let t = [t, t.next_up(), t.next_down()][j % 3];
                    *w = if rng.next().is_multiple_of(2) { t } else { -t };
                }
            }
            g
        }
        // ±0 and tiny negatives beside one ordinary value.
        5 => {
            let mut g: Vec<f32> = (0..len)
                .map(|j| [0.0, -0.0, -1e-30, -1e-40, -f32::from_bits(1), 1e-38][(j + rng.next() as usize) % 6])
                .collect();
            g[rng.next() as usize % len] = rng.unit() as f32;
            g
        }
        // NaN or ±inf inside an ordinary group.
        6 => {
            let mut g = spread(rng, 1.0);
            g[rng.next() as usize % len] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.next() as usize % 3];
            g
        }
        // Only zeros of either sign: scale 1.
        7 => (0..len).map(|j| if (j + rng.next() as usize).is_multiple_of(2) { 0.0 } else { -0.0 }).collect(),
        // Each group one of the kinds above, so a sealed page mixes groups
        // the grid rounds with a NaN/±inf group or a zero-scale one.
        _ => {
            let kind = [0, 1, 4, 5, 7, 0, 3, 6][rng.next() as usize % 8];
            group_values(rng, len, kind, fmt)
        }
    }
}

/// A row-major `k × n` matrix whose `(group, column)` slices are each one
/// [`group_values`] group.
fn matrix(seed: u64, k: usize, n: usize, gs: usize, mode: usize, fmt: QuantFormat) -> Vec<f32> {
    let mut rng = Rng(seed | 1);
    let mut w = vec![0f32; k * n];
    for g in 0..k / gs {
        for col in 0..n {
            for (r, x) in group_values(&mut rng, gs, mode, fmt).into_iter().enumerate() {
                w[(g * gs + r) * n + col] = x;
            }
        }
    }
    w
}

/// The column slice of group `g` at `col`.
fn column(w: &[f32], n: usize, gs: usize, g: usize, col: usize) -> Vec<f32> {
    (g * gs..(g + 1) * gs).map(|r| w[r * n + col]).collect()
}

/// Fixed-format group quantization: codes and scales.
fn ref_fixed(fmt: QuantFormat, w: &[f32], k: usize, n: usize, gs: usize) -> (Vec<u8>, Vec<u16>) {
    let (mut codes, mut scales) = (vec![0u8; k * n], vec![0u16; (k / gs) * n]);
    for g in 0..k / gs {
        for col in 0..n {
            let (bits, scale) = ref_scale(fmt, &column(w, n, gs, g, col));
            scales[g * n + col] = bits;
            for r in g * gs..(g + 1) * gs {
                codes[r * n + col] = ref_code(fmt, w[r * n + col], scale);
            }
        }
    }
    (codes, scales)
}

/// Eq. 12's per-block choice: the candidate with the least (energy-weighted)
/// squared reconstruction error, E2M1 unless one is strictly below +inf.
fn ref_select(w: &[f32], n: usize, gs: usize, g: usize, cols: std::ops::Range<usize>, energy: Option<&[f32]>) -> QuantFormat {
    let mut best = (QuantFormat::E2M1, f64::INFINITY);
    for fmt in FormatPolicy::fp4_candidates() {
        let mut err = 0.0;
        for col in cols.clone() {
            let (_, scale) = ref_scale(fmt, &column(w, n, gs, g, col));
            for r in g * gs..(g + 1) * gs {
                let x = w[r * n + col];
                let rec = ref_value(fmt, x, scale);
                let weight = energy.map_or(1.0, |e| e[r] as f64);
                err += weight * (rec - x as f64) * (rec - x as f64);
            }
        }
        if err < best.1 {
            best = (fmt, err);
        }
    }
    best.0
}

#[test]
fn grid_equals_encode_on_every_threshold_at_every_fp16_scale() {
    for fmt in FP4 {
        let grid = Fp4Grid::of(fmt).expect("FP4 formats have a grid");
        let mags = magnitudes(fmt);
        for bits in 1..0x7c00u32 {
            let scale = FP16.decode(bits);
            let g = grid.scaled(scale as f32);
            let check = |w: f32| {
                for w in [w, -w] {
                    let code = ref_code(fmt, w, scale);
                    assert_eq!(g.code(w), code, "{fmt} scale {scale:e}: code of {w:e}");
                    let value = ref_value(fmt, w, scale) as f32;
                    assert_eq!(g.value(w).to_bits(), value.to_bits(), "{fmt} scale {scale:e}: value of {w:e}");
                }
            };
            for i in 0..8 {
                let v = (mags[i] * scale) as f32;
                for w in [v, v.next_up(), v.next_down()] {
                    check(w);
                }
                if i < 7 {
                    let t = (mags[i] + mags[i + 1]) / 2.0 * scale;
                    assert_eq!(t as f32 as f64, t, "midpoint × scale is exact in f32");
                    let t = t as f32;
                    for w in [t, t.next_up(), t.next_down()] {
                        check(w);
                    }
                }
            }
            check((mags[7] * scale * 1.5) as f32);
            check(f32::MAX);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn grid_equals_encode_on_random_values(
        fmt_idx in 0usize..3,
        scale_bits in 1u32..0x7c00,
        u in -1.25f64..1.25,
        raw in any::<u32>(),
    ) {
        let fmt = FP4[fmt_idx];
        let scale = FP16.decode(scale_bits);
        let g = Fp4Grid::of(fmt).expect("FP4 grid").scaled(scale as f32);
        // A value inside the grid's range, and an arbitrary finite f32.
        let near = (u * fmt.max_abs() * scale) as f32;
        let any = f32::from_bits(raw);
        for w in [near, any].into_iter().filter(|w| w.is_finite()) {
            prop_assert_eq!(g.code(w), ref_code(fmt, w, scale), "{} scale {:e}: code of {:e}", fmt, scale, w);
            prop_assert_eq!(
                g.value(w).to_bits(),
                (ref_value(fmt, w, scale) as f32).to_bits(),
                "{} scale {:e}: value of {:e}", fmt, scale, w
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn fixed_group_quantizer_equals_the_oracle(
        seed in any::<u64>(),
        fmt_idx in 0usize..6,
        mode in 0usize..MODES,
        gs_idx in 0usize..4,
    ) {
        let fmt = [QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0, QuantFormat::INT4, QuantFormat::INT8, QuantFormat::E4M3][fmt_idx];
        let gs = [1usize, 3, 16, 32][gs_idx];
        let (k, n) = (2 * gs, 5);
        let w = matrix(seed, k, n, gs, mode, fmt);
        let q = GroupQuantizer::fixed(fmt, gs).quantize(&w, k, n);
        let (codes, scales) = ref_fixed(fmt, &w, k, n, gs);
        prop_assert_eq!(&q.scales, &scales, "{} mode {} group {}: scales", fmt, mode, gs);
        prop_assert_eq!(&q.codes, &codes, "{} mode {} group {}: codes", fmt, mode, gs);
        prop_assert!(q.formats.iter().all(|&f| f == fmt));
    }

    #[test]
    fn adaptive_group_quantizer_equals_the_oracle(
        seed in any::<u64>(),
        mode in 0usize..MODES,
        tie_idx in 0usize..3,
        gs_idx in 0usize..3,
        weighted in any::<bool>(),
    ) {
        let gs = [3usize, 16, 32][gs_idx];
        let (k, n, bc) = (2 * gs, 8, 4);
        let w = matrix(seed, k, n, gs, mode, FP4[tie_idx]);
        let energy: Vec<f32> = (0..k).map(|r| 0.25 + ((seed >> (r % 48)) & 7) as f32).collect();
        let calib = weighted.then(|| CalibrationStats { channel_energy: energy.clone() });
        let q = GroupQuantizer::adaptive_fp4(gs, bc, calib).quantize(&w, k, n);
        let energy = weighted.then_some(energy.as_slice());
        for g in 0..k / gs {
            for b in 0..n / bc {
                let fmt = ref_select(&w, n, gs, g, b * bc..(b + 1) * bc, energy);
                prop_assert_eq!(q.formats[g * (n / bc) + b], fmt, "mode {} group {} block {}: format", mode, g, b);
                for col in b * bc..(b + 1) * bc {
                    let (bits, scale) = ref_scale(fmt, &column(&w, n, gs, g, col));
                    prop_assert_eq!(q.scales[g * n + col], bits, "mode {} ({}, {}): scale", mode, g, col);
                    for r in g * gs..(g + 1) * gs {
                        prop_assert_eq!(q.codes[r * n + col], ref_code(fmt, w[r * n + col], scale), "mode {} ({}, {}): code", mode, r, col);
                    }
                }
            }
        }
    }
}

/// Commit `2 · block + 1` positions of two layers into an arena and compare
/// every word against the per-value reference: full pages QDQ'd group by
/// group, the hot tail (when `block > 1`) untouched.
fn check_sealed_pages(seed: u64, cfg: KvQuantConfig, block: usize, dh: usize, mode: usize) {
    let (layers, nh) = (2usize, 2usize);
    let d = nh * dh;
    let len = 2 * block + 1;
    let (gk, gv) = (ref_fit(dh, cfg.group_size), ref_fit(block, cfg.group_size));
    let mut rng = Rng(seed | 1);
    let mut arena = KvArena::new(layers, d, nh, KvPageConfig { quant: Some(cfg), block, ..Default::default() });
    let seq = arena.try_join().expect("arena admits a sequence");
    let mut inputs = Vec::new();
    for layer in 0..layers {
        // K rows group by `gk` channels, V columns by `gv` positions: fill
        // each group as one `group_values` group.
        let mut k = vec![0f32; len * d];
        for row in k.chunks_mut(gk) {
            row.copy_from_slice(&group_values(&mut rng, gk, mode, cfg.k_format));
        }
        let mut v = vec![0f32; len * d];
        for c in 0..d {
            for p0 in (0..len).step_by(gv) {
                let n = gv.min(len - p0);
                for (i, x) in group_values(&mut rng, n, mode, cfg.v_format).into_iter().enumerate() {
                    v[(p0 + i) * d + c] = x;
                }
            }
        }
        arena.try_append(seq, layer, 0, &k, &v).expect("append");
        inputs.push((k, v));
    }
    arena.try_commit(seq, len).expect("commit seals every full page");
    // Pages of groups the grid all rounds seal into codes and scales;
    // a grid-less format, or groups that are all NaN/±inf or zero-scale,
    // keep every page f32.
    let grid = cfg.k_format != QuantFormat::INT4;
    if grid && matches!(mode, 0 | 4 | 7) {
        assert!(arena.code_pages() > 0, "block {block} dh {dh} mode {mode}: no code page");
    } else if !grid || matches!(mode, 3 | 6) {
        assert_eq!(arena.code_pages(), 0, "block {block} dh {dh} mode {mode}: a code page");
    }
    let sealed = len / block * block;
    for (layer, (k, v)) in inputs.iter().enumerate() {
        let (mut kq, mut vq) = (Vec::new(), Vec::new());
        arena.try_gather(seq, layer, len, &mut kq, &mut vq).expect("gather");
        let mut k_ref = k.clone();
        let mut v_ref = v.clone();
        for p in 0..sealed {
            for c0 in (0..d).step_by(gk) {
                let group = &k[p * d + c0..p * d + c0 + gk];
                let (_, scale) = ref_scale(cfg.k_format, group);
                for (j, &x) in group.iter().enumerate() {
                    k_ref[p * d + c0 + j] = ref_value(cfg.k_format, x, scale) as f32;
                }
            }
        }
        for c in 0..d {
            for p0 in (0..sealed).step_by(gv) {
                let group: Vec<f32> = (p0..p0 + gv).map(|p| v[p * d + c]).collect();
                let (_, scale) = ref_scale(cfg.v_format, &group);
                for (i, &x) in group.iter().enumerate() {
                    v_ref[(p0 + i) * d + c] = ref_value(cfg.v_format, x, scale) as f32;
                }
            }
        }
        let bits = |x: &[f32]| x.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        let what = format!("block {block} dh {dh} mode {mode} layer {layer} ({:?})", cfg.k_format);
        assert_eq!(bits(&kq), bits(&k_ref), "K words, {what}");
        assert_eq!(bits(&vq), bits(&v_ref), "V words, {what}");
    }
}

const KV_CONFIGS: [KvQuantConfig; 3] = [
    KvQuantConfig { k_format: QuantFormat::E1M2, v_format: QuantFormat::E3M0, group_size: 64 },
    KvQuantConfig { k_format: QuantFormat::E2M1, v_format: QuantFormat::E3M0, group_size: 64 },
    // No grid: the per-value path.
    KvQuantConfig { k_format: QuantFormat::INT4, v_format: QuantFormat::INT4, group_size: 64 },
];

#[test]
fn sealed_pages_equal_the_oracle_at_every_geometry() {
    assert_eq!(KV_CONFIGS[0], KvQuantConfig::opt());
    assert_eq!(KV_CONFIGS[1], KvQuantConfig::llama());
    for (ci, cfg) in KV_CONFIGS.into_iter().enumerate() {
        for block in [1usize, 3, 16, 64, 80] {
            for dh in [2usize, 4, 16] {
                for mode in 0..MODES {
                    check_sealed_pages((ci * 1000 + block * 10 + dh) as u64, cfg, block, dh, mode);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sealed_pages_equal_the_oracle_on_random_groups(
        seed in any::<u64>(),
        cfg_idx in 0usize..3,
        block_idx in 0usize..5,
        dh_idx in 0usize..3,
        mode in 0usize..MODES,
    ) {
        let block = [1usize, 3, 16, 64, 80][block_idx];
        let dh = [2usize, 4, 16][dh_idx];
        check_sealed_pages(seed, KV_CONFIGS[cfg_idx], block, dh, mode);
    }
}
