//! Quantization target formats: low-bit floating point and signed integer.
//!
//! [`QuantFormat::encode`] is the per-value rounding (softfloat for the FP
//! formats) and the oracle for the FP4 threshold grid (`crate::grid`),
//! which group quantization of E1M2, E2M1 and E3M0 rounds through instead.

use axcore_softfloat::{FpFormat, FP4_E1M2, FP4_E2M1, FP4_E3M0, FP8_E4M3};

/// A low-bit code format a weight can be quantized into.
///
/// Codes are carried as `u8`: the raw bit pattern for FP formats,
/// two's-complement for INT formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantFormat {
    /// A small floating-point format (FP4 variants, FP8).
    Fp(FpFormat),
    /// A symmetric signed integer with the given bit width (4 or 8 here).
    /// The code range is `[-(2^(b-1) - 1), 2^(b-1) - 1]` (no `-2^(b-1)`,
    /// keeping the grid symmetric as the paper's Eq. 1 clamp does).
    Int {
        /// Bit width of the integer code (e.g. 4 or 8).
        bits: u32,
    },
}

impl QuantFormat {
    /// Symmetric INT4.
    pub const INT4: QuantFormat = QuantFormat::Int { bits: 4 };
    /// Symmetric INT8.
    pub const INT8: QuantFormat = QuantFormat::Int { bits: 8 };
    /// FP4 E2M1 (the "standard" FP4).
    pub const E2M1: QuantFormat = QuantFormat::Fp(FP4_E2M1);
    /// FP4 E1M2 (uniform-leaning FP4).
    pub const E1M2: QuantFormat = QuantFormat::Fp(FP4_E1M2);
    /// FP4 E3M0 (power-of-two-like FP4).
    pub const E3M0: QuantFormat = QuantFormat::Fp(FP4_E3M0);
    /// FP8 E4M3.
    pub const E4M3: QuantFormat = QuantFormat::Fp(FP8_E4M3);

    /// Storage width of a code in bits.
    pub fn code_bits(&self) -> u32 {
        match self {
            QuantFormat::Fp(f) => f.total_bits(),
            QuantFormat::Int { bits } => *bits,
        }
    }

    /// Largest representable magnitude (`F_max` in the paper's Eq. 1; 7 for
    /// INT4, 6 for E2M1, …).
    pub fn max_abs(&self) -> f64 {
        match self {
            QuantFormat::Fp(f) => f.max_finite(),
            QuantFormat::Int { bits } => ((1i64 << (bits - 1)) - 1) as f64,
        }
    }

    /// Quantize a pre-scaled value onto this format's grid (round to
    /// nearest, clamp to `±max_abs`), returning the code byte.
    pub fn encode(&self, x: f64) -> u8 {
        match self {
            QuantFormat::Fp(f) => f.encode(x) as u8,
            QuantFormat::Int { bits } => {
                let m = self.max_abs();
                let q = x.round_ties_even().clamp(-m, m) as i64;
                (q as u8) & mask(*bits)
            }
        }
    }

    /// Decode a code byte back to its grid value.
    pub fn decode(&self, code: u8) -> f64 {
        match self {
            QuantFormat::Fp(f) => f.decode(code as u32),
            QuantFormat::Int { bits } => sign_extend(code, *bits) as f64,
        }
    }

    /// Decode an INT code to its signed integer value.
    ///
    /// # Panics
    ///
    /// Panics if called on an FP format.
    pub fn decode_int(&self, code: u8) -> i32 {
        match self {
            QuantFormat::Int { bits } => sign_extend(code, *bits),
            QuantFormat::Fp(f) => panic!("decode_int on FP format {f}"),
        }
    }

    /// Short display name.
    pub fn name(&self) -> String {
        match self {
            QuantFormat::Fp(f) => f.name.to_string(),
            QuantFormat::Int { bits } => format!("INT{bits}"),
        }
    }

    /// True for floating-point code formats.
    pub fn is_fp(&self) -> bool {
        matches!(self, QuantFormat::Fp(_))
    }
}

impl std::fmt::Display for QuantFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

fn mask(bits: u32) -> u8 {
    if bits >= 8 {
        0xff
    } else {
        (1u8 << bits) - 1
    }
}

fn sign_extend(code: u8, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((code as u32) << shift) as i32 >> shift
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int4_range_symmetric() {
        let f = QuantFormat::INT4;
        assert_eq!(f.max_abs(), 7.0);
        assert_eq!(f.decode(f.encode(7.4)), 7.0);
        assert_eq!(f.decode(f.encode(200.0)), 7.0);
        assert_eq!(f.decode(f.encode(-200.0)), -7.0);
        assert_eq!(f.decode(f.encode(-0.4)), 0.0);
        assert_eq!(f.decode_int(f.encode(-3.0)), -3);
    }

    #[test]
    fn int_round_ties_even() {
        let f = QuantFormat::INT4;
        assert_eq!(f.decode(f.encode(2.5)), 2.0);
        assert_eq!(f.decode(f.encode(3.5)), 4.0);
        assert_eq!(f.decode(f.encode(-2.5)), -2.0);
    }

    #[test]
    fn int8_range() {
        let f = QuantFormat::INT8;
        assert_eq!(f.max_abs(), 127.0);
        assert_eq!(f.decode(f.encode(-127.0)), -127.0);
        assert_eq!(f.decode(f.encode(-128.0)), -127.0); // symmetric clamp
    }

    #[test]
    fn fp4_round_trips() {
        for f in [QuantFormat::E1M2, QuantFormat::E2M1, QuantFormat::E3M0] {
            let QuantFormat::Fp(fmt) = f else { unreachable!() };
            for bits in fmt.nonneg_finite_patterns() {
                let v = fmt.decode(bits);
                assert_eq!(f.decode(f.encode(v)), v, "{f} {v}");
            }
        }
    }

    #[test]
    fn max_abs_matches_paper_examples() {
        assert_eq!(QuantFormat::INT4.max_abs(), 7.0); // Eq. 1: "7 for INT4"
        assert_eq!(QuantFormat::E2M1.max_abs(), 6.0);
        assert_eq!(QuantFormat::E1M2.max_abs(), 3.5);
        assert_eq!(QuantFormat::E3M0.max_abs(), 16.0);
    }

    #[test]
    #[should_panic(expected = "decode_int on FP format")]
    fn decode_int_rejects_fp() {
        QuantFormat::E2M1.decode_int(3);
    }
}
