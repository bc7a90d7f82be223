//! Fixed-point quantization: the paper's "60-bit integer representation"
//! (Table I).
//!
//! PISA computes over integers inside Paillier, so every linear power
//! value (milliwatts, path gains, products of the two) is mapped to a
//! fixed-point integer `round(value · 2^frac_bits)`. The default
//! configuration gives 60-bit integers, "which satisfies FCC regulation
//! and SPLAT" per §VI-A.

use crate::RadioError;

/// A fixed-point quantizer mapping linear milliwatt values to integers.
///
/// # Examples
///
/// ```
/// use pisa_radio::Quantizer;
///
/// let q = Quantizer::paper();
/// let v = q.quantize(1.5).unwrap();
/// assert!((q.dequantize(v) - 1.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    frac_bits: u32,
    total_bits: u32,
}

impl Quantizer {
    /// Creates a quantizer with `frac_bits` fractional bits and a total
    /// width of `total_bits`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < frac_bits < total_bits <= 120` (products of two
    /// quantized values must fit in `i128` in the plaintext baseline).
    pub fn new(frac_bits: u32, total_bits: u32) -> Self {
        assert!(
            frac_bits > 0 && frac_bits < total_bits && total_bits <= 120,
            "invalid quantizer configuration ({frac_bits}/{total_bits})"
        );
        Quantizer {
            frac_bits,
            total_bits,
        }
    }

    /// The paper's configuration: 60-bit integers with 40 fractional
    /// bits (values up to ~10⁶ mW, resolution ~10⁻¹² mW).
    pub fn paper() -> Self {
        Quantizer::new(40, 60)
    }

    /// Total integer width in bits.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Quantizes a non-negative linear value.
    ///
    /// # Errors
    ///
    /// Returns [`RadioError::QuantizationOverflow`] when the result would
    /// exceed the configured width, and [`RadioError::ModelDomain`] for
    /// negative or non-finite inputs.
    pub fn quantize(&self, value_mw: f64) -> Result<i128, RadioError> {
        if !value_mw.is_finite() || value_mw < 0.0 {
            return Err(RadioError::ModelDomain(format!(
                "cannot quantize power value {value_mw}"
            )));
        }
        let scaled = value_mw * (self.frac_bits as f64).exp2();
        if scaled >= (self.total_bits as f64).exp2() {
            return Err(RadioError::QuantizationOverflow {
                value_mw,
                bits: self.total_bits,
            });
        }
        Ok(scaled.round() as i128)
    }

    /// Quantizes, saturating at the maximum representable value instead
    /// of failing (used for headroom-limited public matrices).
    pub fn quantize_saturating(&self, value_mw: f64) -> i128 {
        match self.quantize(value_mw) {
            Ok(v) => v,
            Err(RadioError::QuantizationOverflow { .. }) => self.max_value(),
            Err(_) => 0,
        }
    }

    /// Maps a quantized integer back to the linear domain.
    pub fn dequantize(&self, v: i128) -> f64 {
        v as f64 / (self.frac_bits as f64).exp2()
    }

    /// Largest representable quantized value.
    pub fn max_value(&self) -> i128 {
        (1i128 << self.total_bits) - 1
    }

    /// Quantization resolution in milliwatts.
    pub fn resolution_mw(&self) -> f64 {
        (-(self.frac_bits as f64)).exp2()
    }
}

impl Default for Quantizer {
    fn default() -> Self {
        Quantizer::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_settings() {
        let q = Quantizer::paper();
        assert_eq!(q.total_bits(), 60);
        assert_eq!(q.max_value(), (1i128 << 60) - 1);
    }

    #[test]
    fn roundtrip_within_resolution() {
        let q = Quantizer::paper();
        for v in [0.0f64, 1e-9, 0.001, 1.0, 1234.567, 1e5] {
            let quantized = q.quantize(v).unwrap();
            assert!(
                (q.dequantize(quantized) - v).abs() <= q.resolution_mw(),
                "v = {v}"
            );
        }
    }

    #[test]
    fn overflow_detected() {
        let q = Quantizer::paper();
        let too_big = 2e6 * 1e12; // far beyond 2^20 mW of headroom
        assert!(matches!(
            q.quantize(too_big),
            Err(RadioError::QuantizationOverflow { .. })
        ));
        assert_eq!(q.quantize_saturating(too_big), q.max_value());
    }

    #[test]
    fn rejects_negative_and_nan() {
        let q = Quantizer::paper();
        assert!(q.quantize(-1.0).is_err());
        assert!(q.quantize(f64::NAN).is_err());
        assert!(q.quantize(f64::INFINITY).is_err());
        assert_eq!(q.quantize_saturating(-1.0), 0);
    }

    #[test]
    fn ordering_preserved() {
        let q = Quantizer::paper();
        let a = q.quantize(0.5).unwrap();
        let b = q.quantize(0.50001).unwrap();
        assert!(a < b);
    }

    #[test]
    #[should_panic(expected = "invalid quantizer")]
    fn zero_frac_bits_rejected() {
        let _ = Quantizer::new(0, 60);
    }
}
