//! Complex FFT — the numerical kernel of the §4.2 image-processing example.
//!
//! A small, self-contained radix-2 implementation: the parallel 2D-FFT
//! workload carries *real* spectral data across the simulated machine and
//! verifies it against the serial transform computed here, so the
//! communication experiment is checked end-to-end, not just timed.

use std::ops::{Add, Mul, Sub};

/// A complex number (f64 components).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub(crate) re: f64,
    /// Imaginary part.
    pub(crate) im: f64,
}

impl Complex {
    /// Construct.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Zero.
    pub(crate) const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    /// e^(i theta).
    pub(crate) fn cis(theta: f64) -> Self {
        Complex {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Serialize to 16 bytes (big-endian re, im).
    pub(crate) fn to_bytes(self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&self.re.to_be_bytes());
        b[8..].copy_from_slice(&self.im.to_be_bytes());
        b
    }

    /// Deserialize from 16 bytes.
    pub(crate) fn from_bytes(b: &[u8]) -> Self {
        Complex {
            re: f64::from_be_bytes(b[..8].try_into().expect("8 bytes")),
            im: f64::from_be_bytes(b[8..16].try_into().expect("8 bytes")),
        }
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, o: Complex) -> Complex {
        Complex::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

/// In-place iterative radix-2 Cooley–Tukey FFT. `data.len()` must be a
/// power of two.
pub fn fft1d(data: &mut [Complex]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Number of butterfly operations in an n-point FFT: (n/2) log2 n. Used for
/// the 68020+68882 compute-cost model.
pub(crate) fn butterflies(n: usize) -> u64 {
    (n as u64 / 2) * u64::from(n.trailing_zeros())
}

/// Modeled time of one complex butterfly on the 25 MHz 68020 + 68882
/// (1 complex multiply = 4 fp multiplies + 2 adds, plus 4 adds and loop
/// overhead; the 68882 takes ~5-9 µs per fp multiply at this clock).
pub(crate) const FFT_BUTTERFLY_NS: u64 = 30_000;

/// Modeled duration of an n-point 1D FFT.
pub(crate) fn fft_cost_ns(n: usize) -> u64 {
    butterflies(n) * FFT_BUTTERFLY_NS
}

/// Serial 2D FFT of an `n x n` image (row-major), exactly the §4.2 recipe:
/// 1D FFT of every row, then 1D FFT of every column.
pub(crate) fn fft2d_serial(img: &mut [Complex], n: usize) {
    assert_eq!(img.len(), n * n);
    for r in 0..n {
        fft1d(&mut img[r * n..(r + 1) * n]);
    }
    let mut col = vec![Complex::ZERO; n];
    for c in 0..n {
        for r in 0..n {
            col[r] = img[r * n + c];
        }
        fft1d(&mut col);
        for r in 0..n {
            img[r * n + c] = col[r];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Max absolute element difference between two complex slices.
    fn max_err(a: &[Complex], b: &[Complex]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut s = Complex::ZERO;
                for (j, v) in x.iter().enumerate() {
                    s = s + *v
                        * Complex::cis(-2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64);
                }
                s
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        let x: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let expect = naive_dft(&x);
        let mut got = x;
        fft1d(&mut got);
        assert!(max_err(&got, &expect) < 1e-9);
    }

    #[test]
    fn impulse_gives_flat_spectrum() {
        let mut x = vec![Complex::ZERO; 8];
        x[0] = Complex::new(1.0, 0.0);
        fft1d(&mut x);
        for v in &x {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    fn constant_gives_dc_only() {
        let mut x = vec![Complex::new(2.0, 0.0); 8];
        fft1d(&mut x);
        assert!((x[0].re - 16.0).abs() < 1e-12);
        for v in &x[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_holds() {
        let x: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 1.3).sin(), (i as f64 * 0.21).cos()))
            .collect();
        let time_energy: f64 = x.iter().map(|v| v.abs().powi(2)).sum();
        let mut f = x;
        fft1d(&mut f);
        let freq_energy: f64 = f.iter().map(|v| v.abs().powi(2)).sum::<f64>() / 64.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut x = vec![Complex::ZERO; 12];
        fft1d(&mut x);
    }

    #[test]
    fn fft2d_separable_identity() {
        // 2D FFT of a separable product equals the outer product of the
        // 1D FFTs.
        let n = 8;
        let row: Vec<Complex> = (0..n).map(|i| Complex::new(i as f64, 0.0)).collect();
        let col: Vec<Complex> = (0..n)
            .map(|i| Complex::new(1.0 / (i + 1) as f64, 0.0))
            .collect();
        let mut img = vec![Complex::ZERO; n * n];
        for r in 0..n {
            for c in 0..n {
                img[r * n + c] = col[r] * row[c];
            }
        }
        fft2d_serial(&mut img, n);
        let mut fr = row;
        fft1d(&mut fr);
        let mut fc = col;
        fft1d(&mut fc);
        for r in 0..n {
            for c in 0..n {
                let expect = fc[r] * fr[c];
                assert!((img[r * n + c] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn complex_byte_round_trip() {
        let c = Complex::new(-3.25, 7.5e-3);
        assert_eq!(Complex::from_bytes(&c.to_bytes()), c);
    }

    #[test]
    fn butterfly_count() {
        assert_eq!(butterflies(256), 128 * 8);
        assert_eq!(fft_cost_ns(2), FFT_BUTTERFLY_NS);
    }
}
