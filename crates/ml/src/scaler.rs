//! Feature standardization.
//!
//! Network features span wildly different scales (bits per second vs.
//! seconds), so both inputs and the delay target are z-scored before
//! training; the scaler is stored with the model so inference sees the
//! same transform.

use serde::{Deserialize, Serialize};

/// Per-dimension standardizer `x ↦ (x − μ) / σ`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    mean: Vec<f64>,
    std: Vec<f64>,
}

impl StandardScaler {
    /// Fit on rows of features (all rows the same width). Constant
    /// dimensions get σ = 1 so they pass through centered.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit a scaler on no data");
        let d = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == d), "inconsistent widths");
        let n = rows.len() as f64;
        let mut mean = vec![0.0; d];
        for r in rows {
            for (m, x) in mean.iter_mut().zip(r) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0; d];
        for r in rows {
            for k in 0..d {
                let dx = r[k] - mean[k];
                var[k] += dx * dx;
            }
        }
        let std = var
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s < 1e-12 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Self { mean, std }
    }

    /// Fit a one-dimensional scaler.
    pub fn fit_scalar(values: &[f64]) -> Self {
        let rows: Vec<Vec<f64>> = values.iter().map(|v| vec![*v]).collect();
        Self::fit(&rows)
    }

    /// Dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Standardize one row in place.
    pub fn transform(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.mean.len(), "width mismatch");
        for (k, x) in row.iter_mut().enumerate() {
            *x = (*x - self.mean[k]) / self.std[k];
        }
    }

    /// Standardize into `f32` (the network's dtype).
    pub fn transform_f32(&self, row: &[f64]) -> Vec<f32> {
        assert_eq!(row.len(), self.mean.len(), "width mismatch");
        row.iter()
            .zip(self.mean.iter().zip(&self.std))
            .map(|(x, (m, s))| ((x - m) / s) as f32)
            .collect()
    }

    /// Standardize a scalar with dimension-0 statistics.
    pub fn transform_scalar(&self, v: f64) -> f64 {
        (v - self.mean[0]) / self.std[0]
    }

    /// Invert the transform for a scalar (dimension 0).
    pub fn inverse_scalar(&self, z: f64) -> f64 {
        z * self.std[0] + self.mean[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_and_transform() {
        let rows = vec![vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 500.0]];
        let s = StandardScaler::fit(&rows);
        let mut r = vec![3.0, 300.0];
        s.transform(&mut r);
        assert!(r[0].abs() < 1e-12 && r[1].abs() < 1e-12);
        let mut r2 = vec![5.0, 100.0];
        s.transform(&mut r2);
        assert!(r2[0] > 1.0 && r2[1] < -1.0);
    }

    #[test]
    fn constant_dimension_passes_through() {
        let rows = vec![vec![7.0], vec![7.0], vec![7.0]];
        let s = StandardScaler::fit(&rows);
        let mut r = vec![7.0];
        s.transform(&mut r);
        assert_eq!(r[0], 0.0);
        let mut r2 = vec![9.0];
        s.transform(&mut r2);
        assert_eq!(r2[0], 2.0);
    }

    #[test]
    fn scalar_roundtrip() {
        let s = StandardScaler::fit_scalar(&[10.0, 20.0, 30.0]);
        let z = s.transform_scalar(25.0);
        assert!((s.inverse_scalar(z) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn f32_transform_matches() {
        let rows = vec![vec![0.0, 1.0], vec![2.0, 3.0]];
        let s = StandardScaler::fit(&rows);
        let f = s.transform_f32(&[1.0, 2.0]);
        assert!(f[0].abs() < 1e-6 && f[1].abs() < 1e-6);
    }
}
