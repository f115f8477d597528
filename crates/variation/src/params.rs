//! Parameters of the process-variation model.

use crate::error::VariationError;
use hayat_units::{Gigahertz, Volts};
use serde::{Deserialize, Serialize};

/// Shape of the spatial correlation `ρ(d)` between grid points.
///
/// The paper's model (reference \[25\]) only requires a valid (positive-definite)
/// spatial correlation; two standard kernels are provided. The exponential
/// kernel (paper default) produces rougher fields with more short-range
/// contrast; the Gaussian (squared-exponential) kernel produces smoother
/// fields — DCM ablation experiments can probe the policy's
/// sensitivity to that choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CorrelationKernel {
    /// `ρ(d) = exp(−d / L)` — rough, Ornstein–Uhlenbeck-like fields.
    #[default]
    Exponential,
    /// `ρ(d) = exp(−(d / L)²)` — smooth fields.
    Gaussian,
}

/// Parameters of the spatially correlated `ϑ` field and of its impact on
/// frequency (Eq. 1) and leakage (Eq. 2).
///
/// The defaults ([`VariationParams::paper`]) are calibrated so that a
/// population of paper-scale 8×8 chips shows the ~30–35% core-to-core
/// frequency variation at 1.13 V / 3–4 GHz reported in Section V.
///
/// # Example
///
/// ```
/// use hayat_variation::VariationParams;
///
/// let params = VariationParams::paper();
/// assert!(params.validate().is_ok());
/// assert_eq!(params.sites_per_core, 6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariationParams {
    /// Mean `μ_ϑ` of the process parameter (1.0 = nominal process corner).
    pub mean: f64,
    /// Standard deviation `σ_ϑ` of the process parameter.
    pub sigma: f64,
    /// Correlation length in grid cells.
    pub correlation_length_cells: f64,
    /// Shape of the spatial correlation function.
    pub kernel: CorrelationKernel,
    /// Technology constant `α` of Eq. 1, in GHz: the frequency a critical
    /// path achieves at the nominal process corner (`ϑ = μ = 1`).
    pub alpha: Gigahertz,
    /// Threshold-voltage sensitivity `Vth` of the leakage exponent in Eq. 2.
    pub vth_sensitivity: Volts,
    /// Reference thermal voltage `V_T = kT/q` used to normalize the leakage
    /// factor to 1.0 at the nominal corner (≈ 0.0259 V at 300 K).
    pub thermal_voltage: Volts,
    /// Number of grid points the critical paths of one core cross
    /// (`S_CP(C_i)` in Eq. 1).
    pub sites_per_core: usize,
    /// Seed of the *design* (critical-path placement). The design is shared
    /// by all chips of a population; only the `ϑ` field differs per chip.
    pub design_seed: u64,
}

impl VariationParams {
    /// Parameters reproducing the paper's setup: ~30–35% frequency spread at
    /// 3–4 GHz under `Vdd = 1.13 V` for an 8×8 chip.
    #[must_use]
    pub fn paper() -> Self {
        VariationParams {
            mean: 1.0,
            sigma: 0.10,
            correlation_length_cells: 6.0,
            kernel: CorrelationKernel::Exponential,
            alpha: Gigahertz::new(3.8),
            vth_sensitivity: Volts::new(0.12),
            thermal_voltage: Volts::new(0.0259),
            sites_per_core: 6,
            design_seed: 0xDAC_2015,
        }
    }

    /// Checks parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`VariationError::InvalidParams`] when a parameter is outside
    /// its physical range.
    pub fn validate(&self) -> Result<(), VariationError> {
        if !(self.mean.is_finite() && self.mean > 0.0) {
            return Err(VariationError::InvalidParams {
                reason: format!("mean must be positive, got {}", self.mean),
            });
        }
        if !(self.sigma.is_finite() && self.sigma > 0.0) {
            return Err(VariationError::InvalidParams {
                reason: format!("sigma must be positive, got {}", self.sigma),
            });
        }
        if self.sigma >= self.mean / 2.0 {
            return Err(VariationError::InvalidParams {
                reason: format!(
                    "sigma {} too large relative to mean {} (1/ϑ would blow up)",
                    self.sigma, self.mean
                ),
            });
        }
        if !(self.correlation_length_cells.is_finite() && self.correlation_length_cells > 0.0) {
            return Err(VariationError::InvalidParams {
                reason: "correlation length must be positive".into(),
            });
        }
        if self.alpha.value() <= 0.0 {
            return Err(VariationError::InvalidParams {
                reason: "alpha must be positive".into(),
            });
        }
        if self.thermal_voltage.value() <= 0.0 {
            return Err(VariationError::InvalidParams {
                reason: "thermal voltage must be positive".into(),
            });
        }
        if self.sites_per_core == 0 {
            return Err(VariationError::InvalidParams {
                reason: "critical paths must cross at least one grid point".into(),
            });
        }
        Ok(())
    }

    /// Spatial correlation `ρ(d)` between two grid points at distance `d`
    /// (in grid cells), per the configured [`CorrelationKernel`].
    #[must_use]
    pub fn correlation(&self, distance_cells: f64) -> f64 {
        let r = distance_cells / self.correlation_length_cells;
        match self.kernel {
            CorrelationKernel::Exponential => (-r).exp(),
            CorrelationKernel::Gaussian => (-r * r).exp(),
        }
    }
}

impl Default for VariationParams {
    fn default() -> Self {
        VariationParams::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_params_validate() {
        assert!(VariationParams::paper().validate().is_ok());
    }

    #[test]
    fn correlation_decays_from_one() {
        let p = VariationParams::paper();
        assert!((p.correlation(0.0) - 1.0).abs() < 1e-12);
        assert!(p.correlation(1.0) < 1.0);
        assert!(p.correlation(10.0) < p.correlation(1.0));
        assert!(p.correlation(1000.0) < 1e-10);
    }

    #[test]
    fn rejects_bad_sigma() {
        let mut p = VariationParams::paper();
        p.sigma = 0.0;
        assert!(p.validate().is_err());
        p.sigma = 0.6; // >= mean/2
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_zero_sites() {
        let mut p = VariationParams::paper();
        p.sites_per_core = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_nonpositive_mean() {
        let mut p = VariationParams::paper();
        p.mean = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(VariationParams::default(), VariationParams::paper());
    }

    #[test]
    fn gaussian_kernel_is_smoother_at_short_range() {
        let mut p = VariationParams::paper();
        let exp_short = p.correlation(1.0);
        p.kernel = CorrelationKernel::Gaussian;
        let gauss_short = p.correlation(1.0);
        // Within the correlation length the Gaussian kernel stays higher
        // (smoother field), crossing below further out.
        assert!(gauss_short > exp_short);
        let exp_far = {
            p.kernel = CorrelationKernel::Exponential;
            p.correlation(20.0)
        };
        p.kernel = CorrelationKernel::Gaussian;
        assert!(p.correlation(20.0) < exp_far);
    }
}
