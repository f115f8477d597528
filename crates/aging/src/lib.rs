//! NBTI-aging substrate for the Hayat reproduction.
//!
//! The paper estimates Negative-Bias Temperature Instability (NBTI) aging
//! with an ngspice-based in-house estimator built on a proprietary TSMC
//! 45 nm library, scaled to 11 nm "using the scaling factors provided by
//! Intel". This crate implements the published parts of that pipeline from
//! scratch:
//!
//! * **Eq. 7** — the reaction–diffusion threshold-voltage shift
//!   `ΔVth = k · e^(−1500/T) · Vdd⁴ · y^(1/6) · d^(1/6)` ([`NbtiModel`]),
//!   with a technology scale factor `k` calibrated so a 100 °C core loses
//!   ~20% frequency over 10 years (matching Fig. 1(b)'s curves).
//! * A synthetic **standard-cell library** ([`CellLibrary`]) with per-cell
//!   un-aged delays and PMOS stress weights, replacing the proprietary data
//!   sheets.
//! * **Eq. 8** — critical-path delay degradation as the sum of per-element
//!   aged delays ([`CriticalPath::delay_at`]); a core's maximum frequency is
//!   the reciprocal of its slowest path.
//! * **3D aging tables** ([`AgingTable`]) — frequency-degradation factors
//!   pre-computed over (temperature × duty cycle × age) exactly as the
//!   paper's offline phase does with SPICE sweeps, plus the run-time lookup
//!   that *advances* a core's health across an aging epoch by following "a
//!   new 3D-path inside the table" (Section IV-B step 3).
//! * **Health bookkeeping** ([`Health`], [`HealthMap`]) — health is the
//!   aged maximum frequency normalized to the variation-dependent initial
//!   frequency (`f_max,i,t / f_max,i,init`, Section I-A).
//!
//! # Example
//!
//! ```
//! use hayat_aging::{AgingModel, AgingTable};
//! use hayat_units::{Celsius, DutyCycle, Years};
//!
//! let model = AgingModel::paper(7);
//! let table = AgingTable::generate(&model, &Default::default());
//! let h10 = table.relative_frequency(
//!     Celsius::new(100.0).to_kelvin(),
//!     DutyCycle::generic(),
//!     Years::new(10.0),
//! );
//! // A decade at 100 degC costs a noticeable frequency fraction.
//! assert!(h10 < 0.95 && h10 > 0.6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod health;
mod model;
mod nbti;
mod path;
mod table;

pub use crate::cell::{Cell, CellKind, CellLibrary};
pub use crate::health::{Health, HealthMap};
pub use crate::model::AgingModel;
pub use crate::nbti::NbtiModel;
pub use crate::path::CriticalPath;
pub use crate::table::{AgeCurve, AgeCurveScratch, AgingTable, TableAxes};
