//! Chip geometry substrate for the Hayat reproduction.
//!
//! Every other crate in the workspace — process variation, thermal
//! simulation, aging estimation, power accounting and the Hayat run-time
//! itself — needs a common notion of *where things are on the die*: which
//! cores exist, how large they are, which cores are adjacent (and therefore
//! thermally coupled), and how a fine-grained process-variation grid overlays
//! the core array.
//!
//! The paper evaluates an 8×8 mesh of Alpha 21264-class cores
//! (1.70 mm × 1.75 mm each, 2 MB shared L2, 22 nm data scaled to 11 nm);
//! [`Floorplan::paper_8x8`] reproduces that configuration, while
//! [`FloorplanBuilder`] lets downstream users describe arbitrary rectangular
//! meshes.
//!
//! # Example
//!
//! ```
//! use hayat_floorplan::{Floorplan, CoreId};
//!
//! let fp = Floorplan::paper_8x8();
//! assert_eq!(fp.core_count(), 64);
//! let c = CoreId::new(9); // row 1, column 1 of the mesh
//! assert_eq!(fp.neighbors(c).count(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod core_id;
mod error;
mod floorplan;
mod grid;
mod position;

pub use crate::core_id::CoreId;
pub use crate::error::BuildFloorplanError;
pub use crate::floorplan::{Floorplan, FloorplanBuilder, Neighbors};
pub use crate::grid::{GridCell, GridOverlay};
pub use crate::position::{CorePosition, Millimeters, Point};
