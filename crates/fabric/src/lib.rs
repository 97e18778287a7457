//! # rrf-fabric — heterogeneous FPGA fabric model
//!
//! This crate models the *partial region* of Wold, Koch & Torresen,
//! "Enhancing Resource Utilization with Design Alternatives in Runtime
//! Reconfigurable Systems" (RAW/IPDPS-W 2011), §III-B: a grid of unit tiles,
//! each carrying a *resource type* (CLB, BRAM, DSP, IO, clock, or static /
//! unavailable). Modern FPGAs are heterogeneous — dedicated resources sit in
//! columns (older devices) or irregular patterns (newer devices), and the
//! placement model must know where every resource is.
//!
//! The crate provides:
//!
//! * [`ResourceKind`] — the resource type carried by every tile;
//! * [`Fabric`] — a dense width×height tile grid with constructors for
//!   string-art test fabrics and programmatic layouts;
//! * [`device`] — a catalog of realistic device models (Virtex-style column
//!   layouts, irregular-heterogeneity models, homogeneous references);
//! * [`Region`] — a reconfigurable region carved out of a fabric, with a
//!   static-region mask (Fig. 4c of the paper);
//! * [`Fault`] / [`FaultSet`] — defective tiles and columns, composed into
//!   a region as resource-typed forbidden tiles (the paper's own extension
//!   mechanism reused for fault tolerance);
//! * [`ColumnMask`] — one bit per tile in column-major words, the layout
//!   of the fit kernels;
//! * [`Rect`] / [`Point`] — shared integer geometry.
//!
//! ```
//! use rrf_fabric::{device, ResourceKind};
//!
//! let fabric = device::virtex_like(48, 16);
//! assert_eq!(fabric.width(), 48);
//! assert!(fabric.count(ResourceKind::Bram) > 0);
//! assert!(fabric.count(ResourceKind::Clb) > fabric.count(ResourceKind::Dsp));
//! ```

#![forbid(unsafe_code)]

pub mod device;
pub mod error;
pub mod fault;
pub mod geometry;
pub mod grid;
pub mod mask;
pub mod region;
pub mod resource;
pub mod stats;

pub use error::FabricError;
pub use fault::{Fault, FaultSet, FaultedTile};
pub use geometry::{Point, Rect};
pub use grid::Fabric;
pub use mask::ColumnMask;
pub use region::Region;
pub use resource::ResourceKind;
pub use stats::ResourceCensus;
