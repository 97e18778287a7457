//! # rrf-geost — a geometric constraint kernel with resource properties
//!
//! The paper implements its placer "based on the geost constraint kernel by
//! N. Beldiceanu et al." (§IV): objects are finite sets of *shapes*, shapes
//! are sets of *shifted boxes*, and a sweep-based propagator keeps objects
//! from overlapping. The original kernel is purely geometric; the paper
//! extends it in two ways, both implemented here:
//!
//! 1. **boxes carry a resource property** ([`shape::ShiftedBox::resource`]),
//! 2. **forbidden regions carry a resource property** — realized by
//!    [`compat`], which turns a heterogeneous fabric region into the set of
//!    anchor positions where every box of a shape lands on matching
//!    resources (the fabric's non-matching tiles act as resource-typed
//!    forbidden regions for that box).
//!
//! Both extensions and the non-overlap core test shapes through one
//! column-mask kernel ([`fit`]): a box against a mask of one bit per tile,
//! one word operation per column.
//!
//! [`nonoverlap::NonOverlap`] is the geometric core: a propagator over
//! polymorphic objects (shape variable + anchor variables) that prunes
//! anchor bounds against the *mandatory parts* of all other objects and
//! fails as soon as two mandatory parts collide.

#![forbid(unsafe_code)]

pub mod compat;
pub mod fit;
pub mod grid;
pub mod nonoverlap;
pub mod object;
pub mod shape;

pub use compat::{
    allowed_anchors, anchor_rows, canonical_tiles, classify_shapes, first_anchor,
    post_placement_table, ShapeFate,
};
pub use grid::OccupancyGrid;
pub use nonoverlap::NonOverlap;
pub use object::GeostObject;
pub use shape::{ShapeDef, ShiftedBox};
