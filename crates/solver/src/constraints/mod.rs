//! The constraint library: ready-made propagators.

pub mod arith;
pub mod cumulative;
pub mod element;
pub mod lex;
pub mod linear;
pub mod minmax;
pub mod table;

pub use arith::NotEqualOffset;
pub use cumulative::{Cumulative, Task};
pub use element::ElementConst;
pub use lex::LexLeqPair;
pub use linear::{LinRel, Linear};
pub use minmax::Maximum;
pub use table::Table;
