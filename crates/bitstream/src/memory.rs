//! The device's configuration memory: loads partial bitstreams, merges
//! frames, and detects conflicting writes.

// Determinism: frame memory feeds bitstream bytes and session dumps.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use crate::assemble::PartialBitstream;
use crate::frame::FrameGeometry;
use rrf_fabric::Region;
use std::collections::BTreeMap;
use std::fmt;

/// Loading failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// CRC mismatch — the bitstream is corrupt.
    BadCrc { name: String },
    /// A frame's word count does not match the device geometry.
    FrameSizeMismatch {
        name: String,
        column: i32,
        expected: usize,
        got: usize,
    },
    /// Two loaded bitstreams configure the same word — the bitstream-level
    /// signature of overlapping placements.
    Conflict {
        column: i32,
        word: usize,
        first: String,
        second: String,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::BadCrc { name } => write!(f, "bitstream {name:?}: CRC mismatch"),
            LoadError::FrameSizeMismatch {
                name,
                column,
                expected,
                got,
            } => write!(
                f,
                "bitstream {name:?}: frame {column} has {got} words, device expects {expected}"
            ),
            LoadError::Conflict {
                column,
                word,
                first,
                second,
            } => write!(
                f,
                "column {column} word {word}: {second:?} overwrites {first:?}"
            ),
        }
    }
}

impl std::error::Error for LoadError {}

/// The configuration memory of one device region.
pub struct ConfigMemory {
    region: Region,
    geometry: FrameGeometry,
    /// column -> (words, owner name per non-zero word). Ordered so that
    /// whole-memory walks (unload, live_words) are column-ascending and
    /// replay-stable.
    columns: BTreeMap<i32, (Vec<u32>, Vec<Option<String>>)>,
}

impl ConfigMemory {
    pub fn new(region: Region, geometry: FrameGeometry) -> ConfigMemory {
        ConfigMemory {
            region,
            geometry,
            columns: BTreeMap::new(),
        }
    }

    /// Load a partial bitstream: CRC check, size check, merge with
    /// conflict detection (only non-zero words are owned — zero words are
    /// the "don't touch" mask).
    pub fn load(&mut self, bitstream: &PartialBitstream) -> Result<(), LoadError> {
        if !bitstream.verify_crc() {
            return Err(LoadError::BadCrc {
                name: bitstream.name.clone(),
            });
        }
        // Validate sizes first so a failed load leaves memory untouched.
        for frame in &bitstream.frames {
            let expected =
                self.geometry
                    .column_words(&self.region, frame.address.column) as usize;
            if frame.words.len() != expected {
                return Err(LoadError::FrameSizeMismatch {
                    name: bitstream.name.clone(),
                    column: frame.address.column,
                    expected,
                    got: frame.words.len(),
                });
            }
        }
        // Detect conflicts before mutating.
        for frame in &bitstream.frames {
            if let Some((_, owners)) = self.columns.get(&frame.address.column) {
                for (i, &w) in frame.words.iter().enumerate() {
                    if w != 0 {
                        if let Some(owner) = &owners[i] {
                            return Err(LoadError::Conflict {
                                column: frame.address.column,
                                word: i,
                                first: owner.clone(),
                                second: bitstream.name.clone(),
                            });
                        }
                    }
                }
            }
        }
        for frame in &bitstream.frames {
            let entry = self
                .columns
                .entry(frame.address.column)
                .or_insert_with(|| (vec![0; frame.words.len()], vec![None; frame.words.len()]));
            for (i, &w) in frame.words.iter().enumerate() {
                if w != 0 {
                    entry.0[i] = w;
                    entry.1[i] = Some(bitstream.name.clone());
                }
            }
        }
        Ok(())
    }

    /// Remove every word owned by `name` (module departure).
    pub fn unload(&mut self, name: &str) {
        for (words, owners) in self.columns.values_mut() {
            for (w, o) in words.iter_mut().zip(owners.iter_mut()) {
                if o.as_deref() == Some(name) {
                    *w = 0;
                    *o = None;
                }
            }
        }
    }

    /// Read back one column's words (zeros if never written).
    pub fn readback(&self, column: i32) -> Vec<u32> {
        match self.columns.get(&column) {
            Some((words, _)) => words.clone(),
            None => vec![0; self.geometry.column_words(&self.region, column) as usize],
        }
    }

    /// Total non-zero configuration words (live configuration footprint).
    pub fn live_words(&self) -> usize {
        self.columns
            .values()
            .map(|(w, _)| w.iter().filter(|&&x| x != 0).count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::assemble_module;
    use rrf_core::{Module, PlacedModule};
    use rrf_fabric::{Fabric, ResourceKind};
    use rrf_geost::{ShapeDef, ShiftedBox};

    fn setup() -> (Region, Vec<Module>, FrameGeometry) {
        let region = Region::whole(Fabric::from_art("cccc\ncccc").unwrap());
        let m = Module::new(
            "m",
            vec![ShapeDef::new(vec![ShiftedBox::new(
                0,
                0,
                2,
                1,
                ResourceKind::Clb,
            )])],
        );
        let n = Module::new("n", m.shapes().to_vec());
        (region, vec![m, n], FrameGeometry::default())
    }

    fn place(module: usize, x: i32, y: i32) -> PlacedModule {
        PlacedModule {
            module,
            shape: 0,
            x,
            y,
        }
    }

    #[test]
    fn load_readback_roundtrip() {
        let (region, modules, g) = setup();
        let bs = assemble_module(&region, &modules, &place(0, 0, 0), &g);
        let mut mem = ConfigMemory::new(region, g);
        mem.load(&bs).unwrap();
        assert_eq!(mem.readback(0), bs.frames[0].words);
        assert!(mem.live_words() > 0);
    }

    #[test]
    fn disjoint_modules_merge() {
        let (region, modules, g) = setup();
        let a = assemble_module(&region, &modules, &place(0, 0, 0), &g);
        let b = assemble_module(&region, &modules, &place(1, 0, 1), &g);
        let mut mem = ConfigMemory::new(region, g);
        mem.load(&a).unwrap();
        mem.load(&b).unwrap(); // same columns, different rows: fine
        assert_eq!(mem.live_words(), a.words_nonzero() + b.words_nonzero());
    }

    #[test]
    fn overlap_is_a_conflict() {
        let (region, modules, g) = setup();
        let a = assemble_module(&region, &modules, &place(0, 0, 0), &g);
        let b = assemble_module(&region, &modules, &place(1, 1, 0), &g);
        let mut mem = ConfigMemory::new(region, g);
        mem.load(&a).unwrap();
        let err = mem.load(&b).unwrap_err();
        assert!(matches!(err, LoadError::Conflict { column: 1, .. }));
    }

    #[test]
    fn unload_frees_words() {
        let (region, modules, g) = setup();
        let a = assemble_module(&region, &modules, &place(0, 0, 0), &g);
        let b = assemble_module(&region, &modules, &place(1, 1, 0), &g);
        let mut mem = ConfigMemory::new(region, g);
        mem.load(&a).unwrap();
        mem.unload("m");
        assert_eq!(mem.live_words(), 0);
        mem.load(&b).unwrap(); // now fits
    }

    #[test]
    fn corrupt_bitstream_rejected() {
        let (region, modules, g) = setup();
        let mut bs = assemble_module(&region, &modules, &place(0, 0, 0), &g);
        bs.frames[0].words[0] ^= 0xFF;
        let mut mem = ConfigMemory::new(region, g);
        assert!(matches!(mem.load(&bs), Err(LoadError::BadCrc { .. })));
        assert_eq!(mem.live_words(), 0);
    }

    #[test]
    fn wrong_frame_size_rejected() {
        let (region, modules, g) = setup();
        let mut bs = assemble_module(&region, &modules, &place(0, 0, 0), &g);
        bs.frames[0].words.push(7);
        bs.crc = crate::crc::crc32(
            &bs.frames
                .iter()
                .flat_map(|f| f.words.iter().copied())
                .collect::<Vec<_>>(),
        );
        let mut mem = ConfigMemory::new(region, g);
        assert!(matches!(
            mem.load(&bs),
            Err(LoadError::FrameSizeMismatch { .. })
        ));
    }

    impl crate::assemble::PartialBitstream {
        fn words_nonzero(&self) -> usize {
            self.frames
                .iter()
                .flat_map(|f| &f.words)
                .filter(|&&w| w != 0)
                .count()
        }
    }
}
