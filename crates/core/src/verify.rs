//! Independent floorplan verification — the paper's eqs. 2–4 checked
//! directly against the region, with no solver machinery involved.
//!
//! Every placer output in this workspace is expected to pass `verify`; the
//! test suites use it as the ground truth the CP model is validated against.

// Determinism: online session state is journaled and replayed, and its
// checks run here.
#![deny(clippy::disallowed_methods, clippy::disallowed_types)]

use crate::model::Module;
use crate::placement::Floorplan;
use rrf_fabric::{Point, Region, ResourceKind};
use std::fmt;

/// A single constraint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// eq. 2: a tile fell outside the constrained region (or onto a static
    /// / masked tile — the region reports those as unavailable).
    OutsideRegion { module: usize, tile: Point },
    /// eq. 3: a tile landed on a fabric tile of a different resource type.
    ResourceMismatch {
        module: usize,
        tile: Point,
        wanted: ResourceKind,
        found: ResourceKind,
    },
    /// eq. 4: two modules share a tile.
    Overlap {
        first: usize,
        second: usize,
        tile: Point,
    },
    /// A placement referenced a module or shape index that does not exist.
    BadIndex { module: usize, shape: usize },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::OutsideRegion { module, tile } => {
                write!(f, "module {module}: tile {tile} outside region")
            }
            Violation::ResourceMismatch {
                module,
                tile,
                wanted,
                found,
            } => write!(
                f,
                "module {module}: tile {tile} needs {wanted}, fabric has {found}"
            ),
            Violation::Overlap {
                first,
                second,
                tile,
            } => write!(f, "modules {first} and {second} overlap at {tile}"),
            Violation::BadIndex { module, shape } => {
                write!(f, "placement references module {module} shape {shape}")
            }
        }
    }
}

/// Check a floorplan against the paper's constraint families. Returns all
/// violations (empty = valid).
pub fn verify(region: &Region, modules: &[Module], plan: &Floorplan) -> Vec<Violation> {
    let mut violations = Vec::new();
    #[expect(
        clippy::disallowed_types,
        reason = "lookup only, never iterated, so its order cannot leak; a BTreeMap here \
                  doubled verify time"
    )]
    let mut owner: std::collections::HashMap<(i32, i32), usize> = std::collections::HashMap::new();
    for p in &plan.placements {
        if p.module >= modules.len() || p.shape >= modules[p.module].num_shapes() {
            violations.push(Violation::BadIndex {
                module: p.module,
                shape: p.shape,
            });
            continue;
        }
        for (tile, wanted) in modules[p.module].shapes()[p.shape].tiles_at(p.x, p.y) {
            let found = region.kind_at(tile.x, tile.y);
            if found == ResourceKind::Static {
                violations.push(Violation::OutsideRegion {
                    module: p.module,
                    tile,
                });
            } else if found != wanted {
                violations.push(Violation::ResourceMismatch {
                    module: p.module,
                    tile,
                    wanted,
                    found,
                });
            }
            if let Some(&prev) = owner.get(&(tile.x, tile.y)) {
                if prev != p.module {
                    violations.push(Violation::Overlap {
                        first: prev,
                        second: p.module,
                        tile,
                    });
                }
            } else {
                owner.insert((tile.x, tile.y), p.module);
            }
        }
    }
    violations
}

/// Convenience: `true` iff the plan satisfies every constraint.
pub fn is_valid(region: &Region, modules: &[Module], plan: &Floorplan) -> bool {
    verify(region, modules, plan).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacedModule;
    use rrf_fabric::{device, Fabric, Rect};
    use rrf_geost::{ShapeDef, ShiftedBox};

    fn clb_module(name: &str, w: i32, h: i32) -> Module {
        Module::new(
            name,
            vec![ShapeDef::new(vec![ShiftedBox::new(
                0,
                0,
                w,
                h,
                ResourceKind::Clb,
            )])],
        )
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
    fn valid_plan_passes() {
        let region = Region::whole(device::homogeneous(8, 4));
        let modules = vec![clb_module("a", 2, 2), clb_module("b", 3, 2)];
        let plan = Floorplan::new(vec![place(0, 0, 0), place(1, 2, 0)]);
        assert!(is_valid(&region, &modules, &plan));
    }

    #[test]
    fn outside_region_detected() {
        let region = Region::whole(device::homogeneous(4, 4));
        let modules = vec![clb_module("a", 3, 1)];
        let plan = Floorplan::new(vec![place(0, 2, 0)]);
        let v = verify(&region, &modules, &plan);
        assert_eq!(
            v,
            vec![Violation::OutsideRegion {
                module: 0,
                tile: Point::new(4, 0)
            }]
        );
    }

    #[test]
    fn static_mask_detected_as_outside() {
        let mut region = Region::whole(device::homogeneous(8, 4));
        region.add_static_mask(Rect::new(4, 0, 4, 4));
        let modules = vec![clb_module("a", 2, 2)];
        let plan = Floorplan::new(vec![place(0, 3, 0)]);
        let v = verify(&region, &modules, &plan);
        assert_eq!(v.len(), 2); // two tiles in the masked half
    }

    #[test]
    fn resource_mismatch_detected() {
        let region = Region::whole(Fabric::from_art("cBcc").unwrap());
        let modules = vec![clb_module("a", 2, 1)];
        let plan = Floorplan::new(vec![place(0, 0, 0)]);
        let v = verify(&region, &modules, &plan);
        assert_eq!(
            v,
            vec![Violation::ResourceMismatch {
                module: 0,
                tile: Point::new(1, 0),
                wanted: ResourceKind::Clb,
                found: ResourceKind::Bram,
            }]
        );
    }

    #[test]
    fn overlap_detected_once_per_tile() {
        let region = Region::whole(device::homogeneous(8, 4));
        let modules = vec![clb_module("a", 2, 2), clb_module("b", 2, 2)];
        let plan = Floorplan::new(vec![place(0, 0, 0), place(1, 1, 0)]);
        let v = verify(&region, &modules, &plan);
        let overlaps: Vec<&Violation> = v
            .iter()
            .filter(|v| matches!(v, Violation::Overlap { .. }))
            .collect();
        assert_eq!(overlaps.len(), 2); // tiles (1,0) and (1,1)
    }

    #[test]
    fn bad_indices_detected() {
        let region = Region::whole(device::homogeneous(4, 4));
        let modules = vec![clb_module("a", 1, 1)];
        let plan = Floorplan::new(vec![
            PlacedModule {
                module: 5,
                shape: 0,
                x: 0,
                y: 0,
            },
            PlacedModule {
                module: 0,
                shape: 3,
                x: 0,
                y: 0,
            },
        ]);
        let v = verify(&region, &modules, &plan);
        assert_eq!(v.len(), 2);
        assert!(matches!(v[0], Violation::BadIndex { module: 5, .. }));
    }

    #[test]
    fn mixed_resource_module_on_matching_fabric() {
        let region = Region::whole(Fabric::from_art("cBc\ncBc").unwrap());
        let module = Module::new(
            "mix",
            vec![ShapeDef::new(vec![
                ShiftedBox::new(0, 0, 1, 2, ResourceKind::Clb),
                ShiftedBox::new(1, 0, 1, 2, ResourceKind::Bram),
            ])],
        );
        let plan = Floorplan::new(vec![place(0, 0, 0)]);
        assert!(is_valid(&region, &[module], &plan));
    }

    #[test]
    fn violation_display() {
        let v = Violation::Overlap {
            first: 1,
            second: 2,
            tile: Point::new(3, 4),
        };
        assert!(v.to_string().contains("overlap"));
    }
}
