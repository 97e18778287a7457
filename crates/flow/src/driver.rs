//! The Fig. 2 pipeline: specs in, optimal placement out.

use crate::report::{FlowReport, PlacedModuleReport};
use crate::spec::{FlowSpec, ModuleEntry};
use rrf_core::{cp, metrics, verify, Module, PlacementProblem};
use std::fmt;

/// Errors surfaced by the flow driver.
#[derive(Debug)]
pub enum FlowError {
    /// The region spec could not be materialized.
    Region(rrf_fabric::FabricError),
    /// A module entry has neither shapes nor a netlist, or its netlist is
    /// broken or needs resources the layout generator cannot synthesize.
    Module { name: String, message: String },
    /// The placer returned a floorplan violating its own constraints —
    /// a solver bug, surfaced loudly instead of silently reported.
    InvalidPlacement(Vec<verify::Violation>),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Region(e) => write!(f, "region spec error: {e}"),
            FlowError::Module { name, message } => {
                write!(f, "module {name:?}: {message}")
            }
            FlowError::InvalidPlacement(v) => {
                write!(f, "placer produced {} constraint violations", v.len())
            }
        }
    }
}

impl std::error::Error for FlowError {}

/// Resolve one module entry to concrete design alternatives: either the
/// explicit shapes, or the netlist packed and laid out by the generator.
/// Public so services embedding the flow (e.g. `rrf-server`) resolve
/// modules exactly the way the batch driver does.
pub fn resolve_module(entry: &ModuleEntry) -> Result<Module, FlowError> {
    let err = |message: String| FlowError::Module {
        name: entry.name.clone(),
        message,
    };
    if let Some(source) = &entry.netlist {
        if !entry.shapes.is_empty() {
            return Err(err("give either shapes or a netlist, not both".into()));
        }
        let netlist = rrf_netlist::parse(&source.text).map_err(|e| err(e.to_string()))?;
        let demand = rrf_netlist::pack(&netlist, &rrf_netlist::PackRules::default());
        if demand.dsps > 0 {
            return Err(err(
                "DSP cells are not supported by the layout generator".into()
            ));
        }
        if demand.clbs == 0 {
            return Err(err("netlist packs to zero CLBs".into()));
        }
        let spec = rrf_modgen::ModuleSpec {
            clbs: demand.clbs,
            brams: demand.brams,
            height: source.height.max(2),
        };
        let shapes = rrf_modgen::derive_alternatives(
            &spec,
            &rrf_modgen::layout::LayoutParams::default(),
            source.alternatives,
            (source.height - 2).max(2),
        );
        return Ok(Module::new(entry.name.clone(), shapes));
    }
    if entry.shapes.is_empty() {
        return Err(err("module has neither shapes nor a netlist".into()));
    }
    Ok(Module::new(entry.name.clone(), entry.shapes.clone()))
}

/// Run the full flow for one job description.
pub fn run(spec: &FlowSpec) -> Result<FlowReport, FlowError> {
    let region = spec.region.build().map_err(FlowError::Region)?;
    let modules: Vec<Module> = spec
        .modules
        .iter()
        .map(resolve_module)
        .collect::<Result<_, _>>()?;
    // `resolve_module` stays permissive so the analyzer can report such
    // shapes (RRF001); the placer's kernels assume well-formed boxes.
    for m in &modules {
        if let Some(i) = m.shapes().iter().position(|s| !s.is_well_formed()) {
            return Err(FlowError::Module {
                name: m.name.clone(),
                message: format!(
                    "shape {i} is malformed: every box needs a positive size and no two may overlap"
                ),
            });
        }
    }
    let problem = PlacementProblem::new(region, modules);
    let config = spec.placer.to_config();
    let outcome = cp::place(&problem, &config);

    let (placements, metric, floorplan) = match &outcome.plan {
        Some(plan) => {
            let violations = verify::verify(&problem.region, &problem.modules, plan);
            if !violations.is_empty() {
                return Err(FlowError::InvalidPlacement(violations));
            }
            let placements = plan
                .placements
                .iter()
                .map(|p| PlacedModuleReport {
                    name: problem.modules[p.module].name.clone(),
                    shape: p.shape,
                    x: p.x,
                    y: p.y,
                })
                .collect();
            let metric = metrics(&problem.region, &problem.modules, plan);
            (placements, Some(metric), Some(plan.clone()))
        }
        None => (Vec::new(), None, None),
    };

    Ok(FlowReport {
        feasible: outcome.plan.is_some(),
        proven: outcome.proven,
        extent: outcome.extent,
        placements,
        metrics: metric,
        stats: outcome.stats,
        floorplan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DeviceSpec, ModuleEntry, PlacerSettings, RegionSpec};
    use rrf_fabric::ResourceKind;
    use rrf_geost::{ShapeDef, ShiftedBox};

    fn clb_shape(w: i32, h: i32) -> ShapeDef {
        ShapeDef::new(vec![ShiftedBox::new(0, 0, w, h, ResourceKind::Clb)])
    }

    fn simple_spec() -> FlowSpec {
        FlowSpec {
            region: RegionSpec {
                device: DeviceSpec::Homogeneous {
                    width: 8,
                    height: 4,
                },
                bounds: None,
                static_masks: vec![],
            },
            modules: vec![
                ModuleEntry {
                    name: "alu".into(),
                    shapes: vec![clb_shape(4, 2), clb_shape(2, 4)],
                    netlist: None,
                },
                ModuleEntry {
                    name: "fir".into(),
                    shapes: vec![clb_shape(4, 2), clb_shape(2, 4)],
                    netlist: None,
                },
            ],
            placer: PlacerSettings {
                time_limit_ms: None,
                ..PlacerSettings::default()
            },
        }
    }

    #[test]
    fn end_to_end_success() {
        let report = run(&simple_spec()).unwrap();
        assert!(report.feasible);
        assert!(report.proven);
        assert_eq!(report.extent, Some(4)); // both modules pick 2x4
        assert_eq!(report.placements.len(), 2);
        assert_eq!(report.placements[0].name, "alu");
        let m = report.metrics.unwrap();
        assert!((m.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_reported_not_errored() {
        let mut spec = simple_spec();
        spec.modules.push(ModuleEntry {
            name: "huge".into(),
            shapes: vec![clb_shape(8, 4)],
            netlist: None,
        });
        let report = run(&spec).unwrap();
        assert!(!report.feasible);
        assert!(report.proven);
        assert!(report.placements.is_empty());
        assert!(report.metrics.is_none());
    }

    #[test]
    fn netlist_module_resolves_and_places() {
        let mut spec = simple_spec();
        spec.region.device = DeviceSpec::Columns {
            width: 40,
            height: 8,
            bram_period: 10,
            bram_offset: 4,
            dsp_period: 0,
            dsp_offset: 0,
            io_ring: 0,
            center_clock: false,
        };
        spec.modules = vec![ModuleEntry {
            name: "packed".into(),
            shapes: vec![],
            netlist: Some(crate::spec::NetlistSource {
                text: "\ncell l0 lut\ncell l1 lut\ncell l2 lut\ncell l3 lut\n\
                       cell l4 lut\ncell f0 ff\ncell b0 bram\nnet n0 l0 f0\n\
                       net n1 l1 b0\n"
                    .into(),
                height: 4,
                alternatives: 4,
            }),
        }];
        let report = run(&spec).unwrap();
        assert!(report.feasible);
        // 5 LUTs / 1 FF → 2 CLBs; 1 BRAM block.
        assert_eq!(report.placements.len(), 1);
    }

    #[test]
    fn empty_module_entry_is_error() {
        let mut spec = simple_spec();
        spec.modules.push(ModuleEntry {
            name: "void".into(),
            shapes: vec![],
            netlist: None,
        });
        assert!(matches!(run(&spec), Err(FlowError::Module { .. })));
    }

    #[test]
    fn broken_netlist_is_error() {
        let mut spec = simple_spec();
        spec.modules = vec![ModuleEntry {
            name: "broken".into(),
            shapes: vec![],
            netlist: Some(crate::spec::NetlistSource {
                text: "cell a gate".into(),
                height: 4,
                alternatives: 1,
            }),
        }];
        assert!(matches!(run(&spec), Err(FlowError::Module { .. })));
    }

    #[test]
    fn malformed_shape_is_error() {
        // A 0x2 box can only arrive through deserialization; placed, it
        // would cover no tile and sit on top of the other module.
        let mut spec = simple_spec();
        spec.modules.push(ModuleEntry {
            name: "flat".into(),
            shapes: vec![serde_json::from_str(
                r#"{"boxes":[{"dx":0,"dy":0,"w":0,"h":2,"resource":"Clb"}]}"#,
            )
            .unwrap()],
            netlist: None,
        });
        let module = resolve_module(&spec.modules[2]).expect("resolution stays permissive");
        assert!(!module.shapes()[0].is_well_formed());
        match run(&spec) {
            Err(FlowError::Module { name, message }) => {
                assert_eq!(name, "flat");
                assert!(message.contains("shape 0 is malformed"), "{message}");
            }
            other => panic!("expected a module error, got {other:?}"),
        }
    }

    #[test]
    fn bad_region_is_error() {
        let mut spec = simple_spec();
        spec.region.device = DeviceSpec::Art { art: "x".into() };
        assert!(matches!(run(&spec), Err(FlowError::Region(_))));
    }
}
