//! Building captured traces from the named workload presets.
//!
//! The service's preset path mirrors the experiment harness exactly:
//! generate the workload, compile the **annotated** binary (E-DVI before
//! calls — the binary the paper's figures time), lay it out, record
//! `instrs` dynamic instructions. Keeping this chain identical to
//! `dvi-experiments::harness` is what makes service results bit-identical
//! to the figure drivers for the same (preset, budget, grid).

use crate::ServiceError;
use dvi_core::EdviPlacement;
use dvi_isa::Abi;
use dvi_program::CapturedTrace;
use dvi_workloads::presets;

/// The workload preset names the service accepts (the seven SPEC95-like
/// benchmarks).
#[must_use]
pub fn preset_names() -> Vec<String> {
    presets::all().into_iter().map(|s| s.name).collect()
}

/// Generates, compiles and records `instrs` dynamic instructions of the
/// named preset, ready to sweep.
///
/// # Errors
///
/// [`ServiceError::UnknownPreset`] for a name not in [`preset_names`];
/// [`ServiceError::InvalidRequest`] for a zero instruction budget or a
/// preset that fails to compile (a generator/compiler bug, surfaced as a
/// typed error rather than a panic so a service request can never take the
/// worker down).
pub fn build_preset_trace(name: &str, instrs: u64) -> Result<CapturedTrace, ServiceError> {
    if instrs == 0 {
        return Err(ServiceError::InvalidRequest("instruction budget must be positive".into()));
    }
    let spec = presets::all()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| ServiceError::UnknownPreset(name.to_owned()))?;
    let bare = dvi_workloads::generate(&spec);
    let compiled = dvi_compiler::compile(
        &bare,
        &Abi::mips_like(),
        dvi_compiler::CompileOptions { edvi: EdviPlacement::BeforeCalls },
    )
    .map_err(|e| ServiceError::InvalidRequest(format!("preset '{name}' failed to compile: {e}")))?;
    let layout = compiled.program.layout().map_err(|e| {
        ServiceError::InvalidRequest(format!("preset '{name}' failed to lay out: {e}"))
    })?;
    Ok(CapturedTrace::record(&layout, instrs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_names_cover_the_seven_benchmarks() {
        let names = preset_names();
        for expected in ["compress", "go", "ijpeg", "li", "vortex", "perl", "gcc"] {
            assert!(names.iter().any(|n| n == expected), "missing preset {expected}");
        }
    }

    #[test]
    fn unknown_preset_and_zero_budget_are_typed_errors() {
        assert!(matches!(build_preset_trace("spice", 1000), Err(ServiceError::UnknownPreset(_))));
        assert!(matches!(build_preset_trace("li", 0), Err(ServiceError::InvalidRequest(_))));
    }

    #[test]
    fn preset_builds_are_deterministic() {
        let a = build_preset_trace("li", 5_000).expect("builds");
        let b = build_preset_trace("li", 5_000).expect("builds");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
