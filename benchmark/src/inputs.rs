//! Seeded inputs.
//!
//! Every input is a function of the run's seed. Seed 0 means the presets
//! as shipped; any other seed is XORed into each preset's
//! `WorkloadSpec::seed`. A re-seeded program's dynamic length is a lottery
//! (the same preset runs anywhere from 0.3x to 5x its shipped length), so
//! each re-seeded preset is scaled through `outer_iterations` to a fixed
//! dynamic length: the shipped preset's for the figures, the upload size
//! for the service. Every seed then poses the same amount of work, and
//! the timings compare across seeds.

use dvi_core::EdviPlacement;
use dvi_isa::Abi;
use dvi_program::{CapturedTrace, Interpreter, LayoutProgram};
use dvi_service::json::Json;
use dvi_workloads::{presets, WorkloadSpec};

/// One step of SplitMix64, the benchmark's only pseudo-random source.
#[must_use]
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The annotated binary (E-DVI before calls) of a workload: what the
/// figures time with DVI on and what the service workloads upload.
///
/// # Panics
///
/// Panics if the generated program fails to compile or lay out, which is
/// a generator or compiler bug.
#[must_use]
pub fn edvi_layout(spec: &WorkloadSpec) -> LayoutProgram {
    let bare = dvi_workloads::generate(spec);
    let compiled = dvi_compiler::compile(
        &bare,
        &Abi::mips_like(),
        dvi_compiler::CompileOptions { edvi: EdviPlacement::BeforeCalls },
    )
    .expect("generated workloads compile");
    compiled.program.layout().expect("compiled workloads lay out")
}

/// Dynamic instructions the annotated binary runs, up to `limit`.
fn dynamic_length(spec: &WorkloadSpec, limit: u64) -> u64 {
    Interpreter::new(&edvi_layout(spec)).with_step_limit(limit).count() as u64
}

/// Scales `outer_iterations` so the annotated binary runs about `target`
/// dynamic instructions, or at least `target` when `reach` is set (for a
/// trace that the budget then cuts to exactly `target`).
#[must_use]
pub fn scaled(spec: WorkloadSpec, target: u64, reach: bool) -> WorkloadSpec {
    // Both probes stop past the target: a single outer iteration of some
    // programs runs far beyond any budget.
    let one = dynamic_length(&spec.clone().with_outer_iterations(1), target + 1);
    if one > target {
        return spec.with_outer_iterations(1);
    }
    let two = dynamic_length(&spec.clone().with_outer_iterations(2), 2 * target + 1);
    let per_iteration = two.saturating_sub(one).max(1);
    let fixed = one.saturating_sub(per_iteration);
    let needed = target.saturating_sub(fixed);
    let outer = if reach {
        needed.div_ceil(per_iteration) + 1
    } else {
        (needed + per_iteration / 2) / per_iteration
    };
    spec.with_outer_iterations(u32::try_from(outer.max(1)).unwrap_or(u32::MAX))
}

/// Re-draws a scaled program that misses its target length by more than
/// this share (one outer iteration of it already overshoots).
const LENGTH_TOLERANCE: f64 = 0.05;

/// The seven presets of the `figures` workload for `seed`, in the paper's
/// order: as shipped at seed 0, otherwise re-seeded and scaled to the
/// shipped preset's dynamic length under `budget` instructions. A program
/// that cannot be scaled to within [`LENGTH_TOLERANCE`] of that length is
/// re-drawn with the attempt number in the seed's top bits. Returns the
/// presets and the names of those no draw fitted (each then runs its
/// first draw, which poses a different amount of work).
#[must_use]
pub fn figure_specs(seed: u64, budget: u64) -> (Vec<WorkloadSpec>, Vec<String>) {
    let mut misfits = Vec::new();
    let specs = presets::all()
        .into_iter()
        .map(|preset| {
            if seed == 0 {
                return preset;
            }
            let shipped = dynamic_length(&preset, budget);
            let fits = |spec: &WorkloadSpec| {
                let length = dynamic_length(spec, budget) as f64;
                (length - shipped as f64).abs() <= LENGTH_TOLERANCE * shipped as f64
            };
            let draw = |attempt: u64| {
                let reseeded = preset.clone().with_seed(preset.seed ^ seed ^ (attempt << 48));
                scaled(reseeded, shipped, shipped >= budget)
            };
            (0..64).map(draw).find(fits).unwrap_or_else(|| {
                misfits.push(preset.name.clone());
                draw(0)
            })
        })
        .collect();
    (specs, misfits)
}

/// Picks presets out of [`figure_specs`] by name.
///
/// # Panics
///
/// Panics on a name that is not a preset.
#[must_use]
pub fn by_name(specs: &[WorkloadSpec], names: &[&str]) -> Vec<WorkloadSpec> {
    names
        .iter()
        .map(|name| specs.iter().find(|s| s.name == *name).expect("preset exists").clone())
        .collect()
}

/// The workload behind upload `index` of a service workload: preset
/// `index % 7`, with `seed` XORed into its seed and the round
/// `index / 7` in the seed's high half (so no two uploads of a run share
/// a program), scaled to run at least `records` instructions.
#[must_use]
pub fn upload_spec(seed: u64, index: u64, records: u64) -> WorkloadSpec {
    let preset = presets::all().remove(usize::try_from(index % 7).expect("index % 7 fits usize"));
    let round = index / 7;
    let reseeded = preset.clone().with_seed(preset.seed ^ seed ^ (round << 32));
    scaled(reseeded, records, true)
}

/// Records the first `records` instructions of `spec`'s annotated binary.
#[must_use]
pub fn upload_trace(spec: &WorkloadSpec, records: u64) -> CapturedTrace {
    CapturedTrace::record(&edvi_layout(spec), records)
}

/// One configuration override object of a job grid (see
/// `dvi_service::wire::grid_from_json`).
fn config(pairs: &[(&'static str, Json)]) -> Json {
    Json::obj(pairs.iter().cloned())
}

fn dvi(name: &str) -> (&'static str, Json) {
    ("dvi", Json::Str(name.to_owned()))
}

fn uint(key: &'static str, value: u64) -> (&'static str, Json) {
    (key, Json::UInt(value))
}

/// The grid of every `service-fresh` job: the Figure 2 machine without
/// and with DVI.
#[must_use]
pub fn fresh_grid() -> Json {
    Json::Arr(vec![config(&[dvi("none")]), config(&[dvi("full")])])
}

/// The `service-repeat` pool: small grids taken from the paper's sweeps
/// (Figure 10's two save/restore schemes, a Figure 5 point under the
/// three DVI schemes, a Figure 11 bandwidth point, and two Figure 5
/// register-file sizes).
#[must_use]
pub fn pool_grids() -> Vec<Json> {
    vec![
        Json::Arr(vec![config(&[dvi("lvm")]), config(&[dvi("lvm-stack")])]),
        Json::Arr(vec![
            config(&[uint("phys_regs", 48), dvi("none")]),
            config(&[uint("phys_regs", 48), dvi("idvi")]),
            config(&[uint("phys_regs", 48), dvi("full")]),
        ]),
        Json::Arr(vec![
            config(&[uint("issue_width", 8), uint("cache_ports", 1)]),
            config(&[uint("issue_width", 8), uint("cache_ports", 1), dvi("full")]),
        ]),
        Json::Arr(vec![
            config(&[uint("phys_regs", 64), dvi("none")]),
            config(&[uint("phys_regs", 64), dvi("full")]),
            config(&[uint("phys_regs", 96), dvi("none")]),
            config(&[uint("phys_regs", 96), dvi("full")]),
        ]),
    ]
}

/// Distinct never-seen configurations a `service-repeat` run can append.
pub const NOVEL_CONFIGS: u64 = 64 * 256;

/// The `k`-th never-seen configuration: a window size and register-file
/// size pair no pool grid uses (pool grids keep the 64-entry window).
#[must_use]
pub fn novel_config(k: u64) -> Json {
    let k = k % NOVEL_CONFIGS;
    config(&[uint("window_size", 65 + k % 64), uint("phys_regs", 81 + k / 64), dvi("full")])
}

/// One `service-repeat` job: which uploaded trace, which pool grid, and
/// whether it appends a never-seen configuration (one job in four).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepeatJob {
    /// Index of the uploaded trace (0..7).
    pub trace: usize,
    /// Index into [`pool_grids`].
    pub grid: usize,
    /// The never-seen configuration's index, if the job appends one.
    pub novel: Option<u64>,
}

/// Job `k` of a `service-repeat` run with `seed`.
#[must_use]
pub fn repeat_job(seed: u64, k: u64, pool: usize) -> RepeatJob {
    let r = splitmix(seed ^ splitmix(k));
    RepeatJob {
        trace: usize::try_from(r % 7).expect("fits usize"),
        grid: usize::try_from((r >> 8) % pool as u64).expect("fits usize"),
        novel: (k % 4 == 3).then_some(k / 4),
    }
}

/// The grid JSON of a `service-repeat` job.
#[must_use]
pub fn repeat_grid(job: &RepeatJob, pool: &[Json]) -> Json {
    let mut members = pool[job.grid].as_arr().expect("pool grids are arrays").to_vec();
    if let Some(k) = job.novel {
        members.push(novel_config(k));
    }
    Json::Arr(members)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_generates_byte_identical_uploads() {
        for index in [0, 8] {
            let a = upload_trace(&upload_spec(5, index, 4_000), 4_000);
            let b = upload_trace(&upload_spec(5, index, 4_000), 4_000);
            assert_eq!(a.to_bytes(), b.to_bytes());
            assert_eq!(a.fingerprint(), b.fingerprint());
            assert_eq!(a.len(), 4_000, "uploads are scaled to reach the record budget");
        }
        let other = upload_trace(&upload_spec(6, 0, 4_000), 4_000);
        assert_ne!(
            other.fingerprint(),
            upload_trace(&upload_spec(5, 0, 4_000), 4_000).fingerprint()
        );
    }

    #[test]
    fn uploads_of_one_run_never_repeat_a_program() {
        let seeds: Vec<u64> = (0..21).map(|i| upload_spec(3, i, 1_000).seed).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn seed_zero_is_the_shipped_presets() {
        assert_eq!(figure_specs(0, 400_000), (presets::all(), Vec::new()));
    }

    #[test]
    fn reseeded_figure_inputs_match_the_shipped_lengths() {
        let budget = 50_000;
        let (specs, misfits) = figure_specs(1, budget);
        assert!(misfits.is_empty(), "{misfits:?}");
        for (shipped, reseeded) in presets::all().iter().zip(specs) {
            let target = dynamic_length(shipped, budget) as f64;
            let length = dynamic_length(&reseeded, budget) as f64;
            assert!((length - target).abs() <= LENGTH_TOLERANCE * target, "{}", shipped.name);
            assert_ne!(reseeded.seed, shipped.seed);
        }
    }

    #[test]
    fn the_same_seed_generates_an_equal_job_list() {
        let pool = pool_grids().len();
        let a: Vec<RepeatJob> = (0..64).map(|k| repeat_job(9, k, pool)).collect();
        let b: Vec<RepeatJob> = (0..64).map(|k| repeat_job(9, k, pool)).collect();
        assert_eq!(a, b);
        let c: Vec<RepeatJob> = (0..64).map(|k| repeat_job(10, k, pool)).collect();
        assert_ne!(a, c);
        assert_eq!(a.iter().filter(|j| j.novel.is_some()).count(), 16);
    }

    #[test]
    fn novel_configurations_are_distinct_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..NOVEL_CONFIGS {
            let grid = dvi_service::wire::grid_from_json(&Json::Arr(vec![novel_config(k)]))
                .expect("novel configurations parse");
            grid[0].check().expect("novel configurations are valid");
            assert!(seen.insert(dvi_sim::checkpoint::config_fingerprint(&grid[0])));
        }
        for grid in pool_grids() {
            for config in dvi_service::wire::grid_from_json(&grid).expect("pool grids parse") {
                assert!(!seen.contains(&dvi_sim::checkpoint::config_fingerprint(&config)));
            }
        }
    }
}
