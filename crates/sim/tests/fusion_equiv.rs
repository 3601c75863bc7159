//! Dispatch-group fusion differential tests.
//!
//! Fusion tables precompute, per decode width, how the slow rename/dispatch
//! loop would carve the fetch stream into dispatch groups and how the
//! members of each group depend on each other — so the back end can push
//! whole groups into the window per table lookup instead of re-deriving the
//! same decisions record by record, falling back to the cycle-accurate loop
//! at every structural-hazard or oracle-event boundary. Fusion is an
//! explicit opt-in for one session (`SimSession::with_shared_tables`, next
//! to the dependence graph and the oracles it travels with). The contract
//! this suite locks is the purity invariant:
//!
//! * **bit-identity** — fused sessions produce `SimStats` bit-identical to
//!   the same products without the fusion table and to serial
//!   `Simulator::run(trace.replay())` runs, across the full Figure 10
//!   workload mix with a heterogeneous grid (mixed decode widths, starved
//!   windows and register files, a naive-scan member that never fuses) and
//!   across random presets × grids × threads (proptest);
//! * **honest fallback** — machines whose structural hazards interrupt
//!   groups mid-dispatch take the slow loop exactly there, visible in
//!   `SimStats::fusion` (fused *and* fallback records both non-zero), with
//!   statistics still bit-identical;
//! * **round trip** — a fusion table serialized and parsed back drives
//!   sessions exactly as the table it came from.

use dvi_core::DviConfig;
use dvi_isa::Abi;
use dvi_program::{CapturedTrace, DepGraph, FusionTable, LayoutProgram};
use dvi_sim::{
    BranchOracle, DviOracle, IcacheOracle, SchedulerKind, SharedTables, SimConfig, SimSession,
    SimStats, Simulator, StaticDecodeTable,
};
use dvi_workloads::{presets, WorkloadSpec};
use proptest::prelude::*;
use std::sync::Arc;

fn edvi_layout(spec: &WorkloadSpec) -> LayoutProgram {
    let program = dvi_workloads::generate(spec);
    let abi = Abi::mips_like();
    let compiled = dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())
        .expect("workload compiles");
    compiled.program.layout().expect("binary lays out")
}

/// A grid exercising every way fusion can engage or bail: two decode
/// widths (two tables), full-DVI members (oracle kills break groups at
/// decode), a starved window and a starved register file (structural
/// hazards force mid-group fallback), and a naive-scan member (no
/// dependence graph, so no fusion at all).
fn heterogeneous_grid() -> Vec<SimConfig> {
    vec![
        SimConfig::micro97(),
        SimConfig::micro97().with_dvi(DviConfig::full()),
        SimConfig::micro97().with_issue_width(8),
        SimConfig::micro97().with_issue_width(8).with_dvi(DviConfig::full()),
        SimConfig { window_size: 8, ..SimConfig::micro97() },
        SimConfig::micro97().with_phys_regs(34),
        SimConfig::micro97().with_scheduler(SchedulerKind::NaiveScan),
        SimConfig::micro97().with_dvi(DviConfig::lvm_scheme()),
        SimConfig::micro97().with_cache_ports(1),
    ]
}

/// Every product a session of `config` can consume over `trace`: the
/// decode table, the three trace-order oracles, the dependence graph and —
/// when `fusion` is set and the width has a table — the fusion table.
fn products(
    trace: &CapturedTrace,
    graph: &Arc<DepGraph>,
    config: &SimConfig,
    fusion: bool,
) -> SharedTables {
    let width = config.decode_width;
    SharedTables {
        decode: Some(Arc::new(StaticDecodeTable::for_trace(trace))),
        branches: Some(Arc::new(BranchOracle::record(trace, config.predictor))),
        icache: Some(Arc::new(IcacheOracle::record(trace, config.icache))),
        depgraph: Some(Arc::clone(graph)),
        dvi: Some(Arc::new(DviOracle::record(trace, config.dvi))),
        dcache: None,
        fusion: (fusion && (1..=FusionTable::MAX_WIDTH).contains(&width))
            .then(|| FusionTable::build_shared(trace, graph, width)),
    }
}

fn run_with(trace: &CapturedTrace, config: &SimConfig, tables: SharedTables) -> SimStats {
    SimSession::with_shared_tables(config.clone(), trace.cursor(), tables).run_to_completion()
}

/// Asserts fused sessions, unfused sessions over the same products and
/// per-config serial replays all agree bit for bit, and returns the fused
/// statistics for counter inspection.
fn assert_fusion_equivalent(
    trace: &CapturedTrace,
    grid: &[SimConfig],
    context: &str,
) -> Vec<SimStats> {
    let graph = Arc::new(DepGraph::build(trace));
    grid.iter()
        .enumerate()
        .map(|(i, config)| {
            let serial = Simulator::new(config.clone()).run(trace.replay());
            let fused = run_with(trace, config, products(trace, &graph, config, true));
            let unfused = run_with(trace, config, products(trace, &graph, config, false));
            assert_eq!(
                fused, serial,
                "{context}: fused stats diverge from the serial replay for grid member {i}"
            );
            assert_eq!(
                unfused, serial,
                "{context}: unfused stats diverge from the serial replay for grid member {i}"
            );
            assert!(!fused.deadlocked, "{context}: member {i} hit the deadlock watchdog");
            assert_eq!(
                unfused.fusion.fused_records + unfused.fusion.fallback_records,
                0,
                "{context}: a member without a fusion table must never touch the fusion counters"
            );
            fused
        })
        .collect()
}

/// The acceptance-criterion test: across the Figure 10 workload mix and the
/// heterogeneous grid, fused dispatch is bit-identical to the slow loop and
/// to serial replays — and the fast path actually carries work (a vacuous
/// pass where fusion never engages would also "never diverge").
#[test]
fn fig10_mix_fused_sweep_is_bit_identical_to_unfused_and_serial() {
    const STEPS: u64 = 15_000;
    let grid = heterogeneous_grid();
    for spec in presets::save_restore_suite() {
        let layout = edvi_layout(&spec);
        let trace = CapturedTrace::record(&layout, STEPS);
        assert!(!trace.is_empty(), "{}: capture produced an empty trace", spec.name);
        let fused = assert_fusion_equivalent(&trace, &grid, &spec.name);
        let total_fused: u64 = fused.iter().map(|s| s.fusion.fused_records).sum();
        assert!(total_fused > 0, "{}: the fast path never engaged on the fused sweep", spec.name);
        let naive = fused[6].fusion;
        assert_eq!(
            naive.fused_records + naive.fallback_records,
            0,
            "{}: the naive-scan member has no dependence graph and must never fuse",
            spec.name
        );
    }
}

/// Structural-hazard boundaries: machines starved of window slots or
/// physical registers interrupt groups mid-dispatch, so the fast path must
/// bail to the slow loop *exactly* there — both counters non-zero,
/// statistics still bit-identical. (A fast path that mishandled partial
/// dispatch would double-count stall statistics like `mem_refs`, which the
/// slow loop bills per attempt.)
#[test]
fn forced_fallback_boundaries_stay_bit_identical() {
    let layout = edvi_layout(&presets::gcc_like());
    let trace = CapturedTrace::record(&layout, 12_000);
    let starved = [
        SimConfig { window_size: 8, ..SimConfig::micro97() },
        SimConfig { window_size: 4, fetch_queue: 4, ..SimConfig::micro97() },
        SimConfig::micro97().with_phys_regs(34),
        SimConfig::micro97().with_phys_regs(36).with_dvi(DviConfig::full()),
    ];
    let fused = assert_fusion_equivalent(&trace, &starved, "starved grid");
    for (i, stats) in fused.iter().enumerate() {
        let counters = stats.fusion;
        assert!(
            counters.fallback_records > 0,
            "starved member {i} should hit structural-hazard fallbacks, got {counters:?}"
        );
        assert!(
            counters.fused_records > 0,
            "starved member {i} should still fuse between hazards, got {counters:?}"
        );
        assert!(counters.coverage_pct() < 100.0 && counters.coverage_pct() > 0.0);
    }
}

/// Fusion survives serialization: tables for both grid widths, written
/// out and parsed back, drive sessions with statistics bit-identical to
/// serial runs, and the fast path engages for both widths.
#[test]
fn recorded_fusion_tables_drive_the_sweep_after_a_round_trip() {
    let layout = edvi_layout(&presets::gcc_like());
    let trace = CapturedTrace::record(&layout, 10_000);
    let graph = Arc::new(DepGraph::build(&trace));
    let grid = [
        SimConfig::micro97(),
        SimConfig::micro97().with_issue_width(8),
        SimConfig::micro97().with_dvi(DviConfig::full()),
    ];
    for (i, config) in grid.iter().enumerate() {
        let built = FusionTable::build(&trace, &graph, config.decode_width);
        let loaded = FusionTable::from_bytes(&built.to_bytes()).expect("a clean table parses");
        assert_eq!(loaded.to_bytes(), built.to_bytes(), "member {i}: the round trip is exact");
        let tables = SharedTables {
            fusion: Some(Arc::new(loaded)),
            ..products(&trace, &graph, config, false)
        };
        let stats = run_with(&trace, config, tables);
        let serial = Simulator::new(config.clone()).run(trace.replay());
        assert_eq!(stats, serial, "member {i} diverges from the serial replay");
        assert!(stats.fusion.fused_records > 0, "member {i}: the parsed table should engage");
    }
}

fn dvi_scheme(index: u8) -> DviConfig {
    match index % 5 {
        0 => DviConfig::none(),
        1 => DviConfig::idvi_only(),
        2 => DviConfig::lvm_scheme(),
        3 => DviConfig::lvm_stack_scheme(),
        _ => DviConfig::full(),
    }
}

/// One pseudo-random grid member over the axes fusion cares about: decode
/// width (which table), window and register-file pressure (how often the
/// fast path bails), DVI scheme (which records are eligible at all) and
/// the scheduler kind (naive members never fuse).
fn grid_member(bits: u64) -> SimConfig {
    let phys_regs = 34 + (bits % 63) as usize; // 34..=96
    #[allow(clippy::cast_possible_truncation)]
    let scheme = (bits >> 16) as u8;
    let mut config = SimConfig::micro97().with_phys_regs(phys_regs).with_dvi(dvi_scheme(scheme));
    match (bits >> 8) % 3 {
        0 => {}
        1 => config = config.with_issue_width(2),
        _ => config = config.with_issue_width(8),
    }
    if (bits >> 24) & 1 == 1 {
        config.window_size = config.issue_width.max(8);
    }
    if (bits >> 25) & 3 == 3 {
        config = config.with_scheduler(SchedulerKind::NaiveScan);
    }
    config
}

proptest! {
    #[test]
    fn fused_sweep_matches_serial_for_random_presets_grids_and_threads(
        preset in 0usize..7,
        seed in any::<u64>(),
        members in proptest::collection::vec(any::<u64>(), 2..8),
        threads in 1usize..5,
    ) {
        let spec = presets::by_index(preset).with_seed(seed).with_outer_iterations(3);
        let layout = edvi_layout(&spec);
        let trace = CapturedTrace::record(&layout, 2_000);
        let grid: Vec<SimConfig> = members.into_iter().map(grid_member).collect();
        let graph = Arc::new(DepGraph::build(&trace));
        let fused: Vec<SimStats> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (trace, graph, grid) = (&trace, &graph, &grid);
                    scope.spawn(move || {
                        grid.iter()
                            .enumerate()
                            .filter(|(i, _)| i % threads == t)
                            .map(|(i, config)| (i, run_with(trace, config, products(trace, graph, config, true))))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut all: Vec<(usize, SimStats)> =
                workers.into_iter().flat_map(|w| w.join().expect("worker completes")).collect();
            all.sort_by_key(|(i, _)| *i);
            all.into_iter().map(|(_, stats)| stats).collect()
        });
        for (i, (fused, config)) in fused.iter().zip(&grid).enumerate() {
            let serial = Simulator::new(config.clone()).run(trace.replay());
            prop_assert_eq!(
                fused,
                &serial,
                "{}: fused member {} diverges from the serial replay", spec.name, i
            );
        }
    }
}
