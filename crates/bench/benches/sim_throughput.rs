//! Bench: end-to-end simulator throughput (simulated-MIPS) on the Figure 10
//! workload mix, comparing four front-end/back-end combinations:
//!
//! * **seed baseline** — the pre-rewrite core preserved in
//!   `dvi_sim::legacy` paired with the original hash-map interpreter
//!   memory;
//! * **naive scan** — the current core with the reference full-window-scan
//!   scheduler (isolates the wakeup/select algorithm);
//! * **event driven** — the current core fed by the live interpreter (the
//!   PR-1 headline configuration);
//! * **capture/replay** — the current core fed by a `CapturedTrace`
//!   recorded once per benchmark, the way every figure sweep now runs.
//!   Capture happens outside the timed region: a sweep pays it once and
//!   replays dozens of configurations, so steady-state sweep throughput is
//!   the replay number (the one-off capture cost is reported separately);
//! * **replay + shared products** — the same core consuming every
//!   precomputed trace-pure product (decode table, branch/I-cache
//!   oracles, the dependence graph wiring dispatch straight to producer
//!   window entries, and the decode-stage DVI event stream) through
//!   `SimSession::with_shared_tables`, measured serially; the one-off
//!   precompute cost (`depgraph_build_seconds`,
//!   `shared_precompute_seconds`) is reported separately like capture.
//!
//! All four produce bit-identical `SimStats` (`tests/replay_equiv.rs`,
//! `tests/scheduler_equiv.rs`), so this is a pure host-speed comparison.
//! Three machines are measured: the paper's 4-wide/80-register machine,
//! the scaled 8-wide/160 machine and a 16-wide/320 sweep machine.
//!
//! A separate **sweep** section compares three ways of running a whole
//! configuration grid over the captured traces: the serial capture/replay
//! loop (one `Simulator::run` per grid point), one co-scheduled
//! `SweepRunner` pass per trace (see `dvi_sim::batch`), and the
//! thread-parallel runner (`SweepRunner::run_parallel`, recorded as
//! `sweep.parallel_vs_serial`). The comparison first asserts all three
//! produce bit-identical `SimStats`, so the CI bench-smoke job also acts
//! as a batching and parallelism regression test.
//!
//! A **plain_vs_products** row repeats, in one run, the A/B behind running
//! every sweep member on plain replay: the Figure 5 grid (every preset,
//! every register-file size, three DVI schemes) as plain sessions versus
//! sessions fed every trace-pure product the earlier runner built per
//! sweep (decode table, branch/I-cache oracles, dependence graph, one DVI
//! oracle per DVI scheme, fusion tables), product builds included.
//! Interleaved repetitions, min/median/max per side, bit-identity asserted
//! first; a ratio above 1 means plain replay was faster.
//!
//! A **matrix** section times the whole-matrix (trace × config) runner
//! (`dvi_sim::MatrixRunner`) against the per-figure loop it replaced —
//! one `SweepRunner` pass per trace over the same grid —
//! (`matrix.vs_per_figure`, interleaved min-of-N, bit-identity incl. a
//! 2-shard run asserted before timing), and asserts the shared-build
//! reuse counters on a duplicated submission
//! (`matrix.shared_build_reuse`: one build pass per distinct trace, the
//! second copy of every cell deduplicated member-for-member).
//!
//! A **service** section measures the persistent sweep service end to end
//! against a direct `SweepRunner` pass on the same (trace × grid) matrix:
//! `service.end_to_end_overhead` is the cold-cache (all-miss) submission
//! relative to the direct runner (target <= 1.05x; the delta is
//! scheduling, durability checkpoints and memo-cache stores), and
//! `service.memo_hit_vs_miss` is the cold pass relative to resubmitting
//! the identical jobs against the warm content-addressed cache, which
//! simulates zero members (asserted via the service's own metrics).
//!
//! Besides printing, the bench writes the headline numbers to
//! `BENCH_sim_throughput.json` (next to the crate when run via `cargo
//! bench`) so CI can archive throughput history. Set `BENCH_QUICK=1` for a
//! CI-smoke-sized run (fewer instructions and repetitions, shorter
//! Criterion sampling).

use criterion::{criterion_group, criterion_main, Criterion};
use dvi_core::DviConfig;
use dvi_isa::Abi;
use dvi_program::{CapturedTrace, Interpreter, LayoutProgram};
use dvi_service::{JobSpec, ServiceConfig, SweepService, TraceSource};
use dvi_sim::{
    BranchOracle, DviOracle, IcacheOracle, MatrixRunner, MemberOutcome, SchedulerKind,
    SharedTables, SimConfig, SimSession, SimStats, Simulator, StaticDecodeTable, SweepRunner,
};
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether the bench runs in CI-smoke quick mode.
fn quick_mode() -> bool {
    std::env::var_os("BENCH_QUICK").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Simulated instructions per benchmark per run.
fn instrs_per_run() -> u64 {
    if quick_mode() {
        12_000
    } else {
        60_000
    }
}

/// Interleaved repetitions per measurement (min-of-N).
fn reps() -> usize {
    if quick_mode() {
        2
    } else {
        5
    }
}

/// Builds the E-DVI binaries of the Figure 10 save/restore suite.
fn fig10_mix() -> Vec<LayoutProgram> {
    let abi = Abi::mips_like();
    dvi_workloads::presets::save_restore_suite()
        .iter()
        .map(|spec| {
            let program = dvi_workloads::generate(spec);
            dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())
                .expect("workload compiles")
                .program
                .layout()
                .expect("binary lays out")
        })
        .collect()
}

/// Which front-end/back-end combination a measurement runs.
#[derive(Clone, Copy, PartialEq)]
enum Core {
    /// The seed simulator's back end and memory system: full-window scans,
    /// per-dispatch allocation, hash-map interpreter memory
    /// (`dvi_sim::legacy` + `Interpreter::with_sparse_memory`). Its fetch
    /// and dispatch stages are the shared memoized front end, so this
    /// baseline is slightly *faster* than the true seed — the reported
    /// speedups versus it are conservative.
    SeedBaseline,
    /// The current core with the naive-scan scheduler (shared pooled
    /// window, paged memory) — isolates the wakeup/select algorithm.
    NaiveScan,
    /// The current core fed by the live interpreter.
    EventDriven,
    /// The current core replaying pre-recorded traces (the sweep
    /// configuration).
    Replay,
    /// The current core replaying with every precomputed trace-pure
    /// product attached: decode table, branch and I-cache oracles, the
    /// dependence graph (producer-link dispatch wiring) and the DVI event
    /// stream. The one-off precompute cost is amortized across a sweep and
    /// reported separately, like the capture cost.
    ReplayShared,
}

/// The 4-wide machine of Figure 2.
fn narrow_machine() -> SimConfig {
    SimConfig::micro97().with_dvi(DviConfig::full())
}

/// The scaled 8-wide machine (the Figure 11 sensitivity points), with the
/// register file scaled with the width so window occupancy is
/// window-limited rather than register-limited.
fn wide_machine() -> SimConfig {
    SimConfig::micro97().with_issue_width(8).with_phys_regs(160).with_dvi(DviConfig::full())
}

/// A 16-wide, 256-entry-window machine: the regime large design-space
/// sweeps explore, where the seed's per-cycle scans dominate completely.
fn very_wide_machine() -> SimConfig {
    SimConfig::micro97().with_issue_width(16).with_phys_regs(320).with_dvi(DviConfig::full())
}

/// The workload mix plus its once-captured traces and their precomputed
/// trace-pure products.
struct Mix {
    layouts: Vec<LayoutProgram>,
    traces: Vec<CapturedTrace>,
    /// One shared-product bundle per trace (decode table, branch/I-cache
    /// oracles, dependence graph, full-DVI event stream) — all three bench
    /// machines agree on the trace-pure axes, so one bundle serves them.
    shared: Vec<SharedTables>,
    /// Wall-clock seconds the one-off capture pass took.
    capture_seconds: f64,
    /// Wall-clock seconds the one-off dependence-graph builds took.
    depgraph_seconds: f64,
    /// Wall-clock seconds the one-off dispatch-group fusion-table builds
    /// took (one 4-wide table per trace, amortized like capture).
    fusion_seconds: f64,
    /// Wall-clock seconds recording the remaining shared products took
    /// (decode table, branch/I-cache/DVI oracles).
    precompute_seconds: f64,
}

impl Mix {
    fn build() -> Mix {
        let layouts = fig10_mix();
        let start = Instant::now();
        let mut traces: Vec<CapturedTrace> =
            layouts.iter().map(|l| CapturedTrace::record(l, instrs_per_run())).collect();
        let capture_seconds = start.elapsed().as_secs_f64();
        let start = Instant::now();
        for trace in &mut traces {
            trace.build_depgraph();
        }
        let depgraph_seconds = start.elapsed().as_secs_f64();
        let reference = narrow_machine();
        let start = Instant::now();
        for trace in &mut traces {
            trace.build_fusion(reference.decode_width);
        }
        let fusion_seconds = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let shared = traces
            .iter()
            .map(|trace| SharedTables {
                decode: Some(Arc::new(StaticDecodeTable::for_trace(trace))),
                branches: Some(Arc::new(BranchOracle::record(trace, reference.predictor))),
                icache: Some(Arc::new(IcacheOracle::record(trace, reference.icache))),
                depgraph: trace.depgraph().cloned(),
                dvi: Some(Arc::new(DviOracle::record(trace, reference.dvi))),
                // The replay_shared measurement keeps the trace-order
                // products only.
                dcache: None,
                // The headline replay_shared stays on the slow dispatch
                // loop; dispatch-group fusion has its own interleaved A/B
                // (`fusion_vs_live_ratio`) against exactly this baseline.
                fusion: None,
            })
            .collect();
        let precompute_seconds = start.elapsed().as_secs_f64();
        Mix {
            layouts,
            traces,
            shared,
            capture_seconds,
            depgraph_seconds,
            fusion_seconds,
            precompute_seconds,
        }
    }
}

/// Interleaved A/B of the serial all-products path with and without
/// dispatch-group fusion on the narrow machine, as a throughput ratio
/// (>1: fused dispatch was faster) plus the measured fast-path coverage
/// (fused records / dispatched records over the whole mix). Both sides
/// run the identical shared bundle — the fused side just attaches the
/// mix's precomputed 4-wide fusion tables — and bit-identity is asserted
/// on full `SimStats` before anything is timed, so the bench-smoke CI
/// job also regression-tests the fusion purity invariant.
fn fusion_vs_live_ratio(mix: &Mix, config: &SimConfig) -> (f64, f64) {
    let fused: Vec<SharedTables> = mix
        .traces
        .iter()
        .zip(&mix.shared)
        .map(|(trace, shared)| {
            let mut tables = shared.clone();
            tables.fusion = trace.fusion_for(config.decode_width).cloned();
            assert!(tables.fusion.is_some(), "the mix precomputes 4-wide fusion tables");
            tables
        })
        .collect();
    let run = |tables: &[SharedTables]| -> u64 {
        mix.traces
            .iter()
            .zip(tables)
            .map(|(trace, tables)| {
                SimSession::with_shared_tables(config.clone(), trace.cursor(), tables.clone())
                    .run_to_completion()
                    .program_instrs
            })
            .sum()
    };
    let (mut fused_records, mut fallback_records) = (0u64, 0u64);
    for ((trace, shared), fused) in mix.traces.iter().zip(&mix.shared).zip(&fused) {
        let live = SimSession::with_shared_tables(config.clone(), trace.cursor(), shared.clone())
            .run_to_completion();
        let fast = SimSession::with_shared_tables(config.clone(), trace.cursor(), fused.clone())
            .run_to_completion();
        assert_eq!(live, fast, "fused dispatch diverged from the slow loop");
        assert!(
            fast.fusion.fused_records > 0,
            "the fused side must actually exercise the fast path"
        );
        fused_records += fast.fusion.fused_records;
        fallback_records += fast.fusion.fallback_records;
    }
    let coverage = fused_records as f64 / (fused_records + fallback_records) as f64;
    let mut best = [f64::MAX; 2];
    for _ in 0..reps() {
        let start = Instant::now();
        let live = run(&mix.shared);
        best[0] = best[0].min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let with_fusion = run(&fused);
        best[1] = best[1].min(start.elapsed().as_secs_f64());
        assert_eq!(live, with_fusion, "both sides must simulate the same instructions");
    }
    (best[0] / best[1], coverage)
}

/// Runs the whole mix once, returning simulated instructions.
fn run_mix(mix: &Mix, config: &SimConfig, core: Core) -> u64 {
    match core {
        Core::Replay => mix
            .traces
            .iter()
            .map(|trace| Simulator::new(config.clone()).run(trace.replay()).program_instrs)
            .sum(),
        Core::ReplayShared => mix
            .traces
            .iter()
            .zip(&mix.shared)
            .map(|(trace, shared)| {
                SimSession::with_shared_tables(config.clone(), trace.cursor(), shared.clone())
                    .run_to_completion()
                    .program_instrs
            })
            .sum(),
        _ => mix
            .layouts
            .iter()
            .map(|layout| {
                let interp = Interpreter::new(layout).with_step_limit(instrs_per_run());
                match core {
                    Core::SeedBaseline => {
                        dvi_sim::legacy::LegacySimulator::new(config.clone())
                            .run(interp.with_sparse_memory())
                            .program_instrs
                    }
                    Core::NaiveScan => {
                        let config = config.clone().with_scheduler(SchedulerKind::NaiveScan);
                        Simulator::new(config).run(interp).program_instrs
                    }
                    _ => Simulator::new(config.clone()).run(interp).program_instrs,
                }
            })
            .sum(),
    }
}

/// Interleaved min-of-N timing: every core is measured once per round, so
/// host frequency/load drift hits all cores alike and the *ratios* stay
/// meaningful even on a noisy container.
fn simulated_mips_all(mix: &Mix, config: &SimConfig) -> [f64; 5] {
    const CORES: [Core; 5] =
        [Core::SeedBaseline, Core::NaiveScan, Core::EventDriven, Core::Replay, Core::ReplayShared];
    let mut best = [f64::MAX; 5];
    let mut instrs = [0u64; 5];
    for (i, &core) in CORES.iter().enumerate() {
        instrs[i] = run_mix(mix, config, core); // warm-up
    }
    for _ in 0..reps() {
        for (i, &core) in CORES.iter().enumerate() {
            let start = Instant::now();
            instrs[i] = run_mix(mix, config, core);
            best[i] = best[i].min(start.elapsed().as_secs_f64());
        }
    }
    let mut mips = [0.0; 5];
    for i in 0..5 {
        mips[i] = instrs[i] as f64 / best[i] / 1.0e6;
    }
    mips
}

/// Asserts the shared-products serial path is bit-identical to the plain
/// replay path on every bench machine before anything is timed.
fn verify_shared_equivalence(mix: &Mix, machines: &[(&'static str, SimConfig)]) {
    for (name, config) in machines {
        for (trace, shared) in mix.traces.iter().zip(&mix.shared) {
            let plain = Simulator::new(config.clone()).run(trace.replay());
            let with_shared =
                SimSession::with_shared_tables(config.clone(), trace.cursor(), shared.clone())
                    .run_to_completion();
            assert_eq!(
                plain, with_shared,
                "{name}: shared-products replay diverged from plain replay"
            );
        }
    }
}

/// The 8-configuration sweep grid of the batched-vs-serial comparison: the
/// register-file axis of the paper's Figure 5 on the 4-wide machine with
/// full DVI.
fn sweep_grid() -> Vec<SimConfig> {
    [34usize, 40, 48, 56, 64, 72, 80, 96]
        .into_iter()
        .map(|n| SimConfig::micro97().with_phys_regs(n).with_dvi(DviConfig::full()))
        .collect()
}

/// The serial capture/replay loop: one `Simulator::run` per (trace,
/// config) pair — how sweeps ran before the batched runner. Returns total
/// simulated instructions.
fn run_sweep_serial(mix: &Mix, grid: &[SimConfig]) -> u64 {
    mix.traces
        .iter()
        .map(|trace| {
            grid.iter()
                .map(|config| Simulator::new(config.clone()).run(trace.replay()).program_instrs)
                .sum::<u64>()
        })
        .sum()
}

/// The batched runner: all grid members co-scheduled in one pass per
/// trace. Returns total simulated instructions.
fn run_sweep_batch(mix: &Mix, grid: &[SimConfig]) -> u64 {
    mix.traces
        .iter()
        .map(|trace| {
            SweepRunner::new(trace, grid.iter().cloned())
                .run()
                .iter()
                .map(|s| s.program_instrs)
                .sum::<u64>()
        })
        .sum()
}

/// The parallel runner: grid members distributed across the host's cores,
/// one pass per trace. Returns total simulated instructions.
fn run_sweep_parallel(mix: &Mix, grid: &[SimConfig]) -> u64 {
    mix.traces
        .iter()
        .map(|trace| {
            SweepRunner::new(trace, grid.iter().cloned())
                .run_parallel()
                .iter()
                .map(|s| s.program_instrs)
                .sum::<u64>()
        })
        .sum()
}

/// Asserts the batched and parallel runners reproduce the serial
/// statistics bit for bit on the bench's own grid and traces (the
/// bench-smoke CI job runs this in quick mode, so a batching or
/// parallelism regression fails CI even before the throughput numbers are
/// read).
fn verify_sweep_equivalence(mix: &Mix, grid: &[SimConfig]) {
    for trace in &mix.traces {
        let batched = SweepRunner::new(trace, grid.iter().cloned()).run();
        let serial: Vec<SimStats> =
            grid.iter().map(|config| Simulator::new(config.clone()).run(trace.replay())).collect();
        assert_eq!(batched, serial, "batched sweep diverged from serial replays");
        assert!(batched.iter().all(|s| !s.deadlocked), "sweep member hit the deadlock watchdog");
        let parallel = SweepRunner::new(trace, grid.iter().cloned()).run_parallel();
        assert_eq!(parallel, serial, "parallel sweep diverged from serial replays");
        let pinned = SweepRunner::new(trace, grid.iter().cloned()).run_parallel_threads(2);
        assert_eq!(pinned, serial, "2-thread sweep diverged from serial replays");
    }
}

/// The `plain_vs_products` row (see `plain_vs_products`): seconds per
/// side and the plain-over-products ratio per interleaved pair, each as
/// `[min, median, max]`.
struct PlainVsProducts {
    members: usize,
    plain_seconds: [f64; 3],
    products_seconds: [f64; 3],
    ratio: [f64; 3],
}

/// `[min, median, max]` of `samples`.
fn spread(mut samples: Vec<f64>) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    [samples[0], samples[samples.len() / 2], samples[samples.len() - 1]]
}

/// Every trace-pure product a session of `config` can consume over
/// `trace`, as the earlier sweep runner shared them across a grid: one
/// decode table, branch and I-cache oracle and dependence graph per
/// trace, one DVI oracle per DVI scheme and one fusion table per decode
/// width. Builds are memoized in `built` so each runs once per trace.
fn grid_products(
    trace: &CapturedTrace,
    config: &SimConfig,
    built: &mut Vec<(DviConfig, SharedTables)>,
) -> SharedTables {
    if let Some((_, tables)) = built.iter().find(|(dvi, _)| *dvi == config.dvi) {
        return tables.clone();
    }
    let tables = match built.first() {
        Some((_, first)) => SharedTables {
            dvi: Some(Arc::new(DviOracle::record(trace, config.dvi))),
            ..first.clone()
        },
        None => {
            let graph = Arc::new(dvi_program::DepGraph::build(trace));
            SharedTables {
                decode: Some(Arc::new(StaticDecodeTable::for_trace(trace))),
                branches: Some(Arc::new(BranchOracle::record(trace, config.predictor))),
                icache: Some(Arc::new(IcacheOracle::record(trace, config.icache))),
                dvi: Some(Arc::new(DviOracle::record(trace, config.dvi))),
                dcache: None,
                fusion: Some(dvi_program::FusionTable::build_shared(
                    trace,
                    &graph,
                    config.decode_width,
                )),
                depgraph: Some(graph),
            }
        }
    };
    built.push((config.dvi, tables.clone()));
    tables
}

/// The same-run A/B behind running every sweep member on plain replay:
/// the Figure 5 grid — every preset, every register-file size, the
/// baseline trace under no DVI and I-DVI and the annotated trace under
/// E+I-DVI — run serially as plain sessions and as sessions fed every
/// product `grid_products` builds (builds timed in, as the earlier runner
/// paid them per sweep). Quick mode uses the quick instruction budget.
/// Bit-identity of the two sides is asserted before anything is timed.
fn plain_vs_products() -> PlainVsProducts {
    let budget = if quick_mode() {
        dvi_experiments::Budget::quick()
    } else {
        dvi_experiments::Budget::full()
    };
    let binaries: Vec<dvi_experiments::CapturedBinaries> = dvi_workloads::presets::all()
        .iter()
        .map(|spec| dvi_experiments::CapturedBinaries::build(spec, budget))
        .collect();
    let sizes = dvi_experiments::fig05::default_sizes();
    let mut cells: Vec<(&CapturedTrace, Vec<SimConfig>)> = Vec::new();
    for b in &binaries {
        let at = |n: usize, dvi: DviConfig| SimConfig::micro97().with_phys_regs(n).with_dvi(dvi);
        cells.push((
            &b.baseline,
            sizes
                .iter()
                .flat_map(|&n| [at(n, DviConfig::none()), at(n, DviConfig::idvi_only())])
                .collect(),
        ));
        cells.push((&b.edvi, sizes.iter().map(|&n| at(n, DviConfig::full())).collect()));
    }
    let plain = || -> Vec<SimStats> {
        cells
            .iter()
            .flat_map(|(trace, grid)| {
                grid.iter().map(|c| SimSession::new(c.clone(), trace.cursor()).run_to_completion())
            })
            .collect()
    };
    let products = || -> Vec<SimStats> {
        cells
            .iter()
            .flat_map(|(trace, grid)| {
                let mut built = Vec::new();
                grid.iter()
                    .map(|c| {
                        let tables = grid_products(trace, c, &mut built);
                        SimSession::with_shared_tables(c.clone(), trace.cursor(), tables)
                            .run_to_completion()
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    assert_eq!(plain(), products(), "the products side diverged from plain replay");
    let (mut plain_s, mut products_s, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps().max(3) {
        let start = Instant::now();
        std::hint::black_box(plain());
        plain_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(products());
        products_s.push(start.elapsed().as_secs_f64());
        ratio.push(products_s[products_s.len() - 1] / plain_s[plain_s.len() - 1]);
    }
    PlainVsProducts {
        members: cells.iter().map(|(_, grid)| grid.len()).sum(),
        plain_seconds: spread(plain_s),
        products_seconds: spread(products_s),
        ratio: spread(ratio),
    }
}

/// Interleaved min-of-N for the sweep comparison: (serial MIPS, batch
/// MIPS, parallel MIPS).
fn sweep_mips(mix: &Mix, grid: &[SimConfig]) -> (f64, f64, f64) {
    let mut best = [f64::MAX; 3];
    let mut instrs = [0u64; 3];
    for _ in 0..reps() {
        let start = Instant::now();
        instrs[0] = run_sweep_serial(mix, grid);
        best[0] = best[0].min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        instrs[1] = run_sweep_batch(mix, grid);
        best[1] = best[1].min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        instrs[2] = run_sweep_parallel(mix, grid);
        best[2] = best[2].min(start.elapsed().as_secs_f64());
    }
    (
        instrs[0] as f64 / best[0] / 1.0e6,
        instrs[1] as f64 / best[1] / 1.0e6,
        instrs[2] as f64 / best[2] / 1.0e6,
    )
}

/// Checkpoint overhead at the runner's maximum cadence
/// (`with_checkpoint`: snapshot eligibility every scheduling turn, durable
/// writes deduplicated to one per member completion — see
/// `SweepRunner::with_checkpoint`). The sweep mix's traces are each
/// shorter than one 65 536-record turn, which would bill the fixed
/// snapshot write (0.2–1 ms of file-system calls on this container)
/// against a fraction of a turn's simulation and overstate the ratio
/// several-fold — so this A/B records its own trace spanning four full
/// turns per member and interleaves checkpointing-on/off batched runs,
/// min-of-N each side. Expected ~1.00x (a handful of small atomic writes
/// against ~50 ms of simulation; the residual is file-system cost, and it
/// shrinks further as members run longer, since writes are per completion,
/// not per turn).
fn checkpoint_overhead_ratio() -> f64 {
    const FOUR_TURNS: u64 = 4 * 65_536;
    let abi = Abi::mips_like();
    let spec = dvi_workloads::presets::gcc_like().with_outer_iterations(950);
    let program = dvi_workloads::generate(&spec);
    let layout = dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())
        .expect("workload compiles")
        .program
        .layout()
        .expect("binary lays out");
    let trace = CapturedTrace::record(&layout, FOUR_TURNS);
    assert_eq!(trace.len() as u64, FOUR_TURNS, "the checkpoint A/B needs full scheduling turns");
    let grid = [
        SimConfig::micro97(),
        SimConfig::micro97().with_dvi(DviConfig::full()),
        SimConfig::micro97().with_phys_regs(40),
    ];
    let path = std::env::temp_dir().join("dvi-bench-ckpt.dviswpck");
    let mut best = [f64::MAX; 2];
    let (mut plain, mut checkpointed) = (Vec::new(), Vec::new());
    // Both sides of this A/B are ~30 ms, so extra repetitions are cheap —
    // and needed: the expected delta (~3%) is far below this container's
    // run-to-run noise, so only a deep min-of-N on each side of the
    // interleaved pair resolves it.
    for _ in 0..reps().max(9) {
        let start = Instant::now();
        plain = SweepRunner::new(&trace, grid.iter().cloned()).run();
        best[0] = best[0].min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        checkpointed = SweepRunner::new(&trace, grid.iter().cloned()).with_checkpoint(&path).run();
        best[1] = best[1].min(start.elapsed().as_secs_f64());
    }
    std::fs::remove_file(&path).ok();
    assert_eq!(plain, checkpointed, "checkpointing must not change the simulated statistics");
    best[1] / best[0]
}

/// Times one save → load round trip of every captured trace in the mix
/// through the checksummed artifact format (fingerprint-verified), in
/// seconds — the cost a sweep service pays to make a capture durable.
fn artifact_save_load_seconds(mix: &Mix) -> f64 {
    let path = std::env::temp_dir().join("dvi-bench-trace.dvitrace");
    let mut best = f64::MAX;
    for _ in 0..reps() {
        let start = Instant::now();
        for trace in &mix.traces {
            trace.save(&path).expect("trace artifact saves");
            let loaded = dvi_program::CapturedTrace::load(&path).expect("trace artifact loads");
            assert_eq!(loaded.fingerprint(), trace.fingerprint(), "artifact round trip drifted");
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    std::fs::remove_file(&path).ok();
    best
}

/// The sweep-service end-to-end numbers (see `service_measurements`).
struct ServiceBenchResult {
    /// Cold-cache service submission wall time relative to a direct serial
    /// `SweepRunner` pass over the same (trace × grid) matrix. The delta is
    /// everything the service adds on a miss: scheduling, per-member
    /// durability checkpoints and memo-cache stores. Target <= 1.05x
    /// (printed, not asserted — quick mode's short members bill the fixed
    /// per-write file-system cost against very little simulation).
    end_to_end_overhead: f64,
    /// Cold-cache submission wall time relative to resubmitting the
    /// identical jobs against the warm cache (which simulates nothing).
    memo_hit_vs_miss: f64,
    /// Best direct serial `SweepRunner` pass, seconds.
    direct_seconds: f64,
    /// Best cold-cache service pass, seconds.
    miss_seconds: f64,
    /// Best warm-cache service pass, seconds.
    hit_seconds: f64,
}

/// Times the sweep service end to end against a direct `SweepRunner` on a
/// fig10-style grid over the mix traces, interleaved min-of-N per side:
/// per repetition a direct serial pass, a cold-cache (all-miss) service
/// submission and a warm-cache (all-hit) resubmission, each asserted
/// bit-identical — so the bench-smoke CI job also regression-tests the
/// service's purity invariant (warm passes must simulate zero members).
/// One single-worker service instance serves every repetition; its memo
/// cache is cleared before each cold pass.
fn service_measurements(mix: &Mix) -> ServiceBenchResult {
    let grid = vec![
        SimConfig::micro97(),
        SimConfig::micro97().with_dvi(DviConfig::lvm_scheme()),
        SimConfig::micro97().with_dvi(DviConfig::lvm_stack_scheme()),
    ];
    let dir = std::env::temp_dir().join(format!("dvi-bench-service-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let service =
        SweepService::start(ServiceConfig::new(&dir).with_workers(1)).expect("service starts");
    let fingerprints: Vec<u64> =
        mix.traces.iter().map(|t| service.register_trace(t.clone())).collect();

    let submit_all = |out: &mut Vec<Vec<MemberOutcome>>| -> f64 {
        out.clear();
        let start = Instant::now();
        let jobs: Vec<u64> = fingerprints
            .iter()
            .map(|fp| {
                service
                    .submit(JobSpec { source: TraceSource::Fingerprint(*fp), grid: grid.clone() })
                    .expect("job submits")
            })
            .collect();
        for job in jobs {
            service.wait(job, Duration::from_secs(3600)).expect("job finishes");
            out.push(service.results(job).expect("job results").outcomes);
        }
        start.elapsed().as_secs_f64()
    };

    let (mut direct_best, mut miss_best, mut hit_best) = (f64::MAX, f64::MAX, f64::MAX);
    for _ in 0..reps() {
        let start = Instant::now();
        let direct: Vec<Vec<MemberOutcome>> = mix
            .traces
            .iter()
            .map(|trace| SweepRunner::new(trace, grid.iter().cloned()).run_outcomes())
            .collect();
        direct_best = direct_best.min(start.elapsed().as_secs_f64());

        service.cache().clear().expect("memo cache clears");
        let mut miss = Vec::new();
        miss_best = miss_best.min(submit_all(&mut miss));
        let simulated_before_warm = service.metrics().members_simulated;
        let mut hit = Vec::new();
        hit_best = hit_best.min(submit_all(&mut hit));

        assert_eq!(miss, direct, "cold-cache service results must match the direct runner");
        assert_eq!(hit, direct, "warm-cache service results must match the direct runner");
        assert_eq!(
            service.metrics().members_simulated,
            simulated_before_warm,
            "the warm resubmission must be served entirely from the memo cache"
        );
    }
    service.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    ServiceBenchResult {
        end_to_end_overhead: miss_best / direct_best,
        memo_hit_vs_miss: miss_best / hit_best,
        direct_seconds: direct_best,
        miss_seconds: miss_best,
        hit_seconds: hit_best,
    }
}

/// The whole-matrix-vs-per-figure numbers (see `matrix_measurements`).
struct MatrixBenchResult {
    /// Per-figure wall time relative to the whole-matrix pass (>1: the
    /// matrix was faster). On this single-CPU container the matrix's
    /// unified work-stealing queue degenerates to the same serial member
    /// schedule as the per-figure loop, so the honest expectation here is
    /// parity (~1.0x) — the queue-unification win needs cores to steal
    /// across, and the build-reuse win needs traces shared across cells
    /// (counted separately below, not timed into this ratio).
    vs_per_figure: f64,
    /// Best per-figure pass (one `SweepRunner` per trace), seconds.
    per_figure_seconds: f64,
    /// Best whole-matrix pass over the identical (trace × grid) cells,
    /// seconds.
    matrix_seconds: f64,
    /// Cells in the timed matrix (one per trace).
    cells: usize,
    /// Grid slots across all timed cells.
    requested_members: usize,
    /// Distinct traces the registry resolved in the duplicated-cells
    /// reuse check.
    distinct_traces: usize,
    /// Shared-product build passes in the duplicated-cells reuse check —
    /// exactly one per distinct trace even though every cell appears
    /// twice.
    shared_builds: u64,
    /// Grid slots served without a build pass in the reuse check.
    build_reuse_hits: u64,
    /// Duplicate grid slots that mapped onto an already-registered member
    /// in the reuse check (the whole second submission).
    member_dedup_hits: u64,
    /// Worker threads the matrix used.
    threads: usize,
    /// Shards of the sharded bit-identity check.
    shards: usize,
}

/// Times the whole-matrix runner against the per-figure loop it replaced:
/// the same fig5-style grid over every mix trace, run as one
/// `SweepRunner::run_parallel_outcomes` pass per trace (how each figure
/// driver used to sweep on its own) versus one `MatrixRunner` over all
/// (trace × grid) cells at once, interleaved min-of-N per side.
/// Bit-identity across the per-figure loop, the in-process matrix and a
/// 2-shard matrix is asserted on full `MemberOutcome`s before anything is
/// timed, so the bench-smoke CI job also regression-tests the shard-merge
/// contract. A separate duplicated-cells run (every cell submitted twice)
/// asserts the shared-build reuse counters: one build per distinct trace,
/// the entire second submission deduplicated member-for-member.
fn matrix_measurements(mix: &Mix, grid: &[SimConfig]) -> MatrixBenchResult {
    let cells: Vec<(&CapturedTrace, Vec<SimConfig>)> =
        mix.traces.iter().map(|trace| (trace, grid.to_vec())).collect();

    let reference: Vec<Vec<MemberOutcome>> = mix
        .traces
        .iter()
        .map(|trace| SweepRunner::new(trace, grid.iter().cloned()).run_parallel_outcomes())
        .collect();
    let matrixed = MatrixRunner::new(cells.clone()).run();
    let threads = matrixed.report.threads;
    assert_eq!(
        matrixed.into_cells(),
        reference,
        "the whole-matrix pass diverged from the per-figure loop"
    );
    let shards = 2;
    let sharded = MatrixRunner::new(cells.clone()).shards(shards).run();
    assert_eq!(
        sharded.into_cells(),
        reference,
        "the sharded matrix diverged from the per-figure loop"
    );

    let doubled: Vec<(&CapturedTrace, Vec<SimConfig>)> =
        cells.iter().chain(cells.iter()).cloned().collect();
    let reuse = MatrixRunner::new(doubled).run().report;
    assert_eq!(reuse.distinct_traces, mix.traces.len(), "one registry entry per distinct trace");
    assert_eq!(reuse.shared_builds, mix.traces.len() as u64, "one build pass per distinct trace");
    assert_eq!(
        reuse.member_dedup_hits,
        (mix.traces.len() * grid.len()) as u64,
        "the duplicated submission must dedup member-for-member"
    );

    let mut best = [f64::MAX; 2];
    for _ in 0..reps() {
        let start = Instant::now();
        let per_figure: u64 = mix
            .traces
            .iter()
            .map(|trace| {
                SweepRunner::new(trace, grid.iter().cloned())
                    .run_parallel_outcomes()
                    .iter()
                    .filter_map(|o| o.stats().map(|s| s.program_instrs))
                    .sum::<u64>()
            })
            .sum();
        best[0] = best[0].min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let whole_matrix: u64 = MatrixRunner::new(cells.clone())
            .run()
            .into_cells()
            .iter()
            .flatten()
            .filter_map(|o| o.stats().map(|s| s.program_instrs))
            .sum();
        best[1] = best[1].min(start.elapsed().as_secs_f64());
        assert_eq!(per_figure, whole_matrix, "both sides must simulate the same instructions");
    }
    MatrixBenchResult {
        vs_per_figure: best[0] / best[1],
        per_figure_seconds: best[0],
        matrix_seconds: best[1],
        cells: cells.len(),
        requested_members: cells.len() * grid.len(),
        distinct_traces: reuse.distinct_traces,
        shared_builds: reuse.shared_builds,
        build_reuse_hits: reuse.build_reuse_hits,
        member_dedup_hits: reuse.member_dedup_hits,
        threads,
        shards,
    }
}

/// One machine's headline numbers.
struct MachineResult {
    name: &'static str,
    seed_baseline: f64,
    naive_scan: f64,
    event_driven: f64,
    replay: f64,
    replay_shared: f64,
}

/// The sweep-comparison headline numbers.
struct SweepResult {
    configs: usize,
    serial_mips: f64,
    batch_mips: f64,
    parallel_mips: f64,
    threads: usize,
    /// Batched-runner wall time with max-cadence checkpointing relative
    /// to without (~1.00x: snapshots are a few hundred bytes and durable
    /// writes happen once per member completion; see
    /// `checkpoint_overhead_ratio`).
    checkpoint_overhead: f64,
    /// One save -> load round trip of every trace in the mix, seconds.
    save_load_seconds: f64,
    /// The plain-replay vs all-products A/B (see `plain_vs_products`).
    plain_vs_products: PlainVsProducts,
}

/// Writes the headline numbers as a JSON artifact for CI history.
fn write_json(
    results: &[MachineResult],
    sweep: &SweepResult,
    service: &ServiceBenchResult,
    matrix: &MatrixBenchResult,
    mix: &Mix,
    fusion_vs_live: f64,
    fused_coverage: f64,
) -> std::io::Result<()> {
    let plain_vs_products = &sweep.plain_vs_products;
    let path =
        std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| "BENCH_sim_throughput.json".to_owned());
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"sim_throughput\",")?;
    writeln!(f, "  \"quick\": {},", quick_mode())?;
    writeln!(f, "  \"instrs_per_run\": {},", instrs_per_run())?;
    writeln!(f, "  \"capture_seconds\": {:.4},", mix.capture_seconds)?;
    writeln!(f, "  \"depgraph_build_seconds\": {:.4},", mix.depgraph_seconds)?;
    writeln!(f, "  \"shared_precompute_seconds\": {:.4},", mix.precompute_seconds)?;
    writeln!(f, "  \"simulated_mips\": [")?;
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        writeln!(
            f,
            "    {{\"machine\": \"{}\", \"seed_baseline\": {:.3}, \"naive_scan\": {:.3}, \
             \"event_driven\": {:.3}, \"replay\": {:.3}, \"replay_shared\": {:.3}, \
             \"replay_vs_seed\": {:.3}, \"replay_vs_event\": {:.3}, \
             \"replay_shared_vs_replay\": {:.3}}}{comma}",
            r.name,
            r.seed_baseline,
            r.naive_scan,
            r.event_driven,
            r.replay,
            r.replay_shared,
            r.replay / r.seed_baseline,
            r.replay / r.event_driven,
            r.replay_shared / r.replay,
        )?;
    }
    writeln!(f, "  ],")?;
    writeln!(
        f,
        "  \"fusion\": {{\"table_build_seconds\": {:.4}, \"fused_coverage\": {fused_coverage:.3}, \
         \"fusion_vs_live\": {fusion_vs_live:.3}}},",
        mix.fusion_seconds
    )?;
    let json_spread = |v: &[f64; 3]| {
        format!("{{\"min\": {:.4}, \"median\": {:.4}, \"max\": {:.4}}}", v[0], v[1], v[2])
    };
    writeln!(
        f,
        "  \"plain_vs_products\": {{\"members\": {}, \"plain_seconds\": {}, \
         \"products_seconds\": {}, \"ratio\": {}}},",
        plain_vs_products.members,
        json_spread(&plain_vs_products.plain_seconds),
        json_spread(&plain_vs_products.products_seconds),
        json_spread(&plain_vs_products.ratio),
    )?;
    writeln!(
        f,
        "  \"sweep\": {{\"configs\": {}, \"serial_mips\": {:.3}, \"batch_mips\": {:.3}, \
         \"batch_vs_serial\": {:.3}, \"parallel_mips\": {:.3}, \"parallel_vs_serial\": {:.3}, \
         \"parallel_threads\": {}, \"checkpoint_overhead\": {:.3}}},",
        sweep.configs,
        sweep.serial_mips,
        sweep.batch_mips,
        sweep.batch_mips / sweep.serial_mips,
        sweep.parallel_mips,
        sweep.parallel_mips / sweep.serial_mips,
        sweep.threads,
        sweep.checkpoint_overhead,
    )?;
    writeln!(
        f,
        "  \"matrix\": {{\"vs_per_figure\": {:.3}, \"per_figure_seconds\": {:.4}, \
         \"matrix_seconds\": {:.4}, \"cells\": {}, \"requested_members\": {}, \
         \"parallel_threads\": {}, \"shards\": {}, \
         \"shared_build_reuse\": {{\"distinct_traces\": {}, \"shared_builds\": {}, \
         \"build_reuse_hits\": {}, \"member_dedup_hits\": {}}}}},",
        matrix.vs_per_figure,
        matrix.per_figure_seconds,
        matrix.matrix_seconds,
        matrix.cells,
        matrix.requested_members,
        matrix.threads,
        matrix.shards,
        matrix.distinct_traces,
        matrix.shared_builds,
        matrix.build_reuse_hits,
        matrix.member_dedup_hits,
    )?;
    writeln!(f, "  \"artifact\": {{\"save_load_seconds\": {:.4}}},", sweep.save_load_seconds,)?;
    writeln!(
        f,
        "  \"service\": {{\"end_to_end_overhead\": {:.3}, \"memo_hit_vs_miss\": {:.3}, \
         \"direct_seconds\": {:.4}, \"miss_seconds\": {:.4}, \"hit_seconds\": {:.4}}}",
        service.end_to_end_overhead,
        service.memo_hit_vs_miss,
        service.direct_seconds,
        service.miss_seconds,
        service.hit_seconds,
    )?;
    writeln!(f, "}}")?;
    println!("sim_throughput: wrote {path}");
    Ok(())
}

fn bench(c: &mut Criterion) {
    let mix = Mix::build();

    // Headline numbers: simulated-MIPS of the seed core, the rewritten
    // core (live and replay) and the scheduler-only delta for transparency.
    // All model the same machine bit-identically (tests/scheduler_equiv.rs,
    // tests/replay_equiv.rs).
    let machines = [
        ("4-wide/80-reg", narrow_machine()),
        ("8-wide/160-reg", wide_machine()),
        ("16-wide/320-reg", very_wide_machine()),
    ];
    verify_shared_equivalence(&mix, &machines);
    let mut results = Vec::new();
    for (name, config) in &machines {
        let [seed_baseline, naive_scan, event_driven, replay, replay_shared] =
            simulated_mips_all(&mix, config);
        let r =
            MachineResult { name, seed_baseline, naive_scan, event_driven, replay, replay_shared };
        println!("sim_throughput/{name}/seed_baseline:  {:.2} simulated-MIPS", r.seed_baseline);
        println!("sim_throughput/{name}/naive_scan:     {:.2} simulated-MIPS", r.naive_scan);
        println!("sim_throughput/{name}/event_driven:   {:.2} simulated-MIPS", r.event_driven);
        println!("sim_throughput/{name}/capture_replay: {:.2} simulated-MIPS", r.replay);
        println!("sim_throughput/{name}/replay_shared:  {:.2} simulated-MIPS", r.replay_shared);
        println!(
            "sim_throughput/{name}/speedup:        {:.2}x vs seed, {:.2}x vs live event-driven, \
             {:.2}x shared-products vs plain replay",
            r.replay / r.seed_baseline,
            r.replay / r.event_driven,
            r.replay_shared / r.replay,
        );
        results.push(r);
    }
    let dynamic_instrs = mix.traces.iter().map(|t| t.len() as u64).sum::<u64>() as f64;
    println!(
        "sim_throughput/capture: one-off capture of the mix took {:.3}s ({:.2} MIPS), amortized \
         across every sweep point",
        mix.capture_seconds,
        dynamic_instrs / mix.capture_seconds / 1.0e6
    );
    println!(
        "sim_throughput/depgraph_build: one-off dependence-graph builds took {:.4}s \
         ({:.1} ns/record); shared-product recording took {:.4}s — both amortized like capture",
        mix.depgraph_seconds,
        mix.depgraph_seconds * 1.0e9 / dynamic_instrs,
        mix.precompute_seconds,
    );

    // Batched-vs-serial sweep comparison: the same 8-configuration grid
    // over the same captured traces, run as 8 serial replays per trace
    // versus one co-scheduled `SweepRunner` pass per trace. The warm-up is
    // a full bit-identity check, so the bench-smoke CI job doubles as a
    // batching regression test.
    let grid = sweep_grid();
    verify_sweep_equivalence(&mix, &grid);
    let (fusion_vs_live, fused_coverage) = fusion_vs_live_ratio(&mix, &machines[0].1);
    let (serial_mips, batch_mips, parallel_mips) = sweep_mips(&mix, &grid);
    let checkpoint_overhead = checkpoint_overhead_ratio();
    let plain_vs_products = plain_vs_products();
    let save_load_seconds = artifact_save_load_seconds(&mix);
    let matrix = matrix_measurements(&mix, &grid);
    let service = service_measurements(&mix);
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let sweep = SweepResult {
        configs: grid.len(),
        serial_mips,
        batch_mips,
        parallel_mips,
        threads,
        checkpoint_overhead,
        save_load_seconds,
        plain_vs_products,
    };
    println!(
        "sim_throughput/sweep/serial   ({} configs): {serial_mips:.2} simulated-MIPS",
        grid.len()
    );
    println!(
        "sim_throughput/sweep/batch    ({} configs): {batch_mips:.2} simulated-MIPS",
        grid.len()
    );
    println!(
        "sim_throughput/sweep/parallel ({} configs, {threads} threads): \
         {parallel_mips:.2} simulated-MIPS",
        grid.len()
    );
    println!(
        "sim_throughput/sweep/speedup:              {:.2}x batched, {:.2}x parallel vs serial",
        batch_mips / serial_mips,
        parallel_mips / serial_mips
    );
    println!(
        "sim_throughput/sweep/checkpoint_overhead:  {checkpoint_overhead:.3}x (max-cadence \
         durable snapshots — one atomic write per member completion — vs none)"
    );
    let ab = &sweep.plain_vs_products;
    println!(
        "sim_throughput/plain_vs_products:         {:.3}x median ({:.3}..{:.3}) plain replay vs \
         all products over the Figure 5 grid ({} members; plain {:.3}s, products {:.3}s median)",
        ab.ratio[1],
        ab.ratio[0],
        ab.ratio[2],
        ab.members,
        ab.plain_seconds[1],
        ab.products_seconds[1],
    );
    println!(
        "sim_throughput/artifact/save_load:         {save_load_seconds:.4}s for one save -> load \
         round trip of the whole mix"
    );
    println!(
        "sim_throughput/matrix/vs_per_figure:       {:.3}x whole-matrix vs one SweepRunner pass \
         per trace ({} cells x {} configs, {} threads; parity is the honest single-CPU \
         expectation — bit-identity incl. a {}-shard run asserted first)",
        matrix.vs_per_figure,
        matrix.cells,
        matrix.requested_members / matrix.cells.max(1),
        matrix.threads,
        matrix.shards,
    );
    println!(
        "sim_throughput/matrix/shared_build_reuse:  duplicated submission: {} distinct traces, \
         {} build passes, {} build-reuse hits, {} member-dedup hits",
        matrix.distinct_traces,
        matrix.shared_builds,
        matrix.build_reuse_hits,
        matrix.member_dedup_hits,
    );
    println!(
        "sim_throughput/service/end_to_end_overhead: {:.3}x vs direct SweepRunner (target \
         <= 1.05x; cold cache, single checkpointed worker, {:.4}s vs {:.4}s)",
        service.end_to_end_overhead, service.miss_seconds, service.direct_seconds,
    );
    println!(
        "sim_throughput/service/memo_hit_vs_miss:    {:.1}x — the identical resubmission is \
         served from the content-addressed cache with zero members simulated ({:.4}s)",
        service.memo_hit_vs_miss, service.hit_seconds,
    );
    println!(
        "sim_throughput/backend/fusion_vs_live:     {fusion_vs_live:.3}x serial all-products \
         with fused dispatch vs the slow loop ({:.1}% of dispatches on the fast path; \
         bit-identity asserted first; table builds took {:.4}s one-off, amortized like capture)",
        100.0 * fused_coverage,
        mix.fusion_seconds,
    );

    if let Err(e) =
        write_json(&results, &sweep, &service, &matrix, &mix, fusion_vs_live, fused_coverage)
    {
        eprintln!("sim_throughput: could not write JSON artifact: {e}");
    }

    let narrow = narrow_machine();
    let wide = wide_machine();
    let mut g = c.benchmark_group("sim_throughput");
    let (warm, measure) = if quick_mode() {
        (Duration::from_millis(200), Duration::from_secs(1))
    } else {
        (Duration::from_secs(1), Duration::from_secs(8))
    };
    g.sample_size(10).warm_up_time(warm).measurement_time(measure);
    g.bench_function("capture_replay_4wide", |b| {
        b.iter(|| run_mix(&mix, &narrow, Core::Replay));
    });
    g.bench_function("replay_shared_4wide", |b| {
        b.iter(|| run_mix(&mix, &narrow, Core::ReplayShared));
    });
    g.bench_function("event_driven_4wide", |b| {
        b.iter(|| run_mix(&mix, &narrow, Core::EventDriven));
    });
    g.bench_function("seed_baseline_4wide", |b| {
        b.iter(|| run_mix(&mix, &narrow, Core::SeedBaseline));
    });
    g.bench_function("capture_replay_8wide", |b| {
        b.iter(|| run_mix(&mix, &wide, Core::Replay));
    });
    g.bench_function("event_driven_8wide", |b| {
        b.iter(|| run_mix(&mix, &wide, Core::EventDriven));
    });
    g.bench_function("seed_baseline_8wide", |b| {
        b.iter(|| run_mix(&mix, &wide, Core::SeedBaseline));
    });
    g.bench_function("sweep_serial_8cfg", |b| {
        b.iter(|| run_sweep_serial(&mix, &grid));
    });
    g.bench_function("sweep_batch_8cfg", |b| {
        b.iter(|| run_sweep_batch(&mix, &grid));
    });
    g.bench_function("sweep_parallel_8cfg", |b| {
        b.iter(|| run_sweep_parallel(&mix, &grid));
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
