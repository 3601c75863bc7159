//! Per-layer timings: the lower layers' public functions, timed from
//! outside on a workload's own generated inputs.

use crate::metrics::Report;
use crate::stats::median;
use dvi_program::CapturedTrace;
use dvi_service::{CacheProbe, ResultCache};
use dvi_sim::checkpoint::config_fingerprint;
use dvi_sim::{
    BranchOracle, DviOracle, IcacheOracle, MatrixOutcome, MatrixRunner, MemberOutcome,
    SharedTables, SimConfig, SimSession, SimStats, Simulator, StaticDecodeTable,
};
use dvi_workloads::WorkloadSpec;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions behind each per-layer timing (the median is reported).
const REPEATS: usize = 3;

/// Median over [`REPEATS`] runs of `f`'s wall time in seconds.
fn timed(mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Median over [`REPEATS`] runs of `f`'s wall time in seconds, each run
/// on a fresh input from the untimed `setup`.
fn timed_after<S>(mut setup: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            f(input);
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn decode_all(bytes: &[Vec<u8>]) -> Vec<CapturedTrace> {
    bytes
        .iter()
        .map(|b| CapturedTrace::from_bytes(b).expect("a trace artifact round-trips"))
        .collect()
}

/// `compiler.build_ms`: `Binaries::build` over the suite.
pub fn compiler(report: &mut Report, specs: &[WorkloadSpec]) {
    let secs = timed(|| {
        for spec in specs {
            std::hint::black_box(dvi_experiments::Binaries::build(spec));
        }
    });
    report.set("compiler.build_ms", secs * 1e3);
}

/// `program.capture_ns_per_instr`: `CapturedTrace::record` of each
/// layout under `budget`. Returns the traces.
pub fn capture(
    report: &mut Report,
    layouts: &[&dvi_program::LayoutProgram],
    budget: u64,
) -> Vec<CapturedTrace> {
    let mut traces = Vec::new();
    let secs = timed(|| {
        traces = layouts.iter().map(|layout| CapturedTrace::record(layout, budget)).collect();
    });
    let instrs: usize = traces.iter().map(CapturedTrace::len).sum();
    report.set("program.capture_ns_per_instr", secs * 1e9 / instrs.max(1) as f64);
    traces
}

/// The trace-pure products: artifact decode and size, dependence graph,
/// fusion tables and the three oracles, each per record over `traces`.
pub fn products(report: &mut Report, traces: &[CapturedTrace]) {
    let records = traces.iter().map(CapturedTrace::len).sum::<usize>().max(1) as f64;
    let per_record = |secs: f64| secs * 1e9 / records;
    let bytes: Vec<Vec<u8>> = traces.iter().map(CapturedTrace::to_bytes).collect();
    report.set(
        "program.artifact_bytes_per_record",
        bytes.iter().map(Vec::len).sum::<usize>() as f64 / records,
    );
    let mut decoded = Vec::new();
    let decode = timed(|| decoded = decode_all(&bytes));
    report.set("program.decode_ns_per_record", per_record(decode));
    let depgraph = timed_after(
        || decode_all(&bytes),
        |mut fresh| {
            for trace in &mut fresh {
                std::hint::black_box(trace.build_depgraph());
            }
        },
    );
    report.set("program.depgraph_ns_per_record", per_record(depgraph));
    for trace in &mut decoded {
        trace.build_depgraph();
    }
    let mut fused = 0usize;
    let fusion = timed(|| {
        fused = decoded
            .iter()
            .map(|trace| {
                let graph = trace.depgraph().expect("graph built above");
                dvi_program::FusionTable::build(trace, graph, 4).fused_records()
            })
            .sum();
    });
    report.set("program.fusion_ns_per_record", per_record(fusion));
    report.set("program.fused_share", fused as f64 / records);
    let machine = SimConfig::micro97();
    let branch = timed(|| {
        for trace in traces {
            std::hint::black_box(BranchOracle::record(trace, machine.predictor));
        }
    });
    let icache = timed(|| {
        for trace in traces {
            std::hint::black_box(IcacheOracle::record(trace, machine.icache));
        }
    });
    let dvi = timed(|| {
        for trace in traces {
            std::hint::black_box(DviOracle::record(trace, dvi_core::DviConfig::full()));
        }
    });
    report.set("sim.branch_oracle_ns_per_record", per_record(branch));
    report.set("sim.icache_oracle_ns_per_record", per_record(icache));
    report.set("sim.dvi_oracle_ns_per_record", per_record(dvi));
}

/// Every shared product a matrix member of `config` can consume.
fn tables_for(trace: &CapturedTrace, config: &SimConfig) -> SharedTables {
    SharedTables {
        decode: Some(Arc::new(StaticDecodeTable::for_trace(trace))),
        branches: Some(Arc::new(BranchOracle::record(trace, config.predictor))),
        icache: Some(Arc::new(IcacheOracle::record(trace, config.icache))),
        depgraph: trace.depgraph().cloned(),
        dvi: Some(Arc::new(DviOracle::record(trace, config.dvi))),
        dcache: None,
        fusion: trace
            .depgraph()
            .map(|graph| dvi_program::FusionTable::build_shared(trace, graph, config.decode_width)),
    }
}

/// `sim.core_ns_per_instr` / `_per_cycle`: `SimSession::with_shared_tables`
/// run to completion on each sampled member (products built beforehand,
/// outside the timing). Each member must equal a serial
/// `Simulator::run` over `trace.replay()` and, when given, the statistics
/// the workload itself produced. Returns the mismatch count.
pub fn core(report: &mut Report, members: &[(&CapturedTrace, SimConfig, Option<SimStats>)]) -> u64 {
    let mut mismatches = 0;
    let (mut secs, mut instrs, mut cycles) = (0.0, 0u64, 0u64);
    for (trace, config, expected) in members {
        let tables = tables_for(trace, config);
        let start = Instant::now();
        let shared = SimSession::with_shared_tables(config.clone(), trace.replay(), tables)
            .run_to_completion();
        secs += start.elapsed().as_secs_f64();
        instrs += shared.program_instrs;
        cycles += shared.cycles;
        let serial = Simulator::new(config.clone()).run(trace.replay());
        if shared != serial || expected.as_ref().is_some_and(|e| *e != serial) {
            eprintln!("benchmark: mismatch: a sampled member differs from its serial replay");
            mismatches += 1;
        }
    }
    report.set("sim.core_ns_per_instr", secs * 1e9 / instrs.max(1) as f64);
    report.set("sim.core_ns_per_cycle", secs * 1e9 / cycles.max(1) as f64);
    mismatches
}

/// `sim.matrix_s` and the `sim.matrix.*` counts: one `MatrixRunner` pass
/// over `cells`.
pub fn matrix(report: &mut Report, cells: Vec<(&CapturedTrace, Vec<SimConfig>)>) -> MatrixOutcome {
    let start = Instant::now();
    let outcome = MatrixRunner::new(cells).run();
    let r = &outcome.report;
    report.set("sim.matrix_s", start.elapsed().as_secs_f64());
    report.set("sim.matrix.unique_members", r.unique_members as f64);
    report.set("sim.matrix.shared_builds", r.shared_builds as f64);
    report.set("sim.matrix.build_reuse_hits", r.build_reuse_hits as f64);
    report.set("sim.matrix.steals", r.shard_steals.iter().sum::<u64>() as f64);
    outcome
}

/// `sim.matrix.parallel_efficiency`: the matrix members' core seconds
/// (their instructions at `sim.core_ns_per_instr`, so [`core`] and
/// [`matrix`] run first) over threads x `sim.matrix_s`. Duplicate grid
/// slots simulate once, so the instructions are scaled by unique over
/// requested members.
pub fn parallel_efficiency(report: &mut Report, outcome: &MatrixOutcome) {
    let r = &outcome.report;
    let instrs: u64 = outcome
        .cells
        .iter()
        .flatten()
        .flatten()
        .filter_map(MemberOutcome::stats)
        .map(|s| s.program_instrs)
        .sum();
    let core_s = instrs as f64 * report.get("sim.core_ns_per_instr").unwrap_or(0.0) / 1e9
        * r.unique_members as f64
        / r.requested_members.max(1) as f64;
    let matrix_s = report.get("sim.matrix_s").unwrap_or(0.0);
    report.set("sim.matrix.parallel_efficiency", core_s / (r.threads.max(1) as f64 * matrix_s));
}

/// The deterministic `sim.*` and `core.*` counts, summed over `stats`.
pub fn sim_counts<'a>(report: &mut Report, stats: impl IntoIterator<Item = &'a SimStats>) {
    let mut sum = [0u64; 11];
    for s in stats {
        let row = [
            1,
            s.cycles,
            s.program_instrs,
            s.rename_stalls_no_reg,
            s.rename_stalls_no_window,
            s.fusion.fused_records,
            s.fusion.fallback_records,
            s.memory.l1d.misses,
            s.branch.direction_mispredictions + s.branch.return_mispredictions,
            s.dvi.save_restores_eliminated(),
            s.dvi.phys_regs_reclaimed_early,
        ];
        for (total, v) in sum.iter_mut().zip(row) {
            *total += v;
        }
    }
    let names = [
        "sim.members",
        "sim.cycles",
        "sim.program_instrs",
        "sim.rename_stalls_no_reg",
        "sim.rename_stalls_no_window",
        "sim.fused_records",
        "sim.fallback_records",
        "sim.l1d_misses",
        "sim.branch_mispredicts",
        "core.saves_restores_eliminated",
        "core.regs_reclaimed_early",
    ];
    for (name, total) in names.into_iter().zip(sum) {
        report.set(name, total as f64);
    }
}

/// `service.memo_store_us` / `service.memo_probe_us`: `ResultCache::store`
/// of each member into a scratch cache under `dir`, then
/// `ResultCache::probe` of each warm entry, which must return the stored
/// outcome. Returns the mismatch count.
pub fn memo(
    report: &mut Report,
    dir: &Path,
    members: &[(&CapturedTrace, SimConfig, SimStats)],
) -> u64 {
    let cache = ResultCache::open(dir).expect("the scratch result cache opens");
    let keys: Vec<(u64, u64, MemberOutcome)> = members
        .iter()
        .map(|(trace, config, stats)| {
            (trace.fingerprint(), config_fingerprint(config), MemberOutcome::Ok(*stats))
        })
        .collect();
    let n = keys.len().max(1) as f64;
    let store = timed(|| {
        for (t, c, outcome) in &keys {
            cache.store(*t, *c, outcome).expect("the scratch result cache stores");
        }
    });
    let mut mismatches = 0;
    let probe = timed(|| {
        mismatches = 0;
        for (t, c, outcome) in &keys {
            match cache.probe(*t, *c) {
                CacheProbe::Hit(hit) if *hit == *outcome => {}
                _ => mismatches += 1,
            }
        }
    });
    report.set("service.memo_store_us", store * 1e6 / n);
    report.set("service.memo_probe_us", probe * 1e6 / n);
    if mismatches > 0 {
        eprintln!(
            "benchmark: mismatch: {mismatches} memo probes did not return the stored outcome"
        );
    }
    mismatches
}
