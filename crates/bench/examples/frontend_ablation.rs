//! Front-end cost ablation: how much host time does each trace source
//! cost, in isolation and end-to-end — and what do the opt-in trace-pure
//! products change about the per-member back end?
//!
//! Measures, on the Figure 10 mix (min-of-5 wall clock):
//!
//! * draining a replayed [`CapturedTrace`] with no simulator attached,
//! * draining the live interpreter with no simulator attached,
//! * building the trace's dependence graph (the one-off precompute),
//! * driving the mix's memory references through a standalone
//!   [`dvi_mem::MemoryHierarchy`] in trace order — an isolated lower
//!   bound on the D-cache model's share of the back end,
//! * the full event-driven simulator fed by replay — the per-member
//!   steady state of every sweep, matrix and service run,
//! * the same simulator consuming every precomputed trace-pure product
//!   (decode table, branch/I-cache oracles, dependence graph, DVI event
//!   stream) through `SimSession::with_shared_tables`,
//! * the same shared-products simulator with a [`dvi_mem::PerfectDcache`]
//!   swapped in through the [`dvi_mem::DataMemModel`] seam (**a
//!   different modelled machine** — printed for the host-cost contrast
//!   and as the end-to-end proof the data side is swappable),
//! * the full event-driven simulator fed by live interpretation.
//!
//! The replay-vs-interp difference is the end-to-end value of
//! capture-once/replay-many; the shared-vs-replay difference is what the
//! products change per member once built (their build cost is not in
//! it); and the final **back-end decomposition** line splits the plain
//! replay steady state into trace production, the isolated D-cache model
//! drive and the residual window/scheduler/rename core — the
//! decomposition the ROADMAP's performance tables quote.
//!
//! Run with `cargo run --release -p dvi-bench --example frontend_ablation`.

use dvi_core::DviConfig;
use dvi_experiments::Binaries;
use dvi_program::{CapturedTrace, DepGraph, Interpreter};
use dvi_sim::{
    BranchOracle, DviOracle, IcacheOracle, SharedTables, SimConfig, SimSession, Simulator,
    StaticDecodeTable,
};
use std::sync::Arc;
use std::time::Instant;

const INSTRS_PER_RUN: u64 = 60_000;

fn main() {
    let layouts: Vec<_> = dvi_workloads::presets::save_restore_suite()
        .iter()
        .map(|spec| Binaries::build(spec).edvi)
        .collect();
    let traces: Vec<_> = layouts.iter().map(|l| CapturedTrace::record(l, INSTRS_PER_RUN)).collect();
    let dynamic_instrs: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let config = SimConfig::micro97().with_dvi(DviConfig::full());
    let shared: Vec<SharedTables> = traces
        .iter()
        .map(|trace| SharedTables {
            decode: Some(Arc::new(StaticDecodeTable::for_trace(trace))),
            branches: Some(Arc::new(BranchOracle::record(trace, config.predictor))),
            icache: Some(Arc::new(IcacheOracle::record(trace, config.icache))),
            depgraph: Some(Arc::new(DepGraph::build(trace))),
            dvi: Some(Arc::new(DviOracle::record(trace, config.dvi))),
            // Trace-order products only: the ablation isolates the
            // D-cache *drive* cost, so the L1D stays a live tag array.
            dcache: None,
            // Per-stage ablation wants the slow dispatch loop's cost
            // visible, not fused away.
            fusion: None,
        })
        .collect();

    let time = |label: &str, f: &dyn Fn() -> u64| -> f64 {
        let mut best = f64::MAX;
        let mut checksum = 0u64;
        for _ in 0..5 {
            let start = Instant::now();
            checksum = f();
            best = best.min(start.elapsed().as_secs_f64());
        }
        let ns_per_instr = best * 1e9 / dynamic_instrs as f64;
        println!(
            "{label}: {ns_per_instr:.1} ns/instr ({:.2} MIPS, checksum {checksum})",
            dynamic_instrs as f64 / best / 1e6
        );
        ns_per_instr
    };

    let replay_drain = time("replay-drain (trace production only)", &|| {
        traces.iter().map(|t| t.replay().map(|d| u64::from(d.pc)).sum::<u64>()).sum()
    });
    time("interp-drain (trace production only)", &|| {
        layouts
            .iter()
            .map(|l| {
                Interpreter::new(l)
                    .with_step_limit(INSTRS_PER_RUN)
                    .map(|d| u64::from(d.pc))
                    .sum::<u64>()
            })
            .sum()
    });
    time("depgraph-build (one-off precompute)", &|| {
        traces.iter().map(|t| DepGraph::build(t).len() as u64).sum()
    });
    // Lower bound on the D-cache model's share of the back end: the
    // mix's memory references driven through a standalone hierarchy in
    // trace order, with none of the window/scheduler machinery around it.
    // (The in-pipeline access order differs — issue order, interleaved
    // with L1I misses on the shared L2 — so this isolates the model's
    // tag-walk/LRU cost, not an exact slice of the end-to-end number.)
    let dcache_drive = time("dcache-drive (mix mem refs through a standalone hierarchy)", &|| {
        traces
            .iter()
            .map(|t| {
                let mut mem = dvi_mem::MemoryHierarchy::new(
                    config.icache,
                    config.dcache,
                    config.l2,
                    config.memory_latency,
                );
                t.replay()
                    .filter(|d| d.instr.class().uses_cache_port())
                    .map(|d| {
                        let addr = d.mem_addr.expect("memory records carry an address");
                        mem.data_access(addr, matches!(d.instr.class(), dvi_isa::InstrClass::Store))
                            .latency
                    })
                    .sum::<u64>()
            })
            .sum()
    });
    let plain_ns = time("sim+replay (sweep steady state: plain replay)", &|| {
        traces.iter().map(|t| Simulator::new(config.clone()).run(t.replay()).program_instrs).sum()
    });
    time("sim+replay+shared (opt-in products: depgraph + oracles)", &|| {
        traces
            .iter()
            .zip(&shared)
            .map(|(t, tables)| {
                SimSession::with_shared_tables(config.clone(), t.cursor(), tables.clone())
                    .run_to_completion()
                    .program_instrs
            })
            .sum()
    });
    // A *different modelled machine* (every data access hits in one
    // cycle): end-to-end proof the data side swaps through the
    // `DataMemModel` seam, and a second host-cost contrast for the
    // D-cache share (fewer simulated stall cycles AND no tag walks).
    time("sim+replay+shared+perfect-L1D (different machine: always-hit data side)", &|| {
        traces
            .iter()
            .zip(&shared)
            .map(|(t, tables)| {
                SimSession::with_dcache_model(
                    config.clone(),
                    t.cursor(),
                    tables.clone(),
                    Box::new(dvi_mem::PerfectDcache::new(config.dcache.latency)),
                )
                .run_to_completion()
                .program_instrs
            })
            .sum()
    });
    time("sim+interp (pre-capture behaviour)", &|| {
        layouts
            .iter()
            .map(|l| {
                Simulator::new(config.clone())
                    .run(Interpreter::new(l).with_step_limit(INSTRS_PER_RUN))
                    .program_instrs
            })
            .sum()
    });
    // The back-end split of the sweep steady state: what the ROADMAP's
    // decomposition tables quote. Trace production and the isolated
    // D-cache drive are measured above; the remainder is the
    // window/scheduler/rename core plus everything the isolation cannot
    // capture (issue-order effects, shared-L2 interleaving).
    println!(
        "backend-decomposition: plain replay steady state {plain_ns:.1} ns/instr = replay-drain \
         {replay_drain:.1} + dcache-model ≈{dcache_drive:.1} + window/sched/rename residual \
         ≈{:.1}",
        (plain_ns - replay_drain - dcache_drive).max(0.0)
    );
}
