//! D-cache-oracle differential tests.
//!
//! A [`DcacheOracle`] recorded by [`record_dcache_oracle`] replays one
//! member's L1D outcome stream into any session handed it through
//! [`SharedTables::dcache`]. Unlike the branch/I-cache/DVI oracles, the
//! D-cache access stream depends on *issue order*, so a member of the
//! recording member's data-side geometry group may legitimately diverge
//! from the recording. The contract these tests lock down is therefore
//! two-sided:
//!
//! * **bit-identity** — whatever mix of replayed, diverged-and-retried and
//!   oracle-less members an oracle sweep ends up with, per-member
//!   `SimStats` are bit-identical to serial `Simulator::run(trace.replay())`
//!   runs, across the full Figure 10 workload mix with a
//!   heterogeneous-geometry grid and across random presets × grids ×
//!   thread counts (proptest);
//! * **graceful degradation** — the replay cursor checks every access, so
//!   a member whose access stream diverges from the recorded one (forced
//!   here with a corrupted oracle) stops with a `D-cache oracle
//!   divergence` panic and is retried live with correct statistics, never
//!   reported with wrong replayed statistics;
//!
//! plus the grouping regression: `PerfectDcache` members must not share a
//! geometry group with stock-L1D members of the same shape, and a session
//! refuses a stock recording for a perfect member.
//!
//! The oracle sweep is driven here, session by session: no production
//! runner installs D-cache oracles.

use dvi_core::DviConfig;
use dvi_isa::Abi;
use dvi_mem::{CacheConfig, DcacheOracle, PackedBits};
use dvi_program::{CapturedTrace, LayoutProgram};
use dvi_sim::{
    record_dcache_oracle, DcacheModelKind, DmemGeometry, MemberOutcome, SharedTables, SimConfig,
    SimSession, SimStats, Simulator,
};
use dvi_workloads::{presets, WorkloadSpec};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

fn edvi_layout(spec: &WorkloadSpec) -> LayoutProgram {
    let program = dvi_workloads::generate(spec);
    let abi = Abi::mips_like();
    let compiled = dvi_compiler::compile(&program, &abi, dvi_compiler::CompileOptions::default())
        .expect("workload compiles");
    compiled.program.layout().expect("binary lays out")
}

/// A second L1D shape for heterogeneous grids: half the size, half the
/// associativity of the paper's 64KB 4-way L1D.
fn small_l1d() -> CacheConfig {
    CacheConfig { size_bytes: 32 * 1024, associativity: 2, ..CacheConfig::micro97_l1d() }
}

/// Clusters grid members by [`SimConfig::dmem_geometry`], in order of
/// first appearance: `(key, member indices)` per group.
fn dmem_geometry_groups(grid: &[SimConfig]) -> Vec<(DmemGeometry, Vec<usize>)> {
    let mut groups: Vec<(DmemGeometry, Vec<usize>)> = Vec::new();
    for (i, config) in grid.iter().enumerate() {
        let key = config.dmem_geometry();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(i),
            None => groups.push((key, vec![i])),
        }
    }
    groups
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Runs one member over `trace` replaying `oracle`. A divergence panic
/// from the replay cursor degrades the member to a live retry on its
/// private L1D; any other outcome is reported as replayed.
fn replay_with_oracle(
    trace: &CapturedTrace,
    config: &SimConfig,
    oracle: &Arc<DcacheOracle>,
) -> MemberOutcome {
    let tables = SharedTables { dcache: Some(Arc::clone(oracle)), ..SharedTables::default() };
    let replay = catch_unwind(AssertUnwindSafe(|| {
        SimSession::with_shared_tables(config.clone(), trace.cursor(), tables).run_to_completion()
    }));
    match replay {
        Ok(stats) => MemberOutcome::Ok(stats),
        Err(payload) => MemberOutcome::Degraded {
            stats: Simulator::new(config.clone()).run(trace.replay()),
            reason: panic_message(payload.as_ref()),
        },
    }
}

/// One oracle sweep over `grid`: each stock geometry group records one
/// oracle from its first member and every member of the group replays it;
/// perfect-D-cache members run live. Members are spread round-robin over
/// `threads` scoped threads sharing the recorded oracles.
fn oracle_sweep(trace: &CapturedTrace, grid: &[SimConfig], threads: usize) -> Vec<MemberOutcome> {
    let mut oracle_of: Vec<Option<Arc<DcacheOracle>>> = vec![None; grid.len()];
    for (key, members) in dmem_geometry_groups(grid) {
        if key.model == DcacheModelKind::Stock {
            let oracle = record_dcache_oracle(trace, &grid[members[0]]);
            for i in members {
                oracle_of[i] = Some(Arc::clone(&oracle));
            }
        }
    }
    let run = |i: usize| match &oracle_of[i] {
        Some(oracle) => replay_with_oracle(trace, &grid[i], oracle),
        None => MemberOutcome::Ok(Simulator::new(grid[i].clone()).run(trace.replay())),
    };
    let threads = threads.clamp(1, grid.len().max(1));
    let mut outcomes: Vec<(usize, MemberOutcome)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let run = &run;
                scope.spawn(move || {
                    (t..grid.len()).step_by(threads).map(|i| (i, run(i))).collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("worker thread")).collect()
    });
    outcomes.sort_by_key(|(i, _)| *i);
    outcomes.into_iter().map(|(_, outcome)| outcome).collect()
}

fn serial_replays(trace: &CapturedTrace, grid: &[SimConfig]) -> Vec<SimStats> {
    grid.iter().map(|config| Simulator::new(config.clone()).run(trace.replay())).collect()
}

/// Asserts that one oracle sweep over `trace` matches serial replays of
/// the same grid, config for config and bit for bit — regardless of which
/// members replayed the oracle and which diverged into a degraded live
/// retry.
fn assert_dcache_oracle_equivalent(trace: &CapturedTrace, grid: &[SimConfig], context: &str) {
    let outcomes = oracle_sweep(trace, grid, 1);
    assert_eq!(outcomes.len(), grid.len());
    for (i, (outcome, serial)) in outcomes.iter().zip(&serial_replays(trace, grid)).enumerate() {
        if let MemberOutcome::Degraded { reason, .. } = outcome {
            assert!(
                reason.contains("D-cache oracle divergence"),
                "{context}: member {i} degraded for a reason other than divergence: {reason}"
            );
        }
        assert_eq!(
            outcome.stats(),
            Some(serial),
            "{context}: oracle-replay stats diverge from the serial replay for grid member {i}"
        );
    }
}

/// A grid that varies the data side itself alongside back-end pressure:
/// two stock L1D shapes, a perfect-D-cache member, and register-file /
/// port / DVI variation inside each geometry group.
fn heterogeneous_geometry_grid() -> Vec<SimConfig> {
    let small = |config: SimConfig| SimConfig { dcache: small_l1d(), ..config };
    vec![
        // Group 1: paper L1D, stock model.
        SimConfig::micro97(),
        SimConfig::micro97().with_dvi(DviConfig::full()),
        SimConfig::micro97().with_phys_regs(48),
        SimConfig::micro97().with_cache_ports(1),
        // Group 2: halved L1D, stock model.
        small(SimConfig::micro97()),
        small(SimConfig::micro97().with_dvi(DviConfig::full())),
        small(SimConfig::micro97().with_phys_regs(40)),
        // Group 3: perfect D-cache — same *shape* as group 1 but a
        // different model, so it must not consume group 1's oracle.
        SimConfig::micro97().with_perfect_dcache(),
    ]
}

/// Across the Figure 10 workload mix, an oracle sweep over a
/// heterogeneous-geometry grid produces `SimStats` bit-identical to
/// serial replays.
#[test]
fn fig10_mix_dcache_oracle_sweep_is_bit_identical_to_serial_replays() {
    const STEPS: u64 = 15_000;
    let grid = heterogeneous_geometry_grid();
    for spec in presets::save_restore_suite() {
        let layout = edvi_layout(&spec);
        let trace = CapturedTrace::record(&layout, STEPS);
        assert!(!trace.is_empty(), "{}: capture produced an empty trace", spec.name);
        assert_dcache_oracle_equivalent(&trace, &grid, &spec.name);
    }
}

/// A replicated-identical-configuration group is the oracle's best case:
/// every member reproduces the recording member's access stream exactly,
/// so replay must succeed for all of them — `Ok`, not `Degraded` — with
/// bit-identical statistics.
#[test]
fn replicated_group_replays_the_oracle_without_degradation() {
    let layout = edvi_layout(&presets::perl_like());
    let trace = CapturedTrace::record(&layout, 12_000);
    let config = SimConfig::micro97().with_dvi(DviConfig::full());
    let grid = [config.clone(), config.clone(), config];
    let outcomes = oracle_sweep(&trace, &grid, 1);
    let serial = Simulator::new(grid[0].clone()).run(trace.replay());
    for (i, outcome) in outcomes.iter().enumerate() {
        let MemberOutcome::Ok(stats) = outcome else {
            panic!("replicated member {i} should replay the oracle cleanly, got: {outcome}");
        };
        assert_eq!(stats, &serial, "replicated member {i} diverges from the serial replay");
    }
}

/// Forced divergence: a corrupted oracle (a one-access stream that cannot
/// possibly match any real run) must stop every stock member at the
/// replay cursor, degrading it to a live retry with *correct* statistics
/// — wrong replayed statistics are the one unacceptable outcome.
#[test]
fn corrupted_oracle_stream_degrades_to_live_not_wrong_replay() {
    let layout = edvi_layout(&WorkloadSpec::small("diverge", 5));
    let trace = CapturedTrace::record(&layout, 8_000);
    let grid =
        [SimConfig::micro97(), SimConfig::micro97(), SimConfig::micro97().with_phys_regs(48)];

    let mut writes = PackedBits::default();
    writes.push(false);
    let mut hits = PackedBits::default();
    hits.push(true);
    let bogus = DcacheOracle::from_parts(grid[0].dcache, vec![0xdead_beef_0000], writes, hits)
        .expect("a well-formed (if useless) one-access stream");
    let bogus = Arc::new(bogus);

    for (i, (config, serial)) in grid.iter().zip(serial_replays(&trace, &grid)).enumerate() {
        let outcome = replay_with_oracle(&trace, config, &bogus);
        let MemberOutcome::Degraded { stats, reason } = outcome else {
            panic!("member {i} should degrade on the corrupted oracle, got: {outcome}");
        };
        assert!(
            reason.contains("D-cache oracle"),
            "member {i}: degradation reason should name the diverging oracle, got: {reason}"
        );
        assert_eq!(stats, serial, "member {i}: degraded retry must match the serial replay");
    }
}

/// Grouping regression: `PerfectDcache` members share an L1D *shape* with
/// stock members but not hit/miss behaviour — the data-side key must
/// carry the model, and a session must refuse to hand a perfect member a
/// stock recording.
#[test]
fn perfect_dcache_members_get_their_own_geometry_group() {
    let layout = edvi_layout(&WorkloadSpec::small("grouping", 3));
    let trace = CapturedTrace::record(&layout, 4_000);
    let grid = [
        SimConfig::micro97(),
        SimConfig::micro97().with_perfect_dcache(),
        SimConfig::micro97(),
        SimConfig::micro97().with_perfect_dcache(),
    ];
    let groups = dmem_geometry_groups(&grid);
    assert_eq!(groups.len(), 2, "stock and perfect members must not share a group");
    assert_eq!(groups[0].0.model, DcacheModelKind::Stock);
    assert_eq!(groups[0].1, vec![0, 2]);
    assert_eq!(groups[1].0.model, DcacheModelKind::Perfect);
    assert_eq!(groups[1].1, vec![1, 3]);

    let stock_oracle = record_dcache_oracle(&trace, &grid[0]);
    let misuse = catch_unwind(AssertUnwindSafe(|| {
        let tables = SharedTables { dcache: Some(stock_oracle), ..SharedTables::default() };
        SimSession::with_shared_tables(grid[1].clone(), trace.cursor(), tables)
    }));
    assert!(misuse.is_err(), "a perfect member must not accept a stock D-cache recording");

    // And the perfect members really do model a different machine: a
    // perfect D-cache never misses.
    let stats: Vec<SimStats> =
        oracle_sweep(&trace, &grid, 1).into_iter().map(MemberOutcome::into_stats).collect();
    assert_eq!(stats[0], stats[2], "replicated stock members must agree");
    assert_eq!(stats[1], stats[3], "replicated perfect members must agree");
    assert_eq!(stats[1].memory.l1d.misses, 0, "a perfect D-cache never misses");
    assert_eq!(stats, serial_replays(&trace, &grid));
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

/// One pseudo-random grid member over the axes the D-cache oracle cares
/// about: two L1D shapes, the perfect-model escape hatch, and back-end
/// pressure (register-file size, ports, DVI scheme) that perturbs issue
/// order within a geometry group.
fn grid_member(bits: u64) -> SimConfig {
    let phys_regs = 34 + (bits % 63) as usize; // 34..=96
    let ports = 1 + ((bits >> 8) % 3) as usize; // 1..=3
    #[allow(clippy::cast_possible_truncation)]
    let scheme = (bits >> 16) as u8;
    let mut config = SimConfig::micro97()
        .with_phys_regs(phys_regs)
        .with_cache_ports(ports)
        .with_dvi(dvi_scheme(scheme));
    if (bits >> 24) & 1 == 1 {
        config = SimConfig { dcache: small_l1d(), ..config };
    }
    if (bits >> 25) & 3 == 3 {
        config = config.with_perfect_dcache();
    }
    config
}

proptest! {
    #[test]
    fn dcache_oracle_sweep_matches_serial_for_random_presets_grids_and_threads(
        preset in 0usize..7,
        seed in any::<u64>(),
        members in proptest::collection::vec(any::<u64>(), 3..8),
        threads in 1usize..5,
    ) {
        let spec = presets::by_index(preset).with_seed(seed).with_outer_iterations(3);
        let layout = edvi_layout(&spec);
        let trace = CapturedTrace::record(&layout, 2_000);
        let grid: Vec<SimConfig> = members.into_iter().map(grid_member).collect();
        let outcomes = oracle_sweep(&trace, &grid, threads);
        for (i, (outcome, serial)) in
            outcomes.iter().zip(&serial_replays(&trace, &grid)).enumerate()
        {
            prop_assert!(
                outcome.is_complete(),
                "{}: member {i} did not complete: {outcome}", spec.name
            );
            prop_assert_eq!(
                outcome.stats(),
                Some(serial),
                "{}: member {i} diverges from the serial replay", spec.name
            );
        }
    }
}
