//! The `figures` workload: every figure driver at `Budget::full()` over
//! the seeded presets, as a researcher regenerates the paper's
//! evaluation. A "job" here is one regeneration of every figure.

use crate::inputs::{by_name, figure_specs};
use crate::metrics::Report;
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::{host, layers, Args};
use dvi_experiments::{
    fig02, fig03, fig05, fig06, fig09, fig10, fig11, fig12, fig13, Binaries, Budget,
    CapturedBinaries,
};
use dvi_sim::{MemberOutcome, SimConfig, SweepSummary};
use dvi_workloads::{presets, WorkloadSpec};
use std::path::Path;
use std::time::Instant;

/// Fewest regenerations one untraced run measures.
const MIN_REGENERATIONS: usize = 3;
/// Suite captures per run (their median is `setup_s`).
const SETUPS: usize = 5;

/// One regeneration of every figure.
struct Regeneration {
    wall_s: f64,
    cpu_s: f64,
    /// Every figure's rendered table, for the determinism check.
    text: String,
    /// Members behind the sweeping figures (fig05, 09, 10, 11, 13).
    members: u64,
    /// Of those, members whose outcome was not `Ok`.
    not_ok: u64,
    /// Peak resident set size during the regeneration, in MiB.
    peak_rss_mb: f64,
}

fn regenerate(specs: &[WorkloadSpec], tracer: &Tracer) -> Regeneration {
    let budget = Budget::full();
    let save_restore = presets::save_restore_suite();
    let save_restore: Vec<&str> = save_restore.iter().map(|s| s.name.as_str()).collect();
    let save_restore = by_name(specs, &save_restore);
    let bandwidth = by_name(specs, &["gcc", "ijpeg"]);
    host::reset_peak_rss();
    let (cpu0, start) = (host::cpu_seconds(), Instant::now());
    let f02 = tracer.span("experiments.fig02", 0, 0, |_| fig02::run());
    let f03 = tracer.span("experiments.fig03", 0, 0, |_| fig03::run(budget));
    let f05 = tracer.span("experiments.fig05", 0, 0, |_| {
        fig05::run_with(budget, specs, &fig05::default_sizes())
    });
    let f06 = tracer.span("experiments.fig06", 0, 0, |_| fig06::from_fig05(&f05));
    let f09 = tracer.span("experiments.fig09", 0, 0, |_| fig09::run_with(budget, &save_restore));
    let f10 = tracer.span("experiments.fig10", 0, 0, |_| fig10::run_with(budget, &save_restore));
    let f11 = tracer.span("experiments.fig11", 0, 0, |_| {
        fig11::run_with(budget, &bandwidth, &[4, 8], &[1, 2, 3])
    });
    let f12 = tracer.span("experiments.fig12", 0, 0, |_| fig12::run_with(budget, specs));
    let f13 = tracer.span("experiments.fig13", 0, 0, |_| fig13::run_with(budget, specs));
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds() - cpu0;
    let mut health = SweepSummary::default();
    for h in [&f05.health, &f09.health, &f10.health, &f11.health, &f13.health] {
        health.merge(*h);
    }
    let text = format!(
        "{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n{}\n",
        f02, f03, f05, f06, f09, f10, f11, f12, f13
    );
    Regeneration {
        wall_s,
        cpu_s,
        text,
        members: health.total() as u64,
        not_ok: (health.total() - health.ok) as u64,
        peak_rss_mb: host::peak_rss_mb(),
    }
}

/// The seeded presets. A preset that could not be scaled to its shipped
/// length counts as a mismatch: that seed poses a different amount of work.
fn generate(seed: u64, report: &mut Report) -> Vec<WorkloadSpec> {
    let (specs, misfits) = figure_specs(seed, Budget::full().instrs_per_run);
    for name in misfits {
        eprintln!("benchmark: mismatch: no draw of {name} at seed {seed} fits its shipped length");
        report.mismatches += 1;
    }
    specs
}

/// Builds and captures every preset's two binaries as the figure drivers
/// do (`CapturedBinaries::build`), [`SETUPS`] times; returns the median
/// seconds. Every set-up must capture byte-identical traces.
fn set_up(specs: &[WorkloadSpec], report: &mut Report) -> f64 {
    let mut times = Vec::new();
    let mut first: Option<Vec<u64>> = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let captured: Vec<CapturedBinaries> =
            specs.iter().map(|spec| CapturedBinaries::build(spec, Budget::full())).collect();
        times.push(start.elapsed().as_secs_f64());
        let fingerprints: Vec<u64> = captured
            .iter()
            .flat_map(|c| [c.baseline.fingerprint(), c.edvi.fingerprint()])
            .collect();
        if first.as_ref().is_some_and(|prev| *prev != fingerprints) {
            eprintln!("benchmark: mismatch: one seed captured two different trace sets");
            report.mismatches += 1;
        }
        first.get_or_insert(fingerprints);
    }
    median(&times)
}

fn check_determinism(runs: &[Regeneration], report: &mut Report) {
    let first = &runs[0].text;
    for run in &runs[1..] {
        if run.text != *first {
            eprintln!("benchmark: mismatch: two regenerations rendered different figures");
            report.mismatches += 1;
        }
    }
}

fn count(report: &mut Report, runs: &[Regeneration]) {
    report.attempted += runs.iter().map(|r| r.members).sum::<u64>();
    report.failed += runs.iter().map(|r| r.not_ok).sum::<u64>();
    if runs.iter().any(|r| r.not_ok > 0) {
        eprintln!("benchmark: a sweeping figure reported members that were not Ok");
    }
}

/// Runs the workload and fills `report`.
pub fn run(args: &Args, report: &mut Report, work: &Path) {
    let start = Instant::now();
    let specs = generate(args.seed, report);
    if args.trace {
        traced(&specs, start.elapsed().as_secs_f64(), report, work);
        return;
    }
    let setup_s = set_up(&specs, report);
    report.set("setup_s", setup_s);
    let untraced = Tracer::new(false);
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < MIN_REGENERATIONS || start.elapsed().as_secs_f64() < args.seconds {
        runs.push(regenerate(&specs, &untraced));
    }
    check_determinism(&runs, report);
    count(report, &runs);
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let mut walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    walls_ms.sort_by(f64::total_cmp);
    let wall_s = median(&walls);
    report.set("wall_s", wall_s);
    report.set("cpu_s", median(&runs.iter().map(|r| r.cpu_s).collect::<Vec<_>>()));
    report.set("jobs_per_s", runs[0].members as f64 / wall_s);
    report.set("job_p50_ms", percentile(&walls_ms, 50.0));
    report.set("job_p90_ms", percentile(&walls_ms, 90.0));
    report.set("peak_rss_mb", median(&runs.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()));
    eprintln!("benchmark: figures: {} regenerations, {} members each", runs.len(), runs[0].members);
}

/// The traced run: one untraced and one traced regeneration (their ratio
/// is the tracing overhead), then the lower layers on the same inputs.
fn traced(specs: &[WorkloadSpec], generate_s: f64, report: &mut Report, work: &Path) {
    let untraced = regenerate(specs, &Tracer::new(false));
    let tracer = Tracer::new(true);
    let traced = regenerate(specs, &tracer);
    report.set("bench.trace_overhead", traced.wall_s / untraced.wall_s);
    report.set("bench.generate_s", generate_s);
    for (metric, span) in [
        ("experiments.fig03_s", "experiments.fig03"),
        ("experiments.fig05_s", "experiments.fig05"),
        ("experiments.fig09_s", "experiments.fig09"),
        ("experiments.fig10_s", "experiments.fig10"),
        ("experiments.fig11_s", "experiments.fig11"),
        ("experiments.fig12_s", "experiments.fig12"),
        ("experiments.fig13_s", "experiments.fig13"),
    ] {
        report.set(metric, tracer.durations_ms(span).iter().sum::<f64>() / 1e3);
    }
    let runs = [untraced, traced];
    check_determinism(&runs, report);
    count(report, &runs);
    if let Err(e) = tracer.write(&work.join("spans-figures.jsonl")) {
        eprintln!("benchmark: could not write spans: {e}");
    }

    layers::compiler(report, specs);
    let binaries: Vec<Binaries> = specs.iter().map(Binaries::build).collect();
    let layouts: Vec<_> = binaries.iter().flat_map(|b| [&b.baseline, &b.edvi]).collect();
    let mut traces = layers::capture(report, &layouts, Budget::full().instrs_per_run);
    layers::products(report, &traces);
    for trace in &mut traces {
        trace.build_depgraph();
    }

    // The fig05 cells, exactly as `fig05::run_with` builds them: per
    // preset, the baseline trace under {no DVI, I-DVI} and the annotated
    // trace under E+I-DVI, at every register-file size.
    let sizes = fig05::default_sizes();
    let cells: Vec<(&dvi_program::CapturedTrace, Vec<SimConfig>)> = traces
        .chunks(2)
        .flat_map(|pair| {
            let base: Vec<SimConfig> = sizes
                .iter()
                .flat_map(|&n| {
                    let cfg = SimConfig::micro97().with_phys_regs(n);
                    [
                        cfg.clone().with_dvi(dvi_core::DviConfig::none()),
                        cfg.with_dvi(dvi_core::DviConfig::idvi_only()),
                    ]
                })
                .collect();
            let edvi: Vec<SimConfig> = sizes
                .iter()
                .map(|&n| {
                    SimConfig::micro97().with_phys_regs(n).with_dvi(dvi_core::DviConfig::full())
                })
                .collect();
            [(&pair[0], base), (&pair[1], edvi)]
        })
        .collect();

    // Sampled members, one per trace, checked against serial replays and
    // against the matrix's own results.
    let sample_at = |i: usize, len: usize| (i * 5) % len;
    let mut sample: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(i, (trace, grid))| (*trace, grid[sample_at(i, grid.len())].clone(), None))
        .collect();
    let outcome = layers::matrix(report, cells);
    let mut health = SweepSummary::default();
    for (i, cell) in outcome.cells.iter().enumerate() {
        let outcomes: Vec<MemberOutcome> = cell.iter().flatten().cloned().collect();
        health.merge(SweepSummary::of(&outcomes));
        if let Some(Some(MemberOutcome::Ok(stats))) = cell.get(sample_at(i, cell.len())) {
            sample[i].2 = Some(*stats);
        }
    }
    report.attempted += health.total() as u64;
    report.failed += (health.total() - health.ok) as u64;
    layers::sim_counts(
        report,
        outcome.cells.iter().flatten().flatten().filter_map(MemberOutcome::stats),
    );
    report.mismatches += layers::core(report, &sample);
    layers::parallel_efficiency(report, &outcome);
    let memo_members: Vec<_> = sample
        .iter()
        .filter_map(|(trace, config, stats)| Some((*trace, config.clone(), (*stats)?)))
        .collect();
    report.mismatches += layers::memo(report, &work.join("memo-scratch"), &memo_members);
}
