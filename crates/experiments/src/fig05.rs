//! Figure 5: average IPC as a function of physical register file size.

use crate::harness::{fold_outcomes, mean, sweep_matrix, Budget, CapturedBinaries};
use crate::table::Table;
use dvi_core::DviConfig;
use dvi_sim::SimConfig;
use dvi_sim::SimStats;
use dvi_sim::SweepSummary;
use dvi_workloads::{presets, WorkloadSpec};
use rayon::prelude::*;
use std::fmt;

/// The register-file sizes the paper sweeps (34 to 96).
#[must_use]
pub fn default_sizes() -> Vec<usize> {
    (34..=96).step_by(4).collect()
}

/// One point of the Figure 5 curves.
#[derive(Debug, Clone, Copy)]
pub struct SizePoint {
    /// Physical register file size.
    pub phys_regs: usize,
    /// Average IPC with no DVI.
    pub ipc_no_dvi: f64,
    /// Average IPC with implicit DVI only.
    pub ipc_idvi: f64,
    /// Average IPC with explicit and implicit DVI.
    pub ipc_edvi_idvi: f64,
}

/// The three IPC-vs-size curves, averaged over the benchmark suite.
#[derive(Debug, Clone)]
pub struct Figure05 {
    /// One entry per register-file size.
    pub points: Vec<SizePoint>,
    /// Fault-isolation summary over every sweep member behind the figure;
    /// deadlocked, degraded or panicked members are folded into the curves
    /// as partial/zeroed statistics instead of aborting the figure.
    pub health: SweepSummary,
}

impl Figure05 {
    /// The smallest file size at which a curve reaches `fraction` of its own
    /// peak IPC — the "knee" the paper uses to argue DVI lets the file
    /// shrink. `curve` selects the configuration (0 = no DVI, 1 = I-DVI,
    /// 2 = E+I-DVI).
    #[must_use]
    pub fn knee(&self, curve: usize, fraction: f64) -> Option<usize> {
        let value = |p: &SizePoint| match curve {
            0 => p.ipc_no_dvi,
            1 => p.ipc_idvi,
            _ => p.ipc_edvi_idvi,
        };
        let peak = self.points.iter().map(&value).fold(0.0f64, f64::max);
        self.points.iter().find(|p| value(p) >= fraction * peak).map(|p| p.phys_regs)
    }
}

/// Runs the sweep over the full preset suite and the paper's size range.
#[must_use]
pub fn run(budget: Budget) -> Figure05 {
    run_with(budget, &presets::all(), &default_sizes())
}

/// Runs the sweep over explicit benchmarks and file sizes (used by tests
/// and benches with reduced scope).
#[must_use]
pub fn run_with(budget: Budget, benchmarks: &[WorkloadSpec], sizes: &[usize]) -> Figure05 {
    // Capture each benchmark's traces once (the capture passes are the
    // only remaining interpreter work), then drive every benchmark's
    // entire size × scheme grid as cells of ONE whole-matrix sweep: the
    // matrix drains all benchmarks' grid points through a single
    // work-stealing queue instead of one batched pass per trace.
    let captured: Vec<CapturedBinaries> =
        benchmarks.par_iter().map(|spec| CapturedBinaries::build(spec, budget)).collect();
    let cells = captured
        .iter()
        .flat_map(|binaries| {
            // Grid order: [none(size0), idvi(size0), none(size1), ...].
            let base_grid: Vec<SimConfig> = sizes
                .iter()
                .flat_map(|&n| {
                    let cfg = SimConfig::micro97().with_phys_regs(n);
                    [cfg.clone().with_dvi(DviConfig::none()), cfg.with_dvi(DviConfig::idvi_only())]
                })
                .collect();
            let edvi_grid: Vec<SimConfig> = sizes
                .iter()
                .map(|&n| SimConfig::micro97().with_phys_regs(n).with_dvi(DviConfig::full()))
                .collect();
            [(&binaries.baseline, base_grid), (&binaries.edvi, edvi_grid)]
        })
        .collect();
    let mut outcomes = sweep_matrix(cells).into_iter();
    let mut health = SweepSummary::default();
    let per_bench: Vec<(Vec<SimStats>, Vec<SimStats>)> = captured
        .iter()
        .map(|_| {
            let (base, base_health) =
                fold_outcomes(outcomes.next().expect("one matrix cell per baseline grid"));
            let (edvi, edvi_health) =
                fold_outcomes(outcomes.next().expect("one matrix cell per E-DVI grid"));
            health.merge(base_health);
            health.merge(edvi_health);
            (base, edvi)
        })
        .collect();
    let points = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let no_dvi: Vec<f64> = per_bench.iter().map(|(base, _)| base[2 * i].ipc()).collect();
            let idvi: Vec<f64> = per_bench.iter().map(|(base, _)| base[2 * i + 1].ipc()).collect();
            let full: Vec<f64> = per_bench.iter().map(|(_, edvi)| edvi[i].ipc()).collect();
            SizePoint {
                phys_regs: n,
                ipc_no_dvi: mean(&no_dvi),
                ipc_idvi: mean(&idvi),
                ipc_edvi_idvi: mean(&full),
            }
        })
        .collect();
    Figure05 { points, health }
}

impl fmt::Display for Figure05 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = Table::new(["Phys regs", "IPC no DVI", "IPC I-DVI", "IPC E-DVI and I-DVI"]);
        for p in &self.points {
            t.push_row([
                p.phys_regs.to_string(),
                format!("{:.3}", p.ipc_no_dvi),
                format!("{:.3}", p.ipc_idvi),
                format!("{:.3}", p.ipc_edvi_idvi),
            ]);
        }
        writeln!(f, "Figure 5: average IPC vs. physical register file size")?;
        write!(f, "{t}")?;
        // Only imperfect runs carry the health line, so the golden figure
        // fixtures of healthy runs stay byte-identical.
        if !self.health.all_ok() {
            writeln!(f)?;
            write!(f, "sweep health: {}", self.health)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_workloads::WorkloadSpec;

    #[test]
    fn dvi_reaches_the_ipc_knee_with_fewer_registers() {
        let benches = vec![WorkloadSpec::small("a", 1), WorkloadSpec::small("b", 2)];
        let fig = run_with(Budget { instrs_per_run: 15_000 }, &benches, &[34, 40, 48, 64, 80]);
        assert_eq!(fig.points.len(), 5);
        // IPC grows (weakly) with file size for the baseline.
        let first = fig.points.first().unwrap();
        let last = fig.points.last().unwrap();
        assert!(last.ipc_no_dvi >= first.ipc_no_dvi * 0.95);
        // With I-DVI, small files do at least as well as without DVI.
        assert!(first.ipc_idvi >= first.ipc_no_dvi * 0.98);
        // The 90%-of-peak knee with DVI is at or left of the no-DVI knee.
        let knee_no = fig.knee(0, 0.9).unwrap();
        let knee_idvi = fig.knee(1, 0.9).unwrap();
        assert!(knee_idvi <= knee_no, "I-DVI knee {knee_idvi} vs no-DVI knee {knee_no}");
        assert!(fig.health.all_ok(), "healthy sweep: {}", fig.health);
        assert!(fig.to_string().contains("Phys regs"));
        assert!(!fig.to_string().contains("sweep health"), "healthy figures omit the health line");
    }
}
