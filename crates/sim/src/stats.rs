//! Statistics reported by the timing simulator.

use dvi_bpred::PredictorStats;
use dvi_core::DviStats;
use dvi_mem::HierarchyStats;
use std::fmt;

/// Everything the paper's evaluation needs from one timing-simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Original program instructions completed: committed instructions plus
    /// eliminated saves/restores, excluding E-DVI annotations — the paper's
    /// "true measure of the work done by the program".
    pub program_instrs: u64,
    /// Instructions actually committed from the window.
    pub committed_entries: u64,
    /// Instructions fetched (including E-DVI annotations and instructions
    /// later eliminated).
    pub fetched_instrs: u64,
    /// E-DVI `kill` instructions fetched (cycle overhead only).
    pub fetched_kills: u64,
    /// Dynamic program memory references (loads + stores, including
    /// eliminated saves/restores).
    pub mem_refs: u64,
    /// Rename stalls because the free list was empty.
    pub rename_stalls_no_reg: u64,
    /// Rename stalls because the instruction window was full.
    pub rename_stalls_no_window: u64,
    /// Dead-value-information counters.
    pub dvi: DviStats,
    /// Branch predictor counters.
    pub branch: PredictorStats,
    /// Cache-hierarchy counters.
    pub memory: HierarchyStats,
    /// Largest number of physical registers simultaneously in use
    /// (mapped + in-flight destinations).
    pub peak_phys_regs_used: usize,
    /// Whether the run was aborted by the forward-progress watchdog: no
    /// instruction committed for `PROGRESS_LIMIT` consecutive cycles. This
    /// indicates a modelling bug, and every other counter in the struct
    /// describes a *partial* run — consumers must check this flag instead
    /// of trusting silently truncated statistics.
    pub deadlocked: bool,
    /// The watchdog's structured diagnosis when [`SimStats::deadlocked`]
    /// is set: where the pipeline stalled and what it was holding. `None`
    /// on healthy runs. The report is a pure function of the simulated
    /// machine (no host state), so statistics stay bit-identical across
    /// serial, batched and parallel execution even for deadlocked members.
    pub deadlock: Option<DeadlockReport>,
    /// Dispatch-group fusion fast-path coverage (see [`FusionCounters`]).
    /// Host-policy observability, not modelled-machine state: excluded
    /// from equality so fused and unfused runs of the same member compare
    /// bit-identical.
    pub fusion: FusionCounters,
}

/// How often the fused dispatch fast path carried the run versus falling
/// back to the cycle-accurate slow loop. These counters describe the *host*
/// execution strategy (which code path dispatched a record), never the
/// simulated machine — a session that mostly falls back is *visible*
/// here instead of silently slow. They stay zero on plain replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct FusionCounters {
    /// Fusion groups dispatched whole by the fast path.
    pub groups: u64,
    /// Records dispatched by the fast path.
    pub fused_records: u64,
    /// Records dispatched (or consumed at decode) by the fallback slow
    /// loop while a fusion table was attached.
    pub fallback_records: u64,
}

impl FusionCounters {
    /// Fraction of fusion-eligible dispatch work carried by the fast path,
    /// in percent (0 when nothing dispatched).
    #[must_use]
    pub fn coverage_pct(&self) -> f64 {
        let total = self.fused_records + self.fallback_records;
        if total == 0 {
            0.0
        } else {
            self.fused_records as f64 / total as f64 * 100.0
        }
    }
}

// Host-policy counters: two runs of the same member must compare equal no
// matter which dispatch path executed them, so equality ignores the struct
// entirely (the modelled-machine counters around it do the comparing).
impl PartialEq for FusionCounters {
    fn eq(&self, _other: &FusionCounters) -> bool {
        true
    }
}

impl Eq for FusionCounters {}

/// The pipeline stage that last made forward progress before a watchdog
/// abort — the first question a deadlock triage asks (a stuck *commit*
/// with a full window is a scheduling bug; a stuck *fetch* with an empty
/// window is a front-end bug).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressStage {
    /// An instruction last left the window (committed) after the last
    /// fetch advanced: the back end was the last thing alive.
    Commit,
    /// Fetch advanced after the last commit: the front end was still
    /// pulling records while the window starved.
    Fetch,
}

/// What the forward-progress watchdog saw when it aborted a run (attached
/// to [`SimStats::deadlock`]). Replaces the former bare `assert!` /
/// boolean with a structured diagnosis that travels with the statistics,
/// so a sweep can report *which* member wedged and why instead of
/// aborting every sibling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Cycle of the last committed instruction (0 when nothing ever
    /// committed).
    pub stall_cycle: u64,
    /// Cycle at which the watchdog fired.
    pub detected_cycle: u64,
    /// Instructions in flight in the window at detection.
    pub window_occupancy: usize,
    /// Trace record sequence number at the window head, when the window
    /// was non-empty (identifies the wedged instruction in the trace).
    pub head_seq: Option<u64>,
    /// The stage that last made progress before the stall.
    pub last_stage: ProgressStage,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no commit since cycle {} (detected at cycle {}, {} in flight",
            self.stall_cycle, self.detected_cycle, self.window_occupancy
        )?;
        if let Some(seq) = self.head_seq {
            write!(f, ", head record {seq}")?;
        }
        let stage = match self.last_stage {
            ProgressStage::Commit => "commit",
            ProgressStage::Fetch => "fetch",
        };
        write!(f, ", last progress in {stage})")
    }
}

impl SimStats {
    /// Instructions per cycle, the paper's primary metric.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.program_instrs as f64 / self.cycles as f64
        }
    }

    /// Saves+restores eliminated as a percentage of all saves+restores
    /// (Figure 9a).
    #[must_use]
    pub fn pct_save_restores_eliminated(&self) -> f64 {
        self.dvi.pct_of_save_restores()
    }

    /// Saves+restores eliminated as a percentage of all memory references
    /// (Figure 9b).
    #[must_use]
    pub fn pct_mem_refs_eliminated(&self) -> f64 {
        self.dvi.pct_of_mem_refs(self.mem_refs)
    }

    /// Saves+restores eliminated as a percentage of all program
    /// instructions (Figure 9c).
    #[must_use]
    pub fn pct_instrs_eliminated(&self) -> f64 {
        self.dvi.pct_of_instructions(self.program_instrs)
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instructions in {} cycles (IPC {:.3}), {:.1}% of saves/restores eliminated",
            self.program_instrs,
            self.cycles,
            self.ipc(),
            self.pct_save_restores_eliminated()
        )?;
        if self.deadlocked {
            match &self.deadlock {
                Some(report) => write!(f, " [DEADLOCKED: partial run; {report}]")?,
                None => write!(f, " [DEADLOCKED: partial run]")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn ipc_is_instructions_over_cycles() {
        let s = SimStats { cycles: 1000, program_instrs: 1800, ..SimStats::default() };
        assert!((s.ipc() - 1.8).abs() < 1e-12);
        assert!(s.to_string().contains("IPC"));
    }

    #[test]
    fn deadlock_report_rides_the_display() {
        let mut s = SimStats { cycles: 100_500, program_instrs: 10, ..SimStats::default() };
        s.deadlocked = true;
        s.deadlock = Some(DeadlockReport {
            stall_cycle: 500,
            detected_cycle: 100_501,
            window_occupancy: 3,
            head_seq: Some(42),
            last_stage: ProgressStage::Commit,
        });
        let text = s.to_string();
        assert!(text.contains("DEADLOCKED"), "{text}");
        assert!(text.contains("head record 42"), "{text}");
        assert!(text.contains("last progress in commit"), "{text}");
    }

    #[test]
    fn elimination_percentages_use_the_right_denominators() {
        let mut s =
            SimStats { cycles: 10, program_instrs: 1000, mem_refs: 300, ..SimStats::default() };
        s.dvi.saves_seen = 50;
        s.dvi.restores_seen = 50;
        s.dvi.saves_eliminated = 25;
        s.dvi.restores_eliminated = 25;
        assert!((s.pct_save_restores_eliminated() - 50.0).abs() < 1e-9);
        assert!((s.pct_mem_refs_eliminated() - (50.0 / 300.0 * 100.0)).abs() < 1e-9);
        assert!((s.pct_instrs_eliminated() - 5.0).abs() < 1e-9);
    }
}
