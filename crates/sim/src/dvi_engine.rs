//! The decode-stage DVI machinery: LVM, LVM-Stack and the elimination /
//! reclamation decisions.
//!
//! Two interchangeable implementations stand behind the pipeline's
//! dispatch stage ([`DviModel`]):
//!
//! * [`DviEngine`] — the live machinery: the Live Value Mask, the
//!   LVM-Stack and the per-event decisions, exactly as the paper's decode
//!   hardware makes them.
//! * [`crate::products::DviCursor`] — a cursor over a pre-recorded
//!   [`crate::products::DviOracle`] event stream. Decode-stage DVI is
//!   in-order and a pure function of (trace, [`DviConfig`]), so a batched
//!   sweep records the elimination bits and reclaim masks once per
//!   distinct DVI configuration and shares the stream across every member
//!   that agrees on it, instead of running N live LVM/LVM-Stack instances.
//!
//! The engine's event entry points take the register-unmap action as a
//! closure rather than a concrete alias table: the pipeline passes "unmap
//! in my [`RenameState`] and queue the physical register for release",
//! while the oracle recorder passes a shadow mapped-bit tracker that turns
//! the same decisions into a storable [`RegMask`] stream. One
//! implementation of the decision logic serves both, so they cannot
//! drift.

use crate::products::DviCursor;
use crate::rename::{PhysReg, RenameState};
use crate::smallvec::SmallVec;
use dvi_core::{DviConfig, DviStats, Lvm, LvmStack};
use dvi_isa::{Abi, ArchReg, RegMask};

/// Physical registers reclaimed by one decode-stage DVI event.
///
/// An inline small-vector: the common case (a kill mask or the ABI's
/// caller-saved mask) fits without touching the heap, and the pipeline
/// recycles the buffers, so the reclaim plumbing performs no allocation on
/// the steady-state hot path.
pub type ReclaimList = SmallVec<PhysReg, 8>;

/// Tracks dead-value information at the decode stage and makes the three
/// decisions the paper's hardware makes:
///
/// 1. which physical registers can be reclaimed early because their
///    architectural register is dead (Section 4),
/// 2. which `live-store` saves need not be dispatched (LVM scheme,
///    Section 5.2),
/// 3. which `live-load` restores need not be dispatched (LVM-Stack scheme,
///    Section 5.2).
///
/// In this trace-driven model the decode stream never contains wrong-path
/// instructions (fetch stalls on a misprediction instead), so DVI updates
/// are never speculative and physical registers reclaimed by
/// [`DviEngine::on_kill`], [`DviEngine::on_call`] and
/// [`DviEngine::on_return`] can be returned to the free list immediately;
/// the checkpoint/recovery mechanism the paper describes for speculative
/// decode is provided by [`dvi_core::CheckpointedLvm`] and exercised in its
/// own tests.
#[derive(Debug, Clone)]
pub struct DviEngine {
    config: DviConfig,
    abi: Abi,
    lvm: Lvm,
    stack: LvmStack,
    stats: DviStats,
}

impl DviEngine {
    /// Creates the engine for a machine configuration and calling
    /// convention.
    #[must_use]
    pub fn new(config: DviConfig, abi: Abi) -> Self {
        DviEngine {
            stack: LvmStack::new(config.lvm_stack_entries.max(1)),
            config,
            abi,
            lvm: Lvm::new_all_live(),
            stats: DviStats::new(),
        }
    }

    /// The current Live Value Mask.
    #[must_use]
    pub fn lvm(&self) -> &Lvm {
        &self.lvm
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> DviStats {
        self.stats
    }

    /// Number of live architectural registers right now (used by the
    /// context-switch study).
    #[must_use]
    pub fn live_registers(&self) -> usize {
        self.lvm.live_count()
    }

    /// Destination renaming marks the register live again.
    pub fn on_dest_rename(&mut self, reg: ArchReg) {
        self.lvm.set_live(reg);
    }

    fn reclaim_mask(&mut self, mask: RegMask, mut unmap: impl FnMut(ArchReg) -> bool) {
        if self.config.reclaim_phys_regs {
            let mut reclaimed = 0u64;
            for reg in mask.iter() {
                if reg.is_zero() {
                    continue;
                }
                if unmap(reg) {
                    reclaimed += 1;
                }
            }
            self.stats.phys_regs_reclaimed_early += reclaimed;
        }
    }

    /// Handles an explicit `kill` at decode. `unmap` is the caller's
    /// register-unmap action (remove the alias-table mapping of the given
    /// register and return whether one existed); it is invoked, in mask
    /// order, for each killed register when register reclamation is
    /// enabled.
    pub fn on_kill(&mut self, mask: RegMask, unmap: impl FnMut(ArchReg) -> bool) {
        if !self.config.use_edvi {
            return;
        }
        self.stats.edvi_instructions += 1;
        self.stats.edvi_regs_killed += mask.len() as u64;
        self.lvm.kill_mask(mask);
        self.reclaim_mask(mask, unmap);
    }

    /// Handles a procedure call at decode: pushes the LVM snapshot used for
    /// restore elimination and applies implicit DVI through `unmap` (see
    /// [`DviEngine::on_kill`]).
    pub fn on_call(&mut self, unmap: impl FnMut(ArchReg) -> bool) {
        if self.config.eliminate_restores {
            self.stack.push(&self.lvm);
        }
        if !self.config.use_idvi {
            return;
        }
        let mask = self.abi.idvi_mask();
        self.stats.idvi_regs_killed += mask.len() as u64;
        self.lvm.kill_mask(mask);
        self.reclaim_mask(mask, unmap);
    }

    /// Handles a procedure return at decode: applies implicit DVI through
    /// `unmap` (see [`DviEngine::on_kill`]) and pops the LVM snapshot back.
    pub fn on_return(&mut self, unmap: impl FnMut(ArchReg) -> bool) {
        if self.config.use_idvi {
            let mask = self.abi.idvi_mask();
            self.stats.idvi_regs_killed += mask.len() as u64;
            self.lvm.kill_mask(mask);
            self.reclaim_mask(mask, unmap);
        }
        if self.config.eliminate_restores {
            let snapshot = self.stack.pop_or_all_live();
            self.lvm.restore_from(&snapshot);
        }
    }

    /// Decides whether a `live-store` (callee save) of `data_reg` should be
    /// dropped at decode. Always records that a save was seen.
    pub fn on_save(&mut self, data_reg: ArchReg) -> bool {
        self.stats.saves_seen += 1;
        let eliminate = self.config.eliminate_saves && !self.lvm.is_live(data_reg);
        if eliminate {
            self.stats.saves_eliminated += 1;
        }
        eliminate
    }

    /// Decides whether a `live-load` (callee restore) of `dst_reg` should be
    /// dropped at decode, based on the snapshot at the top of the LVM-Stack.
    /// Always records that a restore was seen.
    pub fn on_restore(&mut self, dst_reg: ArchReg) -> bool {
        self.stats.restores_seen += 1;
        let eliminate = self.config.eliminate_restores && self.stack.restore_is_dead(dst_reg);
        if eliminate {
            self.stats.restores_eliminated += 1;
        }
        eliminate
    }

    /// Flushes all DVI state to the conservative all-live state (exceptions,
    /// `longjmp`, context switches without LVM save/restore support).
    pub fn flush(&mut self) {
        self.lvm.flush_all_live();
        self.stack.flush();
    }
}

/// The dispatch stage's view of decode-stage DVI: a private live
/// [`DviEngine`] (the default), or a cursor over a sweep-shared
/// [`crate::products::DviOracle`] event stream. Both produce bit-identical
/// elimination decisions, reclaim sequences and [`DviStats`] (locked by
/// `tests/batch_equiv.rs` and `tests/depgraph_equiv.rs`).
#[derive(Debug)]
pub(crate) enum DviModel {
    /// Live LVM / LVM-Stack machinery.
    Live(DviEngine),
    /// Pre-recorded per-DVI-configuration event stream.
    Oracle(DviCursor),
}

/// The pipeline's unmap action: remove the mapping from the alias table
/// and queue the physical register for release at the carrying
/// instruction's commit.
fn unmap_into<'a>(
    rename: &'a mut RenameState,
    out: &'a mut ReclaimList,
) -> impl FnMut(ArchReg) -> bool + 'a {
    move |reg| match rename.unmap(reg) {
        Some(p) => {
            out.push(p);
            true
        }
        None => false,
    }
}

impl DviModel {
    /// An explicit `kill` consumed at decode.
    pub(crate) fn on_kill(
        &mut self,
        mask: RegMask,
        rename: &mut RenameState,
        out: &mut ReclaimList,
    ) {
        match self {
            DviModel::Live(engine) => engine.on_kill(mask, unmap_into(rename, out)),
            DviModel::Oracle(cursor) => cursor.on_kill(mask, rename, out),
        }
    }

    /// A dispatch attempt on a `live-store`; returns whether the save is
    /// eliminated (and always counts the attempt).
    pub(crate) fn on_save_attempt(&mut self, data_reg: ArchReg) -> bool {
        match self {
            DviModel::Live(engine) => engine.on_save(data_reg),
            DviModel::Oracle(cursor) => cursor.on_save_attempt(),
        }
    }

    /// A dispatch attempt on a `live-load`; returns whether the restore is
    /// eliminated (and always counts the attempt).
    pub(crate) fn on_restore_attempt(&mut self, dst_reg: ArchReg) -> bool {
        match self {
            DviModel::Live(engine) => engine.on_restore(dst_reg),
            DviModel::Oracle(cursor) => cursor.on_restore_attempt(),
        }
    }

    /// Destination renaming marks the register live again (a no-op for the
    /// oracle, whose recording already folded the liveness evolution into
    /// the event stream).
    pub(crate) fn on_dest_rename(&mut self, reg: ArchReg) {
        match self {
            DviModel::Live(engine) => engine.on_dest_rename(reg),
            DviModel::Oracle(_) => {}
        }
    }

    /// A procedure call dispatched (after its destination rename).
    pub(crate) fn on_call(&mut self, rename: &mut RenameState, out: &mut ReclaimList) {
        match self {
            DviModel::Live(engine) => engine.on_call(unmap_into(rename, out)),
            DviModel::Oracle(cursor) => cursor.on_call(rename, out),
        }
    }

    /// A procedure return dispatched.
    pub(crate) fn on_return(&mut self, rename: &mut RenameState, out: &mut ReclaimList) {
        match self {
            DviModel::Live(engine) => engine.on_return(unmap_into(rename, out)),
            DviModel::Oracle(cursor) => cursor.on_return(rename, out),
        }
    }

    /// A non-eliminated save/restore left decode for the window: the
    /// oracle's elimination stream advances past its (false) bit.
    pub(crate) fn on_save_restore_dispatched(&mut self) {
        match self {
            DviModel::Live(_) => {}
            DviModel::Oracle(cursor) => cursor.on_save_restore_dispatched(),
        }
    }

    /// Counters accumulated so far.
    pub(crate) fn stats(&self) -> DviStats {
        match self {
            DviModel::Live(engine) => engine.stats(),
            DviModel::Oracle(cursor) => cursor.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> ArchReg {
        ArchReg::new(i)
    }

    fn engine(config: DviConfig) -> (DviEngine, RenameState) {
        (DviEngine::new(config, Abi::mips_like()), RenameState::new(80))
    }

    #[test]
    fn figure8_save_and_restore_elimination_sequence() {
        let (mut dvi, mut rename) = engine(DviConfig::full());
        let mut out = ReclaimList::new();
        // E2: kill r16.
        dvi.on_kill(RegMask::empty().with(r(16)), unmap_into(&mut rename, &mut out));
        // I2: call proc.
        dvi.on_call(unmap_into(&mut rename, &mut out));
        // I3: save r16 — eliminated.
        assert!(dvi.on_save(r(16)));
        // I4: r16 <- ... (destination renaming makes it live again).
        dvi.on_dest_rename(r(16));
        assert!(!dvi.on_save(r(16)), "a live value is never dropped");
        // I6: restore r16 — eliminated using the LVM-Stack snapshot.
        assert!(dvi.on_restore(r(16)));
        // I7: return.
        dvi.on_return(unmap_into(&mut rename, &mut out));
        let stats = dvi.stats();
        assert_eq!(stats.saves_eliminated, 1);
        assert_eq!(stats.restores_eliminated, 1);
        assert_eq!(stats.saves_seen, 2);
    }

    #[test]
    fn lvm_scheme_eliminates_saves_but_not_restores() {
        let (mut dvi, mut rename) = engine(DviConfig::lvm_scheme());
        let mut out = ReclaimList::new();
        dvi.on_kill(RegMask::empty().with(r(16)), unmap_into(&mut rename, &mut out));
        dvi.on_call(unmap_into(&mut rename, &mut out));
        assert!(dvi.on_save(r(16)));
        dvi.on_dest_rename(r(16));
        assert!(!dvi.on_restore(r(16)), "the LVM scheme cannot eliminate restores");
    }

    #[test]
    fn no_dvi_configuration_eliminates_nothing() {
        let (mut dvi, mut rename) = engine(DviConfig::none());
        let mut reclaimed = ReclaimList::new();
        dvi.on_kill(RegMask::from_range(16, 23), unmap_into(&mut rename, &mut reclaimed));
        assert!(reclaimed.is_empty());
        dvi.on_call(unmap_into(&mut rename, &mut reclaimed));
        assert!(!dvi.on_save(r(16)));
        assert_eq!(dvi.stats().saves_seen, 1);
        assert_eq!(dvi.stats().saves_eliminated, 0);
        assert_eq!(rename.free_count(), 80 - 32);
    }

    #[test]
    fn idvi_reclaims_caller_saved_mappings_at_calls() {
        let (mut dvi, mut rename) = engine(DviConfig::idvi_only());
        let before = rename.mapped_count();
        let mut reclaimed = ReclaimList::new();
        dvi.on_call(unmap_into(&mut rename, &mut reclaimed));
        assert!(!reclaimed.is_empty());
        assert_eq!(rename.mapped_count(), before - reclaimed.len());
        assert_eq!(dvi.stats().phys_regs_reclaimed_early, reclaimed.len() as u64);
        // Callee-saved registers keep their mappings.
        assert!(rename.lookup(r(16)).is_some());
    }

    #[test]
    fn edvi_kills_are_ignored_when_edvi_is_disabled() {
        let (mut dvi, mut rename) = engine(DviConfig::idvi_only());
        let mut reclaimed = ReclaimList::new();
        dvi.on_kill(RegMask::empty().with(r(16)), unmap_into(&mut rename, &mut reclaimed));
        assert!(reclaimed.is_empty());
        assert!(dvi.lvm().is_live(r(16)));
    }

    #[test]
    fn returns_restore_the_callers_snapshot() {
        let (mut dvi, mut rename) = engine(DviConfig::full());
        let mut out = ReclaimList::new();
        dvi.on_kill(RegMask::empty().with(r(17)), unmap_into(&mut rename, &mut out));
        dvi.on_call(unmap_into(&mut rename, &mut out));
        dvi.on_dest_rename(r(17));
        assert!(dvi.lvm().is_live(r(17)));
        dvi.on_return(unmap_into(&mut rename, &mut out));
        assert!(!dvi.lvm().is_live(r(17)), "the pop restores the caller's dead bit");
    }

    #[test]
    fn flush_makes_everything_live_again() {
        let (mut dvi, mut rename) = engine(DviConfig::full());
        dvi.on_kill(RegMask::from_range(16, 23), unmap_into(&mut rename, &mut ReclaimList::new()));
        dvi.flush();
        assert_eq!(dvi.live_registers(), 32);
        assert!(!dvi.on_save(r(16)));
    }
}
