//! Trace-pure shared products: an explicit opt-in for one session.
//!
//! Everything in this module is a pure function of a captured trace (plus
//! one configuration axis): a [`BranchOracle`] misprediction bitstream per
//! predictor configuration, an [`IcacheOracle`] L1I outcome bitstream per
//! geometry, a [`DviOracle`] decode-stage DVI event stream per
//! [`DviConfig`], and — recorded by one full member run —
//! a [`DcacheOracle`] L1D outcome stream ([`record_dcache_oracle`]).
//! Together with the [`StaticDecodeTable`], the trace's
//! [`dvi_program::DepGraph`] and its [`FusionTable`]s they make up a
//! [`SharedTables`] bundle, which [`SimSession::with_shared_tables`] feeds
//! to one session in place of its private predictor, L1I, DVI engine,
//! alias-table wiring and D-cache.
//!
//! Every product leaves the modelled machine bit-identical
//! (`tests/replay_equiv.rs`, `tests/fusion_equiv.rs`), but none of them
//! pays for its build on the repository's own paths: the sweep runner,
//! the whole-matrix runner and the service run every member on plain
//! replay over the trace cursor. The products stay for per-layer
//! measurement of the core's shared-product modes.

use crate::config::{DcacheModelKind, SimConfig};
use crate::dvi_engine::{DviEngine, ReclaimList};
use crate::frontend::{FetchPredictor, StaticDecodeTable};
use crate::rename::RenameState;
use crate::session::SimSession;
use dvi_bpred::{PredictorConfig, PredictorStats};
use dvi_core::{DviConfig, DviStats};
use dvi_isa::{Abi, Instr, RegMask, NUM_ARCH_REGS};
use dvi_mem::{AccessKind, Cache, CacheConfig, CacheStats, DcacheOracle, DcacheRecorder};
use dvi_program::{CapturedTrace, DepGraph, FusionTable, LayoutProgram};
use std::sync::Arc;

/// Compile-time proof that one copy of every shared product can be read
/// concurrently from many session threads: a non-`Sync` field sneaking
/// into any of them must fail the build here, not a caller's run.
const _: () = {
    const fn shared_across_member_threads<T: Send + Sync>() {}
    shared_across_member_threads::<CapturedTrace>();
    shared_across_member_threads::<StaticDecodeTable>();
    shared_across_member_threads::<BranchOracle>();
    shared_across_member_threads::<IcacheOracle>();
    shared_across_member_threads::<DviOracle>();
    shared_across_member_threads::<DcacheOracle>();
    shared_across_member_threads::<DepGraph>();
    shared_across_member_threads::<FusionTable>();
    shared_across_member_threads::<SharedTables>();
};

/// A packed bitstream with sequential append and random read.
#[derive(Debug, Default, Clone)]
struct BitStream {
    words: Vec<u64>,
    len: usize,
}

impl BitStream {
    fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            *self.words.last_mut().expect("just pushed") |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    #[inline]
    fn get(&self, idx: usize) -> bool {
        (self.words[idx >> 6] >> (idx & 63)) & 1 == 1
    }
}

/// A pre-recorded branch-prediction bitstream for one captured trace.
///
/// One bit per conditional branch or return in the trace, in trace order:
/// whether that control transfer mispredicted under `predictor`. The
/// recording drives a live [`dvi_bpred::CombiningPredictor`] through
/// exactly the event sequence the fetch stage produces (same byte
/// addresses, same RAS pushes), so replaying the bits through an
/// [`OracleCursor`] is indistinguishable from fetching with a private
/// predictor.
#[derive(Debug, Clone)]
pub struct BranchOracle {
    /// Packed misprediction bits, one per branch/return record.
    bits: BitStream,
    /// The predictor configuration the bits were recorded under.
    predictor: PredictorConfig,
    /// Full-trace statistics of the recording predictor (what a live
    /// predictor reports after consuming the whole trace).
    totals: PredictorStats,
}

impl BranchOracle {
    /// Runs a live predictor over the whole trace and records the
    /// misprediction bitstream.
    ///
    /// The `match` below mirrors the fetch stage's predictor interaction
    /// record-for-record (see `FrontEnd::fetch`); `tests/replay_equiv.rs`
    /// locks the two together.
    #[must_use]
    pub fn record(trace: &CapturedTrace, predictor: PredictorConfig) -> BranchOracle {
        let mut live = FetchPredictor::live(predictor);
        let mut oracle = BranchOracle {
            bits: BitStream::default(),
            predictor,
            totals: PredictorStats::default(),
        };
        for d in trace.cursor() {
            match d.instr {
                Instr::Branch { .. } => {
                    let mispredicted = live.branch(d.byte_addr(), d.taken.unwrap_or(false));
                    oracle.bits.push(mispredicted);
                }
                Instr::Call { .. } => {
                    live.call(LayoutProgram::byte_addr(d.pc + 1));
                }
                Instr::Return => {
                    let mispredicted = live.ret(LayoutProgram::byte_addr(d.next_pc));
                    oracle.bits.push(mispredicted);
                }
                _ => {}
            }
        }
        oracle.totals = live.stats();
        oracle
    }

    /// Number of recorded prediction events (branches + returns).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len
    }

    /// Whether the trace contained no predicted control transfers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.len == 0
    }

    /// The predictor configuration the bitstream was recorded under.
    #[must_use]
    pub fn predictor(&self) -> PredictorConfig {
        self.predictor
    }

    /// Statistics of the recording predictor over the full trace.
    #[must_use]
    pub fn totals(&self) -> PredictorStats {
        self.totals
    }
}

/// A consuming read position into a shared [`BranchOracle`].
///
/// The cursor advances one bit per branch/return fetched and accumulates
/// [`PredictorStats`] as it goes, so a session's predictor statistics are
/// exact at every intermediate position — not just after the full trace.
#[derive(Debug, Clone)]
pub struct OracleCursor {
    oracle: Arc<BranchOracle>,
    idx: usize,
    stats: PredictorStats,
}

impl OracleCursor {
    /// A cursor positioned at the first prediction event.
    #[must_use]
    pub fn new(oracle: Arc<BranchOracle>) -> OracleCursor {
        OracleCursor { oracle, idx: 0, stats: PredictorStats::default() }
    }

    #[inline]
    fn next_bit(&mut self) -> bool {
        assert!(
            self.idx < self.oracle.bits.len,
            "branch oracle exhausted: the session is fetching a different trace \
             than the oracle was recorded from"
        );
        let bit = self.oracle.bits.get(self.idx);
        self.idx += 1;
        bit
    }

    /// Consumes the bit of the next conditional branch; returns whether it
    /// mispredicted.
    #[inline]
    pub(crate) fn branch(&mut self) -> bool {
        self.stats.direction_predictions += 1;
        let mispredicted = self.next_bit();
        if mispredicted {
            self.stats.direction_mispredictions += 1;
        }
        mispredicted
    }

    /// Consumes the bit of the next return; returns whether it
    /// mispredicted.
    #[inline]
    pub(crate) fn ret(&mut self) -> bool {
        self.stats.return_predictions += 1;
        let mispredicted = self.next_bit();
        if mispredicted {
            self.stats.return_mispredictions += 1;
        }
        mispredicted
    }

    /// Statistics over the events consumed so far.
    #[must_use]
    pub(crate) fn stats(&self) -> PredictorStats {
        self.stats
    }
}

/// A pre-recorded L1 instruction-cache outcome bitstream for one captured
/// trace.
///
/// The fetch stage touches the L1I in trace order — one access per cache
/// line entered, plus a next-line prefetch — and nothing else touches it,
/// so for a given L1I geometry the hit/miss outcome of every access is a
/// pure function of the trace. The oracle replays the fetch stage's exact
/// line-change logic over a standalone L1I model once and records the
/// outcome bits; sessions then bypass their private L1I tag arrays
/// entirely ([`dvi_mem::MemoryHierarchy::inst_fetch_known`]) while still
/// performing each *miss*'s unified-L2 interaction — the part that is
/// entangled with their own, config-dependent data accesses — on their own
/// hierarchy.
#[derive(Debug, Clone)]
pub struct IcacheOracle {
    /// Packed hit bits, one per L1I access event in trace order.
    bits: BitStream,
    /// The L1I geometry the bits were recorded under.
    geometry: CacheConfig,
    /// Full-trace statistics of the recording cache.
    totals: CacheStats,
}

impl IcacheOracle {
    /// Replays the fetch stage's I-cache interaction over the whole trace
    /// and records the per-access hit bits.
    ///
    /// The line-change logic below mirrors `FrontEnd::fetch`
    /// access-for-access (one lookup per line entered plus a next-line
    /// prefetch); `tests/replay_equiv.rs` locks the two together.
    #[must_use]
    pub fn record(trace: &CapturedTrace, geometry: CacheConfig) -> IcacheOracle {
        let mut l1i = Cache::new(geometry);
        let line_shift = geometry.line_bytes.trailing_zeros();
        let mut last_line = None;
        let mut bits = BitStream::default();
        for d in trace.cursor() {
            let byte_addr = d.byte_addr();
            let line = byte_addr >> line_shift;
            if last_line != Some(line) {
                last_line = Some(line);
                bits.push(l1i.access(byte_addr, AccessKind::Read).hit);
                bits.push(l1i.access((line + 1) << line_shift, AccessKind::Read).hit);
            }
        }
        IcacheOracle { bits, geometry, totals: l1i.stats() }
    }

    /// Number of recorded L1I access events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len
    }

    /// Whether the trace produced no instruction fetch accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.len == 0
    }

    /// The L1I geometry the bitstream was recorded under.
    #[must_use]
    pub fn geometry(&self) -> CacheConfig {
        self.geometry
    }

    /// Statistics of the recording cache over the full trace.
    #[must_use]
    pub fn totals(&self) -> CacheStats {
        self.totals
    }
}

/// A consuming read position into a shared [`IcacheOracle`], accumulating
/// exact L1I [`CacheStats`] as it goes (these replace the bypassed private
/// cache's counters in the member's final [`crate::SimStats`]).
#[derive(Debug, Clone)]
pub struct IcacheCursor {
    oracle: Arc<IcacheOracle>,
    idx: usize,
    stats: CacheStats,
}

impl IcacheCursor {
    /// A cursor positioned at the first access event.
    #[must_use]
    pub fn new(oracle: Arc<IcacheOracle>) -> IcacheCursor {
        IcacheCursor { oracle, idx: 0, stats: CacheStats::default() }
    }

    /// Consumes the next access event; returns whether it hit in the L1I.
    #[inline]
    pub(crate) fn next_hit(&mut self) -> bool {
        assert!(
            self.idx < self.oracle.bits.len,
            "I-cache oracle exhausted: the session is fetching a different trace \
             than the oracle was recorded from"
        );
        let hit = self.oracle.bits.get(self.idx);
        self.idx += 1;
        self.stats.accesses += 1;
        if !hit {
            self.stats.misses += 1;
        }
        hit
    }

    /// Statistics over the events consumed so far.
    #[must_use]
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// A pre-recorded decode-stage DVI event stream for one captured trace and
/// one [`DviConfig`].
///
/// Decode-stage DVI is driven strictly in trace order at dispatch — kills,
/// calls, returns, save/restore elimination checks and destination renames
/// — and every decision it makes (which saves/restores are eliminated,
/// which architectural registers lose their mapping at which event) is a
/// pure function of the trace and the DVI configuration: machine width,
/// register-file size and cache geometry never enter. The stream
/// can be recorded **once per distinct [`DviConfig`]** by running one live
/// [`DviEngine`] (plus a shadow mapped-bit tracker standing in for the
/// alias table) over the trace, and a session that agrees on the DVI
/// configuration replays the recorded decisions through a [`DviCursor`]
/// instead of carrying its own LVM / LVM-Stack machinery.
///
/// Replay is indistinguishable from the live engine: elimination decisions,
/// unmap order (and therefore free-list order and every downstream
/// allocation) and [`DviStats`] are bit-identical, locked by
/// `tests/replay_equiv.rs` and `tests/depgraph_equiv.rs`.
#[derive(Debug, Clone)]
pub struct DviOracle {
    /// The DVI configuration the stream was recorded under.
    config: DviConfig,
    /// One bit per `live-store`/`live-load` record in trace order: whether
    /// the decode stage eliminates it.
    elim: BitStream,
    /// One mask per `kill`/`call`/`return` record in trace order: the
    /// architectural registers whose mappings the event removes.
    unmaps: Vec<RegMask>,
    /// Size of the ABI's I-DVI mask (for exact `idvi_regs_killed`
    /// accounting during replay).
    idvi_mask_len: u64,
}

impl DviOracle {
    /// Runs the decode-stage DVI machinery over the whole trace and
    /// records the elimination bits and unmap masks.
    ///
    /// The `match` below mirrors `FrontEnd::next_dispatch` event for event
    /// — elimination guards before dispatch, destination renames before
    /// call events — so the recorded stream cannot diverge from what a
    /// live engine would decide at dispatch time.
    #[must_use]
    pub fn record(trace: &CapturedTrace, config: DviConfig) -> DviOracle {
        let abi = Abi::mips_like();
        let mut oracle = DviOracle {
            config,
            elim: BitStream::default(),
            unmaps: Vec::new(),
            idvi_mask_len: abi.idvi_mask().len() as u64,
        };
        let mut engine = DviEngine::new(config, abi);
        // Shadow alias-table occupancy: at reset every architectural
        // register is mapped. Only mapped-ness matters to the recorded
        // decisions; the physical names differ per member and stay theirs.
        let mut mapped = [true; NUM_ARCH_REGS];
        // The shadow unmap action: clear the mapped bit and collect the
        // register into the event's recorded mask.
        fn shadow<'a>(
            mapped: &'a mut [bool; NUM_ARCH_REGS],
            out: &'a mut RegMask,
        ) -> impl FnMut(dvi_isa::ArchReg) -> bool + 'a {
            move |reg| {
                let slot = &mut mapped[reg.index()];
                let was_mapped = *slot;
                if was_mapped {
                    *slot = false;
                    out.insert(reg);
                }
                was_mapped
            }
        }
        for d in trace.cursor() {
            match d.instr {
                Instr::Kill { mask } => {
                    let mut unmapped = RegMask::empty();
                    engine.on_kill(mask, shadow(&mut mapped, &mut unmapped));
                    oracle.unmaps.push(unmapped);
                }
                Instr::LiveStore { rs, .. } => oracle.elim.push(engine.on_save(rs)),
                Instr::LiveLoad { rd, .. } => {
                    let eliminated = engine.on_restore(rd);
                    oracle.elim.push(eliminated);
                    if !eliminated {
                        // The restore dispatches: destination renaming
                        // re-maps the register and marks it live.
                        mapped[rd.index()] = true;
                        engine.on_dest_rename(rd);
                    }
                }
                Instr::Call { .. } => {
                    // Dispatch renames the destination (the return-address
                    // register) before the decode-stage call event.
                    if let Some(rd) = d.instr.dst_reg() {
                        mapped[rd.index()] = true;
                        engine.on_dest_rename(rd);
                    }
                    let mut unmapped = RegMask::empty();
                    engine.on_call(shadow(&mut mapped, &mut unmapped));
                    oracle.unmaps.push(unmapped);
                }
                Instr::Return => {
                    let mut unmapped = RegMask::empty();
                    engine.on_return(shadow(&mut mapped, &mut unmapped));
                    oracle.unmaps.push(unmapped);
                }
                _ => {
                    if let Some(rd) = d.instr.dst_reg() {
                        mapped[rd.index()] = true;
                        engine.on_dest_rename(rd);
                    }
                }
            }
        }
        oracle
    }

    /// The DVI configuration the stream was recorded under.
    #[must_use]
    pub fn config(&self) -> DviConfig {
        self.config
    }

    /// Number of recorded elimination decisions (saves + restores).
    #[must_use]
    pub fn len(&self) -> usize {
        self.elim.len
    }

    /// Whether the trace contained no saves or restores.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elim.len == 0
    }

    /// Number of recorded unmap events (kills + calls + returns).
    #[must_use]
    pub fn unmap_events(&self) -> usize {
        self.unmaps.len()
    }

    /// The recorded elimination decision of the `idx`-th save/restore in
    /// trace order (differential-test inspection).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn eliminated(&self, idx: usize) -> bool {
        assert!(idx < self.elim.len, "elimination index out of range");
        self.elim.get(idx)
    }

    /// The recorded unmap mask of the `event`-th kill/call/return in trace
    /// order (differential-test inspection).
    ///
    /// # Panics
    ///
    /// Panics if `event` is out of range.
    #[must_use]
    pub fn unmap_mask(&self, event: usize) -> RegMask {
        self.unmaps[event]
    }
}

/// A consuming read position into a shared [`DviOracle`], accumulating
/// exact [`DviStats`] as it goes (these replace the bypassed live engine's
/// counters in the member's final statistics).
#[derive(Debug, Clone)]
pub struct DviCursor {
    oracle: Arc<DviOracle>,
    /// Next elimination bit (saves/restores, trace order).
    elim_idx: usize,
    /// Next unmap mask (kills/calls/returns, trace order).
    unmap_idx: usize,
    stats: DviStats,
}

impl DviCursor {
    /// A cursor positioned at the first event.
    #[must_use]
    pub fn new(oracle: Arc<DviOracle>) -> DviCursor {
        DviCursor { oracle, elim_idx: 0, unmap_idx: 0, stats: DviStats::new() }
    }

    /// Applies the next unmap event to the member's own alias table,
    /// queueing the released physical registers (the member still owes the
    /// reclaim *timing*: the registers ride the next dispatched window
    /// entry to commit, exactly as with a live engine).
    fn apply_unmaps(&mut self, rename: &mut RenameState, out: &mut ReclaimList) {
        assert!(
            self.unmap_idx < self.oracle.unmaps.len(),
            "DVI oracle exhausted: the session is dispatching a different trace \
             than the oracle was recorded from"
        );
        let mask = self.oracle.unmaps[self.unmap_idx];
        self.unmap_idx += 1;
        for reg in mask.iter() {
            let p = rename
                .unmap(reg)
                .expect("DVI oracle unmapped a register the member has no mapping for");
            out.push(p);
        }
        self.stats.phys_regs_reclaimed_early += mask.len() as u64;
    }

    /// The next elimination bit without consuming it (a stalled dispatch
    /// re-attempts the same save/restore).
    fn peek_elim(&self) -> bool {
        assert!(
            self.elim_idx < self.oracle.elim.len,
            "DVI oracle exhausted: the session is dispatching a different trace \
             than the oracle was recorded from"
        );
        self.oracle.elim.get(self.elim_idx)
    }

    /// An explicit `kill` consumed at decode (`mask` is the static kill
    /// mask, for exact E-DVI accounting).
    pub(crate) fn on_kill(
        &mut self,
        mask: RegMask,
        rename: &mut RenameState,
        out: &mut ReclaimList,
    ) {
        if self.oracle.config.use_edvi {
            self.stats.edvi_instructions += 1;
            self.stats.edvi_regs_killed += mask.len() as u64;
        }
        self.apply_unmaps(rename, out);
    }

    /// A dispatch attempt on a save. Counts the attempt (a save stalled
    /// behind a full window is re-attempted and re-counted, exactly like
    /// the live engine) and consumes the bit only when it eliminates.
    pub(crate) fn on_save_attempt(&mut self) -> bool {
        self.stats.saves_seen += 1;
        let eliminated = self.peek_elim();
        if eliminated {
            self.stats.saves_eliminated += 1;
            self.elim_idx += 1;
        }
        eliminated
    }

    /// A dispatch attempt on a restore (see [`DviCursor::on_save_attempt`]).
    pub(crate) fn on_restore_attempt(&mut self) -> bool {
        self.stats.restores_seen += 1;
        let eliminated = self.peek_elim();
        if eliminated {
            self.stats.restores_eliminated += 1;
            self.elim_idx += 1;
        }
        eliminated
    }

    /// A non-eliminated save/restore entered the window: its (false)
    /// elimination bit is consumed.
    pub(crate) fn on_save_restore_dispatched(&mut self) {
        self.elim_idx += 1;
    }

    /// A procedure call dispatched.
    pub(crate) fn on_call(&mut self, rename: &mut RenameState, out: &mut ReclaimList) {
        if self.oracle.config.use_idvi {
            self.stats.idvi_regs_killed += self.oracle.idvi_mask_len;
        }
        self.apply_unmaps(rename, out);
    }

    /// A procedure return dispatched.
    pub(crate) fn on_return(&mut self, rename: &mut RenameState, out: &mut ReclaimList) {
        if self.oracle.config.use_idvi {
            self.stats.idvi_regs_killed += self.oracle.idvi_mask_len;
        }
        self.apply_unmaps(rename, out);
    }

    /// Statistics over the events consumed so far.
    #[must_use]
    pub(crate) fn stats(&self) -> DviStats {
        self.stats
    }
}

/// The bundle of immutable trace-pure products a [`SimSession`] can
/// consume in place of its private state
/// ([`SimSession::with_shared_tables`]). Every field is optional and
/// independently shareable; all of them leave the modelled machine
/// bit-identical (`tests/replay_equiv.rs`).
#[derive(Debug, Clone, Default)]
pub struct SharedTables {
    /// Precomputed per-PC decode records (replaces the private
    /// [`crate::DecodeMemo`]).
    pub decode: Option<Arc<StaticDecodeTable>>,
    /// Pre-recorded branch/return misprediction bits (replaces the private
    /// live predictor; must match the member's predictor configuration).
    pub branches: Option<Arc<BranchOracle>>,
    /// Pre-recorded L1I hit bits (bypasses the private L1I tag array; must
    /// match the member's L1I geometry).
    pub icache: Option<Arc<IcacheOracle>>,
    /// The trace's precomputed dependence graph
    /// ([`dvi_program::DepGraph`]): dispatch wires window entries directly
    /// to their producers' window sequence numbers instead of renaming
    /// sources through the alias table (event-driven scheduler only).
    pub depgraph: Option<Arc<DepGraph>>,
    /// Pre-recorded decode-stage DVI event stream (replaces the private
    /// live [`DviEngine`]; must match the member's [`DviConfig`]).
    pub dvi: Option<Arc<DviOracle>>,
    /// Pre-recorded L1D outcome stream of the member's data-side geometry
    /// group (replaces the private L1D tag array). Valid only while the
    /// member reproduces the recording member's exact access stream — the
    /// replay cursor checks every access and panics on divergence instead
    /// of replaying wrong outcomes.
    pub dcache: Option<Arc<DcacheOracle>>,
    /// Precomputed dispatch-group fusion table
    /// ([`dvi_program::FusionTable`]) for the member's decode width:
    /// dispatch consumes whole fetch groups via table lookups (bulk window
    /// push, batched free-list allocation, precomputed wakeup wiring) and
    /// falls back to the cycle loop at structural-hazard and oracle-event
    /// boundaries. Requires the dependence graph; ignored by members whose
    /// width or scheduler does not match. Bit-identity with unfused
    /// dispatch is locked by `tests/fusion_equiv.rs`.
    pub fusion: Option<Arc<FusionTable>>,
}

/// Records a standalone D-cache oracle: one full run of `config` over
/// `trace` with a recording tag array behind the
/// [`dvi_mem::DataMemModel`] seam. The recording run is bit-identical to a
/// stock run of the same member (the recorder drives a real tag array and
/// only logs on the side); the recorded stream then replays for any member
/// that reproduces the recording member's exact data-access stream —
/// normally the members of its [`SimConfig::dmem_geometry`] group. Hand
/// it to a session through [`SharedTables::dcache`].
///
/// # Panics
///
/// Panics if `config` does not use the stock D-cache model, fails
/// [`SimConfig::validate`], or deadlocks on the trace (a truncated
/// recording must not be replayed as if complete).
#[must_use]
pub fn record_dcache_oracle(trace: &CapturedTrace, config: &SimConfig) -> Arc<DcacheOracle> {
    assert_eq!(
        config.dcache_model,
        DcacheModelKind::Stock,
        "a D-cache oracle records the stock tag array"
    );
    let (recorder, recording) = DcacheRecorder::new(config.dcache);
    let stats = SimSession::with_dcache_model(
        config.clone(),
        trace.cursor(),
        SharedTables::default(),
        Box::new(recorder),
    )
    .run_to_completion();
    assert!(!stats.deadlocked, "the D-cache recording run deadlocked; its stream is truncated");
    Arc::new(recording.finish())
}
