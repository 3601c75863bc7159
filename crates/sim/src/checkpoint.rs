//! Durable sweep checkpoints.
//!
//! A [`SweepCheckpoint`] is the on-disk image of a
//! [`crate::batch::SweepRunner`]'s progress: the outcome of every finished
//! member plus the trace position of every in-flight one, bound to the
//! fingerprints of the captured trace and the member configurations it was
//! taken from. The runner writes one after every scheduling turn
//! ([`crate::batch::SweepRunner::with_checkpoint`]) through the
//! checksummed artifact container ([`dvi_program::artifact`]) with an
//! atomic temp-file/rename, so a crash at any instant leaves either the
//! previous or the new snapshot on disk, never a torn one.
//!
//! Resume ([`crate::batch::SweepRunner::resume`]) restores finished
//! members verbatim and re-runs interrupted ones from record 0. That is
//! not an approximation: member statistics are a pure function of
//! (configuration, trace), so the resumed run's final
//! outcomes are **bit-identical** to the uninterrupted run's — the
//! recorded in-flight positions are diagnostic (how far the sweep got),
//! not replay state. `tests/fault_tolerance.rs` locks the equivalence by
//! killing sweeps at every turn boundary and resuming them.

use crate::batch::MemberOutcome;
use crate::config::SimConfig;
use crate::stats::{DeadlockReport, ProgressStage, SimStats};
use dvi_bpred::PredictorStats;
use dvi_core::DviStats;
use dvi_mem::{CacheStats, HierarchyStats};
use dvi_program::artifact::{
    xxh64, ArtifactReader, ArtifactWriter, ByteReader, ByteWriter, SECTION_HEADER_BYTES,
};
use dvi_program::ArtifactError;
use std::path::Path;

/// Artifact container identity of a sweep checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"DVISWPCK";
/// Current checkpoint artifact version. Bump on any layout change; old
/// readers reject newer files with [`ArtifactError::VersionSkew`] instead
/// of misparsing them.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Section tags inside a checkpoint artifact.
mod section {
    /// Trace fingerprint, turn counter, member count.
    pub const META: u32 = 1;
    /// One section per member, in grid order.
    pub const MEMBER: u32 = 2;
}

/// The persisted progress of one sweep (see the module documentation).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    /// [`dvi_program::CapturedTrace::fingerprint`] of the sweep's trace;
    /// resume refuses a snapshot taken from a different trace.
    pub trace_fingerprint: u64,
    /// Scheduling turns completed when the snapshot was taken.
    pub turns: u64,
    /// Per-member progress, in grid order.
    pub members: Vec<MemberCheckpoint>,
}

/// One member's entry in a [`SweepCheckpoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct MemberCheckpoint {
    /// Fingerprint of the member's [`SimConfig`]
    /// ([`config_fingerprint`]); resume refuses a snapshot whose grid
    /// doesn't match.
    pub config_fingerprint: u64,
    /// Where the member was when the snapshot was taken.
    pub state: MemberCheckpointState,
}

/// A checkpointed member's progress.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberCheckpointState {
    /// Still running (or not yet scheduled); `fetched` records consumed so
    /// far. Diagnostic only — resume re-runs the member from record 0,
    /// bit-identically (see the module documentation).
    InFlight {
        /// Trace records the member had fetched.
        fetched: u64,
    },
    /// Finished, with the outcome to restore verbatim.
    Done(Box<MemberOutcome>),
}

/// Identity of a member configuration for checkpoint binding, via the
/// configuration's complete `Debug` rendering: any field change —
/// including future fields — changes the fingerprint, which is exactly
/// the staleness check resume needs.
#[must_use]
pub fn config_fingerprint(config: &SimConfig) -> u64 {
    xxh64(format!("{config:?}").as_bytes(), 0)
}

impl SweepCheckpoint {
    /// Serializes the snapshot into an artifact container.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.build().to_bytes()
    }

    /// Atomically writes the snapshot to `path` (temp file + rename: a
    /// kill mid-write leaves the previous snapshot intact).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        self.build().write_atomic(path)
    }

    fn build(&self) -> ArtifactWriter {
        let mut w = ArtifactWriter::new(CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        let mut meta = ByteWriter::new();
        meta.put_u64(self.trace_fingerprint);
        meta.put_u64(self.turns);
        meta.put_u64(self.members.len() as u64);
        w.section(section::META, meta.into_bytes());
        for member in &self.members {
            let mut b = ByteWriter::new();
            b.put_u64(member.config_fingerprint);
            match &member.state {
                MemberCheckpointState::InFlight { fetched } => {
                    b.put_u8(0);
                    b.put_u64(*fetched);
                }
                MemberCheckpointState::Done(outcome) => {
                    b.put_u8(1);
                    write_outcome(&mut b, outcome);
                }
            }
            w.section(section::MEMBER, b.into_bytes());
        }
        w
    }

    /// Parses a snapshot serialized by [`SweepCheckpoint::to_bytes`],
    /// verifying the container checksums.
    ///
    /// # Errors
    ///
    /// Any [`ArtifactError`] from the container (bad magic, version skew,
    /// truncation, checksum mismatch, malformed payload).
    pub fn from_bytes(bytes: &[u8]) -> Result<SweepCheckpoint, ArtifactError> {
        let reader = ArtifactReader::parse(bytes, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)?;
        let mut meta = ByteReader::new(reader.section(section::META)?, "checkpoint meta");
        let trace_fingerprint = meta.u64()?;
        let turns = meta.u64()?;
        // Every member is a section of its own, header included.
        let member_count = meta.count_within(SECTION_HEADER_BYTES, bytes.len())?;
        meta.finish()?;
        let mut members = Vec::with_capacity(member_count);
        for payload in reader.sections_with_tag(section::MEMBER) {
            let mut b = ByteReader::new(payload, "checkpoint member");
            let config_fingerprint = b.u64()?;
            let state = match b.u8()? {
                0 => MemberCheckpointState::InFlight { fetched: b.u64()? },
                1 => MemberCheckpointState::Done(Box::new(read_outcome(&mut b)?)),
                tag => {
                    return Err(ArtifactError::Malformed {
                        context: format!("checkpoint member state tag {tag}"),
                    })
                }
            };
            b.finish()?;
            members.push(MemberCheckpoint { config_fingerprint, state });
        }
        if members.len() != member_count {
            return Err(ArtifactError::Malformed {
                context: format!(
                    "checkpoint meta promises {member_count} members, found {}",
                    members.len()
                ),
            });
        }
        Ok(SweepCheckpoint { trace_fingerprint, turns, members })
    }

    /// Loads a snapshot saved by [`SweepCheckpoint::save`].
    ///
    /// # Errors
    ///
    /// As [`SweepCheckpoint::from_bytes`], plus [`ArtifactError::Io`].
    pub fn load(path: &Path) -> Result<SweepCheckpoint, ArtifactError> {
        let bytes = std::fs::read(path)
            .map_err(|e| ArtifactError::Io(format!("reading {}: {e}", path.display())))?;
        SweepCheckpoint::from_bytes(&bytes)
    }
}

/// Serializes a member outcome (tag byte + payload) into a section
/// payload. Public because the sweep service's result cache memoizes
/// per-member outcomes on disk in exactly the checkpoint encoding — one
/// serializer means a cache entry and a checkpoint member can never
/// disagree about what a stored outcome looks like.
pub fn write_outcome(w: &mut ByteWriter, outcome: &MemberOutcome) {
    match outcome {
        MemberOutcome::Ok(stats) => {
            w.put_u8(0);
            write_stats(w, stats);
        }
        MemberOutcome::Degraded { stats, reason } => {
            w.put_u8(1);
            write_stats(w, stats);
            write_string(w, reason);
        }
        MemberOutcome::Deadlocked { partial, .. } => {
            // The report is embedded in `partial.deadlock`; storing it
            // once keeps the two from ever disagreeing on disk.
            w.put_u8(2);
            write_stats(w, partial);
        }
        MemberOutcome::Panicked { payload } => {
            w.put_u8(3);
            write_string(w, payload);
        }
    }
}

/// Reads an outcome written by [`write_outcome`].
///
/// # Errors
///
/// [`ArtifactError::TruncatedArtifact`] when the payload ends early and
/// [`ArtifactError::Malformed`] on an unknown outcome tag or an internally
/// inconsistent payload.
pub fn read_outcome(r: &mut ByteReader<'_>) -> Result<MemberOutcome, ArtifactError> {
    match r.u8()? {
        0 => Ok(MemberOutcome::Ok(read_stats(r)?)),
        1 => {
            let stats = read_stats(r)?;
            let reason = read_string(r)?;
            Ok(MemberOutcome::Degraded { stats, reason })
        }
        2 => {
            let partial = read_stats(r)?;
            let report = partial.deadlock.ok_or_else(|| ArtifactError::Malformed {
                context: "deadlocked outcome without a deadlock report".into(),
            })?;
            Ok(MemberOutcome::Deadlocked { partial, report })
        }
        3 => Ok(MemberOutcome::Panicked { payload: read_string(r)? }),
        tag => Err(ArtifactError::Malformed { context: format!("member outcome tag {tag}") }),
    }
}

fn write_string(w: &mut ByteWriter, s: &str) {
    w.put_str(s);
}

fn read_string(r: &mut ByteReader<'_>) -> Result<String, ArtifactError> {
    r.str()
}

/// Serializes a complete [`SimStats`] field by field (fixed-width
/// little-endian, no padding). Every field must round-trip exactly:
/// resume equivalence is asserted with `==` over the whole struct.
fn write_stats(w: &mut ByteWriter, s: &SimStats) {
    w.put_u64(s.cycles);
    w.put_u64(s.program_instrs);
    w.put_u64(s.committed_entries);
    w.put_u64(s.fetched_instrs);
    w.put_u64(s.fetched_kills);
    w.put_u64(s.mem_refs);
    w.put_u64(s.rename_stalls_no_reg);
    w.put_u64(s.rename_stalls_no_window);
    w.put_u64(s.dvi.saves_seen);
    w.put_u64(s.dvi.restores_seen);
    w.put_u64(s.dvi.saves_eliminated);
    w.put_u64(s.dvi.restores_eliminated);
    w.put_u64(s.dvi.edvi_instructions);
    w.put_u64(s.dvi.edvi_regs_killed);
    w.put_u64(s.dvi.idvi_regs_killed);
    w.put_u64(s.dvi.phys_regs_reclaimed_early);
    w.put_u64(s.branch.direction_predictions);
    w.put_u64(s.branch.direction_mispredictions);
    w.put_u64(s.branch.return_predictions);
    w.put_u64(s.branch.return_mispredictions);
    write_cache_stats(w, s.memory.l1i);
    write_cache_stats(w, s.memory.l1d);
    write_cache_stats(w, s.memory.l2);
    w.put_u64(s.peak_phys_regs_used as u64);
    w.put_bool(s.deadlocked);
    match &s.deadlock {
        None => w.put_u8(0),
        Some(report) => {
            w.put_u8(1);
            w.put_u64(report.stall_cycle);
            w.put_u64(report.detected_cycle);
            w.put_u64(report.window_occupancy as u64);
            match report.head_seq {
                None => w.put_u8(0),
                Some(seq) => {
                    w.put_u8(1);
                    w.put_u64(seq);
                }
            }
            w.put_u8(match report.last_stage {
                ProgressStage::Commit => 0,
                ProgressStage::Fetch => 1,
            });
        }
    }
}

/// Reads statistics written by [`write_stats`].
fn read_stats(r: &mut ByteReader<'_>) -> Result<SimStats, ArtifactError> {
    let mut s = SimStats {
        cycles: r.u64()?,
        program_instrs: r.u64()?,
        committed_entries: r.u64()?,
        fetched_instrs: r.u64()?,
        fetched_kills: r.u64()?,
        mem_refs: r.u64()?,
        rename_stalls_no_reg: r.u64()?,
        rename_stalls_no_window: r.u64()?,
        ..SimStats::default()
    };
    s.dvi = DviStats {
        saves_seen: r.u64()?,
        restores_seen: r.u64()?,
        saves_eliminated: r.u64()?,
        restores_eliminated: r.u64()?,
        edvi_instructions: r.u64()?,
        edvi_regs_killed: r.u64()?,
        idvi_regs_killed: r.u64()?,
        phys_regs_reclaimed_early: r.u64()?,
    };
    s.branch = PredictorStats {
        direction_predictions: r.u64()?,
        direction_mispredictions: r.u64()?,
        return_predictions: r.u64()?,
        return_mispredictions: r.u64()?,
    };
    s.memory = HierarchyStats {
        l1i: read_cache_stats(r)?,
        l1d: read_cache_stats(r)?,
        l2: read_cache_stats(r)?,
    };
    s.peak_phys_regs_used = r.count()?;
    s.deadlocked = r.bool()?;
    s.deadlock = match r.u8()? {
        0 => None,
        1 => {
            let stall_cycle = r.u64()?;
            let detected_cycle = r.u64()?;
            let window_occupancy = r.count()?;
            let head_seq = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                tag => {
                    return Err(ArtifactError::Malformed { context: format!("head_seq tag {tag}") })
                }
            };
            let last_stage = match r.u8()? {
                0 => ProgressStage::Commit,
                1 => ProgressStage::Fetch,
                tag => {
                    return Err(ArtifactError::Malformed {
                        context: format!("progress stage tag {tag}"),
                    })
                }
            };
            Some(DeadlockReport {
                stall_cycle,
                detected_cycle,
                window_occupancy,
                head_seq,
                last_stage,
            })
        }
        tag => {
            return Err(ArtifactError::Malformed { context: format!("deadlock report tag {tag}") })
        }
    };
    Ok(s)
}

fn write_cache_stats(w: &mut ByteWriter, c: CacheStats) {
    w.put_u64(c.accesses);
    w.put_u64(c.misses);
}

fn read_cache_stats(r: &mut ByteReader<'_>) -> Result<CacheStats, ArtifactError> {
    Ok(CacheStats { accesses: r.u64()?, misses: r.u64()? })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(seed: u64) -> SimStats {
        let mut s = SimStats {
            cycles: seed.wrapping_mul(977) + 3,
            program_instrs: seed + 17,
            committed_entries: seed + 11,
            fetched_instrs: seed + 23,
            mem_refs: seed + 5,
            ..SimStats::default()
        };
        s.dvi.saves_eliminated = seed;
        s.branch.direction_predictions = seed * 2;
        s.memory.l1d = CacheStats { accesses: seed + 100, misses: seed / 2 };
        s.peak_phys_regs_used = (seed as usize % 64) + 32;
        s
    }

    #[test]
    fn checkpoint_roundtrips_every_outcome_kind() {
        let mut deadlocked = sample_stats(7);
        deadlocked.deadlocked = true;
        deadlocked.deadlock = Some(DeadlockReport {
            stall_cycle: 120,
            detected_cycle: 100_121,
            window_occupancy: 5,
            head_seq: Some(99),
            last_stage: ProgressStage::Fetch,
        });
        let report = deadlocked.deadlock.expect("just set");
        let snapshot = SweepCheckpoint {
            trace_fingerprint: 0xDEAD_BEEF_CAFE_F00D,
            turns: 42,
            members: vec![
                MemberCheckpoint {
                    config_fingerprint: 1,
                    state: MemberCheckpointState::Done(Box::new(MemberOutcome::Ok(sample_stats(
                        1,
                    )))),
                },
                MemberCheckpoint {
                    config_fingerprint: 2,
                    state: MemberCheckpointState::Done(Box::new(MemberOutcome::Degraded {
                        stats: sample_stats(2),
                        reason: "injected fault: member 1 at record 4096".into(),
                    })),
                },
                MemberCheckpoint {
                    config_fingerprint: 3,
                    state: MemberCheckpointState::Done(Box::new(MemberOutcome::Deadlocked {
                        partial: deadlocked,
                        report,
                    })),
                },
                MemberCheckpoint {
                    config_fingerprint: 4,
                    state: MemberCheckpointState::Done(Box::new(MemberOutcome::Panicked {
                        payload: "worker died".into(),
                    })),
                },
                MemberCheckpoint {
                    config_fingerprint: 5,
                    state: MemberCheckpointState::InFlight { fetched: 131_072 },
                },
            ],
        };
        let bytes = snapshot.to_bytes();
        let back = SweepCheckpoint::from_bytes(&bytes).expect("roundtrip parses");
        assert_eq!(back, snapshot);
    }

    #[test]
    fn corrupted_checkpoint_is_rejected() {
        let snapshot = SweepCheckpoint {
            trace_fingerprint: 1,
            turns: 0,
            members: vec![MemberCheckpoint {
                config_fingerprint: 9,
                state: MemberCheckpointState::InFlight { fetched: 0 },
            }],
        };
        let bytes = snapshot.to_bytes();
        // Truncation anywhere inside the container is detected.
        assert!(matches!(
            SweepCheckpoint::from_bytes(&bytes[..bytes.len() - 1]),
            Err(ArtifactError::TruncatedArtifact { .. })
        ));
        // A flipped payload byte fails its section checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            SweepCheckpoint::from_bytes(&flipped),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn config_fingerprint_tracks_config_changes() {
        let base = SimConfig::micro97();
        assert_eq!(config_fingerprint(&base), config_fingerprint(&SimConfig::micro97()));
        assert_ne!(config_fingerprint(&base), config_fingerprint(&base.clone().with_phys_regs(48)));
    }

    /// The result cache keys memoized statistics by [`config_fingerprint`],
    /// so a configuration field the fingerprint does not cover would let
    /// two *different* machines share one cache entry — silently wrong
    /// statistics. The fingerprint hashes the complete `Debug` rendering,
    /// which covers a field exactly when that rendering names it. This
    /// test pins both halves of that argument:
    ///
    /// * the exhaustive destructure (no `..`) fails to **compile** when a
    ///   field is added to [`SimConfig`], forcing this list — and with it
    ///   the coverage check below — to be extended;
    /// * the rendering check fails when a hand-written `Debug`
    ///   implementation ever replaces the derive and drops a field.
    #[test]
    fn config_fingerprint_covers_every_simconfig_field() {
        let config = SimConfig::micro97();
        let SimConfig {
            fetch_width: _,
            decode_width: _,
            issue_width: _,
            commit_width: _,
            window_size: _,
            fetch_queue: _,
            phys_regs: _,
            int_alu_units: _,
            int_mul_units: _,
            cache_ports: _,
            mispredict_penalty: _,
            icache: _,
            dcache: _,
            dcache_model: _,
            l2: _,
            memory_latency: _,
            predictor: _,
            dvi: _,
            scheduler: _,
        } = config.clone();
        let rendered = format!("{config:?}");
        for field in [
            "fetch_width",
            "decode_width",
            "issue_width",
            "commit_width",
            "window_size",
            "fetch_queue",
            "phys_regs",
            "int_alu_units",
            "int_mul_units",
            "cache_ports",
            "mispredict_penalty",
            "icache",
            "dcache",
            "dcache_model",
            "l2",
            "memory_latency",
            "predictor",
            "dvi",
            "scheduler",
        ] {
            assert!(
                rendered.contains(field),
                "the fingerprint's Debug rendering does not cover `{field}` — \
                 extend the fingerprint before trusting the result cache"
            );
        }
    }

    #[test]
    fn outcome_serialization_is_reusable_outside_checkpoints() {
        // The result cache calls the outcome serializer directly; lock the
        // standalone (non-checkpoint) round trip.
        let outcome = MemberOutcome::Ok(sample_stats(31));
        let mut w = ByteWriter::new();
        write_outcome(&mut w, &outcome);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes, "standalone outcome");
        assert_eq!(read_outcome(&mut r).expect("roundtrips"), outcome);
        r.finish().expect("no trailing bytes");
    }
}
