//! The content-addressed result cache.
//!
//! A completed sweep member's statistics are a **pure function** of
//! (configuration, trace) — the invariant every batch, parallel,
//! checkpoint/resume and shared-product path in `dvi-sim` is locked
//! against. That purity is what makes memoization sound: the pair
//!
//! ```text
//! (CapturedTrace::fingerprint, checkpoint::config_fingerprint)
//! ```
//!
//! *is* the member's identity, so a [`MemberOutcome::Ok`] stored under it
//! can be served to any later job asking for the same pair, bit-identical
//! to re-simulating.
//!
//! Entries live one-per-file in the checksummed artifact container
//! (magic [`MEMO_MAGIC`]) written atomically, so a crash mid-store leaves
//! either no entry or a whole one. Every failure on the read side —
//! missing file, foreign magic, version skew, truncation, checksum
//! mismatch, key mismatch after a hash-name collision — degrades to a
//! **cache miss** (the member simulates live, the entry is rewritten):
//! a damaged cache can cost time, never correctness.
//!
//! Only fully healthy outcomes are memoized. `Degraded` statistics are
//! bit-identical to `Ok` by contract but their reasons describe the run
//! that produced them (fault injection); deadlocks
//! are deterministic but cheap to reproduce and worth re-observing; a
//! `Panicked` member has no statistics at all. Skipping all three keeps
//! every cache entry unambiguous: stored once, correct forever.

use dvi_program::artifact::{ArtifactReader, ArtifactWriter, ByteReader, ByteWriter};
use dvi_program::ArtifactError;
use dvi_sim::checkpoint::{read_outcome, write_outcome};
use dvi_sim::MemberOutcome;
use std::path::{Path, PathBuf};

/// Artifact container identity of one memoized member result.
pub const MEMO_MAGIC: [u8; 8] = *b"DVIMEMO1";
/// Current memo artifact version. Bump on any layout change; old readers
/// reject newer files with [`ArtifactError::VersionSkew`], which the
/// cache treats as a miss.
pub const MEMO_VERSION: u32 = 1;

/// Section tags inside a memo artifact.
mod section {
    /// The memoization key: trace fingerprint, config fingerprint.
    pub const KEY: u32 = 1;
    /// The stored outcome, in the checkpoint encoding
    /// ([`dvi_sim::checkpoint::write_outcome`]).
    pub const OUTCOME: u32 = 2;
}

/// What a cache probe found (the scheduler's hit-rate metrics count each
/// variant separately).
#[derive(Debug, Clone, PartialEq)]
pub enum CacheProbe {
    /// A healthy entry: serve these statistics, simulate nothing.
    Hit(Box<MemberOutcome>),
    /// No entry under this key.
    Miss,
    /// An entry exists but failed to load (corruption, truncation, version
    /// skew, key mismatch); the member runs live and the entry is
    /// rewritten from the fresh result.
    Damaged(ArtifactError),
}

/// An on-disk cache of memoized member results (see the module docs).
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ResultCache, ArtifactError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ArtifactError::Io(format!("creating cache dir {}: {e}", dir.display())))?;
        Ok(ResultCache { dir })
    }

    /// The directory the cache stores entries in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file for a key (content-addressed: both fingerprints are
    /// in the name, so distinct keys never contend for one file).
    #[must_use]
    pub fn entry_path(&self, trace_fingerprint: u64, config_fingerprint: u64) -> PathBuf {
        self.dir.join(format!("memo-{trace_fingerprint:016x}-{config_fingerprint:016x}.dvimemo"))
    }

    /// Probes the cache for a key. Never fails: every defect is reported
    /// as [`CacheProbe::Damaged`] and the caller runs the member live.
    #[must_use]
    pub fn probe(&self, trace_fingerprint: u64, config_fingerprint: u64) -> CacheProbe {
        let path = self.entry_path(trace_fingerprint, config_fingerprint);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheProbe::Miss,
            Err(e) => {
                return CacheProbe::Damaged(ArtifactError::Io(format!(
                    "reading {}: {e}",
                    path.display()
                )))
            }
        };
        match decode(&bytes, trace_fingerprint, config_fingerprint) {
            Ok(outcome) => CacheProbe::Hit(Box::new(outcome)),
            Err(e) => CacheProbe::Damaged(e),
        }
    }

    /// Memoizes a member's outcome under its key. Only
    /// [`MemberOutcome::Ok`] is stored (see the module docs); anything
    /// else is ignored so callers can feed every outcome through without
    /// filtering.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the atomic write fails.
    pub fn store(
        &self,
        trace_fingerprint: u64,
        config_fingerprint: u64,
        outcome: &MemberOutcome,
    ) -> Result<(), ArtifactError> {
        if !matches!(outcome, MemberOutcome::Ok(_)) {
            return Ok(());
        }
        let mut key = ByteWriter::new();
        key.put_u64(trace_fingerprint);
        key.put_u64(config_fingerprint);
        let mut body = ByteWriter::new();
        write_outcome(&mut body, outcome);
        let mut w = ArtifactWriter::new(MEMO_MAGIC, MEMO_VERSION);
        w.section(section::KEY, key.into_bytes());
        w.section(section::OUTCOME, body.into_bytes());
        w.write_atomic(&self.entry_path(trace_fingerprint, config_fingerprint))
    }

    /// Deletes every entry (used by benches to re-measure the miss path).
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the directory cannot be traversed.
    pub fn clear(&self) -> Result<(), ArtifactError> {
        let io = |e: std::io::Error| ArtifactError::Io(format!("clearing result cache: {e}"));
        for entry in std::fs::read_dir(&self.dir).map_err(io)? {
            let path = entry.map_err(io)?.path();
            if path.extension().is_some_and(|e| e == "dvimemo") {
                std::fs::remove_file(&path).map_err(io)?;
            }
        }
        Ok(())
    }
}

fn decode(
    bytes: &[u8],
    trace_fingerprint: u64,
    config_fingerprint: u64,
) -> Result<MemberOutcome, ArtifactError> {
    let reader = ArtifactReader::parse(bytes, MEMO_MAGIC, MEMO_VERSION)?;
    let mut key = ByteReader::new(reader.section(section::KEY)?, "memo key");
    let stored_trace = key.u64()?;
    let stored_config = key.u64()?;
    key.finish()?;
    if stored_trace != trace_fingerprint {
        return Err(ArtifactError::FingerprintMismatch {
            expected: trace_fingerprint,
            found: stored_trace,
        });
    }
    if stored_config != config_fingerprint {
        return Err(ArtifactError::FingerprintMismatch {
            expected: config_fingerprint,
            found: stored_config,
        });
    }
    let mut body = ByteReader::new(reader.section(section::OUTCOME)?, "memo outcome");
    let outcome = read_outcome(&mut body)?;
    body.finish()?;
    if !matches!(outcome, MemberOutcome::Ok(_)) {
        // A well-formed entry holding a non-Ok outcome violates the store
        // policy — treat it as stale rather than serving it.
        return Err(ArtifactError::Malformed {
            context: "memo entry holds a non-Ok outcome".into(),
        });
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvi_sim::SimStats;

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("dvi-memo-unit-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        ResultCache::open(dir).expect("cache opens")
    }

    fn ok_outcome(seed: u64) -> MemberOutcome {
        MemberOutcome::Ok(SimStats {
            cycles: seed * 31 + 1,
            program_instrs: seed + 500,
            ..SimStats::default()
        })
    }

    #[test]
    fn store_then_probe_hits_bit_identically() {
        let cache = temp_cache("roundtrip");
        let outcome = ok_outcome(3);
        cache.store(0xAAAA, 0xBBBB, &outcome).expect("stores");
        match cache.probe(0xAAAA, 0xBBBB) {
            CacheProbe::Hit(found) => assert_eq!(*found, outcome),
            other => panic!("expected a hit, got {other:?}"),
        }
        assert_eq!(cache.probe(0xAAAA, 0xCCCC), CacheProbe::Miss);
        assert_eq!(cache.probe(0xDDDD, 0xBBBB), CacheProbe::Miss);
    }

    #[test]
    fn non_ok_outcomes_are_never_memoized() {
        let cache = temp_cache("policy");
        let degraded =
            MemberOutcome::Degraded { stats: SimStats::default(), reason: "injected fault".into() };
        cache.store(1, 2, &degraded).expect("store is a no-op");
        assert_eq!(cache.probe(1, 2), CacheProbe::Miss);
        let panicked = MemberOutcome::Panicked { payload: "worker died".into() };
        cache.store(1, 3, &panicked).expect("store is a no-op");
        assert_eq!(cache.probe(1, 3), CacheProbe::Miss);
    }

    #[test]
    fn corruption_and_truncation_degrade_to_damaged() {
        let cache = temp_cache("damage");
        cache.store(7, 9, &ok_outcome(7)).expect("stores");
        let path = cache.entry_path(7, 9);
        let clean = std::fs::read(&path).expect("entry exists");

        std::fs::write(&path, &clean[..clean.len() - 3]).expect("truncates");
        assert!(matches!(
            cache.probe(7, 9),
            CacheProbe::Damaged(ArtifactError::TruncatedArtifact { .. })
        ));

        let mut flipped = clean.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).expect("corrupts");
        assert!(matches!(
            cache.probe(7, 9),
            CacheProbe::Damaged(ArtifactError::ChecksumMismatch { .. })
        ));

        // A rewrite from a fresh live run heals the entry.
        cache.store(7, 9, &ok_outcome(7)).expect("re-stores");
        assert!(matches!(cache.probe(7, 9), CacheProbe::Hit(_)));
    }

    #[test]
    fn key_mismatch_under_a_renamed_file_is_damaged_not_served() {
        let cache = temp_cache("rename");
        cache.store(10, 20, &ok_outcome(1)).expect("stores");
        // Simulate an operator mv-ing an entry onto another key's name.
        std::fs::rename(cache.entry_path(10, 20), cache.entry_path(10, 21)).expect("renames");
        assert!(matches!(
            cache.probe(10, 21),
            CacheProbe::Damaged(ArtifactError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = temp_cache("clear");
        cache.store(1, 1, &ok_outcome(1)).expect("stores");
        cache.store(1, 2, &ok_outcome(2)).expect("stores");
        cache.clear().expect("clears");
        assert_eq!(cache.probe(1, 1), CacheProbe::Miss);
        assert_eq!(cache.probe(1, 2), CacheProbe::Miss);
    }
}
