//! The pre-recorded D-cache oracle and its recording instruments.
//!
//! The L1 data cache is the last per-member cache model in a sweep without
//! a trace-pure stand-in. Unlike the L1I — whose access stream is fixed by
//! the trace — the D-cache access stream is **issue-order dependent**: the
//! out-of-order core issues loads and stores as operands and ports allow,
//! so the (address, read/write) sequence reaching the L1D depends on the
//! member's whole configuration, not just the trace. Two members agree on
//! their L1D behaviour exactly when they produce the *same access stream*
//! over the same geometry, and whether they do is an empirical question per
//! configuration grid (the qualification measurement).
//!
//! The types here split the problem the way the upstream I-cache oracle
//! does, plus the online safety check the data side additionally needs:
//!
//! * [`DcacheFingerprinter`] — a [`DataMemModel`] that behaves exactly
//!   like the stock tag array while folding every access into a
//!   [`StreamFingerprint`]. Running each sweep member once with this model
//!   measures, per geometry group, how many members produce the group
//!   leader's exact stream — the *qualification rate*.
//! * [`DcacheRecorder`] — a [`DataMemModel`] that behaves exactly like the
//!   stock tag array while logging the full (address, write, hit) stream.
//!   One recording run per qualifying geometry group produces a
//!   [`DcacheOracle`].
//! * [`DcacheOracle`] — the immutable recorded stream: addresses, write
//!   bits, L1D outcome bits and the stream fingerprint. Shared by
//!   reference across every member of the geometry group.
//! * [`DcacheOracleCursor`] — a [`DataMemModel`] that replays the recorded
//!   outcome bits while checking every access against the recorded
//!   (address, write) stream. The moment a member's stream diverges from
//!   the recording the cursor **panics** with a distinctive message; the
//!   sweep runner's per-member panic boundary catches it and re-runs the
//!   member live — degraded, never wrong.
//!
//! Only the L1D *outcome* is recorded and replayed. A miss's unified-L2 /
//! memory walk stays on the owning hierarchy: the L2 is entangled with the
//! member's own instruction fetches, so its state is config-dependent even
//! when the L1D stream is not. The L1D outcome, by contrast, is a pure
//! function of (geometry, access stream) — replacement state never sees
//! anything else — so exact stream equality implies bit-identical outcomes
//! and statistics.

use crate::cache::{CacheConfig, CacheStats};
use crate::level::{CacheLevel, DataMemModel};
use std::sync::{Arc, Mutex};

/// A packed bit vector with sequential append and random read — the
/// storage for the oracle's per-access write and outcome bits. Public so
/// the sweep layer can serialize the raw words into its oracle artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackedBits {
    words: Vec<u64>,
    len: usize,
}

impl PackedBits {
    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            *self.words.last_mut().expect("just pushed") |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    /// The `idx`-th bit.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    #[must_use]
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index out of range");
        (self.words[idx >> 6] >> (idx & 63)) & 1 == 1
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no bits have been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed 64-bit words (serialization).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuilds a bit vector from its packed words (deserialization).
    /// Returns `None` when the word count does not match the bit length or
    /// a bit beyond `len` is set (damage the container checksum cannot
    /// attribute).
    #[must_use]
    pub fn from_raw(words: Vec<u64>, len: usize) -> Option<PackedBits> {
        if words.len() != len.div_ceil(64) {
            return None;
        }
        if !len.is_multiple_of(64) {
            let tail = *words.last()?;
            if tail >> (len % 64) != 0 {
                return None;
            }
        }
        Some(PackedBits { words, len })
    }
}

/// An incremental FNV-1a-64 digest over a D-cache access stream: one
/// (address, is_write) pair per access, in issue order. Two members whose
/// fingerprints (and access counts) agree produced the same stream with
/// overwhelming probability — the cheap comparison the qualification
/// measurement is built on. (Replay itself never trusts the fingerprint:
/// [`DcacheOracleCursor`] compares every access exactly.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFingerprint {
    hash: u64,
    count: u64,
}

impl StreamFingerprint {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The fingerprint of the empty stream.
    #[must_use]
    pub fn new() -> StreamFingerprint {
        StreamFingerprint { hash: Self::FNV_OFFSET, count: 0 }
    }

    /// Folds one access into the digest.
    pub fn push(&mut self, addr: u64, is_write: bool) {
        let mut hash = self.hash;
        for byte in addr.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(Self::FNV_PRIME);
        }
        hash ^= u64::from(is_write);
        hash = hash.wrapping_mul(Self::FNV_PRIME);
        self.hash = hash;
        self.count += 1;
    }

    /// The digest over the accesses pushed so far.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.hash
    }

    /// Number of accesses folded in.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no access has been folded in.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl Default for StreamFingerprint {
    fn default() -> Self {
        StreamFingerprint::new()
    }
}

/// The stream a [`DcacheRecorder`] accumulates: one (address, write bit,
/// L1D outcome bit) triple per access, in issue order.
#[derive(Debug, Default)]
struct RecordedStream {
    addrs: Vec<u64>,
    writes: PackedBits,
    hits: PackedBits,
}

/// A [`DataMemModel`] that drives a real tag array of the configured
/// geometry — so the recording member's run is bit-identical to a stock
/// run — while logging the full access stream and each access's L1D
/// outcome. The log is shared with the paired [`DcacheRecording`] handle
/// (the simulation consumes the model itself), which yields the finished
/// [`DcacheOracle`].
#[derive(Debug)]
pub struct DcacheRecorder {
    tags: CacheLevel,
    log: Arc<Mutex<RecordedStream>>,
}

impl DcacheRecorder {
    /// A recorder over a fresh tag array of `geometry`, paired with the
    /// handle that collects the recording.
    #[must_use]
    pub fn new(geometry: CacheConfig) -> (DcacheRecorder, DcacheRecording) {
        let log = Arc::new(Mutex::new(RecordedStream::default()));
        let recorder = DcacheRecorder { tags: CacheLevel::new(geometry), log: Arc::clone(&log) };
        (recorder, DcacheRecording { geometry, log })
    }
}

impl DataMemModel for DcacheRecorder {
    fn access(&mut self, addr: u64, is_write: bool) -> bool {
        let hit = DataMemModel::access(&mut self.tags, addr, is_write);
        let mut log = self.log.lock().expect("recorder log lock");
        log.addrs.push(addr);
        log.writes.push(is_write);
        log.hits.push(hit);
        hit
    }

    fn latency(&self) -> u64 {
        self.tags.latency()
    }

    fn stats(&self) -> CacheStats {
        self.tags.stats()
    }

    fn reset(&mut self) {
        self.tags.reset();
        *self.log.lock().expect("recorder log lock") = RecordedStream::default();
    }

    /// Clones share the log (a mid-run clone would double-log; nothing in
    /// the simulator clones an installed model).
    fn clone_box(&self) -> Box<dyn DataMemModel> {
        Box::new(DcacheRecorder { tags: self.tags.clone(), log: Arc::clone(&self.log) })
    }
}

/// The collection handle paired with a [`DcacheRecorder`]: once the
/// recording run has finished (and dropped the recorder with it), turns
/// the logged stream into an immutable [`DcacheOracle`].
#[derive(Debug)]
pub struct DcacheRecording {
    geometry: CacheConfig,
    log: Arc<Mutex<RecordedStream>>,
}

impl DcacheRecording {
    /// The finished oracle. Takes whatever the recorder logged so far;
    /// normally called after the recording run has drained.
    #[must_use]
    pub fn finish(self) -> DcacheOracle {
        let stream = std::mem::take(&mut *self.log.lock().expect("recorder log lock"));
        DcacheOracle::from_parts(self.geometry, stream.addrs, stream.writes, stream.hits)
            .expect("a recorder always logs aligned streams")
    }
}

/// A [`DataMemModel`] that behaves exactly like the stock tag array while
/// folding every access into a shared [`StreamFingerprint`] — the
/// instrument of the qualification measurement. The run it rides is
/// bit-identical to a stock run; the probe handle survives the run.
#[derive(Debug)]
pub struct DcacheFingerprinter {
    tags: CacheLevel,
    probe: Arc<Mutex<StreamFingerprint>>,
}

impl DcacheFingerprinter {
    /// A fingerprinter over a fresh tag array of `geometry`, paired with
    /// the probe the caller reads after the run.
    #[must_use]
    pub fn new(geometry: CacheConfig) -> (DcacheFingerprinter, Arc<Mutex<StreamFingerprint>>) {
        let probe = Arc::new(Mutex::new(StreamFingerprint::new()));
        let model =
            DcacheFingerprinter { tags: CacheLevel::new(geometry), probe: Arc::clone(&probe) };
        (model, probe)
    }
}

impl DataMemModel for DcacheFingerprinter {
    fn access(&mut self, addr: u64, is_write: bool) -> bool {
        self.probe.lock().expect("fingerprint probe lock").push(addr, is_write);
        DataMemModel::access(&mut self.tags, addr, is_write)
    }

    fn latency(&self) -> u64 {
        self.tags.latency()
    }

    fn stats(&self) -> CacheStats {
        self.tags.stats()
    }

    fn reset(&mut self) {
        self.tags.reset();
        *self.probe.lock().expect("fingerprint probe lock") = StreamFingerprint::new();
    }

    /// Clones share the probe (see [`DcacheRecorder::clone_box`]).
    fn clone_box(&self) -> Box<dyn DataMemModel> {
        Box::new(DcacheFingerprinter { tags: self.tags.clone(), probe: Arc::clone(&self.probe) })
    }
}

/// A pre-recorded L1-data-cache stream for one (trace, configuration)
/// recording run: the full access stream (addresses + write bits), the
/// per-access L1D outcome bits, the recording tag array's final counters
/// and the stream's [`StreamFingerprint`] digest.
///
/// The L1D outcome sequence is a pure function of (geometry, access
/// stream): replacement state depends on nothing else. So any member that
/// produces **exactly** the recorded stream can replay the outcome bits in
/// place of a private tag array with bit-identical statistics — and any
/// member that does not is caught by the cursor's per-access comparison,
/// never silently replayed wrong.
#[derive(Debug, Clone)]
pub struct DcacheOracle {
    geometry: CacheConfig,
    addrs: Vec<u64>,
    writes: PackedBits,
    hits: PackedBits,
    totals: CacheStats,
    fingerprint: u64,
}

impl DcacheOracle {
    /// Assembles an oracle from its recorded parts, recomputing the totals
    /// and the stream fingerprint (so deserialized oracles are
    /// self-consistent by construction). Returns `None` when the three
    /// streams disagree on length.
    #[must_use]
    pub fn from_parts(
        geometry: CacheConfig,
        addrs: Vec<u64>,
        writes: PackedBits,
        hits: PackedBits,
    ) -> Option<DcacheOracle> {
        if writes.len() != addrs.len() || hits.len() != addrs.len() {
            return None;
        }
        let mut digest = StreamFingerprint::new();
        for (i, &addr) in addrs.iter().enumerate() {
            digest.push(addr, writes.get(i));
        }
        let totals = CacheStats {
            accesses: addrs.len() as u64,
            misses: (addrs.len() - hits.count_ones()) as u64,
        };
        Some(DcacheOracle { geometry, addrs, writes, hits, totals, fingerprint: digest.value() })
    }

    /// The L1D geometry the stream was recorded under.
    #[must_use]
    pub fn geometry(&self) -> CacheConfig {
        self.geometry
    }

    /// Number of recorded accesses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the recording run made no data accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The recording tag array's full-run counters.
    #[must_use]
    pub fn totals(&self) -> CacheStats {
        self.totals
    }

    /// The [`StreamFingerprint`] digest of the recorded stream — what a
    /// qualification probe of a matching member reports.
    #[must_use]
    pub fn stream_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The recorded access addresses, in issue order (serialization).
    #[must_use]
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// The recorded per-access write bits (serialization).
    #[must_use]
    pub fn writes(&self) -> &PackedBits {
        &self.writes
    }

    /// The recorded per-access L1D outcome bits (serialization).
    #[must_use]
    pub fn hits(&self) -> &PackedBits {
        &self.hits
    }
}

/// A consuming read position into a shared [`DcacheOracle`]: the
/// [`DataMemModel`] sweep members install in place of a private L1D tag
/// array. Accumulates exact [`CacheStats`] as it goes.
///
/// Every access is compared against the recorded (address, write) stream
/// — an exact online check, strictly stronger than a fingerprint. On the
/// first mismatch (or on exhausting the recording) the cursor panics with
/// a `D-cache oracle divergence` message, so a diverging member never
/// reports wrong statistics; a caller that catches the panic can re-run
/// the member on its private live L1D.
#[derive(Debug, Clone)]
pub struct DcacheOracleCursor {
    oracle: Arc<DcacheOracle>,
    idx: usize,
    stats: CacheStats,
}

impl DcacheOracleCursor {
    /// A cursor positioned at the first recorded access.
    #[must_use]
    pub fn new(oracle: Arc<DcacheOracle>) -> DcacheOracleCursor {
        DcacheOracleCursor { oracle, idx: 0, stats: CacheStats::default() }
    }
}

impl DataMemModel for DcacheOracleCursor {
    fn access(&mut self, addr: u64, is_write: bool) -> bool {
        assert!(
            self.idx < self.oracle.addrs.len(),
            "D-cache oracle divergence at access {}: the member issued more data \
             accesses than the recording holds (its access stream does not match \
             the recording member's)",
            self.idx
        );
        let (want_addr, want_write) =
            (self.oracle.addrs[self.idx], self.oracle.writes.get(self.idx));
        assert!(
            want_addr == addr && want_write == is_write,
            "D-cache oracle divergence at access {}: member issued {} {addr:#x}, \
             recording holds {} {want_addr:#x} — the member's access stream does \
             not match the recording member's",
            self.idx,
            if is_write { "write" } else { "read" },
            if want_write { "write" } else { "read" },
        );
        let hit = self.oracle.hits.get(self.idx);
        self.idx += 1;
        self.stats.accesses += 1;
        if !hit {
            self.stats.misses += 1;
        }
        hit
    }

    fn latency(&self) -> u64 {
        self.oracle.geometry.latency
    }

    fn stats(&self) -> CacheStats {
        self.stats
    }

    fn reset(&mut self) {
        self.idx = 0;
        self.stats = CacheStats::default();
    }

    fn clone_box(&self) -> Box<dyn DataMemModel> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random access stream with enough reuse and
    /// conflict to exercise hits, misses and evictions.
    fn stream(n: u64) -> Vec<(u64, bool)> {
        (0..n).map(|i| (((i * 7919) % (256 * 1024)) & !7, i % 3 == 0)).collect()
    }

    #[test]
    fn packed_bits_round_trip_and_validate() {
        let mut bits = PackedBits::default();
        for i in 0..133usize {
            bits.push(i % 3 == 0);
        }
        assert_eq!(bits.len(), 133);
        assert_eq!(bits.count_ones(), (0..133).filter(|i| i % 3 == 0).count());
        let rebuilt = PackedBits::from_raw(bits.words().to_vec(), bits.len()).unwrap();
        assert_eq!(rebuilt, bits);
        // Bit 132 is set, so truncating the length to 132 leaves a stray
        // tail bit that validation must reject.
        assert!(PackedBits::from_raw(bits.words().to_vec(), 132).is_none(), "tail bit set");
        assert!(PackedBits::from_raw(bits.words()[..1].to_vec(), 133).is_none(), "short words");
    }

    #[test]
    fn fingerprint_separates_order_address_and_kind() {
        let mut a = StreamFingerprint::new();
        a.push(0x40, false);
        a.push(0x80, false);
        let mut b = StreamFingerprint::new();
        b.push(0x80, false);
        b.push(0x40, false);
        assert_ne!(a.value(), b.value(), "issue order must matter");
        let mut c = StreamFingerprint::new();
        c.push(0x40, true);
        c.push(0x80, false);
        assert_ne!(a.value(), c.value(), "access kind must matter");
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn recorder_is_bit_identical_to_stock_and_its_oracle_replays() {
        let geometry = CacheConfig::micro97_l1d();
        let mut stock = CacheLevel::new(geometry);
        let (mut recorder, recording) = DcacheRecorder::new(geometry);
        for &(addr, write) in &stream(4_000) {
            assert_eq!(
                DataMemModel::access(&mut stock, addr, write),
                DataMemModel::access(&mut recorder, addr, write)
            );
        }
        assert_eq!(DataMemModel::stats(&stock), recorder.stats());
        let totals = recorder.stats();
        drop(recorder);
        let oracle = Arc::new(recording.finish());
        assert_eq!(oracle.len(), 4_000);
        assert_eq!(oracle.totals(), totals);

        let mut replay = CacheLevel::new(geometry);
        let mut cursor = DcacheOracleCursor::new(Arc::clone(&oracle));
        for &(addr, write) in &stream(4_000) {
            assert_eq!(
                DataMemModel::access(&mut replay, addr, write),
                cursor.access(addr, write),
                "replayed outcome must match a live tag array"
            );
        }
        assert_eq!(cursor.stats(), oracle.totals());
        assert_eq!(cursor.latency(), geometry.latency);
    }

    #[test]
    fn fingerprinter_matches_stock_and_the_recorded_digest() {
        let geometry = CacheConfig::micro97_l1d();
        let mut stock = CacheLevel::new(geometry);
        let (mut fp, probe) = DcacheFingerprinter::new(geometry);
        let (mut recorder, recording) = DcacheRecorder::new(geometry);
        for &(addr, write) in &stream(1_000) {
            let expected = DataMemModel::access(&mut stock, addr, write);
            assert_eq!(DataMemModel::access(&mut fp, addr, write), expected);
            let _ = DataMemModel::access(&mut recorder, addr, write);
        }
        assert_eq!(fp.stats(), DataMemModel::stats(&stock));
        drop(recorder);
        let oracle = recording.finish();
        let probe = probe.lock().unwrap();
        assert_eq!(probe.value(), oracle.stream_fingerprint());
        assert_eq!(probe.len(), oracle.len() as u64);
    }

    #[test]
    #[should_panic(expected = "D-cache oracle divergence")]
    fn cursor_panics_on_address_divergence() {
        let geometry = CacheConfig::micro97_l1d();
        let (mut recorder, recording) = DcacheRecorder::new(geometry);
        let _ = DataMemModel::access(&mut recorder, 0x40, false);
        drop(recorder);
        let mut cursor = DcacheOracleCursor::new(Arc::new(recording.finish()));
        let _ = cursor.access(0x80, false);
    }

    #[test]
    #[should_panic(expected = "D-cache oracle divergence")]
    fn cursor_panics_on_exhaustion() {
        let geometry = CacheConfig::micro97_l1d();
        let (recorder, recording) = DcacheRecorder::new(geometry);
        drop(recorder);
        let mut cursor = DcacheOracleCursor::new(Arc::new(recording.finish()));
        let _ = cursor.access(0x40, false);
    }

    #[test]
    fn from_parts_rejects_misaligned_streams() {
        let mut one_bit = PackedBits::default();
        one_bit.push(true);
        assert!(DcacheOracle::from_parts(
            CacheConfig::micro97_l1d(),
            vec![0x40, 0x80],
            one_bit.clone(),
            one_bit,
        )
        .is_none());
    }
}
