//! Per-node storage engine: memtable + immutable segments + tombstones.
//!
//! A miniature log-structured engine in the spirit of Cassandra's
//! memtable/SSTable design, kept entirely in memory (the paper's index
//! entries are small chunk hashes; edge nodes hold them in RAM). Writes go
//! to a mutable memtable; when it exceeds a threshold it is frozen into an
//! immutable segment. Reads consult the memtable first, then segments from
//! newest to oldest. Deletes write tombstones. Compaction merges all
//! segments, dropping shadowed values and tombstones.

use crate::integrity::{checksum64, IntegrityError};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A write-side entry: a value (with the checksum recorded at write
/// time) or a tombstone.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slot {
    Value(Bytes, u64),
    Tombstone,
}

/// Counters describing engine state, used by resource accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Live key count (excluding tombstones, after shadowing).
    pub live_keys: usize,
    /// Bytes of live key+value payload.
    pub live_bytes: usize,
    /// Number of frozen segments.
    pub segments: usize,
    /// Total entries across memtable and segments (including shadowed and
    /// tombstones) — the engine's physical footprint.
    pub physical_entries: usize,
}

/// An in-memory log-structured key-value engine.
///
/// # Example
///
/// ```
/// use ef_kvstore::StorageEngine;
/// use bytes::Bytes;
///
/// let mut s = StorageEngine::new(1024);
/// s.put(Bytes::from_static(b"k"), Bytes::from_static(b"v"));
/// assert_eq!(s.get(b"k"), Some(Bytes::from_static(b"v")));
/// s.delete(Bytes::from_static(b"k"));
/// assert_eq!(s.get(b"k"), None);
/// ```
#[derive(Debug, Clone)]
pub struct StorageEngine {
    memtable: BTreeMap<Bytes, Slot>,
    memtable_bytes: usize,
    /// Frozen segments, oldest first.
    segments: Vec<BTreeMap<Bytes, Slot>>,
    flush_threshold_bytes: usize,
    writes: u64,
    reads: u64,
}

impl StorageEngine {
    /// Creates an engine that freezes its memtable after roughly
    /// `flush_threshold_bytes` of payload.
    ///
    /// # Panics
    ///
    /// Panics when the threshold is zero.
    pub fn new(flush_threshold_bytes: usize) -> Self {
        assert!(
            flush_threshold_bytes > 0,
            "flush threshold must be positive"
        );
        StorageEngine {
            memtable: BTreeMap::new(),
            memtable_bytes: 0,
            segments: Vec::new(),
            flush_threshold_bytes,
            writes: 0,
            reads: 0,
        }
    }

    /// Writes a key-value pair. Returns `true` when the key was not live
    /// before (useful for dedup's unique-chunk decision).
    pub fn put(&mut self, key: Bytes, value: Bytes) -> bool {
        self.writes = self.writes.wrapping_add(1);
        let existed = self.get_slot(&key).is_some();
        self.memtable_bytes = self
            .memtable_bytes
            .saturating_add(key.len())
            .saturating_add(value.len());
        let crc = checksum64(&value);
        self.memtable.insert(key, Slot::Value(value, crc));
        self.maybe_flush();
        !existed
    }

    /// Reads the live value of `key` without verification (fast path for
    /// callers that tolerate rot, e.g. test oracles). Replica-serving
    /// reads go through [`StorageEngine::get_verified`].
    pub fn get(&mut self, key: &[u8]) -> Option<Bytes> {
        self.reads = self.reads.wrapping_add(1);
        self.get_slot(key)
    }

    /// Reads the live value of `key`, verifying the checksum recorded
    /// when it was written.
    ///
    /// # Errors
    ///
    /// [`IntegrityError::CorruptValue`] when the stored bytes no longer
    /// match their checksum (at-rest bit rot). The corrupt entry is left
    /// in place; the caller decides whether to delete and repair it.
    pub fn get_verified(&mut self, key: &[u8]) -> Result<Option<Bytes>, IntegrityError> {
        self.reads = self.reads.wrapping_add(1);
        match self.newest_slot(key) {
            Some(Slot::Value(v, crc)) => {
                let actual = checksum64(v);
                if actual == *crc {
                    Ok(Some(v.clone()))
                } else {
                    Err(IntegrityError::CorruptValue {
                        key: Bytes::copy_from_slice(key),
                        expected: *crc,
                        actual,
                    })
                }
            }
            Some(Slot::Tombstone) | None => Ok(None),
        }
    }

    /// Read without bumping counters (internal + put's existence check).
    fn get_slot(&self, key: &[u8]) -> Option<Bytes> {
        match self.newest_slot(key) {
            Some(Slot::Value(v, _)) => Some(v.clone()),
            Some(Slot::Tombstone) | None => None,
        }
    }

    /// The newest slot shadowing `key`: memtable first, then segments
    /// newest to oldest.
    fn newest_slot(&self, key: &[u8]) -> Option<&Slot> {
        if let Some(slot) = self.memtable.get(key) {
            return Some(slot);
        }
        for seg in self.segments.iter().rev() {
            if let Some(slot) = seg.get(key) {
                return Some(slot);
            }
        }
        None
    }

    fn newest_slot_mut(&mut self, key: &[u8]) -> Option<&mut Slot> {
        if self.memtable.contains_key(key) {
            return self.memtable.get_mut(key);
        }
        for seg in self.segments.iter_mut().rev() {
            if seg.contains_key(key) {
                return seg.get_mut(key);
            }
        }
        None
    }

    /// Chaos hook: flips one bit in the `nth` live value (values counted
    /// in key order, newest version per key) *without* updating its
    /// checksum — simulated at-rest bit rot. Returns the corrupted key,
    /// or `None` when no such value exists or it is empty.
    pub fn corrupt_nth_value(&mut self, nth: usize, bit: usize) -> Option<Bytes> {
        let keys: Vec<Bytes> = self.iter_live().map(|(k, _)| k).collect();
        if keys.is_empty() {
            return None;
        }
        let key = keys[nth % keys.len()].clone();
        if let Some(Slot::Value(data, _)) = self.newest_slot_mut(&key) {
            if data.is_empty() {
                return None;
            }
            let mut v = data.to_vec();
            let i = (bit / 8) % v.len();
            v[i] ^= 1u8.wrapping_shl((bit % 8) as u32);
            *data = Bytes::from(v);
            return Some(key);
        }
        None
    }

    /// True when `key` has a live value.
    pub fn contains(&mut self, key: &[u8]) -> bool {
        self.get(key).is_some()
    }

    /// Deletes `key` by writing a tombstone.
    pub fn delete(&mut self, key: Bytes) {
        self.writes = self.writes.wrapping_add(1);
        self.memtable_bytes = self.memtable_bytes.saturating_add(key.len());
        self.memtable.insert(key, Slot::Tombstone);
        self.maybe_flush();
    }

    fn maybe_flush(&mut self) {
        if self.memtable_bytes >= self.flush_threshold_bytes {
            self.flush();
        }
    }

    /// Freezes the current memtable into an immutable segment.
    pub fn flush(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let frozen = std::mem::take(&mut self.memtable);
        self.memtable_bytes = 0;
        self.segments.push(frozen);
    }

    /// Merges all segments and the memtable into a single segment,
    /// dropping shadowed entries and tombstones.
    pub fn compact(&mut self) {
        self.flush();
        let mut merged: BTreeMap<Bytes, Slot> = BTreeMap::new();
        for seg in self.segments.drain(..) {
            // Later segments shadow earlier ones.
            for (k, v) in seg {
                merged.insert(k, v);
            }
        }
        merged.retain(|_, v| matches!(v, Slot::Value(..)));
        if !merged.is_empty() {
            self.segments.push(merged);
        }
    }

    /// Iterates over all live key-value pairs (newest version wins).
    pub fn iter_live(&self) -> impl Iterator<Item = (Bytes, Bytes)> + '_ {
        // Collect shadowing info: newest first, first slot wins.
        let mut seen: BTreeMap<Bytes, Option<Bytes>> = BTreeMap::new();
        for (k, v) in &self.memtable {
            seen.entry(k.clone()).or_insert(match v {
                Slot::Value(val, _) => Some(val.clone()),
                Slot::Tombstone => None,
            });
        }
        for seg in self.segments.iter().rev() {
            for (k, v) in seg {
                seen.entry(k.clone()).or_insert(match v {
                    Slot::Value(val, _) => Some(val.clone()),
                    Slot::Tombstone => None,
                });
            }
        }
        seen.into_iter().filter_map(|(k, v)| v.map(|val| (k, val)))
    }

    /// Verifies live entries in key order starting after `cursor`,
    /// stopping once `byte_budget` bytes of key+value payload have been
    /// checked (at least one entry is processed when any remains). This
    /// is the storage half of the background scrub pipeline: the sim
    /// driver charges the returned byte count as CPU/IO work and repairs
    /// the keys reported corrupt.
    ///
    /// Each step seeks the next key after the previous one in the
    /// memtable and in every segment, so a slice costs O(entries visited
    /// · sources · log n), independent of the store's size.
    pub fn scrub(&self, cursor: Option<&Bytes>, byte_budget: u64) -> ScrubChunk {
        let mut out = ScrubChunk::default();
        let mut at: Option<&[u8]> = cursor.map(|c| c.as_ref());
        while let Some(key) = self.next_key_after(at) {
            at = Some(key.as_ref());
            let Some(Slot::Value(data, crc)) = self.newest_slot(key) else {
                continue;
            };
            out.entries = out.entries.wrapping_add(1);
            out.bytes = out
                .bytes
                .saturating_add(key.len() as u64)
                .saturating_add(data.len() as u64);
            if checksum64(data) != *crc {
                out.corrupt.push(key.clone());
            }
            if out.bytes >= byte_budget {
                out.next_cursor = Some(key.clone());
                break;
            }
        }
        out
    }

    /// The smallest key strictly after `after` (from the start when
    /// `None`) in the memtable or any segment, live or tombstoned.
    fn next_key_after(&self, after: Option<&[u8]>) -> Option<&Bytes> {
        let lower = after.map_or(Bound::Unbounded, Bound::Excluded);
        std::iter::once(&self.memtable)
            .chain(&self.segments)
            .filter_map(|m| m.range::<[u8], _>((lower, Bound::Unbounded)).next())
            .map(|(k, _)| k)
            .min()
    }

    /// Current engine statistics.
    pub fn stats(&self) -> StorageStats {
        let mut live_keys = 0;
        let mut live_bytes = 0usize;
        for (k, v) in self.iter_live() {
            live_keys += 1;
            live_bytes = live_bytes.saturating_add(k.len()).saturating_add(v.len());
        }
        StorageStats {
            live_keys,
            live_bytes,
            segments: self.segments.len(),
            physical_entries: self
                .segments
                .iter()
                .fold(self.memtable.len(), |n, s| n.saturating_add(s.len())),
        }
    }

    /// Total writes accepted.
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Total reads served.
    pub fn read_count(&self) -> u64 {
        self.reads
    }
}

/// One bounded slice of a background scrub pass over a
/// [`StorageEngine`], produced by [`StorageEngine::scrub`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubChunk {
    /// Entries whose checksum was verified this slice.
    pub entries: u64,
    /// Bytes of key+value payload verified this slice.
    pub bytes: u64,
    /// Keys whose stored bytes failed verification.
    pub corrupt: Vec<Bytes>,
    /// Resume cursor: the next slice continues after this key. `None`
    /// when the pass reached the end of the store (wrap around).
    pub next_cursor: Option<Bytes>,
}

/// One durable log record, as replayed from a [`WriteAheadLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A key/value write.
    Put(Bytes, Bytes),
    /// A tombstone write.
    Delete(Bytes),
}

/// Errors surfaced when decoding a [`WriteAheadLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalError {
    /// A record was cut short (torn write): the log is valid up to
    /// `offset` bytes.
    Truncated {
        /// Byte offset of the incomplete record.
        offset: usize,
    },
    /// An unknown record tag at `offset`.
    BadTag {
        /// Byte offset of the bad record.
        offset: usize,
        /// The tag byte found there.
        tag: u8,
    },
    /// A record (or the snapshot block) failed its checksum at `offset`:
    /// the bytes decoded but no longer match what was written (bit rot).
    BadChecksum {
        /// Byte offset of the corrupt record within its section.
        offset: usize,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Truncated { offset } => write!(f, "wal truncated at byte {offset}"),
            WalError::BadTag { offset, tag } => {
                write!(f, "wal has unknown record tag {tag} at byte {offset}")
            }
            WalError::BadChecksum { offset } => {
                write!(f, "wal record failed checksum at byte {offset}")
            }
        }
    }
}

impl std::error::Error for WalError {}

const WAL_TAG_PUT: u8 = 1;
const WAL_TAG_DELETE: u8 = 2;

/// Encodes one record into `buf`:
/// `tag(u8) · key_len(u32 LE) · key [· val_len(u32 LE) · val] · crc(u64 LE)`,
/// where the trailing checksum covers every preceding byte of the record.
fn encode_record(buf: &mut Vec<u8>, key: &[u8], value: Option<&[u8]>) {
    let start = buf.len();
    match value {
        Some(v) => {
            buf.push(WAL_TAG_PUT);
            buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
            buf.extend_from_slice(key);
            buf.extend_from_slice(&(v.len() as u32).to_le_bytes());
            buf.extend_from_slice(v);
        }
        None => {
            buf.push(WAL_TAG_DELETE);
            buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
            buf.extend_from_slice(key);
        }
    }
    let crc = checksum64(&buf[start..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// One record's fields, borrowed from the log bytes: the key, and the
/// value of a put (`None` for a delete).
type RecordRef<'a> = (&'a [u8], Option<&'a [u8]>);

/// An owned copy of a borrowed record.
fn to_owned_record((key, value): RecordRef<'_>) -> WalRecord {
    let key = Bytes::copy_from_slice(key);
    match value {
        Some(v) => WalRecord::Put(key, Bytes::copy_from_slice(v)),
        None => WalRecord::Delete(key),
    }
}

/// Decodes the record starting at `offset`, verifying its trailing
/// checksum; `Ok(None)` at end of input. Key and value are borrowed
/// from `bytes`.
fn decode_record(bytes: &[u8], offset: usize) -> Result<Option<(RecordRef<'_>, usize)>, WalError> {
    if offset == bytes.len() {
        return Ok(None);
    }
    // Lengths come from disk: every field end is checked arithmetic, so
    // a rotted length reads as a torn record, never as an overflow.
    let torn = WalError::Truncated { offset };
    let field = |at: usize, n: usize| -> Result<(&[u8], usize), WalError> {
        let end = at.checked_add(n).ok_or(torn)?;
        Ok((bytes.get(at..end).ok_or(torn)?, end))
    };
    let len_field = |at: usize| -> Result<(usize, usize), WalError> {
        let (le, end) = field(at, 4)?;
        let mut buf = [0u8; 4];
        buf.copy_from_slice(le);
        Ok((u32::from_le_bytes(buf) as usize, end))
    };
    let tag = *bytes.get(offset).ok_or(torn)?;
    let (key_len, key_at) = len_field(offset + 1)?;
    let (key, mut body_end) = field(key_at, key_len)?;
    let value = match tag {
        WAL_TAG_PUT => {
            let (val_len, val_at) = len_field(body_end)?;
            let (value, end) = field(val_at, val_len)?;
            body_end = end;
            Some(value)
        }
        WAL_TAG_DELETE => None,
        tag => return Err(WalError::BadTag { offset, tag }),
    };
    let (crc, next) = field(body_end, 8)?;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(crc);
    let body = bytes.get(offset..body_end).ok_or(torn)?;
    if checksum64(body) != u64::from_le_bytes(buf) {
        return Err(WalError::BadChecksum { offset });
    }
    Ok(Some(((key, value), next)))
}

/// Decodes every record in one log section (snapshot or tail).
fn decode_section(bytes: &[u8]) -> Result<Vec<RecordRef<'_>>, WalError> {
    let mut out = Vec::new();
    let mut offset = 0;
    while let Some((record, next)) = decode_record(bytes, offset)? {
        out.push(record);
        offset = next;
    }
    Ok(out)
}

/// Encoded size of a put record: tag, two lengths, key, value, checksum.
fn put_record_len(key: &[u8], value: &[u8]) -> usize {
    (1 + 4 + 4 + 8usize)
        .saturating_add(key.len())
        .saturating_add(value.len())
}

/// A deterministic per-node write-ahead log with periodic snapshots.
///
/// The log is the in-sim "disk": an append-only byte buffer of encoded
/// mutations plus a compacted snapshot prefix. It survives a node's
/// crash-stop (the sim driver keeps it while the volatile
/// [`NodeState`](crate::NodeState) is dropped) and is replayed on
/// restart to rebuild the node's index shard. Alongside data records it
/// persists the coordinator's sequence floor, so op ids issued after a
/// restart never collide with pre-crash ones.
///
/// Snapshotting is self-compacting: once the tail accumulates
/// `snapshot_every` records — or as many records as the snapshot itself
/// holds, whichever is larger — the full log is folded into its live key
/// set and re-encoded as the new snapshot. The ratio trigger spaces
/// compactions geometrically on growing states, so append cost stays
/// amortized O(1) while disk growth stays within ~2x the live set for
/// workloads that overwrite or delete.
///
/// # Example
///
/// ```
/// use ef_kvstore::{WalRecord, WriteAheadLog};
/// use bytes::Bytes;
///
/// let mut wal = WriteAheadLog::new(128);
/// wal.append_put(b"k", b"v");
/// wal.append_delete(b"gone");
/// let records = wal.replay().unwrap();
/// assert_eq!(records[0], WalRecord::Put(Bytes::from_static(b"k"), Bytes::from_static(b"v")));
/// assert_eq!(records[1], WalRecord::Delete(Bytes::from_static(b"gone")));
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteAheadLog {
    /// Compacted prefix: the live state as encoded put records.
    snapshot: Vec<u8>,
    snapshot_entries: u64,
    /// Block checksum of `snapshot`, recorded at compaction time.
    snapshot_crc: u64,
    /// Records appended since the last snapshot.
    tail: Vec<u8>,
    tail_records: u64,
    /// The pre-compaction log (previous snapshot + the tail folded into
    /// the current snapshot), kept so recovery can fall back when the
    /// current snapshot fails verification.
    prev_snapshot: Vec<u8>,
    prev_snapshot_crc: u64,
    prev_tail: Vec<u8>,
    /// Tail records that trigger a snapshot compaction (0 disables).
    snapshot_every: u64,
    /// Lowest coordinator sequence number safe to issue after replay.
    seq_floor: u64,
    appended: u64,
    snapshots_taken: u64,
    /// Sticky decode error found while trying to compact a corrupt log.
    integrity_error: Option<WalError>,
    torn_tails_truncated: u64,
    snapshot_fallbacks: u64,
}

/// What a [`WriteAheadLog::recover_replay`] had to do beyond a clean
/// decode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayNotes {
    /// The current snapshot failed its checksum and recovery used the
    /// stashed pre-compaction log instead (then re-materialized the
    /// snapshot from it).
    pub snapshot_fallback: bool,
    /// The tail was torn mid-record: the valid prefix was kept, the torn
    /// suffix truncated.
    pub torn_tail: bool,
}

impl WriteAheadLog {
    /// Creates an empty log that compacts into a snapshot every
    /// `snapshot_every` tail records (`0` disables snapshotting).
    pub fn new(snapshot_every: u64) -> Self {
        WriteAheadLog {
            snapshot_every,
            ..WriteAheadLog::default()
        }
    }

    /// Appends a put record.
    pub fn append_put(&mut self, key: &[u8], value: &[u8]) {
        encode_record(&mut self.tail, key, Some(value));
        self.tail_records = self.tail_records.wrapping_add(1);
        self.appended = self.appended.wrapping_add(1);
        self.maybe_snapshot();
    }

    /// Appends a delete (tombstone) record.
    pub fn append_delete(&mut self, key: &[u8]) {
        encode_record(&mut self.tail, key, None);
        self.tail_records = self.tail_records.wrapping_add(1);
        self.appended = self.appended.wrapping_add(1);
        self.maybe_snapshot();
    }

    /// Persists the coordinator sequence floor: after replay, op
    /// sequence numbers resume at this value (monotone; stale floors are
    /// ignored).
    pub fn set_seq_floor(&mut self, seq: u64) {
        self.seq_floor = self.seq_floor.max(seq);
    }

    /// The persisted coordinator sequence floor.
    pub fn seq_floor(&self) -> u64 {
        self.seq_floor
    }

    /// Replays the whole log — snapshot prefix, then tail — in append
    /// order. Applying the records to an empty
    /// [`StorageEngine`] reproduces the live state at crash time.
    ///
    /// This is the strict decoder: any damage is an error. Restart paths
    /// that want the torn-tail/rotted-snapshot recovery semantics use
    /// [`WriteAheadLog::recover_replay`] instead.
    ///
    /// # Errors
    ///
    /// [`WalError`] when a record is torn, has an unknown tag, or fails
    /// its checksum.
    pub fn replay(&self) -> Result<Vec<WalRecord>, WalError> {
        let snapshot = decode_section(&self.snapshot)?;
        let tail = decode_section(&self.tail)?;
        Ok(snapshot
            .into_iter()
            .chain(tail)
            .map(to_owned_record)
            .collect())
    }

    /// Replays the log for a node restart, applying the recovery lattice
    /// instead of failing on the first damaged byte:
    ///
    /// * a snapshot that fails its block checksum is rebuilt from the
    ///   stashed pre-compaction log (previous snapshot + the tail that
    ///   was folded into it), self-healing the disk image;
    /// * a *torn tail* — the suffix cut mid-record by a crash (or a
    ///   rotted length field, indistinguishable from one) — is truncated
    ///   to the last valid record and counted, keeping the valid prefix;
    /// * anything else (bad tag or failed record checksum mid-log) is a
    ///   *corrupt body* and surfaces as an error — the caller decides
    ///   whether the node stays dead.
    ///
    /// Returns the replayable records plus [`ReplayNotes`] describing
    /// what recovery had to do.
    ///
    /// # Errors
    ///
    /// [`WalError`] when the body is corrupt beyond the snapshot
    /// fallback: never silently-accepted data.
    pub fn recover_replay(&mut self) -> Result<(Vec<WalRecord>, ReplayNotes), WalError> {
        let mut records = Vec::new();
        let notes = self.recover(|record| records.push(to_owned_record(record)))?;
        Ok((records, notes))
    }

    /// The recovery lattice of [`WriteAheadLog::recover_replay`]: heals
    /// the log in place and hands every surviving record, in append
    /// order, to `visit`. On error `visit` may have seen a prefix.
    fn recover(&mut self, mut visit: impl FnMut(RecordRef<'_>)) -> Result<ReplayNotes, WalError> {
        let mut notes = ReplayNotes::default();
        let snapshot_clean =
            self.snapshot.is_empty() || checksum64(&self.snapshot) == self.snapshot_crc;
        let decoded = if snapshot_clean {
            decode_section(&self.snapshot)
        } else {
            Err(WalError::BadChecksum { offset: 0 })
        };
        match decoded {
            Ok(records) => records.into_iter().for_each(&mut visit),
            Err(e) => {
                // The compacted prefix is rot-damaged: fall back to the
                // stashed pre-compaction log, if it is intact.
                if self.prev_snapshot.is_empty() && self.prev_tail.is_empty() {
                    return Err(e);
                }
                if !self.prev_snapshot.is_empty()
                    && checksum64(&self.prev_snapshot) != self.prev_snapshot_crc
                {
                    return Err(e);
                }
                let mut rebuilt = self.prev_snapshot.clone();
                rebuilt.extend_from_slice(&self.prev_tail);
                let records = decode_section(&rebuilt).map_err(|_| e)?;
                self.snapshot_entries = records.len() as u64;
                records.into_iter().for_each(&mut visit);
                self.snapshot_crc = checksum64(&rebuilt);
                self.snapshot = rebuilt;
                self.snapshot_fallbacks = self.snapshot_fallbacks.wrapping_add(1);
                notes.snapshot_fallback = true;
            }
        }
        let mut offset = 0;
        let mut tail_count = 0u64;
        loop {
            match decode_record(&self.tail, offset) {
                Ok(None) => break,
                Ok(Some((record, next))) => {
                    visit(record);
                    tail_count = tail_count.wrapping_add(1);
                    offset = next;
                }
                Err(WalError::Truncated { .. }) => {
                    self.tail.truncate(offset);
                    self.tail_records = tail_count;
                    self.torn_tails_truncated = self.torn_tails_truncated.wrapping_add(1);
                    notes.torn_tail = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(notes)
    }

    /// Verifies the log as it stands — the snapshot block checksum, every
    /// record checksum, no torn tail — and folds it into its live key
    /// set, newest write per key, borrowing keys and values from the log.
    fn fold_verified(&self) -> Result<BTreeMap<&[u8], Option<&[u8]>>, WalError> {
        if !self.snapshot.is_empty() && checksum64(&self.snapshot) != self.snapshot_crc {
            return Err(WalError::BadChecksum { offset: 0 });
        }
        let mut live = BTreeMap::new();
        for section in [&self.snapshot, &self.tail] {
            let mut offset = 0;
            while let Some(((key, value), next)) = decode_record(section, offset)? {
                live.insert(key, value);
                offset = next;
            }
        }
        Ok(live)
    }

    /// Folds the full log into its live key set and re-encodes it as the
    /// snapshot, emptying the tail. The pre-compaction log is stashed so
    /// a later rotted snapshot can fall back to it. When the log body is
    /// corrupt, compaction stops (it would bake the damage in) and the
    /// error is held for [`WriteAheadLog::integrity_error`] — never
    /// swallowed.
    fn maybe_snapshot(&mut self) {
        // Ratio trigger: compact once the tail has grown to the size of
        // the snapshot itself (but never before `snapshot_every`
        // records). A fixed cadence re-encodes the whole live set every
        // `snapshot_every` appends — O(state) work at O(1) intervals,
        // quadratic on a monotonically growing state like an upload
        // spool absorbing a long outage. The ratio spaces compactions
        // geometrically, so each record is re-encoded O(1) amortized
        // times while the footprint stays within ~2x the live set.
        if self.snapshot_every == 0
            || self.tail_records < self.snapshot_every.max(self.snapshot_entries)
        {
            return;
        }
        if self.integrity_error.is_some() {
            // Known-corrupt: keep the log as-is for recovery/diagnosis.
            return;
        }
        // A clean log is verified and folded in one pass, without
        // copying a key or value. Damage the recovery lattice can heal (a
        // rotted snapshot, a torn tail) is healed first, then the healed
        // log is folded; damage it cannot heal is held, sticky.
        let live = match self.fold_verified() {
            Ok(live) => live,
            Err(_) => {
                let healed = self.recover(|_| {}).and_then(|_| self.fold_verified());
                match healed {
                    Ok(live) => live,
                    Err(e) => {
                        self.integrity_error = Some(e);
                        return;
                    }
                }
            }
        };
        // A snapshot is the complete state: absent keys are absent, so
        // tombstones need not be carried forward.
        let puts = || live.iter().filter_map(|(k, v)| v.map(|v| (*k, v)));
        let size = puts().fold(0usize, |n, (k, v)| n.saturating_add(put_record_len(k, v)));
        let mut snapshot = Vec::with_capacity(size);
        let mut entries = 0u64;
        for (k, v) in puts() {
            encode_record(&mut snapshot, k, Some(v));
            entries = entries.wrapping_add(1);
        }
        drop(live);
        self.prev_snapshot = std::mem::take(&mut self.snapshot);
        self.prev_snapshot_crc = self.snapshot_crc;
        self.prev_tail = std::mem::take(&mut self.tail);
        self.snapshot = snapshot;
        self.snapshot_entries = entries;
        self.snapshot_crc = checksum64(&self.snapshot);
        self.tail_records = 0;
        self.snapshots_taken = self.snapshots_taken.wrapping_add(1);
    }

    /// Chaos hook: flips one bit in the on-disk byte space (snapshot
    /// first, then tail) *without* touching any checksum — simulated
    /// at-rest bit rot. Returns `false` when the log is empty.
    pub fn flip_bit(&mut self, nth_byte: usize, bit: usize) -> bool {
        let total = self.snapshot.len().saturating_add(self.tail.len());
        if total == 0 {
            return false;
        }
        let i = nth_byte % total;
        let mask = 1u8.wrapping_shl((bit % 8) as u32);
        if i < self.snapshot.len() {
            self.snapshot[i] ^= mask;
        } else {
            self.tail[i - self.snapshot.len()] ^= mask;
        }
        true
    }

    /// Tails truncated to their last valid record by recovery.
    pub fn torn_tails_truncated(&self) -> u64 {
        self.torn_tails_truncated
    }

    /// Recoveries that fell back to the stashed pre-compaction log after
    /// the current snapshot failed its checksum.
    pub fn snapshot_fallbacks(&self) -> u64 {
        self.snapshot_fallbacks
    }

    /// The decode error that stopped in-line compaction, if any. Sticky:
    /// once set, the log stops compacting so the damage stays visible to
    /// the next recovery instead of being folded into a snapshot.
    pub fn integrity_error(&self) -> Option<WalError> {
        self.integrity_error
    }

    /// Records currently on disk (snapshot entries + tail records).
    pub fn record_count(&self) -> u64 {
        self.snapshot_entries.saturating_add(self.tail_records)
    }

    /// Total records ever appended (pre-compaction).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Snapshot compactions taken.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken
    }

    /// Current on-disk footprint in bytes.
    pub fn len_bytes(&self) -> usize {
        self.snapshot.len().saturating_add(self.tail.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = StorageEngine::new(1 << 20);
        assert!(s.put(b("a"), b("1")));
        assert!(!s.put(b("a"), b("2"))); // overwrite: key existed
        assert_eq!(s.get(b"a"), Some(b("2")));
        assert_eq!(s.get(b"missing"), None);
    }

    #[test]
    fn delete_hides_value() {
        let mut s = StorageEngine::new(1 << 20);
        s.put(b("a"), b("1"));
        s.delete(b("a"));
        assert_eq!(s.get(b"a"), None);
        assert!(!s.contains(b"a"));
        // Re-insert after delete counts as new.
        assert!(s.put(b("a"), b("3")));
        assert_eq!(s.get(b"a"), Some(b("3")));
    }

    #[test]
    fn reads_cross_segment_boundaries() {
        let mut s = StorageEngine::new(8); // tiny threshold: flush often
        for i in 0..100u32 {
            s.put(Bytes::from(i.to_be_bytes().to_vec()), b("v"));
        }
        assert!(s.stats().segments > 1, "expected multiple segments");
        for i in 0..100u32 {
            assert!(s.contains(&i.to_be_bytes()), "lost key {i}");
        }
    }

    #[test]
    fn newest_segment_shadows_oldest() {
        let mut s = StorageEngine::new(4);
        s.put(b("k"), b("old"));
        s.flush();
        s.put(b("k"), b("new"));
        s.flush();
        assert_eq!(s.get(b"k"), Some(b("new")));
    }

    #[test]
    fn tombstone_survives_flush() {
        let mut s = StorageEngine::new(1 << 20);
        s.put(b("k"), b("v"));
        s.flush();
        s.delete(b("k"));
        s.flush();
        assert_eq!(s.get(b"k"), None);
    }

    #[test]
    fn compaction_drops_garbage() {
        let mut s = StorageEngine::new(4);
        for _ in 0..10 {
            s.put(b("k"), b("v"));
        }
        s.delete(b("k"));
        s.put(b("live"), b("x"));
        s.compact();
        let st = s.stats();
        assert_eq!(st.live_keys, 1);
        assert_eq!(st.segments, 1);
        assert_eq!(st.physical_entries, 1, "garbage not dropped");
        assert_eq!(s.get(b"live"), Some(b("x")));
        assert_eq!(s.get(b"k"), None);
    }

    #[test]
    fn compact_empty_engine() {
        let mut s = StorageEngine::new(16);
        s.compact();
        assert_eq!(s.stats(), StorageStats::default());
    }

    #[test]
    fn iter_live_sees_each_key_once() {
        let mut s = StorageEngine::new(4);
        s.put(b("a"), b("1"));
        s.flush();
        s.put(b("a"), b("2"));
        s.put(b("b"), b("3"));
        let live: Vec<_> = s.iter_live().collect();
        assert_eq!(live.len(), 2);
        assert!(live.contains(&(b("a"), b("2"))));
        assert!(live.contains(&(b("b"), b("3"))));
    }

    #[test]
    fn counters_track_operations() {
        let mut s = StorageEngine::new(1 << 20);
        s.put(b("a"), b("1"));
        s.get(b"a");
        s.get(b"b");
        s.delete(b("a"));
        assert_eq!(s.write_count(), 2); // one put + one delete
        assert_eq!(s.read_count(), 2);
    }

    #[test]
    fn stats_live_bytes() {
        let mut s = StorageEngine::new(1 << 20);
        s.put(b("key"), b("value"));
        let st = s.stats();
        assert_eq!(st.live_keys, 1);
        assert_eq!(st.live_bytes, 8);
    }

    #[test]
    fn wal_replays_records_in_append_order() {
        let mut wal = WriteAheadLog::new(0);
        wal.append_put(b"a", b"1");
        wal.append_delete(b"a");
        wal.append_put(b"b", b"2");
        assert_eq!(
            wal.replay().unwrap(),
            vec![
                WalRecord::Put(b("a"), b("1")),
                WalRecord::Delete(b("a")),
                WalRecord::Put(b("b"), b("2")),
            ],
        );
        assert_eq!(wal.appended(), 3);
        assert_eq!(wal.record_count(), 3);
        assert_eq!(wal.snapshots_taken(), 0);
    }

    #[test]
    fn wal_snapshot_compacts_shadowed_and_deleted_keys() {
        let mut wal = WriteAheadLog::new(4);
        wal.append_put(b"a", b"1");
        wal.append_put(b"a", b"2"); // shadows
        wal.append_put(b"c", b"3");
        wal.append_delete(b"c"); // 4th record triggers the snapshot
        assert_eq!(wal.snapshots_taken(), 1);
        // Only the live key survives compaction.
        assert_eq!(wal.replay().unwrap(), vec![WalRecord::Put(b("a"), b("2"))]);
        assert_eq!(wal.record_count(), 1);
        assert_eq!(wal.appended(), 4);
        // Tail keeps accumulating after the snapshot.
        wal.append_put(b"d", b"4");
        assert_eq!(
            wal.replay().unwrap(),
            vec![
                WalRecord::Put(b("a"), b("2")),
                WalRecord::Put(b("d"), b("4"))
            ],
        );
    }

    #[test]
    fn wal_replay_rebuilds_identical_engine_state() {
        let mut engine = StorageEngine::new(64);
        let mut wal = WriteAheadLog::new(3);
        let ops: &[(&str, Option<&str>)] = &[
            ("k1", Some("v1")),
            ("k2", Some("v2")),
            ("k1", Some("v1b")),
            ("k3", Some("v3")),
            ("k2", None),
            ("k4", Some("v4")),
        ];
        for (k, v) in ops {
            match v {
                Some(v) => {
                    engine.put(b(k), b(v));
                    wal.append_put(k.as_bytes(), v.as_bytes());
                }
                None => {
                    engine.delete(b(k));
                    wal.append_delete(k.as_bytes());
                }
            }
        }
        let mut rebuilt = StorageEngine::new(64);
        for record in wal.replay().unwrap() {
            match record {
                WalRecord::Put(k, v) => {
                    rebuilt.put(k, v);
                }
                WalRecord::Delete(k) => {
                    rebuilt.delete(k);
                }
            }
        }
        let mut want: Vec<_> = engine.iter_live().collect();
        let mut got: Vec<_> = rebuilt.iter_live().collect();
        want.sort();
        got.sort();
        assert_eq!(want, got);
    }

    #[test]
    fn wal_seq_floor_is_monotone() {
        let mut wal = WriteAheadLog::new(0);
        assert_eq!(wal.seq_floor(), 0);
        wal.set_seq_floor(7);
        wal.set_seq_floor(3); // stale floor ignored
        assert_eq!(wal.seq_floor(), 7);
    }

    #[test]
    fn wal_truncated_record_is_an_error() {
        let mut wal = WriteAheadLog::new(0);
        wal.append_put(b"key", b"value");
        // Simulate a torn write by chopping the tail mid-record.
        wal.tail.truncate(wal.tail.len() - 2);
        assert_eq!(wal.replay(), Err(WalError::Truncated { offset: 0 }));
    }

    #[test]
    fn wal_bad_tag_is_an_error() {
        let mut wal = WriteAheadLog::new(0);
        wal.append_put(b"k", b"v");
        wal.tail[0] = 9;
        assert_eq!(wal.replay(), Err(WalError::BadTag { offset: 0, tag: 9 }));
        assert!(wal.replay().unwrap_err().to_string().contains("tag 9"));
    }

    #[test]
    fn wal_zero_snapshot_every_never_compacts() {
        let mut wal = WriteAheadLog::new(0);
        for i in 0..100u32 {
            wal.append_put(b"same", &i.to_le_bytes());
        }
        assert_eq!(wal.snapshots_taken(), 0);
        assert_eq!(wal.record_count(), 100);
    }

    #[test]
    fn get_verified_rejects_rotted_value() {
        let mut s = StorageEngine::new(1 << 20);
        s.put(b("k"), b("payload"));
        assert_eq!(s.get_verified(b"k"), Ok(Some(b("payload"))));
        assert_eq!(s.get_verified(b"missing"), Ok(None));
        let key = s.corrupt_nth_value(0, 9).unwrap();
        assert_eq!(key, b("k"));
        let IntegrityError::CorruptValue {
            key,
            expected,
            actual,
        } = s.get_verified(b"k").unwrap_err();
        assert_eq!(key, b("k"));
        assert_ne!(expected, actual);
        // The unverified fast path still serves the rotted bytes.
        assert!(s.get(b"k").is_some());
    }

    #[test]
    fn scrub_finds_rot_under_byte_budget() {
        let mut s = StorageEngine::new(32); // tiny threshold: spans segments
        for i in 0..20u32 {
            s.put(Bytes::from(format!("key{i:02}").into_bytes()), b("value"));
        }
        let rotted = s.corrupt_nth_value(7, 13).unwrap();
        let mut cursor: Option<Bytes> = None;
        let mut entries = 0;
        let mut corrupt: Vec<Bytes> = Vec::new();
        let mut slices = 0;
        loop {
            let chunk = s.scrub(cursor.as_ref(), 30);
            entries += chunk.entries;
            corrupt.extend(chunk.corrupt);
            slices += 1;
            match chunk.next_cursor {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        assert!(slices > 1, "byte budget should bound each slice");
        assert_eq!(entries, 20, "scrub must visit every live entry once");
        assert_eq!(corrupt, vec![rotted]);
    }

    /// The scrub as it was before it walked from the cursor: rebuild
    /// the whole live map, then skip to the cursor. The reference the
    /// cursor walk must match.
    fn scrub_by_rebuild(s: &StorageEngine, cursor: Option<&Bytes>, byte_budget: u64) -> ScrubChunk {
        let mut live: BTreeMap<Bytes, Option<(Bytes, u64)>> = BTreeMap::new();
        for seg in std::iter::once(&s.memtable).chain(s.segments.iter().rev()) {
            for (k, v) in seg {
                live.entry(k.clone()).or_insert(match v {
                    Slot::Value(data, crc) => Some((data.clone(), *crc)),
                    Slot::Tombstone => None,
                });
            }
        }
        let mut out = ScrubChunk::default();
        let mut last = None;
        let mut exhausted = true;
        for (k, slot) in live {
            if cursor.is_some_and(|c| k <= *c) {
                continue;
            }
            let Some((data, crc)) = slot else { continue };
            out.entries += 1;
            out.bytes += (k.len() + data.len()) as u64;
            if checksum64(&data) != crc {
                out.corrupt.push(k.clone());
            }
            last = Some(k);
            if out.bytes >= byte_budget {
                exhausted = false;
                break;
            }
        }
        out.next_cursor = if exhausted { None } else { last };
        out
    }

    /// A key from a small pool, so writes shadow and delete each other.
    fn pooled_key(rng: &mut ef_simcore::DetRng) -> Bytes {
        Bytes::from(format!("k{}", rng.index(16)).into_bytes())
    }

    #[test]
    fn cursor_walk_scrub_matches_the_rebuild() {
        ef_simcore::check_property("cursor_walk_scrub_matches_the_rebuild", 64, |rng| {
            let mut s = StorageEngine::new(8 + rng.index(64));
            for _ in 0..rng.index(80) {
                match rng.index(10) {
                    0..=5 => {
                        let mut v = vec![0u8; rng.index(12)];
                        rng.fill_bytes(&mut v);
                        s.put(pooled_key(rng), Bytes::from(v));
                    }
                    6 | 7 => s.delete(pooled_key(rng)),
                    8 => s.flush(),
                    _ => {
                        s.corrupt_nth_value(rng.index(32), rng.index(96));
                    }
                }
            }
            if rng.index(8) == 0 {
                s.compact();
            }
            for _ in 0..16 {
                let cursor = match rng.index(3) {
                    0 => None,
                    // Pool keys, plus a few never written.
                    _ => Some(Bytes::from(format!("k{}", rng.index(20)).into_bytes())),
                };
                let budget = match rng.index(4) {
                    0 => u64::MAX,
                    _ => rng.index(40) as u64,
                };
                assert_eq!(
                    s.scrub(cursor.as_ref(), budget),
                    scrub_by_rebuild(&s, cursor.as_ref(), budget),
                    "cursor {cursor:?}, budget {budget}"
                );
            }
        });
    }

    #[test]
    fn scrub_of_clean_store_is_quiet() {
        let mut s = StorageEngine::new(1 << 20);
        s.put(b("a"), b("1"));
        s.put(b("b"), b("2"));
        let chunk = s.scrub(None, u64::MAX);
        assert_eq!(chunk.entries, 2);
        assert!(chunk.corrupt.is_empty());
        assert_eq!(chunk.next_cursor, None);
    }

    #[test]
    fn wal_rotted_record_body_fails_checksum() {
        let mut wal = WriteAheadLog::new(0);
        wal.append_put(b"k", b"vvvv");
        // tag(1) + key_len(4) + key(1) + val_len(4) → byte 10 is the
        // first value byte; lengths stay intact so decode reaches the CRC.
        wal.tail[10] ^= 0x04;
        assert_eq!(wal.replay(), Err(WalError::BadChecksum { offset: 0 }));
        assert!(wal
            .replay()
            .unwrap_err()
            .to_string()
            .contains("failed checksum"));
    }

    #[test]
    fn wal_recover_truncates_torn_tail_and_keeps_prefix() {
        let mut wal = WriteAheadLog::new(0);
        wal.append_put(b"a", b"1");
        wal.append_put(b"b", b"2");
        wal.tail.truncate(wal.tail.len() - 3); // tear the 2nd record
        assert!(wal.replay().is_err(), "strict decoder must reject a tear");
        let (records, notes) = wal.recover_replay().unwrap();
        assert_eq!(records, vec![WalRecord::Put(b("a"), b("1"))]);
        assert!(notes.torn_tail && !notes.snapshot_fallback);
        assert_eq!(wal.torn_tails_truncated(), 1);
        // Self-healed: appends keep working on the kept prefix.
        wal.append_put(b"c", b"3");
        assert_eq!(
            wal.replay().unwrap(),
            vec![
                WalRecord::Put(b("a"), b("1")),
                WalRecord::Put(b("c"), b("3"))
            ],
        );
        assert_eq!(wal.record_count(), 2);
    }

    #[test]
    fn wal_corrupt_body_surfaces_and_stops_compaction() {
        // Mid-log rot that is not a torn tail is a corrupt body: recovery
        // refuses it rather than guessing.
        let mut wal = WriteAheadLog::new(0);
        wal.append_put(b"a", b"1");
        wal.append_put(b"b", b"2");
        wal.tail[10] ^= 0x80; // value byte of the *first* record
        assert_eq!(
            wal.recover_replay(),
            Err(WalError::BadChecksum { offset: 0 })
        );

        // In-line compaction holds the error instead of swallowing it.
        let mut wal = WriteAheadLog::new(3);
        wal.append_put(b"a", b"1");
        wal.append_put(b"b", b"2");
        wal.tail[10] ^= 0x80;
        wal.append_put(b"c", b"3"); // threshold reached → tries to compact
        assert_eq!(wal.snapshots_taken(), 0);
        assert_eq!(
            wal.integrity_error(),
            Some(WalError::BadChecksum { offset: 0 })
        );
        wal.append_put(b"d", b"4"); // error stays sticky
        assert_eq!(wal.snapshots_taken(), 0);
    }

    /// Folds replayed records into the final live state.
    fn fold_live(records: &[WalRecord]) -> Vec<(Bytes, Bytes)> {
        let mut live: BTreeMap<Bytes, Option<Bytes>> = BTreeMap::new();
        for r in records {
            match r {
                WalRecord::Put(k, v) => {
                    live.insert(k.clone(), Some(v.clone()));
                }
                WalRecord::Delete(k) => {
                    live.insert(k.clone(), None);
                }
            }
        }
        live.into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect()
    }

    /// A log that has compacted once (so a pre-compaction stash exists)
    /// plus `extra` tail records, and its clean final state.
    fn snapshot_wal_fixture(extra: usize) -> (WriteAheadLog, Vec<(Bytes, Bytes)>) {
        let mut wal = WriteAheadLog::new(4);
        wal.append_put(b"a", b"1");
        wal.append_put(b"b", b"2");
        wal.append_put(b"c", b"3");
        wal.append_put(b"a", b"x"); // 4th record triggers the snapshot
        assert_eq!(wal.snapshots_taken(), 1);
        for i in 0..extra {
            wal.append_put(format!("t{i}").as_bytes(), b"tail");
        }
        let clean = fold_live(&wal.replay().unwrap());
        (wal, clean)
    }

    #[test]
    fn every_snapshot_bit_flip_falls_back_and_recovers() {
        // Deterministic companion to the property test below: exhaustive over
        // every bit of the snapshot block.
        let (wal, clean) = snapshot_wal_fixture(2);
        let snap_len = wal.snapshot.len();
        assert!(snap_len > 0);
        for byte in 0..snap_len {
            for bit in 0..8 {
                let mut rotted = wal.clone();
                assert!(rotted.flip_bit(byte, bit));
                let (records, notes) = rotted.recover_replay().expect("fallback must recover");
                assert!(notes.snapshot_fallback, "flip {byte}:{bit} undetected");
                assert_eq!(fold_live(&records), clean, "flip {byte}:{bit} diverged");
                assert_eq!(rotted.snapshot_fallbacks(), 1);
                // Self-healed: the strict decoder accepts the disk again.
                assert!(rotted.replay().is_ok());
            }
        }
    }

    #[test]
    fn flip_bit_addresses_snapshot_then_tail() {
        let mut wal = WriteAheadLog::new(0);
        assert!(!wal.flip_bit(0, 0), "empty log has nothing to rot");
        wal.append_put(b"k", b"v");
        let before = wal.tail.clone();
        assert!(wal.flip_bit(3, 5));
        assert_ne!(wal.tail, before);
        wal.flip_bit(3, 5); // flipping back restores the bytes
        assert_eq!(wal.tail, before);
        assert!(wal.replay().is_ok());
    }

    /// Compaction as it was before it folded borrowed slices: owned
    /// records from `recover_replay` into a `BTreeMap`, re-encoded.
    fn snapshot_by_owned_fold(wal: &mut WriteAheadLog) -> (Vec<u8>, u64) {
        let (records, _) = wal.recover_replay().expect("clean log");
        let mut live: BTreeMap<Bytes, Option<Bytes>> = BTreeMap::new();
        for record in records {
            match record {
                WalRecord::Put(k, v) => live.insert(k, Some(v)),
                WalRecord::Delete(k) => live.insert(k, None),
            };
        }
        let mut snapshot = Vec::new();
        let mut entries = 0;
        for (k, v) in &live {
            if let Some(v) = v {
                encode_record(&mut snapshot, k, Some(v));
                entries += 1;
            }
        }
        (snapshot, entries)
    }

    #[test]
    fn borrowed_fold_compaction_matches_the_owned_fold() {
        ef_simcore::check_property(
            "borrowed_fold_compaction_matches_the_owned_fold",
            64,
            |rng| {
                let mut wal = WriteAheadLog::new(1 + rng.index(8) as u64);
                let mut compactions = 0;
                for _ in 0..rng.index(160) {
                    if rng.index(16) == 0 && !wal.snapshot.is_empty() {
                        // A rotted snapshot: compaction falls back first.
                        wal.flip_bit(rng.index(wal.snapshot.len()), rng.index(8));
                    }
                    let key = pooled_key(rng);
                    let value = if rng.index(4) == 0 {
                        None
                    } else {
                        let mut v = vec![0u8; rng.index(24)];
                        rng.fill_bytes(&mut v);
                        Some(v)
                    };
                    // The reference: the same log, same record, compacted
                    // by the owned fold.
                    let mut reference = wal.clone();
                    reference.snapshot_every = 0;
                    match &value {
                        Some(v) => {
                            wal.append_put(&key, v);
                            reference.append_put(&key, v);
                        }
                        None => {
                            wal.append_delete(&key);
                            reference.append_delete(&key);
                        }
                    }
                    if wal.snapshots_taken() > compactions {
                        compactions = wal.snapshots_taken();
                        let (snapshot, entries) = snapshot_by_owned_fold(&mut reference);
                        assert_eq!(wal.snapshot, snapshot);
                        assert_eq!(wal.snapshot_entries, entries);
                        assert_eq!(wal.snapshot_crc, checksum64(&snapshot));
                        assert_eq!(wal.snapshot_fallbacks(), reference.snapshot_fallbacks());
                    }
                }
                assert_eq!(wal.integrity_error(), None);
            },
        );
    }

    /// A snapshot with flipped bits is rejected by its block checksum
    /// and recovery falls back to the prior snapshot + full WAL
    /// replay, reaching a final state identical to the undamaged log.
    #[test]
    fn rotted_snapshot_recovery_matches_clean_state() {
        ef_simcore::check_property("rotted_snapshot_recovery_matches_clean_state", 64, |rng| {
            let byte = rng.index(10_000);
            let bit = rng.index(8);
            let extra = rng.index(4);
            let (wal, clean) = snapshot_wal_fixture(extra);
            let mut rotted = wal.clone();
            let snap_len = rotted.snapshot.len();
            assert!(snap_len > 0);
            assert!(rotted.flip_bit(byte % snap_len, bit));
            let (records, notes) = rotted
                .recover_replay()
                .expect("snapshot fallback must recover");
            assert!(notes.snapshot_fallback);
            assert_eq!(fold_live(&records), clean);
            assert_eq!(rotted.snapshot_fallbacks(), 1);
            assert!(rotted.replay().is_ok());
        });
    }
}
