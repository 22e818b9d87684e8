//! End-to-end integrity: checksums, typed corruption errors, and the
//! counters that account for every detected/repaired/lost byte.
//!
//! A dedup index is uniquely fragile to *silent* corruption: one flipped
//! bit in an index entry can manufacture a false duplicate — the exact
//! soundness property the D2-ring design depends on. Every durable or
//! wire-crossing byte in this crate therefore carries a checksum
//! ([`checksum64`]), every read boundary verifies it, and every verdict
//! (rejected frame, scrubbed entry, repaired or lost record) lands in
//! [`IntegrityStats`] — detected corruption is a typed event, never a
//! panic and never silently-accepted data.

/// The 64-bit FNV prime: the multiplier of every mixing step.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Rotation applied after each word's multiply. Any amount keeps the
/// step a bijection; a non-zero one moves a flipped bit off its own
/// position, so the same flip in the next word cannot cancel it.
const WORD_ROTATION: u32 = 29;

/// Streaming 64-bit checksum, mixed one 8-byte word at a time.
///
/// Each little-endian word `w` of the input steps the state through
/// `state = rotl((state ^ w) · p, 29)`, `p` the 64-bit FNV prime; the last
/// `len % 8` bytes go through byte-wise FNV-1a (`state = (state ^ b) · p`)
/// and a splitmix64 avalanche finishes the digest. The offset basis is
/// the ring's `key_token` basis perturbed, so index tokens and checksums
/// never collide structurally.
///
/// For a fixed input word every step is a bijection of the state, and
/// for a fixed state it is a bijection of the word, so any change
/// confined to one word (or one tail byte) always changes the digest.
/// The rotation keeps equal bit flips in two different words from
/// cancelling, which a plain word-wise FNV lets through at bit 63.
///
/// Streaming: any split of the input across [`Checksum64::update`] calls
/// gives the one-shot digest; at most 7 bytes wait for their word.
///
/// Not cryptographic — it detects the random bit flips the fault model
/// injects, like the CRCs real storage engines use.
#[derive(Debug, Clone, Copy)]
pub struct Checksum64 {
    state: u64,
    /// Bytes of a word not yet complete; only `pending[..pending_len]`
    /// is live.
    pending: [u8; 8],
    pending_len: usize,
}

impl Default for Checksum64 {
    fn default() -> Self {
        Checksum64::new()
    }
}

/// One word step: xor, FNV multiply, rotate.
fn mix_word(state: u64, word: u64) -> u64 {
    (state ^ word)
        .wrapping_mul(FNV_PRIME)
        .rotate_left(WORD_ROTATION)
}

impl Checksum64 {
    /// A fresh checksum state.
    pub fn new() -> Self {
        // FNV offset basis, perturbed so a checksum of a key never equals
        // the ring's `key_token` of the same bytes.
        Checksum64 {
            state: 0xcbf2_9ce4_8422_2325 ^ 0x5bd1_e995,
            pending: [0; 8],
            pending_len: 0,
        }
    }

    /// Mixes `bytes` into the state.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.pending_len > 0 {
            let take = (8 - self.pending_len).min(bytes.len());
            let (head, rest) = bytes.split_at(take);
            let end = self.pending_len.wrapping_add(take);
            if let Some(slot) = self.pending.get_mut(self.pending_len..end) {
                slot.copy_from_slice(head);
            }
            self.pending_len = end;
            bytes = rest;
            if self.pending_len < 8 {
                return;
            }
            self.state = mix_word(self.state, u64::from_le_bytes(self.pending));
            self.pending_len = 0;
        }
        let mut words = bytes.chunks_exact(8);
        let mut state = self.state;
        for word in &mut words {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            state = mix_word(state, u64::from_le_bytes(w));
        }
        self.state = state;
        let tail = words.remainder();
        if let Some(slot) = self.pending.get_mut(..tail.len()) {
            slot.copy_from_slice(tail);
        }
        self.pending_len = tail.len();
    }

    /// Mixes a length-prefixed field boundary into the state, so
    /// `("ab", "c")` and `("a", "bc")` digest differently.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Mixes the pending tail bytes with byte-wise FNV-1a, then
    /// finalizes with a splitmix64 avalanche. Does not consume the
    /// state: more input may follow.
    pub fn finish(&self) -> u64 {
        let mut z = self.state;
        for &b in self.pending.get(..self.pending_len).unwrap_or(&[]) {
            z = (z ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut c = Checksum64::new();
    c.update(bytes);
    c.finish()
}

/// A detected integrity violation: stored or received bytes no longer
/// match their recorded checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// A stored value failed verification on read.
    CorruptValue {
        /// The key whose value failed verification.
        key: bytes::Bytes,
        /// The checksum recorded at write time.
        expected: u64,
        /// The checksum of the bytes actually read.
        actual: u64,
    },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::CorruptValue {
                key,
                expected,
                actual,
            } => write!(
                f,
                "value for key ({} bytes) failed checksum: expected {expected:#x}, got {actual:#x}",
                key.len()
            ),
        }
    }
}

impl std::error::Error for IntegrityError {}

/// Counters of everything the integrity layer detected, repaired, or
/// declared lost. Zero across the board for a clean run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IntegrityStats {
    /// Wire frames whose checksum failed on delivery (dropped; the
    /// sender's retry machinery re-sends).
    pub frames_rejected: u64,
    /// Stored entries the background scrub verified.
    pub entries_scrubbed: u64,
    /// Bytes of key+value payload the scrub verified.
    pub scrub_bytes: u64,
    /// Checksum mismatches found at any storage read boundary (scrub,
    /// local read, replica read).
    pub mismatches_found: u64,
    /// Corrupt entries restored from a clean ring replica.
    pub read_repairs: u64,
    /// Corrupt entries restored by decoding the cloud catalog.
    pub cloud_decodes: u64,
    /// Replicas quarantined after repeated verification failures.
    pub quarantines: u64,
    /// Corrupt entries no surviving replica or catalog could restore —
    /// explicitly declared lost, never silently accepted.
    pub lost_records: u64,
    /// WAL tails truncated to their last valid record at recovery.
    pub torn_tails_truncated: u64,
    /// Recoveries that fell back to the prior snapshot after the current
    /// snapshot failed its checksum.
    pub snapshot_fallbacks: u64,
    /// Restarts abandoned because the WAL body (not just the tail) was
    /// corrupt beyond the snapshot fallback.
    pub wal_corrupt_bodies: u64,
}

impl IntegrityStats {
    /// Accumulates another stats block into this one (used to carry a
    /// node's counters across crash-stop/restart cycles).
    pub fn merge(&mut self, other: &IntegrityStats) {
        self.frames_rejected = self.frames_rejected.saturating_add(other.frames_rejected);
        self.entries_scrubbed = self.entries_scrubbed.saturating_add(other.entries_scrubbed);
        self.scrub_bytes = self.scrub_bytes.saturating_add(other.scrub_bytes);
        self.mismatches_found = self.mismatches_found.saturating_add(other.mismatches_found);
        self.read_repairs = self.read_repairs.saturating_add(other.read_repairs);
        self.cloud_decodes = self.cloud_decodes.saturating_add(other.cloud_decodes);
        self.quarantines = self.quarantines.saturating_add(other.quarantines);
        self.lost_records = self.lost_records.saturating_add(other.lost_records);
        self.torn_tails_truncated = self
            .torn_tails_truncated
            .saturating_add(other.torn_tails_truncated);
        self.snapshot_fallbacks = self
            .snapshot_fallbacks
            .saturating_add(other.snapshot_fallbacks);
        self.wal_corrupt_bodies = self
            .wal_corrupt_bodies
            .saturating_add(other.wal_corrupt_bodies);
    }

    /// True when nothing was detected, repaired, or lost.
    pub fn is_quiet(&self) -> bool {
        *self == IntegrityStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_deterministic_and_input_sensitive() {
        assert_eq!(checksum64(b"hello"), checksum64(b"hello"));
        assert_ne!(checksum64(b"hello"), checksum64(b"hellp"));
        assert_ne!(checksum64(b""), checksum64(b"\0"));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let clean = checksum64(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut rotted = base.clone();
                rotted[byte] ^= 1 << bit;
                assert_ne!(checksum64(&rotted), clean, "flip {byte}:{bit} undetected");
            }
        }
    }

    /// Deterministic, non-repeating test bytes.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
            .collect()
    }

    #[test]
    fn every_single_bit_flip_is_detected_at_every_length() {
        // 0..=72 covers whole words plus every tail length 0..=7.
        for len in 0..=72 {
            let base = pattern(len);
            let clean = checksum64(&base);
            for byte in 0..len {
                for bit in 0..8 {
                    let mut rotted = base.clone();
                    rotted[byte] ^= 1 << bit;
                    assert_ne!(
                        checksum64(&rotted),
                        clean,
                        "len {len}: flip {byte}:{bit} undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn same_bit_flips_in_two_words_do_not_cancel() {
        // Word-wise FNV without the rotation: flipping bit 63 of a word
        // flips only bit 63 of the next state (the prime is odd), so the
        // same flip in the following word cancels it.
        fn plain_word_fnv(bytes: &[u8]) -> u64 {
            bytes.chunks_exact(8).fold(0xcbf2_9ce4_8422_2325, |s, w| {
                let w = u64::from_le_bytes(w.try_into().unwrap());
                (s ^ w).wrapping_mul(FNV_PRIME)
            })
        }
        let flip_pair = |base: &[u8], i: usize, j: usize, bit: usize| {
            let mut rotted = base.to_vec();
            rotted[i * 8 + bit / 8] ^= 1 << (bit % 8);
            rotted[j * 8 + bit / 8] ^= 1 << (bit % 8);
            rotted
        };
        let base = pattern(64);
        let cancelled = flip_pair(&base, 0, 1, 63);
        assert_eq!(plain_word_fnv(&cancelled), plain_word_fnv(&base));

        for len in [16, 64, 69] {
            let base = pattern(len);
            let clean = checksum64(&base);
            let words = len / 8;
            for i in 0..words {
                for j in i + 1..words {
                    for bit in 0..64 {
                        let rotted = flip_pair(&base, i, j, bit);
                        assert_ne!(
                            checksum64(&rotted),
                            clean,
                            "len {len}: bit {bit} of words {i} and {j} cancelled"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn any_split_across_updates_gives_the_one_shot_digest() {
        ef_simcore::check_property(
            "any_split_across_updates_gives_the_one_shot_digest",
            256,
            |rng| {
                let mut input = vec![0u8; rng.index(200)];
                rng.fill_bytes(&mut input);
                let mut cuts: Vec<usize> = (0..rng.index(6))
                    .map(|_| rng.index(input.len() + 1))
                    .collect();
                cuts.sort_unstable();
                let mut c = Checksum64::new();
                let mut at = 0;
                for cut in cuts.into_iter().chain([input.len()]) {
                    c.update(&input[at..cut]);
                    // finish() is a peek: it must not disturb the stream.
                    let _ = c.finish();
                    at = cut;
                }
                assert_eq!(c.finish(), checksum64(&input), "len {}", input.len());
            },
        );
    }

    #[test]
    fn digest_is_pinned() {
        // Changing the construction changes every stored checksum: make
        // that a deliberate edit, never a silent drift.
        assert_eq!(
            checksum64(b"the quick brown fox jumps over the lazy dog"),
            11_928_730_729_620_982_635
        );
    }

    #[test]
    fn field_boundaries_are_length_delimited() {
        let mut a = Checksum64::new();
        a.update_u64(2);
        a.update(b"ab");
        a.update_u64(1);
        a.update(b"c");
        let mut b = Checksum64::new();
        b.update_u64(1);
        b.update(b"a");
        b.update_u64(2);
        b.update(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn checksum_differs_from_key_token() {
        // Structural independence from the ring's placement hash.
        assert_ne!(checksum64(b"chunk"), crate::key_token(b"chunk"));
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = IntegrityStats {
            frames_rejected: 1,
            mismatches_found: 2,
            ..IntegrityStats::default()
        };
        let b = IntegrityStats {
            frames_rejected: 3,
            read_repairs: 4,
            ..IntegrityStats::default()
        };
        a.merge(&b);
        assert_eq!(a.frames_rejected, 4);
        assert_eq!(a.mismatches_found, 2);
        assert_eq!(a.read_repairs, 4);
        assert!(!a.is_quiet());
        assert!(IntegrityStats::default().is_quiet());
    }

    #[test]
    fn error_display_names_the_checksums() {
        let e = IntegrityError::CorruptValue {
            key: bytes::Bytes::from_static(b"k"),
            expected: 0xab,
            actual: 0xcd,
        };
        let s = e.to_string();
        assert!(s.contains("0xab") && s.contains("0xcd"), "{s}");
    }
}
