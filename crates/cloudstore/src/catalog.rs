//! File manifests and the restore path.
//!
//! Deduplicated storage keeps one copy of every chunk plus, per file, a
//! *manifest* — the ordered list of chunk hashes that reconstitutes the
//! file. The catalog is what makes the dedup system a storage system: a
//! stored file must come back byte-exact, and deleting a file must free
//! exactly the chunks no other file references.

use crate::store::{ChunkStore, IntegrityError};
use ef_chunking::{fingerprint_batch, ChunkHash, Chunker};
use std::collections::HashMap;
use std::fmt;

/// Identifies a stored file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file-{}", self.0)
    }
}

/// A file recipe: ordered chunk references and the original length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Ordered chunk hashes with their lengths.
    pub chunks: Vec<(ChunkHash, u32)>,
    /// Original file length in bytes.
    pub total_len: u64,
}

impl Manifest {
    /// Number of chunks in the recipe.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

/// Error restoring a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// No manifest under this id.
    UnknownFile(FileId),
    /// A referenced chunk is missing from the store (corruption).
    MissingChunk(ChunkHash),
    /// A referenced chunk is present but its payload no longer hashes
    /// to its address (at-rest bit rot caught at the read boundary).
    CorruptChunk(ChunkHash),
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::UnknownFile(id) => write!(f, "unknown file {id}"),
            RestoreError::MissingChunk(h) => write!(f, "missing chunk {h}"),
            RestoreError::CorruptChunk(h) => write!(f, "chunk {h} failed checksum verification"),
        }
    }
}

impl std::error::Error for RestoreError {}

/// A deduplicating file catalog over a [`ChunkStore`].
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Default)]
pub struct FileCatalog {
    store: ChunkStore,
    manifests: HashMap<FileId, Manifest>,
    next_id: u64,
}

impl FileCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Chunks `data` with `chunker`, stores the unique chunks, and
    /// records a manifest. Returns the new file's id.
    ///
    /// The chunks take the [`store_manifest`](Self::store_manifest) path,
    /// so every payload is verified against the hash the chunker gave it
    /// before anything is referenced.
    ///
    /// # Panics
    ///
    /// When a chunk's payload does not hash to the address the chunker
    /// computed for it (a chunker bug). Nothing is stored in that case.
    pub fn store_file<C: Chunker>(&mut self, chunker: &C, data: &[u8]) -> FileId {
        let chunks = chunker
            .chunk(data)
            .into_iter()
            .map(|c| (c.hash, c.data))
            .collect();
        self.store_manifest(chunks)
            // simlint::allow(P003): the chunker hashed these payloads itself; a mismatch is a chunker bug, and storing the pair would seed false duplicates
            .expect("chunker hash matches payload")
    }

    /// Stores a file from externally produced chunk hashes + payloads
    /// (the upload path from the edge: the ring ships unique chunks, the
    /// manifest references all of them).
    ///
    /// The whole batch is verified with one [`fingerprint_batch`] call
    /// before anything is referenced, and the verified chunks enter the
    /// store without being hashed again.
    ///
    /// # Errors
    ///
    /// [`IntegrityError`] for the first payload, in batch order, that
    /// does not hash to its claimed address — the upload was damaged in
    /// flight. The catalog is left unchanged: no chunk is referenced and
    /// no manifest is recorded, so a corrupt batch cannot leak dangling
    /// references.
    pub fn store_manifest(
        &mut self,
        chunks: Vec<(ChunkHash, bytes::Bytes)>,
    ) -> Result<FileId, IntegrityError> {
        let payloads: Vec<&[u8]> = chunks.iter().map(|(_, data)| &data[..]).collect();
        let mismatch = chunks
            .iter()
            .zip(fingerprint_batch(&payloads))
            .find(|((claimed, _), actual)| claimed != actual);
        if let Some(((claimed, _), actual)) = mismatch {
            return Err(IntegrityError {
                claimed: *claimed,
                actual,
            });
        }
        let manifest = Manifest {
            chunks: chunks.iter().map(|(h, b)| (*h, b.len() as u32)).collect(),
            total_len: payloads.iter().map(|p| p.len() as u64).sum(),
        };
        for (hash, data) in chunks {
            self.store.insert_verified(hash, data);
        }
        let id = FileId(self.next_id);
        self.next_id += 1;
        self.manifests.insert(id, manifest);
        Ok(id)
    }

    /// Reassembles a file byte-exact.
    ///
    /// The manifest's payloads are verified with one
    /// [`fingerprint_batch`] call before reassembly. The error names the
    /// first failing chunk in manifest order, whether missing or corrupt.
    ///
    /// # Errors
    ///
    /// [`RestoreError::UnknownFile`], [`RestoreError::MissingChunk`], or
    /// [`RestoreError::CorruptChunk`] when a stored payload no longer
    /// hashes to its address (the verify-on-read boundary: rot is
    /// reported, never silently reassembled into a file).
    pub fn restore_file(&self, id: FileId) -> Result<Vec<u8>, RestoreError> {
        let manifest = self
            .manifests
            .get(&id)
            .ok_or(RestoreError::UnknownFile(id))?;
        // Gather up to the first missing chunk: nothing after it can fail
        // first, so nothing after it needs hashing.
        let payloads: Vec<&[u8]> = manifest
            .chunks
            .iter()
            .map_while(|(hash, _)| self.store.payload(hash))
            .collect();
        let corrupt = manifest
            .chunks
            .iter()
            .zip(fingerprint_batch(&payloads))
            .find(|((hash, _), actual)| hash != actual);
        if let Some(((hash, _), _)) = corrupt {
            return Err(RestoreError::CorruptChunk(*hash));
        }
        if let Some((hash, _)) = manifest.chunks.get(payloads.len()) {
            return Err(RestoreError::MissingChunk(*hash));
        }
        Ok(payloads.concat())
    }

    /// Deletes a file, releasing its chunk references (space shared with
    /// other files survives). Returns `true` when the file existed.
    pub fn delete_file(&mut self, id: FileId) -> bool {
        let Some(manifest) = self.manifests.remove(&id) else {
            return false;
        };
        for (hash, _) in &manifest.chunks {
            let released = self.store.release(hash);
            debug_assert!(released.is_some(), "manifest chunk missing from store");
        }
        true
    }

    /// The manifest of a file.
    pub fn manifest(&self, id: FileId) -> Option<&Manifest> {
        self.manifests.get(&id)
    }

    /// Number of stored files.
    pub fn file_count(&self) -> usize {
        self.manifests.len()
    }

    /// The underlying chunk store (statistics, durability integration).
    pub fn store(&self) -> &ChunkStore {
        &self.store
    }

    /// Mutable access to the chunk store (fault injection, scrub
    /// integration).
    pub fn store_mut(&mut self) -> &mut ChunkStore {
        &mut self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ef_chunking::FixedChunker;

    #[test]
    fn store_restore_roundtrip() {
        let chunker = FixedChunker::new(16).unwrap();
        let mut catalog = FileCatalog::new();
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let id = catalog.store_file(&chunker, &data);
        assert_eq!(catalog.restore_file(id).unwrap(), data);
        assert_eq!(catalog.file_count(), 1);
        assert_eq!(
            catalog.manifest(id).unwrap().chunk_count(),
            data.len().div_ceil(16)
        );
    }

    #[test]
    fn duplicate_files_share_chunks() {
        let chunker = FixedChunker::new(8).unwrap();
        let mut catalog = FileCatalog::new();
        let data = vec![7u8; 800];
        let a = catalog.store_file(&chunker, &data);
        let b = catalog.store_file(&chunker, &data);
        // 100 identical chunks, stored once.
        assert_eq!(catalog.store().stats().unique_chunks, 1);
        assert_eq!(catalog.restore_file(a).unwrap(), data);
        assert_eq!(catalog.restore_file(b).unwrap(), data);
    }

    #[test]
    fn delete_frees_only_unshared_space() {
        let chunker = FixedChunker::new(8).unwrap();
        let mut catalog = FileCatalog::new();
        let shared = vec![1u8; 80];
        let mut mixed = shared.clone();
        mixed.extend_from_slice(&[2u8; 80]);
        let a = catalog.store_file(&chunker, &shared);
        let b = catalog.store_file(&chunker, &mixed);
        let before = catalog.store().stats().physical_bytes;
        assert!(catalog.delete_file(b));
        let after = catalog.store().stats().physical_bytes;
        // Only the unshared 8-byte [2;8] chunk is freed.
        assert_eq!(before - after, 8);
        assert_eq!(catalog.restore_file(a).unwrap(), shared);
        assert!(!catalog.delete_file(b), "double delete");
    }

    #[test]
    fn restore_unknown_file_errors() {
        let catalog = FileCatalog::new();
        assert!(matches!(
            catalog.restore_file(FileId(9)).unwrap_err(),
            RestoreError::UnknownFile(FileId(9))
        ));
    }

    #[test]
    fn store_manifest_path() {
        let mut catalog = FileCatalog::new();
        let payloads: Vec<bytes::Bytes> =
            (0..5u8).map(|i| bytes::Bytes::from(vec![i; 32])).collect();
        let chunks: Vec<(ChunkHash, bytes::Bytes)> = payloads
            .iter()
            .map(|b| (ChunkHash::of(b), b.clone()))
            .collect();
        let id = catalog.store_manifest(chunks).unwrap();
        let restored = catalog.restore_file(id).unwrap();
        let expected: Vec<u8> = payloads.iter().flat_map(|b| b.to_vec()).collect();
        assert_eq!(restored, expected);
    }

    #[test]
    fn store_manifest_rejects_corrupt_upload_atomically() {
        let mut catalog = FileCatalog::new();
        let good = bytes::Bytes::from_static(b"good chunk");
        let bad = bytes::Bytes::from_static(b"tampered in flight");
        let chunks = vec![
            (ChunkHash::of(&good), good),
            (ChunkHash::of(b"what the edge hashed"), bad.clone()),
        ];
        let err = catalog.store_manifest(chunks).unwrap_err();
        assert_eq!(err.actual, ChunkHash::of(&bad));
        // Atomic: the good chunk was not referenced either.
        assert_eq!(catalog.file_count(), 0);
        assert_eq!(catalog.store().stats().unique_chunks, 0);
    }

    /// Every batch size around the SIMD lane count, tampered at every
    /// position: the upload is refused with that chunk's addresses and the
    /// catalog, already holding a file that shares chunks with the batch,
    /// is left exactly as it was.
    #[test]
    fn store_manifest_rejects_a_tampered_chunk_at_any_position() {
        let mut catalog = FileCatalog::new();
        let payload = |i: usize| bytes::Bytes::from(vec![i as u8; 1 + i * 13 % 200]);
        let resident: Vec<_> = (0..4)
            .map(|i| (ChunkHash::of(&payload(i)), payload(i)))
            .collect();
        catalog.store_manifest(resident).unwrap();
        let before = (catalog.file_count(), catalog.store().stats());
        for n in [1, 7, 8, 9, 64] {
            for pos in 0..n {
                let mut chunks: Vec<_> = (0..n)
                    .map(|i| (ChunkHash::of(&payload(i)), payload(i)))
                    .collect();
                let mut tampered = chunks[pos].1.to_vec();
                tampered[0] ^= 0x80;
                chunks[pos].1 = bytes::Bytes::from(tampered);
                let err = catalog.store_manifest(chunks).unwrap_err();
                assert_eq!(err.claimed, ChunkHash::of(&payload(pos)), "n={n} pos={pos}");
                let mut expected = payload(pos).to_vec();
                expected[0] ^= 0x80;
                assert_eq!(err.actual, ChunkHash::of(&expected), "n={n} pos={pos}");
                assert_eq!(
                    (catalog.file_count(), catalog.store().stats()),
                    before,
                    "n={n} pos={pos}"
                );
            }
        }
    }

    #[test]
    fn restore_detects_bit_rot_under_a_valid_manifest() {
        let chunker = FixedChunker::new(16).unwrap();
        let mut catalog = FileCatalog::new();
        let data: Vec<u8> = (0..256u32).map(|i| (i * 7 % 251) as u8).collect();
        let id = catalog.store_file(&chunker, &data);
        let victim = catalog.manifest(id).unwrap().chunks[2].0;
        assert!(catalog.store_mut().corrupt_chunk(&victim, 5));
        assert_eq!(
            catalog.restore_file(id).unwrap_err(),
            RestoreError::CorruptChunk(victim)
        );
    }

    #[test]
    fn empty_file_roundtrip() {
        let chunker = FixedChunker::new(8).unwrap();
        let mut catalog = FileCatalog::new();
        let id = catalog.store_file(&chunker, b"");
        assert_eq!(catalog.restore_file(id).unwrap(), Vec::<u8>::new());
        assert!(catalog.delete_file(id));
    }
}
