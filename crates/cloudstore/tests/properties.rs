//! Property-based tests for the cloud catalog's verify-on-read boundary.

use bytes::Bytes;
use ef_chunking::ChunkHash;
use ef_cloudstore::{FileCatalog, FileId, RestoreError};
use ef_simcore::{check_property, DetRng};

/// Restores one chunk at a time: look each chunk up, hash it, append it.
/// The reference for the batched `restore_file`, kept only here.
fn restore_sequential(catalog: &FileCatalog, id: FileId) -> Result<Vec<u8>, RestoreError> {
    let manifest = catalog.manifest(id).ok_or(RestoreError::UnknownFile(id))?;
    let mut out = Vec::new();
    for (hash, _) in &manifest.chunks {
        let data = catalog
            .store()
            .get(hash)
            .ok_or(RestoreError::MissingChunk(*hash))?;
        if ChunkHash::of(&data) != *hash {
            return Err(RestoreError::CorruptChunk(*hash));
        }
        out.extend_from_slice(&data);
    }
    Ok(out)
}

/// A random payload of 1..300 bytes: 1 to 6 SHA-256 blocks once padded,
/// so the lanes of one batch finish at different rounds.
fn payload(rng: &mut DetRng) -> Bytes {
    let mut data = vec![0u8; 1 + rng.index(299)];
    rng.fill_bytes(&mut data);
    Bytes::from(data)
}

/// Batched `restore_file` agrees with the sequential reference: the same
/// bytes, or the same first failing chunk in manifest order. Manifests of
/// 0–40 chunks cover both the scalar fallback below `BATCH_LANES` and the
/// wide lanes. Some chunks rot in place and others leave the store, so a
/// missing chunk precedes a corrupt one in some cases and follows it in
/// others.
#[test]
fn batched_restore_matches_the_sequential_reference() {
    let (mut missing_first, mut corrupt_first, mut intact) = (0, 0, 0);
    check_property("batched_restore_matches_sequential", 512, |rng| {
        // The pool is now and then smaller than the manifest, so some
        // chunks repeat within one file.
        let pool: Vec<Bytes> = (0..1 + rng.index(30)).map(|_| payload(rng)).collect();
        let chunks: Vec<(ChunkHash, Bytes)> = (0..rng.index(41))
            .map(|_| {
                let data = pool[rng.index(pool.len())].clone();
                (ChunkHash::of(&data), data)
            })
            .collect();
        let original: Vec<u8> = chunks.iter().flat_map(|(_, b)| b.to_vec()).collect();
        let mut catalog = FileCatalog::new();
        let id = catalog.store_manifest(chunks).unwrap();

        let (rot, gone) = (rng.unit() * 0.3, rng.unit() * 0.3);
        for data in &pool {
            let hash = ChunkHash::of(data);
            let roll = rng.unit();
            let store = catalog.store_mut();
            if roll < rot {
                store.corrupt_chunk(&hash, rng.index(data.len() * 8));
            } else if roll < rot + gone {
                while store.release(&hash) == Some(false) {}
            }
        }

        let batched = catalog.restore_file(id);
        assert_eq!(batched, restore_sequential(&catalog, id));
        // Coverage: which kind of failure comes first when the file has
        // both kinds.
        let store = catalog.store();
        let chunks = &catalog.manifest(id).unwrap().chunks;
        let has_both = chunks.iter().any(|(h, _)| !store.contains(h))
            && chunks
                .iter()
                .any(|(h, _)| store.get(h).is_some_and(|d| ChunkHash::of(&d) != *h));
        match batched {
            Ok(bytes) => {
                assert_eq!(bytes, original);
                intact += 1;
            }
            Err(RestoreError::MissingChunk(_)) if has_both => missing_first += 1,
            Err(RestoreError::CorruptChunk(_)) if has_both => corrupt_first += 1,
            Err(RestoreError::MissingChunk(_) | RestoreError::CorruptChunk(_)) => {}
            Err(e @ RestoreError::UnknownFile(_)) => panic!("{e}"),
        }
    });
    assert!(
        missing_first > 0 && corrupt_first > 0 && intact > 0,
        "coverage: {missing_first} missing before corrupt, {corrupt_first} corrupt before \
         missing, {intact} intact"
    );
}
