//! Zero-copy snapshot acceptance suite for the v5 artifact format: a
//! mapped open must (a) serve byte-identically to the copying decode of
//! the same artifact; (b) replay WAL deltas as an overlay on the mapped
//! base without materializing it; (c) survive checkpoints by atomically
//! remapping the freshly written base; and (d) reject hostile artifacts
//! — truncated, bit-flipped, wrong-CRC — with typed errors, never a
//! panic and never undefined behaviour.

use bytes::Bytes;
use mlp::core::engine::response_determinism_hash;
use mlp::core::snapshot::{
    inspect_artifact, Integrity, PosteriorSnapshot, SnapshotError, CURRENT_ARTIFACT_VERSION,
};
use mlp::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn corpus(users: usize, seed: u64) -> (Gazetteer, GeneratedData) {
    let gaz = Gazetteer::us_cities();
    let data =
        Generator::new(&gaz, GeneratorConfig { num_users: users, seed, ..Default::default() })
            .generate();
    (gaz, data)
}

fn quick_config(seed: u64) -> MlpConfig {
    MlpConfig { iterations: 4, burn_in: 2, seed, ..Default::default() }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlp_zc_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Requests for users `range`, with edges restricted to the first `known`
/// users (the posterior's citable population).
fn requests(
    data: &GeneratedData,
    range: std::ops::Range<u32>,
    known: usize,
) -> Vec<ProfileRequest> {
    let ids: Vec<UserId> = range.map(UserId).collect();
    let mut reqs = ProfileRequest::batch_from_dataset(&data.dataset, &ids);
    for r in &mut reqs {
        r.observations.neighbors.retain(|p| p.index() < known);
    }
    reqs
}

/// Cold-trains on the first `trained` users and writes the base artifact.
fn write_base(gaz: &Gazetteer, data: &GeneratedData, trained: usize, seed: u64, path: &Path) {
    ServingEngine::builder(gaz)
        .mlp_config(quick_config(seed))
        .train(&data.dataset.prefix(trained))
        .unwrap()
        .write_artifact(path)
        .unwrap();
}

/// The headline acceptance criterion: an engine serving from borrowed
/// mapped slabs answers every profile request byte-identically to an
/// engine that materialized the same artifact through the copying
/// decode.
#[test]
fn mapped_engine_serves_byte_identically_to_copied() {
    let dir = tmp_dir("identical");
    let path = dir.join("model.mlps");
    let (gaz, data) = corpus(120, 11001);
    write_base(&gaz, &data, 80, 11001, &path);
    let raw = std::fs::read(&path).unwrap();
    assert_eq!(
        inspect_artifact(&raw).unwrap().version,
        CURRENT_ARTIFACT_VERSION,
        "the writer emits v5"
    );

    let mapped = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    let copied = ServingEngine::builder(&gaz).from_artifact(Bytes::from(raw)).unwrap();
    let structural = ServingEngine::builder(&gaz)
        .integrity(Integrity::Structural)
        .from_artifact_file(&path)
        .unwrap();
    assert!(mapped.is_mapped(), "a file open must borrow the file");
    assert!(!copied.is_mapped(), "the copying decode must own its slabs");
    assert!(structural.is_mapped());

    let reqs = requests(&data, 80..120, 80);
    let mapped_hash = response_determinism_hash(&mapped.profile_batch(&reqs).unwrap());
    let copied_hash = response_determinism_hash(&copied.profile_batch(&reqs).unwrap());
    let structural_hash = response_determinism_hash(&structural.profile_batch(&reqs).unwrap());
    assert_eq!(mapped_hash, copied_hash, "mapped and copied engines must agree bit-for-bit");
    assert_eq!(structural_hash, copied_hash, "verification policy must not change answers");
    drop(structural);

    // The mapped snapshot also re-encodes to the exact artifact bytes.
    assert_eq!(
        mapped.snapshot().try_encode().unwrap().as_slice(),
        copied.snapshot().try_encode().unwrap().as_slice()
    );
    drop((mapped, copied));
    std::fs::remove_dir_all(dir).ok();
}

/// Committed WAL deltas replay as an overlay on the mapped base: the
/// reopened engine stays mapped and reproduces the pre-crash state.
#[test]
fn wal_deltas_overlay_the_mapped_base_on_reopen() {
    let dir = tmp_dir("overlay");
    let path = dir.join("model.mlps");
    let (gaz, data) = corpus(100, 11002);
    write_base(&gaz, &data, 60, 11002, &path);

    let engine = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    assert!(engine.is_mapped() && engine.is_durable());
    let ids: Vec<UserId> = (60..80).map(UserId).collect();
    engine.refresh_from_dataset(&data.dataset, &ids, 10).unwrap();
    assert_eq!(engine.epoch(), 2);
    let reqs = requests(&data, 80..100, 60);
    let committed_hash = response_determinism_hash(&engine.profile_batch(&reqs).unwrap());
    let committed = engine.snapshot().try_encode().unwrap();
    drop(engine); // the kill: deltas live only in the log

    let reopened = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    assert!(reopened.is_mapped(), "replaying the log must not force a materialized base");
    assert_eq!(reopened.recovery_report().unwrap().replayed_records, 2);
    assert_eq!(reopened.snapshot().try_encode().unwrap().as_slice(), committed.as_slice());
    assert_eq!(response_determinism_hash(&reopened.profile_batch(&reqs).unwrap()), committed_hash);
    drop(reopened);
    std::fs::remove_dir_all(dir).ok();
}

/// A checkpoint folds the log into a fresh v5 base and atomically remaps
/// it — the engine keeps serving from borrowed slabs, the log is reset,
/// and answers are unchanged.
#[test]
fn checkpoint_remaps_the_fresh_base() {
    let dir = tmp_dir("remap");
    let path = dir.join("model.mlps");
    let (gaz, data) = corpus(100, 11003);
    write_base(&gaz, &data, 60, 11003, &path);

    let engine = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    let ids: Vec<UserId> = (60..80).map(UserId).collect();
    engine.refresh_from_dataset(&data.dataset, &ids, 10).unwrap();
    let reqs = requests(&data, 80..100, 60);
    let before = response_determinism_hash(&engine.profile_batch(&reqs).unwrap());

    assert!(engine.checkpoint().unwrap(), "a dirty log must fold");
    assert!(engine.is_mapped(), "checkpoint must remap, not materialize");
    let after = response_determinism_hash(&engine.profile_batch(&reqs).unwrap());
    assert_eq!(before, after, "remapping must not change a single answer");

    // The artifact file is the folded posterior.
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(inspect_artifact(&on_disk).unwrap().version, CURRENT_ARTIFACT_VERSION);
    assert_eq!(on_disk, engine.encode_artifact().unwrap().as_slice());
    drop(engine);
    std::fs::remove_dir_all(dir).ok();
}

/// The deterministic corruption sweep: a bit flip in the header or in
/// any section body, and a truncation at every structural boundary, must
/// fail typed on both read paths — mapped and copied — never panic.
#[test]
fn hostile_v5_artifacts_fail_typed_on_both_paths() {
    let dir = tmp_dir("hostile");
    let (gaz, data) = corpus(60, 11004);
    let engine = ServingEngine::builder(&gaz)
        .mlp_config(quick_config(11004))
        .train(&data.dataset.prefix(60))
        .unwrap();
    let raw = engine.encode_artifact().unwrap().to_vec();
    let original = PosteriorSnapshot::decode(Bytes::from(raw.clone())).unwrap();
    let info = inspect_artifact(&raw).unwrap();

    let try_both = |bytes: &[u8], tag: &str| -> SnapshotError {
        let copied_err = PosteriorSnapshot::decode(Bytes::from(bytes.to_vec()))
            .expect_err(&format!("{tag}: copying decode must reject"));
        let path = dir.join("hostile.mlps");
        std::fs::write(&path, bytes).unwrap();
        let map = Arc::new(mmap_lite::Mmap::open(&path).unwrap());
        let mapped_err = PosteriorSnapshot::open_mapped(&map)
            .expect_err(&format!("{tag}: mapped open must reject"));
        assert_eq!(copied_err, mapped_err, "{tag}: both paths agree on the failure");
        mapped_err
    };

    // A flip anywhere in the checksummed header.
    for at in [0usize, 5, 70, 100, 500] {
        let mut bad = raw.clone();
        bad[at] ^= 0x04;
        try_both(&bad, &format!("header flip @{at}"));
    }
    // A flip in the middle of every section body.
    for s in &info.sections {
        if s.len == 0 {
            continue;
        }
        let mut bad = raw.clone();
        let at = (s.offset + s.len / 2) as usize;
        bad[at] ^= 0x40;
        let err = try_both(&bad, &format!("flip inside {}", s.name));
        assert!(matches!(err, SnapshotError::Corrupt(_)), "section damage is Corrupt, got {err:?}");
    }
    // Truncation at every structural boundary and a few interior cuts.
    let mut cuts: Vec<usize> = vec![0, 3, 8, 95, 511, 575, raw.len() - 1];
    cuts.extend(info.sections.iter().map(|s| s.offset as usize));
    for cut in cuts {
        try_both(&raw[..cut], &format!("cut @{cut}"));
    }
    // Trailing garbage is rejected, not silently mapped.
    let mut padded = raw.clone();
    padded.extend_from_slice(&[0u8; 64]);
    assert_eq!(
        try_both(&padded, "trailing garbage"),
        SnapshotError::Corrupt("trailing bytes after snapshot")
    );

    // And the pristine bytes still map cleanly after all that.
    let path = dir.join("pristine.mlps");
    std::fs::write(&path, &raw).unwrap();
    let map = Arc::new(mmap_lite::Mmap::open(&path).unwrap());
    let thawed = PosteriorSnapshot::open_mapped(&map).unwrap();
    assert_eq!(thawed, original);
    drop(engine);
    std::fs::remove_dir_all(dir).ok();
}

mod corruption_proptests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static CASE: AtomicUsize = AtomicUsize::new(0);

    /// One trained artifact shared across cases; proptest closures only
    /// get the bytes.
    fn base_artifact() -> (Vec<u8>, PosteriorSnapshot) {
        let (gaz, data) = corpus(40, 11005);
        let engine = ServingEngine::builder(&gaz)
            .mlp_config(quick_config(11005))
            .train(&data.dataset.prefix(40))
            .unwrap();
        let raw = engine.encode_artifact().unwrap().to_vec();
        let snap = PosteriorSnapshot::decode(Bytes::from(raw.clone())).unwrap();
        (raw, snap)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Satellite invariant: an arbitrary truncation plus an optional
        /// bit flip never panics either read path; when the damage lands
        /// in unchecksummed padding the thaw must still be value-exact.
        #[test]
        fn damaged_artifacts_never_panic_either_path(
            cut_frac in 0.0f64..=1.0,
            flip in prop::option::of((0.0f64..1.0, 0u8..8)),
        ) {
            let case = CASE.fetch_add(1, Ordering::Relaxed);
            let (raw, original) = base_artifact();
            let cut = (((raw.len() + 1) as f64) * cut_frac) as usize;
            let mut damaged = raw[..cut.min(raw.len())].to_vec();
            if let Some((pos_frac, bit)) = flip {
                if !damaged.is_empty() {
                    let pos =
                        (((damaged.len() as f64) * pos_frac) as usize).min(damaged.len() - 1);
                    damaged[pos] ^= 1 << bit;
                }
            }

            if let Ok(thawed) = PosteriorSnapshot::decode(Bytes::from(damaged.clone())) {
                prop_assert_eq!(&thawed, &original, "a flip that decodes must be pad-only");
            }
            let dir = tmp_dir(&format!("prop_{case}"));
            let path = dir.join("damaged.mlps");
            std::fs::write(&path, &damaged).unwrap();
            let map = Arc::new(mmap_lite::Mmap::open(&path).unwrap());
            if let Ok(thawed) = PosteriorSnapshot::open_mapped(&map) {
                prop_assert_eq!(&thawed, &original, "a flip that maps must be pad-only");
            }
            // Structural verification skips payload CRCs, so a payload flip
            // may open successfully — but the geometry was validated, so
            // every accessor must stay in-bounds and panic-free.
            if let Ok(thawed) = PosteriorSnapshot::open_mapped_with(&map, Integrity::Structural) {
                for u in 0..thawed.users.num_users().min(8) {
                    let view = thawed.users.user(mlp::prelude::UserId(u as u32));
                    let _ = (view.candidates.len(), view.gammas.len(), view.home);
                }
                for l in 0..thawed.venues.num_cities().min(8) {
                    let _ = thawed.venues.row(mlp::prelude::CityId(l as u32)).count();
                }
            }
            std::fs::remove_dir_all(dir).ok();
        }
    }
}
