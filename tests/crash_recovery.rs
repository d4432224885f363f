//! Crash-safety acceptance suite for the durable serving path: a
//! file-backed `ServingEngine` must (a) fsync every committed delta to
//! the sidecar write-ahead log before publishing it, so reopening after
//! a kill -9 replays the exact committed state; (b) truncate torn log
//! tails without error and without ever resurrecting an uncommitted
//! delta; (c) fold the log into a fresh base artifact atomically
//! (checkpoint), with the crash window between base replacement and log
//! reset detected by fingerprint and the stale log set aside, never
//! replayed; (d) re-bind a log whose reset failed before appending to it
//! again.

use mlp::core::engine::response_determinism_hash;
use mlp::core::snapshot::UserPosterior;
use mlp::core::wal::{
    artifact_fingerprint, write_atomic, DeltaWal, WalError, RECORD_MAGIC, WAL_HEADER_LEN,
};
use mlp::prelude::*;
use std::path::{Path, PathBuf};

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
    let dir = std::env::temp_dir().join(format!("mlp_crash_{tag}_{}", std::process::id()));
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

#[test]
fn reopen_replays_the_committed_log_byte_identically() {
    let dir = tmp_dir("replay");
    let path = dir.join("model.mlps");
    let (gaz, data) = corpus(100, 9001);
    write_base(&gaz, &data, 60, 9001, &path);

    // The "pre-crash" run: two committed refresh waves, fsync'd to the
    // log but never folded back into the artifact file.
    let engine = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    assert!(engine.is_durable());
    assert!(!engine.recovery_report().unwrap().recovered_anything(), "clean open");
    let ids: Vec<UserId> = (60..80).map(UserId).collect();
    engine.refresh_from_dataset(&data.dataset, &ids, 10).unwrap();
    assert_eq!(engine.epoch(), 2);
    assert!(engine.log_bytes().unwrap() > WAL_HEADER_LEN, "commits must hit the log");

    let committed = engine.snapshot().try_encode().unwrap();
    let reqs = requests(&data, 80..100, 60);
    let committed_hash = response_determinism_hash(&engine.profile_batch(&reqs).unwrap());
    drop(engine); // the kill: nothing else reaches the artifact file

    // Recovery-on-open: the base artifact plus the committed log must
    // reproduce the pre-crash state exactly.
    let reopened = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    let report = reopened.recovery_report().unwrap();
    assert_eq!(report.replayed_records, 2);
    assert_eq!(report.replayed_users, 20);
    assert_eq!(report.torn_bytes_dropped, 0);
    assert!(report.stale_log_moved_to.is_none());
    assert_eq!(reopened.epoch(), 0, "recovered state is epoch 0 of the new run");
    assert_eq!(reopened.snapshot().num_users(), 80);
    assert_eq!(
        reopened.snapshot().try_encode().unwrap(),
        committed,
        "recovered posterior must be byte-identical to the committed pre-crash state"
    );
    assert_eq!(
        response_determinism_hash(&reopened.profile_batch(&reqs).unwrap()),
        committed_hash,
        "recovered engine must serve bit-identically"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn torn_tail_is_dropped_without_error() {
    let dir = tmp_dir("torn");
    let path = dir.join("model.mlps");
    let (gaz, data) = corpus(80, 9003);
    write_base(&gaz, &data, 60, 9003, &path);

    let engine = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    let ids: Vec<UserId> = (60..70).map(UserId).collect();
    engine.refresh_from_dataset(&data.dataset, &ids, 10).unwrap();
    let committed = engine.snapshot().try_encode().unwrap();
    let committed_log = engine.log_bytes().unwrap();
    drop(engine);

    // A crash mid-append: a complete frame header promising a payload
    // that never fully hit the disk.
    let wal_path = DeltaWal::sidecar_path(&path);
    let mut raw = std::fs::read(&wal_path).unwrap();
    raw.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    raw.extend_from_slice(&10_000u64.to_le_bytes());
    raw.extend_from_slice(&0xBADD_CAFEu32.to_le_bytes());
    raw.extend_from_slice(&[0x5A; 21]);
    std::fs::write(&wal_path, &raw).unwrap();

    let reopened = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    let report = reopened.recovery_report().unwrap();
    assert_eq!(report.replayed_records, 1, "the committed record survives");
    assert_eq!(report.torn_bytes_dropped, 16 + 21);
    assert_eq!(reopened.snapshot().try_encode().unwrap(), committed);
    assert_eq!(
        std::fs::metadata(&wal_path).unwrap().len(),
        committed_log,
        "the torn tail must be truncated off the file"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn failed_refresh_logs_and_publishes_nothing() {
    let dir = tmp_dir("failed_refresh");
    let path = dir.join("model.mlps");
    let (gaz, data) = corpus(60, 9005);
    write_base(&gaz, &data, 60, 9005, &path);

    let engine = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    let log_before = engine.log_bytes().unwrap();
    let bad = ProfileRequest::new(NewUserObservations {
        neighbors: vec![UserId(1_000)],
        mentions: vec![],
    });
    engine.refresh(std::slice::from_ref(&bad)).unwrap_err();
    assert_eq!(engine.epoch(), 0, "failed refresh must not publish");
    assert_eq!(engine.log_bytes().unwrap(), log_before, "failed refresh must not extend the log");

    // And the log on disk replays to the unchanged base.
    drop(engine);
    let reopened = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    assert_eq!(reopened.recovery_report().unwrap().replayed_records, 0);
    assert_eq!(reopened.snapshot().num_users(), 60);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn checkpoint_folds_the_log_into_a_fresh_base() {
    let dir = tmp_dir("checkpoint");
    let path = dir.join("model.mlps");
    let (gaz, data) = corpus(90, 9007);
    write_base(&gaz, &data, 60, 9007, &path);

    // Threshold 1: every committed wave immediately compacts.
    let engine =
        ServingEngine::builder(&gaz).wal_compact_threshold(1).from_artifact_file(&path).unwrap();
    let ids: Vec<UserId> = (60..75).map(UserId).collect();
    engine.refresh_from_dataset(&data.dataset, &ids, 15).unwrap();
    assert_eq!(
        engine.log_bytes().unwrap(),
        WAL_HEADER_LEN,
        "compaction must leave an empty (header-only) log"
    );
    let state = engine.snapshot().try_encode().unwrap();

    // The artifact file alone now carries the full state…
    let on_disk = std::fs::read(&path).unwrap();
    assert_eq!(bytes::Bytes::from(on_disk), state, "checkpoint must fold the log into the base");
    drop(engine);

    // …so reopening replays nothing and loses nothing.
    let reopened = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    let report = reopened.recovery_report().unwrap();
    assert_eq!(report.replayed_records, 0);
    assert!(report.stale_log_moved_to.is_none(), "a completed checkpoint leaves no stale log");
    assert_eq!(reopened.snapshot().num_users(), 75);
    assert_eq!(reopened.snapshot().try_encode().unwrap(), state);

    // The explicit entry point works too (and is a no-op on an engine
    // with an empty log only in effect, not in return value).
    let more: Vec<UserId> = (75..90).map(UserId).collect();
    reopened.refresh_from_dataset(&data.dataset, &more, 15).unwrap();
    assert!(reopened.log_bytes().unwrap() > WAL_HEADER_LEN);
    assert!(reopened.checkpoint().unwrap());
    assert_eq!(reopened.log_bytes().unwrap(), WAL_HEADER_LEN);

    // Non-durable engines report `false` instead of erroring.
    let in_memory = ServingEngine::builder(&gaz)
        .mlp_config(quick_config(9007))
        .train(&data.dataset.prefix(60))
        .unwrap();
    assert!(!in_memory.checkpoint().unwrap());
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn stale_log_is_set_aside_when_the_base_moved_on() {
    let dir = tmp_dir("stale");
    let path = dir.join("model.mlps");
    let (gaz, data) = corpus(80, 9009);
    write_base(&gaz, &data, 60, 9009, &path);

    let engine = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    let ids: Vec<UserId> = (60..70).map(UserId).collect();
    engine.refresh_from_dataset(&data.dataset, &ids, 10).unwrap();
    let full_state = engine.snapshot().try_encode().unwrap();
    drop(engine);

    // The checkpoint crash window: the base artifact was atomically
    // replaced with the full recovered state, but the process died
    // before resetting the log — the log on disk still cites the old
    // base by fingerprint.
    write_atomic(&path, full_state.as_slice()).unwrap();

    let reopened = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    let report = reopened.recovery_report().unwrap();
    assert_eq!(report.replayed_records, 0, "a stale log must never replay");
    let stale = report.stale_log_moved_to.clone().expect("stale log set aside");
    assert!(stale.exists(), "the stale log is preserved, not deleted");
    assert_eq!(
        reopened.snapshot().try_encode().unwrap(),
        full_state,
        "the new base already contains the stale log's deltas — nothing lost"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// A checkpoint whose log reset fails after the new base is in place
/// leaves the log citing the replaced base. A record appended to that log
/// would be set aside on reopen and lost, so the engine re-binds the log
/// before its next append — and refuses a refresh, with nothing staged,
/// logged or published, while it cannot.
#[test]
fn failed_log_reset_is_rebound_before_the_next_append() {
    let dir = tmp_dir("rebind");
    let path = dir.join("model.mlps");
    let wal_path = DeltaWal::sidecar_path(&path);
    let (gaz, data) = corpus(80, 9011);
    write_base(&gaz, &data, 60, 9011, &path);

    let engine = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    let first: Vec<UserId> = (60..70).map(UserId).collect();
    engine.refresh_from_dataset(&data.dataset, &first, 10).unwrap();

    // A directory where the reset builds its temp log: the base is
    // replaced, then the reset fails.
    let blocker = dir.join("model.mlps.wal.tmp");
    std::fs::create_dir(&blocker).unwrap();
    let err = engine.checkpoint().unwrap_err();
    assert!(matches!(err, EngineError::Wal(WalError::Io(_))), "{err:?}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        engine.snapshot().try_encode().unwrap().as_slice(),
        "the base was replaced before the reset failed"
    );

    // Blocked: the refresh is refused and changes nothing.
    let log_before = std::fs::read(&wal_path).unwrap();
    let second: Vec<UserId> = (70..80).map(UserId).collect();
    let err = engine.refresh_from_dataset(&data.dataset, &second, 10).unwrap_err();
    assert!(matches!(err, EngineError::Wal(WalError::Io(_))), "{err:?}");
    assert_eq!(engine.epoch(), 1, "a refused refresh must not publish");
    assert_eq!(engine.snapshot().num_users(), 70);
    assert_eq!(std::fs::read(&wal_path).unwrap(), log_before, "a refused refresh logs nothing");

    // Unblocked: the refresh re-binds the log to the new base and commits.
    std::fs::remove_dir(&blocker).unwrap();
    engine.refresh_from_dataset(&data.dataset, &second, 10).unwrap();
    assert_eq!(engine.snapshot().num_users(), 80);
    let live = engine.snapshot().try_encode().unwrap();
    drop(engine);

    let reopened = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    let report = reopened.recovery_report().unwrap();
    assert!(report.stale_log_moved_to.is_none(), "the log was re-bound, not left stale");
    assert_eq!(report.replayed_records, 1, "only the post-checkpoint commit is in the log");
    assert_eq!(reopened.snapshot().num_users(), 80, "no commit lost");
    assert_eq!(reopened.snapshot().try_encode().unwrap(), live);
    std::fs::remove_dir_all(dir).ok();
}

/// A retrain whose checkpoint replaced the base but could not reset the
/// log stands: the retrained posterior is what the artifact holds, so it
/// is installed and published, and the log is re-bound before the next
/// append exactly as after a failed checkpoint.
#[test]
fn retrain_stands_once_its_base_is_written() {
    let dir = tmp_dir("retrain_rebind");
    let path = dir.join("model.mlps");
    let (gaz, data) = corpus(80, 9013);
    write_base(&gaz, &data, 60, 9013, &path);

    let engine = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    let blocker = dir.join("model.mlps.wal.tmp");
    std::fs::create_dir(&blocker).unwrap();
    let report = engine.retrain_from_dataset(&data.dataset.prefix(70), quick_config(9014)).unwrap();
    assert!(report.checkpointed);
    assert_eq!((report.epoch, report.trained_users), (1, 70));
    assert_eq!(
        std::fs::read(&path).unwrap(),
        engine.snapshot().try_encode().unwrap().as_slice(),
        "the installed posterior is the one on disk"
    );

    let late: Vec<UserId> = (70..80).map(UserId).collect();
    let err = engine.refresh_from_dataset(&data.dataset, &late, 10).unwrap_err();
    assert!(matches!(err, EngineError::Wal(WalError::Io(_))), "{err:?}");
    std::fs::remove_dir(&blocker).unwrap();
    engine.refresh_from_dataset(&data.dataset, &late, 10).unwrap();
    let live = engine.snapshot().try_encode().unwrap();
    drop(engine);

    let reopened = ServingEngine::builder(&gaz).from_artifact_file(&path).unwrap();
    assert!(reopened.recovery_report().unwrap().stale_log_moved_to.is_none());
    assert_eq!(reopened.snapshot().num_users(), 80);
    assert_eq!(reopened.snapshot().try_encode().unwrap(), live);
    std::fs::remove_dir_all(dir).ok();
}

/// One synthetic committed delta (no training required — these tests are
/// about the log format, not inference).
fn sample_delta(base_users: u32, seed: u32) -> SnapshotDelta {
    let mut d = SnapshotDelta::new(base_users);
    for k in 0..=(seed % 2) {
        d.push_user(UserPosterior {
            candidates: vec![CityId(seed % 5), CityId(seed % 5 + 3 + k)],
            gammas: vec![0.5 + k as f64, 0.25],
            mean_counts: vec![1.0 + seed as f64, 2.0],
            mean_total: 3.0 + seed as f64,
            gamma_total: 0.75 + k as f64,
            home: CityId(seed % 5),
        });
    }
    d.add_venue_weights(&[(CityId(seed % 5), VenueId(seed % 7), 0.5 + seed as f64)]);
    d
}

/// Builds a log of `n` committed deltas; returns its raw bytes, the
/// deltas, and each record's end offset (the committed prefix boundaries).
fn build_log(dir: &Path, fp: u64, n: u32) -> (Vec<u8>, Vec<SnapshotDelta>, Vec<u64>) {
    let path = dir.join("built.wal");
    let mut wal = DeltaWal::create(&path, fp).unwrap();
    let mut deltas = Vec::new();
    let mut ends = Vec::new();
    for seed in 0..n {
        let d = sample_delta(10 + seed, seed + 1);
        wal.append(&d).unwrap();
        deltas.push(d);
        ends.push(wal.len());
    }
    drop(wal);
    let raw = std::fs::read(&path).unwrap();
    (raw, deltas, ends)
}

#[test]
fn truncation_at_every_byte_offset_recovers_exactly_the_committed_prefix() {
    let dir = tmp_dir("exhaustive_cut");
    let fp = artifact_fingerprint(b"the base artifact");
    let (raw, deltas, ends) = build_log(&dir, fp, 3);
    let path = dir.join("cut.wal");

    for cut in 0..=raw.len() {
        std::fs::write(&path, &raw[..cut]).unwrap();
        let (_, rec) = DeltaWal::recover(&path, fp)
            .unwrap_or_else(|e| panic!("cut at {cut} must not error: {e}"));
        let expected = ends.iter().filter(|&&end| end <= cut as u64).count();
        assert_eq!(
            rec.deltas,
            deltas[..expected],
            "cut at byte {cut}: exactly the committed prefix must survive"
        );
        if (cut as u64) < WAL_HEADER_LEN {
            // Torn header: indistinguishable from a foreign log, so it is
            // set aside and a fresh one created — still zero resurrection.
            assert!(rec.created, "cut at {cut}: torn header must yield a fresh log");
        } else {
            let kept = std::fs::metadata(&path).unwrap().len();
            let boundary = ends[..expected].last().copied().unwrap_or(WAL_HEADER_LEN);
            assert_eq!(kept, boundary, "cut at {cut}: torn tail must be truncated off");
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

mod wal_proptests {
    use super::*;
    use mlp::core::wal::WalError;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static CASE: AtomicUsize = AtomicUsize::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Satellite invariant: decode-after-truncation (with an optional
        /// extra bit flip anywhere in what remains) either recovers a
        /// committed prefix or fails typed — it never panics and never
        /// resurrects a delta past the damage point.
        #[test]
        fn torn_or_flipped_logs_never_panic_or_resurrect(
            records in 0u32..4,
            cut_frac in 0.0f64..1.0,
            flip in prop::option::of((0.0f64..1.0, 0u8..8)),
        ) {
            let case = CASE.fetch_add(1, Ordering::Relaxed);
            let dir = tmp_dir(&format!("prop_cut_{case}"));
            let fp = artifact_fingerprint(b"proptest base");
            let (raw, deltas, _) = build_log(&dir, fp, records);

            let cut = ((raw.len() as f64) * cut_frac) as usize;
            let mut damaged = raw[..cut.min(raw.len())].to_vec();
            if let Some((pos_frac, bit)) = flip {
                if !damaged.is_empty() {
                    let pos = (((damaged.len() as f64) * pos_frac) as usize).min(damaged.len() - 1);
                    damaged[pos] ^= 1 << bit;
                }
            }
            let path = dir.join("damaged.wal");
            std::fs::write(&path, &damaged).unwrap();

            match DeltaWal::recover(&path, fp) {
                Ok((_, rec)) => {
                    // Whatever survived must be a verbatim prefix of what
                    // was committed — no reordering, no gaps, and nothing
                    // from beyond the damage resurrected.
                    prop_assert!(rec.deltas.len() <= deltas.len());
                    prop_assert_eq!(&rec.deltas[..], &deltas[..rec.deltas.len()]);
                }
                // A CRC-valid record with an unparseable payload is the
                // one typed failure; damage must never panic.
                Err(WalError::Record(_) | WalError::Io(_)) => {}
                Err(other) => panic!("unexpected error variant: {other}"),
            }
            std::fs::remove_dir_all(dir).ok();
        }
    }
}
