//! Integration tests for persistence: dataset snapshots (JSON and binary)
//! through the full generation → save → load → evaluate path, and
//! posterior snapshots through train → freeze → encode → decode →
//! fold-in, including adversarial inputs.

use mlp::core::snapshot::{SnapshotDelta, SnapshotError, UserArena, UserPosterior, VenueArena};
use mlp::core::Variant;
use mlp::prelude::*;
use mlp::social::codec::{self, DecodeError};
use mlp::social::DatasetStats;

fn generate(users: usize, seed: u64) -> (Gazetteer, GeneratedData) {
    let gaz = Gazetteer::us_cities();
    let data =
        Generator::new(&gaz, GeneratorConfig { num_users: users, seed, ..Default::default() })
            .generate();
    (gaz, data)
}

#[test]
fn stats_survive_binary_round_trip() {
    let (gaz, data) = generate(300, 2101);
    let bytes = codec::encode(&data.dataset, &data.truth);
    let (dataset2, _) = codec::decode(bytes).unwrap();
    let a = DatasetStats::compute(&data.dataset, &gaz);
    let b = DatasetStats::compute(&dataset2, &gaz);
    assert_eq!(a, b);
}

#[test]
fn json_snapshot_is_human_readable_and_lossless() {
    let (_, data) = generate(50, 2102);
    let json = codec::to_json(&data.dataset, &data.truth);
    assert!(json.contains("\"edges\""));
    assert!(json.contains("\"profiles\""));
    let (dataset2, truth2) = codec::from_json(&json).unwrap();
    assert_eq!(data.dataset, dataset2);
    assert_eq!(data.truth, truth2);
}

#[test]
fn corrupted_snapshots_fail_loudly() {
    let (_, data) = generate(50, 2103);
    let bytes = codec::encode(&data.dataset, &data.truth);

    // Flip the magic.
    let mut bad = bytes.to_vec();
    bad[0] ^= 0xFF;
    assert!(matches!(
        codec::decode(bytes::Bytes::from(bad)).unwrap_err(),
        DecodeError::BadMagic(_)
    ));

    // Truncate at an arbitrary interior byte.
    let cut = bytes.slice(..bytes.len() * 2 / 3);
    assert_eq!(codec::decode(cut).unwrap_err(), DecodeError::Truncated);

    // Garbage JSON.
    assert!(codec::from_json("{\"dataset\": 42}").is_err());
}

#[test]
fn generated_statistics_track_the_paper() {
    let (gaz, data) = generate(2_000, 2104);
    let stats = DatasetStats::compute(&data.dataset, &gaz);
    assert!((stats.mean_friends - 14.8).abs() < 2.5, "{}", stats.mean_friends);
    assert!((stats.mean_mentions - 29.0).abs() < 2.0, "{}", stats.mean_mentions);
    assert!(stats.candidacy_coverage > 0.85, "{}", stats.candidacy_coverage);
}

#[test]
fn masked_dataset_snapshot_keeps_masking() {
    let (_, data) = generate(100, 2105);
    let folds = Folds::split(&data.dataset, 5, 2105);
    let train = folds.train_view(&data.dataset, 0);
    let bytes = codec::encode(&train, &data.truth);
    let (train2, _) = codec::decode(bytes).unwrap();
    assert_eq!(train.num_labeled(), train2.num_labeled());
    assert!(train2.num_labeled() < data.dataset.num_labeled());
}

// ---------------------------------------------------------------------------
// Posterior snapshots (the warm-start serving artifact).
// ---------------------------------------------------------------------------

fn trained_posterior(users: usize, seed: u64) -> PosteriorSnapshot {
    let (gaz, data) = generate(users, seed);
    let config = MlpConfig { iterations: 6, burn_in: 3, seed, ..Default::default() };
    Mlp::new(&gaz, &data.dataset, config).unwrap().run_with_snapshot().1
}

#[test]
fn posterior_snapshot_round_trips_through_the_full_pipeline() {
    let snap = trained_posterior(200, 2106);
    let decoded = PosteriorSnapshot::decode(snap.try_encode().unwrap()).unwrap();
    assert_eq!(snap, decoded);
}

#[test]
fn corrupted_posterior_snapshots_fail_loudly() {
    let snap = trained_posterior(60, 2107);
    let bytes = snap.try_encode().unwrap();

    // Flip the magic.
    let mut bad = bytes.to_vec();
    bad[0] ^= 0xFF;
    assert!(matches!(
        PosteriorSnapshot::decode(bytes::Bytes::from(bad)).unwrap_err(),
        SnapshotError::BadMagic(_)
    ));

    // Stale format version.
    let mut bad = bytes.to_vec();
    bad[4] = 0x7F;
    assert!(matches!(
        PosteriorSnapshot::decode(bytes::Bytes::from(bad)).unwrap_err(),
        SnapshotError::UnsupportedVersion(_)
    ));

    // Invalid variant tag. The tag lives inside the v5 checksummed header,
    // so a blind poke trips the header CRC first …
    let mut bad = bytes.to_vec();
    bad[6] = 9;
    assert_eq!(
        PosteriorSnapshot::decode(bytes::Bytes::from(bad.clone())).unwrap_err(),
        SnapshotError::Corrupt("snapshot header checksum mismatch")
    );
    // … and with the CRC repaired the tag itself is still rejected.
    let fixed = crc32_ieee(&bad[..512]).to_le_bytes();
    bad[512..516].copy_from_slice(&fixed);
    assert_eq!(
        PosteriorSnapshot::decode(bytes::Bytes::from(bad)).unwrap_err(),
        SnapshotError::BadTag(9)
    );

    // Truncation at an arbitrary interior byte.
    assert_eq!(
        PosteriorSnapshot::decode(bytes.slice(..bytes.len() * 2 / 3)).unwrap_err(),
        SnapshotError::Truncated
    );
}

/// Bitwise IEEE CRC-32, only used to re-seal a deliberately damaged header.
fn crc32_ieee(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (0u32.wrapping_sub(crc & 1)));
        }
    }
    !crc
}

mod posterior_proptests {
    use super::*;
    use mlp::core::wal::{artifact_fingerprint, DeltaWal};
    use mlp::geo::PowerLaw;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static CASE: AtomicUsize = AtomicUsize::new(0);

    /// Arbitrary small-but-structurally-valid posterior snapshot, built
    /// directly (not via training) so the codec is exercised on shapes the
    /// trainer would never produce: empty users, empty venue rows, extreme
    /// counts.
    fn arb_posterior() -> impl Strategy<Value = PosteriorSnapshot> {
        (4u32..25, 2u32..12, 0u8..3).prop_flat_map(|(num_cities, num_venues, variant)| {
            let users = prop::collection::vec(
                (
                    prop::collection::vec((0..num_cities, 0.01f64..5.0, 0.0f64..10.0), 1..5),
                    0usize..16,
                ),
                0..8,
            );
            let venue_rows = prop::collection::vec(
                prop::collection::vec((0..num_venues, 0.0f64..20.0), 0..5),
                num_cities as usize,
            );
            let venue_probs = prop::collection::vec(1e-6f64..1.0, num_venues as usize);
            (Just((num_cities, num_venues, variant)), users, venue_rows, venue_probs).prop_map(
                |((num_cities, num_venues, variant), users, venue_rows, venue_probs)| {
                    let users: Vec<UserPosterior> = users
                        .into_iter()
                        .map(|(mut entries, sel)| {
                            entries.sort_by_key(|e| e.0);
                            entries.dedup_by_key(|e| e.0);
                            let candidates: Vec<CityId> =
                                entries.iter().map(|e| CityId(e.0)).collect();
                            let gammas: Vec<f64> = entries.iter().map(|e| e.1).collect();
                            let mean_counts: Vec<f64> = entries.iter().map(|e| e.2).collect();
                            UserPosterior {
                                home: candidates[sel % candidates.len()],
                                mean_total: mean_counts.iter().sum(),
                                gamma_total: gammas.iter().sum(),
                                candidates,
                                gammas,
                                mean_counts,
                            }
                        })
                        .collect();
                    let venues = VenueArena::from_rows(venue_rows.into_iter().map(|mut row| {
                        row.sort_by_key(|e| e.0);
                        row.dedup_by_key(|e| e.0);
                        row
                    }));
                    PosteriorSnapshot {
                        variant: match variant {
                            0 => Variant::FollowingOnly,
                            1 => Variant::TweetingOnly,
                            _ => Variant::Full,
                        },
                        count_noisy_assignments: variant == 1,
                        tau: 0.1,
                        delta: 0.05,
                        rho_f: 0.15,
                        rho_t: 0.20,
                        power_law: PowerLaw { alpha: -0.55, beta: 0.0045 },
                        follow_prob: 1e-4,
                        venue_probs,
                        num_cities,
                        num_venues,
                        gaz_fingerprint: 0xDEAD_BEEF,
                        users: UserArena::from_users(users),
                        venues,
                    }
                },
            )
        })
    }

    /// An arbitrary structurally valid delta for a snapshot shape:
    /// appended users respect the candidate invariants, and venue
    /// increments are sorted-unique in-range non-negative weights.
    fn arb_delta(
        base_users: u32,
        num_cities: u32,
        num_venues: u32,
    ) -> impl Strategy<Value = SnapshotDelta> {
        let users = prop::collection::vec(
            (prop::collection::vec((0..num_cities, 0.01f64..5.0, 0.0f64..10.0), 1..4), 0usize..8),
            0..5,
        );
        let cells = prop::collection::vec((0..num_cities, 0..num_venues, 0.0f64..3.0), 0..12);
        (users, cells).prop_map(move |(users, mut cells)| {
            let mut delta = SnapshotDelta::new(base_users);
            for (mut entries, sel) in users {
                entries.sort_by_key(|e| e.0);
                entries.dedup_by_key(|e| e.0);
                let candidates: Vec<CityId> = entries.iter().map(|e| CityId(e.0)).collect();
                let gammas: Vec<f64> = entries.iter().map(|e| e.1).collect();
                let mean_counts: Vec<f64> = entries.iter().map(|e| e.2).collect();
                delta.push_user(UserPosterior {
                    home: candidates[sel % candidates.len()],
                    mean_total: mean_counts.iter().sum(),
                    gamma_total: gammas.iter().sum(),
                    candidates,
                    gammas,
                    mean_counts,
                });
            }
            cells.sort_by_key(|c| (c.0, c.1));
            cells.dedup_by_key(|c| (c.0, c.1));
            let coo: Vec<(CityId, VenueId, f64)> =
                cells.into_iter().map(|(l, v, w)| (CityId(l), VenueId(v), w)).collect();
            delta.add_venue_weights(&coo);
            delta
        })
    }

    fn arb_posterior_with_delta() -> impl Strategy<Value = (PosteriorSnapshot, SnapshotDelta)> {
        arb_posterior().prop_flat_map(|snap| {
            let delta = arb_delta(snap.num_users() as u32, snap.num_cities, snap.num_venues.max(1));
            (Just(snap), delta)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Binary encode/decode is the identity on arbitrary snapshots.
        #[test]
        fn posterior_round_trip_arbitrary(snap in arb_posterior()) {
            let decoded = PosteriorSnapshot::decode(snap.try_encode().unwrap()).unwrap();
            prop_assert_eq!(snap, decoded);
        }

        /// Any truncation of a valid snapshot fails cleanly with the typed
        /// error (never panics, never silently succeeds).
        #[test]
        fn posterior_truncation_never_panics(snap in arb_posterior(), frac in 0.0f64..1.0) {
            let bytes = snap.try_encode().unwrap();
            let cut = ((bytes.len() as f64) * frac) as usize;
            if cut < bytes.len() {
                prop_assert_eq!(
                    PosteriorSnapshot::decode(bytes.slice(..cut)).unwrap_err(),
                    SnapshotError::Truncated
                );
            }
        }

        /// A committed delta's only on-disk form is its WAL record: for
        /// arbitrary snapshot/delta shapes — including empty deltas, empty
        /// user rows, and venue cells outside the base support — appending
        /// it to a log, recovering the log and applying what recovery
        /// returns lands on exactly the posterior an in-memory apply gives.
        #[test]
        fn wal_replayed_deltas_apply_exactly((snap, delta) in arb_posterior_with_delta()) {
            let case = CASE.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("mlp_pipeline_wal_{}_{case}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("model.mlps.wal");
            let fingerprint = artifact_fingerprint(snap.try_encode().unwrap().as_slice());
            let mut wal = DeltaWal::create(&path, fingerprint).unwrap();
            wal.append(&delta).unwrap();
            drop(wal);
            let (_, found) = DeltaWal::recover(&path, fingerprint).unwrap();
            std::fs::remove_dir_all(&dir).ok();

            let mut replayed = snap.clone();
            for d in &found.deltas {
                replayed.apply_delta(d).unwrap();
            }
            let mut applied = snap.clone();
            applied.apply_delta(&delta).unwrap();
            prop_assert_eq!(found.deltas.len(), 1);
            prop_assert_eq!(applied, replayed);
        }
    }
}
