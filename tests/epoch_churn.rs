//! Epoch-churn stress suite for the epoch publication path: readers
//! hammering the engine while the writer publishes a rapid sequence of
//! refresh commits must (a) never observe a torn epoch, (b) have every
//! response batch byte-identical to a serial replay of the epoch it was
//! tagged with, and (c) keep caller-pinned old-epoch handles valid and
//! byte-identical to their pre-churn content after dozens of publishes.

use mlp::prelude::*;

const BASE_USERS: usize = 100;
const CHURN_COMMITS: usize = 24;
const USERS_PER_COMMIT: usize = 2;

fn corpus(users: usize, seed: u64) -> (Gazetteer, GeneratedData) {
    let gaz = Gazetteer::us_cities();
    let data =
        Generator::new(&gaz, GeneratorConfig { num_users: users, seed, ..Default::default() })
            .generate();
    (gaz, data)
}

/// Requests for users `range`, with edges restricted to the base
/// posterior so the same request list is valid at every epoch.
fn requests(data: &GeneratedData, range: std::ops::Range<u32>) -> Vec<ProfileRequest> {
    let ids: Vec<UserId> = range.map(UserId).collect();
    let mut reqs = ProfileRequest::batch_from_dataset(&data.dataset, &ids);
    for r in &mut reqs {
        r.observations.neighbors.retain(|p| p.index() < BASE_USERS);
    }
    reqs
}

#[test]
fn rapid_epoch_churn_is_never_torn_and_replays_serially() {
    let total = BASE_USERS + CHURN_COMMITS * USERS_PER_COMMIT;
    let (gaz, data) = corpus(total, 8101);
    let d0 = data.dataset.prefix(BASE_USERS);
    let (_, snapshot) = Mlp::new(
        &gaz,
        &d0,
        MlpConfig { iterations: 8, burn_in: 4, seed: 8101, ..Default::default() },
    )
    .unwrap()
    .run_with_snapshot();

    let reader_reqs = requests(&data, 0..8);
    // One commit's worth of signups per chunk, identical for the replay
    // and the live run so published posteriors match byte for byte.
    let churn_chunks: Vec<Vec<ProfileRequest>> = (0..CHURN_COMMITS)
        .map(|c| {
            let start = (BASE_USERS + c * USERS_PER_COMMIT) as u32;
            requests(&data, start..start + USERS_PER_COMMIT as u32)
        })
        .collect();

    // Serial replay: the only response batches any reader may legally
    // observe — one per epoch.
    let replay_engine = ServingEngine::builder(&gaz).from_snapshot(snapshot.clone()).unwrap();
    let mut replay: Vec<Vec<ProfileResponse>> =
        vec![replay_engine.profile_batch(&reader_reqs).unwrap()];
    for chunk in &churn_chunks {
        replay_engine.refresh(chunk).unwrap();
        replay.push(replay_engine.profile_batch(&reader_reqs).unwrap());
    }
    assert_eq!(replay_engine.epoch() as usize, CHURN_COMMITS);

    // Live run: readers and an epoch monitor race the churn writer.
    let engine = ServingEngine::builder(&gaz).from_snapshot(snapshot).unwrap();
    let pinned = engine.snapshot();
    let pinned_posterior = pinned.snapshot().clone();

    let observed: Vec<Vec<ProfileResponse>> = std::thread::scope(|scope| {
        let (engine, reader_reqs, churn_chunks) = (&engine, &reader_reqs, &churn_chunks);
        let readers: Vec<_> = (0..3)
            .map(|_| {
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    loop {
                        let batch = engine.profile_batch(reader_reqs).unwrap();
                        let epoch = batch[0].epoch;
                        seen.push(batch);
                        if epoch as usize >= CHURN_COMMITS || seen.len() > 5_000 {
                            return seen;
                        }
                    }
                })
            })
            .collect();
        // The monitoring surface must answer (and stay monotone) at any
        // point during churn, including while the writer holds its lock.
        let monitor = scope.spawn(move || {
            let mut last = 0u64;
            while engine.epoch() < CHURN_COMMITS as u64 {
                let now = engine.epoch();
                assert!(now >= last, "epoch went backwards: {last} -> {now}");
                last = now;
                let dump = format!("{engine:?}");
                assert!(dump.contains("epoch"), "{dump}");
                let _ = engine.commits();
                let _ = engine.needs_retrain();
            }
        });
        let writer = scope.spawn(move || {
            for chunk in churn_chunks {
                engine.refresh(chunk).unwrap();
            }
        });
        writer.join().expect("churn writer");
        monitor.join().expect("monitor thread");
        readers.into_iter().flat_map(|r| r.join().expect("reader thread")).collect()
    });

    assert_eq!(engine.epoch() as usize, CHURN_COMMITS);
    assert_eq!(engine.commits(), CHURN_COMMITS);

    let mut epochs_seen = std::collections::BTreeSet::new();
    for batch in &observed {
        let epoch = batch[0].epoch;
        // (a) Never torn: one epoch tag across the whole batch.
        assert!(batch.iter().all(|r| r.epoch == epoch), "torn batch at epoch {epoch}");
        // (b) Byte-identical to the serial replay of that epoch.
        let expected = replay.get(epoch as usize).unwrap_or_else(|| {
            panic!("impossible epoch {epoch} (only {CHURN_COMMITS} commits ran)")
        });
        assert_eq!(batch, expected, "epoch {epoch} must replay serially");
        epochs_seen.insert(epoch);
    }
    assert!(
        epochs_seen.contains(&(CHURN_COMMITS as u64)),
        "readers must observe the final epoch; saw {epochs_seen:?}"
    );

    // (c) The pre-churn pinned handle: still epoch 0, still serving the
    // exact pre-churn posterior, byte-identical answers after every
    // publish retired its epoch from the hot pointer.
    assert_eq!(pinned.epoch(), 0);
    assert_eq!(pinned.snapshot(), &pinned_posterior, "pinned posterior must be untouched");
    assert_eq!(pinned.snapshot().num_users(), BASE_USERS);
    let through_pin = engine.profile_batch_on(&pinned, &reader_reqs).unwrap();
    assert_eq!(through_pin, replay[0], "pinned-handle serving must replay epoch 0 exactly");

    // The replay engine and the live engine converged on byte-identical
    // published artifacts — rapid concurrent churn changed nothing.
    assert_eq!(
        engine.encode_artifact().unwrap().as_slice(),
        replay_engine.encode_artifact().unwrap().as_slice(),
        "live churn must publish the same artifact bytes as the serial replay"
    );
}
