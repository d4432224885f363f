//! The warm-start determinism suite, on the `ServingEngine` facade.
//!
//! Serving correctness here *is* determinism: a frozen posterior plus a
//! seed must produce one answer, whether the request is served inline,
//! re-served tomorrow, served by an engine thawed from artifact bytes, or
//! fanned out across worker threads. Every test in this file pins one of
//! those equalities bit for bit. (The `batch_edge_cases` test exercises
//! the low-level `FoldInEngine` directly — the permissive layer under the
//! facade, whose `threads: 0` clamp the strict builder refuses.)

use mlp::core::{determinism_hash, response_determinism_hash};
use mlp::prelude::*;

fn train_snapshot(users: usize, seed: u64) -> (Gazetteer, GeneratedData, PosteriorSnapshot) {
    let gaz = Gazetteer::us_cities();
    let data =
        Generator::new(&gaz, GeneratorConfig { num_users: users, seed, ..Default::default() })
            .generate();
    let config = MlpConfig { iterations: 8, burn_in: 4, seed, ..Default::default() };
    let (_, snapshot) = Mlp::new(&gaz, &data.dataset, config).unwrap().run_with_snapshot();
    (gaz, data, snapshot)
}

fn requests(data: &GeneratedData, n: u32) -> Vec<ProfileRequest> {
    let ids: Vec<UserId> = (0..n).map(UserId).collect();
    ProfileRequest::batch_from_dataset(&data.dataset, &ids)
}

fn engine<'a>(
    gaz: &'a Gazetteer,
    snapshot: &PosteriorSnapshot,
    fold_in: FoldInConfig,
) -> ServingEngine<'a> {
    ServingEngine::builder(gaz).fold_in_config(fold_in).from_snapshot(snapshot.clone()).unwrap()
}

#[test]
fn same_snapshot_same_seed_is_byte_identical() {
    let (gaz, data, snapshot) = train_snapshot(200, 3001);
    let batch = requests(&data, 30);
    let serving = engine(&gaz, &snapshot, FoldInConfig::default());
    let a = serving.profile_batch(&batch).unwrap();
    let b = serving.profile_batch(&batch).unwrap();
    assert_eq!(a, b, "repeated serving must be reproducible");
    assert_eq!(response_determinism_hash(&a), response_determinism_hash(&b));

    // A fresh engine over the same snapshot is the same server.
    let serving2 = engine(&gaz, &snapshot, FoldInConfig::default());
    assert_eq!(a, serving2.profile_batch(&batch).unwrap());

    // A different seed is a different chain (sanity: the seed matters).
    let reseeded = engine(&gaz, &snapshot, FoldInConfig { seed: 99, ..Default::default() });
    assert_ne!(
        response_determinism_hash(&a),
        response_determinism_hash(&reseeded.profile_batch(&batch).unwrap())
    );
}

#[test]
fn batched_serving_is_bit_identical_to_sequential() {
    let (gaz, data, snapshot) = train_snapshot(300, 3003);
    let batch = requests(&data, 60);
    let sequential = engine(&gaz, &snapshot, FoldInConfig { threads: 1, ..Default::default() })
        .profile_batch(&batch)
        .unwrap();
    for threads in [2usize, 3, 4, 8] {
        let batched = engine(&gaz, &snapshot, FoldInConfig { threads, ..Default::default() })
            .profile_batch(&batch)
            .unwrap();
        assert_eq!(sequential, batched, "threads={threads} must not change predictions");
        assert_eq!(response_determinism_hash(&sequential), response_determinism_hash(&batched));
    }
}

#[test]
fn thawed_artifact_serves_identically_to_the_original() {
    let (gaz, data, snapshot) = train_snapshot(150, 3005);
    let batch = requests(&data, 25);
    let from_memory = engine(&gaz, &snapshot, FoldInConfig::default());
    let from_bytes = ServingEngine::builder(&gaz)
        .from_artifact(snapshot.try_encode().unwrap())
        .expect("artifact thaws into an engine");
    assert_eq!(from_bytes.snapshot().snapshot(), &snapshot);
    assert_eq!(
        from_memory.profile_batch(&batch).unwrap(),
        from_bytes.profile_batch(&batch).unwrap(),
        "a shipped artifact must serve exactly like the original"
    );
}

#[test]
fn answers_depend_only_on_their_request() {
    // θ̂ is the user's own profile (Eq. 10): its position in a batch, the
    // requests beside it, the thread count and the absorb path must not
    // change it. Each batch answer equals the request served alone, and
    // the reversed batch gives the reversed answers.
    let (gaz, data, snapshot) = train_snapshot(160, 3007);
    let reqs = requests(&data, 40);
    let obs: Vec<NewUserObservations> = reqs.iter().map(|r| r.observations.clone()).collect();
    let rev_reqs: Vec<ProfileRequest> = reqs.iter().rev().cloned().collect();
    let rev_obs: Vec<NewUserObservations> = obs.iter().rev().cloned().collect();
    for threads in [1usize, 4] {
        let fold_in = FoldInConfig { threads, ..Default::default() };
        let low = FoldInEngine::new(&snapshot, &gaz, fold_in.clone()).unwrap();
        let alone: Vec<_> = obs.iter().map(|o| low.fold_in(o).unwrap()).collect();
        let mut updater =
            OnlineUpdater::new(&gaz, snapshot.clone(), fold_in.clone(), StalenessPolicy::default())
                .unwrap();
        let serving = engine(&gaz, &snapshot, fold_in);
        let served_alone: Vec<_> = reqs.iter().map(|r| serving.profile(r).unwrap()).collect();

        let mut rev_alone = alone.clone();
        rev_alone.reverse();
        let mut rev_served = served_alone.clone();
        rev_served.reverse();
        for (batch, want) in [(&obs, &alone), (&rev_obs, &rev_alone)] {
            assert_eq!(
                &low.fold_in_batch(batch).unwrap(),
                want,
                "fold_in_batch, threads={threads}"
            );
            assert_eq!(&updater.absorb(batch).unwrap(), want, "absorb, threads={threads}");
        }
        assert_eq!(serving.profile_batch(&reqs).unwrap(), served_alone, "threads={threads}");
        assert_eq!(serving.profile_batch(&rev_reqs).unwrap(), rev_served, "threads={threads}");
    }
}

#[test]
fn batch_edge_cases_never_panic_or_diverge() {
    // The low-level layer: `FoldInEngine` stays permissive (threads: 0
    // runs sequentially) even though `EngineBuilder` would refuse the
    // config — callers wiring the primitives directly keep the old
    // semantics.
    let (gaz, data, snapshot) = train_snapshot(100, 3011);

    // An empty batch is a valid request, whatever the thread count.
    for threads in [0usize, 1, 4] {
        let engine =
            FoldInEngine::new(&snapshot, &gaz, FoldInConfig { threads, ..Default::default() })
                .unwrap();
        assert_eq!(engine.fold_in_batch(&[]).unwrap(), vec![]);
    }

    // threads: 0 must behave exactly as 1 (the sequential path)…
    let ids: Vec<UserId> = (0..7).map(UserId).collect();
    let batch = NewUserObservations::batch_from_dataset(&data.dataset, &ids);
    let zero =
        FoldInEngine::new(&snapshot, &gaz, FoldInConfig { threads: 0, ..Default::default() })
            .unwrap()
            .fold_in_batch(&batch)
            .unwrap();
    let one = FoldInEngine::new(&snapshot, &gaz, FoldInConfig { threads: 1, ..Default::default() })
        .unwrap()
        .fold_in_batch(&batch)
        .unwrap();
    assert_eq!(zero, one, "threads: 0 must be the sequential path");

    // …and far more workers than requests just idles the surplus.
    let many =
        FoldInEngine::new(&snapshot, &gaz, FoldInConfig { threads: 32, ..Default::default() })
            .unwrap()
            .fold_in_batch(&batch)
            .unwrap();
    assert_eq!(one, many, "threads > batch.len() must not change predictions");
    assert_eq!(determinism_hash(&one), determinism_hash(&many));
}

#[test]
fn facade_and_low_level_hashes_agree() {
    // `response_determinism_hash` must fingerprint identically to the
    // low-level `determinism_hash` for the same predictions — the CI
    // smoke hash survives the facade migration unchanged.
    let (gaz, data, snapshot) = train_snapshot(140, 3013);
    let reqs = requests(&data, 20);
    let obs: Vec<NewUserObservations> = reqs.iter().map(|r| r.observations.clone()).collect();
    let low = FoldInEngine::new(&snapshot, &gaz, FoldInConfig::default())
        .unwrap()
        .fold_in_batch(&obs)
        .unwrap();
    let high = engine(&gaz, &snapshot, FoldInConfig::default()).profile_batch(&reqs).unwrap();
    assert_eq!(determinism_hash(&low), response_determinism_hash(&high));
}

#[test]
fn training_twice_freezes_identical_snapshots() {
    let (_, _, a) = train_snapshot(150, 3009);
    let (_, _, b) = train_snapshot(150, 3009);
    assert_eq!(a, b, "training is deterministic, so freezing must be too");
    assert_eq!(
        a.try_encode().unwrap(),
        b.try_encode().unwrap(),
        "and so is the serialised artifact"
    );
}
