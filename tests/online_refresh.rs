//! The online-refresh acceptance suite, on the `ServingEngine` facade:
//! train on D₀, refresh D₁ through `refresh_from_dataset`, and demand
//! that (a) refreshed serving tracks a cold retrain on D₀∪D₁ within the
//! warm-start tolerance, (b) the whole refresh pipeline is deterministic —
//! repeat runs produce byte-identical artifacts — and (c) the published
//! artifact, always the folded posterior, thaws back to the posterior it
//! was published from.

use mlp::core::{EngineError, FoldInError};
use mlp::eval::online_refresh_drift;
use mlp::prelude::*;

fn corpus(users: usize, seed: u64) -> (Gazetteer, GeneratedData) {
    let gaz = Gazetteer::us_cities();
    let data =
        Generator::new(&gaz, GeneratorConfig { num_users: users, seed, ..Default::default() })
            .generate();
    (gaz, data)
}

fn quick_config(seed: u64) -> MlpConfig {
    MlpConfig { iterations: 10, burn_in: 5, seed, ..Default::default() }
}

/// Cold-trains an engine on the first `train_users` users and refreshes
/// everyone else into it in `batch`-sized committed chunks.
fn refresh<'a>(
    gaz: &'a Gazetteer,
    data: &GeneratedData,
    train_users: usize,
    batch: usize,
    seed: u64,
) -> ServingEngine<'a> {
    let engine = ServingEngine::builder(gaz)
        .mlp_config(quick_config(seed))
        .train(&data.dataset.prefix(train_users))
        .unwrap();
    let ids: Vec<UserId> =
        (train_users as u32..data.dataset.num_users() as u32).map(UserId).collect();
    engine.refresh_from_dataset(&data.dataset, &ids, batch).unwrap();
    engine
}

#[test]
fn refreshed_serving_matches_cold_retrain_within_tolerance() {
    // The acceptance bar: D₀ training + online D₁ commits must serve the
    // D₁ users within the warm-start accuracy tolerance of a cold retrain
    // on D₀∪D₁ (with D₁ labels masked in both worlds).
    let (gaz, data) = corpus(600, 5001);
    let report =
        online_refresh_drift(&gaz, &data, 480, &quick_config(5001), FoldInConfig::default(), 30)
            .unwrap();
    assert_eq!(report.new_users, 120);
    assert_eq!(report.commits, 4);
    assert!(report.retrained_acc_at_100 > 0.40, "cold baseline collapsed: {report:?}");
    assert!(report.refreshed_acc_at_100 > 0.35, "refreshed serving near chance: {report:?}");
    assert!(
        report.drift() < 0.15,
        "online refresh drifted past the warm-start tolerance: {report:?}"
    );
}

#[test]
fn delta_commits_are_byte_identical_across_runs() {
    let (gaz, data) = corpus(300, 5003);
    let a = refresh(&gaz, &data, 240, 20, 5003);
    let b = refresh(&gaz, &data, 240, 20, 5003);
    assert_eq!(a.epoch(), 3);
    assert_eq!(
        a.snapshot().snapshot(),
        b.snapshot().snapshot(),
        "repeat refresh must land on the same posterior"
    );
    assert_eq!(
        a.encode_artifact().unwrap().as_slice(),
        b.encode_artifact().unwrap().as_slice(),
        "published artifacts must be byte-identical"
    );
    assert_eq!(
        a.encode_artifact().unwrap(),
        a.snapshot().try_encode().unwrap(),
        "the published artifact is the folded posterior"
    );
}

#[test]
fn artifacts_thaw_back_to_the_refreshed_posterior() {
    let (gaz, data) = corpus(260, 5005);
    let engine = refresh(&gaz, &data, 200, 30, 5005);
    assert_eq!(engine.commits(), 2);

    // The published artifact: the refreshed posterior, folded.
    let artifact = engine.encode_artifact().unwrap();
    let thawed = PosteriorSnapshot::decode(artifact.clone()).unwrap();
    assert_eq!(&thawed, engine.snapshot().snapshot());

    // And an engine thawed from the artifact answers like the live one
    // (epoch tags differ — the thawed engine starts a fresh epoch history
    // at 0 while the live one sits at 2 — but the predictions are
    // bit-identical).
    let reqs = ProfileRequest::batch_from_dataset(&data.dataset, &[UserId(5), UserId(17)]);
    let live = engine.profile_batch(&reqs).unwrap();
    let thawed =
        ServingEngine::builder(&gaz).from_artifact(artifact).unwrap().profile_batch(&reqs).unwrap();
    assert_eq!(live[0].epoch, 2);
    assert_eq!(thawed[0].epoch, 0);
    assert_eq!(
        mlp::core::response_determinism_hash(&live),
        mlp::core::response_determinism_hash(&thawed)
    );
    for (l, t) in live.iter().zip(&thawed) {
        assert_eq!(l.ranked, t.ranked);
    }
}

#[test]
fn committed_users_become_citable_neighbors() {
    let (gaz, data) = corpus(200, 5007);
    let engine = ServingEngine::builder(&gaz)
        .mlp_config(quick_config(5007))
        .train(&data.dataset.prefix(160))
        .unwrap();

    let first_new = UserId(160);
    let cite_new = vec![ProfileRequest::new(NewUserObservations {
        neighbors: vec![first_new],
        mentions: vec![],
    })];
    // Before any commit, user 160 does not exist in the posterior — both
    // serving and (strict) refreshing reject the citation typed.
    assert!(matches!(
        engine.profile_batch(&cite_new).unwrap_err(),
        EngineError::FoldIn(FoldInError::UnknownUser(u)) if u == first_new
    ));
    assert!(matches!(
        engine.refresh(&cite_new).unwrap_err(),
        EngineError::FoldIn(FoldInError::UnknownUser(u)) if u == first_new
    ));
    assert_eq!(engine.epoch(), 0, "a failed refresh publishes nothing");

    let ids: Vec<UserId> = (160..180).map(UserId).collect();
    engine.refresh_from_dataset(&data.dataset, &ids, ids.len()).unwrap();
    assert_eq!(engine.epoch(), 1);

    // After the commit the same request folds in fine — and the committed
    // neighbor's posterior pulls the requester toward their home.
    let response = &engine.profile_batch(&cite_new).unwrap()[0];
    assert_eq!(response.epoch, 1);
    let committed_home = engine.snapshot().users.home(first_new);
    assert!(
        gaz.distance(response.ranked.home(), committed_home) <= 100.0,
        "requester should land near their only (committed) neighbor"
    );
}

#[test]
fn engine_error_types_round_trip_through_display() {
    // The CLI prints these; make sure the typed wrappers stay informative.
    let (gaz, _) = corpus(60, 5011);
    let other = Gazetteer::with_synthetic(&SynthConfig {
        total_cities: gaz.num_cities() + 5,
        seed: 9,
        ..Default::default()
    });
    let data =
        Generator::new(&gaz, GeneratorConfig { num_users: 60, seed: 5011, ..Default::default() })
            .generate();
    let (_, snapshot) =
        Mlp::new(&gaz, &data.dataset, quick_config(5011)).unwrap().run_with_snapshot();
    let err = ServingEngine::builder(&other).from_snapshot(snapshot).unwrap_err();
    assert!(matches!(err, EngineError::FoldIn(FoldInError::GazetteerMismatch { .. })));
    assert!(err.to_string().contains("cities x venues"));
}
