//! The stateless Gibbs conditional kernel (paper Eqs. 5–9), the two
//! Gibbs steps built on it, and the one sweep loop over them.
//!
//! Every conditional the sampler draws from — the edge selector `μ_s`, the
//! edge assignments `x_s`/`y_s`, the mention selector `ν_k`, and the mention
//! assignment `z_k` — is computed here, **once**, as pure functions over:
//!
//! * a [`SamplerView`]: the read-only model inputs (gazetteer, candidacy,
//!   random models, config, and the current power law's per-city-pair
//!   [`KernelMatrix`]), and
//! * a [`CountView`]: the collapsed counts `ϕ`/`φ` *with the relationship
//!   being resampled already excluded*.
//!
//! The draws are written once too: `edge_step` makes a following
//! relationship's draws (`μ_s`, then `x_s`, then `y_s`) and `mention_step`
//! a tweeting relationship's (`ν_k`, then `z_k`); `score_anchor` /
//! `score_venue` score, `init_mode` picks and `init_position` draws the
//! mode-biased initial assignment every chain starts from, and
//! `init_draws` is the one loop of initial draws both trainers run.
//! `theta` is a user's `θ̂` (Eq. 10) from their mean counts and
//! `argmax_city` the one home rule over it.
//!
//! `sweep` is the one loop every training chain runs: over a slice of
//! edges and a slice of mentions, it excludes each relationship by
//! removing its draw from a `CountStore`, steps, and adds the new draw
//! back. Two stores instantiate it, and the schedulers around it own only
//! which slices a loop gets, its RNG stream, and when shards reconcile:
//!
//! * the sequential sweep ([`crate::sampler`]) runs it once over every
//!   relationship against the live counts — the exact chain;
//! * the threaded sweep ([`crate::parallel`]) and the out-of-core trainer
//!   ([`crate::shard`]) run it per shard against a `ShardCounts`: counts
//!   frozen at the sweep's start plus the shard's own deltas, merged back
//!   by `Counts::reconcile` ([`crate::state`]);
//! * the fold-in chain ([`crate::infer`]) decrements the one live user's
//!   counts and calls `mention_step`; its edge step, which redraws only
//!   the new user's side against a fixed anchor, is its own.
//!
//! The kernel never sees the count *layout*: the training stores answer
//! [`CountView`] lookups from columnar CSR arenas
//! ([`crate::count_store`]), the fold-in engine from frozen snapshot
//! slabs — swapping a storage backend cannot change a single weight.

use crate::candidacy::Candidacy;
use crate::config::{MlpConfig, Variant};
use crate::random_models::RandomModels;
use crate::sampler::SweepChanges;
use crate::state::Assignments;
use mlp_gazetteer::{CityId, Gazetteer, VenueId};
use mlp_geo::KernelMatrix;
use mlp_sampling::{sample_categorical, Pcg64};
use mlp_social::{FollowEdge, TweetMention, UserId};

/// Per-user candidate lists and priors as the kernel consumes them.
///
/// [`Candidacy`] is the training-time implementation; the fold-in engine
/// ([`crate::infer`]) implements it over a frozen
/// [`crate::snapshot::PosteriorSnapshot`] plus one transient unseen user,
/// which is how warm-start serving reuses the exact same conditionals.
pub trait ProfileView {
    /// Candidate cities of user `u`, sorted ascending.
    fn candidates(&self, u: UserId) -> &[CityId];
    /// Priors `γ_{u,·}` aligned with [`Self::candidates`].
    fn gammas(&self, u: UserId) -> &[f64];
    /// `Σ_l γ_{u,l}`.
    fn gamma_total(&self, u: UserId) -> f64;
}

impl ProfileView for Candidacy {
    #[inline]
    fn candidates(&self, u: UserId) -> &[CityId] {
        Candidacy::candidates(self, u)
    }

    #[inline]
    fn gammas(&self, u: UserId) -> &[f64] {
        Candidacy::gammas(self, u)
    }

    #[inline]
    fn gamma_total(&self, u: UserId) -> f64 {
        Candidacy::gamma_total(self, u)
    }
}

/// Read-only bundle of everything static a conditional needs. Cheap to
/// construct (five references); build one per resampling call.
///
/// Generic over the candidacy source `P` so the same kernel serves both the
/// training drivers (`P = Candidacy`, the default) and warm-start fold-in
/// (`P = FoldInProfiles`).
pub struct SamplerView<'a, P: ?Sized = Candidacy> {
    /// City/venue geography.
    pub gaz: &'a Gazetteer,
    /// Candidate lists and supervised Dirichlet priors `γ_i`.
    pub candidacy: &'a P,
    /// The empirical noise models `F_R` and `T_R`.
    pub random: &'a RandomModels,
    /// Hyper-parameters (`ρ_f`, `ρ_t`, `δ`, …).
    pub config: &'a MlpConfig,
    /// `d^α` per city pair for the current power law `β·d^α` (rebuilt
    /// between sweeps when Gibbs-EM refits the law), which also carries
    /// `β`. Every kernel evaluation in a loop reads it instead of `powf`.
    pub kernel: &'a KernelMatrix,
}

// Manual impls: `#[derive]` would wrongly require `P: Clone`/`P: Copy`
// even though only `&'a P` is stored.
impl<P: ?Sized> Clone for SamplerView<'_, P> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<P: ?Sized> Copy for SamplerView<'_, P> {}

/// Collapsed-count accessors the kernel evaluates against.
///
/// Implementations must already exclude the relationship being resampled
/// (the "exclude-current" convention of collapsed Gibbs).
pub trait CountView {
    /// `ϕ_{u,c}` — user `u`'s count at candidate index `c`.
    fn user_count(&self, u: UserId, c: usize) -> f64;
    /// `Σ_c ϕ_{u,c}`.
    fn user_total(&self, u: UserId) -> f64;
    /// `φ_{l,v}` — venue `v`'s count at city `l`.
    fn venue_count(&self, l: CityId, v: VenueId) -> f64;
    /// `Σ_v φ_{l,v}`.
    fn city_total(&self, l: CityId) -> f64;
}

/// A [`CountView`] the sweep updates in place: [`sweep`] removes a
/// relationship's current draw before its step and adds the new draw
/// after, so every read excludes the relationship being resampled.
pub(crate) trait CountStore: CountView {
    /// Adds one assignment of user `u` to candidate index `c`.
    fn add_user(&mut self, u: UserId, c: usize);
    /// Removes one assignment of user `u` from candidate index `c`.
    fn remove_user(&mut self, u: UserId, c: usize);
    /// Adds one token of venue `v` at city `l`.
    fn add_venue(&mut self, l: CityId, v: VenueId);
    /// Removes one token of venue `v` from city `l`.
    fn remove_venue(&mut self, l: CityId, v: VenueId);
}

// ---------------------------------------------------------------------------
// The conditionals.
// ---------------------------------------------------------------------------

/// Profile pseudo-count term `(ϕ_{u,c} + γ_{u,c}) / (ϕ_u + Σγ_u)`.
#[inline]
pub fn profile_term<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    u: UserId,
    c: usize,
) -> f64 {
    let num = counts.user_count(u, c) + view.candidacy.gammas(u)[c];
    let den = counts.user_total(u) + view.candidacy.gamma_total(u);
    num / den
}

/// Venue term `(φ_{l,v} + δ) / (Σφ_l + δ·|V|)`.
#[inline]
pub fn venue_term<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    l: CityId,
    v: VenueId,
) -> f64 {
    let num = counts.venue_count(l, v) + view.config.delta;
    let den = counts.city_total(l) + view.config.delta * view.gaz.num_venues() as f64;
    num / den
}

/// One edge endpoint as the kernel sees it: the user, their current
/// assignment (as a candidate index), and the city it resolves to.
#[derive(Clone, Copy)]
pub struct Endpoint {
    /// The user on this side of the edge.
    pub user: UserId,
    /// Current assignment, an index into the user's candidate list.
    pub pos: usize,
    /// The city that index resolves to.
    pub city: CityId,
}

/// Eq. 5 — unnormalised selector weights `(w_based, w_noisy)` for `μ_s`.
///
/// We keep both endpoints' profile factors (the full conditional of the
/// generative story; the paper's printed equation shows only the
/// follower's, but with a data-calibrated `(α, β)` the two-factor form
/// separates noisy from location-based edges more sharply).
#[inline]
pub fn edge_selector_weights<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    follower: Endpoint,
    friend: Endpoint,
) -> (f64, f64) {
    let w_based = (1.0 - view.config.rho_f)
        * profile_term(view, counts, follower.user, follower.pos)
        * profile_term(view, counts, friend.user, friend.pos)
        * view.kernel.eval(follower.city.index(), friend.city.index());
    let w_noisy = view.config.rho_f * view.random.follow_prob();
    (w_based, w_noisy)
}

/// Eqs. 7/8 — fills `buf` with unnormalised weights over `u`'s candidates
/// for an edge-side assignment. `partner` is the *other* endpoint's current
/// city when the edge is location-based, or `None` when noisy (no distance
/// factor).
#[inline]
pub fn edge_position_weights<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    u: UserId,
    partner: Option<CityId>,
    buf: &mut Vec<f64>,
) {
    let cands = view.candidacy.candidates(u);
    let gammas = view.candidacy.gammas(u);
    buf.clear();
    match partner {
        Some(p) => {
            // The table is symmetric: row `p` holds `d(city, p)^α`.
            let kernel = view.kernel.row(p.index());
            for (c, &city) in cands.iter().enumerate() {
                buf.push((counts.user_count(u, c) + gammas[c]) * kernel[city.index()]);
            }
        }
        None => {
            for (c, _) in cands.iter().enumerate() {
                buf.push(counts.user_count(u, c) + gammas[c]);
            }
        }
    }
}

/// Eq. 6 — unnormalised selector weights `(w_based, w_noisy)` for `ν_k`.
#[inline]
pub fn mention_selector_weights<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    i: UserId,
    zi: usize,
    z_city: CityId,
    v: VenueId,
) -> (f64, f64) {
    let w_based = (1.0 - view.config.rho_t)
        * profile_term(view, counts, i, zi)
        * venue_term(view, counts, z_city, v);
    let w_noisy = view.config.rho_t * view.random.venue_prob(v);
    (w_based, w_noisy)
}

/// Eq. 9 — fills `buf` with unnormalised weights over `u`'s candidates for
/// the mention assignment. `venue` is the mentioned venue when the mention
/// is location-based, or `None` when noisy (no venue factor).
#[inline]
pub fn mention_position_weights<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    u: UserId,
    venue: Option<VenueId>,
    buf: &mut Vec<f64>,
) {
    let cands = view.candidacy.candidates(u);
    let gammas = view.candidacy.gammas(u);
    buf.clear();
    match venue {
        Some(v) => {
            for (c, &city) in cands.iter().enumerate() {
                let w = (counts.user_count(u, c) + gammas[c]) * venue_term(view, counts, city, v);
                buf.push(w);
            }
        }
        None => {
            for (c, _) in cands.iter().enumerate() {
                buf.push(counts.user_count(u, c) + gammas[c]);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The Gibbs steps.
// ---------------------------------------------------------------------------

/// One Gibbs step for the following relationship `⟨i,j⟩` (Eqs. 5, 7, 8):
/// draws `μ_s`, then `x_s` given `μ_s`, then `y_s` given the new `x_s`.
///
/// `counts` must already exclude the edge; `old_x`/`old_y` are its current
/// assignments as candidate indices. Returns the new `(μ_s, x_s, y_s)`.
pub(crate) fn edge_step<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    (i, old_x): (UserId, usize),
    (j, old_y): (UserId, usize),
    rng: &mut Pcg64,
    buf: &mut Vec<f64>,
) -> (bool, usize, usize) {
    let ci = view.candidacy.candidates(i);
    let y_city = view.candidacy.candidates(j)[old_y];
    let (w_based, w_noisy) = edge_selector_weights(
        view,
        counts,
        Endpoint { user: i, pos: old_x, city: ci[old_x] },
        Endpoint { user: j, pos: old_y, city: y_city },
    );
    let mu = rng.next_f64() * (w_based + w_noisy) < w_noisy;
    edge_position_weights(view, counts, i, (!mu).then_some(y_city), buf);
    let x = sample_categorical(rng, buf).expect("x weights are positive (γ > 0)");
    edge_position_weights(view, counts, j, (!mu).then_some(ci[x]), buf);
    let y = sample_categorical(rng, buf).expect("y weights are positive (γ > 0)");
    (mu, x, y)
}

/// One Gibbs step for user `i`'s mention of venue `v` (Eqs. 6, 9): draws
/// `ν_k`, then `z_k` given `ν_k`.
///
/// `counts` must already exclude the mention; `old_z` is its current
/// assignment as a candidate index. Returns the new `(ν_k, z_k)`.
pub(crate) fn mention_step<P: ProfileView + ?Sized>(
    view: &SamplerView<'_, P>,
    counts: &impl CountView,
    (i, old_z): (UserId, usize),
    v: VenueId,
    rng: &mut Pcg64,
    buf: &mut Vec<f64>,
) -> (bool, usize) {
    let old_city = view.candidacy.candidates(i)[old_z];
    let (w_based, w_noisy) = mention_selector_weights(view, counts, i, old_z, old_city, v);
    let nu = rng.next_f64() * (w_based + w_noisy) < w_noisy;
    mention_position_weights(view, counts, i, (!nu).then_some(v), buf);
    let z = sample_categorical(rng, buf).expect("z weights are positive (γ > 0)");
    (nu, z)
}

/// One Gibbs sweep over `edges`, then `mentions` — the one sweep loop of
/// every training chain. Each relationship's current draw, read from
/// `asg`, is removed from `counts`, the edge or mention step draws anew,
/// and the new draw is added back and written to `asg`. `asg` holds
/// exactly one assignment per relationship given. Returns how many
/// relationships changed.
pub(crate) fn sweep<C: CountStore>(
    view: &SamplerView<'_>,
    counts: &mut C,
    edges: &[FollowEdge],
    mentions: &[TweetMention],
    asg: Assignments<'_>,
    rng: &mut Pcg64,
    buf: &mut Vec<f64>,
) -> SweepChanges {
    assert!(asg.mu.len() == edges.len() && asg.nu.len() == mentions.len());
    let count_noisy = view.config.count_noisy_assignments;
    let mut changes = SweepChanges::default();
    for (s, e) in edges.iter().enumerate() {
        let (i, j) = (e.follower, e.friend);
        let (old_mu, old_x, old_y) = (asg.mu[s], asg.x[s] as usize, asg.y[s] as usize);
        if !old_mu || count_noisy {
            counts.remove_user(i, old_x);
            counts.remove_user(j, old_y);
        }
        let (mu, x, y) = edge_step(view, &*counts, (i, old_x), (j, old_y), rng, buf);
        if !mu || count_noisy {
            counts.add_user(i, x);
            counts.add_user(j, y);
        }
        (asg.mu[s], asg.x[s], asg.y[s]) = (mu, x as u16, y as u16);
        changes.edges += ((mu, x, y) != (old_mu, old_x, old_y)) as usize;
    }
    for (k, m) in mentions.iter().enumerate() {
        let (i, v) = (m.user, m.venue);
        let ci = view.candidacy.candidates(i);
        let (old_nu, old_z) = (asg.nu[k], asg.z[k] as usize);
        if !old_nu || count_noisy {
            counts.remove_user(i, old_z);
        }
        if !old_nu {
            counts.remove_venue(ci[old_z], v);
        }
        let (nu, z) = mention_step(view, &*counts, (i, old_z), v, rng, buf);
        if !nu || count_noisy {
            counts.add_user(i, z);
        }
        if !nu {
            counts.add_venue(ci[z], v);
        }
        (asg.nu[k], asg.z[k]) = (nu, z as u16);
        changes.mentions += ((nu, z) != (old_nu, old_z)) as usize;
    }
    changes
}

/// Adds one labeled anchor's evidence to a user's initial-mode scores:
/// `ln d(l, anchor)^α` at each candidate `l`.
#[inline]
pub(crate) fn score_anchor(
    kernel: &KernelMatrix,
    anchor: CityId,
    candidates: &[CityId],
    scores: &mut [f64],
) {
    let row = kernel.row(anchor.index());
    for (score, &city) in scores.iter_mut().zip(candidates) {
        *score += row[city.index()].ln();
    }
}

/// Adds one mention's venue-resolution bonus to a user's initial-mode
/// scores: each candidate `l` the venue resolves to gains `0.5 − ln k(l, l)`
/// (the kernel at the 1-mile floor). Returns whether any `l` was one.
#[inline]
pub(crate) fn score_venue(
    gaz: &Gazetteer,
    kernel: &KernelMatrix,
    v: VenueId,
    candidates: &[CityId],
    scores: &mut [f64],
) -> bool {
    let mut hit = false;
    for &city in gaz.resolve_venue(v) {
        if let Ok(c) = candidates.binary_search(&city) {
            hit = true;
            scores[c] -= kernel.get(city.index(), city.index()).ln() - 0.5;
        }
    }
    hit
}

/// Initial-mode scores of every training user, flat in the candidacy's
/// slot space. Both trainers feed it their relationships (each in its own
/// order, which fixes the f64 sums) and read the modes off at the end.
pub(crate) struct InitScores<'a> {
    gaz: &'a Gazetteer,
    candidacy: &'a Candidacy,
    kernel: &'a KernelMatrix,
    scores: Vec<f64>,
    has_signal: Vec<bool>,
}

impl<'a> InitScores<'a> {
    pub(crate) fn new(gaz: &'a Gazetteer, cand: &'a Candidacy, kernel: &'a KernelMatrix) -> Self {
        let (scores, has_signal) = (vec![0.0; cand.num_slots()], vec![false; cand.num_users()]);
        Self { gaz, candidacy: cand, kernel, scores, has_signal }
    }

    /// Scores each unlabeled endpoint of a following relationship
    /// against the other's label, follower first. A labeled user's mode
    /// is their registered city (always a candidate), so their scores
    /// are never read and never computed.
    pub(crate) fn edge(&mut self, e: &FollowEdge, registered: &[Option<CityId>]) {
        let cand = self.candidacy;
        for (user, other) in [(e.follower, e.friend), (e.friend, e.follower)] {
            if registered[user.index()].is_some() {
                continue;
            }
            if let Some(anchor) = registered[other.index()] {
                self.has_signal[user.index()] = true;
                let scores = &mut self.scores[cand.slots(user)];
                score_anchor(self.kernel, anchor, cand.candidates(user), scores);
            }
        }
    }

    /// Scores a tweeting relationship's venue resolutions, unless its
    /// user is labeled (see [`Self::edge`]).
    pub(crate) fn mention(&mut self, m: &TweetMention, registered: &[Option<CityId>]) {
        if registered[m.user.index()].is_some() {
            return;
        }
        let cand = self.candidacy;
        let scores = &mut self.scores[cand.slots(m.user)];
        let hit = score_venue(self.gaz, self.kernel, m.venue, cand.candidates(m.user), scores);
        self.has_signal[m.user.index()] |= hit;
    }

    /// Every user's [`init_mode`].
    pub(crate) fn modes(self, registered: &[Option<CityId>]) -> Vec<Option<u32>> {
        (0..self.candidacy.num_users())
            .map(|u| {
                let user = UserId(u as u32);
                let registered = registered[u].and_then(|reg| self.candidacy.position(user, reg));
                let scores = &self.scores[self.candidacy.slots(user)];
                init_mode(registered, self.has_signal[u], scores).map(|c| c as u32)
            })
            .collect()
    }
}

/// A user's initial mode, given their scored candidates: the registered
/// city's index when labeled, else the best-scoring candidate when any
/// evidence was scored, else none.
pub(crate) fn init_mode(
    registered: Option<usize>,
    has_signal: bool,
    scores: &[f64],
) -> Option<usize> {
    if registered.is_some() || !has_signal {
        return registered;
    }
    scores.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(c, _)| c)
}

/// The initial assignment of one relationship endpoint: the user's
/// initial `mode` with probability 0.9, otherwise uniform over their
/// `len` candidates. The 0.9 coin is only tossed when there is a mode.
pub(crate) fn init_position(rng: &mut Pcg64, mode: Option<usize>, len: usize) -> usize {
    match mode {
        Some(mode) if rng.bernoulli(0.9) => mode,
        _ => rng.next_bounded(len),
    }
}

/// The relationships a chain draws from `edges` and `mentions`: all of
/// them, less any type `variant` leaves out. Leaving a type out of the
/// initial draws too (not only of the sweeps) keeps the other type's RNG
/// stream independent of its presence: a TweetingOnly run is
/// bit-identical whether or not the data carries edges.
pub(crate) fn relationships<'d>(
    variant: Variant,
    edges: &'d [FollowEdge],
    mentions: &'d [TweetMention],
) -> (&'d [FollowEdge], &'d [TweetMention]) {
    let edges = if variant.uses_following() { edges } else { &[] };
    let mentions = if variant.uses_tweeting() { mentions } else { &[] };
    (edges, mentions)
}

/// The initial draws of every training chain over `edges`, then
/// `mentions`, written to `asg` (one assignment per relationship given):
/// per edge the `μ_s` coin (`ρ_f`) and both endpoints' [`init_position`]s
/// around their users' `modes`, follower first; per mention the `ν_k`
/// coin (`ρ_t`) and its user's position. Calls over consecutive pieces of
/// a relationship list on one continuing `rng` draw what one call over
/// the whole list draws, which is how the out-of-core trainer initialises
/// chunk by chunk.
pub(crate) fn init_draws(
    config: &MlpConfig,
    candidacy: &Candidacy,
    modes: &[Option<u32>],
    rng: &mut Pcg64,
    edges: &[FollowEdge],
    mentions: &[TweetMention],
    asg: &mut Assignments<'_>,
) {
    assert!(asg.mu.len() == edges.len() && asg.nu.len() == mentions.len());
    let pos = |rng: &mut Pcg64, u: UserId| {
        let mode = modes[u.index()].map(|m| m as usize);
        init_position(rng, mode, candidacy.candidates(u).len()) as u16
    };
    for (s, e) in edges.iter().enumerate() {
        asg.mu[s] = rng.bernoulli(config.rho_f);
        asg.x[s] = pos(rng, e.follower);
        asg.y[s] = pos(rng, e.friend);
    }
    for (k, m) in mentions.iter().enumerate() {
        asg.nu[k] = rng.bernoulli(config.rho_t);
        asg.z[k] = pos(rng, m.user);
    }
}

/// One user's `θ̂` (Eq. 10) at each of their candidates, in candidate
/// order: `(ϕ̄_c + γ_c) / (Σϕ̄ + Σγ)`, from their priors and their mean
/// counts `mean(c)`.
pub(crate) fn theta<'a>(
    gammas: &'a [f64],
    gamma_total: f64,
    mean: impl Fn(usize) -> f64 + 'a,
) -> impl ExactSizeIterator<Item = f64> + 'a {
    let total = (0..gammas.len()).fold(gamma_total, |total, c| total + mean(c));
    (0..gammas.len()).map(move |c| (mean(c) + gammas[c]) / total)
}

/// The candidate with the highest of `scores` (aligned with `cands`):
/// the first strict maximum over the ascending candidate list, so a tie
/// goes to the lower city id. Applied to [`theta`] it is the MAP home.
pub(crate) fn argmax_city(cands: &[CityId], scores: impl IntoIterator<Item = f64>) -> CityId {
    let mut best = cands[0];
    let mut best_score = f64::NEG_INFINITY;
    for (&city, score) in cands.iter().zip(scores) {
        if score > best_score {
            best = city;
            best_score = score;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::tests::Fixture;

    #[test]
    fn noisy_branches_drop_the_evidence_factor() {
        let f = Fixture::new(60, 37, MlpConfig::default());
        let (data, cand) = (&f.dataset, &f.cand);
        let sampler = f.sampler();
        let view = sampler.view();
        let u = data.edges[0].follower;
        let mut with = Vec::new();
        let mut without = Vec::new();
        let counts = sampler.state.counts();
        edge_position_weights(&view, counts, u, None, &mut without);
        let anchor = cand.candidates(data.edges[0].friend)[0];
        edge_position_weights(&view, counts, u, Some(anchor), &mut with);
        assert_eq!(with.len(), without.len());
        // The noisy branch must be a pure profile draw: every weight equals
        // count + gamma, no kernel factor.
        for (c, w) in without.iter().enumerate() {
            let expect = counts.user_count(u, c) + cand.gammas(u)[c];
            assert_eq!(*w, expect);
        }
        // And the based branch differs wherever the kernel is not 1.
        assert_ne!(with, without);
    }
}
