//! The stateless Gibbs conditional kernel (paper Eqs. 5–9) and the two
//! Gibbs steps built on it.
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
//! mode-biased initial assignment every chain starts from. Each chain
//! driver calls these and owns only its count bookkeeping and RNG streams:
//!
//! * the sequential sweep ([`crate::sampler`]) excludes the relationship by
//!   decrementing the live [`SamplerState`], then adds the new draw back;
//! * the AD-LDA chunk workers ([`crate::parallel`]) read counts frozen for
//!   the fork-join, exclude arithmetically through [`EdgeExcluded`] /
//!   [`MentionExcluded`], and record changes in flat delta slabs;
//! * the sharded super-sweep ([`crate::shard`]) reads frozen global counts
//!   plus the shard's own delta and working `φ`, through the same wrappers;
//! * the fold-in chain ([`crate::infer`]) decrements the one live user's
//!   counts and calls `mention_step`; its edge step, which redraws only
//!   the new user's side against a fixed anchor, is its own.
//!
//! The `kernel_weights_identical_across_drivers` test pins that live
//! decrement and arithmetic exclusion give bit-identical weights and
//! draws.
//!
//! The kernel never sees the count *layout*: [`SamplerState`] answers
//! [`CountView`] lookups from its columnar CSR arenas
//! ([`crate::count_store`]), the fold-in engine from frozen snapshot
//! slabs — swapping a storage backend cannot change a single weight.

use crate::candidacy::Candidacy;
use crate::config::MlpConfig;
use crate::random_models::RandomModels;
use crate::state::SamplerState;
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

/// The live state is its own count view: the sequential driver removes the
/// current relationship's contribution before evaluating conditionals.
impl CountView for SamplerState {
    #[inline]
    fn user_count(&self, u: UserId, c: usize) -> f64 {
        SamplerState::user_count(self, u, c) as f64
    }

    #[inline]
    fn user_total(&self, u: UserId) -> f64 {
        SamplerState::user_total(self, u) as f64
    }

    #[inline]
    fn venue_count(&self, l: CityId, v: VenueId) -> f64 {
        SamplerState::venue_count(self, l, v) as f64
    }

    #[inline]
    fn city_total(&self, l: CityId) -> f64 {
        SamplerState::city_total(self, l) as f64
    }
}

/// A count view shared between chunk workers is a plain reference.
impl<C: CountView + ?Sized> CountView for &C {
    #[inline]
    fn user_count(&self, u: UserId, c: usize) -> f64 {
        (**self).user_count(u, c)
    }

    #[inline]
    fn user_total(&self, u: UserId) -> f64 {
        (**self).user_total(u)
    }

    #[inline]
    fn venue_count(&self, l: CityId, v: VenueId) -> f64 {
        (**self).venue_count(l, v)
    }

    #[inline]
    fn city_total(&self, l: CityId) -> f64 {
        (**self).city_total(l)
    }
}

/// View over frozen base counts for one *edge*, excluding that edge's
/// current contribution (if it was counted) arithmetically.
#[derive(Clone, Copy)]
pub struct EdgeExcluded<C: CountView> {
    base: C,
    /// Whether the edge's assignments are in the counts (`!μ_s` or the
    /// `count_noisy_assignments` ablation).
    counted: bool,
    i: UserId,
    xi: usize,
    j: UserId,
    yj: usize,
}

impl<C: CountView> EdgeExcluded<C> {
    /// View excluding edge `⟨i,j⟩` currently assigned `(x_s=xi, y_s=yj)`.
    pub fn new(base: C, counted: bool, i: UserId, xi: usize, j: UserId, yj: usize) -> Self {
        Self { base, counted, i, xi, j, yj }
    }
}

impl<C: CountView> CountView for EdgeExcluded<C> {
    #[inline]
    fn user_count(&self, u: UserId, c: usize) -> f64 {
        let own = (self.counted && u == self.i && c == self.xi) as u32
            + (self.counted && u == self.j && c == self.yj) as u32;
        self.base.user_count(u, c) - own as f64
    }

    #[inline]
    fn user_total(&self, u: UserId) -> f64 {
        let own = (self.counted && u == self.i) as u32 + (self.counted && u == self.j) as u32;
        self.base.user_total(u) - own as f64
    }

    #[inline]
    fn venue_count(&self, l: CityId, v: VenueId) -> f64 {
        // Edges never contribute venue tokens.
        self.base.venue_count(l, v)
    }

    #[inline]
    fn city_total(&self, l: CityId) -> f64 {
        self.base.city_total(l)
    }
}

/// View over frozen base counts for one *mention*, excluding its profile
/// count (if counted) and its venue token (if location-based).
#[derive(Clone, Copy)]
pub struct MentionExcluded<C: CountView> {
    base: C,
    /// Whether the mention's assignment is in the profile counts.
    counted: bool,
    /// Whether the mention's venue token is in the venue counts (`!ν_k`).
    venue_counted: bool,
    i: UserId,
    zi: usize,
    old_city: CityId,
    v: VenueId,
}

impl<C: CountView> MentionExcluded<C> {
    /// View excluding mention `k` of user `i` at venue `v`, currently
    /// assigned `z_k = zi` resolving to `old_city`.
    pub fn new(
        base: C,
        counted: bool,
        venue_counted: bool,
        i: UserId,
        zi: usize,
        old_city: CityId,
        v: VenueId,
    ) -> Self {
        Self { base, counted, venue_counted, i, zi, old_city, v }
    }
}

impl<C: CountView> CountView for MentionExcluded<C> {
    #[inline]
    fn user_count(&self, u: UserId, c: usize) -> f64 {
        let own = (self.counted && u == self.i && c == self.zi) as u32;
        self.base.user_count(u, c) - own as f64
    }

    #[inline]
    fn user_total(&self, u: UserId) -> f64 {
        self.base.user_total(u) - (self.counted && u == self.i) as u32 as f64
    }

    #[inline]
    fn venue_count(&self, l: CityId, v: VenueId) -> f64 {
        let own = (self.venue_counted && l == self.old_city && v == self.v) as u32;
        self.base.venue_count(l, v) - own as f64
    }

    #[inline]
    fn city_total(&self, l: CityId) -> f64 {
        self.base.city_total(l) - (self.venue_counted && l == self.old_city) as u32 as f64
    }
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

    /// Scores each endpoint of a following relationship against the
    /// other's label, follower first.
    pub(crate) fn edge(&mut self, e: &FollowEdge, registered: &[Option<CityId>]) {
        let cand = self.candidacy;
        for (user, other) in [(e.follower, e.friend), (e.friend, e.follower)] {
            if let Some(anchor) = registered[other.index()] {
                self.has_signal[user.index()] = true;
                let scores = &mut self.scores[cand.slots(user)];
                score_anchor(self.kernel, anchor, cand.candidates(user), scores);
            }
        }
    }

    /// Scores a tweeting relationship's venue resolutions.
    pub(crate) fn mention(&mut self, m: &TweetMention) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::tests::Fixture;

    /// What the kernel derives for edge `⟨i,j⟩` from one count view: the
    /// selector weights, the `x` weights against the current partner, and
    /// the edge step's draw from an RNG seeded with `seed`.
    fn edge_outputs(
        view: &SamplerView<'_>,
        counts: &impl CountView,
        (i, xi): (UserId, usize),
        (j, yj): (UserId, usize),
        seed: u64,
    ) -> ((f64, f64), Vec<f64>, (bool, usize, usize)) {
        let x_city = view.candidacy.candidates(i)[xi];
        let y_city = view.candidacy.candidates(j)[yj];
        let fe = Endpoint { user: i, pos: xi, city: x_city };
        let fr = Endpoint { user: j, pos: yj, city: y_city };
        let mut weights = Vec::new();
        edge_position_weights(view, counts, i, Some(y_city), &mut weights);
        let mut buf = Vec::new();
        let draw = edge_step(view, counts, (i, xi), (j, yj), &mut Pcg64::new(seed), &mut buf);
        (edge_selector_weights(view, counts, fe, fr), weights, draw)
    }

    /// [`edge_outputs`] for user `i`'s mention of venue `v`.
    fn mention_outputs(
        view: &SamplerView<'_>,
        counts: &impl CountView,
        (i, zi): (UserId, usize),
        v: VenueId,
        seed: u64,
    ) -> ((f64, f64), Vec<f64>, (bool, usize)) {
        let z_city = view.candidacy.candidates(i)[zi];
        let mut weights = Vec::new();
        mention_position_weights(view, counts, i, Some(v), &mut weights);
        let mut buf = Vec::new();
        let draw = mention_step(view, counts, (i, zi), v, &mut Pcg64::new(seed), &mut buf);
        (mention_selector_weights(view, counts, i, zi, z_city, v), weights, draw)
    }

    /// The load-bearing invariant of the shared steps: for the same
    /// relationship and RNG seed, the kernel produces bit-identical weights
    /// and draws whether the relationship is excluded by live decrement
    /// (the sequential sweep, the fold-in chain) or arithmetically by
    /// [`EdgeExcluded`]/[`MentionExcluded`] (the AD-LDA and sharded
    /// drivers), with and without `count_noisy_assignments`.
    #[test]
    fn kernel_weights_identical_across_drivers() {
        for count_noisy in [false, true] {
            let config = MlpConfig { count_noisy_assignments: count_noisy, ..Default::default() };
            let f = Fixture::new(120, 31, config);
            let (data, cand) = (&f.dataset, &f.cand);
            let mut sampler = f.sampler();
            sampler.sweep();
            let (view, state, _, _) = sampler.split();

            for s in 0..data.num_edges().min(200) {
                let e = data.edges[s];
                let (i, j) = (e.follower, e.friend);
                let (mu, xi, yj) = (state.mu[s], state.x[s] as usize, state.y[s] as usize);
                let counted = !mu || count_noisy;

                if counted {
                    state.remove_user(i, xi);
                    state.remove_user(j, yj);
                }
                let live = edge_outputs(&view, &*state, (i, xi), (j, yj), s as u64);
                if counted {
                    state.add_user(i, xi);
                    state.add_user(j, yj);
                }
                let excluded = EdgeExcluded::new(&*state, counted, i, xi, j, yj);
                let arithmetic = edge_outputs(&view, &excluded, (i, xi), (j, yj), s as u64);
                assert_eq!(live, arithmetic, "edge {s} (count_noisy {count_noisy}) differs");
            }

            for k in 0..data.num_mentions().min(200) {
                let m = data.mentions[k];
                let (i, v) = (m.user, m.venue);
                let (nu, zi) = (state.nu[k], state.z[k] as usize);
                let counted = !nu || count_noisy;
                let old_city = cand.candidates(i)[zi];

                if counted {
                    state.remove_user(i, zi);
                }
                if !nu {
                    state.remove_venue(old_city, v);
                }
                let live = mention_outputs(&view, &*state, (i, zi), v, k as u64);
                if counted {
                    state.add_user(i, zi);
                }
                if !nu {
                    state.add_venue(old_city, v);
                }
                let excluded = MentionExcluded::new(&*state, counted, !nu, i, zi, old_city, v);
                let arithmetic = mention_outputs(&view, &excluded, (i, zi), v, k as u64);
                assert_eq!(live, arithmetic, "mention {k} (count_noisy {count_noisy}) differs");
            }
        }
    }

    #[test]
    fn noisy_branches_drop_the_evidence_factor() {
        let f = Fixture::new(60, 37, MlpConfig::default());
        let (data, cand) = (&f.dataset, &f.cand);
        let sampler = f.sampler();
        let view = sampler.view();
        let u = data.edges[0].follower;
        let mut with = Vec::new();
        let mut without = Vec::new();
        edge_position_weights(&view, &sampler.state, u, None, &mut without);
        let anchor = cand.candidates(data.edges[0].friend)[0];
        edge_position_weights(&view, &sampler.state, u, Some(anchor), &mut with);
        assert_eq!(with.len(), without.len());
        // The noisy branch must be a pure profile draw: every weight equals
        // count + gamma, no kernel factor.
        for (c, w) in without.iter().enumerate() {
            let expect = CountView::user_count(&sampler.state, u, c) + cand.gammas(u)[c];
            assert_eq!(*w, expect);
        }
        // And the based branch differs wherever the kernel is not 1.
        assert_ne!(with, without);
    }
}
