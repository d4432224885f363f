//! Model configuration with the paper's hyper-parameters as defaults.

use mlp_geo::PowerLaw;

/// A configuration field that cannot drive a well-defined chain.
///
/// Both [`MlpConfig::validate`] and
/// [`crate::infer::FoldInConfig::validate`] report violations through this
/// one enum, and the [`crate::engine::EngineBuilder`] build paths refuse to
/// construct a [`crate::engine::ServingEngine`] over an invalid
/// configuration — degenerate chains (zero sweeps, burn-in swallowing every
/// sample, zero worker threads) fail loudly at build time instead of
/// silently producing garbage posteriors.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A count field that must be nonzero (iterations, sweeps, threads,
    /// EM rounds, fallback candidates) was zero.
    Zero(&'static str),
    /// `burn_in` must be strictly below the chain length, or every sweep
    /// is discarded and the accumulated posterior is empty.
    BurnInTooLarge {
        /// The configured burn-in.
        burn_in: usize,
        /// The configured chain length it must stay below.
        chain_len: usize,
    },
    /// A real-valued hyper-parameter sat outside its domain (NaN included).
    OutOfDomain {
        /// Field name.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable domain, e.g. `"(0, inf)"`.
        domain: &'static str,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Zero(name) => write!(f, "{name} must be positive"),
            ConfigError::BurnInTooLarge { burn_in, chain_len } => {
                write!(f, "burn_in ({burn_in}) must be below the chain length ({chain_len})")
            }
            ConfigError::OutOfDomain { name, value, domain } => {
                write!(f, "{name} must lie in {domain}, got {value}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which observation types the model consumes — the paper's three variants
/// evaluated in Tables 2 and 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// `MLP_U`: following relationships only.
    FollowingOnly,
    /// `MLP_C`: tweeting relationships only.
    TweetingOnly,
    /// `MLP`: both (the full model).
    Full,
}

impl Variant {
    /// Whether following relationships are modeled.
    pub fn uses_following(self) -> bool {
        !matches!(self, Variant::TweetingOnly)
    }

    /// Whether tweeting relationships are modeled.
    pub fn uses_tweeting(self) -> bool {
        !matches!(self, Variant::FollowingOnly)
    }
}

/// All hyper-parameters of the MLP model and its inference.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Which observations to use.
    pub variant: Variant,
    /// Gibbs sweeps (the paper converges in ~14; default leaves headroom).
    pub iterations: usize,
    /// Sweeps discarded before profile counts are accumulated.
    pub burn_in: usize,
    /// τ — base prior for candidate locations (paper: 0.1, "values of hyper
    /// parameter below 1 prefer sparse distributions").
    pub tau: f64,
    /// Diagonal of the boosting matrix Λ: the pseudo-count added to a
    /// labeled user's observed home city.
    pub supervision_boost: f64,
    /// δ — symmetric Dirichlet prior on each city's venue multinomial ψ_l.
    pub delta: f64,
    /// ρ_f — prior probability a following relationship is noisy.
    pub rho_f: f64,
    /// ρ_t — prior probability a tweeting relationship is noisy.
    pub rho_t: f64,
    /// Initial power law; the paper learns α = −0.55, β = 0.0045 from its
    /// crawl (Sec. 4.1).
    pub power_law: PowerLaw,
    /// Whether to learn the initial `(α, β)` from the labeled users before
    /// inference, as the paper does in Sec. 4.1 — this keeps the power law
    /// calibrated against `F_R = S/N²` on *this* dataset. Falls back to
    /// `power_law` when the labeled subgraph is too sparse.
    pub fit_power_law_from_data: bool,
    /// Whether to run the Gibbs-EM outer loop refining `(α, β)` (Sec. 4.5).
    pub gibbs_em: bool,
    /// Outer EM iterations when `gibbs_em` is on.
    pub em_iterations: usize,
    /// Whether noisy relationships' assignments still contribute to profile
    /// counts ϕ. `false` follows the generative semantics (assignments only
    /// exist in the location-based branch); `true` is the literal reading of
    /// Eqs. 7–9. Exposed for the ablation bench.
    pub count_noisy_assignments: bool,
    /// Whether candidacy vectors prune the sampling domain (Sec. 4.3).
    /// `false` means every city is a candidate for every user (ablation;
    /// dramatically slower and, per the paper, less accurate).
    pub candidacy_pruning: bool,
    /// Candidate fallback: users with no location signal at all get the
    /// `k` most populous cities as candidates.
    pub fallback_popular_k: usize,
    /// Worker threads for the sweep. 1 = exact sequential Gibbs; `n > 1`
    /// splits every sweep into `n` shards on scoped threads, each sweeping
    /// against the sweep-start counts plus its own updates, reconciled
    /// after the sweep (the AD-LDA approximation; see [`crate::parallel`]).
    pub threads: usize,
    /// RNG seed for inference.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            variant: Variant::Full,
            iterations: 30,
            burn_in: 10,
            tau: 0.1,
            supervision_boost: 20.0,
            delta: 0.05,
            rho_f: 0.15,
            rho_t: 0.20,
            power_law: PowerLaw::PAPER_TWITTER,
            fit_power_law_from_data: true,
            gibbs_em: false,
            em_iterations: 3,
            count_noisy_assignments: false,
            candidacy_pruning: true,
            fallback_popular_k: 10,
            threads: 1,
            seed: 7,
        }
    }
}

impl MlpConfig {
    /// The paper's `MLP_U` variant (network only).
    pub fn following_only() -> Self {
        Self { variant: Variant::FollowingOnly, ..Default::default() }
    }

    /// The paper's `MLP_C` variant (content only).
    pub fn tweeting_only() -> Self {
        Self { variant: Variant::TweetingOnly, ..Default::default() }
    }

    /// Validates parameter ranges; returns the first violation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.iterations == 0 {
            return Err(ConfigError::Zero("iterations"));
        }
        if self.burn_in >= self.iterations {
            return Err(ConfigError::BurnInTooLarge {
                burn_in: self.burn_in,
                chain_len: self.iterations,
            });
        }
        for (name, v) in [("tau", self.tau), ("delta", self.delta)] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(ConfigError::OutOfDomain { name, value: v, domain: "(0, inf)" });
            }
        }
        if !(self.supervision_boost >= 0.0) {
            return Err(ConfigError::OutOfDomain {
                name: "supervision_boost",
                value: self.supervision_boost,
                domain: "[0, inf)",
            });
        }
        for (name, p) in [("rho_f", self.rho_f), ("rho_t", self.rho_t)] {
            if !(0.0..1.0).contains(&p) {
                return Err(ConfigError::OutOfDomain { name, value: p, domain: "[0, 1)" });
            }
        }
        if self.threads == 0 {
            return Err(ConfigError::Zero("threads"));
        }
        if self.gibbs_em && self.em_iterations == 0 {
            return Err(ConfigError::Zero("em_iterations (gibbs_em is on)"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = MlpConfig::default();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.tau, 0.1, "paper Sec. 4.3: τ = 0.1");
        assert_eq!(c.power_law.alpha, -0.55, "paper Sec. 4.1");
        assert_eq!(c.power_law.beta, 0.0045, "paper Sec. 4.1");
        assert_eq!(c.variant, Variant::Full);
    }

    #[test]
    fn variants_select_observations() {
        assert!(Variant::Full.uses_following() && Variant::Full.uses_tweeting());
        assert!(Variant::FollowingOnly.uses_following());
        assert!(!Variant::FollowingOnly.uses_tweeting());
        assert!(!Variant::TweetingOnly.uses_following());
        assert!(Variant::TweetingOnly.uses_tweeting());
        assert_eq!(MlpConfig::following_only().variant, Variant::FollowingOnly);
        assert_eq!(MlpConfig::tweeting_only().variant, Variant::TweetingOnly);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let ok = MlpConfig::default();
        assert!(MlpConfig { iterations: 0, ..ok.clone() }.validate().is_err());
        assert!(MlpConfig { burn_in: 30, ..ok.clone() }.validate().is_err());
        assert!(MlpConfig { tau: 0.0, ..ok.clone() }.validate().is_err());
        assert!(MlpConfig { delta: -1.0, ..ok.clone() }.validate().is_err());
        assert!(MlpConfig { rho_f: 1.0, ..ok.clone() }.validate().is_err());
        assert!(MlpConfig { rho_t: -0.1, ..ok.clone() }.validate().is_err());
        assert!(MlpConfig { threads: 0, ..ok.clone() }.validate().is_err());
        assert!(MlpConfig { supervision_boost: -1.0, ..ok.clone() }.validate().is_err());
        assert!(MlpConfig { gibbs_em: true, em_iterations: 0, ..ok.clone() }.validate().is_err());
    }

    #[test]
    fn validation_errors_are_typed_and_printable() {
        let ok = MlpConfig::default();
        assert_eq!(
            MlpConfig { iterations: 0, ..ok.clone() }.validate(),
            Err(ConfigError::Zero("iterations"))
        );
        assert_eq!(
            MlpConfig { burn_in: 30, iterations: 30, ..ok.clone() }.validate(),
            Err(ConfigError::BurnInTooLarge { burn_in: 30, chain_len: 30 })
        );
        let nan = MlpConfig { tau: f64::NAN, ..ok.clone() }.validate().unwrap_err();
        assert!(matches!(nan, ConfigError::OutOfDomain { name: "tau", .. }));
        let msg = MlpConfig { rho_f: 1.5, ..ok }.validate().unwrap_err().to_string();
        assert!(msg.contains("rho_f") && msg.contains("[0, 1)"), "{msg}");
    }
}
