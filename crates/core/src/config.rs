//! Merced configuration.

use ppet_cbit::cost::CostSource;
use ppet_flow::FlowParams;
use ppet_graph::retime::IoLatency;

/// How the with-retiming CBIT area is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostPolicy {
    /// The paper's closed-form per-SCC accounting (§4.2): within each
    /// cyclic SCC, `min(χ, f)` cut bits are converted functional flip-flops
    /// (0.9 DFF) and the excess `χ − f` is multiplexed (2.3 DFF); cuts
    /// outside SCCs are always retimable. Fast and faithful to the paper's
    /// Table 12 accounting.
    #[default]
    PaperScc,
    /// Exact realization through the Leiserson–Saxe difference-constraint
    /// solver: per-*cycle* feasibility instead of the per-SCC approximation,
    /// priced from [`Compilation::realization`](crate::Compilation::realization).
    /// Slower (`cost_retime` 146 ms vs 0.1 ms on s1423); the golden s641
    /// recording, perfbench's `cold_compile` and the ablations run it.
    Solver,
}

/// Configuration of a [`Merced`](crate::Merced) run.
///
/// Defaults follow the paper's §4.1: `l_k = 16`, `β = 50`, flow parameters
/// `b = 1, min_visit = 20, α = 4, Δ = 0.01`, and the published Table 1 CBIT
/// costs.
///
/// # Examples
///
/// ```
/// use ppet_core::MercedConfig;
///
/// let config = MercedConfig::default()
///     .with_cbit_length(24)
///     .with_beta(50)
///     .with_seed(7);
/// assert_eq!(config.cbit_length, 24);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MercedConfig {
    /// The input constraint / maximal CBIT length `l_k` (testing time is
    /// `O(2^{l_k})`). The paper's experiments use 16 and 24.
    pub cbit_length: usize,
    /// The SCC cut-budget relaxation `β` of Eq. (6).
    pub beta: usize,
    /// `Saturate_Network` parameters.
    pub flow: FlowParams,
    /// PRNG seed for the stochastic flow process.
    pub seed: u64,
    /// Where CBIT type areas come from (published Table 1 vs. synthesized).
    pub cost_source: CostSource,
    /// With-retiming accounting policy.
    pub cost_policy: CostPolicy,
    /// I/O latency freedom of the compile's one cut realization, which the
    /// audit and `--emit` read under either policy.
    pub io_latency: IoLatency,
    /// Worker threads for batch compilation. A single compile and fault
    /// simulation are sequential. A pure
    /// resource decision: any value produces bit-identical results.
    /// Default 1 (fully sequential).
    pub jobs: usize,
    /// Peak test-power budget for the BIST session schedule, in centi-DFF
    /// of switched area (see `ppet_sched::PowerModel`). `None` uses the
    /// default policy ([`ppet_sched::default_budget_cdf`]): half the
    /// all-blocks-at-once power, floored at the hottest single block.
    /// An explicit budget below the hottest block fails the compile.
    pub power_budget_cdf: Option<u64>,
}

impl MercedConfig {
    /// Sets `l_k`.
    #[must_use]
    pub fn with_cbit_length(mut self, lk: usize) -> Self {
        self.cbit_length = lk;
        self
    }

    /// Sets `β`.
    #[must_use]
    pub fn with_beta(mut self, beta: usize) -> Self {
        self.beta = beta;
        self
    }

    /// Sets the flow parameters.
    #[must_use]
    pub fn with_flow(mut self, flow: FlowParams) -> Self {
        self.flow = flow;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the CBIT cost source.
    #[must_use]
    pub fn with_cost_source(mut self, source: CostSource) -> Self {
        self.cost_source = source;
        self
    }

    /// Sets the with-retiming cost policy.
    #[must_use]
    pub fn with_cost_policy(mut self, policy: CostPolicy) -> Self {
        self.cost_policy = policy;
        self
    }

    /// Sets the I/O latency freedom of the cut realization.
    #[must_use]
    pub fn with_io_latency(mut self, io: IoLatency) -> Self {
        self.io_latency = io;
        self
    }

    /// Sets the worker-thread count (see [`MercedConfig::jobs`]).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the peak test-power budget (see
    /// [`MercedConfig::power_budget_cdf`]).
    #[must_use]
    pub fn with_power_budget_cdf(mut self, budget: Option<u64>) -> Self {
        self.power_budget_cdf = budget;
        self
    }

    /// Serializes every reproducibility-relevant knob as manifest `config`
    /// entries (the seed travels as the manifest's own `seed` field).
    ///
    /// [`MercedConfig::from_manifest_entries`] inverts this exactly, which
    /// is what lets `merced audit` recompile a recorded run from its
    /// manifest alone. The flow preset's continuous parameters (`b`, `Δ`,
    /// `α`, `min_visit`) are always [`FlowParams::paper`] for manifest
    /// producers and are therefore not recorded.
    #[must_use]
    pub fn manifest_entries(&self) -> Vec<(String, String)> {
        let entry = |k: &str, v: String| (k.to_owned(), v);
        vec![
            entry("cbit_length", self.cbit_length.to_string()),
            entry("beta", self.beta.to_string()),
            entry("jobs", self.jobs.to_string()),
            entry(
                "policy",
                match self.cost_policy {
                    CostPolicy::PaperScc => "scc".to_owned(),
                    CostPolicy::Solver => "solver".to_owned(),
                },
            ),
            entry(
                "io_latency",
                match self.io_latency {
                    IoLatency::Flexible => "flexible".to_owned(),
                    IoLatency::Fixed => "fixed".to_owned(),
                },
            ),
            entry(
                "cost_source",
                match self.cost_source {
                    CostSource::PaperTable => "paper-table".to_owned(),
                    CostSource::Synthesized => "synthesized".to_owned(),
                },
            ),
            entry("per_branch", self.flow.per_branch.to_string()),
            entry(
                "max_trees",
                self.flow
                    .max_trees
                    .map_or_else(|| "none".to_owned(), |n| n.to_string()),
            ),
            entry(
                "power_budget",
                self.power_budget_cdf
                    .map_or_else(|| "default".to_owned(), |n| n.to_string()),
            ),
        ]
    }

    /// Reconstructs a configuration from recorded manifest `config`
    /// entries (the inverse of [`MercedConfig::manifest_entries`]).
    ///
    /// Unknown keys are ignored so manifests may carry extra annotations;
    /// missing keys keep their defaults.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unparseable value.
    pub fn from_manifest_entries(entries: &[(String, String)]) -> Result<Self, String> {
        let mut config = Self::default();
        config.apply_manifest_entries(entries)?;
        Ok(config)
    }

    /// Applies manifest `config` entries *over* the current configuration
    /// — the overlay variant of [`MercedConfig::from_manifest_entries`],
    /// used by the compile service to layer per-request overrides on the
    /// server's base configuration. Unknown keys are ignored; untouched
    /// knobs keep their current values.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unparseable value, or of a
    /// `replicas` entry other than `1` (the knob was removed).
    pub fn apply_manifest_entries(&mut self, entries: &[(String, String)]) -> Result<(), String> {
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
            value
                .parse()
                .map_err(|_| format!("config entry {key}: cannot parse {value:?}"))
        }
        let config = self;
        for (key, value) in entries {
            match key.as_str() {
                "cbit_length" => config.cbit_length = num(key, value)?,
                "beta" => config.beta = num(key, value)?,
                "jobs" => config.jobs = num(key, value)?,
                "policy" => {
                    config.cost_policy = match value.as_str() {
                        "scc" => CostPolicy::PaperScc,
                        "solver" => CostPolicy::Solver,
                        other => return Err(format!("config entry policy: unknown {other:?}")),
                    }
                }
                "io_latency" => {
                    config.io_latency = match value.as_str() {
                        "flexible" => IoLatency::Flexible,
                        "fixed" => IoLatency::Fixed,
                        other => return Err(format!("config entry io_latency: unknown {other:?}")),
                    }
                }
                "cost_source" => {
                    config.cost_source = match value.as_str() {
                        "paper-table" => CostSource::PaperTable,
                        "synthesized" => CostSource::Synthesized,
                        other => {
                            return Err(format!("config entry cost_source: unknown {other:?}"))
                        }
                    }
                }
                "per_branch" => config.flow.per_branch = num(key, value)?,
                // Removed knob: manifests recorded before its removal carry
                // `replicas = 1`, which is exactly today's single stream
                // and falls through to the ignored keys below.
                "replicas" if value.parse::<u32>() != Ok(1) => {
                    return Err(format!(
                        "config entry replicas: {value:?} is not supported; the \
                         replicas knob was removed and saturation always runs as \
                         one sequential stream (only \"1\" is accepted)"
                    ));
                }
                "max_trees" => {
                    config.flow.max_trees = if value == "none" {
                        None
                    } else {
                        Some(num(key, value)?)
                    }
                }
                "power_budget" => {
                    config.power_budget_cdf = if value == "default" {
                        None
                    } else {
                        Some(num(key, value)?)
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Validates the configuration; returns a description of the first
    /// problem, or `None`.
    #[must_use]
    pub fn validate(&self) -> Option<String> {
        if !(2..=32).contains(&self.cbit_length) {
            return Some(format!(
                "cbit_length must be in 2..=32, got {}",
                self.cbit_length
            ));
        }
        if self.beta == 0 {
            return Some("beta must be at least 1".to_string());
        }
        if self.jobs == 0 {
            return Some("jobs must be at least 1".to_string());
        }
        self.flow.validate()
    }
}

impl Default for MercedConfig {
    fn default() -> Self {
        Self {
            cbit_length: 16,
            beta: 50,
            flow: FlowParams::paper(),
            seed: 1996,
            cost_source: CostSource::PaperTable,
            cost_policy: CostPolicy::PaperScc,
            io_latency: IoLatency::Flexible,
            jobs: 1,
            power_budget_cdf: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_4_1() {
        let c = MercedConfig::default();
        assert_eq!(c.cbit_length, 16);
        assert_eq!(c.beta, 50);
        assert_eq!(c.flow, FlowParams::paper());
        assert_eq!(c.cost_policy, CostPolicy::PaperScc);
        assert!(c.validate().is_none());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(MercedConfig::default()
            .with_cbit_length(1)
            .validate()
            .unwrap()
            .contains("cbit_length"));
        assert!(MercedConfig::default()
            .with_cbit_length(40)
            .validate()
            .is_some());
        assert!(MercedConfig::default()
            .with_beta(0)
            .validate()
            .unwrap()
            .contains("beta"));
        assert!(MercedConfig::default()
            .with_jobs(0)
            .validate()
            .unwrap()
            .contains("jobs"));
    }

    #[test]
    fn jobs_default_sequential() {
        let c = MercedConfig::default();
        assert_eq!(c.jobs, 1);
        assert_eq!(MercedConfig::default().with_jobs(8).jobs, 8);
    }

    #[test]
    fn manifest_entries_round_trip() {
        let mut flow = FlowParams::paper();
        flow.per_branch = true;
        flow.max_trees = Some(1000);
        let config = MercedConfig::default()
            .with_cbit_length(24)
            .with_beta(10)
            .with_cost_policy(CostPolicy::Solver)
            .with_io_latency(IoLatency::Fixed)
            .with_cost_source(CostSource::Synthesized)
            .with_flow(flow)
            .with_jobs(4)
            .with_power_budget_cdf(Some(3000));
        let back = MercedConfig::from_manifest_entries(&config.manifest_entries()).unwrap();
        assert_eq!(back, config);

        // Defaults round-trip too.
        let d = MercedConfig::default();
        let back = MercedConfig::from_manifest_entries(&d.manifest_entries()).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn manifest_entries_ignore_unknown_and_reject_garbage() {
        let entries = vec![
            ("cbit_length".to_owned(), "8".to_owned()),
            ("circuits".to_owned(), "3".to_owned()),
        ];
        let c = MercedConfig::from_manifest_entries(&entries).unwrap();
        assert_eq!(c.cbit_length, 8);
        assert_eq!(c.beta, MercedConfig::default().beta);

        let bad = vec![("beta".to_owned(), "many".to_owned())];
        assert!(MercedConfig::from_manifest_entries(&bad)
            .unwrap_err()
            .contains("beta"));
        let bad = vec![("policy".to_owned(), "magic".to_owned())];
        assert!(MercedConfig::from_manifest_entries(&bad)
            .unwrap_err()
            .contains("policy"));
        let bad = vec![("power_budget".to_owned(), "lots".to_owned())];
        assert!(MercedConfig::from_manifest_entries(&bad)
            .unwrap_err()
            .contains("power_budget"));

        // The removed `replicas` knob: manifests recorded before its
        // removal carry `1` and still replay; anything else is refused.
        let old = vec![("replicas".to_owned(), "1".to_owned())];
        assert_eq!(
            MercedConfig::from_manifest_entries(&old).unwrap(),
            MercedConfig::default()
        );
        let bad = vec![("replicas".to_owned(), "4".to_owned())];
        assert!(MercedConfig::from_manifest_entries(&bad)
            .unwrap_err()
            .contains("replicas knob was removed"));
    }

    #[test]
    fn power_budget_round_trips_default_and_explicit() {
        let d = MercedConfig::default();
        assert_eq!(d.power_budget_cdf, None);
        assert!(d
            .manifest_entries()
            .contains(&("power_budget".to_owned(), "default".to_owned())));
        let c = MercedConfig::default().with_power_budget_cdf(Some(1234));
        let back = MercedConfig::from_manifest_entries(&c.manifest_entries()).unwrap();
        assert_eq!(back.power_budget_cdf, Some(1234));
    }

    #[test]
    fn apply_manifest_entries_overlays_the_current_config() {
        let mut config = MercedConfig::default().with_cbit_length(24).with_beta(10);
        let overrides = vec![("beta".to_owned(), "7".to_owned())];
        config.apply_manifest_entries(&overrides).unwrap();
        // Only the named knob changes; the rest keep their values.
        assert_eq!(config.beta, 7);
        assert_eq!(config.cbit_length, 24);
    }

    #[test]
    fn builder_chains() {
        let c = MercedConfig::default()
            .with_cbit_length(24)
            .with_seed(5)
            .with_cost_policy(CostPolicy::Solver);
        assert_eq!(c.cbit_length, 24);
        assert_eq!(c.seed, 5);
        assert_eq!(c.cost_policy, CostPolicy::Solver);
    }
}
