//! Parameters of the saturation process.

/// Tunables of `Saturate_Network` (paper Table 3 and §4.1).
///
/// The paper reports that `b = 1`, `min_visit = 20`, `α = 4`, `Δ = 0.01`
/// give a well-differentiated distance function on the benchmark suite;
/// [`FlowParams::paper`] is that setting. The constraint to respect when
/// tuning is `min_visit · Δ ≤ b` so average flow does not exceed capacity
/// (§4.1).
///
/// # Examples
///
/// ```
/// let p = ppet_flow::FlowParams::paper();
/// assert_eq!(p.min_visit, 20);
/// assert!(p.min_visit as f64 * p.delta <= p.capacity);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlowParams {
    /// Net capacity `b` (every net has the same capacity).
    pub capacity: f64,
    /// Flow quantum `Δ` injected per tree net.
    pub delta: f64,
    /// Congestion exponent `α` in `d(e) = exp(α·flow/cap)`.
    pub alpha: f64,
    /// Minimum number of times every node must have been picked as a source
    /// before the process stops.
    pub min_visit: u32,
    /// When `true`, a net on a shortest-path tree receives `Δ` per tree
    /// *branch* instead of `Δ` per tree (the multi-pin ambiguity discussed
    /// in `DESIGN.md` §3; the paper's Table 3 reads as per-net, the
    /// default).
    pub per_branch: bool,
    /// Optional cap on the total number of shortest-path trees. The
    /// paper-faithful loop runs exactly `(min_visit + 1) · |V|` trees,
    /// which is intractable for the 20 000-cell benchmarks on commodity
    /// hardware (and could not have been what the authors ran in 98 s on a
    /// Sparc10); the large-circuit harnesses set a budget of a few trees
    /// per node and record the deviation in `EXPERIMENTS.md`. The cap may
    /// fall mid-round, so visit counts then differ by at most one across
    /// nodes. `None` = unbounded.
    pub max_trees: Option<u64>,
}

impl FlowParams {
    /// Largest exponent [`FlowParams::congestion_distance`] feeds to
    /// `exp`. `exp(709.78…)` is the last finite `f64`; saturating a little
    /// below it keeps every congestion distance finite with headroom for
    /// downstream additions.
    pub const MAX_EXPONENT: f64 = 700.0;

    /// The congestion distance `d(e) = exp(α·flow/cap)` of Table 3 STEP
    /// 3.3, with the exponent saturated at [`FlowParams::MAX_EXPONENT`].
    ///
    /// [`FlowParams::validate`] bounds the *average* flow, but a net that
    /// far more trees share than average (a bottleneck every source routes
    /// through, or a heavily shared net in a per-branch run) can carry
    /// enough flow that the raw `exp` overflows to `+inf`, which makes
    /// every path through the net compare as unreachable and silently
    /// distorts the trees that follow. Saturating keeps the distance finite and the ordering of
    /// all smaller flows intact. The production loop and the reference
    /// share this single definition, so they stay bit-identical.
    ///
    /// # Examples
    ///
    /// ```
    /// let p = ppet_flow::FlowParams::paper();
    /// assert_eq!(p.congestion_distance(0.0), 1.0);
    /// assert!(p.congestion_distance(f64::MAX).is_finite());
    /// ```
    #[must_use]
    pub fn congestion_distance(&self, flow: f64) -> f64 {
        let exponent = (self.alpha * flow / self.capacity).min(Self::MAX_EXPONENT);
        exponent.exp()
    }

    /// The paper's published setting: `b = 1`, `min_visit = 20`, `α = 4`,
    /// `Δ = 0.01`, per-net accounting.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            capacity: 1.0,
            delta: 0.01,
            alpha: 4.0,
            min_visit: 20,
            per_branch: false,
            max_trees: None,
        }
    }

    /// A fast setting for unit tests and examples on small circuits
    /// (`min_visit = 5`).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            min_visit: 5,
            ..Self::paper()
        }
    }

    /// The paper setting with a tree budget of `trees_per_node · |V|`
    /// shortest-path trees, for circuits too large for the unbounded loop.
    #[must_use]
    pub fn budgeted(num_nodes: usize, trees_per_node: u64) -> Self {
        Self {
            max_trees: Some(trees_per_node.saturating_mul(num_nodes as u64).max(1)),
            ..Self::paper()
        }
    }

    /// Validates the parameter set; returns a description of the first
    /// problem found, or `None` when sane.
    #[must_use]
    pub fn validate(&self) -> Option<String> {
        if self.capacity.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Some(format!("capacity must be positive, got {}", self.capacity));
        }
        if self.delta.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Some(format!("delta must be positive, got {}", self.delta));
        }
        if self.alpha.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Some(format!("alpha must be positive, got {}", self.alpha));
        }
        if self.min_visit == 0 {
            return Some("min_visit must be at least 1".to_string());
        }
        if f64::from(self.min_visit) * self.delta > self.capacity * 64.0 {
            // exp(α·flow/cap) would overflow long before this; refuse.
            return Some("min_visit·delta/capacity is absurdly large".to_string());
        }
        None
    }
}

impl Default for FlowParams {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_match_section_4_1() {
        let p = FlowParams::paper();
        assert_eq!(p.capacity, 1.0);
        assert_eq!(p.delta, 0.01);
        assert_eq!(p.alpha, 4.0);
        assert_eq!(p.min_visit, 20);
        assert!(!p.per_branch);
        assert!(p.validate().is_none());
    }

    #[test]
    fn bad_parameters_flagged() {
        let mut p = FlowParams::paper();
        p.delta = 0.0;
        assert!(p.validate().unwrap().contains("delta"));
        let mut p = FlowParams::paper();
        p.capacity = -1.0;
        assert!(p.validate().unwrap().contains("capacity"));
        let mut p = FlowParams::paper();
        p.min_visit = 0;
        assert!(p.validate().unwrap().contains("min_visit"));
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(FlowParams::default(), FlowParams::paper());
    }

    #[test]
    fn congestion_distance_saturates_instead_of_overflowing() {
        let p = FlowParams::paper();
        assert_eq!(p.congestion_distance(0.0), 1.0);
        // Below the clamp the definition is the raw exponential.
        assert_eq!(p.congestion_distance(0.5), (p.alpha * 0.5).exp());
        // Past the clamp the distance stays finite (raw exp would be +inf
        // for any exponent above ~709.78).
        let saturated = p.congestion_distance(1e6);
        assert!(saturated.is_finite());
        assert_eq!(saturated, FlowParams::MAX_EXPONENT.exp());
        assert_eq!(p.congestion_distance(f64::MAX), saturated);
        // Monotone: saturation never reorders smaller flows.
        assert!(p.congestion_distance(10.0) < p.congestion_distance(100.0));
    }
}
