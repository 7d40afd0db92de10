//! Difference-constraint systems with negative-cycle extraction.
//!
//! A system of constraints `x_u − x_v ≤ w` is feasible iff the constraint
//! graph (edge `v → u` with weight `w`) has no negative cycle; a feasible
//! solution is given by shortest-path distances from a virtual source
//! (Cormen, Leiserson & Rivest — the paper's reference \[11\] — §25.5 of the
//! 1990 edition).
//!
//! The retiming solver expresses both the legality condition (Corollary 3:
//! `r(u) − r(v) ≤ w(e)`) and the CBIT register-position requirements
//! (`r(u) − r(v) ≤ w(e) − 1`) in this form. When the system is infeasible,
//! [`DifferenceConstraints::solve`] returns the constraints on one negative
//! cycle, letting the caller drop the cheapest requirement (that cut then
//! pays for multiplexed test hardware instead, paper §2.3), loosen the
//! bounds it implied with [`DifferenceConstraints::raise_bound`], and
//! solve again.
//!
//! The solver is in-place Bellman–Ford, change-driven: it keeps the round
//! structure and constraint order of the textbook pass but re-examines a
//! constraint only when its source's distance dropped since the constraint
//! was last examined. Every skipped check is one that could not have
//! relaxed, so it relaxes exactly what the full pass relaxes, in the same
//! order, and ends in the same state (DESIGN.md §16).

use std::cell::OnceCell;

/// One constraint `x_u − x_v ≤ w`, with a caller-supplied tag for
/// identifying it in negative-cycle reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Constraint<T> {
    /// Left variable index.
    pub u: usize,
    /// Right variable index.
    pub v: usize,
    /// Bound.
    pub w: i64,
    /// Caller tag (e.g. a net id, or `None` for structural legality).
    pub tag: T,
}

/// Outcome of [`DifferenceConstraints::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Solution<T> {
    /// A feasible assignment (one value per variable). The assignment is the
    /// canonical shortest-distance solution: every value is ≤ 0 and at least
    /// one is 0 when constraints exist.
    Feasible(Vec<i64>),
    /// The system is infeasible; the returned constraints form one negative
    /// cycle (in traversal order).
    NegativeCycle(Vec<Constraint<T>>),
}

/// A system of difference constraints over `n` variables.
///
/// # Examples
///
/// ```
/// use ppet_graph::bellman::{DifferenceConstraints, Solution};
///
/// let mut sys = DifferenceConstraints::new(2);
/// sys.add(0, 1, 3, "a");  // x0 - x1 <= 3
/// sys.add(1, 0, -1, "b"); // x1 - x0 <= -1
/// match sys.solve() {
///     Solution::Feasible(x) => assert!(x[0] - x[1] <= 3 && x[1] - x[0] <= -1),
///     Solution::NegativeCycle(_) => unreachable!("system is feasible"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct DifferenceConstraints<T> {
    n: usize,
    constraints: Vec<Constraint<T>>,
    /// The out-lists of the constraint graph, built by the first solve
    /// after the last [`add`](Self::add) and kept across bound changes.
    out: OnceCell<OutLists>,
}

/// CSR out-lists: for each variable `v`, the indices (ascending) of the
/// constraints whose source is `v` — the ones a drop of `x_v` may relax.
#[derive(Debug, Clone)]
struct OutLists {
    start: Vec<usize>,
    list: Vec<usize>,
}

impl OutLists {
    fn of<T>(n: usize, constraints: &[Constraint<T>]) -> Self {
        let mut start = vec![0usize; n + 1];
        for c in constraints {
            start[c.v + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut list = vec![0usize; constraints.len()];
        for (ci, c) in constraints.iter().enumerate() {
            list[fill[c.v]] = ci;
            fill[c.v] += 1;
        }
        Self { start, list }
    }

    fn of_node(&self, v: usize) -> &[usize] {
        &self.list[self.start[v]..self.start[v + 1]]
    }
}

fn mark(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

impl<T: Clone> DifferenceConstraints<T> {
    /// Creates an empty system over `n` variables.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            constraints: Vec::new(),
            out: OnceCell::new(),
        }
    }

    /// Adds the constraint `x_u − x_v ≤ w`.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add(&mut self, u: usize, v: usize, w: i64, tag: T) {
        assert!(u < self.n && v < self.n, "variable index out of range");
        self.constraints.push(Constraint { u, v, w, tag });
        self.out.take();
    }

    /// Raises the bound of the `index`-th added constraint by `by`, keeping
    /// its position in the constraint order.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn raise_bound(&mut self, index: usize, by: i64) {
        let c = &mut self.constraints[index];
        c.w = c.w.saturating_add(by);
    }

    /// Number of constraints added so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True when no constraints have been added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Solves the system with change-driven in-place Bellman–Ford.
    ///
    /// All distances start at 0 (the virtual source's zero-weight edges).
    /// Each round walks the constraints in the order they were added, but
    /// examines only those whose source's distance dropped since they were
    /// last examined, tracked in two bitsets: a relaxation at constraint
    /// `i` lowering `x_u` marks `u`'s out-constraints `j > i` for this
    /// round and `j ≤ i` for the next. The first round examines only the
    /// negative bounds, since nothing else can relax from all-zero
    /// distances.
    ///
    /// A round that relaxes nothing proves the system feasible; the
    /// distances are then the unique shortest distances from the virtual
    /// source. If the `n`-th round still relaxes, the system is infeasible
    /// and the predecessor graph — the same one the full `n`-round pass
    /// builds — contains a negative cycle, found by a colored walk in
    /// `O(n)`. The worst case remains `O(n · m)` checks; the change-driven
    /// rounds skip the checks that cannot relax.
    #[must_use]
    pub fn solve(&self) -> Solution<T> {
        let n = self.n;
        let out = self.out.get_or_init(|| OutLists::of(n, &self.constraints));
        let words = self.constraints.len().div_ceil(64);
        let mut dist = vec![0i64; n];
        let mut pred: Vec<Option<usize>> = vec![None; n];
        let mut now = vec![0u64; words];
        let mut next = vec![0u64; words];
        for (ci, c) in self.constraints.iter().enumerate() {
            if c.w < 0 {
                mark(&mut now, ci);
            }
        }
        let mut relaxed = false;
        for _ in 0..n {
            relaxed = false;
            for word in 0..words {
                // The word's pending bits live in a register; a relaxation
                // adds later bits of this word there, and of later words to
                // `now` itself.
                let mut bits = std::mem::take(&mut now[word]);
                while bits != 0 {
                    let ci = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let Constraint { u, v, w, .. } = self.constraints[ci];
                    let nd = dist[v].saturating_add(w);
                    if nd < dist[u] {
                        dist[u] = nd;
                        pred[u] = Some(ci);
                        relaxed = true;
                        for &cj in out.of_node(u) {
                            if cj <= ci {
                                mark(&mut next, cj);
                            } else if cj / 64 == word {
                                bits |= 1 << (cj % 64);
                            } else {
                                mark(&mut now, cj);
                            }
                        }
                    }
                }
            }
            if !relaxed {
                break;
            }
            std::mem::swap(&mut now, &mut next);
        }
        if !relaxed {
            return Solution::Feasible(dist);
        }
        Solution::NegativeCycle(
            self.cycle_in(&pred)
                .expect("a relaxation in round n implies a negative cycle"),
        )
    }

    /// Finds a cycle in the predecessor graph left by `n` relaxation rounds
    /// that still relaxed in the last one: were it a forest, all distances
    /// would be simple-path weights and stable by round `n − 1`. A colored
    /// walk over every chain finds it in `O(V)`.
    fn cycle_in(&self, pred: &[Option<usize>]) -> Option<Vec<Constraint<T>>> {
        // Colored predecessor walk: 0 = unvisited, 1 = on current walk,
        // 2 = finished.
        let mut color = vec![0u8; self.n];
        for start in 0..self.n {
            if color[start] != 0 {
                continue;
            }
            let mut path: Vec<usize> = Vec::new();
            let mut v = start;
            loop {
                if color[v] == 1 {
                    // Found a cycle: collect constraints from v back to v.
                    let pos = path.iter().position(|&x| x == v).expect("on walk");
                    let mut cycle: Vec<Constraint<T>> = path[pos..]
                        .iter()
                        .map(|&x| self.constraints[pred[x].expect("walk node has pred")].clone())
                        .collect();
                    // `path` records u-nodes in walk order (u ← pred ← …);
                    // reverse to traversal order tail→head chaining.
                    cycle.reverse();
                    return Some(cycle);
                }
                if color[v] == 2 {
                    break;
                }
                color[v] = 1;
                path.push(v);
                match pred[v] {
                    Some(ci) => v = self.constraints[ci].v,
                    None => break,
                }
            }
            for &x in &path {
                color[x] = 2;
            }
        }
        None
    }

    /// The plain pass [`solve`](Self::solve) must reproduce: `n` full
    /// in-place rounds over every constraint, stopping early at a round
    /// that relaxes nothing.
    #[cfg(test)]
    fn solve_reference(&self) -> Solution<T> {
        let n = self.n;
        let mut dist = vec![0i64; n];
        let mut pred: Vec<Option<usize>> = vec![None; n];
        let mut relaxed = false;
        for _ in 0..n {
            relaxed = false;
            for (ci, c) in self.constraints.iter().enumerate() {
                let nd = dist[c.v].saturating_add(c.w);
                if nd < dist[c.u] {
                    dist[c.u] = nd;
                    pred[c.u] = Some(ci);
                    relaxed = true;
                }
            }
            if !relaxed {
                break;
            }
        }
        if !relaxed {
            return Solution::Feasible(dist);
        }
        Solution::NegativeCycle(self.cycle_in(&pred).expect("negative cycle"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn trivial_system_is_feasible() {
        let sys: DifferenceConstraints<()> = DifferenceConstraints::new(3);
        assert!(matches!(sys.solve(), Solution::Feasible(v) if v == vec![0, 0, 0]));
    }

    #[test]
    fn feasible_chain() {
        let mut sys = DifferenceConstraints::new(3);
        sys.add(0, 1, 2, 0); // x0 <= x1 + 2
        sys.add(1, 2, -3, 1); // x1 <= x2 - 3
        sys.add(0, 2, 1, 2); // x0 <= x2 + 1
        match sys.solve() {
            Solution::Feasible(x) => {
                assert!(x[0] - x[1] <= 2);
                assert!(x[1] - x[2] <= -3);
                assert!(x[0] - x[2] <= 1);
            }
            Solution::NegativeCycle(c) => panic!("unexpected cycle {c:?}"),
        }
    }

    #[test]
    fn infeasible_two_cycle() {
        let mut sys = DifferenceConstraints::new(2);
        sys.add(0, 1, 1, "a"); // x0 - x1 <= 1
        sys.add(1, 0, -2, "b"); // x1 - x0 <= -2 => sum = -1 < 0
        match sys.solve() {
            Solution::NegativeCycle(cycle) => {
                assert_eq!(cycle.len(), 2);
                let sum: i64 = cycle.iter().map(|c| c.w).sum();
                assert!(sum < 0, "cycle sum {sum}");
                let tags: Vec<&str> = cycle.iter().map(|c| c.tag).collect();
                assert!(tags.contains(&"a") && tags.contains(&"b"));
            }
            Solution::Feasible(x) => panic!("should be infeasible, got {x:?}"),
        }
    }

    #[test]
    fn extracted_cycle_is_connected_and_negative() {
        // Larger infeasible system with an embedded negative triangle.
        let mut sys = DifferenceConstraints::new(6);
        sys.add(0, 1, 5, 0);
        sys.add(1, 2, 5, 1);
        // Negative triangle over 3,4,5:
        sys.add(3, 4, 0, 2);
        sys.add(4, 5, 0, 3);
        sys.add(5, 3, -1, 4);
        match sys.solve() {
            Solution::NegativeCycle(cycle) => {
                let sum: i64 = cycle.iter().map(|c| c.w).sum();
                assert!(sum < 0);
                // Connectivity: each constraint's v equals the next one's u
                // (edge v -> u chains through the walk).
                for pair in cycle.windows(2) {
                    assert_eq!(pair[0].u, pair[1].v);
                }
                assert_eq!(cycle.last().unwrap().u, cycle.first().unwrap().v);
            }
            Solution::Feasible(x) => panic!("should be infeasible, got {x:?}"),
        }
    }

    #[test]
    fn solution_satisfies_all_constraints_randomized() {
        use ppet_prng::{Rng, Xoshiro256PlusPlus};
        let mut rng = Xoshiro256PlusPlus::seed_from(17);
        for trial in 0..50 {
            let n = 2 + rng.gen_index(10);
            let mut sys = DifferenceConstraints::new(n);
            // Generate from a hidden feasible assignment so the system is
            // always satisfiable; solver must find *some* solution.
            let hidden: Vec<i64> = (0..n).map(|_| rng.gen_range(-10..=10)).collect();
            for _ in 0..(n * 3) {
                let u = rng.gen_index(n);
                let v = rng.gen_index(n);
                if u == v {
                    continue;
                }
                let slack = rng.gen_range(0..=5);
                sys.add(u, v, hidden[u] - hidden[v] + slack, ());
            }
            match sys.solve() {
                Solution::Feasible(x) => {
                    for c in &sys.constraints {
                        assert!(x[c.u] - x[c.v] <= c.w, "trial {trial}");
                    }
                }
                Solution::NegativeCycle(c) => panic!("trial {trial}: spurious cycle {c:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_variable_rejected() {
        let mut sys = DifferenceConstraints::new(2);
        sys.add(0, 5, 1, ());
    }

    #[test]
    fn raised_bounds_are_seen_by_the_next_solve() {
        let mut sys = DifferenceConstraints::new(2);
        sys.add(0, 1, 1, "a");
        sys.add(1, 0, -2, "b");
        assert!(matches!(sys.solve(), Solution::NegativeCycle(_)));
        sys.raise_bound(1, 1); // x1 - x0 <= -1: the cycle now sums to 0
        assert_eq!(sys.solve(), Solution::Feasible(vec![0, -1]));
        sys.add(0, 0, -1, "self");
        assert!(matches!(sys.solve(), Solution::NegativeCycle(c) if c.len() == 1));
    }

    /// A random system of `n` variables from a flat list of
    /// `(u, v, w)` picks: self-loops, duplicates, zero and negative bounds
    /// all occur, and so do negative cycles.
    fn system(n: usize, picks: &[(usize, usize, i64)]) -> DifferenceConstraints<usize> {
        let mut sys = DifferenceConstraints::new(n);
        for (k, &(u, v, w)) in picks.iter().enumerate() {
            sys.add(u % n, v % n, w, k);
        }
        sys
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The change-driven pass answers exactly what the full `n`-round
        /// pass answers: the same distance vector when feasible, the same
        /// cycle (constraints, tags and order) when not. A prefix of the
        /// picks is added twice, so duplicates always occur; systems of
        /// more than 64 constraints span several bitset words.
        #[test]
        fn solve_matches_the_full_pass(
            n in 1usize..40,
            picks in proptest::collection::vec((0usize..40, 0usize..40, -3i64..6), 0..160),
            duplicated in 0usize..40,
            loosen in proptest::collection::vec((0usize..200, 0i64..3), 0..6),
        ) {
            let mut picks = picks;
            picks.extend_from_within(..duplicated.min(picks.len()));
            let mut sys = system(n, &picks);
            prop_assert_eq!(sys.solve(), sys.solve_reference());
            // Re-solving after raised bounds reuses the out-lists.
            for &(k, by) in &loosen {
                if k < sys.len() {
                    sys.raise_bound(k, by);
                    prop_assert_eq!(sys.solve(), sys.solve_reference());
                }
            }
        }
    }
}
