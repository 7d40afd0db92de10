//! The retiming principles of the paper's §2.2 as checkable predicates.
//!
//! * **Lemma 1** — for a path `p`, `f_ρ(p) = f(p) + ρ(v_n) − ρ(v_0)`;
//! * **Corollary 2** — on any directed cycle, `f_ρ(p) = f(p)`;
//! * **Corollary 3** — a retiming is *legal* when every retimed edge weight
//!   is non-negative.

use crate::retime::weights::{EdgeId, RetimeGraph};

/// A retiming assignment: one integer lag per retime-graph node.
pub type Retiming = Vec<i64>;

/// The retimed weight of an edge: `w_ρ(e) = w(e) + ρ(head) − ρ(tail)`.
///
/// # Examples
///
/// ```
/// use ppet_graph::{retime::{retimed_weight, RetimeGraph}, CircuitGraph};
/// use ppet_netlist::data;
///
/// let g = CircuitGraph::from_circuit(&data::s27());
/// let rg = RetimeGraph::from_graph(&g);
/// let identity = vec![0i64; rg.num_nodes()];
/// for (i, e) in rg.edges().iter().enumerate() {
///     let id = ppet_graph::retime::EdgeId::from_index(i);
///     assert_eq!(retimed_weight(&rg, &identity, id), i64::from(e.weight));
/// }
/// ```
#[must_use]
pub fn retimed_weight(rg: &RetimeGraph, r: &Retiming, edge: EdgeId) -> i64 {
    let e = rg.edge(edge);
    i64::from(e.weight) + r[e.to.index()] - r[e.from.index()]
}

/// Corollary 3: every retimed edge weight is non-negative.
///
/// # Panics
///
/// Panics if `r.len() != rg.num_nodes()`.
#[must_use]
pub fn is_legal(rg: &RetimeGraph, r: &Retiming) -> bool {
    assert_eq!(r.len(), rg.num_nodes(), "one lag per node required");
    (0..rg.edges().len()).all(|i| retimed_weight(rg, r, EdgeId::from_index(i)) >= 0)
}

/// Lemma 1 for an explicit edge path: total retimed weight of the path.
///
/// # Panics
///
/// Panics if consecutive edges do not share endpoints (not a path).
#[must_use]
pub fn retimed_path_weight(rg: &RetimeGraph, r: &Retiming, path: &[EdgeId]) -> i64 {
    validate_path(rg, path);
    path.iter().map(|&e| retimed_weight(rg, r, e)).sum()
}

/// The original register count of an edge path (`f(p)`).
///
/// # Panics
///
/// Panics if consecutive edges do not share endpoints (not a path).
#[must_use]
pub fn path_weight(rg: &RetimeGraph, path: &[EdgeId]) -> i64 {
    validate_path(rg, path);
    path.iter().map(|&e| i64::from(rg.edge(e).weight)).sum()
}

fn validate_path(rg: &RetimeGraph, path: &[EdgeId]) {
    for pair in path.windows(2) {
        assert_eq!(
            rg.edge(pair[0]).to,
            rg.edge(pair[1]).from,
            "edges do not form a path"
        );
    }
}

impl EdgeId {
    /// Creates an `EdgeId` from a dense index (for iteration code).
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        Self(u32::try_from(i).expect("edge index exceeds u32"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CircuitGraph;
    use ppet_netlist::data;
    use ppet_prng::{Rng, Xoshiro256PlusPlus};

    fn rg() -> RetimeGraph {
        let g = CircuitGraph::from_circuit(&data::s27());
        RetimeGraph::from_graph(&g)
    }

    #[test]
    fn identity_retiming_is_legal() {
        let rg = rg();
        assert!(is_legal(&rg, &vec![0; rg.num_nodes()]));
    }

    #[test]
    fn lemma1_holds_for_random_retimings_and_paths() {
        let rg = rg();
        let mut prng = Xoshiro256PlusPlus::seed_from(4);
        for _ in 0..100 {
            let r: Retiming = (0..rg.num_nodes())
                .map(|_| prng.gen_range(-3..=3))
                .collect();
            // Random walk path of up to 6 edges.
            let start = EdgeId::from_index(prng.gen_index(rg.edges().len()));
            let mut path = vec![start];
            for _ in 0..5 {
                let tail = rg.edge(*path.last().unwrap()).to;
                let outs = rg.out_edges(tail);
                if outs.is_empty() {
                    break;
                }
                path.push(outs[prng.gen_index(outs.len())]);
            }
            let v0 = rg.edge(path[0]).from;
            let vn = rg.edge(*path.last().unwrap()).to;
            let lhs = retimed_path_weight(&rg, &r, &path);
            let rhs = path_weight(&rg, &path) + r[vn.index()] - r[v0.index()];
            assert_eq!(lhs, rhs, "Lemma 1 violated");
        }
    }

    #[test]
    fn corollary2_cycles_preserve_weight() {
        // Find cycles by random walking until we return to the start node;
        // by Lemma 1 the retimed weight must equal the original.
        let rg = rg();
        let mut prng = Xoshiro256PlusPlus::seed_from(9);
        let mut found = 0;
        'outer: for _ in 0..500 {
            let start_edge = EdgeId::from_index(prng.gen_index(rg.edges().len()));
            let origin = rg.edge(start_edge).from;
            let mut path = vec![start_edge];
            for _ in 0..20 {
                let tail = rg.edge(*path.last().unwrap()).to;
                if tail == origin {
                    let r: Retiming = (0..rg.num_nodes())
                        .map(|_| prng.gen_range(-5..=5))
                        .collect();
                    assert_eq!(
                        retimed_path_weight(&rg, &r, &path),
                        path_weight(&rg, &path),
                        "Corollary 2 violated"
                    );
                    found += 1;
                    continue 'outer;
                }
                let outs = rg.out_edges(tail);
                if outs.is_empty() {
                    continue 'outer;
                }
                path.push(outs[prng.gen_index(outs.len())]);
            }
        }
        assert!(found > 0, "no cycles sampled in s27 (unexpected)");
    }

    #[test]
    fn illegal_retiming_detected() {
        let rg = rg();
        // Find a zero-weight edge and push its tail forward: w_r < 0.
        let (i, e) = rg
            .edges()
            .iter()
            .enumerate()
            .find(|(_, e)| e.weight == 0)
            .expect("s27 has zero-weight edges");
        let mut r = vec![0i64; rg.num_nodes()];
        r[e.from.index()] = 1;
        assert!(retimed_weight(&rg, &r, EdgeId::from_index(i)) < 0);
        assert!(!is_legal(&rg, &r));
    }

    #[test]
    #[should_panic(expected = "path")]
    fn non_path_rejected() {
        let rg = rg();
        // Two arbitrary edges that (very likely) do not chain; find a
        // definite non-chaining pair.
        let e0 = EdgeId::from_index(0);
        let bad = (0..rg.edges().len())
            .map(EdgeId::from_index)
            .find(|&e| rg.edge(e).from != rg.edge(e0).to)
            .unwrap();
        let _ = path_weight(&rg, &[e0, bad]);
    }
}
