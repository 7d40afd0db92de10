//! Minimum-register retiming (Leiserson–Saxe §8, via min-cost flow).
//!
//! The paper closes by noting its framework allows "further performance
//! optimization"; the canonical instance is choosing, among all legal
//! retimings that realize the CBIT register positions, one with the
//! fewest total registers:
//!
//! ```text
//! minimize   Σ_e w_ρ(e)  =  Σ_e w(e) + Σ_v ρ(v)·(indeg(v) − outdeg(v))
//! subject to w(e) + ρ(head) − ρ(tail) ≥ demand(e)        for every edge
//! ```
//!
//! A linear objective over difference constraints is the LP dual of a
//! transshipment problem, so the optimum is computed exactly by
//! [`MinCostFlow`](crate::mincost::MinCostFlow): node `v` gets supply
//! `outdeg(v) − indeg(v)`, every constraint becomes an uncapacitated arc
//! `tail → head` with cost `w(e) − demand(e)`, and the negated optimal
//! potentials are an optimal retiming (complementary slackness — see the
//! module tests, which cross-check against brute force).
//!
//! Two objectives are provided: [`minimize_registers`] counts registers
//! *per edge* (exact for fan-out-free nets, conservative otherwise), and
//! [`minimize_shared_registers`] counts the physically paid
//! `Σ_v max_e w_ρ(e)` with register chains shared across fan-outs —
//! Leiserson–Saxe's register-sharing refinement, linearized with one
//! auxiliary variable per multi-fan-out node.

use crate::mincost::MinCostFlow;
use crate::retime::legal::{retimed_weight, Retiming};
use crate::retime::weights::{EdgeId, RetimeGraph};

/// The outcome of [`minimize_registers`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinAreaResult {
    /// An optimal legal retiming.
    pub retiming: Retiming,
    /// The minimized total register count `Σ_e w_ρ(e)`.
    pub total_registers: i64,
}

/// Finds a legal retiming minimizing the total per-edge register count,
/// subject to `w_ρ(e) ≥ demands[e]` for every edge (`demands` may be empty
/// for the unconstrained minimum, or carry per-edge cut requirements from
/// a [`CutRealization`](crate::retime::CutRealization)).
///
/// Returns `None` when the demands are unsatisfiable (some cycle demands
/// more registers than it owns — the same condition the cut realizer
/// resolves by dropping cuts) .
///
/// # Panics
///
/// Panics if `demands` is non-empty and its length differs from the edge
/// count.
///
/// # Examples
///
/// ```
/// use ppet_graph::{retime::{minimize_registers, RetimeGraph}, CircuitGraph};
/// use ppet_netlist::data;
///
/// // A shift register's registers cannot be reduced below the count on
/// // the single input-to-output path... but the *sum over edges* can when
/// // no demands force them: with flexible I/O, everything can retire to
/// // the boundary.
/// let c = data::shift_register(4);
/// let g = CircuitGraph::from_circuit(&c);
/// let rg = RetimeGraph::from_graph(&g);
/// let result = minimize_registers(&rg, &[]).expect("legality is satisfiable");
/// let original: i64 = rg.edges().iter().map(|e| i64::from(e.weight)).sum();
/// assert!(result.total_registers <= original);
/// ```
#[must_use]
pub fn minimize_registers(rg: &RetimeGraph, demands: &[i64]) -> Option<MinAreaResult> {
    let n = rg.num_nodes();
    let m = rg.edges().len();
    if !demands.is_empty() {
        assert_eq!(demands.len(), m, "one demand per edge");
    }
    if n == 0 {
        return Some(MinAreaResult {
            retiming: Vec::new(),
            total_registers: 0,
        });
    }

    // Node coefficient c_v = indeg − outdeg.
    let mut coeff = vec![0i64; n];
    let mut constraints = Vec::with_capacity(m);
    for (i, e) in rg.edges().iter().enumerate() {
        coeff[e.to.index()] += 1;
        coeff[e.from.index()] -= 1;
        let demand = demands.get(i).copied().unwrap_or(0);
        constraints.push((e.from.index(), e.to.index(), i64::from(e.weight) - demand));
    }
    let r = solve_difference_lp(n, &constraints, &coeff)?;
    let retiming: Retiming = r[..n].to_vec();

    // Verify feasibility defensively (a violated edge would mean the LP
    // duality plumbing broke — better a None than a silent illegal result).
    let mut total = 0i64;
    for i in 0..m {
        let w = retimed_weight(rg, &retiming, EdgeId::from_index(i));
        let demand = demands.get(i).copied().unwrap_or(0);
        if w < demand {
            return None;
        }
        total += w;
    }
    Some(MinAreaResult {
        retiming,
        total_registers: total,
    })
}

/// Finds a legal retiming minimizing the **shared** register count
/// `Σ_v max_{e ∈ out(v)} w_ρ(e)` — the metric the physical realization
/// actually pays, with one register chain per driver shared across its
/// fan-outs (Leiserson–Saxe's register-sharing refinement, their §8).
///
/// `max` is linearized by one auxiliary variable per multi-fan-out node
/// `v`: a "hat" `v̂` with constraints `r(u_i) − r(v̂) ≤ w_m − w(e_i)` for
/// each fan-out edge (where `w_m = max_i w(e_i)`); minimizing
/// `w_m + r(v̂) − r(v)` then yields exactly `max_i w_ρ(e_i)`.
///
/// Semantics of `demands` match [`minimize_registers`].
///
/// # Panics
///
/// Panics if `demands` is non-empty and its length differs from the edge
/// count.
///
/// # Examples
///
/// ```
/// use ppet_graph::{retime::{minimize_shared_registers, RetimeGraph}, CircuitGraph};
/// use ppet_netlist::data;
///
/// let g = CircuitGraph::from_circuit(&data::s27());
/// let rg = RetimeGraph::from_graph(&g);
/// let result = minimize_shared_registers(&rg, &[]).expect("satisfiable");
/// assert!(result.total_registers <= 3); // s27 has 3 registers to begin with
/// ```
#[must_use]
pub fn minimize_shared_registers(rg: &RetimeGraph, demands: &[i64]) -> Option<MinAreaResult> {
    let n = rg.num_nodes();
    let m = rg.edges().len();
    if !demands.is_empty() {
        assert_eq!(demands.len(), m, "one demand per edge");
    }
    if n == 0 {
        return Some(MinAreaResult {
            retiming: Vec::new(),
            total_registers: 0,
        });
    }

    // Group out-edges per node.
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, e) in rg.edges().iter().enumerate() {
        out_edges[e.from.index()].push(i);
    }

    let mut coeff = vec![0i64; n];
    let mut constraints: Vec<(usize, usize, i64)> = Vec::new();
    // Legality + demand constraints on the real edges.
    for (i, e) in rg.edges().iter().enumerate() {
        let demand = demands.get(i).copied().unwrap_or(0);
        constraints.push((e.from.index(), e.to.index(), i64::from(e.weight) - demand));
    }
    // Hat variables for nodes with out-edges.
    let mut next_var = n;
    let mut hats: Vec<(usize, usize, i64)> = Vec::new(); // (node, hat var, w_m)
    for (v, outs) in out_edges.iter().enumerate() {
        if outs.is_empty() {
            continue;
        }
        if outs.len() == 1 {
            // Single fan-out: shared = w_ρ(e) directly.
            let e = &rg.edges()[outs[0]];
            coeff[e.to.index()] += 1;
            coeff[e.from.index()] -= 1;
            continue;
        }
        let w_m = outs
            .iter()
            .map(|&i| i64::from(rg.edges()[i].weight))
            .max()
            .expect("non-empty");
        let hat = next_var;
        next_var += 1;
        hats.push((v, hat, w_m));
        for &i in outs {
            let e = &rg.edges()[i];
            // r(u_i) − r(v̂) ≤ w_m − w(e_i)
            constraints.push((e.to.index(), hat, w_m - i64::from(e.weight)));
        }
        // Objective term w_m + r(v̂) − r(v).
        coeff[v] -= 1;
    }
    let total_vars = next_var;
    let mut full_coeff = vec![0i64; total_vars];
    full_coeff[..n].copy_from_slice(&coeff);
    for &(_, hat, _) in &hats {
        full_coeff[hat] = 1;
    }

    let assignment = solve_difference_lp(total_vars, &constraints, &full_coeff)?;
    let retiming: Retiming = assignment[..n].to_vec();

    // Defensive feasibility check + exact shared count from the retiming.
    for i in 0..m {
        let w = retimed_weight(rg, &retiming, EdgeId::from_index(i));
        let demand = demands.get(i).copied().unwrap_or(0);
        if w < demand {
            return None;
        }
    }
    let total_registers = (0..n)
        .map(|v| {
            out_edges[v]
                .iter()
                .map(|&i| retimed_weight(rg, &retiming, EdgeId::from_index(i)))
                .max()
                .unwrap_or(0)
        })
        .sum();
    Some(MinAreaResult {
        retiming,
        total_registers,
    })
}

/// Minimizes `Σ coeff[v]·x[v]` subject to `x[u] − x[v] ≤ b` for every
/// `(u, v, b)` in `constraints`, via the min-cost-flow dual: node `v` gets
/// supply `−coeff[v]`, each constraint becomes an arc `u → v` with cost `b`
/// and ample capacity, and the negated optimal potentials solve the primal
/// (complementary slackness). Returns `None` when unbounded/infeasible.
fn solve_difference_lp(
    n: usize,
    constraints: &[(usize, usize, i64)],
    coeff: &[i64],
) -> Option<Vec<i64>> {
    let mut mcf = MinCostFlow::new(n);
    let total_pos: i64 = coeff.iter().filter(|&&c| c > 0).sum();
    let big = total_pos.max(1);
    for &(u, v, b) in constraints {
        mcf.add_arc(u, v, big, b);
    }
    for (v, &c) in coeff.iter().enumerate() {
        mcf.set_supply(v, -c);
    }
    let sol = mcf.solve()?;
    Some(sol.potentials.iter().map(|&p| -p).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CircuitGraph;
    use crate::retime::solver::CutRealizer;
    use ppet_netlist::{bench_format, data, Circuit, SynthSpec, Synthesizer};

    fn rg_of(c: &Circuit) -> RetimeGraph {
        let g = CircuitGraph::from_circuit(c);
        RetimeGraph::from_graph(&g)
    }

    fn edge_sum(rg: &RetimeGraph, r: &Retiming) -> i64 {
        (0..rg.edges().len())
            .map(|i| retimed_weight(rg, r, EdgeId::from_index(i)))
            .sum()
    }

    /// Brute force over a small retiming box.
    fn brute_force_min(rg: &RetimeGraph, demands: &[i64], radius: i64) -> Option<i64> {
        let n = rg.num_nodes();
        let span = (2 * radius + 1) as u64;
        let combos = span.checked_pow(n as u32)?;
        let mut best: Option<i64> = None;
        'outer: for code in 0..combos {
            let mut c = code;
            let mut r = vec![0i64; n];
            for slot in r.iter_mut() {
                *slot = (c % span) as i64 - radius;
                c /= span;
            }
            let mut total = 0i64;
            for i in 0..rg.edges().len() {
                let w = retimed_weight(rg, &r, EdgeId::from_index(i));
                let d = demands.get(i).copied().unwrap_or(0);
                if w < d {
                    continue 'outer;
                }
                total += w;
            }
            best = Some(best.map_or(total, |b: i64| b.min(total)));
        }
        best
    }

    #[test]
    fn matches_brute_force_on_tiny_loop() {
        let c = bench_format::parse(
            "loop2",
            "INPUT(x)\nOUTPUT(g2)\nq1 = DFF(g2)\nq2 = DFF(q1)\n\
             g1 = AND(q2, x)\ng2 = OR(g1, x)\n",
        )
        .unwrap();
        let rg = rg_of(&c);
        assert!(rg.num_nodes() <= 6, "brute force box must stay tiny");
        let opt = minimize_registers(&rg, &[]).unwrap();
        let brute = brute_force_min(&rg, &[], 3).unwrap();
        assert_eq!(opt.total_registers, brute);
        assert_eq!(opt.total_registers, edge_sum(&rg, &opt.retiming));
    }

    #[test]
    fn matches_brute_force_with_demands() {
        let c = bench_format::parse(
            "loop2",
            "INPUT(x)\nOUTPUT(g2)\nq1 = DFF(g2)\nq2 = DFF(q1)\n\
             g1 = AND(q2, x)\ng2 = OR(g1, x)\n",
        )
        .unwrap();
        let rg = rg_of(&c);
        // Demand one register on every edge that touches g1's net.
        let g1 = c.find("g1").unwrap();
        let demands: Vec<i64> = rg
            .edges()
            .iter()
            .map(|e| i64::from(e.nets.contains(&g1)))
            .collect();
        let opt = minimize_registers(&rg, &demands).unwrap();
        let brute = brute_force_min(&rg, &demands, 3).unwrap();
        assert_eq!(opt.total_registers, brute);
    }

    #[test]
    fn infeasible_demands_return_none() {
        // The 1-register loop cannot provide 2 registers on its cycle.
        let c = bench_format::parse(
            "loop1",
            "INPUT(x)\nOUTPUT(g2)\nq = DFF(g2)\ng1 = AND(q, x)\ng2 = OR(g1, x)\n",
        )
        .unwrap();
        let rg = rg_of(&c);
        let g1 = c.find("g1").unwrap();
        let g2 = c.find("g2").unwrap();
        let demands: Vec<i64> = rg
            .edges()
            .iter()
            .map(|e| i64::from(e.nets.contains(&g1) || e.nets.contains(&g2)))
            .collect();
        assert!(minimize_registers(&rg, &demands).is_none());
    }

    #[test]
    fn never_worse_than_identity_or_realizer() {
        let c = data::s27();
        let rg = rg_of(&c);
        let identity = vec![0i64; rg.num_nodes()];
        let opt = minimize_registers(&rg, &[]).unwrap();
        assert!(opt.total_registers <= edge_sum(&rg, &identity));

        // With the realizer's covered cuts as demands, min-area still beats
        // (or ties) the realizer's own retiming on register count.
        let cuts = vec![c.find("G10").unwrap(), c.find("G11").unwrap()];
        let real = CutRealizer::new(&rg).realize(&cuts);
        let demands: Vec<i64> = rg
            .edges()
            .iter()
            .map(|e| e.nets.iter().filter(|n| real.covered.contains(n)).count() as i64)
            .collect();
        let opt = minimize_registers(&rg, &demands).expect("realizer proved feasibility");
        assert!(opt.total_registers <= edge_sum(&rg, &real.retiming));
        // And the demands still hold (checked inside, but assert the cut
        // coverage meaningfully here too).
        for (i, d) in demands.iter().enumerate() {
            assert!(retimed_weight(&rg, &opt.retiming, EdgeId::from_index(i)) >= *d);
        }
    }

    #[test]
    fn shared_objective_matches_brute_force_on_fanout_circuit() {
        // x fans out; g1 fans out to g2 and the register chain.
        let c = bench_format::parse(
            "fan",
            "INPUT(x)
OUTPUT(g2)
OUTPUT(q2)
q1 = DFF(g1)
q2 = DFF(q1)
             g1 = AND(x, x)
g2 = OR(g1, x)
",
        )
        .unwrap();
        let rg = rg_of(&c);
        assert!(rg.num_nodes() <= 6);
        let opt = minimize_shared_registers(&rg, &[]).unwrap();

        // Brute force the shared metric.
        let shared = |r: &Retiming| -> i64 {
            let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); rg.num_nodes()];
            for (i, e) in rg.edges().iter().enumerate() {
                out_edges[e.from.index()].push(i);
            }
            (0..rg.num_nodes())
                .map(|v| {
                    out_edges[v]
                        .iter()
                        .map(|&i| retimed_weight(&rg, r, EdgeId::from_index(i)))
                        .max()
                        .unwrap_or(0)
                })
                .sum()
        };
        let n = rg.num_nodes();
        let span = 7u64; // radius 3
        let mut best: Option<i64> = None;
        'outer: for code in 0..span.pow(n as u32) {
            let mut cc = code;
            let mut r = vec![0i64; n];
            for slot in r.iter_mut() {
                *slot = (cc % span) as i64 - 3;
                cc /= span;
            }
            for i in 0..rg.edges().len() {
                if retimed_weight(&rg, &r, EdgeId::from_index(i)) < 0 {
                    continue 'outer;
                }
            }
            let s = shared(&r);
            best = Some(best.map_or(s, |b: i64| b.min(s)));
        }
        assert_eq!(opt.total_registers, best.unwrap());
        assert_eq!(opt.total_registers, shared(&opt.retiming));
    }

    #[test]
    fn shared_optimum_never_exceeds_edge_sum_optimum() {
        let c = data::s27();
        let rg = rg_of(&c);
        let per_edge = minimize_registers(&rg, &[]).unwrap();
        let shared = minimize_shared_registers(&rg, &[]).unwrap();
        // The shared metric counts each fan-out chain once, so its optimum
        // is at most the per-edge sum optimum.
        assert!(shared.total_registers <= per_edge.total_registers);
    }

    #[test]
    fn shared_with_demands_still_covers_cuts() {
        let c = data::s27();
        let rg = rg_of(&c);
        let cuts = vec![c.find("G10").unwrap(), c.find("G11").unwrap()];
        let real = CutRealizer::new(&rg).realize(&cuts);
        let demands: Vec<i64> = rg
            .edges()
            .iter()
            .map(|e| e.nets.iter().filter(|n| real.covered.contains(n)).count() as i64)
            .collect();
        let opt = minimize_shared_registers(&rg, &demands).expect("feasible");
        for (i, &d) in demands.iter().enumerate() {
            assert!(retimed_weight(&rg, &opt.retiming, EdgeId::from_index(i)) >= d);
        }
        // Consistency with the physical realization metric.
        use crate::retime::apply::shared_register_count;
        assert_eq!(
            shared_register_count(&rg, &opt.retiming) as i64,
            opt.total_registers
        );
    }

    #[test]
    fn random_circuits_beat_sampled_feasible_retimings() {
        use ppet_prng::{Rng, Xoshiro256PlusPlus};
        let mut prng = Xoshiro256PlusPlus::seed_from(31);
        for seed in 0..6 {
            let c = Synthesizer::new(
                SynthSpec::new("ma")
                    .primary_inputs(3)
                    .flip_flops(4)
                    .dffs_on_scc(2)
                    .gates(12)
                    .inverters(3)
                    .seed(seed),
            )
            .build();
            let rg = rg_of(&c);
            let opt = minimize_registers(&rg, &[]).unwrap();
            // Sample random legal retimings; none may beat the optimum.
            for _ in 0..200 {
                let r: Retiming = (0..rg.num_nodes())
                    .map(|_| prng.gen_range(-2..=2))
                    .collect();
                let legal = (0..rg.edges().len())
                    .all(|i| retimed_weight(&rg, &r, EdgeId::from_index(i)) >= 0);
                if legal {
                    assert!(
                        edge_sum(&rg, &r) >= opt.total_registers,
                        "seed {seed}: sampled beats optimum"
                    );
                }
            }
        }
    }
}
