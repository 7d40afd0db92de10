//! Retiming legality re-verification (paper §2.2–§2.3).
//!
//! The audit does not trust the compiler's area accounting to imply that a
//! legal retiming exists. It re-runs the difference-constraint realizer on
//! the recorded cut set, then checks the produced lag vector **as data**:
//!
//! * Corollary 3 — every retimed edge weight `w_ρ(e) = w(e) + ρ(head) −
//!   ρ(tail)` is non-negative ([`AuditCode::RetimeLegality`]);
//! * cut coverage — every register chain crossing `c` covered cut nets
//!   keeps at least `c` registers ([`AuditCode::RetimeCoverage`]);
//! * Corollary 2 — sampled directed cycles keep their register count
//!   ([`AuditCode::RetimeCycleRegisters`]);
//! * the per-SCC donation bound — converted bits claimed against cyclic
//!   SCCs never exceed the registers those SCCs own
//!   ([`AuditCode::RetimeSccSupply`], paper-policy runs only: the solver
//!   policy is certified per cycle by the witness itself, which is exact
//!   where the per-SCC aggregate is an approximation).
//!
//! The witness (sparse lags plus the covered cut list) is serialized into
//! manifests so a later `merced audit` can re-verify the *recorded* lag
//! vector against the netlist — a corrupted lag then fails legality or
//! coverage directly.

use std::collections::BTreeSet;

use ppet_graph::retime::{
    retimed_weight, CutRealization, CutRealizer, EdgeId, IoLatency, RetimeGraph, Retiming,
};
use ppet_graph::scc::SccId;
use ppet_graph::CircuitGraph;
use ppet_netlist::{CellId, Circuit, NetId};

use crate::code::AuditCode;
use crate::ctx::Ctx;
use crate::report::AuditReport;
use crate::subject::RetimingPolicy;

/// How many independent cycles the Corollary 2 spot-check samples.
const CYCLE_SAMPLES: usize = 16;

pub(crate) fn check(ctx: &Ctx<'_>, report: &mut AuditReport) -> Option<CutRealization> {
    let subject = ctx.subject;
    let rg = RetimeGraph::from_graph(&ctx.graph);
    let io = match subject.policy {
        RetimingPolicy::PaperScc => IoLatency::Flexible,
        RetimingPolicy::Solver(io) => io,
    };
    let real = CutRealizer::new(&rg)
        .io_latency(io)
        .realize(subject.cut_nets);
    if real.retiming.len() != rg.num_nodes() {
        report.fail(
            AuditCode::RetimeWitness,
            format!(
                "witness has {} lags for {} nodes",
                real.retiming.len(),
                rg.num_nodes()
            ),
        );
        return None;
    }
    report.ok(
        AuditCode::RetimeWitness,
        format!(
            "realizer covered {} of {} cuts in {} iterations",
            real.covered.len(),
            subject.cut_nets.len(),
            real.iterations
        ),
    );
    let covered: BTreeSet<NetId> = real.covered.iter().copied().collect();
    verify_lags(&rg, &real.retiming, &covered, report);
    report.witness = Some(serialize_witness(&real.retiming, &real.covered));

    // Corollary 2 donation bound, paper policy: converted bits claimed on
    // cyclic SCCs cannot exceed the registers those SCCs hold.
    if subject.policy == RetimingPolicy::PaperScc {
        let mut chi = vec![0usize; ctx.scc.len()];
        let mut off_scc = 0usize;
        let mut cuts = subject.cut_nets.to_vec();
        cuts.sort_unstable();
        cuts.dedup();
        for &c in &cuts {
            if ctx.scc.net_in_cyclic_component(&ctx.graph, c) {
                chi[ctx.scc.component_of(ctx.graph.net(c).src()).index()] += 1;
            } else {
                off_scc += 1;
            }
        }
        let supply: usize = chi
            .iter()
            .enumerate()
            .map(|(i, &x)| x.min(ctx.scc.registers_in(SccId(i as u32))))
            .sum();
        let claimed = subject.claims.with_retiming.converted_bits;
        if claimed <= off_scc + supply {
            report.ok(
                AuditCode::RetimeSccSupply,
                format!(
                    "{claimed} converted bits within supply {off_scc} off-SCC + {supply} on-SCC"
                ),
            );
        } else {
            report.fail(
                AuditCode::RetimeSccSupply,
                format!(
                    "claimed {claimed} converted bits, Corollary 2 supplies at most {}",
                    off_scc + supply
                ),
            );
        }
    }
    Some(real)
}

/// Legality, coverage, and the cycle spot-check for one lag vector.
fn verify_lags(
    rg: &RetimeGraph,
    lags: &Retiming,
    covered: &BTreeSet<NetId>,
    report: &mut AuditReport,
) {
    let mut illegal = Vec::new();
    let mut uncovered = Vec::new();
    for (i, e) in rg.edges().iter().enumerate() {
        let w = retimed_weight(rg, lags, EdgeId::from_index(i));
        if w < 0 && illegal.len() < 3 {
            illegal.push(format!("edge {i}: w_r = {w}"));
        }
        let demand = e.nets.iter().filter(|n| covered.contains(n)).count() as i64;
        if w >= 0 && w < demand && uncovered.len() < 3 {
            uncovered.push(format!("edge {i}: w_r = {w} < demand {demand}"));
        }
    }
    if illegal.is_empty() {
        report.ok(
            AuditCode::RetimeLegality,
            format!("all {} retimed edge weights non-negative", rg.edges().len()),
        );
    } else {
        report.fail(AuditCode::RetimeLegality, illegal.join("; "));
    }
    if uncovered.is_empty() {
        report.ok(
            AuditCode::RetimeCoverage,
            format!("{} covered cuts keep their registers", covered.len()),
        );
    } else {
        report.fail(AuditCode::RetimeCoverage, uncovered.join("; "));
    }

    let cycles = sample_cycles(rg, CYCLE_SAMPLES);
    let broken = cycles
        .iter()
        .filter(|cycle| {
            let original: i64 = cycle.iter().map(|&e| i64::from(rg.edge(e).weight)).sum();
            let retimed: i64 = cycle.iter().map(|&e| retimed_weight(rg, lags, e)).sum();
            original != retimed
        })
        .count();
    if broken == 0 {
        report.ok(
            AuditCode::RetimeCycleRegisters,
            format!("{} sampled cycles keep their register counts", cycles.len()),
        );
    } else {
        report.fail(
            AuditCode::RetimeCycleRegisters,
            format!(
                "{broken} of {} sampled cycles changed register count",
                cycles.len()
            ),
        );
    }
}

/// Re-verifies a witness string recorded in a manifest against the
/// netlist: parse, legality, coverage, cycle invariance. A corrupted lag
/// or covered-net index fails with the same codes a live audit would use.
#[must_use]
pub fn verify_recorded_witness(circuit: &Circuit, witness: &str) -> AuditReport {
    let mut report = AuditReport::default();
    let graph = CircuitGraph::from_circuit(circuit);
    let rg = RetimeGraph::from_graph(&graph);
    let (lags, covered) = match parse_witness(witness, rg.num_nodes(), circuit.num_cells()) {
        Ok(pair) => pair,
        Err(problem) => {
            report.fail(AuditCode::RetimeWitness, problem);
            return report;
        }
    };
    report.ok(
        AuditCode::RetimeWitness,
        format!("recorded witness parsed: {} covered cuts", covered.len()),
    );
    verify_lags(&rg, &lags, &covered, &mut report);
    report
}

/// Serializes `node:lag` pairs (zero lags omitted) and the covered cut
/// cells as `lags|covered`, each `-` when empty.
#[must_use]
pub fn serialize_witness(lags: &Retiming, covered: &[NetId]) -> String {
    let l: Vec<String> = lags
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0)
        .map(|(i, v)| format!("{i}:{v}"))
        .collect();
    let c: Vec<String> = covered.iter().map(|n| n.index().to_string()).collect();
    let join = |parts: Vec<String>| {
        if parts.is_empty() {
            "-".to_owned()
        } else {
            parts.join(",")
        }
    };
    format!("{}|{}", join(l), join(c))
}

fn parse_witness(
    witness: &str,
    num_nodes: usize,
    num_cells: usize,
) -> Result<(Retiming, BTreeSet<NetId>), String> {
    let (lag_part, covered_part) = witness
        .split_once('|')
        .ok_or_else(|| format!("witness missing '|' separator: {witness:?}"))?;
    let mut lags = vec![0i64; num_nodes];
    if lag_part != "-" {
        for pair in lag_part.split(',') {
            let (i, v) = pair
                .split_once(':')
                .ok_or_else(|| format!("bad lag entry {pair:?}"))?;
            let i: usize = i.parse().map_err(|_| format!("bad lag node {i:?}"))?;
            let v: i64 = v.parse().map_err(|_| format!("bad lag value {v:?}"))?;
            if i >= num_nodes {
                return Err(format!("lag node {i} out of range 0..{num_nodes}"));
            }
            lags[i] = v;
        }
    }
    let mut covered = BTreeSet::new();
    if covered_part != "-" {
        for item in covered_part.split(',') {
            let i: usize = item
                .parse()
                .map_err(|_| format!("bad covered net {item:?}"))?;
            if i >= num_cells {
                return Err(format!("covered net {i} out of range 0..{num_cells}"));
            }
            covered.insert(CellId::from_index(i));
        }
    }
    Ok((lags, covered))
}

/// Deterministically samples up to `limit` directed cycles by DFS,
/// reporting each back edge's enclosing path cycle once.
fn sample_cycles(rg: &RetimeGraph, limit: usize) -> Vec<Vec<EdgeId>> {
    let n = rg.num_nodes();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, e) in rg.edges().iter().enumerate() {
        adj[e.from.index()].push(i);
    }
    let mut cycles = Vec::new();
    let mut color = vec![0u8; n]; // 0 = unseen, 1 = on path, 2 = done
    let mut pos_in_path = vec![usize::MAX; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut path_nodes = vec![start];
        let mut path_edges: Vec<usize> = Vec::new();
        let mut cursors = vec![0usize];
        color[start] = 1;
        pos_in_path[start] = 0;
        while let Some(&node) = path_nodes.last() {
            let cursor = cursors.last_mut().expect("cursor per path node");
            if *cursor < adj[node].len() {
                let ei = adj[node][*cursor];
                *cursor += 1;
                let to = rg.edges()[ei].to.index();
                if color[to] == 1 {
                    if cycles.len() < limit {
                        let p = pos_in_path[to];
                        let mut cycle: Vec<EdgeId> = path_edges[p..]
                            .iter()
                            .map(|&x| EdgeId::from_index(x))
                            .collect();
                        cycle.push(EdgeId::from_index(ei));
                        cycles.push(cycle);
                    }
                } else if color[to] == 0 {
                    color[to] = 1;
                    pos_in_path[to] = path_nodes.len();
                    path_nodes.push(to);
                    path_edges.push(ei);
                    cursors.push(0);
                }
            } else {
                color[node] = 2;
                pos_in_path[node] = usize::MAX;
                path_nodes.pop();
                cursors.pop();
                path_edges.pop();
            }
        }
        if cycles.len() >= limit {
            break;
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppet_netlist::data;

    #[test]
    fn witness_round_trips_through_serialization() {
        let c = data::s27();
        let graph = CircuitGraph::from_circuit(&c);
        let rg = RetimeGraph::from_graph(&graph);
        let cut = c.find("G10").unwrap(); // already feeds DFF G5
        let real = CutRealizer::new(&rg).realize(&[cut]);
        let witness = serialize_witness(&real.retiming, &real.covered);
        let report = verify_recorded_witness(&c, &witness);
        assert!(report.pass(), "{report}");
    }

    #[test]
    fn empty_witness_serializes_as_dashes() {
        assert_eq!(serialize_witness(&vec![0; 4], &[]), "-|-");
        let report = verify_recorded_witness(&data::s27(), "-|-");
        assert!(report.pass(), "{report}");
    }

    #[test]
    fn corrupted_lag_fails_legality_or_coverage() {
        let c = data::s27();
        let graph = CircuitGraph::from_circuit(&c);
        let rg = RetimeGraph::from_graph(&graph);
        let cut = c.find("G10").unwrap();
        let real = CutRealizer::new(&rg).realize(&[cut]);
        // Perturb one lag: pushing a node by 3 must break an adjacent
        // zero-or-low-weight edge (s27 has many weight-0 edges per node).
        let mut lags = real.retiming.clone();
        lags[0] += 3;
        let witness = serialize_witness(&lags, &real.covered);
        let report = verify_recorded_witness(&c, &witness);
        assert!(
            report.failed(AuditCode::RetimeLegality) || report.failed(AuditCode::RetimeCoverage),
            "{report}"
        );
    }

    #[test]
    fn malformed_witness_fails_with_witness_code() {
        let c = data::s27();
        for bad in ["no-separator", "0:zz|-", "999:1|-", "-|999", "-|zz"] {
            let report = verify_recorded_witness(&c, bad);
            assert!(report.failed(AuditCode::RetimeWitness), "{bad}: {report}");
        }
    }

    #[test]
    fn sampled_cycles_are_real_cycles() {
        let c = data::s27();
        let graph = CircuitGraph::from_circuit(&c);
        let rg = RetimeGraph::from_graph(&graph);
        let cycles = sample_cycles(&rg, 16);
        assert!(!cycles.is_empty(), "s27 has feedback loops");
        for cycle in &cycles {
            for pair in cycle.windows(2) {
                assert_eq!(rg.edge(pair[0]).to, rg.edge(pair[1]).from);
            }
            let first = rg.edge(*cycle.first().unwrap()).from;
            let last = rg.edge(*cycle.last().unwrap()).to;
            assert_eq!(first, last, "cycle closes");
        }
    }
}
