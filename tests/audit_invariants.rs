//! The independent auditor (`ppet-audit`) against the compiler it audits:
//! every compilation must pass a from-scratch re-derivation of the paper
//! invariants, the recorded retiming witness must re-verify against the
//! netlist, and any deliberate corruption of a claim must fail with the
//! named [`AuditCode`] CI reports.

use proptest::prelude::*;

use ppet::audit::{verify_recorded_witness, AuditCode};
use ppet::core::{CostPolicy, Merced, MercedConfig};
use ppet::netlist::{bench_format, data, Circuit, SynthSpec, Synthesizer};

/// Strategy: a small random circuit specification.
fn arb_spec() -> impl Strategy<Value = SynthSpec> {
    (
        2usize..10,   // PIs
        0usize..12,   // DFFs
        5usize..80,   // gates
        0usize..20,   // inverters
        any::<u64>(), // seed
        0usize..12,   // dffs on scc (clamped by the builder)
    )
        .prop_map(|(pis, dffs, gates, invs, seed, on_scc)| {
            SynthSpec::new("prop")
                .primary_inputs(pis)
                .flip_flops(dffs)
                .gates(gates)
                .inverters(invs)
                .dffs_on_scc(on_scc.min(dffs))
                .seed(seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever Merced compiles, the from-scratch auditor agrees with.
    #[test]
    fn every_compilation_passes_the_independent_audit(
        spec in arb_spec(),
        lk in 4usize..12,
    ) {
        let circuit = Synthesizer::new(spec).build();
        let compilation = Merced::new(MercedConfig::default().with_cbit_length(lk))
            .compile_detailed(&circuit)
            .expect("compiles");
        let audit = compilation.audit(&circuit);
        prop_assert!(audit.pass(), "{audit}");
    }

    /// The solver accounting rule is audited by an independent legality
    /// check of the produced witness — it must agree too.
    #[test]
    fn solver_policy_compilations_pass_the_audit(spec in arb_spec()) {
        let circuit = Synthesizer::new(spec).build();
        let compilation = Merced::new(
            MercedConfig::default()
                .with_cbit_length(8)
                .with_cost_policy(CostPolicy::Solver),
        )
        .compile_detailed(&circuit)
        .expect("compiles");
        let audit = compilation.audit(&circuit);
        prop_assert!(audit.pass(), "{audit}");
    }

    /// The witness a live audit records round-trips: re-verifying the
    /// serialized lags against the netlist reproduces a passing verdict
    /// (this is exactly what `merced audit` does to a golden recording).
    #[test]
    fn recorded_witness_reverifies_against_the_netlist(
        spec in arb_spec(),
        lk in 4usize..12,
    ) {
        let circuit = Synthesizer::new(spec).build();
        let compilation = Merced::new(MercedConfig::default().with_cbit_length(lk))
            .compile_detailed(&circuit)
            .expect("compiles");
        let audit = compilation.audit(&circuit);
        prop_assume!(audit.pass());
        let witness = audit.witness.expect("audit records a witness");
        let replay = verify_recorded_witness(&circuit, &witness);
        prop_assert!(replay.pass(), "{replay}");
    }
}

/// A register-only ring (`q1 ⇄ q2`) feeding logic is a fixed source of the
/// retiming graph: both policies compile it, pass their own audit, and
/// record a witness that re-verifies against the netlist.
#[test]
fn register_only_ring_passes_the_audit_under_both_policies() {
    let circuit = bench_format::parse(
        "ring",
        "INPUT(a)\nOUTPUT(y)\nq1 = DFF(q2)\nq2 = DFF(q1)\ng1 = AND(a, q1)\ny = NOT(g1)\n",
    )
    .expect("ring parses");
    for policy in [CostPolicy::PaperScc, CostPolicy::Solver] {
        let compilation = Merced::new(
            MercedConfig::default()
                .with_cbit_length(4)
                .with_cost_policy(policy),
        )
        .compile_detailed(&circuit)
        .expect("ring compiles");
        let audit = compilation.audit(&circuit);
        assert!(audit.pass(), "{policy:?}: {audit}");
        let witness = audit.witness.expect("audit records a witness");
        let replay = verify_recorded_witness(&circuit, &witness);
        assert!(replay.pass(), "{policy:?}: {replay}");
    }
}

fn compiled_s27() -> (Circuit, ppet::core::Compilation) {
    let circuit = data::s27();
    let compilation = Merced::new(MercedConfig::default().with_cbit_length(4))
        .compile_detailed(&circuit)
        .expect("s27 compiles");
    (circuit, compilation)
}

/// Shifts the first recorded lag by +7 while keeping the witness
/// well-formed — a legal-looking recording that no longer describes a
/// valid retiming of the netlist.
fn bump_first_lag(witness: &str) -> String {
    let (lags, covered) = witness.split_once('|').expect("lags|covered");
    if lags == "-" {
        return format!("0:7|{covered}");
    }
    let mut pairs: Vec<String> = lags.split(',').map(str::to_owned).collect();
    let (node, value) = pairs[0].split_once(':').expect("node:lag");
    let lag: i64 = value.parse().expect("integer lag");
    pairs[0] = format!("{node}:{}", lag + 7);
    format!("{}|{covered}", pairs.join(","))
}

#[test]
fn perturbed_lag_fails_with_retime_legality() {
    let (circuit, compilation) = compiled_s27();
    let audit = compilation.audit(&circuit);
    let witness = audit.witness.expect("witness recorded");

    let replay = verify_recorded_witness(&circuit, &bump_first_lag(&witness));
    assert!(!replay.pass());
    assert!(replay.failed(AuditCode::RetimeLegality), "{replay}");
}

#[test]
fn malformed_witness_fails_with_retime_witness() {
    let (circuit, _) = compiled_s27();
    let replay = verify_recorded_witness(&circuit, "9-1");
    assert!(!replay.pass());
    assert!(replay.failed(AuditCode::RetimeWitness), "{replay}");
}

#[test]
fn corrupted_partition_claim_fails_with_partition_input_claim() {
    let (circuit, compilation) = compiled_s27();
    let mut subject = compilation.audit_subject(&circuit);
    subject.claims.partitions[0].inputs += 1;
    let audit = ppet::audit::audit(&subject);
    assert!(!audit.pass());
    assert!(audit.failed(AuditCode::PartitionInputClaim), "{audit}");
}

#[test]
fn corrupted_cut_count_fails_with_partition_cut_set() {
    let (circuit, compilation) = compiled_s27();
    let mut subject = compilation.audit_subject(&circuit);
    subject.claims.nets_cut += 1;
    let audit = ppet::audit::audit(&subject);
    assert!(!audit.pass());
    assert!(audit.failed(AuditCode::PartitionCutSet), "{audit}");
}

#[test]
fn corrupted_cost_field_fails_with_cost_deci_dff() {
    let (circuit, compilation) = compiled_s27();
    let mut subject = compilation.audit_subject(&circuit);
    subject.claims.with_retiming.deci_dff += 1;
    let audit = ppet::audit::audit(&subject);
    assert!(!audit.pass());
    assert!(audit.failed(AuditCode::CostDeciDff), "{audit}");
}
