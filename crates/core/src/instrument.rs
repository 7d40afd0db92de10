//! Test-hardware insertion: converting a design for PPET.
//!
//! The paper's abstract promises that "circuit partitioning with retiming
//! is used to *convert designs* for PPET" — this module performs the
//! conversion at the netlist level and returns an instrumented circuit a
//! downstream flow could hand to synthesis:
//!
//! 1. the compile's cut realization (which cuts get converted functional
//!    flip-flops, which need multiplexed registers) is read and its
//!    **legal retiming is applied**, so a register physically sits on every
//!    covered cut;
//! 2. each such register is converted into an **A_CELL** (paper Fig. 3):
//!    the three mode gates `D = XOR(AND(data, B1), NOR(cascade, B2))` are
//!    spliced in front of its `D` pin — the classic BILBO bit:
//!
//!    | `B1 B2` | behaviour                                   |
//!    |---------|---------------------------------------------|
//!    | `1 1`   | normal: `D = data` (transparent)            |
//!    | `1 0`   | test: `D = data ⊕ ¬cascade` (dual TPG/PSA)  |
//!    | `0 0`   | shift: `D = ¬cascade` (scan chain)          |
//!
//! 3. every excess cut (no flip-flop available, Eq. (2)) receives a fresh
//!    A_CELL plus the 2-to-1 multiplexer of Fig. 3(c), built from gates
//!    (`out = OR(AND(q, ¬B2), AND(data, B2))`) so the functional path stays
//!    combinational in normal mode;
//! 4. the bits of each group are chained `cascade(i) = Q(i−1)`, with an XOR
//!    feedback network derived from the canonical primitive polynomial
//!    closing the loop into bit 0 — a Fibonacci-style MISR.
//!
//! Two new primary inputs `ppet_b1` and `ppet_b2` select the mode. In
//! normal mode (`B1 = B2 = 1`) the mode gates reduce to wires, so the
//! instrumented circuit is **sequentially equivalent to the retimed
//! circuit** — verified by simulation in `tests/instrument_e2e.rs`.

use std::collections::{BTreeMap, HashMap};

use ppet_cbit::poly::primitive_poly;
use ppet_graph::retime::{apply, CutRealization, RetimeGraph};
use ppet_graph::CircuitGraph;
use ppet_netlist::{CellId, CellKind, Circuit, NetId};
use ppet_trace::Tracer;

use crate::error::MercedError;

/// One CBIT bit of the instrumented circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CbitBit {
    /// The register cell implementing the bit (in the instrumented
    /// circuit).
    pub register: CellId,
    /// Whether the bit is a converted functional flip-flop (`true`) or a
    /// fresh multiplexed test register (`false`).
    pub converted: bool,
}

/// The result of [`insert_test_hardware`].
#[derive(Debug, Clone)]
pub struct Instrumented {
    /// The test-ready circuit (retimed + A_CELLs + CBIT wiring).
    pub circuit: Circuit,
    /// Mode input `B1`.
    pub b1: CellId,
    /// Mode input `B2`.
    pub b2: CellId,
    /// The CBIT register banks, one per cut group that has a bit of its
    /// own; every realized cut is exactly one bit.
    pub cbits: Vec<Vec<CbitBit>>,
}

/// Converts `circuit` for PPET: applies `realization`'s retiming so a
/// register sits on every covered cut, then inserts the A_CELL/CBIT
/// hardware — a converted flip-flop per covered cut, a multiplexed test
/// register per excess cut.
///
/// `cut_groups` is the partition-induced grouping of cut nets (one CBIT
/// per group); groups may be empty or share cuts. Net ids refer to the
/// *original* circuit, for which `realization` was solved over every
/// grouped net ([`crate::Compilation::instrument`] passes the compile's).
///
/// Wraps the conversion in an `instrument` span, reports
/// `instrument.converted_cuts` and `instrument.mux_cuts` counters, and the
/// register-count change the retiming caused as the
/// `instrument.retimed_register_delta` gauge (registers after retiming
/// minus before; mux A_CELL registers are counted separately under
/// `instrument.mux_cuts`).
///
/// # Errors
///
/// Returns [`MercedError::CombinationalCycle`] for non-synchronous input.
///
/// # Panics
///
/// When `realization`'s lags are not a legal retiming of `circuit`.
///
/// # Examples
///
/// ```
/// use ppet_core::{instrument::insert_test_hardware, Merced, MercedConfig};
/// use ppet_netlist::data;
///
/// # fn main() -> Result<(), ppet_core::MercedError> {
/// let circuit = data::s27();
/// let compilation = Merced::new(MercedConfig::default().with_cbit_length(4))
///     .compile_detailed(&circuit)?;
/// let realization = compilation.realization(&circuit);
/// let tracer = ppet_trace::Tracer::noop();
/// let inst = insert_test_hardware(&circuit, realization, &compilation.cut_groups, &tracer)?;
/// // A converted flip-flop exactly where the realization covers a cut.
/// let converted = inst.cbits.iter().flatten().filter(|b| b.converted).count();
/// assert_eq!(converted, realization.covered.len());
/// # Ok(())
/// # }
/// ```
pub fn insert_test_hardware(
    circuit: &Circuit,
    realization: &CutRealization,
    cut_groups: &[Vec<NetId>],
    tracer: &Tracer,
) -> Result<Instrumented, MercedError> {
    let _span = tracer.span("instrument");
    if let Some(cell) = ppet_netlist::validate::find_combinational_cycle(circuit) {
        return Err(MercedError::CombinationalCycle { cell });
    }
    let graph = CircuitGraph::from_circuit(circuit);
    let rg = RetimeGraph::from_graph(&graph);

    // Apply the retiming so covered cuts physically hold registers.
    let mut out = apply(circuit, &rg, &realization.retiming)
        .expect("the realization is a legal retiming of this circuit");
    tracer.add(
        "instrument.converted_cuts",
        realization.covered.len() as u64,
    );
    tracer.add("instrument.mux_cuts", realization.excess.len() as u64);
    tracer.gauge(
        "instrument.retimed_register_delta",
        out.num_flip_flops() as f64 - circuit.num_flip_flops() as f64,
    );

    // Mode pins.
    let b1 = out.add_input("ppet_b1").expect("fresh mode pin name");
    let b2 = out.add_input("ppet_b2").expect("fresh mode pin name");

    // Covered cuts map to chain registers: group them by chain origin and
    // rank by register depth; the j-th covered cut of an origin (0-based)
    // is served by chain register `<origin>__rt{j+1}` in the retimed
    // circuit (apply() names every chain register that way).
    let mut by_origin: BTreeMap<CellId, Vec<NetId>> = BTreeMap::new();
    for &cut in &realization.covered {
        by_origin.entry(rg.chain_of(cut).0).or_default().push(cut);
    }
    let mut bit_of_cut: HashMap<NetId, CbitBit> = HashMap::new();
    for (origin, mut cuts) in by_origin {
        cuts.sort_by_key(|&n| rg.chain_of(n).1);
        let origin_name = circuit.cell(origin).name();
        for (j, cut) in cuts.into_iter().enumerate() {
            let reg_name = format!("{origin_name}__rt{}", j + 1);
            let register = out
                .find(&reg_name)
                .expect("covered cut has a chain register after retiming");
            let bit = convert_register(&mut out, register, b1, b2);
            bit_of_cut.insert(cut, bit);
        }
    }

    for &cut in &realization.excess {
        // Fresh multiplexed A_CELL between the cut driver and its sinks.
        let driver_name = circuit.cell(cut).name();
        let driver = out.find(driver_name).expect("driver survives retiming");
        let bit = insert_mux_acell(&mut out, driver, cut, b1, b2);
        bit_of_cut.insert(cut, bit);
    }

    // Wire cascades per non-empty group, closing each with the feedback
    // network; CBITs are numbered in that order. A cut feeding several
    // partitions sits in several groups but is one register with one
    // cascade input: its bit joins the first group that lists it.
    let mut cbits: Vec<Vec<CbitBit>> = Vec::new();
    for group in cut_groups {
        let bits: Vec<CbitBit> = group
            .iter()
            .filter_map(|net| bit_of_cut.remove(net))
            .collect();
        if bits.is_empty() {
            continue;
        }
        wire_cascade(&mut out, &bits, cbits.len());
        cbits.push(bits);
    }

    Ok(Instrumented {
        circuit: out,
        b1,
        b2,
        cbits,
    })
}

/// Adds the test gate `ppet_<stem>_<tag>`; every such name is fresh by
/// construction.
fn gate(out: &mut Circuit, kind: CellKind, stem: &str, tag: &str, fanin: &[CellId]) -> CellId {
    out.add_cell(format!("ppet_{stem}_{tag}"), kind, fanin.to_vec())
        .expect("fresh name")
}

/// The three A_CELL mode gates `XOR(AND(data, B1), NOR(cascade, B2))`,
/// named with `tag`; returns the XOR that drives the bit's register. The
/// cascade input is left tied to `B2` (making the NOR output 0 whenever
/// `B2 = 1`) until [`wire_cascade`] connects the chain.
fn mode_gates(out: &mut Circuit, tag: &str, data: CellId, b1: CellId, b2: CellId) -> CellId {
    let and = gate(out, CellKind::And, "and", tag, &[data, b1]);
    let nor = gate(out, CellKind::Nor, "nor", tag, &[b2, b2]);
    gate(out, CellKind::Xor, "xor", tag, &[and, nor])
}

/// Splices the A_CELL mode gates in front of an existing register.
fn convert_register(out: &mut Circuit, register: CellId, b1: CellId, b2: CellId) -> CbitBit {
    let old_d = out.cell(register).fanin()[0];
    let xor = mode_gates(out, &register.index().to_string(), old_d, b1, b2);
    out.set_fanin(register, vec![xor]).expect("register exists");
    CbitBit {
        register,
        converted: true,
    }
}

/// Inserts a fresh A_CELL plus gate-level 2:1 MUX at the net of `driver`:
/// functional sinks are rewired to `OR(AND(q, ¬B2), AND(data, B2))`.
/// Primary outputs stay attached to the original net (in normal mode the
/// mux output equals it anyway, and PPET observes outputs through the
/// boundary CBITs).
fn insert_mux_acell(
    out: &mut Circuit,
    driver: CellId,
    tag: NetId,
    b1: CellId,
    b2: CellId,
) -> CbitBit {
    let tag = format!("m{}", tag.index());
    // Sinks to rewire: captured before the test gates are added.
    let sinks: Vec<CellId> = out.fanouts().of(driver).to_vec();
    let xor = mode_gates(out, &tag, driver, b1, b2);
    let dff = gate(out, CellKind::Dff, "dff", &tag, &[xor]);
    // MUX: out = (q AND NOT b2) OR (data AND b2).
    let not_b2 = gate(out, CellKind::Not, "nb2", &tag, &[b2]);
    let q_path = gate(out, CellKind::And, "mq", &tag, &[dff, not_b2]);
    let d_path = gate(out, CellKind::And, "md", &tag, &[driver, b2]);
    let mux = gate(out, CellKind::Or, "mux", &tag, &[q_path, d_path]);

    for sink in sinks {
        let fanin: Vec<CellId> = out
            .cell(sink)
            .fanin()
            .iter()
            .map(|&f| if f == driver { mux } else { f })
            .collect();
        out.set_fanin(sink, fanin).expect("sink exists");
    }
    CbitBit {
        register: dff,
        converted: false,
    }
}

/// Chains the bits of one CBIT: `cascade(i) = Q(i−1)`, with bit 0 fed by
/// the XOR of the polynomial tap bits.
///
/// Tap exponent `i` of the primitive polynomial reads the register `i`
/// stages before the chain end, so the constant term (present in every
/// primitive polynomial) always taps the **last** register: every bit's
/// state reaches the feedback XOR and no register dead-ends. Groups longer
/// than 32 bits reuse the degree-32 polynomial over their last 32
/// registers; the earlier bits still feed the loop through the shift chain,
/// so the compactor stays valid — just not provably maximal-length.
fn wire_cascade(out: &mut Circuit, bits: &[CbitBit], group: usize) {
    let len = bits.len();
    let feedback = if len == 1 {
        bits[0].register
    } else {
        let deg = (len as u32).clamp(2, 32);
        let poly = primitive_poly(deg).expect("degree in range");
        let taps: Vec<CellId> = (0..deg as usize)
            .filter(|&i| (poly >> i) & 1 == 1)
            .map(|i| bits[len - 1 - i].register)
            .collect();
        let mut acc = taps[0];
        for (k, &t) in taps.iter().enumerate().skip(1) {
            acc = gate(out, CellKind::Xor, "fb", &format!("{group}_{k}"), &[acc, t]);
        }
        acc
    };
    for (i, bit) in bits.iter().enumerate() {
        let cascade = if i == 0 {
            feedback
        } else {
            bits[i - 1].register
        };
        // The bit's NOR gate currently reads (b2, b2); repoint its first
        // pin to the cascade. Structure by construction:
        //   register.fanin[0] = XOR, XOR.fanin[1] = NOR, NOR.fanin[1] = b2.
        let reg = bit.register;
        let xor = out.cell(reg).fanin()[0];
        let nor = out.cell(xor).fanin()[1];
        let b2 = out.cell(nor).fanin()[1];
        out.set_fanin(nor, vec![cascade, b2]).expect("nor exists");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppet_graph::retime::CutRealizer;
    use ppet_netlist::data;

    /// The Flexible-latency realization of every grouped cut.
    fn realize(c: &Circuit, groups: &[Vec<NetId>]) -> CutRealization {
        let cuts: Vec<NetId> = groups.iter().flatten().copied().collect();
        CutRealizer::new(&RetimeGraph::from_graph(&CircuitGraph::from_circuit(c))).realize(&cuts)
    }

    fn instrument(c: &Circuit, groups: &[Vec<NetId>]) -> Instrumented {
        insert_test_hardware(c, &realize(c, groups), groups, &Tracer::noop()).unwrap()
    }

    /// `(converted, multiplexed)` bits of an instrumented circuit.
    fn mix(inst: &Instrumented) -> (usize, usize) {
        let bits: Vec<&CbitBit> = inst.cbits.iter().flatten().collect();
        let converted = bits.iter().filter(|b| b.converted).count();
        (converted, bits.len() - converted)
    }

    /// A combinational AND chain of `n` gates; every gate net is a cut.
    /// With no functional registers, every cut becomes a mux A_CELL, so a
    /// single group exercises arbitrarily wide CBIT cascades.
    fn chain_circuit(n: usize) -> (Circuit, Vec<NetId>) {
        let mut c = Circuit::new("chain");
        let x = c.add_input("x").unwrap();
        let mut prev = x;
        let mut cuts = Vec::new();
        for i in 0..n {
            let g = c
                .add_cell(format!("g{i}"), CellKind::And, vec![prev, x])
                .unwrap();
            cuts.push(g);
            prev = g;
        }
        c.mark_output(prev).unwrap();
        (c, cuts)
    }

    /// The CBIT registers feeding bit 0's cascade input through the XOR
    /// feedback tree, sorted.
    fn feedback_taps(c: &Circuit, bits: &[CbitBit]) -> Vec<CellId> {
        let regs: std::collections::HashSet<CellId> = bits.iter().map(|b| b.register).collect();
        let xor0 = c.cell(bits[0].register).fanin()[0];
        let nor0 = c.cell(xor0).fanin()[1];
        let feedback = c.cell(nor0).fanin()[0];
        let mut taps = Vec::new();
        let mut stack = vec![feedback];
        while let Some(cell) = stack.pop() {
            if regs.contains(&cell) {
                taps.push(cell);
            } else {
                stack.extend(c.cell(cell).fanin().iter().copied());
            }
        }
        taps.sort_unstable();
        taps.dedup();
        taps
    }

    /// Tap exponent `i` of the degree-`deg` polynomial must read the
    /// register `i` stages before the chain end.
    fn expected_taps(bits: &[CbitBit], deg: u32) -> Vec<CellId> {
        let poly = primitive_poly(deg).unwrap();
        let mut taps: Vec<CellId> = (0..deg as usize)
            .filter(|&i| (poly >> i) & 1 == 1)
            .map(|i| bits[bits.len() - 1 - i].register)
            .collect();
        taps.sort_unstable();
        taps.dedup();
        taps
    }

    #[test]
    fn converted_cut_reuses_the_register() {
        let c = data::s27();
        let cut = c.find("G10").unwrap();
        let before_dffs = c.num_flip_flops();
        let inst = instrument(&c, &[vec![cut]]);
        assert_eq!(mix(&inst), (1, 0));
        // No new register: the functional flip-flop was converted.
        assert_eq!(inst.circuit.num_flip_flops(), before_dffs);
        // Three mode gates + mode pins were added.
        assert!(inst.circuit.find("ppet_b1").is_some());
        assert_eq!(inst.cbits.len(), 1);
        assert!(inst.cbits[0][0].converted);
    }

    #[test]
    fn instrumented_circuit_is_structurally_valid() {
        let c = data::s27();
        let cuts = vec![vec![c.find("G10").unwrap(), c.find("G11").unwrap()]];
        let inst = instrument(&c, &cuts);
        assert!(
            ppet_netlist::validate::find_combinational_cycle(&inst.circuit).is_none(),
            "instrumentation must not create combinational cycles"
        );
    }

    #[test]
    fn excess_cut_gets_mux_acell() {
        // Two cuts on a single-register loop: one must be multiplexed.
        let c = ppet_netlist::bench_format::parse(
            "loop1",
            "INPUT(x)\nOUTPUT(g2)\nq = DFF(g2)\ng1 = AND(q, x)\ng2 = OR(g1, x)\n",
        )
        .unwrap();
        let cuts = vec![vec![c.find("g1").unwrap(), c.find("g2").unwrap()]];
        let inst = instrument(&c, &cuts);
        assert_eq!(mix(&inst), (1, 1));
        // The mux A_CELL adds one register.
        assert!(inst.circuit.num_flip_flops() >= 2);
        assert!(ppet_netlist::validate::find_combinational_cycle(&inst.circuit).is_none());
    }

    #[test]
    fn empty_groups_take_no_cbit_number() {
        let c = data::s27();
        let groups = vec![
            vec![],
            vec![c.find("G10").unwrap()],
            vec![],
            vec![c.find("G11").unwrap(), c.find("G8").unwrap()],
        ];
        let inst = instrument(&c, &groups);
        assert_eq!(inst.cbits.len(), 2);
        // The second CBIT's feedback XOR is named for CBIT 1, not group 3.
        assert!(inst.circuit.find("ppet_fb_1_1").is_some());
        assert!(inst.circuit.find("ppet_fb_3_1").is_none());
    }

    #[test]
    fn small_group_taps_include_the_last_register() {
        let (c, cuts) = chain_circuit(4);
        let inst = instrument(&c, &[cuts]);
        let bits = &inst.cbits[0];
        assert_eq!(bits.len(), 4);
        let taps = feedback_taps(&inst.circuit, bits);
        assert_eq!(taps, expected_taps(bits, 4));
        assert!(
            taps.contains(&bits.last().unwrap().register),
            "the last register must feed the loop or its state is lost"
        );
    }

    #[test]
    fn group_wider_than_32_bits_builds_a_valid_compactor() {
        let (c, cuts) = chain_circuit(40);
        let inst = instrument(&c, &[cuts]);
        assert_eq!(inst.cbits.len(), 1);
        let bits = &inst.cbits[0];
        assert_eq!(bits.len(), 40);
        assert!(ppet_netlist::validate::find_combinational_cycle(&inst.circuit).is_none());
        // The degree-32 polynomial taps the last 32 registers; the
        // constant term always taps the very last one.
        let taps = feedback_taps(&inst.circuit, bits);
        assert_eq!(taps, expected_taps(bits, 32));
        assert!(taps.contains(&bits.last().unwrap().register));
        // And every later bit shifts from its predecessor, so the front
        // 8 untapped registers still reach the loop through the chain.
        for i in 1..bits.len() {
            let xor = inst.circuit.cell(bits[i].register).fanin()[0];
            let nor = inst.circuit.cell(xor).fanin()[1];
            assert_eq!(
                inst.circuit.cell(nor).fanin()[0],
                bits[i - 1].register,
                "bit {i} must cascade from bit {}",
                i - 1
            );
        }
    }

    #[test]
    fn traced_instrumentation_reports_cut_realization() {
        let c = data::s27();
        let cuts = vec![vec![c.find("G10").unwrap(), c.find("G11").unwrap()]];
        let (tracer, sink) = Tracer::collecting();
        let inst = insert_test_hardware(&c, &realize(&c, &cuts), &cuts, &tracer).unwrap();
        let (converted, mux) = mix(&inst);
        let report = sink.report();
        assert_eq!(report.spans[0].name, "instrument");
        assert_eq!(
            report.counters["instrument.converted_cuts"],
            converted as u64
        );
        assert_eq!(report.counters["instrument.mux_cuts"], mux as u64);
        assert!(report
            .gauges
            .contains_key("instrument.retimed_register_delta"));
    }

    #[test]
    fn combinational_cycle_rejected() {
        let mut c = Circuit::new("cyc");
        let a = c.add_input("a").unwrap();
        let x = c.add_cell_deferred("x", CellKind::And).unwrap();
        let y = c.add_cell("y", CellKind::And, vec![x, a]).unwrap();
        c.set_fanin(x, vec![y, a]).unwrap();
        c.mark_output(y).unwrap();
        let none = CutRealization {
            retiming: Vec::new(),
            covered: Vec::new(),
            excess: Vec::new(),
            iterations: 0,
        };
        let err = insert_test_hardware(&c, &none, &[], &Tracer::noop()).unwrap_err();
        assert!(matches!(err, MercedError::CombinationalCycle { .. }));
    }
}
