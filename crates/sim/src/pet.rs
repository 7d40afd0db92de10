//! Pseudo-exhaustive testing of circuit segments.
//!
//! PPET's coverage argument (paper §1): after partitioning, every segment
//! sees all `2^{ι}` combinations of its inputs, so every detectable single
//! stuck-at fault inside the segment is detected with *zero* test-pattern
//! generation. This module extracts segments from a partitioned circuit
//! (registers become scan/CBIT cells: their outputs are segment inputs,
//! their `D` pins are segment outputs) and measures stuck-at coverage under
//! exhaustive and random pattern sets.

use std::error::Error;
use std::fmt;

use ppet_netlist::{CellId, CellKind, Circuit};
use ppet_prng::{Rng, Xoshiro256PlusPlus};

use crate::fsim::{CoverageReport, FaultSim};
use crate::levelize::{LevelizeError, Levelized};

/// Error raised by segment extraction or exhaustive simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PetError {
    /// The circuit/segment has too many inputs for exhaustive enumeration
    /// (guard: 2^k pattern blow-up).
    TooManyInputs {
        /// The input count found.
        inputs: usize,
        /// The enumeration guard.
        limit: usize,
    },
    /// The circuit could not be levelized.
    Levelize(LevelizeError),
}

impl fmt::Display for PetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TooManyInputs { inputs, limit } => write!(
                f,
                "segment has {inputs} inputs; exhaustive enumeration capped at {limit}"
            ),
            Self::Levelize(e) => write!(f, "{e}"),
        }
    }
}

impl Error for PetError {}

impl From<LevelizeError> for PetError {
    fn from(e: LevelizeError) -> Self {
        Self::Levelize(e)
    }
}

/// Enumeration guard: segments beyond this many inputs are refused (the
/// paper's own recommendation is `l_k ∈ {16, 24}`; 24 is simulable but
/// slow in debug builds, so harnesses choose their own sizes).
pub const MAX_EXHAUSTIVE_INPUTS: usize = 26;

/// A combinational segment extracted from a partitioned sequential
/// circuit.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The standalone combinational circuit.
    pub circuit: Circuit,
    /// For each segment input (in input order): the original cell whose net
    /// it represents.
    pub input_origin: Vec<CellId>,
    /// For each segment output: the original cell whose net it represents.
    pub output_origin: Vec<CellId>,
}

/// Extracts the combinational segment spanned by `members` of `circuit`.
///
/// Segment inputs are: nets entering the member set from outside, the
/// outputs of member registers, and member primary inputs. Segment outputs
/// are member nets that leave the set, feed member register `D` pins, or
/// are primary outputs — i.e. everything a surrounding CBIT would observe.
///
/// # Examples
///
/// ```
/// use ppet_netlist::data;
/// use ppet_sim::pet::extract_segment;
///
/// let c = data::s27();
/// let members: Vec<_> = c.ids().collect(); // the whole circuit as one CUT
/// let seg = extract_segment(&c, &members);
/// // 4 PIs + 3 register outputs drive the segment.
/// assert_eq!(seg.circuit.num_inputs(), 7);
/// assert_eq!(seg.circuit.num_flip_flops(), 0);
/// ```
#[must_use]
pub fn extract_segment(circuit: &Circuit, members: &[CellId]) -> Segment {
    let mut member_set = vec![false; circuit.num_cells()];
    for &m in members {
        member_set[m.index()] = true;
    }
    let fanouts = circuit.fanouts();
    let mut seg = Circuit::new(format!("{}_segment", circuit.name()));
    let mut new_id: Vec<Option<CellId>> = vec![None; circuit.num_cells()];
    let mut input_origin = Vec::new();

    // Segment inputs: external drivers of member pins, member register
    // outputs, member PIs.
    let add_input = |seg: &mut Circuit,
                     new_id: &mut Vec<Option<CellId>>,
                     input_origin: &mut Vec<CellId>,
                     cell: CellId| {
        if new_id[cell.index()].is_none() {
            let id = seg
                .add_input(circuit.cell(cell).name())
                .expect("unique names from source circuit");
            new_id[cell.index()] = Some(id);
            input_origin.push(cell);
        }
    };
    for &m in members {
        let cell = circuit.cell(m);
        match cell.kind() {
            CellKind::Input | CellKind::Dff => {
                add_input(&mut seg, &mut new_id, &mut input_origin, m);
            }
            _ => {
                for &driver in cell.fanin() {
                    // Everything driven from outside the member set becomes
                    // a segment input, whether it is another partition's
                    // logic, a primary input, or a register.
                    if !member_set[driver.index()] {
                        add_input(&mut seg, &mut new_id, &mut input_origin, driver);
                    }
                }
            }
        }
    }

    // Combinational members in level order.
    let level = Levelized::of(circuit).expect("source circuit levelizes");
    for &v in level.order() {
        if !member_set[v.index()] || !circuit.cell(v).kind().is_combinational() {
            continue;
        }
        let cell = circuit.cell(v);
        let fanin: Vec<CellId> = cell
            .fanin()
            .iter()
            .map(|&f| new_id[f.index()].expect("driver materialized"))
            .collect();
        let id = seg
            .add_cell(cell.name(), cell.kind(), fanin)
            .expect("clone is structurally valid");
        new_id[v.index()] = Some(id);
    }

    // Segment outputs.
    let mut output_origin = Vec::new();
    for &m in members {
        if !circuit.cell(m).kind().is_combinational() {
            continue;
        }
        let leaves = fanouts
            .of(m)
            .iter()
            .any(|&s| !member_set[s.index()] || circuit.cell(s).kind() == CellKind::Dff);
        if leaves || circuit.is_output(m) {
            let id = new_id[m.index()].expect("member materialized");
            seg.mark_output(id).expect("id valid");
            output_origin.push(m);
        }
    }

    Segment {
        circuit: seg,
        input_origin,
        output_origin,
    }
}

/// Builds the 64-lane word of input `i` for pattern block `block`: lane `l`
/// carries bit `i` of the pattern index `block·64 + l` (counting order).
#[must_use]
pub fn counting_word(i: usize, block: u64) -> u64 {
    let mut w = 0u64;
    for l in 0..64u64 {
        let pattern = block * 64 + l;
        if (pattern >> i) & 1 == 1 {
            w |= 1 << l;
        }
    }
    w
}

/// Exhaustive stuck-at coverage of a combinational circuit: applies all
/// `2^k` input patterns.
///
/// # Errors
///
/// * [`PetError::TooManyInputs`] beyond [`MAX_EXHAUSTIVE_INPUTS`];
/// * [`PetError::Levelize`] for cyclic netlists.
pub fn exhaustive_coverage(circuit: &Circuit) -> Result<CoverageReport, PetError> {
    exhaustive_sim(circuit).map(|fs| fs.report())
}

/// The fault simulator after [`exhaustive_coverage`]'s sweep, work
/// counters ([`FaultSim::stats`]) included.
fn exhaustive_sim(circuit: &Circuit) -> Result<FaultSim<'_>, PetError> {
    let k = circuit.num_inputs();
    if k > MAX_EXHAUSTIVE_INPUTS {
        return Err(PetError::TooManyInputs {
            inputs: k,
            limit: MAX_EXHAUSTIVE_INPUTS,
        });
    }
    let mut fs = FaultSim::new(circuit)?;
    let dffs = vec![0u64; circuit.num_flip_flops()];
    let total: u64 = 1u64 << k;
    let mut pattern = 0u64;
    while pattern < total {
        let block = pattern / 64;
        let valid = (total - pattern).min(64) as u32;
        let pis: Vec<u64> = (0..k).map(|i| counting_word(i, block)).collect();
        fs.apply_block_counted(&pis, &dffs, valid);
        pattern += u64::from(valid);
        if fs.report().detected == fs.report().total {
            break; // everything detectable found already
        }
    }
    Ok(fs)
}

/// Random-pattern coverage with `n` patterns (the comparison the paper's §1
/// premise rests on: random testing needs many more patterns for the same
/// coverage, and can miss random-pattern-resistant faults entirely).
///
/// # Errors
///
/// Returns [`PetError::Levelize`] for cyclic netlists.
pub fn random_coverage(circuit: &Circuit, n: u64, seed: u64) -> Result<CoverageReport, PetError> {
    let mut fs = FaultSim::new(circuit)?;
    let k = circuit.num_inputs();
    let dffs = vec![0u64; circuit.num_flip_flops()];
    let mut rng = Xoshiro256PlusPlus::seed_from(seed ^ 0x5045_545f_524e_4400);
    let mut applied = 0u64;
    while applied < n {
        let valid = (n - applied).min(64) as u32;
        let pis: Vec<u64> = (0..k).map(|_| rng.next_u64()).collect();
        fs.apply_block_counted(&pis, &dffs, valid);
        applied += u64::from(valid);
    }
    Ok(fs.report())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppet_netlist::bench_format::parse;
    use ppet_netlist::data;

    #[test]
    fn counting_words_enumerate_patterns() {
        // Bit 2 of pattern indices 0..63.
        let w = counting_word(2, 0);
        for l in 0..64u64 {
            assert_eq!((w >> l) & 1, (l >> 2) & 1);
        }
        // Block 1 starts at pattern 64: bit 6 becomes 1.
        assert_eq!(counting_word(6, 1), u64::MAX);
    }

    #[test]
    fn whole_s27_segment_exhaustive_coverage() {
        let c = data::s27();
        let members: Vec<_> = c.ids().collect();
        let seg = extract_segment(&c, &members);
        assert_eq!(seg.circuit.num_inputs(), 7);
        // Outputs: nets feeding DFF D pins (G10, G11, G13) and the PO G17.
        assert_eq!(seg.output_origin.len(), 4);
        let report = exhaustive_coverage(&seg.circuit).unwrap();
        // s27's logic is irredundant under full observability.
        assert_eq!(report.coverage(), 1.0, "{report:?}");
        assert_eq!(report.patterns, 128);
    }

    #[test]
    fn exhaustive_beats_or_equals_random() {
        let c = data::s27();
        let members: Vec<_> = c.ids().collect();
        let seg = extract_segment(&c, &members);
        let ex = exhaustive_coverage(&seg.circuit).unwrap();
        let rnd = random_coverage(&seg.circuit, 16, 1).unwrap();
        assert!(ex.coverage() >= rnd.coverage());
    }

    #[test]
    fn redundant_logic_stays_undetected() {
        // y = OR(a, NOT(a), b): the a/NOT(a) pair makes y constant 1, so
        // most faults are undetectable; exhaustive coverage must be < 1 but
        // the simulator must not loop or crash.
        let c = parse(
            "red",
            "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn = NOT(a)\ny = OR(a, n, b)\n",
        )
        .unwrap();
        let report = exhaustive_coverage(&c).unwrap();
        assert!(report.coverage() < 1.0);
        // y stuck-at-1 is undetectable (y is constant 1).
        assert!(report.detected < report.total);
    }

    #[test]
    fn exhaustive_sweep_counts_its_work() {
        let c = data::s27();
        let members: Vec<_> = c.ids().collect();
        let seg = extract_segment(&c, &members);
        let fs = exhaustive_sim(&seg.circuit).unwrap();
        let (report, stats) = (fs.report(), fs.stats());
        assert_eq!(report, exhaustive_coverage(&seg.circuit).unwrap());

        assert_eq!(stats.blocks, report.patterns.div_ceil(64));
        // Every block simulates at most the full fault list.
        assert!(stats.fault_evals <= report.total as u64 * stats.blocks);
        assert!(stats.fault_evals >= report.total as u64);
    }

    #[test]
    fn too_many_inputs_guarded() {
        let mut c = Circuit::new("wide");
        let inputs: Vec<_> = (0..30)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let g = c.add_cell("g", CellKind::And, inputs).unwrap();
        c.mark_output(g).unwrap();
        let err = exhaustive_coverage(&c).unwrap_err();
        assert!(matches!(err, PetError::TooManyInputs { inputs: 30, .. }));
        assert!(err.to_string().contains("capped"));
    }

    #[test]
    fn sub_segment_extraction() {
        // Extract only the G12/G13/G7 loop region of s27.
        let c = data::s27();
        let members: Vec<_> = ["G12", "G13", "G7"]
            .iter()
            .map(|n| c.find(n).unwrap())
            .collect();
        let seg = extract_segment(&c, &members);
        // Inputs: G1, G2 (external PIs), G7 (member register).
        assert_eq!(seg.circuit.num_inputs(), 3);
        // Outputs: G12 (feeds G15 outside), G13 (feeds member register G7).
        assert_eq!(seg.output_origin.len(), 2);
        let report = exhaustive_coverage(&seg.circuit).unwrap();
        assert_eq!(report.coverage(), 1.0);
    }
}
