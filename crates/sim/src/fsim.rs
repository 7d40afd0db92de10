//! Bit-parallel stuck-at fault simulation.

use ppet_netlist::{CellId, Circuit};

use crate::collapse::collapse;
use crate::fault::{Fault, FaultSite};
use crate::levelize::LevelizeError;
use crate::logic::{eval_gate, Simulator};

/// Coverage bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    /// Faults detected so far.
    pub detected: usize,
    /// Faults under simulation.
    pub total: usize,
    /// Patterns applied.
    pub patterns: u64,
}

impl CoverageReport {
    /// Detected / total (1.0 for an empty fault list).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.detected as f64 / self.total as f64
        }
    }
}

/// Work counters accumulated by a [`FaultSim`] across all applied blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FsimStats {
    /// Pattern blocks applied.
    pub blocks: u64,
    /// Faulty-machine evaluations: one per still-undetected fault per
    /// block (the forward-cone re-evaluations of the classic PPSFP loop).
    pub fault_evals: u64,
}

/// A fault simulator over a compiled circuit.
///
/// For every 64-pattern block it evaluates the good machine once, then for
/// each undetected fault re-evaluates only the fault's forward cone and
/// compares the observation points (primary outputs plus, for sequential
/// circuits in the PPET full-observability setting, the register `D`
/// inputs).
///
/// # Examples
///
/// ```
/// use ppet_netlist::bench_format::parse;
/// use ppet_sim::fsim::FaultSim;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = parse("toy", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n")?;
/// let mut fs = FaultSim::new(&c)?;
/// // One block holding all four input patterns: ab = 00,01,10,11.
/// fs.apply_block(&[0b1100, 0b1010], &[]);
/// assert_eq!(fs.report().coverage(), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FaultSim<'c> {
    sim: Simulator<'c>,
    faults: Vec<Fault>,
    detected: Vec<bool>,
    observe: Vec<CellId>,
    patterns: u64,
    stats: FsimStats,
}

impl<'c> FaultSim<'c> {
    /// Creates a simulator over the structurally collapsed fault list,
    /// observing primary outputs and register `D` inputs.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] for combinationally cyclic circuits.
    pub fn new(circuit: &'c Circuit) -> Result<Self, LevelizeError> {
        let faults = collapse(circuit).faults;
        Self::with_faults(circuit, faults)
    }

    /// Creates a simulator over an explicit fault list.
    ///
    /// # Errors
    ///
    /// Returns [`LevelizeError`] for combinationally cyclic circuits.
    pub fn with_faults(circuit: &'c Circuit, faults: Vec<Fault>) -> Result<Self, LevelizeError> {
        let sim = Simulator::new(circuit)?;
        let mut observe: Vec<CellId> = circuit.outputs().to_vec();
        for q in circuit.flip_flops() {
            observe.push(circuit.cell(q).fanin()[0]);
        }
        observe.sort_unstable();
        observe.dedup();
        let detected = vec![false; faults.len()];
        Ok(Self {
            sim,
            faults,
            detected,
            observe,
            patterns: 0,
            stats: FsimStats::default(),
        })
    }

    /// Overrides the observation points.
    pub fn set_observe(&mut self, observe: Vec<CellId>) {
        self.observe = observe;
    }

    /// The fault list under simulation.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Per-fault detection flags.
    #[must_use]
    pub fn detected(&self) -> &[bool] {
        &self.detected
    }

    /// Work counters accumulated so far (see [`FsimStats`]).
    #[must_use]
    pub fn stats(&self) -> FsimStats {
        self.stats
    }

    /// Current coverage.
    #[must_use]
    pub fn report(&self) -> CoverageReport {
        CoverageReport {
            detected: self.detected.iter().filter(|&&d| d).count(),
            total: self.faults.len(),
            patterns: self.patterns,
        }
    }

    /// Simulates one block of up to 64 patterns (the caller packs them into
    /// the input words) against every still-undetected fault. Returns the
    /// number of newly detected faults.
    pub fn apply_block(&mut self, pi_words: &[u64], dff_words: &[u64]) -> usize {
        self.apply_block_counted(pi_words, dff_words, 64)
    }

    /// Like [`FaultSim::apply_block`] but records only `valid` patterns in
    /// the pattern counter (for the final partial block of an exhaustive
    /// sweep).
    pub fn apply_block_counted(
        &mut self,
        pi_words: &[u64],
        dff_words: &[u64],
        valid: u32,
    ) -> usize {
        let good = self.sim.eval(pi_words, dff_words);
        let valid_mask = if valid >= 64 {
            u64::MAX
        } else {
            (1u64 << valid) - 1
        };
        // Every fault still undetected at block entry is simulated once.
        self.patterns += u64::from(valid.min(64));
        self.stats.blocks += 1;
        self.stats.fault_evals += self.detected.iter().filter(|&&d| !d).count() as u64;

        let mut newly = 0;
        let mut scratch = FaultScratch::for_block(&good);
        for fi in 0..self.faults.len() {
            if self.detected[fi] {
                continue;
            }
            if self.fault_detected(self.faults[fi], &good, valid_mask, &mut scratch) {
                self.detected[fi] = true;
                newly += 1;
            }
        }
        newly
    }

    /// Decides whether one block of patterns detects `fault`: injects it,
    /// propagates the difference through the fault's forward cone, and
    /// compares the observation points against the good machine.
    ///
    /// Pure with respect to the simulator (`&self`): all mutation happens
    /// in `scratch`, which is restored to its block-entry state (`faulty`
    /// equal to `good`, `dirty` all-false) before returning.
    fn fault_detected(
        &self,
        fault: Fault,
        good: &[u64],
        valid_mask: u64,
        scratch: &mut FaultScratch,
    ) -> bool {
        let circuit = self.sim.circuit();
        // A fault on a register's D pin is latched directly by the
        // register (in PPET, by the CBIT analyzing this segment): it is
        // detected whenever the stuck value differs from the good value
        // at the pin — provided the register's capture point (its D
        // net) is among the observation points. It does not perturb
        // this block's combinational values (the register's output is
        // state, not a function of D).
        if let FaultSite::Input { cell, pin } = fault.site {
            if !circuit.cell(cell).kind().is_combinational() {
                let driver = circuit.cell(cell).fanin()[pin];
                return self.observe.contains(&driver)
                    && (good[driver.index()] ^ fault.value.word()) & valid_mask != 0;
            }
        }
        let FaultScratch { faulty, dirty } = scratch;
        // Inject.
        let inject_at = match fault.site {
            FaultSite::Output(c) => {
                faulty[c.index()] = fault.value.word();
                c
            }
            FaultSite::Input { cell, pin } => {
                let gate = circuit.cell(cell);
                let saved = faulty[gate.fanin()[pin].index()];
                faulty[gate.fanin()[pin].index()] = fault.value.word();
                let v = eval_gate(gate.kind(), gate.fanin(), faulty);
                faulty[gate.fanin()[pin].index()] = saved;
                faulty[cell.index()] = v;
                cell
            }
        };
        // Propagate: re-evaluate downstream gates whose inputs changed.
        // The level order guarantees drivers settle before consumers.
        dirty[inject_at.index()] = faulty[inject_at.index()] != good[inject_at.index()];
        if dirty[inject_at.index()] {
            for &v in self.sim.levelized_order() {
                let cell = circuit.cell(v);
                if !cell.kind().is_combinational() || v == inject_at {
                    continue;
                }
                if cell.fanin().iter().any(|f| dirty[f.index()]) {
                    let nv = eval_gate(cell.kind(), cell.fanin(), faulty);
                    if nv != faulty[v.index()] {
                        faulty[v.index()] = nv;
                        dirty[v.index()] = true;
                    }
                }
            }
        }
        // Observe.
        let seen = self
            .observe
            .iter()
            .any(|&o| (faulty[o.index()] ^ good[o.index()]) & valid_mask != 0);
        // Undo: restore the touched slots for the next fault.
        for (slot, &g) in faulty.iter_mut().zip(good.iter()) {
            *slot = g;
        }
        for d in dirty.iter_mut() {
            *d = false;
        }
        seen
    }
}

/// Mutable state for deciding faults within one pattern block:
/// the faulty-machine value vector (equal to the good machine between
/// faults) and the dirty flags of the forward-cone walk.
struct FaultScratch {
    faulty: Vec<u64>,
    dirty: Vec<bool>,
}

impl FaultScratch {
    fn for_block(good: &[u64]) -> Self {
        Self {
            faulty: good.to_vec(),
            dirty: vec![false; good.len()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{all_faults, StuckAt};
    use ppet_netlist::bench_format::parse;
    use ppet_netlist::data;
    use ppet_prng::{Rng, Xoshiro256PlusPlus};

    #[test]
    fn nand_exhaustive_detects_all() {
        let c = parse("t", "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n").unwrap();
        let mut fs = FaultSim::new(&c).unwrap();
        fs.apply_block_counted(&[0b1100, 0b1010], &[], 4);
        assert_eq!(fs.report().coverage(), 1.0);
        assert_eq!(fs.report().patterns, 4);
    }

    #[test]
    fn no_patterns_no_detection() {
        let c = data::s27();
        let fs = FaultSim::new(&c).unwrap();
        assert_eq!(fs.report().detected, 0);
        assert!(fs.report().coverage() < 1.0e-9);
    }

    #[test]
    fn parallel_block_matches_serial_single_patterns() {
        // Cross-check: applying 16 patterns in one block detects exactly
        // the faults detected by 16 single-pattern blocks.
        let c = data::s27();
        let faults = all_faults(&c);
        let mut rng = Xoshiro256PlusPlus::seed_from(8);
        let pis: Vec<u64> = (0..4).map(|_| rng.next_u64() & 0xFFFF).collect();
        let dffs: Vec<u64> = (0..3).map(|_| rng.next_u64() & 0xFFFF).collect();

        let mut block = FaultSim::with_faults(&c, faults.clone()).unwrap();
        block.apply_block_counted(&pis, &dffs, 16);

        let mut serial = FaultSim::with_faults(&c, faults).unwrap();
        for bit in 0..16 {
            let p: Vec<u64> = pis.iter().map(|w| (w >> bit) & 1).collect();
            let d: Vec<u64> = dffs.iter().map(|w| (w >> bit) & 1).collect();
            serial.apply_block_counted(&p, &d, 1);
        }
        assert_eq!(block.detected(), serial.detected());
    }

    #[test]
    fn input_pin_fault_differs_from_output_fault_on_fanout() {
        // On a fan-out stem, the branch fault is weaker than the stem
        // fault: find a pattern set distinguishing them in s27.
        let c = data::s27();
        let g14 = c.find("G14").unwrap(); // fans out to G8 and G10
        let g8 = c.find("G8").unwrap();
        let stem = Fault {
            site: FaultSite::Output(g14),
            value: StuckAt::One,
        };
        let branch = Fault {
            site: FaultSite::Input {
                cell: g8,
                pin: c.cell(g8).fanin().iter().position(|&f| f == g14).unwrap(),
            },
            value: StuckAt::One,
        };
        let mut fs = FaultSim::with_faults(&c, vec![stem, branch]).unwrap();
        // Exhaust the 4 PIs x a few register states.
        for state in 0..8u64 {
            let dffs: Vec<u64> = (0..3)
                .map(|i| if (state >> i) & 1 == 1 { u64::MAX } else { 0 })
                .collect();
            let pis: Vec<u64> = (0..4).map(pattern_word).collect();
            fs.apply_block_counted(&pis, &dffs, 16);
        }
        // Both are detectable; detection flags must be set independently.
        assert!(fs.detected()[0] && fs.detected()[1]);
    }

    /// Word whose bit `l` is bit `i` of the pattern index `l`.
    fn pattern_word(i: usize) -> u64 {
        let mut w = 0u64;
        for l in 0..64 {
            if (l >> i) & 1 == 1 {
                w |= 1 << l;
            }
        }
        w
    }

    #[test]
    fn stats_account_blocks_and_pending_faults() {
        let c = data::s27();
        let mut fs = FaultSim::new(&c).unwrap();
        let total = fs.report().total as u64;
        assert_eq!(fs.stats(), FsimStats::default());
        let mut rng = Xoshiro256PlusPlus::seed_from(23);
        let pis: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        let dffs: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        fs.apply_block(&pis, &dffs);
        assert_eq!(fs.stats().blocks, 1);
        assert_eq!(fs.stats().fault_evals, total);
        let pending = (fs.report().total - fs.report().detected) as u64;
        fs.apply_block(&pis, &dffs);
        assert_eq!(fs.stats().blocks, 2);
        // Second block only re-simulates the faults still undetected.
        assert_eq!(fs.stats().fault_evals, total + pending);
    }

    #[test]
    fn coverage_monotone_in_patterns() {
        let c = data::s27();
        let mut fs = FaultSim::new(&c).unwrap();
        let mut rng = Xoshiro256PlusPlus::seed_from(5);
        let mut last = 0;
        for _ in 0..6 {
            let pis: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
            let dffs: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
            fs.apply_block(&pis, &dffs);
            let now = fs.report().detected;
            assert!(now >= last);
            last = now;
        }
        assert!(last > 0, "random patterns detect something in s27");
    }
}
