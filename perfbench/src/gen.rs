//! Seeded request generation. The servers receive only what this module
//! produces, and the same seed always produces the same requests.

use ppet_prng::{Rng, Xoshiro256PlusPlus};
use ppet_serve::CompileRequest;

/// Closed-loop client threads per run (the box has two cores).
pub const CLIENTS: usize = 2;

/// The seed every golden-corpus manifest was recorded at.
pub const GOLDEN_SEED: u64 = 1996;

/// Table-9 stand-ins `cold_compile` draws from. s1423 is left out: at
/// 0.86 s a compile it would own the tail on its own.
const COLD_CIRCUITS: [&str; 7] = ["s420.1", "s510", "s641", "s713", "s820", "s832", "s838.1"];

/// `hot_read`'s circuits: cheap builtins plus two Table-9 stand-ins, so the
/// per-request builtin resolution covers both small and synthesised nets.
const HOT_CIRCUITS: [&str; 8] = [
    "s27",
    "counter8",
    "counter16",
    "johnson12",
    "shift8",
    "alu_slice",
    "s420.1",
    "s510",
];

/// Seeds per `hot_read` circuit: 8 circuits x 2 seeds = 16 keys.
const HOT_SEEDS: usize = 2;

/// `store_churn`'s near-duplicate manifests: cheap builtins varied over
/// `cbit_length`, `beta` and seed.
const CHURN_CIRCUITS: [&str; 7] = [
    "s27",
    "counter6",
    "counter8",
    "counter12",
    "johnson6",
    "johnson8",
    "johnson12",
];
const CHURN_CBIT_LENGTHS: [u32; 4] = [4, 6, 8, 12];
const CHURN_BETAS: [u32; 3] = [10, 30, 50];

/// Keys `store_churn` writes during setup and reads in the timed window.
pub const CHURN_READ_KEYS: usize = 64;

/// Manifests `store_churn` can `PUT` under keys nothing has written yet.
/// A run that sends more PUTs than this re-writes pool keys, which the
/// store answers as already present.
pub const CHURN_PUT_POOL: usize = 1024;

/// One `store_churn` operation in this many is a `PUT /cache/<key>`.
const CHURN_PUT_EVERY: u64 = 5;

/// The four traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every request a never-seen `POST /compile` of a Table-9 stand-in.
    ColdCompile,
    /// Uniform reads over 16 keys compiled during setup.
    HotRead,
    /// Store-hit reads of written keys beside PUTs of fresh manifests.
    StoreChurn,
    /// `hot_read`'s traffic through a two-shard router.
    RoutedRead,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::ColdCompile,
        Workload::HotRead,
        Workload::StoreChurn,
        Workload::RoutedRead,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdCompile => "cold_compile",
            Workload::HotRead => "hot_read",
            Workload::StoreChurn => "store_churn",
            Workload::RoutedRead => "routed_read",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `POST /compile` of working-set entry `i`, already answered in setup.
    Read(usize),
    /// `POST /compile` of a request nothing has seen.
    Compile(CompileRequest),
    /// `PUT /cache/<key>` of PUT-pool entry `i`.
    Put(usize),
}

/// A compile request under the golden corpus configuration.
fn golden(circuit: &str, policy: &str, seed: u64) -> CompileRequest {
    CompileRequest::builtin(circuit)
        .with_config("cbit_length", "16")
        .with_config("beta", "50")
        .with_config("policy", policy)
        .with_seed(seed)
}

/// A seed the JSON request format carries exactly (below 2^53).
fn fresh_seed(rng: &mut Xoshiro256PlusPlus) -> u64 {
    rng.next_u64() >> 11
}

/// The `cold_compile` correctness oracle: the recorded golden manifests
/// and the requests that must reproduce them.
pub fn oracle_requests() -> Vec<(CompileRequest, &'static str)> {
    vec![
        (
            golden("s510", "scc", GOLDEN_SEED),
            include_str!("../../recorded/golden/s510.json"),
        ),
        (
            golden("s641", "solver", GOLDEN_SEED),
            include_str!("../../recorded/golden/s641.json"),
        ),
    ]
}

/// Everything a workload sends, derived from one seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The traffic mix.
    pub workload: Workload,
    /// Requests compiled during setup and read in the timed window.
    pub working_set: Vec<CompileRequest>,
    /// Requests whose manifests `store_churn` PUTs in the timed window.
    pub put_pool: Vec<CompileRequest>,
    seed: u64,
}

impl Plan {
    /// The plan for `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut rng = Xoshiro256PlusPlus::seed_from(seed);
        let mut working_set = Vec::new();
        let mut put_pool = Vec::new();
        match workload {
            Workload::ColdCompile => {}
            Workload::HotRead | Workload::RoutedRead => {
                for circuit in HOT_CIRCUITS {
                    for _ in 0..HOT_SEEDS {
                        working_set.push(golden(circuit, "solver", fresh_seed(&mut rng)));
                    }
                }
            }
            Workload::StoreChurn => {
                for i in 0..CHURN_READ_KEYS + CHURN_PUT_POOL {
                    let circuit = *rng.choose(&CHURN_CIRCUITS).expect("non-empty");
                    let lk = *rng.choose(&CHURN_CBIT_LENGTHS).expect("non-empty");
                    let beta = *rng.choose(&CHURN_BETAS).expect("non-empty");
                    let request = CompileRequest::builtin(circuit)
                        .with_config("cbit_length", &lk.to_string())
                        .with_config("beta", &beta.to_string())
                        .with_seed(fresh_seed(&mut rng));
                    if i < CHURN_READ_KEYS {
                        working_set.push(request);
                    } else {
                        put_pool.push(request);
                    }
                }
            }
        }
        Self {
            workload,
            working_set,
            put_pool,
            seed,
        }
    }

    /// Client `client`'s operation stream. Clients never share a key, so a
    /// server-side span can be matched to exactly one client request.
    pub fn lane(&self, client: usize) -> Lane {
        let owned = |len: usize| -> Vec<usize> { (client..len).step_by(CLIENTS).collect() };
        Lane {
            workload: self.workload,
            rng: Xoshiro256PlusPlus::seed_from(
                self.seed ^ 0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(client as u64 + 1),
            ),
            round: Vec::new(),
            reads: owned(self.working_set.len()),
            puts: owned(self.put_pool.len()),
            next_put: 0,
        }
    }
}

/// One client's endless, seeded operation stream.
#[derive(Debug, Clone)]
pub struct Lane {
    workload: Workload,
    rng: Xoshiro256PlusPlus,
    /// `cold_compile`: the rest of the current shuffled round of circuits,
    /// so every circuit gets the same share of requests whatever the seed.
    round: Vec<&'static str>,
    reads: Vec<usize>,
    puts: Vec<usize>,
    next_put: usize,
}

impl Iterator for Lane {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let op = match self.workload {
            Workload::ColdCompile => {
                if self.round.is_empty() {
                    self.round = COLD_CIRCUITS.to_vec();
                    self.rng.shuffle(&mut self.round);
                }
                let circuit = self.round.pop().expect("refilled above");
                Op::Compile(golden(circuit, "solver", fresh_seed(&mut self.rng)))
            }
            Workload::HotRead | Workload::RoutedRead => {
                Op::Read(*self.rng.choose(&self.reads).expect("non-empty working set"))
            }
            Workload::StoreChurn => {
                if self.rng.gen_below(CHURN_PUT_EVERY) == 0 {
                    let i = self.puts[self.next_put % self.puts.len()];
                    self.next_put += 1;
                    Op::Put(i)
                } else {
                    Op::Read(*self.rng.choose(&self.reads).expect("non-empty working set"))
                }
            }
        };
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a plan sends, rendered as the bytes that go on the wire.
    fn wire(workload: Workload, seed: u64) -> Vec<String> {
        let plan = Plan::new(workload, seed);
        let mut out: Vec<String> = plan
            .working_set
            .iter()
            .chain(&plan.put_pool)
            .map(CompileRequest::to_json)
            .collect();
        for client in 0..CLIENTS {
            for op in plan.lane(client).take(300) {
                out.push(match op {
                    Op::Read(i) => plan.working_set[i].to_json(),
                    Op::Compile(request) => request.to_json(),
                    Op::Put(i) => format!("PUT {}", plan.put_pool[i].to_json()),
                });
            }
        }
        out
    }

    #[test]
    fn one_seed_yields_one_request_sequence() {
        for workload in Workload::ALL {
            assert_eq!(wire(workload, 7), wire(workload, 7), "{}", workload.name());
        }
    }

    #[test]
    fn two_seeds_yield_different_sequences() {
        for workload in Workload::ALL {
            assert_ne!(wire(workload, 7), wire(workload, 8), "{}", workload.name());
        }
    }

    #[test]
    fn clients_never_share_a_key() {
        for workload in Workload::ALL {
            let plan = Plan::new(workload, 3);
            let keys = |client: usize| -> std::collections::HashSet<String> {
                plan.lane(client)
                    .take(500)
                    .filter_map(|op| match op {
                        Op::Read(i) => Some(plan.working_set[i].to_json()),
                        Op::Compile(request) => Some(request.to_json()),
                        Op::Put(_) => None,
                    })
                    .collect()
            };
            let (a, b) = (keys(0), keys(1));
            assert!(a.is_disjoint(&b), "{}", workload.name());
            if workload == Workload::ColdCompile {
                assert_eq!(a.len(), 500, "cold_compile repeated a request");
            }
        }
    }

    #[test]
    fn cold_rounds_give_every_circuit_the_same_share() {
        let plan = Plan::new(Workload::ColdCompile, 11);
        let names: Vec<String> = plan
            .lane(0)
            .take(7 * 20)
            .map(|op| match op {
                Op::Compile(request) => request.builtin.expect("builtin request"),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        for circuit in COLD_CIRCUITS {
            assert_eq!(
                names.iter().filter(|n| *n == circuit).count(),
                20,
                "{circuit}"
            );
        }
    }

    #[test]
    fn store_churn_mixes_puts_into_reads() {
        let plan = Plan::new(Workload::StoreChurn, 5);
        let puts = plan
            .lane(0)
            .take(1000)
            .filter(|op| matches!(op, Op::Put(_)))
            .count();
        assert!((120..280).contains(&puts), "{puts} PUTs in 1000 operations");
    }
}
