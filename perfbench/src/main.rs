//! End-to-end TCP benchmark of `merced serve`.
//!
//! ```text
//! perfbench --workload <cold_compile|hot_read|store_churn|routed_read|all>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Brings up in-process `ppet_serve::Server`s (and, for `routed_read`, a
//! `ppet_cluster::Router`) with the Merced backend, drives them over real
//! TCP from closed-loop client threads, checks every answer, and prints
//! one metric per line followed by a single JSON result line. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` runs the same traffic with
//! a timing backend and reports the per-layer metrics instead. See
//! `perfbench/README.md` for what each workload and metric is for.

mod client;
mod deploy;
mod gen;
mod oracle;
mod recorder;
mod stats;
mod traced;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ppet_core::{MercedBackend, MercedConfig};
use ppet_serve::{CacheKey, CompileBackend};

use client::{Record, Wire};
use deploy::Deployment;
use gen::{oracle_requests, Lane, Op, Plan, Workload, CLIENTS};

const USAGE: &str =
    "usage: perfbench --workload <cold_compile|hot_read|store_churn|routed_read|all> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;

/// `store_churn` fails when fewer of its reads than this come from the
/// persistent store: it would no longer exercise the store layer.
const CHURN_STORE_HIT_FLOOR: f64 = 0.6;

/// A timed window should hold at least this many requests, so that ten
/// samples lie beyond the 95th percentile.
const MIN_SAMPLES: usize = 200;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    window: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace"].contains(n))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(name.to_owned(), value);
    }
    let get = |name: &str| values.get(name).ok_or_else(|| format!("missing --{name}"));
    let workload = get("workload")?;
    let workloads = if workload == "all" {
        Workload::ALL.to_vec()
    } else {
        vec![Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?]
    };
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an unsigned integer".to_owned())?;
    let seconds: u64 = get("seconds")?
        .parse()
        .ok()
        .filter(|s| (1..=120).contains(s))
        .ok_or("--seconds must be a whole number from 1 to 120")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workloads,
        seed,
        window: Duration::from_secs(seconds),
        trace,
    })
}

/// The servers' base configuration: the golden corpus defaults with one
/// worker thread per compile (two client threads already fill both cores).
fn backend() -> MercedBackend {
    MercedBackend::new(MercedConfig::default().with_jobs(1))
}

/// One reported number.
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// Sample count and similar context for the human-readable line.
    pub detail: String,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64, detail: impl Into<String>) -> Self {
        Self {
            name,
            unit,
            value,
            detail: detail.into(),
        }
    }
}

/// What one workload run reports.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Requests sent in the timed window(s).
    pub attempted: usize,
    /// Requests among them that failed or answered wrongly.
    pub failed: usize,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Every problem found.
    pub problems: Vec<String>,
}

impl Outcome {
    fn print(&self, workload: Workload, args: &Args) {
        println!(
            "perfbench {} seed={} window={}s clients={CLIENTS} trace={}",
            workload.name(),
            args.seed,
            args.window.as_secs(),
            u8::from(args.trace)
        );
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<26} {rate:>12.6}        ({} of {} failed)",
            "error_rate", self.failed, self.attempted
        );
        for m in &self.metrics {
            println!(
                "  {:<26} {:>12.4} {:<6} ({})",
                m.name, m.value, m.unit, m.detail
            );
        }
        for problem in &self.problems {
            println!("  PROBLEM: {problem}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A per-run scratch directory inside the working directory, removed when
/// dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Self, String> {
        let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
        let dir = cwd
            .join(".perfbench_tmp")
            .join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// A fresh empty subdirectory.
    pub fn fresh(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The wire bytes of `plan`: request bodies, and for `store_churn` the
/// PUT pool compiled in-process (input generation, not server set-up).
pub fn wire(plan: &Plan, backend: &MercedBackend) -> Result<Wire, String> {
    let mut wire = Wire {
        read_bodies: plan.working_set.iter().map(|r| r.to_json()).collect(),
        ..Wire::default()
    };
    for request in &plan.put_pool {
        let normalized = backend
            .normalize(request)
            .map_err(|e| format!("normalize PUT-pool request: {e}"))?;
        let manifest = backend
            .compile(&normalized)
            .map_err(|e| format!("compile PUT-pool request: {e}"))?;
        wire.put_paths
            .push(format!("/cache/{}", CacheKey::of(&normalized)));
        wire.put_bodies.push(manifest);
    }
    Ok(wire)
}

/// Checks set-up's answers: the golden oracle for `cold_compile`, and the
/// audit cross-check on every working-set manifest.
pub fn check_setup(
    plan: &Plan,
    deployment: &Deployment,
    backend: &MercedBackend,
    problems: &mut Vec<String>,
) {
    if plan.workload == Workload::ColdCompile {
        for ((_, golden), served) in oracle_requests().iter().zip(&deployment.answers) {
            problems.extend(oracle::golden_mismatch(served, golden));
        }
    }
    for (i, answer) in deployment.answers.iter().enumerate() {
        if let Err(e) = backend.verify_stored(answer) {
            problems.push(format!("set-up answer {i} fails verify_stored: {e}"));
        }
    }
}

/// Post-window checks: every distinct manifest a request carried passes
/// `verify_stored`, and every compile answer names the requested circuit
/// and seed. Marks the failing records.
pub fn check_records(wire: &Wire, records: &mut [Record], backend: &MercedBackend) {
    let mut put_verified: HashMap<usize, bool> = HashMap::new();
    for record in records.iter_mut().filter(|r| r.error.is_none()) {
        record.error = match &record.op {
            Op::Compile(request) => {
                let body = record.body.as_deref().unwrap_or_default();
                oracle::answer_mismatch(request, body).or_else(|| {
                    backend
                        .verify_stored(body)
                        .err()
                        .map(|e| format!("answer fails verify_stored: {e}"))
                })
            }
            Op::Put(i) => {
                let ok = *put_verified
                    .entry(*i)
                    .or_insert_with(|| backend.verify_stored(&wire.put_bodies[*i]).is_ok());
                (!ok).then(|| format!("PUT-pool manifest {i} fails verify_stored"))
            }
            // Reads equal a set-up answer, which check_setup verified.
            Op::Read(_) => None,
        };
    }
}

/// Workload sanity from the servers' own `/metrics`: the window's outcome
/// mix must be the one the workload exists to exercise.
pub fn check_mix(
    workload: Workload,
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
    records: &[Record],
) -> Result<f64, String> {
    let delta = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    let (hit, store_hit, miss) = (delta("hit"), delta("store_hit"), delta("miss"));
    let reads = records
        .iter()
        .filter(|r| r.error.is_none() && !matches!(r.op, Op::Put(_)))
        .count() as u64;
    match workload {
        Workload::ColdCompile if hit + store_hit > 0 => {
            return Err(format!(
                "cold_compile saw {hit} hits and {store_hit} store hits"
            ))
        }
        Workload::HotRead | Workload::RoutedRead | Workload::StoreChurn if miss > 0 => {
            return Err(format!(
                "{} compiled {miss} times in its window",
                workload.name()
            ))
        }
        _ => {}
    }
    let store_share = store_hit as f64 / reads.max(1) as f64;
    if workload == Workload::StoreChurn && store_share < CHURN_STORE_HIT_FLOOR {
        return Err(format!(
            "store_churn served only {:.0}% of reads from the store (floor {:.0}%)",
            store_share * 100.0,
            CHURN_STORE_HIT_FLOOR * 100.0
        ));
    }
    Ok(store_share)
}

/// Starts `count` deployments one after another, keeps the last, and
/// returns it with each set-up's duration.
fn set_up<B: CompileBackend + Clone>(
    plan: &Plan,
    backend: &B,
    scratch: &Scratch,
    count: usize,
) -> Result<(Deployment, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept: Option<Deployment> = None;
    for i in 0..count {
        if let Some(old) = kept.take() {
            old.stop();
        }
        let dir = scratch.fresh(&format!("setup{i}"))?;
        let started = Instant::now();
        kept = Some(Deployment::start(plan, backend, &dir)?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((kept.ok_or("no set-up ran")?, times))
}

fn lanes(plan: &Plan) -> Vec<Lane> {
    (0..CLIENTS).map(|c| plan.lane(c)).collect()
}

/// The untraced run: end-to-end metrics only.
fn run_timed(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let plan = Plan::new(workload, args.seed);
    let backend = backend();
    let mut wire = wire(&plan, &backend)?;
    let scratch = Scratch::new(workload.name())?;
    let (deployment, setup_times) = set_up(&plan, &backend, &scratch, SETUPS)?;
    let mut problems = Vec::new();
    check_setup(&plan, &deployment, &backend, &mut problems);
    wire.expected = deployment.answers.clone();

    let mut lanes = lanes(&plan);
    let before = deploy::outcomes(&deployment.shards)?;
    let cpu_before = stats::cpu_seconds()?;
    let started = Instant::now();
    let mut records = client::drive(deployment.target, &wire, &mut lanes, args.window);
    let elapsed = records
        .iter()
        .map(|r| r.end)
        .max()
        .map_or(args.window, |end| end - started);
    let cpu = stats::cpu_seconds()? - cpu_before;
    let peak_rss_mb = stats::peak_rss_mb()?;
    let after = deploy::outcomes(&deployment.shards)?;
    deployment.stop();

    check_records(&wire, &mut records, &backend);
    if let Err(problem) = check_mix(workload, &before, &after, &records) {
        problems.push(problem);
    }
    let failed: Vec<&Record> = records.iter().filter(|r| r.error.is_some()).collect();
    problems.extend(failed.iter().take(5).filter_map(|r| r.error.clone()));

    let rtts: Vec<f64> = records
        .iter()
        .filter(|r| r.error.is_none())
        .map(Record::rtt_ms)
        .collect();
    let ok = rtts.len();
    if records.len() < MIN_SAMPLES {
        eprintln!(
            "perfbench: only {} requests in the window; p95 has fewer than 10 samples beyond it",
            records.len()
        );
    }
    let p95 = stats::percentile(&rtts, 0.95);
    let beyond = rtts.iter().filter(|&&x| x > p95).count();
    let metrics = vec![
        Metric::new(
            "p50_ms",
            "ms",
            stats::percentile(&rtts, 0.5),
            format!("n={ok}"),
        ),
        Metric::new("p95_ms", "ms", p95, format!("n={ok}, {beyond} beyond")),
        Metric::new(
            "throughput_rps",
            "1/s",
            ok as f64 / elapsed.as_secs_f64(),
            format!("{ok} ok in {:.3} s", elapsed.as_secs_f64()),
        ),
        Metric::new(
            "cpu_ms_per_req",
            "ms",
            cpu * 1e3 / records.len().max(1) as f64,
            format!("{cpu:.2} s process CPU over {} requests", records.len()),
        ),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb, "VmHWM after the window"),
        Metric::new(
            "setup_s",
            "s",
            stats::median(&setup_times),
            format!("median of {SETUPS}: {setup_times:.3?}"),
        ),
    ];
    Ok(Outcome {
        correct: problems.is_empty() && failed.is_empty(),
        attempted: records.len(),
        failed: failed.len(),
        metrics,
        problems,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for &workload in &args.workloads {
        let outcome = if args.trace {
            traced::run(workload, &args)
        } else {
            run_timed(workload, &args)
        };
        match outcome {
            Ok(outcome) => {
                outcome.print(workload, &args);
                all_correct &= outcome.correct;
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
