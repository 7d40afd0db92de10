//! The traced run: a workload's traffic through [`TracedBackend`], plus
//! direct timings of each crate's public calls on the same inputs,
//! reported as per-layer metrics.
//!
//! The window is split in two halves on one deployment: the first records
//! every backend call, the second only forwards, and `trace.overhead_frac`
//! compares their median round trips.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use ppet_cluster::{Ring, DEFAULT_VNODES};
use ppet_core::{resolve_builtin, MercedBackend};
use ppet_graph::CircuitGraph;
use ppet_serve::{CacheKey, CompileBackend, CompileRequest, NormalizedRequest, ResultCache};
use ppet_store::{Store, StoreConfig};
use ppet_trace::Tracer;

use crate::client::{self, Record, Wire};
use crate::deploy::{self, Deployment, Front};
use crate::gen::{Op, Plan, Workload, CLIENTS};
use crate::recorder::{body_id, request_id, Call, Event, Phases, Recorder, TracedBackend};
use crate::stats::median;
use crate::{
    check_mix, check_records, check_setup, lanes, set_up, wire, Args, Metric, Outcome, Scratch,
};

/// Leading compiles per client that form `cold_compile`'s reference set,
/// over which the flow and partition counts are summed.
const REFERENCE_PER_LANE: usize = 4;

/// The direct-call probes time at most this many requests.
const PROBE_OPS: usize = 400;

/// Request pairs, one direct and one through a router, behind
/// `cluster.hop_ms`.
const HOP_PAIRS: usize = 30;

/// The counters that must repeat exactly for one seed.
const DETERMINISTIC: [&str; 5] = [
    "flow.trees_built",
    "flow.heap_pops",
    "flow.relaxations",
    "assign.merges",
    "assign.merge_attempts",
];

/// The request an operation sends (PUTs: the request the manifest answers).
fn request_of<'a>(plan: &'a Plan, op: &'a Op) -> &'a CompileRequest {
    match op {
        Op::Read(i) => &plan.working_set[*i],
        Op::Compile(request) => request,
        Op::Put(i) => &plan.put_pool[*i],
    }
}

/// The manifest an operation carried: the answer, or the PUT body.
fn manifest_of<'a>(wire: &'a Wire, record: &'a Record) -> Option<&'a str> {
    match &record.op {
        Op::Read(i) => Some(&wire.expected[*i]),
        Op::Compile(_) => record.body.as_deref(),
        Op::Put(i) => Some(&wire.put_bodies[*i]),
    }
}

/// A request with what the server derives from it.
struct Resolved {
    json: String,
    normalized: NormalizedRequest,
    key: CacheKey,
    id: u64,
}

/// Normalizes each distinct request once, outside any timing.
#[derive(Default)]
struct Resolver {
    by_json: HashMap<String, Arc<Resolved>>,
}

impl Resolver {
    fn get(
        &mut self,
        backend: &MercedBackend,
        request: &CompileRequest,
    ) -> Result<Arc<Resolved>, String> {
        let json = request.to_json();
        if let Some(hit) = self.by_json.get(&json) {
            return Ok(Arc::clone(hit));
        }
        let normalized = backend
            .normalize(request)
            .map_err(|e| format!("normalize: {e}"))?;
        let resolved = Arc::new(Resolved {
            key: CacheKey::of(&normalized),
            id: request_id(&normalized),
            normalized,
            json: json.clone(),
        });
        self.by_json.insert(json, Arc::clone(&resolved));
        Ok(resolved)
    }
}

/// Microseconds `f` takes.
fn time_us<T>(f: impl FnOnce() -> T) -> f64 {
    let started = Instant::now();
    std::hint::black_box(f());
    started.elapsed().as_secs_f64() * 1e6
}

/// Metrics in report order.
#[derive(Default)]
struct Report(Vec<Metric>);

impl Report {
    fn add(&mut self, name: &'static str, unit: &'static str, value: f64, detail: String) {
        self.0.push(Metric::new(name, unit, value, detail));
    }

    /// The median of `samples`, noted with the sample count and `how`.
    fn median(&mut self, name: &'static str, unit: &'static str, samples: &[f64], how: &str) {
        let detail = format!("n={} {how}", samples.len()).trim_end().to_owned();
        self.add(name, unit, median(samples), detail);
    }
}

/// Runs `workload` traced and reports every per-layer metric.
pub fn run(workload: Workload, args: &Args) -> Result<Outcome, String> {
    let plan = Plan::new(workload, args.seed);
    let inner = crate::backend();
    let mut wire = wire(&plan, &inner)?;
    let recorder = Arc::new(Recorder::default());
    let backend = TracedBackend::new(inner.clone(), Arc::clone(&recorder));
    let scratch = Scratch::new(&format!("{}-traced", workload.name()))?;
    let (deployment, _) = set_up(&plan, &backend, &scratch, 1)?;
    let mut problems = Vec::new();
    check_setup(&plan, &deployment, &inner, &mut problems);
    wire.expected = deployment.answers.clone();

    let half = args.window / 2;
    let mut lanes = lanes(&plan);
    let before = deploy::outcomes(&deployment.shards)?;
    let window_start = Instant::now();
    let mut traced = client::drive(deployment.target, &wire, &mut lanes, half);
    let window_end = Instant::now();
    let after = deploy::outcomes(&deployment.shards)?;
    recorder.pause();
    let mut untraced = client::drive(deployment.target, &wire, &mut lanes, half);
    let hop = hop_ms(workload, &deployment, &inner, &wire, &traced);
    deployment.stop();
    let (hop_ms, hop_pairs) = hop?;

    check_records(&wire, &mut traced, &inner);
    check_records(&wire, &mut untraced, &inner);
    let store_share = check_mix(workload, &before, &after, &traced).unwrap_or_else(|problem| {
        problems.push(problem);
        0.0
    });
    let failures: Vec<&String> = traced
        .iter()
        .chain(&untraced)
        .filter_map(|r| r.error.as_ref())
        .collect();
    problems.extend(failures.iter().take(5).map(|e| (*e).clone()));

    let events = recorder.events();
    let in_window = |e: &&Event| e.start >= window_start && e.start <= window_end;
    let mut resolver = Resolver::default();
    let ok: Vec<&Record> = traced.iter().filter(|r| r.error.is_none()).collect();
    let resolved: Vec<Arc<Resolved>> = ok
        .iter()
        .map(|r| resolver.get(&inner, request_of(&plan, &r.op)))
        .collect::<Result<_, _>>()?;
    let mut report = Report::default();

    // serve: direct timings of the front end's public calls.
    let probe: Vec<(&Record, &Arc<Resolved>)> = ok
        .iter()
        .copied()
        .zip(&resolved)
        .filter(|(r, _)| !matches!(r.op, Op::Put(_)))
        .take(PROBE_OPS)
        .collect();
    let each = |f: &dyn Fn(&Record, &Resolved) -> f64| -> Vec<f64> {
        probe.iter().map(|(r, x)| f(r, x)).collect()
    };
    report.median(
        "serve.parse_us",
        "us",
        &each(&|_, x| time_us(|| CompileRequest::from_json(&x.json))),
        "",
    );
    report.median(
        "serve.key_us",
        "us",
        &each(&|_, x| time_us(|| CacheKey::of(&x.normalized))),
        "",
    );
    let cache = ResultCache::with_capacity(probe.len() + 1);
    for (record, x) in &probe {
        if let Some(body) = manifest_of(&wire, record) {
            cache.complete(x.key, Arc::new(body.to_owned()));
        }
    }
    report.median(
        "serve.cache_claim_us",
        "us",
        &each(&|_, x| time_us(|| cache.claim(x.key))),
        "",
    );

    // serve: what the backend-timed spans of each request leave over.
    let mut index: HashMap<(Call, u64), Vec<&Event>> = HashMap::new();
    for event in &events {
        index.entry((event.call, event.id)).or_default().push(event);
    }
    let unattributed: Vec<f64> = ok
        .iter()
        .zip(&resolved)
        .map(|(record, x)| {
            let body = manifest_of(&wire, record).map_or(0, body_id);
            let spans: u64 = [
                (Call::Normalize, x.id),
                (Call::Compile, x.id),
                (Call::Verify, body),
            ]
            .iter()
            .filter_map(|k| index.get(k))
            .flatten()
            .filter(|e| e.start >= record.start && e.end <= record.end)
            .map(|e| e.ns())
            .sum();
            record.rtt_ms() - spans as f64 / 1e6
        })
        .collect();
    report.median("serve.unattributed_ms", "ms", &unattributed, "");
    let delta = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    let answered = after.values().sum::<u64>() - before.values().sum::<u64>();
    let share = |k: &str| delta(k) as f64 / answered.max(1) as f64;
    let hits = delta("hit");
    let store_hits = delta("store_hit");
    report.add(
        "serve.hit_ratio",
        "ratio",
        share("hit"),
        format!("{hits} of {answered} from /metrics"),
    );
    report.add(
        "serve.store_hit_ratio",
        "ratio",
        share("store_hit"),
        format!("{store_hits} of {answered}; {store_share:.3} of reads"),
    );

    // netlist and core.
    report.median(
        "netlist.resolve_us",
        "us",
        &each(&|r, _| {
            let name = request_of(&plan, &r.op)
                .builtin
                .as_deref()
                .unwrap_or_default();
            time_us(|| resolve_builtin(name))
        }),
        "",
    );
    let calls_us = |call: Call| -> Vec<f64> {
        events
            .iter()
            .filter(|e| e.call == call)
            .filter(in_window)
            .map(|e| e.ns() as f64 / 1e3)
            .collect()
    };
    report.median("core.normalize_us", "us", &calls_us(Call::Normalize), "");

    // The compiles to report phase times over: those in the traced window,
    // or, where the window compiles nothing, set-up's.
    let all_compiles = events.iter().filter(|e| e.call == Call::Compile);
    let window_compiles: Vec<&Event> = all_compiles.clone().filter(in_window).collect();
    let (compiles, source): (Vec<&Event>, &str) = if window_compiles.is_empty() {
        (all_compiles.collect(), "set-up compiles")
    } else {
        (window_compiles, "window compiles")
    };
    let phase = |f: &dyn Fn(&Event, &Phases) -> f64| -> Vec<f64> {
        compiles
            .iter()
            .filter_map(|e| e.phases.as_ref().map(|p| f(e, p)))
            .collect()
    };
    let span_ms = |name: &'static str| phase(&move |_, p| p.span_ms(name));
    report.median("core.cost_retime_ms", "ms", &span_ms("cost_retime"), source);
    report.median(
        "core.manifest_us",
        "us",
        &phase(&|e, p| e.ns().saturating_sub(p.pipeline_ns) as f64 / 1e3),
        &format!("{source}; compile call minus pipeline span"),
    );
    let waits: Vec<f64> = compiles
        .iter()
        .filter_map(|c| {
            index
                .get(&(Call::Normalize, c.id))?
                .iter()
                .filter(|n| n.end <= c.start)
                .map(|n| c.start - n.end)
                .min()
                .map(|wait| wait.as_secs_f64() * 1e3)
        })
        .collect();
    report.median("exec.queue_wait_ms", "ms", &waits, "");

    // graph, flow, partition, sched: the compile's own spans and counters.
    let reference: Vec<Arc<Resolved>> = reference_set(&plan, &traced)?
        .iter()
        .map(|r| resolver.get(&inner, r))
        .collect::<Result<_, _>>()?;
    let build: Vec<f64> = reference
        .iter()
        .map(|x| time_us(|| CircuitGraph::from_circuit(&x.normalized.circuit)) / 1e3)
        .collect();
    report.median("graph.build_ms", "ms", &build, "direct");
    report.median(
        "graph.scc_ms",
        "ms",
        &span_ms("scc"),
        &format!("{source}; includes the build"),
    );
    report.median(
        "flow.saturate_ms",
        "ms",
        &span_ms("saturate_network"),
        source,
    );
    let totals = counters(&reference, &index, &inner, &mut problems);
    let total = |k: &str| totals.get(k).copied().unwrap_or(0);
    for name in ["flow.trees_built", "flow.heap_pops", "flow.relaxations"] {
        report.add(
            name,
            "count",
            total(name) as f64,
            format!("sum over {} reference compiles", reference.len()),
        );
    }
    report.median(
        "partition.make_group_ms",
        "ms",
        &span_ms("make_group"),
        source,
    );
    report.median(
        "partition.assign_cbit_ms",
        "ms",
        &span_ms("assign_cbit"),
        source,
    );
    let (merges, attempts) = (total("assign.merges"), total("assign.merge_attempts"));
    report.add(
        "partition.merge_yield",
        "ratio",
        merges as f64 / attempts.max(1) as f64,
        format!("{merges} merges / {attempts} attempts"),
    );
    report.median(
        "sched.power_sched_us",
        "us",
        &phase(&|_, p| p.span_ms("power_sched") * 1e3),
        source,
    );

    // audit: in-request verification where the window has any, else the
    // same call timed directly on the window's manifests.
    let mut manifests: Vec<(CacheKey, &str)> = Vec::new();
    let mut seen = HashSet::new();
    for (record, x) in ok.iter().zip(&resolved) {
        if let Some(body) = manifest_of(&wire, record) {
            if seen.insert(x.key) {
                manifests.push((x.key, body));
            }
        }
    }
    let in_request = calls_us(Call::Verify);
    if in_request.is_empty() {
        let direct: Vec<f64> = manifests
            .iter()
            .map(|(_, body)| time_us(|| inner.verify_stored(body)))
            .collect();
        report.median("audit.verify_stored_us", "us", &direct, "direct");
    } else {
        report.median("audit.verify_stored_us", "us", &in_request, "in-request");
    }

    // store and dedup: the window's distinct manifests through a fresh store.
    store_probe(&manifests, &scratch, &mut report)?;
    let sketch: Vec<f64> = manifests
        .iter()
        .map(|(_, body)| time_us(|| ppet_dedup::super_features(body.as_bytes())))
        .collect();
    report.median("dedup.sketch_us", "us", &sketch, "");

    // cluster.
    let ring = Ring::new(2, DEFAULT_VNODES);
    report.median(
        "cluster.route_us",
        "us",
        &each(&|_, x| time_us(|| ring.route(x.key.0, 2, |_| true))),
        "",
    );
    report.add(
        "cluster.hop_ms",
        "ms",
        hop_ms,
        format!("{hop_pairs} direct/routed pairs"),
    );

    // trace.
    let p50 = |records: &[Record]| -> f64 {
        let rtts: Vec<f64> = records
            .iter()
            .filter(|r| r.error.is_none())
            .map(Record::rtt_ms)
            .collect();
        crate::stats::percentile(&rtts, 0.5)
    };
    let (on, off) = (p50(&traced), p50(&untraced));
    report.add(
        "trace.overhead_frac",
        "ratio",
        on / off - 1.0,
        format!("p50 {on:.3} ms traced vs {off:.3} ms untraced"),
    );

    Ok(Outcome {
        correct: problems.is_empty() && failures.is_empty(),
        attempted: traced.len() + untraced.len(),
        failed: failures.len(),
        metrics: report.0,
        problems,
    })
}

/// The requests whose counters must repeat exactly: `cold_compile`'s
/// first compiles of each client, or the working set compiled in set-up.
fn reference_set(plan: &Plan, traced: &[Record]) -> Result<Vec<CompileRequest>, String> {
    if plan.workload != Workload::ColdCompile {
        return Ok(plan.working_set.clone());
    }
    let mut out = Vec::new();
    for lane in 0..CLIENTS {
        let first: Vec<&Record> = traced
            .iter()
            .filter(|r| r.lane == lane)
            .take(REFERENCE_PER_LANE)
            .collect();
        if first.len() < REFERENCE_PER_LANE || first.iter().any(|r| r.error.is_some()) {
            return Err(format!(
                "client {lane} did not complete {REFERENCE_PER_LANE} traced compiles"
            ));
        }
        out.extend(first.iter().map(|r| request_of(plan, &r.op).clone()));
    }
    Ok(out)
}

/// Sums the deterministic counters of the served compiles of `reference`,
/// and recompiles each in-process to check they repeat exactly.
fn counters(
    reference: &[Arc<Resolved>],
    index: &HashMap<(Call, u64), Vec<&Event>>,
    backend: &MercedBackend,
    problems: &mut Vec<String>,
) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for x in reference {
        let served = index
            .get(&(Call::Compile, x.id))
            .and_then(|events| events.iter().find_map(|e| e.phases.as_ref()));
        let Some(served) = served else {
            problems.push(format!("no traced compile of reference request {}", x.json));
            continue;
        };
        let (tracer, sink) = Tracer::collecting();
        if let Err(e) = backend.compile_traced(&x.normalized, &tracer) {
            problems.push(format!("recompile of {}: {e}", x.json));
            continue;
        }
        let again = Phases::of(&sink.report());
        for name in DETERMINISTIC {
            *totals.entry(name).or_insert(0) += served.counter(name);
            if served.counter(name) != again.counter(name) {
                problems.push(format!(
                    "{name} is {} served but {} recompiled for {}",
                    served.counter(name),
                    again.counter(name),
                    x.json
                ));
            }
        }
    }
    totals
}

/// `store.*`: puts, gets and reopens of `manifests` in a fresh store.
fn store_probe(
    manifests: &[(CacheKey, &str)],
    scratch: &Scratch,
    report: &mut Report,
) -> Result<(), String> {
    let dir = scratch.fresh("store-probe")?;
    let io = |e: std::io::Error| format!("store probe: {e}");
    let store = Store::open(&dir, StoreConfig::default()).map_err(io)?;
    let mut put = Vec::new();
    for (key, body) in manifests {
        let started = Instant::now();
        store.put(key.0, body.as_bytes()).map_err(io)?;
        put.push(started.elapsed().as_secs_f64() * 1e6);
    }
    let get: Vec<f64> = manifests
        .iter()
        .map(|(key, _)| time_us(|| store.get(key.0)))
        .collect();
    store.flush().map_err(io)?;
    drop(store);
    let mut open = Vec::new();
    let mut stats = None;
    for _ in 0..3 {
        let started = Instant::now();
        let store = Store::open(&dir, StoreConfig::default()).map_err(io)?;
        open.push(started.elapsed().as_secs_f64() * 1e3);
        stats = Some(store.stats());
    }
    let stats = stats.ok_or("store probe never reopened")?;
    report.median("store.get_us", "us", &get, "");
    report.median("store.put_us", "us", &put, "");
    report.median("store.open_ms", "ms", &open, "replays");
    report.add(
        "store.delta_ratio",
        "ratio",
        stats.delta_ratio,
        format!(
            "{} of {} entries stored as deltas",
            stats.delta_entries, stats.entries
        ),
    );
    let depth_sum: u64 = stats
        .chain_depths
        .iter()
        .enumerate()
        .map(|(d, &count)| d as u64 * count)
        .sum();
    let entries: u64 = stats.chain_depths.iter().sum();
    report.add(
        "store.chain_depth_mean",
        "count",
        depth_sum as f64 / entries.max(1) as f64,
        format!("depths {:?}", stats.chain_depths),
    );
    Ok(())
}

/// Median round trip through a router minus the median straight to a
/// server, over repeats of answered requests. `routed_read` uses its own
/// router; the other workloads get a one-shard router in front of theirs.
fn hop_ms(
    workload: Workload,
    deployment: &Deployment,
    backend: &MercedBackend,
    wire: &Wire,
    traced: &[Record],
) -> Result<(f64, usize), String> {
    let mut sample: Vec<(String, &str)> = Vec::new();
    for record in traced.iter().filter(|r| r.error.is_none()) {
        let body = match &record.op {
            Op::Read(i) => wire.read_bodies[*i].clone(),
            Op::Compile(request) => request.to_json(),
            Op::Put(_) => continue,
        };
        if let Some(answer) = manifest_of(wire, record) {
            if !sample.iter().any(|(b, _)| *b == body) {
                sample.push((body, answer));
            }
        }
    }
    if sample.is_empty() {
        return Err("no answered request to replay through a router".into());
    }
    let front = match workload {
        Workload::RoutedRead => None,
        _ => Some(Front::start(backend.clone(), &deployment.shards[..1])?),
    };
    let routed_addr = front.as_ref().map_or(deployment.target, |f| f.addr);
    let direct_addr = deployment.shards[0];
    let mut direct = Vec::new();
    let mut routed = Vec::new();
    let mut result = Ok(());
    for (i, (body, answer)) in sample.iter().cycle().take(HOP_PAIRS).enumerate() {
        let order = if i % 2 == 0 {
            [(direct_addr, false), (routed_addr, true)]
        } else {
            [(routed_addr, true), (direct_addr, false)]
        };
        for (addr, via_router) in order {
            let started = Instant::now();
            match client::compile(addr, body) {
                Ok(reply) if reply == *answer => {}
                Ok(_) => result = Err(format!("replay of {body} answered different bytes")),
                Err(e) => result = Err(e),
            }
            let ms = started.elapsed().as_secs_f64() * 1e3;
            if via_router {
                routed.push(ms);
            } else {
                direct.push(ms);
            }
        }
    }
    if let Some(front) = front {
        front.stop();
    }
    result.map(|()| (median(&routed) - median(&direct), HOP_PAIRS))
}
