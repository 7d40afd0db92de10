//! `merced` — the BIST compiler as a command-line tool.
//!
//! ```text
//! merced <netlist.bench> [options]
//! merced batch <netlist.bench>... [options]
//! merced audit <manifest.json> [--bench netlist.bench] [options]
//! merced schedule <netlist.bench | --builtin NAME> [options]
//! merced schedule --manifest <manifest.json> [--power-budget CDF] [--pareto]
//! merced serve --addr <host:port> [--workers N] [--queue N]
//!              [--timeout-ms N] [--store DIR] [--store-budget BYTES]
//!              [--delta-depth N] [--cache-cap N] [--trace-ring N]
//!              [--slow-ms N] [options]
//! merced store <dir> <stats | gc | verify | export KEY | import FILE [--pin]>
//! merced stat <host:port>... [--watch SECS] [--json]
//! merced cluster --addr <host:port> --backend <host:port>...
//!                [--replication N] [--vnodes N] [--hedge-ms N]
//!                [--probe-ms N] [--timeout-ms N] [options]
//!
//! Options:
//!   --lk <N>           CBIT length / input constraint (default 16)
//!   --beta <N>         SCC cut budget factor (default 50)
//!   --seed <N>         flow seed (default 1996)
//!   --policy <P>       with-retiming cost policy: scc | solver (default scc)
//!   --per-branch       per-branch flow accounting (default per-net)
//!   --max-trees <N>    cap on saturation trees (default unbounded)
//!   --jobs <N|max>     worker threads (default $PPET_JOBS, else 1); never
//!                      changes results, capped at the available cores
//!   --power-budget <C> peak-power budget for the test schedule, in
//!                      centi-DFF of switched CBIT area (default: the
//!                      larger of the hottest single block and half the
//!                      all-blocks-at-once power); an explicit budget
//!                      below the hottest block is a compile error
//!   --builtin <name>   compile a built-in circuit instead of a file: s27,
//!                      alu_slice, counter<N>, shift<N>, johnson<N>, or a
//!                      Table 9 name (s641, s5378, ...) for its calibrated
//!                      synthetic stand-in; repeatable in batch mode
//!   --audit            run the independent ppet-audit checker on every
//!                      compile; audit entries are embedded in the manifest
//!                      and a failed audit exits non-zero
//!   --bench <path>     (audit mode) the netlist the manifest was compiled
//!                      from, when its circuit is not a builtin
//!   --emit <out.bench> write the PPET-instrumented netlist
//!   --quiet            print only the Table-10-style row
//!   --trace            print the span tree + counters to stderr
//!   --trace-json <out> write the JSON run manifest (in batch mode: a
//!                      directory receiving one manifest per job plus
//!                      batch.json)
//!
//! Schedule options (`merced schedule`):
//!   --manifest <file>  rebuild the schedule recorded in a run manifest
//!                      (partition rows + recorded config) instead of
//!                      compiling; --power-budget then re-packs the
//!                      recorded partitions under a different budget
//!   --pareto           sweep a budget grid from the hottest single block
//!                      to full concurrency and print the time/power
//!                      frontier instead of one schedule
//!   --pareto-points <N> grid points for the sweep (default 8)
//!   The output is one `ppet-sched/v1` JSON document on stdout.
//!
//! Serve options:
//!   --addr <host:port> listen address (port 0 picks an ephemeral port;
//!                      the bound address is printed on stdout)
//!   --workers <N>      compile worker threads (default 2)
//!   --queue <N>        bounded queue capacity; a full queue answers 429
//!                      (default 64)
//!   --timeout-ms <N>   per-request compile deadline; past it the client
//!                      gets a structured 408 while the compile finishes
//!                      into the cache (default 60000)
//!   --store <dir>      mount a persistent artifact store: compiled
//!                      manifests are written through to disk, survive
//!                      restarts, and are audit-re-verified before being
//!                      served again
//!   --store-budget <B> byte budget for the store's LRU eviction
//!                      (default unbounded; pinned entries never evicted)
//!   --delta-depth <N>  maximum delta chain depth in the store, 0..=16: 0
//!                      stores everything raw, 1 forbids delta-of-delta
//!                      chains (default 2)
//!   --cache-cap <N>    max completed entries in the in-memory hot cache
//!                      (default 1024, LRU beyond it)
//!   --trace-ring <N>   completed request traces kept for GET
//!                      /debug/requests and /debug/trace/<id>
//!                      (default 256; 0 disables tracing)
//!   --slow-ms <N>      requests at least this slow are pinned in the
//!                      trace ring, so churn cannot evict them
//!
//! Store maintenance (`merced store <dir> <action>`):
//!   stats              print entry/byte/hit/eviction statistics
//!   gc                 compact segments, reclaiming dead bytes
//!   verify             read and decode every entry; non-zero exit on
//!                      any corruption
//!   export <key>       write the artifact stored under the 32-hex-digit
//!                      key to stdout
//!   import <file>      store a file under its content hash (printed on
//!                      stdout); --pin protects it from eviction
//!   (--store-budget and --delta-depth apply here too: imports then
//!   enforce the byte budget and chain-depth limit exactly as the
//!   server would)
//!
//! Service status (`merced stat <host:port>...`):
//!   scrapes GET /metrics and GET /debug/requests from a running
//!   `merced serve` and renders a one-screen summary: request and cache
//!   counters, per-outcome latency quantiles (p50/p95/p99), and the
//!   most recent request traces. --watch SECS redraws every SECS
//!   seconds; --json emits the summary as one machine-readable object.
//!   With several addresses, each server gets its own section followed
//!   by a cluster-wide merged rollup (counters and gauges summed,
//!   histograms merged); --json then emits
//!   `{"addrs":[<per-server objects>],"merged":<rollup>}`. The
//!   single-address output shape is unchanged.
//!
//! Cluster options (`merced cluster`):
//!   --addr <host:port>   router listen address (port 0 works as in serve)
//!   --backend <addr>     one running `merced serve` shard; repeat for
//!                        each member (at least one required)
//!   --replication <N>    ring replicas each fresh result is pushed to,
//!                        primary included (default 2; 1 disables)
//!   --vnodes <N>         virtual nodes per backend (default 64)
//!   --hedge-ms <N>       hedge a slow request to the next replica after
//!                        this long (default 250)
//!   --probe-ms <N>       health-probe interval for down backends
//!                        (default 500)
//!   --timeout-ms <N>     end-to-end request deadline (default 60000)
//!   The compile options (--lk, --beta, --seed, ...) set the router's
//!   *keying* defaults and must match the backends', so the router
//!   derives the same content key a shard would.
//! ```
//!
//! `merced serve` keeps the compiler resident: requests hit a
//! content-addressed cache keyed by the canonical netlist bytes, the
//! effective config, and the seed, so repeated and concurrent identical
//! requests cost one compile. `POST /shutdown`, SIGINT, or SIGTERM
//! drains in-flight work before exiting.
//!
//! `merced audit` re-verifies a recorded run manifest from scratch: it
//! reconstructs the configuration from the manifest's `config` entries,
//! recompiles the circuit, runs the full independent audit on the fresh
//! result, cross-checks the recorded counters and result claims against
//! the recompile, and re-validates the recorded retiming lag witness.
//!
//! Runtime failures (unreadable or malformed inputs, compile errors,
//! audit failures) are reported as one structured JSON line on stderr —
//! `{"schema":"ppet-error/v1","kind":"...","message":"..."}` — with a
//! non-zero exit code, so CI gates can match on `kind` instead of
//! scraping prose.

use std::process::ExitCode;

use ppet_core::audit::attach_audit;
use ppet_core::{
    compile_batch, resolve_builtin, Compilation, CostPolicy, Merced, MercedBackend, MercedConfig,
    PpetReport,
};
use ppet_exec::Pool;
use ppet_flow::FlowParams;
use ppet_netlist::{bench_format, writer, Circuit};
use ppet_serve::{ServeConfig, Server};
use ppet_trace::{RunManifest, Tracer};

/// A runtime error with a machine-matchable kind, rendered as one JSON
/// line on stderr.
struct CliError {
    kind: &'static str,
    message: String,
}

impl CliError {
    fn new(kind: &'static str, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }

    fn emit(&self) -> ExitCode {
        eprintln!("{}", ppet_serve::http::error_body(self.kind, &self.message));
        ExitCode::FAILURE
    }
}

/// Deepest delta chain the store reads back (its base-link walk ceiling);
/// `--delta-depth` above it is a usage error.
const MAX_DELTA_DEPTH: u8 = 16;

#[derive(PartialEq)]
enum Mode {
    Single,
    Batch,
    Audit,
    Schedule,
    Serve,
    Store,
    Stat,
    Cluster,
}

struct Options {
    mode: Mode,
    inputs: Vec<String>,
    lk: usize,
    beta: usize,
    seed: u64,
    policy: CostPolicy,
    per_branch: bool,
    max_trees: Option<u64>,
    jobs: Option<usize>,
    power_budget: Option<u64>,
    pareto: bool,
    pareto_points: Option<usize>,
    manifest: Option<String>,
    audit: bool,
    bench: Option<String>,
    emit: Option<String>,
    quiet: bool,
    trace: bool,
    trace_json: Option<String>,
    addr: Option<String>,
    workers: usize,
    queue: usize,
    timeout_ms: u64,
    store: Option<String>,
    store_budget: Option<u64>,
    delta_depth: Option<u8>,
    cache_cap: Option<usize>,
    trace_ring: Option<usize>,
    slow_ms: Option<u64>,
    pin: bool,
    watch: Option<u64>,
    json: bool,
    backends: Vec<String>,
    replication: usize,
    vnodes: usize,
    hedge_ms: u64,
    probe_ms: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let mut opts = Options {
        mode: Mode::Single,
        inputs: Vec::new(),
        lk: 16,
        beta: 50,
        seed: 1996,
        policy: CostPolicy::PaperScc,
        per_branch: false,
        max_trees: None,
        jobs: None,
        power_budget: None,
        pareto: false,
        pareto_points: None,
        manifest: None,
        audit: false,
        bench: None,
        emit: None,
        quiet: false,
        trace: false,
        trace_json: None,
        addr: None,
        workers: 2,
        queue: 64,
        timeout_ms: 60_000,
        store: None,
        store_budget: None,
        delta_depth: None,
        cache_cap: None,
        trace_ring: None,
        slow_ms: None,
        pin: false,
        watch: None,
        json: false,
        backends: Vec::new(),
        replication: 2,
        vnodes: ppet_cluster::DEFAULT_VNODES,
        hedge_ms: 250,
        probe_ms: 500,
    };
    let mut positionals = 0usize;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--lk" => opts.lk = next_value(&mut args, "--lk")?,
            "--beta" => opts.beta = next_value(&mut args, "--beta")?,
            "--seed" => opts.seed = next_value(&mut args, "--seed")?,
            "--max-trees" => opts.max_trees = Some(next_value(&mut args, "--max-trees")?),
            "--jobs" => {
                let text = args.next().ok_or("--jobs expects a value".to_string())?;
                let jobs = ppet_exec::parse_jobs(&text).map_err(|e| format!("--jobs: {e}"))?;
                opts.jobs = Some(jobs);
            }
            "--power-budget" => opts.power_budget = Some(next_value(&mut args, "--power-budget")?),
            "--pareto" => opts.pareto = true,
            "--pareto-points" => {
                opts.pareto_points = Some(next_value(&mut args, "--pareto-points")?);
                opts.pareto = true;
            }
            "--manifest" => {
                opts.manifest = Some(args.next().ok_or("--manifest expects a path".to_string())?)
            }
            "--policy" => {
                opts.policy = match args.next().as_deref() {
                    Some("scc") => CostPolicy::PaperScc,
                    Some("solver") => CostPolicy::Solver,
                    other => return Err(format!("--policy expects scc|solver, got {other:?}")),
                }
            }
            "--per-branch" => opts.per_branch = true,
            "--builtin" => {
                let name = args.next().ok_or("--builtin expects a name".to_string())?;
                opts.inputs.push(format!("builtin:{name}"));
                positionals += 1;
            }
            "--audit" => opts.audit = true,
            "--bench" => {
                opts.bench = Some(args.next().ok_or("--bench expects a path".to_string())?)
            }
            "--emit" => opts.emit = Some(args.next().ok_or("--emit expects a path".to_string())?),
            "--quiet" => opts.quiet = true,
            "--trace" => opts.trace = true,
            "--trace-json" => {
                opts.trace_json = Some(
                    args.next()
                        .ok_or("--trace-json expects a path".to_string())?,
                )
            }
            "--addr" => {
                opts.addr = Some(args.next().ok_or("--addr expects host:port".to_string())?)
            }
            "--workers" => opts.workers = next_value(&mut args, "--workers")?,
            "--queue" => opts.queue = next_value(&mut args, "--queue")?,
            "--timeout-ms" => opts.timeout_ms = next_value(&mut args, "--timeout-ms")?,
            "--store" => {
                opts.store = Some(
                    args.next()
                        .ok_or("--store expects a directory".to_string())?,
                )
            }
            "--store-budget" => opts.store_budget = Some(next_value(&mut args, "--store-budget")?),
            "--delta-depth" => opts.delta_depth = Some(next_value(&mut args, "--delta-depth")?),
            "--cache-cap" => opts.cache_cap = Some(next_value(&mut args, "--cache-cap")?),
            "--trace-ring" => opts.trace_ring = Some(next_value(&mut args, "--trace-ring")?),
            "--slow-ms" => opts.slow_ms = Some(next_value(&mut args, "--slow-ms")?),
            "--pin" => opts.pin = true,
            "--watch" => opts.watch = Some(next_value(&mut args, "--watch")?),
            "--json" => opts.json = true,
            "--backend" => opts.backends.push(
                args.next()
                    .ok_or("--backend expects host:port".to_string())?,
            ),
            "--replication" => opts.replication = next_value(&mut args, "--replication")?,
            "--vnodes" => opts.vnodes = next_value(&mut args, "--vnodes")?,
            "--hedge-ms" => opts.hedge_ms = next_value(&mut args, "--hedge-ms")?,
            "--probe-ms" => opts.probe_ms = next_value(&mut args, "--probe-ms")?,
            "--help" | "-h" => return Err(usage()),
            "batch" if positionals == 0 && opts.mode == Mode::Single => opts.mode = Mode::Batch,
            "audit" if positionals == 0 && opts.mode == Mode::Single => opts.mode = Mode::Audit,
            "schedule" if positionals == 0 && opts.mode == Mode::Single => {
                opts.mode = Mode::Schedule;
            }
            "serve" if positionals == 0 && opts.mode == Mode::Single => opts.mode = Mode::Serve,
            "store" if positionals == 0 && opts.mode == Mode::Single => opts.mode = Mode::Store,
            "stat" if positionals == 0 && opts.mode == Mode::Single => opts.mode = Mode::Stat,
            "cluster" if positionals == 0 && opts.mode == Mode::Single => {
                opts.mode = Mode::Cluster;
            }
            _ if !arg.starts_with('-') => {
                opts.inputs.push(arg);
                positionals += 1;
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if !opts.backends.is_empty() && opts.mode != Mode::Cluster {
        return Err("--backend only applies to `merced cluster`".to_string());
    }
    if opts.mode != Mode::Schedule && (opts.pareto || opts.manifest.is_some()) {
        return Err(
            "--pareto/--pareto-points/--manifest only apply to `merced schedule`".to_string(),
        );
    }
    if opts.mode == Mode::Cluster {
        if opts.addr.is_none() {
            return Err(format!("cluster requires --addr <host:port>\n{}", usage()));
        }
        if opts.backends.is_empty() {
            return Err(format!(
                "cluster requires at least one --backend <host:port>\n{}",
                usage()
            ));
        }
        if !opts.inputs.is_empty() {
            return Err("cluster takes no circuit inputs; clients post them".to_string());
        }
        if opts.replication == 0 {
            return Err("--replication expects at least 1".to_string());
        }
        if opts.store.is_some() || opts.cache_cap.is_some() {
            return Err("--store/--cache-cap only apply to `merced serve`".to_string());
        }
        if opts.watch.is_some() || opts.json {
            return Err("--watch/--json only apply to `merced stat`".to_string());
        }
        if opts.pin {
            return Err("--pin only applies to `merced store <dir> import`".to_string());
        }
        return Ok(opts);
    }
    if opts.mode == Mode::Serve {
        if opts.addr.is_none() {
            return Err(format!("serve requires --addr <host:port>\n{}", usage()));
        }
        if !opts.inputs.is_empty() {
            return Err("serve takes no circuit inputs; clients post them".to_string());
        }
        if opts.pin {
            return Err("--pin only applies to `merced store <dir> import`".to_string());
        }
        if opts.watch.is_some() || opts.json {
            return Err("--watch/--json only apply to `merced stat`".to_string());
        }
        return Ok(opts);
    }
    if opts.mode == Mode::Store {
        if opts.inputs.len() < 2 {
            return Err(format!(
                "store expects a directory and an action\n{}",
                usage()
            ));
        }
        return Ok(opts);
    }
    if opts.mode == Mode::Stat {
        if opts.inputs.is_empty() {
            return Err(format!(
                "stat expects at least one <host:port> address\n{}",
                usage()
            ));
        }
        if opts.watch == Some(0) {
            return Err("--watch expects a positive number of seconds".to_string());
        }
        return Ok(opts);
    }
    if opts.watch.is_some() || opts.json {
        return Err("--watch/--json only apply to `merced stat`".to_string());
    }
    if opts.addr.is_some() {
        return Err("--addr only applies to `merced serve`".to_string());
    }
    if opts.store.is_some() || opts.cache_cap.is_some() {
        return Err("--store/--cache-cap only apply to `merced serve`".to_string());
    }
    if opts.trace_ring.is_some() || opts.slow_ms.is_some() {
        return Err("--trace-ring/--slow-ms only apply to `merced serve`".to_string());
    }
    if opts.store_budget.is_some() {
        return Err("--store-budget only applies to `merced serve` or `merced store`".to_string());
    }
    if opts.delta_depth.is_some() {
        return Err("--delta-depth only applies to `merced serve` or `merced store`".to_string());
    }
    if opts.pin {
        return Err("--pin only applies to `merced store <dir> import`".to_string());
    }
    if opts.mode == Mode::Schedule {
        if opts.manifest.is_some() && !opts.inputs.is_empty() {
            return Err("schedule takes a circuit or --manifest, not both".to_string());
        }
        if opts.manifest.is_none() && opts.inputs.len() != 1 {
            return Err(format!(
                "schedule expects one <netlist.bench | --builtin NAME> or \
                 --manifest <manifest.json>\n{}",
                usage()
            ));
        }
        if opts.emit.is_some() || opts.audit || opts.trace_json.is_some() || opts.bench.is_some() {
            return Err(
                "--emit/--audit/--trace-json/--bench do not apply to `merced schedule`".to_string(),
            );
        }
        return Ok(opts);
    }
    if opts.inputs.is_empty() {
        return Err(usage());
    }
    match opts.mode {
        Mode::Single | Mode::Audit if opts.inputs.len() > 1 => {
            return Err(format!(
                "multiple inputs given; use `merced batch` to compile several\n{}",
                usage()
            ));
        }
        Mode::Batch if opts.emit.is_some() => {
            return Err("--emit is not supported in batch mode".to_string());
        }
        _ => {}
    }
    if opts.bench.is_some() && opts.mode != Mode::Audit {
        return Err("--bench only applies to `merced audit`".to_string());
    }
    Ok(opts)
}

fn next_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    args.next()
        .ok_or_else(|| format!("{flag} expects a value"))?
        .parse()
        .map_err(|_| format!("{flag} expects a number"))
}

fn usage() -> String {
    "usage: merced <netlist.bench | --builtin NAME> [--lk N] [--beta N] \
     [--seed N] [--policy scc|solver] [--per-branch] [--max-trees N] \
     [--jobs N|max] [--power-budget CDF] [--audit] \
     [--emit out.bench] [--quiet] [--trace] [--trace-json out.json]\n\
     \x20      merced batch <netlist.bench | --builtin NAME>... [same \
     options; --trace-json names a directory]\n\
     \x20      merced audit <manifest.json> [--bench netlist.bench] \
     [--jobs N|max] [--quiet]\n\
     \x20      merced schedule <netlist.bench | --builtin NAME | --manifest \
     manifest.json> [--power-budget CDF] [--pareto] [--pareto-points N] \
     [same compile options]\n\
     \x20      merced serve --addr <host:port> [--workers N] [--queue N] \
     [--timeout-ms N] [--jobs N|max] [--store DIR] [--store-budget BYTES] \
     [--delta-depth N] [--cache-cap N] [same compile options as defaults]\n\
     \x20      merced serve extras: [--trace-ring N] [--slow-ms N]\n\
     \x20      merced store <dir> <stats | gc | verify | export KEY | \
     import FILE [--pin]> [--delta-depth N]\n\
     \x20      merced stat <host:port>... [--watch SECS] [--json]\n\
     \x20      merced cluster --addr <host:port> --backend <host:port>... \
     [--replication N] [--vnodes N] [--hedge-ms N] [--probe-ms N] \
     [--timeout-ms N] [same compile options as keying defaults]"
        .to_string()
}

/// Loads one circuit source: a `builtin:<name>` marker or a `.bench` path.
fn load_circuit(source: &str) -> Result<Circuit, CliError> {
    if let Some(name) = source.strip_prefix("builtin:") {
        return resolve_builtin(name)
            .ok_or_else(|| CliError::new("usage", format!("unknown builtin circuit `{name}`")));
    }
    let text = std::fs::read_to_string(source)
        .map_err(|e| CliError::new("io", format!("cannot read {source}: {e}")))?;
    let name = std::path::Path::new(source)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit")
        .to_string();
    bench_format::parse(&name, &text).map_err(|e| CliError::new("parse", format!("{source}: {e}")))
}

fn build_config(opts: &Options, jobs: usize) -> MercedConfig {
    let mut flow = FlowParams::paper();
    flow.per_branch = opts.per_branch;
    flow.max_trees = opts.max_trees;
    MercedConfig::default()
        .with_cbit_length(opts.lk)
        .with_beta(opts.beta)
        .with_seed(opts.seed)
        .with_cost_policy(opts.policy)
        .with_power_budget_cdf(opts.power_budget)
        .with_flow(flow)
        .with_jobs(jobs)
}

fn run(opts: &Options, jobs: usize, tracer: &Tracer) -> Result<(Circuit, Compilation), CliError> {
    let circuit = load_circuit(&opts.inputs[0])?;
    let compilation = Merced::new(build_config(opts, jobs))
        .compile_detailed_traced(&circuit, tracer)
        .map_err(|e| CliError::new("compile", e.to_string()))?;
    Ok((circuit, compilation))
}

fn write_file(path: &std::path::Path, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::new("io", format!("cannot write {}: {e}", path.display())))
}

fn run_batch(opts: &Options, jobs: usize) -> Result<ExitCode, CliError> {
    let circuits: Vec<Circuit> = opts
        .inputs
        .iter()
        .map(|source| load_circuit(source))
        .collect::<Result<_, _>>()?;
    let merced = Merced::new(build_config(opts, jobs));
    let pool = Pool::new(jobs);
    let outcome = compile_batch(&merced, &circuits, &pool);
    println!("{}", outcome.table());
    if !opts.quiet {
        println!(
            "batch: {} compiled, {} failed, {} worker(s)",
            outcome.succeeded(),
            outcome.failed(),
            pool.workers()
        );
    }

    let dir = opts.trace_json.as_ref().map(std::path::PathBuf::from);
    if let Some(dir) = &dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::new("io", format!("cannot create {}: {e}", dir.display())))?;
    }

    // Per-job manifests, each audited on demand. The audit recompiles the
    // job through `compile_detailed` — bit-identical to the batch result —
    // to recover the partition membership the checker walks.
    let mut audit_failures: Vec<String> = Vec::new();
    let mut audited = 0usize;
    for (circuit, (name, result)) in circuits.iter().zip(&outcome.results) {
        let Ok(report) = result else { continue };
        let mut manifest = report.run_manifest();
        if opts.audit {
            let compilation = merced
                .compile_detailed(circuit)
                .map_err(|e| CliError::new("compile", format!("{name}: {e}")))?;
            let audit = compilation.audit(circuit);
            attach_audit(&mut manifest, &audit);
            audited += 1;
            if !audit.pass() {
                let what = audit.first_failure().map_or_else(
                    || "unknown check".to_owned(),
                    |c| format!("{}: {}", c.code, c.detail),
                );
                eprintln!("{audit}");
                audit_failures.push(format!("{name}: {what}"));
            }
        }
        if let Some(dir) = &dir {
            write_file(&dir.join(format!("{name}.json")), &manifest.to_json())?;
        }
    }
    if let Some(dir) = &dir {
        write_file(&dir.join("batch.json"), &outcome.summary.to_json())?;
    }
    if opts.audit && !opts.quiet {
        println!(
            "audit: {}/{audited} job(s) passed",
            audited - audit_failures.len()
        );
    }
    if !audit_failures.is_empty() {
        return Err(CliError::new("audit", audit_failures.join("; ")));
    }
    Ok(if outcome.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `merced serve --addr <host:port>`: the long-running compile service.
/// Blocks until `POST /shutdown`, SIGINT, or SIGTERM, then drains.
fn run_serve(opts: &Options, jobs: usize) -> Result<ExitCode, CliError> {
    ppet_serve::signal::install();
    let addr = opts.addr.as_deref().expect("parse_args enforces --addr");
    let backend = MercedBackend::new(build_config(opts, jobs));
    let config = ServeConfig {
        workers: opts.workers.max(1),
        queue_capacity: opts.queue.max(1),
        timeout: std::time::Duration::from_millis(opts.timeout_ms.max(1)),
        cache_capacity: opts.cache_cap.unwrap_or(ppet_serve::DEFAULT_CACHE_CAPACITY),
        store_dir: opts.store.as_ref().map(std::path::PathBuf::from),
        store_budget: opts.store_budget,
        store_delta_depth: opts
            .delta_depth
            .unwrap_or(ServeConfig::default().store_delta_depth),
        trace_ring: opts.trace_ring.unwrap_or(ppet_serve::DEFAULT_TRACE_RING),
        slow_ms: opts.slow_ms,
        // Request IDs come from the same deterministic substrate as the
        // flow seed, so two servers started alike mint the same IDs.
        id_seed: opts.seed,
    };
    let server = Server::bind(addr, backend, config)
        .map_err(|e| CliError::new("io", format!("cannot bind {addr}: {e}")))?;
    // Tests bind port 0; the printed line is how they learn the real port.
    println!("merced serve listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run();
    if !opts.quiet {
        println!("merced serve drained");
    }
    Ok(ExitCode::SUCCESS)
}

/// `merced cluster --addr <host:port> --backend <addr>...`: the
/// consistent-hash shard router. Blocks until `POST /shutdown`, SIGINT,
/// or SIGTERM, then drains.
fn run_cluster(opts: &Options, jobs: usize) -> Result<ExitCode, CliError> {
    ppet_serve::signal::install();
    let addr = opts.addr.as_deref().expect("parse_args enforces --addr");
    // The router never compiles; the backend only derives content keys,
    // so its config must match what the shards were started with.
    let backend = MercedBackend::new(build_config(opts, jobs));
    let config = ppet_cluster::ClusterConfig {
        replication: opts.replication,
        vnodes: opts.vnodes.max(1),
        hedge: std::time::Duration::from_millis(opts.hedge_ms.max(1)),
        probe: std::time::Duration::from_millis(opts.probe_ms.max(1)),
        timeout: std::time::Duration::from_millis(opts.timeout_ms.max(1)),
        id_seed: opts.seed,
    };
    let router = ppet_cluster::Router::bind(addr, backend, opts.backends.clone(), config)
        .map_err(|e| CliError::new("io", format!("cannot bind {addr}: {e}")))?;
    println!("merced cluster listening on {}", router.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    router.run();
    if !opts.quiet {
        println!("merced cluster drained");
    }
    Ok(ExitCode::SUCCESS)
}

/// `merced stat <host:port>...`: scrape each server's `/metrics` and
/// `/debug/requests` and render a one-screen summary; several addresses
/// additionally get a merged cluster-wide rollup. `--watch SECS` clears
/// the screen and redraws until interrupted.
fn run_stat(opts: &Options) -> Result<ExitCode, CliError> {
    let addrs = &opts.inputs;
    loop {
        let samples: Vec<ppet_core::stat::StatSample> = addrs
            .iter()
            .map(|addr| ppet_core::stat::scrape(addr).map_err(|e| CliError::new("io", e)))
            .collect::<Result<_, _>>()?;
        let screen = if addrs.len() == 1 {
            // One address keeps the historical output shape exactly.
            if opts.json {
                samples[0].render_json(&addrs[0])
            } else {
                samples[0].render_text(&addrs[0])
            }
        } else {
            let mut merged = ppet_core::stat::StatSample::default();
            for sample in &samples {
                merged.merge(sample);
            }
            let label = format!("merged({} servers)", addrs.len());
            if opts.json {
                let per_addr: Vec<String> = samples
                    .iter()
                    .zip(addrs)
                    .map(|(sample, addr)| sample.render_json(addr).trim_end().to_owned())
                    .collect();
                format!(
                    "{{\"addrs\":[{}],\"merged\":{}}}\n",
                    per_addr.join(","),
                    merged.render_json(&label).trim_end()
                )
            } else {
                let mut out = String::new();
                for (sample, addr) in samples.iter().zip(addrs) {
                    out.push_str(&sample.render_text(addr));
                    out.push('\n');
                }
                out.push_str(&merged.render_text(&label));
                out
            }
        };
        let Some(secs) = opts.watch else {
            print!("{screen}");
            return Ok(ExitCode::SUCCESS);
        };
        // ANSI clear + home keeps the redraw flicker-free on a live
        // terminal; piped output just sees successive frames.
        print!("\x1b[2J\x1b[H{screen}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(std::time::Duration::from_secs(secs));
    }
}

/// `merced store <dir> <action>`: maintenance operations on a persistent
/// artifact store. Without `--store-budget` the store opens unbounded,
/// so maintenance never triggers surprise evictions; with it, opening
/// and importing enforce the byte budget exactly as the server would.
fn run_store(opts: &Options) -> Result<ExitCode, CliError> {
    use ppet_store::{Store, StoreConfig};

    let dir = &opts.inputs[0];
    let action = opts.inputs[1].as_str();
    let mut config = StoreConfig {
        budget: opts.store_budget,
        ..StoreConfig::default()
    };
    if let Some(depth) = opts.delta_depth {
        config.max_chain_depth = depth;
    }
    let store = Store::open(dir, config)
        .map_err(|e| CliError::new("io", format!("cannot open store {dir}: {e}")))?;
    match action {
        "stats" => {
            println!("{}", store.stats());
            Ok(ExitCode::SUCCESS)
        }
        "gc" => {
            let outcome = store
                .gc()
                .map_err(|e| CliError::new("io", format!("gc failed: {e}")))?;
            store
                .flush()
                .map_err(|e| CliError::new("io", format!("flush failed: {e}")))?;
            println!(
                "gc: {} -> {} bytes ({} live entries)",
                outcome.before_bytes, outcome.after_bytes, outcome.live_entries
            );
            Ok(ExitCode::SUCCESS)
        }
        "verify" => {
            let report = store.verify();
            println!("verify: {} ok, {} corrupt", report.ok, report.corrupt.len());
            if report.pass() {
                Ok(ExitCode::SUCCESS)
            } else {
                let detail: Vec<String> = report
                    .corrupt
                    .iter()
                    .map(|(key, why)| format!("{key:032x}: {why}"))
                    .collect();
                Err(CliError::new("store", detail.join("; ")))
            }
        }
        "export" => {
            let hex = opts
                .inputs
                .get(2)
                .ok_or_else(|| CliError::new("usage", "export expects a 32-hex-digit key"))?;
            let key = u128::from_str_radix(hex, 16)
                .map_err(|e| CliError::new("usage", format!("bad key {hex:?}: {e}")))?;
            let body = store
                .get(key)
                .ok_or_else(|| CliError::new("store", format!("no entry for key {hex}")))?;
            use std::io::Write as _;
            std::io::stdout()
                .write_all(&body)
                .map_err(|e| CliError::new("io", format!("cannot write artifact: {e}")))?;
            Ok(ExitCode::SUCCESS)
        }
        "import" => {
            let path = opts
                .inputs
                .get(2)
                .ok_or_else(|| CliError::new("usage", "import expects a file path"))?;
            let bytes = std::fs::read(path)
                .map_err(|e| CliError::new("io", format!("cannot read {path}: {e}")))?;
            let mut hasher = ppet_netlist::canonical::Fnv128::new();
            hasher.write_frame(&bytes);
            let key = hasher.finish();
            let result = if opts.pin {
                store.put_pinned(key, &bytes)
            } else {
                store.put(key, &bytes)
            };
            result.map_err(|e| CliError::new("io", format!("cannot store {path}: {e}")))?;
            store
                .flush()
                .map_err(|e| CliError::new("io", format!("flush failed: {e}")))?;
            println!("{key:032x}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(CliError::new(
            "usage",
            format!("unknown store action `{other}` (stats | gc | verify | export | import)"),
        )),
    }
}

/// `merced audit <manifest.json>`: independent re-verification of a
/// recorded run. See the module docs for what is checked.
fn run_audit(opts: &Options, jobs: usize) -> Result<ExitCode, CliError> {
    let path = &opts.inputs[0];
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new("io", format!("cannot read {path}: {e}")))?;
    let recorded = RunManifest::from_json(&text)
        .map_err(|e| CliError::new("manifest", format!("{path}: {e}")))?;

    let circuit = match &opts.bench {
        Some(bench) => load_circuit(bench)?,
        None => resolve_builtin(&recorded.circuit).ok_or_else(|| {
            CliError::new(
                "manifest",
                format!(
                    "circuit {:?} is not a builtin; pass --bench <netlist.bench>",
                    recorded.circuit
                ),
            )
        })?,
    };

    let config = MercedConfig::from_manifest_entries(&recorded.config)
        .map_err(|e| CliError::new("manifest", format!("{path}: {e}")))?
        .with_seed(recorded.seed)
        .with_jobs(jobs);
    let compilation = Merced::new(config)
        .compile_detailed(&circuit)
        .map_err(|e| CliError::new("compile", e.to_string()))?;

    // Three independent layers: the invariant audit of the fresh compile,
    // the recorded-vs-fresh manifest cross-check, and the recorded lag
    // witness re-validated against the netlist.
    let mut audit = compilation.audit(&circuit);
    let fresh = compilation.report.run_manifest();
    audit.merge(ppet_audit::manifest::cross_check(&recorded, &fresh));
    if let Some(witness) = recorded.audit_value("retime.lags") {
        audit.merge(ppet_audit::verify_recorded_witness(&circuit, witness));
    }

    if !opts.quiet {
        println!("{audit}");
    }
    if audit.pass() {
        println!(
            "audit: PASS ({} checks, {})",
            audit.checks.len(),
            recorded.circuit
        );
        Ok(ExitCode::SUCCESS)
    } else {
        let what = audit.first_failure().map_or_else(
            || "unknown check".to_owned(),
            |c| format!("{}: {}", c.code, c.detail),
        );
        Err(CliError::new(
            "audit",
            format!("{}: {what}", recorded.circuit),
        ))
    }
}

/// `merced schedule`: the power-constrained test schedule of a compile —
/// fresh (a netlist or builtin plus compile options) or rebuilt from a
/// recorded run manifest — printed as one `ppet-sched/v1` JSON document.
/// `--pareto` prints the budget-sweep frontier instead.
fn run_schedule(opts: &Options, jobs: usize) -> Result<ExitCode, CliError> {
    let (blocks, power) = if let Some(path) = &opts.manifest {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::new("io", format!("cannot read {path}: {e}")))?;
        let recorded = RunManifest::from_json(&text)
            .map_err(|e| CliError::new("manifest", format!("{path}: {e}")))?;
        let partitions = ppet_core::power_sched::manifest_partitions(&recorded)
            .map_err(|e| CliError::new("manifest", format!("{path}: {e}")))?;
        let config = MercedConfig::from_manifest_entries(&recorded.config)
            .map_err(|e| CliError::new("manifest", format!("{path}: {e}")))?;
        // An explicit --power-budget re-packs the recorded partitions
        // under the new budget; otherwise the recorded budget is rebuilt.
        let budget = opts.power_budget.or(config.power_budget_cdf);
        let blocks = ppet_core::power_sched::partition_blocks(&partitions, config.cost_source);
        let power =
            ppet_core::power_sched::partition_schedule(&partitions, config.cost_source, budget)
                .map_err(|e| CliError::new("compile", e.to_string()))?;
        (blocks, power)
    } else {
        let (_, compilation) = run(opts, jobs, &Tracer::noop())?;
        let report = compilation.report;
        let blocks =
            ppet_core::power_sched::partition_blocks(&report.partitions, report.config.cost_source);
        (blocks, report.power)
    };
    if opts.pareto {
        let points = ppet_sched::pareto_points(
            &blocks,
            opts.pareto_points
                .unwrap_or(ppet_sched::DEFAULT_PARETO_POINTS),
        );
        print!("{}", ppet_sched::pareto_to_json(&points));
    } else {
        if !opts.quiet {
            eprintln!(
                "schedule: {} blocks in {} steps, {} cycles total, peak {} cdf under budget {} cdf",
                power.block_count(),
                power.steps.len(),
                power.total_cycles(),
                power.peak_power_cdf(),
                power.budget_cdf
            );
        }
        print!("{}", power.to_json());
    }
    Ok(ExitCode::SUCCESS)
}

fn emit_instrumented(
    circuit: &Circuit,
    compilation: &Compilation,
    path: &str,
    tracer: &Tracer,
) -> Result<(), CliError> {
    let inst = compilation
        .instrument(circuit, tracer)
        .map_err(|e| CliError::new("compile", e.to_string()))?;
    write_file(std::path::Path::new(path), &writer::to_bench(&inst.circuit))?;
    let bits = inst.cbits.iter().flatten().count();
    let converted = inst.cbits.iter().flatten().filter(|b| b.converted).count();
    let mux = bits - converted;
    // Under the scc policy the manifest prices the paper's per-SCC
    // aggregate, which need not be the mix built: then print both.
    let priced = &compilation.report.area.with_retiming;
    let (p_converted, p_mux) = (priced.converted_bits, priced.mux_bits);
    let note = if (p_converted, p_mux) == (converted, mux) {
        String::new()
    } else {
        format!("; the manifest prices {p_converted} converted, {p_mux} multiplexed")
    };
    let cells = inst.circuit.num_cells();
    eprintln!(
        "wrote {path} ({cells} cells, {bits} CBIT bits: {converted} converted, {mux} multiplexed{note})"
    );
    Ok(())
}

fn run_single(
    opts: &Options,
    jobs: usize,
    tracer: &Tracer,
    sink: Option<&ppet_trace::CollectingSink>,
) -> Result<ExitCode, CliError> {
    let (circuit, compilation) = run(opts, jobs, tracer)?;
    if opts.quiet {
        println!("{}", PpetReport::table10_header());
        println!("{}", compilation.report.table10_row());
    } else {
        println!("{}", compilation.report);
    }
    let audit = opts.audit.then(|| compilation.audit(&circuit));
    if let Some(path) = &opts.emit {
        emit_instrumented(&circuit, &compilation, path, tracer)?;
    }
    if let Some(sink) = sink {
        eprint!("{}", sink.report().tree_string());
    }
    if let Some(path) = &opts.trace_json {
        let mut manifest = compilation.report.run_manifest();
        if let Some(audit) = &audit {
            attach_audit(&mut manifest, audit);
        }
        write_file(std::path::Path::new(path), &manifest.to_json())?;
    }
    if let Some(audit) = &audit {
        if !opts.quiet {
            println!("{audit}");
        }
        if !audit.pass() {
            let what = audit.first_failure().map_or_else(
                || "unknown check".to_owned(),
                |c| format!("{}: {}", c.code, c.detail),
            );
            return Err(CliError::new(
                "audit",
                format!("{}: {what}", compilation.report.circuit.name),
            ));
        }
        println!("audit: PASS ({} checks)", audit.checks.len());
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(depth) = opts.delta_depth.filter(|&d| d > MAX_DELTA_DEPTH) {
        return CliError::new(
            "usage",
            format!("--delta-depth: {depth} exceeds the maximum chain depth {MAX_DELTA_DEPTH}"),
        )
        .emit();
    }
    // --jobs wins; otherwise PPET_JOBS; otherwise 1. Capped at the
    // available cores — results are identical at any worker count.
    let jobs = match ppet_exec::resolve_jobs(opts.jobs) {
        Ok(n) => n,
        Err(e) => {
            return CliError::new("usage", format!("--jobs: {e}")).emit();
        }
    };
    if opts.trace {
        eprintln!(
            "jobs: {jobs} worker(s) effective ({} available)",
            ppet_exec::available_workers()
        );
    }
    let outcome = match opts.mode {
        Mode::Batch => run_batch(&opts, jobs),
        Mode::Audit => run_audit(&opts, jobs),
        Mode::Schedule => run_schedule(&opts, jobs),
        Mode::Serve => run_serve(&opts, jobs),
        Mode::Cluster => run_cluster(&opts, jobs),
        Mode::Store => run_store(&opts),
        Mode::Stat => run_stat(&opts),
        Mode::Single => {
            let (tracer, sink) = if opts.trace {
                let (tracer, sink) = Tracer::collecting();
                (tracer, Some(sink))
            } else {
                (Tracer::noop(), None)
            };
            run_single(&opts, jobs, &tracer, sink.as_deref())
        }
    };
    match outcome {
        Ok(code) => code,
        Err(e) => e.emit(),
    }
}
