//! The perf-gate kernels' shared harness: median timing, the floor JSON,
//! and the `--gate` / `--bless` command line behind
//! `scripts/perf_gate.sh`.
//!
//! A kernel times an optimized engine and the retained reference it must
//! match on a few fixed circuits, one [`Timing`] each. The two engines
//! run in interleaved pairs (optimized, reference, optimized, …; see
//! [`time_pairs`]), so a drift in machine speed lands on both alike.
//! Its floor file (schema `ppet-bench-<kernel>/v1`) records both medians
//! and their ratio; `--gate` compares a fresh optimized median against
//! the recorded `optimized_ns` only, and prints the median per-pair
//! `reference / optimized` ratio beside each verdict as information —
//! the reference column is documentation. The deterministic work a
//! kernel does is pinned exactly elsewhere (the golden corpus records the
//! `flow.*` counters of s510 and s641), so a timing gate never has to
//! catch an algorithmic regression alone.
//! `--bless` records, per circuit, the median over [`BLESS_RUNS`] whole
//! runs, so one fast run on a noisy machine cannot set a floor that the
//! next gate run fails.

use std::time::Instant;

use ppet_trace::json;

/// Timed pairs (one repetition of each engine); medians are reported.
pub const REPS: usize = 5;

/// Whole runs `--bless` takes the per-circuit median over.
pub const BLESS_RUNS: usize = 5;

/// A fresh run may be this much slower than the recorded floor before the
/// gate fails — wide enough for machine noise, tight enough to catch a
/// real regression.
pub const TOLERANCE: f64 = 1.3;

/// One circuit's result.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Circuit name (the floor's key).
    pub circuit: &'static str,
    /// Kernel-specific workload facts, rendered in order after `circuit`.
    pub facts: Vec<(&'static str, u64)>,
    /// Median wall time of the retained reference, ns.
    pub reference_ns: u64,
    /// Median wall time of the production engine, ns.
    pub optimized_ns: u64,
    /// Median over the timed pairs of `reference / optimized`.
    pub pair_ratio: f64,
}

/// Times `optimized` and `reference` in [`REPS`] pairs, alternating
/// (optimized, reference, optimized, reference, …), and returns
/// `circuit`'s row: each engine's median wall time and the median
/// per-pair ratio.
pub fn time_pairs(
    circuit: &'static str,
    facts: Vec<(&'static str, u64)>,
    mut optimized: impl FnMut(),
    mut reference: impl FnMut(),
) -> Timing {
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    };
    let pairs: Vec<(u64, u64)> = (0..REPS)
        .map(|_| (time(&mut optimized), time(&mut reference)))
        .collect();
    let median_of = |mut v: Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let mut ratios: Vec<f64> = pairs
        .iter()
        .map(|&(o, r)| r as f64 / o.max(1) as f64)
        .collect();
    ratios.sort_unstable_by(f64::total_cmp);
    Timing {
        circuit,
        facts,
        optimized_ns: median_of(pairs.iter().map(|p| p.0).collect()),
        reference_ns: median_of(pairs.iter().map(|p| p.1).collect()),
        pair_ratio: ratios[ratios.len() / 2],
    }
}

/// Per circuit, the median of each column over `runs`. The runs must
/// list the same circuits with the same facts (kernels are
/// deterministic; only their timings vary).
fn median_rows(runs: &[Vec<Timing>]) -> Vec<Timing> {
    let first = &runs[0];
    for run in runs {
        assert_eq!(run.len(), first.len(), "runs differ in circuits");
        for (a, b) in run.iter().zip(first) {
            assert_eq!((a.circuit, &a.facts), (b.circuit, &b.facts));
        }
    }
    let median = |mut v: Vec<u64>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    first
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let mut ratios: Vec<f64> = runs.iter().map(|r| r[i].pair_ratio).collect();
            ratios.sort_unstable_by(f64::total_cmp);
            Timing {
                reference_ns: median(runs.iter().map(|r| r[i].reference_ns).collect()),
                optimized_ns: median(runs.iter().map(|r| r[i].optimized_ns).collect()),
                pair_ratio: ratios[ratios.len() / 2],
                ..row.clone()
            }
        })
        .collect()
}

fn render(kernel: &str, seed: u64, rows: &[Timing]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"ppet-bench-{kernel}/v1\",\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"reps\": {REPS},\n"));
    out.push_str(&format!("  \"tolerance\": {TOLERANCE},\n"));
    out.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let facts: String = r
            .facts
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}, "))
            .collect();
        out.push_str(&format!(
            "    {{\"circuit\": \"{}\", {facts}\"reference_ns\": {}, \"optimized_ns\": {}, \
             \"speedup\": {:.3}}}{}\n",
            r.circuit,
            r.reference_ns,
            r.optimized_ns,
            r.reference_ns as f64 / r.optimized_ns.max(1) as f64,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reads a recorded floor: circuit name → optimized median ns.
fn read_floor(kernel: &str, path: &str) -> Vec<(String, u64)> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read floor {path}: {e}"));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("floor {path} is not JSON: {e}"));
    let schema = doc.get("schema").and_then(json::Value::as_str);
    let expected = format!("ppet-bench-{kernel}/v1");
    assert_eq!(
        schema,
        Some(expected.as_str()),
        "floor {path}: unexpected schema {schema:?}"
    );
    doc.get("runs")
        .and_then(json::Value::as_arr)
        .unwrap_or_else(|| panic!("floor {path}: missing runs array"))
        .iter()
        .map(|run| {
            let circuit = run
                .get("circuit")
                .and_then(json::Value::as_str)
                .expect("run.circuit")
                .to_string();
            let ns = run
                .get("optimized_ns")
                .and_then(json::Value::as_u64)
                .expect("run.optimized_ns");
            (circuit, ns)
        })
        .collect()
}

/// Fails (exit 1) if any fresh optimized median exceeds [`TOLERANCE`]×
/// its recorded floor, or a circuit has no floor. Each verdict also
/// prints the median per-pair `reference / optimized` ratio, which does
/// not decide it.
fn gate(kernel: &str, path: &str, rows: &[Timing]) {
    let floor = read_floor(kernel, path);
    let mut failed = false;
    for row in rows {
        let Some((_, floor_ns)) = floor.iter().find(|(c, _)| c == row.circuit) else {
            eprintln!(
                "GATE {}: no recorded floor — run --bless first",
                row.circuit
            );
            failed = true;
            continue;
        };
        let limit = (*floor_ns as f64 * TOLERANCE) as u64;
        let ratio = format!("reference/optimized {:.2}x per pair", row.pair_ratio);
        if row.optimized_ns > limit {
            eprintln!(
                "GATE {}: FAIL — median {} ns exceeds {:.1}x floor {} ns (limit {} ns); {ratio}",
                row.circuit, row.optimized_ns, TOLERANCE, floor_ns, limit
            );
            failed = true;
        } else {
            eprintln!(
                "GATE {}: ok — median {} ns within {:.1}x floor {} ns; {ratio}",
                row.circuit, row.optimized_ns, TOLERANCE, floor_ns
            );
        }
    }
    if failed {
        eprintln!("perf gate FAILED (bless with: {kernel} --bless {path})");
        std::process::exit(1);
    }
    eprintln!("perf gate passed");
}

/// The kernel command line:
///
/// ```text
/// <kernel> [out.json]          run and write results (default BENCH_<kernel>.json)
/// <kernel> --bless FLOOR.json  run BLESS_RUNS times and (re)write the
///                              checked-in floor from the medians
/// <kernel> --gate FLOOR.json   run and fail if an optimized median is more
///                              than TOLERANCE× slower than the floor
/// ```
///
/// `measure` must check the optimized engine against the reference before
/// it times either.
pub fn main(kernel: &str, seed: u64, measure: impl Fn() -> Vec<Timing>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--gate") => {
            let path = args.get(1).expect("--gate needs the floor path");
            gate(kernel, path, &measure());
        }
        Some("--bless") => {
            let path = args.get(1).expect("--bless needs the floor path");
            let runs: Vec<Vec<Timing>> = (0..BLESS_RUNS).map(|_| measure()).collect();
            let rows = median_rows(&runs);
            std::fs::write(path, render(kernel, seed, &rows)).expect("write floor");
            println!("blessed {path}");
        }
        Some(flag) if flag.starts_with("--") => {
            eprintln!(
                "unknown flag {flag}; usage: {kernel} [--gate|--bless FLOOR.json] [out.json]"
            );
            std::process::exit(2);
        }
        path => {
            let default = format!("BENCH_{kernel}.json");
            let path = path.unwrap_or(&default);
            std::fs::write(path, render(kernel, seed, &measure())).expect("write results");
            println!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_floor_reads_back() {
        let rows = [Timing {
            circuit: "s641",
            facts: vec![("cuts", 72), ("iterations", 17)],
            reference_ns: 300,
            optimized_ns: 100,
            pair_ratio: 3.0,
        }];
        let text = render("retime", 1996, &rows);
        assert!(text.contains(
            "{\"circuit\": \"s641\", \"cuts\": 72, \"iterations\": 17, \
             \"reference_ns\": 300, \"optimized_ns\": 100, \"speedup\": 3.000}"
        ));
        let dir = std::env::temp_dir().join(format!("ppet-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("floor.json");
        std::fs::write(&path, text).unwrap();
        let floor = read_floor("retime", path.to_str().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(floor, vec![("s641".to_string(), 100)]);
    }

    #[test]
    fn bless_takes_each_column_median_over_runs() {
        let run = |reference_ns, optimized_ns| {
            vec![Timing {
                circuit: "s510",
                facts: vec![("trees", 8)],
                reference_ns,
                optimized_ns,
                pair_ratio: reference_ns as f64 / optimized_ns as f64,
            }]
        };
        // One fast outlier run does not set the floor.
        let runs = [
            run(90, 35),
            run(95, 20),
            run(93, 38),
            run(99, 36),
            run(91, 40),
        ];
        let rows = median_rows(&runs);
        assert_eq!(rows.len(), 1);
        assert_eq!((rows[0].reference_ns, rows[0].optimized_ns), (93, 36));
        // The pair ratio is the median of the runs' own ratios.
        assert_eq!(rows[0].pair_ratio, 90.0 / 35.0);
        assert_eq!(rows[0].facts, vec![("trees", 8)]);
    }
}
