//! Phase-level profiling probe: runs the traced Merced pipeline on one
//! Table 9 circuit, prints the span tree (durations, counters, histograms)
//! to stderr, and optionally writes the JSON run manifest.
//!
//! Where `/proc/self/status` exists (Linux), it also prints the process's
//! peak resident set (`VmHWM`) after the compile, and how much the compile
//! raised it over the peak before it started.
//!
//! ```text
//! profile_probe [circuit] [--lk N] [--json out.json]
//! ```

use ppet_bench::{build_circuit, harness_flow};
use ppet_core::{Merced, MercedConfig, PpetReport};
use ppet_netlist::data::table9;
use ppet_trace::Tracer;

fn main() {
    let mut name = "s13207.1".to_string();
    let mut lk = 16usize;
    let mut json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--lk" => {
                lk = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--lk expects a number")
            }
            "--json" => json = Some(args.next().expect("--json expects a path")),
            other => name = other.to_string(),
        }
    }
    let record = table9::find(&name).expect("known Table 9 circuit");
    let circuit = build_circuit(record);

    let hwm_before = vm_hwm_kb();
    let (tracer, sink) = Tracer::collecting();
    let config = MercedConfig::default()
        .with_cbit_length(lk)
        .with_flow(harness_flow(circuit.num_cells()));
    let report = Merced::new(config)
        .compile_detailed_traced(&circuit, &tracer)
        .expect("circuit compiles")
        .report;

    let hwm_after = vm_hwm_kb();

    eprint!("{}", sink.report().tree_string());
    if let (Some(before), Some(after)) = (hwm_before, hwm_after) {
        eprintln!(
            "VmHWM: {after} kB after the compile (+{} kB during it)",
            after - before
        );
    }
    println!("{}", PpetReport::table10_header());
    println!("{}", report.table10_row());

    if let Some(path) = json {
        std::fs::write(&path, report.run_manifest().to_json()).expect("manifest is writable");
        eprintln!("wrote {path}");
    }
}

/// The process's peak resident set in kB, from `/proc/self/status`.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
