//! `merced --emit`: the written netlist is a valid `.bench` carrying the
//! two mode pins, and the CBIT mix `merced` reports for it on stderr is
//! the mix the run manifest prices — or, under the scc policy, the line
//! says both when they differ.

use std::path::PathBuf;
use std::process::{Command, Output};

use ppet_netlist::{bench_format, CellKind};
use ppet_trace::RunManifest;

fn merced(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_merced"))
        .args(args)
        .output()
        .expect("merced runs")
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ppet-emit-{}-{name}", std::process::id()));
    p
}

/// Runs `merced --builtin <name> <flags> --emit … --trace-json …` and
/// returns the emitted netlist text, the manifest, and stderr.
fn emit(name: &str, flags: &[&str]) -> (String, RunManifest, String) {
    let bench = tmp_path(&format!("{name}.bench"));
    let json = tmp_path(&format!("{name}.json"));
    let mut args = vec!["--builtin", name, "--quiet"];
    args.extend_from_slice(flags);
    args.extend([
        "--emit",
        bench.to_str().unwrap(),
        "--trace-json",
        json.to_str().unwrap(),
    ]);
    let out = merced(&args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "stderr: {stderr}");
    let text = std::fs::read_to_string(&bench).expect("netlist written");
    let manifest = RunManifest::from_json(&std::fs::read_to_string(&json).expect("manifest"))
        .expect("manifest parses");
    std::fs::remove_file(&bench).ok();
    std::fs::remove_file(&json).ok();
    (text, manifest, stderr)
}

/// The number right before `word` in `line` (`… 56 converted, …`).
fn count_before(line: &str, word: &str) -> usize {
    let head = &line[..line
        .find(word)
        .unwrap_or_else(|| panic!("{word} in {line:?}"))];
    head.trim_end()
        .rsplit([' ', '('])
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("count before {word} in {line:?}"))
}

fn manifest_mix(manifest: &RunManifest) -> (usize, usize) {
    let get = |key| {
        manifest
            .result_value(key)
            .unwrap_or_else(|| panic!("manifest has {key}"))
            .parse()
            .expect("count")
    };
    (get("with.converted_bits"), get("with.mux_bits"))
}

#[test]
fn emitted_netlist_reparses_with_mode_pins_and_the_priced_mix() {
    let (text, manifest, stderr) = emit("s641", &["--lk", "16", "--policy", "solver"]);
    let circuit = bench_format::parse("s641_ppet", &text).expect("emitted .bench re-parses");
    for pin in ["ppet_b1", "ppet_b2"] {
        let cell = circuit.find(pin).unwrap_or_else(|| panic!("{pin} present"));
        assert_eq!(circuit.cell(cell).kind(), CellKind::Input, "{pin}");
    }
    let line = stderr
        .lines()
        .find(|l| l.starts_with("wrote "))
        .unwrap_or_else(|| panic!("no `wrote` line in {stderr}"));
    let built = (
        count_before(line, "converted"),
        count_before(line, "multiplexed"),
    );
    assert_eq!(built, manifest_mix(&manifest), "{line}");
    assert!(!line.contains("manifest prices"), "{line}");
}

#[test]
fn scc_policy_emit_names_the_priced_mix_when_it_differs() {
    // s510 at l_k = 16: the per-SCC rule prices 28 converted / 6 mux bits;
    // the realized hardware differs.
    let (_, manifest, stderr) = emit("s510", &["--lk", "16"]);
    let line = stderr
        .lines()
        .find(|l| l.starts_with("wrote "))
        .unwrap_or_else(|| panic!("no `wrote` line in {stderr}"));
    let (converted, mux) = manifest_mix(&manifest);
    let note = format!("the manifest prices {converted} converted, {mux} multiplexed");
    assert!(line.contains(&note), "{line}");
}
