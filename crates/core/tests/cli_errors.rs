//! The `merced` binary's failure contract: every non-usage failure exits
//! non-zero and prints exactly one structured JSON line
//! (`ppet-error/v1`) on stderr with a named `kind`, so CI wrappers and
//! the golden-corpus gate can classify failures without scraping prose.

use std::path::PathBuf;
use std::process::{Command, Output};

fn merced(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_merced"))
        .args(args)
        .output()
        .expect("merced runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ppet-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn successful_audited_compile_exits_zero() {
    let out = merced(&["--builtin", "s27", "--lk", "4", "--audit", "--quiet"]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("audit: PASS"),
        "stdout announces the audit verdict"
    );
}

#[test]
fn malformed_bench_is_a_structured_parse_error() {
    let bench = tmp_path("bad.bench");
    std::fs::write(&bench, "INPUT(A)\nB = FROB(A)\n").unwrap();
    let out = merced(&[bench.to_str().unwrap(), "--lk", "4", "--quiet"]);
    std::fs::remove_file(&bench).ok();

    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains(r#""schema":"ppet-error/v1""#), "stderr: {err}");
    assert!(err.contains(r#""kind":"parse""#), "stderr: {err}");
}

#[test]
fn missing_input_file_is_a_structured_io_error() {
    let out = merced(&["/nonexistent/ppet-no-such-file.bench", "--quiet"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains(r#""schema":"ppet-error/v1""#), "stderr: {err}");
    assert!(err.contains(r#""kind":"io""#), "stderr: {err}");
}

#[test]
fn corrupted_manifest_audit_is_a_structured_audit_error() {
    // Record a passing manifest, then corrupt one result claim the way a
    // regressed compiler (or a hand-edited golden file) would.
    let manifest = tmp_path("s27.json");
    let out = merced(&[
        "--builtin",
        "s27",
        "--lk",
        "4",
        "--audit",
        "--quiet",
        "--trace-json",
        manifest.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));

    let recorded = std::fs::read_to_string(&manifest).unwrap();
    let corrupted = recorded.replace(r#""nets_cut": "1""#, r#""nets_cut": "99""#);
    assert_ne!(recorded, corrupted, "corruption target present");
    std::fs::write(&manifest, corrupted).unwrap();

    let out = merced(&["audit", manifest.to_str().unwrap(), "--quiet"]);
    std::fs::remove_file(&manifest).ok();

    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains(r#""schema":"ppet-error/v1""#), "stderr: {err}");
    assert!(err.contains(r#""kind":"audit""#), "stderr: {err}");
    assert!(err.contains("manifest-mismatch"), "named code: {err}");
}

#[test]
fn intact_manifest_audit_exits_zero() {
    let manifest = tmp_path("intact.json");
    let out = merced(&[
        "--builtin",
        "counter8",
        "--lk",
        "4",
        "--audit",
        "--quiet",
        "--trace-json",
        manifest.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));

    let out = merced(&["audit", manifest.to_str().unwrap(), "--quiet"]);
    std::fs::remove_file(&manifest).ok();
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("audit: PASS"),
        "stdout announces the verdict"
    );
}

#[test]
fn unknown_builtin_is_a_structured_usage_error() {
    let out = merced(&["--builtin", "no-such-circuit", "--lk", "4", "--quiet"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains(r#""schema":"ppet-error/v1""#), "stderr: {err}");
    assert!(err.contains(r#""kind":"usage""#), "stderr: {err}");
}

#[test]
fn error_line_is_escaped_json_byte_for_byte() {
    let out = merced(&["--builtin", "a\"b\\c\td", "--quiet"]);
    assert!(!out.status.success());
    assert_eq!(
        stderr_of(&out),
        "{\"schema\":\"ppet-error/v1\",\"kind\":\"usage\",\
         \"message\":\"unknown builtin circuit `a\\\"b\\\\c\\td`\"}\n"
    );
}

/// The store reads back chains of at most 16 delta hops, so a deeper
/// `--delta-depth` is refused before the store is opened.
#[test]
fn delta_depth_beyond_the_read_ceiling_is_a_usage_error() {
    let dir = tmp_path("deep-store");
    let dir_arg = dir.to_str().unwrap();
    let out = merced(&["store", dir_arg, "stats", "--delta-depth", "17"]);
    let opened = dir.exists();
    std::fs::remove_dir_all(&dir).ok();
    assert!(!out.status.success());
    assert_eq!(
        stderr_of(&out),
        "{\"schema\":\"ppet-error/v1\",\"kind\":\"usage\",\
         \"message\":\"--delta-depth: 17 exceeds the maximum chain depth 16\"}\n"
    );
    assert!(!opened, "the store must not be opened");

    let out = merced(&["store", dir_arg, "stats", "--delta-depth", "16"]);
    std::fs::remove_dir_all(&dir).ok();
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
}
