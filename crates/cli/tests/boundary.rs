//! Boundary validation through [`spindown_cli::run`], the library entry
//! point the binary wraps: input the simulator cannot honour (bad flag
//! values, an out-of-order trace) must come back as an `error:` line and
//! exit code 2, never as a panic or a silently wrong report.

use std::path::PathBuf;

/// Runs the CLI in-process and returns `(exit code, output)`.
fn run(args: &[&str]) -> (i32, String) {
    let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let mut out = Vec::new();
    let code = spindown_cli::run(&argv, &mut out);
    (code, String::from_utf8(out).expect("utf-8 report"))
}

/// Writes `text` to a fresh SPC file named `name` under the temp dir.
fn spc_file(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spindown-boundary-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write trace");
    path
}

fn assert_usage_error(args: &[&str], flag: &str) {
    let (code, text) = run(args);
    assert_eq!(code, 2, "{args:?}: {text}");
    assert!(
        text.starts_with(&format!("error: missing or invalid value for {flag}")),
        "{args:?}: {text}"
    );
}

#[test]
fn zero_disks_is_a_usage_error() {
    assert_usage_error(&["simulate", "--disks", "0"], "--disks");
}

#[test]
fn zero_rate_is_a_usage_error() {
    assert_usage_error(&["simulate", "--rate", "0"], "--rate");
}

#[test]
fn replication_above_disk_count_is_a_usage_error() {
    assert_usage_error(
        &["simulate", "--replication", "5", "--disks", "2"],
        "--replication",
    );
}

#[test]
fn out_of_order_trace_exits_two_in_every_replaying_command() {
    let unsorted = spc_file(
        "unsorted.spc",
        "0,1,512,r,100.0\n0,2,512,r,5.0\n0,3,512,r,50.0\n",
    );
    let path = unsorted.to_str().expect("utf-8 path");
    let expected =
        "error: unsorted trace: record 1 at 5.000000 s is earlier than the record before \
         it at 100.000000 s";
    for args in [
        vec!["simulate", "--trace", path, "--disks", "4"],
        vec!["simulate", "--trace", path, "--disks", "4", "--jobs", "2"],
        vec![
            "simulate",
            "--trace",
            path,
            "--disks",
            "4",
            "--scheduler",
            "mwis",
        ],
        vec!["compare", "--trace", path, "--disks", "4"],
        vec!["replan", "--trace", path, "--disks", "4"],
    ] {
        let (code, text) = run(&args);
        assert_eq!(code, 2, "{args:?}: {text}");
        assert!(text.starts_with(expected), "{args:?}: {text}");
    }

    // The same records in time order replay over their true 95 s span.
    let sorted = spc_file(
        "sorted.spc",
        "0,2,512,r,5.0\n0,3,512,r,50.0\n0,1,512,r,100.0\n",
    );
    let (code, text) = run(&[
        "simulate",
        "--trace",
        sorted.to_str().unwrap(),
        "--disks",
        "4",
    ]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("workload : 3 reads over 95 s"), "{text}");
    std::fs::remove_file(&unsorted).ok();
    std::fs::remove_file(sorted).ok();
    if let Some(dir) = unsorted.parent() {
        std::fs::remove_dir(dir).ok();
    }
}
