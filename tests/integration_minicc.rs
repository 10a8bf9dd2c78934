//! The `minicc` driver end to end, through the built binary: programs whose
//! run traps must end in an error message and a nonzero exit status in
//! every mode, never in an empty result or a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Write `source` to a fresh temporary `.ml` file named after `tag`.
fn source_file(tag: &str, source: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("minicc_{tag}_{}.ml", std::process::id()));
    std::fs::write(&path, source).expect("write temporary source");
    path
}

fn minicc(file: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_minicc"))
        .arg(file)
        .args(args)
        .output()
        .expect("spawn minicc")
}

const TRAPPING: &str = "fn main() -> int { print_i(1/0); return 0; }";

#[test]
fn trapping_golden_run_is_an_error_in_every_mode() {
    let file = source_file("trap", TRAPPING);
    let modes: [&[&str]; 3] = [
        &["--run"],
        &["--fi", "-fi=true", "--profile"],
        &["--fi", "-fi=true", "--inject", "1"],
    ];
    for args in modes {
        let out = minicc(&file, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(101), "{args:?}: {stderr}");
        assert!(
            stderr.contains("did not exit cleanly: Trap(DivFault)"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: nothing is printed as a result"
        );
    }
    std::fs::remove_file(file).ok();
}

#[test]
fn clean_golden_run_profiles_and_injects() {
    let file = source_file("clean", "fn main() -> int { print_i(6 * 7); return 0; }");
    let fi = ["--fi", "-fi=true -fi-funcs=*"];
    let cases: [(&[&str], &str); 2] = [
        (&["--profile"], "golden output      :\n  42\n"),
        (&["--inject", "1"], "outcome: "),
    ];
    for (mode, expect) in cases {
        let out = minicc(&file, &[&fi[..], mode].concat());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{mode:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(stdout.contains(expect), "{mode:?}: {stdout}");
    }
    std::fs::remove_file(file).ok();
}
