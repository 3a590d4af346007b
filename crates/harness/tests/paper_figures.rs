//! `paper_figures`' stdout, byte for byte.
//!
//! Every artifact the reproduction claims is printed by one binary, and
//! its full stdout is committed beside this file. CI diffs a release run
//! against it; this test runs the binary of the build under test (debug
//! under `cargo test`: 11–15 s on a 2-vCPU Xeon VM) and requires the same
//! bytes, so a moved figure fails `cargo test` too. Regenerate the file
//! only when a figure moves on purpose.

use std::process::Command;

#[test]
fn paper_figures_prints_the_committed_stdout() {
    let run = Command::new(env!("CARGO_BIN_EXE_paper_figures"))
        .output()
        .expect("paper_figures runs");
    assert!(
        run.status.success(),
        "paper_figures exited {}:\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    let expected = include_str!("paper_figures.stdout");
    let actual = String::from_utf8(run.stdout).expect("stdout is UTF-8");
    if actual != expected {
        let shorter = expected.lines().count().min(actual.lines().count());
        let n = (expected.lines().zip(actual.lines()))
            .position(|(e, a)| e != a)
            .unwrap_or(shorter);
        let line = |s: &str| s.lines().nth(n).unwrap_or("<end>").to_owned();
        panic!(
            "stdout differs from paper_figures.stdout at line {}:\n  committed: {}\n  printed:   {}",
            n + 1,
            line(expected),
            line(&actual)
        );
    }
}
