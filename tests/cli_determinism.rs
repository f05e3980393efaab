//! A seeded `sor` run prints the same stdout in every process, whatever
//! the per-process hash seeds are.

use std::process::Command;

#[test]
fn seeded_smallworld_eval_prints_the_same_stdout_every_run() {
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_sor"))
            .args([
                "eval",
                "--graph",
                "smallworld:12x4",
                "--seed",
                "5",
                "--quiet",
            ])
            .output()
            .expect("run sor");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let first = run();
    assert!(!first.is_empty());
    for _ in 0..2 {
        assert_eq!(
            String::from_utf8_lossy(&run()),
            String::from_utf8_lossy(&first)
        );
    }
}
