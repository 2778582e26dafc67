//! The `experiments` binary rejects malformed arguments with a usage
//! line on stderr and exit code 2, never a panic.

use std::process::Command;

#[test]
fn bad_arguments_are_usage_errors() {
    let cases: [&[&str]; 4] = [
        &["--seed", "notanumber"],
        &["--seed"],
        &["--engine", "bogus"],
        &["--engine"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("spawn experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{args:?}: {stderr}");
    }
}
