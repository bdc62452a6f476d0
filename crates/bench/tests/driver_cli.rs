//! The bench drivers refuse a flag outside its parameter's domain the way
//! the `dnnd-*` executables do: one `error:` line naming the broken
//! invariant, exit code 2, and no output written — never a panic.

use std::process::Command;
use testutil::TmpDir;

#[test]
fn out_of_domain_flags_exit_2_on_every_driver() {
    let rnn = env!("CARGO_BIN_EXE_rnn");
    let serve = env!("CARGO_BIN_EXE_serve");
    let simtest = env!("CARGO_BIN_EXE_simtest");
    let dist_query = env!("CARGO_BIN_EXE_dist_query");
    // (driver, arguments, the one line stderr must hold)
    let cases = [
        (rnn, "--smoke --t1 0", "error: t1 must be >= 1 (got 0)"),
        (rnn, "--smoke --k0 0", "error: k0 must be >= 1 (got 0)"),
        (
            rnn,
            "--smoke --l 0",
            "error: l (results per query) must be >= 1",
        ),
        (
            rnn,
            "--smoke --l 601",
            "error: l must be at most the dataset size 600 (got 601)",
        ),
        (
            rnn,
            "--smoke --m 0.5",
            "error: m must be at least 1 (got 0.5)",
        ),
        (
            rnn,
            "--smoke --ranks 0",
            "error: --ranks must be at least 1 (got 0)",
        ),
        (
            rnn,
            "--smoke --pool 0",
            "error: --pool must be at least 1 (got 0)",
        ),
        (
            serve,
            "--smoke --arrivals 0",
            "error: n_arrivals must be >= 1",
        ),
        (
            serve,
            "--smoke --k 0",
            "error: k must be >= 1 and below the dataset size 500 (got 0)",
        ),
        (
            serve,
            "--smoke --flash yes",
            "error: --flash takes no value (got \"yes\")",
        ),
        (
            serve,
            "--smoke --ranks 0",
            "error: --ranks must be at least 1 (got 0)",
        ),
        (
            serve,
            "--smoke --pool 0",
            "error: --pool must be at least 1 (got 0)",
        ),
        (
            simtest,
            "--k 0",
            "error: k must be >= 1 and below the dataset size 400 (got 0)",
        ),
        (
            simtest,
            "--profile bogus",
            "error: unknown --profile \"bogus\" (clean|lossy|stormy|all)",
        ),
        (
            simtest,
            "--protocol bogus",
            "error: unknown --protocol \"bogus\" (optimized|unoptimized|both)",
        ),
        (
            simtest,
            "--opt-mode bogus",
            "error: unknown --opt-mode \"bogus\" (default|rnn|both)",
        ),
        (
            simtest,
            "--ranks 0",
            "error: --ranks must be at least 1 (got 0)",
        ),
        (
            dist_query,
            "--k 0",
            "error: k must be >= 1 and below the dataset size 1500 (got 0)",
        ),
        (
            dist_query,
            "--queries 0",
            "error: --queries must be at least 1 (got 0)",
        ),
    ];
    let dir = TmpDir::new("driver-cli");
    let out_dir = dir.join("out");
    for (bin, args, want) in cases {
        let out = Command::new(bin)
            .args(args.split(' '))
            .arg("--out")
            .arg(&out_dir)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{bin} {args}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.trim_end(), want, "{bin} {args}");
        assert!(
            !out_dir.exists(),
            "{bin} {args} wrote {}",
            out_dir.display()
        );
    }
}
