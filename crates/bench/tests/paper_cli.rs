//! The `paper` driver end to end: its Figure 4 section writes the tables
//! EXPERIMENTS.md records, cell for cell, and a bad command line is one
//! `error:` line, exit code 2, and no CSV.

use std::path::Path;
use std::process::{Command, Output};
use testutil::TmpDir;

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("spawn paper")
}

fn csv(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// EXPERIMENTS.md's Figure 4a, 4b and per-tag tables (`paper --section
/// fig4`: n = 2 000, k = 10, 16 ranks, seed 9). The counts are a function
/// of those inputs, so a change that moves one digit moves the figure.
#[test]
fn figure_4_is_pinned_digit_for_digit() {
    let dir = TmpDir::new("paper-fig4");
    let out = paper(&["--section", "fig4", "--out", dir.path().to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        csv(dir.path(), "fig4a_messages.csv"),
        "Dataset,Unoptimized,Optimized,Optimized/Unoptimized\n\
         DEEP-like (96d f32),1278389,670876,52.5%\n\
         BigANN-like (128d u8),1273858,669919,52.6%\n"
    );
    assert_eq!(
        csv(dir.path(), "fig4b_volume.csv"),
        "Dataset,Unoptimized,Optimized,Optimized/Unoptimized\n\
         DEEP-like (96d f32),442318538,207882840,47.0%\n\
         BigANN-like (128d u8),168859640,82219118,48.7%\n"
    );
    assert_eq!(
        csv(dir.path(), "fig4_tags.csv"),
        "Dataset,Protocol,Tag,Messages,Bytes\n\
         DEEP-like (96d f32),unoptimized,Type 1,212684,8441352\n\
         DEEP-like (96d f32),unoptimized,Type 2,1065705,433877186\n\
         DEEP-like (96d f32),optimized,Type 1,84366,3916052\n\
         DEEP-like (96d f32),optimized,Type 2+,490583,201737034\n\
         DEEP-like (96d f32),optimized,Type 3,95927,2229754\n\
         BigANN-like (128d u8),unoptimized,Type 1,212111,8407066\n\
         BigANN-like (128d u8),unoptimized,Type 2,1061747,160452574\n\
         BigANN-like (128d u8),optimized,Type 1,84183,3905482\n\
         BigANN-like (128d u8),optimized,Type 2+,490278,76094824\n\
         BigANN-like (128d u8),optimized,Type 3,95458,2218812\n"
    );
}

#[test]
fn a_bad_command_line_exits_2_and_writes_nothing() {
    let dir = TmpDir::new("paper-usage");
    let out_dir = dir.join("results");
    let out_dir = out_dir.to_str().unwrap();
    let report = dir.join("r.json");
    for args in [
        vec!["--section", "fig5"],
        vec!["--sectoin", "fig4"],
        vec![
            "--section",
            "fig4",
            "--report-out",
            report.to_str().unwrap(),
        ],
        vec!["--n", "2k"],
        vec!["--n", "30"],
    ] {
        let out = paper(&[&args[..], &["--out", out_dir]].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error: ") && stderr.lines().count() == 1,
            "{args:?}: {stderr}"
        );
        assert!(!Path::new(out_dir).exists(), "{args:?} wrote {out_dir}");
        assert!(!report.exists(), "{args:?} wrote {}", report.display());
    }
}
