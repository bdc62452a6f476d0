//! Integration test of the command-line artifact: run the real
//! `dnnd-construct` → `dnnd-optimize` → `dnnd-query` binaries end to end,
//! including file-based dataset input, exactly as a user would.

use std::process::Command;

use testutil::TmpDir;

fn tmpdir(tag: &str) -> TmpDir {
    TmpDir::new(tag)
}

fn run_ok(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn preset_pipeline_runs_and_reports_recall() {
    let dir = tmpdir("preset");
    let store = dir.join("store");
    let store = store.to_str().unwrap();

    let out = run_ok(
        env!("CARGO_BIN_EXE_dnnd-construct"),
        &[
            "--input",
            "preset:deep1b",
            "--n",
            "500",
            "--k",
            "8",
            "--ranks",
            "4",
            "--store",
            store,
            "--seed",
            "3",
        ],
    );
    assert!(out.contains("constructed k=8"), "construct output: {out}");
    assert!(out.contains("virtual time"), "missing profile line: {out}");
    // Under 1 000 points the sample is every vertex.
    let sampled: f64 = (out.lines())
        .find_map(|l| l.strip_prefix("sampled recall@8 = "))
        .and_then(|rest| rest.strip_suffix("s)"))
        .filter(|rest| rest.contains(" over 500 of 500 vertices (exact rows in "))
        .and_then(|rest| rest.split(' ').next()?.parse().ok())
        .unwrap_or_else(|| panic!("no sampled recall line: {out}"));
    assert!(sampled > 0.9, "sampled graph recall {sampled}");

    let out = run_ok(
        env!("CARGO_BIN_EXE_dnnd-optimize"),
        &["--store", store, "--m", "1.5"],
    );
    assert!(
        out.contains("search graph written"),
        "optimize output: {out}"
    );

    let out = run_ok(
        env!("CARGO_BIN_EXE_dnnd-query"),
        &[
            "--store",
            store,
            "--self-queries",
            "40",
            "--l",
            "8",
            "--epsilon",
            "0.2",
        ],
    );
    assert!(out.contains("recall@8"), "query output: {out}");
    // Member self-queries on an optimized graph must be near-perfect; the
    // printed value is "recall@8 = 0.9xxx" — parse and assert a floor.
    let recall: f64 = out
        .lines()
        .find(|l| l.contains("recall@8"))
        .and_then(|l| l.split('=').nth(1))
        .and_then(|v| v.trim().split(' ').next())
        .and_then(|v| v.parse().ok())
        .expect("recall value parse");
    assert!(recall > 0.9, "CLI pipeline recall {recall}");
}

#[test]
fn file_based_pipeline_with_u8_data() {
    let dir = tmpdir("file-u8");
    let store = dir.join("store");
    let input = dir.join("base.u8bin");
    let set = dataset::presets::bigann_like(400, 7);
    dataset::io::write_u8bin(&input, &set).unwrap();

    run_ok(
        env!("CARGO_BIN_EXE_dnnd-construct"),
        &[
            "--input",
            input.to_str().unwrap(),
            "--elem",
            "u8",
            "--k",
            "6",
            "--ranks",
            "3",
            "--store",
            store.to_str().unwrap(),
        ],
    );
    run_ok(
        env!("CARGO_BIN_EXE_dnnd-optimize"),
        &["--store", store.to_str().unwrap(), "--m", "1.5"],
    );
    let out = run_ok(
        env!("CARGO_BIN_EXE_dnnd-query"),
        &[
            "--store",
            store.to_str().unwrap(),
            "--self-queries",
            "30",
            "--l",
            "6",
        ],
    );
    assert!(out.contains("recall@6"), "query output: {out}");
}

#[test]
fn query_with_explicit_query_and_gt_files() {
    let dir = tmpdir("gtfile");
    let store = dir.join("store");
    let full = dataset::presets::deep1b_like(450, 9);
    let (base, queries) = dataset::synth::split_queries(full, 50);
    let base_file = dir.join("base.fvecs");
    let query_file = dir.join("queries.fvecs");
    let gt_file = dir.join("gt.ivecs");
    dataset::io::write_fvecs(&base_file, &base).unwrap();
    dataset::io::write_fvecs(&query_file, &queries).unwrap();
    let truth = dataset::brute_force_queries(&base, &queries, &dataset::L2, 5);
    dataset::io::write_ivecs(&gt_file, &truth.ids).unwrap();

    run_ok(
        env!("CARGO_BIN_EXE_dnnd-construct"),
        &[
            "--input",
            base_file.to_str().unwrap(),
            "--k",
            "8",
            "--ranks",
            "2",
            "--store",
            store.to_str().unwrap(),
        ],
    );
    run_ok(
        env!("CARGO_BIN_EXE_dnnd-optimize"),
        &["--store", store.to_str().unwrap()],
    );
    let out = run_ok(
        env!("CARGO_BIN_EXE_dnnd-query"),
        &[
            "--store",
            store.to_str().unwrap(),
            "--queries",
            query_file.to_str().unwrap(),
            "--gt",
            gt_file.to_str().unwrap(),
            "--l",
            "5",
            "--epsilon",
            "0.3",
            "--entries",
            "48",
        ],
    );
    assert!(out.contains("recall@5"), "query output: {out}");
}

#[test]
fn construct_rejects_missing_args() {
    let out = Command::new(env!("CARGO_BIN_EXE_dnnd-construct"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--input"));
}

/// Every file under `dir` with its length, sorted — "nothing written"
/// means this is unchanged (or the directory never appeared).
fn dir_listing(dir: &std::path::Path) -> Vec<(std::path::PathBuf, u64)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap() {
            let entry = entry.unwrap();
            let meta = entry.metadata().unwrap();
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                out.push((entry.path(), meta.len()));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn bad_flag_exits_2_on_every_binary() {
    let dir = tmpdir("badflag");
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let fresh = dir.join("never-created");
    let fresh = fresh.to_str().unwrap();
    let construct = format!("--input preset:deep1b --n 200 --k 6 --ranks 2 --store {store}");
    let args: Vec<&str> = construct.split(' ').collect();
    run_ok(env!("CARGO_BIN_EXE_dnnd-construct"), &args);
    // A collection store for the namespaced serving rows.
    let vstore = dir.join("vstore");
    let vstore = vstore.to_str().unwrap();
    let create = format!("create --store {vstore} --namespace prod --synthetic 200");
    let args: Vec<&str> = create.split(' ').collect();
    run_ok(env!("CARGO_BIN_EXE_dnnd-vdb"), &args);
    let serve_bin = env!("CARGO_BIN_EXE_dnnd-serve");
    let on_prod = format!("--store {vstore} --namespace prod");
    // Query files no pool can be drawn from: no vectors at all, and
    // vectors of another dimension than the store's 96.
    let empty = dir.join("empty.fvecs");
    std::fs::write(&empty, b"").unwrap();
    let narrow = dir.join("narrow.fvecs");
    let narrow_set = dataset::set::PointSet::new(vec![vec![0.5f32; 4]; 3]);
    dataset::io::write_fvecs(&narrow, &narrow_set).unwrap();
    let (empty, narrow) = (empty.to_str().unwrap(), narrow.to_str().unwrap());
    // Damaged input files, each a panic, an aborted allocation or a silent
    // build unchecked: a header of dim 0, one claiming 4e9 x 1 000 bytes,
    // and a NaN among points of the store's dimension.
    let damaged = |name: &str, words: [u32; 2]| {
        let path = dir.join(name).to_str().unwrap().to_string();
        std::fs::write(&path, words.map(u32::to_le_bytes).concat()).unwrap();
        path
    };
    let dim0 = damaged("dim0.fbin", [3, 0]);
    let oversized = damaged("oversized.u8bin", [4_000_000_000, 1_000]);
    let mut nan_points: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32; 96]).collect();
    nan_points[7][5] = f32::NAN;
    let nan_set = dataset::set::PointSet::new(nan_points);
    let (nan_fbin, nan_fvecs) = (dir.join("nan.fbin"), dir.join("nan.fvecs"));
    dataset::io::write_fbin(&nan_fbin, &nan_set).unwrap();
    dataset::io::write_fvecs(&nan_fvecs, &nan_set).unwrap();
    let (nan_fbin, nan_fvecs) = (nan_fbin.to_str().unwrap(), nan_fvecs.to_str().unwrap());
    let nan = "point 7 coordinate 5 is not finite (NaN)";
    let read_err = |input: &str, why: &str| format!("error: failed to read {input}: {why}");
    let dim0_err = read_err(&dim0, "fbin header: dim is 0 (need at least 1)");
    let oversized_err = read_err(
        &oversized,
        "u8bin header: claims 4000000000 x 1000 x 1 bytes, the file holds 0 more",
    );
    let nan_fbin_err = read_err(nan_fbin, nan);
    let nan_fvecs_err = format!("error: bad --queries file: {nan}");
    let before = dir_listing(dir.path());
    let construct_bin = env!("CARGO_BIN_EXE_dnnd-construct");
    let on_fresh = format!("--input preset:deep1b --store {fresh}");

    // (binary, arguments, the one line stderr must hold)
    let cases = [
        (
            env!("CARGO_BIN_EXE_dnnd-construct"),
            format!("--input preset:deep1b --store {fresh} --n 10k"),
            "error: --n: cannot parse \"10k\"",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-optimize"),
            format!("--store {store} --m big"),
            "error: --m: cannot parse \"big\"",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-query"),
            format!("--store {store} --self-queries 20 --l ten"),
            "error: --l: cannot parse \"ten\"",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-serve"),
            format!("--store {store} --qps fast"),
            "error: --qps: cannot parse \"fast\"",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-vdb"),
            format!("create --store {fresh} --namespace prod --synthetic 100 --seed 0x2a"),
            "error: --seed: cannot parse \"0x2a\"",
        ),
        // A typed flag with no value at all is the same kind of error.
        (
            env!("CARGO_BIN_EXE_dnnd-query"),
            format!("--store {store} --self-queries 20 --l"),
            "error: --l: missing value",
        ),
        // Search flags that parse but lie outside the search's domain.
        (
            env!("CARGO_BIN_EXE_dnnd-query"),
            format!("--store {store} --self-queries 20 --epsilon nan"),
            "error: epsilon must be finite and >= 0 (got NaN)",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-query"),
            format!("--store {store} --self-queries 20 --epsilon -0.5"),
            "error: epsilon must be finite and >= 0 (got -0.5)",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-query"),
            format!("--store {store} --self-queries 20 --l 0"),
            "error: l (results per query) must be >= 1",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-query"),
            format!("--store {store} --self-queries 20 --l 100000"),
            "error: l must be at most the dataset size 200 (got 100000)",
        ),
        // Construction flags outside the builder's domain (each was a
        // panic, `--elem u16` a silent f32 build), checked before the store
        // is created; the dataset's size against `--k` once it is loaded.
        (construct_bin, format!("{on_fresh} --k 0"), "error: k must be >= 1 (got 0)"),
        (
            construct_bin,
            format!("{on_fresh} --k 10 --n 5"),
            "error: k must be >= 1 and below the dataset size 5 (got 10)",
        ),
        (
            construct_bin,
            format!("{on_fresh} --n 1"),
            "error: the dataset must have at least 2 points (got 1)",
        ),
        (
            construct_bin,
            format!("{on_fresh} --ranks 0"),
            "error: --ranks must be at least 1 (got 0)",
        ),
        (
            construct_bin,
            format!("{on_fresh} --rho 0"),
            "error: rho must be in (0, 1] (got 0)",
        ),
        (
            construct_bin,
            format!("{on_fresh} --rho 7"),
            "error: rho must be in (0, 1] (got 7)",
        ),
        (
            construct_bin,
            format!("{on_fresh} --delta -1"),
            "error: delta must be finite and >= 0 (got -1)",
        ),
        (
            construct_bin,
            format!("{on_fresh} --delta inf"),
            "error: delta must be finite and >= 0 (got inf)",
        ),
        (
            construct_bin,
            format!("{on_fresh} --batch-size 0"),
            "error: batch_size must be >= 1 (got 0)",
        ),
        // A switch given a value swallowed it: `--unoptimized yes` built
        // with the optimized protocol.
        (
            construct_bin,
            format!("{on_fresh} --unoptimized yes"),
            "error: --unoptimized takes no value (got \"yes\")",
        ),
        (
            construct_bin,
            format!("{on_fresh} --elem u16"),
            "error: --elem must be f32 or u8 (got \"u16\")",
        ),
        (
            construct_bin,
            format!("{on_fresh} --metric bogus"),
            "error: unknown metric \"bogus\" (expected one of [\"l2\", \"sql2\", \"cosine\", \"l1\"])",
        ),
        // A damaged input file is refused before the store is created.
        (construct_bin, format!("--input {dim0} --store {fresh}"), dim0_err.as_str()),
        (
            construct_bin,
            format!("--input {oversized} --elem u8 --store {fresh}"),
            oversized_err.as_str(),
        ),
        (
            construct_bin,
            format!("--input {nan_fbin} --k 4 --store {fresh}"),
            nan_fbin_err.as_str(),
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-query"),
            format!("--store {store} --queries {nan_fvecs}"),
            nan_fvecs_err.as_str(),
        ),
        // Flags the stored-run binaries pass to a builder that asserts its
        // domain (each was a panic; `--m 0.5` a silent over-prune), and the
        // member-point pool, which must leave the graph something to index.
        (
            env!("CARGO_BIN_EXE_dnnd-serve"),
            format!("--store {store} --ranks 0"),
            "error: --ranks must be at least 1 (got 0)",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-serve"),
            format!("--store {store} --l 0"),
            "error: invalid serving parameters: l (results per query) must be >= 1",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-serve"),
            format!("--store {store} --epsilon nan"),
            "error: invalid serving parameters: epsilon must be finite and >= 0 (got NaN)",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-serve"),
            format!("--store {store} --epsilon -0.5"),
            "error: invalid serving parameters: epsilon must be finite and >= 0 (got -0.5)",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-serve"),
            format!("--store {store} --l 100000"),
            "error: l must be at most the dataset size 200 (got 100000)",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-query"),
            format!("--store {store} --self-queries 200"),
            "error: --self-queries must be above 0 and below the dataset size 200 (got 200), \
             unless --queries <file> is given",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-serve"),
            format!("--store {store} --pool 0"),
            "error: --pool must be above 0 and below the dataset size 200 (got 0), \
             unless --queries <file> is given",
        ),
        // A query file holding no vectors was a panic in `dnnd-serve`'s
        // rank threads and a perfect recall in `dnnd-query`; one of the
        // wrong dimension was served and scored.
        (
            env!("CARGO_BIN_EXE_dnnd-serve"),
            format!("--store {store} --queries {empty}"),
            "error: --queries holds 0 vectors (need at least 1)",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-query"),
            format!("--store {store} --queries {empty}"),
            "error: --queries holds 0 vectors (need at least 1)",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-serve"),
            format!("--store {store} --queries {narrow}"),
            "error: --queries vectors have dimension 4, the dataset's have 96",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-query"),
            format!("--store {store} --queries {narrow}"),
            "error: --queries vectors have dimension 4, the dataset's have 96",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-optimize"),
            format!("--store {store} --opt-mode rnn --k0 0"),
            "error: k0 must be >= 1 (got 0)",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-optimize"),
            format!("--store {store} --opt-mode rnn --t1 0"),
            "error: t1 must be >= 1 (got 0)",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-optimize"),
            format!("--store {store} --opt-mode rnn --k0 4 --r 3"),
            "error: require r >= k0 (got r = 3, k0 = 4)",
        ),
        // The serving graph is a store prefix the store must hold, and the
        // workload and filter strings are parsed before anything runs.
        (
            serve_bin,
            format!("--store {store} --graph bogus"),
            "error: unknown --graph \"bogus\" (expected one of [\"auto\", \"rnn\", \"opt\", \"knng\"])",
        ),
        (
            serve_bin,
            format!("--store {store} --graph rnn"),
            "error: store has no \"rnn\" graph (run dnnd-optimize --opt-mode rnn first)",
        ),
        (
            serve_bin,
            format!("--store {store} --workload zipf:s=abc"),
            "error: invalid --workload spec: zipf: s must be a number (got \"abc\")",
        ),
        (
            serve_bin,
            format!("{on_prod} --filter bucket>>3"),
            "error: invalid --filter predicate: term \"bucket>>3\": want '==' or 'in'",
        ),
        // Every slot is a barrier, idle or not: a schedule this sparse never
        // finished.
        (
            serve_bin,
            format!("--store {store} --qps 1e-300"),
            "error: invalid serving parameters: the schedule spans about 2.000e305 slots, \
             more than the 1048576 a run may take (raise the rate or shorten the think \
             time)",
        ),
        (
            serve_bin,
            format!("--store {store} --workload closed:n=1,think=100000s"),
            "error: invalid serving parameters: the schedule spans about 2.000e10 slots, \
             more than the 1048576 a run may take (raise the rate or shorten the think \
             time)",
        ),
        // The compaction watermark is checked before the collection opens,
        // not asserted in the rank threads.
        (
            serve_bin,
            format!("{on_prod} --compact-watermark 1.5"),
            "error: compact_watermark must be in (0, 1] (got 1.5)",
        ),
        (
            serve_bin,
            format!("{on_prod} --compact-watermark 0"),
            "error: compact_watermark must be in (0, 1] (got 0)",
        ),
        (
            serve_bin,
            format!("{on_prod} --compact-watermark nan"),
            "error: compact_watermark must be in (0, 1] (got NaN)",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-optimize"),
            format!("--store {store} --m 0.5"),
            "error: m must be at least 1 (got 0.5)",
        ),
        // A refused `dnnd-vdb create` is refused before the store exists.
        (
            env!("CARGO_BIN_EXE_dnnd-vdb"),
            format!("create --store {fresh} --namespace prod --synthetic 100 --k 0"),
            "error: k must be >= 1 and below the dataset size 100 (got 0)",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-vdb"),
            format!("create --store {fresh} --namespace prod --synthetic 100 --dim 0"),
            "error: --dim must be at least 1 (got 0)",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-vdb"),
            format!("create --store {fresh} --namespace prod --synthetic 100 --metric nope"),
            "error: unknown metric \"nope\" (expected one of [\"l2\", \"sql2\", \"cosine\", \"l1\"])",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-vdb"),
            format!("create --store {fresh} --namespace bad!name --synthetic 100"),
            "error: invalid namespace \"bad!name\": want [A-Za-z0-9_-]{1,32}",
        ),
        // A flag no binary looks up is a typo, not a feature left off:
        // checked once every lookup has happened, before anything is
        // opened for writing.
        (
            env!("CARGO_BIN_EXE_dnnd-construct"),
            format!("--input preset:deep1b --store {fresh} --n 100 --rnaks 2"),
            "error: unknown flag --rnaks",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-optimize"),
            format!("--store {store} --m 1.5 --divresify 0.5"),
            "error: unknown flag --divresify",
        ),
        // Deleted switches — the inert reverse-exchange shuffle and the
        // occlusion pruner RNN-Descent duplicates — are refused like typos.
        (
            env!("CARGO_BIN_EXE_dnnd-construct"),
            format!("--input preset:deep1b --store {fresh} --n 100 --no-shuffle"),
            "error: unknown flag --no-shuffle",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-optimize"),
            format!("--store {store} --m 1.5 --diversify 0.5"),
            "error: unknown flag --diversify",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-optimize"),
            format!("--store {store} --opt-mode rnn --k0 8 --tt1 2"),
            "error: unknown flag --tt1",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-query"),
            format!("--store {store} --self-queries 20 --report {fresh}"),
            "error: unknown flag --report",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-serve"),
            format!("--store {store} --arrivals 50 --slow-query-log {fresh} --verbose"),
            "error: unknown flag --verbose",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-vdb"),
            format!("create --store {fresh} --namespace prod --synthetic 100 --dims 8"),
            "error: unknown flag --dims",
        ),
        // Settings with one value in use are constants now; their flags
        // are refused like typos.
        (
            serve_bin,
            format!("--store {store} --slot-ns 500000"),
            "error: unknown flag --slot-ns",
        ),
        (
            serve_bin,
            format!("--store {store} --flush-age 3"),
            "error: unknown flag --flush-age",
        ),
        (
            serve_bin,
            format!("--store {store} --quant-step 0.01"),
            "error: unknown flag --quant-step",
        ),
        (
            serve_bin,
            format!("--store {store} --forensics-window 16"),
            "error: unknown flag --forensics-window",
        ),
        (
            serve_bin,
            format!("--store {store} --forensics-slow-n 2"),
            "error: unknown flag --forensics-slow-n",
        ),
        (
            serve_bin,
            format!("{on_prod} --refine-iters 2"),
            "error: unknown flag --refine-iters",
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-vdb"),
            format!("ingest --store {vstore} --namespace prod --synthetic 4 --refine-iters 2"),
            "error: unknown flag --refine-iters",
        ),
    ];
    for (bin, args, want) in cases {
        let out = Command::new(bin).args(args.split(' ')).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{bin} {args}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.trim_end(), want, "{bin} {args}");
        assert_eq!(dir_listing(dir.path()), before, "{bin} {args} wrote");
        assert!(!dir.join("never-created").exists(), "{bin} {args}");
    }
}

/// Every arm of the one `(elem, metric)` dispatch the other cases leave out
/// (they are all f32 `l2`, or u8 without the rnn mode), driven from the
/// binaries: construct, the rnn optimizer — whose report and dashboard go
/// through the shared writer — and query.
#[test]
fn rnn_pipeline_on_every_other_dispatch_arm() {
    for (tag, input, elem, metric) in [
        ("rnn-u8", "preset:bigann", "u8", "l2"),
        ("rnn-cosine", "preset:glove25", "f32", "cosine"),
        ("rnn-sql2", "preset:deep1b", "f32", "sql2"),
        ("rnn-l1", "preset:mnist", "f32", "l1"),
    ] {
        let dir = tmpdir(tag);
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let (store, report, dash) = (path("store"), path("rnn.json"), path("rnn.html"));
        let construct = format!(
            "--input {input} --elem {elem} --metric {metric} --n 300 --k 8 --ranks 2 --store {store}"
        );
        let out = run_ok(
            env!("CARGO_BIN_EXE_dnnd-construct"),
            &construct.split(' ').collect::<Vec<_>>(),
        );
        assert!(out.contains(&format!("({elem}), metric {metric}")), "{out}");

        let optimize = format!(
            "--store {store} --opt-mode rnn --k0 8 --ranks 2 --report-out {report} --dashboard-out {dash}"
        );
        let out = run_ok(
            env!("CARGO_BIN_EXE_dnnd-optimize"),
            &optimize.split(' ').collect::<Vec<_>>(),
        );
        assert!(
            out.contains(&format!("run report written to {report}")),
            "{out}"
        );
        assert!(
            out.contains(&format!("dashboard written to {dash}")),
            "{out}"
        );
        let text = std::fs::read_to_string(&report).unwrap();
        let rr = obs::RunReport::parse(&text).expect("rnn report parses");
        assert_eq!(rr.binary, "dnnd-optimize");
        let rnn = rr.rnn.expect("rnn section");
        assert_eq!(rnn.k0, 8);
        assert!(rr
            .params
            .contains(&("metric".to_string(), metric.to_string())));
        assert!(std::fs::read_to_string(&dash).unwrap().contains("<html"));

        let query = format!("--store {store} --self-queries 30 --l 8");
        let out = run_ok(
            env!("CARGO_BIN_EXE_dnnd-query"),
            &query.split(' ').collect::<Vec<_>>(),
        );
        assert!(out.contains(&format!("({elem}, {metric})")), "{out}");
        assert!(out.contains("recall@8"), "{out}");
    }
}

/// `dnnd-optimize --opt-mode rnn --trace-out` records the simulated run
/// like every other simulated binary: a trace of every rank's
/// `rnn_round` spans, and a report carrying the tracer's histograms.
#[test]
fn rnn_mode_writes_its_trace() {
    let dir = tmpdir("rnn-trace");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (store, trace, report) = (path("store"), path("t.json"), path("r.json"));
    let construct = format!("--input preset:deep1b --n 300 --k 8 --ranks 2 --store {store}");
    run_ok(
        env!("CARGO_BIN_EXE_dnnd-construct"),
        &construct.split(' ').collect::<Vec<_>>(),
    );
    let optimize = format!(
        "--store {store} --opt-mode rnn --k0 8 --ranks 3 --trace-out {trace} --report-out {report}"
    );
    let out = run_ok(
        env!("CARGO_BIN_EXE_dnnd-optimize"),
        &optimize.split(' ').collect::<Vec<_>>(),
    );
    assert!(out.contains(&format!("trace written to {trace}")), "{out}");
    let doc = obs::JsonValue::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let other = doc.get("otherData").expect("otherData");
    assert_eq!(other.get("n_ranks").and_then(|v| v.as_u64()), Some(3));
    assert_eq!(
        other.get("dropped_events").and_then(|v| v.as_u64()),
        Some(0)
    );
    let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
    assert!(
        events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("rnn_round")),
        "no rnn_round span in the trace"
    );
    let rr = obs::RunReport::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    assert!(!rr.histograms.is_empty(), "rnn report has no histograms");
}

/// Graph arrays that pass their checksums but are not a graph — an edge
/// naming a vertex the graph does not have — are damaged input: one line
/// and exit 2 from the binaries that load them (`KnnGraph::load` returned
/// `Ok`, and `dnnd-optimize` then panicked indexing by the id).
#[test]
fn a_stored_graph_naming_a_missing_vertex_exits_2() {
    let dir = tmpdir("badgraph");
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let construct = format!("--input preset:deep1b --n 200 --k 6 --ranks 2 --store {store}");
    let args: Vec<&str> = construct.split(' ').collect();
    run_ok(env!("CARGO_BIN_EXE_dnnd-construct"), &args);
    {
        let mut st = metall::Store::open(store).unwrap();
        let mut ids: Vec<u32> = st.get("knng/ids").unwrap();
        ids[9] = 207; // row 1 of the 6-strided array
        st.put("knng/ids", &ids).unwrap();
    }
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_dnnd-optimize"),
            format!("--store {store} --m 1.5"),
        ),
        (
            env!("CARGO_BIN_EXE_dnnd-query"),
            format!("--store {store} --self-queries 20 --l 6"),
        ),
    ] {
        let out = Command::new(bin).args(args.split(' ')).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{bin} {args}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let line = stderr.trim_end();
        assert_eq!(line.lines().count(), 1, "{bin} {args}: {stderr}");
        assert!(
            line.starts_with("error: failed to decode object: knng row 1 holds the edge (207, ")
                && line.ends_with(" in a graph of 200 vertices"),
            "{bin} {args}: {stderr}"
        );
    }
}
