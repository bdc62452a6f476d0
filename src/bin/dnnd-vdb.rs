//! `dnnd-vdb` — admin CLI for the vector-DB product layer: namespaced
//! collections (vectors + graph + typed metadata + tombstones) persisted
//! in one `metall::Store` and served by `dnnd-serve --namespace`.
//!
//! ```text
//! dnnd-vdb create  --store ./db --namespace prod --synthetic 256 --dim 32 --k 8
//! dnnd-vdb ingest  --store ./db --namespace prod --vectors more.fvecs
//! dnnd-vdb delete  --store ./db --namespace prod --ids 3,17,42
//! dnnd-vdb compact --store ./db --namespace prod
//! dnnd-vdb stat    --store ./db [--namespace prod] [--filter "bucket in {1, 2}"]
//! ```
//!
//! Vectors come from an fvecs file (`--vectors`) or a seeded synthetic
//! mixture (`--synthetic N --dim D`). Metadata is either one `--meta
//! "field=value,..."` record replicated across the batch, or (default)
//! the deterministic per-id `bucket` record the serving layer's online
//! mutation path uses — so CLI-built collections and serve-time inserts
//! draw from the same metadata distribution.

use bench::Args;
use dataset::synth::MixtureParams;
use dataset::{io, PointId, PointSet};
use dnnd_repro::cli::{die, or_die, require_at_least_1, store_flag};
use metall::Store;
use vdb::{Collection, MetaRecord, Predicate};

const USAGE: &str = "usage: dnnd-vdb <create|ingest|delete|compact|stat> --store <dir> ...";

/// The vector batch for `create`/`ingest`: an fvecs file or a seeded
/// synthetic mixture, never both.
fn load_vectors(args: &Args, seed: u64) -> PointSet<Vec<f32>> {
    let file: String = args.get("vectors", String::new());
    let synth_n: usize = args.get("synthetic", 0);
    let dim: usize = args.get("dim", 32);
    match (file.is_empty(), synth_n) {
        (false, 0) => {
            io::read_fvecs(&file).unwrap_or_else(|e| die(&format!("bad --vectors file: {e}")))
        }
        (true, n) if n > 0 => {
            require_at_least_1("dim", dim);
            dataset::synth::gaussian_mixture(MixtureParams::embedding_like(n, dim), seed)
        }
        _ => die("need exactly one of --vectors <fvecs> or --synthetic <n> [--dim <d>]"),
    }
}

/// One metadata record per id in `ids`: the shared `--meta` record when
/// given, else the per-id deterministic bucket record.
fn meta_for(args: &Args, seed: u64, ids: std::ops::Range<u64>) -> Vec<MetaRecord> {
    let kv: String = args.get("meta", String::new());
    if kv.is_empty() {
        ids.map(|id| MetaRecord::bucket_record(seed, id)).collect()
    } else {
        let rec =
            MetaRecord::parse_kv(&kv).unwrap_or_else(|e| die(&format!("invalid --meta: {e}")));
        ids.map(|_| rec.clone()).collect()
    }
}

fn print_stat(c: &Collection, filter: &str) {
    let s = c.stat();
    println!(
        "namespace {:?}: {} points ({} live, {} tombstones, {} dead), \
         epoch {}, dim {}, k {}, metric {}",
        s.name, s.points, s.live, s.tombstones, s.dead, s.epoch, s.dim, s.k, s.metric
    );
    if !filter.is_empty() {
        let pred: Predicate = filter
            .parse()
            .unwrap_or_else(|e| die(&format!("invalid --filter predicate: {e}")));
        let mask = c.compile_mask(Some(&pred));
        println!(
            "  filter {} matches {} of {} live ids ({:.1}% selective)",
            pred,
            mask.allowed(),
            s.live,
            mask.selectivity() * 100.0
        );
    }
}

fn main() {
    let args = Args::parse();
    let cmd = match args.positionals() {
        [cmd] => cmd.clone(),
        _ => die(USAGE),
    };
    let store_dir = store_flag(&args);
    let open =
        || Store::open(&store_dir).unwrap_or_else(|e| die(&format!("cannot open store: {e}")));
    let ns: String = args.get("namespace", String::new());
    let need_ns = || {
        if ns.is_empty() {
            die(&format!("--namespace is required for {cmd}"));
        }
        ns.as_str()
    };
    let seed: u64 = args.get("seed", 42);

    match cmd.as_str() {
        "create" => {
            let ns = need_ns();
            let points = load_vectors(&args, seed);
            let meta = meta_for(&args, seed, 0..points.len() as u64);
            let metric: String = args.get("metric", "l2".to_string());
            let k: usize = args.get("k", 10);
            args.finish();
            // Built (and so namespace, metric and `k` checked) before the
            // store is created: a refused create leaves no directory.
            let c = or_die(Collection::create(ns, points, meta, &metric, k, seed));
            let mut store = Store::open_or_create(&store_dir)
                .unwrap_or_else(|e| die(&format!("cannot open store: {e}")));
            if Collection::exists(&store, ns) {
                die(&format!("namespace {ns:?} already exists"));
            }
            or_die(c.save(&mut store));
            print_stat(&c, "");
        }
        "ingest" => {
            let ns = need_ns();
            let mut store = open();
            let mut c = or_die(Collection::open(&store, ns));
            let points = load_vectors(&args, seed);
            let start = c.stat().points;
            let meta = meta_for(&args, seed, start..start + points.len() as u64);
            args.finish();
            let range = or_die(c.ingest(points.points().to_vec(), meta));
            or_die(c.save(&mut store));
            println!("ingested ids {}..{}", range.start, range.end);
            print_stat(&c, "");
        }
        "delete" => {
            let ns = need_ns();
            let mut store = open();
            let mut c = or_die(Collection::open(&store, ns));
            let ids_text: String = args.get("ids", String::new());
            args.finish();
            let ids: Vec<PointId> = ids_text
                .split(',')
                .filter(|t| !t.trim().is_empty())
                .map(|t| {
                    t.trim()
                        .parse()
                        .unwrap_or_else(|_| die(&format!("bad id in --ids: {t:?}")))
                })
                .collect();
            if ids.is_empty() {
                die("--ids <id,id,...> is required for delete");
            }
            let n = or_die(c.delete(&ids));
            or_die(c.save(&mut store));
            println!("tombstoned {n} ids");
            print_stat(&c, "");
        }
        "compact" => {
            let ns = need_ns();
            args.finish();
            let mut store = open();
            let mut c = or_die(Collection::open(&store, ns));
            let rep = or_die(c.compact());
            or_die(c.save(&mut store));
            println!(
                "compacted: {} tombstones cleared, {} rows repaired, epoch now {}",
                rep.tombstones_cleared, rep.rows_repaired, rep.epoch
            );
            print_stat(&c, "");
        }
        "stat" => {
            let store = open();
            let filter: String = args.get("filter", String::new());
            args.finish();
            let names = if ns.is_empty() {
                let all = Collection::list(&store);
                if all.is_empty() {
                    die("store holds no namespaces");
                }
                all
            } else {
                vec![ns.clone()]
            };
            for name in names {
                let c = or_die(Collection::open(&store, &name));
                print_stat(&c, &filter);
            }
        }
        other => die(&format!("unknown subcommand {other:?}\n{USAGE}")),
    }
}
