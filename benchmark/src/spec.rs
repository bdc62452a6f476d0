//! The benchmark's names: workloads, end-to-end metrics with their bounds,
//! per-layer metrics with their units. `BENCHMARK.json` at the repository
//! root lists the same names; a unit test keeps the two in step.

/// Default `--seed`. Seed 11 is reserved for verifying claims and is never
/// tuned against.
pub const DEFAULT_SEED: u64 = 7;
/// Default `--seconds`; equals `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 50.0;
/// `--seconds` under `--smoke`.
pub const SMOKE_SECONDS: f64 = 0.3;

pub const WORKLOADS: [&str; 2] = ["deep-f32-opt", "bigann-u8-unopt"];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: reported by every workload with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "construct_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "query_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_open_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_mutate_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "construct_recall_at_10",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "query_recall_at_10",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "serve_open_recall_at_10",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "serve_mutate_recall_at_10",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEnd {
        name: "construct_traffic_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
];

/// Per-layer metrics `(name, unit)`: reported by every workload's traced
/// run; 0 where the workload does not load the layer or does not carry
/// that measurement.
pub const PER_LAYER: [(&str, &str); 98] = [
    ("dataset.synth.gen_s", "s"),
    ("dataset.truth.sample_s", "s"),
    ("dataset.kernel.f32_d96.batch_ns_per_pair", "ns"),
    ("dataset.kernel.f32_d96.scalar_ns_per_pair", "ns"),
    ("dataset.kernel.u8_d128.batch_ns_per_pair", "ns"),
    ("nnd.heap.insert_ns", "ns"),
    ("nnd.search.evals_per_query", "count"),
    ("nnd.search.ns_per_eval", "ns"),
    ("nnd.search.seed_evals_frac", "fraction"),
    ("nnd.search.latency_us_p50", "us"),
    ("nnd.search.latency_us_p99", "us"),
    ("nnd.build.s", "s"),
    ("nnd.build.dist_evals", "count"),
    ("nnd.optimize.ms", "ms"),
    ("ygm.codec.type2_f32.encode_ns", "ns"),
    ("ygm.codec.type2_f32.decode_ns", "ns"),
    ("ygm.codec.type2_f32.bytes_per_msg", "count"),
    ("ygm.codec.type2_u8.encode_ns", "ns"),
    ("ygm.codec.type2_u8.decode_ns", "ns"),
    ("ygm.comm.r1.ns_per_msg", "ns"),
    ("ygm.comm.r2.ns_per_msg", "ns"),
    ("ygm.comm.r1.row_ns_per_msg", "ns"),
    ("ygm.comm.r2.row_ns_per_msg", "ns"),
    ("ygm.barrier.r1_us", "us"),
    ("ygm.world.spawn_us.r2", "us"),
    ("ygm.barrier.r2_us_min", "us"),
    ("ygm.barrier.r2_us_max", "us"),
    ("ygm.cost.dist_elem_ns_model", "ns"),
    ("ygm.cost.dist_elem_ns_measured", "ns"),
    ("core.build.iterations", "count"),
    ("core.build.dist_evals", "count"),
    ("core.build.evals_per_point", "count"),
    ("core.build.messages", "count"),
    ("core.build.bytes", "count"),
    ("core.build.phases", "count"),
    ("core.build.sim_s", "s"),
    ("core.build.wall_over_sim", "ratio"),
    ("core.build.ns_per_msg", "ns"),
    ("core.build.kernel_share", "fraction"),
    ("core.build.transport_share", "fraction"),
    ("core.build.barrier_share", "fraction"),
    ("core.build.engine_residual_share", "fraction"),
    ("core.build.r2_wall_s_min", "s"),
    ("core.build.r2_wall_s_max", "s"),
    ("core.build.r2_over_r1", "ratio"),
    ("core.query.r1.us_per_query", "us"),
    ("core.query.r1.msgs_per_query", "count"),
    ("core.query.r1.phases_per_query", "count"),
    ("core.query.over_shared", "ratio"),
    ("core.query.r2.us_per_query_min", "us"),
    ("core.query.r2.us_per_query_max", "us"),
    ("metall.save_mb_per_s", "MB/s"),
    ("metall.open_load_mb_per_s", "MB/s"),
    ("metall.stored_bytes_per_user_byte", "ratio"),
    ("metall.put_us_per_object.n1000", "us"),
    ("metall.get_us_per_object.n1000", "us"),
    ("obs.report.to_json_ms", "ms"),
    ("obs.report.json_kb", "kB"),
    ("obs.tracer.overhead_frac", "fraction"),
    ("obs.tracer.events", "count"),
    ("obs.tracer.dropped_events", "count"),
    ("serve.slots", "count"),
    ("serve.phases", "count"),
    ("serve.messages", "count"),
    ("serve.us_per_phase", "us"),
    ("serve.phase_share", "fraction"),
    ("serve.cache_hit_frac", "fraction"),
    ("serve.searched_per_slot", "count"),
    ("serve.us_per_searched_query", "us"),
    ("serve.sim_s", "s"),
    ("serve.virt_latency_ms_p99", "ms"),
    ("serve.virt_client_latency_ms_p99", "ms"),
    ("serve.shed_frac", "fraction"),
    ("serve.r2.wall_s_min", "s"),
    ("serve.r2.wall_s_max", "s"),
    ("vdb.create_s", "s"),
    ("vdb.inserts", "count"),
    ("vdb.deletes", "count"),
    ("vdb.compactions", "count"),
    ("vdb.filtered_frac", "fraction"),
    ("vdb.mask.compile_us", "us"),
    ("vdb.store_run_s", "s"),
    ("vdb.store_roundtrip_ms", "ms"),
    ("vdb.store_share", "fraction"),
    ("vdb.objects", "count"),
    ("hnsw.build_s", "s"),
    ("hnsw.search.us_per_query", "us"),
    ("hnsw.search.recall_at_10", "fraction"),
    ("hnsw.search.ef", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.coverage_frac", "fraction"),
    ("run.rounds", "count"),
    ("run.setups", "count"),
    ("run.construct_iqr_frac", "fraction"),
    ("run.query_iqr_frac", "fraction"),
    ("run.serve_open_iqr_frac", "fraction"),
    ("run.serve_mutate_iqr_frac", "fraction"),
    ("run.peak_rss_mb", "MB"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use obs::JsonValue;
    use std::collections::BTreeSet;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn name_ok(s: &str) -> bool {
        (1..=64).contains(&s.len())
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(s: &str) -> bool {
        (1..=16).contains(&s.len())
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    fn field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
        v.get(key)
            .and_then(|s| s.as_str())
            .unwrap_or_else(|| panic!("{key} in {v:?}"))
    }

    fn list<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .unwrap_or_else(|| panic!("{key} list"))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0));
        for n in names {
            assert!(name_ok(n), "bad name {n:?}");
            assert!(seen.insert(n), "name {n:?} used twice");
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit_ok(u), "bad unit {u:?}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let doc = JsonValue::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");

        let workloads: Vec<&str> = list(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for w in list(&doc, "workloads") {
            let why = field(w, "why");
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "{why:?}"
            );
        }

        let e2e = list(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit);
            let better = if m.better == Better::Lower {
                "lower"
            } else {
                "higher"
            };
            assert_eq!(field(j, "better"), better);
            let bound = j.get("bound").and_then(|b| b.as_f64()).expect("bound");
            assert_eq!(bound, m.bound, "{}", m.name);
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));

        let layers = list(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (j, (name, unit)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), name);
            assert_eq!(field(j, "unit"), unit);
            assert!(matches!(field(j, "better"), "lower" | "higher"));
        }

        let seconds = doc
            .get("run_seconds")
            .and_then(|s| s.as_f64())
            .expect("run_seconds");
        assert_eq!(seconds, DEFAULT_SECONDS);
        let paths: Vec<&str> = list(&doc, "paths")
            .iter()
            .filter_map(|p| p.as_str())
            .collect();
        assert_eq!(paths, ["benchmark"]);
    }
}
