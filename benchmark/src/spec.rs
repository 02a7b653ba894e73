//! The benchmark's fixed vocabulary: the six workloads, the end-to-end
//! metrics with their regression bounds, and the per-layer metrics.
//! `/BENCHMARK.json` states the same tables for the driver; a unit test
//! keeps the two in step.

use webevo::prelude::EngineKind;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: something a user of the crawler sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// One per-layer metric. No bound: it explains an end-to-end move, it is
/// not judged on its own.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Stated for the driver; only the test that keeps `BENCHMARK.json` in
    /// step reads it here.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

/// Seconds of timed reps per run: the driver's `run_seconds`, and the
/// default when `--seconds` is not given.
pub const RUN_SECONDS: f64 = 8.0;

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "fetches_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "user_cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_bytes_per_page",
        unit: "B/page",
        better: Better::Lower,
        bound: 0.03,
    },
    EndToEnd {
        name: "avg_freshness",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.02,
    },
    EndToEnd {
        name: "recover_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "disk_bytes_per_page",
        unit: "B/page",
        better: Better::Lower,
        bound: 0.01,
    },
];

/// The end-to-end metric called `name`; the names are this file's own.
pub fn end_to_end(name: &str) -> &'static EndToEnd {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no end-to-end metric {name}"))
}

/// The eight `QueryService` calls, in the order a reader cycles them.
pub const QUERY_KINDS: [&str; 8] = [
    "epoch_info",
    "staleness",
    "lookup",
    "lookup_url",
    "freshness",
    "site_rollups",
    "top_k_pagerank",
    "top_k_change_rate",
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    layer("bench.clock_ns", "ns", Lower),
    // sim
    layer("sim.generate_s", "s", Lower),
    layer("sim.arena_bytes", "B", Lower),
    layer("sim.fetch_calls", "count", Lower),
    layer("sim.fetch_s", "s", Lower),
    layer("sim.fetch_ns_per_call", "ns", Lower),
    layer("sim.not_found_share", "fraction", Lower),
    // core
    layer("core.drive_s", "s", Lower),
    layer("core.pass_s", "s", Lower),
    layer("core.pass_count", "count", Lower),
    layer("core.fetch_batch_s", "s", Lower),
    layer("core.self_s", "s", Lower),
    layer("core.span_coverage", "fraction", Higher),
    layer("core.cold_wall_s", "s", Lower),
    layer("core.cold_sys_s", "s", Lower),
    layer("core.cold_minor_faults", "count", Lower),
    layer("core.state_bytes_per_page", "B/page", Lower),
    layer("core.rank_run_s", "s", Lower),
    layer("core.rank_replacements", "count", Lower),
    layer("core.export_state_s", "s", Lower),
    layer("core.restore_s", "s", Lower),
    layer("core.replay_s", "s", Lower),
    layer("core.replay_events", "count", Lower),
    // graph
    layer("graph.build_s", "s", Lower),
    layer("graph.pages", "count", Lower),
    layer("graph.links", "count", Lower),
    layer("graph.pagerank_s", "s", Lower),
    layer("graph.pagerank_iterations", "count", Lower),
    layer("graph.pagerank_ns_per_link_iter", "ns", Lower),
    // estimate
    layer("estimate.history_new_ns", "ns", Lower),
    layer("estimate.history_rss_bytes", "B", Lower),
    layer("estimate.record_visit_ns", "ns", Lower),
    layer("estimate.ep_ns", "ns", Lower),
    layer("estimate.eb_observe_ns", "ns", Lower),
    // schedule
    layer("schedule.queue_push_ns", "ns", Lower),
    layer("schedule.queue_pop_ns", "ns", Lower),
    layer("schedule.reallocate_s", "s", Lower),
    layer("schedule.optimal_alloc_s", "s", Lower),
    // store
    layer("store.snapshot_encode_s", "s", Lower),
    layer("store.snapshot_decode_s", "s", Lower),
    layer("store.snapshot_bytes", "B", Lower),
    layer("store.snapshot_bytes_per_page", "B/page", Lower),
    layer("store.encode_mb_per_s", "MB/s", Higher),
    layer("store.wal_append_s", "s", Lower),
    layer("store.wal_bytes_per_record", "B", Lower),
    layer("store.wal_read_s", "s", Lower),
    layer("store.recover_s", "s", Lower),
    layer("store.hook_on_fetch_s", "s", Lower),
    layer("store.hook_boundary_s", "s", Lower),
    layer("store.hook_s", "s", Lower),
    layer("store.snapshots", "count", Lower),
    layer("store.flushes", "count", Lower),
    layer("store.records_logged", "count", Lower),
    layer("store.wal_fsyncs", "count", Lower),
    // serve
    layer("serve.publish_s", "s", Lower),
    layer("serve.publish_count", "count", Lower),
    layer("serve.publish_ms_per_epoch", "ms", Lower),
    layer("serve.view_pages", "count", Lower),
    layer("serve.query_ns.epoch_info", "ns", Lower),
    layer("serve.query_ns.staleness", "ns", Lower),
    layer("serve.query_ns.lookup", "ns", Lower),
    layer("serve.query_ns.lookup_url", "ns", Lower),
    layer("serve.query_ns.freshness", "ns", Lower),
    layer("serve.query_ns.site_rollups", "ns", Lower),
    layer("serve.query_ns.top_k_pagerank", "ns", Lower),
    layer("serve.query_ns.top_k_change_rate", "ns", Lower),
    layer("serve.query_ns_p50", "ns", Lower),
    layer("serve.query_ns_p99", "ns", Lower),
    layer("serve.swap_stall_ns_max", "ns", Lower),
    layer("serve.queries", "count", Higher),
    // obs
    layer("obs.trace_overhead_ratio", "ratio", Lower),
    layer("obs.spans_recorded", "count", Lower),
    layer("obs.span_ns", "ns", Lower),
    layer("obs.noop_span_ns", "ns", Lower),
];

/// Kill-and-resume shape of the `durable-resume` workload.
#[derive(Clone, Copy, Debug)]
pub struct Durable {
    /// Full-snapshot cadence in simulated days.
    pub snapshot_every_days: f64,
    /// The day the first session is dropped at.
    pub kill_day: f64,
}

/// One named set of inputs.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists: the layers it shows and the ones it
    /// bypasses (one line; `BENCHMARK.json` carries the same text).
    pub why: &'static str,
    pub engine: EngineKind,
    pub sites: usize,
    pub pages: usize,
    /// Simulated days one rep crawls.
    pub days: f64,
    /// Days per full revisit of the collection.
    pub cycle_days: f64,
    /// Daily ranking passes; `false` pushes the ranking interval past any
    /// horizon, so only the fetch loop runs.
    pub ranking: bool,
    /// Checkpoint, kill and resume inside the rep.
    pub durable: Option<Durable>,
    /// Serve the live crawl to one closed-loop reader thread.
    pub serve_live: bool,
}

const U200K: (usize, usize) = (60, 200_000);

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "steady-rank",
        why: "incremental crawl of 200k pages for 12 days with daily ranking: ranking passes are two thirds of the wall, so core/graph ranking work and the per-page state layout show here",
        engine: EngineKind::Incremental,
        sites: U200K.0,
        pages: U200K.1,
        days: 12.0,
        cycle_days: 15.0,
        ranking: true,
        durable: None,
        serve_live: false,
    },
    Workload {
        name: "steady-fetch",
        why: "the same crawl for 60 days with ranking off: only queue pop, sim fetch, estimator update and link admit run, so a ranking or PageRank change must show nothing here",
        engine: EngineKind::Incremental,
        sites: U200K.0,
        pages: U200K.1,
        days: 60.0,
        cycle_days: 15.0,
        ranking: false,
        durable: None,
        serve_live: false,
    },
    Workload {
        name: "pool-rank",
        why: "steady-rank's inputs through the threaded engine with one fetch worker and deferred ranking: shows a change that helps the inline engine at the pool executor's expense",
        engine: EngineKind::Threaded { workers: 1 },
        sites: U200K.0,
        pages: U200K.1,
        days: 12.0,
        cycle_days: 15.0,
        ranking: true,
        durable: None,
        serve_live: false,
    },
    Workload {
        name: "periodic-batch",
        why: "periodic shadow crawl of 1M pages for 30 days: sim and core with no estimator, queue reallocation, ranking or per-page history, so it bypasses the incremental engines' state and ranking work",
        engine: EngineKind::Periodic,
        sites: 270,
        pages: 1_000_000,
        days: 30.0,
        cycle_days: 15.0,
        ranking: true,
        durable: None,
        serve_live: false,
    },
    Workload {
        name: "durable-resume",
        why: "steady-rank's inputs checkpointed every 5 days, killed at day 8, recovered and driven on to day 12: the store's write path and read path in one run, comparable with steady-rank",
        engine: EngineKind::Incremental,
        sites: U200K.0,
        pages: U200K.1,
        days: 12.0,
        cycle_days: 15.0,
        ranking: true,
        durable: Some(Durable { snapshot_every_days: 5.0, kill_day: 8.0 }),
        serve_live: false,
    },
    Workload {
        name: "serve-live",
        why: "incremental crawl of 50k pages for 15 days, served to one closed-loop reader cycling the eight queries: publish cost lands on the crawl, reads and epoch swaps on query latency",
        engine: EngineKind::Incremental,
        sites: 60,
        pages: 50_000,
        days: 15.0,
        cycle_days: 5.0,
        ranking: true,
        durable: None,
        serve_live: true,
    },
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn names(doc: &Json, key: &str) -> Vec<String> {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("{key} is not an array")
        };
        items
            .iter()
            .map(|i| {
                i.get("name")
                    .and_then(Json::as_str)
                    .expect("a name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");

        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS)
        );
        assert_eq!(
            doc.get("paths"),
            Some(&Json::Arr(vec![Json::str("benchmark")])),
            "the package directory is the benchmark's only path"
        );

        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names(&doc, "workloads"), workloads);
        let Some(Json::Arr(items)) = doc.get("workloads") else {
            unreachable!()
        };
        for (item, w) in items.iter().zip(WORKLOADS) {
            assert_eq!(
                item.get("why").and_then(Json::as_str),
                Some(w.why),
                "{}",
                w.name
            );
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }

        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names(&doc, "end_to_end"), e2e);
        let Some(Json::Arr(items)) = doc.get("end_to_end") else {
            unreachable!()
        };
        for (item, m) in items.iter().zip(END_TO_END) {
            assert_eq!(
                item.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                item.get("better").and_then(Json::as_str),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
            assert_eq!(
                item.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }

        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names(&doc, "per_layer"), layers);
        assert!(PER_LAYER.len() <= 128);
        let Some(Json::Arr(items)) = doc.get("per_layer") else {
            unreachable!()
        };
        for (item, m) in items.iter().zip(PER_LAYER) {
            assert_eq!(
                item.get("unit").and_then(Json::as_str),
                Some(m.unit),
                "{}",
                m.name
            );
            assert_eq!(
                item.get("better").and_then(Json::as_str),
                Some(m.better.as_str()),
                "{}",
                m.name
            );
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contracts_alphabet() {
        let mut all: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &all {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used twice");
        for kind in QUERY_KINDS {
            let name = format!("serve.query_ns.{kind}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }
}
