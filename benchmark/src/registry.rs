//! Every metric the benchmark emits: name, unit, which way is better, and
//! whether it is an exact count. `BENCHMARK.json` at the repository root
//! lists the same names (a test holds the two together) and adds the
//! bounds; this table adds what that file has no key for — exactness.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count the program makes, identical on every run of the same code
    /// and seed: `compare` checks it for equality ("behaviour changed"),
    /// never for speed.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Emitted by every workload with `--trace 0`. What an "op" is depends on
/// the workload: a VM operation executed under recording (`record-soak`),
/// a job from flush to replayed certificate (`diagnose-corpus`), a failed
/// replay attempt (`explore-deep`), a MiB ingested cold (`ingest-large`).
pub const END_TO_END: [Metric; 6] = [
    timing("setup_s", "s", Lower),
    timing("ops_per_s", "1/s", Higher),
    timing("op_ms_p50", "ms", Lower),
    timing("op_ms_p90", "ms", Lower),
    timing("cpu_ms_per_op", "ms", Lower),
    timing("peak_rss_mib", "MiB", Lower),
];

/// Emitted by every workload with `--trace 1`; 0 where the workload does
/// not exercise the layer.
pub const PER_LAYER: [Metric; 64] = [
    // tvm
    timing("tvm.vm.native_ops_per_s", "1/s", Higher),
    timing("tvm.vm.pick_us", "us", Lower),
    exact("tvm.vm.picks", "count"),
    exact("tvm.vm.total_ops", "count"),
    timing("tvm.vm.serial_ops_per_s", "1/s", Higher),
    exact("tvm.pool.os_spawns_per_run", "count"),
    timing("tvm.pool.spawned_workers", "count", Lower),
    exact("tvm.snapshot.bytes_per_checkpoint", "B"),
    timing("tvm.snapshot.decode_us", "us", Lower),
    // core.recorder
    timing("core.recorder.wall_ratio", "ratio", Lower),
    timing("core.recorder.event_ns", "ns", Lower),
    timing("core.recorder.finish_us", "us", Lower),
    exact("core.recorder.overhead_pct_model", "%"),
    exact("core.recorder.seeds_per_failure", "count"),
    // core.codec / core.sketch
    exact("core.codec.sketch_bytes_per_kop", "B"),
    timing("core.codec.encode_mib_per_s", "MiB/s", Higher),
    timing("core.codec.decode_mib_per_s", "MiB/s", Higher),
    timing("core.codec.decode_small_us", "us", Lower),
    timing("core.sketch.index_build_us", "us", Lower),
    // core.explore (with core.replay)
    timing("core.explore.attempt_us", "us", Lower),
    exact("core.explore.attempts_to_reproduce", "count"),
    timing("core.explore.first_cert_ms", "ms", Lower),
    timing("core.explore.checkpoint_verify_us", "us", Lower),
    exact("core.explore.attempts_per_job", "count"),
    timing("core.explore.par_attempts_per_s", "1/s", Higher),
    // core.feedback / race.hb
    timing("core.feedback.extract_ns_per_event", "ns", Lower),
    exact("core.feedback.candidates_per_attempt", "count"),
    timing("race.hb.detect_ns_per_event", "ns", Lower),
    // core.certificate
    timing("core.certificate.decode_us", "us", Lower),
    timing("core.certificate.replay_us", "us", Lower),
    exact("core.certificate.bytes", "B"),
    // svc
    timing("svc.digest.sha256_mib_per_s", "MiB/s", Higher),
    timing("svc.store.put_small_us", "us", Lower),
    timing("svc.store.put_mib_per_s", "MiB/s", Higher),
    timing("svc.store.get_mib_per_s", "MiB/s", Higher),
    timing("svc.store.put_dup_us", "us", Lower),
    timing("svc.journal.append_us", "us", Lower),
    timing("svc.journal.records_per_sync", "count", Higher),
    timing("svc.flush.write_us", "us", Lower),
    timing("svc.cache.hit_share", "ratio", Higher),
    timing("svc.cache.get_ns", "ns", Lower),
    timing("svc.cache.rss_per_cached_mib", "MiB/MiB", Lower),
    timing("svc.cache.reingest_mib_per_s", "MiB/s", Higher),
    timing("svc.queue.wait_ms_p50", "ms", Lower),
    timing("svc.queue.drain_s", "s", Lower),
    timing("svc.queue.flush_to_cert_ms_p99", "ms", Lower),
    timing("svc.server.rtt_us_p50", "us", Lower),
    timing("svc.server.stream_mib_per_s", "MiB/s", Higher),
    timing("svc.server.start_ms", "ms", Lower),
    timing("svc.server.restart_ms", "ms", Lower),
    timing("svc.client.polls_per_job", "count", Lower),
    timing("svc.cluster.peer_put_mib_per_s", "MiB/s", Higher),
    timing("svc.cluster.peer_get_mib_per_s", "MiB/s", Higher),
    timing("svc.cluster.peer_stat_us", "us", Lower),
    // Traced-pass stages: mean self time per traced operation.
    timing("stage.job_ms", "ms", Lower),
    timing("stage.codec_encode_ms", "ms", Lower),
    timing("stage.flush_write_ms", "ms", Lower),
    timing("stage.submit_ms", "ms", Lower),
    timing("stage.queue_wait_ms", "ms", Lower),
    timing("stage.fetch_ms", "ms", Lower),
    timing("stage.cert_decode_ms", "ms", Lower),
    timing("stage.cert_replay_ms", "ms", Lower),
    timing("stage.residue_ms", "ms", Lower),
    // What the spans themselves cost: traced vs. plain trial wall time.
    timing("bench.trace_overhead_pct", "%", Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, section: &str) -> Vec<(String, String, String)> {
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn as_listed<'a>(metrics: impl Iterator<Item = &'a Metric>) -> Vec<(String, String, String)> {
        metrics
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.name().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), as_listed(END_TO_END.iter()));
        assert_eq!(listed(&doc, "per_layer"), as_listed(PER_LAYER.iter()));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')));
        }
        assert!(END_TO_END.iter().all(|m| !m.exact));
        assert_eq!(find("ops_per_s").map(|m| m.better), Some(Better::Higher));
        assert!(find("tvm.vm.picks").unwrap().exact);
        assert!(find("nope").is_none());
    }
}
