//! The names every later performance claim is made in. `BENCHMARK.json`
//! lists the same metrics for the driver; `run::check_printed` (run by the
//! smoke mode and a unit test) fails when the two disagree. The README
//! defines each metric.

use crate::stats::Better::{self, Higher, Lower};

/// An end-to-end metric: `(name, unit, direction, bound)`.
pub type EndToEnd = (&'static str, &'static str, Better, f64);
/// A per-layer metric: `(name, unit, direction)`.
pub type PerLayer = (&'static str, &'static str, Better);

pub const END_TO_END: [EndToEnd; 8] = [
    ("wall_s", "s", Lower, 0.25),
    ("setup_s", "s", Lower, 0.25),
    ("events_per_s", "events/s", Higher, 0.25),
    ("peak_rss_mib", "MiB", Lower, 0.10),
    ("alloc_mib", "MiB", Lower, 0.05),
    ("allocs_k", "kcalls", Lower, 0.05),
    ("delivery_ratio", "ratio", Higher, 0.05),
    ("tx_bytes_per_acked", "bytes", Lower, 0.20),
];

pub const PER_LAYER: [PerLayer; 78] = [
    // campaign
    ("campaign.load_plan_ms", "ms", Lower),
    ("campaign.expand_ms", "ms", Lower),
    ("campaign.run_s", "s", Lower),
    ("campaign.render_ms", "ms", Lower),
    ("campaign.jobs", "count", Higher),
    ("campaign.report_bytes", "bytes", Lower),
    ("campaign.cpu_per_wall", "ratio", Higher),
    ("campaign.json_parse_mb_s", "MB/s", Higher),
    ("campaign.json_canonical_mb_s", "MB/s", Higher),
    ("campaign.spec_roundtrip_us", "us", Lower),
    // scenario
    ("scenario.build_s", "s", Lower),
    ("scenario.bootstrap_s", "s", Lower),
    ("scenario.formation_s", "s", Lower),
    ("scenario.traffic_s", "s", Lower),
    ("scenario.report_s", "s", Lower),
    ("scenario.build_us_per_host", "us", Lower),
    ("scenario.hosts_ready_share", "ratio", Higher),
    // sim
    ("sim.events", "count", Lower),
    ("sim.rx_frames", "count", Lower),
    ("sim.tx_bytes", "bytes", Lower),
    ("sim.ticks", "count", Lower),
    ("sim.busy_s", "s", Lower),
    ("sim.ns_per_event", "ns", Lower),
    ("sim.timer_ns_per_event", "ns", Lower),
    ("sim.bcast_ns_per_rx", "ns", Lower),
    ("sim.sharded2_wall_ratio", "ratio", Lower),
    // wire
    ("wire.secure_ctl_encode_ns", "ns", Lower),
    ("wire.secure_ctl_decode_ns", "ns", Lower),
    ("wire.secure_ctl_bytes", "bytes", Lower),
    ("wire.data_encode_ns", "ns", Lower),
    ("wire.data_decode_ns", "ns", Lower),
    ("wire.rreq_peek_ns", "ns", Lower),
    ("wire.may_verify_peek_ns", "ns", Lower),
    ("wire.cga_generate_us", "us", Lower),
    ("wire.cga_verify_us", "us", Lower),
    // crypto
    ("crypto.keygen_ms", "ms", Lower),
    ("crypto.sign_us", "us", Lower),
    ("crypto.verify_us", "us", Lower),
    ("crypto.sha256_mb_s", "MB/s", Higher),
    ("crypto.cache_hit_ns", "ns", Lower),
    ("crypto.cache_miss_ns", "ns", Lower),
    ("crypto.batch_dup_tick_us", "us", Lower),
    ("crypto.batch_unique_tick_us", "us", Lower),
    ("crypto.inline_tick_us", "us", Lower),
    ("crypto.signs", "count", Lower),
    ("crypto.verifies", "count", Lower),
    ("crypto.demand", "count", Lower),
    ("crypto.cached", "count", Higher),
    ("crypto.cache_hit_ratio", "ratio", Higher),
    ("crypto.verify_failed", "count", Lower),
    ("crypto.batch_requests", "count", Lower),
    ("crypto.batch_executed", "count", Lower),
    ("crypto.batch_amortization", "ratio", Higher),
    ("crypto.keygen_est_s", "s", Lower),
    ("crypto.sign_est_s", "s", Lower),
    ("crypto.verify_est_s", "s", Lower),
    ("crypto.est_share", "ratio", Lower),
    // node / plain
    ("node.data_sent", "count", Higher),
    ("node.data_acked", "count", Higher),
    ("node.data_failed", "count", Lower),
    ("node.rreq_sent", "count", Lower),
    ("node.rrep_sent", "count", Lower),
    ("node.crep_sent", "count", Higher),
    ("node.rerr_sent", "count", Lower),
    ("node.rejected", "count", Higher),
    ("node.collisions", "count", Lower),
    ("node.handler_est_s", "s", Lower),
    ("node.handler_share", "ratio", Lower),
    // routecache
    ("routecache.insert_ns", "ns", Lower),
    ("routecache.best_ns", "ns", Lower),
    // mem
    ("mem.rss_kib_per_host", "KiB", Lower),
    ("alloc.build_k", "kcalls", Lower),
    ("alloc.traffic_k", "kcalls", Lower),
    ("alloc.per_event", "allocs/event", Lower),
    // harness: how far to trust the run
    ("host.spin_ms", "ms", Lower),
    ("host.disturbed_share", "ratio", Lower),
    ("bench.reps", "count", Higher),
    ("trace.overhead_share", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_of(name: &str) -> Option<&'static str> {
        END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .find(|(n, _)| *n == name)
            .map(|(_, unit)| unit)
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            let unit = unit_of(n).unwrap();
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a metric name is used twice");
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_the_cap() {
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1, setup.2), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3 && m.3 <= 0.25));
    }
}
