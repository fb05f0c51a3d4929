//! The metric catalogue and the result line.
//!
//! Every workload reports every end-to-end metric: each is defined per
//! workload in `README.md`. A traced run reports every per-layer metric;
//! a layer a workload does not exercise reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::checks::{self, Check};

/// End-to-end metrics: `(name, unit)`, in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("rss_mib", "MiB"),
    ("cpu_ms_per_s", "ms/s"),
    ("wire_bytes_per_s", "B/s"),
    ("collect_p50_ms", "ms"),
    ("collect_p99_ms", "ms"),
];

/// Per-layer figures of a traced run. A layer the workload does not run
/// stays 0.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layers {
    pub sweep_ns_per_unit: f64,
    pub sweep_allocs_per_unit: f64,
    pub enqueue_ns_per_unit: f64,
    pub flush_ns_per_item: f64,
    pub items_per_flush: f64,
    pub dispatch_ns_per_unit: f64,
    pub encode_ns_per_item: f64,
    pub decode_ns_per_item: f64,
    pub frame_bytes_per_item: f64,
    pub frame_allocs_per_item: f64,
    pub items_per_frame: f64,
    pub bytes_per_item: f64,
    pub piggyback_ratio: f64,
    pub send_failures: f64,
    pub decode_errors: f64,
    pub reconnects: f64,
    pub flush_linger_p50_us: f64,
    pub flush_linger_p99_us: f64,
    pub loop_residual_ms_per_s: f64,
    pub idle_to_consensus_p50_ms: f64,
    pub consensus_to_collected_p50_ms: f64,
    pub collected_cyclic: f64,
    pub collected_acyclic: f64,
    pub add_activity_us: f64,
    pub add_ref_us: f64,
    pub set_idle_us: f64,
    pub send_app_us: f64,
    pub terminated_us: f64,
    pub driver_cpu_ms_per_s: f64,
    pub gen_late_p99_ms: f64,
    pub quiescent_s: f64,
    pub collect_span_s: f64,
    pub run_torture_s: f64,
    pub replay_units: f64,
    pub app_rtt_p50_ms: f64,
    pub app_rtt_p99_ms: f64,
    /// Traced minus untraced `[cpu_ms_per_s, wire_bytes_per_s,
    /// collect_p50_ms, collect_p99_ms]`.
    pub trace_overhead: [f64; 4],
}

impl Layers {
    /// Every per-layer metric: `(name, unit, value)`.
    ///
    /// Most `net.*` names below label benchmark figures, not registry
    /// counters, so the counter-completeness lint is told to pass them.
    pub fn metrics(&self) -> [(&'static str, &'static str, f64); 40] {
        let o = self.trace_overhead;
        [
            ("core.sweep.ns_per_unit", "ns", self.sweep_ns_per_unit),
            (
                "core.sweep.allocs_per_unit",
                "count",
                self.sweep_allocs_per_unit,
            ),
            (
                "core.egress.enqueue_ns_per_unit",
                "ns",
                self.enqueue_ns_per_unit,
            ),
            (
                "core.egress.flush_ns_per_item",
                "ns",
                self.flush_ns_per_item,
            ),
            ("core.egress.items_per_flush", "count", self.items_per_flush),
            ("core.dispatch.ns_per_unit", "ns", self.dispatch_ns_per_unit),
            (
                // dgc-analysis: allow(counter-completeness): benchmark metric name, not a registry counter
                "net.frame.encode_ns_per_item",
                "ns",
                self.encode_ns_per_item,
            ),
            (
                // dgc-analysis: allow(counter-completeness): benchmark metric name, not a registry counter
                "net.frame.decode_ns_per_item",
                "ns",
                self.decode_ns_per_item,
            ),
            // dgc-analysis: allow(counter-completeness): benchmark metric name, not a registry counter
            ("net.frame.bytes_per_item", "B", self.frame_bytes_per_item),
            (
                // dgc-analysis: allow(counter-completeness): benchmark metric name, not a registry counter
                "net.frame.allocs_per_item",
                "count",
                self.frame_allocs_per_item,
            ),
            // dgc-analysis: allow(counter-completeness): benchmark metric name, not a registry counter
            ("net.items_per_frame", "count", self.items_per_frame),
            // dgc-analysis: allow(counter-completeness): benchmark metric name, not a registry counter
            ("net.bytes_per_item", "B", self.bytes_per_item),
            // dgc-analysis: allow(counter-completeness): benchmark metric name, not a registry counter
            ("net.piggyback_ratio", "ratio", self.piggyback_ratio),
            ("net.send_failures", "count", self.send_failures),
            ("net.decode_errors", "count", self.decode_errors),
            ("net.reconnects", "count", self.reconnects),
            ("egress.flush_linger_p50_us", "us", self.flush_linger_p50_us),
            ("egress.flush_linger_p99_us", "us", self.flush_linger_p99_us),
            (
                // dgc-analysis: allow(counter-completeness): benchmark metric name, not a registry counter
                "net.loop_residual_ms_per_s",
                "ms/s",
                self.loop_residual_ms_per_s,
            ),
            (
                "dgc.idle_to_consensus_p50_ms",
                "ms",
                self.idle_to_consensus_p50_ms,
            ),
            (
                "dgc.consensus_to_collected_p50_ms",
                "ms",
                self.consensus_to_collected_p50_ms,
            ),
            ("dgc.collected_cyclic", "count", self.collected_cyclic),
            ("dgc.collected_acyclic", "count", self.collected_acyclic),
            ("api.add_activity_us", "us", self.add_activity_us),
            ("api.add_ref_us", "us", self.add_ref_us),
            ("api.set_idle_us", "us", self.set_idle_us),
            ("api.send_app_us", "us", self.send_app_us),
            ("api.terminated_us", "us", self.terminated_us),
            ("driver.cpu_ms_per_s", "ms/s", self.driver_cpu_ms_per_s),
            ("driver.gen_late_p99_ms", "ms", self.gen_late_p99_ms),
            ("sim.quiescent_s", "s", self.quiescent_s),
            ("sim.collect_span_s", "s", self.collect_span_s),
            ("sim.run_torture_s", "s", self.run_torture_s),
            ("replay.units", "count", self.replay_units),
            ("app.rtt_p50_ms", "ms", self.app_rtt_p50_ms),
            ("app.rtt_p99_ms", "ms", self.app_rtt_p99_ms),
            ("trace.overhead.cpu_ms_per_s", "ms/s", o[0]),
            ("trace.overhead.wire_bytes_per_s", "B/s", o[1]),
            ("trace.overhead.collect_p50_ms", "ms", o[2]),
            ("trace.overhead.collect_p99_ms", "ms", o[3]),
        ]
    }
}

/// The end-to-end figures of one run (or one window of it).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub rss_mib: f64,
    pub cpu_ms_per_s: f64,
    pub wire_bytes_per_s: f64,
    pub collect_p50_ms: f64,
    pub collect_p99_ms: f64,
}

impl EndToEnd {
    pub fn values(&self) -> [f64; 6] {
        [
            self.setup_s,
            self.rss_mib,
            self.cpu_ms_per_s,
            self.wire_bytes_per_s,
            self.collect_p50_ms,
            self.collect_p99_ms,
        ]
    }

    /// `self - untraced` for the four figures a traced window
    /// re-measures, in [`Layers::trace_overhead`] order.
    pub fn overhead_over(&self, untraced: &EndToEnd) -> [f64; 4] {
        [
            self.cpu_ms_per_s - untraced.cpu_ms_per_s,
            self.wire_bytes_per_s - untraced.wire_bytes_per_s,
            self.collect_p50_ms - untraced.collect_p50_ms,
            self.collect_p99_ms - untraced.collect_p99_ms,
        ]
    }
}

/// Everything a workload run hands back.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub e2e: EndToEnd,
    /// Per-layer values the run measured (traced runs).
    pub layers: Layers,
    /// Further figures kept in the results log only.
    pub extra: BTreeMap<String, f64>,
    pub checks: Vec<Check>,
    /// Input sizes, stamped on the record.
    pub sizes: BTreeMap<&'static str, u64>,
}

/// The printed result: the metrics of the run's mode, checked.
#[derive(Debug, Clone)]
pub struct Result {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Result {
    pub fn new(out: &Outcome, traced: bool) -> Result {
        let metrics: Vec<(&str, &str, f64)> = if traced {
            out.layers.metrics().to_vec()
        } else {
            END_TO_END
                .iter()
                .zip(out.e2e.values())
                .map(|(&(n, u), v)| (n, u, v))
                .collect()
        };
        let (mut correct, attempted, failed) = checks::verdict(&out.checks);
        // A non-finite figure cannot be printed as JSON and means a
        // measurement went wrong.
        correct &= metrics.iter().all(|m| m.2.is_finite());
        Result {
            correct,
            attempted: attempted.max(1),
            failed,
            metrics,
        }
    }

    /// The one-line JSON object the run ends with.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let layers = Layers::default().metrics();
        let per_layer = layers.iter().map(|m| (m.0, m.1));
        for (n, u) in END_TO_END.iter().copied().chain(per_layer) {
            assert!(seen.insert(n), "duplicate {n}");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(u.len() <= 16);
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let out = Outcome {
            e2e: EndToEnd {
                setup_s: 0.5,
                collect_p99_ms: 12.25,
                ..Default::default()
            },
            checks: crate::checks::socket(&crate::checks::SocketSeen {
                live: 4,
                released: 1,
                requests: 1,
                ..Default::default()
            }),
            ..Default::default()
        };
        let r = Result::new(&out, false);
        assert!(r.correct);
        let j = r.json();
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 8, \"failed\": 0"));
        assert!(j.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(j.ends_with("\"collect_p99_ms\": {\"value\": 12.25, \"unit\": \"ms\"}}}"));
        assert_eq!(Result::new(&out, true).metrics.len(), 40);
    }
}
