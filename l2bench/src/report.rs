//! Metric names, units and the per-layer breakdown shared by all workloads.

use crate::stats::{valid_metric_name, Metric};
use crate::traced::Spans;

/// End-to-end metrics: every workload reports each of them (untraced run).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("pkts_per_s", "1/s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("rss_peak_mb", "MB"),
];

/// Per-layer metrics: every workload reports each of them (traced run); a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("core.mutator.ns_per_pkt", "ns"),
    ("core.mutator.allocs_per_pkt", "count"),
    ("core.queue.ns_per_pkt", "ns"),
    ("core.queue.allocs_per_pkt", "count"),
    ("hci.medium.self_ns_per_frame", "ns"),
    ("hci.medium.events_per_pkt", "count"),
    ("btcore.event.ctx_switches_per_pkt", "count"),
    ("btstack.endpoint.ns_per_frame", "ns"),
    ("btstack.endpoint.allocs_per_frame", "count"),
    ("btstack.endpoint.restarts", "count"),
    ("l2cap.decode_ns_per_frame", "ns"),
    ("l2cap.encode_ns_per_frame", "ns"),
    ("sniffer.analysis_ns_per_frame", "ns"),
    ("core.scanner.us_per_campaign", "us"),
    ("core.guide.us_per_state", "us"),
    ("core.guide.prelude_pkts_per_state", "count"),
    ("core.detector.ns_per_check", "ns"),
    ("core.detector.pings_per_pkt", "count"),
    ("feedback.us_per_campaign", "us"),
    ("feedback.corpus_entries", "count"),
    ("core.campaign.env_us", "us"),
    ("core.campaign.allocs_per_pkt", "count"),
    ("service.save_ms", "ms"),
    ("service.bytes_per_commit", "bytes"),
    ("service.checkpoint_bytes", "bytes"),
    ("service.load_ms", "ms"),
    ("service.verify_ms", "ms"),
    ("service.persist_share", "share"),
    ("mutation_efficiency", "ratio"),
    ("rejection_ratio", "ratio"),
    ("pkts_to_detect_p50", "count"),
    ("detect_reruns_per_op", "count"),
    ("failed_share", "share"),
    ("trace.overhead_share", "share"),
    ("host.calib_us", "us"),
    ("trace.unattributed_share", "share"),
];

/// Builds the metric list for `table` (one of the two constants above) from
/// `(name, value)` pairs; names the workload did not set read 0.
pub fn metrics(table: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    for (name, _) in table {
        assert!(valid_metric_name(name), "bad metric name {name}");
    }
    for (name, _) in values {
        assert!(
            table.iter().any(|(known, _)| known == name),
            "unlisted metric {name}"
        );
    }
    table
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_owned(),
            unit,
            value: values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
        })
        .collect()
}

/// Ratio that reads 0 when nothing was counted.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Table VII counts summed over a run's traces.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TableVii {
    pub transmitted: usize,
    pub malformed: usize,
    pub received: usize,
    pub rejections: usize,
}

impl TableVii {
    pub fn add(&mut self, m: &sniffer::MetricsSummary) {
        self.transmitted += m.transmitted;
        self.malformed += m.malformed;
        self.received += m.received;
        self.rejections += m.rejections;
    }

    pub fn add_counts(&mut self, other: &TableVii) {
        self.transmitted += other.transmitted;
        self.malformed += other.malformed;
        self.received += other.received;
        self.rejections += other.rejections;
    }

    /// `(mutation efficiency, rejection ratio)` over everything added.
    pub fn ratios(&self) -> (f64, f64) {
        let m = sniffer::MetricsSummary::from_counts(
            self.transmitted,
            self.malformed,
            self.received,
            self.rejections,
            0,
        );
        (m.mutation_efficiency, m.pr_ratio)
    }
}

/// One row of the per-layer table: self time in ns.
pub struct Row {
    pub layer: &'static str,
    pub ns: u64,
}

/// The layer rows of a traced run, disjoint by construction: every span's
/// endpoint share is moved to the endpoint row.
pub fn rows(spans: &Spans) -> Vec<Row> {
    vec![
        Row {
            layer: "core.campaign (env)",
            ns: spans.env.ns,
        },
        Row {
            layer: "core.scanner",
            ns: spans.scanner.self_ns(),
        },
        Row {
            layer: "core.guide",
            ns: spans.guide.self_ns(),
        },
        Row {
            layer: "core.mutator",
            ns: spans.mutator.self_ns(),
        },
        Row {
            layer: "core.queue + hci.medium",
            ns: spans.queue.self_ns(),
        },
        Row {
            layer: "core.detector",
            ns: spans.detector.self_ns(),
        },
        Row {
            layer: "feedback",
            ns: spans.feedback.self_ns(),
        },
        Row {
            layer: "btstack.endpoint",
            ns: spans.endpoint_ns,
        },
        Row {
            layer: "sniffer",
            ns: spans.sniffer.ns,
        },
    ]
}

/// Prints the per-layer table and returns the unattributed share of
/// `wall_ns`.
pub fn print_rows(rows: &[Row], wall_ns: u64, overhead: f64) -> f64 {
    let attributed: u64 = rows.iter().map(|r| r.ns).sum();
    let unattributed = wall_ns as i128 - attributed as i128;
    println!("  per-layer self time over the traced time (each initiator thread counted once):");
    for row in rows {
        println!(
            "    {:<28} {:>14.3} ms  {:>6.2} %",
            row.layer,
            row.ns as f64 / 1e6,
            per(row.ns as f64, wall_ns as f64) * 100.0
        );
    }
    println!(
        "    {:<28} {:>14.3} ms  {:>6.2} %",
        "unattributed",
        unattributed as f64 / 1e6,
        per(unattributed as f64, wall_ns as f64) * 100.0
    );
    println!(
        "    {:<28} {:>14.3} ms  100.00 %",
        "= traced time",
        wall_ns as f64 / 1e6
    );
    println!(
        "  tracing overhead: {:.2} % (traced minus untraced wall, over untraced wall)",
        overhead * 100.0
    );
    per(unattributed as f64, wall_ns as f64)
}

/// Prints metrics as `name value unit` lines.
pub fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("  {title}:");
    for m in metrics {
        println!(
            "    {:<36} {:>18} {}",
            m.name,
            format_value(m.value),
            m.unit
        );
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.6}")
    } else {
        format!("{v:.3}")
    }
}
