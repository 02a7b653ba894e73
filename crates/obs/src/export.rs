//! Exporters: JSON-lines traces, Prometheus-style text exposition,
//! folded stacks for flamegraphs, and the human-readable stage report.
//!
//! All exporters read a finished (or in-flight) recording through any
//! [`ObsSink`] handle; they never mutate it. Output ordering is
//! deterministic given the recorded data: spans export in open order,
//! metrics in `(shard, name)` order.

use crate::{ObsSink, SpanRecord, Stage};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, Write};

/// Label a span's shard context for folded stacks and the stage report.
fn context_label(span: &SpanRecord) -> String {
    match span.shard {
        Some(shard) => format!("shard{}", shard.0),
        None => "main".to_string(),
    }
}

/// Wall microseconds spent in each span *itself*, excluding enclosed
/// child spans — the folded-stack weight.
fn self_times_us(spans: &[SpanRecord]) -> Vec<u64> {
    let mut child_total = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_total[parent] += span.duration_us();
        }
    }
    spans
        .iter()
        .zip(&child_total)
        .map(|(span, &children)| span.duration_us().saturating_sub(children))
        .collect()
}

impl ObsSink {
    /// Write the trace as JSON lines: one object per span, in open order.
    /// Fields: `span` (stage name), `path`, `shard` (absent for the
    /// unsharded context), `day`, `fetch_seq`, `start_us`, `end_us`,
    /// `dur_us` — wall times are microseconds since the sink's epoch and
    /// differ run to run; the `(day, fetch_seq, shard)` stamp is what
    /// lines traces up across shards and replays.
    pub fn write_trace_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for span in self.spans() {
            let mut line = String::new();
            let _ = write!(line, "{{\"span\":\"{}\",\"path\":\"{}\"", span.stage.name(), span.path);
            if let Some(shard) = span.shard {
                let _ = write!(line, ",\"shard\":{}", shard.0);
            }
            let end = span.end_us.unwrap_or(span.start_us);
            let _ = write!(
                line,
                ",\"day\":{},\"fetch_seq\":{},\"start_us\":{},\"end_us\":{},\"dur_us\":{}}}",
                fmt_f64(span.clock.day),
                span.clock.fetch_seq,
                span.start_us,
                end,
                span.duration_us()
            );
            writeln!(out, "{line}")?;
        }
        Ok(())
    }

    /// Write every registry in Prometheus text exposition format. Each
    /// series carries a `shard` label for sharded contexts, so a fleet
    /// dump is a per-shard series set that any Prometheus-compatible
    /// toolchain can aggregate.
    pub fn write_prometheus(&self, out: &mut impl Write) -> io::Result<()> {
        let registries = self.registries();
        // TYPE headers once per metric name, then all shards' samples.
        let mut counter_names: BTreeMap<&str, ()> = BTreeMap::new();
        let mut gauge_names: BTreeMap<&str, ()> = BTreeMap::new();
        let mut histogram_names: BTreeMap<&str, ()> = BTreeMap::new();
        for (_, registry) in &registries {
            counter_names.extend(registry.counters().map(|(name, _)| (name, ())));
            gauge_names.extend(registry.gauges().map(|(name, _)| (name, ())));
            histogram_names.extend(registry.histograms().map(|(name, _)| (name, ())));
        }
        for name in counter_names.keys() {
            writeln!(out, "# TYPE webevo_{name} counter")?;
            for (shard, registry) in &registries {
                if registry.counters().any(|(n, _)| n == *name) {
                    let labels = shard_labels(*shard);
                    writeln!(out, "webevo_{name}{labels} {}", registry.counter(name))?;
                }
            }
        }
        for name in gauge_names.keys() {
            writeln!(out, "# TYPE webevo_{name} gauge")?;
            for (shard, registry) in &registries {
                if let Some(value) = registry.gauge_value(name) {
                    let labels = shard_labels(*shard);
                    writeln!(out, "webevo_{name}{labels} {}", fmt_f64(value))?;
                }
            }
        }
        for name in histogram_names.keys() {
            writeln!(out, "# TYPE webevo_{name} histogram")?;
            for (shard, registry) in &registries {
                let Some(histogram) = registry.histogram(name) else { continue };
                let mut cumulative = 0u64;
                for (edge, &count) in histogram.edges().iter().zip(histogram.buckets()) {
                    cumulative += count;
                    writeln!(
                        out,
                        "webevo_{name}_bucket{} {cumulative}",
                        le_labels(*shard, &fmt_f64(*edge))
                    )?;
                }
                writeln!(
                    out,
                    "webevo_{name}_bucket{} {}",
                    le_labels(*shard, "+Inf"),
                    histogram.count()
                )?;
                let labels = shard_labels(*shard);
                writeln!(out, "webevo_{name}_sum{labels} {}", fmt_f64(histogram.sum()))?;
                writeln!(out, "webevo_{name}_count{labels} {}", histogram.count())?;
            }
        }
        Ok(())
    }

    /// Write the trace as folded stacks (`context;stage;stage weight`),
    /// weighted by self wall time in microseconds — the input format of
    /// `flamegraph.pl` and inferno.
    pub fn write_folded(&self, out: &mut impl Write) -> io::Result<()> {
        let spans = self.spans();
        let self_us = self_times_us(&spans);
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for (span, &weight) in spans.iter().zip(&self_us) {
            if weight == 0 {
                continue;
            }
            let key = format!("{};{}", context_label(span), span.path);
            *folded.entry(key).or_default() += weight;
        }
        for (path, weight) in folded {
            writeln!(out, "{path} {weight}")?;
        }
        Ok(())
    }

    /// The end-of-run stage-time report: per stage, the span count, total
    /// and self wall time, and each stage's share of all self time —
    /// where the run actually went, at a glance.
    pub fn stage_report(&self) -> String {
        let spans = self.spans();
        let self_us = self_times_us(&spans);
        struct Row {
            count: u64,
            total_us: u64,
            self_us: u64,
        }
        let mut rows: BTreeMap<Stage, Row> = BTreeMap::new();
        for (span, &own) in spans.iter().zip(&self_us) {
            let row = rows
                .entry(span.stage)
                .or_insert(Row { count: 0, total_us: 0, self_us: 0 });
            row.count += 1;
            row.total_us += span.duration_us();
            row.self_us += own;
        }
        let grand_self: u64 = rows.values().map(|r| r.self_us).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18}{:>8}{:>12}{:>12}{:>9}",
            "stage", "spans", "total", "self", "share"
        );
        let mut ordered: Vec<(Stage, Row)> = rows.into_iter().collect();
        ordered.sort_by_key(|(_, row)| std::cmp::Reverse(row.self_us));
        for (stage, row) in ordered {
            let share = if grand_self == 0 {
                0.0
            } else {
                row.self_us as f64 * 100.0 / grand_self as f64
            };
            let _ = writeln!(
                out,
                "{:<18}{:>8}{:>12}{:>12}{:>8.1}%",
                stage.name(),
                row.count,
                fmt_duration_us(row.total_us),
                fmt_duration_us(row.self_us),
                share
            );
        }
        if out.lines().count() == 1 {
            let _ = writeln!(out, "(no spans recorded)");
        }
        out
    }
}

fn shard_labels(shard: Option<webevo_types::ShardId>) -> String {
    match shard {
        Some(shard) => format!("{{shard=\"{}\"}}", shard.0),
        None => String::new(),
    }
}

fn le_labels(shard: Option<webevo_types::ShardId>, le: &str) -> String {
    match shard {
        Some(shard) => format!("{{shard=\"{}\",le=\"{le}\"}}", shard.0),
        None => format!("{{le=\"{le}\"}}"),
    }
}

/// Format an f64 as a JSON/Prometheus-safe number (no NaN/inf are ever
/// recorded by this crate's callers; clamp defensively anyway).
fn fmt_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Human-scale duration: µs under 1 ms, ms under 10 s, else seconds.
fn fmt_duration_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}us")
    } else if us < 10_000_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogicalClock;
    use webevo_types::ShardId;

    fn traced_sink() -> ObsSink {
        let sink = ObsSink::recording();
        let shard = sink.for_shard(ShardId(0));
        {
            let _drive = shard.span(Stage::Drive, LogicalClock::new(0.0, 0));
            {
                let _batch = shard.span(Stage::FetchBatch, LogicalClock::new(0.2, 9));
                let _sample = shard.span(Stage::Sample, LogicalClock::new(0.5, 9));
            }
            let _flush = shard.span(Stage::WalFlush, LogicalClock::new(1.0, 30));
        }
        shard.add("fetch_ok_total", 30);
        shard.gauge("queue_depth", 12.0);
        shard.observe("wal_flush_records", 30.0);
        sink.add("exchange_barriers_total", 2);
        sink
    }

    #[test]
    fn jsonl_trace_has_one_parseable_object_per_span() {
        let sink = traced_sink();
        let mut buffer = Vec::new();
        sink.write_trace_jsonl(&mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"span\":\"drive\""));
        assert!(lines[1].contains("\"path\":\"drive;fetch_batch\""));
        assert!(lines[1].contains("\"shard\":0"));
        assert!(lines[1].contains("\"fetch_seq\":9"));
        assert!(lines[2].contains("\"span\":\"sample\""));
        assert!(lines[2].contains("\"path\":\"drive;fetch_batch;sample\""));
        assert!(lines[2].contains("\"day\":0.5"));
    }

    #[test]
    fn prometheus_exposition_is_labelled_per_shard() {
        let sink = traced_sink();
        let mut buffer = Vec::new();
        sink.write_prometheus(&mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        assert!(text.contains("# TYPE webevo_fetch_ok_total counter"));
        assert!(text.contains("webevo_fetch_ok_total{shard=\"0\"} 30"));
        assert!(text.contains("webevo_exchange_barriers_total 2"));
        assert!(text.contains("webevo_queue_depth{shard=\"0\"} 12"));
        assert!(text.contains("# TYPE webevo_wal_flush_records histogram"));
        assert!(text.contains("webevo_wal_flush_records_bucket{shard=\"0\",le=\"32\"} 1"));
        assert!(text.contains("webevo_wal_flush_records_bucket{shard=\"0\",le=\"+Inf\"} 1"));
        assert!(text.contains("webevo_wal_flush_records_count{shard=\"0\"} 1"));
    }

    #[test]
    fn folded_stacks_weight_self_time() {
        let sink = traced_sink();
        let mut buffer = Vec::new();
        sink.write_folded(&mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        for line in text.lines() {
            let (path, weight) = line.rsplit_once(' ').expect("path weight");
            assert!(path.starts_with("shard0;drive"), "{line}");
            assert!(weight.parse::<u64>().unwrap() > 0, "{line}");
        }
    }

    #[test]
    fn stage_report_lists_every_recorded_stage() {
        let sink = traced_sink();
        let report = sink.stage_report();
        assert!(report.contains("drive"));
        assert!(report.contains("fetch_batch"));
        assert!(report.contains("sample"));
        assert!(report.contains("wal_flush"));
        assert!(report.contains('%'));
        // And the empty sink says so rather than printing a bare header.
        assert!(ObsSink::noop().stage_report().contains("no spans recorded"));
    }
}
