//! Machine-readable exporters: long-format CSV, JSON lines, and the
//! Chrome Trace Event Format.
//!
//! The CSV and JSONL encoders share one long (tidy) schema —
//! `record,cycle,router,port,vc,name,value` — so counters and sampled
//! gauges coexist in a single file that loads directly into pandas or
//! DuckDB. The Chrome encoder emits a JSON object with a `traceEvents`
//! array loadable in `chrome://tracing` or Perfetto: one complete (`"X"`)
//! slice per flit event on a `pid = router`, `tid = port·256 + vc` lane,
//! plus one async `"b"`/`"e"` pair per packet spanning injection to last
//! ejection.

use crate::anatomy::Waterfall;
use crate::event::{FlitEvent, FlitEventKind};
use crate::json::{write_str, JsonWriter};
use crate::metrics::{MetricsRegistry, RouterObs};
use std::collections::HashMap;
use std::fmt::Write as _;

/// One row of the long-format export.
struct Row<'a> {
    record: &'a str,
    cycle: Option<u64>,
    router: usize,
    port: Option<usize>,
    vc: Option<usize>,
    name: &'a str,
    value: f64,
}

fn rows<'a>(
    routers: &'a [RouterObs],
    registry: Option<&'a MetricsRegistry>,
) -> impl Iterator<Item = Row<'a>> + 'a {
    let counters = routers.iter().enumerate().flat_map(|(r, obs)| {
        let per_vc = obs.vc.iter().enumerate().flat_map(move |(idx, s)| {
            let (port, vc) = (idx / obs.vcs, idx % obs.vcs);
            [
                ("active", s.active),
                ("credit_stall", s.credit_stall),
                ("vca_stall", s.vca_stall),
                ("sa_stall", s.sa_stall),
                ("empty", s.empty),
            ]
            .into_iter()
            .map(move |(name, v)| Row {
                record: "counter",
                cycle: None,
                router: r,
                port: Some(port),
                vc: Some(vc),
                name,
                value: v as f64,
            })
        });
        let per_port = obs.out_flits.iter().enumerate().map(move |(p, &v)| Row {
            record: "counter",
            cycle: None,
            router: r,
            port: Some(p),
            vc: None,
            name: "out_flits",
            value: v as f64,
        });
        per_vc.chain(per_port)
    });
    let gauges = registry
        .map(|m| m.samples.as_slice())
        .unwrap_or(&[])
        .iter()
        .flat_map(|s| {
            [
                ("occupancy", s.occupancy as f64),
                ("busy_vcs", s.busy_vcs as f64),
                ("utilization", s.utilization),
            ]
            .into_iter()
            .map(|(name, value)| Row {
                record: "gauge",
                cycle: Some(s.cycle),
                router: s.router as usize,
                port: None,
                vc: None,
                name,
                value,
            })
        });
    counters.chain(gauges)
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Encodes the metrics as long-format CSV with a header row.
pub fn metrics_csv(routers: &[RouterObs], registry: Option<&MetricsRegistry>) -> String {
    let mut out = String::from("record,cycle,router,port,vc,name,value\n");
    for row in rows(routers, registry) {
        let opt = |o: Option<u64>| o.map(|v| v.to_string()).unwrap_or_default();
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{}",
            row.record,
            opt(row.cycle),
            row.router,
            opt(row.port.map(|p| p as u64)),
            opt(row.vc.map(|v| v as u64)),
            row.name,
            fmt_value(row.value)
        );
    }
    out
}

/// Encodes the metrics as JSON lines (one object per row of the same long
/// schema; absent coordinates are omitted).
pub fn metrics_jsonl(routers: &[RouterObs], registry: Option<&MetricsRegistry>) -> String {
    let mut w = JsonWriter::new();
    for row in rows(routers, registry) {
        w.obj(|w| {
            w.key("record").str(row.record);
            if let Some(c) = row.cycle {
                w.key("cycle").u64(c);
            }
            w.key("router").u64(row.router as u64);
            if let Some(p) = row.port {
                w.key("port").u64(p as u64);
            }
            if let Some(v) = row.vc {
                w.key("vc").u64(v as u64);
            }
            w.key("name").str(row.name);
            w.key("value").f64(row.value);
        });
        w.newline();
    }
    w.finish()
}

/// Encodes a flit-event trace in the Chrome Trace Event Format.
pub fn chrome_trace(events: &[FlitEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push('\n');
    };
    // Packet lifetime spans: injection of the head flit to the last
    // ejection seen.
    let mut spans: HashMap<u64, (u64, u64)> = HashMap::new();
    for ev in events {
        if ev.kind == FlitEventKind::Inject {
            spans.entry(ev.packet_id).or_insert((ev.cycle, ev.cycle));
        }
        if ev.kind == FlitEventKind::Eject {
            spans
                .entry(ev.packet_id)
                .and_modify(|s| s.1 = s.1.max(ev.cycle))
                .or_insert((ev.cycle, ev.cycle));
        }
    }
    let mut span_list: Vec<_> = spans.into_iter().collect();
    span_list.sort_unstable();
    for (pid, (start, end)) in span_list {
        for (ph, ts) in [("b", start), ("e", end.max(start + 1))] {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"packet\",\"cat\":\"packet\",\"ph\":\"{ph}\",\
                 \"id\":\"{pid:x}\",\"ts\":{ts},\"pid\":0,\"tid\":0}}"
            );
        }
    }
    for ev in events {
        sep(&mut out);
        out.push_str("{\"name\":");
        write_str(&mut out, ev.kind.name());
        let _ = write!(
            out,
            ",\"cat\":\"flit\",\"ph\":\"X\",\"ts\":{},\"dur\":1,\
             \"pid\":{},\"tid\":{},\"args\":{{\"packet\":\"{:x}\",\"flit\":{}}}}}",
            ev.cycle,
            ev.router,
            (ev.port as u32) * 256 + ev.vc as u32,
            ev.packet_id,
            ev.flit_index
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Encodes slow-packet waterfalls as Chrome Trace Event Format stage-wait
/// spans, so a `noc explain` top-K packet opens directly in
/// `chrome://tracing` / Perfetto.
///
/// Each packet gets an async `"b"`/`"e"` span (birth → ejection) plus its
/// source-queue and serialization waits on a per-packet `pid = 0` lane;
/// each hop contributes consecutive `"X"` slices — `vca`, `sa`, `credit`,
/// `active` — on the router's `pid = router`, `tid = port·256 + vc` lane,
/// starting at the head flit's arrival cycle (the four slices tile the
/// hop's span exactly, mirroring the ledger's reconciliation invariant).
pub fn anatomy_chrome_trace(slow: &[&Waterfall]) -> String {
    fn sep(out: &mut String, first: &mut bool) {
        if !std::mem::take(first) {
            out.push(',');
        }
        out.push('\n');
    }
    #[allow(clippy::too_many_arguments)]
    fn slice(
        out: &mut String,
        first: &mut bool,
        name: &str,
        ts: u64,
        dur: u64,
        pid: u32,
        tid: u32,
        packet: u64,
    ) {
        if dur == 0 {
            return;
        }
        sep(out, first);
        out.push_str("{\"name\":");
        write_str(out, name);
        let _ = write!(
            out,
            ",\"cat\":\"anatomy\",\"ph\":\"X\",\"ts\":{ts},\
             \"dur\":{dur},\"pid\":{pid},\"tid\":{tid},\"args\":{{\"packet\":\"{packet:x}\"}}}}"
        );
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (lane, w) in slow.iter().enumerate() {
        let p = &w.packet;
        for (ph, ts) in [("b", p.birth), ("e", p.eject.max(p.birth + 1))] {
            sep(&mut out, &mut first);
            let _ = write!(
                out,
                "{{\"name\":\"packet\",\"cat\":\"anatomy\",\"ph\":\"{ph}\",\
                 \"id\":\"{:x}\",\"ts\":{ts},\"pid\":0,\"tid\":{lane}}}",
                p.packet_id
            );
        }
        let lane = lane as u32;
        let f = &mut first;
        slice(
            &mut out,
            f,
            "src_queue",
            p.birth,
            p.stages[0],
            0,
            lane,
            p.packet_id,
        );
        slice(
            &mut out,
            f,
            "serialization",
            p.eject - p.stages[6],
            p.stages[6],
            0,
            lane,
            p.packet_id,
        );
        for h in &w.hops {
            let tid = (h.in_port as u32) * 256 + h.in_vc as u32;
            let mut ts = h.arrive;
            for (name, dur) in [
                ("vca", h.vca),
                ("sa", h.sa),
                ("credit", h.credit),
                ("active", h.active),
            ] {
                slice(&mut out, f, name, ts, dur, h.router, tid, h.packet_id);
                ts += dur;
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Encodes an [`HdrHistogram`](crate::HdrHistogram) as CSV: one row per
/// non-empty bucket with cumulative counts and quantiles, ready for
/// plotting a latency CDF.
pub fn histogram_csv(hist: &crate::HdrHistogram) -> String {
    let mut out = String::from("bucket_lower,bucket_upper,count,cumulative,quantile\n");
    let total = hist.total().max(1) as f64;
    let mut cumulative = 0u64;
    for (lower, upper, count) in hist.iter_buckets() {
        cumulative += count;
        let _ = writeln!(
            out,
            "{lower},{upper},{count},{cumulative},{:.6}",
            cumulative as f64 / total
        );
    }
    out
}

/// One row of a sweep manifest: how a single experiment point was
/// satisfied on the most recent run.
pub struct SweepManifestPoint {
    /// Human-readable point label.
    pub label: String,
    /// Content digest keying the cached result.
    pub digest: String,
    /// How the point was satisfied: `computed`, `cache` (result file
    /// existed) or `journal` (already journaled, not touched at all).
    pub source: &'static str,
    /// Wall-clock cost of satisfying the point, in milliseconds.
    pub wall_ms: u64,
    /// File name of this point's `noc-telemetry/v1` dump (relative to the
    /// sweep's cache directory), when one was recorded for this digest.
    pub telemetry: Option<String>,
    /// File name of this point's `noc-anatomy/v1` dump (relative to the
    /// sweep's cache directory), when one was recorded for this digest.
    pub anatomy: Option<String>,
}

/// Encodes a sweep-run manifest (schema `noc-sweep-manifest/v1`) as one
/// JSON document: identity (name, sweep schema, spec digest), hit/miss
/// accounting for the run, and one row per point. The hit counts are the
/// machine-checkable record that a resumed or repeated sweep recomputed
/// nothing.
#[allow(clippy::too_many_arguments)]
pub fn sweep_manifest_json(
    name: &str,
    schema: &str,
    spec_digest: &str,
    computed: usize,
    cache_hits: usize,
    journal_skips: usize,
    wall_ms: u64,
    points: &[SweepManifestPoint],
) -> String {
    JsonWriter::object(|w| {
        w.key("schema").str("noc-sweep-manifest/v1");
        w.key("name").str(name);
        w.key("sweep_schema").str(schema);
        w.key("spec_digest").str(spec_digest);
        w.key("points").u64(points.len() as u64);
        w.key("computed").u64(computed as u64);
        w.key("cache_hits").u64(cache_hits as u64);
        w.key("journal_skips").u64(journal_skips as u64);
        w.key("wall_ms").u64(wall_ms);
        w.key("results").arr(|w| {
            for p in points {
                w.obj(|w| {
                    w.key("label").str(&p.label);
                    w.key("digest").str(&p.digest);
                    w.key("source").str(p.source);
                    w.key("wall_ms").u64(p.wall_ms);
                    if let Some(t) = &p.telemetry {
                        w.key("telemetry").str(t);
                    }
                    if let Some(a) = &p.anatomy {
                        w.key("anatomy").str(a);
                    }
                });
            }
        });
    })
}

/// Encodes a percentile table (as produced by
/// [`HdrHistogram::percentile_table`](crate::HdrHistogram::percentile_table))
/// as one JSON object, `{"p50": .., "p99": ..}`, with NaN mapped to
/// `null`. Quantiles are named by their value in basis points of 100
/// (`0.999` → `"p999"`, `1.0` → `"max"`).
pub fn percentile_table_json(table: &[(f64, f64)]) -> String {
    JsonWriter::object(|w| {
        for &(q, v) in table {
            let name = if q >= 1.0 {
                "max".to_string()
            } else {
                // 0.5 -> p50, 0.99 -> p99, 0.999 -> p999.
                let pct = q * 100.0;
                if pct.fract().abs() < 1e-9 {
                    format!("p{}", pct.round() as u64)
                } else {
                    format!("p{}", (q * 1000.0).round() as u64)
                }
            };
            w.key(&name).f64(v);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use crate::metrics::StallCounters;

    fn sample_obs() -> Vec<RouterObs> {
        let mut a = RouterObs::new(2, 2);
        a.out_flits = vec![10, 3];
        a.vc[0] = StallCounters {
            active: 5,
            credit_stall: 1,
            vca_stall: 2,
            sa_stall: 3,
            empty: 89,
        };
        let b = RouterObs::new(2, 2);
        vec![a, b]
    }

    #[test]
    fn csv_has_uniform_field_counts() {
        let mut m = MetricsRegistry::new(5, 2);
        m.sample(5, [(3u32, 1u32, 8u64, 2usize), (0, 0, 0, 2)].into_iter());
        let csv = metrics_csv(&sample_obs(), Some(&m));
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(header, "record,cycle,router,port,vc,name,value");
        let cols = header.split(',').count();
        let mut n = 0;
        for l in lines {
            assert_eq!(l.split(',').count(), cols, "ragged row: {l}");
            n += 1;
        }
        // 2 routers × (2 ports × 2 vcs × 5 counters + 2 out_flits) + 2
        // gauges × 3 values.
        assert_eq!(n, 2 * (2 * 2 * 5 + 2) + 2 * 3);
        assert!(csv.contains("counter,,0,0,0,credit_stall,1"));
        assert!(csv.contains("gauge,5,0,,,occupancy,3"));
    }

    #[test]
    fn jsonl_rows_are_valid_json() {
        let mut m = MetricsRegistry::new(5, 2);
        m.sample(5, [(3u32, 1u32, 8u64, 2usize), (0, 0, 0, 2)].into_iter());
        let jsonl = metrics_jsonl(&sample_obs(), Some(&m));
        let mut n = 0;
        for line in jsonl.lines() {
            validate_json(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            n += 1;
        }
        assert_eq!(n, 2 * (2 * 2 * 5 + 2) + 2 * 3);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_packet_spans() {
        let mk = |cycle, kind, packet_id| FlitEvent {
            cycle,
            kind,
            router: 1,
            port: 2,
            vc: 1,
            packet_id,
            flit_index: 0,
        };
        let events = vec![
            mk(10, FlitEventKind::Inject, 7),
            mk(11, FlitEventKind::VcaRequest, 7),
            mk(12, FlitEventKind::SwitchTraversal, 7),
            mk(20, FlitEventKind::Eject, 7),
        ];
        let trace = chrome_trace(&events);
        validate_json(&trace).unwrap();
        assert!(trace.contains("\"ph\":\"b\""));
        assert!(trace.contains("\"ph\":\"e\""));
        assert!(trace.contains("\"name\":\"switch_traversal\""));
    }

    #[test]
    fn empty_trace_still_valid() {
        validate_json(&chrome_trace(&[])).unwrap();
    }

    #[test]
    fn anatomy_trace_tiles_each_hop_exactly() {
        use crate::anatomy::{HopRecord, PacketAnatomy, Waterfall};
        let w = Waterfall {
            packet: PacketAnatomy {
                packet_id: 0x7,
                class: 0,
                birth: 0,
                eject: 12,
                hops: 1,
                stages: [2, 1, 1, 0, 3, 2, 3],
            },
            hops: vec![HopRecord {
                packet_id: 0x7,
                router: 5,
                in_port: 2,
                in_vc: 1,
                arrive: 3,
                depart: 7,
                vca: 1,
                sa: 1,
                credit: 0,
                active: 3,
            }],
        };
        let trace = anatomy_chrome_trace(&[&w]);
        validate_json(&trace).unwrap();
        // Stage slices start at the arrival cycle and tile the span:
        // vca [3,4), sa [4,5), active [5,8) — credit is zero-width and
        // omitted.
        assert!(trace.contains("\"name\":\"vca\",\"cat\":\"anatomy\",\"ph\":\"X\",\"ts\":3"));
        assert!(trace.contains("\"name\":\"sa\",\"cat\":\"anatomy\",\"ph\":\"X\",\"ts\":4"));
        assert!(trace.contains("\"name\":\"active\",\"cat\":\"anatomy\",\"ph\":\"X\",\"ts\":5"));
        assert!(!trace.contains("\"name\":\"credit\""));
        assert!(trace.contains("\"name\":\"src_queue\""));
        assert!(trace.contains("\"name\":\"serialization\""));
        assert!(trace.contains("\"ph\":\"b\""));
        assert!(trace.contains("\"tid\":513"));
        validate_json(&anatomy_chrome_trace(&[])).unwrap();
    }

    #[test]
    fn histogram_csv_rows_are_cumulative() {
        let mut h = crate::HdrHistogram::new();
        for v in [2u64, 2, 9, 40, 40, 700] {
            h.record(v);
        }
        let csv = histogram_csv(&h);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "bucket_lower,bucket_upper,count,cumulative,quantile"
        );
        let last = lines.last().unwrap();
        assert!(last.ends_with(",6,1.000000"), "last row: {last}");
    }

    #[test]
    fn percentile_table_json_names_and_nulls() {
        let table = [(0.5, 12.0), (0.9, 20.0), (0.999, 31.5), (1.0, f64::NAN)];
        let json = percentile_table_json(&table);
        validate_json(&json).unwrap();
        assert_eq!(json, "{\"p50\":12,\"p90\":20,\"p999\":31.5,\"max\":null}");
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "{\"a\":[1,2.5,-3e2,true,false,null,\"x\\n\"]}",
            "  42  ",
            "\"\\u00e9\"",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "01x",
            "\"unterminated",
            "{}extra",
            "{'a':1}",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad}");
        }
    }
}
