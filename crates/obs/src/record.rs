//! `noc-telemetry/v1` — the flight-recorder dump format and run summary.
//!
//! A telemetry dump is JSON Lines: one header object, then one object per
//! closed window. The header carries the identity of the run (the
//! `SimConfig::digest` content hash plus a human label) and the sampling
//! parameters needed to interpret the series; each window line carries the
//! network-level flit motion and a compact per-router counter row. Every
//! value is either an integer counter or a content-hash string, so dumps
//! from cycle-identical engines are byte-identical.
//!
//! [`TelemetrySummary`] is the derived per-run digest of the same series —
//! the `telemetry` block embedded in a `SimResult` JSON report. It is
//! computed by the same code whether the source is a live
//! [`FlightRecorder`](crate::FlightRecorder) or a parsed dump, so
//! `noc replay <dump>` reproduces the in-process summary byte for byte.

use crate::json::{JsonValue, JsonWriter};
use crate::timeseries::{FlightRecorder, RouterCounters, WindowSnapshot};

/// Schema tag written into every dump header and summary block.
pub const TELEMETRY_SCHEMA: &str = "noc-telemetry/v1";

/// Identity and sampling parameters of a telemetry dump (the first JSONL
/// line).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryHeader {
    /// Content digest of the recorded configuration + run window
    /// (`SimConfig::digest`), keying the dump to its cached result.
    pub digest: String,
    /// Human-readable design-point label (`mesh 2x1x2 @ 0.3`, ...).
    pub label: String,
    /// Window length in cycles.
    pub window: u64,
    /// Matching-efficiency sampling period: one sampled cycle every
    /// `match_every` windows; 0 means matching sampling was off.
    pub match_every: u64,
    /// Router count (length of each window line's `routers` array).
    pub routers: usize,
    /// Warmup cycles of the recorded run.
    pub warmup: u64,
    /// Measurement cycles of the recorded run.
    pub measure: u64,
}

impl TelemetryHeader {
    /// Serializes the header as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.key("schema").str(TELEMETRY_SCHEMA);
            w.key("digest").str(&self.digest);
            w.key("label").str(&self.label);
            w.key("window").u64(self.window);
            w.key("match_every").u64(self.match_every);
            w.key("routers").u64(self.routers as u64);
            w.key("warmup").u64(self.warmup);
            w.key("measure").u64(self.measure);
        })
    }

    fn from_value(v: &JsonValue) -> Result<TelemetryHeader, String> {
        let schema = v.str_field("schema")?;
        if schema != TELEMETRY_SCHEMA {
            return Err(format!("schema '{schema}' != '{TELEMETRY_SCHEMA}'"));
        }
        Ok(TelemetryHeader {
            digest: v.str_field("digest")?.to_string(),
            label: v.str_field("label").unwrap_or_default().to_string(),
            window: v.u64_field("window")?,
            match_every: v.u64_field("match_every")?,
            routers: v.u64_field("routers")? as usize,
            warmup: v.u64_field("warmup")?,
            measure: v.u64_field("measure")?,
        })
    }
}

/// Serializes one window snapshot as a JSONL line (no trailing newline).
/// Router rows are fixed-order 10-tuples:
/// `[out_flits, occupancy, busy_vcs, active, credit, vca, sa, empty,
/// match_granted, match_max]`.
pub fn window_jsonl(s: &WindowSnapshot) -> String {
    JsonWriter::object(|w| {
        w.key("window").u64(s.window);
        w.key("cycle").u64(s.cycle);
        w.key("injected").u64(s.injected);
        w.key("ejected").u64(s.ejected);
        w.key("in_flight").u64(s.in_flight);
        w.key("routers").arr(|w| {
            for r in &s.routers {
                w.u64s([
                    r.out_flits,
                    r.occupancy.into(),
                    r.busy_vcs.into(),
                    r.active,
                    r.credit_stall,
                    r.vca_stall,
                    r.sa_stall,
                    r.empty,
                    r.match_granted,
                    r.match_max,
                ]);
            }
        });
    })
}

fn window_from_value(v: &JsonValue) -> Result<WindowSnapshot, String> {
    let mut routers = Vec::new();
    for row in v.array_field("routers")? {
        let c: [u64; 10] = row.as_u64_array().ok_or("malformed router row")?;
        routers.push(RouterCounters {
            out_flits: c[0],
            occupancy: c[1] as u32,
            busy_vcs: c[2] as u32,
            active: c[3],
            credit_stall: c[4],
            vca_stall: c[5],
            sa_stall: c[6],
            empty: c[7],
            match_granted: c[8],
            match_max: c[9],
        });
    }
    Ok(WindowSnapshot {
        window: v.u64_field("window")?,
        cycle: v.u64_field("cycle")?,
        injected: v.u64_field("injected")?,
        ejected: v.u64_field("ejected")?,
        in_flight: v.u64_field("in_flight")?,
        routers,
    })
}

/// A parsed telemetry dump: header plus every window line, in order.
#[derive(Clone, Debug)]
pub struct TelemetryDump {
    /// The dump header (first line).
    pub header: TelemetryHeader,
    /// All window snapshots, oldest first.
    pub windows: Vec<WindowSnapshot>,
}

impl TelemetryDump {
    /// Parses a full JSONL dump. Blank lines are ignored; any malformed
    /// line is an error (dumps are machine-written).
    pub fn parse(text: &str) -> Result<TelemetryDump, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let first = lines
            .next()
            .ok_or_else(|| "empty telemetry dump".to_string())?;
        let header = JsonValue::parse(first)
            .and_then(|v| TelemetryHeader::from_value(&v))
            .map_err(|e| format!("telemetry header: {e}"))?;
        let mut windows = Vec::new();
        for (i, line) in lines.enumerate() {
            let window = JsonValue::parse(line).and_then(|v| window_from_value(&v));
            windows
                .push(window.map_err(|e| format!("dump line {}: telemetry window: {e}", i + 2))?);
        }
        Ok(TelemetryDump { header, windows })
    }

    /// The run summary derived from the dump's window series — identical
    /// to the `telemetry` block the recording run embeds in its result.
    pub fn summary(&self) -> TelemetrySummary {
        TelemetrySummary::from_windows(self.header.window, self.windows.iter())
    }
}

/// Per-run summary series: the `telemetry` block of a `SimResult` report.
#[derive(Clone, Debug, PartialEq)]
pub struct TelemetrySummary {
    /// Window length in cycles.
    pub window: u64,
    /// Windows recorded.
    pub windows: u64,
    /// Longest run of consecutive motionless windows with flits in flight.
    pub max_stalled_windows: u64,
    /// Matching efficiency per window (NaN where no matching sample fell).
    pub efficiency: Vec<f64>,
    /// Switch traversals per window, network-wide.
    pub flits: Vec<u64>,
    /// Flits in flight at each window boundary.
    pub in_flight: Vec<u64>,
}

impl TelemetrySummary {
    /// Builds the summary from a window series (a parsed dump).
    pub fn from_windows<'a>(
        window: u64,
        windows: impl Iterator<Item = &'a WindowSnapshot>,
    ) -> TelemetrySummary {
        let mut s = TelemetrySummary {
            window,
            windows: 0,
            max_stalled_windows: 0,
            efficiency: Vec::new(),
            flits: Vec::new(),
            in_flight: Vec::new(),
        };
        let mut streak = 0u64;
        for w in windows {
            s.windows += 1;
            s.efficiency.push(w.efficiency());
            s.flits.push(w.flits());
            s.in_flight.push(w.in_flight);
            if w.motionless() {
                streak += 1;
                s.max_stalled_windows = s.max_stalled_windows.max(streak);
            } else {
                streak = 0;
            }
        }
        s
    }

    /// Mean matching efficiency over the windows that carried a sample;
    /// NaN if none did.
    pub fn mean_efficiency(&self) -> f64 {
        let finite: Vec<f64> = self
            .efficiency
            .iter()
            .copied()
            .filter(|e| e.is_finite())
            .collect();
        if finite.is_empty() {
            f64::NAN
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        }
    }

    /// Serializes the summary as one JSON object. NaN maps to null, floats
    /// use shortest-roundtrip formatting, so the block round-trips
    /// bit-exactly through [`TelemetrySummary::from_value`].
    pub fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.key("schema").str(TELEMETRY_SCHEMA);
            w.key("window").u64(self.window);
            w.key("windows").u64(self.windows);
            w.key("max_stalled_windows").u64(self.max_stalled_windows);
            w.key("efficiency").arr(|w| {
                for &e in &self.efficiency {
                    w.f64(e);
                }
            });
            w.key("flits").u64s(self.flits.iter().copied());
            w.key("in_flight").u64s(self.in_flight.iter().copied());
        })
    }

    /// Reconstructs a summary from its parsed JSON object.
    pub fn from_value(v: &JsonValue) -> Result<TelemetrySummary, String> {
        let u64s = |key: &str| -> Result<Vec<u64>, String> {
            v.array_field(key)?
                .iter()
                .map(|x| {
                    x.as_u64()
                        .ok_or_else(|| format!("non-numeric {key:?} entry"))
                })
                .collect()
        };
        Ok(TelemetrySummary {
            window: v.u64_field("window")?,
            windows: v.u64_field("windows")?,
            max_stalled_windows: v.u64_field("max_stalled_windows")?,
            efficiency: v
                .array_field("efficiency")?
                .iter()
                .map(|x| x.as_f64().unwrap_or(f64::NAN))
                .collect(),
            flits: u64s("flits")?,
            in_flight: u64s("in_flight")?,
        })
    }
}

impl FlightRecorder {
    /// The run summary accumulated live — byte-identical to
    /// [`TelemetryDump::summary`] over a dump of every window this
    /// recorder closed.
    pub fn summary(&self) -> TelemetrySummary {
        let (efficiency, flits, in_flight) = self.series();
        TelemetrySummary {
            window: self.window(),
            windows: self.windows(),
            max_stalled_windows: self.max_stalled_windows(),
            efficiency: efficiency.to_vec(),
            flits: flits.to_vec(),
            in_flight: in_flight.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    fn sample_recorder() -> FlightRecorder {
        let mut rec = FlightRecorder::new(10, 8);
        for k in 1..=4u64 {
            let counters = (0..2).map(|r| RouterCounters {
                out_flits: 3 * k + r,
                occupancy: (k % 2) as u32,
                busy_vcs: 1,
                active: 3 * k + r,
                credit_stall: k,
                vca_stall: 2 * k,
                sa_stall: k / 2,
                empty: 10 * k,
                // Matching samples land on even windows only; the values
                // are cumulative (monotone), like every real counter.
                match_granted: 4 * (k / 2),
                match_max: 6 * (k / 2),
            });
            rec.record(10 * k - 1, 6 * k, 5 * k, counters);
        }
        rec
    }

    fn dump_of(rec: &FlightRecorder) -> String {
        let header = TelemetryHeader {
            digest: "d".repeat(32),
            label: "mesh 2x1x2".to_string(),
            window: rec.window(),
            match_every: 2,
            routers: 2,
            warmup: 0,
            measure: 40,
        };
        let mut text = header.to_json();
        for w in rec.ring() {
            text.push('\n');
            text.push_str(&window_jsonl(w));
        }
        text
    }

    #[test]
    fn dump_lines_are_valid_json_and_round_trip() {
        let rec = sample_recorder();
        let text = dump_of(&rec);
        for line in text.lines() {
            validate_json(line).expect(line);
        }
        let dump = TelemetryDump::parse(&text).unwrap();
        assert_eq!(dump.header.window, 10);
        assert_eq!(dump.header.match_every, 2);
        assert_eq!(dump.windows.len(), 4);
        let reparsed: Vec<String> = dump.windows.iter().map(window_jsonl).collect();
        let original: Vec<String> = rec.ring().map(window_jsonl).collect();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn replayed_summary_matches_live_summary() {
        let rec = sample_recorder();
        let dump = TelemetryDump::parse(&dump_of(&rec)).unwrap();
        assert_eq!(dump.summary().to_json(), rec.summary().to_json());
    }

    #[test]
    fn summary_json_round_trips_bit_exactly() {
        let rec = sample_recorder();
        let s = rec.summary();
        let json = s.to_json();
        validate_json(&json).unwrap();
        let back = TelemetrySummary::from_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back.to_json(), json);
        // NaN efficiency entries (windows without samples) survive as null.
        assert!(back.efficiency[0].is_nan());
        assert_eq!(back.efficiency[1], s.efficiency[1]);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TelemetryDump::parse("").is_err());
        assert!(TelemetryDump::parse("{\"schema\":\"bogus/v9\"}").is_err());
        let rec = sample_recorder();
        let mut text = dump_of(&rec);
        text.push_str("\n{\"window\":5}");
        assert!(TelemetryDump::parse(&text).is_err());
    }

    #[test]
    fn mean_efficiency_ignores_unsampled_windows() {
        let rec = sample_recorder();
        let s = rec.summary();
        // Samples land on windows 2 and 4, both with efficiency 2/3.
        assert!((s.mean_efficiency() - 2.0 / 3.0).abs() < 1e-12);
    }
}
