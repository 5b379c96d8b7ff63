#![forbid(unsafe_code)]
//! Flit-level observability for the NoC simulator.
//!
//! Three layers, usable independently:
//!
//! - [`event`]: a [`TraceSink`] trait receiving one [`FlitEvent`] per
//!   flit-lifecycle step (injection, routing, VC allocation, switch
//!   allocation, switch traversal, ejection). The sink is selected at
//!   compile time through a generic parameter on the simulator, and the
//!   no-op sink ([`NopSink`]) advertises `ACTIVE = false` so every
//!   instrumentation site folds to nothing — tracing costs zero when off.
//! - [`metrics`]: always-on per-router counters ([`RouterObs`]) with
//!   **stall-cause attribution** — every input VC is classified each cycle
//!   as moving a flit, stalled on credits, stalled on VC allocation,
//!   stalled on switch allocation, or empty — plus an opt-in sampled
//!   time series ([`MetricsRegistry`]) of buffer occupancy and channel
//!   utilization.
//! - [`export`]: machine-readable encoders — long-format CSV and JSON
//!   lines for the metrics, and the Chrome Trace Event Format (loadable
//!   in `chrome://tracing` / Perfetto) for the packet timeline.
//! - [`hist`]: a log-linear HDR-style latency histogram with bounded
//!   relative error, exact low-latency buckets, and interpolated
//!   percentile queries — the substrate for every reported quantile.
//! - [`profile`]: self-profiling. A [`PhaseProfiler`] attributes
//!   wall-time and event rates to the router pipeline phases (routing,
//!   VC allocation, switch allocation, traversal, credits); the no-op
//!   implementation compiles every clock read away, mirroring the sink
//!   design.
//! - [`json`]: the one JSON codec — a strict reader ([`JsonValue`]) with
//!   typed field getters, and a writer ([`JsonWriter`]) that owns string
//!   escaping, the number rule (shortest round-trip, non-finite → `null`)
//!   and the separators of every document this workspace emits.
//! - [`digest`]: order-sensitive FNV-1a trace digests ([`DigestSink`]),
//!   the substrate of the cycle-exact engine-equivalence and golden-trace
//!   test layers.
//! - [`progress`]: a thread-safe progress/ETA meter for long experiment
//!   sweeps; the manifest exporter in [`export`] records how each sweep
//!   point was satisfied (computed / cache / journal).
//! - [`timeseries`]: the bounded-memory flight recorder — windowed
//!   per-router counter snapshots ([`WindowSnapshot`]) in a fixed-capacity
//!   ring ([`FlightRecorder`]), including the consecutive-stalled-window
//!   signal the simulator's deadlock watchdog trips on.
//! - [`record`]: the `noc-telemetry/v1` dump format (JSON Lines) and the
//!   derived per-run [`TelemetrySummary`] — shared between live recording
//!   and `noc replay`, so a replayed dump summarizes byte-identically.
//! - [`top`]: terminal frames for `noc top` (congestion heatmap +
//!   matching-efficiency sparkline), rendered as plain strings.
//! - [`anatomy`]: the per-packet latency ledger behind `noc explain` —
//!   hop-by-hop stage attribution ([`HopRecord`]), the folding collector
//!   ([`AnatomyCollector`]) with exact reconciliation against end-to-end
//!   latency, and the `noc-anatomy/v1` dump format with a replay-identical
//!   blame report ([`AnatomySummary`]).
//! - [`serve`]: the `noc-serve/v1` wire schema for the sweep-as-a-service
//!   daemon — request/response/progress line builders and the
//!   [`ServeEvent`] client-side parser.

pub mod anatomy;
pub mod digest;
pub mod event;
pub mod export;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod record;
pub mod serve;
pub mod timeseries;
pub mod top;

pub use anatomy::{
    render_waterfall, AnatomyCollector, AnatomyDump, AnatomyHeader, AnatomySummary, AnatomyTotals,
    HopRecord, PacketAnatomy, Waterfall, ANATOMY_SCHEMA, STAGE_COUNT, STAGE_NAMES,
};
pub use digest::DigestSink;
pub use event::{CountingSink, FlitEvent, FlitEventKind, NopSink, TraceSink, VecSink};
pub use export::{
    anatomy_chrome_trace, chrome_trace, histogram_csv, metrics_csv, metrics_jsonl,
    percentile_table_json, sweep_manifest_json, SweepManifestPoint,
};
pub use hist::{HdrHistogram, DEFAULT_QUANTILES};
pub use json::{validate_json, JsonValue, JsonWriter};
pub use metrics::{GaugeSample, MetricsRegistry, RouterBreakdown, RouterObs, StallCounters};
pub use profile::{NopProfiler, Phase, PhaseProfiler, Profiler, PHASES};
pub use progress::ProgressMeter;
pub use record::{
    window_jsonl, TelemetryDump, TelemetryHeader, TelemetrySummary, TELEMETRY_SCHEMA,
};
pub use serve::{
    serve_accepted_line, serve_done_line, serve_error_line, serve_preset_request_line,
    serve_result_line, serve_status_line, serve_status_request_line, serve_sweep_request_line,
    ServeEvent, SERVE_SCHEMA,
};
pub use timeseries::{FlightRecorder, RouterCounters, WindowSnapshot};
pub use top::render_top;
