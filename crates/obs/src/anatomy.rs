//! `noc-anatomy/v1` — per-packet latency anatomy.
//!
//! The simulator's stall classifier already decides, every cycle, why each
//! input VC is not moving (credit stall, switch-allocation stall, VC-
//! allocation stall). This module turns those per-cycle verdicts into a
//! **packet ledger**: per-hop stage accumulators stamped while a packet's
//! head flit waits at a router, folded on ejection into
//!
//! - full-population per-stage sums and HDR histograms (the blame report
//!   decomposing mean and p99 end-to-end latency into stacked stages),
//! - a capped list of per-packet stage rows (with a dropped counter), and
//! - the top-K slowest packets with their complete hop-by-hop waterfalls.
//!
//! The invariant is exact reconciliation: each packet's seven stage
//! components sum to `eject - birth`, cycle for cycle. The stages:
//!
//! | stage           | meaning                                             |
//! |-----------------|-----------------------------------------------------|
//! | `src_queue`     | source-queue wait (birth → head injection)          |
//! | `vca`           | VC-allocation wait, incl. head-of-line residual     |
//! | `sa`            | switch-allocation wait (losing or bidding)          |
//! | `credit`        | credit wait (output VC owned, no downstream buffer) |
//! | `active`        | switch-traversal cycles (grant + traversal)         |
//! | `wire`          | link/pipeline flight of the head flit between hops  |
//! | `serialization` | tail trailing the head at the destination           |
//!
//! Everything here is deterministic given the fold order (hop records in
//! router-id order, ejections in event order — both engine-invariant), so
//! `noc-anatomy/v1` dumps are byte-identical across seq/par/active.

use crate::hist::HdrHistogram;
use crate::json::{JsonValue, JsonWriter};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Schema tag written into every anatomy dump header and summary block.
pub const ANATOMY_SCHEMA: &str = "noc-anatomy/v1";

/// Number of latency stage components (the end-to-end total is stage
/// index [`STAGE_COUNT`] in histogram/percentile arrays).
pub const STAGE_COUNT: usize = 7;

/// Stage names, in component order (summaries and dump rows share it).
pub const STAGE_NAMES: [&str; STAGE_COUNT] = [
    "src_queue",
    "vca",
    "sa",
    "credit",
    "active",
    "wire",
    "serialization",
];

/// One hop's attribution: what the packet's head flit did between arriving
/// at a router's input buffer and traversing its switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopRecord {
    /// Packet the head flit belongs to.
    pub packet_id: u64,
    /// Router the hop crossed.
    pub router: u32,
    /// Input port the head arrived on.
    pub in_port: u16,
    /// Input VC the head arrived on.
    pub in_vc: u16,
    /// Cycle the head entered the input buffer.
    pub arrive: u64,
    /// Cycle the head traversed the switch.
    pub depart: u64,
    /// Cycles charged to VC allocation (incl. head-of-line residual).
    pub vca: u64,
    /// Cycles charged to switch allocation.
    pub sa: u64,
    /// Cycles charged to credit starvation.
    pub credit: u64,
    /// Cycles the head was moving (grant + traversal).
    pub active: u64,
}

impl HopRecord {
    /// Cycles the head spent in this router, arrival and departure
    /// inclusive.
    pub fn span(&self) -> u64 {
        self.depart - self.arrive + 1
    }

    /// Per-hop reconciliation: the four stage counters partition the span.
    pub fn reconciles(&self) -> bool {
        self.vca + self.sa + self.credit + self.active == self.span()
    }
}

/// A folded packet: its identity plus the seven stage components.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketAnatomy {
    /// Packet id (`(source terminal) << 48 | sequence`).
    pub packet_id: u64,
    /// Message class (0 = request, 1 = reply).
    pub class: u8,
    /// Cycle the packet was born at its source terminal.
    pub birth: u64,
    /// Cycle the tail flit reached the destination terminal.
    pub eject: u64,
    /// Router hops crossed.
    pub hops: u32,
    /// Stage components in [`STAGE_NAMES`] order.
    pub stages: [u64; STAGE_COUNT],
}

impl PacketAnatomy {
    /// End-to-end latency, exactly as `NetStats` measures it.
    pub fn total(&self) -> u64 {
        self.eject - self.birth
    }

    /// The tentpole invariant: stage components sum to `eject - birth`.
    pub fn reconciles(&self) -> bool {
        self.stages.iter().sum::<u64>() == self.total()
    }
}

/// The top-K waterfall entry: a slow packet with its per-hop records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Waterfall {
    /// The folded packet row.
    pub packet: PacketAnatomy,
    /// Its hops, in traversal order.
    pub hops: Vec<HopRecord>,
}

/// Full-population accumulators — every in-window packet lands here
/// regardless of the retained-row cap, so the blame report is exact.
#[derive(Clone, Debug, PartialEq)]
pub struct AnatomyTotals {
    /// In-window packets folded.
    pub packets: u64,
    /// Packets per message class (requests, replies).
    pub class_packets: [u64; 2],
    /// Per-packet rows beyond the retention cap (counted, not stored).
    pub dropped: u64,
    /// Per-stage cycle sums in [`STAGE_NAMES`] order.
    pub sums: [u64; STAGE_COUNT],
    /// Per-stage histograms plus the end-to-end total (last entry).
    pub hists: Vec<HdrHistogram>,
}

impl Default for AnatomyTotals {
    fn default() -> Self {
        AnatomyTotals {
            packets: 0,
            class_packets: [0; 2],
            dropped: 0,
            sums: [0; STAGE_COUNT],
            hists: vec![HdrHistogram::new(); STAGE_COUNT + 1],
        }
    }
}

impl AnatomyTotals {
    fn record(&mut self, p: &PacketAnatomy) {
        self.packets += 1;
        self.class_packets[(p.class as usize).min(1)] += 1;
        for (i, &v) in p.stages.iter().enumerate() {
            self.sums[i] += v;
            self.hists[i].record(v);
        }
        self.hists[STAGE_COUNT].record(p.total());
    }

    /// Sum of every stage sum — exactly the sum of end-to-end latencies.
    pub fn total_sum(&self) -> u64 {
        self.sums.iter().sum()
    }
}

#[derive(Clone, Debug, Default)]
struct InFlight {
    birth: u64,
    head_injected: u64,
    head_eject: u64,
    hops: Vec<HopRecord>,
}

/// The network-level ledger: ingests hop records and ejection events (both
/// on the main thread, in deterministic order) and folds each packet on
/// tail ejection.
#[derive(Clone, Debug)]
pub struct AnatomyCollector {
    capacity: usize,
    top_k: usize,
    in_flight: HashMap<u64, InFlight>,
    /// Exact full-population accumulators.
    pub totals: AnatomyTotals,
    /// Retained per-packet rows, fold order, capped at `capacity`.
    pub records: Vec<PacketAnatomy>,
    /// Top-K slowest packets (unordered; [`AnatomyCollector::slowest`]
    /// sorts).
    pub slow: Vec<Waterfall>,
}

impl AnatomyCollector {
    /// A collector retaining at most `capacity` per-packet rows and the
    /// `top_k` slowest waterfalls.
    pub fn new(capacity: usize, top_k: usize) -> AnatomyCollector {
        AnatomyCollector {
            capacity,
            top_k,
            in_flight: HashMap::new(),
            totals: AnatomyTotals::default(),
            records: Vec::new(),
            slow: Vec::new(),
        }
    }

    /// Ingests one hop record. Callers must preserve a deterministic order
    /// (the simulator drains router outputs in router-id order every
    /// cycle) — ordering is part of the byte-identity contract.
    pub fn ingest_hop(&mut self, hop: HopRecord) {
        self.in_flight
            .entry(hop.packet_id)
            .or_default()
            .hops
            .push(hop);
    }

    /// The packet's head flit reached its destination terminal.
    pub fn eject_head(&mut self, packet_id: u64, birth: u64, injected: u64, now: u64) {
        let fl = self.in_flight.entry(packet_id).or_default();
        fl.birth = birth;
        fl.head_injected = injected;
        fl.head_eject = now;
    }

    /// The packet's tail flit reached the terminal: fold the ledger.
    /// `in_window` mirrors `NetStats`' measurement-window rule, so the
    /// anatomy population is exactly the latency-sample population.
    pub fn eject_tail(&mut self, packet_id: u64, class: u8, now: u64, in_window: bool) {
        let Some(fl) = self.in_flight.remove(&packet_id) else {
            debug_assert!(false, "tail ejected for unseen packet {packet_id:#x}");
            return;
        };
        if !in_window {
            return;
        }
        let (mut vca, mut sa, mut credit, mut active, mut span) = (0u64, 0u64, 0u64, 0u64, 0u64);
        for h in &fl.hops {
            debug_assert!(h.reconciles(), "hop counters must partition the span");
            vca += h.vca;
            sa += h.sa;
            credit += h.credit;
            active += h.active;
            span += h.span();
        }
        let head_flight = fl.head_eject - fl.head_injected;
        debug_assert!(
            span <= head_flight,
            "hop spans exceed head flight time ({span} > {head_flight})"
        );
        let p = PacketAnatomy {
            packet_id,
            class,
            birth: fl.birth,
            eject: now,
            hops: fl.hops.len() as u32,
            stages: [
                fl.head_injected - fl.birth,
                vca,
                sa,
                credit,
                active,
                head_flight - span,
                now - fl.head_eject,
            ],
        };
        debug_assert!(p.reconciles(), "stage sums must equal eject - birth");
        self.totals.record(&p);
        if self.records.len() < self.capacity {
            self.records.push(p);
        } else {
            self.totals.dropped += 1;
        }
        if self.top_k == 0 {
            return;
        }
        if self.slow.len() < self.top_k {
            self.slow.push(Waterfall {
                packet: p,
                hops: fl.hops,
            });
            return;
        }
        let mut min_i = 0;
        for (i, w) in self.slow.iter().enumerate() {
            if w.packet.total() < self.slow[min_i].packet.total() {
                min_i = i;
            }
        }
        // Strict greater-than: on ties the earlier-folded packet stays,
        // which keeps the selection deterministic.
        if p.total() > self.slow[min_i].packet.total() {
            self.slow[min_i] = Waterfall {
                packet: p,
                hops: fl.hops,
            };
        }
    }

    /// Packets whose tails have not ejected yet (left un-attributed).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The waterfalls, slowest first (ties broken by packet id).
    pub fn slowest(&self) -> Vec<&Waterfall> {
        sorted_slow(&self.slow)
    }

    /// The blame report derived from the full-population totals.
    pub fn summary(&self) -> AnatomySummary {
        AnatomySummary::from_totals(&self.totals)
    }

    /// Serializes the collector as a full `noc-anatomy/v1` dump.
    pub fn to_jsonl(&self, header: &AnatomyHeader) -> String {
        dump_jsonl(header, &self.totals, &self.records, &self.slowest())
    }
}

fn sorted_slow(slow: &[Waterfall]) -> Vec<&Waterfall> {
    let mut v: Vec<&Waterfall> = slow.iter().collect();
    v.sort_by(|a, b| {
        b.packet
            .total()
            .cmp(&a.packet.total())
            .then(a.packet.packet_id.cmp(&b.packet.packet_id))
    });
    v
}

/// Identity line of an anatomy dump (the first JSONL line).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnatomyHeader {
    /// `SimConfig::digest` of the run, keying the dump to its result.
    pub digest: String,
    /// Human-readable design-point label.
    pub label: String,
    /// Router count of the simulated topology.
    pub routers: usize,
    /// Warmup cycles of the run.
    pub warmup: u64,
    /// Measurement cycles of the run.
    pub measure: u64,
    /// Per-packet row retention cap the collector ran with.
    pub capacity: u64,
    /// Waterfall count the collector ran with.
    pub top_k: u64,
}

impl AnatomyHeader {
    /// Serializes the header as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.key("schema").str(ANATOMY_SCHEMA);
            w.key("digest").str(&self.digest);
            w.key("label").str(&self.label);
            w.key("routers").u64(self.routers as u64);
            w.key("warmup").u64(self.warmup);
            w.key("measure").u64(self.measure);
            w.key("capacity").u64(self.capacity);
            w.key("top_k").u64(self.top_k);
        })
    }

    fn from_value(v: &JsonValue) -> Result<AnatomyHeader, String> {
        let schema = v.str_field("schema")?;
        if schema != ANATOMY_SCHEMA {
            return Err(format!("schema '{schema}' != '{ANATOMY_SCHEMA}'"));
        }
        Ok(AnatomyHeader {
            digest: v.str_field("digest")?.to_string(),
            label: v.str_field("label").unwrap_or_default().to_string(),
            routers: v.u64_field("routers")? as usize,
            warmup: v.u64_field("warmup")?,
            measure: v.u64_field("measure")?,
            capacity: v.u64_field("capacity")?,
            top_k: v.u64_field("top_k")?,
        })
    }
}

fn write_totals(w: &mut JsonWriter, t: &AnatomyTotals) {
    w.obj(|w| {
        w.key("packets").u64(t.packets);
        w.key("requests").u64(t.class_packets[0]);
        w.key("replies").u64(t.class_packets[1]);
        w.key("dropped").u64(t.dropped);
        w.key("sums").u64s(t.sums);
        w.key("hists").arr(|w| {
            for h in &t.hists {
                h.write_json(w);
            }
        });
    });
}

fn totals_from_value(v: &JsonValue) -> Result<AnatomyTotals, String> {
    let sums = v.field("sums")?.as_u64_array().ok_or("malformed sums")?;
    let hist_rows = v
        .array_field("hists")
        .ok()
        .filter(|a| a.len() == STAGE_COUNT + 1)
        .ok_or("malformed hists")?;
    Ok(AnatomyTotals {
        packets: v.u64_field("packets")?,
        class_packets: [v.u64_field("requests")?, v.u64_field("replies")?],
        dropped: v.u64_field("dropped")?,
        sums,
        hists: hist_rows
            .iter()
            .map(HdrHistogram::from_json)
            .collect::<Result<_, _>>()?,
    })
}

fn write_packet_row(w: &mut JsonWriter, p: &PacketAnatomy) {
    w.arr(|w| {
        w.str(&format!("{:016x}", p.packet_id));
        w.u64(p.class.into())
            .u64(p.birth)
            .u64(p.eject)
            .u64(p.hops.into());
        for &s in &p.stages {
            w.u64(s);
        }
    });
}

fn packet_from_cells(cells: &[JsonValue]) -> Result<PacketAnatomy, String> {
    if cells.len() != 5 + STAGE_COUNT {
        return Err("malformed packet row".to_string());
    }
    let packet_id = cells[0]
        .as_str()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .ok_or("malformed packet id")?;
    let mut nums = [0u64; 4 + STAGE_COUNT];
    for (n, c) in nums.iter_mut().zip(&cells[1..]) {
        *n = c.as_u64().ok_or("non-numeric packet cell")?;
    }
    let mut stages = [0u64; STAGE_COUNT];
    stages.copy_from_slice(&nums[4..]);
    Ok(PacketAnatomy {
        packet_id,
        class: nums[0] as u8,
        birth: nums[1],
        eject: nums[2],
        hops: nums[3] as u32,
        stages,
    })
}

fn write_waterfall(w: &mut JsonWriter, wf: &Waterfall) {
    w.obj(|w| {
        w.key("slow");
        write_packet_row(w, &wf.packet);
        w.key("hops").arr(|w| {
            for h in &wf.hops {
                w.u64s([
                    h.router.into(),
                    h.in_port.into(),
                    h.in_vc.into(),
                    h.arrive,
                    h.depart,
                    h.vca,
                    h.sa,
                    h.credit,
                    h.active,
                ]);
            }
        });
    });
}

fn waterfall_from_value(v: &JsonValue) -> Result<Waterfall, String> {
    let packet = packet_from_cells(v.array_field("slow")?)?;
    let mut hops = Vec::new();
    for row in v.array_field("hops")? {
        let [router, in_port, in_vc, arrive, depart, vca, sa, credit, active] =
            row.as_u64_array().ok_or("malformed hop row")?;
        hops.push(HopRecord {
            packet_id: packet.packet_id,
            router: router as u32,
            in_port: in_port as u16,
            in_vc: in_vc as u16,
            arrive,
            depart,
            vca,
            sa,
            credit,
            active,
        });
    }
    Ok(Waterfall { packet, hops })
}

fn dump_jsonl(
    header: &AnatomyHeader,
    totals: &AnatomyTotals,
    records: &[PacketAnatomy],
    slow: &[&Waterfall],
) -> String {
    let mut w = JsonWriter::new();
    w.raw(&header.to_json()).newline();
    write_totals(&mut w, totals);
    w.newline();
    for p in records {
        w.obj(|w| {
            w.key("pkt");
            write_packet_row(w, p);
        });
        w.newline();
    }
    for wf in slow {
        write_waterfall(&mut w, wf);
        w.newline();
    }
    w.finish()
}

/// A parsed `noc-anatomy/v1` dump.
#[derive(Clone, Debug)]
pub struct AnatomyDump {
    /// The dump header (first line).
    pub header: AnatomyHeader,
    /// Full-population accumulators (second line).
    pub totals: AnatomyTotals,
    /// Retained per-packet rows, fold order.
    pub records: Vec<PacketAnatomy>,
    /// Slowest-packet waterfalls, slowest first.
    pub slow: Vec<Waterfall>,
}

impl AnatomyDump {
    /// Parses a full JSONL dump. Blank lines are ignored; any malformed
    /// line is an error (dumps are machine-written).
    pub fn parse(text: &str) -> Result<AnatomyDump, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let first = lines
            .next()
            .ok_or_else(|| "empty anatomy dump".to_string())?;
        let header = JsonValue::parse(first)
            .and_then(|v| AnatomyHeader::from_value(&v))
            .map_err(|e| format!("anatomy header: {e}"))?;
        let second = lines
            .next()
            .ok_or_else(|| "anatomy dump: missing totals line".to_string())?;
        let totals = JsonValue::parse(second)
            .and_then(|v| totals_from_value(&v))
            .map_err(|e| format!("anatomy totals: {e}"))?;
        let mut records = Vec::new();
        let mut slow = Vec::new();
        for (i, line) in lines.enumerate() {
            let row = JsonValue::parse(line).and_then(|v| {
                if let Some(cells) = v.get("pkt").and_then(JsonValue::as_array) {
                    records.push(packet_from_cells(cells)?);
                } else if v.get("slow").is_some() {
                    slow.push(waterfall_from_value(&v)?);
                } else {
                    return Err("unknown row kind".to_string());
                }
                Ok(())
            });
            row.map_err(|e| format!("anatomy dump line {}: {e}", i + 3))?;
        }
        Ok(AnatomyDump {
            header,
            totals,
            records,
            slow,
        })
    }

    /// The blame report derived from the dump — identical to the live
    /// [`AnatomyCollector::summary`] of the run that wrote it.
    pub fn summary(&self) -> AnatomySummary {
        AnatomySummary::from_totals(&self.totals)
    }

    /// Re-serializes the dump byte-identically to the original.
    pub fn to_jsonl(&self) -> String {
        dump_jsonl(
            &self.header,
            &self.totals,
            &self.records,
            &sorted_slow(&self.slow),
        )
    }
}

/// The blame report: mean/p50/p99/max per stage plus the end-to-end total
/// (last row of each array), derived from full-population accumulators.
#[derive(Clone, Debug, PartialEq)]
pub struct AnatomySummary {
    /// In-window packets folded.
    pub packets: u64,
    /// Request-class packets.
    pub requests: u64,
    /// Reply-class packets.
    pub replies: u64,
    /// Per-packet rows dropped beyond the retention cap.
    pub dropped: u64,
    /// Per-stage cycle sums in [`STAGE_NAMES`] order.
    pub sums: [u64; STAGE_COUNT],
    /// Mean cycles per stage; last entry is the end-to-end mean.
    pub mean: [f64; STAGE_COUNT + 1],
    /// Median cycles per stage; last entry is the end-to-end median.
    pub p50: [f64; STAGE_COUNT + 1],
    /// 99th percentile per stage; last entry is end-to-end p99.
    pub p99: [f64; STAGE_COUNT + 1],
    /// Maximum cycles per stage; last entry is the end-to-end maximum.
    pub max: [u64; STAGE_COUNT + 1],
}

impl AnatomySummary {
    /// Builds the report from accumulators (live collector or parsed
    /// dump — same code, so replay summaries are byte-identical).
    pub fn from_totals(t: &AnatomyTotals) -> AnatomySummary {
        let n = t.packets as f64;
        let mut mean = [f64::NAN; STAGE_COUNT + 1];
        let mut p50 = [f64::NAN; STAGE_COUNT + 1];
        let mut p99 = [f64::NAN; STAGE_COUNT + 1];
        let mut max = [0u64; STAGE_COUNT + 1];
        for i in 0..=STAGE_COUNT {
            let sum = if i < STAGE_COUNT {
                t.sums[i]
            } else {
                t.total_sum()
            };
            if t.packets > 0 {
                mean[i] = sum as f64 / n;
            }
            if let Some(h) = t.hists.get(i) {
                p50[i] = h.percentile(0.5);
                p99[i] = h.percentile(0.99);
                max[i] = h.max().unwrap_or(0);
            }
        }
        AnatomySummary {
            packets: t.packets,
            requests: t.class_packets[0],
            replies: t.class_packets[1],
            dropped: t.dropped,
            sums: t.sums,
            mean,
            p50,
            p99,
            max,
        }
    }

    /// Sum of every stage sum (total attributed cycles).
    pub fn total_sum(&self) -> u64 {
        self.sums.iter().sum()
    }

    /// Serializes the report as one JSON object (NaN maps to null).
    pub fn to_json(&self) -> String {
        JsonWriter::object(|w| {
            w.key("schema").str(ANATOMY_SCHEMA);
            w.key("packets").u64(self.packets);
            w.key("requests").u64(self.requests);
            w.key("replies").u64(self.replies);
            w.key("dropped").u64(self.dropped);
            w.key("stages").obj(|w| {
                for i in 0..=STAGE_COUNT {
                    let (name, sum) = if i < STAGE_COUNT {
                        (STAGE_NAMES[i], self.sums[i])
                    } else {
                        ("total", self.total_sum())
                    };
                    w.key(name).obj(|w| {
                        w.key("sum").u64(sum);
                        w.key("mean").f64(self.mean[i]);
                        w.key("p50").f64(self.p50[i]);
                        w.key("p99").f64(self.p99[i]);
                        w.key("max").u64(self.max[i]);
                    });
                }
            });
        })
    }

    /// Renders the per-stage breakdown table `noc explain` prints.
    pub fn render(&self) -> String {
        let mut out = format!(
            "packets          {} in window ({} requests, {} replies; {} ledger rows dropped)\n",
            self.packets, self.requests, self.replies, self.dropped
        );
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>9} {:>9} {:>8} {:>7}",
            "stage", "mean", "p50", "p99", "max", "share"
        );
        let total_sum = self.total_sum();
        let cell = |v: f64| -> String {
            if v.is_finite() {
                format!("{v:.2}")
            } else {
                "-".to_string()
            }
        };
        for i in 0..=STAGE_COUNT {
            let (name, sum) = if i < STAGE_COUNT {
                (STAGE_NAMES[i], self.sums[i])
            } else {
                ("total", total_sum)
            };
            let share = if total_sum > 0 {
                format!("{:.1}%", 100.0 * sum as f64 / total_sum as f64)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{:<16} {:>9} {:>9} {:>9} {:>8} {:>7}",
                name,
                cell(self.mean[i]),
                cell(self.p50[i]),
                cell(self.p99[i]),
                self.max[i],
                share
            );
        }
        out
    }
}

/// Renders one slow-packet waterfall as the indented hop-by-hop text block
/// `noc explain` prints under the breakdown table.
pub fn render_waterfall(w: &Waterfall) -> String {
    let p = &w.packet;
    let class = if p.class == 0 { "request" } else { "reply" };
    let mut out = format!(
        "packet {:016x} ({class}) born {} ejected {}: {} cycles over {} hop(s)\n",
        p.packet_id,
        p.birth,
        p.eject,
        p.total(),
        p.hops
    );
    let _ = write!(out, "  stages:");
    for (i, name) in STAGE_NAMES.iter().enumerate() {
        if p.stages[i] > 0 {
            let _ = write!(out, " {name} {}", p.stages[i]);
        }
    }
    out.push('\n');
    for h in &w.hops {
        let _ = writeln!(
            out,
            "  hop router {:>3} in {}#{}: arrive {} depart {} (vca {}, sa {}, credit {}, \
             active {})",
            h.router, h.in_port, h.in_vc, h.arrive, h.depart, h.vca, h.sa, h.credit, h.active
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    fn hop(packet_id: u64, router: u32, arrive: u64, depart: u64, stages: [u64; 4]) -> HopRecord {
        HopRecord {
            packet_id,
            router,
            in_port: 0,
            in_vc: 0,
            arrive,
            depart,
            vca: stages[0],
            sa: stages[1],
            credit: stages[2],
            active: stages[3],
        }
    }

    /// A small deterministic ledger: two in-window packets (one slow, one
    /// fast) plus a warmup packet that must be excluded.
    fn sample_collector(capacity: usize, top_k: usize) -> AnatomyCollector {
        let mut c = AnatomyCollector::new(capacity, top_k);
        // Warmup packet: folded out of window, contributes nothing.
        c.ingest_hop(hop(9, 0, 1, 2, [0, 0, 0, 2]));
        c.eject_head(9, 0, 0, 3);
        c.eject_tail(9, 0, 3, false);
        // Packet 1: birth 0, injected 2, two hops, head eject 9, tail 12.
        c.ingest_hop(hop(1, 0, 3, 5, [1, 1, 0, 1]));
        c.ingest_hop(hop(1, 1, 7, 8, [0, 0, 0, 2]));
        c.eject_head(1, 0, 2, 9);
        c.eject_tail(1, 0, 12, true);
        // Packet 2 (reply): one hop, total 4.
        c.ingest_hop(hop(2, 3, 11, 12, [0, 0, 0, 2]));
        c.eject_head(2, 10, 10, 13);
        c.eject_tail(2, 1, 14, true);
        c
    }

    fn header() -> AnatomyHeader {
        AnatomyHeader {
            digest: "a".repeat(32),
            label: "mesh 8x8 @ 0.25".to_string(),
            routers: 64,
            warmup: 10,
            measure: 100,
            capacity: 4,
            top_k: 2,
        }
    }

    #[test]
    fn fold_reconciles_exactly() {
        let c = sample_collector(4, 2);
        assert_eq!(c.totals.packets, 2);
        assert_eq!(c.totals.class_packets, [1, 1]);
        assert_eq!(c.in_flight(), 0);
        let p1 = c.records[0];
        // src_queue 2, vca 1, sa 1, credit 0, active 3, wire 2, ser 3.
        assert_eq!(p1.stages, [2, 1, 1, 0, 3, 2, 3]);
        assert_eq!(p1.total(), 12);
        for p in &c.records {
            assert!(p.reconciles(), "{p:?}");
        }
        assert_eq!(c.totals.total_sum(), 12 + 4);
    }

    #[test]
    fn out_of_window_packets_are_excluded_but_cleared() {
        let c = sample_collector(4, 2);
        // The warmup packet folded (no leak) without entering any total.
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.totals.packets, 2);
        assert_eq!(c.records.len(), 2);
    }

    #[test]
    fn capacity_caps_rows_and_counts_drops() {
        let c = sample_collector(1, 2);
        assert_eq!(c.records.len(), 1);
        assert_eq!(c.totals.dropped, 1);
        // The full-population report is unaffected by the cap.
        assert_eq!(c.totals.packets, 2);
        assert_eq!(c.summary().dropped, 1);
    }

    #[test]
    fn top_k_keeps_the_slowest() {
        let c = sample_collector(4, 1);
        assert_eq!(c.slow.len(), 1);
        assert_eq!(c.slow[0].packet.packet_id, 1);
        assert_eq!(c.slow[0].hops.len(), 2);
        let slowest = c.slowest();
        assert_eq!(slowest[0].packet.total(), 12);
    }

    #[test]
    fn dump_round_trips_byte_identically() {
        let c = sample_collector(4, 2);
        let text = c.to_jsonl(&header());
        for line in text.lines() {
            validate_json(line).expect(line);
        }
        let dump = AnatomyDump::parse(&text).unwrap();
        assert_eq!(dump.records, c.records);
        assert_eq!(dump.totals, c.totals);
        assert_eq!(dump.to_jsonl(), text);
    }

    #[test]
    fn replayed_summary_matches_live_summary() {
        let c = sample_collector(4, 2);
        let dump = AnatomyDump::parse(&c.to_jsonl(&header())).unwrap();
        assert_eq!(dump.summary().to_json(), c.summary().to_json());
        validate_json(&c.summary().to_json()).unwrap();
    }

    #[test]
    fn large_packet_ids_survive_the_dump() {
        // (terminal 63) << 48 | seq exceeds 2^53: ids must round-trip
        // through the hex-string encoding, not a lossy f64.
        let id = (63u64 << 48) | 1;
        let mut c = AnatomyCollector::new(4, 2);
        c.ingest_hop(hop(id, 0, 1, 2, [0, 0, 0, 2]));
        c.eject_head(id, 0, 0, 3);
        c.eject_tail(id, 0, 3, true);
        let dump = AnatomyDump::parse(&c.to_jsonl(&header())).unwrap();
        assert_eq!(dump.records[0].packet_id, id);
        assert_eq!(dump.slow[0].hops[0].packet_id, id);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(AnatomyDump::parse("").is_err());
        assert!(AnatomyDump::parse("{\"schema\":\"bogus/v9\"}").is_err());
        let c = sample_collector(4, 2);
        let mut text = c.to_jsonl(&header());
        text.push_str("{\"mystery\":1}\n");
        assert!(AnatomyDump::parse(&text).is_err());
        // Header without the totals line is truncated, not empty.
        assert!(AnatomyDump::parse(&header().to_json()).is_err());
    }

    #[test]
    fn summary_render_mentions_every_stage() {
        let c = sample_collector(4, 2);
        let table = c.summary().render();
        for name in STAGE_NAMES {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
        assert!(table.contains("total"));
        let wf = render_waterfall(c.slowest()[0]);
        assert!(wf.contains("hop router"));
        assert!(wf.contains("12 cycles"));
    }

    #[test]
    fn empty_collector_summarizes_without_nan_panics() {
        let c = AnatomyCollector::new(4, 2);
        let s = c.summary();
        assert_eq!(s.packets, 0);
        assert!(s.mean[0].is_nan());
        validate_json(&s.to_json()).unwrap();
        let dump = AnatomyDump::parse(&c.to_jsonl(&header())).unwrap();
        assert_eq!(dump.summary().to_json(), s.to_json());
    }
}
