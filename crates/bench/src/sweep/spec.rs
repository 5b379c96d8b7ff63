//! The sweep grammar: declarative grids over simulator configurations.
//!
//! A [`SweepSpec`] is a named list of [`SweepGrid`]s; each grid is a
//! cartesian product over configuration axes plus a shared run window
//! (warmup/measure) and engine. [`SweepSpec::expand`] flattens the spec
//! into a deterministic point list — same spec, same order, always — and
//! the spec digest is computed over the *expanded point digests*, so two
//! spec files that describe the same work (even with reordered JSON keys
//! or scalar-vs-array axes) are interchangeable for journal validation.

use crate::sweep::SWEEP_SCHEMA;
use noc_arbiter::ArbiterKind;
use noc_core::{AllocatorKind, SpecMode, SwitchAllocatorKind};
use noc_obs::JsonValue;
use noc_sim::{digest_pairs, Engine, SimConfig, TopologyKind, TrafficPattern};

/// A named collection of sweep grids.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Sweep name: names the journal and manifest files.
    pub name: String,
    /// The grids; points run in grid order, then axis order.
    pub grids: Vec<SweepGrid>,
}

/// One cartesian grid of configurations sharing a run window.
#[derive(Clone, Debug)]
pub struct SweepGrid {
    /// Topology axis.
    pub topology: Vec<TopologyKind>,
    /// VCs-per-class axis.
    pub vcs: Vec<usize>,
    /// VC-allocator axis.
    pub vca: Vec<AllocatorKind>,
    /// Sparse-VCA-organization axis.
    pub vca_sparse: Vec<bool>,
    /// Switch-allocator axis.
    pub sa: Vec<SwitchAllocatorKind>,
    /// Speculation-scheme axis.
    pub spec_mode: Vec<SpecMode>,
    /// Traffic-pattern axis.
    pub pattern: Vec<TrafficPattern>,
    /// Buffer-depth axis.
    pub buf_depth: Vec<usize>,
    /// Burst-size axis.
    pub burst: Vec<usize>,
    /// Payload-length axis.
    pub payload_flits: Vec<usize>,
    /// Injection-rate axis.
    pub rates: Vec<f64>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Warmup cycles per run.
    pub warmup: u64,
    /// Measurement cycles per run.
    pub measure: u64,
    /// Engine the points prefer (overridable at run time; not part of
    /// point identity — all engines are cycle-identical).
    pub engine: Engine,
}

impl Default for SweepGrid {
    fn default() -> Self {
        let base = SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2);
        SweepGrid {
            topology: vec![base.topology],
            vcs: vec![base.vcs_per_class],
            vca: vec![base.vca_kind],
            vca_sparse: vec![base.vca_sparse],
            sa: vec![base.sa_kind],
            spec_mode: vec![base.spec_mode],
            pattern: vec![base.pattern],
            buf_depth: vec![base.buf_depth],
            burst: vec![base.burst],
            payload_flits: vec![base.payload_flits],
            rates: vec![base.injection_rate],
            seeds: vec![base.seed],
            warmup: 3_000,
            measure: 6_000,
            engine: Engine::Sequential,
        }
    }
}

/// One fully resolved point of an expanded sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Human-readable label (journal/manifest display only; identity is
    /// the digest).
    pub label: String,
    /// The resolved configuration.
    pub cfg: SimConfig,
    /// Warmup cycles.
    pub warmup: u64,
    /// Measurement cycles.
    pub measure: u64,
    /// Preferred engine.
    pub engine: Engine,
}

impl SweepPoint {
    /// The point's content digest under the sweep schema.
    pub fn digest(&self) -> String {
        self.cfg.digest(self.warmup, self.measure, SWEEP_SCHEMA)
    }
}

impl SweepGrid {
    /// Points [`SweepGrid::expand`] would produce, computed without
    /// expanding (saturating, so a hostile grid cannot overflow it).
    pub fn point_count(&self) -> usize {
        [
            self.topology.len(),
            self.vcs.len(),
            self.vca.len(),
            self.vca_sparse.len(),
            self.sa.len(),
            self.spec_mode.len(),
            self.pattern.len(),
            self.buf_depth.len(),
            self.burst.len(),
            self.payload_flits.len(),
            self.rates.len(),
            self.seeds.len(),
        ]
        .into_iter()
        .fold(1, usize::saturating_mul)
    }

    /// Expands the cartesian product in deterministic axis order.
    pub fn expand(&self) -> Vec<SweepPoint> {
        let mut out = Vec::new();
        for &topology in &self.topology {
            for &vcs in &self.vcs {
                let base = SimConfig::paper_baseline(topology, vcs);
                for &vca_kind in &self.vca {
                    for &vca_sparse in &self.vca_sparse {
                        for &sa_kind in &self.sa {
                            for &spec_mode in &self.spec_mode {
                                for &pattern in &self.pattern {
                                    for &buf_depth in &self.buf_depth {
                                        for &burst in &self.burst {
                                            for &payload_flits in &self.payload_flits {
                                                for &injection_rate in &self.rates {
                                                    for &seed in &self.seeds {
                                                        let cfg = SimConfig {
                                                            vca_kind,
                                                            vca_sparse,
                                                            sa_kind,
                                                            spec_mode,
                                                            pattern,
                                                            buf_depth,
                                                            burst,
                                                            payload_flits,
                                                            injection_rate,
                                                            seed,
                                                            ..base.clone()
                                                        };
                                                        out.push(self.point(cfg));
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn point(&self, cfg: SimConfig) -> SweepPoint {
        let label = format!(
            "{} vca={} sa={} {} {} bd{} b{} pf{} r={} s={:x}",
            cfg.label(),
            cfg.vca_kind.label(),
            cfg.sa_kind.label(),
            cfg.spec_mode.label(),
            cfg.pattern.label(),
            cfg.buf_depth,
            cfg.burst,
            cfg.payload_flits,
            cfg.injection_rate,
            cfg.seed,
        );
        SweepPoint {
            label,
            cfg,
            warmup: self.warmup,
            measure: self.measure,
            engine: self.engine,
        }
    }
}

impl SweepSpec {
    /// Points [`SweepSpec::expand`] would produce, computed without
    /// expanding.
    pub fn point_count(&self) -> usize {
        self.grids
            .iter()
            .map(SweepGrid::point_count)
            .fold(0, usize::saturating_add)
    }

    /// Expands every grid, in order.
    pub fn expand(&self) -> Vec<SweepPoint> {
        self.grids.iter().flat_map(SweepGrid::expand).collect()
    }

    /// Content digest of the expanded point set (schema included via the
    /// per-point digests). Two specs that expand to the same points — in
    /// any order — share a digest, so journals validate across
    /// reformatted spec files.
    pub fn digest(&self) -> String {
        let pairs: Vec<(String, String)> = self
            .expand()
            .iter()
            .map(|p| ("point".to_string(), p.digest()))
            .collect();
        digest_pairs(&pairs)
    }

    /// Parses a spec from its JSON form:
    ///
    /// ```json
    /// {
    ///   "name": "my-sweep",
    ///   "grids": [
    ///     {"topology": "mesh", "vcs": [1, 2], "sa": ["sep_if_rr", "wf"],
    ///      "rates": [0.1, 0.2], "warmup": 3000, "measure": 6000}
    ///   ]
    /// }
    /// ```
    ///
    /// Every axis accepts a scalar or an array and falls back to the
    /// paper-baseline default when omitted. Unknown keys are rejected so
    /// a typo can't silently shrink a sweep.
    pub fn from_json(s: &str) -> Result<SweepSpec, String> {
        let v = JsonValue::parse(s).map_err(|e| format!("sweep spec: {e}"))?;
        SweepSpec::from_value(&v)
    }

    /// Parses a spec from an already-parsed JSON document — the entry
    /// point the `noc serve` daemon uses for specs embedded inside a
    /// request line (same grammar and validation as [`Self::from_json`]).
    pub fn from_value(v: &JsonValue) -> Result<SweepSpec, String> {
        let name = v
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("sweep spec: missing string field 'name'")?
            .to_string();
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(format!(
                "sweep spec: name '{name}' must be non-empty [A-Za-z0-9_-] (it names files)"
            ));
        }
        let grids_v = v
            .get("grids")
            .and_then(JsonValue::as_array)
            .ok_or("sweep spec: missing array field 'grids'")?;
        if grids_v.is_empty() {
            return Err("sweep spec: 'grids' is empty".to_string());
        }
        let grids = grids_v
            .iter()
            .enumerate()
            .map(|(i, g)| parse_grid(g).map_err(|e| format!("sweep spec: grids[{i}]: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SweepSpec { name, grids })
    }
}

const GRID_KEYS: [&str; 15] = [
    "topology",
    "vcs",
    "vca",
    "vca_sparse",
    "sa",
    "spec",
    "pattern",
    "buf_depth",
    "burst",
    "payload_flits",
    "rates",
    "seeds",
    "warmup",
    "measure",
    "engine",
];

fn parse_grid(g: &JsonValue) -> Result<SweepGrid, String> {
    let members = match g {
        JsonValue::Obj(m) => m,
        _ => return Err("grid must be an object".to_string()),
    };
    for (k, _) in members {
        if !GRID_KEYS.contains(&k.as_str()) {
            return Err(format!("unknown grid key '{k}'"));
        }
    }
    let mut grid = SweepGrid::default();
    if let Some(v) = axis(g, "topology")? {
        grid.topology = map_axis(&v, "topology", parse_topology)?;
    }
    if let Some(v) = axis(g, "vcs")? {
        grid.vcs = map_axis(&v, "vcs", parse_usize)?;
    }
    if let Some(v) = axis(g, "vca")? {
        grid.vca = map_axis(&v, "vca", parse_vca)?;
    }
    if let Some(v) = axis(g, "vca_sparse")? {
        grid.vca_sparse = map_axis(&v, "vca_sparse", |j| {
            j.as_bool().ok_or_else(|| "expected a boolean".to_string())
        })?;
    }
    if let Some(v) = axis(g, "sa")? {
        grid.sa = map_axis(&v, "sa", parse_sa)?;
    }
    if let Some(v) = axis(g, "spec")? {
        grid.spec_mode = map_axis(&v, "spec", parse_spec_mode)?;
    }
    if let Some(v) = axis(g, "pattern")? {
        grid.pattern = map_axis(&v, "pattern", parse_pattern)?;
    }
    if let Some(v) = axis(g, "buf_depth")? {
        grid.buf_depth = map_axis(&v, "buf_depth", parse_usize)?;
    }
    if let Some(v) = axis(g, "burst")? {
        grid.burst = map_axis(&v, "burst", parse_usize)?;
    }
    if let Some(v) = axis(g, "payload_flits")? {
        grid.payload_flits = map_axis(&v, "payload_flits", parse_usize)?;
    }
    if let Some(v) = axis(g, "rates")? {
        grid.rates = map_axis(&v, "rates", |j| {
            j.as_f64()
                .filter(|r| r.is_finite() && *r > 0.0)
                .ok_or_else(|| "expected a positive number".to_string())
        })?;
    }
    if let Some(v) = axis(g, "seeds")? {
        grid.seeds = map_axis(&v, "seeds", |j| parse_usize(j).map(|s| s as u64))?;
    }
    if let Some(w) = g.get("warmup") {
        grid.warmup = parse_usize(w).map_err(|e| format!("warmup: {e}"))? as u64;
    }
    if let Some(m) = g.get("measure") {
        grid.measure = parse_usize(m).map_err(|e| format!("measure: {e}"))? as u64;
    }
    if let Some(e) = g.get("engine") {
        let name = e.as_str().ok_or("engine: expected a string")?;
        grid.engine =
            Engine::parse(name).ok_or_else(|| format!("engine: unknown engine '{name}'"))?;
    }
    for (axis_name, empty) in [
        ("topology", grid.topology.is_empty()),
        ("vcs", grid.vcs.is_empty()),
        ("rates", grid.rates.is_empty()),
        ("seeds", grid.seeds.is_empty()),
    ] {
        if empty {
            return Err(format!("axis '{axis_name}' is empty"));
        }
    }
    Ok(grid)
}

/// Reads a grid member as a list: arrays pass through, scalars become a
/// one-element list, absent keys are `None`.
#[allow(clippy::type_complexity)]
fn axis<'a>(g: &'a JsonValue, key: &str) -> Result<Option<Vec<&'a JsonValue>>, String> {
    match g.get(key) {
        None => Ok(None),
        Some(JsonValue::Arr(items)) => {
            if items.is_empty() {
                return Err(format!("axis '{key}' is empty"));
            }
            Ok(Some(items.iter().collect()))
        }
        Some(v) => Ok(Some(vec![v])),
    }
}

fn map_axis<T>(
    items: &[&JsonValue],
    key: &str,
    f: impl Fn(&JsonValue) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    items
        .iter()
        .map(|v| f(v).map_err(|e| format!("{key}: {e}")))
        .collect()
}

fn parse_usize(v: &JsonValue) -> Result<usize, String> {
    let n = v.as_f64().ok_or("expected a number")?;
    if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
        return Err(format!("expected a non-negative integer, got {n}"));
    }
    Ok(n as usize)
}

fn str_of(v: &JsonValue) -> Result<&str, String> {
    v.as_str().ok_or_else(|| "expected a string".to_string())
}

/// Topology names as the `noc` CLI spells them.
pub fn parse_topology(v: &JsonValue) -> Result<TopologyKind, String> {
    match str_of(v)? {
        "mesh" => Ok(TopologyKind::Mesh8x8),
        "fbfly" => Ok(TopologyKind::FlattenedButterfly4x4),
        "torus" => Ok(TopologyKind::Torus8x8),
        other => Err(format!("unknown topology '{other}'")),
    }
}

/// VC-allocator names as the `noc` CLI spells them.
pub fn parse_vca(v: &JsonValue) -> Result<AllocatorKind, String> {
    match str_of(v)? {
        "sep_if_rr" => Ok(AllocatorKind::SepIfRr),
        "sep_if_m" => Ok(AllocatorKind::SepIfMatrix),
        "sep_of_rr" => Ok(AllocatorKind::SepOfRr),
        "sep_of_m" => Ok(AllocatorKind::SepOfMatrix),
        "wf" => Ok(AllocatorKind::Wavefront),
        other => Err(format!("unknown allocator '{other}'")),
    }
}

/// Switch-allocator names as the `noc` CLI spells them.
pub fn parse_sa(v: &JsonValue) -> Result<SwitchAllocatorKind, String> {
    match str_of(v)? {
        "sep_if_rr" | "sep_if" => Ok(SwitchAllocatorKind::SepIf(ArbiterKind::RoundRobin)),
        "sep_if_m" => Ok(SwitchAllocatorKind::SepIf(ArbiterKind::Matrix)),
        "sep_of_rr" | "sep_of" => Ok(SwitchAllocatorKind::SepOf(ArbiterKind::RoundRobin)),
        "sep_of_m" => Ok(SwitchAllocatorKind::SepOf(ArbiterKind::Matrix)),
        "wf" => Ok(SwitchAllocatorKind::Wavefront),
        other => Err(format!("unknown switch allocator '{other}'")),
    }
}

/// Speculation-mode names as the `noc` CLI spells them.
pub fn parse_spec_mode(v: &JsonValue) -> Result<SpecMode, String> {
    match str_of(v)? {
        "nonspec" => Ok(SpecMode::NonSpeculative),
        "spec_gnt" | "conventional" => Ok(SpecMode::Conventional),
        "spec_req" | "pessimistic" => Ok(SpecMode::Pessimistic),
        other => Err(format!("unknown speculation mode '{other}'")),
    }
}

/// Traffic-pattern names as the `noc` CLI spells them.
pub fn parse_pattern(v: &JsonValue) -> Result<TrafficPattern, String> {
    let s = str_of(v)?;
    TrafficPattern::parse(s).ok_or_else(|| format!("unknown pattern '{s}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_expands_to_one_baseline_point() {
        let pts = SweepGrid::default().expand();
        assert_eq!(pts.len(), 1);
        let base = SimConfig::paper_baseline(TopologyKind::Mesh8x8, 2);
        assert_eq!(
            pts[0].digest(),
            base.digest(3_000, 6_000, SWEEP_SCHEMA),
            "default grid point is the paper baseline"
        );
        assert_eq!(pts[0].digest().len(), 32);
    }

    #[test]
    fn expansion_is_the_full_cartesian_product() {
        let grid = SweepGrid {
            topology: vec![TopologyKind::Mesh8x8, TopologyKind::Torus8x8],
            vcs: vec![1, 2],
            rates: vec![0.1, 0.2, 0.3],
            ..SweepGrid::default()
        };
        let pts = grid.expand();
        assert_eq!(pts.len(), 12);
        // Deterministic order: rates innermost-but-one, seeds innermost.
        assert!((pts[0].cfg.injection_rate - 0.1).abs() < 1e-12);
        assert!((pts[1].cfg.injection_rate - 0.2).abs() < 1e-12);
        assert_eq!(pts[0].cfg.topology, TopologyKind::Mesh8x8);
        assert_eq!(pts[6].cfg.topology, TopologyKind::Torus8x8);
        // All digests distinct.
        let mut digests: Vec<String> = pts.iter().map(SweepPoint::digest).collect();
        digests.sort();
        digests.dedup();
        assert_eq!(digests.len(), 12);
    }

    #[test]
    fn json_round_trip_and_key_order_independence() {
        let a = SweepSpec::from_json(
            r#"{"name":"t","grids":[{"topology":["mesh"],"vcs":2,"rates":[0.1,0.2],"warmup":100,"measure":200}]}"#,
        )
        .unwrap();
        let b = SweepSpec::from_json(
            r#"{"grids":[{"measure":200,"rates":[0.1,0.2],"warmup":100,"vcs":[2],"topology":"mesh"}],"name":"t"}"#,
        )
        .unwrap();
        assert_eq!(a.expand().len(), 2);
        assert_eq!(a.digest(), b.digest(), "scalar vs array, reordered keys");
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        for bad in [
            r#"{"name":"t","grids":[{"ratess":[0.1]}]}"#,
            r#"{"name":"t","grids":[{"rates":[-0.1]}]}"#,
            r#"{"name":"t","grids":[{"topology":"hypercube"}]}"#,
            r#"{"name":"t","grids":[{"engine":"warp"}]}"#,
            r#"{"name":"t","grids":[{"rates":[]}]}"#,
            r#"{"name":"t","grids":[]}"#,
            r#"{"name":"../evil","grids":[{}]}"#,
            r#"{"grids":[{}]}"#,
        ] {
            assert!(SweepSpec::from_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn spec_digest_covers_run_window() {
        let mk = |measure: u64| SweepSpec {
            name: "t".into(),
            grids: vec![SweepGrid {
                measure,
                ..SweepGrid::default()
            }],
        };
        assert_ne!(mk(100).digest(), mk(200).digest());
    }

    #[test]
    fn kind_names_match_the_cli_vocabulary() {
        let j = |s: &str| JsonValue::Str(s.to_string());
        assert_eq!(parse_vca(&j("wf")).unwrap(), AllocatorKind::Wavefront);
        assert_eq!(
            parse_sa(&j("sep_of_m")).unwrap(),
            SwitchAllocatorKind::SepOf(ArbiterKind::Matrix)
        );
        assert_eq!(
            parse_spec_mode(&j("pessimistic")).unwrap(),
            SpecMode::Pessimistic
        );
        assert_eq!(
            parse_pattern(&j("tornado")).unwrap(),
            TrafficPattern::Tornado
        );
        assert!(parse_sa(&j("maxsize")).is_err());
    }
}
