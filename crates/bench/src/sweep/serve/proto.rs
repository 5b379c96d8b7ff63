//! Daemon-side parsing of `noc-serve/v1` request lines.
//!
//! The wire framing (schema tag, line builders, client-side event
//! parser) lives in `noc_obs::serve`; this module turns an incoming
//! request line into a validated [`ServeRequest`] — resolving presets by
//! name and embedded specs through the full [`SweepSpec`] grammar, so a
//! malformed request is refused with the same diagnostics `noc sweep`
//! would print.

use crate::sweep::presets::preset;
use crate::sweep::spec::SweepSpec;
use noc_obs::serve::SERVE_SCHEMA;
use noc_obs::JsonValue;
use noc_sim::Engine;

/// Longest request line the daemon accepts, in bytes; a longer line is
/// refused with an error line. Hand-written specs are a few hundred bytes.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Most points one request may expand to. The largest in-repo presets
/// (`fig13` and `fig14`, 180 points each) fit with room to spare; a grid
/// whose cartesian product is larger is refused before it is expanded.
pub const MAX_REQUEST_POINTS: usize = 4096;

/// A parsed, validated serve request.
#[derive(Debug)]
pub enum ServeRequest {
    /// Run (or fetch) every point of a sweep spec.
    Sweep {
        /// Client-chosen request id, echoed on every response line.
        id: String,
        /// The validated spec.
        spec: SweepSpec,
        /// Engine override for every point of this request.
        engine: Option<Engine>,
    },
    /// Report daemon-lifetime counters.
    Status {
        /// Client-chosen request id.
        id: String,
    },
}

impl ServeRequest {
    /// The request id (present on every variant).
    pub fn id(&self) -> &str {
        match self {
            ServeRequest::Sweep { id, .. } | ServeRequest::Status { id } => id,
        }
    }

    /// Parses one request line. Errors are client-facing: they become
    /// the `message` of an `error` response line.
    pub fn parse(line: &str) -> Result<ServeRequest, String> {
        let v = JsonValue::parse(line).map_err(|e| format!("request: {e}"))?;
        let schema = v.get("schema").and_then(JsonValue::as_str).unwrap_or("");
        if schema != SERVE_SCHEMA {
            return Err(format!(
                "request: schema '{schema}' is not {SERVE_SCHEMA} — client and daemon disagree"
            ));
        }
        let id = v
            .get("id")
            .and_then(JsonValue::as_str)
            .ok_or("request: missing string field 'id'")?
            .to_string();
        if id.len() > 64 {
            return Err("request: 'id' longer than 64 bytes".to_string());
        }
        let engine = match v.get("engine") {
            None => None,
            Some(e) => {
                let name = e.as_str().ok_or("request: 'engine' must be a string")?;
                Some(
                    Engine::parse(name)
                        .ok_or_else(|| format!("request: unknown engine '{name}'"))?,
                )
            }
        };
        let spec = match v.get("type").and_then(JsonValue::as_str) {
            Some("sweep") => {
                let spec_v = v.get("spec").ok_or("request: sweep without 'spec'")?;
                SweepSpec::from_value(spec_v)?
            }
            Some("preset") => {
                let name = v
                    .str_field("preset")
                    .map_err(|_| "request: preset without string field 'preset'")?;
                preset(name).ok_or_else(|| format!("request: unknown preset '{name}'"))?
            }
            Some("status") => return Ok(ServeRequest::Status { id }),
            other => return Err(format!("request: unknown type {other:?}")),
        };
        let points = spec.point_count();
        if points > MAX_REQUEST_POINTS {
            return Err(format!(
                "request: grid expands to {points} points, more than the {MAX_REQUEST_POINTS} \
                 one request may ask for; split it into several requests"
            ));
        }
        Ok(ServeRequest::Sweep { id, spec, engine })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_obs::serve::{
        serve_preset_request_line, serve_status_request_line, serve_sweep_request_line,
    };

    #[test]
    fn sweep_requests_parse_through_the_full_spec_grammar() {
        let line = serve_sweep_request_line(
            "c1",
            r#"{"name":"t","grids":[{"topology":"mesh","vcs":1,"rates":[0.05],"warmup":10,"measure":20}]}"#,
            Some("seq"),
        );
        match ServeRequest::parse(&line).unwrap() {
            ServeRequest::Sweep { id, spec, engine } => {
                assert_eq!(id, "c1");
                assert_eq!(spec.expand().len(), 1);
                assert_eq!(engine, Some(Engine::Sequential));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn preset_and_status_requests_resolve() {
        let line = serve_preset_request_line("p", "smoke", None);
        match ServeRequest::parse(&line).unwrap() {
            ServeRequest::Sweep { spec, engine, .. } => {
                assert_eq!(spec.name, "smoke");
                assert_eq!(spec.expand().len(), 2);
                assert_eq!(engine, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            ServeRequest::parse(&serve_status_request_line("s")).unwrap(),
            ServeRequest::Status { .. }
        ));
    }

    #[test]
    fn every_preset_fits_under_the_points_cap() {
        for name in crate::sweep::preset_names() {
            let spec = preset(name).unwrap();
            assert_eq!(spec.point_count(), spec.expand().len(), "{name}");
            assert!(spec.point_count() <= MAX_REQUEST_POINTS, "{name}");
            let line = serve_preset_request_line("p", name, None);
            assert!(ServeRequest::parse(&line).is_ok(), "{name}");
        }
    }

    #[test]
    fn grids_beyond_the_points_cap_are_refused_unexpanded() {
        // 10^4 rates x 10^4 seeds: expanding this would need gigabytes.
        let axis = |v: &str| vec![v; 10_000].join(",");
        let spec = format!(
            r#"{{"name":"big","grids":[{{"rates":[{}],"seeds":[{}]}}]}}"#,
            axis("0.1"),
            axis("1")
        );
        let err = ServeRequest::parse(&serve_sweep_request_line("b", &spec, None)).unwrap_err();
        assert!(err.contains("100000000 points"), "{err}");
    }

    #[test]
    fn bad_requests_are_refused_with_client_facing_messages() {
        for (line, needle) in [
            ("not json", "request:"),
            (
                r#"{"schema":"noc-sweep/v1","type":"status","id":"x"}"#,
                "schema",
            ),
            (
                r#"{"schema":"noc-serve/v1","type":"status"}"#,
                "missing string field 'id'",
            ),
            (
                r#"{"schema":"noc-serve/v1","type":"preset","id":"x","preset":"fig99"}"#,
                "unknown preset",
            ),
            (
                r#"{"schema":"noc-serve/v1","type":"sweep","id":"x","spec":{"name":"t","grids":[{"ratess":[0.1]}]}}"#,
                "unknown grid key",
            ),
            (
                r#"{"schema":"noc-serve/v1","type":"sweep","id":"x","engine":"warp","spec":{"name":"t","grids":[{}]}}"#,
                "unknown engine",
            ),
            (
                r#"{"schema":"noc-serve/v1","type":"frobnicate","id":"x"}"#,
                "unknown type",
            ),
        ] {
            let err = ServeRequest::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }
}
