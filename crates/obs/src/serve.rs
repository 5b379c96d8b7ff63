//! The `noc-serve/v1` wire schema — sweep-as-a-service requests,
//! per-point progress/result lines, and end-of-request summaries.
//!
//! One TCP connection carries one request: the client sends a single
//! JSON line, the daemon answers with a JSONL stream. Every line on the
//! wire is tagged with the schema so a mismatched client fails loudly,
//! and every response line carries the request's `id` so logs from
//! concurrent clients interleave unambiguously.
//!
//! Request line (`type` selects the kind):
//!
//! ```json
//! {"schema":"noc-serve/v1","type":"sweep","id":"c1","spec":{...sweep spec...}}
//! {"schema":"noc-serve/v1","type":"preset","id":"c2","preset":"smoke"}
//! {"schema":"noc-serve/v1","type":"status","id":"c3"}
//! ```
//!
//! An optional `"engine"` member on `sweep`/`preset` requests overrides
//! the engine for every point of that request. The sweep spec grammar
//! itself is owned by `noc_bench::sweep::SweepSpec` — this module only
//! frames it.
//!
//! Response stream:
//!
//! ```json
//! {"schema":"noc-serve/v1","type":"accepted","id":"c1","total":4,"unique":3}
//! {"schema":"noc-serve/v1","type":"result","id":"c1","digest":"…","label":"…",
//!  "source":"computed","wall_ms":12,"result":{…SimResult…}}
//! {"schema":"noc-serve/v1","type":"done","id":"c1","unique":3,"total":4,
//!  "scheduled":2,"cache_hits":0,"coalesced":1,"wall_ms":40}
//! {"schema":"noc-serve/v1","type":"error","id":"c1","message":"…"}
//! ```
//!
//! `source` on a result line records how the daemon satisfied the point
//! globally: `computed` (simulated for this request), `cache` (already
//! in the content-addressed store) — a point another in-flight request
//! was already computing arrives as that worker's `computed` line. The
//! per-client split lives in the `done` line: `scheduled` points this
//! request put on the worker queue, `cache_hits` served immediately,
//! `coalesced` de-duplicated onto another client's in-flight work.

use crate::json::{JsonValue, JsonWriter};

/// Wire schema tag carried by every request and response line.
pub const SERVE_SCHEMA: &str = "noc-serve/v1";

/// One wire line: the schema tag, `type` and `id` members, then whatever
/// members `rest` writes.
fn line(kind: &str, id: &str, rest: impl FnOnce(&mut JsonWriter)) -> String {
    JsonWriter::object(|w| {
        w.key("schema").str(SERVE_SCHEMA);
        w.key("type").str(kind);
        w.key("id").str(id);
        rest(w);
    })
}

fn engine_member(w: &mut JsonWriter, engine: Option<&str>) {
    if let Some(e) = engine {
        w.key("engine").str(e);
    }
}

/// A `sweep` request line embedding an already-validated sweep-spec JSON
/// document (the caller must pass well-formed JSON; it is embedded raw).
/// Newlines in the document are collapsed to spaces — the wire is
/// line-framed, and JSON strings cannot contain literal newlines, so the
/// collapse never alters content.
pub fn serve_sweep_request_line(id: &str, spec_json: &str, engine: Option<&str>) -> String {
    let spec = spec_json.replace(['\n', '\r'], " ");
    line("sweep", id, |w| {
        engine_member(w, engine);
        w.key("spec").raw(spec.trim());
    })
}

/// A `preset` request line naming an in-repo sweep preset.
pub fn serve_preset_request_line(id: &str, preset: &str, engine: Option<&str>) -> String {
    line("preset", id, |w| {
        engine_member(w, engine);
        w.key("preset").str(preset);
    })
}

/// A `status` request line (daemon-lifetime counters, no simulation).
pub fn serve_status_request_line(id: &str) -> String {
    line("status", id, |_| {})
}

/// The `accepted` response: the request parsed and expanded to `total`
/// points (`unique` after in-request digest dedup).
pub fn serve_accepted_line(id: &str, total: usize, unique: usize) -> String {
    line("accepted", id, |w| {
        w.key("total").u64(total as u64);
        w.key("unique").u64(unique as u64);
    })
}

/// One per-point `result` response line. `result_json` must be the
/// point's `SimResult` JSON document (embedded raw).
pub fn serve_result_line(
    id: &str,
    digest: &str,
    label: &str,
    source: &str,
    wall_ms: u64,
    result_json: &str,
) -> String {
    line("result", id, |w| {
        w.key("digest").str(digest);
        w.key("label").str(label);
        w.key("source").str(source);
        w.key("wall_ms").u64(wall_ms);
        w.key("result").raw(result_json);
    })
}

/// The terminal `done` response line for a request.
pub fn serve_done_line(
    id: &str,
    unique: usize,
    total: usize,
    scheduled: usize,
    cache_hits: usize,
    coalesced: usize,
    wall_ms: u64,
) -> String {
    line("done", id, |w| {
        w.key("unique").u64(unique as u64);
        w.key("total").u64(total as u64);
        w.key("scheduled").u64(scheduled as u64);
        w.key("cache_hits").u64(cache_hits as u64);
        w.key("coalesced").u64(coalesced as u64);
        w.key("wall_ms").u64(wall_ms);
    })
}

/// The `status` response line: daemon-lifetime counters.
pub fn serve_status_line(
    id: &str,
    computed: usize,
    cache_hits: usize,
    coalesced: usize,
    inflight: usize,
    clients: usize,
) -> String {
    line("status", id, |w| {
        w.key("computed").u64(computed as u64);
        w.key("cache_hits").u64(cache_hits as u64);
        w.key("coalesced").u64(coalesced as u64);
        w.key("inflight").u64(inflight as u64);
        w.key("clients").u64(clients as u64);
    })
}

/// An `error` response line; the connection closes after it.
pub fn serve_error_line(id: &str, message: &str) -> String {
    line("error", id, |w| {
        w.key("message").str(message);
    })
}

/// A parsed `noc-serve/v1` response line, as a client sees it.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeEvent {
    /// Request accepted and expanded.
    Accepted {
        /// Request id (echoed).
        id: String,
        /// Points before in-request dedup.
        total: usize,
        /// Unique digests the stream will deliver.
        unique: usize,
    },
    /// One completed point.
    Result {
        /// Request id (echoed).
        id: String,
        /// The point's content digest.
        digest: String,
        /// Human-readable point label.
        label: String,
        /// How the daemon satisfied the point (`computed` / `cache`).
        source: String,
        /// Wall-clock of the satisfying action, in milliseconds.
        wall_ms: u64,
        /// The `SimResult` JSON document, unparsed.
        result_json: String,
    },
    /// Request complete; the stream ends after this line.
    Done {
        /// Request id (echoed).
        id: String,
        /// Unique digests delivered.
        unique: usize,
        /// Points before in-request dedup.
        total: usize,
        /// Points this request scheduled on the worker pool.
        scheduled: usize,
        /// Points served straight from the cache.
        cache_hits: usize,
        /// Points de-duplicated onto another request's in-flight work.
        coalesced: usize,
        /// Wall-clock for the whole request, in milliseconds.
        wall_ms: u64,
    },
    /// Daemon-lifetime counters (answer to a `status` request).
    Status {
        /// Request id (echoed).
        id: String,
        /// Points simulated since the daemon started.
        computed: usize,
        /// Points served from cache since the daemon started.
        cache_hits: usize,
        /// Subscriptions coalesced onto in-flight work.
        coalesced: usize,
        /// Digests currently being computed or queued.
        inflight: usize,
        /// Requests accepted since the daemon started.
        clients: usize,
    },
    /// The request failed; the stream ends after this line.
    Error {
        /// Request id (echoed, possibly empty if parsing failed early).
        id: String,
        /// What went wrong.
        message: String,
    },
}

impl ServeEvent {
    /// Parses one response line. The `result` member of a `result` line
    /// is returned as raw JSON text (sliced out of `line`), so clients
    /// that only count points never pay to parse simulation results.
    pub fn parse(line: &str) -> Result<ServeEvent, String> {
        let v = JsonValue::parse(line).map_err(|e| format!("serve response: {e}"))?;
        let schema = v.str_field("schema").unwrap_or_default();
        if schema != SERVE_SCHEMA {
            return Err(format!(
                "serve response: schema '{schema}' is not {SERVE_SCHEMA}"
            ));
        }
        // Absent members read as empty / zero: the daemon always writes
        // them, and a client only tallies what it is given.
        let text = |key: &str| v.str_field(key).unwrap_or_default().to_string();
        let num = |key: &str| v.u64_field(key).unwrap_or(0) as usize;
        let id = text("id");
        match v.get("type").and_then(JsonValue::as_str) {
            Some("accepted") => Ok(ServeEvent::Accepted {
                id,
                total: num("total"),
                unique: num("unique"),
            }),
            Some("result") => {
                let result_json = line
                    .find("\"result\":")
                    .map(|i| line[i + "\"result\":".len()..].trim_end())
                    .and_then(|s| s.strip_suffix('}'))
                    .unwrap_or("null")
                    .to_string();
                Ok(ServeEvent::Result {
                    id,
                    digest: text("digest"),
                    label: text("label"),
                    source: text("source"),
                    wall_ms: num("wall_ms") as u64,
                    result_json,
                })
            }
            Some("done") => Ok(ServeEvent::Done {
                id,
                unique: num("unique"),
                total: num("total"),
                scheduled: num("scheduled"),
                cache_hits: num("cache_hits"),
                coalesced: num("coalesced"),
                wall_ms: num("wall_ms") as u64,
            }),
            Some("status") => Ok(ServeEvent::Status {
                id,
                computed: num("computed"),
                cache_hits: num("cache_hits"),
                coalesced: num("coalesced"),
                inflight: num("inflight"),
                clients: num("clients"),
            }),
            Some("error") => Ok(ServeEvent::Error {
                id,
                message: text("message"),
            }),
            other => Err(format!("serve response: unknown type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;

    #[test]
    fn every_line_builder_emits_valid_json() {
        for line in [
            serve_sweep_request_line("a", r#"{"name":"t","grids":[{}]}"#, Some("par")),
            serve_preset_request_line("b", "smoke", None),
            serve_status_request_line("c"),
            serve_accepted_line("a", 4, 3),
            serve_result_line("a", "d1", "mesh \"x\"", "computed", 12, "{\"x\":1}"),
            serve_done_line("a", 3, 4, 2, 0, 1, 40),
            serve_status_line("c", 7, 2, 1, 0, 3),
            serve_error_line("", "bad\nrequest"),
        ] {
            validate_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn response_lines_round_trip_through_the_event_parser() {
        let r = ServeEvent::parse(&serve_result_line(
            "c1",
            "abcd",
            "mesh r=0.05",
            "cache",
            3,
            "{\"avg_latency\":12.5}",
        ))
        .unwrap();
        assert_eq!(
            r,
            ServeEvent::Result {
                id: "c1".into(),
                digest: "abcd".into(),
                label: "mesh r=0.05".into(),
                source: "cache".into(),
                wall_ms: 3,
                result_json: "{\"avg_latency\":12.5}".into(),
            }
        );
        let d = ServeEvent::parse(&serve_done_line("c1", 3, 4, 2, 0, 1, 40)).unwrap();
        assert_eq!(
            d,
            ServeEvent::Done {
                id: "c1".into(),
                unique: 3,
                total: 4,
                scheduled: 2,
                cache_hits: 0,
                coalesced: 1,
                wall_ms: 40,
            }
        );
        assert!(matches!(
            ServeEvent::parse(&serve_accepted_line("x", 2, 2)).unwrap(),
            ServeEvent::Accepted {
                total: 2,
                unique: 2,
                ..
            }
        ));
        assert!(matches!(
            ServeEvent::parse(&serve_status_line("s", 6, 0, 0, 0, 4)).unwrap(),
            ServeEvent::Status {
                computed: 6,
                clients: 4,
                ..
            }
        ));
    }

    #[test]
    fn wrong_schema_and_unknown_types_are_rejected() {
        assert!(ServeEvent::parse("{\"schema\":\"noc-telemetry/v1\",\"type\":\"done\"}").is_err());
        assert!(
            ServeEvent::parse("{\"schema\":\"noc-serve/v1\",\"type\":\"frobnicate\"}").is_err()
        );
        assert!(ServeEvent::parse("not json").is_err());
    }

    #[test]
    fn result_json_is_sliced_out_verbatim() {
        // The embedded result may itself contain a "result" key deeper
        // inside; the slice starts at the envelope's member, which is
        // always the last member of the line by construction.
        let line = serve_result_line("i", "d", "l", "computed", 1, "{\"nested\":{\"result\":0}}");
        match ServeEvent::parse(&line).unwrap() {
            ServeEvent::Result { result_json, .. } => {
                assert_eq!(result_json, "{\"nested\":{\"result\":0}}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
