//! The `separ serve` wire protocol.
//!
//! One request per line, one response per line, both JSON objects — the
//! lowest-common-denominator framing every language can speak from a
//! shell one-liner up. Requests select a command with `"cmd"`:
//!
//! ```text
//! {"cmd":"install","bytes_hex":"<package bytes>"[,"deadline_ms":N]}
//! {"cmd":"uninstall","package":"com.example"[,"deadline_ms":N]}
//! {"cmd":"set_permission","package":"p","permission":"q","granted":true}
//! {"cmd":"query","what":"policies"|"exploits"|"apps"|"summary"}
//! {"cmd":"decide","event":"icc_send","sender_app":"p","sender_component":"LC;",
//!  "receiver_app":"r","receiver_component":"LD;","action":"a",
//!  "tags":["LOCATION"],"prompt":"deny"}
//! {"cmd":"stats"}
//! {"cmd":"metrics"[,"format":"prometheus"]}
//! {"cmd":"health"}
//! {"cmd":"subscribe"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Responses are `{"ok":true,...}` or `{"ok":false,"error":"..."}`.
//! Churn commands (install / uninstall / set_permission) answer once the
//! batch their op was folded into has been analyzed, carrying the batch
//! summary; `deadline_ms` bounds only how long the *client* waits for
//! that confirmation — an accepted op is applied even if its requester
//! stopped listening.
//!
//! `subscribe` upgrades the connection to a push stream: after the
//! `{"ok":true,"subscribed":true,"seq":N}` acknowledgement the server
//! writes one `{"event":"policy_delta",...}` line per applied batch
//! (see [`crate::subscribe`]) and reads nothing further. `metrics` with
//! `"format":"prometheus"` carries the text exposition in the `body`
//! string field of the (still one-line JSON) response.

use std::collections::BTreeSet;

use separ_android::types::Resource;
use separ_core::policy::PolicyEvent;
use separ_enforce::IccContext;
use separ_obs::json::Value;

/// What a [`Request::Query`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryWhat {
    /// The full current policy set (`policy_io` schema).
    Policies,
    /// The current exploit scenarios, one description per entry.
    Exploits,
    /// The installed packages, in bundle order.
    Apps,
    /// Counts only.
    Summary,
}

/// A parsed client request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Install (or update) the package encoded in `bytes`.
    Install {
        /// Raw package bytes (hex-decoded from the wire).
        bytes: Vec<u8>,
        /// Client-side confirmation deadline.
        deadline_ms: Option<u64>,
    },
    /// Remove a package.
    Uninstall {
        /// The package to remove.
        package: String,
        /// Client-side confirmation deadline.
        deadline_ms: Option<u64>,
    },
    /// Toggle a permission.
    SetPermission {
        /// The target package.
        package: String,
        /// The permission to toggle.
        permission: String,
        /// `true` grants, `false` revokes.
        granted: bool,
        /// Client-side confirmation deadline.
        deadline_ms: Option<u64>,
    },
    /// Read the current analysis state.
    Query(QueryWhat),
    /// Evaluate one ICC event against the published policy set.
    Decide {
        /// The guarded event kind.
        event: PolicyEvent,
        /// The intercepted event's context.
        ctx: Box<IccContext>,
        /// How to answer a policy prompt (`true` = consent).
        prompt_allow: bool,
    },
    /// Service counters.
    Stats,
    /// Live operational metrics (rolling latency windows, gauges,
    /// counter deltas); `prometheus` selects text exposition.
    Metrics {
        /// `true` = Prometheus text exposition in the `body` field,
        /// `false` = structured JSON.
        prometheus: bool,
    },
    /// Liveness/readiness probe.
    Health,
    /// Upgrade this connection to a policy-delta push stream.
    Subscribe,
    /// Drain, persist, and exit.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, unknown
    /// commands, or missing/ill-typed fields.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Value::parse(line).map_err(|e| format!("bad json: {e}"))?;
        let cmd = v
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or("missing \"cmd\"")?;
        let deadline_ms = v.get("deadline_ms").and_then(Value::as_u64);
        match cmd {
            "install" => {
                let hex = v
                    .get("bytes_hex")
                    .and_then(Value::as_str)
                    .ok_or("install: missing \"bytes_hex\"")?;
                Ok(Request::Install {
                    bytes: decode_hex(hex).ok_or("install: bad hex")?,
                    deadline_ms,
                })
            }
            "uninstall" => Ok(Request::Uninstall {
                package: str_field(&v, "package")?,
                deadline_ms,
            }),
            "set_permission" => Ok(Request::SetPermission {
                package: str_field(&v, "package")?,
                permission: str_field(&v, "permission")?,
                granted: v
                    .get("granted")
                    .and_then(Value::as_bool)
                    .ok_or("set_permission: missing \"granted\"")?,
                deadline_ms,
            }),
            "query" => {
                let what = match v.get("what").and_then(Value::as_str) {
                    Some("policies") => QueryWhat::Policies,
                    Some("exploits") => QueryWhat::Exploits,
                    Some("apps") => QueryWhat::Apps,
                    Some("summary") | None => QueryWhat::Summary,
                    Some(other) => return Err(format!("query: unknown \"what\": {other}")),
                };
                Ok(Request::Query(what))
            }
            "decide" => {
                let event_name = v
                    .get("event")
                    .and_then(Value::as_str)
                    .ok_or("decide: missing \"event\"")?;
                let event = PolicyEvent::from_name(event_name)
                    .ok_or_else(|| format!("decide: unknown event: {event_name}"))?;
                let mut tags = BTreeSet::new();
                if let Some(arr) = v.get("tags").and_then(Value::as_arr) {
                    for t in arr {
                        let name = t.as_str().ok_or("decide: tags must be strings")?;
                        let r = Resource::from_name(name)
                            .ok_or_else(|| format!("decide: unknown tag: {name}"))?;
                        tags.insert(r);
                    }
                }
                let opt = |key: &str| v.get(key).and_then(Value::as_str).map(String::from);
                let ctx = IccContext {
                    sender_app: str_field(&v, "sender_app")?,
                    sender_component: opt("sender_component").unwrap_or_default(),
                    receiver_app: opt("receiver_app"),
                    receiver_component: opt("receiver_component"),
                    action: opt("action"),
                    tags,
                };
                let prompt_allow = match v.get("prompt").and_then(Value::as_str) {
                    Some("allow") => true,
                    Some("deny") | None => false,
                    Some(other) => return Err(format!("decide: unknown prompt: {other}")),
                };
                Ok(Request::Decide {
                    event,
                    ctx: Box::new(ctx),
                    prompt_allow,
                })
            }
            "stats" => Ok(Request::Stats),
            "metrics" => {
                let prometheus = match v.get("format").and_then(Value::as_str) {
                    Some("prometheus") => true,
                    Some("json") | None => false,
                    Some(other) => return Err(format!("metrics: unknown format: {other}")),
                };
                Ok(Request::Metrics { prometheus })
            }
            "health" => Ok(Request::Health),
            "subscribe" => Ok(Request::Subscribe),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown cmd: {other}")),
        }
    }

    /// Whether this request mutates the bundle (goes through the churn
    /// queue rather than being answered immediately).
    pub fn is_churn(&self) -> bool {
        matches!(
            self,
            Request::Install { .. } | Request::Uninstall { .. } | Request::SetPermission { .. }
        )
    }

    /// The request's kind label, as used for per-type latency metrics
    /// and the audit log.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Install { .. } => "install",
            Request::Uninstall { .. } => "uninstall",
            Request::SetPermission { .. } => "set_permission",
            Request::Query(_) => "query",
            Request::Decide { .. } => "decide",
            Request::Stats => "stats",
            Request::Metrics { .. } => "metrics",
            Request::Health => "health",
            Request::Subscribe => "subscribe",
            Request::Shutdown => "shutdown",
        }
    }
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(String::from)
        .ok_or_else(|| format!("missing \"{key}\""))
}

/// Decodes a lowercase/uppercase hex string; `None` on odd length or
/// non-hex bytes.
pub fn decode_hex(hex: &str) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    (0..hex.len() / 2)
        .map(|i| u8::from_str_radix(hex.get(2 * i..2 * i + 2)?, 16).ok())
        .collect()
}

/// Encodes bytes as lowercase hex (the `bytes_hex` wire form).
pub fn encode_hex(bytes: &[u8]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Builds an `{"ok":false,"error":...}` response line.
pub fn error_response(message: &str) -> String {
    let v = Value::Obj(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::Str(message.into())),
    ]);
    let mut out = String::new();
    v.write_into(&mut out);
    out
}

/// Builds an `{"ok":true,...}` response line from extra fields.
pub fn ok_response(fields: Vec<(String, Value)>) -> String {
    let mut obj = Vec::with_capacity(fields.len() + 1);
    obj.push(("ok".into(), Value::Bool(true)));
    obj.extend(fields);
    let mut out = String::new();
    Value::Obj(obj).write_into(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let bytes = [0u8, 1, 0xab, 0xff, 0x10];
        assert_eq!(decode_hex(&encode_hex(&bytes)).unwrap(), bytes);
        assert_eq!(decode_hex("AbFf").unwrap(), vec![0xab, 0xff]);
        assert!(decode_hex("abc").is_none());
        assert!(decode_hex("zz").is_none());
    }

    #[test]
    fn parses_churn_requests() {
        let r = Request::parse(r#"{"cmd":"install","bytes_hex":"00ff","deadline_ms":250}"#)
            .expect("parses");
        match r {
            Request::Install { bytes, deadline_ms } => {
                assert_eq!(bytes, vec![0, 0xff]);
                assert_eq!(deadline_ms, Some(250));
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert!(Request::parse(r#"{"cmd":"uninstall","package":"com.a"}"#)
            .expect("parses")
            .is_churn());
        let r = Request::parse(
            r#"{"cmd":"set_permission","package":"p","permission":"q","granted":false}"#,
        )
        .expect("parses");
        match r {
            Request::SetPermission { granted, .. } => assert!(!granted),
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_decide_with_tags_and_prompt() {
        let line = concat!(
            r#"{"cmd":"decide","event":"icc_send","sender_app":"com.a","#,
            r#""sender_component":"LC;","action":"x","tags":["LOCATION"],"#,
            r#""prompt":"allow"}"#
        );
        match Request::parse(line).expect("parses") {
            Request::Decide {
                event,
                ctx,
                prompt_allow,
            } => {
                assert_eq!(event, PolicyEvent::IccSend);
                assert_eq!(ctx.sender_app, "com.a");
                assert!(ctx.tags.contains(&Resource::Location));
                assert!(prompt_allow);
            }
            other => panic!("wrong request: {other:?}"),
        }
    }

    #[test]
    fn parses_observability_requests() {
        match Request::parse(r#"{"cmd":"metrics"}"#).expect("parses") {
            Request::Metrics { prometheus } => assert!(!prometheus),
            other => panic!("wrong request: {other:?}"),
        }
        match Request::parse(r#"{"cmd":"metrics","format":"prometheus"}"#).expect("parses") {
            Request::Metrics { prometheus } => assert!(prometheus),
            other => panic!("wrong request: {other:?}"),
        }
        assert!(Request::parse(r#"{"cmd":"metrics","format":"xml"}"#).is_err());
        assert!(matches!(
            Request::parse(r#"{"cmd":"health"}"#).expect("parses"),
            Request::Health
        ));
        let sub = Request::parse(r#"{"cmd":"subscribe"}"#).expect("parses");
        assert!(matches!(sub, Request::Subscribe));
        assert_eq!(sub.kind(), "subscribe");
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"cmd":"launch_missiles"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"install"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"install","bytes_hex":"0"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"decide","event":"nope","sender_app":"a"}"#).is_err());
        assert!(Request::parse(r#"{"cmd":"query","what":"everything"}"#).is_err());
    }

    #[test]
    fn response_builders_emit_valid_json() {
        let ok = ok_response(vec![("n".into(), Value::Num(3.0))]);
        let v = Value::parse(&ok).expect("valid");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("n").and_then(Value::as_u64), Some(3));
        let err = error_response("bad \"thing\"");
        let v = Value::parse(&err).expect("valid");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("bad \"thing\"")
        );
    }
}
