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
use separ_enforce::{Decision, IccContext};
use separ_obs::json::{JsonError, Lexeme, Lexer, Value};

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
    /// Live operational metrics (gauges, counters and rolling latency
    /// windows); `prometheus` selects text exposition.
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
    /// The line is lexed once, without building a JSON tree: members
    /// are read as borrowed strings or validated source text, and only
    /// the strings the request keeps are allocated. As with
    /// [`Value::get`], the first occurrence of a duplicate key wins;
    /// unknown members are validated and ignored, and a JSON error
    /// anywhere in the line is reported before any field error.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, unknown
    /// commands, or missing/ill-typed fields.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut m = Members::read(line).map_err(|e| format!("bad json: {e}"))?;
        let deadline_ms = m.get(Field::DeadlineMs).and_then(Lexeme::as_u64);
        let cmd = m.str(Field::Cmd).ok_or("missing \"cmd\"")?;
        match cmd {
            "install" => {
                let hex = m
                    .str(Field::BytesHex)
                    .ok_or("install: missing \"bytes_hex\"")?;
                Ok(Request::Install {
                    bytes: decode_hex(hex).ok_or("install: bad hex")?,
                    deadline_ms,
                })
            }
            "uninstall" => Ok(Request::Uninstall {
                package: m.required(Field::Package)?,
                deadline_ms,
            }),
            "set_permission" => Ok(Request::SetPermission {
                package: m.required(Field::Package)?,
                permission: m.required(Field::Permission)?,
                granted: m
                    .get(Field::Granted)
                    .and_then(Lexeme::as_bool)
                    .ok_or("set_permission: missing \"granted\"")?,
                deadline_ms,
            }),
            "query" => {
                let what = match m.str(Field::What) {
                    Some("policies") => QueryWhat::Policies,
                    Some("exploits") => QueryWhat::Exploits,
                    Some("apps") => QueryWhat::Apps,
                    Some("summary") | None => QueryWhat::Summary,
                    Some(other) => return Err(format!("query: unknown \"what\": {other}")),
                };
                Ok(Request::Query(what))
            }
            "decide" => {
                let event_name = m.str(Field::Event).ok_or("decide: missing \"event\"")?;
                let event = PolicyEvent::from_name(event_name)
                    .ok_or_else(|| format!("decide: unknown event: {event_name}"))?;
                let mut tags = BTreeSet::new();
                if let Some(items) = m.get(Field::Tags).and_then(Lexeme::as_arr) {
                    for t in items {
                        let name = t.as_str().ok_or("decide: tags must be strings")?;
                        let r = Resource::from_name(name)
                            .ok_or_else(|| format!("decide: unknown tag: {name}"))?;
                        tags.insert(r);
                    }
                }
                let prompt_allow = match m.str(Field::Prompt) {
                    Some("allow") => Ok(true),
                    Some("deny") | None => Ok(false),
                    Some(other) => Err(format!("decide: unknown prompt: {other}")),
                };
                let ctx = IccContext {
                    sender_app: m.required(Field::SenderApp)?,
                    sender_component: m.take(Field::SenderComponent).unwrap_or_default(),
                    receiver_app: m.take(Field::ReceiverApp),
                    receiver_component: m.take(Field::ReceiverComponent),
                    action: m.take(Field::Action),
                    tags,
                };
                Ok(Request::Decide {
                    event,
                    ctx: Box::new(ctx),
                    prompt_allow: prompt_allow?,
                })
            }
            "stats" => Ok(Request::Stats),
            "metrics" => {
                let prometheus = match m.str(Field::Format) {
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

    /// The index of [`kind`](Request::kind) in
    /// [`REQUEST_KINDS`](crate::REQUEST_KINDS) (`None` for kinds
    /// without a latency window), without comparing names.
    pub fn kind_slot(&self) -> Option<usize> {
        Some(match self {
            Request::Install { .. } => 0,
            Request::Uninstall { .. } => 1,
            Request::SetPermission { .. } => 2,
            Request::Query(_) => 3,
            Request::Decide { .. } => 4,
            Request::Stats => 5,
            Request::Metrics { .. } => 6,
            Request::Health => 7,
            Request::Subscribe | Request::Shutdown => return None,
        })
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

/// The request members [`Request::parse`] reads.
#[derive(Debug, Clone, Copy)]
enum Field {
    Cmd,
    DeadlineMs,
    BytesHex,
    Package,
    Permission,
    Granted,
    What,
    Event,
    Tags,
    SenderApp,
    SenderComponent,
    ReceiverApp,
    ReceiverComponent,
    Action,
    Prompt,
    Format,
}

impl Field {
    const COUNT: usize = 16;

    fn of_key(key: &str) -> Option<Field> {
        Some(match key {
            "cmd" => Field::Cmd,
            "deadline_ms" => Field::DeadlineMs,
            "bytes_hex" => Field::BytesHex,
            "package" => Field::Package,
            "permission" => Field::Permission,
            "granted" => Field::Granted,
            "what" => Field::What,
            "event" => Field::Event,
            "tags" => Field::Tags,
            "sender_app" => Field::SenderApp,
            "sender_component" => Field::SenderComponent,
            "receiver_app" => Field::ReceiverApp,
            "receiver_component" => Field::ReceiverComponent,
            "action" => Field::Action,
            "prompt" => Field::Prompt,
            "format" => Field::Format,
            _ => return None,
        })
    }

    /// Every field's key, in declaration order.
    const KEYS: [&'static str; Field::COUNT] = [
        "cmd",
        "deadline_ms",
        "bytes_hex",
        "package",
        "permission",
        "granted",
        "what",
        "event",
        "tags",
        "sender_app",
        "sender_component",
        "receiver_app",
        "receiver_component",
        "action",
        "prompt",
        "format",
    ];
}

/// The first occurrence of every [`Field`] in a request line, borrowed
/// from the line.
struct Members<'a>([Option<Lexeme<'a>>; Field::COUNT]);

impl<'a> Members<'a> {
    /// Lexes the whole line, keeping the known members of a top-level
    /// object. Anything else — unknown or repeated members, or a
    /// document that is not an object — is validated and dropped.
    fn read(line: &'a str) -> Result<Members<'a>, JsonError> {
        let mut members = Members(Default::default());
        let mut lexer = Lexer::new(line);
        if lexer.peek() == Some(b'{') {
            lexer.begin_object()?;
            while let Some(key) = lexer.next_key()? {
                match Field::of_key(&key).map(|f| &mut members.0[f as usize]) {
                    Some(slot @ None) => *slot = Some(lexer.lexeme()?),
                    _ => {
                        lexer.skip()?;
                    }
                }
            }
        } else {
            lexer.skip()?;
        }
        lexer.finish()?;
        Ok(members)
    }

    fn get(&self, field: Field) -> Option<&Lexeme<'a>> {
        self.0[field as usize].as_ref()
    }

    fn str(&self, field: Field) -> Option<&str> {
        self.get(field).and_then(Lexeme::as_str)
    }

    /// The string member as an owned `String` (moved out when it was
    /// decoded, else copied once from the line).
    fn take(&mut self, field: Field) -> Option<String> {
        match self.0[field as usize].take()? {
            Lexeme::Str(s) => Some(s.into_owned()),
            Lexeme::Raw(_) => None,
        }
    }

    fn required(&mut self, field: Field) -> Result<String, String> {
        self.take(field)
            .ok_or_else(|| format!("missing \"{}\"", Field::KEYS[field as usize]))
    }
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

/// Builds the `decide` response line, `{"ok":true,"decision":…,
/// "policy_id":…}`, straight into one string: the same bytes
/// [`ok_response`] makes of the two fields, without building them.
pub fn decide_response(decision: &Decision) -> String {
    const HEAD: &str = "{\"ok\":true,\"decision\":\"";
    const MID: &str = "\",\"policy_id\":";
    let label = decision.label();
    // The longest id, `u32::MAX`, has 10 digits; then the closing `}`.
    let mut out = String::with_capacity(HEAD.len() + label.len() + MID.len() + 11);
    out.push_str(HEAD);
    // Labels are plain lowercase ASCII: nothing to escape.
    out.push_str(label);
    out.push_str(MID);
    match decision.policy_id() {
        Some(id) => {
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{id}"));
        }
        None => out.push_str("null"),
    }
    out.push('}');
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
    fn every_field_key_maps_back_to_its_field() {
        for (i, key) in Field::KEYS.iter().enumerate() {
            assert_eq!(Field::of_key(key).map(|f| f as usize), Some(i), "{key}");
        }
        assert!(Field::of_key("cmdx").is_none());
    }

    #[test]
    fn kind_slots_index_request_kinds() {
        for line in [
            r#"{"cmd":"install","bytes_hex":""}"#,
            r#"{"cmd":"uninstall","package":"p"}"#,
            r#"{"cmd":"set_permission","package":"p","permission":"q","granted":true}"#,
            r#"{"cmd":"query"}"#,
            r#"{"cmd":"decide","event":"icc_send","sender_app":"a"}"#,
            r#"{"cmd":"stats"}"#,
            r#"{"cmd":"metrics"}"#,
            r#"{"cmd":"health"}"#,
            r#"{"cmd":"subscribe"}"#,
            r#"{"cmd":"shutdown"}"#,
        ] {
            let r = Request::parse(line).expect("parses");
            assert_eq!(r.kind_slot(), crate::kind_slot(r.kind()), "{line}");
        }
    }

    #[test]
    fn first_duplicate_wins_and_unknown_members_are_validated() {
        let line = r#"{"cmd":"uninstall","package":"a","package":"b","x":[{"y":null}]}"#;
        match Request::parse(line).expect("parses") {
            Request::Uninstall { package, .. } => assert_eq!(package, "a"),
            other => panic!("wrong request: {other:?}"),
        }
        // A mistyped first occurrence is not replaced by a later one.
        assert_eq!(
            Request::parse(r#"{"cmd":1,"cmd":"stats"}"#).unwrap_err(),
            "missing \"cmd\""
        );
        // A JSON error in an ignored member still fails the line.
        assert_eq!(
            Request::parse(r#"{"cmd":"stats","x":01}"#).unwrap_err(),
            "bad json: json error at byte 21: malformed number"
        );
        assert_eq!(
            Request::parse(r#"{"cmd":"uninstall","package":"p","deadline_ms":+5}"#).unwrap_err(),
            "bad json: json error at byte 49: malformed number"
        );
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
