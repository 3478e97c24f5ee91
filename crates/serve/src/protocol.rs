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

use std::borrow::Cow;

use separ_android::types::Resource;
use separ_core::policy::PolicyEvent;
/// The `bytes_hex` wire form of a package.
pub use separ_core::reuse::{decode_hex, encode_hex};
use separ_enforce::{Decision, IccView, TagMask};
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

/// A parsed client request. A `decide` borrows its strings from the
/// request line; the rare churn requests own theirs.
#[derive(Debug, Clone)]
pub enum Request<'a> {
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
        ctx: DecideContext<'a>,
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

/// The context of a `decide` request, borrowed from its line: a string
/// is owned only when its JSON literal holds an escape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecideContext<'a> {
    /// Sending app package.
    pub sender_app: Cow<'a, str>,
    /// Sending component class (empty when not given).
    pub sender_component: Cow<'a, str>,
    /// Receiving app package.
    pub receiver_app: Option<Cow<'a, str>>,
    /// Receiving component class.
    pub receiver_component: Option<Cow<'a, str>>,
    /// The intent's action.
    pub action: Option<Cow<'a, str>>,
    /// Resource tags carried by the intent's extras.
    pub tags: TagMask,
}

impl DecideContext<'_> {
    /// The context as the view the PDP decides from.
    pub fn view(&self) -> IccView<'_> {
        IccView {
            sender_app: &self.sender_app,
            sender_component: &self.sender_component,
            receiver_app: self.receiver_app.as_deref(),
            receiver_component: self.receiver_component.as_deref(),
            action: self.action.as_deref(),
            tags: self.tags,
        }
    }
}

impl<'a> Request<'a> {
    /// Parses one request line.
    ///
    /// The line is lexed once, without building a JSON tree, and each
    /// member the request reads is stored as it is lexed: strings are
    /// borrowed from the line (decoded only when they hold an escape)
    /// and `tags` is folded into a [`TagMask`] element by element. As
    /// with [`Value::get`], the first occurrence of a duplicate key
    /// wins; unknown members are validated and ignored, and a JSON error
    /// anywhere in the line is reported before any field error.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON, unknown
    /// commands, or missing/ill-typed fields.
    pub fn parse(line: &'a str) -> Result<Request<'a>, String> {
        let mut m = Members::default();
        m.read(line).map_err(|e| format!("bad json: {e}"))?;
        let deadline_ms = m.deadline_ms;
        let cmd = m.cmd.take().ok_or("missing \"cmd\"")?;
        match &*cmd {
            "install" => {
                let hex = m
                    .bytes_hex
                    .as_deref()
                    .ok_or("install: missing \"bytes_hex\"")?;
                Ok(Request::Install {
                    bytes: decode_hex(hex).ok_or("install: bad hex")?,
                    deadline_ms,
                })
            }
            "uninstall" => Ok(Request::Uninstall {
                package: required(m.package, "package")?.into_owned(),
                deadline_ms,
            }),
            "set_permission" => Ok(Request::SetPermission {
                package: required(m.package, "package")?.into_owned(),
                permission: required(m.permission, "permission")?.into_owned(),
                granted: m.granted.ok_or("set_permission: missing \"granted\"")?,
                deadline_ms,
            }),
            "query" => {
                let what = match m.what.as_deref() {
                    Some("policies") => QueryWhat::Policies,
                    Some("exploits") => QueryWhat::Exploits,
                    Some("apps") => QueryWhat::Apps,
                    Some("summary") | None => QueryWhat::Summary,
                    Some(other) => return Err(format!("query: unknown \"what\": {other}")),
                };
                Ok(Request::Query(what))
            }
            "decide" => {
                let event_name = m.event.as_deref().ok_or("decide: missing \"event\"")?;
                let event = PolicyEvent::from_name(event_name)
                    .ok_or_else(|| format!("decide: unknown event: {event_name}"))?;
                match m.tag_error {
                    Some(TagError::NotString) => return Err("decide: tags must be strings".into()),
                    Some(TagError::Unknown(name)) => {
                        return Err(format!("decide: unknown tag: {name}"))
                    }
                    None => {}
                }
                let prompt_allow = match m.prompt.as_deref() {
                    Some("allow") => Ok(true),
                    Some("deny") | None => Ok(false),
                    Some(other) => Err(format!("decide: unknown prompt: {other}")),
                };
                let ctx = DecideContext {
                    sender_app: required(m.sender_app, "sender_app")?,
                    sender_component: m.sender_component.unwrap_or(Cow::Borrowed("")),
                    receiver_app: m.receiver_app,
                    receiver_component: m.receiver_component,
                    action: m.action,
                    tags: m.tags,
                };
                Ok(Request::Decide {
                    event,
                    ctx,
                    prompt_allow: prompt_allow?,
                })
            }
            "stats" => Ok(Request::Stats),
            "metrics" => {
                let prometheus = match m.format.as_deref() {
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

/// A required string member, or the error naming its key.
fn required<'a>(value: Option<Cow<'a, str>>, key: &str) -> Result<Cow<'a, str>, String> {
    value.ok_or_else(|| format!("missing \"{key}\""))
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
}

/// Why a `tags` array yields no [`TagMask`]: its first element that is
/// not a resource name.
#[derive(Debug)]
enum TagError<'a> {
    NotString,
    Unknown(Cow<'a, str>),
}

/// The first occurrence of every [`Field`] in a request line, each
/// stored as it is lexed: a string member as a string borrowed from the
/// line (`None` when it is not a string), `deadline_ms` and `granted`
/// as their values, `tags` as a mask or the error it will raise.
#[derive(Debug, Default)]
struct Members<'a> {
    /// The fields already read, one bit per [`Field`]: a later
    /// occurrence is validated and dropped.
    seen: u32,
    cmd: Option<Cow<'a, str>>,
    deadline_ms: Option<u64>,
    bytes_hex: Option<Cow<'a, str>>,
    package: Option<Cow<'a, str>>,
    permission: Option<Cow<'a, str>>,
    granted: Option<bool>,
    what: Option<Cow<'a, str>>,
    event: Option<Cow<'a, str>>,
    tags: TagMask,
    tag_error: Option<TagError<'a>>,
    sender_app: Option<Cow<'a, str>>,
    sender_component: Option<Cow<'a, str>>,
    receiver_app: Option<Cow<'a, str>>,
    receiver_component: Option<Cow<'a, str>>,
    action: Option<Cow<'a, str>>,
    prompt: Option<Cow<'a, str>>,
    format: Option<Cow<'a, str>>,
}

impl<'a> Members<'a> {
    /// Lexes the whole line, storing the known members of a top-level
    /// object. Anything else — unknown or repeated members, or a
    /// document that is not an object — is validated and dropped.
    fn read(&mut self, line: &'a str) -> Result<(), JsonError> {
        let mut lexer = Lexer::new(line);
        if lexer.peek() == Some(b'{') {
            lexer.begin_object()?;
            while let Some(key) = lexer.next_key()? {
                match Field::of_key(&key) {
                    Some(field) if self.seen & (1 << field as u32) == 0 => {
                        self.seen |= 1 << field as u32;
                        self.read_member(field, &mut lexer)?;
                    }
                    _ => {
                        lexer.skip()?;
                    }
                }
            }
        } else {
            lexer.skip()?;
        }
        lexer.finish()
    }

    fn read_member(&mut self, field: Field, lexer: &mut Lexer<'a>) -> Result<(), JsonError> {
        if let Field::Tags = field {
            return self.read_tags(lexer);
        }
        let value = lexer.lexeme()?;
        match field {
            Field::DeadlineMs => self.deadline_ms = value.as_u64(),
            Field::Granted => self.granted = value.as_bool(),
            _ => {
                if let Some(slot) = self.string_slot(field) {
                    *slot = match value {
                        Lexeme::Str(s) => Some(s),
                        Lexeme::Raw(_) => None,
                    };
                }
            }
        }
        Ok(())
    }

    /// Where a string member is stored (`None` for the other fields).
    fn string_slot(&mut self, field: Field) -> Option<&mut Option<Cow<'a, str>>> {
        Some(match field {
            Field::Cmd => &mut self.cmd,
            Field::BytesHex => &mut self.bytes_hex,
            Field::Package => &mut self.package,
            Field::Permission => &mut self.permission,
            Field::What => &mut self.what,
            Field::Event => &mut self.event,
            Field::SenderApp => &mut self.sender_app,
            Field::SenderComponent => &mut self.sender_component,
            Field::ReceiverApp => &mut self.receiver_app,
            Field::ReceiverComponent => &mut self.receiver_component,
            Field::Action => &mut self.action,
            Field::Prompt => &mut self.prompt,
            Field::Format => &mut self.format,
            Field::DeadlineMs | Field::Granted | Field::Tags => return None,
        })
    }

    /// Folds a `tags` array into the mask, keeping the first element
    /// that is not a resource name as the error; any other value means
    /// no tags.
    fn read_tags(&mut self, lexer: &mut Lexer<'a>) -> Result<(), JsonError> {
        if lexer.peek() != Some(b'[') {
            lexer.skip()?;
            return Ok(());
        }
        lexer.begin_array()?;
        while lexer.next_element()? {
            let item = lexer.lexeme()?;
            if self.tag_error.is_some() {
                continue;
            }
            match item {
                Lexeme::Str(name) => match Resource::from_name(&name) {
                    Some(r) => self.tags.insert(r),
                    None => self.tag_error = Some(TagError::Unknown(name)),
                },
                Lexeme::Raw(_) => self.tag_error = Some(TagError::NotString),
            }
        }
        Ok(())
    }
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
        Some(mut id) => {
            let mut digits = [0u8; 10];
            let mut at = digits.len();
            loop {
                at -= 1;
                digits[at] = b'0' + (id % 10) as u8;
                id /= 10;
                if id == 0 {
                    break;
                }
            }
            out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
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
        assert!(decode_hex("+f").is_none(), "a sign is not a digit");
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
                assert!(ctx.tags.contains(Resource::Location));
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
    fn decide_strings_are_borrowed_unless_escaped() {
        let line = concat!(
            r#"{"cmd":"decide","event":"icc_receive","sender_app":"com.a","#,
            r#""receiver_component":"LR\u0031;","tags":["SMS","LOCATION","SMS"]}"#
        );
        let Ok(Request::Decide { ctx, .. }) = Request::parse(line) else {
            panic!("parses");
        };
        assert!(matches!(ctx.sender_app, Cow::Borrowed("com.a")));
        assert!(matches!(ctx.sender_component, Cow::Borrowed("")));
        assert!(matches!(ctx.receiver_component.as_deref(), Some("LR1;")));
        assert!(matches!(ctx.receiver_component, Some(Cow::Owned(_))));
        assert_eq!(
            ctx.tags.iter().collect::<Vec<_>>(),
            [Resource::Location, Resource::Sms]
        );
        let view = ctx.view();
        assert_eq!(view.receiver_component, Some("LR1;"));
        assert_eq!(view.action, None);
    }

    #[test]
    fn decide_field_errors_keep_their_order() {
        let err = |line: &str| Request::parse(line).unwrap_err();
        // Tags are checked after the event and before the sender; the
        // first bad element decides, whatever follows it.
        assert_eq!(
            err(r#"{"cmd":"decide","event":"icc_send","tags":["NOPE",1]}"#),
            "decide: unknown tag: NOPE"
        );
        assert_eq!(
            err(r#"{"cmd":"decide","event":"icc_send","tags":[1,"NOPE"]}"#),
            "decide: tags must be strings"
        );
        assert_eq!(
            err(r#"{"cmd":"decide","tags":[1],"event":"nope"}"#),
            "decide: unknown event: nope"
        );
        // Only the first `tags` counts, and a non-array means no tags.
        assert_eq!(
            err(r#"{"cmd":"decide","event":"icc_send","tags":{},"tags":[1]}"#),
            "missing \"sender_app\""
        );
        // The prompt is checked after the sender.
        assert_eq!(
            err(r#"{"cmd":"decide","event":"icc_send","prompt":"maybe"}"#),
            "missing \"sender_app\""
        );
        assert_eq!(
            err(r#"{"cmd":"decide","event":"icc_send","prompt":"maybe","sender_app":"a"}"#),
            "decide: unknown prompt: maybe"
        );
        // A JSON error after a field error still wins.
        assert_eq!(
            err(r#"{"cmd":"decide","tags":[1] "event":"icc_send"}"#),
            "bad json: json error at byte 27: expected '}'"
        );
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
