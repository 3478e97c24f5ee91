//! Differential fuzzing of the `separ serve` request parser, and
//! property tests of the JSON codec under it.
//!
//! `Request::parse` reads a request line straight off the borrowing
//! `json::Lexer`. The reference here is the mapping it replaced: parse
//! the line into a `Value` tree, then read the fields off the tree. On
//! every generated line — well formed, hostile, truncated or mutated —
//! both must give a `Debug`-equal request or the same error string.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use separ::android::types::Resource;
use separ::core::policy::PolicyEvent;
use separ::enforce::IccContext;
use separ::obs::json::{escape_into, Lexer, Value};
use separ::serve::protocol::{decode_hex, QueryWhat};
use separ::serve::Request;

// ---------------------------------------------------------------------
// The reference: the `Value`-tree request mapping
// ---------------------------------------------------------------------

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(String::from)
        .ok_or_else(|| format!("missing \"{key}\""))
}

/// `Request::parse` as a mapping over a parsed `Value` tree.
fn reference_parse(line: &str) -> Result<Request, String> {
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

// ---------------------------------------------------------------------
// Request-line generator
// ---------------------------------------------------------------------

const CMDS: [&str; 12] = [
    "install",
    "uninstall",
    "set_permission",
    "query",
    "decide",
    "stats",
    "metrics",
    "health",
    "subscribe",
    "shutdown",
    "launch_missiles",
    "Decide",
];

/// Every key some command reads, plus near-misses and strangers.
const KEYS: [&str; 19] = [
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
    "extra",
    "cmd ",
    "Tags",
];

fn pick<'a>(rng: &mut SmallRng, items: &[&'a str]) -> &'a str {
    items[rng.gen_range(0..items.len())]
}

/// Whitespace between tokens: usually none.
fn ws(rng: &mut SmallRng) -> &'static str {
    if rng.gen_bool(0.8) {
        ""
    } else {
        pick(rng, &[" ", "\t", "\n", "\r", "  \n "])
    }
}

/// `s` as a JSON string literal, with some characters (or all) written
/// as `\u` escapes.
fn escaped_literal(rng: &mut SmallRng, s: &str) -> String {
    let mut out = String::from("\"");
    let p = if rng.gen_bool(0.8) { 0.0 } else { 0.5 };
    for c in s.chars() {
        if (c as u32) < 0x10000 && rng.gen_bool(p) {
            out.push_str(&format!("\\u{:04x}", c as u32));
        } else {
            escape_into(c.encode_utf8(&mut [0; 4]), &mut out);
        }
    }
    out.push('"');
    out
}

/// One of `items` as a string literal.
fn one_of(rng: &mut SmallRng, items: &[&str]) -> String {
    let s = pick(rng, items);
    escaped_literal(rng, s)
}

/// A JSON string literal built from text pieces and escapes — rarely
/// one that is not valid JSON.
fn string_literal(rng: &mut SmallRng) -> String {
    const PIECES: [&str; 20] = [
        "com",
        ".",
        "a",
        "LC;",
        "/",
        "é",
        "日本",
        "😀",
        "\\n",
        "\\\"",
        "\\\\",
        "\\/",
        "\\u00e9",
        "\\u65e5",
        "\\ud83d",
        "\\b\\f\\r\\t",
        "LOCATION",
        "x",
        "0",
        " ",
    ];
    const BAD: [&str; 6] = ["\u{1}", "\\x", "\\u12", "\\u+abc", "\\uzzzz", "\u{1f}"];
    let mut out = String::from("\"");
    for _ in 0..rng.gen_range(0..6) {
        if rng.gen_bool(0.03) {
            out.push_str(pick(rng, &BAD));
        } else {
            out.push_str(pick(rng, &PIECES));
        }
    }
    out.push('"');
    out
}

/// A number token — rarely one RFC 8259 does not allow.
fn number_token(rng: &mut SmallRng) -> String {
    const GOOD: [&str; 12] = [
        "0",
        "7",
        "250",
        "-1",
        "-0",
        "2.5",
        "1e3",
        "1E+2",
        "25e-1",
        "18446744073709551615",
        "1e20",
        "1e400",
    ];
    const BAD: [&str; 8] = ["+5", "01", "-01", ".5", "5.", "1.e5", "--3", "1e"];
    if rng.gen_bool(0.1) {
        pick(rng, &BAD).to_string()
    } else if rng.gen_bool(0.3) {
        rng.gen_range(0u64..100_000).to_string()
    } else {
        pick(rng, &GOOD).to_string()
    }
}

/// Any JSON value, nested at most `depth` more levels.
fn any_value(rng: &mut SmallRng, depth: usize) -> String {
    let containers = if depth == 0 { 0 } else { 2 };
    match rng.gen_range(0..5 + containers) {
        0 => pick(rng, &["null", "true", "false"]).to_string(),
        1 | 2 => number_token(rng),
        3 | 4 => string_literal(rng),
        5 => {
            let items: Vec<String> = (0..rng.gen_range(0..4))
                .map(|_| format!("{}{}{}", ws(rng), any_value(rng, depth - 1), ws(rng)))
                .collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let members: Vec<String> = (0..rng.gen_range(0..4))
                .map(|_| {
                    let key = pick(rng, &KEYS);
                    let key = escaped_literal(rng, key);
                    format!("{key}{}:{}{}", ws(rng), ws(rng), any_value(rng, depth - 1))
                })
                .collect();
            format!("{{{}}}", members.join(","))
        }
    }
}

/// A value that fits `key` for the command — or, now and then, any value.
fn member_value(rng: &mut SmallRng, key: &str, cmd: &str) -> String {
    if rng.gen_bool(0.08) {
        return any_value(rng, 2);
    }
    let tag_names: Vec<&str> = Resource::ALL.iter().map(|r| r.name()).collect();
    match key {
        "cmd" if rng.gen_bool(0.9) => escaped_literal(rng, cmd),
        "cmd" => one_of(rng, &CMDS),
        "deadline_ms" => number_token(rng),
        "bytes_hex" => {
            let mut hex: String = (0..rng.gen_range(0..12))
                .map(|_| pick(rng, &["0", "a", "F", "9", "c3"]))
                .collect();
            if rng.gen_bool(0.05) {
                hex.push('g');
            }
            format!("\"{hex}\"")
        }
        "granted" => pick(rng, &["true", "false"]).to_string(),
        "what" => one_of(
            rng,
            &["policies", "exploits", "apps", "summary", "everything"],
        ),
        "event" => one_of(rng, &["icc_send", "icc_receive", "nope"]),
        "prompt" => one_of(rng, &["allow", "deny", "maybe"]),
        "format" => one_of(rng, &["prometheus", "json", "xml"]),
        "tags" => {
            let items: Vec<String> = (0..rng.gen_range(0..4))
                .map(|_| {
                    if rng.gen_bool(0.05) {
                        any_value(rng, 1)
                    } else if rng.gen_bool(0.05) {
                        "\"NOPE\"".to_string()
                    } else {
                        one_of(rng, &tag_names)
                    }
                })
                .collect();
            format!("[{}{}]", ws(rng), items.join(","))
        }
        _ => string_literal(rng),
    }
}

/// The keys a command reads.
fn keys_of(cmd: &str) -> &'static [&'static str] {
    match cmd {
        "install" => &["bytes_hex", "deadline_ms"],
        "uninstall" => &["package", "deadline_ms"],
        "set_permission" => &["package", "permission", "granted", "deadline_ms"],
        "query" => &["what"],
        "decide" => &[
            "event",
            "sender_app",
            "sender_component",
            "receiver_app",
            "receiver_component",
            "action",
            "tags",
            "prompt",
        ],
        "metrics" => &["format"],
        _ => &[],
    }
}

/// One request line: a command's members (some dropped, some
/// duplicated, strangers added) in random order with random whitespace;
/// now and then a document that is not an object at all.
fn request_line(rng: &mut SmallRng) -> String {
    if rng.gen_bool(0.03) {
        return any_value(rng, 3);
    }
    // Decide lines carry the most members: a third of the lines.
    let cmd = if rng.gen_bool(0.3) {
        "decide"
    } else {
        pick(rng, &CMDS)
    };
    let mut keys: Vec<&str> = Vec::new();
    if rng.gen_bool(0.95) {
        keys.push("cmd");
    }
    keys.extend(keys_of(cmd).iter().filter(|_| rng.gen_bool(0.85)));
    for _ in 0..rng.gen_range(0..3) {
        let key = pick(rng, &KEYS);
        keys.push(key);
    }
    // Duplicates of keys already present.
    for _ in 0..rng.gen_range(0..2) {
        if !keys.is_empty() {
            let key = keys[rng.gen_range(0..keys.len())];
            keys.push(key);
        }
    }
    // Fisher–Yates.
    for i in (1..keys.len()).rev() {
        let j = rng.gen_range(0..=i);
        keys.swap(i, j);
    }
    let members: Vec<String> = keys
        .iter()
        .map(|key| {
            format!(
                "{}{}{}:{}{}{}",
                ws(rng),
                escaped_literal(rng, key),
                ws(rng),
                ws(rng),
                member_value(rng, key, cmd),
                ws(rng)
            )
        })
        .collect();
    format!("{}{{{}}}{}", ws(rng), members.join(","), ws(rng))
}

/// A variant of `line`: truncated, or with one character replaced,
/// inserted or deleted.
fn mutate(rng: &mut SmallRng, line: &str) -> String {
    const CHARS: [char; 18] = [
        '{', '}', '[', ']', ',', ':', '"', '\\', '0', '+', '-', 'e', '.', ' ', 'x', 'é', 'n',
        '\u{1}',
    ];
    let bounds: Vec<usize> = line
        .char_indices()
        .map(|(i, _)| i)
        .chain([line.len()])
        .collect();
    let at = bounds[rng.gen_range(0..bounds.len())];
    let next = bounds.iter().copied().find(|&b| b > at).unwrap_or(at);
    let c = CHARS[rng.gen_range(0..CHARS.len())];
    match rng.gen_range(0..4) {
        0 => line[..at].to_string(),
        1 => format!("{}{c}{}", &line[..at], &line[next..]),
        2 => format!("{}{c}{}", &line[..at], &line[at..]),
        _ => format!("{}{}", &line[..at], &line[next..]),
    }
}

fn assert_matches_reference(line: &str) {
    let got = format!("{:?}", Request::parse(line));
    let want = format!("{:?}", reference_parse(line));
    assert_eq!(got, want, "line: {line:?}");
}

// ---------------------------------------------------------------------
// Value-tree generator
// ---------------------------------------------------------------------

fn any_string(rng: &mut SmallRng) -> String {
    const CHARS: [char; 14] = [
        'a', 'Z', ' ', '"', '\\', '/', '\n', '\u{1}', '\u{1f}', '\u{7f}', 'é', '日', '😀',
        '\u{fffd}',
    ];
    (0..rng.gen_range(0..8))
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

fn any_number(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..4) {
        0 => rng.gen_range(-1_000_000i64..1_000_000) as f64,
        1 => rng.gen_range(-1000.0..1000.0),
        2 => rng.gen::<u64>() as f64,
        _ => loop {
            let n = f64::from_bits(rng.gen::<u64>());
            if n.is_finite() {
                break n;
            }
        },
    }
}

fn any_tree(rng: &mut SmallRng, depth: usize) -> Value {
    let containers = if depth == 0 { 0 } else { 2 };
    match rng.gen_range(0..5 + containers) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Num(any_number(rng)),
        3 | 4 => Value::Str(any_string(rng)),
        5 => Value::Arr(
            (0..rng.gen_range(0..4))
                .map(|_| any_tree(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..rng.gen_range(0..4))
                .map(|_| (any_string(rng), any_tree(rng, depth - 1)))
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn request_parse_matches_the_value_tree_reference(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let line = request_line(&mut rng);
        assert_matches_reference(&line);
        for _ in 0..6 {
            let variant = mutate(&mut rng, &line);
            assert_matches_reference(&variant);
            // The lexer's validating skip agrees with the tree builder.
            let mut lexer = Lexer::new(&variant);
            let skipped = lexer.skip().and_then(|_| lexer.finish());
            prop_assert_eq!(skipped.err(), Value::parse(&variant).err());
        }
    }

    #[test]
    fn written_values_parse_back_equal(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let v = any_tree(&mut rng, 4);
        let text = v.to_string();
        prop_assert_eq!(Value::parse(&text), Ok(v), "{}", text);
    }

    #[test]
    fn every_strict_prefix_of_a_document_is_rejected(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // A container root: a prefix of a bare number can be a number.
        let v = match any_tree(&mut rng, 3) {
            v @ (Value::Arr(_) | Value::Obj(_)) => v,
            v => Value::Arr(vec![v]),
        };
        let text = v.to_string();
        for (at, _) in text.char_indices() {
            prop_assert!(Value::parse(&text[..at]).is_err(), "{:?}", &text[..at]);
        }
    }
}

#[test]
fn hostile_lines_match_the_reference() {
    let deep = "[".repeat(100_000);
    let long = format!(r#"{{"cmd":"uninstall","package":"{}"#, "a".repeat(1 << 20));
    for line in [
        "",
        "   ",
        "null",
        "[]",
        "\"cmd\"",
        r#"{"cmd":"decide""#,
        r#"{"cmd":"uninstall","package":"p","deadline_ms":+5}"#,
        r#"{"cmd":"uninstall","package":"p","deadline_ms":1e400}"#,
        r#"{"cmd":"uninstall","package":"p","deadline_ms":-0}"#,
        r#"{"cmd":"launch_missiles"}"#,
        r#"{"cmd":"decide","event":"icc_send","sender_app":"a","sender_app":"b"}"#,
        r#"{"cmd":"decide","event":"icc_send","tags":["LOCATION",1],"sender_app":"a"}"#,
        r#"{"cmd":"decide","event":"icc_send","tags":"LOCATION","sender_app":"a"}"#,
        r#"{"cmd":"decide","event":"icc_send","prompt":"maybe"}"#,
        r#"{"cmd":"stats"}"#,
        &deep,
        &long,
    ] {
        assert_matches_reference(line);
    }
}
