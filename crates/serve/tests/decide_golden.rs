//! Golden `decide` replies: the exact bytes a decision goes out as.
//!
//! The daemon writes the `decide` reply directly instead of building it
//! as a JSON object; these goldens were produced by the object-building
//! path (`ok_response` over a `decision` string and a `policy_id`
//! number or `null`) and pin byte identity with it.

use std::collections::BTreeSet;
use std::sync::Arc;

use separ_core::policy_io;
use separ_enforce::{probe_contexts, Decision};
use separ_obs::json::Value;
use separ_serve::protocol::{decide_response, encode_hex, ok_response};
use separ_serve::{Daemon, ServeConfig};

fn vulnerability() -> Arc<str> {
    Arc::from("intent-hijack")
}

/// `(decision, golden reply)`.
fn goldens() -> Vec<(Decision, &'static str)> {
    vec![
        (
            Decision::Allow,
            r#"{"ok":true,"decision":"allow","policy_id":null}"#,
        ),
        (
            Decision::Deny {
                policy_id: 0,
                vulnerability: vulnerability(),
            },
            r#"{"ok":true,"decision":"deny","policy_id":0}"#,
        ),
        (
            Decision::Deny {
                policy_id: 7,
                vulnerability: vulnerability(),
            },
            r#"{"ok":true,"decision":"deny","policy_id":7}"#,
        ),
        (
            Decision::PromptAllowed { policy_id: 3 },
            r#"{"ok":true,"decision":"prompt_allowed","policy_id":3}"#,
        ),
        (
            Decision::PromptDenied {
                policy_id: 4_000_000_000,
                vulnerability: vulnerability(),
            },
            r#"{"ok":true,"decision":"prompt_denied","policy_id":4000000000}"#,
        ),
        (
            Decision::PromptDenied {
                policy_id: u32::MAX,
                vulnerability: vulnerability(),
            },
            r#"{"ok":true,"decision":"prompt_denied","policy_id":4294967295}"#,
        ),
    ]
}

/// The reply as the generic object builder makes it.
fn built_reply(label: &str, policy_id: Option<u32>) -> String {
    ok_response(vec![
        ("decision".into(), Value::Str(label.into())),
        (
            "policy_id".into(),
            match policy_id {
                Some(id) => Value::Num(f64::from(id)),
                None => Value::Null,
            },
        ),
    ])
}

#[test]
fn decide_replies_match_the_goldens() {
    for (decision, golden) in goldens() {
        let reply = decide_response(&decision);
        assert_eq!(reply, golden);
        assert_eq!(
            reply,
            built_reply(decision.label(), decision.policy_id()),
            "{decision:?}"
        );
    }
}

#[test]
fn daemon_decide_replies_are_the_built_bytes() {
    let daemon = Daemon::start(ServeConfig {
        config: separ_core::SeparConfig::serial(),
        ..ServeConfig::default()
    })
    .expect("boots");
    let line = r#"{"cmd":"decide","event":"icc_send","sender_app":"com.a"}"#;
    assert_eq!(daemon.handle(line), goldens()[0].1, "empty bundle allows");
    for apk in [
        separ_corpus::motivating::navigator_app(),
        separ_corpus::motivating::messenger_app(false),
        separ_corpus::motivating::malicious_app("+15550000"),
    ] {
        let hex = encode_hex(&separ_dex::codec::encode(&apk));
        daemon.handle(&format!(r#"{{"cmd":"install","bytes_hex":"{hex}"}}"#));
    }
    let v = Value::parse(&daemon.handle(r#"{"cmd":"query","what":"policies"}"#)).expect("json");
    let mut json = String::new();
    v.get("policies").expect("policies").write_into(&mut json);
    let policies = policy_io::from_json(&json).expect("policy JSON");
    let mut labels = BTreeSet::new();
    for (event, ctx) in probe_contexts(&policies) {
        for prompt in ["allow", "deny"] {
            let mut line = format!(
                r#"{{"cmd":"decide","event":"{}","sender_app":"{}","sender_component":"{}""#,
                event.name(),
                ctx.sender_app,
                ctx.sender_component
            );
            for (key, value) in [
                ("receiver_app", &ctx.receiver_app),
                ("receiver_component", &ctx.receiver_component),
                ("action", &ctx.action),
            ] {
                if let Some(value) = value {
                    line.push_str(&format!(r#","{key}":"{value}""#));
                }
            }
            let tags: Vec<String> = ctx.tags.iter().map(|t| format!("\"{t}\"")).collect();
            line.push_str(&format!(
                r#","tags":[{}],"prompt":"{prompt}"}}"#,
                tags.join(",")
            ));
            let reply = daemon.handle(&line);
            let v = Value::parse(&reply).expect("json reply");
            let label = v.get("decision").and_then(Value::as_str).expect("label");
            let id = v
                .get("policy_id")
                .and_then(Value::as_u64)
                .map(|id| u32::try_from(id).expect("u32 id"));
            assert_eq!(reply, built_reply(label, id), "{line}");
            labels.insert(label.to_string());
        }
    }
    // The motivating bundle synthesizes only prompt policies; `deny` is
    // pinned by the direct goldens.
    assert_eq!(
        labels,
        ["allow", "prompt_allowed", "prompt_denied"]
            .map(String::from)
            .into(),
        "the probes reach every prompt outcome"
    );
}
