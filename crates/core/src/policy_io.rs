//! Serialization of policy sets to and from JSON text.
//!
//! The paper's PDP is an on-device app that stores the synthesized
//! policies; shipping them means serializing. Policies go through the
//! workspace's one JSON codec, [`separ_obs::json::Value`]: this module
//! only maps the policy schema onto `Value` trees and back, so escaping,
//! number formatting and syntax checking are the codec's.

use separ_obs::json::Value;

use crate::policy::{Condition, Policy, PolicyAction, PolicyEvent};

/// Errors raised while reading a policy document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of a syntax error; `None` for a schema error, whose
    /// message names the policy index and key instead.
    pub offset: Option<usize>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.offset {
            Some(offset) => write!(f, "policy parse error at byte {offset}: {}", self.message),
            None => write!(f, "policy schema error: {}", self.message),
        }
    }
}

impl std::error::Error for ParseError {}

fn strings(list: &[String]) -> Value {
    Value::Arr(list.iter().cloned().map(Value::Str).collect())
}

fn condition_to_value(c: &Condition) -> Value {
    let (kind, key, payload) = match c {
        Condition::ReceiverIs(v) => ("receiver_is", "value", Value::Str(v.clone())),
        Condition::SenderIs(v) => ("sender_is", "value", Value::Str(v.clone())),
        Condition::ActionIs(v) => ("action_is", "value", Value::Str(v.clone())),
        Condition::ExtraTagged(v) => ("extra_tagged", "value", Value::Str(v.clone())),
        Condition::SenderNotIn(list) => ("sender_not_in", "values", strings(list)),
        Condition::ReceiverNotIn(list) => ("receiver_not_in", "values", strings(list)),
        Condition::SenderAppNotIn(list) => ("sender_app_not_in", "values", strings(list)),
    };
    Value::Obj(vec![
        ("kind".into(), Value::Str(kind.into())),
        (key.into(), payload),
    ])
}

/// The JSON tree of a policy set: an array of policy objects with keys
/// `id`, `vulnerability`, `event`, `conditions`, `action`, `rationale`,
/// in that order.
pub fn to_value(policies: &[Policy]) -> Value {
    Value::Arr(
        policies
            .iter()
            .map(|p| {
                Value::Obj(vec![
                    ("id".into(), Value::Num(f64::from(p.id))),
                    ("vulnerability".into(), Value::Str(p.vulnerability.clone())),
                    ("event".into(), Value::Str(p.event.name().into())),
                    (
                        "conditions".into(),
                        Value::Arr(p.conditions.iter().map(condition_to_value).collect()),
                    ),
                    ("action".into(), Value::Str(p.action.name().into())),
                    ("rationale".into(), Value::Str(p.rationale.clone())),
                ])
            })
            .collect(),
    )
}

/// Serializes a policy set to JSON text.
pub fn to_json(policies: &[Policy]) -> String {
    to_value(policies).to_string()
}

fn members(v: &Value) -> Result<&[(String, Value)], String> {
    match v {
        Value::Obj(members) => Ok(members),
        _ => Err("not an object".into()),
    }
}

fn items<'v>(key: &str, v: &'v Value) -> Result<&'v [Value], String> {
    v.as_arr().ok_or_else(|| format!("'{key}' is not an array"))
}

fn text(key: &str, v: &Value) -> Result<String, String> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("'{key}' is not a string"))
}

fn texts(key: &str, v: &Value) -> Result<Vec<String>, String> {
    items(key, v)?.iter().map(|s| text(key, s)).collect()
}

fn condition_from_value(v: &Value) -> Result<Condition, String> {
    let (mut kind, mut value, mut values) = (None, None, None);
    for (key, v) in members(v)? {
        match key.as_str() {
            "kind" => kind = Some(text(key, v)?),
            "value" => value = Some(text(key, v)?),
            "values" => values = Some(texts(key, v)?),
            other => return Err(format!("unknown condition key '{other}'")),
        }
    }
    let kind = kind.ok_or("missing 'kind'")?;
    let value = || value.ok_or(format!("'{kind}' missing 'value'"));
    let values = || values.ok_or(format!("'{kind}' missing 'values'"));
    Ok(match kind.as_str() {
        "receiver_is" => Condition::ReceiverIs(value()?),
        "sender_is" => Condition::SenderIs(value()?),
        "action_is" => Condition::ActionIs(value()?),
        "extra_tagged" => Condition::ExtraTagged(value()?),
        "sender_not_in" => Condition::SenderNotIn(values()?),
        "receiver_not_in" => Condition::ReceiverNotIn(values()?),
        "sender_app_not_in" => Condition::SenderAppNotIn(values()?),
        other => return Err(format!("unknown condition kind '{other}'")),
    })
}

fn policy_from_value(v: &Value) -> Result<Policy, String> {
    let mut policy = Policy {
        id: 0,
        vulnerability: String::new(),
        event: PolicyEvent::IccReceive,
        conditions: Vec::new(),
        action: PolicyAction::Prompt,
        rationale: String::new(),
    };
    let (mut saw_event, mut saw_action) = (false, false);
    for (key, v) in members(v)? {
        match key.as_str() {
            "id" => {
                policy.id = v
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or("'id' is not an integer in u32 range")?
            }
            "vulnerability" => policy.vulnerability = text(key, v)?,
            "rationale" => policy.rationale = text(key, v)?,
            "event" => {
                let name = text(key, v)?;
                policy.event = PolicyEvent::from_name(&name)
                    .ok_or_else(|| format!("unknown event '{name}'"))?;
                saw_event = true;
            }
            "action" => {
                let name = text(key, v)?;
                policy.action = PolicyAction::from_name(&name)
                    .ok_or_else(|| format!("unknown action '{name}'"))?;
                saw_action = true;
            }
            "conditions" => {
                policy.conditions = items(key, v)?
                    .iter()
                    .enumerate()
                    .map(|(j, c)| {
                        condition_from_value(c).map_err(|e| format!("condition {j}: {e}"))
                    })
                    .collect::<Result<_, _>>()?
            }
            other => return Err(format!("unknown policy key '{other}'")),
        }
    }
    if !saw_event || !saw_action {
        return Err("missing 'event' or 'action'".into());
    }
    Ok(policy)
}

/// Reads a policy set from the JSON tree [`to_value`] produces.
///
/// # Errors
///
/// Returns a schema [`ParseError`] (no offset) naming the offending
/// policy's index and key.
pub fn from_value(doc: &Value) -> Result<Vec<Policy>, ParseError> {
    let schema = |message: String| ParseError {
        offset: None,
        message,
    };
    doc.as_arr()
        .ok_or_else(|| schema("document is not an array of policies".into()))?
        .iter()
        .enumerate()
        .map(|(i, v)| policy_from_value(v).map_err(|e| schema(format!("policy {i}: {e}"))))
        .collect()
}

/// Parses a policy set from JSON text produced by [`to_json`].
///
/// # Errors
///
/// Returns a [`ParseError`]: with the byte offset for malformed JSON,
/// or naming the policy and key for a schema violation.
pub fn from_json(text: &str) -> Result<Vec<Policy>, ParseError> {
    let doc = Value::parse(text).map_err(|e| ParseError {
        offset: Some(e.offset),
        message: e.message,
    })?;
    from_value(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{policies_for_exploit, PolicyAction};
    use crate::Exploit;
    use separ_android::types::Resource;
    use std::collections::BTreeSet;

    fn sample_policies() -> Vec<Policy> {
        let hijack = Exploit::IntentHijack {
            victim_app: "com.nav".into(),
            victim_component: "LLoc;".into(),
            hijacked_action: Some("show\"Loc\nx".into()), // exercises escaping
            leaked: [Resource::Location].into_iter().collect(),
        };
        let leak = Exploit::InformationLeakage {
            source_app: "a".into(),
            source_component: "LS;".into(),
            sink_app: "b".into(),
            sink_component: "LR;".into(),
            resources: [Resource::DeviceId].into_iter().collect(),
            sinks: [Resource::Sms].into_iter().collect(),
            via_action: None,
        };
        let mut out = policies_for_exploit(&hijack, vec!["LRoute;".to_string()]);
        out.extend(policies_for_exploit(&leak, Vec::new()));
        out
    }

    #[test]
    fn round_trip_preserves_policies() {
        let policies = sample_policies();
        let json = to_json(&policies);
        let back = from_json(&json).expect("parses");
        assert_eq!(back, policies);
    }

    #[test]
    fn escapes_survive() {
        let mut p = sample_policies();
        p[0].rationale = "tab\there \"quoted\" back\\slash \u{1}ctl".into();
        let back = from_json(&to_json(&p)).expect("parses");
        assert_eq!(back[0].rationale, p[0].rationale);
    }

    #[test]
    fn empty_set_round_trips() {
        assert_eq!(from_json(&to_json(&[])).expect("parses"), vec![]);
        assert_eq!(from_json("  [ ]  ").expect("parses"), vec![]);
    }

    #[test]
    fn malformed_documents_are_rejected_with_offsets() {
        for bad in [
            "",
            "[",
            "[{}]",
            "[{\"id\":1}]",
            "[{\"event\":\"icc_send\",\"action\":\"prompt\"}] trailing",
            "[{\"event\":\"warp\",\"action\":\"prompt\"}]",
            "[{\"event\":\"icc_send\",\"action\":\"prompt\",\"conditions\":[{\"kind\":\"nope\",\"value\":\"x\"}]}]",
        ] {
            let err = from_json(bad).expect_err(bad);
            assert!(!err.message.is_empty());
        }
    }

    #[test]
    fn parser_handles_unicode_payloads() {
        let mut p = sample_policies();
        p[0].rationale = "emoji \u{1F512} and ünïcode".into();
        let back = from_json(&to_json(&p)).expect("parses");
        assert_eq!(back[0].rationale, p[0].rationale);
    }

    #[test]
    fn action_variants_round_trip() {
        for action in [
            PolicyAction::Prompt,
            PolicyAction::Deny,
            PolicyAction::Allow,
        ] {
            let mut p = sample_policies();
            p[0].action = action;
            let back = from_json(&to_json(&p)).expect("parses");
            assert_eq!(back[0].action, action);
        }
        let _ = BTreeSet::<u8>::new();
    }
}
