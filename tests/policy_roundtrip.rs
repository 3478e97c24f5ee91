//! Policy-shipping stability: `to_json` → `from_json` → `to_json` must be
//! byte-identical, and the parsed set structurally equal, for every policy
//! kind the four standard signatures produce. The codec itself is pinned
//! too: golden bytes, random hostile strings, truncated documents, and
//! every schema violation the reader must refuse.
//!
//! The PDP ships policies between the analysis host and the device; any
//! normalization drift across a hop would make policy diffing (and the
//! incremental deltas built on it) unsound.

use std::collections::BTreeSet;

use proptest::prelude::*;
use separ::core::{
    policy_io, Condition, Policy, PolicyAction, PolicyEvent, Separ, SeparConfig, VulnKind,
};
use separ::corpus::market::{generate, MarketSpec};
use separ::corpus::motivating;

/// Policies from the motivating bundle (hijack, launch, escalation) plus a
/// generated market bundle (information leakage), covering all four
/// standard signatures.
fn policies_covering_all_signatures() -> Vec<Policy> {
    let motivating_bundle = vec![
        motivating::navigator_app(),
        motivating::messenger_app(false),
    ];
    let mut policies = Separ::new()
        .with_config(SeparConfig::serial())
        .analyze_apks(&motivating_bundle)
        .expect("motivating bundle analyzes")
        .policies;

    // Scan seeded market bundles until one leaks; generation is
    // deterministic, so the scan always lands on the same bundle.
    let mut leaked = false;
    for seed in 0..32 {
        let market = generate(&MarketSpec::scaled(12, seed));
        let apks: Vec<_> = market.into_iter().map(|m| m.apk).collect();
        let report = Separ::new()
            .with_config(SeparConfig::serial())
            .analyze_apks(&apks)
            .expect("market bundle analyzes");
        if report.exploits_of(VulnKind::InformationLeakage).count() > 0 {
            policies.extend(report.policies);
            leaked = true;
            break;
        }
    }
    assert!(
        leaked,
        "no market seed in 0..32 produced information leakage"
    );
    policies
}

#[test]
fn every_standard_policy_kind_reserializes_byte_identically() {
    let policies = policies_covering_all_signatures();
    let kinds: BTreeSet<&str> = policies.iter().map(|p| p.vulnerability.as_str()).collect();
    for kind in [
        VulnKind::IntentHijack,
        VulnKind::ComponentLaunch,
        VulnKind::InformationLeakage,
        VulnKind::PrivilegeEscalation,
    ] {
        assert!(
            kinds.contains(kind.name()),
            "bundle must cover {} (got {kinds:?})",
            kind.name()
        );
    }

    // Whole-set stability.
    let json = policy_io::to_json(&policies);
    let parsed = policy_io::from_json(&json).expect("own output parses");
    assert_eq!(parsed, policies, "parse must invert serialization");
    assert_eq!(
        policy_io::to_json(&parsed),
        json,
        "re-serialization must be byte-identical"
    );

    // Per-policy stability, so a failure names the offending kind.
    for p in &policies {
        let one = std::slice::from_ref(p);
        let json = policy_io::to_json(one);
        let parsed = policy_io::from_json(&json)
            .unwrap_or_else(|e| panic!("{} policy fails to parse: {e}\n{json}", p.vulnerability));
        assert_eq!(parsed.as_slice(), one, "{} policy drifts", p.vulnerability);
        assert_eq!(
            policy_io::to_json(&parsed),
            json,
            "{} policy re-serialization drifts",
            p.vulnerability
        );
    }
}

#[test]
fn json_round_trip_survives_a_second_hop() {
    // Ship host -> device -> host: two hops must also be stable.
    let policies = policies_covering_all_signatures();
    let hop1 = policy_io::to_json(&policies);
    let hop2 = policy_io::to_json(&policy_io::from_json(&hop1).expect("hop 1 parses"));
    let hop3 = policy_io::to_json(&policy_io::from_json(&hop2).expect("hop 2 parses"));
    assert_eq!(hop1, hop2);
    assert_eq!(hop2, hop3);
}

/// The exact shipped bytes of one motivating-bundle policy: key order,
/// integer ids and string escaping are part of the wire format.
#[test]
fn motivating_policy_serializes_to_golden_bytes() {
    let policies = Separ::new()
        .with_config(SeparConfig::serial())
        .analyze_apks(&[
            motivating::navigator_app(),
            motivating::messenger_app(false),
        ])
        .expect("motivating bundle analyzes")
        .policies;
    let hijack = policies
        .iter()
        .find(|p| p.vulnerability == VulnKind::IntentHijack.name())
        .expect("the motivating bundle yields a hijack policy");
    let json = policy_io::to_json(std::slice::from_ref(hijack));
    assert_eq!(json, GOLDEN_HIJACK_POLICY, "golden bytes drift:\n{json}");
    assert_eq!(
        policy_io::from_json(GOLDEN_HIJACK_POLICY).expect("golden parses"),
        vec![hijack.clone()]
    );
}

const GOLDEN_HIJACK_POLICY: &str = concat!(
    r#"[{"id":0,"vulnerability":"intent-hijack","event":"icc_send","conditions":[{"kind":"sender_is","value":"Lcom/navigator/LocationFinder;"}"#,
    r#",{"kind":"action_is","value":"showLoc"}"#,
    r#",{"kind":"extra_tagged","value":"LOCATION"}"#,
    r#",{"kind":"receiver_not_in","values":["Lcom/navigator/RouteFinder;"]}],"action":"prompt","rationale":"implicit intent from com.navigator/Lcom/navigator/LocationFinder; carries {Location} and can be hijacked"}]"#,
);

/// Characters that stress the codec: quotes, backslashes, every escape
/// class of control character, the solidus, and multi-byte UTF-8.
const NASTY: [char; 16] = [
    'a', 'Z', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}',
    'é', '🔒',
];

fn nasty_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0..NASTY.len(), 0..12)
        .prop_map(|idx| idx.into_iter().map(|i| NASTY[i]).collect())
}

fn arb_condition() -> impl Strategy<Value = Condition> {
    (
        0usize..7,
        nasty_string(),
        prop::collection::vec(nasty_string(), 0..3),
    )
        .prop_map(|(kind, s, list)| match kind {
            0 => Condition::ReceiverIs(s),
            1 => Condition::SenderIs(s),
            2 => Condition::ActionIs(s),
            3 => Condition::ExtraTagged(s),
            4 => Condition::SenderNotIn(list),
            5 => Condition::ReceiverNotIn(list),
            _ => Condition::SenderAppNotIn(list),
        })
}

fn arb_policy() -> impl Strategy<Value = Policy> {
    (
        any::<u32>(),
        nasty_string(),
        any::<bool>(),
        prop::collection::vec(arb_condition(), 0..4),
        0usize..3,
        nasty_string(),
    )
        .prop_map(
            |(id, vulnerability, send, conditions, action, rationale)| Policy {
                id,
                vulnerability,
                event: if send {
                    PolicyEvent::IccSend
                } else {
                    PolicyEvent::IccReceive
                },
                conditions,
                action: [
                    PolicyAction::Prompt,
                    PolicyAction::Deny,
                    PolicyAction::Allow,
                ][action],
                rationale,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_policies_round_trip(policies in prop::collection::vec(arb_policy(), 0..4)) {
        let json = policy_io::to_json(&policies);
        prop_assert_eq!(&policy_io::from_json(&json).expect("own output parses"), &policies);
        prop_assert_eq!(
            &policy_io::from_value(&policy_io::to_value(&policies)).expect("own tree reads"),
            &policies
        );
    }
}

#[test]
fn every_prefix_of_a_document_is_rejected() {
    let mut policies = policies_covering_all_signatures();
    policies[0].rationale = "non-ASCII é 🔒 and \"escapes\"\n".into();
    let json = policy_io::to_json(&policies);
    for end in (0..json.len()).filter(|&end| json.is_char_boundary(end)) {
        assert!(
            policy_io::from_json(&json[..end]).is_err(),
            "prefix of {end} bytes parsed"
        );
    }
}

#[test]
fn schema_violations_are_rejected_by_policy_and_key() {
    let valid = r#"{"id":7,"vulnerability":"x","event":"icc_send","conditions":[],"action":"deny","rationale":""}"#;
    assert!(policy_io::from_json(&format!("[{valid}]")).is_ok());
    for (bad, names) in [
        (
            r#"{"event":"icc_send","action":"deny","colour":"red"}"#,
            "unknown policy key 'colour'",
        ),
        (
            r#"{"event":"icc_send","action":"deny","conditions":[{"kind":"sender_is","value":"x","extra":1}]}"#,
            "condition 0: unknown condition key 'extra'",
        ),
        (r#"{"action":"deny"}"#, "missing 'event' or 'action'"),
        (r#"{"event":"icc_send"}"#, "missing 'event' or 'action'"),
        (
            r#"{"event":"icc_send","action":"deny","conditions":[{"kind":"sender_was","value":"x"}]}"#,
            "unknown condition kind 'sender_was'",
        ),
        (
            r#"{"event":"icc_teleport","action":"deny"}"#,
            "unknown event 'icc_teleport'",
        ),
        (
            r#"{"event":"icc_send","action":"shrug"}"#,
            "unknown action 'shrug'",
        ),
        (r#"{"id":"7","event":"icc_send","action":"deny"}"#, "'id'"),
        (r#"{"id":1.5,"event":"icc_send","action":"deny"}"#, "'id'"),
        (r#"{"id":-1,"event":"icc_send","action":"deny"}"#, "'id'"),
        (
            r#"{"id":4294967296,"event":"icc_send","action":"deny"}"#,
            "'id'",
        ),
    ] {
        let err = policy_io::from_json(&format!("[{valid},{bad}]")).expect_err(bad);
        assert_eq!(err.offset, None, "{bad}: a schema error has no byte offset");
        assert!(
            err.message.starts_with("policy 1: ") && err.message.contains(names),
            "{bad}: {}",
            err.message
        );
    }
    let max = policy_io::from_json(r#"[{"id":4294967295,"event":"icc_send","action":"deny"}]"#)
        .expect("u32::MAX is a valid id");
    assert_eq!(max[0].id, u32::MAX);
}
