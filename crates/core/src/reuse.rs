//! Reusing a signature's exploits whenever its slice is unchanged.
//!
//! A signature's exploits are a function of three things: its own facts
//! (its identity), the scenario limit, and the post-passive-resolution
//! models of the apps its relevance slice kept, in slice order. Slicing
//! drops every other app before translation (see
//! `separ_analysis::slicing`), so nothing else reaches the solver.
//! [`ResultKey`] names that input: a SHA-256 over [`SYNTHESIS_FORMAT`],
//! the signature's name, the limit and the content addresses
//! ([`separ_analysis::cache::model_address`]) of the kept models.
//!
//! An [`crate::IncrementalSession`] keys every signature it is asked to
//! re-run and skips the ones whose key equals the key of the result it
//! holds. A resuming session also asks its caller for a stored result
//! under each key: `separ serve` keeps one file per key, encoded by
//! [`encode_result`]. A result is valid for its key whatever else
//! changed, so results are never invalidated; [`SYNTHESIS_FORMAT`] must
//! change instead whenever synthesis of a given slice, or this codec,
//! would produce different bytes. The `exploits_digest_is_pinned` test
//! pins one market's exploits to catch that. For the same reason a
//! signature's name stands for its facts: two signatures that a session
//! registers must not share a name.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use separ_analysis::cache::{sha256, write_opt_str, write_str, write_u64, Reader};
use separ_android::resolution::IntentData;
use separ_android::types::Resource;

use crate::exploit::Exploit;

/// The version of synthesis output that result keys and result files
/// commit to. Bump it whenever any signature's exploits for an unchanged
/// slice change (solver search order, scenario decoding, a signature's
/// facts) or the [`encode_result`] codec changes: every stored result
/// then misses and is synthesized afresh.
pub const SYNTHESIS_FORMAT: u32 = 1;

/// A model's content address: `separ_analysis::cache::model_address`.
pub type ModelAddress = [u8; 32];

/// Names one signature's synthesis input (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ResultKey(pub [u8; 32]);

impl ResultKey {
    /// The key of `signature`'s synthesis at `limit` over the models
    /// with content addresses `kept`, in slice order.
    pub(crate) fn of_slice<'a>(
        signature: &str,
        limit: usize,
        kept: impl ExactSizeIterator<Item = &'a ModelAddress>,
    ) -> ResultKey {
        let mut input = Vec::with_capacity(64 + signature.len() + 32 * kept.len());
        input.extend_from_slice(b"separ-result\0");
        input.extend_from_slice(&SYNTHESIS_FORMAT.to_le_bytes());
        write_str(&mut input, signature);
        write_u64(&mut input, limit as u64);
        write_u64(&mut input, kept.len() as u64);
        for address in kept {
            input.extend_from_slice(address);
        }
        ResultKey(sha256(&input))
    }
}

impl fmt::Display for ResultKey {
    /// Lower-case hex, the name a store files the result under.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Hex(&self.0).fmt(f)
    }
}

/// Displays bytes as lower-case hex digits: how result keys, model
/// addresses and pack names are spelled on disk, and packages on the
/// daemon's wire.
pub(crate) struct Hex<'a>(pub &'a [u8]);

impl fmt::Display for Hex<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.iter().try_for_each(|b| write!(f, "{b:02x}"))
    }
}

/// Encodes bytes as lower-case hex.
pub fn encode_hex(bytes: &[u8]) -> String {
    Hex(bytes).to_string()
}

/// Decodes a lower- or upper-case hex string; `None` on odd length or
/// non-hex bytes.
pub fn decode_hex(hex: &str) -> Option<Vec<u8>> {
    let digits = hex.as_bytes();
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    let nibble = |d: u8| char::from(d).to_digit(16);
    (digits.chunks_exact(2))
        .map(|pair| Some((nibble(pair[0])? << 4 | nibble(pair[1])?) as u8))
        .collect()
}

const MAGIC: &[u8; 4] = b"SEPX";
/// Magic, format, key and payload checksum.
const HEADER_LEN: usize = 72;

/// Serializes `exploits`, synthesized for `key`, into a self-checking
/// result file: magic, [`SYNTHESIS_FORMAT`], the key, the payload's
/// SHA-256, then the payload.
pub fn encode_result(key: &ResultKey, exploits: &[Exploit]) -> Vec<u8> {
    let mut payload = Vec::new();
    write_exploits(&mut payload, exploits);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&SYNTHESIS_FORMAT.to_le_bytes());
    out.extend_from_slice(&key.0);
    out.extend_from_slice(&sha256(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Deserializes a result file written by [`encode_result`] for `key`,
/// returning `None` on any corruption: bad magic, another
/// [`SYNTHESIS_FORMAT`], a result for another key, a checksum failure,
/// or a malformed payload.
pub fn decode_result(key: &ResultKey, data: &[u8]) -> Option<Vec<Exploit>> {
    if data.len() < HEADER_LEN || &data[..4] != MAGIC {
        return None;
    }
    if data[4..8] != SYNTHESIS_FORMAT.to_le_bytes() || data[8..40] != key.0 {
        return None;
    }
    let payload = &data[HEADER_LEN..];
    if sha256(payload)[..] != data[40..HEADER_LEN] {
        return None;
    }
    let mut r = Reader::new(payload);
    let n = r.prefix_len()?;
    let exploits = (0..n)
        .map(|_| read_exploit(&mut r))
        .collect::<Option<Vec<_>>>()?;
    r.is_done().then_some(exploits)
}

// --- writing ---------------------------------------------------------

fn write_resources(out: &mut Vec<u8>, set: &BTreeSet<Resource>) {
    write_u64(out, set.len() as u64);
    out.extend(set.iter().map(|&r| r as u8));
}

fn write_intent(out: &mut Vec<u8>, i: &IntentData) {
    write_opt_str(out, i.action.as_deref());
    write_u64(out, i.categories.len() as u64);
    for c in &i.categories {
        write_str(out, c);
    }
    write_opt_str(out, i.data_type.as_deref());
    write_opt_str(out, i.data_scheme.as_deref());
    write_opt_str(out, i.explicit_target.as_deref());
    write_u64(out, i.extras.len() as u64);
    for (k, v) in &i.extras {
        write_str(out, k);
        write_str(out, v);
    }
}

fn write_exploits(out: &mut Vec<u8>, exploits: &[Exploit]) {
    write_u64(out, exploits.len() as u64);
    for e in exploits {
        match e {
            Exploit::IntentHijack {
                victim_app,
                victim_component,
                hijacked_action,
                leaked,
            } => {
                out.push(0);
                write_str(out, victim_app);
                write_str(out, victim_component);
                write_opt_str(out, hijacked_action.as_deref());
                write_resources(out, leaked);
            }
            Exploit::ComponentLaunch {
                target_app,
                target_component,
                fake_intent,
                payload,
            } => {
                out.push(1);
                write_str(out, target_app);
                write_str(out, target_component);
                write_intent(out, fake_intent);
                write_resources(out, payload);
            }
            Exploit::PrivilegeEscalation {
                target_app,
                target_component,
                permission,
                fake_intent,
            } => {
                out.push(2);
                write_str(out, target_app);
                write_str(out, target_component);
                write_str(out, permission);
                write_intent(out, fake_intent);
            }
            Exploit::InformationLeakage {
                source_app,
                source_component,
                sink_app,
                sink_component,
                resources,
                sinks,
                via_action,
            } => {
                out.push(3);
                write_str(out, source_app);
                write_str(out, source_component);
                write_str(out, sink_app);
                write_str(out, sink_component);
                write_resources(out, resources);
                write_resources(out, sinks);
                write_opt_str(out, via_action.as_deref());
            }
            Exploit::BroadcastInjection {
                target_app,
                target_component,
                spoofed_action,
                sinks,
            } => {
                out.push(4);
                write_str(out, target_app);
                write_str(out, target_component);
                write_str(out, spoofed_action);
                write_resources(out, sinks);
            }
            Exploit::Custom {
                name,
                bindings,
                guarded_app,
                guarded_component,
            } => {
                out.push(5);
                write_str(out, name);
                write_u64(out, bindings.len() as u64);
                for (decl, entity) in bindings {
                    write_str(out, decl);
                    write_str(out, entity);
                }
                write_str(out, guarded_app);
                write_str(out, guarded_component);
            }
        }
    }
}

// --- reading ---------------------------------------------------------

fn read_arc(r: &mut Reader<'_>) -> Option<Arc<str>> {
    r.str().map(Arc::from)
}

fn read_opt_arc(r: &mut Reader<'_>) -> Option<Option<Arc<str>>> {
    Some(r.opt_str()?.map(Arc::from))
}

fn read_resources(r: &mut Reader<'_>) -> Option<BTreeSet<Resource>> {
    let n = r.prefix_len()?;
    (0..n).map(|_| r.resource()).collect()
}

fn read_intent(r: &mut Reader<'_>) -> Option<IntentData> {
    let action = read_opt_arc(r)?;
    let n = r.prefix_len()?;
    let categories = (0..n).map(|_| read_arc(r)).collect::<Option<_>>()?;
    let data_type = read_opt_arc(r)?;
    let data_scheme = read_opt_arc(r)?;
    let explicit_target = read_opt_arc(r)?;
    let n = r.prefix_len()?;
    let extras = (0..n)
        .map(|_| Some((read_arc(r)?, read_arc(r)?)))
        .collect::<Option<_>>()?;
    Some(IntentData {
        action,
        categories,
        data_type,
        data_scheme,
        explicit_target,
        extras,
    })
}

fn read_exploit(r: &mut Reader<'_>) -> Option<Exploit> {
    Some(match r.u8()? {
        0 => Exploit::IntentHijack {
            victim_app: r.str()?,
            victim_component: r.str()?,
            hijacked_action: r.opt_str()?,
            leaked: read_resources(r)?,
        },
        1 => Exploit::ComponentLaunch {
            target_app: r.str()?,
            target_component: r.str()?,
            fake_intent: read_intent(r)?,
            payload: read_resources(r)?,
        },
        2 => Exploit::PrivilegeEscalation {
            target_app: r.str()?,
            target_component: r.str()?,
            permission: r.str()?,
            fake_intent: read_intent(r)?,
        },
        3 => Exploit::InformationLeakage {
            source_app: r.str()?,
            source_component: r.str()?,
            sink_app: r.str()?,
            sink_component: r.str()?,
            resources: read_resources(r)?,
            sinks: read_resources(r)?,
            via_action: r.opt_str()?,
        },
        4 => Exploit::BroadcastInjection {
            target_app: r.str()?,
            target_component: r.str()?,
            spoofed_action: r.str()?,
            sinks: read_resources(r)?,
        },
        5 => {
            let name = r.str()?;
            let n = r.prefix_len()?;
            let bindings = (0..n)
                .map(|_| Some((r.str()?, r.str()?)))
                .collect::<Option<_>>()?;
            Exploit::Custom {
                name,
                bindings,
                guarded_app: r.str()?,
                guarded_component: r.str()?,
            }
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Separ, SeparConfig, VulnKind};
    use separ_analysis::extract_apk;
    use separ_corpus::market::{generate, MarketSpec};

    /// The SHA-256 of the `encode_result` payload of every exploit that
    /// synthesis finds in `MarketSpec::scaled(120, 7)`, at
    /// [`SYNTHESIS_FORMAT`] 1.
    const PINNED_EXPLOITS_DIGEST: &str =
        "5a732b6496a84195d4a119e7ad3b4f5d7bea4a14281b29bc8c0e73147da015f9";

    fn market_exploits() -> Vec<Exploit> {
        let apps = generate(&MarketSpec::scaled(120, 7))
            .iter()
            .map(|m| extract_apk(&m.apk))
            .collect();
        Separ::new()
            .with_config(SeparConfig::serial())
            .analyze_models(apps)
            .expect("synthesis succeeds")
            .exploits
    }

    fn every_kind() -> Vec<Exploit> {
        let intent = IntentData::for_action("a.b")
            .with_category("c")
            .with_extra("k", "v");
        let mut intent_full = intent.clone();
        intent_full.data_type = Some("text/plain".into());
        intent_full.data_scheme = Some("sms".into());
        intent_full.explicit_target = Some("LT;".into());
        vec![
            Exploit::IntentHijack {
                victim_app: "com.v".into(),
                victim_component: "LV;".into(),
                hijacked_action: Some("a.b".into()),
                leaked: BTreeSet::from([Resource::Location, Resource::Icc]),
            },
            Exploit::IntentHijack {
                victim_app: "com.v".into(),
                victim_component: "LV;".into(),
                hijacked_action: None,
                leaked: BTreeSet::new(),
            },
            Exploit::ComponentLaunch {
                target_app: "com.t".into(),
                target_component: "LT;".into(),
                fake_intent: intent.clone(),
                payload: BTreeSet::from([Resource::Sms]),
            },
            Exploit::PrivilegeEscalation {
                target_app: "com.t".into(),
                target_component: "LT;".into(),
                permission: "android.permission.SEND_SMS".into(),
                fake_intent: intent_full,
            },
            Exploit::InformationLeakage {
                source_app: "com.s".into(),
                source_component: "LS;".into(),
                sink_app: "com.k".into(),
                sink_component: "LK;".into(),
                resources: BTreeSet::from([Resource::DeviceId]),
                sinks: BTreeSet::from([Resource::Log, Resource::NetworkWrite]),
                via_action: Some("a.b".into()),
            },
            Exploit::BroadcastInjection {
                target_app: "com.r".into(),
                target_component: "LR;".into(),
                spoofed_action: "android.intent.action.BOOT_COMPLETED".into(),
                sinks: BTreeSet::from([Resource::PhoneCall]),
            },
            Exploit::Custom {
                name: "mine".into(),
                bindings: vec![("c".into(), "LC;".into()), ("p".into(), "P".into())],
                guarded_app: "com.c".into(),
                guarded_component: "LC;".into(),
            },
        ]
    }

    fn key(byte: u8) -> ResultKey {
        ResultKey([byte; 32])
    }

    #[test]
    fn results_round_trip_for_their_key_only() {
        let exploits = every_kind();
        let file = encode_result(&key(1), &exploits);
        assert_eq!(decode_result(&key(1), &file), Some(exploits));
        assert_eq!(decode_result(&key(2), &file), None, "another key");
        assert_eq!(
            decode_result(&key(1), &encode_result(&key(1), &[])),
            Some(Vec::new())
        );
    }

    #[test]
    fn corrupt_or_truncated_results_are_rejected() {
        let file = encode_result(&key(1), &every_kind());
        for at in [0, 5, 20, 50, HEADER_LEN + 3, file.len() - 1] {
            let mut bad = file.clone();
            bad[at] ^= 0x1;
            assert_eq!(decode_result(&key(1), &bad), None, "bit flip at {at}");
        }
        for len in 0..file.len() {
            assert_eq!(
                decode_result(&key(1), &file[..len]),
                None,
                "truncated to {len}"
            );
        }
        let mut longer = file.clone();
        longer.push(0);
        assert_eq!(decode_result(&key(1), &longer), None, "trailing byte");
    }

    #[test]
    fn keys_commit_to_signature_limit_and_slice() {
        let (a, b) = ([1u8; 32], [2u8; 32]);
        let k = |sig, limit, kept: &[ModelAddress]| ResultKey::of_slice(sig, limit, kept.iter());
        let base = k("intent-hijack", 64, &[a, b]);
        assert_eq!(base, k("intent-hijack", 64, &[a, b]));
        assert_ne!(base, k("component-launch", 64, &[a, b]));
        assert_ne!(base, k("intent-hijack", 65, &[a, b]));
        assert_ne!(base, k("intent-hijack", 64, &[b, a]), "slice order");
        assert_ne!(base, k("intent-hijack", 64, &[a]));
        assert_ne!(k("intent-hijack", 64, &[]), k("component-launch", 64, &[]));
        assert_eq!(base.to_string().len(), 64);
    }

    #[test]
    fn exploits_digest_is_pinned() {
        let exploits = market_exploits();
        for kind in [
            VulnKind::IntentHijack,
            VulnKind::ComponentLaunch,
            VulnKind::PrivilegeEscalation,
            VulnKind::InformationLeakage,
        ] {
            assert!(exploits.iter().any(|e| e.kind() == kind), "no {kind}");
        }
        let mut payload = Vec::new();
        write_exploits(&mut payload, &exploits);
        let digest = ResultKey(sha256(&payload)).to_string();
        assert_eq!(
            digest, PINNED_EXPLOITS_DIGEST,
            "synthesis output changed: stored results of the old output would \
             be reused as if current. Bump SYNTHESIS_FORMAT, then pin the new \
             digest here"
        );
    }
}
