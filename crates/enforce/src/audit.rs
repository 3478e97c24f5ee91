//! The device audit log.
//!
//! Every ICC event, enforcement decision and sink firing is recorded, so
//! tests and benchmarks can assert end-to-end properties such as "the
//! attack's SMS never left the device". The log keeps the most recent
//! [`AUDIT_CAPACITY`] records and counts the ones it evicts; the
//! questions the enforcement claims rest on (what leaked, what was
//! blocked, what the user allowed) are answered from summaries kept since
//! boot, so they never lose history.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use separ_android::resolution::IntentData;
use separ_android::types::Resource;

/// One audit record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AuditEvent {
    /// An intent was sent by a component.
    IccSent {
        /// Sending app package (shared with the device's app table).
        from_app: Arc<str>,
        /// Sending component class (shared with the device's app table).
        from_component: Arc<str>,
        /// The intent (shared with its envelope).
        intent: Arc<IntentData>,
    },
    /// An intent was delivered to a component.
    IccDelivered {
        /// Receiving app package (shared with the device's app table).
        to_app: Arc<str>,
        /// Receiving component class (shared with the device's app table).
        to_component: Arc<str>,
        /// The intent (shared with its envelope and send record).
        intent: Arc<IntentData>,
    },
    /// An ICC event was blocked by policy.
    IccBlocked {
        /// The id of the deciding policy.
        policy_id: u32,
        /// The guarded vulnerability category (shared with the deciding
        /// policy set — recording a block allocates no string).
        vulnerability: Arc<str>,
        /// Where the event was heading.
        to_component: Option<Arc<str>>,
    },
    /// The user was prompted (and answered).
    PromptShown {
        /// The id of the prompting policy.
        policy_id: u32,
        /// What the user decided.
        allowed: bool,
    },
    /// An intent found no eligible receiver and was dropped.
    IccUndeliverable {
        /// The action it carried, if any (shared with the intent).
        action: Option<Arc<str>>,
    },
    /// A sink API actually fired.
    SinkFired {
        /// The sink resource.
        sink: Resource,
        /// App that fired it (shared with the device's app table).
        app: Arc<str>,
        /// Tags carried by the data that reached the sink.
        tags: BTreeSet<Resource>,
        /// Human-readable payload summary.
        detail: String,
    },
}

/// How many records the [`AuditLog`] keeps.
pub const AUDIT_CAPACITY: usize = 4096;

/// The audit log: a ring of the most recent [`AUDIT_CAPACITY`] records,
/// plus summaries of every record since boot.
#[derive(Debug, Default)]
pub struct AuditLog {
    events: VecDeque<AuditEvent>,
    /// Records evicted to make room.
    dropped: u64,
    /// Every `(app, tag, sink)` a sink ever fired with.
    leaks: BTreeSet<(Arc<str>, Resource, Resource)>,
    /// `IccBlocked` records by guarded vulnerability.
    blocked: BTreeMap<Arc<str>, usize>,
    /// `PromptShown` records the user allowed.
    prompts_allowed: u64,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// Appends an event, evicting the oldest one (counted in
    /// [`AuditLog::dropped`]) when the log is full.
    pub fn record(&mut self, event: AuditEvent) {
        match &event {
            AuditEvent::SinkFired {
                sink, app, tags, ..
            } => {
                let fired = tags.iter().map(|&t| (Arc::clone(app), t, *sink));
                self.leaks.extend(fired);
            }
            AuditEvent::IccBlocked { vulnerability, .. } => {
                *self.blocked.entry(Arc::clone(vulnerability)).or_default() += 1;
            }
            AuditEvent::PromptShown { allowed: true, .. } => self.prompts_allowed += 1,
            _ => {}
        }
        if self.events.len() == AUDIT_CAPACITY {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first: the last [`AUDIT_CAPACITY`]
    /// recorded.
    pub fn events(&self) -> &VecDeque<AuditEvent> {
        &self.events
    }

    /// Number of events evicted from the front of the log.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of events recorded since boot, evicted ones included.
    pub fn recorded(&self) -> u64 {
        self.dropped + self.events.len() as u64
    }

    /// Retained sink firings of a given resource.
    pub fn sinks_fired(&self, sink: Resource) -> impl Iterator<Item = &AuditEvent> + '_ {
        self.events
            .iter()
            .filter(move |e| matches!(e, AuditEvent::SinkFired { sink: s, .. } if *s == sink))
    }

    /// Returns `true` if data tagged `tag` ever reached `sink`, evicted
    /// records included.
    pub fn leaked(&self, tag: Resource, sink: Resource) -> bool {
        self.leaks.iter().any(|&(_, t, s)| (t, s) == (tag, sink))
    }

    /// [`AuditLog::leaked`], counting only sinks that `app` fired.
    pub fn leaked_from(&self, app: &str, tag: Resource, sink: Resource) -> bool {
        self.leaks
            .iter()
            .any(|(a, t, s)| (&**a, *t, *s) == (app, tag, sink))
    }

    /// Number of blocked ICC events since boot, evicted records included.
    pub fn blocked_count(&self) -> usize {
        self.blocked.values().sum()
    }

    /// Number of ICC events since boot blocked by a policy guarding
    /// `vulnerability`.
    pub fn blocked_for(&self, vulnerability: &str) -> usize {
        self.blocked.get(vulnerability).copied().unwrap_or(0)
    }

    /// Number of prompts since boot that the user allowed.
    pub fn prompts_allowed(&self) -> u64 {
        self.prompts_allowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leak_query_matches_tagged_sink() {
        let mut log = AuditLog::new();
        log.record(AuditEvent::SinkFired {
            sink: Resource::Sms,
            app: "mal".into(),
            tags: [Resource::Location].into_iter().collect(),
            detail: "sms to +1555".into(),
        });
        assert!(log.leaked(Resource::Location, Resource::Sms));
        assert!(!log.leaked(Resource::Contacts, Resource::Sms));
        assert!(!log.leaked(Resource::Location, Resource::Log));
        assert!(log.leaked_from("mal", Resource::Location, Resource::Sms));
        assert!(!log.leaked_from("other", Resource::Location, Resource::Sms));
        assert_eq!(log.sinks_fired(Resource::Sms).count(), 1);
    }

    #[test]
    fn blocked_count_counts_blocks_only() {
        let mut log = AuditLog::new();
        log.record(AuditEvent::IccBlocked {
            policy_id: 0,
            vulnerability: "intent-hijack".into(),
            to_component: None,
        });
        log.record(AuditEvent::IccUndeliverable { action: None });
        log.record(AuditEvent::PromptShown {
            policy_id: 1,
            allowed: true,
        });
        assert_eq!(log.blocked_count(), 1);
        assert_eq!(log.blocked_for("intent-hijack"), 1);
        assert_eq!(log.blocked_for("information-leakage"), 0);
        assert_eq!(log.prompts_allowed(), 1);
    }

    #[test]
    fn a_full_log_evicts_the_oldest_and_keeps_its_summaries() {
        let mut log = AuditLog::new();
        log.record(AuditEvent::SinkFired {
            sink: Resource::Sms,
            app: "mal".into(),
            tags: [Resource::Location].into_iter().collect(),
            detail: String::new(),
        });
        log.record(AuditEvent::IccBlocked {
            policy_id: 0,
            vulnerability: "intent-hijack".into(),
            to_component: None,
        });
        log.record(AuditEvent::PromptShown {
            policy_id: 0,
            allowed: true,
        });
        for i in 0..AUDIT_CAPACITY + 10 {
            log.record(AuditEvent::IccUndeliverable {
                action: Some(i.to_string().into()),
            });
        }
        assert_eq!(log.events().len(), AUDIT_CAPACITY);
        assert_eq!(log.dropped(), 13);
        assert_eq!(log.recorded(), AUDIT_CAPACITY as u64 + 13);
        // The oldest retained record is the 14th recorded.
        assert_eq!(
            log.events().front(),
            Some(&AuditEvent::IccUndeliverable {
                action: Some("10".into())
            })
        );
        assert_eq!(log.sinks_fired(Resource::Sms).count(), 0);
        assert!(log.leaked(Resource::Location, Resource::Sms));
        assert!(log.leaked_from("mal", Resource::Location, Resource::Sms));
        assert_eq!(log.blocked_count(), 1);
        assert_eq!(log.blocked_for("intent-hijack"), 1);
        assert_eq!(log.prompts_allowed(), 1);
    }
}
