//! The device audit log.
//!
//! Every ICC event, enforcement decision and sink firing is recorded, so
//! tests and benchmarks can assert end-to-end properties such as "the
//! attack's SMS never left the device".

use std::collections::BTreeSet;
use std::sync::Arc;

use separ_android::resolution::IntentData;
use separ_android::types::Resource;

/// One audit record.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AuditEvent {
    /// An intent was sent by a component.
    IccSent {
        /// Sending app package.
        from_app: String,
        /// Sending component class.
        from_component: String,
        /// The intent (shared with its envelope).
        intent: Arc<IntentData>,
    },
    /// An intent was delivered to a component.
    IccDelivered {
        /// Receiving app package.
        to_app: String,
        /// Receiving component class.
        to_component: String,
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
        to_component: Option<String>,
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
        /// The action it carried, if any.
        action: Option<String>,
    },
    /// A sink API actually fired.
    SinkFired {
        /// The sink resource.
        sink: Resource,
        /// App that fired it.
        app: String,
        /// Tags carried by the data that reached the sink.
        tags: BTreeSet<Resource>,
        /// Human-readable payload summary.
        detail: String,
    },
}

/// The append-only audit log.
#[derive(Debug, Default)]
pub struct AuditLog {
    events: Vec<AuditEvent>,
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> AuditLog {
        AuditLog::default()
    }

    /// Appends an event.
    pub fn record(&mut self, event: AuditEvent) {
        self.events.push(event);
    }

    /// All events in order.
    pub fn events(&self) -> &[AuditEvent] {
        &self.events
    }

    /// Sink firings of a given resource.
    pub fn sinks_fired(&self, sink: Resource) -> impl Iterator<Item = &AuditEvent> + '_ {
        self.events
            .iter()
            .filter(move |e| matches!(e, AuditEvent::SinkFired { sink: s, .. } if *s == sink))
    }

    /// Returns `true` if data tagged `tag` ever reached `sink`.
    pub fn leaked(&self, tag: Resource, sink: Resource) -> bool {
        self.events.iter().any(|e| {
            matches!(e, AuditEvent::SinkFired { sink: s, tags, .. }
                if *s == sink && tags.contains(&tag))
        })
    }

    /// Number of blocked ICC events.
    pub fn blocked_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, AuditEvent::IccBlocked { .. }))
            .count()
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
        assert_eq!(log.blocked_count(), 1);
    }
}
