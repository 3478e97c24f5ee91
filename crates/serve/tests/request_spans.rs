//! A daemon records nothing per request in the global collector, even
//! when its embedder turns the collector on: nothing in the daemon
//! exports or clears recorded spans, so a per-request span would grow
//! the process without bound. The request id travels in the slow log
//! and the audit log instead.
//!
//! This file is a test binary of its own because it enables the
//! process-global collector.

use separ_serve::protocol::encode_hex;
use separ_serve::{Daemon, ServeConfig};

#[test]
fn decides_add_no_span_records() {
    separ_obs::global().enable();
    let daemon = Daemon::start(ServeConfig {
        config: separ_core::SeparConfig::serial(),
        ..ServeConfig::default()
    })
    .expect("boots");
    let install = format!(
        r#"{{"cmd":"install","bytes_hex":"{}"}}"#,
        encode_hex(&separ_dex::codec::encode(
            &separ_corpus::motivating::navigator_app()
        ))
    );
    assert!(daemon.handle(&install).starts_with("{\"ok\":true"));
    let before = separ_obs::global().snapshot().spans().len();
    for _ in 0..10_000 {
        let reply = daemon.handle(
            r#"{"cmd":"decide","event":"icc_send","sender_app":"com.navigator","prompt":"deny"}"#,
        );
        assert!(reply.starts_with("{\"ok\":true"), "{reply}");
    }
    let after = separ_obs::global().snapshot().spans().len();
    assert_eq!(after, before, "10,000 decides recorded spans");
    assert!(daemon
        .handle(r#"{"cmd":"shutdown"}"#)
        .starts_with("{\"ok\":true"));
}
