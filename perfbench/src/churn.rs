//! The daemon's churn cycle.
//!
//! [`replay`] drives the fixed install → grant → revoke → uninstall
//! cycle through `Daemon::handle` from one closed-loop client while a
//! second thread reads the daemon's policy-delta subscription; every
//! traced run replays it (see `layers`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use separ_analysis::model::AppModel;
use separ_serve::protocol::encode_hex;
use separ_serve::{Daemon, PolicyDeltaEvent};

use crate::harness::{fresh_app, Tally};

/// The permission the cycle grants and revokes.
pub const TOGGLED_PERMISSION: &str = "android.permission.SEND_SMS";

/// The fixed churn cycle as request lines, in order.
#[derive(Debug, Clone)]
pub struct Cycle {
    /// The fresh app's package name.
    pub fresh_package: String,
    /// The installed app whose permission is toggled.
    pub toggled_package: String,
    /// `[install, grant, revoke, uninstall]`.
    pub lines: [String; 4],
}

/// Op kinds of [`Cycle::lines`], in order.
pub const KINDS: [Kind; 4] = [
    Kind::Install,
    Kind::Permission,
    Kind::Permission,
    Kind::Uninstall,
];

/// A churn op kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Install of the fresh app.
    Install,
    /// Grant or revoke on the toggled app.
    Permission,
    /// Uninstall of the fresh app.
    Uninstall,
}

impl Cycle {
    /// Builds the cycle for `models` (the installed bundle): the fresh
    /// app comes from `seed`; the toggled app is the first installed app
    /// without [`TOGGLED_PERMISSION`], so both toggles change the model.
    ///
    /// # Errors
    ///
    /// Fails if every installed app already holds the permission.
    pub fn new(models: &[AppModel], seed: u64) -> Result<Cycle, String> {
        let fresh = fresh_app(seed);
        let fresh_package = fresh.manifest.package.clone();
        let bytes = separ_dex::codec::encode(&fresh).to_vec();
        let toggled_package = models
            .iter()
            .find(|m| !m.uses_permissions.contains(TOGGLED_PERMISSION))
            .map(|m| m.package.clone())
            .ok_or("no installed app lacks the toggled permission")?;
        let perm = |granted: bool| {
            format!(
                concat!(
                    r#"{{"cmd":"set_permission","package":"{}","#,
                    r#""permission":"{}","granted":{}}}"#
                ),
                toggled_package, TOGGLED_PERMISSION, granted
            )
        };
        let lines = [
            format!(
                r#"{{"cmd":"install","bytes_hex":"{}"}}"#,
                encode_hex(&bytes)
            ),
            perm(true),
            perm(false),
            format!(r#"{{"cmd":"uninstall","package":"{fresh_package}"}}"#),
        ];
        Ok(Cycle {
            fresh_package,
            toggled_package,
            lines,
        })
    }
}

/// Timings of replayed cycles.
#[derive(Debug, Default)]
pub struct CycleSamples {
    /// Request-to-confirmation latency of every op, in replay order.
    pub confirm: Vec<Duration>,
    /// Request-to-`policy_delta` arrival of every op, in replay order.
    pub protect: Vec<Duration>,
    /// Wall time of every whole cycle.
    pub cycles: Vec<Duration>,
    /// The `policy_delta` event of every op, warm-up included, in replay
    /// order (`None` where none arrived).
    pub events: Vec<Option<PolicyDeltaEvent>>,
}

/// The entries of a per-op sample list (in replay order) whose op is one
/// of `kinds`.
pub fn of_kinds(samples: &[Duration], kinds: &[Kind]) -> Vec<Duration> {
    samples
        .iter()
        .zip(KINDS.iter().cycle())
        .filter(|(_, k)| kinds.contains(k))
        .map(|(d, _)| *d)
        .collect()
}

/// Replays `warmup + cycles` cycles through `daemon.handle`, checking
/// every reply and that the `query policies` answer after each whole
/// cycle equals the one before the first. Only the last `cycles` are
/// timed into the result.
pub fn replay(
    daemon: &Daemon,
    cycle: &Cycle,
    warmup: usize,
    cycles: usize,
    tally: &mut Tally,
) -> CycleSamples {
    // The subscription reader: stamps each policy-delta event on
    // arrival and hands it to the client thread.
    let sub = daemon.subscribe();
    let sub_id = sub.id;
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = mpsc::channel::<(Instant, Arc<str>)>();
    let reader = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match sub.recv_timeout(Duration::from_millis(20)) {
                    Ok(line) => {
                        if tx.send((Instant::now(), line)).is_err() {
                            break;
                        }
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
        })
    };

    let query = r#"{"cmd":"query","what":"policies"}"#;
    let baseline = daemon.handle(query);
    tally.op(baseline.starts_with(r#"{"ok":true"#), || {
        format!("query policies: {baseline}")
    });
    let mut out = CycleSamples::default();
    for c in 0..warmup + cycles {
        let cycle_start = Instant::now();
        let (mut confirm, mut protect) = (Vec::with_capacity(4), Vec::with_capacity(4));
        for (line, kind) in cycle.lines.iter().zip(KINDS) {
            let sent = Instant::now();
            let reply = daemon.handle(line);
            confirm.push(sent.elapsed());
            tally.op(reply.starts_with(r#"{"ok":true,"batch""#), || {
                format!("cycle {c} {kind:?}: {}", truncate(&reply))
            });
            // One client, one op at a time: every op is its own batch,
            // so the next event belongs to this op. It was published
            // before the confirmation, so it has arrived or is arriving.
            let event = rx.recv_timeout(Duration::from_secs(60));
            let parsed = event
                .as_ref()
                .ok()
                .and_then(|(_, l)| PolicyDeltaEvent::parse(l).ok());
            let ok = parsed.as_ref().is_some_and(|e| e.ops == 1);
            tally.op(ok, || format!("cycle {c} {kind:?}: policy_delta {event:?}"));
            protect.push(match &event {
                Ok((at, _)) => at.saturating_duration_since(sent),
                Err(_) => Duration::ZERO,
            });
            out.events.push(parsed);
        }
        let cycle_time = cycle_start.elapsed();
        let after = daemon.handle(query);
        tally.op(after == baseline, || {
            format!("cycle {c}: policies changed across a whole cycle")
        });
        if c >= warmup {
            out.confirm.extend(confirm);
            out.protect.extend(protect);
            out.cycles.push(cycle_time);
        }
    }
    stop.store(true, Ordering::Relaxed);
    daemon.unsubscribe(sub_id);
    if reader.join().is_err() {
        tally.op(false, || "subscription reader panicked".into());
    }
    out
}

fn truncate(s: &str) -> &str {
    &s[..s.len().min(200)]
}
