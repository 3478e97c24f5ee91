//! End-to-end daemon tests over the in-process [`Daemon::handle`]
//! interface — the same line-in/line-out surface the socket server
//! exposes, minus the socket.

use std::time::Duration;

use separ_core::policy::PolicyEvent;
use separ_core::policy_io;
use separ_enforce::{probe_contexts, IccContext, LinearPdp};
use separ_obs::json::Value;
use separ_serve::protocol::encode_hex;
use separ_serve::{Daemon, PolicyDeltaEvent, ServeConfig};

fn package_hex(apk: &separ_dex::program::Apk) -> String {
    encode_hex(&separ_dex::codec::encode(apk))
}

fn serial_config() -> ServeConfig {
    ServeConfig {
        config: separ_core::SeparConfig::serial(),
        ..ServeConfig::default()
    }
}

fn parse_ok(line: &str) -> Value {
    let v = Value::parse(line).expect("response is valid JSON");
    assert_eq!(
        v.get("ok").and_then(Value::as_bool),
        Some(true),
        "response not ok: {line}"
    );
    v
}

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("separ-serve-test-{}-{tag}", std::process::id()))
}

/// A `decide` request line for `ctx`, with prompts answered "deny".
fn decide_line(event: PolicyEvent, ctx: &IccContext) -> String {
    let tags: Vec<String> = ctx
        .tags
        .iter()
        .map(|t| format!("\"{}\"", t.name()))
        .collect();
    format!(
        concat!(
            r#"{{"cmd":"decide","event":"{}","sender_app":"{}","#,
            r#""sender_component":"{}","receiver_app":"{}","#,
            r#""receiver_component":"{}","action":"{}","#,
            r#""tags":[{}],"prompt":"deny"}}"#
        ),
        event.name(),
        ctx.sender_app,
        ctx.sender_component,
        ctx.receiver_app.as_deref().unwrap_or(""),
        ctx.receiver_component.as_deref().unwrap_or(""),
        ctx.action.as_deref().unwrap_or(""),
        tags.join(",")
    )
}

#[test]
fn churn_query_decide_round_trip() {
    let daemon = Daemon::start(serial_config()).expect("boots");
    // Install the motivating bundle one request at a time.
    for apk in [
        separ_corpus::motivating::navigator_app(),
        separ_corpus::motivating::messenger_app(false),
        separ_corpus::motivating::malicious_app("+15550000"),
    ] {
        let line = format!(r#"{{"cmd":"install","bytes_hex":"{}"}}"#, package_hex(&apk));
        let v = parse_ok(&daemon.handle(&line));
        let batch = v.get("batch").expect("batch summary");
        assert!(batch.get("ops").and_then(Value::as_u64).unwrap() >= 1);
    }
    // The bundle is vulnerable: policies and exploits exist.
    let v = parse_ok(&daemon.handle(r#"{"cmd":"query","what":"summary"}"#));
    assert_eq!(v.get("apps").and_then(Value::as_u64), Some(3));
    let policies = v.get("policies").and_then(Value::as_u64).expect("count");
    assert!(policies > 0, "motivating bundle synthesizes policies");
    assert!(v.get("exploits").and_then(Value::as_u64).unwrap() > 0);
    let v = parse_ok(&daemon.handle(r#"{"cmd":"query","what":"apps"}"#));
    let apps = v.get("apps").and_then(Value::as_arr).expect("list");
    assert_eq!(apps.len(), 3);
    // Round-trip the published policy set through the wire form and
    // drive `decide` with contexts engineered to hit each policy: the
    // daemon must enforce what it just synthesized.
    let v = parse_ok(&daemon.handle(r#"{"cmd":"query","what":"policies"}"#));
    let mut json = String::new();
    v.get("policies")
        .expect("policy JSON")
        .write_into(&mut json);
    let policies = policy_io::from_json(&json).expect("valid policy JSON");
    let mut non_allow = 0;
    for (event, ctx) in probe_contexts(&policies) {
        let v = parse_ok(&daemon.handle(&decide_line(event, &ctx)));
        let decision = v.get("decision").and_then(Value::as_str).expect("label");
        if decision != "allow" {
            non_allow += 1;
            assert!(v.get("policy_id").and_then(Value::as_u64).is_some());
        }
    }
    assert!(non_allow > 0, "published policies actually decide events");
    // The same probes sent from each installed package: the daemon's
    // PDP must count every app installed through it as inside the
    // bundle, exactly like a reference PDP built from what `query`
    // publishes (the policies and the apps). Labels are compared, not
    // ids: the live PDP numbers policies by `merge_delta`, while
    // `query policies` carries the session's ids.
    let packages: Vec<String> = apps
        .iter()
        .map(|a| a.as_str().expect("package name").to_string())
        .collect();
    let mut reference = LinearPdp::new(policies.clone(), packages.clone());
    for (event, ctx) in probe_contexts(&policies) {
        for package in &packages {
            let ctx = IccContext {
                sender_app: package.clone(),
                ..ctx.clone()
            };
            let line = decide_line(event, &ctx);
            let v = parse_ok(&daemon.handle(&line));
            let expected = reference.evaluate(event, &ctx);
            assert_eq!(
                v.get("decision").and_then(Value::as_str),
                Some(expected.label()),
                "{line}"
            );
            assert_eq!(
                v.get("policy_id").and_then(Value::as_u64).is_some(),
                expected.policy_id().is_some(),
                "{line}"
            );
        }
    }
    // Uninstalling the malicious app retires policies.
    let v = parse_ok(&daemon.handle(r#"{"cmd":"uninstall","package":"com.innocent.wallpaper"}"#));
    assert!(v.get("batch").is_some());
    // Stats are coherent and nothing was dropped.
    let v = parse_ok(&daemon.handle(r#"{"cmd":"stats"}"#));
    assert!(v.get("requests").and_then(Value::as_u64).unwrap() >= 5);
    assert_eq!(v.get("queue_depth").and_then(Value::as_u64), Some(0));
    assert!(v.get("coalescing_factor").and_then(Value::as_f64).unwrap() >= 1.0);
    let v = parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    assert_eq!(v.get("stopped").and_then(Value::as_bool), Some(true));
    assert!(daemon.is_stopped());
}

#[test]
fn malformed_requests_fail_without_harming_the_session() {
    let daemon = Daemon::start(serial_config()).expect("boots");
    for bad in [
        "not json",
        r#"{"cmd":"install","bytes_hex":"zz"}"#,
        r#"{"cmd":"install","bytes_hex":"00"}"#, // undecodable package
        r#"{"cmd":"decide","event":"nope","sender_app":"a"}"#,
    ] {
        let v = Value::parse(&daemon.handle(bad)).expect("valid JSON");
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert!(v.get("error").and_then(Value::as_str).is_some());
    }
    let v = parse_ok(&daemon.handle(r#"{"cmd":"query","what":"summary"}"#));
    assert_eq!(v.get("apps").and_then(Value::as_u64), Some(0));
}

#[test]
fn restart_recovers_the_session_without_reextraction() {
    let dir = tmp("restart");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServeConfig {
        store_dir: Some(dir.clone()),
        ..serial_config()
    };
    let installs = [
        separ_corpus::motivating::navigator_app(),
        separ_corpus::motivating::malicious_app("+15550000"),
    ]
    .map(|apk| format!(r#"{{"cmd":"install","bytes_hex":"{}"}}"#, package_hex(&apk)));
    let ser = |v: &Value| {
        let mut s = String::new();
        v.get("policies").expect("set").write_into(&mut s);
        s
    };
    let policies_before;
    {
        let daemon = Daemon::start(cfg()).expect("boots");
        assert_eq!(daemon.restored(), (0, 0));
        for line in &installs {
            parse_ok(&daemon.handle(line));
        }
        // The session store is the daemon's only model storage: no
        // extraction cache beside it.
        let mut entries: Vec<String> = std::fs::read_dir(&dir)
            .expect("store dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        entries.sort();
        assert_eq!(entries, ["manifest.json", "packs", "results"]);
        policies_before = parse_ok(&daemon.handle(r#"{"cmd":"query","what":"policies"}"#));
        parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    }
    // A store written by an older daemon also holds a `cache/`
    // directory of extracted models; a new daemon ignores it.
    std::fs::create_dir_all(dir.join("cache")).expect("leftover cache dir");
    std::fs::write(dir.join("cache").join("stale.model"), b"junk").expect("leftover entry");
    // A "new process": same store, fresh daemon.
    let daemon = Daemon::start(cfg()).expect("reboots");
    assert_eq!(daemon.restored(), (2, 0), "both models recovered");
    let v = parse_ok(&daemon.handle(r#"{"cmd":"query","what":"summary"}"#));
    assert_eq!(v.get("apps").and_then(Value::as_u64), Some(2));
    // Every signature's result was found in the store, none re-solved.
    assert_eq!(v.get("total_syntheses").and_then(Value::as_u64), Some(0));
    // And the policy set is the same one, byte for byte.
    let policies_after = parse_ok(&daemon.handle(r#"{"cmd":"query","what":"policies"}"#));
    assert_eq!(ser(&policies_before), ser(&policies_after));
    // The restored model is the one the package extracts to: re-sending
    // an installed package's identical bytes changes no policy.
    let v = parse_ok(&daemon.handle(&installs[0]));
    let batch = v.get("batch").expect("confirmed");
    assert_eq!(batch.get("added").and_then(Value::as_u64), Some(0));
    assert_eq!(batch.get("removed").and_then(Value::as_u64), Some(0));
    let policies_reinstalled = parse_ok(&daemon.handle(r#"{"cmd":"query","what":"policies"}"#));
    assert_eq!(ser(&policies_before), ser(&policies_reinstalled));
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a boot could have written to a store: every pack and result
/// file's name, inode and modification time, then the manifest's. A
/// rewrite replaces the manifest by rename, which always changes its
/// inode.
fn store_files(dir: &std::path::Path) -> Vec<(String, u64, std::time::SystemTime)> {
    use std::os::unix::fs::MetadataExt;
    let entry = |path: std::path::PathBuf| {
        let meta = std::fs::metadata(&path).expect("store file");
        let name = path
            .file_name()
            .expect("named")
            .to_string_lossy()
            .into_owned();
        (name, meta.ino(), meta.modified().expect("mtime"))
    };
    let mut files: Vec<_> = ["packs", "results"]
        .iter()
        .flat_map(|sub| std::fs::read_dir(dir.join(sub)).expect("store subdir"))
        .map(|e| entry(e.expect("entry").path()))
        .collect();
    files.sort();
    files.push(entry(dir.join("manifest.json")));
    files
}

#[test]
fn boots_on_an_unchanged_store_write_nothing() {
    let dir = tmp("unchanged");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServeConfig {
        store_dir: Some(dir.clone()),
        ..serial_config()
    };
    {
        let daemon = Daemon::start(cfg()).expect("boots");
        for apk in [
            separ_corpus::motivating::navigator_app(),
            separ_corpus::motivating::malicious_app("+15550000"),
        ] {
            parse_ok(&daemon.handle(&format!(
                r#"{{"cmd":"install","bytes_hex":"{}"}}"#,
                package_hex(&apk)
            )));
        }
        parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    }
    let saved = store_files(&dir);
    let packs = |files: &[(String, u64, std::time::SystemTime)]| {
        files.iter().filter(|f| f.0.ends_with(".pack")).count()
    };
    let results = |files: &[(String, u64, std::time::SystemTime)]| {
        files.iter().filter(|f| f.0.ends_with(".exploits")).count()
    };
    assert_eq!(packs(&saved), 1, "{saved:?}");
    assert!((1..=4).contains(&results(&saved)), "{saved:?}");
    assert_eq!(saved.len(), packs(&saved) + results(&saved) + 1);
    for boot in 1..=2 {
        let daemon = Daemon::start(cfg()).expect("reboots");
        assert_eq!(daemon.restored(), (2, 0));
        assert_eq!(store_files(&dir), saved, "boot {boot} wrote to the store");
        parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
        assert_eq!(
            store_files(&dir),
            saved,
            "shutdown {boot} wrote to the store"
        );
    }
    // A corrupt entry makes the disk differ from the session: the boot
    // rewrites the manifest and the pack without it and collects the
    // old pack.
    let pack = saved
        .iter()
        .find(|f| f.0.ends_with(".pack"))
        .expect("a pack");
    let corrupt = dir.join("packs").join(&pack.0);
    let first_len = manifest_entries(&dir)[0].2;
    let mut bytes = std::fs::read(&corrupt).expect("pack");
    bytes[first_len as usize / 2] ^= 0x1;
    std::fs::write(&corrupt, bytes).expect("corrupts");
    let daemon = Daemon::start(cfg()).expect("boots past a corrupt entry");
    assert_eq!(daemon.restored(), (1, 1));
    let rewritten = store_files(&dir);
    assert_eq!(packs(&rewritten), 1, "{rewritten:?}");
    assert!(results(&rewritten) <= 4, "{rewritten:?}");
    assert_ne!(
        rewritten.last().expect("manifest").1,
        saved.last().expect("manifest").1,
        "manifest rewritten at boot"
    );
    assert!(!corrupt.exists(), "the damaged pack is collected");
    assert_eq!(manifest_entries(&dir).len(), 1);
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_restart_after_a_permission_toggle_solves_nothing() {
    let dir = tmp("toggle");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServeConfig {
        store_dir: Some(dir.clone()),
        ..serial_config()
    };
    let before;
    {
        let daemon = Daemon::start(cfg()).expect("boots");
        for apk in [
            separ_corpus::motivating::navigator_app(),
            separ_corpus::motivating::messenger_app(false),
        ] {
            parse_ok(&daemon.handle(&format!(
                r#"{{"cmd":"install","bytes_hex":"{}"}}"#,
                package_hex(&apk)
            )));
        }
        // The toggle synthesizes only the permission-sensitive
        // signature; the others keep their exploits, under the key of
        // their new slice.
        parse_ok(&daemon.handle(concat!(
            r#"{"cmd":"set_permission","package":"com.messenger","#,
            r#""permission":"android.permission.SEND_SMS","granted":false}"#
        )));
        before = published(&daemon);
        parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    }
    let daemon = Daemon::start(cfg()).expect("reboots");
    assert_eq!(daemon.restored(), (2, 0));
    assert_eq!(summary_syntheses(&daemon), 0);
    assert_eq!(published(&daemon), before);
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The store manifest's `[package, model address, entry length]` rows.
fn manifest_entries(dir: &std::path::Path) -> Vec<(String, String, u64)> {
    let text = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
    let manifest = Value::parse(text.trim()).expect("manifest parses");
    assert_eq!(manifest.get("version").and_then(Value::as_u64), Some(2));
    manifest
        .get("apps")
        .and_then(Value::as_arr)
        .expect("apps")
        .iter()
        .map(|row| {
            let row = row.as_arr().expect("an array per app");
            let text = |i: usize| row[i].as_str().expect("a string").to_string();
            (text(0), text(1), row[2].as_u64().expect("a length"))
        })
        .collect()
}

#[test]
fn a_first_layout_store_migrates_to_one_pack_at_boot() {
    let dir = tmp("migrate");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServeConfig {
        store_dir: Some(dir.clone()),
        ..serial_config()
    };
    let policies = |daemon: &Daemon| {
        let v = parse_ok(&daemon.handle(r#"{"cmd":"query","what":"policies"}"#));
        let mut s = String::new();
        v.get("policies").expect("set").write_into(&mut s);
        s
    };
    let before;
    {
        let daemon = Daemon::start(cfg()).expect("boots");
        for apk in [
            separ_corpus::motivating::navigator_app(),
            separ_corpus::motivating::messenger_app(false),
            separ_corpus::motivating::malicious_app("+15550000"),
        ] {
            parse_ok(&daemon.handle(&format!(
                r#"{{"cmd":"install","bytes_hex":"{}"}}"#,
                package_hex(&apk)
            )));
        }
        before = policies(&daemon);
        parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    }
    // Rewrite the store by hand in the first layout: one model file per
    // app, named by its address, and a version-1 manifest naming them.
    let entries = manifest_entries(&dir);
    let pack = std::fs::read_dir(dir.join("packs"))
        .expect("packs")
        .next()
        .expect("a pack")
        .expect("entry")
        .path();
    let bytes = std::fs::read(&pack).expect("pack");
    std::fs::create_dir_all(dir.join("models")).expect("models dir");
    let mut offset = 0;
    let mut apps = Vec::new();
    for (package, address, len) in &entries {
        let end = offset + *len as usize;
        std::fs::write(
            dir.join("models").join(format!("{address}.model")),
            &bytes[offset..end],
        )
        .expect("model file");
        offset = end;
        apps.push(format!(r#"{{"package":"{package}","model":"{address}"}}"#));
    }
    assert_eq!(offset, bytes.len());
    std::fs::remove_dir_all(dir.join("packs")).expect("drops the pack");
    std::fs::write(
        dir.join("manifest.json"),
        format!("{{\"version\":1,\"apps\":[{}]}}\n", apps.join(",")),
    )
    .expect("first-layout manifest");
    // The boot reads the first layout, solves nothing (the results are
    // keyed by model content, not by layout), publishes the same
    // policies byte for byte, and rewrites the store as one pack.
    let daemon = Daemon::start(cfg()).expect("boots on the first layout");
    assert_eq!(daemon.restored(), (3, 0));
    assert_eq!(summary_syntheses(&daemon), 0);
    assert_eq!(policies(&daemon), before);
    assert_eq!(manifest_entries(&dir), entries);
    assert!(!dir.join("models").exists(), "models/ removed");
    let packs: Vec<_> = std::fs::read_dir(dir.join("packs"))
        .expect("packs")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert_eq!(packs, [pack.file_name().expect("named")]);
    assert_eq!(std::fs::read(&pack).expect("pack"), bytes);
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    // And the next boot finds the store current: it writes nothing.
    let saved = store_files(&dir);
    let daemon = Daemon::start(cfg()).expect("reboots");
    assert_eq!(daemon.restored(), (3, 0));
    assert_eq!(store_files(&dir), saved);
    assert_eq!(policies(&daemon), before);
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    let _ = std::fs::remove_dir_all(&dir);
}

fn summary_syntheses(daemon: &Daemon) -> u64 {
    parse_ok(&daemon.handle(r#"{"cmd":"query","what":"summary"}"#))
        .get("total_syntheses")
        .and_then(Value::as_u64)
        .expect("total_syntheses")
}

/// The published policies and exploits, as the wire carries them.
fn published(daemon: &Daemon) -> (String, String) {
    let field = |what: &str| {
        let mut out = String::new();
        parse_ok(&daemon.handle(&format!(r#"{{"cmd":"query","what":"{what}"}}"#)))
            .get(what)
            .expect("field")
            .write_into(&mut out);
        out
    };
    (field("policies"), field("exploits"))
}

#[test]
fn reinstalling_identical_bytes_solves_nothing() {
    let daemon = Daemon::start(serial_config()).expect("boots");
    let bundle = [
        separ_corpus::motivating::navigator_app(),
        separ_corpus::motivating::messenger_app(false),
        separ_corpus::motivating::malicious_app("+15550000"),
    ];
    let install = |apk| {
        parse_ok(&daemon.handle(&format!(
            r#"{{"cmd":"install","bytes_hex":"{}"}}"#,
            package_hex(apk)
        )))
    };
    for apk in &bundle {
        install(apk);
    }
    let syntheses = summary_syntheses(&daemon);
    let before = published(&daemon);
    assert!(syntheses > 0);
    // Each reinstall extracts the package again; the model, and so its
    // address, is the same, so no slice changes.
    for apk in &bundle {
        install(apk);
    }
    assert_eq!(summary_syntheses(&daemon), syntheses);
    assert_eq!(published(&daemon), before);
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
}

#[test]
fn damaged_or_foreign_results_fall_back_to_synthesis_with_identical_output() {
    let dir = tmp("results");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = |scenario_limit| ServeConfig {
        store_dir: Some(dir.clone()),
        config: separ_core::SeparConfig {
            threads: 1,
            scenario_limit,
        },
        ..serial_config()
    };
    let limit = separ_core::SeparConfig::default().scenario_limit;
    let expected = {
        let daemon = Daemon::start(cfg(limit)).expect("boots");
        for apk in [
            separ_corpus::motivating::navigator_app(),
            separ_corpus::motivating::messenger_app(false),
            separ_corpus::motivating::malicious_app("+15550000"),
        ] {
            parse_ok(&daemon.handle(&format!(
                r#"{{"cmd":"install","bytes_hex":"{}"}}"#,
                package_hex(&apk)
            )));
        }
        let expected = published(&daemon);
        parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
        expected
    };
    let results_dir = dir.join("results");
    let files = || -> Vec<std::path::PathBuf> {
        let mut files: Vec<_> = std::fs::read_dir(&results_dir)
            .expect("results dir")
            .map(|e| e.expect("entry").path())
            .collect();
        files.sort();
        files
    };
    let pristine: Vec<(std::path::PathBuf, Vec<u8>)> = files()
        .into_iter()
        .map(|p| {
            let bytes = std::fs::read(&p).expect("result file");
            (p, bytes)
        })
        .collect();
    assert_eq!(pristine.len(), 4, "one result per signature");
    let (victim, bytes) = &pristine[0];
    let other = &pristine[1].1;
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x1;
    for (damage, content) in [
        ("corrupt", Some(flipped)),
        ("truncated", Some(bytes[..bytes.len() / 2].to_vec())),
        ("another key's result", Some(other.clone())),
        ("missing", None),
    ] {
        match &content {
            Some(content) => std::fs::write(victim, content).expect("damages"),
            None => std::fs::remove_file(victim).expect("removes"),
        }
        let daemon = Daemon::start(cfg(limit)).expect("boots");
        assert_eq!(summary_syntheses(&daemon), 1, "{damage}: one re-solve");
        assert_eq!(published(&daemon), expected, "{damage}: same output");
        parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
        // The boot rewrote the result it had to synthesize.
        assert_eq!(
            std::fs::read(victim).expect("rewritten"),
            *bytes,
            "{damage}: result rewritten"
        );
        let daemon = Daemon::start(cfg(limit)).expect("boots");
        assert_eq!(summary_syntheses(&daemon), 0, "{damage}: healed");
        parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    }
    // Results recorded under another scenario limit are other keys: a
    // boot at a new limit synthesizes every signature, as a store without
    // results would, and the old results go at the next persist.
    let other_limit = limit + 1;
    let daemon = Daemon::start(cfg(other_limit)).expect("boots at another limit");
    assert_eq!(summary_syntheses(&daemon), 4);
    assert_eq!(published(&daemon), expected, "the limit does not bind here");
    assert_eq!(files().len(), 8, "both limits' results until a persist");
    parse_ok(&daemon.handle(&format!(
        r#"{{"cmd":"install","bytes_hex":"{}"}}"#,
        package_hex(&separ_corpus::motivating::navigator_app())
    )));
    assert_eq!(files().len(), 4, "only the current keys' results stay");
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    let daemon = Daemon::start(cfg(other_limit)).expect("reboots");
    assert_eq!(summary_syntheses(&daemon), 0);
    assert_eq!(published(&daemon), expected);
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shutdown guarantee: ops that were *accepted* (enqueued) before
/// shutdown are applied and persisted even if their requesters never
/// waited for confirmation — a drain, not a drop.
#[test]
fn shutdown_mid_batch_loses_no_accepted_request() {
    let dir = tmp("drain");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServeConfig {
        store_dir: Some(dir.clone()),
        ..serial_config()
    };
    {
        let daemon = Daemon::start(cfg()).expect("boots");
        // `deadline_ms:0` returns the moment the op is accepted, so all
        // three land in the queue ahead of (or racing) the worker...
        for apk in [
            separ_corpus::motivating::navigator_app(),
            separ_corpus::motivating::messenger_app(false),
            separ_corpus::motivating::malicious_app("+15550000"),
        ] {
            let line = format!(
                r#"{{"cmd":"install","bytes_hex":"{}","deadline_ms":0}}"#,
                package_hex(&apk)
            );
            let v = parse_ok(&daemon.handle(&line));
            assert!(
                v.get("accepted").and_then(Value::as_bool) == Some(true)
                    || v.get("batch").is_some(),
                "op accepted either way"
            );
        }
        // ...and shutdown fires while they may still be queued. Drain
        // must apply every accepted op before the store syncs.
        parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    }
    let daemon = Daemon::start(cfg()).expect("reboots");
    assert_eq!(daemon.restored().0, 3, "every accepted install survived");
    let v = parse_ok(&daemon.handle(r#"{"cmd":"query","what":"apps"}"#));
    let apps: Vec<&str> = v
        .get("apps")
        .and_then(Value::as_arr)
        .expect("list")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(apps.len(), 3);
    assert!(apps.contains(&"com.innocent.wallpaper"));
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A burst of concurrent churn coalesces into fewer analysis passes
/// than requests (the tentpole's economy claim), with every request
/// answered.
#[test]
fn concurrent_churn_coalesces() {
    let daemon = std::sync::Arc::new(Daemon::start(serial_config()).expect("boots"));
    // Seed one app so permission toggles have a target.
    let line = format!(
        r#"{{"cmd":"install","bytes_hex":"{}"}}"#,
        package_hex(&separ_corpus::motivating::navigator_app())
    );
    parse_ok(&daemon.handle(&line));
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let daemon = std::sync::Arc::clone(&daemon);
            std::thread::spawn(move || {
                let line = format!(
                    concat!(
                        r#"{{"cmd":"set_permission","package":"com.navigator","#,
                        r#""permission":"android.permission.PERM_{}","granted":true}}"#
                    ),
                    i % 2
                );
                parse_ok(&daemon.handle(&line));
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let v = parse_ok(&daemon.handle(r#"{"cmd":"stats"}"#));
    let ops = v.get("ops_coalesced").and_then(Value::as_u64).expect("ops");
    let batches = v.get("batches").and_then(Value::as_u64).expect("batches");
    assert_eq!(ops, 9, "every accepted op was applied");
    assert!(batches <= ops, "batching never exceeds one pass per op");
    assert_eq!(v.get("failed").and_then(Value::as_u64), Some(0));
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    std::thread::sleep(Duration::from_millis(1));
}

#[test]
fn metrics_endpoint_reports_rolling_latencies_and_totals() {
    let daemon = Daemon::start(serial_config()).expect("boots");
    let line = format!(
        r#"{{"cmd":"install","bytes_hex":"{}"}}"#,
        package_hex(&separ_corpus::motivating::navigator_app())
    );
    parse_ok(&daemon.handle(&line));
    for _ in 0..50 {
        parse_ok(&daemon.handle(
            r#"{"cmd":"decide","event":"icc_send","sender_app":"com.navigator","prompt":"deny"}"#,
        ));
    }
    // The stats satellite: uptime next to the existing queue depth.
    let v = parse_ok(&daemon.handle(r#"{"cmd":"stats"}"#));
    assert!(v.get("uptime_ms").and_then(Value::as_u64).is_some());
    assert_eq!(v.get("queue_depth").and_then(Value::as_u64), Some(0));
    // The metrics endpoint: live gauges, PDP totals, rolling windows.
    let v = parse_ok(&daemon.handle(r#"{"cmd":"metrics"}"#));
    assert!(v.get("uptime_ms").and_then(Value::as_u64).is_some());
    assert_eq!(v.get("queue_depth").and_then(Value::as_u64), Some(0));
    assert!(v.get("seq").and_then(Value::as_u64).unwrap() >= 1);
    assert!(v.get("last_batch_age_ms").and_then(Value::as_u64).is_some());
    let pdp = v.get("pdp").expect("pdp totals");
    assert_eq!(pdp.get("evaluations").and_then(Value::as_u64), Some(50));
    let evals = pdp.get("allowed").and_then(Value::as_u64).unwrap()
        + pdp.get("denied").and_then(Value::as_u64).unwrap();
    assert_eq!(evals, 50, "allowed + denied partition evaluations");
    let rolling = v.get("rolling").expect("rolling windows");
    let decide = rolling.get("decide").expect("decide is tracked");
    for window in ["10s", "1m", "5m"] {
        let w = decide.get(window).expect("window");
        assert_eq!(w.get("count").and_then(Value::as_u64), Some(50));
        assert!(w.get("p50_us").and_then(Value::as_f64).unwrap() > 0.0);
        assert!(
            w.get("p99_us").and_then(Value::as_f64).unwrap()
                >= w.get("p50_us").and_then(Value::as_f64).unwrap()
        );
    }
    assert!(rolling.get("install").is_some());
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
}

/// Line-by-line structural validation of the Prometheus exposition,
/// plus family-order stability across scrapes.
#[test]
fn prometheus_exposition_is_valid_and_stable() {
    let daemon = Daemon::start(serial_config()).expect("boots");
    parse_ok(
        &daemon
            .handle(r#"{"cmd":"decide","event":"icc_send","sender_app":"com.a","prompt":"deny"}"#),
    );
    let scrape = || {
        let v = parse_ok(&daemon.handle(r#"{"cmd":"metrics","format":"prometheus"}"#));
        assert_eq!(v.get("format").and_then(Value::as_str), Some("prometheus"));
        v.get("body")
            .and_then(Value::as_str)
            .expect("body")
            .to_string()
    };
    let families = |body: &str| -> Vec<String> {
        let mut declared = Vec::new();
        let mut helped = std::collections::BTreeSet::new();
        for line in body.lines() {
            assert!(!line.trim().is_empty(), "no blank lines in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().expect("family name");
                helped.insert(name.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let name = it.next().expect("family name").to_string();
                let kind = it.next().expect("family kind");
                assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{line}");
                assert!(helped.contains(&name), "HELP precedes TYPE: {line}");
                declared.push(name);
            } else {
                // A sample: `name{labels} value` or `name value`, with
                // the metric belonging to a declared family.
                let (name_labels, value) = line.rsplit_once(' ').expect("sample line");
                let name = name_labels.split('{').next().expect("metric name");
                assert!(
                    value.parse::<f64>().is_ok() || value == "+Inf",
                    "parsable value: {line}"
                );
                let family = declared.iter().any(|f| {
                    name == f
                        || name
                            .strip_prefix(f.as_str())
                            .is_some_and(|s| matches!(s, "_bucket" | "_sum" | "_count"))
                });
                assert!(family, "sample outside any declared family: {line}");
                if let Some(labels) = name_labels.strip_prefix(name) {
                    if !labels.is_empty() {
                        assert!(labels.starts_with('{') && labels.ends_with('}'), "{line}");
                    }
                }
            }
        }
        declared
    };
    let first = scrape();
    let order_a = families(&first);
    assert!(order_a.iter().any(|f| f == "separ_uptime_seconds"));
    assert!(order_a.iter().any(|f| f == "separ_pdp_evaluations_total"));
    assert!(order_a.iter().any(|f| f == "separ_request_latency_seconds"));
    // Same state, scraped again: family order is identical (values such
    // as uptime may move, the shape may not).
    let order_b = families(&scrape());
    assert_eq!(order_a, order_b, "exposition ordering is stable");
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
}

/// The tentpole's subscription guarantee: every applied batch is
/// delivered to every subscriber exactly once, in sequence order, even
/// while churn lands from many threads at once.
#[test]
fn subscribers_see_every_batch_exactly_once_in_order() {
    let daemon = std::sync::Arc::new(Daemon::start(serial_config()).expect("boots"));
    let subs: Vec<_> = (0..2).map(|_| daemon.subscribe()).collect();
    let threads: Vec<_> = (0..8)
        .map(|i| {
            let daemon = std::sync::Arc::clone(&daemon);
            std::thread::spawn(move || {
                let line = if i == 0 {
                    format!(
                        r#"{{"cmd":"install","bytes_hex":"{}"}}"#,
                        package_hex(&separ_corpus::motivating::navigator_app())
                    )
                } else {
                    format!(
                        concat!(
                            r#"{{"cmd":"set_permission","package":"com.navigator","#,
                            r#""permission":"android.permission.PERM_{}","granted":true}}"#
                        ),
                        i
                    )
                };
                let v = Value::parse(&daemon.handle(&line)).expect("valid");
                // Toggles racing ahead of the install may fail; the
                // batches that *were* applied are what subscribers see.
                v.get("ok").and_then(Value::as_bool) == Some(true)
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }
    let v = parse_ok(&daemon.handle(r#"{"cmd":"stats"}"#));
    let batches = v.get("batches").and_then(Value::as_u64).expect("batches");
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    // Drain each subscription to disconnection and check the stream.
    for sub in subs {
        let mut seqs = Vec::new();
        while let Ok(line) = sub.recv_timeout(Duration::from_secs(5)) {
            let ev = PolicyDeltaEvent::parse(&line).expect("policy_delta event");
            seqs.push(ev.seq);
        }
        assert_eq!(
            seqs,
            (1..=batches).collect::<Vec<_>>(),
            "every batch exactly once, in order"
        );
    }
}

/// A subscriber that stops draining is disconnected instead of
/// stalling the analysis worker.
#[test]
fn lagging_subscribers_are_dropped_not_blocking() {
    let cfg = ServeConfig {
        subscriber_buffer: 1,
        ..serial_config()
    };
    let daemon = Daemon::start(cfg).expect("boots");
    let laggard = daemon.subscribe();
    // Three sequential batches against a buffer of one: the second
    // publish finds the buffer full and drops the subscriber.
    for i in 0..3 {
        let apk = separ_corpus::motivating::messenger_app(i % 2 == 0);
        let line = format!(r#"{{"cmd":"install","bytes_hex":"{}"}}"#, package_hex(&apk));
        parse_ok(&daemon.handle(&line));
    }
    let v = parse_ok(&daemon.handle(r#"{"cmd":"metrics"}"#));
    assert_eq!(v.get("subscribers").and_then(Value::as_u64), Some(0));
    assert!(
        v.get("subscribers_dropped")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );
    // The laggard still drains its buffered prefix (in order), then
    // observes the disconnect — and can tell from the seq gap vs
    // `metrics.seq` that it must re-sync.
    let first = laggard
        .recv_timeout(Duration::from_secs(5))
        .expect("buffered");
    assert_eq!(PolicyDeltaEvent::parse(&first).expect("event").seq, 1);
    assert!(laggard.recv_timeout(Duration::from_millis(200)).is_err());
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
}

/// The audit log records every decide and bundle mutation as schema-
/// complete JSONL.
#[test]
fn audit_log_captures_decides_and_churn() {
    let dir = tmp("audit");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("audit.log");
    let cfg = ServeConfig {
        audit_path: Some(path.clone()),
        ..serial_config()
    };
    let daemon = Daemon::start(cfg).expect("boots");
    let line = format!(
        r#"{{"cmd":"install","bytes_hex":"{}"}}"#,
        package_hex(&separ_corpus::motivating::navigator_app())
    );
    parse_ok(&daemon.handle(&line));
    parse_ok(&daemon.handle(
        r#"{"cmd":"decide","event":"icc_send","sender_app":"com.navigator","prompt":"deny"}"#,
    ));
    // A failed churn is audited too (undecodable package).
    let failed = daemon.handle(r#"{"cmd":"install","bytes_hex":"00"}"#);
    assert!(failed.starts_with("{\"ok\":false"));
    // Reads (query/stats/metrics) are NOT audited.
    parse_ok(&daemon.handle(r#"{"cmd":"query","what":"summary"}"#));
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    let text = std::fs::read_to_string(&path).expect("audit log exists");
    let records: Vec<Value> = text
        .lines()
        .map(|l| Value::parse(l).expect("valid JSONL"))
        .collect();
    assert_eq!(records.len(), 3, "install + decide + failed install");
    for r in &records {
        assert!(r.get("ts_ms").and_then(Value::as_u64).unwrap() > 0);
        assert!(r.get("req_id").and_then(Value::as_u64).unwrap() > 0);
        assert!(r.get("kind").and_then(Value::as_str).is_some());
        assert!(r.get("ok").and_then(Value::as_bool).is_some());
        assert!(r.get("latency_us").and_then(Value::as_u64).is_some());
    }
    let install = &records[0];
    assert_eq!(install.get("kind").and_then(Value::as_str), Some("install"));
    assert_eq!(
        install.get("package").and_then(Value::as_str),
        Some("com.navigator")
    );
    let decide = &records[1];
    assert_eq!(decide.get("kind").and_then(Value::as_str), Some("decide"));
    assert!(decide.get("decision").and_then(Value::as_str).is_some());
    let failed = &records[2];
    assert_eq!(failed.get("ok").and_then(Value::as_bool), Some(false));
    assert!(failed.get("error").and_then(Value::as_str).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn health_tracks_liveness_and_batch_age() {
    let daemon = Daemon::start(serial_config()).expect("boots");
    let v = parse_ok(&daemon.handle(r#"{"cmd":"health"}"#));
    assert_eq!(v.get("ready").and_then(Value::as_bool), Some(true));
    assert_eq!(v.get("live").and_then(Value::as_bool), Some(true));
    assert!(matches!(v.get("last_batch_age_ms"), Some(Value::Null)));
    assert_eq!(v.get("seq").and_then(Value::as_u64), Some(0));
    let line = format!(
        r#"{{"cmd":"install","bytes_hex":"{}"}}"#,
        package_hex(&separ_corpus::motivating::navigator_app())
    );
    parse_ok(&daemon.handle(&line));
    let v = parse_ok(&daemon.handle(r#"{"cmd":"health"}"#));
    assert!(v.get("last_batch_age_ms").and_then(Value::as_u64).is_some());
    assert_eq!(v.get("seq").and_then(Value::as_u64), Some(1));
    parse_ok(&daemon.handle(r#"{"cmd":"shutdown"}"#));
    // After drain the worker is gone: not live, not ready.
    let v = parse_ok(&daemon.handle(r#"{"cmd":"health"}"#));
    assert_eq!(v.get("live").and_then(Value::as_bool), Some(false));
    assert_eq!(v.get("ready").and_then(Value::as_bool), Some(false));
}
