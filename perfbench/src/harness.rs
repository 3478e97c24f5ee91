//! Shared benchmark plumbing: op/check tallies, metric lists, scratch
//! directories, generated bundles and the daemon boot.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use separ_analysis::model::AppModel;
use separ_android::api::class;
use separ_core::Executor;
use separ_corpus::market::{generate, generate_app, MarketSpec, Repository};
use separ_dex::build::ApkBuilder;
use separ_dex::codec;
use separ_dex::manifest::{ComponentDecl, ComponentKind, IntentFilterDecl};
use separ_dex::program::Apk;
use separ_serve::{Daemon, ServeConfig, SessionStore};

/// Operations attempted and failed; a failed output check counts as a
/// failed operation.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations (requests, analyses, launches, checks) attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
}

impl Tally {
    /// Records one operation; `ok == false` counts it as failed and
    /// reports `what` on stderr.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: failed: {}", what());
            }
        }
    }
}

/// Named metrics in report order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Adds (or replaces) one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.retain(|(n, _, _)| *n != name);
        self.0.push((name, value, unit));
    }

    /// The value of a metric, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| *n == name).map(|m| m.1)
    }
}

/// A scratch directory under the build directory, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<build dir>/perfbench-work/<tag>-<pid>-<n>`, `n` counting
    /// the process's work directories (tests run workloads in parallel
    /// threads); the build dir is `$CARGO_TARGET_DIR`, else `.bench_build`
    /// at the checkout root.
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        let n = CREATED.fetch_add(1, Ordering::Relaxed);
        let root = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_build"))
            });
        let dir = root
            .join("perfbench-work")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A subdirectory path (not created).
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A generated bundle: the packages in memory and as encoded bytes.
#[derive(Debug, Clone)]
pub struct Bundle {
    /// The decoded packages.
    pub apks: Vec<Apk>,
    /// `codec::encode` of each package, in the same order.
    pub packages: Vec<Vec<u8>>,
}

impl Bundle {
    /// Encodes `apks`.
    pub fn from_apks(apks: Vec<Apk>) -> Bundle {
        let packages = apks.iter().map(|a| codec::encode(a).to_vec()).collect();
        Bundle { apks, packages }
    }

    /// `MarketSpec::scaled(apps, seed)`, generated and encoded.
    pub fn market(apps: usize, seed: u64) -> Bundle {
        let apks = generate(&MarketSpec::scaled(apps, seed))
            .into_iter()
            .map(|m| m.apk)
            .collect();
        Bundle::from_apks(apks)
    }

    /// The package names, in bundle order.
    pub fn package_names(&self) -> Vec<String> {
        self.apks
            .iter()
            .map(|a| a.manifest.package.clone())
            .collect()
    }
}

/// A market app that is not part of any `MarketSpec` bundle (its index
/// lies beyond every repository's range), seeded from `seed`.
pub fn fresh_app(seed: u64) -> Apk {
    generate_app(
        Repository::GooglePlay,
        9999,
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xF4E5,
    )
}

/// The package and main component of [`ping_app`].
pub const PING_APP: (&str, &str) = ("com.bench.icc", "LPinger;");
/// The implicit action [`ping_app`] fires.
pub const PING_ACTION: &str = "com.bench.PING";

/// An app whose main activity fires `burst` implicit `startService`
/// intents at its own service, which reads one extra and returns.
pub fn ping_app(burst: usize) -> Apk {
    let mut apk = ApkBuilder::new(PING_APP.0);
    apk.add_component(ComponentDecl::new(PING_APP.1, ComponentKind::Activity));
    let mut svc = ComponentDecl::new("LPong;", ComponentKind::Service);
    svc.intent_filters
        .push(IntentFilterDecl::for_actions([PING_ACTION]));
    apk.add_component(svc);
    {
        let mut cb = apk.class_extends(PING_APP.1, class::ACTIVITY);
        let mut m = cb.method("onCreate", 1, false, false);
        let i = m.reg();
        let s = m.reg();
        for _ in 0..burst {
            m.new_instance(i, class::INTENT);
            m.const_string(s, PING_ACTION);
            m.invoke_virtual(class::INTENT, "setAction", &[i, s], false);
            m.const_string(s, "k");
            m.invoke_virtual(class::INTENT, "putExtra", &[i, s, s], false);
            m.invoke_virtual(class::CONTEXT, "startService", &[m.this(), i], false);
        }
        m.ret_void();
        m.finish();
        cb.finish();
    }
    {
        let mut cb = apk.class_extends("LPong;", class::SERVICE);
        let mut m = cb.method("onStartCommand", 2, false, false);
        let v = m.reg();
        let k = m.reg();
        m.const_string(k, "k");
        m.invoke_virtual(class::INTENT, "getStringExtra", &[m.param(1), k], true);
        m.move_result(v);
        m.ret_void();
        m.finish();
        cb.finish();
    }
    apk.finish()
}

/// Extracts every package with the program's default thread count.
///
/// # Errors
///
/// Fails if a package does not decode.
pub fn extract_models(packages: &[Vec<u8>]) -> Result<Vec<AppModel>, String> {
    Executor::new(0)
        .try_ordered_map(packages, |bytes| separ_analysis::extract(bytes))
        .map_err(|e| format!("extract: {e}"))
}

/// Persists `models` as a session store in `dir`.
///
/// # Errors
///
/// Fails if the store cannot be written.
pub fn seed_store(dir: &Path, models: &[AppModel]) -> Result<(), String> {
    let store = SessionStore::open(dir).map_err(|e| format!("store: {e}"))?;
    store.persist(models).map_err(|e| format!("store: {e}"))
}

/// Boots a store-backed daemon over `dir` with default settings,
/// returning it with its boot time.
///
/// # Errors
///
/// Fails if the daemon does not start.
pub fn boot_daemon(dir: &Path) -> Result<(Daemon, Duration), String> {
    let t = Instant::now();
    let daemon = Daemon::start(ServeConfig {
        store_dir: Some(dir.to_path_buf()),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    Ok((daemon, t.elapsed()))
}

/// The process's peak resident set size in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the process's peak resident set size to its current size
/// (writes `5` to `/proc/self/clear_refs`), so that a later
/// [`peak_rss_mb`] covers only what ran after the reset, not the
/// benchmark's own input generation.
///
/// # Errors
///
/// Fails where the kernel offers no reset.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset peak RSS: {e}"))
}

/// How many passes of a script whose pass takes about `pass_secs` on
/// the reference host fill `seconds`: at least one. The count depends
/// only on the arguments, never on measured speed, so every run of a
/// workload replays exactly the same script.
pub fn passes(seconds: f64, pass_secs: f64) -> usize {
    ((seconds / pass_secs).round() as usize).max(1)
}
