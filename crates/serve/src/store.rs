//! The daemon's persistent session store.
//!
//! Layout under the store directory:
//!
//! ```text
//! store/
//!   manifest.json          {"version":1,"apps":[{"package":p,"model":hex},...]}
//!   models/<hex>.model     self-checking entries (separ_analysis::cache codec)
//! ```
//!
//! The manifest records the bundle **in session order** (order is part of
//! session identity — policies are derived app-by-app); each entry points
//! at a content-addressed model file, so an app update writes a new model
//! file and flips one manifest pointer. The manifest is replaced
//! atomically (write temp + rename), which gives crash consistency: a
//! reader always sees either the old or the new manifest, never a torn
//! one, and model files are written *before* the manifest that references
//! them. Model files carry their own checksums; a corrupt or missing file
//! drops only that app from recovery (counted, never silently).
//!
//! The store *is* the session, and it is the daemon's only model
//! storage: the daemon keeps no extraction cache, so an app's model file
//! goes with the app. Anything else under the directory — such as the
//! `cache/` of extracted models that older daemons kept — is ignored.
//!
//! A store assumes it is its directory's only writer (one daemon per
//! store): it remembers which model files it restored or wrote, and
//! re-persisting an unchanged app neither stats nor rewrites its file.
//! Encoding and hashing run on the store's [`Executor`].
//!
//! Boot persists only on change: the daemon calls
//! [`SessionStore::persist`] at start-up only when the disk differs from
//! the session it just built — restore skipped an entry, passive-intent
//! resolution changed a restored model, or there was no manifest yet. A
//! restart on an unchanged store encodes, hashes, writes and lists
//! nothing; orphaned model files a crash may have left wait for the next
//! persist to be collected.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use separ_analysis::cache::{decode_entry, encode_entry, entry_address};
use separ_analysis::model::AppModel;
use separ_core::Executor;
use separ_obs::json::Value;

/// What [`SessionStore::restore`] recovered.
#[derive(Debug, Default)]
pub struct Restored {
    /// The recovered bundle models, in session order.
    pub apps: Vec<AppModel>,
    /// Manifest entries that could not be recovered (missing or corrupt
    /// model file).
    pub skipped: usize,
    /// Whether a manifest was found (`false` for a fresh store).
    pub found_manifest: bool,
}

/// A store error (always carries the offending path's context).
#[derive(Debug)]
pub struct StoreError(String);

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for StoreError {}

/// The on-disk session store.
#[derive(Debug)]
pub struct SessionStore {
    dir: PathBuf,
    executor: Executor,
    /// Hashes of the model files this store restored or wrote and has not
    /// deleted since; `persist` takes these as present without a stat.
    known: Mutex<HashSet<String>>,
}

impl SessionStore {
    /// Opens (creating if needed) the store under `dir`.
    ///
    /// # Errors
    ///
    /// Fails if the directory tree cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SessionStore, StoreError> {
        let dir = dir.into();
        let models = dir.join("models");
        std::fs::create_dir_all(&models)
            .map_err(|e| StoreError(format!("{}: {e}", models.display())))?;
        Ok(SessionStore {
            dir,
            executor: Executor::default(),
            known: Mutex::new(HashSet::new()),
        })
    }

    /// Runs [`SessionStore::persist`]'s encoding and hashing on
    /// `executor` (default: one worker per hardware thread).
    pub fn with_executor(mut self, executor: Executor) -> SessionStore {
        self.executor = executor;
        self
    }

    fn known(&self) -> std::sync::MutexGuard<'_, HashSet<String>> {
        // The set is only a cache of what is on disk; a panic elsewhere
        // cannot leave it claiming a file that was never written.
        self.known.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    fn model_path(&self, hex: &str) -> PathBuf {
        self.dir.join("models").join(format!("{hex}.model"))
    }

    /// Persists the current bundle: writes any model files not yet
    /// present, atomically replaces the manifest, then removes orphaned
    /// model files no manifest entry references.
    ///
    /// # Errors
    ///
    /// Fails if a model file or the manifest cannot be written — in that
    /// case the *previous* manifest remains intact and authoritative.
    pub fn persist(&self, apps: &[AppModel]) -> Result<(), StoreError> {
        let _span = separ_obs::span("serve.store.persist");
        let mut known = self.known();
        let hexes = {
            let known: &HashSet<String> = &known;
            self.executor.try_ordered_map(apps, |app| {
                let encoded = encode_entry(app);
                let hex = hex32(&entry_address(&encoded));
                if !known.contains(&hex) {
                    let path = self.model_path(&hex);
                    if !path.exists() {
                        std::fs::write(&path, &encoded)
                            .map_err(|e| StoreError(format!("{}: {e}", path.display())))?;
                    }
                }
                Ok(hex)
            })?
        };
        let manifest = Value::Obj(vec![
            ("version".into(), Value::Num(1.0)),
            (
                "apps".into(),
                Value::Arr(
                    apps.iter()
                        .zip(&hexes)
                        .map(|(app, hex)| {
                            Value::Obj(vec![
                                ("package".into(), Value::Str(app.package.clone())),
                                ("model".into(), Value::Str(hex.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let mut text = String::new();
        manifest.write_into(&mut text);
        text.push('\n');
        let tmp = self.dir.join("manifest.json.tmp");
        std::fs::write(&tmp, &text).map_err(|e| StoreError(format!("{}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, self.manifest_path())
            .map_err(|e| StoreError(format!("{}: {e}", self.manifest_path().display())))?;
        // Garbage-collect model files the new manifest no longer names.
        // Best effort: a leaked file costs bytes, not correctness.
        let live: HashSet<String> = hexes.into_iter().collect();
        if let Ok(dir) = std::fs::read_dir(self.dir.join("models")) {
            for entry in dir.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let Some(hex) = name.strip_suffix(".model") else {
                    continue;
                };
                if !live.contains(hex) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        // Every live file was found, written or known above; everything
        // else is gone or no longer vouched for.
        *known = live;
        Ok(())
    }

    /// Reads the manifest and decodes every referenced model. A missing
    /// manifest is an empty (fresh) store, not an error.
    ///
    /// # Errors
    ///
    /// Fails only on an unreadably malformed manifest; unrecoverable
    /// *model* files merely count into [`Restored::skipped`].
    pub fn restore(&self) -> Result<Restored, StoreError> {
        let _span = separ_obs::span("serve.store.restore");
        let path = self.manifest_path();
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Restored::default()),
            Err(e) => return Err(StoreError(format!("{}: {e}", path.display()))),
        };
        let manifest = Value::parse(text.trim())
            .map_err(|e| StoreError(format!("{}: {e}", path.display())))?;
        let apps_field = manifest
            .get("apps")
            .and_then(Value::as_arr)
            .ok_or_else(|| StoreError(format!("{}: missing \"apps\"", path.display())))?;
        // Decoded serially: the models live as long as the session, and
        // allocating them on short-lived executor threads spreads them
        // over extra malloc arenas, raising peak RSS.
        let mut restored = Restored {
            found_manifest: true,
            ..Restored::default()
        };
        let mut known = self.known();
        for entry in apps_field {
            let model = entry.get("model").and_then(Value::as_str).and_then(|hex| {
                let model = decode_entry(&std::fs::read(self.model_path(hex)).ok()?)?;
                known.insert(hex.to_string());
                Some(model)
            });
            match model {
                Some(model) => restored.apps.push(model),
                None => restored.skipped += 1,
            }
        }
        Ok(restored)
    }

    /// Flushes the store to stable storage: fsyncs the manifest, every
    /// referenced model file, and the directories holding them. Called on
    /// shutdown after the final [`SessionStore::persist`], making the
    /// drain-then-exit sequence durable.
    ///
    /// # Errors
    ///
    /// Fails if any fsync fails.
    pub fn sync(&self) -> Result<(), StoreError> {
        let _span = separ_obs::span("serve.store.sync");
        fsync_path(&self.manifest_path())?;
        if let Ok(dir) = std::fs::read_dir(self.dir.join("models")) {
            for entry in dir.flatten() {
                fsync_path(&entry.path())?;
            }
        }
        fsync_path(&self.dir.join("models"))?;
        fsync_path(&self.dir)
    }
}

fn fsync_path(path: &Path) -> Result<(), StoreError> {
    match std::fs::File::open(path) {
        Ok(f) => f
            .sync_all()
            .map_err(|e| StoreError(format!("{}: fsync: {e}", path.display()))),
        // A store that never persisted has no manifest yet; nothing to
        // make durable.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(StoreError(format!("{}: {e}", path.display()))),
    }
}

fn hex32(key: &[u8; 32]) -> String {
    let mut out = String::with_capacity(64);
    for b in key {
        let _ = write!(out, "{b:02x}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn app(package: &str) -> AppModel {
        AppModel {
            package: package.into(),
            components: Vec::new(),
            uses_permissions: BTreeSet::from([format!("{package}.PERM")]),
            defines_permissions: BTreeSet::new(),
            diagnostics: Vec::new(),
            stats: Default::default(),
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("separ-serve-store-{}-{tag}", std::process::id()))
    }

    #[test]
    fn persist_restore_round_trips_in_order() {
        let dir = tmp("round");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::open(&dir).expect("opens");
        let apps = vec![app("com.b"), app("com.a"), app("com.c")];
        store.persist(&apps).expect("persists");
        store.sync().expect("syncs");
        let restored = SessionStore::open(&dir)
            .expect("reopens")
            .restore()
            .expect("restores");
        assert_eq!(restored.skipped, 0);
        assert_eq!(restored.apps, apps, "order and content survive");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_store_restores_empty() {
        let dir = tmp("fresh");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::open(&dir).expect("opens");
        let restored = store.restore().expect("restores");
        assert!(restored.apps.is_empty());
        assert_eq!(restored.skipped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repersist_drops_orphaned_models_and_corruption_skips_one_app() {
        let dir = tmp("gc");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::open(&dir).expect("opens");
        store
            .persist(&[app("com.a"), app("com.b")])
            .expect("persists");
        let count = || {
            std::fs::read_dir(dir.join("models"))
                .map(|d| d.flatten().count())
                .unwrap_or(0)
        };
        assert_eq!(count(), 2);
        // Uninstall com.b: its model file is garbage-collected.
        store.persist(&[app("com.a")]).expect("persists");
        assert_eq!(count(), 1);
        // Corrupt the surviving model: restore skips that app, reports it.
        let model = std::fs::read_dir(dir.join("models"))
            .expect("dir")
            .flatten()
            .next()
            .expect("one model")
            .path();
        let mut data = std::fs::read(&model).expect("read");
        let mid = data.len() / 2;
        data[mid] ^= 0x1;
        std::fs::write(&model, &data).expect("write");
        let restored = store.restore().expect("restores");
        assert!(restored.apps.is_empty());
        assert_eq!(restored.skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn updating_one_app_flips_one_manifest_pointer() {
        let dir = tmp("update");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::open(&dir).expect("opens");
        let mut apps = vec![app("com.a"), app("com.b")];
        store.persist(&apps).expect("persists");
        apps[0].uses_permissions.insert("NEW".into());
        store.persist(&apps).expect("persists");
        let restored = store.restore().expect("restores");
        assert_eq!(restored.apps, apps);
        assert!(restored.apps[0].uses_permissions.contains("NEW"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repersisting_writes_nothing_and_gc_deletes_exactly_the_orphans() {
        let dir = tmp("scale");
        let _ = std::fs::remove_dir_all(&dir);
        let files = || -> BTreeSet<String> {
            std::fs::read_dir(dir.join("models"))
                .expect("models dir")
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        };
        let file_of = |a: &AppModel| format!("{}.model", hex32(&entry_address(&encode_entry(a))));
        let apps: Vec<AppModel> = (0..1000).map(|i| app(&format!("com.app{i}"))).collect();
        let all: BTreeSet<String> = apps.iter().map(file_of).collect();
        assert_eq!(all.len(), 1000, "distinct apps get distinct files");
        let store = SessionStore::open(&dir).expect("opens");
        store.persist(&apps).expect("persists");
        assert_eq!(files(), all);
        // Unchanged bundle: by the same store, and by a fresh store that
        // restored it, no model file is created (or deleted).
        store.persist(&apps).expect("re-persists");
        assert_eq!(files(), all);
        let reopened = SessionStore::open(&dir).expect("reopens");
        let restored = reopened.restore().expect("restores");
        assert_eq!(restored.apps, apps);
        reopened.persist(&restored.apps).expect("re-persists");
        assert_eq!(files(), all);
        // Uninstall every other app: exactly the dropped apps' files go.
        let kept: Vec<AppModel> = apps.iter().step_by(2).cloned().collect();
        reopened.persist(&kept).expect("persists the half");
        let expected: BTreeSet<String> = kept.iter().map(file_of).collect();
        assert_eq!(expected.len(), 500);
        assert_eq!(files(), expected);
        let restored = SessionStore::open(&dir)
            .expect("reopens")
            .restore()
            .expect("restores");
        assert_eq!((restored.apps, restored.skipped), (kept, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
