//! The daemon's persistent session store.
//!
//! Layout under the store directory:
//!
//! ```text
//! store/
//!   manifest.json          {"version":1,"apps":[{"package":p,"model":hex},...]}
//!   models/<hex>.model     self-checking entries (separ_analysis::cache codec)
//!   results/<key>.exploits self-checking exploit lists (separ_core::reuse codec)
//! ```
//!
//! The manifest records the bundle **in session order** (order is part of
//! session identity — policies are derived app-by-app); each entry points
//! at a content-addressed model file, so an app update writes a new model
//! file and flips one manifest pointer. The manifest is replaced
//! atomically (write temp + rename), which gives crash consistency: a
//! reader always sees either the old or the new manifest, never a torn
//! one, and model files are written *before* the manifest that references
//! them. Model files carry their own checksums, and restore checks that
//! each file's content address is the name the manifest gives it; a
//! corrupt, missing or misnamed file drops only that app from recovery
//! (counted, never silently).
//!
//! A result file holds one signature's exploits, named by the
//! [`ResultKey`] of the slice they were synthesized for. The key commits
//! to the synthesis format, the signature, the scenario limit and the
//! kept models' content addresses, and the file repeats the key and
//! checksums its payload, so a result is valid for its key whatever the
//! manifest says: the manifest does not name results, and no write order
//! between the two matters. A restoring session looks a result up by its
//! key and synthesizes only on a miss — a missing, corrupt or truncated
//! file, one written for another key, or one of another synthesis format
//! all miss. Result files are written atomically (temp + rename), and
//! [`SessionStore::persist`] removes the ones no current key names, after
//! the manifest it writes is in place; until then a crash leaves the old
//! manifest's results behind for the next boot to reuse.
//!
//! The store *is* the session, and it is the daemon's only model
//! storage: the daemon keeps no extraction cache, so an app's model file
//! goes with the app. Anything else under the directory — such as the
//! `cache/` of extracted models that older daemons kept — is ignored.
//!
//! A store assumes it is its directory's only writer (one daemon per
//! store): it remembers which model and result files it restored or
//! wrote, and re-persisting an unchanged app or result neither stats nor
//! rewrites its file. Encoding and hashing, and restore's reading and
//! checking of model files, run on the store's [`Executor`].
//!
//! Boot persists only on change: the daemon calls
//! [`SessionStore::persist`] at start-up only when the disk differs from
//! the session it just built — restore skipped an entry, passive-intent
//! resolution changed a restored model, or there was no manifest yet —
//! and [`SessionStore::persist_results`] only when some signature's
//! result had no file. A restart on an unchanged store encodes, hashes,
//! writes and lists nothing, and solves nothing; orphaned model and
//! result files a crash may have left wait for the next persist to be
//! collected.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use separ_analysis::cache::{decode_payload, encode_entry, entry_address, entry_payload};
use separ_analysis::model::AppModel;
use separ_core::reuse::{decode_result, encode_result, ModelAddress};
use separ_core::{Executor, Exploit, ResultKey};
use separ_obs::json::Value;

/// Model files restore reads and checks on the executor before decoding
/// them: bounds the file bytes held at once.
const RESTORE_CHUNK: usize = 256;

/// What [`SessionStore::restore`] recovered.
#[derive(Debug, Default)]
pub struct Restored {
    /// The recovered bundle models, in session order.
    pub apps: Vec<AppModel>,
    /// Each recovered model's content address (the name the manifest
    /// gives its file), in the same order.
    pub addresses: Vec<ModelAddress>,
    /// Manifest entries that could not be recovered (missing, corrupt or
    /// misnamed model file).
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
    /// Result files this store loaded or wrote, and the current keys.
    results: Mutex<ResultFiles>,
}

/// What a [`SessionStore`] knows of its result files.
#[derive(Debug, Default)]
struct ResultFiles {
    /// Keys whose file this store loaded or wrote and has not deleted
    /// since: valid on disk, never rewritten.
    on_disk: HashSet<ResultKey>,
    /// The keys of the last [`SessionStore::persist_results`]: the
    /// results `persist` keeps.
    live: HashSet<ResultKey>,
}

impl SessionStore {
    /// Opens (creating if needed) the store under `dir`.
    ///
    /// # Errors
    ///
    /// Fails if the directory tree cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SessionStore, StoreError> {
        let dir = dir.into();
        for sub in ["models", "results"] {
            let sub = dir.join(sub);
            std::fs::create_dir_all(&sub)
                .map_err(|e| StoreError(format!("{}: {e}", sub.display())))?;
        }
        Ok(SessionStore {
            dir,
            executor: Executor::default(),
            known: Mutex::new(HashSet::new()),
            results: Mutex::new(ResultFiles::default()),
        })
    }

    /// Runs [`SessionStore::persist`]'s encoding and hashing, and
    /// [`SessionStore::restore`]'s reading and checking, on `executor`
    /// (default: one worker per hardware thread).
    pub fn with_executor(mut self, executor: Executor) -> SessionStore {
        self.executor = executor;
        self
    }

    fn known(&self) -> std::sync::MutexGuard<'_, HashSet<String>> {
        // The set is only a cache of what is on disk; a panic elsewhere
        // cannot leave it claiming a file that was never written.
        self.known.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn result_files(&self) -> std::sync::MutexGuard<'_, ResultFiles> {
        // As for `known`: only a cache of what is on disk.
        self.results.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    fn model_path(&self, hex: &str) -> PathBuf {
        self.dir.join("models").join(format!("{hex}.model"))
    }

    fn result_path(&self, key: &ResultKey) -> PathBuf {
        self.dir.join("results").join(format!("{key}.exploits"))
    }

    /// Persists the current bundle: writes any model files not yet
    /// present, atomically replaces the manifest, then removes orphaned
    /// model files no manifest entry references and result files no key
    /// of the last [`SessionStore::persist_results`] names.
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
        // Likewise for results: anything but a current key's file goes
        // (an interrupted write's temp file too).
        let mut results = self.result_files();
        if let Ok(dir) = std::fs::read_dir(self.dir.join("results")) {
            let live: HashSet<String> = results
                .live
                .iter()
                .map(|key| format!("{key}.exploits"))
                .collect();
            for entry in dir.flatten() {
                if !live.contains(&*entry.file_name().to_string_lossy()) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        let ResultFiles { on_disk, live } = &mut *results;
        on_disk.retain(|key| live.contains(key));
        Ok(())
    }

    /// Writes the result file of every given `(key, exploits)` that has
    /// none yet (temp + rename), and makes these keys the ones
    /// [`SessionStore::persist`] keeps.
    ///
    /// # Errors
    ///
    /// Fails if a result file cannot be written; the results already on
    /// disk stay valid.
    pub fn persist_results<'a>(
        &self,
        results: impl IntoIterator<Item = (&'a ResultKey, &'a [Exploit])>,
    ) -> Result<(), StoreError> {
        let _span = separ_obs::span("serve.store.persist_results");
        let results: Vec<(&ResultKey, &[Exploit])> = results.into_iter().collect();
        let mut files = self.result_files();
        // Every current key is live before any write, so a failed write
        // cannot leave a current key's file unprotected from the next GC.
        files.live = results.iter().map(|&(key, _)| *key).collect();
        for (key, exploits) in results {
            if files.on_disk.contains(key) {
                continue;
            }
            let path = self.result_path(key);
            let tmp = path.with_extension("exploits.tmp");
            std::fs::write(&tmp, encode_result(key, exploits))
                .and_then(|()| std::fs::rename(&tmp, &path))
                .map_err(|e| StoreError(format!("{}: {e}", path.display())))?;
            files.on_disk.insert(*key);
        }
        Ok(())
    }

    /// The exploits stored for `key`, or `None` when its result file is
    /// missing or does not check out (see the module docs).
    pub fn load_result(&self, key: &ResultKey) -> Option<Vec<Exploit>> {
        let exploits = decode_result(key, &std::fs::read(self.result_path(key)).ok()?)?;
        self.result_files().on_disk.insert(*key);
        Some(exploits)
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
        let mut restored = Restored {
            found_manifest: true,
            ..Restored::default()
        };
        let mut known = self.known();
        let entries: Vec<Option<(&str, ModelAddress)>> = apps_field
            .iter()
            .map(|entry| {
                let hex = entry.get("model").and_then(Value::as_str)?;
                Some((hex, parse_hex32(hex)?))
            })
            .collect();
        for chunk in entries.chunks(RESTORE_CHUNK) {
            // Files are read and checked (checksum, and content address
            // against the manifest's name for them) on the executor.
            let payloads = self.executor.ordered_map(chunk, |entry| {
                let (hex, address) = (*entry)?;
                let mut bytes = std::fs::read(self.model_path(hex)).ok()?;
                if entry_address(&bytes) != address {
                    return None;
                }
                let header = bytes.len() - entry_payload(&bytes)?.len();
                bytes.drain(..header);
                Some(bytes)
            });
            // Decoded serially: the models live as long as the session,
            // and allocating them on short-lived executor threads spreads
            // them over extra malloc arenas, raising peak RSS.
            for (entry, payload) in chunk.iter().zip(payloads) {
                match entry.zip(payload.as_deref().and_then(decode_payload)) {
                    Some(((hex, address), model)) => {
                        known.insert(hex.to_string());
                        restored.apps.push(model);
                        restored.addresses.push(address);
                    }
                    None => restored.skipped += 1,
                }
            }
        }
        Ok(restored)
    }

    /// Flushes the store to stable storage: fsyncs the manifest, every
    /// model and result file, and the directories holding them. Called on
    /// shutdown after the final [`SessionStore::persist`], making the
    /// drain-then-exit sequence durable.
    ///
    /// # Errors
    ///
    /// Fails if any fsync fails.
    pub fn sync(&self) -> Result<(), StoreError> {
        let _span = separ_obs::span("serve.store.sync");
        fsync_path(&self.manifest_path())?;
        for sub in ["models", "results"] {
            let sub = self.dir.join(sub);
            if let Ok(dir) = std::fs::read_dir(&sub) {
                for entry in dir.flatten() {
                    fsync_path(&entry.path())?;
                }
            }
            fsync_path(&sub)?;
        }
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

/// The 32 bytes a 64-digit lower-case hex name spells, as [`hex32`]
/// writes them.
fn parse_hex32(hex: &str) -> Option<[u8; 32]> {
    let digits = hex.as_bytes();
    if digits.len() != 64 {
        return None;
    }
    let nibble = |d: u8| match d {
        b'0'..=b'9' => Some(d - b'0'),
        b'a'..=b'f' => Some(d - b'a' + 10),
        _ => None,
    };
    let mut out = [0u8; 32];
    for (byte, pair) in out.iter_mut().zip(digits.chunks_exact(2)) {
        *byte = (nibble(pair[0])? << 4) | nibble(pair[1])?;
    }
    Some(out)
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

    #[test]
    fn restore_skips_a_valid_entry_filed_under_another_apps_name() {
        let dir = tmp("misnamed");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::open(&dir).expect("opens");
        let (a, b) = (app("com.a"), app("com.b"));
        store.persist(&[a.clone(), b.clone()]).expect("persists");
        let file_of = |m: &AppModel| {
            dir.join("models")
                .join(format!("{}.model", hex32(&entry_address(&encode_entry(m)))))
        };
        // `com.a`'s entry is intact, but the manifest names it as `com.b`.
        std::fs::copy(file_of(&a), file_of(&b)).expect("copies");
        let restored = SessionStore::open(&dir)
            .expect("reopens")
            .restore()
            .expect("restores");
        assert_eq!(restored.apps, std::slice::from_ref(&a));
        assert_eq!(restored.addresses, [entry_address(&encode_entry(&a))]);
        assert_eq!(restored.skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_reads_every_chunk_in_manifest_order() {
        let dir = tmp("chunks");
        let _ = std::fs::remove_dir_all(&dir);
        let apps: Vec<AppModel> = (0..RESTORE_CHUNK * 2 + 3)
            .map(|i| app(&format!("com.app{i}")))
            .collect();
        let store = SessionStore::open(&dir)
            .expect("opens")
            .with_executor(Executor::new(2));
        store.persist(&apps).expect("persists");
        // Corrupt one entry in the second chunk.
        let victim = &apps[RESTORE_CHUNK + 1];
        let path = dir.join("models").join(format!(
            "{}.model",
            hex32(&entry_address(&encode_entry(victim)))
        ));
        let mut data = std::fs::read(&path).expect("read");
        let last = data.len() - 1;
        data[last] ^= 0x1;
        std::fs::write(&path, &data).expect("write");
        let restored = SessionStore::open(&dir)
            .expect("reopens")
            .with_executor(Executor::new(2))
            .restore()
            .expect("restores");
        let expected: Vec<AppModel> = apps.iter().filter(|a| *a != victim).cloned().collect();
        assert_eq!(restored.skipped, 1);
        assert_eq!(restored.apps, expected);
        let addresses: Vec<[u8; 32]> = expected
            .iter()
            .map(|a| entry_address(&encode_entry(a)))
            .collect();
        assert_eq!(restored.addresses, addresses);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_keeps_exactly_the_current_results() {
        let dir = tmp("results");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::open(&dir).expect("opens");
        let (k1, k2) = (ResultKey([1; 32]), ResultKey([2; 32]));
        let results = || -> BTreeSet<String> {
            std::fs::read_dir(dir.join("results"))
                .expect("results dir")
                .flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        };
        let name = |k: &ResultKey| format!("{k}.exploits");
        store.persist_results([(&k1, &[][..])]).expect("writes");
        assert_eq!(results(), BTreeSet::from([name(&k1)]));
        assert_eq!(store.load_result(&k1), Some(Vec::new()));
        assert_eq!(store.load_result(&k2), None, "never written");
        // A leftover temp file and the file of a key no longer current
        // go at the next persist; the current key's file stays.
        std::fs::write(dir.join("results").join("x.exploits.tmp"), b"torn").expect("tmp");
        store.persist_results([(&k2, &[][..])]).expect("writes");
        store.persist(&[app("com.a")]).expect("persists");
        assert_eq!(results(), BTreeSet::from([name(&k2)]));
        // A file for one key is no result for another.
        std::fs::copy(
            dir.join("results").join(name(&k2)),
            dir.join("results").join(name(&k1)),
        )
        .expect("copies");
        assert_eq!(store.load_result(&k1), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
