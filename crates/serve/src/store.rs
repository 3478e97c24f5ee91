//! The daemon's persistent session store.
//!
//! Layout under the store directory:
//!
//! ```text
//! store/
//!   manifest.json          {"version":2,"pack":hex,"apps":[[package,model,length],...]}
//!   packs/<hex>.pack       the apps' self-checking model entries
//!                          (separ_analysis::cache codec), concatenated
//!   results/<key>.exploits self-checking exploit lists (separ_core::reuse codec)
//! ```
//!
//! The manifest records the bundle **in session order** (order is part of
//! session identity — policies are derived app-by-app): per app its
//! package, the content address of its model entry, and the entry's
//! length. The pack holds the entries in the same order, so an entry's
//! offset is the sum of the lengths before it. A pack is named by a
//! SHA-256 over its entries' addresses in order: persisting the same
//! bundle again produces the same pack, and writes nothing.
//!
//! Crash consistency: [`SessionStore::persist`] streams the new pack into
//! `packs/pack.tmp` and renames it to its name, then writes the manifest
//! that names it the same way (temp + rename), and only then removes the
//! packs and temp files the manifest does not name. A rename replaces a
//! file atomically, so a reader sees the old manifest or the new one,
//! never a torn one, and whichever it sees names a pack that is complete
//! and still there: the old pack goes only after the new manifest is in
//! place. A crash therefore restores exactly the old bundle or exactly
//! the new one. Every entry carries its own checksum, and restore checks
//! each entry's content address against the manifest's; a corrupt,
//! truncated or misfiled entry drops only that app from recovery
//! (counted, never silently), since the manifest's lengths place every
//! other entry.
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
//! storage: the daemon keeps no extraction cache. Anything else under the
//! directory — such as the `cache/` of extracted models that older
//! daemons kept — is ignored. A store of the first layout (a version-1
//! manifest and one `models/<hex>.model` file per app) is read once; its
//! boot counts the disk as differing from the session, so the next
//! persist rewrites it as a pack and removes `models/`.
//!
//! A store assumes it is its directory's only writer (one daemon per
//! store): it remembers which pack it restored or wrote and which result
//! files it loaded or wrote, and re-persisting an unchanged bundle or
//! result replaces no file. Persist encodes, hashes and writes one entry
//! at a time on the calling thread, never holding more than one
//! encoding. Restore opens the pack once and reads a chunk of entries
//! (contiguous in the pack) with one positioned read, checks them on the
//! store's [`Executor`], and decodes them on the calling thread, in
//! manifest order.
//!
//! Boot persists only on change: the daemon calls
//! [`SessionStore::persist`] at start-up only when the disk differs from
//! the session it just built — restore skipped an entry, passive-intent
//! resolution changed a restored model, the store was of the first
//! layout, or there was no manifest yet — and
//! [`SessionStore::persist_results`] only when some signature's result
//! had no file. A restart on an unchanged store encodes, hashes, writes
//! and lists nothing, and solves nothing; orphaned packs and result
//! files a crash may have left wait for the next persist to be
//! collected.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use separ_analysis::cache::{
    decode_entry, decode_payload, encode_entry, entry_address, entry_payload, sha256,
};
use separ_analysis::model::AppModel;
use separ_core::reuse::{decode_result, encode_result, ModelAddress};
use separ_core::{Executor, Exploit, ResultKey};
use separ_obs::json::Value;

/// Entries restore takes per positioned read (and per round of checks
/// on the executor): bounds the entry bytes held at once.
const CHUNK: usize = 256;

/// The manifest version [`SessionStore::persist`] writes.
const VERSION: u64 = 2;

/// What [`SessionStore::restore`] recovered.
#[derive(Debug, Default)]
pub struct Restored {
    /// The recovered bundle models, in session order.
    pub apps: Vec<AppModel>,
    /// Each recovered model's content address (the address the manifest
    /// gives its entry), in the same order.
    pub addresses: Vec<ModelAddress>,
    /// Manifest entries that could not be recovered (missing, corrupt or
    /// misfiled model entry).
    pub skipped: usize,
    /// Whether the disk holds the restored bundle in the current layout:
    /// `false` for a fresh store, and for one of the first layout, which
    /// the next [`SessionStore::persist`] rewrites.
    pub current: bool,
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

/// Tags an I/O error with the path it happened on.
fn io_error(path: &Path) -> impl FnOnce(std::io::Error) -> StoreError + '_ {
    move |e| StoreError(format!("{}: {e}", path.display()))
}

/// The on-disk session store.
#[derive(Debug)]
pub struct SessionStore {
    dir: PathBuf,
    executor: Executor,
    /// The name of the pack the manifest names, when this store restored
    /// or wrote it; persisting the bundle it holds writes nothing.
    pack: Mutex<Option<String>>,
    /// Result files this store loaded or wrote, and the current keys.
    results: Mutex<ResultFiles>,
    /// Filesystem steps [`SessionStore::persist`] completes before it
    /// stops as a crash would (see [`SessionStore::step`]).
    #[cfg(test)]
    crash_after: std::sync::atomic::AtomicUsize,
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

/// One manifest entry, placed in the pack.
struct PackEntry {
    /// The content address the manifest gives the entry (`None` if it
    /// does not parse).
    address: Option<ModelAddress>,
    offset: u64,
    len: u64,
}

impl SessionStore {
    /// Opens (creating if needed) the store under `dir`.
    ///
    /// # Errors
    ///
    /// Fails if the directory tree cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SessionStore, StoreError> {
        let dir = dir.into();
        for sub in ["packs", "results"] {
            let sub = dir.join(sub);
            std::fs::create_dir_all(&sub).map_err(io_error(&sub))?;
        }
        Ok(SessionStore {
            dir,
            executor: Executor::default(),
            pack: Mutex::new(None),
            results: Mutex::new(ResultFiles::default()),
            #[cfg(test)]
            crash_after: std::sync::atomic::AtomicUsize::new(usize::MAX),
        })
    }

    /// Runs [`SessionStore::restore`]'s checking on `executor` (default:
    /// one worker per hardware thread).
    pub fn with_executor(mut self, executor: Executor) -> SessionStore {
        self.executor = executor;
        self
    }

    fn pack(&self) -> std::sync::MutexGuard<'_, Option<String>> {
        // Only a cache of what is on disk; a panic elsewhere cannot leave
        // it naming a pack the manifest does not.
        self.pack.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn result_files(&self) -> std::sync::MutexGuard<'_, ResultFiles> {
        // As for `pack`: only a cache of what is on disk.
        self.results.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    fn pack_path(&self, name: &str) -> PathBuf {
        self.dir.join("packs").join(format!("{name}.pack"))
    }

    fn result_path(&self, key: &ResultKey) -> PathBuf {
        self.dir.join("results").join(format!("{key}.exploits"))
    }

    /// Marks the end of one of [`SessionStore::persist`]'s filesystem
    /// steps. In unit tests, a failpoint stops `persist` here once its
    /// count of steps has run out, leaving the directory as a crash
    /// after that step would.
    fn step(&self) -> Result<(), StoreError> {
        #[cfg(test)]
        {
            use std::sync::atomic::Ordering;
            if self.crash_after.fetch_sub(1, Ordering::Relaxed) == 0 {
                return Err(StoreError("failpoint: persist stopped".into()));
            }
        }
        Ok(())
    }

    /// Persists the current bundle: writes its pack unless the manifest
    /// already names it, replaces the manifest, then removes the packs
    /// and temp files the manifest does not name, a first-layout
    /// `models/` directory, and the result files no key of the last
    /// [`SessionStore::persist_results`] names.
    ///
    /// # Errors
    ///
    /// Fails if the pack or the manifest cannot be written — in that case
    /// the *previous* manifest and the pack it names remain intact and
    /// authoritative.
    pub fn persist(&self, apps: &[AppModel]) -> Result<(), StoreError> {
        let _span = separ_obs::span("serve.store.persist");
        let mut current = self.pack();
        let packs = self.dir.join("packs");
        let tmp = packs.join("pack.tmp");
        // Entries are encoded, hashed and streamed into the temp pack one
        // at a time, in bundle order: each encoding is freed before the
        // next is made, so persisting leaves no scattered small blocks
        // in the caller's malloc arena.
        let mut entries: Vec<(ModelAddress, usize)> = Vec::with_capacity(apps.len());
        {
            let mut out = BufWriter::new(File::create(&tmp).map_err(io_error(&tmp))?);
            for app in apps {
                let entry = encode_entry(app);
                out.write_all(&entry).map_err(io_error(&tmp))?;
                entries.push((entry_address(&entry), entry.len()));
            }
            out.into_inner()
                .map_err(|e| e.into_error())
                .map_err(io_error(&tmp))?;
        }
        self.step()?;
        let addresses: Vec<u8> = entries.iter().flat_map(|(address, _)| *address).collect();
        let name = hex32(&sha256(&addresses));
        if current.as_deref() == Some(name.as_str()) {
            // The manifest names this very bundle already.
            let _ = std::fs::remove_file(&tmp);
        } else {
            let pack = self.pack_path(&name);
            std::fs::rename(&tmp, &pack).map_err(io_error(&pack))?;
            self.step()?;
            let mut text = String::with_capacity(64 + apps.len() * 128);
            let _ = write!(text, r#"{{"version":{VERSION},"pack":"{name}","apps":["#);
            for (i, (app, (address, len))) in apps.iter().zip(&entries).enumerate() {
                text.push_str(if i == 0 { "[" } else { ",[" });
                separ_obs::json::write_str(&app.package, &mut text);
                let _ = write!(text, r#","{}",{len}]"#, hex32(address));
            }
            text.push_str("]}\n");
            let tmp = self.dir.join("manifest.json.tmp");
            std::fs::write(&tmp, &text).map_err(io_error(&tmp))?;
            self.step()?;
            let manifest = self.manifest_path();
            std::fs::rename(&tmp, &manifest).map_err(io_error(&manifest))?;
            *current = Some(name.clone());
            self.step()?;
        }
        // Garbage-collect what the manifest no longer names. Best effort:
        // a leaked file costs bytes, not correctness.
        let keep = format!("{name}.pack");
        for entry in std::fs::read_dir(&packs).into_iter().flatten().flatten() {
            if entry.file_name() != *keep {
                let _ = std::fs::remove_file(entry.path());
                self.step()?;
            }
        }
        let models = self.dir.join("models");
        if models.exists() {
            let _ = std::fs::remove_dir_all(&models);
            self.step()?;
        }
        // Likewise for results: anything but a current key's file goes
        // (an interrupted write's temp file too).
        let mut results = self.result_files();
        let live: HashSet<String> = results
            .live
            .iter()
            .map(|key| format!("{key}.exploits"))
            .collect();
        let results_dir = self.dir.join("results");
        for entry in std::fs::read_dir(results_dir)
            .into_iter()
            .flatten()
            .flatten()
        {
            if !live.contains(&*entry.file_name().to_string_lossy()) {
                let _ = std::fs::remove_file(entry.path());
                self.step()?;
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
                .map_err(io_error(&path))?;
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

    /// Reads the manifest and decodes every model entry it names. A
    /// missing manifest is an empty (fresh) store, not an error.
    ///
    /// # Errors
    ///
    /// Fails only on an unreadably malformed manifest; unrecoverable
    /// *model* entries merely count into [`Restored::skipped`].
    pub fn restore(&self) -> Result<Restored, StoreError> {
        let _span = separ_obs::span("serve.store.restore");
        let path = self.manifest_path();
        let malformed = |what: &str| StoreError(format!("{}: {what}", path.display()));
        let manifest = match std::fs::read_to_string(&path) {
            Ok(text) => Value::parse(text.trim()).map_err(|e| malformed(&e.to_string()))?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Restored::default()),
            Err(e) => return Err(io_error(&path)(e)),
        };
        let apps = manifest
            .get("apps")
            .and_then(Value::as_arr)
            .ok_or_else(|| malformed("missing \"apps\""))?;
        match manifest.get("version").and_then(Value::as_u64) {
            Some(1) => return Ok(self.restore_first_layout(apps)),
            Some(VERSION) => {}
            _ => return Err(malformed("unknown \"version\"")),
        }
        // The manifest as a compact list, the JSON tree dropped before
        // any entry is read.
        let pack = manifest
            .get("pack")
            .and_then(Value::as_str)
            .filter(|name| parse_hex32(name).is_some())
            .ok_or_else(|| malformed("missing \"pack\""))?
            .to_string();
        let mut entries = Vec::with_capacity(apps.len());
        let mut offset = 0u64;
        for entry in apps {
            let field = |i: usize| entry.as_arr().and_then(|fields| fields.get(i));
            let len = field(2)
                .and_then(Value::as_u64)
                .ok_or_else(|| malformed("an entry without a length"))?;
            let address = field(1).and_then(Value::as_str).and_then(parse_hex32);
            entries.push(PackEntry {
                address,
                offset,
                len,
            });
            offset = offset
                .checked_add(len)
                .ok_or_else(|| malformed("entry lengths overflow"))?;
        }
        drop(manifest);
        let mut restored = Restored {
            current: true,
            ..Restored::default()
        };
        // A missing pack loses every entry, one by one.
        let file = File::open(self.pack_path(&pack)).ok();
        let pack_len = file
            .as_ref()
            .and_then(|f| f.metadata().ok())
            .map_or(0, |m| m.len());
        let mut bytes = Vec::new();
        for chunk in entries.chunks(CHUNK) {
            // A chunk's entries are contiguous in the pack: one read
            // takes the part of them the pack holds.
            let (first, last) = (&chunk[0], &chunk[chunk.len() - 1]);
            let start = first.offset.min(pack_len);
            let end = (last.offset + last.len).min(pack_len);
            bytes.clear();
            bytes.resize(usize::try_from(end - start).unwrap_or(0), 0);
            let read = file
                .as_ref()
                .is_some_and(|f| f.read_exact_at(&mut bytes, start).is_ok());
            // Each entry is checked (content address against the
            // manifest's, and payload checksum) on the executor.
            let payloads = self.executor.ordered_map(chunk, |entry| {
                if !read {
                    return None;
                }
                // In range: offsets and lengths were summed checked.
                let at = usize::try_from(entry.offset - start).ok()?;
                let entry_bytes = bytes.get(at..at + usize::try_from(entry.len).ok()?)?;
                (entry_address(entry_bytes) == entry.address?)
                    .then(|| entry_payload(entry_bytes))?
            });
            // Decoded serially: the models live as long as the session,
            // and allocating them on short-lived executor threads spreads
            // them over extra malloc arenas, raising peak RSS.
            for (entry, payload) in chunk.iter().zip(payloads) {
                match entry.address.zip(payload.and_then(decode_payload)) {
                    Some((address, model)) => {
                        restored.apps.push(model);
                        restored.addresses.push(address);
                    }
                    None => restored.skipped += 1,
                }
            }
        }
        if file.is_some() {
            *self.pack() = Some(pack);
        }
        Ok(restored)
    }

    /// Restores a store of the first layout (`{"version":1,"apps":
    /// [{"package":p,"model":hex},...]}` and `models/<hex>.model`); the
    /// result is not `current`, so the boot rewrites the store as a pack.
    fn restore_first_layout(&self, apps: &[Value]) -> Restored {
        let mut restored = Restored::default();
        for entry in apps {
            let model = entry.get("model").and_then(Value::as_str).and_then(|hex| {
                let address = parse_hex32(hex)?;
                let file = self.dir.join("models").join(format!("{hex}.model"));
                let bytes = std::fs::read(file).ok()?;
                let model = (entry_address(&bytes) == address).then(|| decode_entry(&bytes));
                Some((model??, address))
            });
            match model {
                Some((model, address)) => {
                    restored.apps.push(model);
                    restored.addresses.push(address);
                }
                None => restored.skipped += 1,
            }
        }
        restored
    }

    /// Flushes the store to stable storage: fsyncs the manifest, the pack
    /// and every result file, and the directories holding them. Called on
    /// shutdown after the final [`SessionStore::persist`], making the
    /// drain-then-exit sequence durable.
    ///
    /// # Errors
    ///
    /// Fails if any fsync fails.
    pub fn sync(&self) -> Result<(), StoreError> {
        let _span = separ_obs::span("serve.store.sync");
        fsync_path(&self.manifest_path())?;
        for sub in ["packs", "results"] {
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
    match File::open(path) {
        Ok(f) => f
            .sync_all()
            .map_err(|e| StoreError(format!("{}: fsync: {e}", path.display()))),
        // A store that never persisted has no manifest yet; nothing to
        // make durable.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(io_error(path)(e)),
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
    use std::os::unix::fs::MetadataExt;

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

    fn address_of(app: &AppModel) -> ModelAddress {
        entry_address(&encode_entry(app))
    }

    /// The file names under `dir/sub`.
    fn files(dir: &Path, sub: &str) -> BTreeSet<String> {
        std::fs::read_dir(dir.join(sub))
            .map(|d| {
                d.flatten()
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The one pack under `dir`.
    fn the_pack(dir: &Path) -> PathBuf {
        let packs = files(dir, "packs");
        assert_eq!(packs.len(), 1, "{packs:?}");
        dir.join("packs").join(packs.first().expect("one pack"))
    }

    /// Where `apps[i]`'s entry sits in the pack of `apps`.
    fn span_of(apps: &[AppModel], i: usize) -> std::ops::Range<usize> {
        let len = |a: &AppModel| encode_entry(a).len();
        let start: usize = apps[..i].iter().map(len).sum();
        start..start + len(&apps[i])
    }

    fn restore(dir: &Path) -> Restored {
        SessionStore::open(dir)
            .expect("reopens")
            .restore()
            .expect("restores")
    }

    #[test]
    fn persist_restore_round_trips_in_order() {
        let dir = tmp("round");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::open(&dir).expect("opens");
        let apps = vec![app("com.b"), app("com.a"), app("com.c")];
        store.persist(&apps).expect("persists");
        store.sync().expect("syncs");
        let restored = restore(&dir);
        assert_eq!(restored.skipped, 0);
        assert!(restored.current);
        assert_eq!(restored.apps, apps, "order and content survive");
        let addresses: Vec<ModelAddress> = apps.iter().map(address_of).collect();
        assert_eq!(restored.addresses, addresses);
        // The manifest lists [package, address, length] per app.
        let text = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
        let manifest = Value::parse(text.trim()).expect("parses");
        assert_eq!(manifest.get("version").and_then(Value::as_u64), Some(2));
        let first = &manifest.get("apps").and_then(Value::as_arr).expect("apps")[0];
        let mut written = String::new();
        first.write_into(&mut written);
        let expected = format!(
            r#"["com.b","{}",{}]"#,
            hex32(&addresses[0]),
            encode_entry(&apps[0]).len()
        );
        assert_eq!(written, expected);
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
        assert!(!restored.current);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repersist_drops_orphaned_packs_and_corruption_skips_one_app() {
        let dir = tmp("gc");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::open(&dir).expect("opens");
        store
            .persist(&[app("com.a"), app("com.b")])
            .expect("persists");
        let old = the_pack(&dir);
        // Uninstall com.b: a new pack replaces the old one.
        store.persist(&[app("com.a")]).expect("persists");
        let pack = the_pack(&dir);
        assert_ne!(pack, old);
        // Corrupt the surviving entry: restore skips that app, reports it.
        let mut data = std::fs::read(&pack).expect("read");
        let mid = data.len() / 2;
        data[mid] ^= 0x1;
        std::fs::write(&pack, &data).expect("write");
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
    fn repersisting_writes_nothing_and_gc_keeps_exactly_the_named_pack() {
        let dir = tmp("scale");
        let _ = std::fs::remove_dir_all(&dir);
        // Every file under the store with its inode: a rewrite replaces
        // a file by rename, which changes its inode.
        let inodes = || -> Vec<(String, u64)> {
            let mut out: Vec<(String, u64)> = ["packs", "results"]
                .iter()
                .flat_map(|sub| {
                    files(&dir, sub)
                        .into_iter()
                        .map(move |f| format!("{sub}/{f}"))
                })
                .chain(["manifest.json".to_string()])
                .map(|f| {
                    let ino = std::fs::metadata(dir.join(&f)).expect("stat").ino();
                    (f, ino)
                })
                .collect();
            out.sort();
            out
        };
        let apps: Vec<AppModel> = (0..1000).map(|i| app(&format!("com.app{i}"))).collect();
        let store = SessionStore::open(&dir).expect("opens");
        store.persist(&apps).expect("persists");
        let saved = inodes();
        assert_eq!(files(&dir, "packs").len(), 1, "{saved:?}");
        // Unchanged bundle: by the same store, and by a fresh store that
        // restored it, no file is replaced, created or deleted.
        store.persist(&apps).expect("re-persists");
        assert_eq!(inodes(), saved);
        let reopened = SessionStore::open(&dir).expect("reopens");
        let restored = reopened.restore().expect("restores");
        assert_eq!(restored.apps, apps);
        reopened.persist(&restored.apps).expect("re-persists");
        assert_eq!(inodes(), saved);
        // The same bundle persisted into another store gets the same
        // pack name.
        let other = tmp("scale-other");
        let _ = std::fs::remove_dir_all(&other);
        SessionStore::open(&other)
            .expect("opens")
            .persist(&apps)
            .expect("persists");
        assert_eq!(files(&other, "packs"), files(&dir, "packs"));
        let _ = std::fs::remove_dir_all(&other);
        // Uninstall every other app: one new pack, the old one collected.
        let kept: Vec<AppModel> = apps.iter().step_by(2).cloned().collect();
        reopened.persist(&kept).expect("persists the half");
        the_pack(&dir);
        assert_ne!(inodes(), saved);
        let restored = restore(&dir);
        assert_eq!((restored.apps, restored.skipped), (kept, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_skips_a_valid_entry_filed_under_another_apps_name() {
        let dir = tmp("misnamed");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::open(&dir).expect("opens");
        let apps = [app("com.a"), app("com.b")];
        store.persist(&apps).expect("persists");
        // `com.a`'s entry is intact, but it sits where the manifest files
        // `com.b`'s.
        let pack = the_pack(&dir);
        let mut data = std::fs::read(&pack).expect("read");
        let (a, b) = (span_of(&apps, 0), span_of(&apps, 1));
        assert_eq!(a.len(), b.len());
        let entry = data[a].to_vec();
        data[b].copy_from_slice(&entry);
        std::fs::write(&pack, &data).expect("write");
        let restored = restore(&dir);
        assert_eq!(restored.apps, &apps[..1]);
        assert_eq!(restored.addresses, [address_of(&apps[0])]);
        assert_eq!(restored.skipped, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_reads_every_chunk_in_manifest_order() {
        let dir = tmp("chunks");
        let _ = std::fs::remove_dir_all(&dir);
        let apps: Vec<AppModel> = (0..CHUNK * 2 + 3)
            .map(|i| app(&format!("com.app{i}")))
            .collect();
        let store = SessionStore::open(&dir)
            .expect("opens")
            .with_executor(Executor::new(2));
        store.persist(&apps).expect("persists");
        // Corrupt the last byte of one entry in the second chunk.
        let victim = CHUNK + 1;
        let pack = the_pack(&dir);
        let mut data = std::fs::read(&pack).expect("read");
        data[span_of(&apps, victim).end - 1] ^= 0x1;
        std::fs::write(&pack, &data).expect("write");
        let restored = SessionStore::open(&dir)
            .expect("reopens")
            .with_executor(Executor::new(2))
            .restore()
            .expect("restores");
        let mut expected = apps.clone();
        expected.remove(victim);
        assert_eq!(restored.skipped, 1);
        assert_eq!(restored.apps, expected);
        let addresses: Vec<ModelAddress> = expected.iter().map(address_of).collect();
        assert_eq!(restored.addresses, addresses);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_truncated_or_missing_pack_loses_only_the_entries_it_lacks() {
        let dir = tmp("truncated");
        let _ = std::fs::remove_dir_all(&dir);
        let apps: Vec<AppModel> = (0..5).map(|i| app(&format!("com.app{i}"))).collect();
        SessionStore::open(&dir)
            .expect("opens")
            .persist(&apps)
            .expect("persists");
        let pack = the_pack(&dir);
        let data = std::fs::read(&pack).expect("read");
        // Cut inside the fourth entry: the first three survive.
        std::fs::write(&pack, &data[..span_of(&apps, 3).end - 1]).expect("truncates");
        let restored = restore(&dir);
        assert_eq!((restored.apps, restored.skipped), (apps[..3].to_vec(), 2));
        std::fs::remove_file(&pack).expect("removes");
        let restored = restore(&dir);
        assert_eq!((restored.apps.len(), restored.skipped), (0, 5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_first_layout_store_is_read_once_and_rewritten_as_a_pack() {
        let dir = tmp("first-layout");
        let _ = std::fs::remove_dir_all(&dir);
        let apps = [app("com.a"), app("com.b"), app("com.c")];
        std::fs::create_dir_all(dir.join("models")).expect("models dir");
        let mut manifest = String::from(r#"{"version":1,"apps":["#);
        for (i, a) in apps.iter().enumerate() {
            let hex = hex32(&address_of(a));
            let file = dir.join("models").join(format!("{hex}.model"));
            std::fs::write(file, encode_entry(a)).expect("model file");
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                manifest,
                r#"{sep}{{"package":"{}","model":"{hex}"}}"#,
                a.package
            );
        }
        manifest.push_str("]}\n");
        std::fs::write(dir.join("manifest.json"), manifest).expect("manifest");
        let store = SessionStore::open(&dir).expect("opens");
        let restored = store.restore().expect("restores");
        assert_eq!(restored.apps, apps);
        assert_eq!(restored.skipped, 0);
        assert!(!restored.current, "the first layout is rewritten");
        store.persist(&restored.apps).expect("persists");
        assert!(!dir.join("models").exists());
        the_pack(&dir);
        let restored = restore(&dir);
        assert_eq!(restored.apps, apps);
        assert!(restored.current);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_persist_cut_after_any_step_leaves_the_old_bundle_or_the_new() {
        let dir = tmp("crash");
        let old = [app("com.a"), app("com.b"), app("com.c")];
        let new = [app("com.a"), app("com.d")];
        let stale = ResultKey([7; 32]);
        let mut finished = false;
        let mut k = 0;
        while !finished {
            let _ = std::fs::remove_dir_all(&dir);
            {
                let store = SessionStore::open(&dir).expect("opens");
                store.persist_results([(&stale, &[][..])]).expect("writes");
                store.persist(&old).expect("persists");
            }
            // A daemon restored the old bundle; its next persist, of the
            // new one (which no longer keeps the stale result), is cut
            // after `k` filesystem steps.
            let store = SessionStore::open(&dir).expect("reopens");
            assert_eq!(store.restore().expect("restores").apps, old);
            store.persist_results([]).expect("no results");
            store
                .crash_after
                .store(k, std::sync::atomic::Ordering::Relaxed);
            finished = store.persist(&new).is_ok();
            let restored = restore(&dir);
            assert_eq!(restored.skipped, 0, "cut after {k} step(s)");
            if restored.apps != old {
                assert_eq!(restored.apps, new, "cut after {k} step(s)");
            }
            // The next persist completes the store whatever was left.
            let store = SessionStore::open(&dir).expect("reopens");
            store.restore().expect("restores");
            store.persist(&new).expect("persists");
            assert_eq!(files(&dir, "packs").len(), 1);
            assert_eq!(restore(&dir).apps, new);
            k += 1;
        }
        // Pack write and rename, manifest write and rename, the old
        // pack's removal and the stale result's.
        assert_eq!(k, 7, "an uncut persist takes six steps");
        // A crash while the temp pack was being written leaves a torn
        // one: restore ignores it, and the next persist replaces it.
        std::fs::write(dir.join("packs").join("pack.tmp"), b"SEPM torn").expect("torn");
        assert_eq!(restore(&dir).apps, new);
        let store = SessionStore::open(&dir).expect("reopens");
        store.persist(&old).expect("persists");
        assert_eq!(files(&dir, "packs").len(), 1);
        assert_eq!(restore(&dir).apps, old);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_keeps_exactly_the_current_results() {
        let dir = tmp("results");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::open(&dir).expect("opens");
        let (k1, k2) = (ResultKey([1; 32]), ResultKey([2; 32]));
        let results = || files(&dir, "results");
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
