//! The persistent session store: the one on-disk form of extracted
//! models and synthesis results.
//!
//! Layout under the store directory:
//!
//! ```text
//! store/
//!   manifest.json          {"version":2,"pack":hex,"apps":[[package,model,length(,digest)],...]}
//!   packs/<hex>.pack       the apps' self-checking model entries
//!                          (separ_analysis::cache codec), concatenated
//!   results/<key>.exploits self-checking exploit lists (crate::reuse codec)
//! ```
//!
//! The manifest records the bundle **in session order** (order is part of
//! session identity — policies are derived app-by-app): per app its
//! package, the content address of its model entry, the entry's length,
//! and, when a batch analysis ([`crate::Separ::analyze_packages_in`])
//! wrote the row, the SHA-256 of the package the model was extracted
//! from, so that the next analysis need not extract it again. The pack
//! holds the entries in the same order, so an entry's offset is the sum
//! of the lengths before it. A pack is named by a SHA-256 over its
//! entries' addresses in order: persisting the same bundle again
//! produces the same pack, and writes nothing.
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
//! Anything else under the directory — such as the `cache/` of extracted
//! models that older daemons kept — is ignored. A store of the first
//! layout (a version-1 manifest and one `models/<hex>.model` file per
//! app) is read once; its restore counts the disk as differing from the
//! session, so the next persist rewrites it as a pack and removes
//! `models/`.
//!
//! A store is its directory's only writer: opening it takes an advisory
//! `flock` on the directory itself (so the layout gains no file), held
//! until the store is dropped, and a second open — a daemon's and a
//! batch analysis's, or two in one process — fails, naming the
//! directory. The store remembers which pack and digests it restored
//! or wrote and which result files it loaded or wrote, and re-persisting
//! an unchanged bundle or result replaces no file. A persist without
//! digests keeps the remembered digest of every row whose package's
//! model is still at the address it was recorded for, and drops it for
//! a model that changed, so a daemon's saves leave the next batch
//! analysis nothing to re-extract but what the daemon changed. Persist
//! encodes, hashes and writes one entry at a time on the calling thread,
//! never holding more than one encoding.
//!
//! Restore is one pipelined pass over the pack, in chunks of entries
//! that are contiguous in it. A checker thread reads a chunk with one
//! positioned read and checks each entry (its content address against
//! the manifest's, and its payload checksum) while the calling thread
//! decodes the chunk before it, in manifest order; the two hand two
//! chunk buffers back and forth. The checker only reads and hashes:
//! the buffers are allocated before it starts, and every model is
//! allocated on the calling thread, since models live as long as the
//! session and allocating them on another thread would put them in
//! that thread's malloc arena, raising peak RSS. With a one-thread
//! [`Executor`] the whole pass runs on the calling thread. Orphaned
//! packs and result files a crash may have left wait for the next
//! persist to be collected.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::fs::{File, TryLockError};
use std::io::{BufWriter, Write as _};
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;

use separ_analysis::cache::{
    decode_entry, decode_payload, encode_entry, entry_address, entry_payload, sha256,
};
use separ_analysis::model::AppModel;
use separ_obs::json::Value;

use crate::exec::Executor;
use crate::exploit::Exploit;
use crate::reuse::{decode_hex, decode_result, encode_result, Hex, ModelAddress, ResultKey};

/// Entries restore takes per positioned read: with two chunk buffers in
/// flight, bounds the entry bytes held at once.
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
    /// Each recovered model's package digest, where its manifest row has
    /// one, in the same order.
    pub digests: Vec<Option<PackageDigest>>,
    /// Manifest entries that could not be recovered (missing, corrupt or
    /// misfiled model entry).
    pub skipped: usize,
    /// Whether the disk holds the restored bundle in the current layout:
    /// `false` for a fresh store, and for one of the first layout, which
    /// the next [`SessionStore::persist`] rewrites.
    pub current: bool,
}

/// The SHA-256 of a package's bytes.
pub type PackageDigest = [u8; 32];

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
    /// `dir`, locked for as long as this store is open.
    _lock: File,
    executor: Executor,
    /// What this store knows the manifest holds.
    manifest: Mutex<KnownManifest>,
    /// Result files this store loaded or wrote, and the current keys.
    results: Mutex<ResultFiles>,
    /// Filesystem steps [`SessionStore::persist`] completes before it
    /// stops as a crash would (see [`SessionStore::step`]).
    #[cfg(test)]
    crash_after: std::sync::atomic::AtomicUsize,
}

/// What a [`SessionStore`] knows of its manifest.
#[derive(Debug, Default)]
struct KnownManifest {
    /// The name of the pack the manifest names and the manifest's
    /// package digests in row order, when this store restored (every
    /// entry intact) or wrote them; persisting the bundle and digests
    /// they stand for writes nothing.
    written: Option<(String, Vec<Option<PackageDigest>>)>,
    /// Per package whose manifest row has a digest, that row's model
    /// address and digest: [`SessionStore::persist`] keeps the digest
    /// while the package's model stays at that address.
    digests: HashMap<String, (ModelAddress, PackageDigest)>,
}

impl KnownManifest {
    /// The digests of `rows` (package, model address) that a persist
    /// without digests keeps.
    fn kept_digests<'a>(
        &self,
        rows: impl Iterator<Item = (&'a str, &'a ModelAddress)>,
    ) -> Vec<Option<PackageDigest>> {
        rows.map(|(package, address)| {
            let (known, digest) = self.digests.get(package)?;
            (known == address).then_some(*digest)
        })
        .collect()
    }

    /// Remembers the digests of `rows` (package, model address, digest).
    fn remember_digests<'a>(
        &mut self,
        rows: impl Iterator<Item = (&'a str, &'a ModelAddress, &'a Option<PackageDigest>)>,
    ) {
        self.digests = rows
            .filter_map(|(package, address, digest)| {
                Some((package.to_string(), (*address, (*digest)?)))
            })
            .collect();
    }
}

/// One chunk's pack bytes and what the checker found of its entries.
struct CheckedChunk {
    /// The chunk's bytes, as far as the pack holds them.
    bytes: Vec<u8>,
    /// Per entry, where its payload lies in `bytes` if the entry checked
    /// out.
    payloads: Vec<Option<Range<usize>>>,
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
    /// The package the manifest gives the entry, where it has a digest.
    package: Option<String>,
    /// The package digest the manifest gives the entry, if any.
    digest: Option<PackageDigest>,
    offset: u64,
    len: u64,
}

impl SessionStore {
    /// Opens (creating if needed) the store under `dir`, and locks the
    /// directory until the store is dropped.
    ///
    /// # Errors
    ///
    /// Fails if the directory tree cannot be created, or if another open
    /// store, in this process or another, holds the directory's lock.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SessionStore, StoreError> {
        let dir = dir.into();
        for sub in ["packs", "results"] {
            let sub = dir.join(sub);
            std::fs::create_dir_all(&sub).map_err(io_error(&sub))?;
        }
        let lock = File::open(&dir).map_err(io_error(&dir))?;
        lock.try_lock().map_err(|e| match e {
            TryLockError::WouldBlock => {
                StoreError(format!("{}: locked by another open store", dir.display()))
            }
            TryLockError::Error(e) => io_error(&dir)(e),
        })?;
        Ok(SessionStore {
            _lock: lock,
            dir,
            executor: Executor::default(),
            manifest: Mutex::new(KnownManifest::default()),
            results: Mutex::new(ResultFiles::default()),
            #[cfg(test)]
            crash_after: std::sync::atomic::AtomicUsize::new(usize::MAX),
        })
    }

    /// Checks entries on a thread of their own during
    /// [`SessionStore::restore`] unless `executor` has one thread
    /// (default: one worker per hardware thread).
    pub fn with_executor(mut self, executor: Executor) -> SessionStore {
        self.executor = executor;
        self
    }

    fn manifest(&self) -> std::sync::MutexGuard<'_, KnownManifest> {
        // Only a cache of what is on disk; a panic elsewhere cannot leave
        // it naming a pack the manifest does not.
        self.manifest.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn result_files(&self) -> std::sync::MutexGuard<'_, ResultFiles> {
        // As for `manifest`: only a cache of what is on disk.
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
    /// already names it, replaces the manifest unless it already records
    /// exactly this bundle, then removes the packs and temp files the
    /// manifest does not name, a first-layout `models/` directory, and
    /// the result files no key of the last
    /// [`SessionStore::persist_results`] names. A row keeps the package
    /// digest this store last restored or wrote for its package while
    /// the package's model is at the same address; a changed model
    /// loses it.
    ///
    /// # Errors
    ///
    /// Fails if the pack or the manifest cannot be written — in that case
    /// the *previous* manifest and the pack it names remain intact and
    /// authoritative.
    pub fn persist(&self, apps: &[AppModel]) -> Result<(), StoreError> {
        self.persist_rows(apps, None)
    }

    /// [`SessionStore::persist`], recording `digests[i]`, the SHA-256 of
    /// the package `apps[i]` was extracted from, where known (a change of
    /// digests alone rewrites only the manifest).
    ///
    /// # Errors
    ///
    /// As for [`SessionStore::persist`]. Panics if `digests` and `apps`
    /// differ in length.
    pub fn persist_with_digests(
        &self,
        apps: &[AppModel],
        digests: &[Option<PackageDigest>],
    ) -> Result<(), StoreError> {
        assert_eq!(apps.len(), digests.len(), "one digest per app");
        self.persist_rows(apps, Some(digests))
    }

    /// [`SessionStore::persist_with_digests`] with the given digests, or
    /// [`SessionStore::persist`]'s kept ones for `None`.
    fn persist_rows(
        &self,
        apps: &[AppModel],
        digests: Option<&[Option<PackageDigest>]>,
    ) -> Result<(), StoreError> {
        let _span = separ_obs::span("serve.store.persist");
        let mut current = self.manifest();
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
        let name = Hex(&sha256(&addresses)).to_string();
        let digests = match digests {
            Some(digests) => digests.to_vec(),
            None => current.kept_digests(
                apps.iter()
                    .zip(&entries)
                    .map(|(app, (address, _))| (app.package.as_str(), address)),
            ),
        };
        let (named, recorded) = match &current.written {
            Some((pack, known)) => (*pack == name, *known == digests),
            None => (false, false),
        };
        if named {
            // The manifest names this very pack already.
            let _ = std::fs::remove_file(&tmp);
        } else {
            let pack = self.pack_path(&name);
            std::fs::rename(&tmp, &pack).map_err(io_error(&pack))?;
            self.step()?;
        }
        if !(named && recorded) {
            let mut text = String::with_capacity(64 + apps.len() * 200);
            let _ = write!(text, r#"{{"version":{VERSION},"pack":"{name}","apps":["#);
            let rows = apps.iter().zip(&entries).zip(&digests);
            for (i, ((app, (address, len)), digest)) in rows.enumerate() {
                text.push_str(if i == 0 { "[" } else { ",[" });
                separ_obs::json::write_str(&app.package, &mut text);
                let _ = write!(text, r#","{}",{len}"#, Hex(address));
                if let Some(digest) = digest {
                    let _ = write!(text, r#","{}""#, Hex(digest));
                }
                text.push(']');
            }
            text.push_str("]}\n");
            let tmp = self.dir.join("manifest.json.tmp");
            std::fs::write(&tmp, &text).map_err(io_error(&tmp))?;
            self.step()?;
            let manifest = self.manifest_path();
            std::fs::rename(&tmp, &manifest).map_err(io_error(&manifest))?;
            let rows = apps.iter().zip(&entries).zip(&digests);
            current.remember_digests(
                rows.map(|((app, (address, _)), digest)| (app.package.as_str(), address, digest)),
            );
            current.written = Some((name.clone(), digests));
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
            let hex = |i: usize| field(i).and_then(Value::as_str).and_then(parse_hex32);
            let digest = hex(3);
            entries.push(PackEntry {
                address: hex(1),
                package: digest
                    .and(field(0))
                    .and_then(Value::as_str)
                    .map(String::from),
                digest,
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
        self.decode_pack(file.as_ref(), &entries, |entry, model| {
            match entry.address.zip(model) {
                Some((address, model)) => {
                    restored.apps.push(model);
                    restored.addresses.push(address);
                    restored.digests.push(entry.digest);
                }
                None => restored.skipped += 1,
            }
        });
        let mut known = self.manifest();
        known.remember_digests(
            entries
                .iter()
                .filter_map(|e| Some((e.package.as_deref()?, e.address.as_ref()?, &e.digest))),
        );
        // Remembered only when every entry checked out: a persist of the
        // same bundle must replace a damaged pack.
        known.written = (file.is_some() && restored.skipped == 0)
            .then(|| (pack, entries.iter().map(|e| e.digest).collect()));
        Ok(restored)
    }

    /// Checks and decodes every entry of the pack in `file` (`None`: no
    /// pack), calling `restored` with each entry and its model (`None`
    /// if the pack lacks the entry or it does not check out), in
    /// manifest order, on the calling thread. A checker thread reads and
    /// checks each chunk while this thread decodes the one before it,
    /// unless the executor has one thread (see the module docs).
    fn decode_pack(
        &self,
        file: Option<&File>,
        entries: &[PackEntry],
        mut restored: impl FnMut(&PackEntry, Option<AppModel>),
    ) {
        let pack_len = file.and_then(|f| f.metadata().ok()).map_or(0, |m| m.len());
        // A chunk's entries are contiguous in the pack: this is the part
        // of them the pack holds.
        let span = |chunk: &[PackEntry]| {
            let (first, last) = (&chunk[0], &chunk[chunk.len() - 1]);
            first.offset.min(pack_len)..(last.offset + last.len).min(pack_len)
        };
        let check = |chunk: &[PackEntry], buffer: &mut CheckedChunk| {
            let span = span(chunk);
            buffer.bytes.clear();
            // Within the capacity the buffer was made with.
            buffer
                .bytes
                .resize(usize::try_from(span.end - span.start).unwrap_or(0), 0);
            let read = file.is_some_and(|f| f.read_exact_at(&mut buffer.bytes, span.start).is_ok());
            let bytes = &buffer.bytes;
            buffer.payloads.clear();
            buffer.payloads.extend(chunk.iter().map(|entry| {
                // In range: offsets and lengths were summed checked.
                let at = usize::try_from(entry.offset - span.start).ok()?;
                let end = at + usize::try_from(entry.len).ok()?;
                let entry_bytes = bytes.get(at..end).filter(|_| read)?;
                let payload = (entry_address(entry_bytes) == entry.address?)
                    .then(|| entry_payload(entry_bytes))??;
                // The payload is the entry's tail.
                Some(end - payload.len()..end)
            }));
        };
        let mut decode = |chunk: &[PackEntry], buffer: &CheckedChunk| {
            for (entry, payload) in chunk.iter().zip(&buffer.payloads) {
                let model = payload
                    .clone()
                    .and_then(|range| decode_payload(&buffer.bytes[range]));
                restored(entry, model);
            }
        };
        let chunks = entries.chunks(CHUNK);
        // Both buffers are made here, at their largest size, so that the
        // checker never allocates.
        let capacity = chunks.clone().map(|c| span(c).end - span(c).start).max();
        let buffer = || CheckedChunk {
            bytes: Vec::with_capacity(usize::try_from(capacity.unwrap_or(0)).unwrap_or(0)),
            payloads: Vec::with_capacity(CHUNK),
        };
        if self.executor.threads() <= 1 || chunks.len() <= 1 {
            let mut buffer = buffer();
            for chunk in chunks {
                check(chunk, &mut buffer);
                decode(chunk, &buffer);
            }
            return;
        }
        let (to_check, free) = sync_channel::<CheckedChunk>(2);
        let (to_decode, checked) = sync_channel::<CheckedChunk>(2);
        for _ in 0..2 {
            to_check.send(buffer()).expect("the receiver is alive");
        }
        std::thread::scope(|scope| {
            let to_check_chunks = chunks.clone();
            scope.spawn(move || {
                for chunk in to_check_chunks {
                    let Ok(mut buffer) = free.recv() else { return };
                    check(chunk, &mut buffer);
                    if to_decode.send(buffer).is_err() {
                        return;
                    }
                }
            });
            for chunk in chunks {
                let buffer = checked.recv().expect("the checker sends every chunk");
                decode(chunk, &buffer);
                // The checker is done once it has sent the last chunk.
                let _ = to_check.send(buffer);
            }
        });
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
                    restored.digests.push(None);
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

/// The 32 bytes a 64-digit hex name spells, as [`Hex`] writes them.
fn parse_hex32(hex: &str) -> Option<[u8; 32]> {
    decode_hex(hex)?.try_into().ok()
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
        std::env::temp_dir().join(format!("separ-store-{}-{tag}", std::process::id()))
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
        drop(store);
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
            Hex(&addresses[0]),
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
        drop(store);
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
        drop(reopened);
        let restored = restore(&dir);
        assert_eq!((restored.apps, restored.skipped), (kept, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digests_round_trip_and_changing_only_them_rewrites_only_the_manifest() {
        let dir = tmp("digests");
        let _ = std::fs::remove_dir_all(&dir);
        let apps = [app("com.a"), app("com.b")];
        let digests = [[1; 32], [2; 32]];
        let store = SessionStore::open(&dir).expect("opens");
        store.persist(&apps).expect("persists");
        drop(store);
        let ino = |f: &Path| std::fs::metadata(f).expect("stat").ino();
        let (pack, manifest) = (the_pack(&dir), dir.join("manifest.json"));
        let (pack_ino, manifest_ino) = (ino(&pack), ino(&manifest));
        assert_eq!(restore(&dir).digests, [None, None]);
        // The same bundle with digests: the pack stays, the manifest is
        // rewritten, and its rows gain a fourth field.
        let reopened = SessionStore::open(&dir).expect("reopens");
        reopened.restore().expect("restores");
        reopened
            .persist_with_digests(&apps, &digests.map(Some))
            .expect("persists");
        assert_eq!(the_pack(&dir), pack);
        assert_eq!(ino(&pack), pack_ino);
        assert_ne!(ino(&manifest), manifest_ino);
        let text = std::fs::read_to_string(&manifest).expect("manifest");
        assert!(
            text.contains(&format!(r#","{}"]"#, Hex(&digests[1]))),
            "{text}"
        );
        drop(reopened);
        let reopened = SessionStore::open(&dir).expect("reopens");
        let restored = reopened.restore().expect("restores");
        assert_eq!(restored.apps, apps);
        assert_eq!(restored.digests, [Some(digests[0]), Some(digests[1])]);
        // Unchanged digests write nothing, and neither does a persist
        // without digests, which keeps them; dropping them rewrites the
        // manifest again.
        let manifest_ino = ino(&manifest);
        reopened
            .persist_with_digests(&apps, &digests.map(Some))
            .expect("persists");
        assert_eq!(ino(&manifest), manifest_ino);
        reopened.persist(&apps).expect("persists");
        assert_eq!(ino(&manifest), manifest_ino);
        reopened
            .persist_with_digests(&apps, &[None, None])
            .expect("persists");
        assert_ne!(ino(&manifest), manifest_ino);
        drop(reopened);
        assert_eq!(restore(&dir).digests, [None, None]);
        assert_eq!(ino(&pack), pack_ino);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_store_that_skipped_an_entry_rewrites_the_same_bundle() {
        let dir = tmp("repair");
        let _ = std::fs::remove_dir_all(&dir);
        let apps = [app("com.a"), app("com.b")];
        SessionStore::open(&dir)
            .expect("opens")
            .persist(&apps)
            .expect("persists");
        let pack = the_pack(&dir);
        let mut data = std::fs::read(&pack).expect("read");
        data[span_of(&apps, 0).end - 1] ^= 0x1;
        std::fs::write(&pack, &data).expect("write");
        // The damaged app comes back from elsewhere (a re-extraction):
        // persisting the same bundle must replace the damaged pack.
        let store = SessionStore::open(&dir).expect("reopens");
        assert_eq!(store.restore().expect("restores").skipped, 1);
        store.persist(&apps).expect("persists");
        drop(store);
        let restored = restore(&dir);
        assert_eq!((restored.apps, restored.skipped), (apps.to_vec(), 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_skips_a_valid_entry_filed_under_another_apps_name() {
        let dir = tmp("misnamed");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::open(&dir).expect("opens");
        let apps = [app("com.a"), app("com.b")];
        store.persist(&apps).expect("persists");
        drop(store);
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
        drop(store);
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

    /// What restore must return for the store in `dir`: each manifest
    /// entry decoded on its own by `decode_entry`, in manifest order
    /// (apps, addresses, digests, skipped).
    fn restore_oracle(
        dir: &Path,
    ) -> (
        Vec<AppModel>,
        Vec<ModelAddress>,
        Vec<Option<PackageDigest>>,
        usize,
    ) {
        let text = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest");
        let manifest = Value::parse(text.trim()).expect("parses");
        let name = manifest.get("pack").and_then(Value::as_str).expect("pack");
        let pack =
            std::fs::read(dir.join("packs").join(format!("{name}.pack"))).unwrap_or_default();
        let mut out = (Vec::new(), Vec::new(), Vec::new(), 0);
        let mut offset = 0;
        for row in manifest.get("apps").and_then(Value::as_arr).expect("apps") {
            let field = |i: usize| row.as_arr().and_then(|fields| fields.get(i));
            let hex = |i: usize| field(i).and_then(Value::as_str).and_then(parse_hex32);
            let len = field(2).and_then(Value::as_u64).expect("length") as usize;
            let address = hex(1).expect("address");
            let model = pack
                .get(offset..offset + len)
                .filter(|entry| entry_address(entry) == address)
                .and_then(decode_entry);
            match model {
                Some(model) => {
                    out.0.push(model);
                    out.1.push(address);
                    out.2.push(hex(3));
                }
                None => out.3 += 1,
            }
            offset += len;
        }
        out
    }

    #[test]
    fn restore_returns_what_decoding_each_entry_alone_does() {
        let dir = tmp("oracle");
        let _ = std::fs::remove_dir_all(&dir);
        let apps: Vec<AppModel> = (0..CHUNK * 3 + 5)
            .map(|i| app(&format!("com.app{i}")))
            .collect();
        let digests: Vec<Option<PackageDigest>> = (0..apps.len())
            .map(|i| (i % 3 != 0).then_some([i as u8; 32]))
            .collect();
        SessionStore::open(&dir)
            .expect("opens")
            .persist_with_digests(&apps, &digests)
            .expect("persists");
        let pack = the_pack(&dir);
        let intact = std::fs::read(&pack).expect("read");
        let check = |what: &str| {
            let expected = restore_oracle(&dir);
            for threads in [1, 2, 3] {
                let restored = SessionStore::open(&dir)
                    .expect("reopens")
                    .with_executor(Executor::new(threads))
                    .restore()
                    .expect("restores");
                let got = (
                    restored.apps,
                    restored.addresses,
                    restored.digests,
                    restored.skipped,
                );
                assert!(got == expected, "{what}, {threads} thread(s)");
            }
            expected.3
        };
        assert_eq!(check("intact"), 0);
        // Damage in the first, a middle and the last chunk: a payload
        // byte, a checksum byte and the last byte of the pack.
        let mut damaged = intact.clone();
        damaged[span_of(&apps, 0).end - 1] ^= 0x1;
        damaged[span_of(&apps, CHUNK + 7).start + 8] ^= 0x1;
        damaged[span_of(&apps, apps.len() - 1).end - 1] ^= 0x1;
        std::fs::write(&pack, &damaged).expect("write");
        assert_eq!(check("damaged"), 3);
        // Cut inside the second chunk: it and every later chunk lose
        // exactly the entries the pack lacks.
        std::fs::write(&pack, &intact[..span_of(&apps, CHUNK + 3).end - 1]).expect("cut");
        assert_eq!(check("truncated"), apps.len() - (CHUNK + 3));
        std::fs::remove_file(&pack).expect("removes");
        assert_eq!(check("missing"), apps.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persist_keeps_the_digests_of_unchanged_models_only() {
        let dir = tmp("kept-digests");
        let _ = std::fs::remove_dir_all(&dir);
        let mut apps = vec![app("com.a"), app("com.b"), app("com.c")];
        let digests = [[1; 32], [2; 32], [3; 32]].map(Some);
        SessionStore::open(&dir)
            .expect("opens")
            .persist_with_digests(&apps, &digests)
            .expect("persists");
        // A store that restored the rows (a daemon's, say) changes one
        // model and drops another: the changed one loses its digest, the
        // untouched ones keep theirs, wherever their row now is.
        let store = SessionStore::open(&dir).expect("reopens");
        assert_eq!(store.restore().expect("restores").digests, digests);
        apps[1].uses_permissions.insert("NEW".into());
        apps.remove(0);
        store.persist(&apps).expect("persists");
        drop(store);
        let store = SessionStore::open(&dir).expect("reopens");
        assert_eq!(
            store.restore().expect("restores").digests,
            [None, digests[2]]
        );
        // The same store keeps what it wrote: putting the first app back
        // adds a row without a digest.
        apps.insert(0, app("com.a"));
        store.persist(&apps).expect("persists");
        drop(store);
        assert_eq!(restore(&dir).digests, [None, None, digests[2]]);
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
            let hex = Hex(&address_of(a)).to_string();
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
        drop(store);
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
            // The cut process is gone, and its lock with it.
            drop(store);
            let restored = restore(&dir);
            assert_eq!(restored.skipped, 0, "cut after {k} step(s)");
            if restored.apps != old {
                assert_eq!(restored.apps, new, "cut after {k} step(s)");
            }
            // The next persist completes the store whatever was left.
            let store = SessionStore::open(&dir).expect("reopens");
            store.restore().expect("restores");
            store.persist(&new).expect("persists");
            drop(store);
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
        drop(store);
        assert_eq!(files(&dir, "packs").len(), 1);
        assert_eq!(restore(&dir).apps, old);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_open_store_locks_its_directory() {
        let dir = tmp("locked");
        let _ = std::fs::remove_dir_all(&dir);
        let store = SessionStore::open(&dir).expect("opens");
        // A second store on the directory is refused, naming it...
        let err = SessionStore::open(&dir).expect_err("locked");
        let locked = format!("{}: locked by another open store", dir.display());
        assert_eq!(err.to_string(), locked);
        // ...and the lock is one that another process's handle on the
        // directory cannot take either, until the store is dropped.
        let other = File::open(&dir).expect("opens the directory");
        assert!(matches!(other.try_lock(), Err(TryLockError::WouldBlock)));
        drop(store);
        other.try_lock().expect("released with the store");
        let err = SessionStore::open(&dir).expect_err("locked by the other handle");
        assert_eq!(err.to_string(), locked);
        drop(other);
        SessionStore::open(&dir).expect("opens once released");
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
