//! The model codec: an [`AppModel`] as one self-checking entry (magic,
//! format version, the payload's SHA-256, then the payload), named by a
//! content address ([`model_address`]). A session store
//! (`separ_core::store`) keeps a bundle's models as these entries in one
//! pack. Any corruption is detected on decode, so a damaged entry costs
//! a re-extraction, never a wrong model. The codec needs no
//! serialization dependency and carries its own [`sha256`].

use separ_android::api::IccMethod;
use separ_android::types::{FlowPath, Resource};
use separ_dex::manifest::{ComponentKind, IntentFilterDecl};

use crate::diagnostics::{Diagnostic, DiagnosticKind, Severity};
use crate::model::{AppModel, ComponentModel, ExtractionStats, SentIntentModel};

// ---------------------------------------------------------------------
// File format: magic, version, payload checksum, payload.
// ---------------------------------------------------------------------

const MAGIC: &[u8; 4] = b"SEPM";
const VERSION: u32 = 1;
/// Magic, version and payload checksum.
const HEADER_LEN: usize = 40;

/// A content address for an entry from [`encode_entry`]: the SHA-256 of
/// its header (magic, version and the payload's SHA-256). The header
/// commits to the whole entry, so this names it as uniquely as hashing
/// every byte would, without hashing the payload a second time.
pub fn entry_address(entry: &[u8]) -> [u8; 32] {
    sha256(&entry[..entry.len().min(HEADER_LEN)])
}

/// The content address of `model`: [`entry_address`] of its
/// [`encode_entry`], the name a session store files it under.
pub fn model_address(model: &AppModel) -> [u8; 32] {
    entry_address(&encode_entry(model))
}

/// Serializes a model into a self-checking cache entry.
pub fn encode_entry(model: &AppModel) -> Vec<u8> {
    let mut payload = Vec::new();
    write_model(&mut payload, model);
    let mut out = Vec::with_capacity(payload.len() + 40);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&sha256(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Deserializes a cache entry, returning `None` on any corruption
/// (bad magic, version mismatch, checksum failure, or malformed
/// payload).
pub fn decode_entry(data: &[u8]) -> Option<AppModel> {
    decode_payload(entry_payload(data)?)
}

/// The payload of an entry whose magic, version and payload checksum
/// check out; `None` on any of those failing. The costly half of
/// [`decode_entry`] (hashing every byte), separable so callers can check
/// many entries in parallel and decode them elsewhere.
pub fn entry_payload(data: &[u8]) -> Option<&[u8]> {
    if data.len() < HEADER_LEN || &data[..4] != MAGIC {
        return None;
    }
    if u32::from_le_bytes(data[4..8].try_into().ok()?) != VERSION {
        return None;
    }
    let payload = &data[HEADER_LEN..];
    (sha256(payload)[..] == data[8..HEADER_LEN]).then_some(payload)
}

/// Decodes a payload that [`entry_payload`] vouched for; `None` if it is
/// malformed.
pub fn decode_payload(payload: &[u8]) -> Option<AppModel> {
    let mut r = Reader(payload);
    let model = read_model(&mut r)?;
    // Trailing garbage is corruption too.
    r.is_done().then_some(model)
}

// --- writing ---------------------------------------------------------
//
// The primitives (`write_u64`, `write_str`, `write_opt_str` and
// `Reader`) are public: `separ_core::reuse` encodes exploit results with
// the same little-endian, length-prefixed layout.

/// Appends `v`, little-endian.
pub fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `s`, prefixed by its byte length.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends a presence byte (0 or 1), then the string if present.
pub fn write_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            write_str(out, s);
        }
    }
}

fn write_strs<'a>(out: &mut Vec<u8>, it: impl ExactSizeIterator<Item = &'a String>) {
    write_u64(out, it.len() as u64);
    for s in it {
        write_str(out, s);
    }
}

fn write_model(out: &mut Vec<u8>, m: &AppModel) {
    write_str(out, &m.package);
    write_u64(out, m.components.len() as u64);
    for c in &m.components {
        write_component(out, c);
    }
    write_strs(out, m.uses_permissions.iter());
    write_strs(out, m.defines_permissions.iter());
    write_u64(out, m.diagnostics.len() as u64);
    for d in &m.diagnostics {
        write_diagnostic(out, d);
    }
    // Twelve reserved bytes, once the extraction wall time: written as zero
    // so an entry, and so its address, depends only on the package, and
    // skipped on read, since older entries hold a real time.
    out.extend_from_slice(&[0; 12]);
    write_u64(out, m.stats.app_size as u64);
    write_u64(out, m.stats.instructions_visited);
    write_u64(out, m.stats.quarantined_methods as u64);
}

fn write_component(out: &mut Vec<u8>, c: &ComponentModel) {
    write_str(out, &c.class);
    out.push(c.kind as u8);
    out.push(u8::from(c.exported));
    write_u64(out, c.filters.len() as u64);
    for f in &c.filters {
        write_strs(out, f.actions.iter());
        write_strs(out, f.categories.iter());
        write_strs(out, f.data_types.iter());
        write_strs(out, f.data_schemes.iter());
    }
    write_opt_str(out, c.enforced_permission.as_deref());
    write_strs(out, c.dynamic_checks.iter());
    write_u64(out, c.paths.len() as u64);
    for p in &c.paths {
        out.push(p.source as u8);
        out.push(p.sink as u8);
    }
    write_u64(out, c.sent_intents.len() as u64);
    for i in &c.sent_intents {
        write_intent(out, i);
    }
    write_strs(out, c.used_permissions.iter());
    out.push(u8::from(c.registers_dynamically));
}

fn write_intent(out: &mut Vec<u8>, i: &SentIntentModel) {
    out.push(i.via as u8);
    write_opt_str(out, i.action.as_deref());
    write_strs(out, i.categories.iter());
    write_opt_str(out, i.data_type.as_deref());
    write_opt_str(out, i.data_scheme.as_deref());
    write_opt_str(out, i.explicit_target.as_deref());
    write_strs(out, i.extra_keys.iter());
    write_u64(out, i.extra_taints.len() as u64);
    for &t in &i.extra_taints {
        out.push(t as u8);
    }
    out.push(u8::from(i.requests_result));
    out.push(u8::from(i.is_passive));
    write_strs(out, i.resolved_targets.iter());
}

/// Every diagnostic kind, in a frozen serialization order (append-only:
/// extending it is compatible, reordering is a format break).
const DIAGNOSTIC_KINDS: [DiagnosticKind; 14] = [
    DiagnosticKind::RegisterBounds,
    DiagnosticKind::UseBeforeDef,
    DiagnosticKind::MoveResultPairing,
    DiagnosticKind::BranchTarget,
    DiagnosticKind::PoolIndex,
    DiagnosticKind::UnreachableCode,
    DiagnosticKind::SuperclassCycle,
    DiagnosticKind::DuplicateClass,
    DiagnosticKind::UnresolvedComponent,
    DiagnosticKind::MissingEntryPoint,
    DiagnosticKind::FilterWithoutAction,
    DiagnosticKind::ProviderWithFilter,
    DiagnosticKind::DuplicateComponent,
    DiagnosticKind::DecodeFailure,
];

fn write_diagnostic(out: &mut Vec<u8>, d: &Diagnostic) {
    out.push(match d.severity {
        Severity::Info => 0,
        Severity::Warning => 1,
        Severity::Error => 2,
    });
    write_str(out, &d.app);
    write_str(out, &d.location);
    let kind = DIAGNOSTIC_KINDS
        .iter()
        .position(|&k| k == d.kind)
        .expect("kind listed") as u8;
    out.push(kind);
    write_str(out, &d.message);
}

// --- reading ---------------------------------------------------------

/// Reads what the `write_*` primitives wrote; every read returns `None`
/// on malformed or missing bytes.
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// A reader over `data`.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader(data)
    }

    /// Whether every byte has been read.
    pub fn is_done(&self) -> bool {
        self.0.is_empty()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A length prefix, sanity-bounded by the bytes actually remaining.
    pub fn prefix_len(&mut self) -> Option<usize> {
        let n = self.u64()?;
        (n <= self.0.len() as u64).then_some(n as usize)
    }

    /// A [`write_str`] string.
    pub fn str(&mut self) -> Option<String> {
        let n = self.prefix_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// A [`write_opt_str`] string.
    pub fn opt_str(&mut self) -> Option<Option<String>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.str()?)),
            _ => None,
        }
    }

    /// A length-prefixed list of at least `min_bytes` bytes per item,
    /// read by `item` into a vector of exactly that many slots.
    fn vec<T>(
        &mut self,
        min_bytes: usize,
        mut item: impl FnMut(&mut Reader<'a>) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = self.prefix_len()?;
        // Bounded by the bytes left before anything is allocated.
        if n > self.0.len() / min_bytes {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }

    fn str_vec(&mut self) -> Option<Vec<String>> {
        self.vec(8, Reader::str)
    }

    /// A [`write_strs`] set, built by insertion: collecting would first
    /// gather the strings into a temporary vector to sort them.
    fn str_set(&mut self) -> Option<std::collections::BTreeSet<String>> {
        let n = self.prefix_len()?;
        let mut set = std::collections::BTreeSet::new();
        for _ in 0..n {
            set.insert(self.str()?);
        }
        Some(set)
    }

    /// A resource, written as its index in [`Resource::ALL`].
    pub fn resource(&mut self) -> Option<Resource> {
        Resource::ALL.get(self.u8()? as usize).copied()
    }
}

// The fewest bytes a list item can be encoded in (every string costs at
// least its 8-byte length prefix): bounds a list's length by the bytes
// left before its vector is allocated.
const MIN_COMPONENT_BYTES: usize = 8 + 2 + 8 + 1 + 8 + 8 + 8 + 8 + 1;
const MIN_INTENT_BYTES: usize = 1 + 1 + 8 + 1 + 1 + 1 + 8 + 8 + 1 + 1 + 8;
const MIN_DIAGNOSTIC_BYTES: usize = 1 + 8 + 8 + 1 + 8;

fn read_model(r: &mut Reader<'_>) -> Option<AppModel> {
    let package = r.str()?;
    let components = r.vec(MIN_COMPONENT_BYTES, read_component)?;
    let uses_permissions = r.str_set()?;
    let defines_permissions = r.str_set()?;
    let diagnostics = r.vec(MIN_DIAGNOSTIC_BYTES, read_diagnostic)?;
    // The twelve reserved bytes (see `write_model`).
    r.u64()?;
    r.u32()?;
    let stats = ExtractionStats {
        app_size: r.u64()? as usize,
        instructions_visited: r.u64()?,
        quarantined_methods: r.u64()? as usize,
    };
    Some(AppModel {
        package,
        components,
        uses_permissions,
        defines_permissions,
        diagnostics,
        stats,
    })
}

fn read_component(r: &mut Reader<'_>) -> Option<ComponentModel> {
    let class = r.str()?;
    let kind = *ComponentKind::ALL.get(r.u8()? as usize)?;
    let exported = r.bool()?;
    let filters = r.vec(4 * 8, |r| {
        Some(IntentFilterDecl {
            actions: r.str_vec()?,
            categories: r.str_vec()?,
            data_types: r.str_vec()?,
            data_schemes: r.str_vec()?,
        })
    })?;
    let enforced_permission = r.opt_str()?;
    let dynamic_checks = r.str_set()?;
    let n = r.prefix_len()?;
    let paths = (0..n)
        .map(|_| {
            Some(FlowPath {
                source: r.resource()?,
                sink: r.resource()?,
            })
        })
        .collect::<Option<_>>()?;
    let sent_intents = r.vec(MIN_INTENT_BYTES, read_intent)?;
    Some(ComponentModel {
        class,
        kind,
        exported,
        filters,
        enforced_permission,
        dynamic_checks,
        paths,
        sent_intents,
        used_permissions: r.str_set()?,
        registers_dynamically: r.bool()?,
    })
}

fn read_intent(r: &mut Reader<'_>) -> Option<SentIntentModel> {
    let via = *IccMethod::ALL.get(r.u8()? as usize)?;
    let action = r.opt_str()?;
    let categories = r.str_set()?;
    let data_type = r.opt_str()?;
    let data_scheme = r.opt_str()?;
    let explicit_target = r.opt_str()?;
    let extra_keys = r.str_set()?;
    let n = r.prefix_len()?;
    let extra_taints = (0..n).map(|_| r.resource()).collect::<Option<_>>()?;
    Some(SentIntentModel {
        via,
        action,
        categories,
        data_type,
        data_scheme,
        explicit_target,
        extra_keys,
        extra_taints,
        requests_result: r.bool()?,
        is_passive: r.bool()?,
        resolved_targets: r.str_set()?,
    })
}

fn read_diagnostic(r: &mut Reader<'_>) -> Option<Diagnostic> {
    let severity = match r.u8()? {
        0 => Severity::Info,
        1 => Severity::Warning,
        2 => Severity::Error,
        _ => return None,
    };
    Some(Diagnostic {
        severity,
        app: r.str()?,
        location: r.str()?,
        kind: *DIAGNOSTIC_KINDS.get(r.u8()? as usize)?,
        message: r.str()?,
    })
}

// ---------------------------------------------------------------------
// SHA-256 (FIPS 180-4), self-contained.
// ---------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Computes the SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    sha256_with(compress, data)
}

/// SHA-256 over `compress`, a function that folds whole 64-byte blocks
/// into the state.
fn sha256_with(compress: fn(&mut [u32; 8], &[u8]), data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Whole blocks are hashed in place; only the tail is copied out to
    // be padded: tail ‖ 0x80 ‖ zeros ‖ bit-length (big-endian u64).
    let whole = data.len() - data.len() % 64;
    compress(&mut h, &data[..whole]);
    let rest = &data[whole..];
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut h, &tail[..tail_len]);
    let mut out = [0u8; 32];
    for (chunk, hi) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&hi.to_be_bytes());
    }
    out
}

/// Folds whole 64-byte blocks into `h`, with the CPU's SHA extensions
/// where it has them and [`compress_portable`] elsewhere.
fn compress(h: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni::available() {
        // SAFETY: `available` checked at run time that this CPU has every
        // instruction set `compress` is compiled for.
        return unsafe { sha_ni::compress(h, blocks) };
    }
    compress_portable(h, blocks);
}

/// The SHA-256 compression function in portable code, one 64-byte block
/// at a time.
fn compress_portable(h: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("4 bytes"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (hi, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *hi = hi.wrapping_add(v);
        }
    }
}

/// The compression function on the x86-64 SHA extensions (SHA-NI).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::K;

    /// Whether this CPU has the instructions [`compress`] uses (the
    /// detection is cached by the standard library).
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Four big-endian words of `bytes` as one vector, the first in the
    /// lowest lane.
    #[target_feature(enable = "sse2")]
    fn words(bytes: &[u8]) -> __m128i {
        let word =
            |i: usize| u32::from_be_bytes(bytes[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        _mm_set_epi32(
            word(3) as i32,
            word(2) as i32,
            word(1) as i32,
            word(0) as i32,
        )
    }

    /// Folds whole 64-byte blocks into `h`; bit-identical to
    /// [`super::compress_portable`]. Callable only where [`available`]
    /// holds: it runs instructions older CPUs do not have.
    ///
    /// The state is kept as the two vectors the round instruction takes,
    /// (A, B, E, F) and (C, D, G, H) from the highest lane down; each
    /// round pair adds four schedule words and their constants, and the
    /// schedule is extended four words at a time (`msg1`, the `t-7`
    /// words, `msg2`) in the four vectors `w`, used round-robin.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(h: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, hh] = h.map(|v| v as i32);
        let mut abef = _mm_set_epi32(a, b, e, f);
        let mut cdgh = _mm_set_epi32(c, d, g, hh);
        let k: [__m128i; 16] = std::array::from_fn(|i| {
            _mm_set_epi32(
                K[4 * i + 3] as i32,
                K[4 * i + 2] as i32,
                K[4 * i + 1] as i32,
                K[4 * i] as i32,
            )
        });
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w: [__m128i; 4] = std::array::from_fn(|i| words(&block[16 * i..16 * i + 16]));
            for i in 0..16 {
                let msg = _mm_add_epi32(w[i % 4], k[i]);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
                if (3..15).contains(&i) {
                    let t7 = _mm_alignr_epi8::<4>(w[i % 4], w[(i + 3) % 4]);
                    let next = _mm_add_epi32(w[(i + 1) % 4], t7);
                    w[(i + 1) % 4] = _mm_sha256msg2_epu32(next, w[i % 4]);
                }
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(msg));
                if (1..13).contains(&i) {
                    w[(i + 3) % 4] = _mm_sha256msg1_epu32(w[(i + 3) % 4], w[i % 4]);
                }
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *h = [
            _mm_extract_epi32::<3>(abef),
            _mm_extract_epi32::<2>(abef),
            _mm_extract_epi32::<3>(cdgh),
            _mm_extract_epi32::<2>(cdgh),
            _mm_extract_epi32::<1>(abef),
            _mm_extract_epi32::<0>(abef),
            _mm_extract_epi32::<1>(cdgh),
            _mm_extract_epi32::<0>(cdgh),
        ]
        .map(|v| v as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use separ_android::api::class;
    use separ_dex::build::ApkBuilder;
    use separ_dex::manifest::{ComponentDecl, ComponentKind};
    use separ_dex::program::Apk;

    fn hex(d: &[u8; 32]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn entry_address_names_the_whole_entry_by_its_header() {
        let model = |package: &str| AppModel {
            package: package.into(),
            components: Vec::new(),
            uses_permissions: Default::default(),
            defines_permissions: Default::default(),
            diagnostics: Vec::new(),
            stats: Default::default(),
        };
        let a = encode_entry(&model("com.a"));
        assert_eq!(entry_address(&a), sha256(&a[..HEADER_LEN]));
        assert_eq!(
            entry_address(&a),
            entry_address(&encode_entry(&model("com.a")))
        );
        assert_ne!(
            entry_address(&a),
            entry_address(&encode_entry(&model("com.b")))
        );
        // A truncated entry still gets an address (of what is there).
        assert_eq!(entry_address(&a[..10]), sha256(&a[..10]));
    }

    #[test]
    fn sha256_matches_known_vectors() {
        // FIPS 180-4 / RFC 6234 test vectors.
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // A multi-block input (> 64 bytes).
        let long = vec![b'a'; 1000];
        assert_eq!(
            hex(&sha256(&long)),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
        // Lengths on either side of the one- and two-block padding
        // boundaries.
        for (n, digest) in [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
            (
                120,
                "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
            ),
            (
                128,
                "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e",
            ),
        ] {
            assert_eq!(hex(&sha256(&vec![b'a'; n])), digest, "{n} bytes");
        }
    }

    /// SHA-256 on the portable compression function alone.
    fn sha256_portable(data: &[u8]) -> [u8; 32] {
        sha256_with(compress_portable, data)
    }

    #[test]
    fn dispatched_sha256_matches_the_portable_one_at_every_padding_length() {
        // Every tail length of one and two blocks, and every padding
        // case, over bytes that differ per position.
        let data: Vec<u8> = (0..130u32).map(|i| (i * 151 + 7) as u8).collect();
        for n in 0..=data.len() {
            assert_eq!(sha256(&data[..n]), sha256_portable(&data[..n]), "{n} bytes");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn dispatched_sha256_matches_the_portable_one(
            data in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..4097usize)
        ) {
            proptest::prop_assert_eq!(sha256(&data), sha256_portable(&data));
        }
    }

    /// Every `Vec` in `model`, as (what, len, capacity).
    fn vec_sizes(model: &AppModel) -> Vec<(&'static str, usize, usize)> {
        let mut out = vec![
            (
                "components",
                model.components.len(),
                model.components.capacity(),
            ),
            (
                "diagnostics",
                model.diagnostics.len(),
                model.diagnostics.capacity(),
            ),
        ];
        for c in &model.components {
            out.push(("filters", c.filters.len(), c.filters.capacity()));
            out.push((
                "sent_intents",
                c.sent_intents.len(),
                c.sent_intents.capacity(),
            ));
            for f in &c.filters {
                for (what, v) in [
                    ("actions", &f.actions),
                    ("categories", &f.categories),
                    ("data_types", &f.data_types),
                    ("data_schemes", &f.data_schemes),
                ] {
                    out.push((what, v.len(), v.capacity()));
                }
            }
        }
        out
    }

    #[test]
    fn decoding_sizes_every_vector_exactly() {
        let strs =
            |tag: &str, n: usize| -> Vec<String> { (0..n).map(|i| format!("{tag}{i}")).collect() };
        // Lists of 0 to 6 items: on both sides of a collected vector's
        // first capacity (4).
        let filter = |n: usize| IntentFilterDecl {
            actions: strs("a", n),
            categories: strs("c", n + 1),
            data_types: strs("t", 6 - n),
            data_schemes: strs("s", n / 2),
        };
        let intent = SentIntentModel {
            via: IccMethod::StartService,
            action: Some("act".into()),
            categories: Default::default(),
            data_type: None,
            data_scheme: None,
            explicit_target: None,
            extra_keys: Default::default(),
            extra_taints: Default::default(),
            requests_result: false,
            is_passive: false,
            resolved_targets: Default::default(),
        };
        let component = |n: usize| ComponentModel {
            class: format!("LC{n};"),
            kind: ComponentKind::Service,
            exported: true,
            filters: (0..n).map(filter).collect(),
            enforced_permission: None,
            dynamic_checks: Default::default(),
            paths: Default::default(),
            sent_intents: vec![intent.clone(); n],
            used_permissions: Default::default(),
            registers_dynamically: false,
        };
        let diagnostic = Diagnostic {
            severity: Severity::Info,
            app: "com.wide".into(),
            location: "manifest".into(),
            kind: DiagnosticKind::UnreachableCode,
            message: "m".into(),
        };
        let wide = AppModel {
            package: "com.wide".into(),
            components: (0..7).map(component).collect(),
            uses_permissions: Default::default(),
            defines_permissions: Default::default(),
            diagnostics: vec![diagnostic; 5],
            stats: Default::default(),
        };
        let models = [wide, crate::extractor::extract_apk(&leaky_app())];
        let mut seen = 0;
        for model in &models {
            let decoded = decode_entry(&encode_entry(model)).expect("valid entry");
            assert_eq!(&decoded, model);
            for (what, len, capacity) in vec_sizes(&decoded) {
                assert_eq!(capacity, len, "{what} of {}", model.package);
                seen += usize::from(len > 4);
            }
        }
        assert!(
            seen > 0,
            "some list is longer than a default first allocation"
        );
    }

    fn leaky_app() -> Apk {
        let mut apk = ApkBuilder::new("com.cache.test");
        apk.add_component(ComponentDecl::new("LLeaky;", ComponentKind::Service));
        let mut cb = apk.class_extends("LLeaky;", class::SERVICE);
        let mut m = cb.method("onStartCommand", 3, false, false);
        let v = m.reg();
        let i = m.reg();
        let s = m.reg();
        m.invoke_virtual(class::LOCATION_MANAGER, "getLastKnownLocation", &[v], true);
        m.move_result(v);
        m.new_instance(i, class::INTENT);
        m.const_string(s, "leak");
        m.invoke_virtual(class::INTENT, "setAction", &[i, s], false);
        m.invoke_virtual(class::INTENT, "putExtra", &[i, s, v], false);
        m.invoke_virtual(class::CONTEXT, "startService", &[m.this(), i], false);
        m.ret_void();
        m.finish();
        cb.finish();
        apk.finish()
    }

    #[test]
    fn codec_round_trips_extracted_models() {
        let model = crate::extractor::extract_apk(&leaky_app());
        let encoded = encode_entry(&model);
        let decoded = decode_entry(&encoded).expect("valid entry");
        assert_eq!(decoded, model);
    }

    #[test]
    fn corrupted_entries_are_rejected() {
        let model = crate::extractor::extract_apk(&leaky_app());
        let encoded = encode_entry(&model);
        // Truncated.
        assert!(decode_entry(&encoded[..encoded.len() - 1]).is_none());
        assert!(decode_entry(&encoded[..10]).is_none());
        // Any single flipped payload byte fails the checksum.
        let mut flipped = encoded.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        assert!(decode_entry(&flipped).is_none());
        // Bad magic / version.
        let mut bad = encoded.clone();
        bad[0] = b'X';
        assert!(decode_entry(&bad).is_none());
        let mut bad = encoded.clone();
        bad[4] = 0xee;
        assert!(decode_entry(&bad).is_none());
        // Trailing garbage.
        let mut extended = encoded.clone();
        extended.push(0);
        assert!(decode_entry(&extended).is_none());
    }
}
