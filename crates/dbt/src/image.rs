//! Persistent AOT translation images: the serialized form of a kernel's
//! shared translation cache.
//!
//! The paper's whole premise is that translation-time work — strategy
//! selection, profiling, retranslation — is paid at runtime. Elevator
//! (PAPERS.md) shows a deterministic translator can pay it once, offline.
//! Our engine asserts byte-determinism of its translation products (the
//! shared-cache tests prove shared-vs-alone byte identity), which makes
//! the product safe to persist: a [`TranslationImage`] captures every
//! entry of a [`SharedCodeCache`] — TB words, metadata, the centrally
//! allocated host addresses, the per-site MDA plan vectors and dispatch
//! options — plus the FX!32-style training [`StaticProfile`], keyed by a
//! guest-image content hash and the artifact format version. A warm
//! process restores the image into a fresh cache and every engine's first
//! dispatch validates-and-reuses instead of translating; because engines
//! still pay the full *simulated* translation charge on install, warm
//! runs are byte-identical to cold ones — only host-side translator work
//! disappears.
//!
//! Per-engine dispatch state (IBTC, shadow return stack, chain patches)
//! is deliberately **not** serialized: it lives in each engine's
//! simulated memory and is rebuilt identically during execution.
//!
//! # Format
//!
//! A zero-dependency little-endian binary: a fixed header (magic,
//! format version, key), length-prefixed sections each with its own
//! checksum, and a whole-file checksum trailer:
//!
//! ```text
//! header   "DBTI" | version u32 | guest_hash u64 | strategy u8 | pad[3]
//!          | hot_threshold u64 | code_bytes u64 | section_count u32
//! section  tag u32 ("BLKS" / "PROF") | len u64 | checksum u64 | payload
//! trailer  file_checksum u64   (over everything before it)
//! ```
//!
//! # Validation
//!
//! [`TranslationImage::from_bytes`] verifies magic, version, section
//! structure, every section checksum and the file checksum;
//! [`ImageStore::load`] additionally verifies the key (guest hash,
//! strategy, threshold). Any failure rejects the whole artifact —
//! corrupt or stale images are never half-loaded; callers fall back to
//! fresh translation.

use crate::config::MdaStrategy;
use crate::profile::{SiteId, StaticProfile};
use crate::shared::{PlanVector, SharedCodeCache};
use crate::translator::{DispatchOpts, ExitStub, SiteAccess, SitePlan, TranslatedBlock};
use bridge_sim::hashing::FxHasher;
use bridge_x86::insn::Width;
use std::fmt;
use std::hash::Hasher as _;
use std::path::{Path, PathBuf};

/// File magic: the first four bytes of every artifact.
pub const IMAGE_MAGIC: [u8; 4] = *b"DBTI";

/// Artifact format version. Bump on any layout change: a loader only
/// accepts its own version, so stale artifacts from older engines are
/// rejected (and rebuilt), never misparsed.
pub const IMAGE_VERSION: u32 = 1;

/// Artifact file extension.
pub const IMAGE_EXT: &str = "dbti";

const SEC_BLOCKS: u32 = u32::from_le_bytes(*b"BLKS");
const SEC_PROFILE: u32 = u32::from_le_bytes(*b"PROF");

/// Why an artifact was rejected (or could not be produced). Every load
/// failure is total: the caller sees one of these and a pristine cache,
/// never a partial load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The file does not start with [`IMAGE_MAGIC`].
    BadMagic,
    /// The file's format version is not [`IMAGE_VERSION`].
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The file ended before a declared structure was complete.
    Truncated,
    /// A section's payload does not match its stored checksum.
    SectionChecksum {
        /// Section name ("blocks" or "profile").
        section: &'static str,
    },
    /// The whole-file checksum trailer does not match.
    FileChecksum,
    /// The artifact is well-formed but keyed for different content: the
    /// guest image hash, strategy or threshold differ from the request.
    KeyMismatch {
        /// Which key field diverged.
        field: &'static str,
    },
    /// The artifact was built for a different cache capacity, so its
    /// recorded layout cannot be reproduced.
    Capacity {
        /// Capacity recorded in the artifact.
        expected: u64,
        /// Capacity of the cache being populated.
        found: u64,
    },
    /// Structurally invalid content (bad enum tag, impossible count,
    /// layout-breaking addresses).
    Malformed(&'static str),
    /// No artifact exists for the key.
    Missing,
    /// The source cache saw evictions, invalidations or guest patches —
    /// its layout is not the pure bump layout an image can replay.
    UnstableCache,
    /// Host I/O failed (message carries the `std::io::Error` text).
    Io(String),
}

impl fmt::Display for ImageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImageError::BadMagic => write!(f, "not a translation image (bad magic)"),
            ImageError::BadVersion { found } => {
                write!(
                    f,
                    "format version {found} (this engine reads {IMAGE_VERSION})"
                )
            }
            ImageError::Truncated => write!(f, "truncated artifact"),
            ImageError::SectionChecksum { section } => {
                write!(f, "checksum mismatch in {section} section")
            }
            ImageError::FileChecksum => write!(f, "file checksum mismatch"),
            ImageError::KeyMismatch { field } => write!(f, "stale artifact: {field} differs"),
            ImageError::Capacity { expected, found } => {
                write!(f, "cache capacity {found} differs from image's {expected}")
            }
            ImageError::Malformed(what) => write!(f, "malformed artifact: {what}"),
            ImageError::Missing => write!(f, "no artifact for key"),
            ImageError::UnstableCache => {
                write!(
                    f,
                    "source cache layout unstable (evictions or invalidations)"
                )
            }
            ImageError::Io(e) => write!(f, "io: {e}"),
        }
    }
}

impl ImageError {
    /// Short machine-readable tag, stable across versions — the reject
    /// code carried by `TraceEvent::ImageReject` and printed by audits.
    pub fn code(&self) -> u32 {
        match self {
            ImageError::BadMagic => 1,
            ImageError::BadVersion { .. } => 2,
            ImageError::Truncated => 3,
            ImageError::SectionChecksum { .. } => 4,
            ImageError::FileChecksum => 5,
            ImageError::KeyMismatch { .. } => 6,
            ImageError::Capacity { .. } => 7,
            ImageError::Malformed(_) => 8,
            ImageError::Missing => 9,
            ImageError::UnstableCache => 10,
            ImageError::Io(_) => 11,
        }
    }
}

/// What an artifact is keyed by: the guest image content and the
/// translation context. Two runs with equal keys are deterministic
/// replicas, so one's translation products serve the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImageKey {
    /// Content hash of the guest image (code, data, entry, stack) —
    /// see [`content_hash`].
    pub guest_hash: u64,
    /// The MDA strategy the blocks were translated under.
    pub strategy: MdaStrategy,
    /// The heating threshold of the translation context.
    pub hot_threshold: u64,
}

impl ImageKey {
    /// The canonical artifact file name for this key:
    /// `dbti-<hash>-<strategy>-t<threshold>.dbti`.
    pub fn file_name(&self) -> String {
        format!(
            "dbti-{:016x}-{}-t{}.{IMAGE_EXT}",
            self.guest_hash,
            strategy_tag(self.strategy),
            self.hot_threshold
        )
    }
}

/// Short stable strategy tag used in file names and audit listings.
pub fn strategy_tag(s: MdaStrategy) -> &'static str {
    match s {
        MdaStrategy::Direct => "direct",
        MdaStrategy::StaticProfiling => "static",
        MdaStrategy::DynamicProfiling => "dynamic",
        MdaStrategy::ExceptionHandling => "eh",
        MdaStrategy::Dpeh => "dpeh",
    }
}

/// Deterministic content hash over the parts of a guest image (each part
/// is hashed with its length, so `["ab","c"]` and `["a","bc"]` differ).
pub fn content_hash(parts: &[&[u8]]) -> u64 {
    let mut h = FxHasher::default();
    for p in parts {
        h.write_u64(p.len() as u64);
        h.write(p);
    }
    h.finish()
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

/// One captured translation product: everything
/// [`SharedCodeCache::restore`] needs to recreate the entry.
#[derive(Debug, Clone)]
pub struct ImageBlock {
    /// The translation product (words emitted for `host_addr`).
    pub tb: TranslatedBlock,
    /// The centrally allocated host address.
    pub host_addr: u64,
    /// Per-PC translation variant (see `SharedBlock::variant`).
    pub variant: u32,
    /// The per-site decisions the block was translated under — the
    /// validation key every consumer re-checks before reuse.
    pub plans: PlanVector,
    /// The dispatch features the block was emitted with.
    pub opts: DispatchOpts,
}

/// A persistent, versioned AOT artifact: one translation context's
/// complete code cache plus the training profile (see the module docs).
#[derive(Debug, Clone)]
pub struct TranslationImage {
    /// The artifact key.
    pub key: ImageKey,
    /// Capacity (bytes) of the cache the blocks were laid out for.
    pub code_bytes: u64,
    /// Captured entries in host-address (= translation) order.
    pub blocks: Vec<ImageBlock>,
    /// The FX!32-style training profile, when the context had built one
    /// (static-profiling guests); `None` otherwise.
    pub profile: Option<Vec<SiteId>>,
}

impl TranslationImage {
    /// Captures a cache's current contents as an artifact.
    ///
    /// # Errors
    ///
    /// [`ImageError::UnstableCache`] when the cache ever evicted,
    /// invalidated or logged a guest patch — such layouts are not the
    /// pure bump layout a warm restore can replay byte-identically.
    pub fn capture(
        cache: &SharedCodeCache,
        key: ImageKey,
        profile: Option<&StaticProfile>,
    ) -> Result<TranslationImage, ImageError> {
        let stats = cache.stats();
        if stats.evictions != 0 || stats.invalidations != 0 || !cache.patches_since(0).0.is_empty()
        {
            return Err(ImageError::UnstableCache);
        }
        let blocks = cache
            .snapshot_entries()
            .iter()
            .map(|e| ImageBlock {
                tb: e.tb.clone(),
                host_addr: e.host_addr,
                variant: e.variant,
                plans: e.plans.clone(),
                opts: e.opts,
            })
            .collect();
        Ok(TranslationImage {
            key,
            code_bytes: cache.capacity(),
            blocks,
            profile: profile.map(StaticProfile::sorted_sites),
        })
    }

    /// Restores every captured entry into `cache`, which must be fresh
    /// (nothing inserted) and sized exactly as the source was.
    /// Returns the number of blocks restored.
    ///
    /// # Errors
    ///
    /// [`ImageError::Capacity`] on a capacity mismatch and
    /// [`ImageError::Malformed`] when the recorded layout cannot be
    /// replayed. On error the caller must discard `cache` — entries
    /// restored before the failure remain (never serve a half-load).
    pub fn populate(&self, cache: &SharedCodeCache) -> Result<usize, ImageError> {
        if cache.capacity() != self.code_bytes {
            return Err(ImageError::Capacity {
                expected: self.code_bytes,
                found: cache.capacity(),
            });
        }
        if cache.stats().insertions != 0 {
            return Err(ImageError::Malformed("target cache is not empty"));
        }
        for b in &self.blocks {
            cache
                .restore(
                    b.tb.clone(),
                    b.host_addr,
                    b.variant,
                    b.plans.clone(),
                    b.opts,
                )
                .map_err(ImageError::Malformed)?;
        }
        Ok(self.blocks.len())
    }

    /// The training profile as a [`StaticProfile`], when one was stored.
    pub fn static_profile(&self) -> Option<StaticProfile> {
        self.profile
            .as_ref()
            .map(|sites| StaticProfile::from_sites(sites.iter().copied()))
    }

    /// Total emitted code words across all blocks.
    pub fn total_words(&self) -> usize {
        self.blocks.iter().map(|b| b.tb.words.len()).sum()
    }

    /// Serializes the artifact (deterministic: equal images yield equal
    /// bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 16 * self.total_words());
        out.extend_from_slice(&IMAGE_MAGIC);
        put_u32(&mut out, IMAGE_VERSION);
        put_u64(&mut out, self.key.guest_hash);
        out.push(strategy_to_u8(self.key.strategy));
        out.extend_from_slice(&[0u8; 3]);
        put_u64(&mut out, self.key.hot_threshold);
        put_u64(&mut out, self.code_bytes);
        put_u32(&mut out, 2); // section count

        let blocks = self.blocks_payload();
        put_section(&mut out, SEC_BLOCKS, &blocks);
        let profile = self.profile_payload();
        put_section(&mut out, SEC_PROFILE, &profile);

        let crc = checksum(&out);
        put_u64(&mut out, crc);
        out
    }

    fn blocks_payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_u32(&mut p, self.blocks.len() as u32);
        for b in &self.blocks {
            put_u32(&mut p, b.tb.guest_pc);
            put_u32(&mut p, b.tb.guest_end);
            put_u32(&mut p, b.tb.guest_insn_count);
            put_u32(&mut p, b.variant);
            put_u64(&mut p, b.host_addr);
            p.push(opts_to_u8(b.opts));
            put_u32(&mut p, b.tb.words.len() as u32);
            for &w in &b.tb.words {
                put_u32(&mut p, w);
            }
            put_u32(&mut p, b.tb.trap_sites.len() as u32);
            for &(addr, site) in &b.tb.trap_sites {
                put_u64(&mut p, addr);
                put_u32(&mut p, site.pc);
                p.push(site.slot);
            }
            put_u32(&mut p, b.tb.exits.len() as u32);
            for e in &b.tb.exits {
                put_u64(&mut p, e.host_addr);
                put_u32(&mut p, e.target);
            }
            put_u32(&mut p, b.tb.indirect_exits.len() as u32);
            for &a in &b.tb.indirect_exits {
                put_u64(&mut p, a);
            }
            put_u32(&mut p, b.tb.guest_pcs.len() as u32);
            for &pc in &b.tb.guest_pcs {
                put_u32(&mut p, pc);
            }
            put_u32(&mut p, b.tb.insn_starts.len() as u32);
            for &(pc, w) in &b.tb.insn_starts {
                put_u32(&mut p, pc);
                put_u32(&mut p, w);
            }
            put_u32(&mut p, b.plans.len() as u32);
            for &(site, acc, plan) in &b.plans {
                put_u32(&mut p, site.pc);
                p.push(site.slot);
                p.push(width_to_u8(acc.width));
                p.push(u8::from(acc.is_store));
                let (tag, threshold) = plan_to_u8(plan);
                p.push(tag);
                p.push(threshold);
            }
        }
        p
    }

    fn profile_payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match &self.profile {
            None => p.push(0),
            Some(sites) => {
                p.push(1);
                put_u32(&mut p, sites.len() as u32);
                for s in sites {
                    put_u32(&mut p, s.pc);
                    p.push(s.slot);
                }
            }
        }
        p
    }

    /// Parses and fully validates an artifact: magic, version, section
    /// structure, per-section checksums, file checksum.
    ///
    /// # Errors
    ///
    /// See [`ImageError`]; on any error nothing of the artifact is used.
    pub fn from_bytes(bytes: &[u8]) -> Result<TranslationImage, ImageError> {
        if bytes.len() < 4 {
            return Err(ImageError::Truncated);
        }
        if bytes[..4] != IMAGE_MAGIC {
            return Err(ImageError::BadMagic);
        }
        // Trailer first: the file checksum covers everything before it,
        // so a flipped byte anywhere is caught even if it also happens
        // to land in a section payload.
        if bytes.len() < 12 {
            // Magic plus the 8-byte trailer is the smallest possible file.
            return Err(ImageError::Truncated);
        }
        let body_len = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_len..].try_into().expect("eight trailer bytes"));
        if checksum(&bytes[..body_len]) != stored {
            // Distinguish a clean truncation (bad structure below) from
            // corruption only as far as structure parsing allows; the
            // file checksum is the outer gate.
            if parse_body(&bytes[4..body_len]).is_err() {
                return parse_body(&bytes[4..body_len]).map(|_| unreachable!());
            }
            return Err(ImageError::FileChecksum);
        }
        parse_body(&bytes[4..body_len])
    }

    /// Validates that the artifact serves `key`.
    ///
    /// # Errors
    ///
    /// [`ImageError::KeyMismatch`] naming the first diverging field.
    pub fn validate_key(&self, key: ImageKey) -> Result<(), ImageError> {
        if self.key.guest_hash != key.guest_hash {
            return Err(ImageError::KeyMismatch {
                field: "guest_hash",
            });
        }
        if self.key.strategy != key.strategy {
            return Err(ImageError::KeyMismatch { field: "strategy" });
        }
        if self.key.hot_threshold != key.hot_threshold {
            return Err(ImageError::KeyMismatch {
                field: "hot_threshold",
            });
        }
        Ok(())
    }

    /// Writes the artifact atomically to `path`: the bytes go to a
    /// *uniquely named* temp file in the same directory, are flushed to
    /// disk, and the temp file is renamed over the target. A writer
    /// killed or stalled mid-stream therefore only ever leaves its own
    /// orphan temp file behind — the canonical path never holds a torn
    /// artifact. The previous fixed `.tmp` name meant two savers (or a
    /// zombie writer with the inode still open) shared one file, so a
    /// straggler's late writes could corrupt an already-published
    /// artifact.
    ///
    /// # Errors
    ///
    /// Propagates host I/O failures (the temp file is removed on error).
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write as _;
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(format!(".{}.{seq}.tmp", std::process::id()));
        let tmp = path.with_file_name(name);
        let publish = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            // Durability before visibility: rename must not publish a
            // name whose bytes are still in the page cache only.
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if publish.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        publish
    }

    /// Reads and fully validates the artifact at `path` (no key check —
    /// see [`ImageStore::load`] for keyed loads).
    ///
    /// # Errors
    ///
    /// [`ImageError::Io`] on read failure, otherwise as
    /// [`TranslationImage::from_bytes`].
    pub fn load_file(path: &Path) -> Result<TranslationImage, ImageError> {
        let bytes = std::fs::read(path).map_err(|e| ImageError::Io(e.to_string()))?;
        TranslationImage::from_bytes(&bytes)
    }
}

fn parse_body(body: &[u8]) -> Result<TranslationImage, ImageError> {
    let mut c = Cursor { b: body, pos: 0 };
    let version = c.u32()?;
    if version != IMAGE_VERSION {
        return Err(ImageError::BadVersion { found: version });
    }
    let guest_hash = c.u64()?;
    let strategy = strategy_from_u8(c.u8()?)?;
    c.skip(3)?;
    let hot_threshold = c.u64()?;
    let code_bytes = c.u64()?;
    let sections = c.u32()?;
    if sections != 2 {
        return Err(ImageError::Malformed("unexpected section count"));
    }
    let blocks_payload = read_section(&mut c, SEC_BLOCKS, "blocks")?;
    let profile_payload = read_section(&mut c, SEC_PROFILE, "profile")?;
    if c.pos != c.b.len() {
        return Err(ImageError::Malformed("trailing bytes after sections"));
    }
    let blocks = parse_blocks(blocks_payload)?;
    let profile = parse_profile(profile_payload)?;
    Ok(TranslationImage {
        key: ImageKey {
            guest_hash,
            strategy,
            hot_threshold,
        },
        code_bytes,
        blocks,
        profile,
    })
}

fn read_section<'a>(
    c: &mut Cursor<'a>,
    expect_tag: u32,
    name: &'static str,
) -> Result<&'a [u8], ImageError> {
    let tag = c.u32()?;
    if tag != expect_tag {
        return Err(ImageError::Malformed("unexpected section tag"));
    }
    let len = c.u64()? as usize;
    let stored = c.u64()?;
    let payload = c.take(len)?;
    if checksum(payload) != stored {
        return Err(ImageError::SectionChecksum { section: name });
    }
    Ok(payload)
}

fn parse_blocks(payload: &[u8]) -> Result<Vec<ImageBlock>, ImageError> {
    let mut c = Cursor { b: payload, pos: 0 };
    let count = c.u32()? as usize;
    let mut blocks = Vec::with_capacity(count.min(4096));
    let mut prev_end = 0u64;
    for _ in 0..count {
        let guest_pc = c.u32()?;
        let guest_end = c.u32()?;
        let guest_insn_count = c.u32()?;
        let variant = c.u32()?;
        let host_addr = c.u64()?;
        let opts = opts_from_u8(c.u8()?)?;
        let n = c.u32()? as usize;
        let mut words = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            words.push(c.u32()?);
        }
        if words.is_empty() {
            return Err(ImageError::Malformed("empty block"));
        }
        if host_addr < prev_end {
            return Err(ImageError::Malformed("blocks out of layout order"));
        }
        prev_end = host_addr + 4 * words.len() as u64;
        let n = c.u32()? as usize;
        let mut trap_sites = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            let addr = c.u64()?;
            let pc = c.u32()?;
            let slot = c.u8()?;
            trap_sites.push((addr, SiteId::new(pc, slot)));
        }
        let n = c.u32()? as usize;
        let mut exits = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            let host_addr = c.u64()?;
            let target = c.u32()?;
            exits.push(ExitStub { host_addr, target });
        }
        let n = c.u32()? as usize;
        let mut indirect_exits = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            indirect_exits.push(c.u64()?);
        }
        let n = c.u32()? as usize;
        let mut guest_pcs = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            guest_pcs.push(c.u32()?);
        }
        let n = c.u32()? as usize;
        let mut insn_starts = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            let pc = c.u32()?;
            let w = c.u32()?;
            insn_starts.push((pc, w));
        }
        let n = c.u32()? as usize;
        let mut plans: PlanVector = Vec::with_capacity(n.min(65536));
        for _ in 0..n {
            let pc = c.u32()?;
            let slot = c.u8()?;
            let width = width_from_u8(c.u8()?)?;
            let is_store = match c.u8()? {
                0 => false,
                1 => true,
                _ => return Err(ImageError::Malformed("bad is_store flag")),
            };
            let tag = c.u8()?;
            let threshold = c.u8()?;
            plans.push((
                SiteId::new(pc, slot),
                SiteAccess { width, is_store },
                plan_from_u8(tag, threshold)?,
            ));
        }
        blocks.push(ImageBlock {
            tb: TranslatedBlock {
                guest_pc,
                guest_end,
                guest_insn_count,
                words,
                trap_sites,
                exits,
                indirect_exits,
                guest_pcs,
                insn_starts,
            },
            host_addr,
            variant,
            plans,
            opts,
        });
    }
    if c.pos != c.b.len() {
        return Err(ImageError::Malformed("trailing bytes in blocks section"));
    }
    Ok(blocks)
}

fn parse_profile(payload: &[u8]) -> Result<Option<Vec<SiteId>>, ImageError> {
    let mut c = Cursor { b: payload, pos: 0 };
    let present = c.u8()?;
    let out = match present {
        0 => None,
        1 => {
            let count = c.u32()? as usize;
            let mut sites = Vec::with_capacity(count.min(65536));
            for _ in 0..count {
                let pc = c.u32()?;
                let slot = c.u8()?;
                sites.push(SiteId::new(pc, slot));
            }
            Some(sites)
        }
        _ => return Err(ImageError::Malformed("bad profile presence flag")),
    };
    if c.pos != c.b.len() {
        return Err(ImageError::Malformed("trailing bytes in profile section"));
    }
    Ok(out)
}

/// A directory of artifacts keyed by [`ImageKey::file_name`]: the
/// on-disk half of warm start. `bridge-serve` saves into one after cold
/// batches and loads from it at startup; `dbt_image` and
/// `trace_report --images` audit it.
#[derive(Debug, Clone)]
pub struct ImageStore {
    dir: PathBuf,
}

impl ImageStore {
    /// A store rooted at `dir` (created on first save, not here — an
    /// empty or missing directory is a valid, empty store).
    pub fn new(dir: impl Into<PathBuf>) -> ImageStore {
        ImageStore { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path an artifact for `key` lives at.
    pub fn path_for(&self, key: ImageKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Persists an artifact under its key's canonical name, creating the
    /// directory if needed. Returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates host I/O failures.
    pub fn save(&self, image: &TranslationImage) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(image.key);
        image.save(&path)?;
        Ok(path)
    }

    /// Loads and fully validates the artifact for `key`: file present,
    /// magic/version/checksums good, key matching.
    ///
    /// # Errors
    ///
    /// [`ImageError::Missing`] when no file exists for the key, otherwise
    /// any validation failure (see [`ImageError`]).
    pub fn load(&self, key: ImageKey) -> Result<TranslationImage, ImageError> {
        let path = self.path_for(key);
        if !path.exists() {
            return Err(ImageError::Missing);
        }
        let image = TranslationImage::load_file(&path)?;
        image.validate_key(key)?;
        Ok(image)
    }

    /// Every `.dbti` file in the store, sorted by file name, each with
    /// its validation outcome — the audit listing behind
    /// `trace_report --images`.
    pub fn list(&self) -> Vec<(PathBuf, Result<TranslationImage, ImageError>)> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == IMAGE_EXT))
            .collect();
        paths.sort();
        paths
            .into_iter()
            .map(|p| {
                let r = TranslationImage::load_file(&p);
                (p, r)
            })
            .collect()
    }
}

struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ImageError> {
        let end = self.pos.checked_add(n).ok_or(ImageError::Truncated)?;
        if end > self.b.len() {
            return Err(ImageError::Truncated);
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn skip(&mut self, n: usize) -> Result<(), ImageError> {
        self.take(n).map(|_| ())
    }

    fn u8(&mut self) -> Result<u8, ImageError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ImageError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("four bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, ImageError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("eight bytes"),
        ))
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    put_u32(out, tag);
    put_u64(out, payload.len() as u64);
    put_u64(out, checksum(payload));
    out.extend_from_slice(payload);
}

fn strategy_to_u8(s: MdaStrategy) -> u8 {
    match s {
        MdaStrategy::Direct => 0,
        MdaStrategy::StaticProfiling => 1,
        MdaStrategy::DynamicProfiling => 2,
        MdaStrategy::ExceptionHandling => 3,
        MdaStrategy::Dpeh => 4,
    }
}

fn strategy_from_u8(v: u8) -> Result<MdaStrategy, ImageError> {
    Ok(match v {
        0 => MdaStrategy::Direct,
        1 => MdaStrategy::StaticProfiling,
        2 => MdaStrategy::DynamicProfiling,
        3 => MdaStrategy::ExceptionHandling,
        4 => MdaStrategy::Dpeh,
        _ => return Err(ImageError::Malformed("bad strategy tag")),
    })
}

fn opts_to_u8(o: DispatchOpts) -> u8 {
    u8::from(o.ibtc) | u8::from(o.shadow_ras) << 1 | u8::from(o.count_retired) << 2
}

fn opts_from_u8(v: u8) -> Result<DispatchOpts, ImageError> {
    if v & !0b111 != 0 {
        return Err(ImageError::Malformed("bad dispatch options"));
    }
    Ok(DispatchOpts {
        ibtc: v & 1 != 0,
        shadow_ras: v & 2 != 0,
        count_retired: v & 4 != 0,
    })
}

fn width_to_u8(w: Width) -> u8 {
    match w {
        Width::W1 => 0,
        Width::W2 => 1,
        Width::W4 => 2,
        Width::W8 => 3,
    }
}

fn width_from_u8(v: u8) -> Result<Width, ImageError> {
    Ok(match v {
        0 => Width::W1,
        1 => Width::W2,
        2 => Width::W4,
        3 => Width::W8,
        _ => return Err(ImageError::Malformed("bad access width")),
    })
}

fn plan_to_u8(p: SitePlan) -> (u8, u8) {
    match p {
        SitePlan::Normal => (0, 0),
        SitePlan::Sequence => (1, 0),
        SitePlan::MultiVersion => (2, 0),
        SitePlan::Adaptive { threshold } => (3, threshold),
    }
}

fn plan_from_u8(tag: u8, threshold: u8) -> Result<SitePlan, ImageError> {
    Ok(match tag {
        0 => SitePlan::Normal,
        1 => SitePlan::Sequence,
        2 => SitePlan::MultiVersion,
        3 => SitePlan::Adaptive { threshold },
        _ => return Err(ImageError::Malformed("bad site plan tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regmap::CODE_CACHE_ADDR;

    fn tb(guest_pc: u32, words: usize) -> TranslatedBlock {
        TranslatedBlock {
            guest_pc,
            guest_end: guest_pc + 8,
            guest_insn_count: 2,
            words: vec![0x47FF_041F; words],
            trap_sites: vec![(0x1000, SiteId::new(guest_pc + 4, 0))],
            exits: vec![ExitStub {
                host_addr: 0x2000,
                target: guest_pc + 8,
            }],
            indirect_exits: vec![0x3000],
            guest_pcs: vec![guest_pc, guest_pc + 4],
            insn_starts: vec![(guest_pc, 0), (guest_pc + 4, 1)],
        }
    }

    fn key() -> ImageKey {
        ImageKey {
            guest_hash: 0xDEAD_BEEF_F00D,
            strategy: MdaStrategy::Dpeh,
            hot_threshold: 50,
        }
    }

    fn populated_cache() -> std::sync::Arc<SharedCodeCache> {
        let sh = SharedCodeCache::new(4096);
        for (i, pc) in [0x40_0000u32, 0x40_0010, 0x40_0020].iter().enumerate() {
            let words = 4 + i;
            let a = sh.alloc(words).unwrap();
            let plans: PlanVector = vec![(
                SiteId::new(pc + 4, 0),
                SiteAccess {
                    width: Width::W4,
                    is_store: i % 2 == 0,
                },
                if i == 0 {
                    SitePlan::Sequence
                } else {
                    SitePlan::Adaptive { threshold: 8 }
                },
            )];
            sh.insert(
                tb(*pc, words),
                a.addr,
                0,
                plans,
                DispatchOpts {
                    ibtc: true,
                    shadow_ras: i == 1,
                    count_retired: false,
                },
            );
        }
        sh
    }

    fn sample() -> TranslationImage {
        let profile = StaticProfile::from_sites([SiteId::new(0x40_0004, 0), SiteId::new(0x9, 1)]);
        TranslationImage::capture(&populated_cache(), key(), Some(&profile)).unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let img = sample();
        let bytes = img.to_bytes();
        let back = TranslationImage::from_bytes(&bytes).unwrap();
        assert_eq!(back.key, img.key);
        assert_eq!(back.code_bytes, 4096);
        assert_eq!(back.blocks.len(), 3);
        for (a, b) in img.blocks.iter().zip(&back.blocks) {
            assert_eq!(a.host_addr, b.host_addr);
            assert_eq!(a.variant, b.variant);
            assert_eq!(a.opts, b.opts);
            assert_eq!(a.plans, b.plans);
            assert_eq!(a.tb.words, b.tb.words);
            assert_eq!(a.tb.trap_sites, b.tb.trap_sites);
            assert_eq!(a.tb.exits, b.tb.exits);
            assert_eq!(a.tb.indirect_exits, b.tb.indirect_exits);
            assert_eq!(a.tb.guest_pcs, b.tb.guest_pcs);
            assert_eq!(a.tb.insn_starts, b.tb.insn_starts);
        }
        assert_eq!(back.profile, img.profile);
        assert_eq!(back.to_bytes(), bytes, "serialization is deterministic");
    }

    #[test]
    fn profile_sites_roundtrip_sorted() {
        let img = sample();
        let p = img.static_profile().unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.contains(SiteId::new(0x40_0004, 0)));
        assert!(p.contains(SiteId::new(0x9, 1)));
        assert_eq!(img.profile.as_ref().unwrap()[0], SiteId::new(0x9, 1));
    }

    #[test]
    fn populate_restores_the_exact_layout() {
        let img = sample();
        let fresh = SharedCodeCache::new(4096);
        assert_eq!(img.populate(&fresh).unwrap(), 3);
        let entries = fresh.snapshot_entries();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].host_addr, CODE_CACHE_ADDR);
        assert!(entries.iter().all(|e| e.preloaded));
        // The bump pointer resumed exactly past the restored entries: a
        // fresh allocation lands where a cold run's next block would.
        let next = fresh.alloc(2).unwrap();
        let last = &entries[2];
        assert_eq!(next.addr, last.host_addr + 4 * last.tb.words.len() as u64);
        // Lookups validate against the restored plan vectors.
        let mut plan = |site: SiteId, _: SiteAccess| {
            if site == SiteId::new(0x40_0004, 0) {
                SitePlan::Sequence
            } else {
                SitePlan::Adaptive { threshold: 8 }
            }
        };
        let opts = DispatchOpts {
            ibtc: true,
            shadow_ras: false,
            count_retired: false,
        };
        assert!(fresh.lookup(0x40_0000, 0, opts, &mut plan).is_some());
        assert!(
            fresh.lookup(0x40_0010, 0, opts, &mut plan).is_none(),
            "diverged dispatch options must not validate"
        );
    }

    #[test]
    fn populate_rejects_capacity_mismatch_and_dirty_cache() {
        let img = sample();
        let wrong = SharedCodeCache::new(8192);
        assert!(matches!(
            img.populate(&wrong),
            Err(ImageError::Capacity {
                expected: 4096,
                found: 8192
            })
        ));
        let dirty = SharedCodeCache::new(4096);
        let a = dirty.alloc(4).unwrap();
        dirty.insert(tb(0x1000, 4), a.addr, 0, vec![], DispatchOpts::default());
        assert!(matches!(
            img.populate(&dirty),
            Err(ImageError::Malformed(_))
        ));
    }

    #[test]
    fn capture_refuses_unstable_layouts() {
        let sh = populated_cache();
        sh.write_guest_code(0x40_0004, &[0x90]);
        assert_eq!(
            TranslationImage::capture(&sh, key(), None).unwrap_err(),
            ImageError::UnstableCache
        );
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = sample().to_bytes();
        for len in 0..bytes.len() {
            let err = TranslationImage::from_bytes(&bytes[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ImageError::Truncated
                        | ImageError::BadMagic
                        | ImageError::FileChecksum
                        | ImageError::SectionChecksum { .. }
                        | ImageError::Malformed(_)
                ),
                "prefix of {len} bytes must be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn every_flipped_byte_is_rejected() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                TranslationImage::from_bytes(&bad).is_err(),
                "flipping byte {i} must be caught"
            );
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let bytes = sample().to_bytes();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            TranslationImage::from_bytes(&wrong_magic).unwrap_err(),
            ImageError::BadMagic
        );
        // A future version with a correct file checksum is still refused.
        let mut newer = bytes.clone();
        newer[4..8].copy_from_slice(&(IMAGE_VERSION + 1).to_le_bytes());
        let body = newer.len() - 8;
        let crc = checksum(&newer[..body]);
        newer[body..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            TranslationImage::from_bytes(&newer).unwrap_err(),
            ImageError::BadVersion {
                found: IMAGE_VERSION + 1
            }
        );
    }

    #[test]
    fn store_roundtrip_and_key_validation() {
        let dir = std::env::temp_dir().join(format!("dbti-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ImageStore::new(&dir);
        assert_eq!(store.load(key()).unwrap_err(), ImageError::Missing);
        assert!(store.list().is_empty(), "missing dir is an empty store");

        let img = sample();
        let path = store.save(&img).unwrap();
        assert_eq!(path, store.path_for(key()));
        let loaded = store.load(key()).unwrap();
        assert_eq!(loaded.blocks.len(), 3);

        // A different threshold keys a different file; loading the same
        // bytes under the wrong key is a stale-artifact rejection.
        let stale = ImageKey {
            hot_threshold: 10,
            ..key()
        };
        assert_eq!(store.load(stale).unwrap_err(), ImageError::Missing);
        std::fs::copy(&path, store.path_for(stale)).unwrap();
        assert_eq!(
            store.load(stale).unwrap_err(),
            ImageError::KeyMismatch {
                field: "hot_threshold"
            }
        );

        let listed = store.list();
        assert_eq!(listed.len(), 2);
        assert!(listed.iter().any(|(_, r)| r.is_ok()));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn content_hash_is_length_prefixed() {
        assert_ne!(
            content_hash(&[b"ab", b"c"]),
            content_hash(&[b"a", b"bc"]),
            "part boundaries must matter"
        );
        assert_eq!(content_hash(&[b"ab", b"c"]), content_hash(&[b"ab", b"c"]));
    }

    #[test]
    fn reject_codes_are_stable() {
        assert_eq!(ImageError::BadMagic.code(), 1);
        assert_eq!(ImageError::Missing.code(), 9);
        assert_eq!(ImageError::Io("x".into()).code(), 11);
    }
}
