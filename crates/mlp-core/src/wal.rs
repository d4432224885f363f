//! Durable write-ahead delta log and atomic artifact persistence.
//!
//! A [`crate::engine::ServingEngine`] opened from an artifact file keeps
//! a sidecar log (`<artifact>.wal`) of every committed
//! [`SnapshotDelta`]: each refresh appends one CRC-framed record and
//! `fsync`s it *before* the delta is applied in memory and the new epoch
//! is published. The fsync is the commit point — a record fully on disk
//! is committed, everything after a torn write is not. Recovery on open
//! ([`DeltaWal::recover`]) replays the committed prefix past the base
//! artifact and truncates the torn tail; it never trusts, and never
//! parses, bytes that fail their frame or checksum.
//!
//! The log is the only on-disk home of a committed delta: an artifact is
//! always a folded posterior, never a base plus records. A checkpoint
//! folds the log into a fresh base and re-binds the log to it, as
//! SQLite's `journal_mode=WAL` checkpoints its log into the database
//! file.
//!
//! The base artifact itself is only ever replaced atomically
//! ([`write_atomic`]: temp file + `sync_all` + rename + directory
//! fsync), so the pair on disk is always one of:
//!
//! * old base + old log — the checkpoint never happened;
//! * new base + old log — detected by the fingerprint in the log header
//!   and the stale log is set aside, because the new base already
//!   contains everything the log held (a live engine whose reset failed
//!   re-binds the log before it appends again, so no record lands in a
//!   log recovery would set aside);
//! * new base + fresh log — the checkpoint completed.
//!
//! No crash point leaves a state that decodes to something the process
//! never served.
//!
//! ## On-disk layout (WAL v1)
//!
//! ```text
//! header   [u32 magic "MLPW"][u16 version = 1][u16 reserved = 0]
//!          [u64 base artifact fingerprint (FNV-1a over the file bytes)]
//! record   [u32 magic "MLPR"][u64 payload len][u32 IEEE CRC32 of payload]
//!          [payload — a SnapshotDelta record payload]
//! ```
//!
//! All integers little-endian, records repeated until end of file.

use crate::snapshot::{crc32, SnapshotDelta, SnapshotError};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// WAL file magic: `"MLPW"` little-endian.
pub const WAL_MAGIC: u32 = 0x4D4C_5057;
/// Per-record magic: `"MLPR"` little-endian.
pub const RECORD_MAGIC: u32 = 0x4D4C_5052;
const WAL_VERSION: u16 = 1;
/// Header: magic + version + reserved + base fingerprint.
pub const WAL_HEADER_LEN: u64 = 4 + 2 + 2 + 8;
/// Per-record framing ahead of the payload: magic + length + CRC.
pub const RECORD_FRAME_LEN: u64 = 4 + 8 + 4;

/// Stable FNV-1a hash of raw artifact bytes. The WAL header stores the
/// fingerprint of the base artifact it extends, so a log can never be
/// replayed onto a different base (e.g. after a checkpoint replaced the
/// artifact but crashed before resetting the log).
pub fn artifact_fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Errors raised by the write-ahead log.
#[derive(Debug)]
#[non_exhaustive]
pub enum WalError {
    /// Filesystem failure (open, append, fsync, rename).
    Io(std::io::Error),
    /// A CRC-valid record whose payload fails delta validation — the
    /// frame survived the crash intact, so this is writer-side
    /// corruption, not a torn tail, and is never silently dropped.
    Record(SnapshotError),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Record(e) => write!(f, "wal record invalid: {e}"),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalError::Io(e) => Some(e),
            WalError::Record(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

impl From<SnapshotError> for WalError {
    fn from(e: SnapshotError) -> Self {
        WalError::Record(e)
    }
}

/// What [`DeltaWal::recover`] found on disk.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Committed deltas recovered from the log, in append order.
    pub deltas: Vec<SnapshotDelta>,
    /// Bytes of torn tail truncated (a record the crash cut short).
    pub torn_bytes: u64,
    /// Where a log bound to a *different* base artifact was set aside
    /// (`<wal>.stale`). Happens when a checkpoint replaced the base but
    /// died before resetting the log; the new base already contains the
    /// stale log's deltas, so nothing is lost — and nothing is deleted.
    pub stale_moved_to: Option<PathBuf>,
    /// Whether no log existed and a fresh one was created.
    pub created: bool,
}

/// An open, append-only write-ahead delta log.
///
/// One log extends exactly one base artifact (bound by fingerprint in
/// the header). [`Self::append`] is the durability point: it returns
/// only after the framed record is `fsync`'d, so a publish that follows
/// can never outlive the bytes that reproduce it.
#[derive(Debug)]
pub struct DeltaWal {
    file: File,
    path: PathBuf,
    len: u64,
}

impl DeltaWal {
    /// The conventional sidecar path: `<artifact>.wal` alongside it.
    pub fn sidecar_path(artifact: &Path) -> PathBuf {
        let mut name = artifact.file_name().unwrap_or_default().to_os_string();
        name.push(".wal");
        artifact.with_file_name(name)
    }

    /// Creates a fresh log at `path` bound to `base_fingerprint`,
    /// truncating whatever was there. The header is fsync'd before
    /// returning.
    pub fn create(path: &Path, base_fingerprint: u64) -> Result<Self, WalError> {
        let mut file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(&WAL_MAGIC.to_le_bytes());
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        header.extend_from_slice(&0u16.to_le_bytes());
        header.extend_from_slice(&base_fingerprint.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        sync_parent_dir(path)?;
        Ok(Self { file, path: path.to_path_buf(), len: WAL_HEADER_LEN })
    }

    /// Opens (or creates) the log at `path` for the base artifact with
    /// `base_fingerprint`, recovering its committed prefix.
    ///
    /// * No file: a fresh log is created (`created` in the report).
    /// * Header mismatch — wrong magic/version, torn header, or a
    ///   fingerprint for a different base: the whole file is moved aside
    ///   to `<path>.stale` (never deleted) and a fresh log is created.
    /// * Record scan: frames are parsed until end of file; the first
    ///   framing or checksum failure marks the torn tail, which is
    ///   truncated and fsync'd away. A CRC-*valid* record that fails
    ///   delta parsing is a typed [`WalError::Record`] — that is not a
    ///   crash artifact and must not be silently dropped.
    pub fn recover(path: &Path, base_fingerprint: u64) -> Result<(Self, WalRecovery), WalError> {
        let raw = match std::fs::read(path) {
            Ok(raw) => raw,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let wal = Self::create(path, base_fingerprint)?;
                return Ok((wal, WalRecovery { created: true, ..WalRecovery::default() }));
            }
            Err(e) => return Err(WalError::Io(e)),
        };

        if !header_matches(&raw, base_fingerprint) {
            let stale = stale_sibling(path);
            std::fs::rename(path, &stale)?;
            sync_parent_dir(path)?;
            let wal = Self::create(path, base_fingerprint)?;
            return Ok((
                wal,
                WalRecovery {
                    stale_moved_to: Some(stale),
                    created: true,
                    ..WalRecovery::default()
                },
            ));
        }

        let mut deltas = Vec::new();
        let mut offset = WAL_HEADER_LEN as usize;
        loop {
            let rest = &raw[offset..];
            if rest.is_empty() {
                break;
            }
            let Some(payload_len) = parse_frame(rest) else { break };
            let frame = RECORD_FRAME_LEN as usize;
            let payload = &rest[frame..frame + payload_len];
            let delta = SnapshotDelta::decode_record_payload(bytes::Bytes::from(payload.to_vec()))?;
            deltas.push(delta);
            offset += frame + payload_len;
        }

        let torn_bytes = (raw.len() - offset) as u64;
        if torn_bytes > 0 {
            let file = OpenOptions::new().write(true).open(path)?;
            file.set_len(offset as u64)?;
            file.sync_all()?;
        }
        let file = OpenOptions::new().append(true).open(path)?;
        let wal = Self { file, path: path.to_path_buf(), len: offset as u64 };
        Ok((wal, WalRecovery { deltas, torn_bytes, ..WalRecovery::default() }))
    }

    /// Appends one committed delta and `fsync`s it. Once this returns,
    /// the delta survives any crash; until it returns, the delta was
    /// never committed.
    pub fn append(&mut self, delta: &SnapshotDelta) -> Result<(), WalError> {
        let payload = delta.encode_record_payload()?;
        let mut frame = Vec::with_capacity(RECORD_FRAME_LEN as usize + payload.len());
        frame.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&crc32(payload.as_slice()).to_le_bytes());
        frame.extend_from_slice(payload.as_slice());
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Resets the log to an empty one bound to `new_base_fingerprint` —
    /// the post-checkpoint step, after the refreshed base artifact is
    /// atomically in place. Built as a temp file and renamed over the
    /// old log, so a crash mid-reset leaves either the old log (stale,
    /// set aside on next open) or the new one; never a torn header.
    pub fn reset(&mut self, new_base_fingerprint: u64) -> Result<(), WalError> {
        let tmp = tmp_sibling(&self.path);
        let fresh = Self::create(&tmp, new_base_fingerprint)?;
        std::fs::rename(&tmp, &self.path)?;
        sync_parent_dir(&self.path)?;
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.len = fresh.len;
        Ok(())
    }

    /// Current log size in bytes (header included) — the compaction
    /// trigger input.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records (header only).
    pub fn is_empty(&self) -> bool {
        self.len <= WAL_HEADER_LEN
    }

    /// The log's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Ages out stale set-asides: every `<log>.stale*` sibling except
    /// the most recently modified is deleted. A successful checkpoint
    /// obsoletes the older ones — their deltas are folded into a base at
    /// least two checkpoints back — while the newest is kept as a
    /// post-mortem artifact of the most recent crash window.
    /// Best-effort: IO trouble here must not fail the checkpoint that
    /// triggered the sweep.
    pub fn age_stale_siblings(&self) {
        let Some(dir) = self.path.parent() else { return };
        let Some(name) = self.path.file_name().and_then(|n| n.to_str()) else { return };
        let prefix = format!("{name}.stale");
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        let mut stales: Vec<(std::time::SystemTime, PathBuf)> = Vec::new();
        for entry in entries.flatten() {
            let fname = entry.file_name();
            let Some(fname) = fname.to_str() else { continue };
            if fname == prefix || fname.starts_with(&format!("{prefix}.")) {
                let modified = entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                stales.push((modified, entry.path()));
            }
        }
        if stales.len() <= 1 {
            return;
        }
        stales.sort();
        for (_, old) in &stales[..stales.len() - 1] {
            let _ = std::fs::remove_file(old);
        }
    }
}

/// What a read-only pass over a sidecar log found — see [`inspect_log`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalInfo {
    /// Intact CRC-framed records (the committed prefix).
    pub records: u64,
    /// Total file length in bytes.
    pub bytes: u64,
    /// Base-artifact fingerprint the log is bound to.
    pub fingerprint: u64,
    /// Unparseable tail bytes past the committed prefix (torn write, or
    /// the whole file when even the header is damaged).
    pub torn_bytes: u64,
}

/// Read-only sidecar inspection: counts the committed records without
/// truncating torn tails or setting stale logs aside — unlike
/// [`DeltaWal::recover`], the file is untouched. `Ok(None)` when no log
/// exists at `path`.
pub fn inspect_log(path: &Path) -> std::io::Result<Option<WalInfo>> {
    let raw = match std::fs::read(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let bytes = raw.len() as u64;
    if raw.len() < WAL_HEADER_LEN as usize
        || u32::from_le_bytes(raw[0..4].try_into().unwrap()) != WAL_MAGIC
        || u16::from_le_bytes(raw[4..6].try_into().unwrap()) != WAL_VERSION
    {
        return Ok(Some(WalInfo { records: 0, bytes, fingerprint: 0, torn_bytes: bytes }));
    }
    let fingerprint = u64::from_le_bytes(raw[8..16].try_into().unwrap());
    let mut pos = WAL_HEADER_LEN as usize;
    let mut records = 0u64;
    while let Some(len) = parse_frame(&raw[pos..]) {
        records += 1;
        pos += RECORD_FRAME_LEN as usize + len;
    }
    Ok(Some(WalInfo { records, bytes, fingerprint, torn_bytes: (raw.len() - pos) as u64 }))
}

/// A set-aside name for a stale log that never clobbers an earlier
/// set-aside: `<path>.stale`, then `<path>.stale.1`, `.stale.2`, …
fn stale_sibling(path: &Path) -> PathBuf {
    let mut base = path.as_os_str().to_os_string();
    base.push(".stale");
    let first = PathBuf::from(&base);
    if !first.exists() {
        return first;
    }
    for n in 1u64.. {
        let mut numbered = base.clone();
        numbered.push(format!(".{n}"));
        let candidate = PathBuf::from(numbered);
        if !candidate.exists() {
            return candidate;
        }
    }
    unreachable!("ran out of stale-log names")
}

/// Whether `raw` starts with a valid WAL header bound to `fingerprint`.
fn header_matches(raw: &[u8], fingerprint: u64) -> bool {
    if raw.len() < WAL_HEADER_LEN as usize {
        return false;
    }
    let magic = u32::from_le_bytes(raw[0..4].try_into().unwrap());
    let version = u16::from_le_bytes(raw[4..6].try_into().unwrap());
    let fp = u64::from_le_bytes(raw[8..16].try_into().unwrap());
    magic == WAL_MAGIC && version == WAL_VERSION && fp == fingerprint
}

/// Parses one record frame at the head of `rest`; returns the payload
/// length when the frame and its checksummed payload are fully present
/// and intact, `None` for anything torn.
fn parse_frame(rest: &[u8]) -> Option<usize> {
    let frame = RECORD_FRAME_LEN as usize;
    if rest.len() < frame {
        return None;
    }
    let magic = u32::from_le_bytes(rest[0..4].try_into().unwrap());
    if magic != RECORD_MAGIC {
        return None;
    }
    let len = u64::from_le_bytes(rest[4..12].try_into().unwrap());
    let len = usize::try_from(len).ok()?;
    let crc = u32::from_le_bytes(rest[12..16].try_into().unwrap());
    let payload = rest.get(frame..frame.checked_add(len)?)?;
    if crc32(payload) != crc {
        return None;
    }
    Some(len)
}

// Atomic artifact replacement lives at the bottom of the crate graph so
// the streaming corpus writer can share it; re-exported here so existing
// `crate::wal::write_atomic` / `mlp::core::write_atomic` callers keep
// working unchanged.
pub use mlp_social::atomic::write_atomic;
use mlp_social::atomic::{sync_parent_dir, tmp_sibling};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::UserPosterior;
    use mlp_gazetteer::{CityId, VenueId};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mlp_wal_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_delta(base_users: u32, seed: u32) -> SnapshotDelta {
        let mut d = SnapshotDelta::new(base_users);
        d.push_user(UserPosterior {
            candidates: vec![CityId(seed % 3), CityId(seed % 3 + 4)],
            gammas: vec![0.5, 0.25],
            mean_counts: vec![2.0 + seed as f64, 1.0],
            mean_total: 3.0 + seed as f64,
            gamma_total: 0.75,
            home: CityId(seed % 3),
        });
        d.add_venue_weights(&[(CityId(seed % 3), VenueId(seed % 5), 1.5)]);
        d
    }

    #[test]
    fn append_then_recover_round_trips() {
        let dir = tmp_dir("round_trip");
        let path = dir.join("model.mlps.wal");
        let fp = artifact_fingerprint(b"base artifact bytes");
        let mut wal = DeltaWal::create(&path, fp).unwrap();
        let (d1, d2) = (sample_delta(10, 1), sample_delta(11, 2));
        wal.append(&d1).unwrap();
        wal.append(&d2).unwrap();
        let len = wal.len();
        drop(wal);

        let (reopened, rec) = DeltaWal::recover(&path, fp).unwrap();
        assert_eq!(rec.deltas, vec![d1, d2]);
        assert_eq!(rec.torn_bytes, 0);
        assert!(rec.stale_moved_to.is_none() && !rec.created);
        assert_eq!(reopened.len(), len);
        std::fs::remove_dir_all(dir).ok();
    }

    /// A frame whose CRC is valid survived the crash intact, so a payload
    /// that fails to parse — here one that runs past its declared
    /// contents — is writer-side corruption: a typed error, never a
    /// silently dropped tail.
    #[test]
    fn crc_valid_record_longer_than_its_payload_fails_typed() {
        let dir = tmp_dir("padded");
        let path = dir.join("model.mlps.wal");
        let fp = artifact_fingerprint(b"base");
        drop(DeltaWal::create(&path, fp).unwrap());
        let mut padded = sample_delta(5, 1).encode_record_payload().unwrap().to_vec();
        padded.extend_from_slice(&[0u8; 8]);
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        raw.extend_from_slice(&(padded.len() as u64).to_le_bytes());
        raw.extend_from_slice(&crc32(&padded).to_le_bytes());
        raw.extend_from_slice(&padded);
        std::fs::write(&path, &raw).unwrap();

        let err = DeltaWal::recover(&path, fp).unwrap_err();
        assert!(
            matches!(
                err,
                WalError::Record(SnapshotError::Corrupt("delta record longer than its payload"))
            ),
            "{err:?}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), raw, "a failed recovery truncates nothing");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_not_trusted() {
        let dir = tmp_dir("torn");
        let path = dir.join("model.mlps.wal");
        let fp = artifact_fingerprint(b"base");
        let mut wal = DeltaWal::create(&path, fp).unwrap();
        let d = sample_delta(5, 3);
        wal.append(&d).unwrap();
        let committed_len = wal.len();
        drop(wal);

        // A crash mid-append: a full frame header promising more bytes
        // than ever hit the disk.
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        raw.extend_from_slice(&(1_000_000u64).to_le_bytes());
        raw.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        raw.extend_from_slice(&[0xAB; 37]);
        std::fs::write(&path, &raw).unwrap();

        let (reopened, rec) = DeltaWal::recover(&path, fp).unwrap();
        assert_eq!(rec.deltas, vec![d]);
        assert_eq!(rec.torn_bytes, 16 + 37);
        assert_eq!(reopened.len(), committed_len);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), committed_len);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn mismatched_base_is_set_aside_never_replayed() {
        let dir = tmp_dir("stale");
        let path = dir.join("model.mlps.wal");
        let mut wal = DeltaWal::create(&path, artifact_fingerprint(b"old base")).unwrap();
        wal.append(&sample_delta(7, 4)).unwrap();
        drop(wal);

        let new_fp = artifact_fingerprint(b"new base after checkpoint");
        let (wal, rec) = DeltaWal::recover(&path, new_fp).unwrap();
        assert!(rec.deltas.is_empty(), "a stale log must never replay");
        let stale = rec.stale_moved_to.expect("stale log set aside");
        assert!(stale.exists(), "stale log preserved for forensics");
        assert!(wal.is_empty());
        drop(wal);

        // The fresh log recovers cleanly against the new base.
        let (_, rec) = DeltaWal::recover(&path, new_fp).unwrap();
        assert!(rec.deltas.is_empty() && rec.stale_moved_to.is_none());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn repeated_set_asides_never_clobber_and_age_out_on_checkpoint() {
        let dir = tmp_dir("stale_age");
        let path = dir.join("model.mlps.wal");

        // Two successive mismatched recoveries: the second set-aside must
        // pick a fresh sibling name instead of clobbering the first.
        let mut wal = DeltaWal::create(&path, artifact_fingerprint(b"base a")).unwrap();
        wal.append(&sample_delta(1, 1)).unwrap();
        drop(wal);
        let (wal, rec) = DeltaWal::recover(&path, artifact_fingerprint(b"base b")).unwrap();
        let first = rec.stale_moved_to.expect("first set-aside");
        drop(wal);
        // Re-bind the fresh log to yet another base to force a second set-aside.
        let mut raw = std::fs::read(&path).unwrap();
        raw[8..16].copy_from_slice(&artifact_fingerprint(b"base c").to_le_bytes());
        std::fs::write(&path, raw).unwrap();
        let (wal, rec) = DeltaWal::recover(&path, artifact_fingerprint(b"base d")).unwrap();
        let second = rec.stale_moved_to.expect("second set-aside");
        assert_ne!(first, second, "set-asides must not clobber each other");
        assert!(first.exists() && second.exists());

        // Make the second sibling strictly newer, then age: exactly the
        // newest survives the checkpoint sweep.
        let now = std::time::SystemTime::now() + std::time::Duration::from_secs(5);
        let f = std::fs::OpenOptions::new().write(true).open(&second).unwrap();
        f.set_modified(now).unwrap();
        drop(f);
        wal.age_stale_siblings();
        assert!(!first.exists(), "older stale log aged out");
        assert!(second.exists(), "newest stale log kept for forensics");
        assert!(path.exists(), "live log untouched by the sweep");

        // A second sweep with one survivor is a no-op.
        wal.age_stale_siblings();
        assert!(second.exists());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reset_rebinds_to_the_new_base() {
        let dir = tmp_dir("reset");
        let path = dir.join("model.mlps.wal");
        let old_fp = artifact_fingerprint(b"old");
        let new_fp = artifact_fingerprint(b"new");
        let mut wal = DeltaWal::create(&path, old_fp).unwrap();
        wal.append(&sample_delta(3, 5)).unwrap();
        wal.reset(new_fp).unwrap();
        assert!(wal.is_empty());
        wal.append(&sample_delta(4, 6)).unwrap();
        drop(wal);

        let (_, rec) = DeltaWal::recover(&path, new_fp).unwrap();
        assert_eq!(rec.deltas.len(), 1, "only the post-reset record survives");
        assert_eq!(rec.deltas[0].num_new_users(), 1);
        std::fs::remove_dir_all(dir).ok();
    }
}
