//! The versioned snapshot codec. See the crate docs for the on-disk
//! layout.
//!
//! A snapshot is a one-line text header (magic, version, fnv64 of the
//! payload) followed by the [`CrawlerState`] in the `webevo-types` binary
//! wire format ([`webevo_types::BinEncode`]) — length-prefixed fields,
//! varint integers, floats as raw IEEE-754 bits. That binary format is the
//! only serialization in the workspace: this build reads exactly the
//! version it writes, and a header naming any other version — the JSON
//! snapshots of versions 1–2 included — is refused with
//! [`StoreError::UnsupportedVersion`], never guessed at. The fleet manifest
//! ([`crate::fleet`]) is framed by the same header discipline.

use crate::fleet::MANIFEST_VERSION;
use crate::wal::WAL_HEADER;
use std::fmt;
use webevo_core::CrawlerState;
use webevo_types::binio::{BinDecode, BinEncode, BinReader};

/// Magic token opening every snapshot header.
pub const SNAPSHOT_MAGIC: &str = "WEBEVO-SNAPSHOT";
/// The snapshot format version this build writes.
///
/// Version history:
/// * 1–2 — JSON layouts written by early builds; no longer decoded.
/// * 3 — the unified-engine layout (`config` is the `EngineConfig` enum,
///   `EngineKind::Threaded` carries its worker count, the periodic
///   engine's cycle/shadow state rides in a `periodic` payload) in the
///   binary wire format; every stored page carried an EB posterior.
/// * 4 — a stored page's EB posterior is optional: a `0` tag under EP,
///   `1` and the posterior under EB.
/// * 5 — each fact once (current). One pass counter, `passes`, replaces
///   the per-engine `ranking_runs`, `ranking_applied` and periodic
///   `cycles`, two of which were always 0. Fields nothing reads back are
///   gone: the CrawlModule counters, a stored page's `admitted` day, the
///   fetcher's outcome counters (they cannot steer a future fetch) and the
///   day values of periodic `first_visible`, now a page set. `queued` is
///   rebuilt from `queue`. `routing` is a plain field, not an optional
///   tail, so every strict prefix of a payload is a truncation.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Why a snapshot, WAL or fleet manifest could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The file does not start with the expected magic/header shape.
    NotASnapshot,
    /// The file is a well-formed snapshot, WAL or manifest of a format
    /// version this build does not read. There is one version of each —
    /// the one this build writes — so files from older builds land here
    /// rather than being migrated.
    UnsupportedVersion(u32),
    /// The payload checksum does not match the header (torn write or
    /// corruption).
    ChecksumMismatch,
    /// The payload failed to parse as the type the header announces.
    Malformed(String),
    /// Reading the checkpoint files failed before any decoding happened —
    /// a permissions or I/O problem, *not* corruption; the lineage on disk
    /// may be perfectly fine.
    Io(String),
    /// The directory holds a write-ahead log with committed records but no
    /// snapshot: durable work exists that cannot be replayed without its
    /// base. Surfaced as an error so no caller ever silently truncates the
    /// log and discards that work. (Current builds always write a base
    /// snapshot when a lineage starts, so this marks either a directory
    /// written by an older build that crashed between its first WAL flush
    /// and its first snapshot, or a hand-deleted snapshot file.)
    WalWithoutSnapshot {
        /// Committed records stranded in the log.
        committed_records: usize,
    },
    /// A shard checkpoint was written under a different partition plan
    /// than the fleet manifest now records — e.g. a pre-rebalance shard
    /// directory restored next to a post-rebalance manifest, or a
    /// checkpoint from before the routing era (no recorded scope at all).
    /// Resuming it would route sites to the wrong shards.
    ShardPlanMismatch {
        /// The shard whose checkpoint disagrees with the manifest.
        shard: u32,
    },
    /// A resume was asked to continue a write-ahead log after a recovered
    /// prefix that does not end on a commit marker. Appending there would
    /// bury the new batches behind events no marker commits, so the log is
    /// never continued from such a point.
    PrefixNotCommitted {
        /// Events in the prefix that was to be continued.
        events: usize,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotASnapshot => write!(f, "not a webevo snapshot or manifest"),
            StoreError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v} (this build reads only what it \
                     writes: snapshot version {SNAPSHOT_VERSION}, {WAL_HEADER}, fleet \
                     manifest version {MANIFEST_VERSION})"
                )
            }
            StoreError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            StoreError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            StoreError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            StoreError::WalWithoutSnapshot { committed_records } => write!(
                f,
                "write-ahead log holds {committed_records} committed record(s) but no \
                 snapshot exists to replay them onto; refusing to discard durable work"
            ),
            StoreError::ShardPlanMismatch { shard } => write!(
                f,
                "shard {shard}'s checkpoint was written under a different shard plan \
                 than the fleet manifest records; resuming it here would route sites \
                 to the wrong shards"
            ),
            StoreError::PrefixNotCommitted { events } => write!(
                f,
                "the recovered write-ahead-log prefix of {events} event(s) does not end \
                 on a commit marker; refusing to continue the log after it"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// FNV-1a over a byte slice: the integrity checksum for snapshot payloads
/// and WAL frames. Not cryptographic — it detects torn writes and rot, not
/// adversaries. Delegates to the workspace's one FNV implementation.
pub fn fnv64(bytes: &[u8]) -> u64 {
    webevo_types::Checksum::of_bytes(bytes).0
}

/// Frame `body` as a checksummed document: the text header line
/// `<magic> <version> <fnv64 of payload, 16 hex digits>` followed by the
/// binary payload.
pub(crate) fn encode_document(
    magic: &str,
    version: u32,
    capacity: usize,
    body: &impl BinEncode,
) -> Vec<u8> {
    // The header's width does not depend on the checksum, so encode the
    // payload straight into the document after a placeholder header and
    // patch the checksum in afterwards — no second buffer, no final copy
    // of a multi-megabyte payload.
    let placeholder = format!("{magic} {version} {:016x}\n", 0);
    let header_len = placeholder.len();
    let mut doc = Vec::with_capacity(capacity);
    doc.extend_from_slice(placeholder.as_bytes());
    body.bin_encode(&mut doc);
    let checksum = fnv64(&doc[header_len..]);
    let header = format!("{magic} {version} {checksum:016x}\n");
    debug_assert_eq!(header.len(), header_len);
    doc[..header_len].copy_from_slice(header.as_bytes());
    doc
}

/// Decode a document framed by [`encode_document`]: the header must name
/// `magic` and exactly `version`, the checksum must match, and the payload
/// must decode as `T` with nothing left over.
pub(crate) fn decode_document<T: BinDecode>(
    magic: &str,
    version: u32,
    doc: &[u8],
) -> Result<T, StoreError> {
    let newline = doc
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(StoreError::NotASnapshot)?;
    let header =
        std::str::from_utf8(&doc[..newline]).map_err(|_| StoreError::NotASnapshot)?;
    let mut parts = header.split(' ');
    if parts.next() != Some(magic) {
        return Err(StoreError::NotASnapshot);
    }
    let found: u32 = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or(StoreError::NotASnapshot)?;
    let checksum = parts
        .next()
        .and_then(|c| u64::from_str_radix(c, 16).ok())
        .ok_or(StoreError::NotASnapshot)?;
    if found != version {
        return Err(StoreError::UnsupportedVersion(found));
    }
    let payload = &doc[newline + 1..];
    if fnv64(payload) != checksum {
        return Err(StoreError::ChecksumMismatch);
    }
    let mut reader = BinReader::new(payload);
    let body = T::bin_decode(&mut reader).map_err(|e| StoreError::Malformed(e.to_string()))?;
    if !reader.is_exhausted() {
        return Err(StoreError::Malformed(format!(
            "{} trailing bytes after the payload",
            reader.remaining()
        )));
    }
    Ok(body)
}

/// Encode a full engine state as a snapshot document (text header line +
/// binary payload).
pub fn encode_snapshot(state: &CrawlerState) -> Vec<u8> {
    encode_document(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 256 * 1024, state)
}

/// Decode a snapshot document, verifying the header version and the
/// checksum. Any version other than [`SNAPSHOT_VERSION`] is
/// [`StoreError::UnsupportedVersion`].
pub fn decode_snapshot(doc: &[u8]) -> Result<CrawlerState, StoreError> {
    decode_document(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_core::{CrawlEngine, IncrementalConfig, IncrementalCrawler, NoopHook};
    use webevo_sim::{SimFetcher, UniverseConfig, WebUniverse};

    fn sample_state() -> CrawlerState {
        let u = WebUniverse::generate(UniverseConfig::test_scale(11));
        let mut crawler = IncrementalCrawler::new(IncrementalConfig {
            capacity: 30,
            crawl_rate_per_day: 6.0,
            ..IncrementalConfig::monthly(30)
        });
        let mut fetcher = SimFetcher::new(&u);
        crawler.drive(&u, &mut fetcher, &mut NoopHook, 10.0).expect("drive");
        let mut state = crawler.export_state();
        state.fetcher = webevo_sim::Fetcher::export_state(&fetcher);
        state
    }

    #[test]
    fn snapshot_roundtrips_bit_identically() {
        let state = sample_state();
        let doc = encode_snapshot(&state);
        let back = decode_snapshot(&doc).expect("clean snapshot decodes");
        // Re-encoding the decoded state must reproduce the exact bytes:
        // every float survived, every container kept its canonical order.
        assert_eq!(encode_snapshot(&back), doc);
    }

    #[test]
    fn version_and_checksum_are_enforced() {
        let state = sample_state();
        let doc = encode_snapshot(&state);
        let header_len = doc.iter().position(|&b| b == b'\n').unwrap() + 1;
        let header = String::from_utf8(doc[..header_len].to_vec()).unwrap();
        // A well-formed, correctly checksummed document of the previous or
        // a future version is refused by its version alone.
        for version in [SNAPSHOT_VERSION - 1, 9] {
            let other = [
                header
                    .replacen(
                        &format!("{SNAPSHOT_MAGIC} {SNAPSHOT_VERSION}"),
                        &format!("{SNAPSHOT_MAGIC} {version}"),
                        1,
                    )
                    .into_bytes(),
                doc[header_len..].to_vec(),
            ]
            .concat();
            assert_eq!(
                decode_snapshot(&other).unwrap_err(),
                StoreError::UnsupportedVersion(version)
            );
        }
        // A version-2 JSON snapshot as early builds wrote it: well-formed
        // header, correct checksum — refused by version, never parsed.
        let json = "{\"engine\":\"Incremental\"}";
        let legacy = format!("{SNAPSHOT_MAGIC} 2 {:016x}\n{json}\n", fnv64(json.as_bytes()));
        assert_eq!(
            decode_snapshot(legacy.as_bytes()).unwrap_err(),
            StoreError::UnsupportedVersion(2)
        );
        // Flip one payload byte: the checksum must catch it.
        let mut corrupt = doc.clone();
        let flip_at = header_len + (doc.len() - header_len) / 2;
        corrupt[flip_at] ^= 0x01;
        assert_eq!(decode_snapshot(&corrupt).unwrap_err(), StoreError::ChecksumMismatch);
        assert_eq!(
            decode_snapshot(b"hello\nworld").unwrap_err(),
            StoreError::NotASnapshot
        );
        assert_eq!(
            decode_snapshot(b"no newline at all").unwrap_err(),
            StoreError::NotASnapshot
        );
    }

    #[test]
    fn error_display_is_informative() {
        let err: Box<dyn std::error::Error> = Box::new(StoreError::UnsupportedVersion(9));
        assert!(err.to_string().contains("version 9"));
        assert!(
            err.to_string().contains(&format!("snapshot version {SNAPSHOT_VERSION}")),
            "names what this build does read: {err}"
        );
        assert!(StoreError::ChecksumMismatch.to_string().contains("checksum"));
    }
}
