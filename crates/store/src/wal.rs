//! The append-only write-ahead log. See the crate docs for the frame
//! layout and torn-tail semantics.
//!
//! # Fsync contract
//!
//! The WAL performs exactly **one `sync_data` per pass boundary** — the
//! single [`WalWriter::append_committed`] call that lands a whole batch
//! plus its commit marker in one buffered write — and **none per record**:
//! records are buffered in memory by the [`crate::Checkpointer`] between
//! boundaries, so the fetch hot path never touches the file system.
//! [`WalWriter::create`] and [`WalWriter::reset`] also sync once after
//! writing the header, so an empty log is durable before any crawl work
//! depends on it. All writes — header, batches, resets — go through the
//! writer's single buffered handle; nothing reopens the file behind it.

use crate::codec::{fnv64, StoreError};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use webevo_core::{FetchRecord, RoutedBatch, WalEvent};
use webevo_types::binio::{put_var_u64, BinDecode, BinEncode, BinReader};

/// Header line opening every WAL file: the magic and the format version.
/// Version 2 is the binary framing below; version 1 (JSON lines, written
/// by early builds) is no longer read.
pub const WAL_HEADER: &str = "WEBEVO-WAL 2";

/// Frame tag: one fetch record.
const TAG_RECORD: u8 = b'R';
/// Frame tag: one routed-link batch delivered by the fleet exchange
/// (payload: a `RoutedBatch`). Version-2 logs written before the routing
/// era simply never contain this tag; readers of *this* build handle both.
const TAG_ROUTED: u8 = b'X';
/// Frame tag: a commit marker naming the batch it commits.
const TAG_COMMIT: u8 = b'C';
/// Bytes of frame overhead before the payload: tag + u32 length + fnv64.
const FRAME_HEAD: usize = 1 + 4 + 8;

/// Appends framed records and commit markers to a WAL file. One
/// [`WalWriter::append_committed`] call per pass boundary writes the whole
/// buffered batch plus its commit marker in a single buffered write and
/// one fsync — the only durable I/O the crawl ever waits on (see the
/// module docs for the full fsync contract).
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: BufWriter<File>,
    /// `sync_data` calls issued over this writer's lifetime — the
    /// observable face of the module-level fsync contract: one per
    /// `create`/`reset` (durable header) plus exactly one per
    /// `append_committed`, never one per record.
    fsyncs: u64,
}

/// Truncate (or create) the log file and write a durable header through a
/// fresh buffered writer — the one shared open path for
/// [`WalWriter::create`] and [`WalWriter::reset`].
fn start_log(path: &Path) -> io::Result<BufWriter<File>> {
    let mut file = BufWriter::new(File::create(path)?);
    writeln!(file, "{WAL_HEADER}")?;
    file.flush()?;
    file.get_ref().sync_data()?;
    Ok(file)
}

impl WalWriter {
    /// Create (or truncate) the WAL at `path` and write the header.
    pub fn create(path: &Path) -> io::Result<WalWriter> {
        Ok(WalWriter {
            path: path.to_path_buf(),
            file: start_log(path)?,
            fsyncs: 1, // the durable header write
        })
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// `sync_data` calls issued by this writer (see the fsync contract in
    /// the module docs; `tests` pin one sync per boundary, none per
    /// record).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Append a batch of events followed by its commit marker, as one
    /// write, then fsync (the per-boundary sync of the module-level
    /// contract). Readers only surface events whose commit marker landed,
    /// so a crash mid-append — process *or* machine — tears at worst into
    /// the discarded region. Returns the bytes appended (frames included),
    /// which the checkpoint layer feeds into the observability registry.
    pub fn append_committed(&mut self, events: &[WalEvent], last_seq: u64) -> io::Result<u64> {
        let mut chunk: Vec<u8> = Vec::with_capacity(events.len() * 96 + FRAME_HEAD);
        let mut payload: Vec<u8> = Vec::with_capacity(96);
        for event in events {
            payload.clear();
            match event {
                WalEvent::Fetch(record) => {
                    record.bin_encode(&mut payload);
                    push_frame(&mut chunk, TAG_RECORD, &payload);
                }
                WalEvent::Routed(batch) => {
                    batch.bin_encode(&mut payload);
                    push_frame(&mut chunk, TAG_ROUTED, &payload);
                }
            }
        }
        payload.clear();
        put_var_u64(&mut payload, last_seq);
        push_frame(&mut chunk, TAG_COMMIT, &payload);
        self.file.write_all(&chunk)?;
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        self.fsyncs += 1;
        Ok(chunk.len() as u64)
    }

    /// Truncate back to an empty (header-only) log — called right after a
    /// snapshot subsumes everything logged so far. Re-runs the same
    /// buffered open path as [`WalWriter::create`].
    pub fn reset(&mut self) -> io::Result<()> {
        self.file = start_log(&self.path)?;
        self.fsyncs += 1;
        Ok(())
    }
}

/// Append one `tag | u32 payload length | fnv64(payload) | payload` frame.
fn push_frame(chunk: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    chunk.push(tag);
    chunk.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    chunk.extend_from_slice(&fnv64(payload).to_le_bytes());
    chunk.extend_from_slice(payload);
}

/// Read every *committed* event from a WAL file: events after the last
/// valid commit marker — including a torn final frame, a frame whose
/// checksum fails, or a batch whose commit never landed — are discarded.
/// A missing file reads as empty (no log yet), and so does a torn or
/// garbage header line (the header write never completed, so nothing was
/// ever committed behind it). A well-formed `WEBEVO-WAL <n>` header of any
/// other version is [`StoreError::UnsupportedVersion`]: that log may hold
/// committed work this build cannot see, and reporting it as empty would
/// let a caller start fresh over it.
pub fn read_wal(path: &Path) -> Result<Vec<WalEvent>, StoreError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(StoreError::Io(format!("reading {path:?}: {e}"))),
    };
    let Some(newline) = bytes.iter().position(|&b| b == b'\n') else {
        return Ok(Vec::new());
    };
    let (header, body) = (&bytes[..newline], &bytes[newline + 1..]);
    if header == WAL_HEADER.as_bytes() {
        return Ok(read_binary_frames(body));
    }
    let other_version = std::str::from_utf8(header)
        .ok()
        .and_then(|h| h.strip_prefix("WEBEVO-WAL ")?.parse::<u32>().ok());
    match other_version {
        Some(version) => Err(StoreError::UnsupportedVersion(version)),
        None => Ok(Vec::new()),
    }
}

/// Parse the binary frame stream that follows the header line.
fn read_binary_frames(body: &[u8]) -> Vec<WalEvent> {
    let mut committed: Vec<WalEvent> = Vec::new();
    let mut pending: Vec<WalEvent> = Vec::new();
    let mut pos = 0usize;
    // A frame head is tag, u32 length, u64 checksum (FRAME_HEAD bytes); a
    // short one ends the read as a torn tail, like a missing payload.
    while let Some(&[tag, l0, l1, l2, l3, c0, c1, c2, c3, c4, c5, c6, c7]) =
        body.get(pos..pos + FRAME_HEAD)
    {
        let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
        let checksum = u64::from_le_bytes([c0, c1, c2, c3, c4, c5, c6, c7]);
        let Some(payload) = body.get(pos + FRAME_HEAD..pos + FRAME_HEAD + len) else {
            break; // torn tail: the final frame's payload never landed
        };
        if fnv64(payload) != checksum {
            break; // corruption: trust nothing at or beyond this point
        }
        let mut reader = BinReader::new(payload);
        match tag {
            TAG_RECORD => {
                let Ok(record) = FetchRecord::bin_decode(&mut reader) else {
                    break;
                };
                if !reader.is_exhausted() {
                    break;
                }
                pending.push(WalEvent::Fetch(record));
            }
            TAG_ROUTED => {
                let Ok(batch) = RoutedBatch::bin_decode(&mut reader) else {
                    break;
                };
                if !reader.is_exhausted() {
                    break;
                }
                pending.push(WalEvent::Routed(batch));
            }
            TAG_COMMIT => {
                let Ok(seq) = u64::bin_decode(&mut reader) else {
                    break;
                };
                if !reader.is_exhausted() {
                    break;
                }
                // The marker names the batch it commits: a contradiction
                // (a stale or spliced marker that happens to checksum) is
                // corruption, same as a failed frame checksum.
                if let Some(last) = pending.last() {
                    if last.seq() != seq {
                        break;
                    }
                }
                committed.append(&mut pending);
            }
            _ => break,
        }
        pos += FRAME_HEAD + len;
    }
    committed
}

#[cfg(test)]
mod tests {
    use super::*;
    use webevo_core::RoutedLink;
    use webevo_sim::FetchError;
    use webevo_types::{PageId, SiteId, Url};

    fn record(seq: u64) -> FetchRecord {
        FetchRecord {
            seq,
            url: Url::new(SiteId(1), PageId(seq)),
            t: seq as f64 * 0.125,
            result: Err(FetchError::Transient),
        }
    }

    fn fetch(seq: u64) -> WalEvent {
        WalEvent::Fetch(record(seq))
    }

    fn routed(seq: u64) -> WalEvent {
        WalEvent::Routed(RoutedBatch {
            seq,
            t: seq as f64 * 0.25,
            links: vec![RoutedLink {
                seq: seq + 100,
                from: PageId(7),
                url: Url::new(SiteId(2), PageId(seq + 200)),
            }],
        })
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("webevo-wal-{}-{name}", std::process::id()))
    }

    #[test]
    fn roundtrip_batches() {
        let path = temp_path("roundtrip");
        let mut w = WalWriter::create(&path).unwrap();
        w.append_committed(&[fetch(1), fetch(2)], 2).unwrap();
        w.append_committed(&[fetch(3)], 3).unwrap();
        let events = read_wal(&path).unwrap();
        assert_eq!(events, vec![fetch(1), fetch(2), fetch(3)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn routed_batches_roundtrip_interleaved() {
        // A fleet shard's log mixes fetches with exchange deliveries; both
        // kinds must survive the trip in order, under one commit marker.
        let path = temp_path("routed");
        let mut w = WalWriter::create(&path).unwrap();
        w.append_committed(&[fetch(1), routed(2), fetch(3)], 3).unwrap();
        w.append_committed(&[routed(4)], 4).unwrap();
        let events = read_wal(&path).unwrap();
        assert_eq!(events, vec![fetch(1), routed(2), fetch(3), routed(4)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn commit_marker_covers_a_trailing_routed_batch() {
        // The marker names the last *event* seq, fetch or routed alike; a
        // contradicting marker must not commit the batch.
        let path = temp_path("routed-commit");
        let mut w = WalWriter::create(&path).unwrap();
        w.append_committed(&[fetch(1), routed(2)], 2).unwrap();
        w.append_committed(&[routed(3)], 99).unwrap();
        assert_eq!(read_wal(&path).unwrap(), vec![fetch(1), routed(2)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsync_contract_one_sync_per_boundary_none_per_record() {
        // The module-level contract, pinned: `create` syncs the header
        // once, every `append_committed` — the pass-boundary flush — syncs
        // exactly once no matter how many records it lands, and no
        // per-record path exists at all (records only reach the file
        // inside a boundary batch).
        let path = temp_path("fsync-contract");
        let mut w = WalWriter::create(&path).unwrap();
        assert_eq!(w.fsyncs(), 1, "durable header: one sync at create");
        let bytes = w.append_committed(&[fetch(1), fetch(2), fetch(3)], 3).unwrap();
        assert!(bytes > 0, "append reports the bytes it landed");
        assert_eq!(w.fsyncs(), 2, "three records, ONE boundary, one sync");
        let more = w.append_committed(&[fetch(4)], 4).unwrap();
        assert_eq!(w.fsyncs(), 3, "one more boundary, one more sync");
        assert!(more > 0);
        w.reset().unwrap();
        assert_eq!(w.fsyncs(), 4, "reset re-syncs the fresh header");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn uncommitted_tail_is_discarded() {
        let path = temp_path("uncommitted");
        let mut w = WalWriter::create(&path).unwrap();
        w.append_committed(&[fetch(1)], 1).unwrap();
        // Hand-append a record frame with no commit marker: a flush that
        // never completed.
        let mut payload = Vec::new();
        record(2).bin_encode(&mut payload);
        let mut frame = Vec::new();
        push_frame(&mut frame, TAG_RECORD, &payload);
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&frame)
            .unwrap();
        assert_eq!(read_wal(&path).unwrap(), vec![fetch(1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_frame_is_discarded() {
        let path = temp_path("torn");
        let mut w = WalWriter::create(&path).unwrap();
        w.append_committed(&[fetch(1)], 1).unwrap();
        w.append_committed(&[fetch(2)], 2).unwrap();
        // Truncate mid-frame: chop the last 10 bytes.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        assert_eq!(read_wal(&path).unwrap(), vec![fetch(1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_truncation_point_yields_a_committed_prefix() {
        // Torn tails at *any* byte boundary must never surface uncommitted
        // or corrupt records — only a prefix of fully committed batches.
        let path = temp_path("sweep");
        let mut w = WalWriter::create(&path).unwrap();
        w.append_committed(&[fetch(1), fetch(2)], 2).unwrap();
        w.append_committed(&[fetch(3)], 3).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let records = read_wal(&path).unwrap();
            assert!(
                records.is_empty()
                    || records == vec![fetch(1), fetch(2)]
                    || records == vec![fetch(1), fetch(2), fetch(3)],
                "cut at {cut} surfaced a non-prefix: {records:?}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_checksum_stops_reading() {
        let path = temp_path("corrupt");
        let mut w = WalWriter::create(&path).unwrap();
        w.append_committed(&[fetch(1)], 1).unwrap();
        let intact_len = std::fs::read(&path).unwrap().len();
        w.append_committed(&[fetch(2), fetch(3)], 3).unwrap();
        // Flip a byte inside the second batch's first record payload.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[intact_len + FRAME_HEAD + 2] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        // Batch 1 committed and intact; everything from the corrupt frame
        // on is dropped, commit marker or not.
        assert_eq!(read_wal(&path).unwrap(), vec![fetch(1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn commit_marker_must_name_its_batch() {
        let path = temp_path("badcommit");
        let mut w = WalWriter::create(&path).unwrap();
        w.append_committed(&[fetch(1)], 1).unwrap();
        // A marker that contradicts the records it claims to commit (valid
        // checksum, wrong seq) must not commit them.
        w.append_committed(&[fetch(2), fetch(3)], 99).unwrap();
        assert_eq!(read_wal(&path).unwrap(), vec![fetch(1)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_path("reset");
        let mut w = WalWriter::create(&path).unwrap();
        w.append_committed(&[fetch(1)], 1).unwrap();
        w.reset().unwrap();
        assert!(read_wal(&path).unwrap().is_empty());
        w.append_committed(&[fetch(9)], 9).unwrap();
        assert_eq!(read_wal(&path).unwrap(), vec![fetch(9)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn other_versions_are_refused_not_read_as_empty() {
        // A version-1 log as early builds wrote it, holding a committed
        // record: it must not read as "no records".
        let path = temp_path("v1");
        let payload = "{\"seq\":1}";
        let mut text = String::from("WEBEVO-WAL 1\n");
        text.push_str(&format!("R {:016x} {payload}\n", fnv64(payload.as_bytes())));
        text.push_str(&format!("C {:016x} 1\n", fnv64(b"1")));
        std::fs::write(&path, text).unwrap();
        assert_eq!(read_wal(&path).unwrap_err(), StoreError::UnsupportedVersion(1));
        std::fs::write(&path, b"WEBEVO-WAL 9\nstuff\n").unwrap();
        assert_eq!(read_wal(&path).unwrap_err(), StoreError::UnsupportedVersion(9));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_reads_empty() {
        assert!(read_wal(Path::new("/nonexistent/webevo.wlog")).unwrap().is_empty());
    }

    #[test]
    fn unknown_header_reads_empty() {
        // Not a `WEBEVO-WAL <n>` line at all: a header write that tore or
        // rotted, behind which nothing can have been committed.
        let path = temp_path("unknown");
        for garbage in [&b"WEBEVO-WAL\nstuff\n"[..], b"WEBEVO-WAL x\n", b"\n", b"WEBEVO-WA"] {
            std::fs::write(&path, garbage).unwrap();
            assert!(read_wal(&path).unwrap().is_empty(), "{garbage:?}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
