//! Durable crawl state: snapshots, a write-ahead log, and the
//! [`Checkpointer`] that drives both from engine pass boundaries.
//!
//! §5 of the paper defines the incremental crawler as a process that runs
//! *continuously*, maintaining the collection and its change histories
//! indefinitely. In production that means crawl state must survive process
//! restarts: the collection checksums, the per-page change histories
//! feeding the frequency estimators, the `CollUrls` ordering, the
//! discovered-URL set — all of it. This crate is that durability layer,
//! deliberately kept *off* the fetch hot path (mirroring §5.3's separation
//! of periodic refinement from the crawl loop):
//!
//! * per-fetch deltas are buffered in memory via
//!   [`webevo_core::CrawlHook::on_fetch`] — no I/O per fetch;
//! * at each RankingModule pass boundary the buffer is flushed to the
//!   write-ahead log in one append, and every
//!   [`CheckpointConfig::snapshot_every_days`] simulated days a full
//!   snapshot is written and the log reset.
//!
//! Recovery loads `snapshot + WAL tail` and replays the tail through the
//! engine's own state transitions, landing bit-identically on the state at
//! the last flushed boundary; driving the engine onward then continues the
//! crawl as if the crash never happened (`tests/determinism.rs` pins this
//! end to end).
//!
//! Applications do not wire any of this by hand: the [`CrawlSession`]
//! builder in [`session`] is the supported entry point — engine choice,
//! budget, checkpointing, and recovery in one validated API. For
//! horizontal scale-out, the [`FleetSession`] builder in [`fleet`] runs N
//! site-partitioned `CrawlSession`s on scoped threads — each shard with
//! its own engine, site-filtered fetcher, and checkpoint directory under
//! a fleet-level manifest — and merges their metrics deterministically.
//!
//! # Snapshot format (version 4, binary)
//!
//! A snapshot is a one-line text header followed by a binary payload:
//!
//! ```text
//! WEBEVO-SNAPSHOT 4 <fnv64 of payload, 16 hex digits>
//! <payload: the CrawlerState in the webevo-types binary wire format>
//! ```
//!
//! The header carries the format **version** (decoders reject every
//! version but their own, so the layout can evolve) and a checksum over
//! the payload bytes (a partially written or bit-rotted snapshot is
//! detected, never half-loaded). The payload uses
//! [`webevo_types::BinEncode`]: length-prefixed fields, varint integers,
//! and floats as raw IEEE-754 bit patterns — bitwise round-trips by
//! construction, including the queue's ±∞ due-time lane. Snapshots are
//! written to a temporary file and atomically renamed into place, so a
//! crash mid-write leaves the previous snapshot intact.
//!
//! # One wire format
//!
//! [`webevo_types::binio`] is the only serialization in the workspace, and
//! each file has exactly one supported version — the one this build
//! writes: snapshot 4, WAL 2, fleet manifest 2 (see [`fleet`]; same
//! `MAGIC version fnv64` header line as the snapshot). Files of any other
//! version — the JSON snapshots (1–2), JSON-lines WALs (1) and JSON
//! manifests (1) of early builds, and the binary version-3 snapshots that
//! stored an EB posterior on every page — fail closed with
//! [`StoreError::UnsupportedVersion`] from [`decode_snapshot`],
//! [`read_wal`], [`recover`] and [`FleetSession::resume`]; in particular an
//! old-format WAL never reads as an empty one. A checked-in
//! snapshot-4/WAL-2 checkpoint (`tests/golden_fixture.rs`) pins the live
//! bytes: it must keep resuming onto the exact trajectory of an
//! uninterrupted run and re-encode to itself.
//!
//! # WAL format (version 2, binary)
//!
//! The write-ahead log is a text header line followed by binary frames:
//!
//! ```text
//! WEBEVO-WAL 2
//! R <u32 LE payload len> <fnv64 LE of payload> <payload: FetchRecord, binary>
//! R ...
//! X <u32 LE payload len> <fnv64 LE of payload> <payload: RoutedBatch, binary>
//! C <u32 LE payload len> <fnv64 LE of payload> <payload: varint seq of the last record>
//! ```
//!
//! `R` frames are fetch records; an `X` frame is a **routed batch** — the
//! cross-shard links a fleet exchange barrier delivered into this shard's
//! frontier, logged so single-shard recovery replays the exchange exactly
//! (see [`fleet`]); a `C` frame is a **commit marker** written at each
//! pass-boundary flush. Readers trust records only up to
//! the last valid commit marker: a torn tail — a half-written frame, a
//! frame whose checksum fails, or records flushed without their commit —
//! is discarded rather than mis-parsed, which keeps recovery aligned with
//! pass boundaries (the only states the engines can resume from).
//! Records carry the engine's fetch sequence number; recovery skips those
//! already folded into the snapshot (covering the crash window between a
//! snapshot rename and the log reset that follows it). The writer performs
//! one `sync_data` per pass boundary and none per record; see [`wal`] for
//! the full fsync contract.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod codec;
pub mod fleet;
pub mod session;
pub mod wal;

pub use checkpoint::{
    recover, CheckpointConfig, CheckpointStats, Checkpointer, Recovered, SNAPSHOT_FILE, WAL_FILE,
};
pub use codec::{decode_snapshot, encode_snapshot, fnv64, StoreError};
pub use fleet::{
    FleetManifest, FleetMetrics, FleetSession, FleetSessionBuilder, ShardReport,
};
pub use session::{CrawlSession, CrawlSessionBuilder};
pub use wal::{read_wal, WalWriter};
