//! Property coverage for the binary snapshot/WAL formats.
//!
//! Three contracts, each probed across random inputs:
//!
//! * **Bit-exact floats** — the binary wire format writes raw IEEE-754
//!   bits, so every `f64` (subnormals, `-0.0`, ±∞, NaN payloads) must
//!   survive, including the revisit queue's `−∞` immediate-priority lane
//!   carried in [`webevo_core::QueueEntry::due_bits`].
//! * **Snapshot round-trips** — `decode(encode(state))` re-encodes to the
//!   exact same bytes for states with arbitrary queue contents.
//! * **Torn binary WAL tails** — truncating a log at *any* byte offset
//!   yields a prefix of fully committed batches, never an error, a panic,
//!   or a phantom record.

use proptest::prelude::*;
use webevo_core::{
    CrawlEngine, FetchRecord, IncrementalConfig, IncrementalCrawler, NoopHook, QueueEntry,
    RoutedBatch, RoutedLink, WalEvent,
};
use webevo_sim::{FetchError, FetchOutcome, SimFetcher, UniverseConfig, WebUniverse};
use webevo_store::{decode_snapshot, encode_snapshot, read_wal, WalWriter};
use webevo_types::binio::{BinDecode, BinEncode, BinReader};
use webevo_types::{Checksum, PageId, SiteId, Url};

/// A small crawled state to graft proptest queue contents onto (built once;
/// proptest closures run many cases).
fn base_state() -> webevo_core::CrawlerState {
    let u = WebUniverse::generate(UniverseConfig::test_scale(17));
    let mut crawler = IncrementalCrawler::new(IncrementalConfig {
        capacity: 20,
        crawl_rate_per_day: 5.0,
        ..IncrementalConfig::monthly(20)
    });
    let mut fetcher = SimFetcher::new(&u);
    crawler.drive(&u, &mut fetcher, &mut NoopHook, 6.0).expect("drive");
    crawler.export_state()
}

fn record_from(seq: u64, site: u32, page: u64, t_bits: u64, ok: bool) -> FetchRecord {
    let t = f64::from_bits(t_bits);
    let url = Url::new(SiteId(site), PageId(page));
    let result = if ok {
        Ok(FetchOutcome {
            checksum: Checksum(t_bits ^ page),
            links: vec![Url::new(SiteId(site), PageId(page + 1))],
            last_modified: (page % 2 == 0).then_some(t),
        })
    } else {
        Err(match page % 3 {
            0 => FetchError::NotFound,
            1 => FetchError::Transient,
            _ => FetchError::RateLimited { retry_at: t },
        })
    };
    FetchRecord { seq, url, t, result }
}

proptest! {
    /// Binary f64 encoding is the identity on bit patterns — every lane,
    /// non-finite included.
    #[test]
    fn f64_binary_roundtrip_is_total(bits in 0u64..u64::MAX) {
        let x = f64::from_bits(bits);
        let mut out = Vec::new();
        x.bin_encode(&mut out);
        let back = f64::bin_decode(&mut BinReader::new(&out)).expect("decodes");
        prop_assert_eq!(back.to_bits(), bits);
    }

    /// Queue entries — the IEEE-754 bit-pattern due-time lane — survive a
    /// full snapshot encode/decode for arbitrary bit patterns, and the
    /// re-encoded document is byte-identical.
    #[test]
    fn snapshot_roundtrip_preserves_due_bits(
        lanes in prop::collection::vec((0u64..u64::MAX, 0u64..10_000), 0..40),
    ) {
        let mut state = base_state();
        state.queue = lanes
            .iter()
            .map(|&(due_bits, page)| QueueEntry {
                due_bits,
                url: Url::new(SiteId((page % 97) as u32), PageId(page)),
            })
            .collect();
        let doc = encode_snapshot(&state);
        let back = decode_snapshot(&doc).expect("clean snapshot decodes");
        prop_assert_eq!(back.queue.len(), state.queue.len());
        for (a, b) in state.queue.iter().zip(back.queue.iter()) {
            prop_assert_eq!(a.due_bits, b.due_bits);
            prop_assert_eq!(a.url, b.url);
        }
        prop_assert_eq!(encode_snapshot(&back), doc);
    }

    /// WAL events of every shape — fetch records of every result kind,
    /// interleaved with routed batches carrying arbitrary link payloads —
    /// round-trip through the binary framing.
    #[test]
    fn wal_roundtrips_arbitrary_events(
        specs in prop::collection::vec(
            (0u32..50, 0u64..1000, 0u64..u64::MAX, 0u8..3, 0usize..4),
            1..30,
        ),
    ) {
        let mut seq = 0u64;
        let events: Vec<WalEvent> = specs
            .iter()
            .map(|&(site, page, t_bits, kind, links)| {
                seq += 1;
                if kind == 2 {
                    // A routed batch delivered at this sequence number.
                    WalEvent::Routed(RoutedBatch {
                        seq,
                        t: f64::from_bits(t_bits),
                        links: (0..links)
                            .map(|i| RoutedLink {
                                seq: seq.saturating_sub(1),
                                from: PageId(page),
                                url: Url::new(SiteId(site), PageId(page + i as u64)),
                            })
                            .collect(),
                    })
                } else {
                    WalEvent::Fetch(record_from(seq, site, page, t_bits, kind == 1))
                }
            })
            .collect();
        let path = std::env::temp_dir().join(format!(
            "webevo-prop-wal-{}-{}.wlog",
            std::process::id(),
            events.len()
        ));
        let mut w = WalWriter::create(&path).expect("temp WAL writable");
        w.append_committed(&events, seq).expect("append");
        let back = read_wal(&path).expect("reads");
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(back.len(), events.len());
        for (a, b) in events.iter().zip(back.iter()) {
            prop_assert_eq!(a.seq(), b.seq());
            prop_assert_eq!(a.t().to_bits(), b.t().to_bits(), "times must be bit-exact");
            match (a, b) {
                (WalEvent::Fetch(x), WalEvent::Fetch(y)) => {
                    prop_assert_eq!(x.url, y.url);
                    match (&x.result, &y.result) {
                        (Ok(p), Ok(q)) => {
                            prop_assert_eq!(p.checksum, q.checksum);
                            prop_assert_eq!(&p.links, &q.links);
                        }
                        // NaN retry times are bit-preserved but compare
                        // unequal under PartialEq; check the bits.
                        (
                            Err(FetchError::RateLimited { retry_at: p }),
                            Err(FetchError::RateLimited { retry_at: q }),
                        ) => prop_assert_eq!(p.to_bits(), q.to_bits()),
                        (Err(p), Err(q)) => prop_assert_eq!(p, q),
                        _ => prop_assert!(false, "Ok/Err flipped in the WAL"),
                    }
                }
                (WalEvent::Routed(x), WalEvent::Routed(y)) => {
                    prop_assert_eq!(&x.links, &y.links);
                }
                _ => prop_assert!(false, "fetch/routed frame tag flipped in the WAL"),
            }
        }
    }

    /// Truncating a binary WAL at any offset yields a committed-batch
    /// prefix — the torn-tail contract, at every byte boundary proptest
    /// picks.
    #[test]
    fn torn_binary_wal_tail_reads_as_committed_prefix(
        cut_fraction in 0.0f64..1.0,
        batch_sizes in prop::collection::vec(1usize..6, 1..5),
    ) {
        let path = std::env::temp_dir().join(format!(
            "webevo-prop-torn-{}-{:x}.wlog",
            std::process::id(),
            (cut_fraction * 1e9) as u64
        ));
        let mut w = WalWriter::create(&path).expect("temp WAL writable");
        let mut seq = 0u64;
        let mut batch_ends = Vec::new();
        for &size in &batch_sizes {
            let mut events: Vec<WalEvent> = (0..size)
                .map(|_| {
                    seq += 1;
                    WalEvent::Fetch(record_from(
                        seq, 1, seq, (seq as f64 * 0.5).to_bits(), seq % 4 != 0,
                    ))
                })
                .collect();
            // Every other batch closes with a routed record, as a fleet
            // shard's exchange-barrier flush does.
            if batch_ends.len() % 2 == 0 {
                seq += 1;
                events.push(WalEvent::Routed(RoutedBatch {
                    seq,
                    t: seq as f64 * 0.5,
                    links: vec![RoutedLink {
                        seq: seq - 1,
                        from: PageId(seq),
                        url: Url::new(SiteId(2), PageId(seq + 1)),
                    }],
                }));
            }
            w.append_committed(&events, seq).expect("append");
            batch_ends.push(seq);
        }
        let bytes = std::fs::read(&path).expect("readable");
        let cut = (bytes.len() as f64 * cut_fraction) as usize;
        std::fs::write(&path, &bytes[..cut]).expect("writable");
        let back = read_wal(&path).expect("torn log still reads");
        let _ = std::fs::remove_file(&path);
        // The surfaced records must be exactly the first N committed
        // batches for some N: sequential from 1 and ending on a batch end.
        for (i, r) in back.iter().enumerate() {
            prop_assert_eq!(r.seq(), i as u64 + 1, "events must be a sequential prefix");
        }
        let tail_seq = back.last().map(|r| r.seq()).unwrap_or(0);
        prop_assert!(
            tail_seq == 0 || batch_ends.contains(&tail_seq),
            "tail seq {} does not align with a commit boundary {:?}",
            tail_seq,
            batch_ends
        );
    }
}
