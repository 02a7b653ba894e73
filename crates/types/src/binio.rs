//! The binary wire format shared by snapshots, the write-ahead log and
//! the fleet manifest — the only serialization in the workspace.
//!
//! A text codec spends most of its time formatting and parsing decimal
//! floats and field names; at web scale (the paper targets hundreds of
//! millions of pages) that cost dominates checkpointing. [`BinEncode`] /
//! [`BinDecode`] stream instead: length-prefixed fields, LEB128 varints
//! for integers, and floats as raw IEEE-754 bit patterns — bit-exact by
//! construction, including the revisit queue's `−∞` immediate-priority
//! lane, with no intermediate value tree.
//!
//! Wire conventions (every implementation follows these, so the format is
//! auditable in one place):
//!
//! * `u64`/`usize` — LEB128 varint, low 7 bits first.
//! * `f64` — 8 bytes, little-endian `f64::to_bits`.
//! * `bool` — one byte, `0`/`1`.
//! * `String`/byte strings — varint length prefix, then the bytes.
//! * `Option<T>` — one tag byte (`0` = `None`, `1` = `Some`), then `T`.
//! * `Box<T>` — exactly `T`'s encoding.
//! * Sequences (`Vec`, `VecDeque`, dense maps/sets) — varint
//!   element count, then the elements in iteration order; maps interleave
//!   `key, value`.
//! * Enums — one tag byte, then the variant's fields, declared once with
//!   [`wire_enum!`](crate::wire_enum).
//! * Structs — fields in declaration order, no names, declared once with
//!   [`wire_struct!`](crate::wire_struct). Layout changes are format
//!   changes and must bump the container version (the snapshot, WAL and
//!   fleet-manifest headers each carry one).
//!
//! The two macros generate both directions from one field list, so encode
//! and decode cannot disagree, and `repro analyze` reads the same list into
//! `SCHEMA.lock`. Hand-written impls exist only in this file, for the
//! primitives and generic containers the conventions above are defined by.
//!
//! ```
//! use webevo_types::{wire_enum, wire_struct, BinDecode, BinEncode, BinReader};
//!
//! #[derive(Debug, PartialEq)]
//! enum Verdict {
//!     Unseen,
//!     Changed { at: f64 },
//!     Gone(u64),
//! }
//! wire_enum!(Verdict { Unseen = 0, Changed { at } = 1, Gone(since) = 2 });
//!
//! #[derive(Debug, PartialEq)]
//! struct Visit {
//!     page: u64,
//!     verdict: Verdict,
//! }
//! wire_struct!(Visit { page, verdict });
//!
//! let visit = Visit { page: 300, verdict: Verdict::Changed { at: 1.5 } };
//! let mut bytes = Vec::new();
//! visit.bin_encode(&mut bytes);
//! assert_eq!(bytes.len(), 2 + 1 + 8); // varint 300, tag byte, raw f64
//! let mut r = BinReader::new(&bytes);
//! assert_eq!(Visit::bin_decode(&mut r).unwrap(), visit);
//! assert!(r.is_exhausted());
//! ```
//!
//! Decoding never panics: every read is bounds-checked and surfaces a
//! [`BinError`]. Containers additionally checksum their payloads before
//! decoding, so a failed read here means a format bug, not silent
//! corruption.

use crate::dense::{DenseMap, DenseSet};
use crate::id::{PageId, SiteId};
use crate::page::{ChangeRate, Checksum, PageVersion};
use crate::url::Url;
use std::collections::VecDeque;
use std::fmt;

/// A binary decode failure: what the reader expected and where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinError {
    msg: String,
}

impl BinError {
    /// Build an error from a message.
    pub fn new(msg: impl fmt::Display) -> BinError {
        BinError { msg: msg.to_string() }
    }
}

impl fmt::Display for BinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for BinError {}

/// Bounds-checked cursor over an encoded payload.
#[derive(Debug)]
pub struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> BinReader<'a> {
        BinReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed — decoders of framed
    /// payloads check this to reject trailing garbage.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Consume `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        match self.buf.get(self.pos..).and_then(|rest| rest.get(..n)) {
            Some(out) => {
                self.pos += n;
                Ok(out)
            }
            None => Err(self.truncated(n)),
        }
    }

    /// Consume one byte.
    #[inline]
    pub fn byte(&mut self) -> Result<u8, BinError> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(self.truncated(1)),
        }
    }

    /// Consume a LEB128 varint.
    #[inline]
    fn var_u64(&mut self) -> Result<u64, BinError> {
        // One-byte values (every count and most ids) take the short path.
        if let Some(&b) = self.buf.get(self.pos) {
            if b & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(b));
            }
        }
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            if shift == 63 && byte > 1 {
                return Err(BinError::new("varint overflows u64"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// The error of a read of `n` bytes past the end, built off the hot
    /// path.
    #[cold]
    #[inline(never)]
    fn truncated(&self, n: usize) -> BinError {
        BinError::new(format!(
            "payload truncated: wanted {n} bytes at offset {}, {} remain",
            self.pos,
            self.remaining()
        ))
    }
}

/// Append a LEB128 varint.
pub fn put_var_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Streaming binary encoding. See the module docs for the wire
/// conventions.
pub trait BinEncode {
    /// Append this value's encoding to `out`.
    fn bin_encode(&self, out: &mut Vec<u8>);
}

/// Streaming binary decoding, the exact inverse of [`BinEncode`].
pub trait BinDecode: Sized {
    /// Consume this value's encoding from `r`.
    fn bin_decode(r: &mut BinReader<'_>) -> Result<Self, BinError>;
}

/// Declare a struct's wire layout once: the listed fields, in order, are
/// what [`BinEncode`] writes and [`BinDecode`] reads back. Tuple newtypes
/// list their index (`wire_struct!(PageId { 0 })`). Every listed field is
/// always written and always read: a payload that ends early is truncated.
///
/// An optional `reject |v| condition => "message"` after the braces
/// validates the decoded value and turns a hit into a [`BinError`].
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:tt),+ $(,)? } $(reject |$v:ident| $bad:expr => $msg:expr)?) => {
        impl $crate::binio::BinEncode for $ty {
            fn bin_encode(&self, out: &mut Vec<u8>) {
                $($crate::binio::BinEncode::bin_encode(&self.$field, out);)+
            }
        }

        impl $crate::binio::BinDecode for $ty {
            fn bin_decode(
                r: &mut $crate::binio::BinReader<'_>,
            ) -> ::std::result::Result<$ty, $crate::binio::BinError> {
                let value = $ty {
                    $($field: $crate::binio::BinDecode::bin_decode(r)?,)+
                };
                $(
                    let $v = &value;
                    if $bad {
                        return Err($crate::binio::BinError::new($msg));
                    }
                )?
                Ok(value)
            }
        }
    };
}

/// Declare an enum's wire layout once: each variant's tag byte, then its
/// fields in the order listed. Unit, struct-like (`V { a, b } = 1`) and
/// tuple-like (`V(x) = 2`, the names are only binders) variants mix
/// freely; an unlisted tag decodes to `invalid <Type> tag N`.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $(
        $variant:ident $({ $($field:ident),+ })? $(( $($item:ident),+ ))? = $tag:literal
    ),+ $(,)? }) => {
        impl $crate::binio::BinEncode for $ty {
            fn bin_encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $({ $($field),+ })? $(( $($item),+ ))? => {
                        out.push($tag);
                        $($($crate::binio::BinEncode::bin_encode($field, out);)+)?
                        $($($crate::binio::BinEncode::bin_encode($item, out);)+)?
                    })+
                }
            }
        }

        impl $crate::binio::BinDecode for $ty {
            fn bin_decode(
                r: &mut $crate::binio::BinReader<'_>,
            ) -> ::std::result::Result<$ty, $crate::binio::BinError> {
                match r.byte()? {
                    $($tag => {
                        $($(let $field = $crate::binio::BinDecode::bin_decode(r)?;)+)?
                        $($(let $item = $crate::binio::BinDecode::bin_decode(r)?;)+)?
                        Ok($ty::$variant $({ $($field),+ })? $(( $($item),+ ))?)
                    })+
                    other => Err($crate::binio::BinError::new(format!(
                        "invalid {} tag {other}",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

// ------------------------------------------------------------ primitives

impl BinEncode for u64 {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        put_var_u64(out, *self);
    }
}

impl BinDecode for u64 {
    #[inline]
    fn bin_decode(r: &mut BinReader<'_>) -> Result<u64, BinError> {
        r.var_u64()
    }
}

impl BinEncode for u32 {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        put_var_u64(out, u64::from(*self));
    }
}

impl BinDecode for u32 {
    #[inline]
    fn bin_decode(r: &mut BinReader<'_>) -> Result<u32, BinError> {
        u32::try_from(r.var_u64()?).map_err(|_| BinError::new("varint overflows u32"))
    }
}

impl BinEncode for usize {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        put_var_u64(out, *self as u64);
    }
}

impl BinDecode for usize {
    #[inline]
    fn bin_decode(r: &mut BinReader<'_>) -> Result<usize, BinError> {
        usize::try_from(r.var_u64()?).map_err(|_| BinError::new("varint overflows usize"))
    }
}

impl BinEncode for f64 {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}

impl BinDecode for f64 {
    #[inline]
    fn bin_decode(r: &mut BinReader<'_>) -> Result<f64, BinError> {
        let bytes = r.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(f64::from_bits(u64::from_le_bytes(raw)))
    }
}

impl BinEncode for bool {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl BinDecode for bool {
    #[inline]
    fn bin_decode(r: &mut BinReader<'_>) -> Result<bool, BinError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(BinError::new(format!("invalid bool byte {other}"))),
        }
    }
}

impl BinEncode for String {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        put_var_u64(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
}

impl BinDecode for String {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<String, BinError> {
        let len = usize::bin_decode(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| BinError::new("invalid UTF-8 string"))
    }
}

// ------------------------------------------------------------ containers

impl<T: BinEncode> BinEncode for Option<T> {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.bin_encode(out);
            }
        }
    }
}

impl<T: BinDecode> BinDecode for Option<T> {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<Option<T>, BinError> {
        match r.byte()? {
            0 => Ok(None),
            1 => T::bin_decode(r).map(Some),
            other => Err(BinError::new(format!("invalid Option tag {other}"))),
        }
    }
}

impl<T: BinEncode> BinEncode for Vec<T> {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        put_var_u64(out, self.len() as u64);
        for item in self {
            item.bin_encode(out);
        }
    }
}

impl<T: BinDecode> BinDecode for Vec<T> {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<Vec<T>, BinError> {
        let len = usize::bin_decode(r)?;
        // A corrupt length must not trigger a pathological allocation; the
        // vector grows as elements actually decode.
        let mut items = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            items.push(T::bin_decode(r)?);
        }
        Ok(items)
    }
}

impl<T: BinEncode> BinEncode for VecDeque<T> {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        put_var_u64(out, self.len() as u64);
        for item in self {
            item.bin_encode(out);
        }
    }
}

impl<T: BinDecode> BinDecode for VecDeque<T> {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<VecDeque<T>, BinError> {
        Vec::<T>::bin_decode(r).map(VecDeque::from)
    }
}

impl<T: BinEncode> BinEncode for Box<T> {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        (**self).bin_encode(out);
    }
}

impl<T: BinDecode> BinDecode for Box<T> {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<Box<T>, BinError> {
        T::bin_decode(r).map(Box::new)
    }
}

impl<T: BinEncode, E: BinEncode> BinEncode for Result<T, E> {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.bin_encode(out);
            }
            Err(e) => {
                out.push(1);
                e.bin_encode(out);
            }
        }
    }
}

impl<T: BinDecode, E: BinDecode> BinDecode for Result<T, E> {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<Result<T, E>, BinError> {
        match r.byte()? {
            0 => T::bin_decode(r).map(Ok),
            1 => E::bin_decode(r).map(Err),
            other => Err(BinError::new(format!("invalid Result tag {other}"))),
        }
    }
}

impl<A: BinEncode, B: BinEncode> BinEncode for (A, B) {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        self.0.bin_encode(out);
        self.1.bin_encode(out);
    }
}

impl<A: BinDecode, B: BinDecode> BinDecode for (A, B) {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<(A, B), BinError> {
        Ok((A::bin_decode(r)?, B::bin_decode(r)?))
    }
}

impl<V: BinEncode> BinEncode for DenseMap<V> {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        put_var_u64(out, self.len() as u64);
        for (p, v) in self.iter() {
            p.bin_encode(out);
            v.bin_encode(out);
        }
    }
}

impl<V: BinDecode> BinDecode for DenseMap<V> {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<DenseMap<V>, BinError> {
        let len = usize::bin_decode(r)?;
        let mut map = DenseMap::new();
        for _ in 0..len {
            let p = PageId::bin_decode(r)?;
            map.insert(p, V::bin_decode(r)?);
        }
        Ok(map)
    }
}

impl BinEncode for DenseSet {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        put_var_u64(out, self.len() as u64);
        for p in self.iter() {
            p.bin_encode(out);
        }
    }
}

impl BinDecode for DenseSet {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<DenseSet, BinError> {
        let len = usize::bin_decode(r)?;
        let mut set = DenseSet::new();
        for _ in 0..len {
            set.insert(PageId::bin_decode(r)?);
        }
        Ok(set)
    }
}

// ------------------------------------------------- workspace value types

wire_struct!(PageId { 0 });
wire_struct!(SiteId { 0 });
wire_struct!(Url { site, page });
wire_struct!(Checksum { 0 });
wire_struct!(PageVersion { 0 });
wire_struct!(ChangeRate { 0 });

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: BinEncode + BinDecode + PartialEq + fmt::Debug>(value: T) {
        let mut out = Vec::new();
        value.bin_encode(&mut out);
        let mut r = BinReader::new(&out);
        let back = T::bin_decode(&mut r).expect("decodes");
        assert!(r.is_exhausted(), "trailing bytes after {value:?}");
        assert_eq!(back, value);
    }

    #[test]
    fn varints_roundtrip_across_magnitudes() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            roundtrip(v);
        }
        let mut out = Vec::new();
        put_var_u64(&mut out, 127);
        assert_eq!(out.len(), 1, "small values stay one byte");
    }

    #[test]
    fn floats_are_bit_exact_including_nonfinite() {
        for x in [
            0.0f64,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            std::f64::consts::PI,
        ] {
            let mut out = Vec::new();
            x.bin_encode(&mut out);
            let back = f64::bin_decode(&mut BinReader::new(&out)).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
        // NaN bit patterns survive too (equality can't check this one).
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut out = Vec::new();
        nan.bin_encode(&mut out);
        let back = f64::bin_decode(&mut BinReader::new(&out)).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn value_types_roundtrip() {
        roundtrip(Url::new(SiteId(7), PageId(u64::from(u32::MAX) + 5)));
        roundtrip(Checksum(u64::MAX));
        roundtrip(ChangeRate(1.0 / 60.0));
        roundtrip(Some("héllo\n".to_string()));
        roundtrip(Option::<u64>::None);
        roundtrip(vec![PageId(1), PageId(0), PageId(999)]);
        roundtrip(VecDeque::from(vec![(SiteId(1), 0.5f64), (SiteId(2), -1.5)]));
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Point,
        Circle { radius: f64 },
        Segment(u64, u64),
    }
    wire_enum!(Shape { Point = 0, Circle { radius } = 1, Segment(from, to) = 4 });

    #[derive(Debug, PartialEq)]
    struct Span {
        lo: u64,
        hi: u64,
    }
    wire_struct!(Span { lo, hi } reject |s| s.lo > s.hi => "span ends before it starts");

    #[test]
    fn macro_arms_tags_and_checks() {
        roundtrip(Shape::Point);
        roundtrip(Shape::Circle { radius: 2.5 });
        roundtrip(Shape::Segment(7, 300));
        let mut out = Vec::new();
        Shape::Segment(7, 300).bin_encode(&mut out);
        assert_eq!(out, [4, 7, 0xac, 0x02], "tag byte, then the operands in order");
        let err = Shape::bin_decode(&mut BinReader::new(&[2])).unwrap_err();
        assert_eq!(err.to_string(), "invalid Shape tag 2");

        roundtrip(Span { lo: 1, hi: 5 });
        // The post-decode check runs on the decoded value and becomes a BinError.
        let err = Span::bin_decode(&mut BinReader::new(&[5, 1])).unwrap_err();
        assert_eq!(err.to_string(), "span ends before it starts");
    }

    #[test]
    fn dense_containers_roundtrip() {
        let map: DenseMap<f64> =
            [(PageId(4), 1.25), (PageId(0), -0.0), (PageId(77), f64::NEG_INFINITY)]
                .into_iter()
                .collect();
        let mut out = Vec::new();
        map.bin_encode(&mut out);
        let back = DenseMap::<f64>::bin_decode(&mut BinReader::new(&out)).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(PageId(77)).unwrap().to_bits(), f64::NEG_INFINITY.to_bits());

        let set: DenseSet = [PageId(3), PageId(64), PageId(65)].into_iter().collect();
        let mut out = Vec::new();
        set.bin_encode(&mut out);
        let back = DenseSet::bin_decode(&mut BinReader::new(&out)).unwrap();
        assert_eq!(back.to_vec(), set.to_vec());
    }

    #[test]
    fn truncated_and_malformed_payloads_error_cleanly() {
        let mut out = Vec::new();
        "hello".to_string().bin_encode(&mut out);
        out.truncate(out.len() - 2);
        assert!(String::bin_decode(&mut BinReader::new(&out)).is_err());

        assert!(bool::bin_decode(&mut BinReader::new(&[7])).is_err());
        assert!(Option::<u64>::bin_decode(&mut BinReader::new(&[9])).is_err());
        // 10-byte varint with a continuation that overflows u64.
        let overflow = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        assert!(u64::bin_decode(&mut BinReader::new(&overflow)).is_err());
        assert!(u64::bin_decode(&mut BinReader::new(&[])).is_err());

        // Every strict prefix of a stored page (laid out as the
        // collection's `StoredPage`, with and without its boxed posterior)
        // fails with the truncation message, naming a read that runs past
        // the prefix's end.
        for bayes in [None, Some(Box::new(Posterior { probs: vec![0.25, 0.75], seen: 300 }))] {
            let page = Page {
                url: Url::new(SiteId(3), PageId(200)),
                checksum: Checksum(u64::MAX),
                links: vec![Url::new(SiteId(3), PageId(7)), Url::new(SiteId(9), PageId(1 << 40))],
                last_crawl: 12.5,
                crawl_count: 130,
                history: History {
                    window: 200,
                    observations: VecDeque::from(vec![(0.0, (0.0, false)), (12.5, (12.5, true))]),
                    last_checksum: Some(Checksum(u64::MAX)),
                    last_visit: Some(12.5),
                },
                bayes,
                importance: 1.0,
            };
            let mut bytes = Vec::new();
            page.bin_encode(&mut bytes);
            roundtrip(page);
            for len in 0..bytes.len() {
                let err = Page::bin_decode(&mut BinReader::new(&bytes[..len])).unwrap_err();
                let msg = err.to_string();
                let (wanted, at, remain) = parse_truncation(&msg).unwrap_or_else(|| {
                    panic!("prefix of {len} bytes: unexpected error {msg:?}")
                });
                assert_eq!(at + remain, len, "{msg}");
                assert!(wanted > remain, "{msg}");
            }
        }
    }

    /// `(wanted, offset, remain)` from a "payload truncated" message.
    fn parse_truncation(msg: &str) -> Option<(usize, usize, usize)> {
        let rest = msg.strip_prefix("payload truncated: wanted ")?;
        let (wanted, rest) = rest.split_once(" bytes at offset ")?;
        let (at, rest) = rest.split_once(", ")?;
        let remain = rest.strip_suffix(" remain")?;
        Some((wanted.parse().ok()?, at.parse().ok()?, remain.parse().ok()?))
    }

    /// The wire shape of the collection's stored page, and of its change
    /// history and EB posterior, for the truncation test.
    #[derive(Debug, PartialEq)]
    struct Page {
        url: Url,
        checksum: Checksum,
        links: Vec<Url>,
        last_crawl: f64,
        crawl_count: u64,
        history: History,
        bayes: Option<Box<Posterior>>,
        importance: f64,
    }
    wire_struct!(Page {
        url, checksum, links, last_crawl, crawl_count, history, bayes, importance
    });

    #[derive(Debug, PartialEq)]
    struct History {
        window: usize,
        observations: VecDeque<(f64, (f64, bool))>,
        last_checksum: Option<Checksum>,
        last_visit: Option<f64>,
    }
    wire_struct!(History { window, observations, last_checksum, last_visit });

    #[derive(Debug, PartialEq)]
    struct Posterior {
        probs: Vec<f64>,
        seen: u64,
    }
    wire_struct!(Posterior { probs, seen });
}
