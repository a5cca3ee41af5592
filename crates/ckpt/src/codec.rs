//! Byte-deterministic binary codec for checkpoint payloads.
//!
//! The codec mirrors the obs crate's hand-rolled JSON philosophy: no
//! external dependencies, no ambient nondeterminism. Every multi-byte
//! integer is little-endian, every float is its IEEE-754 bit pattern
//! (`f64::to_bits`), every collection is length-prefixed, and decoding
//! is total — malformed input yields a typed error, never a panic.
//! Encoding the same value twice yields the same bytes, which is what
//! lets the checksum (FNV-1a 64) stand in for equality.
//!
//! A type's wire form is one field walk, its [`Codec`] impl, which the
//! [`Writer`] drives to encode and the [`Reader`] drives to decode. Plain
//! data gets its walk from [`walk!`](crate::walk): one field list serves
//! both directions, in the order written. `Option`, `Vec`, pairs, arrays
//! and `BTreeMap` walk their elements generically.

use crate::checkpoint::CheckpointError;
use std::collections::BTreeMap;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes`.
///
/// Each step is `h = (h ^ b) * PRIME` with an odd prime, so the map from
/// pre-state to post-state is a bijection for every input byte: two
/// payloads that first differ at byte `i` have different hash states from
/// `i` on, and identical suffixes can never re-converge. Any single-byte
/// substitution, and any truncation combined with the stored length, is
/// therefore guaranteed to change the digest.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A type's field walk, which both directions drive: [`Writer::put`]
/// appends the fields, [`Reader::get`] reads them back in the same order.
pub trait Codec: Sized {
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError>;
}

/// Implements [`Codec`] for a struct of plain data from one list of its
/// fields, which is the walk in both directions. Every field must be
/// listed (the decoder builds the struct from the list), so a field
/// added to the struct and not to its walk fails to compile.
#[macro_export]
macro_rules! walk {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::Codec for $ty {
            fn put(&self, w: &mut $crate::Writer) {
                $(w.put(&self.$field);)+
            }

            fn get(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::CheckpointError> {
                // A struct expression evaluates its fields in the order
                // written, which is the order `put` wrote them.
                Ok(Self { $($field: r.get()?,)+ })
            }
        }
    };
}

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends `v`'s walk.
    pub fn put<T: Codec>(&mut self, v: &T) {
        v.put(self);
    }

    /// A collection's length prefix, as `u64`.
    pub(crate) fn put_len(&mut self, len: usize) {
        self.put(&len);
    }

    /// A length-prefixed sequence: the wire form of `Vec<T>`.
    pub fn put_slice<T: Codec>(&mut self, items: &[T]) {
        self.put_len(items.len());
        for item in items {
            item.put(self);
        }
    }

    /// A length-prefixed UTF-8 string.
    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Why a payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the value being read was complete.
    UnexpectedEof { offset: usize, needed: usize },
    /// A tag byte (Option, enum discriminant) had no meaning.
    BadTag { offset: usize, tag: u8 },
    /// A length prefix was absurd (longer than the remaining payload),
    /// caught before allocating.
    BadLength { offset: usize, len: u64 },
    /// A string's bytes were not UTF-8.
    BadUtf8 { offset: usize },
    /// Decoding finished with bytes left over — the payload and the
    /// decoder disagree about the schema.
    TrailingBytes { remaining: usize },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof { offset, needed } => {
                write!(f, "payload ended at byte {offset} ({needed} more needed)")
            }
            DecodeError::BadTag { offset, tag } => {
                write!(f, "invalid tag byte {tag:#04x} at offset {offset}")
            }
            DecodeError::BadLength { offset, len } => {
                write!(f, "length prefix {len} at offset {offset} exceeds the payload")
            }
            DecodeError::BadUtf8 { offset } => write!(f, "non-UTF-8 string at offset {offset}"),
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} unconsumed bytes after the last field")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Cursor-based decoder over an encoded payload. Every error it reports
/// carries the offset of the byte it failed at.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails with [`DecodeError::TrailingBytes`] unless every byte was
    /// consumed — a schema mismatch otherwise slips through silently.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes { remaining: self.remaining() })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                offset: self.pos,
                needed: n - self.remaining(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    /// Reads a `T` by its walk.
    pub fn get<T: Codec>(&mut self) -> Result<T, CheckpointError> {
        T::get(self)
    }

    /// A collection's length prefix. Every value takes at least one byte
    /// on the wire, so a prefix longer than the rest of the payload is
    /// rejected before anything is allocated.
    pub(crate) fn get_len(&mut self) -> Result<usize, DecodeError> {
        let offset = self.pos;
        let len = u64::from_le_bytes(self.array()?);
        if len > self.remaining() as u64 {
            return Err(DecodeError::BadLength { offset, len });
        }
        Ok(len as usize)
    }

    /// An enum tag, rejected at its own offset unless it is below
    /// `variants`.
    pub(crate) fn get_tag(&mut self, variants: u8) -> Result<u8, DecodeError> {
        let offset = self.pos;
        let tag = self.take(1)?[0];
        if tag < variants {
            Ok(tag)
        } else {
            Err(DecodeError::BadTag { offset, tag })
        }
    }
}

/// Fixed-width integers travel little-endian.
macro_rules! le_ints {
    ($($t:ty),+) => {$(
        impl Codec for $t {
            fn put(&self, w: &mut Writer) {
                w.buf.extend_from_slice(&self.to_le_bytes());
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )+};
}

le_ints!(u8, u32, u64);

/// `usize` travels as `u64` so 32- and 64-bit hosts agree on bytes.
impl Codec for usize {
    fn put(&self, w: &mut Writer) {
        w.put(&(*self as u64));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let offset = r.pos;
        let v: u64 = r.get()?;
        Ok(usize::try_from(v).map_err(|_| DecodeError::BadLength { offset, len: v })?)
    }
}

/// Floats travel as IEEE-754 bit patterns: `to_bits` round-trips every
/// value including NaN payloads, infinities and signed zeros, which
/// decimal formatting would not.
impl Codec for f64 {
    fn put(&self, w: &mut Writer) {
        w.put(&self.to_bits());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(f64::from_bits(r.get()?))
    }
}

impl Codec for bool {
    fn put(&self, w: &mut Writer) {
        w.put(&u8::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(r.get_tag(2)? == 1)
    }
}

impl Codec for String {
    fn put(&self, w: &mut Writer) {
        w.put_str(self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = r.get_len()?;
        let offset = r.pos;
        let bytes = r.take(len)?;
        Ok(String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8 { offset })?)
    }
}

/// Option tag: 0 = None, 1 = Some (followed by the value).
impl<T: Codec> Codec for Option<T> {
    fn put(&self, w: &mut Writer) {
        match self {
            None => w.put(&0u8),
            Some(v) => {
                w.put(&1u8);
                w.put(v);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match r.get_tag(2)? {
            0 => Ok(None),
            _ => Ok(Some(r.get()?)),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, w: &mut Writer) {
        w.put_slice(self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = r.get_len()?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(r.get()?);
        }
        Ok(items)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, w: &mut Writer) {
        w.put(&self.0);
        w.put(&self.1);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok((r.get()?, r.get()?))
    }
}

/// Fixed-size arrays carry no length prefix.
impl<T: Codec + Copy + Default, const N: usize> Codec for [T; N] {
    fn put(&self, w: &mut Writer) {
        for v in self {
            w.put(v);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = r.get()?;
        }
        Ok(out)
    }
}

/// Maps travel as length-prefixed `(key, value)` pairs in key order, so
/// the bytes are deterministic.
impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn put(&self, w: &mut Writer) {
        w.put_len(self.len());
        for (k, v) in self {
            w.put(k);
            w.put(v);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let len = r.get_len()?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let (k, v) = r.get()?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_err<T: Codec + std::fmt::Debug>(bytes: &[u8]) -> DecodeError {
        match Reader::new(bytes).get::<T>() {
            Err(CheckpointError::Decode(e)) => e,
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.put(&0xABu8);
        w.put(&0xDEAD_BEEFu32);
        w.put(&u64::MAX);
        w.put(&-0.0f64);
        w.put(&f64::NAN);
        w.put(&true);
        w.put(&"epoch".to_string());
        w.put(&Some(7u64));
        w.put(&None::<u64>);
        w.put(&vec![1.5f64, -2.5]);
        w.put(&(3u32, [4u64, 5]));
        w.put(&BTreeMap::from([("b".to_string(), 2u64), ("a".to_string(), 1)]));
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.get::<u8>().unwrap(), 0xAB);
        assert_eq!(r.get::<u32>().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get::<u64>().unwrap(), u64::MAX);
        assert_eq!(r.get::<f64>().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get::<f64>().unwrap().is_nan());
        assert!(r.get::<bool>().unwrap());
        assert_eq!(r.get::<String>().unwrap(), "epoch");
        assert_eq!(r.get::<Option<u64>>().unwrap(), Some(7));
        assert_eq!(r.get::<Option<u64>>().unwrap(), None);
        assert_eq!(r.get::<Vec<f64>>().unwrap(), vec![1.5, -2.5]);
        assert_eq!(r.get::<(u32, [u64; 2])>().unwrap(), (3, [4, 5]));
        let map: BTreeMap<String, u64> = r.get().unwrap();
        assert_eq!(map.into_iter().collect::<Vec<_>>(), [("a".into(), 1), ("b".into(), 2)]);
        r.finish().unwrap();
    }

    #[test]
    fn encoding_is_deterministic() {
        let encode = || {
            let mut w = Writer::new();
            w.put(&std::f64::consts::PI);
            w.put(&vec![3u64, 1, 4]);
            w.put_str("same bytes every time");
            w.into_bytes()
        };
        assert_eq!(encode(), encode());
        assert_eq!(fnv1a64(&encode()), fnv1a64(&encode()));
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.put(&42u64);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode_err::<u64>(&bytes[..cut]), DecodeError::UnexpectedEof { .. }),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn absurd_length_prefix_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put(&u64::MAX); // claimed sequence length
        let bytes = w.into_bytes();
        let too_long = DecodeError::BadLength { offset: 0, len: u64::MAX };
        assert_eq!(decode_err::<Vec<u64>>(&bytes), too_long);
        assert_eq!(decode_err::<String>(&bytes), too_long);
        assert_eq!(decode_err::<BTreeMap<u8, u8>>(&bytes), too_long);
    }

    #[test]
    fn bad_tags_report_their_offset_and_trailing_bytes_are_errors() {
        assert_eq!(decode_err::<bool>(&[2]), DecodeError::BadTag { offset: 0, tag: 2 });
        assert_eq!(
            decode_err::<(u8, Option<u8>)>(&[0, 9]),
            DecodeError::BadTag { offset: 1, tag: 9 }
        );
        let r = Reader::new(&[0, 0]);
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes { remaining: 2 }));
    }

    #[test]
    fn fnv_detects_every_single_byte_substitution() {
        let mut w = Writer::new();
        w.put_str("checksum coverage");
        w.put(&0x0123_4567_89AB_CDEFu64);
        let bytes = w.into_bytes();
        let clean = fnv1a64(&bytes);
        for i in 0..bytes.len() {
            for flip in 1..=255u8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= flip;
                assert_ne!(fnv1a64(&corrupt), clean, "byte {i} xor {flip:#04x} undetected");
            }
        }
    }
}
