//! The one binary codec, both directions: a bounds-checked little-endian
//! [`Reader`] and the `put_*` writers it inverts, LEB128 varints with
//! zigzag, enum tag tables (`Row`) and the [`Fnv1a`] fold. `FLT1` and
//! `TSL1` dumps are framed with these and nothing else; every parser
//! built on [`Reader`] returns `Err` on hostile bytes instead of
//! panicking or over-allocating, and accepts only what the writers emit.

/// Cursor over untrusted little-endian bytes.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, off: 0 }
    }

    /// Bytes consumed so far.
    #[inline]
    pub fn offset(&self) -> usize {
        self.off
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.off
    }

    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!("truncated dump at offset {}", self.off));
        }
        let s = &self.bytes[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A bool byte: `0` or `1`, nothing else.
    #[inline]
    pub(crate) fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            b @ (0 | 1) => Ok(b == 1),
            b => Err(format!("bool byte {b} at offset {}", self.off - 1)),
        }
    }

    /// LEB128 unsigned varint (the inverse of [`put_varint`]). Only the
    /// minimal encoding is accepted: a final `0x00` after a continuation
    /// byte spells a value a shorter encoding already spells.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, String> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 || (shift == 63 && b > 1) {
                return Err(format!("varint overflow at offset {}", self.off));
            }
            if b == 0 && shift > 0 {
                return Err(format!("non-minimal varint at offset {}", self.off - 1));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A `u16`-length-prefixed UTF-8 name (the inverse of [`put_name`]).
    pub fn name(&mut self, what: &str) -> Result<String, String> {
        let len = self.u16()?;
        String::from_utf8(self.take(len.into())?.to_vec())
            .map_err(|e| format!("{what} name not UTF-8: {e}"))
    }

    /// Validate a declared element count before anything is allocated
    /// for it: `n` elements of at least `min_bytes_each` encoded bytes
    /// must fit in what is left of the input, so `with_capacity(count)`
    /// can never exceed the input length.
    #[inline]
    pub fn count(&self, n: u64, min_bytes_each: usize) -> Result<usize, String> {
        usize::try_from(n)
            .ok()
            .filter(|n| {
                n.checked_mul(min_bytes_each)
                    .is_some_and(|need| need <= self.remaining())
            })
            .ok_or_else(|| {
                format!(
                    "declared count {n} at offset {} exceeds the {} bytes left",
                    self.off,
                    self.remaining()
                )
            })
    }

    /// Strict trailer check: the whole input must have been consumed.
    pub fn end(&self, after: &str) -> Result<(), String> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("trailing garbage: {n} bytes after {after}")),
        }
    }
}

#[inline]
pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

#[inline]
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A `u32` element count; more than `u32::MAX` is a bug in the caller.
pub(crate) fn put_count(out: &mut Vec<u8>, n: impl TryInto<u32>, what: &str) {
    let n = n.try_into().unwrap_or_else(|_| panic!("{what} fits u32"));
    put_u32(out, n);
}

/// A block behind an `N`-byte length prefix (`FLT1` records: 2, `TSL1`
/// series payloads: 4): `body` writes straight into `out`, then the
/// prefix is patched. A block too long for its prefix is a bug.
#[inline]
pub(crate) fn put_block<const N: usize>(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&[0; N]);
    body(out);
    let len = (out.len() - at - N).to_le_bytes();
    assert!(len[N..].iter().all(|&b| b == 0), "block fits its prefix");
    out[at..at + N].copy_from_slice(&len[..N]);
}

/// `u16` length, then the UTF-8 bytes. Names are static dotted paths;
/// one over 64 KiB is a bug in the caller.
pub fn put_name(out: &mut Vec<u8>, name: &str) {
    let len = u16::try_from(name.len()).expect("name length fits u16");
    put_u16(out, len);
    out.extend_from_slice(name.as_bytes());
}

/// LEB128 unsigned varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

#[inline]
pub fn zigzag(v: i64) -> u64 {
    u64::from_le_bytes(((v << 1) ^ (v >> 63)).to_le_bytes())
}

#[inline]
pub fn unzigzag(z: u64) -> i64 {
    let half = i64::from_le_bytes((z >> 1).to_le_bytes());
    let sign = -i64::from_le_bytes((z & 1).to_le_bytes());
    half ^ sign
}

/// `(variant, tag byte, label)`, one row per variant of an enum a dump
/// carries: the only place either mapping is written.
pub(crate) type Row<T> = (T, u8, &'static str);

/// `v`'s own row; a table missing a variant is a bug.
pub(crate) fn row_of<T: Copy + PartialEq>(rows: &[Row<T>], v: T) -> Row<T> {
    let row = rows.iter().find(|r| r.0 == v);
    *row.expect("every variant has a row")
}

/// The variant a dump's `tag` byte names.
pub(crate) fn from_tag<T: Copy>(rows: &[Row<T>], what: &str, tag: u8) -> Result<T, String> {
    let variant = rows.iter().find(|r| r.1 == tag).map(|r| r.0);
    variant.ok_or_else(|| format!("unknown {what} tag {tag}"))
}

/// Order-sensitive FNV-1a 64 accumulator: equality pins, not security.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    h: u64,
    prime: u64,
}

impl Fnv1a {
    /// The FNV-1a 64 prime.
    pub const PRIME: u64 = 0x0000_0100_0000_01b3;

    #[inline]
    pub fn new() -> Fnv1a {
        Fnv1a::with_prime(Fnv1a::PRIME)
    }

    /// Same offset basis and fold with a caller-chosen multiplier, for
    /// digests whose pinned values predate this module (the fleet
    /// determinism checksum).
    #[inline]
    pub fn with_prime(prime: u64) -> Fnv1a {
        Fnv1a {
            h: 0xcbf2_9ce4_8422_2325,
            prime,
        }
    }

    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(self.prime);
        }
    }

    #[inline]
    pub fn finish(self) -> u64 {
        self.h
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_reads_le_and_rejects_truncation() {
        let mut bytes = vec![1];
        put_u16(&mut bytes, 2);
        put_u32(&mut bytes, 3);
        put_u64(&mut bytes, 4);
        bytes.push(9);
        assert_eq!(bytes, [1, 2, 0, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 9]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(2));
        assert_eq!(r.u32(), Ok(3));
        assert_eq!(r.u64(), Ok(4));
        assert_eq!((r.offset(), r.remaining()), (15, 1));
        assert!(r.end("the header").is_err());
        assert!(r.u16().is_err(), "one byte left");
        assert_eq!(r.take(1), Ok(&[9u8][..]));
        assert!(r.end("the header").is_ok());
        assert!(r.take(usize::MAX).is_err(), "no offset overflow");
    }

    #[test]
    fn names_roundtrip_and_reject_bad_utf8() {
        let mut out = Vec::new();
        put_name(&mut out, "mac.tx");
        put_name(&mut out, "");
        let mut r = Reader::new(&out);
        assert_eq!(r.name("component").as_deref(), Ok("mac.tx"));
        assert_eq!(r.name("component").as_deref(), Ok(""));
        assert!(r.end("the names").is_ok());
        let e = Reader::new(&[1, 0, 0xff]).name("series").unwrap_err();
        assert!(e.starts_with("series name not UTF-8"), "{e}");
        assert!(Reader::new(&[9, 0, b'x']).name("series").is_err());
    }

    #[test]
    fn count_bounds_declared_lengths_by_bytes_left() {
        let bytes = [0u8; 16];
        let mut r = Reader::new(&bytes);
        r.take(4).unwrap();
        assert_eq!(r.count(12, 1), Ok(12));
        assert_eq!(r.count(6, 2), Ok(6));
        assert!(r.count(7, 2).is_err());
        assert!(r.count(u64::from(u32::MAX), 1).is_err());
        assert!(r.count(u64::MAX, 8).is_err(), "no multiply overflow");
        assert_eq!(r.count(0, 40), Ok(0));
    }

    #[test]
    fn varint_roundtrips_and_rejects_overflow() {
        for v in [0, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint(), Ok(v));
            assert!(r.end("the varint").is_ok());
        }
        // Eleven continuation bytes: more than 64 bits of payload.
        assert!(Reader::new(&[0xff; 11]).varint().is_err());
        // Tenth byte may only carry the top bit.
        let mut over = vec![0xff; 9];
        over.push(2);
        assert!(Reader::new(&over).varint().is_err());
        assert!(Reader::new(&[0x80]).varint().is_err(), "truncated");
        // Overlong spellings of 5 and of 0: only the minimal one parses.
        assert_eq!(Reader::new(&[0x05]).varint(), Ok(5));
        for overlong in [&[0x85, 0x00][..], &[0x80, 0x00], &[0x85, 0x80, 0x00]] {
            let e = Reader::new(overlong).varint().unwrap_err();
            assert!(e.starts_with("non-minimal varint"), "{overlong:02x?}: {e}");
        }
    }

    #[test]
    fn bools_are_zero_or_one() {
        let mut r = Reader::new(&[0, 1, 2]);
        assert_eq!((r.bool(), r.bool()), (Ok(false), Ok(true)));
        assert_eq!(r.bool(), Err("bool byte 2 at offset 2".to_owned()));
    }

    #[test]
    #[should_panic(expected = "block fits its prefix")]
    fn blocks_patch_their_prefix_and_refuse_to_overflow_it() {
        let mut out = Vec::new();
        put_block::<4>(&mut out, |b| put_u16(b, 7));
        assert_eq!(out, [2, 0, 0, 0, 7, 0]);
        put_block::<2>(&mut out, |b| b.extend([0; 1 << 16]));
    }

    #[test]
    fn zigzag_covers_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -4242] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut split = Fnv1a::new();
        split.write(b"foo");
        split.write(b"bar");
        let mut whole = Fnv1a::new();
        whole.write(b"foobar");
        assert_eq!(split.finish(), whole.finish());
        assert_eq!(whole.finish(), 0x8594_4171_f739_67e8);
    }
}
