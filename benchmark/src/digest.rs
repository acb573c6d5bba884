//! FNV-1a 64 over a rep's deterministic outputs. Every rep of a
//! workload must produce the same digest, and at the default seed it
//! must equal the one pinned in the workload table.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(OFFSET)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Bit pattern, not value: `-0.0` and `0.0` differ, NaNs are kept.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(Digest::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut d = Digest::new();
        d.bytes(b"a");
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut d = Digest::new();
        d.bytes(b"foobar");
        assert_eq!(d.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn is_stable_across_chunking_and_sensitive_to_order() {
        let mut whole = Digest::new();
        whole.bytes(b"hello world");
        let mut parts = Digest::new();
        parts.bytes(b"hello ");
        parts.bytes(b"world");
        assert_eq!(whole, parts);

        let (mut ab, mut ba) = (Digest::new(), Digest::new());
        ab.u64(1);
        ab.u64(2);
        ba.u64(2);
        ba.u64(1);
        assert_ne!(ab, ba);

        let (mut pos, mut neg) = (Digest::new(), Digest::new());
        pos.f64(0.0);
        neg.f64(-0.0);
        assert_ne!(pos, neg, "digest covers bit patterns");
    }
}
