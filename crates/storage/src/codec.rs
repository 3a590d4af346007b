//! Record serialization for disk-backed WAL backends.
//!
//! The file WAL defines its own minimal codec contract: [`WalCodec`]
//! turns a record into bytes and back. Framing, checksumming and
//! torn-tail handling live in [`crate::FileWal`]; a codec only sees
//! whole, checksum-verified payloads, so [`WalCodec::decode`] failing
//! means a format bug or version skew — corruption never reaches it.
//!
//! The `put_*` helpers and [`Dec`] cursor implement the shared
//! primitive encoding (little-endian fixed-width integers,
//! length-prefixed byte strings) so record codecs in other crates stay
//! small and consistent.

/// A record type the file-backed WAL can persist.
pub trait WalCodec: Sized {
    /// Appends this record's encoding to `buf` (no framing — the WAL
    /// frames and checksums the payload).
    fn encode_into(&self, buf: &mut Vec<u8>);

    /// Decodes a record from a whole payload previously produced by
    /// [`WalCodec::encode_into`]. `None` means the payload does not
    /// parse (format bug or version skew; checksums have already ruled
    /// out corruption).
    fn decode(bytes: &[u8]) -> Option<Self>;
}

/// Appends a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u32`-length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}

/// Decoding cursor over an encoded payload. Every accessor returns
/// `None` on underflow instead of panicking; callers chain with `?`.
#[derive(Clone, Copy, Debug)]
pub struct Dec<'a> {
    bytes: &'a [u8],
}

impl<'a> Dec<'a> {
    /// A cursor over the whole payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.bytes.len() < n {
            return None;
        }
        let (head, tail) = self.bytes.split_at(n);
        self.bytes = tail;
        Some(head)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .map(|b| i64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// True when the whole payload has been consumed — decoders check
    /// this last so trailing garbage is rejected, not ignored.
    pub fn finished(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Bytes not yet consumed. Decoders use this to cap
    /// `Vec::with_capacity` before trusting a count field: a skewed or
    /// crafted count must fail with `None` when its elements run out,
    /// never pre-allocate gigabytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }
}

impl WalCodec for u32 {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u32(buf, *self);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let v = d.u32()?;
        d.finished().then_some(v)
    }
}

impl WalCodec for u64 {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_u64(buf, *self);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let v = d.u64()?;
        d.finished().then_some(v)
    }
}

impl WalCodec for String {
    fn encode_into(&self, buf: &mut Vec<u8>) {
        put_bytes(buf, self.as_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec::new(bytes);
        let b = d.bytes()?;
        if !d.finished() {
            return None;
        }
        String::from_utf8(b.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_i64(&mut buf, -42);
        put_bytes(&mut buf, b"hello");
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.u32(), Some(0xDEAD_BEEF));
        assert_eq!(d.u64(), Some(u64::MAX - 1));
        assert_eq!(d.i64(), Some(-42));
        assert_eq!(d.bytes(), Some(&b"hello"[..]));
        assert!(d.finished());
    }

    #[test]
    fn underflow_returns_none() {
        let mut d = Dec::new(&[1, 2]);
        assert_eq!(d.u32(), None);
        let mut d = Dec::new(&[3, 0, 0, 0, b'a']);
        assert_eq!(d.bytes(), None, "length prefix exceeds remainder");
    }

    #[test]
    fn builtin_codecs_roundtrip() {
        let mut buf = Vec::new();
        42u32.encode_into(&mut buf);
        assert_eq!(u32::decode(&buf), Some(42));
        assert_eq!(u32::decode(&buf[..3]), None);
        let mut buf = Vec::new();
        "torn".to_string().encode_into(&mut buf);
        assert_eq!(String::decode(&buf).as_deref(), Some("torn"));
    }
}
