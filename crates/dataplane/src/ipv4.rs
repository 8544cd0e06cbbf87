//! Minimal IPv4 header codec over `bytes` buffers.
//!
//! Parse/emit in the smoltcp idiom: a plain struct, explicit field
//! offsets, a real ones-complement checksum, and hard errors on malformed
//! input. Only what MIRO's tunnels need: no options, no fragmentation.
//! Both are refused rather than misread: a header with options, or a
//! fragment (MF set or a non-zero offset), is an error. A non-first
//! fragment has no transport header, so its "ports" would be payload.

use bytes::{BufMut, Bytes, BytesMut};

/// IP protocol number for IP-in-IP (RFC 2003) — the encapsulation of
/// section 4.2.
pub const PROTO_IPIP: u8 = 4;
/// Locally-chosen protocol number for the MIRO shim header (from the
/// 253/254 experimentation range of RFC 3692).
pub const PROTO_MIRO: u8 = 253;

/// An IPv4 address as 4 bytes (module-local; keeps the crate free of
/// `std::net` conversions on hot paths).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr4(pub [u8; 4]);

impl Ipv4Addr4 {
    pub fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr4([a, b, c, d])
    }

    pub fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    pub fn from_u32(v: u32) -> Self {
        Ipv4Addr4(v.to_be_bytes())
    }
}

impl std::fmt::Debug for Ipv4Addr4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl std::fmt::Display for Ipv4Addr4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Decode/encode errors.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Ipv4Error {
    /// Fewer than 20 bytes available.
    Truncated,
    /// Version field is not 4.
    BadVersion,
    /// IHL below 5 or beyond the buffer.
    BadHeaderLen,
    /// Header checksum does not verify.
    BadChecksum,
    /// Total length field disagrees with the buffer.
    BadTotalLen,
    /// A fragment: more-fragments set or a non-zero fragment offset
    /// (don't-fragment alone is fine).
    Fragment,
}

impl std::fmt::Display for Ipv4Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Ipv4Error::Truncated => "truncated header",
            Ipv4Error::BadVersion => "version is not 4",
            Ipv4Error::BadHeaderLen => "bad header length",
            Ipv4Error::BadChecksum => "checksum mismatch",
            Ipv4Error::BadTotalLen => "total length mismatch",
            Ipv4Error::Fragment => "fragment",
        };
        f.write_str(s)
    }
}

impl std::error::Error for Ipv4Error {}

/// A parsed IPv4 header (no options).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Ipv4Header {
    pub dscp_ecn: u8,
    pub identification: u16,
    pub ttl: u8,
    pub protocol: u8,
    pub src: Ipv4Addr4,
    pub dst: Ipv4Addr4,
    /// Payload length in bytes (total length minus the 20-byte header).
    pub payload_len: u16,
}

impl Ipv4Header {
    pub const LEN: usize = 20;

    /// A fresh header with common defaults (TTL 64, as smoltcp uses).
    pub fn new(src: Ipv4Addr4, dst: Ipv4Addr4, protocol: u8, payload_len: u16) -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            identification: 0,
            ttl: 64,
            protocol,
            src,
            dst,
            payload_len,
        }
    }

    /// Emit the 20-byte header (checksum computed) into `buf`.
    pub fn emit(&self, buf: &mut BytesMut) {
        let start = buf.len();
        buf.put_u8(0x45); // version 4, IHL 5
        buf.put_u8(self.dscp_ecn);
        buf.put_u16(Self::LEN as u16 + self.payload_len);
        buf.put_u16(self.identification);
        buf.put_u16(0); // flags + fragment offset: never fragmented here
        buf.put_u8(self.ttl);
        buf.put_u8(self.protocol);
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.src.0);
        buf.put_slice(&self.dst.0);
        let cksum = checksum(&buf[start..start + Self::LEN]);
        buf[start + 10..start + 12].copy_from_slice(&cksum.to_be_bytes());
    }

    /// Emit header followed by `payload` and return the frozen packet.
    pub fn emit_with_payload(&self, payload: &[u8]) -> Bytes {
        debug_assert_eq!(payload.len(), self.payload_len as usize);
        let mut buf = BytesMut::with_capacity(Self::LEN + payload.len());
        self.emit(&mut buf);
        buf.put_slice(payload);
        buf.freeze()
    }

    /// Parse and validate a header; returns the header and the payload
    /// bytes that follow it.
    pub fn parse(data: Bytes) -> Result<(Ipv4Header, Bytes), Ipv4Error> {
        let (header, payload) = Self::parse_slice(&data)?;
        let start = Self::LEN;
        let payload = data.slice(start..start + payload.len());
        Ok((header, payload))
    }

    /// Zero-copy parse: validate a header in place and return it together
    /// with a borrowed payload view. This is the burst engine's preparse
    /// primitive — no `Bytes` refcount traffic, no allocation.
    pub fn parse_slice(data: &[u8]) -> Result<(Ipv4Header, &[u8]), Ipv4Error> {
        if data.len() < Self::LEN {
            return Err(Ipv4Error::Truncated);
        }
        if checksum(&data[..Self::LEN]) != 0 {
            return Err(Ipv4Error::BadChecksum);
        }
        let vihl = data[0];
        if vihl >> 4 != 4 {
            return Err(Ipv4Error::BadVersion);
        }
        if vihl & 0x0f != 5 {
            return Err(Ipv4Error::BadHeaderLen);
        }
        // MF is 0x2000, the offset the low 13 bits; DF (0x4000) may be set.
        if u16::from_be_bytes([data[6], data[7]]) & 0x3fff != 0 {
            return Err(Ipv4Error::Fragment);
        }
        let total = u16::from_be_bytes([data[2], data[3]]);
        let rest = data.len() - Self::LEN;
        if (total as usize) < Self::LEN || (total as usize) - Self::LEN > rest {
            return Err(Ipv4Error::BadTotalLen);
        }
        let payload_len = total - Self::LEN as u16;
        let header = Ipv4Header {
            dscp_ecn: data[1],
            identification: u16::from_be_bytes([data[4], data[5]]),
            ttl: data[8],
            protocol: data[9],
            src: Ipv4Addr4([data[12], data[13], data[14], data[15]]),
            dst: Ipv4Addr4([data[16], data[17], data[18], data[19]]),
            payload_len,
        };
        Ok((header, &data[Self::LEN..Self::LEN + payload_len as usize]))
    }
}

/// Decrement the TTL of a valid 20-byte header in place and recompute its
/// checksum (the per-hop rewrite of the forwarding fast path). The caller
/// has already rejected `ttl <= 1` packets; a full 10-word recompute keeps
/// the bytes identical to a fresh [`Ipv4Header::emit`] of the same fields.
pub fn decrement_ttl_in_place(header: &mut [u8]) {
    debug_assert!(header.len() >= Ipv4Header::LEN);
    header[8] -= 1;
    header[10] = 0;
    header[11] = 0;
    let cksum = checksum(&header[..Ipv4Header::LEN]);
    header[10..12].copy_from_slice(&cksum.to_be_bytes());
}

/// RFC 1071 ones-complement checksum over `data` (zero over a buffer that
/// includes a correct checksum field).
pub fn checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr4::new(10, 0, 0, 1),
            Ipv4Addr4::new(12, 34, 56, 78),
            PROTO_IPIP,
            4,
        )
    }

    #[test]
    fn round_trip() {
        let h = hdr();
        let pkt = h.emit_with_payload(b"abcd");
        assert_eq!(pkt.len(), 24);
        let (parsed, payload) = Ipv4Header::parse(pkt).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(&payload[..], b"abcd");
    }

    #[test]
    fn checksum_validates_and_detects_corruption() {
        let h = hdr();
        let pkt = h.emit_with_payload(b"abcd");
        // Emitted checksum verifies.
        assert_eq!(checksum(&pkt[..20]), 0);
        // Flip a bit anywhere in the header: parse must fail.
        for i in [0usize, 8, 12, 16, 19] {
            let mut bad = BytesMut::from(&pkt[..]);
            bad[i] ^= 0x40;
            assert_eq!(
                Ipv4Header::parse(bad.freeze()).unwrap_err(),
                Ipv4Error::BadChecksum,
                "corruption at byte {i} must be caught"
            );
        }
    }

    #[test]
    fn truncated_rejected() {
        let h = hdr();
        let pkt = h.emit_with_payload(b"abcd");
        assert_eq!(
            Ipv4Header::parse(pkt.slice(..10)).unwrap_err(),
            Ipv4Error::Truncated
        );
    }

    #[test]
    fn total_len_mismatch_rejected() {
        let h = Ipv4Header::new(
            Ipv4Addr4::new(1, 1, 1, 1),
            Ipv4Addr4::new(2, 2, 2, 2),
            6,
            100, // claims 100 payload bytes
        );
        let mut buf = BytesMut::new();
        h.emit(&mut buf);
        buf.put_slice(b"short"); // only 5 present
        assert_eq!(
            Ipv4Header::parse(buf.freeze()).unwrap_err(),
            Ipv4Error::BadTotalLen
        );
    }

    #[test]
    fn addr_conversions() {
        let a = Ipv4Addr4::new(192, 168, 1, 2);
        assert_eq!(Ipv4Addr4::from_u32(a.to_u32()), a);
        assert_eq!(format!("{a}"), "192.168.1.2");
    }

    #[test]
    fn checksum_known_vector() {
        // Classic RFC 1071 worked example.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }

    /// `pkt` with flags + fragment offset set to `word`, re-checksummed.
    fn with_frag_word(pkt: &Bytes, word: u16) -> Bytes {
        let mut v = BytesMut::from(&pkt[..]);
        v[6..8].copy_from_slice(&word.to_be_bytes());
        v[10..12].fill(0);
        let c = checksum(&v[..20]);
        v[10..12].copy_from_slice(&c.to_be_bytes());
        v.freeze()
    }

    #[test]
    fn fragments_are_refused_and_df_is_not() {
        let pkt = hdr().emit_with_payload(b"abcd");
        // MF on a first fragment, a non-first fragment (offset 185 x 8
        // bytes), and both.
        for word in [0x2000, 185, 0x2000 | 185, 0x4000 | 1] {
            let frag = with_frag_word(&pkt, word);
            assert_eq!(Ipv4Header::parse_slice(&frag).unwrap_err(), Ipv4Error::Fragment);
            assert_eq!(Ipv4Header::parse(frag).unwrap_err(), Ipv4Error::Fragment);
        }
        let df = with_frag_word(&pkt, 0x4000);
        assert_eq!(Ipv4Header::parse(df).unwrap().0, hdr());
    }

    #[test]
    fn extra_trailing_bytes_are_ignored() {
        // A link may pad frames; parse uses total length.
        let h = hdr();
        let mut buf = BytesMut::from(&h.emit_with_payload(b"abcd")[..]);
        buf.put_slice(&[0u8; 6]); // padding
        let (parsed, payload) = Ipv4Header::parse(buf.freeze()).unwrap();
        assert_eq!(parsed.payload_len, 4);
        assert_eq!(&payload[..], b"abcd");
    }
}
