//! BGP-4 message wire formats (RFC 4271, the protocol of section 2.2.2),
//! parsed and emitted over byte buffers in the smoltcp style.
//!
//! MIRO is explicitly backward compatible with deployed BGP (section 3.2),
//! so the reproduction carries the real message formats: the 19-byte
//! header with its all-ones marker, OPEN with the 16-bit AS number and
//! hold time, UPDATE with withdrawn routes / path attributes (ORIGIN,
//! AS_PATH, NEXT_HOP, MED, LOCAL_PREF) / NLRI, KEEPALIVE, and
//! NOTIFICATION. The session layer in [`crate::session`] speaks these.
//!
//! Omitted: multiprotocol extensions, 4-octet AS numbers in AS_PATH
//! (AS_TRANS handling), route refresh, and communities — none are needed
//! by any experiment; `AsPath` here carries `u32` internally but encodes
//! 16-bit, erroring on overflow, which matches the dissertation's
//! 16-bit-era tables.

use std::fmt;

/// The 16-byte all-ones marker of every BGP message.
pub const MARKER: [u8; 16] = [0xff; 16];
/// Fixed header length: marker + length + type.
pub const HEADER_LEN: usize = 19;
/// RFC 4271 maximum message size.
pub const MAX_MESSAGE: usize = 4096;

/// Message type octet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MessageType {
    Open = 1,
    Update = 2,
    Notification = 3,
    Keepalive = 4,
}

/// Wire-level decode errors (each maps onto a NOTIFICATION the session
/// layer would send).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// Fewer bytes than the header demands.
    Truncated,
    /// Marker is not all ones (connection not synchronized).
    BadMarker,
    /// Length field below 19 or above 4096, or inconsistent with content.
    BadLength,
    /// Unknown type octet.
    BadType(u8),
    /// Malformed field inside the body.
    Malformed(&'static str),
    /// AS number or value does not fit the 16-bit encoding.
    Overflow(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadMarker => write!(f, "marker is not all ones"),
            WireError::BadLength => write!(f, "bad length field"),
            WireError::BadType(t) => write!(f, "unknown message type {t}"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
            WireError::Overflow(what) => write!(f, "{what} does not fit the encoding"),
        }
    }
}

impl std::error::Error for WireError {}

/// An IPv4 prefix in NLRI encoding (length in bits + minimal octets).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WirePrefix {
    pub len: u8,
    pub addr: u32,
}

impl WirePrefix {
    pub fn new(addr: u32, len: u8) -> WirePrefix {
        assert!(len <= 32);
        let masked = if len == 0 { 0 } else { addr & (!0u32 << (32 - len)) };
        WirePrefix { len, addr: masked }
    }

    fn emit(&self, out: &mut Vec<u8>) {
        out.push(self.len);
        let bytes = self.addr.to_be_bytes();
        out.extend_from_slice(&bytes[..(self.len as usize).div_ceil(8)]);
    }

    fn parse(data: &[u8], at: &mut usize) -> Result<WirePrefix, WireError> {
        let len = *data.get(*at).ok_or(WireError::Truncated)?;
        *at += 1;
        if len > 32 {
            return Err(WireError::Malformed("prefix length"));
        }
        let nbytes = (len as usize).div_ceil(8);
        if *at + nbytes > data.len() {
            return Err(WireError::Truncated);
        }
        let mut addr = [0u8; 4];
        addr[..nbytes].copy_from_slice(&data[*at..*at + nbytes]);
        *at += nbytes;
        let value = u32::from_be_bytes(addr);
        // Reject non-canonical encodings (set host bits).
        let canon = WirePrefix::new(value, len);
        if canon.addr != value {
            return Err(WireError::Malformed("prefix host bits"));
        }
        Ok(canon)
    }
}

/// Path attributes carried by an UPDATE (the ones the decision process of
/// Table 2.1 consumes).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PathAttributes {
    /// ORIGIN (type 1): 0 IGP, 1 EGP, 2 INCOMPLETE.
    pub origin: Option<u8>,
    /// AS_PATH (type 2), one AS_SEQUENCE segment.
    pub as_path: Vec<u32>,
    /// NEXT_HOP (type 3).
    pub next_hop: Option<u32>,
    /// MULTI_EXIT_DISC (type 4).
    pub med: Option<u32>,
    /// LOCAL_PREF (type 5).
    pub local_pref: Option<u32>,
}

/// A decoded BGP message.
///
/// ```
/// use miro_bgp::wire::BgpMessage;
///
/// let open = BgpMessage::open(65001, 90, 0x0a000001);
/// let bytes = open.emit().unwrap();
/// assert_eq!(bytes.len(), 29);                    // RFC 4271 OPEN size
/// let (parsed, used) = BgpMessage::parse(&bytes).unwrap();
/// assert_eq!(parsed, open);
/// assert_eq!(used, bytes.len());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BgpMessage {
    Open {
        version: u8,
        my_as: u16,
        hold_time: u16,
        bgp_id: u32,
    },
    Update {
        withdrawn: Vec<WirePrefix>,
        attrs: PathAttributes,
        nlri: Vec<WirePrefix>,
    },
    Notification {
        code: u8,
        subcode: u8,
        data: Vec<u8>,
    },
    Keepalive,
}

impl BgpMessage {
    /// Convenience constructors matching common session-layer needs.
    pub fn open(my_as: u16, hold_time: u16, bgp_id: u32) -> BgpMessage {
        BgpMessage::Open { version: 4, my_as, hold_time, bgp_id }
    }

    /// Encode to wire bytes.
    pub fn emit(&self) -> Result<Vec<u8>, WireError> {
        let mut body = Vec::new();
        let ty = match self {
            BgpMessage::Open { version, my_as, hold_time, bgp_id } => {
                body.push(*version);
                body.extend_from_slice(&my_as.to_be_bytes());
                body.extend_from_slice(&hold_time.to_be_bytes());
                body.extend_from_slice(&bgp_id.to_be_bytes());
                body.push(0); // no optional parameters
                MessageType::Open
            }
            BgpMessage::Update { withdrawn, attrs, nlri } => {
                let mut w = Vec::new();
                for p in withdrawn {
                    p.emit(&mut w);
                }
                if w.len() > u16::MAX as usize {
                    return Err(WireError::Overflow("withdrawn routes"));
                }
                body.extend_from_slice(&(w.len() as u16).to_be_bytes());
                body.extend_from_slice(&w);
                let mut a = Vec::new();
                emit_attrs(attrs, &mut a)?;
                if a.len() > u16::MAX as usize {
                    return Err(WireError::Overflow("path attributes"));
                }
                body.extend_from_slice(&(a.len() as u16).to_be_bytes());
                body.extend_from_slice(&a);
                for p in nlri {
                    p.emit(&mut body);
                }
                MessageType::Update
            }
            BgpMessage::Notification { code, subcode, data } => {
                body.push(*code);
                body.push(*subcode);
                body.extend_from_slice(data);
                MessageType::Notification
            }
            BgpMessage::Keepalive => MessageType::Keepalive,
        };
        let total = HEADER_LEN + body.len();
        if total > MAX_MESSAGE {
            return Err(WireError::Overflow("message"));
        }
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MARKER);
        out.extend_from_slice(&(total as u16).to_be_bytes());
        out.push(ty as u8);
        out.extend_from_slice(&body);
        Ok(out)
    }

    /// Decode one message from the front of `data`; returns the message
    /// and the number of bytes consumed (for stream reassembly).
    pub fn parse(data: &[u8]) -> Result<(BgpMessage, usize), WireError> {
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if data[..16] != MARKER {
            return Err(WireError::BadMarker);
        }
        let total = u16::from_be_bytes([data[16], data[17]]) as usize;
        if !(HEADER_LEN..=MAX_MESSAGE).contains(&total) {
            return Err(WireError::BadLength);
        }
        if data.len() < total {
            return Err(WireError::Truncated);
        }
        let body = &data[HEADER_LEN..total];
        let msg = match data[18] {
            1 => {
                if body.len() < 10 {
                    return Err(WireError::Malformed("OPEN body"));
                }
                let opt_len = body[9] as usize;
                if body.len() != 10 + opt_len {
                    return Err(WireError::Malformed("OPEN optional parameters"));
                }
                BgpMessage::Open {
                    version: body[0],
                    my_as: u16::from_be_bytes([body[1], body[2]]),
                    hold_time: u16::from_be_bytes([body[3], body[4]]),
                    bgp_id: u32::from_be_bytes([body[5], body[6], body[7], body[8]]),
                }
            }
            2 => parse_update(body)?,
            3 => {
                if body.len() < 2 {
                    return Err(WireError::Malformed("NOTIFICATION body"));
                }
                BgpMessage::Notification {
                    code: body[0],
                    subcode: body[1],
                    data: body[2..].to_vec(),
                }
            }
            4 => {
                if !body.is_empty() {
                    return Err(WireError::BadLength);
                }
                BgpMessage::Keepalive
            }
            t => return Err(WireError::BadType(t)),
        };
        Ok((msg, total))
    }
}

fn emit_attrs(attrs: &PathAttributes, out: &mut Vec<u8>) -> Result<(), WireError> {
    // flags: 0x40 = well-known transitive; 0x80 = optional; 0x10 =
    // extended (two-octet) length, needed once a value passes 255 bytes
    // (an AS_PATH of 127 hops or more).
    let mut put = |flags: u8, ty: u8, value: &[u8]| {
        match u8::try_from(value.len()) {
            Ok(len) => out.extend_from_slice(&[flags, ty, len]),
            Err(_) => {
                out.extend_from_slice(&[flags | 0x10, ty]);
                out.extend_from_slice(&(value.len() as u16).to_be_bytes());
            }
        }
        out.extend_from_slice(value);
    };
    if let Some(o) = attrs.origin {
        put(0x40, 1, &[o]);
    }
    if !attrs.as_path.is_empty() {
        if attrs.as_path.len() > 255 {
            return Err(WireError::Overflow("AS_PATH length"));
        }
        let mut seg = vec![2u8 /* AS_SEQUENCE */, attrs.as_path.len() as u8];
        for &asn in &attrs.as_path {
            let short: u16 =
                asn.try_into().map_err(|_| WireError::Overflow("AS number"))?;
            seg.extend_from_slice(&short.to_be_bytes());
        }
        put(0x40, 2, &seg);
    }
    if let Some(nh) = attrs.next_hop {
        put(0x40, 3, &nh.to_be_bytes());
    }
    if let Some(med) = attrs.med {
        put(0x80, 4, &med.to_be_bytes());
    }
    if let Some(lp) = attrs.local_pref {
        put(0x40, 5, &lp.to_be_bytes());
    }
    Ok(())
}

fn parse_update(body: &[u8]) -> Result<BgpMessage, WireError> {
    if body.len() < 2 {
        return Err(WireError::Malformed("UPDATE body"));
    }
    let wlen = u16::from_be_bytes([body[0], body[1]]) as usize;
    if 2 + wlen + 2 > body.len() {
        return Err(WireError::Malformed("withdrawn routes length"));
    }
    let mut withdrawn = Vec::new();
    {
        let wdata = &body[2..2 + wlen];
        let mut at = 0;
        while at < wdata.len() {
            withdrawn.push(WirePrefix::parse(wdata, &mut at)?);
        }
    }
    let alen_off = 2 + wlen;
    let alen = u16::from_be_bytes([body[alen_off], body[alen_off + 1]]) as usize;
    let attrs_start = alen_off + 2;
    if attrs_start + alen > body.len() {
        return Err(WireError::Malformed("attribute length"));
    }
    let mut attrs = PathAttributes::default();
    {
        let adata = &body[attrs_start..attrs_start + alen];
        let mut at = 0;
        while at < adata.len() {
            if at + 3 > adata.len() {
                return Err(WireError::Malformed("attribute header"));
            }
            let flags = adata[at];
            let ty = adata[at + 1];
            let (len, header) = if flags & 0x10 != 0 {
                // extended length
                if at + 4 > adata.len() {
                    return Err(WireError::Malformed("extended attribute header"));
                }
                (u16::from_be_bytes([adata[at + 2], adata[at + 3]]) as usize, 4)
            } else {
                (adata[at + 2] as usize, 3)
            };
            let vstart = at + header;
            if vstart + len > adata.len() {
                return Err(WireError::Malformed("attribute value"));
            }
            let value = &adata[vstart..vstart + len];
            match ty {
                1 => {
                    if value.len() != 1 || value[0] > 2 {
                        return Err(WireError::Malformed("ORIGIN"));
                    }
                    attrs.origin = Some(value[0]);
                }
                2 => {
                    let mut at2 = 0;
                    while at2 < value.len() {
                        if at2 + 2 > value.len() {
                            return Err(WireError::Malformed("AS_PATH segment"));
                        }
                        let seg_ty = value[at2];
                        let count = value[at2 + 1] as usize;
                        at2 += 2;
                        if seg_ty != 1 && seg_ty != 2 {
                            return Err(WireError::Malformed("AS_PATH segment type"));
                        }
                        if at2 + count * 2 > value.len() {
                            return Err(WireError::Malformed("AS_PATH segment length"));
                        }
                        for _ in 0..count {
                            attrs.as_path.push(u32::from(u16::from_be_bytes([
                                value[at2],
                                value[at2 + 1],
                            ])));
                            at2 += 2;
                        }
                    }
                }
                3 => {
                    if value.len() != 4 {
                        return Err(WireError::Malformed("NEXT_HOP"));
                    }
                    attrs.next_hop =
                        Some(u32::from_be_bytes([value[0], value[1], value[2], value[3]]));
                }
                4 => {
                    if value.len() != 4 {
                        return Err(WireError::Malformed("MED"));
                    }
                    attrs.med =
                        Some(u32::from_be_bytes([value[0], value[1], value[2], value[3]]));
                }
                5 => {
                    if value.len() != 4 {
                        return Err(WireError::Malformed("LOCAL_PREF"));
                    }
                    attrs.local_pref =
                        Some(u32::from_be_bytes([value[0], value[1], value[2], value[3]]));
                }
                _ => {
                    // Unknown optional attributes are skipped (transit);
                    // unknown well-known attributes are an error.
                    if flags & 0x80 == 0 {
                        return Err(WireError::Malformed("unknown well-known attribute"));
                    }
                }
            }
            at = vstart + len;
        }
    }
    let mut nlri = Vec::new();
    {
        let ndata = &body[attrs_start + alen..];
        let mut at = 0;
        while at < ndata.len() {
            nlri.push(WirePrefix::parse(ndata, &mut at)?);
        }
    }
    Ok(BgpMessage::Update { withdrawn, attrs, nlri })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keepalive_is_19_bytes_exactly() {
        let bytes = BgpMessage::Keepalive.emit().unwrap();
        assert_eq!(bytes.len(), HEADER_LEN);
        let (msg, used) = BgpMessage::parse(&bytes).unwrap();
        assert_eq!(msg, BgpMessage::Keepalive);
        assert_eq!(used, HEADER_LEN);
    }

    #[test]
    fn open_round_trip_and_golden_bytes() {
        let m = BgpMessage::open(65001, 90, 0xc0a80001);
        let bytes = m.emit().unwrap();
        assert_eq!(bytes.len(), 29);
        // Header: marker, length 29, type 1.
        assert_eq!(&bytes[..16], &MARKER);
        assert_eq!(&bytes[16..19], &[0, 29, 1]);
        // Body: version 4, AS 65001, hold 90, id, optlen 0.
        assert_eq!(&bytes[19..], &[4, 0xfd, 0xe9, 0, 90, 0xc0, 0xa8, 0, 1, 0]);
        let (parsed, _) = BgpMessage::parse(&bytes).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn update_round_trip_with_all_attributes() {
        let m = BgpMessage::Update {
            withdrawn: vec![WirePrefix::new(0x0a000000, 8)],
            attrs: PathAttributes {
                origin: Some(0),
                as_path: vec![6509, 11537, 10466, 88],
                next_hop: Some(0xcebd202c), // 206.189.32.44-ish
                med: Some(10),
                local_pref: Some(250),
            },
            nlri: vec![
                WirePrefix::new(0x80700000, 16), // 128.112.0.0/16 (Table 1.1)
                WirePrefix::new(0x80710b00, 24), // 128.113.11.0/24
            ],
        };
        let bytes = m.emit().unwrap();
        let (parsed, used) = BgpMessage::parse(&bytes).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(used, bytes.len());
    }

    /// An AS_PATH value is `2 + 2n` bytes: 126 hops is the last that fits
    /// a one-octet attribute length, 127 the first that needs the
    /// extended-length flag, 255 the most one AS_SEQUENCE carries.
    #[test]
    fn long_as_paths_round_trip_through_the_extended_length() {
        for hops in [1u32, 126, 127, 255] {
            let m = BgpMessage::Update {
                withdrawn: vec![],
                attrs: PathAttributes {
                    origin: Some(0),
                    as_path: (1..=hops).collect(),
                    next_hop: Some(7),
                    ..Default::default()
                },
                nlri: vec![WirePrefix::new(0x0a000000, 8)],
            };
            let bytes = m.emit().unwrap();
            // ORIGIN (4 bytes) comes first; AS_PATH's flag octet follows.
            let flags = bytes[HEADER_LEN + 4 + 4];
            assert_eq!(flags & 0x10 != 0, hops >= 127, "{hops} hops: flags {flags:#x}");
            let (parsed, used) = BgpMessage::parse(&bytes).unwrap_or_else(|e| panic!("{hops} hops: {e}"));
            assert_eq!(parsed, m, "{hops} hops");
            assert_eq!(used, bytes.len());
        }
        let too_long = BgpMessage::Update {
            withdrawn: vec![],
            attrs: PathAttributes { as_path: (1..=256).collect(), ..Default::default() },
            nlri: vec![],
        };
        assert_eq!(too_long.emit().unwrap_err(), WireError::Overflow("AS_PATH length"));
    }

    #[test]
    fn empty_update_is_valid() {
        // RFC 4271: an UPDATE with no withdrawn routes and no NLRI (used
        // as end-of-rib in practice).
        let m = BgpMessage::Update {
            withdrawn: vec![],
            attrs: PathAttributes::default(),
            nlri: vec![],
        };
        let bytes = m.emit().unwrap();
        assert_eq!(bytes.len(), HEADER_LEN + 4);
        assert_eq!(BgpMessage::parse(&bytes).unwrap().0, m);
    }

    #[test]
    fn notification_round_trip() {
        let m = BgpMessage::Notification { code: 6, subcode: 2, data: vec![1, 2, 3] };
        let bytes = m.emit().unwrap();
        assert_eq!(BgpMessage::parse(&bytes).unwrap().0, m);
    }

    #[test]
    fn bad_marker_rejected() {
        let mut bytes = BgpMessage::Keepalive.emit().unwrap();
        bytes[3] = 0x00;
        assert_eq!(BgpMessage::parse(&bytes).unwrap_err(), WireError::BadMarker);
    }

    #[test]
    fn truncation_and_bad_lengths() {
        let bytes = BgpMessage::open(1, 90, 7).emit().unwrap();
        assert_eq!(BgpMessage::parse(&bytes[..10]).unwrap_err(), WireError::Truncated);
        assert_eq!(
            BgpMessage::parse(&bytes[..HEADER_LEN]).unwrap_err(),
            WireError::Truncated,
            "header claims more than available"
        );
        let mut bad = bytes.clone();
        bad[16] = 0;
        bad[17] = 5; // length < 19
        assert_eq!(BgpMessage::parse(&bad).unwrap_err(), WireError::BadLength);
    }

    #[test]
    fn unknown_type_rejected() {
        let mut bytes = BgpMessage::Keepalive.emit().unwrap();
        bytes[18] = 9;
        assert_eq!(BgpMessage::parse(&bytes).unwrap_err(), WireError::BadType(9));
    }

    #[test]
    fn as_number_overflow_detected() {
        let m = BgpMessage::Update {
            withdrawn: vec![],
            attrs: PathAttributes { as_path: vec![70_000], ..Default::default() },
            nlri: vec![],
        };
        assert_eq!(m.emit().unwrap_err(), WireError::Overflow("AS number"));
    }

    #[test]
    fn non_canonical_prefix_rejected() {
        // Hand-build an UPDATE whose NLRI has host bits set.
        let good = BgpMessage::Update {
            withdrawn: vec![],
            attrs: PathAttributes::default(),
            nlri: vec![WirePrefix::new(0x0a000000, 8)],
        };
        let mut bytes = good.emit().unwrap();
        // NLRI starts right after the 4 fixed body bytes: len=8, addr=0x0a.
        let n = bytes.len();
        bytes[n - 1] = 0x0a; // still canonical
        assert!(BgpMessage::parse(&bytes).is_ok());
        // Make the prefix length 4 but keep the 0x0a octet: host bits set.
        bytes[n - 2] = 4;
        assert_eq!(
            BgpMessage::parse(&bytes).unwrap_err(),
            WireError::Malformed("prefix host bits")
        );
    }

    #[test]
    fn stream_reassembly_consumes_exact_lengths() {
        // Two messages back to back on the "TCP stream".
        let mut stream = BgpMessage::Keepalive.emit().unwrap();
        stream.extend(BgpMessage::open(7, 30, 9).emit().unwrap());
        let (m1, used1) = BgpMessage::parse(&stream).unwrap();
        assert_eq!(m1, BgpMessage::Keepalive);
        let (m2, used2) = BgpMessage::parse(&stream[used1..]).unwrap();
        assert_eq!(m2, BgpMessage::open(7, 30, 9));
        assert_eq!(used1 + used2, stream.len());
    }

    #[test]
    fn parse_arbitrary_garbage_never_panics() {
        for seed in 0u8..50 {
            let data: Vec<u8> = (0..64).map(|i| seed.wrapping_mul(31).wrapping_add(i)).collect();
            let _ = BgpMessage::parse(&data);
        }
    }
}
