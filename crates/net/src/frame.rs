//! Fixed-size wire frames — the zero-copy transport representation.
//!
//! The §4 payload analysis gives closed-form bounds on every message the
//! synthesized program can send; the frame-layout certifier (`wsn-analyze`
//! pass 7) turns those bounds into a proof that all reachable traffic fits
//! one statically chosen frame size. This module supplies the runtime side
//! of that contract, following the dot15d4 discipline of keeping *one*
//! representation — the buffer is the frame:
//!
//! * [`FrameBuf`] — a fixed `[u8; FRAME_BYTES]` buffer plus a fill length.
//!   Cloning is a memcpy; no heap allocation ever occurs per frame, which
//!   is what lets the counting-allocator gate assert zero allocations per
//!   event in steady state.
//! * [`WirePayload`] — bounded little-endian encodings for application
//!   payloads carried in a frame's payload region.
//!
//! A frame carries one application payload, written from its first byte.
//! Routing fields and the causal stamp travel in the runtime's typed
//! envelope around the frame, not in its bytes.

/// Total size of one wire frame in bytes.
pub const FRAME_BYTES: usize = 2048;

/// Bytes of a frame held back as a reserved margin: no field lives there,
/// and the payload may not use them. The margin keeps the certified
/// payload capacity, and with it `FL001`'s threshold, at 1,968 bytes.
pub const FRAME_HEADER_BYTES: usize = 80;

/// Maximum payload bytes a frame can carry: the frame less its reserved
/// margin. Pass 7 certifies every payload against this capacity, and
/// [`FrameBuf::encode_payload`] refuses anything larger.
pub const FRAME_PAYLOAD_CAPACITY: usize = FRAME_BYTES - FRAME_HEADER_BYTES;

/// Why an encode or decode refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The value needs more bytes than the destination region offers.
    Overflow {
        /// Bytes the encoding requires.
        needed: usize,
        /// Bytes available.
        capacity: usize,
    },
    /// The byte region ended before the named field was complete.
    Truncated(&'static str),
    /// The value has no wire representation by design (e.g. an
    /// accumulator that must never travel).
    Unrepresentable(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Overflow { needed, capacity } => {
                write!(
                    out,
                    "encoding needs {needed} bytes, only {capacity} available"
                )
            }
            WireError::Truncated(field) => write!(out, "frame truncated reading {field}"),
            WireError::Unrepresentable(what) => {
                write!(out, "{what} has no wire representation")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A fixed-size wire frame: `FRAME_BYTES` of storage plus the number of
/// bytes currently meaningful. Copying one is a flat memcpy.
#[derive(Clone)]
pub struct FrameBuf {
    len: u16,
    bytes: [u8; FRAME_BYTES],
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf {
            len: 0,
            bytes: [0; FRAME_BYTES],
        }
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &Self) -> bool {
        // Only the filled prefix is compared: a shortened frame keeps
        // stale bytes past `len`, which must not affect equality.
        self.bytes() == other.bytes()
    }
}

impl std::fmt::Debug for FrameBuf {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(out, "FrameBuf {{ len: {} }}", self.len)
    }
}

impl FrameBuf {
    /// A zeroed, empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes currently meaningful.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True when no bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The filled prefix.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes[..self.len()]
    }

    /// Declares the filled length. Bytes past the old length keep whatever
    /// they held. Panics if `len > FRAME_BYTES`.
    fn set_len(&mut self, len: usize) {
        assert!(
            len <= FRAME_BYTES,
            "frame length {len} exceeds {FRAME_BYTES}"
        );
        self.len = len as u16;
    }

    /// Encodes `payload` into a fresh frame from offset 0, inside the
    /// certified [`FRAME_PAYLOAD_CAPACITY`]: a payload the certificate
    /// would refuse is refused here too, with [`WireError::Overflow`].
    pub fn encode_payload<P: WirePayload>(payload: &P) -> Result<FrameBuf, WireError> {
        let mut frame = FrameBuf::new();
        let written = payload.encode(&mut frame.bytes[..FRAME_PAYLOAD_CAPACITY])?;
        frame.set_len(written);
        Ok(frame)
    }

    /// Decodes a payload previously written by [`FrameBuf::encode_payload`].
    pub fn decode_payload<P: WirePayload>(&self) -> Result<P, WireError> {
        P::decode(self.bytes())
    }
}

/// A bounded little-endian wire encoding for an application payload.
///
/// Implementations must be *total* on decode over their own encodings
/// (`decode(encode(x)) == x`) and must report [`WireError::Overflow`]
/// rather than truncate. Values without a wire form (accumulators that
/// never travel) return [`WireError::Unrepresentable`] — the certifier's
/// `FL003` proves such values never reach a send site.
pub trait WirePayload: Sized {
    /// Exact encoded size of `self` in bytes.
    fn encoded_bytes(&self) -> usize;

    /// Writes `self` into the front of `out`, returning the bytes written.
    fn encode(&self, out: &mut [u8]) -> Result<usize, WireError>;

    /// Reads a value back from the front of `bytes`.
    fn decode(bytes: &[u8]) -> Result<Self, WireError>;
}

impl WirePayload for f64 {
    fn encoded_bytes(&self) -> usize {
        8
    }
    fn encode(&self, out: &mut [u8]) -> Result<usize, WireError> {
        if out.len() < 8 {
            return Err(WireError::Overflow {
                needed: 8,
                capacity: out.len(),
            });
        }
        out[..8].copy_from_slice(&self.to_bits().to_le_bytes());
        Ok(8)
    }
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < 8 {
            return Err(WireError::Truncated("f64"));
        }
        Ok(f64::from_bits(u64::from_le_bytes(
            bytes[..8].try_into().expect("8 bytes"),
        )))
    }
}

impl WirePayload for u64 {
    fn encoded_bytes(&self) -> usize {
        8
    }
    fn encode(&self, out: &mut [u8]) -> Result<usize, WireError> {
        if out.len() < 8 {
            return Err(WireError::Overflow {
                needed: 8,
                capacity: out.len(),
            });
        }
        out[..8].copy_from_slice(&self.to_le_bytes());
        Ok(8)
    }
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < 8 {
            return Err(WireError::Truncated("u64"));
        }
        Ok(u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")))
    }
}

impl WirePayload for u32 {
    fn encoded_bytes(&self) -> usize {
        4
    }
    fn encode(&self, out: &mut [u8]) -> Result<usize, WireError> {
        if out.len() < 4 {
            return Err(WireError::Overflow {
                needed: 4,
                capacity: out.len(),
            });
        }
        out[..4].copy_from_slice(&self.to_le_bytes());
        Ok(4)
    }
    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        if bytes.len() < 4 {
            return Err(WireError::Truncated("u32"));
        }
        Ok(u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")))
    }
}

impl WirePayload for () {
    fn encoded_bytes(&self) -> usize {
        0
    }
    fn encode(&self, _out: &mut [u8]) -> Result<usize, WireError> {
        Ok(0)
    }
    fn decode(_bytes: &[u8]) -> Result<Self, WireError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test payload that puts its bytes on the wire as they are.
    #[derive(Debug, PartialEq)]
    struct Raw(Vec<u8>);

    impl WirePayload for Raw {
        fn encoded_bytes(&self) -> usize {
            self.0.len()
        }
        fn encode(&self, out: &mut [u8]) -> Result<usize, WireError> {
            let needed = self.0.len();
            if out.len() < needed {
                return Err(WireError::Overflow {
                    needed,
                    capacity: out.len(),
                });
            }
            out[..needed].copy_from_slice(&self.0);
            Ok(needed)
        }
        fn decode(bytes: &[u8]) -> Result<Self, WireError> {
            Ok(Raw(bytes.to_vec()))
        }
    }

    #[test]
    fn scalar_payloads_round_trip() {
        for v in [0.0f64, -1.5, f64::MAX, f64::MIN_POSITIVE] {
            let frame = FrameBuf::encode_payload(&v).unwrap();
            assert_eq!(frame.decode_payload::<f64>().unwrap(), v);
            assert_eq!(frame.len(), 8);
        }
        let frame = FrameBuf::encode_payload(&0xDEAD_BEEFu32).unwrap();
        assert_eq!(frame.decode_payload::<u32>().unwrap(), 0xDEAD_BEEF);
        let frame = FrameBuf::encode_payload(&u64::MAX).unwrap();
        assert_eq!(frame.decode_payload::<u64>().unwrap(), u64::MAX);
        let frame = FrameBuf::encode_payload(&()).unwrap();
        assert!(frame.is_empty());
        frame.decode_payload::<()>().unwrap();
    }

    #[test]
    fn equality_ignores_stale_bytes_past_len() {
        let a = FrameBuf::encode_payload(&42u64).unwrap();
        let mut bytes = 42u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&999u64.to_le_bytes()); // stale garbage past the fill
        let mut b = FrameBuf::encode_payload(&Raw(bytes)).unwrap();
        b.set_len(8);
        assert_eq!(a, b);
        b.set_len(16);
        assert_ne!(a, b);
    }

    #[test]
    fn truncated_decode_refuses() {
        let frame = FrameBuf::new();
        assert_eq!(
            frame.decode_payload::<f64>(),
            Err(WireError::Truncated("f64"))
        );
    }

    #[test]
    fn payloads_fill_at_most_the_certified_capacity() {
        let full = Raw(vec![7; FRAME_PAYLOAD_CAPACITY]);
        let frame = FrameBuf::encode_payload(&full).unwrap();
        assert_eq!(frame.len(), 1968);
        assert_eq!(frame.decode_payload::<Raw>().unwrap(), full);
        assert_eq!(
            FrameBuf::encode_payload(&Raw(vec![7; FRAME_PAYLOAD_CAPACITY + 1])),
            Err(WireError::Overflow {
                needed: 1969,
                capacity: 1968
            })
        );
    }

    #[test]
    fn header_region_leaves_certified_payload_capacity() {
        assert_eq!(FRAME_BYTES, FRAME_HEADER_BYTES + FRAME_PAYLOAD_CAPACITY);
        assert_eq!(FRAME_PAYLOAD_CAPACITY, 1968);
        assert_eq!(FRAME_BYTES % 8, 0, "frames stay 8-byte aligned");
    }
}
