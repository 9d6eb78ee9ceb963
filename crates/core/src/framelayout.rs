//! The certified frame geometry and the §4 payload bounds priced in
//! bytes — shared by the framed runtime (`wsn-runtime`) and the
//! frame-layout certifier (`wsn-analyze` pass 7).
//!
//! A frame (`wsn_net::FrameBuf`) carries one application payload in at
//! most [`wsn_net::FRAME_PAYLOAD_CAPACITY`] bytes; the frame's other
//! [`wsn_net::FRAME_HEADER_BYTES`] are a reserved margin with no fields.
//! The closed forms below bound every payload the synthesized program
//! can ship, per hierarchy level. The certifier checks that every
//! reachable send site's bound fits the capacity and refuses the framed
//! runtime configuration otherwise.

use crate::estimate::full_boundary_units;
// Re-exported so crates above the virtual architecture (e.g. `wsn-synth`,
// `wsn-analyze`) can implement bounded payload encodings and check the
// frame geometry without a direct `wsn-net` edge.
pub use wsn_net::{
    WireError, WirePayload, FRAME_BYTES, FRAME_HEADER_BYTES, FRAME_PAYLOAD_CAPACITY,
};

/// Structural upper bound, in bytes, of the wire encoding of one boundary
/// summary over a square extent of `extent_side` cells:
///
/// * 16 bytes of summary-message header (sender cell, level, kind, pad),
/// * 24 bytes of boundary header (origin, extent side, three lengths, pad),
/// * 4 bytes per border cell (`perim = 4·s − 4`, or 1 for `s = 1`),
/// * 8 bytes per open region (at most one per border cell),
/// * 8 bytes per closed region (disjoint components of at least one cell
///   each — at most `⌈s²/2⌉`, the checkerboard maximum).
pub fn summary_wire_bound_bytes(extent_side: u32) -> u64 {
    let s = u64::from(extent_side);
    let perim = if s <= 1 { 1 } else { 4 * s - 4 };
    let closed_max = s * s / 2 + (s * s) % 2;
    16 + 24 + perim * 4 + perim * 8 + closed_max * 8
}

/// Upper bound, in bytes, of the payload a send site at data level
/// `level` can emit: the wire form of a full boundary summary over the
/// `2^level`-sided extent the §4 `PayloadProfile` prices at
/// [`full_boundary_units`]`(level)` data units.
pub fn payload_bound_bytes(level: u8) -> u64 {
    summary_wire_bound_bytes(1u32 << level)
}

/// The §4 closed-form payload size, in data units, for the same level —
/// re-exported next to the byte bound so the certifier can cross-check
/// its byte table against `certify.rs`'s data-unit totals.
pub fn payload_bound_units(level: u8) -> u64 {
    full_boundary_units(level)
}

/// Whether a deployment of grid side `side` fits the fixed frame: the
/// largest value on the wire is the root exfiltration's summary over the
/// full `side × side` extent.
pub fn framed_payload_fits(side: u32) -> bool {
    summary_wire_bound_bytes(side) <= FRAME_PAYLOAD_CAPACITY as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_bounds_follow_the_closed_form() {
        // Level 0: a leaf summary (1 cell). Levels grow with the extent.
        assert_eq!(summary_wire_bound_bytes(1), 16 + 24 + 4 + 8 + 8);
        assert!(payload_bound_bytes(1) < payload_bound_bytes(2));
        assert_eq!(payload_bound_units(0), 2);
        assert_eq!(payload_bound_units(2), 13);
        // The committed frame geometry covers the differential-matrix
        // sides and refuses past them.
        assert!(framed_payload_fits(4));
        assert!(framed_payload_fits(8));
        assert!(framed_payload_fits(16));
        assert!(!framed_payload_fits(32));
    }
}
