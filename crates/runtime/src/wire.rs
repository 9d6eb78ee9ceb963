//! The zero-copy wire codec: [`RtMsg`] on the certified fixed frame, plus
//! the framed-program adapter behind `PhysicalRuntime<FrameBuf>`.
//!
//! Every `RtMsg` variant encodes into one [`FrameBuf`] at the offsets
//! declared by [`wsn_core::framelayout`] — the table the frame-layout
//! certifier (`wsn-analyze` pass 7) proves sound. Two properties carry
//! the zero-copy discipline:
//!
//! * the causal stamp lives at a **variant-independent** offset, so a
//!   relay re-stamps a frame in place ([`set_frame_stamp`]) without
//!   decoding it;
//! * the payload region is bounded by the §4 closed forms, so a frame is
//!   a flat `[u8; FRAME_BYTES]` copy — no heap allocation per message.
//!
//! [`FramedProgram`] wraps any typed [`NodeProgram`] into a
//! `NodeProgram<FrameBuf>`: sends encode the payload into a fresh frame
//! (a stack value — cloning it through the medium is a memcpy), receives
//! decode once at the destination leader. Running
//! `PhysicalRuntime<FrameBuf>` this way keeps the entire hop-by-hop relay
//! path allocation-free, which is what the `wsn-lint gate alloc`
//! counting-allocator harness asserts.

use crate::messages::{AppEnvelope, RtMsg};
use std::marker::PhantomData;
use wsn_core::framelayout::{
    AUX_A_OFFSET, AUX_B_OFFSET, CELL_A_OFFSET, CELL_B_OFFSET, FRAME_LAYOUT_VERSION, MSG_ID_OFFSET,
    ORIGIN_OFFSET, PAYLOAD_LEN_OFFSET, PAYLOAD_OFFSET, ROUND_OFFSET, STAMP_LAMPORT_OFFSET,
    STAMP_SEQ_OFFSET, TAG_OFFSET, UNITS_OFFSET, VERSION_OFFSET,
};
use wsn_core::{GridCoord, NodeApi, NodeProgram};
use wsn_net::{FrameBuf, WireError, WirePayload};
use wsn_sim::CausalStamp;

fn put_cell(frame: &mut FrameBuf, offset: usize, cell: GridCoord) {
    frame.put_u32(offset, cell.col);
    frame.put_u32(offset + 4, cell.row);
}

fn get_cell(frame: &FrameBuf, offset: usize) -> GridCoord {
    GridCoord::new(frame.get_u32(offset), frame.get_u32(offset + 4))
}

/// Whether frames with this tag carry an in-place causal stamp.
pub fn is_stamped_tag(tag: u8) -> bool {
    wsn_core::RTMSG_VARIANTS
        .iter()
        .any(|v| v.tag == tag && v.stamped)
}

/// Reads the causal stamp of a stamped frame without decoding it.
pub fn frame_stamp(frame: &FrameBuf) -> CausalStamp {
    CausalStamp {
        seq: frame.get_u64(STAMP_SEQ_OFFSET),
        lamport: frame.get_u64(STAMP_LAMPORT_OFFSET),
    }
}

/// Writes `stamp` into a stamped frame in place — the relay fast path.
pub fn set_frame_stamp(frame: &mut FrameBuf, stamp: CausalStamp) {
    frame.put_u64(STAMP_SEQ_OFFSET, stamp.seq);
    frame.put_u64(STAMP_LAMPORT_OFFSET, stamp.lamport);
}

fn encode_envelope<P: WirePayload>(
    frame: &mut FrameBuf,
    env: &AppEnvelope<P>,
) -> Result<usize, WireError> {
    put_cell(frame, CELL_A_OFFSET, env.src_cell);
    put_cell(frame, CELL_B_OFFSET, env.dest_cell);
    frame.put_u32(ROUND_OFFSET, env.round);
    frame.put_u64(UNITS_OFFSET, env.units);
    frame.put_u64(ORIGIN_OFFSET, env.origin as u64);
    frame.put_u64(MSG_ID_OFFSET, env.msg_id);
    frame.put_u64(STAMP_SEQ_OFFSET, env.stamp.seq);
    frame.put_u64(STAMP_LAMPORT_OFFSET, env.stamp.lamport);
    let storage = frame.storage_mut();
    let written = env.payload.encode(&mut storage[PAYLOAD_OFFSET..])?;
    frame.put_u16(PAYLOAD_LEN_OFFSET, written as u16);
    Ok(written)
}

fn decode_envelope<P: WirePayload>(frame: &FrameBuf) -> Result<AppEnvelope<P>, WireError> {
    let payload_len = usize::from(frame.get_u16(PAYLOAD_LEN_OFFSET));
    let storage = frame.storage();
    if PAYLOAD_OFFSET + payload_len > storage.len() {
        return Err(WireError::Truncated("payload"));
    }
    let payload = P::decode(&storage[PAYLOAD_OFFSET..PAYLOAD_OFFSET + payload_len])?;
    Ok(AppEnvelope {
        src_cell: get_cell(frame, CELL_A_OFFSET),
        dest_cell: get_cell(frame, CELL_B_OFFSET),
        units: frame.get_u64(UNITS_OFFSET),
        round: frame.get_u32(ROUND_OFFSET),
        origin: frame.get_u64(ORIGIN_OFFSET) as usize,
        msg_id: frame.get_u64(MSG_ID_OFFSET),
        stamp: CausalStamp {
            seq: frame.get_u64(STAMP_SEQ_OFFSET),
            lamport: frame.get_u64(STAMP_LAMPORT_OFFSET),
        },
        payload,
    })
}

/// Encodes `msg` into `frame` at the certified layout offsets. The frame
/// is reused as-is (recycled frames need no zeroing — every meaningful
/// byte is overwritten and `len` delimits the rest).
pub fn encode_rtmsg<P: WirePayload>(msg: &RtMsg<P>, frame: &mut FrameBuf) -> Result<(), WireError> {
    frame.clear();
    frame.put_u8(VERSION_OFFSET, FRAME_LAYOUT_VERSION as u8);
    frame.put_u16(PAYLOAD_LEN_OFFSET, 0);
    let mut payload_len = 0usize;
    match msg {
        RtMsg::Topo {
            sender,
            sender_cell,
            dirs,
        } => {
            frame.put_u8(TAG_OFFSET, 1);
            put_cell(frame, CELL_A_OFFSET, *sender_cell);
            frame.put_u64(ORIGIN_OFFSET, *sender as u64);
            let bits = dirs
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &d)| acc | (u64::from(d) << i));
            frame.put_u64(AUX_A_OFFSET, bits);
        }
        RtMsg::Delta {
            sender_cell,
            delta,
            candidate,
        } => {
            frame.put_u8(TAG_OFFSET, 2);
            put_cell(frame, CELL_A_OFFSET, *sender_cell);
            frame.put_u64(AUX_B_OFFSET, delta.to_bits());
            frame.put_u64(ORIGIN_OFFSET, *candidate as u64);
        }
        RtMsg::Announce {
            sender_cell,
            leader,
            hops,
            sender,
        } => {
            frame.put_u8(TAG_OFFSET, 3);
            put_cell(frame, CELL_A_OFFSET, *sender_cell);
            frame.put_u64(ORIGIN_OFFSET, *leader as u64);
            frame.put_u64(AUX_A_OFFSET, u64::from(*hops));
            frame.put_u64(AUX_B_OFFSET, *sender as u64);
        }
        RtMsg::App(env) => {
            frame.put_u8(TAG_OFFSET, 4);
            payload_len = encode_envelope(frame, env)?;
        }
        RtMsg::AppArq {
            seq,
            hop_sender,
            env,
        } => {
            frame.put_u8(TAG_OFFSET, 5);
            payload_len = encode_envelope(frame, env)?;
            frame.put_u64(AUX_A_OFFSET, *seq);
            frame.put_u64(AUX_B_OFFSET, *hop_sender as u64);
        }
        RtMsg::Ack { seq, from } => {
            frame.put_u8(TAG_OFFSET, 6);
            frame.put_u64(AUX_A_OFFSET, *seq);
            frame.put_u64(ORIGIN_OFFSET, *from as u64);
        }
        RtMsg::Sample {
            sender_cell,
            reading,
        } => {
            frame.put_u8(TAG_OFFSET, 7);
            put_cell(frame, CELL_A_OFFSET, *sender_cell);
            frame.put_u64(AUX_B_OFFSET, reading.to_bits());
        }
        RtMsg::Heartbeat {
            sender_cell,
            leader,
            seq,
        } => {
            frame.put_u8(TAG_OFFSET, 8);
            put_cell(frame, CELL_A_OFFSET, *sender_cell);
            frame.put_u64(ORIGIN_OFFSET, *leader as u64);
            frame.put_u64(AUX_A_OFFSET, *seq);
        }
    }
    frame.set_len(PAYLOAD_OFFSET + payload_len);
    Ok(())
}

/// Decodes a frame back into the typed message. Total on everything
/// [`encode_rtmsg`] produces.
pub fn decode_rtmsg<P: WirePayload>(frame: &FrameBuf) -> Result<RtMsg<P>, WireError> {
    let version = frame.get_u8(VERSION_OFFSET);
    if u64::from(version) != FRAME_LAYOUT_VERSION {
        return Err(WireError::Truncated("layout version"));
    }
    let tag = frame.get_u8(TAG_OFFSET);
    Ok(match tag {
        1 => {
            let bits = frame.get_u64(AUX_A_OFFSET);
            let mut dirs = [false; 4];
            for (i, d) in dirs.iter_mut().enumerate() {
                *d = bits & (1 << i) != 0;
            }
            RtMsg::Topo {
                sender: frame.get_u64(ORIGIN_OFFSET) as usize,
                sender_cell: get_cell(frame, CELL_A_OFFSET),
                dirs,
            }
        }
        2 => RtMsg::Delta {
            sender_cell: get_cell(frame, CELL_A_OFFSET),
            delta: f64::from_bits(frame.get_u64(AUX_B_OFFSET)),
            candidate: frame.get_u64(ORIGIN_OFFSET) as usize,
        },
        3 => RtMsg::Announce {
            sender_cell: get_cell(frame, CELL_A_OFFSET),
            leader: frame.get_u64(ORIGIN_OFFSET) as usize,
            hops: frame.get_u64(AUX_A_OFFSET) as u32,
            sender: frame.get_u64(AUX_B_OFFSET) as usize,
        },
        4 => RtMsg::App(decode_envelope(frame)?),
        5 => RtMsg::AppArq {
            seq: frame.get_u64(AUX_A_OFFSET),
            hop_sender: frame.get_u64(AUX_B_OFFSET) as usize,
            env: decode_envelope(frame)?,
        },
        6 => RtMsg::Ack {
            seq: frame.get_u64(AUX_A_OFFSET),
            from: frame.get_u64(ORIGIN_OFFSET) as usize,
        },
        7 => RtMsg::Sample {
            sender_cell: get_cell(frame, CELL_A_OFFSET),
            reading: f64::from_bits(frame.get_u64(AUX_B_OFFSET)),
        },
        8 => RtMsg::Heartbeat {
            sender_cell: get_cell(frame, CELL_A_OFFSET),
            leader: frame.get_u64(ORIGIN_OFFSET) as usize,
            seq: frame.get_u64(AUX_A_OFFSET),
        },
        other => return Err(WireError::BadTag(other)),
    })
}

/// A [`NodeApi`] view that encodes typed payloads into frames on the way
/// out — the adapter half of the zero-copy hot path.
struct FramedApi<'a, P> {
    inner: &'a mut dyn NodeApi<FrameBuf>,
    _payload: PhantomData<P>,
}

impl<P: WirePayload> NodeApi<P> for FramedApi<'_, P> {
    fn coord(&self) -> GridCoord {
        self.inner.coord()
    }
    fn grid(&self) -> wsn_core::VirtualGrid {
        self.inner.grid()
    }
    fn now(&self) -> wsn_sim::SimTime {
        self.inner.now()
    }
    fn read_sensor(&mut self) -> f64 {
        self.inner.read_sensor()
    }
    fn compute(&mut self, units: u64) {
        self.inner.compute(units);
    }
    fn send(&mut self, dest: GridCoord, units: u64, payload: P) {
        let frame = FrameBuf::encode_payload(&payload)
            .expect("frame-certified payload exceeded the frame capacity");
        self.inner.send(dest, units, frame);
    }
    fn exfiltrate(&mut self, payload: P) {
        let frame = FrameBuf::encode_payload(&payload)
            .expect("frame-certified payload exceeded the frame capacity");
        self.inner.exfiltrate(frame);
    }
    fn residual_energy(&self) -> Option<f64> {
        self.inner.residual_energy()
    }
    fn stat_incr(&mut self, name: &str) {
        self.inner.stat_incr(name);
    }
    fn stat_observe(&mut self, name: &str, value: f64) {
        self.inner.stat_observe(name, value);
    }
}

/// Wraps a typed [`NodeProgram`] so it runs on a frame-carrying runtime
/// (`PhysicalRuntime<FrameBuf>`): payloads decode exactly once, at the
/// destination leader; every relay hop moves a flat frame.
pub struct FramedProgram<P, Prog> {
    inner: Prog,
    _payload: PhantomData<P>,
}

impl<P, Prog> FramedProgram<P, Prog> {
    /// Wraps `inner`.
    pub fn new(inner: Prog) -> Self {
        FramedProgram {
            inner,
            _payload: PhantomData,
        }
    }
}

impl<P, Prog> NodeProgram<FrameBuf> for FramedProgram<P, Prog>
where
    P: WirePayload + 'static,
    Prog: NodeProgram<P>,
{
    fn on_init(&mut self, api: &mut dyn NodeApi<FrameBuf>) {
        let mut framed = FramedApi {
            inner: api,
            _payload: PhantomData,
        };
        self.inner.on_init(&mut framed);
    }

    fn on_receive(&mut self, api: &mut dyn NodeApi<FrameBuf>, from: GridCoord, payload: FrameBuf) {
        let decoded: P = payload
            .decode_payload()
            .expect("frame-certified payload decodes");
        let mut framed = FramedApi {
            inner: api,
            _payload: PhantomData,
        };
        self.inner.on_receive(&mut framed, from, decoded);
    }
}

/// Decodes a framed exfiltration back to its typed payload — drivers call
/// this once per result after the run.
pub fn decode_framed<P: WirePayload>(frame: &FrameBuf) -> Result<P, WireError> {
    frame.decode_payload()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_sim::Payload;

    fn sample_envelope(payload: f64) -> AppEnvelope<f64> {
        AppEnvelope {
            src_cell: GridCoord::new(3, 1),
            dest_cell: GridCoord::new(0, 2),
            units: 13,
            round: 7,
            origin: 42,
            msg_id: 9001,
            stamp: CausalStamp {
                seq: 55,
                lamport: 77,
            },
            payload,
        }
    }

    fn all_variants() -> Vec<RtMsg<f64>> {
        vec![
            RtMsg::Topo {
                sender: 11,
                sender_cell: GridCoord::new(1, 2),
                dirs: [true, false, true, true],
            },
            RtMsg::Delta {
                sender_cell: GridCoord::new(2, 2),
                delta: -0.75,
                candidate: 6,
            },
            RtMsg::Announce {
                sender_cell: GridCoord::new(0, 3),
                leader: 17,
                hops: 4,
                sender: 23,
            },
            RtMsg::App(sample_envelope(2.5)),
            RtMsg::AppArq {
                seq: 31,
                hop_sender: 12,
                env: sample_envelope(-9.25),
            },
            RtMsg::Ack { seq: 31, from: 12 },
            RtMsg::Sample {
                sender_cell: GridCoord::new(3, 3),
                reading: 10.5,
            },
            RtMsg::Heartbeat {
                sender_cell: GridCoord::new(1, 0),
                leader: 5,
                seq: 88,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_and_keeps_its_discriminant() {
        let mut frame = FrameBuf::new();
        for msg in all_variants() {
            encode_rtmsg(&msg, &mut frame).unwrap();
            assert_eq!(
                frame.discriminant(),
                msg.discriminant(),
                "frame tag must equal the kernel discriminant"
            );
            let back: RtMsg<f64> = decode_rtmsg(&frame).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn recycled_frames_decode_cleanly_across_variants() {
        // Encode the largest variant first, then reuse the same frame for
        // every other variant: stale bytes past `len` must never leak.
        let mut frame = FrameBuf::new();
        encode_rtmsg(
            &RtMsg::AppArq {
                seq: u64::MAX,
                hop_sender: usize::MAX,
                env: sample_envelope(f64::MAX),
            },
            &mut frame,
        )
        .unwrap();
        for msg in all_variants() {
            encode_rtmsg(&msg, &mut frame).unwrap();
            let back: RtMsg<f64> = decode_rtmsg(&frame).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn stamps_rewrite_in_place_without_decoding() {
        let mut frame = FrameBuf::new();
        encode_rtmsg(&RtMsg::App(sample_envelope(1.0)), &mut frame).unwrap();
        assert!(is_stamped_tag(frame.get_u8(TAG_OFFSET)));
        assert_eq!(
            frame_stamp(&frame),
            CausalStamp {
                seq: 55,
                lamport: 77
            }
        );
        set_frame_stamp(
            &mut frame,
            CausalStamp {
                seq: 100,
                lamport: 200,
            },
        );
        let RtMsg::App(env) = decode_rtmsg::<f64>(&frame).unwrap() else {
            panic!("tag changed");
        };
        assert_eq!(env.stamp.seq, 100);
        assert_eq!(env.stamp.lamport, 200);
        assert_eq!(env.payload, 1.0, "payload untouched by the re-stamp");
        assert!(!is_stamped_tag(6), "acks carry no stamp");
    }

    #[test]
    fn header_fields_land_on_the_certified_offsets() {
        let mut frame = FrameBuf::new();
        encode_rtmsg(&RtMsg::App(sample_envelope(0.0)), &mut frame).unwrap();
        assert_eq!(frame.get_u8(TAG_OFFSET), 4);
        assert_eq!(
            u64::from(frame.get_u8(VERSION_OFFSET)),
            FRAME_LAYOUT_VERSION
        );
        assert_eq!(frame.get_u32(CELL_A_OFFSET), 3);
        assert_eq!(frame.get_u32(CELL_B_OFFSET + 4), 2);
        assert_eq!(frame.get_u32(ROUND_OFFSET), 7);
        assert_eq!(frame.get_u64(UNITS_OFFSET), 13);
        assert_eq!(frame.get_u64(ORIGIN_OFFSET), 42);
        assert_eq!(frame.get_u64(MSG_ID_OFFSET), 9001);
        assert_eq!(frame.get_u64(STAMP_SEQ_OFFSET), 55);
        assert_eq!(frame.len(), PAYLOAD_OFFSET + 8);
    }

    #[test]
    fn bad_tags_and_versions_refuse() {
        let mut frame = FrameBuf::new();
        encode_rtmsg(&RtMsg::Ack::<f64> { seq: 1, from: 2 }, &mut frame).unwrap();
        frame.put_u8(TAG_OFFSET, 99);
        assert_eq!(decode_rtmsg::<f64>(&frame), Err(WireError::BadTag(99)));
        frame.put_u8(TAG_OFFSET, 6);
        frame.put_u8(VERSION_OFFSET, 9);
        assert!(decode_rtmsg::<f64>(&frame).is_err());
    }

    #[test]
    fn framed_program_adapter_encodes_and_decodes_at_the_edges() {
        use wsn_core::program::NodeProgram as _;
        struct Echo;
        impl NodeProgram<f64> for Echo {
            fn on_init(&mut self, api: &mut dyn NodeApi<f64>) {
                api.send(GridCoord::new(1, 1), 2, 6.5);
            }
            fn on_receive(&mut self, api: &mut dyn NodeApi<f64>, _from: GridCoord, payload: f64) {
                api.exfiltrate(payload * 2.0);
            }
        }

        struct CollectApi {
            sends: Vec<(GridCoord, u64, FrameBuf)>,
            exfils: Vec<FrameBuf>,
        }
        impl NodeApi<FrameBuf> for CollectApi {
            fn coord(&self) -> GridCoord {
                GridCoord::new(0, 0)
            }
            fn grid(&self) -> wsn_core::VirtualGrid {
                wsn_core::VirtualGrid::new(2)
            }
            fn now(&self) -> wsn_sim::SimTime {
                wsn_sim::SimTime::ZERO
            }
            fn read_sensor(&mut self) -> f64 {
                0.0
            }
            fn compute(&mut self, _units: u64) {}
            fn send(&mut self, dest: GridCoord, units: u64, payload: FrameBuf) {
                self.sends.push((dest, units, payload));
            }
            fn exfiltrate(&mut self, payload: FrameBuf) {
                self.exfils.push(payload);
            }
        }

        let mut api = CollectApi {
            sends: vec![],
            exfils: vec![],
        };
        let mut program = FramedProgram::<f64, _>::new(Echo);
        program.on_init(&mut api);
        assert_eq!(api.sends.len(), 1);
        let (dest, units, frame) = api.sends.pop().unwrap();
        assert_eq!((dest, units), (GridCoord::new(1, 1), 2));
        assert_eq!(decode_framed::<f64>(&frame).unwrap(), 6.5);
        program.on_receive(&mut api, GridCoord::new(0, 0), frame);
        assert_eq!(decode_framed::<f64>(&api.exfils[0]).unwrap(), 13.0);
    }
}
