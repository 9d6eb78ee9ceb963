//! The framed-program adapter behind `PhysicalRuntime<FrameBuf>`.
//!
//! A frame carries one application payload and nothing else. The
//! runtime's own messages stay typed [`RtMsg`](crate::RtMsg) values: a
//! framed run's `RtMsg::App` envelope holds a [`FrameBuf`] where a typed
//! run holds the payload itself. Routing fields and the causal stamp ride
//! in the typed envelope ([`AppEnvelope::stamp`](crate::AppEnvelope)), so
//! a relay stamps the envelope and never touches the frame's bytes.
//!
//! [`FramedProgram`] wraps any typed [`NodeProgram`] into a
//! `NodeProgram<FrameBuf>`: sends encode the payload into a fresh frame
//! (a stack value — cloning it through the medium is a memcpy), receives
//! decode once at the destination leader. Running
//! `PhysicalRuntime<FrameBuf>` this way keeps the entire hop-by-hop relay
//! path allocation-free, which is what the `wsn-lint gate alloc`
//! counting-allocator harness asserts.

use std::marker::PhantomData;
use wsn_core::{GridCoord, NodeApi, NodeProgram};
use wsn_net::{FrameBuf, WireError, WirePayload};

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
    fn merge_complete(&mut self, level: u8) {
        self.inner.merge_complete(level);
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
