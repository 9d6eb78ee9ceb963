//! The programming primitives of the virtual architecture.
//!
//! §3.2: "The virtual architecture in this case study supports send() and
//! receive() message passing primitives that a node can use to communicate
//! with any other node in the network. A group communication primitive is
//! also available that can be used by a node to directly address a level-k
//! leader as a logical entity."
//!
//! A [`NodeProgram`] is the per-node reactive program (the output of
//! program synthesis, §4.3): it reacts to an initialization event and to
//! received messages through a [`NodeApi`] capability handle. The *same*
//! program type runs unchanged on:
//!
//! * the ideal virtual machine ([`crate::vm::Vm`]) — the algorithm
//!   designer's view, and
//! * the emulated physical network (`wsn-runtime`) — the deployed view,
//!
//! which is precisely the portability the virtual architecture promises.

use crate::grid::{GridCoord, VirtualGrid};
use crate::groups::Hierarchy;
use wsn_sim::SimTime;

/// Capabilities available to a node program while it handles an event.
pub trait NodeApi<P> {
    /// This virtual node's grid coordinates (`myCoords` in Figure 4).
    fn coord(&self) -> GridCoord;

    /// The virtual topology.
    fn grid(&self) -> VirtualGrid;

    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Samples the sensing interface at this point of coverage.
    fn read_sensor(&mut self) -> f64;

    /// Performs `units` of computation (charged to the energy model;
    /// instantaneous in simulated time, as in the paper's step analysis).
    fn compute(&mut self, units: u64);

    /// Sends `payload` (of size `units` data units) to the virtual node at
    /// `dest` — the architecture's `send()` primitive. Delivery latency
    /// and energy follow the cost model and the hop distance.
    fn send(&mut self, dest: GridCoord, units: u64, payload: P);

    /// Delivers a final result out of the network (or stores it at this
    /// node — the paper leaves the choice to "end user requirements").
    fn exfiltrate(&mut self, payload: P);

    /// Remaining energy budget of the executing node, when the platform
    /// tracks one (§3.1: "querying the properties of sensor nodes such as
    /// residual energy levels is useful for resource management").
    fn residual_energy(&self) -> Option<f64> {
        None
    }

    /// The group-communication primitive: addresses this node's level-`level`
    /// leader as a logical entity (§3.2). Resolution is local — group
    /// membership is a pure function of coordinates.
    fn send_to_leader(&mut self, hierarchy: &Hierarchy, level: u8, units: u64, payload: P) {
        let dest = hierarchy.leader(self.coord(), level);
        self.send(dest, units, payload);
    }

    /// Reports that this node just completed its level-`level` quad-tree
    /// merge (§4.3: the quorum rule fired). Platforms with a stats sink
    /// record the instant into the level's [`MERGE_COMPLETE_KEYS`]
    /// histogram, which the telemetry layer turns into per-level spans;
    /// the default ignores the call.
    fn merge_complete(&mut self, level: u8) {
        let _ = level;
    }
}

macro_rules! merge_complete_keys {
    ($($level:literal)*) => {
        [$(concat!("merge.level", $level, ".complete")),*]
    };
}

/// The histogram key of the merge completions at each level: entry `l` is
/// `merge.level{l}.complete`. It covers every level a [`Hierarchy`] can
/// have, since a `u32` grid side has at most 31 halvings.
pub const MERGE_COMPLETE_KEYS: [&str; 32] = merge_complete_keys!(
    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
);

/// The causal milestone of a level-`level` merge completion,
/// `merge.level{level}`: its [`MERGE_COMPLETE_KEYS`] entry without
/// `.complete`.
pub fn merge_milestone(level: u8) -> &'static str {
    let key = MERGE_COMPLETE_KEYS[usize::from(level)];
    &key[..key.len() - ".complete".len()]
}

/// A reactive, event-driven node program (§4.3's programming model).
pub trait NodeProgram<P>: 'static {
    /// Fired once at start of the round (Figure 4's `start = true`).
    fn on_init(&mut self, api: &mut dyn NodeApi<P>);

    /// Fired on each received message.
    fn on_receive(&mut self, api: &mut dyn NodeApi<P>, from: GridCoord, payload: P);
}

/// Instantiates the program for each virtual node — the output of the
/// synthesis stage, parameterized by the node's role (coordinates).
pub type ProgramFactory<P> = Box<dyn FnMut(GridCoord) -> Box<dyn NodeProgram<P>>>;

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted NodeApi that records calls, for exercising default
    /// methods and program logic without a kernel.
    pub struct MockApi {
        pub coord: GridCoord,
        pub grid: VirtualGrid,
        pub sends: Vec<(GridCoord, u64, u32)>,
        pub exfiltrated: Vec<u32>,
        pub computed: u64,
        pub sensor: f64,
    }

    impl MockApi {
        pub fn at(col: u32, row: u32, side: u32) -> Self {
            MockApi {
                coord: GridCoord::new(col, row),
                grid: VirtualGrid::new(side),
                sends: vec![],
                exfiltrated: vec![],
                computed: 0,
                sensor: 0.0,
            }
        }
    }

    impl NodeApi<u32> for MockApi {
        fn coord(&self) -> GridCoord {
            self.coord
        }
        fn grid(&self) -> VirtualGrid {
            self.grid
        }
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn read_sensor(&mut self) -> f64 {
            self.sensor
        }
        fn compute(&mut self, units: u64) {
            self.computed += units;
        }
        fn send(&mut self, dest: GridCoord, units: u64, payload: u32) {
            self.sends.push((dest, units, payload));
        }
        fn exfiltrate(&mut self, payload: u32) {
            self.exfiltrated.push(payload);
        }
    }

    #[test]
    fn send_to_leader_resolves_through_hierarchy() {
        let h = Hierarchy::new(4);
        let mut api = MockApi::at(3, 1, 4);
        api.send_to_leader(&h, 1, 5, 42);
        assert_eq!(api.sends, vec![(GridCoord::new(2, 0), 5, 42)]);
        api.send_to_leader(&h, 2, 1, 7);
        assert_eq!(api.sends[1].0, GridCoord::new(0, 0));
    }

    #[test]
    fn default_stat_hooks_are_noops() {
        let mut api = MockApi::at(0, 0, 2);
        api.merge_complete(1);
        assert_eq!(api.computed, 0, "hooks must not charge the platform");
        assert!(api.sends.is_empty() && api.exfiltrated.is_empty());
    }

    #[test]
    fn merge_keys_cover_every_hierarchy_level() {
        let deepest = Hierarchy::new(1 << 31).max_level();
        assert_eq!(usize::from(deepest) + 1, MERGE_COMPLETE_KEYS.len());
        for level in 0..=deepest {
            let key = MERGE_COMPLETE_KEYS[usize::from(level)];
            assert_eq!(key, format!("merge.level{level}.complete"));
            assert_eq!(merge_milestone(level), format!("merge.level{level}"));
        }
    }

    #[test]
    fn send_to_leader_from_leader_is_self_send() {
        let h = Hierarchy::new(4);
        let mut api = MockApi::at(2, 0, 4);
        api.send_to_leader(&h, 1, 3, 9);
        assert_eq!(api.sends, vec![(GridCoord::new(2, 0), 3, 9)]);
    }

    /// A trivial program used to check the trait wiring compiles and runs.
    struct CountDown {
        hops: u32,
    }
    impl NodeProgram<u32> for CountDown {
        fn on_init(&mut self, api: &mut dyn NodeApi<u32>) {
            api.compute(1);
            if self.hops > 0 {
                api.send(GridCoord::new(0, 0), 1, self.hops);
            }
        }
        fn on_receive(&mut self, api: &mut dyn NodeApi<u32>, _from: GridCoord, payload: u32) {
            if payload == 0 {
                api.exfiltrate(0);
            } else {
                api.send(GridCoord::new(0, 0), 1, payload - 1);
            }
        }
    }

    #[test]
    fn programs_drive_the_api() {
        let mut api = MockApi::at(1, 1, 2);
        let mut p = CountDown { hops: 2 };
        p.on_init(&mut api);
        assert_eq!(api.computed, 1);
        assert_eq!(api.sends.len(), 1);
        p.on_receive(&mut api, GridCoord::new(0, 0), 0);
        assert_eq!(api.exfiltrated, vec![0]);
    }
}
