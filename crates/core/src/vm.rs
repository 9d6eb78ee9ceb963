//! The virtual machine: ideal execution of node programs on the virtual
//! topology.
//!
//! This is the algorithm designer's mental model made executable: every
//! virtual grid node runs its [`NodeProgram`]; `send()` delivers after
//! exactly `hops × hop_ticks(units)` ticks; energy is charged per the cost
//! model to the source (tx), every relay on the dimension-order route
//! (rx + tx), and the destination (rx). There is no loss, no contention,
//! no protocol overhead — those live in the runtime system, and the gap
//! between this level and the emulated physical level is measured by
//! experiment EXP-9.

use crate::cost::CostModel;
use crate::grid::{GridCoord, VirtualGrid};
use crate::metrics::RunMetrics;
use crate::program::{NodeApi, NodeProgram, MERGE_COMPLETE_KEYS};
use std::cell::RefCell;
use std::rc::Rc;
use wsn_net::{EnergyKind, EnergyLedger};
use wsn_sim::{Actor, ActorId, Context, Kernel, Payload, RunReport, SimTime, Stats};

/// The kernel message wrapping an application payload.
pub struct Envelope<P> {
    /// Originating virtual node.
    pub from: GridCoord,
    /// Application payload.
    pub payload: P,
}

impl<P: 'static> Payload for Envelope<P> {}

/// A result delivered out of the network by [`NodeApi::exfiltrate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Exfiltrated<P> {
    /// Node that exfiltrated.
    pub from: GridCoord,
    /// When it did.
    pub at: SimTime,
    /// The result.
    pub payload: P,
}

struct VmShared<P> {
    grid: VirtualGrid,
    cost: CostModel,
    ledger: RefCell<EnergyLedger>,
    exfil: RefCell<Vec<Exfiltrated<P>>>,
    field: Box<dyn Fn(GridCoord) -> f64>,
    actors: RefCell<Vec<ActorId>>,
}

impl<P> VmShared<P> {
    fn actor_of(&self, c: GridCoord) -> ActorId {
        self.actors.borrow()[self.grid.index(c)]
    }
}

struct VmNode<P: 'static> {
    coord: GridCoord,
    program: Box<dyn NodeProgram<P>>,
    shared: Rc<VmShared<P>>,
}

struct VmApi<'a, 'b, P: 'static> {
    coord: GridCoord,
    shared: &'a VmShared<P>,
    ctx: &'a mut Context<'b, Envelope<P>>,
}

impl<P: 'static> NodeApi<P> for VmApi<'_, '_, P> {
    fn coord(&self) -> GridCoord {
        self.coord
    }

    fn grid(&self) -> VirtualGrid {
        self.shared.grid
    }

    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn read_sensor(&mut self) -> f64 {
        (self.shared.field)(self.coord)
    }

    fn compute(&mut self, units: u64) {
        let idx = self.shared.grid.index(self.coord);
        self.shared.ledger.borrow_mut().charge(
            idx,
            EnergyKind::Compute,
            self.shared.cost.compute(units),
        );
        self.ctx.stats().add("vm.compute_units", units);
    }

    fn send(&mut self, dest: GridCoord, units: u64, payload: P) {
        let grid = self.shared.grid;
        assert!(
            grid.contains(dest),
            "send to {dest:?} outside the virtual grid"
        );
        let hops = grid.hops(self.coord, dest);
        {
            // Charge the whole store-and-forward path: source tx, relays
            // rx+tx, destination rx.
            let mut ledger = self.shared.ledger.borrow_mut();
            let cost = &self.shared.cost;
            let u = units as f64;
            if hops > 0 {
                ledger.charge(grid.index(self.coord), EnergyKind::Tx, u * cost.tx_energy);
                let route = grid.route(self.coord, dest);
                for &relay in &route[..route.len() - 1] {
                    ledger.charge(grid.index(relay), EnergyKind::Rx, u * cost.rx_energy);
                    ledger.charge(grid.index(relay), EnergyKind::Tx, u * cost.tx_energy);
                }
                ledger.charge(grid.index(dest), EnergyKind::Rx, u * cost.rx_energy);
            }
        }
        let delay = SimTime::from_ticks(self.shared.cost.path_ticks(hops, units));
        let target = self.shared.actor_of(dest);
        self.ctx.stats().incr("vm.messages");
        self.ctx.stats().add("vm.data_units", units);
        self.ctx.stats().observe("vm.hops", f64::from(hops));
        self.ctx.send(
            target,
            delay,
            Envelope {
                from: self.coord,
                payload,
            },
        );
    }

    fn exfiltrate(&mut self, payload: P) {
        self.ctx.stats().incr("vm.exfiltrated");
        self.shared.exfil.borrow_mut().push(Exfiltrated {
            from: self.coord,
            at: self.ctx.now(),
            payload,
        });
    }

    fn residual_energy(&self) -> Option<f64> {
        let idx = self.shared.grid.index(self.coord);
        self.shared.ledger.borrow().residual(idx)
    }

    fn merge_complete(&mut self, level: u8) {
        let at = self.ctx.now().ticks() as f64;
        self.ctx
            .stats()
            .observe(MERGE_COMPLETE_KEYS[usize::from(level)], at);
    }
}

impl<P: 'static> Actor<Envelope<P>> for VmNode<P> {
    fn on_timer(&mut self, ctx: &mut Context<'_, Envelope<P>>, _tag: u64) {
        let mut api = VmApi {
            coord: self.coord,
            shared: &self.shared,
            ctx,
        };
        self.program.on_init(&mut api);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Envelope<P>>, _from: ActorId, msg: Envelope<P>) {
        let mut api = VmApi {
            coord: self.coord,
            shared: &self.shared,
            ctx,
        };
        self.program.on_receive(&mut api, msg.from, msg.payload);
    }
}

/// Outcome of a virtual-machine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VmReport {
    /// Kernel-level summary.
    pub run: RunReport,
    /// Number of exfiltrated results.
    pub exfil_count: usize,
    /// Time of the last exfiltration (the usual latency measure).
    pub last_exfil: Option<SimTime>,
}

/// Executes node programs on the ideal virtual grid.
pub struct Vm<P: 'static> {
    kernel: Kernel<Envelope<P>>,
    shared: Rc<VmShared<P>>,
}

impl<P: 'static> Vm<P> {
    /// Builds a VM over a `side × side` grid.
    ///
    /// * `field` gives the sensor reading at each point of coverage;
    /// * `factory` instantiates each node's program from its coordinates
    ///   (the synthesis output);
    /// * `seed` feeds the deterministic per-node RNG streams.
    pub fn new(
        side: u32,
        cost: CostModel,
        seed: u64,
        field: impl Fn(GridCoord) -> f64 + 'static,
        mut factory: impl FnMut(GridCoord) -> Box<dyn NodeProgram<P>>,
    ) -> Self {
        let grid = VirtualGrid::new(side);
        let shared = Rc::new(VmShared {
            grid,
            cost,
            ledger: RefCell::new(EnergyLedger::unlimited(grid.node_count())),
            exfil: RefCell::new(Vec::new()),
            field: Box::new(field),
            actors: RefCell::new(Vec::with_capacity(grid.node_count())),
        });
        let mut kernel: Kernel<Envelope<P>> = Kernel::new(seed);
        for coord in grid.nodes() {
            let id = kernel.add_actor(Box::new(VmNode {
                coord,
                program: factory(coord),
                shared: shared.clone(),
            }));
            shared.actors.borrow_mut().push(id);
            // Fire on_init at t=0 (Figure 4's `start = true` condition).
            kernel.schedule_timer(SimTime::ZERO, id, 0);
        }
        Vm { kernel, shared }
    }

    /// The virtual topology.
    pub fn grid(&self) -> VirtualGrid {
        self.shared.grid
    }

    /// Runs to quiescence.
    pub fn run(&mut self) -> VmReport {
        let run = self.kernel.run();
        self.report(run)
    }

    /// Runs until `until` at the latest.
    pub fn run_until(&mut self, until: SimTime) -> VmReport {
        let run = self.kernel.run_until(until);
        self.report(run)
    }

    fn report(&self, run: RunReport) -> VmReport {
        let exfil = self.shared.exfil.borrow();
        VmReport {
            run,
            exfil_count: exfil.len(),
            last_exfil: exfil.iter().map(|e| e.at).max(),
        }
    }

    /// Removes and returns everything exfiltrated so far.
    pub fn take_exfiltrated(&mut self) -> Vec<Exfiltrated<P>> {
        std::mem::take(&mut self.shared.exfil.borrow_mut())
    }

    /// Snapshot of the per-virtual-node energy ledger.
    pub fn ledger(&self) -> EnergyLedger {
        self.shared.ledger.borrow().clone()
    }

    /// Kernel statistics (message counts, hop histogram, …).
    pub fn stats(&self) -> &Stats {
        self.kernel.stats()
    }

    /// The standard metric bundle, with latency = last exfiltration (or
    /// kernel end time when nothing exfiltrated).
    pub fn metrics(&self) -> RunMetrics {
        let exfil = self.shared.exfil.borrow();
        let latency = exfil
            .iter()
            .map(|e| e.at)
            .max()
            .unwrap_or(self.kernel.now())
            .ticks();
        RunMetrics::from_ledger(
            &self.shared.ledger.borrow(),
            latency,
            self.kernel.stats().counter("vm.messages"),
            self.kernel.stats().counter("vm.data_units"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every node sends its reading (1 unit) to the origin; the origin
    /// counts and exfiltrates the total when all arrived.
    struct Gather {
        expected: usize,
        seen: usize,
        sum: f64,
    }

    impl NodeProgram<f64> for Gather {
        fn on_init(&mut self, api: &mut dyn NodeApi<f64>) {
            let v = api.read_sensor();
            api.compute(1);
            if api.coord() != GridCoord::new(0, 0) {
                api.send(GridCoord::new(0, 0), 1, v);
            } else {
                self.sum += v;
                self.seen += 1;
            }
        }
        fn on_receive(&mut self, api: &mut dyn NodeApi<f64>, _from: GridCoord, payload: f64) {
            self.sum += payload;
            self.seen += 1;
            if self.seen == self.expected {
                api.exfiltrate(self.sum);
            }
        }
    }

    fn gather_vm(side: u32) -> Vm<f64> {
        let n = (side as usize).pow(2);
        Vm::new(
            side,
            CostModel::uniform(),
            1,
            |c| f64::from(c.col + c.row),
            move |_| {
                Box::new(Gather {
                    expected: n,
                    seen: 0,
                    sum: 0.0,
                })
            },
        )
    }

    #[test]
    fn gather_computes_exact_sum_and_latency() {
        let side = 4;
        let mut vm = gather_vm(side);
        let report = vm.run();
        assert_eq!(report.exfil_count, 1);
        // Latency = farthest node's path: 6 hops × 1 unit = 6 ticks.
        assert_eq!(report.last_exfil, Some(SimTime::from_ticks(6)));
        let results = vm.take_exfiltrated();
        let expected_sum: f64 = (0..side)
            .flat_map(|r| (0..side).map(move |c| f64::from(c + r)))
            .sum();
        assert_eq!(results[0].payload, expected_sum);
        assert_eq!(results[0].from, GridCoord::new(0, 0));
    }

    #[test]
    fn gather_energy_matches_closed_form() {
        let side = 4u32;
        let mut vm = gather_vm(side);
        vm.run();
        let ledger = vm.ledger();
        // Each node (c,r) ≠ origin moves 1 unit over c+r hops: 2 energy/hop.
        let expected_path: f64 = (0..side)
            .flat_map(|r| (0..side).map(move |c| f64::from(c + r)))
            .sum::<f64>()
            * 2.0;
        let expected_compute = f64::from(side * side); // 1 unit each on init
        assert!((ledger.total() - (expected_path + expected_compute)).abs() < 1e-9);
        // The origin relays nothing but receives 15 messages: rx = 15... no:
        // only messages addressed to it; every message terminates there, so
        // rx at origin = 15 units.
        assert_eq!(
            ledger.consumed_kind(vm.grid().index(GridCoord::new(0, 0)), EnergyKind::Rx),
            15.0
        );
    }

    #[test]
    fn messages_and_units_counted() {
        let mut vm = gather_vm(4);
        vm.run();
        assert_eq!(vm.stats().counter("vm.messages"), 15);
        assert_eq!(vm.stats().counter("vm.data_units"), 15);
        assert_eq!(vm.stats().counter("vm.exfiltrated"), 1);
        let m = vm.metrics();
        assert_eq!(m.messages, 15);
        assert_eq!(m.latency_ticks, 6);
        assert!(m.energy_balance > 0.0 && m.energy_balance <= 1.0);
    }

    #[test]
    fn self_send_is_free_and_immediate() {
        struct SelfSend {
            done: bool,
        }
        impl NodeProgram<f64> for SelfSend {
            fn on_init(&mut self, api: &mut dyn NodeApi<f64>) {
                let me = api.coord();
                api.send(me, 100, 1.0);
            }
            fn on_receive(&mut self, api: &mut dyn NodeApi<f64>, from: GridCoord, _p: f64) {
                assert_eq!(from, api.coord());
                self.done = true;
                api.exfiltrate(0.0);
            }
        }
        let mut vm: Vm<f64> = Vm::new(
            1,
            CostModel::uniform(),
            3,
            |_| 0.0,
            |_| Box::new(SelfSend { done: false }),
        );
        let report = vm.run();
        assert_eq!(report.exfil_count, 1);
        assert_eq!(report.last_exfil, Some(SimTime::ZERO));
        assert_eq!(vm.ledger().total(), 0.0, "self-sends cost nothing");
    }

    #[test]
    fn relay_nodes_pay_rx_and_tx() {
        struct OneShot;
        impl NodeProgram<f64> for OneShot {
            fn on_init(&mut self, api: &mut dyn NodeApi<f64>) {
                if api.coord() == GridCoord::new(0, 0) {
                    api.send(GridCoord::new(2, 0), 4, 9.0);
                }
            }
            fn on_receive(&mut self, _api: &mut dyn NodeApi<f64>, _f: GridCoord, _p: f64) {}
        }
        let mut vm: Vm<f64> = Vm::new(3, CostModel::uniform(), 3, |_| 0.0, |_| Box::new(OneShot));
        vm.run();
        let ledger = vm.ledger();
        let g = vm.grid();
        assert_eq!(ledger.consumed(g.index(GridCoord::new(0, 0))), 4.0); // tx only
        assert_eq!(ledger.consumed(g.index(GridCoord::new(1, 0))), 8.0); // rx+tx
        assert_eq!(ledger.consumed(g.index(GridCoord::new(2, 0))), 4.0); // rx only
        assert_eq!(ledger.consumed(g.index(GridCoord::new(0, 1))), 0.0);
    }

    #[test]
    fn vm_runs_are_deterministic() {
        let run = || {
            let mut vm = gather_vm(8);
            vm.run();
            (vm.metrics(), vm.take_exfiltrated().pop().map(|e| e.payload))
        };
        let (m1, r1) = run();
        let (m2, r2) = run();
        assert_eq!(m1, m2);
        assert_eq!(r1, r2);
    }

    #[test]
    #[should_panic(expected = "outside the virtual grid")]
    fn send_outside_grid_panics() {
        struct Bad;
        impl NodeProgram<f64> for Bad {
            fn on_init(&mut self, api: &mut dyn NodeApi<f64>) {
                api.send(GridCoord::new(9, 9), 1, 0.0);
            }
            fn on_receive(&mut self, _: &mut dyn NodeApi<f64>, _: GridCoord, _: f64) {}
        }
        let mut vm: Vm<f64> = Vm::new(2, CostModel::uniform(), 1, |_| 0.0, |_| Box::new(Bad));
        vm.run();
    }
}
