//! Execution of synthesized guarded-command programs.
//!
//! [`SynthesizedNode`] wraps a [`GuardedProgram`] as a
//! [`wsn_core::NodeProgram`], so the synthesizer's output runs unmodified
//! on the virtual machine *and* on the emulated physical network — the
//! synthesized artifact is executable, not just printable.
//!
//! Rule semantics follow §4.3's reactive model: after every event, the
//! state rules are rescanned and any whose condition holds fires, until no
//! rule is enabled (each of Figure 4's rules falsifies its own guard, so
//! the scan terminates; a fuel bound turns accidental livelock into a
//! panic instead of a hang).

use crate::program::{Action, Expr, Guard, GuardedProgram};
use std::collections::HashMap;
use std::rc::Rc;
use wsn_core::{GridCoord, Hierarchy, NodeApi, NodeProgram};

/// Application-supplied semantics of the opaque summary data.
pub trait SummarySemantics: 'static {
    /// The summary type flowing through `mySubGraph` and messages.
    type Data: Clone + 'static;

    /// The level-0 summary a leaf computes from its reading
    /// ("compute mySubGraph\[0\] from intra-cell readings").
    fn local_summary(&self, coord: GridCoord, reading: f64) -> Self::Data;

    /// Merges `incoming` into the accumulator for one extent.
    fn merge(&self, acc: Option<Self::Data>, incoming: &Self::Data) -> Self::Data;

    /// Size of a summary in cost-model data units (drives send cost).
    fn units(&self, data: &Self::Data) -> u64;

    /// Computation charged for producing a local summary.
    fn local_compute_units(&self) -> u64 {
        1
    }

    /// Computation charged for merging an incoming summary of the given
    /// size.
    fn merge_compute_units(&self, incoming_units: u64) -> u64 {
        incoming_units
    }
}

/// The message alphabet of Figure 4: `mGraph = {senderCoord, msubGraph,
/// mrecLevel}`.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryMsg<D> {
    /// `senderCoord`.
    pub sender: GridCoord,
    /// `mrecLevel` — the hierarchy level this data merges at.
    pub level: u8,
    /// `msubGraph`.
    pub data: D,
}

/// Fixed wire size of the `SummaryMsg` header: sender cell (two `u32`s),
/// merge level, and padding to an 8-byte boundary for the data section.
pub const SUMMARY_MSG_HEADER_BYTES: usize = 16;

/// A summary message encodes as its 16-byte header followed by the wire
/// form of its data — the first term of the certified
/// `summary_wire_bound_bytes` accounting. The data type supplies the
/// rest, so the bounded-payload property composes: `SummaryMsg<D>` fits
/// the frame whenever `D` does with 16 bytes to spare.
impl<D: wsn_core::framelayout::WirePayload> wsn_core::framelayout::WirePayload for SummaryMsg<D> {
    fn encoded_bytes(&self) -> usize {
        SUMMARY_MSG_HEADER_BYTES + self.data.encoded_bytes()
    }

    fn encode(&self, out: &mut [u8]) -> Result<usize, wsn_core::framelayout::WireError> {
        if out.len() < SUMMARY_MSG_HEADER_BYTES {
            return Err(wsn_core::framelayout::WireError::Overflow {
                needed: self.encoded_bytes(),
                capacity: out.len(),
            });
        }
        out[0..4].copy_from_slice(&self.sender.col.to_le_bytes());
        out[4..8].copy_from_slice(&self.sender.row.to_le_bytes());
        out[8] = self.level;
        out[9..SUMMARY_MSG_HEADER_BYTES].fill(0);
        let data = self.data.encode(&mut out[SUMMARY_MSG_HEADER_BYTES..])?;
        Ok(SUMMARY_MSG_HEADER_BYTES + data)
    }

    fn decode(bytes: &[u8]) -> Result<Self, wsn_core::framelayout::WireError> {
        if bytes.len() < SUMMARY_MSG_HEADER_BYTES {
            return Err(wsn_core::framelayout::WireError::Truncated(
                "summary-message header",
            ));
        }
        Ok(SummaryMsg {
            sender: GridCoord::new(
                u32::from_le_bytes(bytes[0..4].try_into().unwrap()),
                u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            ),
            level: bytes[8],
            data: D::decode(&bytes[SUMMARY_MSG_HEADER_BYTES..])?,
        })
    }
}

/// A node executing a synthesized program under the given semantics.
pub struct SynthesizedNode<S: SummarySemantics> {
    program: Rc<GuardedProgram>,
    semantics: Rc<S>,
    hierarchy: Hierarchy,
    vars: HashMap<String, i64>,
    my_sub_graph: Vec<Option<S::Data>>,
    msgs_received: Vec<i64>,
}

/// The incoming-message binding available while a `Received` rule runs.
struct Incoming<'d, D> {
    sender: GridCoord,
    level: u8,
    data: &'d D,
}

impl<S: SummarySemantics> SynthesizedNode<S> {
    /// Instantiates the program for one node. The same `program` and
    /// `semantics` are shared (`Rc`) across all nodes — SPMD, as in the
    /// paper ("the program that executes on each node of the network").
    pub fn new(program: Rc<GuardedProgram>, semantics: Rc<S>, grid_side: u32) -> Self {
        let hierarchy = Hierarchy::new(grid_side);
        assert_eq!(
            hierarchy.max_level(),
            program.max_level,
            "program synthesized for a different grid depth"
        );
        let levels = program.max_level as usize + 1;
        SynthesizedNode {
            vars: declared_state(&program),
            program,
            semantics,
            hierarchy,
            my_sub_graph: vec![None; levels + 1], // +1: recLevel can reach max+1
            msgs_received: vec![0; levels + 1],
        }
    }

    /// Current value of a scalar state variable (tests and diagnostics).
    pub fn var(&self, name: &str) -> Option<i64> {
        self.vars.get(name).copied()
    }

    #[allow(clippy::only_used_in_recursion)]
    fn eval(&self, e: &Expr, incoming: Option<&Incoming<'_, S::Data>>) -> i64 {
        match e {
            Expr::Int(v) => *v,
            Expr::Bool(b) => i64::from(*b),
            Expr::Var(name) => *self
                .vars
                .get(name)
                .unwrap_or_else(|| panic!("undeclared variable {name}")),
            Expr::Add(a, b) => self.eval(a, incoming) + self.eval(b, incoming),
            Expr::Sub(a, b) => self.eval(a, incoming) - self.eval(b, incoming),
            Expr::MsgsReceivedAt(idx) => {
                let i = self.eval(idx, incoming);
                self.msgs_received.get(i as usize).copied().unwrap_or(0)
            }
        }
    }

    fn eval_guard(
        &self,
        g: &Guard,
        api: &dyn NodeApi<SummaryMsg<S::Data>>,
        incoming: Option<&Incoming<'_, S::Data>>,
    ) -> bool {
        match g {
            Guard::Eq(a, b) => self.eval(a, incoming) == self.eval(b, incoming),
            Guard::Received => incoming.is_some(),
            Guard::IncomingFromSelf => incoming.map(|m| m.sender == api.coord()).unwrap_or(false),
            Guard::And(a, b) => {
                self.eval_guard(a, api, incoming) && self.eval_guard(b, api, incoming)
            }
        }
    }

    fn exec_actions(
        &mut self,
        actions: &[Action],
        api: &mut dyn NodeApi<SummaryMsg<S::Data>>,
        incoming: Option<&Incoming<'_, S::Data>>,
    ) {
        for action in actions {
            match action {
                Action::Set(name, expr) => {
                    let v = self.eval(expr, incoming);
                    assert!(
                        self.vars.contains_key(name),
                        "assignment to undeclared {name}"
                    );
                    self.vars.insert(name.clone(), v);
                }
                Action::ComputeLocalSummary => {
                    let reading = api.read_sensor();
                    let data = self.semantics.local_summary(api.coord(), reading);
                    api.compute(self.semantics.local_compute_units());
                    self.my_sub_graph[0] = Some(data);
                }
                Action::MergeIncoming => {
                    let m = incoming.expect("MergeIncoming outside a receive rule");
                    let units = self.semantics.units(m.data);
                    api.compute(self.semantics.merge_compute_units(units));
                    let slot = m.level as usize;
                    let acc = self.my_sub_graph[slot].take();
                    self.my_sub_graph[slot] = Some(self.semantics.merge(acc, m.data));
                }
                Action::CountIncoming => {
                    let m = incoming.expect("CountIncoming outside a receive rule");
                    self.msgs_received[m.level as usize] += 1;
                }
                Action::IfElse {
                    cond,
                    then,
                    otherwise,
                } => {
                    if self.eval_guard(cond, api, incoming) {
                        self.exec_actions(then, api, incoming);
                    } else {
                        self.exec_actions(otherwise, api, incoming);
                    }
                }
                Action::SendSummaryToLeader {
                    group_level,
                    data_level,
                } => {
                    let g = self.eval(group_level, incoming);
                    let dl = self.eval(data_level, incoming);
                    let data = self.my_sub_graph[dl as usize]
                        .clone()
                        .expect("sending an absent summary");
                    let units = self.semantics.units(&data);
                    let dest = self.hierarchy.leader(api.coord(), g as u8);
                    api.send(
                        dest,
                        units,
                        SummaryMsg {
                            sender: api.coord(),
                            level: g as u8,
                            data,
                        },
                    );
                }
                Action::ExfiltrateSummary { level } => {
                    let l = self.eval(level, incoming);
                    let data = self.my_sub_graph[l as usize]
                        .clone()
                        .expect("exfiltrating an absent summary");
                    api.exfiltrate(SummaryMsg {
                        sender: api.coord(),
                        level: l as u8,
                        data,
                    });
                }
            }
        }
    }

    fn run_until_stable(&mut self, api: &mut dyn NodeApi<SummaryMsg<S::Data>>) {
        let program = Rc::clone(&self.program);
        let mut fuel = 16 * (program.max_level as u32 + 4);
        'scan: loop {
            for rule in program.state_rules() {
                if self.eval_guard(&rule.guard, api, None) {
                    fuel = fuel.checked_sub(1).unwrap_or_else(|| {
                        panic!("guarded program livelocked (rule {:?})", rule.label)
                    });
                    self.exec_actions(&rule.actions, api, None);
                    continue 'scan;
                }
            }
            return;
        }
    }
}

/// Every declared variable at its initial value.
fn declared_state(program: &GuardedProgram) -> HashMap<String, i64> {
    program
        .state
        .iter()
        .map(|decl| (decl.name.clone(), eval_const(&decl.init)))
        .collect()
}

fn eval_const(e: &Expr) -> i64 {
    match e {
        Expr::Int(v) => *v,
        Expr::Bool(b) => i64::from(*b),
        other => panic!("state initializer must be constant, got {other:?}"),
    }
}

impl<S: SummarySemantics> NodeProgram<SummaryMsg<S::Data>> for SynthesizedNode<S> {
    fn on_init(&mut self, api: &mut dyn NodeApi<SummaryMsg<S::Data>>) {
        // Each round starts from the declared state, so a standing
        // deployment serves any number of rounds.
        self.vars = declared_state(&self.program);
        self.my_sub_graph.fill(None);
        self.msgs_received.fill(0);
        // The runtime trigger: Figure 4's `start` flips true.
        assert!(
            self.vars.contains_key("start"),
            "program lacks a start flag"
        );
        self.vars.insert("start".into(), 1);
        self.run_until_stable(api);
    }

    fn on_receive(
        &mut self,
        api: &mut dyn NodeApi<SummaryMsg<S::Data>>,
        from: GridCoord,
        payload: SummaryMsg<S::Data>,
    ) {
        let program = Rc::clone(&self.program);
        let incoming = Incoming {
            sender: from,
            level: payload.level,
            data: &payload.data,
        };
        for rule in program.receive_rules() {
            self.exec_actions(&rule.actions, api, Some(&incoming));
        }
        self.run_until_stable(api);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthesize::synthesize_quadtree_program;
    use wsn_core::{CostModel, Vm};

    /// Toy semantics: the "summary" is (sum, count) of readings.
    pub struct SumSemantics;

    impl SummarySemantics for SumSemantics {
        type Data = (i64, u32);
        fn local_summary(&self, _coord: GridCoord, reading: f64) -> (i64, u32) {
            (reading as i64, 1)
        }
        fn merge(&self, acc: Option<(i64, u32)>, incoming: &(i64, u32)) -> (i64, u32) {
            let (s, c) = acc.unwrap_or((0, 0));
            (s + incoming.0, c + incoming.1)
        }
        fn units(&self, _data: &(i64, u32)) -> u64 {
            1
        }
    }

    fn run_sum(side: u32, seed: u64) -> (Vec<(i64, u32)>, wsn_core::RunMetrics) {
        let program = Rc::new(synthesize_quadtree_program(
            Hierarchy::new(side).max_level(),
        ));
        let semantics = Rc::new(SumSemantics);
        let mut vm = Vm::new(
            side,
            CostModel::uniform(),
            seed,
            |c| f64::from(c.col * 10 + c.row),
            move |_| {
                Box::new(SynthesizedNode::new(
                    program.clone(),
                    semantics.clone(),
                    side,
                ))
            },
        );
        vm.run();
        let metrics = vm.metrics();
        let out = vm
            .take_exfiltrated()
            .into_iter()
            .map(|e| e.payload.data)
            .collect();
        (out, metrics)
    }

    #[test]
    fn quadtree_sum_reaches_root_exactly_once() {
        for side in [1u32, 2, 4, 8] {
            let (results, _) = run_sum(side, 3);
            assert_eq!(results.len(), 1, "side {side}: exactly one exfiltration");
            let (sum, count) = results[0];
            let expect: i64 = (0..side)
                .flat_map(|r| (0..side).map(move |c| i64::from(c * 10 + r)))
                .sum();
            assert_eq!(count, side * side, "side {side}: all leaves merged");
            assert_eq!(sum, expect, "side {side}");
        }
    }

    #[test]
    fn message_count_matches_estimator() {
        let side = 8u32;
        let program = Rc::new(synthesize_quadtree_program(3));
        let semantics = Rc::new(SumSemantics);
        let mut vm = Vm::new(
            side,
            CostModel::uniform(),
            1,
            |_| 1.0,
            move |_| {
                Box::new(SynthesizedNode::new(
                    program.clone(),
                    semantics.clone(),
                    side,
                ))
            },
        );
        vm.run();
        // Remote messages only (self-sends are messages too in vm.stats,
        // because the program addresses its own leader explicitly).
        // Estimator counts 3 remote per merge: (16+4+1)·3 = 63. The VM
        // additionally counts each merge's self-message: 21.
        assert_eq!(vm.stats().counter("vm.messages"), 63 + 21);
        let est = wsn_core::quadtree_merge_estimate(side, &CostModel::uniform(), &|_| 1, &|_| 1, 1);
        // Energy matches the closed form exactly: self-messages are free.
        let measured = vm.ledger().total();
        // Compute model differs slightly: the estimator charges
        // merge_compute once per merge; the interpreter charges per
        // incoming message (4 per merge, each of 1 unit) plus 1 per leaf.
        let merges = 16 + 4 + 1;
        let est_energy = est.total_energy - f64::from(merges) + f64::from(4 * merges);
        assert!(
            (measured - est_energy).abs() < 1e-9,
            "measured {measured} vs estimated {est_energy}"
        );
    }

    #[test]
    fn latency_matches_closed_form() {
        let (_, metrics) = run_sum(8, 5);
        let est = wsn_core::quadtree_merge_estimate(8, &CostModel::uniform(), &|_| 1, &|_| 1, 1);
        assert_eq!(metrics.latency_ticks, est.latency_ticks);
    }

    #[test]
    fn interpreter_is_deterministic() {
        assert_eq!(run_sum(8, 7).0, run_sum(8, 7).0);
    }

    #[test]
    fn non_leader_leaf_goes_dormant() {
        let side = 4u32;
        let program = Rc::new(synthesize_quadtree_program(2));
        let semantics = Rc::new(SumSemantics);
        let prog2 = program.clone();
        let mut vm = Vm::new(
            side,
            CostModel::uniform(),
            1,
            |_| 1.0,
            move |_| Box::new(SynthesizedNode::new(prog2.clone(), semantics.clone(), side)),
        );
        vm.run();
        // A plain follower (1,1) ends at recLevel 1, having sent once.
        // (Exposed via downcast through the VM is not possible from here;
        // instead assert the global invariant: one exfiltration, from the
        // origin.)
        let ex = vm.take_exfiltrated();
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].from, GridCoord::new(0, 0));
        assert_eq!(ex[0].payload.level, 2);
    }

    #[test]
    #[should_panic(expected = "different grid depth")]
    fn wrong_depth_program_rejected() {
        let program = Rc::new(synthesize_quadtree_program(2));
        let _ = SynthesizedNode::new(program, Rc::new(SumSemantics), 8);
    }
}
