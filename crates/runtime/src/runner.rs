//! Orchestration of the runtime phases on one deployment.
//!
//! [`PhysicalRuntime`] owns the kernel, the shared medium, and one
//! [`RtNode`] actor per physical node. The harness drives it through the
//! paper's pipeline:
//!
//! 1. [`PhysicalRuntime::run_topology_emulation`] — §5.1;
//! 2. [`PhysicalRuntime::run_binding`] — §5.2 election + announce flood;
//! 3. [`PhysicalRuntime::install_programs`] + [`PhysicalRuntime::run_application`]
//!    — execute the synthesized per-virtual-node programs on the emulated
//!    grid.
//!
//! Each phase runs the kernel to quiescence, so phases never interleave —
//! matching the paper's presentation where emulation and binding complete
//! before the application starts. [`PhysicalRuntime::refresh_after_churn`]
//! re-runs phases 1–2, modeling the paper's "the above protocol should
//! execute periodically".

use crate::messages::RtMsg;
use crate::node::{
    dir_idx, ArqConfig, ElectionPolicy, HeartbeatConfig, RtNode, RtShared, TAG_ANNOUNCE, TAG_APP,
    TAG_BIND, TAG_SAMPLE, TAG_TOPO,
};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use wsn_core::ShardPlan;
use wsn_core::{
    Direction, Exfiltrated, GridCoord, NodeProgram, ProgramFactory, RunMetrics, VirtualGrid,
    CTR_DATA_UNITS, CTR_MESSAGES, MERGE_COMPLETE_KEYS,
};
use wsn_net::{
    ChaosError, ChaosPlan, Deployment, EnergyKind, EnergyLedger, LinkModel, Medium, RadioModel,
    SharedMedium, UnitDiskGraph,
};
use wsn_obs::{labeled, NodeSnapshot, SpanNode, SpanRecorder, TraceDocument, TraceMeta};
use wsn_sim::{
    order_tap, shared_causal_log, ActorId, BarrierReplay, Kernel, OrderTap, RunReport, ShardObs,
    ShardSchedule, SharedCausalLog, SimTime, Stats, StopReason,
};

/// Result of one topology-emulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoReport {
    /// Ticks from kick-off to quiescence.
    pub elapsed_ticks: u64,
    /// Table broadcasts sent.
    pub broadcasts: u64,
    /// Receptions ignored because they had crossed a cell boundary.
    pub suppressed: u64,
    /// Whether every live node filled every direction that leads to an
    /// existing neighbor cell.
    pub complete: bool,
}

/// Result of one binding (election + announce) run.
#[derive(Debug, Clone, PartialEq)]
pub struct BindReport {
    /// Ticks for both sub-phases.
    pub elapsed_ticks: u64,
    /// Elected leader per cell, in [`VirtualGrid::index`] order; `None`
    /// where no unique leader was elected.
    pub leaders: Vec<Option<usize>>,
    /// Whether every cell elected exactly one leader.
    pub unique: bool,
    /// Whether every live node learned its leader and parent.
    pub tree_complete: bool,
    /// Delta broadcasts sent during the election.
    pub delta_broadcasts: u64,
}

/// Result of one application run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppReport {
    /// Ticks from application start to quiescence.
    pub elapsed_ticks: u64,
    /// Ticks from application start to the last exfiltration.
    pub last_exfil_ticks: Option<u64>,
    /// Results exfiltrated during this run.
    pub exfil_count: usize,
    /// Logical (virtual-level) messages sent by programs.
    pub messages: u64,
    /// Physical forwarding hops taken by those messages.
    pub physical_hops: u64,
    /// ARQ retransmissions during this run (0 when ARQ is off).
    pub retransmissions: u64,
}

/// Configuration of a sustained mission: repeated application rounds with
/// node churn and periodic protocol refresh (§5.1: "the above protocol
/// should execute periodically" because "existing nodes can leave or
/// fail").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissionConfig {
    /// Application rounds to run.
    pub rounds: u32,
    /// Re-run topology emulation + binding every this many rounds
    /// (0 = never refresh).
    pub refresh_every: u32,
    /// Random live nodes killed before each round.
    pub churn_per_round: usize,
    /// Seed for the churn choices.
    pub churn_seed: u64,
    /// Stop the mission as soon as any node has died (for lifetime
    /// studies under energy budgets).
    pub stop_on_first_death: bool,
}

/// Outcome of a sustained mission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissionReport {
    /// Rounds attempted.
    pub rounds: u32,
    /// Rounds whose application produced the expected exfiltrations.
    pub completed: u32,
    /// Completion flag per round, in order.
    pub per_round: Vec<bool>,
    /// Nodes killed by churn.
    pub killed: usize,
    /// Protocol refreshes performed.
    pub refreshes: u32,
    /// Live nodes at the end.
    pub survivors: usize,
}

/// Configuration of the self-healing loop driven by
/// [`PhysicalRuntime::run_chaos_mission`]: the application runs in
/// bounded epochs, leader liveness is watched through heartbeat leases,
/// and the §5.1 "executes periodically" re-emulation/re-binding fires
/// automatically on lease expiry or on a fixed period — no test driver
/// calls [`PhysicalRuntime::refresh_after_churn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfHealConfig {
    /// Leader beacon period and follower lease.
    pub heartbeat: HeartbeatConfig,
    /// Simulated ticks per epoch; liveness is checked at each boundary.
    pub epoch_ticks: u64,
    /// Epochs before the mission gives up (bounds wall-clock under any
    /// chaos schedule).
    pub max_epochs: u32,
    /// Time horizon for each bounded protocol re-run during a heal.
    pub phase_budget_ticks: u64,
    /// Kernel event budget per bounded run; exhausting it reports a
    /// stall (livelock guard) instead of hanging.
    pub max_events_per_epoch: u64,
    /// Also re-emulate/re-bind every this many epochs even without an
    /// expired lease (0 = only heal on lease expiry).
    pub refresh_every_epochs: u32,
}

impl Default for SelfHealConfig {
    fn default() -> Self {
        SelfHealConfig {
            heartbeat: HeartbeatConfig {
                period_ticks: 25,
                lease_ticks: 120,
            },
            epoch_ticks: 150,
            max_epochs: 24,
            phase_budget_ticks: 400,
            max_events_per_epoch: 2_000_000,
            refresh_every_epochs: 0,
        }
    }
}

/// Outcome of one self-healing chaos mission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosMissionReport {
    /// Epochs executed (≤ `max_epochs`).
    pub epochs: u32,
    /// Self-heals performed (lease-triggered or periodic).
    pub heals: u32,
    /// Expired leader leases observed at epoch boundaries.
    pub leases_expired: u64,
    /// Cells whose leader changed across a heal.
    pub reelections: u64,
    /// Exfiltrations produced during the mission.
    pub exfil_count: usize,
    /// The kernel event budget was exhausted (suspected livelock).
    pub stalled: bool,
    /// `expected_exfils` results arrived.
    pub completed: bool,
    /// Simulated ticks the mission consumed.
    pub elapsed_ticks: u64,
}

/// Configuration of sharded (parallel-scheduler) execution: the network
/// is split into the level-`cut_level` quad-tree quadrants of
/// [`wsn_core::ShardPlan`], one scheduler worker per quadrant, with
/// cross-shard messages exchanged at window barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Quad-tree cut level (1 = 4 shards, 2 = 16, …). Must not exceed the
    /// grid's quad-tree depth.
    pub cut_level: u32,
    /// Logical worker lanes the shards are striped over. Any value
    /// produces identical observables (the property tests enforce this);
    /// it exists to exercise stripe-order independence.
    pub workers: usize,
}

/// A planted defect of the sharded engine, armed through
/// [`PhysicalRuntime::plant_shard_mutation`] so the check guarding that
/// part of the engine can prove it notices. Never planted elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMutation {
    /// Boundary traffic merges in a deliberately wrong order
    /// ([`ShardSchedule::with_misordered_merge`]).
    MisorderedMerge,
    /// Shard 0's telemetry counter drops one dispatch per window
    /// ([`ShardObs::with_undercount_tap`]).
    UndercountTap,
}

impl ParallelConfig {
    /// One worker lane per shard at `cut_level`.
    pub fn at_cut(cut_level: u32) -> Self {
        ParallelConfig {
            cut_level,
            workers: 1,
        }
    }
}

/// A deployed network executing the runtime system.
pub struct PhysicalRuntime<P: Clone + 'static> {
    kernel: Kernel<RtMsg<P>>,
    medium: SharedMedium,
    deployment: Deployment,
    grid: VirtualGrid,
    actors: Vec<ActorId>,
    shared: Rc<RtShared<P>>,
    factory: Option<ProgramFactory<P>>,
    exfil_seen: usize,
    seed: u64,
    /// Kernel events dispatched across every phase so far.
    events_total: u64,
    /// Phase counters and gauges mirroring the phase reports; empty unless
    /// [`PhysicalRuntime::enable_telemetry`] was called.
    telemetry: Stats,
    /// Per-shard accounting from sharded runs (`shard=`-labeled keys),
    /// kept apart from `telemetry` because it exists only on the sharded
    /// engine: folding it into the main store would make
    /// [`PhysicalRuntime::record_trace`] documents differ between
    /// engines, which the bit-identical differential suite forbids.
    shard_telemetry: Stats,
    /// Phase span tree, populated only while telemetry is enabled.
    spans: SpanRecorder,
    /// Causal event log shared with the medium and every node; `None`
    /// unless [`PhysicalRuntime::enable_causal_tracing`] was called.
    causal: Option<SharedCausalLog>,
    /// Reusable per-node transmit-energy scratch for the application
    /// phase's telemetry delta — indexed ledger reads instead of a fresh
    /// [`wsn_net::EnergySnapshot`] vector per run.
    tx_scratch: Vec<f64>,
    /// Reusable per-cell leader scratch for the self-heal loop — the
    /// steady-state hot path must not allocate per epoch.
    leader_scratch: Vec<Option<usize>>,
    /// Defect planted in every sharded run; `None` outside mutation checks.
    shard_mutation: Option<ShardMutation>,
    /// The schedule of the last sharded run and the config it serves, so
    /// that rounds on a standing deployment do not rebuild it.
    schedule: Option<(ParallelConfig, Rc<ShardSchedule>)>,
    /// The order tap every sharded run wires into the medium, the causal
    /// log and the exfiltration buffer, made by the first one.
    order_tap: Option<OrderTap>,
    /// The scratch those three replay their staged entries through at
    /// every window barrier.
    replay: BarrierReplay,
}

impl<P: Clone + 'static> PhysicalRuntime<P> {
    /// Builds the runtime over `deployment`.
    ///
    /// * `radio`/`link` — physical parameters; `radio.range` should be at
    ///   least [`wsn_net::CellGrid::range_for_adjacent_cell_reachability`]
    ///   for the paper's adjacency assumption to hold;
    /// * `budget` — optional per-node energy budget (lifetime studies);
    /// * `control_units` — size of a protocol control message;
    /// * `field` — sensor readings by point of coverage;
    /// * `seed` — determinism root.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        deployment: Deployment,
        radio: RadioModel,
        link: LinkModel,
        budget: Option<f64>,
        control_units: u64,
        seed: u64,
        field: impl Fn(GridCoord) -> f64 + 'static,
    ) -> Self {
        let n = deployment.node_count();
        let graph = UnitDiskGraph::build(deployment.positions(), radio.range);
        let ledger = match budget {
            Some(b) => EnergyLedger::with_budget(n, b),
            None => EnergyLedger::unlimited(n),
        };
        let medium = Medium::new(graph, radio, link, ledger).shared();
        let grid = VirtualGrid::new(deployment.grid().cells_per_side());
        let shared = Rc::new(RtShared {
            grid,
            field: Box::new(field),
            cells: (0..n).map(|i| deployment.cell_of_node(i)).collect(),
            control_units,
            election_policy: Cell::new(ElectionPolicy::default()),
            arq: Cell::new(None),
            heartbeat: Cell::new(None),
            exfil: RefCell::new(Vec::new()),
            tap: RefCell::new(None),
            staged_exfil: RefCell::new(Vec::new()),
        });

        let mut kernel: Kernel<RtMsg<P>> = Kernel::new(seed);
        let mut actors = Vec::with_capacity(n);
        for i in 0..n {
            let cell = shared.cells[i];
            let node = RtNode::new(
                i,
                cell,
                deployment.position(i),
                deployment.grid().cell_center(cell),
                medium.clone(),
                shared.clone(),
            );
            let a = kernel.add_actor(Box::new(node));
            medium.borrow_mut().bind_actor(i, a);
            actors.push(a);
        }
        PhysicalRuntime {
            kernel,
            medium,
            deployment,
            grid,
            actors,
            shared,
            factory: None,
            exfil_seen: 0,
            seed,
            events_total: 0,
            telemetry: Stats::new(),
            shard_telemetry: Stats::new(),
            spans: SpanRecorder::new(),
            causal: None,
            tx_scratch: Vec::new(),
            leader_scratch: Vec::new(),
            shard_mutation: None,
            schedule: None,
            order_tap: None,
            replay: BarrierReplay::default(),
        }
    }

    /// Turns the telemetry layer on: phase spans, phase counters and
    /// gauges mirroring the phase reports, per-shard accounting of sharded
    /// runs, and kernel dispatch-latency / queue-depth histograms. With
    /// `trace_events`, the kernel also records every dispatched event
    /// (memory grows with the run — meant for inspection traces, not
    /// parameter sweeps).
    pub fn enable_telemetry(&mut self, trace_events: bool) {
        self.kernel.enable_metrics();
        if trace_events {
            self.kernel.enable_tracing();
        }
    }

    /// Whether [`PhysicalRuntime::enable_telemetry`] was called: it is the
    /// only switch for the kernel's metrics.
    fn telemetry_on(&self) -> bool {
        self.kernel.metrics_enabled()
    }

    /// Adds `delta` to the phase counter `key` while telemetry is on.
    fn tally(&mut self, key: &str, delta: u64) {
        if self.telemetry_on() {
            self.telemetry.add(key, delta);
        }
    }

    /// The phase counters and gauges (empty unless
    /// [`PhysicalRuntime::enable_telemetry`] was called).
    pub fn telemetry(&self) -> &Stats {
        &self.telemetry
    }

    /// Per-shard accounting filled by sharded runs (empty unless
    /// telemetry is on — and untouched by sequential runs, which have no
    /// shards). Keys carry a `shard=` label built with
    /// [`wsn_obs::labeled`]; merge it into a trace document with
    /// [`TraceDocument::absorb_stats`] when exporting shard metrics.
    pub fn shard_telemetry(&self) -> &Stats {
        &self.shard_telemetry
    }

    /// Turns causal tracing on: every subsequent radio transmission,
    /// delivery, and application milestone (start, hop, merge completion,
    /// exfiltration) is Lamport-stamped into a shared [`wsn_sim::CausalLog`]
    /// that [`PhysicalRuntime::record_trace`] exports. Call it *after* the
    /// control phases (topology emulation, binding) and before
    /// [`PhysicalRuntime::run_application`] to capture an application-only
    /// happens-before DAG — the shape the critical-path profiler expects.
    pub fn enable_causal_tracing(&mut self) {
        let log = shared_causal_log();
        self.medium.borrow_mut().set_causal(log.clone());
        for &a in &self.actors {
            if let Some(node) = self.kernel.actor_mut::<RtNode<P>>(a) {
                node.enable_causal(log.clone());
            }
        }
        self.causal = Some(log);
    }

    /// The shared causal log, if [`PhysicalRuntime::enable_causal_tracing`]
    /// was called.
    pub fn causal_log(&self) -> Option<&SharedCausalLog> {
        self.causal.as_ref()
    }

    /// The recorded phase spans.
    pub fn spans(&self) -> &SpanRecorder {
        &self.spans
    }

    fn span_open(&mut self, name: &str) {
        if self.telemetry_on() {
            self.spans.open(name, self.kernel.now());
        }
    }

    fn span_close(&mut self, events: u64) {
        if self.telemetry_on() {
            self.spans.close(self.kernel.now(), events);
        }
    }

    /// The deployment this runtime executes on.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The virtual grid being emulated.
    pub fn grid(&self) -> VirtualGrid {
        self.grid
    }

    /// The shared medium (energy ledger, liveness, connectivity).
    pub fn medium(&self) -> &SharedMedium {
        &self.medium
    }

    /// Swaps the link model for subsequent traffic — e.g. reliable links
    /// for the control phases, lossy links for the application.
    pub fn set_link_model(&mut self, link: LinkModel) {
        self.medium.borrow_mut().set_link(link);
    }

    /// Swaps the channel-access discipline (e.g. TDMA for a synchronized
    /// application phase — §2's synchronous network model).
    pub fn set_mac_model(&mut self, mac: wsn_net::MacModel) {
        self.medium.borrow_mut().set_mac(mac);
    }

    /// Gives every node additive Gaussian sensor noise (σ =
    /// `noise_std_dev`), drawn deterministically from `seed`. With noise,
    /// the intra-cell sampling phase ([`PhysicalRuntime::run_sampling`])
    /// becomes meaningful: leaders average their followers' samples and
    /// suppress it.
    pub fn set_sampling_noise(&mut self, noise_std_dev: f64, seed: u64) {
        let mut rng = wsn_sim::DetRng::stream(seed, 0x5A3);
        for &a in &self.actors {
            let noise = rng.normal(0.0, noise_std_dev);
            if let Some(node) = self.kernel.actor_mut::<RtNode<P>>(a) {
                node.noise = noise;
            }
        }
    }

    /// Optional phase between binding and the application: followers ship
    /// their raw readings up the spanning tree; leaders aggregate the mean
    /// (the paper's "compute `mySubGraph[0]` from intra-cell readings").
    /// Returns `(elapsed ticks, samples delivered to leaders)`.
    pub fn run_sampling(&mut self) -> (u64, u64) {
        let start = self.kernel.now();
        let d0 = self.kernel.stats().counter("sample.delivered");
        self.span_open("sampling");
        for &a in &self.actors {
            self.kernel.schedule_timer(start, a, TAG_SAMPLE);
        }
        let run = self.kernel.run();
        self.events_total += run.events_processed;
        self.span_close(run.events_processed);
        let delivered = self.kernel.stats().counter("sample.delivered") - d0;
        self.tally("phase.sample.delivered", delivered);
        (run.end_time - start, delivered)
    }

    /// Sets the leader-election policy on every node (takes effect at the
    /// next binding run or refresh).
    pub fn set_election_policy(&mut self, policy: ElectionPolicy) {
        self.shared.election_policy.set(policy);
    }

    /// Enables hop-by-hop ARQ (ack + retransmit) for application traffic
    /// on every node — the liveness extension EXP-12 motivates.
    pub fn enable_arq(&mut self, max_retries: u32, timeout_ticks: u64) {
        self.shared.arq.set(Some(ArqConfig {
            max_retries,
            timeout_ticks,
        }));
    }

    /// Kernel statistics.
    pub fn stats(&self) -> &Stats {
        self.kernel.stats()
    }

    /// Immutable view of physical node `i`'s protocol state.
    pub fn node(&self, i: usize) -> &RtNode<P> {
        self.kernel
            .actor::<RtNode<P>>(self.actors[i])
            .expect("node actor")
    }

    fn live_nodes(&self) -> Vec<usize> {
        let m = self.medium.borrow();
        (0..self.deployment.node_count())
            .filter(|&i| m.is_alive(i))
            .collect()
    }

    /// Phase 1: the §5.1 topology-emulation protocol.
    pub fn run_topology_emulation(&mut self) -> TopoReport {
        let start = self.kernel.now();
        let b0 = self.kernel.stats().counter("topo.broadcast");
        let s0 = self.kernel.stats().counter("topo.suppressed");
        self.span_open("topology-emulation");
        for &a in &self.actors {
            self.kernel.schedule_timer(start, a, TAG_TOPO);
        }
        let run = self.kernel.run();
        self.events_total += run.events_processed;
        self.span_close(run.events_processed);
        let report = TopoReport {
            elapsed_ticks: run.end_time - start,
            broadcasts: self.kernel.stats().counter("topo.broadcast") - b0,
            suppressed: self.kernel.stats().counter("topo.suppressed") - s0,
            complete: self.tables_complete(),
        };
        // Mirror the report into the telemetry so trace consumers see the
        // same numbers the harness does.
        self.tally("phase.topo.broadcasts", report.broadcasts);
        self.tally("phase.topo.suppressed", report.suppressed);
        report
    }

    fn tables_complete(&self) -> bool {
        self.live_nodes().iter().all(|&i| {
            let node = self.node(i);
            Direction::ALL.iter().all(|&d| {
                self.grid.neighbor(node.cell, d).is_none() || node.rtab[dir_idx(d)].is_some()
            })
        })
    }

    /// Checks the §5.1 route invariant for every live node and direction:
    /// following `rtab` next hops stays inside the node's cell and then
    /// terminates, in at most `cell population` steps, at a node of the
    /// adjacent cell — i.e. emulated routes cross exactly one boundary.
    pub fn verify_routes(&self) -> Result<(), String> {
        for &i in &self.live_nodes() {
            let node = self.node(i);
            for d in Direction::ALL {
                let Some(adj) = self.grid.neighbor(node.cell, d) else {
                    continue;
                };
                let mut cur = i;
                let bound = self.deployment.nodes_in_cell(node.cell).len() + 1;
                let mut steps = 0;
                loop {
                    let cur_node = self.node(cur);
                    let Some(next) = cur_node.rtab[dir_idx(d)] else {
                        return Err(format!("node {i} dir {d:?}: chain broke at {cur}"));
                    };
                    let next_cell = self.node(next).cell;
                    if next_cell == adj {
                        break; // crossed exactly one boundary
                    }
                    if next_cell != node.cell {
                        return Err(format!(
                            "node {i} dir {d:?}: hop {cur}->{next} left the cell sideways"
                        ));
                    }
                    steps += 1;
                    if steps > bound {
                        return Err(format!("node {i} dir {d:?}: routing cycle"));
                    }
                    cur = next;
                }
            }
        }
        Ok(())
    }

    /// Phase 2: §5.2 leader election, then the announce flood that builds
    /// per-cell spanning trees.
    pub fn run_binding(&mut self) -> BindReport {
        let start = self.kernel.now();
        let d0 = self.kernel.stats().counter("bind.broadcast");
        self.span_open("binding");
        self.span_open("election");
        for &a in &self.actors {
            self.kernel.schedule_timer(start, a, TAG_BIND);
        }
        let election = self.kernel.run();
        self.span_close(election.events_processed);
        // Announce sub-phase.
        let t = self.kernel.now();
        self.span_open("announce");
        for &a in &self.actors {
            self.kernel.schedule_timer(t, a, TAG_ANNOUNCE);
        }
        let run = self.kernel.run();
        self.span_close(run.events_processed);
        self.events_total += election.events_processed + run.events_processed;
        self.span_close(election.events_processed + run.events_processed);

        // One pass over the cells' live nodes: a cell binds when exactly
        // one of them leads.
        let mut leaders = vec![None; self.grid.node_count()];
        let (mut unique, mut tree_complete) = (true, true);
        let medium = self.medium.borrow();
        for cell in self.grid.nodes() {
            let (mut leader, mut count, mut live) = (None, 0, false);
            for &i in self.deployment.nodes_in_cell(cell) {
                if !medium.is_alive(i) {
                    continue;
                }
                let node = self.node(i);
                live = true;
                tree_complete &= node.leader.is_some();
                if node.ldr {
                    leader = Some(i);
                    count += 1;
                }
            }
            match leader {
                Some(i) if count == 1 => leaders[self.grid.index(cell)] = Some(i),
                _ => unique &= !live,
            }
        }
        drop(medium);
        let report = BindReport {
            elapsed_ticks: run.end_time - start,
            leaders,
            unique,
            tree_complete,
            delta_broadcasts: self.kernel.stats().counter("bind.broadcast") - d0,
        };
        self.tally("phase.bind.delta_broadcasts", report.delta_broadcasts);
        let bound = report.leaders.iter().flatten().count();
        self.tally("phase.bind.leaders", bound as u64);
        report
    }

    /// The leader bound to virtual node `cell`, if the election produced
    /// one.
    pub fn leader_of(&self, cell: GridCoord) -> Option<usize> {
        self.deployment
            .nodes_in_cell(cell)
            .iter()
            .copied()
            .find(|&i| self.node(i).ldr && self.medium.borrow().is_alive(i))
    }

    /// Installs the synthesized per-virtual-node programs on the elected
    /// leaders. Must run after [`PhysicalRuntime::run_binding`]; the
    /// factory is retained so [`PhysicalRuntime::refresh_after_churn`] can
    /// re-install on newly elected leaders.
    pub fn install_programs(
        &mut self,
        factory: impl FnMut(GridCoord) -> Box<dyn NodeProgram<P>> + 'static,
    ) {
        self.factory = Some(Box::new(factory));
        self.reinstall_programs();
    }

    fn reinstall_programs(&mut self) {
        assert!(self.factory.is_some(), "install_programs not called");
        // Clear stale programs first: a node that lost leadership (churn,
        // re-election) must not run its old program next round.
        for &a in &self.actors {
            if let Some(node) = self.kernel.actor_mut::<RtNode<P>>(a) {
                node.program = None;
            }
        }
        let cells: Vec<GridCoord> = self.grid.nodes().collect();
        for cell in cells {
            let leader = self
                .deployment
                .nodes_in_cell(cell)
                .iter()
                .copied()
                .find(|&i| {
                    self.kernel
                        .actor::<RtNode<P>>(self.actors[i])
                        .expect("node")
                        .ldr
                        && self.medium.borrow().is_alive(i)
                });
            let Some(leader) = leader else {
                continue; // cell dead or election failed; reported by BindReport
            };
            let program = (self.factory.as_mut().unwrap())(cell);
            let node = self
                .kernel
                .actor_mut::<RtNode<P>>(self.actors[leader])
                .expect("node actor");
            node.program = Some(program);
        }
    }

    /// Checks the mechanical preconditions of sharded execution:
    ///
    /// * the energy ledger must be unlimited (charges are deferred to
    ///   window barriers, so mid-window depletion checks must be vacuous);
    /// * no chaos plan may be installed: its injector actor is on no shard;
    /// * the grid side must be a power of two with `cut_level` inside the
    ///   quad-tree depth (the [`ShardPlan`] constraint).
    ///
    /// The *semantic* precondition — a clean shard-interference
    /// certificate for the program being run — is the caller's to check
    /// via `wsn-analyze`'s `analyze_shards`; this layer cannot see the
    /// program source.
    pub fn parallel_preconditions(&self, cfg: &ParallelConfig) -> Result<(), String> {
        let side = self.grid.side();
        if !self.medium.borrow().ledger().is_unlimited() {
            return Err("energy ledger has a budget; sharded execution defers charges".into());
        }
        if self.kernel.actor_count() > self.actors.len() {
            return Err("a chaos plan is installed; its injector actor is on no shard".into());
        }
        if !side.is_power_of_two() {
            return Err(format!("grid side {side} is not a power of two"));
        }
        let depth = side.trailing_zeros();
        if cfg.cut_level == 0 || cfg.cut_level > depth {
            return Err(format!(
                "cut level {} outside the quad-tree depth 1..={depth}",
                cfg.cut_level
            ));
        }
        Ok(())
    }

    /// The actor→shard assignment from the quad-tree plan: node `i` goes
    /// to the shard of its deployment cell. Built once per config and kept
    /// for later runs.
    fn shard_schedule(&mut self, cfg: &ParallelConfig) -> Rc<ShardSchedule> {
        if let Some((built_for, schedule)) = &self.schedule {
            if built_for == cfg {
                return schedule.clone();
            }
        }
        let plan = ShardPlan::new(self.grid.side(), cfg.cut_level as u8);
        let map: Vec<u32> = (0..self.deployment.node_count())
            .map(|i| {
                let cell = self.deployment.cell_of_node(i);
                plan.shard_of(GridCoord::new(cell.col, cell.row))
            })
            .collect();
        let mut schedule = ShardSchedule::new(map, plan.shard_count()).with_workers(cfg.workers);
        if self.shard_mutation == Some(ShardMutation::MisorderedMerge) {
            schedule = schedule.with_misordered_merge();
        }
        let schedule = Rc::new(schedule);
        self.schedule = Some((*cfg, schedule.clone()));
        schedule
    }

    /// Plants `mutation` in every later sharded run of this runtime.
    /// Sequential runs are untouched. Only mutation checks call this.
    pub fn plant_shard_mutation(&mut self, mutation: ShardMutation) {
        self.shard_mutation = Some(mutation);
        self.schedule = None;
    }

    /// Runs the kernel under `schedule`, wiring the window order tap into
    /// every order-sensitive shared component (energy ledger journal,
    /// causal log, exfiltration buffer) and replaying their staged side
    /// effects in canonical order at each barrier.
    fn run_kernel_sharded(&mut self, schedule: &ShardSchedule) -> RunReport {
        let tap = self.order_tap.get_or_insert_with(order_tap).clone();
        self.medium.borrow_mut().set_order_tap(tap.clone());
        if let Some(log) = &self.causal {
            log.borrow_mut().set_order_tap(tap.clone());
        }
        *self.shared.tap.borrow_mut() = Some(tap.clone());
        let medium = self.medium.clone();
        let causal = self.causal.clone();
        let shared = self.shared.clone();
        // Per-shard accounting rides along whenever telemetry is on. The
        // arrays are write-only bookkeeping outside every kernel
        // observable, so the bit-identical contract with the sequential
        // engine is untouched.
        let mut obs = if self.telemetry_on() {
            let obs = ShardObs::new(schedule.shard_count());
            Some(
                if self.shard_mutation == Some(ShardMutation::UndercountTap) {
                    obs.with_undercount_tap()
                } else {
                    obs
                },
            )
        } else {
            None
        };
        let replay = &mut self.replay;
        let run = self.kernel.run_sharded(
            schedule,
            Some(&tap),
            |order| {
                medium.borrow_mut().apply_energy_journal(order, replay);
                if let Some(log) = &causal {
                    log.borrow_mut().assign_order(order, replay);
                }
                shared.assign_exfil_order(order, replay);
            },
            obs.as_mut(),
        );
        if let Some(obs) = &obs {
            self.publish_shard_obs(obs, run.events_processed);
        }
        run
    }

    /// Publishes one sharded run's accounting into the shard telemetry
    /// under `shard=`-labeled keys. `dispatched` is the kernel's own
    /// event total for the run — an independent count the TC010
    /// conformance check reconciles the per-shard counters against.
    /// Counters accumulate across runs; gauges hold the latest run's.
    fn publish_shard_obs(&mut self, obs: &ShardObs, dispatched: u64) {
        let t = &mut self.shard_telemetry;
        t.set_gauge("shard.count", f64::from(obs.shard_count()));
        t.add("shard.windows", obs.windows());
        t.add("shard.events.total", dispatched);
        for s in 0..obs.shard_count() as usize {
            let label = s.to_string();
            let l = [("shard", label.as_str())];
            t.add(&labeled("shard.events", &l), obs.events(s));
            t.set_gauge(
                &labeled("shard.queue.depth.max", &l),
                obs.depth_max(s) as f64,
            );
            let mean = if obs.windows() == 0 {
                0.0
            } else {
                obs.depth_sum(s) as f64 / obs.windows() as f64
            };
            t.set_gauge(&labeled("shard.queue.depth.mean", &l), mean);
            t.add(&labeled("shard.cross.staged", &l), obs.cross_staged(s));
            t.add(&labeled("shard.cross.applied", &l), obs.cross_applied(s));
            t.add(&labeled("shard.barrier.stall", &l), obs.barrier_stall(s));
        }
    }

    /// Phase 3: runs the application to quiescence.
    pub fn run_application(&mut self) -> AppReport {
        self.run_application_with(None)
    }

    /// Phase 3 on the sharded scheduler: one logical worker per quad-tree
    /// shard at `cfg.cut_level`, with epoch-barrier synchronization.
    /// Produces **bit-identical** traces, causal logs, and metrics to
    /// [`PhysicalRuntime::run_application`] for the same seed.
    ///
    /// Panics when [`PhysicalRuntime::parallel_preconditions`] fails —
    /// drivers that want graceful sequential fallback check it first.
    pub fn run_application_parallel(&mut self, cfg: &ParallelConfig) -> AppReport {
        if let Err(refusal) = self.parallel_preconditions(cfg) {
            panic!("sharded execution refused: {refusal}");
        }
        let schedule = self.shard_schedule(cfg);
        self.run_application_with(Some(&schedule))
    }

    fn run_application_with(&mut self, schedule: Option<&ShardSchedule>) -> AppReport {
        assert!(
            self.factory.is_some(),
            "install_programs must be called before run_application"
        );
        let start = self.kernel.now();
        let m0 = self.kernel.stats().counter("rt.messages");
        let h0 = self.kernel.stats().counter("rt.app_hops");
        let r0 = self.kernel.stats().counter("rt.arq_retx");
        let u0 = self.kernel.stats().counter("rt.data_units");
        // Indexed ledger reads into a struct-held scratch: the hot path
        // must not materialize an `EnergySnapshot` vector per run.
        let mut tx_before = std::mem::take(&mut self.tx_scratch);
        tx_before.clear();
        if self.telemetry_on() {
            let medium = self.medium.borrow();
            let ledger = medium.ledger();
            tx_before
                .extend((0..ledger.node_count()).map(|n| ledger.consumed_kind(n, EnergyKind::Tx)));
        }
        self.span_open("application");
        for &a in &self.actors {
            self.kernel.schedule_timer(start, a, TAG_APP);
        }
        let run = match schedule {
            None => self.kernel.run(),
            Some(schedule) => self.run_kernel_sharded(schedule),
        };
        self.events_total += run.events_processed;
        if run.stop == StopReason::QueueEmpty {
            // Nothing is in flight that could repeat an old id, so a
            // standing deployment's dedup sets need not outlive the round.
            self.prune_dedup_state();
        }
        if self.telemetry_on() {
            self.attach_merge_level_spans();
        }
        self.span_close(run.events_processed);
        let exfil = self.shared.exfil.borrow();
        let new_exfil = &exfil[self.exfil_seen..];
        let report = AppReport {
            elapsed_ticks: run.end_time - start,
            last_exfil_ticks: new_exfil.iter().map(|e| e.at - start).max(),
            exfil_count: new_exfil.len(),
            messages: self.kernel.stats().counter("rt.messages") - m0,
            physical_hops: self.kernel.stats().counter("rt.app_hops") - h0,
            retransmissions: self.kernel.stats().counter("rt.arq_retx") - r0,
        };
        let total = exfil.len();
        drop(exfil);
        self.exfil_seen = total;
        self.tally(CTR_MESSAGES, report.messages);
        let units = self.kernel.stats().counter("rt.data_units") - u0;
        self.tally(CTR_DATA_UNITS, units);
        self.tally("phase.app.physical_hops", report.physical_hops);
        self.tally("phase.app.retransmissions", report.retransmissions);
        self.tally("phase.app.exfiltrations", report.exfil_count as u64);
        self.record_app_tx_by_class(&tx_before);
        self.tx_scratch = tx_before;
        report
    }

    /// Splits the application phase's transmit energy by *leadership
    /// class* — the highest hierarchy level a node's cell leads — and
    /// publishes one `phase.app.tx_energy.classK` gauge per class. The
    /// cost certifier checks these against its per-class intervals:
    /// transmit energy is broadcast-invariant (one charge per
    /// transmission, unlike receive energy, which overhearing inflates),
    /// so it is the per-node-class quantity the §4 analysis can predict.
    fn record_app_tx_by_class(&mut self, tx_before: &[f64]) {
        if !self.telemetry_on() || !self.grid.side().is_power_of_two() {
            return;
        }
        let hierarchy = wsn_core::Hierarchy::new(self.grid.side());
        let mut by_class = vec![0.0f64; usize::from(hierarchy.max_level()) + 1];
        let medium = self.medium.borrow();
        let ledger = medium.ledger();
        for node in 0..ledger.node_count() {
            let delta = ledger.consumed_kind(node, EnergyKind::Tx)
                - tx_before.get(node).copied().unwrap_or(0.0);
            let cell = self.deployment.cell_of_node(node);
            let class = hierarchy.highest_leader_level(GridCoord::new(cell.col, cell.row));
            by_class[usize::from(class)] += delta;
        }
        drop(medium);
        for (class, energy) in by_class.iter().enumerate() {
            self.telemetry
                .set_gauge(&format!("phase.app.tx_energy.class{class}"), *energy);
        }
    }

    /// Rebuilds per-quadtree-merge-level spans from the
    /// `merge.levelK.complete` histograms ([`MERGE_COMPLETE_KEYS`]) that
    /// instrumented programs (e.g. the native divide-and-conquer program)
    /// populate through [`wsn_core::NodeApi::merge_complete`]: a level's
    /// span runs from its first to its last completed merge, with one
    /// event per completion. Attached in level order under the currently
    /// open span (the application phase).
    fn attach_merge_level_spans(&mut self) {
        for (level, key) in MERGE_COMPLETE_KEYS.iter().enumerate() {
            let Some(h) = self.kernel.stats().histogram(key) else {
                continue;
            };
            let (Some(min), Some(max)) = (h.min(), h.max()) else {
                continue;
            };
            self.spans.attach(SpanNode::leaf(
                format!("merge-level-{level}"),
                SimTime::from_ticks(min as u64),
                SimTime::from_ticks(max as u64),
                h.count() as u64,
            ));
        }
    }

    /// Exports the whole run as a [`TraceDocument`]: meta, the phase span
    /// forest, the phase telemetry, every kernel statistic (counters and
    /// histograms), per-node energy snapshots, and — when event tracing
    /// was enabled — the kernel event stream. Callable at any point; it
    /// reflects everything recorded so far.
    pub fn record_trace(&self) -> TraceDocument {
        let mut doc = TraceDocument::new();
        doc.meta = Some(TraceMeta {
            schema_version: wsn_obs::TRACE_SCHEMA_VERSION,
            grid: u64::from(self.grid.side()),
            seed: self.seed,
            nodes: self.deployment.node_count() as u64,
            total_ticks: self.kernel.now().ticks(),
            events: self.events_total,
        });
        doc.spans = self.spans.roots().to_vec();
        doc.absorb_stats(&self.telemetry);
        doc.absorb_stats(self.kernel.stats());
        let medium = self.medium.borrow();
        let ledger = medium.ledger();
        doc.gauges
            .push(("energy.total".to_string(), ledger.total()));
        doc.nodes = ledger
            .snapshot()
            .into_iter()
            .map(|s| {
                let cell = self.deployment.cell_of_node(s.node);
                NodeSnapshot {
                    id: s.node as u64,
                    energy: s.total,
                    tx: s.tx.round() as u64,
                    rx: s.rx.round() as u64,
                    cell: Some((cell.col, cell.row)),
                }
            })
            .collect();
        drop(medium);
        doc.events = self.kernel.trace().to_vec();
        if let Some(log) = &self.causal {
            // Canonical (sequential-equivalent) order: identity for plain
            // sequential runs, and the re-keyed merge order after sharded
            // windows — so traces diff bit-for-bit across engines.
            doc.causal = log.borrow().canonical_events();
        }
        doc
    }

    /// Removes and returns everything exfiltrated so far.
    pub fn take_exfiltrated(&mut self) -> Vec<Exfiltrated<P>> {
        self.exfil_seen = 0;
        std::mem::take(&mut self.shared.exfil.borrow_mut())
    }

    /// Re-runs topology emulation and binding after failures (§5.1's
    /// periodic re-execution), re-installing programs on the new leaders.
    pub fn refresh_after_churn(&mut self) -> (TopoReport, BindReport) {
        for &a in &self.actors {
            if let Some(node) = self.kernel.actor_mut::<RtNode<P>>(a) {
                node.reset_protocols();
            }
        }
        let topo = self.run_topology_emulation();
        let bind = self.run_binding();
        if self.factory.is_some() {
            self.reinstall_programs();
        }
        (topo, bind)
    }

    /// Runs a sustained mission: for each round, inject churn, optionally
    /// refresh the runtime protocols, re-install fresh program instances,
    /// and run one application round. A round counts as completed when it
    /// produced exactly `expected_exfils` exfiltrations.
    ///
    /// Requires [`PhysicalRuntime::install_programs`] to have been called
    /// (the retained factory provides each round's fresh programs).
    pub fn run_mission(&mut self, cfg: MissionConfig, expected_exfils: usize) -> MissionReport {
        assert!(
            self.factory.is_some(),
            "install_programs must be called before run_mission"
        );
        let mut rng = wsn_sim::DetRng::stream(cfg.churn_seed, 0xC0FFEE);
        let mut report = MissionReport {
            rounds: cfg.rounds,
            completed: 0,
            per_round: Vec::with_capacity(cfg.rounds as usize),
            killed: 0,
            refreshes: 0,
            survivors: 0,
        };
        for round in 0..cfg.rounds {
            // Churn: kill uniformly chosen live nodes.
            for _ in 0..cfg.churn_per_round {
                let live = self.live_nodes();
                if live.is_empty() {
                    break;
                }
                let victim = live[rng.bounded_usize(live.len())];
                let now = self.kernel.now();
                self.medium.borrow_mut().kill(victim, now);
                report.killed += 1;
            }
            // Round 0 rides on the initial binding; refreshes start after
            // a full period has elapsed.
            if cfg.refresh_every > 0 && round > 0 && round % cfg.refresh_every == 0 {
                self.refresh_after_churn();
                report.refreshes += 1;
            } else {
                self.reinstall_programs();
            }
            let app = self.run_application();
            let ok = app.exfil_count == expected_exfils;
            report.per_round.push(ok);
            if ok {
                report.completed += 1;
            }
            if cfg.stop_on_first_death && self.medium.borrow().first_death().is_some() {
                report.rounds = round + 1;
                break;
            }
        }
        report.survivors = self.live_nodes().len();
        report
    }

    /// Validates and installs a [`ChaosPlan`] into this runtime's kernel
    /// and medium. May be called before or mid-run; events are applied at
    /// their scheduled instants by an injector actor.
    pub fn install_chaos(&mut self, plan: ChaosPlan) -> Result<ActorId, ChaosError> {
        plan.install(&mut self.kernel, self.medium.clone())
    }

    /// Enables leader heartbeats and follower leases on every node
    /// (effective from the next application start).
    pub fn set_heartbeat(&mut self, cfg: HeartbeatConfig) {
        self.shared.heartbeat.set(Some(cfg));
    }

    /// Live followers in the application phase whose leader lease has
    /// run out — the self-healing loop's trigger signal.
    pub fn expired_leases(&self) -> usize {
        let now = self.kernel.now();
        // Index scan, not a `live_nodes()` vector: this runs once per
        // chaos epoch and must stay off the allocator.
        let medium = self.medium.borrow();
        (0..self.deployment.node_count())
            .filter(|&i| {
                if !medium.is_alive(i) {
                    return false;
                }
                let node = self.node(i);
                node.phase == crate::node::Phase::App
                    && !node.ldr
                    && node.lease_expires.is_some_and(|t| t < now)
            })
            .count()
    }

    /// Prunes every node's per-round deduplication sets (capacity
    /// retained — see [`RtNode::prune_dedup_state`]). An application
    /// run that drains its queue calls this, so the dedup tables of a
    /// standing deployment stop growing; paired with
    /// [`PhysicalRuntime::clear_exfiltrated`] it keeps a long-running
    /// hot loop off the allocator.
    fn prune_dedup_state(&mut self) {
        for &a in &self.actors {
            if let Some(node) = self.kernel.actor_mut::<RtNode<P>>(a) {
                node.prune_dedup_state();
            }
        }
    }

    /// Clears the exfiltration buffer *in place* (capacity retained) and
    /// resets the per-run cursor — the steady-state counterpart of
    /// [`PhysicalRuntime::take_exfiltrated`], which swaps in a fresh
    /// (capacity-zero) vector.
    pub fn clear_exfiltrated(&mut self) {
        self.exfil_seen = 0;
        self.shared.exfil.borrow_mut().clear();
    }

    fn bump_app_round(&mut self) {
        for &a in &self.actors {
            if let Some(node) = self.kernel.actor_mut::<RtNode<P>>(a) {
                node.app_round += 1;
            }
        }
    }

    /// Fills `out` with the current leader of every cell, in the grid's
    /// canonical iteration order. Reuses the caller's buffer so the
    /// self-heal loop holds one scratch instead of building a map per
    /// heal.
    fn collect_leaders(&self, out: &mut Vec<Option<usize>>) {
        out.clear();
        out.extend(self.grid.nodes().map(|c| self.leader_of(c)));
    }

    /// Brings the runtime up under bounded horizons: topology emulation,
    /// election and announce each kick every actor and run no further
    /// than `cfg.phase_budget_ticks` ahead, so pending chaos timers
    /// beyond the horizon stay pending instead of being fast-forwarded
    /// through. Then re-installs programs on the (possibly new) leaders
    /// and kicks the application off.
    fn bring_up_bounded(&mut self, cfg: &SelfHealConfig) {
        for tag in [TAG_TOPO, TAG_BIND, TAG_ANNOUNCE] {
            let start = self.kernel.now();
            for &a in &self.actors {
                self.kernel.schedule_timer(start, a, tag);
            }
            let run = self.kernel.run_with_limits(
                Some(start + cfg.phase_budget_ticks),
                Some(cfg.max_events_per_epoch),
            );
            self.events_total += run.events_processed;
        }
        self.reinstall_programs();
        let now = self.kernel.now();
        for &a in &self.actors {
            self.kernel.schedule_timer(now, a, TAG_APP);
        }
    }

    /// One self-heal: reset protocol state, bump the application round
    /// (orphaned in-flight envelopes die at the round check), and bring
    /// the runtime up again ([`PhysicalRuntime::bring_up_bounded`]).
    /// Returns the number of cells whose leader changed.
    fn heal(&mut self, cfg: &SelfHealConfig) -> u64 {
        let mut before = std::mem::take(&mut self.leader_scratch);
        self.collect_leaders(&mut before);
        for &a in &self.actors {
            if let Some(node) = self.kernel.actor_mut::<RtNode<P>>(a) {
                node.reset_protocols();
            }
        }
        self.bump_app_round();
        self.bring_up_bounded(cfg);
        // Compare in place: `collect_leaders` walks the grid in the same
        // canonical order both times.
        let changed = self
            .grid
            .nodes()
            .zip(before.iter())
            .filter(|(cell, old)| self.leader_of(*cell) != **old)
            .count() as u64;
        self.leader_scratch = before;
        changed
    }

    /// Runs the application under chaos with automatic self-healing: the
    /// §5.1 "executes periodically" loop realized inside the runtime
    /// instead of the test driver. Bring-up, every epoch, and every heal
    /// run under bounded horizons so chaos events scheduled far in the
    /// future are applied at their proper instants rather than drained
    /// through.
    ///
    /// The mission ends when `expected_exfils` results have been
    /// exfiltrated, the event budget trips (reported as a stall), or
    /// `max_epochs` pass. Recovery counters (`heal.*`) are mirrored into
    /// the telemetry when it is on.
    ///
    /// Requires [`PhysicalRuntime::install_programs`]; any
    /// [`ChaosPlan`] should be installed via
    /// [`PhysicalRuntime::install_chaos`] beforehand.
    pub fn run_chaos_mission(
        &mut self,
        cfg: SelfHealConfig,
        expected_exfils: usize,
    ) -> ChaosMissionReport {
        assert!(
            self.factory.is_some(),
            "install_programs must be called before run_chaos_mission"
        );
        self.set_heartbeat(cfg.heartbeat);
        let start = self.kernel.now();
        let exfil0 = self.shared.exfil.borrow().len();
        let mut report = ChaosMissionReport {
            epochs: 0,
            heals: 0,
            leases_expired: 0,
            reelections: 0,
            exfil_count: 0,
            stalled: false,
            completed: false,
            elapsed_ticks: 0,
        };
        self.span_open("chaos-mission");
        let events0 = self.events_total;
        // Bounded bring-up (chaos may already be striking mid-protocol).
        self.bring_up_bounded(&cfg);
        for epoch in 0..cfg.max_epochs {
            let horizon = self.kernel.now() + cfg.epoch_ticks;
            let run = self
                .kernel
                .run_with_limits(Some(horizon), Some(cfg.max_events_per_epoch));
            self.events_total += run.events_processed;
            report.epochs = epoch + 1;
            self.tally("heal.epochs", 1);
            if run.stop == StopReason::EventLimit {
                report.stalled = true;
                break;
            }
            if self.shared.exfil.borrow().len() - exfil0 >= expected_exfils {
                report.completed = true;
                break;
            }
            let expired = self.expired_leases() as u64;
            let periodic =
                cfg.refresh_every_epochs > 0 && (epoch + 1) % cfg.refresh_every_epochs == 0;
            if expired > 0 || periodic {
                report.leases_expired += expired;
                self.tally("heal.leases_expired", expired);
                let reelected = self.heal(&cfg);
                report.heals += 1;
                report.reelections += reelected;
                self.tally("heal.reemulations", 1);
                self.tally("heal.reelections", reelected);
            }
        }
        report.exfil_count = self.shared.exfil.borrow().len() - exfil0;
        report.elapsed_ticks = self.kernel.now() - start;
        self.span_close(self.events_total - events0);
        report
    }

    /// Standard metric bundle for the application phase.
    pub fn metrics(&self, app: &AppReport) -> RunMetrics {
        RunMetrics::from_ledger(
            self.medium.borrow().ledger(),
            app.last_exfil_ticks.unwrap_or(app.elapsed_ticks),
            app.messages,
            self.kernel.stats().counter("rt.data_units"),
        )
    }

    /// Current simulated time (accumulates across phases).
    pub fn now(&self) -> SimTime {
        self.kernel.now()
    }

    /// Kernel events dispatched across every phase so far — the
    /// denominator of per-event cost metrics (allocations per event,
    /// nanoseconds per event).
    pub fn events_total(&self) -> u64 {
        self.events_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_core::{NodeApi, NodeProgram};
    use wsn_net::{DeliveryChaos, DeploymentSpec};

    fn runtime(side: u32, per_cell: usize, seed: u64) -> PhysicalRuntime<f64> {
        runtime_of(side, per_cell, seed)
    }

    fn runtime_of<P: Clone + 'static>(side: u32, per_cell: usize, seed: u64) -> PhysicalRuntime<P> {
        let spec = DeploymentSpec::per_cell(side, per_cell);
        let deployment = spec.generate(seed);
        let range = deployment.grid().range_for_adjacent_cell_reachability();
        PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            seed,
            |c| f64::from(c.col + c.row),
        )
    }

    #[test]
    fn topology_emulation_completes_and_routes_verify() {
        let mut rt = runtime(4, 3, 1);
        let report = rt.run_topology_emulation();
        assert!(report.complete, "incomplete tables");
        assert!(
            report.broadcasts >= 48,
            "every node broadcasts at least once"
        );
        assert!(
            report.suppressed > 0,
            "boundary crossings must occur and be suppressed"
        );
        rt.verify_routes().unwrap();
    }

    #[test]
    fn topology_emulation_is_deterministic() {
        let run = |seed| {
            let mut rt = runtime(4, 4, seed);
            let r = rt.run_topology_emulation();
            (r.elapsed_ticks, r.broadcasts, r.suppressed)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn binding_elects_closest_to_center() {
        let mut rt = runtime(4, 4, 2);
        rt.run_topology_emulation();
        let report = rt.run_binding();
        assert!(report.unique, "every cell must elect exactly one leader");
        assert!(report.tree_complete, "every node must learn its leader");
        for cell in rt.grid().nodes() {
            let leader = rt.leader_of(cell).expect("leader exists");
            let center = rt.deployment().grid().cell_center(cell);
            let leader_delta = rt.deployment().position(leader).distance(center);
            for &i in rt.deployment().nodes_in_cell(cell) {
                let d = rt.deployment().position(i).distance(center);
                assert!(
                    leader_delta <= d + 1e-12,
                    "cell {cell:?}: node {i} (δ={d}) closer than leader {leader} (δ={leader_delta})"
                );
            }
        }
    }

    #[test]
    fn binding_spanning_tree_reaches_leader() {
        let mut rt = runtime(3, 5, 3);
        rt.run_topology_emulation();
        let report = rt.run_binding();
        assert!(report.unique);
        for cell in rt.grid().nodes() {
            let leader = rt.leader_of(cell).unwrap();
            for &i in rt.deployment().nodes_in_cell(cell) {
                // Climb parents to the leader.
                let mut cur = i;
                let mut steps = 0;
                while cur != leader {
                    cur = rt.node(cur).parent_to_leader.expect("parent");
                    steps += 1;
                    assert!(steps <= rt.deployment().nodes_in_cell(cell).len(), "cycle");
                    assert_eq!(rt.node(cur).cell, cell, "tree left the cell");
                }
                assert_eq!(rt.node(i).leader, Some(leader));
            }
        }
    }

    /// Leaders each send their reading to the origin cell; the origin
    /// leader sums and exfiltrates once everything arrived.
    struct Gather {
        expected: usize,
        seen: usize,
        sum: f64,
    }

    /// A payload that carries one reading.
    trait Reading: Clone + 'static {
        fn of(value: f64) -> Self;
        fn value(&self) -> f64;
    }

    impl Reading for f64 {
        fn of(value: f64) -> Self {
            value
        }
        fn value(&self) -> f64 {
            *self
        }
    }

    impl<P: Reading> NodeProgram<P> for Gather {
        fn on_init(&mut self, api: &mut dyn NodeApi<P>) {
            let v = api.read_sensor();
            api.compute(1);
            if api.coord() != GridCoord::new(0, 0) {
                api.send(GridCoord::new(0, 0), 1, P::of(v));
            } else {
                self.sum += v;
                self.seen += 1;
            }
        }
        fn on_receive(&mut self, api: &mut dyn NodeApi<P>, _from: GridCoord, payload: P) {
            self.sum += payload.value();
            self.seen += 1;
            if self.seen == self.expected {
                api.exfiltrate(P::of(self.sum));
            }
        }
    }

    thread_local! {
        /// Clones of [`Counted`] payloads made on this test's thread.
        static CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A reading that counts how often it is cloned.
    struct Counted(f64);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            Counted(self.0)
        }
    }

    impl Reading for Counted {
        fn of(value: f64) -> Self {
            Counted(value)
        }
        fn value(&self) -> f64 {
            self.0
        }
    }

    #[test]
    fn sharded_runs_clone_payloads_as_often_as_sequential_ones() {
        // The barrier moves staged exfiltrations into the buffer, so the
        // sharded engine makes no payload copy of its own.
        let clones = |parallel: Option<ParallelConfig>| {
            let mut rt = runtime_of::<Counted>(4, 3, 7);
            assert!(rt.run_topology_emulation().complete);
            assert!(rt.run_binding().unique);
            rt.install_programs(|_| {
                Box::new(Gather {
                    expected: 16,
                    seen: 0,
                    sum: 0.0,
                })
            });
            CLONES.with(|c| c.set(0));
            let app = match parallel {
                None => rt.run_application(),
                Some(cfg) => rt.run_application_parallel(&cfg),
            };
            assert_eq!(app.exfil_count, 1);
            CLONES.with(|c| c.get())
        };
        let sequential = clones(None);
        for cut_level in [1, 2] {
            assert_eq!(
                clones(Some(ParallelConfig::at_cut(cut_level))),
                sequential,
                "cut level {cut_level}"
            );
        }
    }

    #[test]
    fn finished_application_rounds_leave_no_dedup_state() {
        let mut rt = runtime(4, 3, 11);
        assert!(rt.run_topology_emulation().complete);
        assert!(rt.run_binding().unique);
        for round in 0..3 {
            rt.install_programs(|_| {
                Box::new(Gather {
                    expected: 16,
                    seen: 0,
                    sum: 0.0,
                })
            });
            assert_eq!(rt.run_application().exfil_count, 1, "round {round}");
            for i in 0..rt.deployment().node_count() {
                assert_eq!(rt.node(i).dedup_entries(), 0, "round {round}, node {i}");
            }
        }
    }

    fn run_gather(side: u32, per_cell: usize, seed: u64) -> (PhysicalRuntime<f64>, AppReport) {
        let mut rt = runtime(side, per_cell, seed);
        let topo = rt.run_topology_emulation();
        assert!(topo.complete);
        let bind = rt.run_binding();
        assert!(bind.unique && bind.tree_complete);
        let n = (side as usize).pow(2);
        rt.install_programs(move |_| {
            Box::new(Gather {
                expected: n,
                seen: 0,
                sum: 0.0,
            })
        });
        let app = rt.run_application();
        (rt, app)
    }

    #[test]
    fn application_gathers_exact_sum_on_emulated_grid() {
        let (mut rt, app) = run_gather(4, 3, 7);
        assert_eq!(app.exfil_count, 1);
        let results = rt.take_exfiltrated();
        let expected: f64 = (0..4u32)
            .flat_map(|r| (0..4u32).map(move |c| f64::from(c + r)))
            .sum();
        assert_eq!(results[0].payload, expected);
        assert_eq!(results[0].from, GridCoord::new(0, 0));
        // Physical forwarding takes at least one hop per virtual hop.
        assert!(app.physical_hops >= app.messages);
        assert!(
            app.last_exfil_ticks.unwrap() >= 6,
            "physical latency ≥ virtual 6 ticks"
        );
    }

    #[test]
    fn application_energy_exceeds_virtual_ideal() {
        let (rt, app) = run_gather(4, 3, 8);
        let m = rt.metrics(&app);
        // Virtual ideal for the same traffic: Σ hops × 2 = 2×Σ(c+r) = 48.
        assert!(
            m.total_energy > 48.0,
            "physical energy {} must exceed ideal 48",
            m.total_energy
        );
        assert_eq!(m.messages, 15);
    }

    #[test]
    fn churn_reelects_and_application_still_works() {
        let mut rt = runtime(2, 4, 9);
        rt.run_topology_emulation();
        let bind = rt.run_binding();
        assert!(bind.unique);
        let victim = rt.leader_of(GridCoord::new(1, 1)).unwrap();
        rt.medium().borrow_mut().kill(victim, rt.now());
        let (topo2, bind2) = rt.refresh_after_churn();
        assert!(topo2.complete);
        assert!(bind2.unique, "re-election must produce unique leaders");
        let new_leader = rt.leader_of(GridCoord::new(1, 1)).unwrap();
        assert_ne!(new_leader, victim);
        rt.install_programs(move |_| {
            Box::new(Gather {
                expected: 4,
                seen: 0,
                sum: 0.0,
            })
        });
        let app = rt.run_application();
        assert_eq!(app.exfil_count, 1);
        let sum = rt.take_exfiltrated()[0].payload;
        assert_eq!(sum, 0.0 + 1.0 + 1.0 + 2.0);
    }

    #[test]
    fn uniform_random_deployment_with_repair_works_end_to_end() {
        let spec = DeploymentSpec::uniform(4, 100);
        let deployment = spec.generate(11);
        let range = deployment.grid().range_for_adjacent_cell_reachability();
        let mut rt: PhysicalRuntime<f64> = PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            11,
            |_| 1.0,
        );
        let topo = rt.run_topology_emulation();
        assert!(topo.complete);
        rt.verify_routes().unwrap();
        let bind = rt.run_binding();
        assert!(bind.unique && bind.tree_complete);
        rt.install_programs(|_| {
            Box::new(Gather {
                expected: 16,
                seen: 0,
                sum: 0.0,
            })
        });
        let app = rt.run_application();
        assert_eq!(app.exfil_count, 1);
        assert_eq!(rt.take_exfiltrated()[0].payload, 16.0);
    }

    #[test]
    fn mission_without_churn_completes_every_round() {
        let mut rt = runtime(2, 3, 4);
        rt.run_topology_emulation();
        assert!(rt.run_binding().unique);
        rt.install_programs(move |_| {
            Box::new(Gather {
                expected: 4,
                seen: 0,
                sum: 0.0,
            })
        });
        let report = rt.run_mission(
            MissionConfig {
                rounds: 5,
                refresh_every: 0,
                churn_per_round: 0,
                churn_seed: 1,
                stop_on_first_death: false,
            },
            1,
        );
        assert_eq!(report.completed, 5);
        assert_eq!(report.killed, 0);
        assert_eq!(report.per_round, vec![true; 5]);
    }

    #[test]
    fn mission_with_refresh_survives_churn_longer() {
        let run = |refresh_every: u32| {
            let mut rt = runtime(2, 6, 4);
            rt.run_topology_emulation();
            assert!(rt.run_binding().unique);
            rt.install_programs(move |_| {
                Box::new(Gather {
                    expected: 4,
                    seen: 0,
                    sum: 0.0,
                })
            });
            rt.run_mission(
                MissionConfig {
                    rounds: 10,
                    refresh_every,
                    churn_per_round: 1,
                    churn_seed: 9,
                    stop_on_first_death: false,
                },
                1,
            )
        };
        let without = run(0);
        let with = run(1);
        assert!(
            with.completed > without.completed,
            "refresh {} vs none {}",
            with.completed,
            without.completed
        );
        assert_eq!(with.killed, 10);
        // Round 0 rides on the initial binding, so 9 refreshes for 10 rounds.
        assert_eq!(with.refreshes, 9);
    }

    #[test]
    fn sampling_phase_aggregates_cell_means() {
        let deployment = DeploymentSpec::per_cell(2, 5).generate(3);
        let range = deployment.grid().range_for_adjacent_cell_reachability();
        let mut rt: PhysicalRuntime<f64> = PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            3,
            |c| f64::from(c.col * 10 + c.row),
        );
        rt.set_sampling_noise(2.0, 7);
        rt.run_topology_emulation();
        assert!(rt.run_binding().unique);
        let (elapsed, delivered) = rt.run_sampling();
        assert!(elapsed > 0);
        // Every follower's sample reaches its leader: 4 cells × 4 followers.
        assert_eq!(delivered, 16);
        for cell in rt.grid().nodes() {
            let leader = rt.leader_of(cell).unwrap();
            let aggregated = rt.node(leader).aggregated_reading();
            let truth = f64::from(cell.col * 10 + cell.row);
            // The 5-sample mean suppresses the σ=2 noise well below a
            // plausible single-sample error.
            assert!(
                (aggregated - truth).abs() < 2.5,
                "cell {cell:?}: aggregated {aggregated} vs truth {truth}"
            );
        }
    }

    #[test]
    fn without_sampling_leaders_read_their_own_noisy_sensor() {
        let deployment = DeploymentSpec::per_cell(2, 3).generate(3);
        let range = deployment.grid().range_for_adjacent_cell_reachability();
        let mut rt: PhysicalRuntime<f64> = PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            3,
            |_| 5.0,
        );
        rt.set_sampling_noise(1.0, 9);
        rt.run_topology_emulation();
        rt.run_binding();
        let leader = rt.leader_of(GridCoord::new(0, 0)).unwrap();
        let reading = rt.node(leader).aggregated_reading();
        assert_ne!(reading, 5.0, "noise applies");
        assert!((reading - 5.0).abs() < 4.0);
    }

    #[test]
    fn arq_recovers_each_lost_hop() {
        // 10% loss with ARQ: the gather still completes, retransmissions
        // and duplicate-detections show up in the counters, and the
        // result is exact.
        let deployment = DeploymentSpec::per_cell(4, 3).generate(7);
        let range = deployment.grid().range_for_adjacent_cell_reachability();
        let mut rt: PhysicalRuntime<f64> = PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            7,
            |c| f64::from(c.col + c.row),
        );
        rt.run_topology_emulation();
        assert!(rt.run_binding().unique);
        rt.install_programs(move |_| {
            Box::new(Gather {
                expected: 16,
                seen: 0,
                sum: 0.0,
            })
        });
        rt.set_link_model(LinkModel::lossy(0.10, 2));
        rt.enable_arq(10, 32);
        let app = rt.run_application();
        assert_eq!(app.exfil_count, 1, "ARQ must carry the merge through");
        assert!(
            app.retransmissions > 0,
            "10% loss must trigger retransmissions"
        );
        let expected: f64 = (0..4u32)
            .flat_map(|r| (0..4u32).map(move |c| f64::from(c + r)))
            .sum();
        assert_eq!(rt.take_exfiltrated()[0].payload, expected);
    }

    #[test]
    fn tdma_defers_but_preserves_results() {
        let run = |tdma: bool| {
            let deployment = DeploymentSpec::per_cell(2, 3).generate(5);
            let range = deployment.grid().range_for_adjacent_cell_reachability();
            let mut rt: PhysicalRuntime<f64> = PhysicalRuntime::new(
                deployment,
                RadioModel::uniform(range),
                LinkModel::ideal(),
                None,
                1,
                5,
                |_| 2.5,
            );
            rt.run_topology_emulation();
            rt.run_binding();
            rt.install_programs(move |_| {
                Box::new(Gather {
                    expected: 4,
                    seen: 0,
                    sum: 0.0,
                })
            });
            if tdma {
                rt.set_mac_model(wsn_net::MacModel::Tdma {
                    frame_slots: 8,
                    slot_ticks: 1,
                });
            }
            let app = rt.run_application();
            (
                app.last_exfil_ticks.unwrap(),
                rt.take_exfiltrated()[0].payload,
            )
        };
        let (lat_async, sum_async) = run(false);
        let (lat_tdma, sum_tdma) = run(true);
        assert_eq!(sum_async, sum_tdma, "MAC never changes results");
        assert!(lat_tdma > lat_async, "slotted access adds latency");
    }

    #[test]
    fn woken_nodes_join_after_refresh() {
        // "New nodes can be added to the network" (§5.1): pre-deployed
        // sleepers wake and participate after the periodic re-execution.
        let deployment = DeploymentSpec::per_cell(2, 3).generate(5);
        let range = deployment.grid().range_for_adjacent_cell_reachability();
        let mut rt: PhysicalRuntime<f64> = PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            5,
            |_| 1.0,
        );
        // Put one node per cell to sleep before the protocols run.
        let sleepers: Vec<usize> = rt
            .grid()
            .nodes()
            .map(|c| rt.deployment().nodes_in_cell(c)[0])
            .collect();
        for &s in &sleepers {
            rt.medium().borrow_mut().kill(s, SimTime::ZERO);
        }
        rt.run_topology_emulation();
        let bind = rt.run_binding();
        assert!(bind.unique);
        for &s in &sleepers {
            assert!(
                rt.node(s).leader.is_none(),
                "sleeper {s} must not have participated"
            );
        }
        // Wake them; after a refresh they hold protocol state again.
        for &s in &sleepers {
            assert!(rt.medium().borrow_mut().wake(s));
        }
        rt.install_programs(move |_| {
            Box::new(Gather {
                expected: 4,
                seen: 0,
                sum: 0.0,
            })
        });
        let (topo, bind2) = rt.refresh_after_churn();
        assert!(topo.complete);
        assert!(bind2.unique);
        for &s in &sleepers {
            assert!(
                rt.node(s).leader.is_some(),
                "woken node {s} joined the cell tree"
            );
        }
        let app = rt.run_application();
        assert_eq!(app.exfil_count, 1);
    }

    #[test]
    fn energy_aware_election_rotates_leadership() {
        let spec = DeploymentSpec::per_cell(2, 4);
        let deployment = spec.generate(3);
        let range = deployment.grid().range_for_adjacent_cell_reachability();
        let mut rt: PhysicalRuntime<f64> = PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            3,
            |_| 1.0,
        );
        rt.set_election_policy(crate::node::ElectionPolicy::MaxResidualEnergy);
        rt.run_topology_emulation();
        assert!(rt.run_binding().unique);
        rt.install_programs(move |_| {
            Box::new(Gather {
                expected: 4,
                seen: 0,
                sum: 0.0,
            })
        });
        let mut leaders_over_time = Vec::new();
        for _ in 0..4 {
            let app = rt.run_application();
            assert_eq!(app.exfil_count, 1);
            leaders_over_time.push(rt.leader_of(GridCoord::new(0, 0)).expect("leader"));
            rt.refresh_after_churn(); // re-election under the energy policy
        }
        // The origin-cell leader carries the aggregation hotspot; under
        // the residual-energy policy it must hand leadership over.
        let distinct: std::collections::HashSet<usize> =
            leaders_over_time.iter().copied().collect();
        assert!(
            distinct.len() > 1,
            "leadership never rotated: {leaders_over_time:?}"
        );
    }

    #[test]
    #[should_panic(expected = "install_programs must be called")]
    fn application_without_programs_panics() {
        let mut rt = runtime(2, 2, 1);
        rt.run_topology_emulation();
        rt.run_binding();
        rt.run_application();
    }

    #[test]
    fn telemetry_spans_decompose_the_mission() {
        let mut rt = runtime(4, 3, 7);
        rt.enable_telemetry(true);
        let topo = rt.run_topology_emulation();
        let bind = rt.run_binding();
        rt.install_programs(move |_| {
            Box::new(Gather {
                expected: 16,
                seen: 0,
                sum: 0.0,
            })
        });
        let app = rt.run_application();
        assert_eq!(app.exfil_count, 1);

        let roots = rt.spans().roots();
        let names: Vec<&str> = roots.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["topology-emulation", "binding", "application"]);
        let phase_sum: u64 = roots.iter().map(SpanNode::duration_ticks).sum();
        assert_eq!(
            phase_sum,
            rt.now().ticks(),
            "phase durations decompose the run"
        );
        assert_eq!(roots[0].duration_ticks(), topo.elapsed_ticks);
        assert_eq!(roots[1].duration_ticks(), bind.elapsed_ticks);
        assert_eq!(roots[2].duration_ticks(), app.elapsed_ticks);
        // Binding nests its two sub-floods.
        let sub: Vec<&str> = roots[1].children.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(sub, vec!["election", "announce"]);

        // Telemetry counters agree with the phase reports by construction.
        let reg = rt.telemetry();
        assert_eq!(reg.counter("phase.topo.broadcasts"), topo.broadcasts);
        assert_eq!(
            reg.counter("phase.bind.delta_broadcasts"),
            bind.delta_broadcasts
        );
        assert_eq!(reg.counter("phase.bind.leaders"), 16);
        assert_eq!(reg.counter(CTR_MESSAGES), app.messages);

        // The exported trace carries everything and round-trips.
        let doc = rt.record_trace();
        let meta = doc.meta.clone().unwrap();
        assert_eq!(meta.grid, 4);
        assert_eq!(meta.nodes, 48);
        assert_eq!(meta.total_ticks, rt.now().ticks());
        assert!(meta.events > 0);
        assert!(!doc.events.is_empty(), "event tracing was on");
        assert_eq!(doc.counter("topo.broadcast"), topo.broadcasts);
        assert_eq!(doc.counter(CTR_MESSAGES), app.messages);
        assert!(
            doc.histograms
                .iter()
                .any(|(k, _)| k == wsn_sim::METRIC_DISPATCH_LATENCY),
            "kernel metrics exported"
        );
        let fills: u64 = crate::node::FILL_COUNTERS
            .iter()
            .map(|c| doc.counter(c))
            .sum();
        assert!(fills > 0, "per-direction fill counters exported");
        let parsed = TraceDocument::from_jsonl(&doc.to_jsonl()).unwrap();
        assert_eq!(parsed.spans, doc.spans);
        assert_eq!(parsed.nodes.len(), 48);
        assert_eq!(parsed.events.len(), doc.events.len());
    }

    #[test]
    fn telemetry_disabled_records_no_spans_or_counters() {
        let (rt, _app) = run_gather(2, 3, 4);
        assert!(rt.telemetry().counters().next().is_none());
        assert!(rt.telemetry().gauges().next().is_none());
        assert!(rt.spans().roots().is_empty());
        let doc = rt.record_trace();
        assert!(doc.spans.is_empty());
        assert!(doc.events.is_empty(), "no tracer was installed");
        assert_eq!(doc.counter(CTR_MESSAGES), 0, "telemetry stayed empty");
        // The raw kernel statistics and node snapshots are still exported.
        assert!(doc.counter("rt.messages") > 0);
        assert_eq!(doc.nodes.len(), rt.deployment().node_count());
        assert!(
            doc.meta.unwrap().events > 0,
            "event totals are always tracked"
        );
    }

    #[test]
    fn telemetry_runs_are_deterministic() {
        let run = || {
            let mut rt = runtime(4, 3, 11);
            rt.enable_telemetry(false);
            rt.run_topology_emulation();
            rt.run_binding();
            rt.install_programs(move |_| {
                Box::new(Gather {
                    expected: 16,
                    seen: 0,
                    sum: 0.0,
                })
            });
            rt.run_application();
            (rt.spans().clone(), rt.record_trace().to_jsonl())
        };
        let (spans_a, trace_a) = run();
        let (spans_b, trace_b) = run();
        assert_eq!(spans_a, spans_b, "same seed, same span tree");
        assert_eq!(trace_a, trace_b, "same seed, same serialized trace");
    }

    fn gather_factory(
        expected: usize,
    ) -> impl FnMut(GridCoord) -> Box<dyn NodeProgram<f64>> + 'static {
        move |_| {
            Box::new(Gather {
                expected,
                seen: 0,
                sum: 0.0,
            })
        }
    }

    #[test]
    fn chaos_mission_without_chaos_completes_in_first_epoch() {
        let mut rt = runtime(2, 3, 21);
        rt.install_programs(gather_factory(4));
        let report = rt.run_chaos_mission(SelfHealConfig::default(), 1);
        assert!(report.completed, "{report:?}");
        assert!(!report.stalled);
        assert_eq!(report.epochs, 1);
        assert_eq!(report.heals, 0);
        assert_eq!(report.exfil_count, 1);
        // Field is col + row on a 2×2 grid: 0 + 1 + 1 + 2.
        assert_eq!(rt.take_exfiltrated()[0].payload, 4.0);
    }

    #[test]
    fn chaos_mission_heals_after_leader_crash_mid_application() {
        // Probe run (no chaos) to learn who leads the origin cell; same
        // seed ⇒ the mission's bounded bring-up elects the same leaders.
        let victim = {
            let mut probe = runtime(2, 4, 21);
            probe.run_topology_emulation();
            assert!(probe.run_binding().unique);
            probe.leader_of(GridCoord::new(0, 0)).unwrap()
        };

        let cfg = SelfHealConfig::default();
        // A pending far-future chaos event keeps every bounded bring-up
        // phase running to its full horizon, so the application kicks off
        // at exactly 3 × phase_budget_ticks. One tick later the
        // origin-cell aggregator dies — too early for any remote
        // contribution to have landed — so remote sends die at the
        // corpse, its followers' leases expire unrenewed, and the next
        // epoch boundary heals.
        let crash_at = 3 * cfg.phase_budget_ticks + 1;
        let mut rt = runtime(2, 4, 21);
        rt.enable_telemetry(false);
        rt.install_programs(gather_factory(4));
        rt.install_chaos(ChaosPlan::none().crash_at(SimTime::from_ticks(crash_at), victim))
            .unwrap();
        let report = rt.run_chaos_mission(cfg, 1);
        assert!(
            report.completed,
            "self-healing must finish the gather: {report:?}"
        );
        assert!(!report.stalled);
        assert!(report.heals >= 1, "{report:?}");
        assert!(report.leases_expired >= 1, "{report:?}");
        assert!(report.reelections >= 1, "the crashed cell re-elects");
        let new_leader = rt.leader_of(GridCoord::new(0, 0)).unwrap();
        assert_ne!(new_leader, victim, "a live node took over the cell");

        // Recovery counters are mirrored into the telemetry.
        let reg = rt.telemetry();
        assert_eq!(reg.counter("heal.reemulations"), u64::from(report.heals));
        assert_eq!(reg.counter("heal.reelections"), report.reelections);
        assert_eq!(reg.counter("heal.leases_expired"), report.leases_expired);
        assert_eq!(reg.counter("heal.epochs"), u64::from(report.epochs));
        assert_eq!(rt.kernel.stats().counter("chaos.crash"), 1);
    }

    #[test]
    fn chaos_mission_is_deterministic() {
        let run = || {
            let mut rt = runtime(2, 4, 33);
            rt.install_programs(gather_factory(4));
            rt.install_chaos(
                ChaosPlan::none()
                    .delivery_at(
                        SimTime::from_ticks(10),
                        DeliveryChaos {
                            dup_prob: 0.2,
                            reorder_prob: 0.2,
                            reorder_max_extra_ticks: 3,
                        },
                    )
                    .crash_at(SimTime::from_ticks(60), 0),
            )
            .unwrap();
            let report = rt.run_chaos_mission(SelfHealConfig::default(), 1);
            (report, rt.now())
        };
        assert_eq!(run(), run(), "same seed and plan replay bit-identically");
    }

    /// Full observable state of a finished run, for engine differencing:
    /// the trace document (events, causal log, counters, gauges,
    /// histograms, per-node energy) plus exfiltrated payload order and
    /// the standard metric bundle.
    fn observables(rt: &PhysicalRuntime<f64>, app: &AppReport) -> (String, String, String) {
        let doc = rt.record_trace();
        let exfil: Vec<_> = rt
            .shared
            .exfil
            .borrow()
            .iter()
            .map(|e| (e.from, e.at, e.payload))
            .collect();
        (
            format!("{doc:?}"),
            format!("{exfil:?}"),
            format!("{:?}", rt.metrics(app)),
        )
    }

    fn gather_app(seed: u64, parallel: Option<ParallelConfig>) -> (String, String, String) {
        let mut rt = runtime(4, 3, seed);
        rt.enable_telemetry(true);
        rt.enable_causal_tracing();
        let topo = rt.run_topology_emulation();
        assert!(topo.complete);
        assert!(rt.run_binding().unique);
        rt.install_programs(move |_| {
            Box::new(Gather {
                expected: 16,
                seen: 0,
                sum: 0.0,
            })
        });
        let app = match parallel {
            None => rt.run_application(),
            Some(cfg) => rt.run_application_parallel(&cfg),
        };
        assert_eq!(app.exfil_count, 1);
        observables(&rt, &app)
    }

    #[test]
    fn parallel_application_matches_sequential_bit_for_bit() {
        let sequential = gather_app(7, None);
        for cut_level in [1, 2] {
            for workers in [1, 3] {
                let cfg = ParallelConfig { cut_level, workers };
                assert_eq!(
                    gather_app(7, Some(cfg)),
                    sequential,
                    "sharded run at {cfg:?} diverged from the sequential reference"
                );
            }
        }
    }

    #[test]
    fn sharded_run_publishes_reconcilable_shard_telemetry() {
        let mut rt = runtime(4, 3, 7);
        rt.enable_telemetry(false);
        assert!(rt.run_topology_emulation().complete);
        assert!(rt.run_binding().unique);
        rt.install_programs(move |_| {
            Box::new(Gather {
                expected: 16,
                seen: 0,
                sum: 0.0,
            })
        });
        let app = rt.run_application_parallel(&ParallelConfig::at_cut(1));
        assert_eq!(app.exfil_count, 1);
        let t = rt.shard_telemetry();
        assert_eq!(t.gauge("shard.count"), Some(4.0));
        assert!(t.counter("shard.windows") > 0);
        // The per-shard counters must sum to the kernel's own dispatch
        // total for the run — the reconciliation TC010 automates.
        let total = t.counter("shard.events.total");
        assert!(total > 0);
        let sum: u64 = (0..4)
            .map(|s| t.counter(&labeled("shard.events", &[("shard", &s.to_string())])))
            .sum();
        assert_eq!(sum, total);
        // Staged and applied cross-shard counts balance.
        let staged: u64 = (0..4)
            .map(|s| t.counter(&labeled("shard.cross.staged", &[("shard", &s.to_string())])))
            .sum();
        let applied: u64 = (0..4)
            .map(|s| {
                t.counter(&labeled(
                    "shard.cross.applied",
                    &[("shard", &s.to_string())],
                ))
            })
            .sum();
        assert_eq!(staged, applied);
        assert!(staged > 0, "the gather app must cross quadrant boundaries");
        // Queue depths were published for every shard.
        for label in ["0", "1", "2", "3"] {
            assert!(t
                .gauge(&labeled("shard.queue.depth.max", &[("shard", label)]))
                .is_some());
        }
        // Shard accounting never leaks into the main telemetry — that
        // would break bit-identical traces across engines.
        assert_eq!(rt.telemetry().counter("shard.events.total"), 0);
    }

    #[test]
    fn parallel_preconditions_reject_bad_cut_levels() {
        let rt = runtime(4, 3, 1);
        assert!(rt
            .parallel_preconditions(&ParallelConfig::at_cut(1))
            .is_ok());
        assert!(rt
            .parallel_preconditions(&ParallelConfig::at_cut(2))
            .is_ok());
        assert!(rt
            .parallel_preconditions(&ParallelConfig::at_cut(0))
            .is_err());
        assert!(rt
            .parallel_preconditions(&ParallelConfig::at_cut(3))
            .is_err());
        let rt3 = runtime(3, 5, 1);
        assert!(
            rt3.parallel_preconditions(&ParallelConfig::at_cut(1))
                .is_err(),
            "side 3 is not a power of two"
        );
    }

    #[test]
    fn an_installed_chaos_plan_fails_the_preconditions() {
        let mut rt = runtime(4, 3, 1);
        rt.install_chaos(ChaosPlan::none().crash_at(SimTime::from_ticks(60), 0))
            .unwrap();
        let refusal = rt
            .parallel_preconditions(&ParallelConfig::at_cut(1))
            .unwrap_err();
        assert!(refusal.contains("chaos plan"), "{refusal}");
    }
}
