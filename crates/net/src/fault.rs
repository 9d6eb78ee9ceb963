//! Scheduled fault injection: crashes, recoveries, link dynamics,
//! partitions, delivery anomalies, and energy shocks.
//!
//! The paper's topology-emulation protocol "should execute periodically"
//! because "new nodes can be added to the network or existing nodes can
//! leave or fail" (§5.1). Experiments exercise that path by scheduling a
//! [`ChaosPlan`]; the plan installs itself as an actor that applies each
//! [`FaultKind`] to the [`crate::medium::Medium`] at the scheduled
//! instant.

use crate::medium::{DeliveryChaos, SharedMedium};
use std::fmt;
use std::marker::PhantomData;
use wsn_sim::{Actor, ActorId, Context, Kernel, Payload, SimTime};

/// One kind of injected fault. Everything acts on the shared
/// [`crate::medium::Medium`], so a single injector actor can drive any
/// mix of kinds without touching protocol actors.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Kill `node` (stops sending and receiving immediately).
    Crash { node: usize },
    /// Revive a previously crashed `node` (no-op if it was never killed
    /// or is energy-depleted).
    Recover { node: usize },
    /// Ramp the loss rate of the radio link `a`–`b` to `drop_prob`,
    /// overriding the base link model when worse.
    DegradeLink { a: usize, b: usize, drop_prob: f64 },
    /// Remove a previous [`FaultKind::DegradeLink`] override on `a`–`b`.
    RestoreLink { a: usize, b: usize },
    /// Block all traffic between `group_a` and `group_b` (nodes in
    /// neither group keep talking to everyone).
    Partition {
        group_a: Vec<usize>,
        group_b: Vec<usize>,
    },
    /// Remove the active partition, if any.
    HealPartition,
    /// Set the medium-wide duplication/reordering knobs.
    Delivery { chaos: DeliveryChaos },
    /// Instantly drain `units` of energy from `node`'s budget (a compute
    /// surge, a sensor stuck on, a battery fault).
    EnergyShock { node: usize, units: f64 },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Crash { node } => write!(f, "crash(node {node})"),
            FaultKind::Recover { node } => write!(f, "recover(node {node})"),
            FaultKind::DegradeLink { a, b, drop_prob } => {
                write!(f, "degrade-link({a}-{b}, p={drop_prob})")
            }
            FaultKind::RestoreLink { a, b } => write!(f, "restore-link({a}-{b})"),
            FaultKind::Partition { group_a, group_b } => {
                write!(f, "partition({group_a:?} | {group_b:?})")
            }
            FaultKind::HealPartition => write!(f, "heal-partition"),
            FaultKind::Delivery { chaos } => write!(
                f,
                "delivery(dup={}, reorder={}/{})",
                chaos.dup_prob, chaos.reorder_prob, chaos.reorder_max_extra_ticks
            ),
            FaultKind::EnergyShock { node, units } => {
                write!(f, "energy-shock(node {node}, {units} units)")
            }
        }
    }
}

/// A [`FaultKind`] scheduled at an absolute simulation time.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEvent {
    pub at: SimTime,
    pub kind: FaultKind,
}

impl fmt::Display for ChaosEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={} {}", self.at.ticks(), self.kind)
    }
}

/// Why a [`ChaosPlan`] was rejected at install time. Index `event` is
/// the offending position in [`ChaosPlan::events`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosError {
    /// An event references a node index outside the deployment.
    NodeOutOfRange {
        event: usize,
        node: usize,
        node_count: usize,
    },
    /// An event is scheduled before the kernel's current time.
    EventInPast {
        event: usize,
        at: SimTime,
        now: SimTime,
    },
    /// A probability knob is outside `[0, 1]` (or NaN).
    InvalidProbability { event: usize, value: f64 },
    /// A partition group is empty, so the event would be a silent no-op.
    EmptyPartitionGroup { event: usize },
    /// A node appears in both partition groups.
    OverlappingPartitionGroups { event: usize, node: usize },
    /// A link fault names the same node twice.
    SelfLink { event: usize, node: usize },
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::NodeOutOfRange {
                event,
                node,
                node_count,
            } => write!(
                f,
                "event {event}: node {node} out of range (deployment has {node_count} nodes)"
            ),
            ChaosError::EventInPast { event, at, now } => write!(
                f,
                "event {event}: scheduled at t={} but the kernel is already at t={}",
                at.ticks(),
                now.ticks()
            ),
            ChaosError::InvalidProbability { event, value } => {
                write!(f, "event {event}: probability {value} outside [0, 1]")
            }
            ChaosError::EmptyPartitionGroup { event } => {
                write!(f, "event {event}: partition group is empty")
            }
            ChaosError::OverlappingPartitionGroups { event, node } => write!(
                f,
                "event {event}: node {node} appears in both partition groups"
            ),
            ChaosError::SelfLink { event, node } => {
                write!(
                    f,
                    "event {event}: link fault names node {node} on both ends"
                )
            }
        }
    }
}

impl std::error::Error for ChaosError {}

fn valid_prob(p: f64) -> bool {
    p.is_finite() && (0.0..=1.0).contains(&p)
}

/// A validated, installable schedule of [`ChaosEvent`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// An empty plan.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Appends an arbitrary event.
    pub fn push(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(ChaosEvent { at, kind });
        self
    }

    /// Schedules a crash of `node` at `at`.
    pub fn crash_at(self, at: SimTime, node: usize) -> Self {
        self.push(at, FaultKind::Crash { node })
    }

    /// Schedules a recovery (rejoin) of `node` at `at`.
    pub fn recover_at(self, at: SimTime, node: usize) -> Self {
        self.push(at, FaultKind::Recover { node })
    }

    /// Schedules a loss ramp on link `a`–`b` at `at`.
    pub fn degrade_link_at(self, at: SimTime, a: usize, b: usize, drop_prob: f64) -> Self {
        self.push(at, FaultKind::DegradeLink { a, b, drop_prob })
    }

    /// Schedules removal of a loss ramp on link `a`–`b` at `at`.
    pub fn restore_link_at(self, at: SimTime, a: usize, b: usize) -> Self {
        self.push(at, FaultKind::RestoreLink { a, b })
    }

    /// Schedules a partition between two node groups at `at`.
    pub fn partition_at(self, at: SimTime, group_a: Vec<usize>, group_b: Vec<usize>) -> Self {
        self.push(at, FaultKind::Partition { group_a, group_b })
    }

    /// Schedules healing of the active partition at `at`.
    pub fn heal_partition_at(self, at: SimTime) -> Self {
        self.push(at, FaultKind::HealPartition)
    }

    /// Schedules a change of the medium's delivery-anomaly knobs at `at`.
    pub fn delivery_at(self, at: SimTime, chaos: DeliveryChaos) -> Self {
        self.push(at, FaultKind::Delivery { chaos })
    }

    /// Schedules an energy shock on `node` at `at`.
    pub fn energy_shock_at(self, at: SimTime, node: usize, units: f64) -> Self {
        self.push(at, FaultKind::EnergyShock { node, units })
    }

    /// Scheduled events, in insertion order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A copy of the plan with event `index` removed — the primitive the
    /// fuzzer's shrinker is built from.
    pub fn without_event(&self, index: usize) -> Self {
        let mut events = self.events.clone();
        events.remove(index);
        ChaosPlan { events }
    }

    /// Checks every event against the deployment size and the current
    /// kernel time. Called by [`ChaosPlan::install`]; exposed for tests
    /// and for validating plans before a run is even built.
    pub fn validate(&self, node_count: usize, now: SimTime) -> Result<(), ChaosError> {
        for (i, ev) in self.events.iter().enumerate() {
            if ev.at < now {
                return Err(ChaosError::EventInPast {
                    event: i,
                    at: ev.at,
                    now,
                });
            }
            let check_node = |node: usize| {
                if node >= node_count {
                    Err(ChaosError::NodeOutOfRange {
                        event: i,
                        node,
                        node_count,
                    })
                } else {
                    Ok(())
                }
            };
            match &ev.kind {
                FaultKind::Crash { node }
                | FaultKind::Recover { node }
                | FaultKind::EnergyShock { node, .. } => check_node(*node)?,
                FaultKind::DegradeLink { a, b, drop_prob } => {
                    check_node(*a)?;
                    check_node(*b)?;
                    if a == b {
                        return Err(ChaosError::SelfLink { event: i, node: *a });
                    }
                    if !valid_prob(*drop_prob) {
                        return Err(ChaosError::InvalidProbability {
                            event: i,
                            value: *drop_prob,
                        });
                    }
                }
                FaultKind::RestoreLink { a, b } => {
                    check_node(*a)?;
                    check_node(*b)?;
                    if a == b {
                        return Err(ChaosError::SelfLink { event: i, node: *a });
                    }
                }
                FaultKind::Partition { group_a, group_b } => {
                    if group_a.is_empty() || group_b.is_empty() {
                        return Err(ChaosError::EmptyPartitionGroup { event: i });
                    }
                    for &n in group_a.iter().chain(group_b) {
                        check_node(n)?;
                    }
                    for &n in group_a {
                        if group_b.contains(&n) {
                            return Err(ChaosError::OverlappingPartitionGroups {
                                event: i,
                                node: n,
                            });
                        }
                    }
                }
                FaultKind::HealPartition => {}
                FaultKind::Delivery { chaos } => {
                    if !valid_prob(chaos.dup_prob) {
                        return Err(ChaosError::InvalidProbability {
                            event: i,
                            value: chaos.dup_prob,
                        });
                    }
                    if !valid_prob(chaos.reorder_prob) {
                        return Err(ChaosError::InvalidProbability {
                            event: i,
                            value: chaos.reorder_prob,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Validates the plan and installs it into `kernel` as a
    /// chaos-injector actor bound to `medium`. Works mid-run: when the
    /// kernel has already started, the injector's timers are armed
    /// immediately relative to the current time. Returns the injector's
    /// actor id (harmless to ignore).
    pub fn install<M: Payload>(
        self,
        kernel: &mut Kernel<M>,
        medium: SharedMedium,
    ) -> Result<ActorId, ChaosError> {
        let node_count = medium.borrow().node_count();
        self.validate(node_count, kernel.now())?;
        Ok(kernel.add_actor(Box::new(ChaosInjector::<M> {
            plan: self,
            medium,
            _marker: PhantomData,
        })))
    }
}

struct ChaosInjector<M> {
    plan: ChaosPlan,
    medium: SharedMedium,
    _marker: PhantomData<fn() -> M>,
}

impl<M: Payload> Actor<M> for ChaosInjector<M> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let now = ctx.now().ticks();
        for (idx, ev) in self.plan.events.iter().enumerate() {
            ctx.set_timer(ev.at.ticks().saturating_sub(now), idx as u64);
        }
    }

    fn on_message(&mut self, _ctx: &mut Context<'_, M>, _from: ActorId, _msg: M) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, tag: u64) {
        let ev = self.plan.events[tag as usize].clone();
        let now = ctx.now();
        let mut medium = self.medium.borrow_mut();
        ctx.stats().incr("fault.injected");
        match ev.kind {
            FaultKind::Crash { node } => {
                medium.kill(node, now);
                ctx.stats().incr("chaos.crash");
            }
            FaultKind::Recover { node } => {
                if medium.wake(node) {
                    ctx.stats().incr("chaos.recover");
                } else {
                    ctx.stats().incr("chaos.recover_refused");
                }
            }
            FaultKind::DegradeLink { a, b, drop_prob } => {
                medium.degrade_link(a, b, drop_prob);
                ctx.stats().incr("chaos.degrade_link");
            }
            FaultKind::RestoreLink { a, b } => {
                medium.restore_link(a, b);
                ctx.stats().incr("chaos.restore_link");
            }
            FaultKind::Partition { group_a, group_b } => {
                medium.set_partition(&group_a, &group_b);
                ctx.stats().incr("chaos.partition");
            }
            FaultKind::HealPartition => {
                medium.heal_partition();
                ctx.stats().incr("chaos.heal_partition");
            }
            FaultKind::Delivery { chaos } => {
                medium.set_delivery_chaos(chaos);
                ctx.stats().incr("chaos.delivery");
            }
            FaultKind::EnergyShock { node, units } => {
                medium.drain_energy(node, units, now);
                ctx.stats().incr("chaos.energy_shock");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyLedger;
    use crate::geometry::Point;
    use crate::graph::UnitDiskGraph;
    use crate::medium::{LinkModel, Medium};
    use crate::radio::RadioModel;

    /// Inert actor used to advance the kernel clock in tests.
    struct Idle;
    impl Actor<u32> for Idle {
        fn on_message(&mut self, _: &mut Context<'_, u32>, _: ActorId, _: u32) {}
    }

    fn two_node_medium() -> SharedMedium {
        let pts = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let graph = UnitDiskGraph::build(&pts, 1.0);
        Medium::new(
            graph,
            RadioModel::uniform(1.0),
            LinkModel::ideal(),
            EnergyLedger::unlimited(2),
        )
        .shared()
    }

    #[test]
    fn injector_kills_on_schedule() {
        let medium = two_node_medium();
        let mut k: Kernel<u32> = Kernel::new(1);
        ChaosPlan::none()
            .crash_at(SimTime::from_ticks(3), 0)
            .crash_at(SimTime::from_ticks(7), 1)
            .install(&mut k, medium.clone())
            .unwrap();
        k.run_until(SimTime::from_ticks(5));
        assert!(!medium.borrow().is_alive(0));
        assert!(medium.borrow().is_alive(1));
        k.run();
        assert!(!medium.borrow().is_alive(1));
        assert_eq!(medium.borrow().death_time(0), Some(SimTime::from_ticks(3)));
        assert_eq!(medium.borrow().first_death(), Some(SimTime::from_ticks(3)));
        assert_eq!(k.stats().counter("fault.injected"), 2);
    }

    #[test]
    fn chaos_plan_applies_every_kind() {
        let medium = two_node_medium();
        let mut k: Kernel<u32> = Kernel::new(1);
        ChaosPlan::none()
            .crash_at(SimTime::from_ticks(1), 0)
            .recover_at(SimTime::from_ticks(2), 0)
            .degrade_link_at(SimTime::from_ticks(3), 0, 1, 0.9)
            .partition_at(SimTime::from_ticks(4), vec![0], vec![1])
            .delivery_at(
                SimTime::from_ticks(5),
                DeliveryChaos {
                    dup_prob: 0.5,
                    reorder_prob: 0.0,
                    reorder_max_extra_ticks: 0,
                },
            )
            .energy_shock_at(SimTime::from_ticks(6), 1, 2.5)
            .restore_link_at(SimTime::from_ticks(7), 0, 1)
            .heal_partition_at(SimTime::from_ticks(8))
            .install(&mut k, medium.clone())
            .unwrap();
        k.run_until(SimTime::from_ticks(2));
        assert!(
            medium.borrow().is_alive(0),
            "crashed at t=1, recovered at t=2"
        );
        k.run_until(SimTime::from_ticks(4));
        assert!(medium.borrow().partition_blocks(0, 1));
        k.run();
        assert!(!medium.borrow().partition_blocks(0, 1), "healed");
        assert_eq!(medium.borrow().delivery_chaos().dup_prob, 0.5);
        assert_eq!(k.stats().counter("fault.injected"), 8);
        assert_eq!(k.stats().counter("chaos.crash"), 1);
        assert_eq!(k.stats().counter("chaos.recover"), 1);
        assert_eq!(k.stats().counter("chaos.heal_partition"), 1);
    }

    #[test]
    fn install_rejects_out_of_range_node() {
        let medium = two_node_medium();
        let mut k: Kernel<u32> = Kernel::new(1);
        let err = ChaosPlan::none()
            .crash_at(SimTime::from_ticks(3), 9)
            .install(&mut k, medium)
            .unwrap_err();
        assert_eq!(
            err,
            ChaosError::NodeOutOfRange {
                event: 0,
                node: 9,
                node_count: 2
            }
        );
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn install_rejects_events_in_the_past() {
        let medium = two_node_medium();
        let mut k: Kernel<u32> = Kernel::new(1);
        // Advance the kernel past t=4 with a dummy message drain.
        let idle = k.add_actor(Box::new(Idle));
        k.schedule_message(SimTime::from_ticks(5), idle, idle, 0);
        k.run();
        let err = ChaosPlan::none()
            .crash_at(SimTime::from_ticks(4), 0)
            .install(&mut k, medium)
            .unwrap_err();
        assert!(matches!(err, ChaosError::EventInPast { event: 0, .. }));
    }

    #[test]
    fn validate_rejects_bad_probabilities_and_partitions() {
        let now = SimTime::ZERO;
        let bad_prob = ChaosPlan::none().degrade_link_at(SimTime::from_ticks(1), 0, 1, 1.5);
        assert!(matches!(
            bad_prob.validate(4, now),
            Err(ChaosError::InvalidProbability { event: 0, value }) if value == 1.5
        ));
        let nan = ChaosPlan::none().delivery_at(
            SimTime::from_ticks(1),
            DeliveryChaos {
                dup_prob: f64::NAN,
                reorder_prob: 0.0,
                reorder_max_extra_ticks: 0,
            },
        );
        assert!(matches!(
            nan.validate(4, now),
            Err(ChaosError::InvalidProbability { .. })
        ));
        let empty = ChaosPlan::none().partition_at(SimTime::from_ticks(1), vec![], vec![1]);
        assert_eq!(
            empty.validate(4, now),
            Err(ChaosError::EmptyPartitionGroup { event: 0 })
        );
        let overlap = ChaosPlan::none().partition_at(SimTime::from_ticks(1), vec![0, 1], vec![1]);
        assert_eq!(
            overlap.validate(4, now),
            Err(ChaosError::OverlappingPartitionGroups { event: 0, node: 1 })
        );
        let self_link = ChaosPlan::none().degrade_link_at(SimTime::from_ticks(1), 2, 2, 0.5);
        assert_eq!(
            self_link.validate(4, now),
            Err(ChaosError::SelfLink { event: 0, node: 2 })
        );
    }

    #[test]
    fn without_event_shrinks_by_one() {
        let plan = ChaosPlan::none()
            .crash_at(SimTime::from_ticks(1), 0)
            .crash_at(SimTime::from_ticks(2), 1)
            .heal_partition_at(SimTime::from_ticks(3));
        let shrunk = plan.without_event(1);
        assert_eq!(shrunk.len(), 2);
        assert_eq!(shrunk.events()[0].kind, FaultKind::Crash { node: 0 });
        assert_eq!(shrunk.events()[1].kind, FaultKind::HealPartition);
        // Display is the shrink report's vocabulary.
        assert_eq!(format!("{}", plan.events()[0]), "t=1 crash(node 0)");
    }

    #[test]
    fn mid_run_install_arms_timers_relative_to_now() {
        let medium = two_node_medium();
        let mut k: Kernel<u32> = Kernel::new(1);
        let idle = k.add_actor(Box::new(Idle));
        k.schedule_message(SimTime::from_ticks(10), idle, idle, 0);
        k.run();
        assert_eq!(k.now(), SimTime::from_ticks(10));
        ChaosPlan::none()
            .crash_at(SimTime::from_ticks(15), 1)
            .install(&mut k, medium.clone())
            .unwrap();
        k.run();
        assert!(!medium.borrow().is_alive(1));
        assert_eq!(medium.borrow().death_time(1), Some(SimTime::from_ticks(15)));
    }
}
