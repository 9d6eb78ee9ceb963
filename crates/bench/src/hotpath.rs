//! The certified zero-copy hot path under measurement.
//!
//! The frame certificate (`wsn-analyze` pass 7) licenses a runtime
//! configuration where every application payload travels as a fixed
//! [`wsn_net::FrameBuf`] inside the runtime's typed envelope and the
//! steady-state event loop never touches the heap. This module is the
//! measurement side of that claim:
//!
//! * [`steady_state_hotpath`] drives a seeded ping-pong mission on a
//!   framed [`PhysicalRuntime`] — warm-up rounds to size every table,
//!   then one measured round whose send→forward→deliver→dispatch cycles
//!   are counted against the process allocator;
//! * [`allocprobe`] is the hook a counting `#[global_allocator]`
//!   registers (the `wsn-lint` binary installs one; the library itself
//!   stays `forbid(unsafe_code)`);
//! * the measured round's allocation count is the `allocs_per_event`
//!   column of the `BENCH_topoquery.json` perf baseline, gated like
//!   latency, and its bare-vs-instrumented wall-clock ratio is what the
//!   `obs` gate row bounds.

use wsn_core::{GridCoord, NodeApi, NodeProgram};
use wsn_net::{DeploymentSpec, LinkModel, RadioModel};
use wsn_runtime::{FramedProgram, ParallelConfig, PhysicalRuntime};

pub mod allocprobe {
    //! Registration point for a counting allocator.
    //!
    //! The library cannot own a `#[global_allocator]` (workspace crates
    //! forbid `unsafe`), so binaries and integration tests that *do*
    //! install one register a counter callback here; the harness reads
    //! it around the measured window. Without a probe the harness still
    //! runs — allocation columns come back unmeasured.

    use std::sync::OnceLock;

    static PROBE: OnceLock<fn() -> u64> = OnceLock::new();

    /// Registers the allocation counter. First caller wins; later calls
    /// are ignored (the probe is process-global, like the allocator).
    pub fn install(probe: fn() -> u64) {
        let _ = PROBE.set(probe);
    }

    /// Total heap allocations so far, when a probe is installed.
    pub fn allocations() -> Option<u64> {
        PROBE.get().map(|f| f())
    }
}

/// A two-endpoint ping-pong over the emulated multi-hop network: the
/// origin leader opens a volley, each endpoint echoes the counter back
/// until `2 · volleys` sends have happened. Every echo crosses the full
/// diagonal of the grid hop by hop, so one round exercises the complete
/// send→forward→deliver→dispatch cycle many times with no
/// application-side work to muddy the measurement.
pub struct HotpathProgram {
    origin: GridCoord,
    peer: GridCoord,
    volleys: u64,
}

impl HotpathProgram {
    /// Ping-pong between the grid's opposite corners.
    pub fn corners(side: u32, volleys: u64) -> Self {
        HotpathProgram {
            origin: GridCoord::new(0, 0),
            peer: GridCoord::new(side - 1, side - 1),
            volleys,
        }
    }
}

impl NodeProgram<u64> for HotpathProgram {
    fn on_init(&mut self, api: &mut dyn NodeApi<u64>) {
        if api.coord() == self.origin {
            api.send(self.peer, 1, 1);
        }
    }

    fn on_receive(&mut self, api: &mut dyn NodeApi<u64>, _from: GridCoord, count: u64) {
        if count >= 2 * self.volleys {
            return;
        }
        let back = if api.coord() == self.origin {
            self.peer
        } else {
            self.origin
        };
        api.send(back, 1, count + 1);
    }
}

/// What one steady-state measurement produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotpathReport {
    /// Grid side of the framed deployment.
    pub side: u32,
    /// Volleys in the measured round.
    pub volleys: u64,
    /// Kernel events dispatched inside the measured round.
    pub events: u64,
    /// Wall-clock nanoseconds of the measured round.
    pub wall_ns: u64,
    /// Heap allocations inside the measured round, when a counting
    /// allocator probe is installed (see [`allocprobe`]).
    pub allocations: Option<u64>,
}

impl HotpathReport {
    /// Allocations per dispatched event; `None` without a probe.
    pub fn allocs_per_event(&self) -> Option<f64> {
        self.allocations
            .map(|a| a as f64 / (self.events.max(1)) as f64)
    }

    /// Wall-clock nanoseconds per dispatched event.
    pub fn ns_per_event(&self) -> f64 {
        self.wall_ns as f64 / (self.events.max(1)) as f64
    }
}

/// Builds the seeded framed deployment (one node per cell, ideal links,
/// causal tracing and telemetry both off — the production hot-path
/// configuration the frame certificate describes), runs `warmup_rounds`
/// ping-pong rounds to bring every buffer, table, and queue to its
/// steady-state capacity, then measures one more round.
///
/// Requires [`wsn_core::framed_payload_fits`]`(side)` — the harness
/// refuses to drive the framed runtime outside its certified envelope.
pub fn steady_state_hotpath(side: u32, volleys: u64, warmup_rounds: u32) -> HotpathReport {
    steady_state_hotpath_with(side, volleys, warmup_rounds, false)
}

/// [`steady_state_hotpath`] with the runtime's telemetry switchable: the
/// `telemetry` variant runs the same mission with every counter, gauge,
/// and kernel metric live, so the bare-vs-instrumented throughput ratio
/// is what the `obs` gate row bounds. (The instrumented round is
/// *allowed* to allocate — telemetry series are heap-keyed; only the
/// bare configuration carries the no-alloc claim.)
pub fn steady_state_hotpath_with(
    side: u32,
    volleys: u64,
    warmup_rounds: u32,
    telemetry: bool,
) -> HotpathReport {
    hotpath(side, volleys, warmup_rounds, telemetry, None)
}

/// [`steady_state_hotpath`] with every round, warm-up and measured, on
/// the sharded engine at quad-tree cut level 1 with one lane. The
/// `alloc` gate row holds a warm sharded round to the same zero
/// allocations as a sequential one.
pub fn sharded_hotpath(side: u32, volleys: u64, warmup_rounds: u32) -> HotpathReport {
    let sharded = Some(ParallelConfig::at_cut(1));
    hotpath(side, volleys, warmup_rounds, false, sharded)
}

fn hotpath(
    side: u32,
    volleys: u64,
    warmup_rounds: u32,
    telemetry: bool,
    sharded: Option<ParallelConfig>,
) -> HotpathReport {
    assert!(
        wsn_core::framed_payload_fits(side),
        "side {side} is outside the certified frame envelope"
    );
    let deployment = DeploymentSpec::per_cell(side, 1).generate(5);
    let range = deployment.grid().range_for_adjacent_cell_reachability();
    let mut rt: PhysicalRuntime<wsn_net::FrameBuf> = PhysicalRuntime::new(
        deployment,
        RadioModel::uniform(range),
        LinkModel::ideal(),
        None,
        1,
        5,
        |c| f64::from(c.col + c.row),
    );
    if telemetry {
        rt.enable_telemetry(false);
    }
    let topo = rt.run_topology_emulation();
    assert!(topo.complete, "topology emulation must complete");
    let bind = rt.run_binding();
    assert!(bind.unique, "binding must elect unique leaders");
    rt.install_programs(move |_| {
        Box::new(FramedProgram::new(HotpathProgram::corners(side, volleys)))
    });
    let round = |rt: &mut PhysicalRuntime<wsn_net::FrameBuf>| match &sharded {
        None => rt.run_application(),
        Some(cfg) => rt.run_application_parallel(cfg),
    };
    for _ in 0..warmup_rounds.max(1) {
        let app = round(&mut rt);
        assert!(app.messages >= 2 * volleys, "volley did not complete");
        rt.clear_exfiltrated();
    }
    let events_before = rt.events_total();
    let allocs_before = allocprobe::allocations();
    let started = std::time::Instant::now();
    let app = round(&mut rt);
    let wall_ns = started.elapsed().as_nanos() as u64;
    let allocs_after = allocprobe::allocations();
    assert!(
        app.messages >= 2 * volleys,
        "measured volley did not complete"
    );
    HotpathReport {
        side,
        volleys,
        events: rt.events_total() - events_before,
        wall_ns,
        allocations: allocs_before
            .zip(allocs_after)
            .map(|(before, after)| after - before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_reaches_steady_state_and_reports_per_event_cost() {
        let report = steady_state_hotpath(8, 50, 2);
        assert_eq!(report.side, 8);
        // 100 logical sends, each crossing the 14-hop diagonal.
        assert!(report.events > 1000, "events: {}", report.events);
        assert!(report.ns_per_event() > 0.0);
        // No probe installed in the unit suite: unmeasured, not zero.
        assert_eq!(report.allocations, None);
        assert_eq!(report.allocs_per_event(), None);
    }

    #[test]
    fn hotpath_refuses_uncertified_sides() {
        let caught = std::panic::catch_unwind(|| steady_state_hotpath(32, 1, 1));
        assert!(caught.is_err(), "side 32 exceeds the frame envelope");
    }

    #[test]
    fn instrumented_variant_dispatches_identically() {
        // Telemetry must observe the run, not perturb it: the
        // instrumented mission dispatches exactly the events the bare
        // one does, so the overhead ratio compares equal workloads.
        let bare = steady_state_hotpath_with(4, 10, 1, false);
        let instr = steady_state_hotpath_with(4, 10, 1, true);
        assert_eq!(bare.events, instr.events);
    }

    #[test]
    fn the_sharded_round_dispatches_what_the_sequential_one_does() {
        let sequential = steady_state_hotpath(8, 20, 1);
        let sharded = sharded_hotpath(8, 20, 1);
        assert_eq!(sequential.events, sharded.events);
    }

    #[test]
    fn volleys_terminate_exactly() {
        let mut report = steady_state_hotpath(4, 10, 1);
        // Determinism: the same seeded mission dispatches the same
        // number of events every time.
        for _ in 0..2 {
            let again = steady_state_hotpath(4, 10, 1);
            assert_eq!(again.events, report.events);
            report = again;
        }
    }
}
