//! The divide-and-conquer in-network algorithm (§4.1) and its drivers.
//!
//! Two interchangeable node programs compute the same result:
//!
//! * [`DandcProgram`] — the hand-written ("native") implementation of the
//!   Figure-4 behavior, as a programmer would code it directly;
//! * the synthesized guarded-command program from `wsn-synth`, executed by
//!   its interpreter with [`crate::merge::RegionSemantics`].
//!
//! Tests assert the two produce byte-identical root summaries — the
//! synthesis stage does not change the algorithm, only its provenance.
//!
//! The drivers run either program on the ideal virtual machine
//! ([`run_dandc_vm`]) or the emulated physical network
//! ([`run_dandc_physical`]); both return the exfiltrated root summary plus
//! the standard metric bundle, which is what the experiment harness
//! tabulates.

use crate::boundary::BoundarySummary;
use crate::field::Field;
use crate::merge::{merge_pieces, RegionSemantics, RegionSummary};
use std::rc::Rc;
use wsn_core::{CostModel, GridCoord, Hierarchy, NodeApi, NodeProgram, RunMetrics, Vm};
use wsn_net::{Deployment, LinkModel, RadioModel};
use wsn_runtime::{AppReport, BindReport, PhysicalRuntime, TopoReport};
use wsn_synth::{synthesize_quadtree_program, SummaryMsg, SynthesizedNode};

/// The message type both implementations exchange.
pub type DandcMsg = SummaryMsg<RegionSummary>;

/// Hand-written implementation of the quad-tree region-labeling node
/// program.
pub struct DandcProgram {
    threshold: f64,
    hierarchy: Hierarchy,
    /// Received quadrant summaries, per level; allocated by the first
    /// receive, since most leaders never merge.
    pieces: Vec<Vec<BoundarySummary>>,
}

impl DandcProgram {
    /// A program instance for one node of a `side × side` grid.
    pub fn new(side: u32, threshold: f64) -> Self {
        DandcProgram {
            threshold,
            hierarchy: Hierarchy::new(side),
            pieces: Vec::new(),
        }
    }

    fn ship(&mut self, api: &mut dyn NodeApi<DandcMsg>, level: u8, summary: BoundarySummary) {
        if level > self.hierarchy.max_level() {
            unreachable!("shipping beyond the root level");
        }
        let units = summary.units();
        let msg = SummaryMsg {
            sender: api.coord(),
            level,
            data: RegionSummary::Complete(summary),
        };
        let dest = self.hierarchy.leader(api.coord(), level);
        api.send(dest, units, msg);
    }
}

impl NodeProgram<DandcMsg> for DandcProgram {
    fn on_init(&mut self, api: &mut dyn NodeApi<DandcMsg>) {
        let reading = api.read_sensor();
        api.compute(1);
        let leaf = BoundarySummary::leaf(api.coord(), reading >= self.threshold);
        if self.hierarchy.max_level() == 0 {
            // 1×1 grid: the leaf is the final aggregation.
            api.exfiltrate(SummaryMsg {
                sender: api.coord(),
                level: 0,
                data: RegionSummary::Complete(leaf),
            });
        } else {
            self.ship(api, 1, leaf);
        }
    }

    fn on_receive(&mut self, api: &mut dyn NodeApi<DandcMsg>, _from: GridCoord, msg: DandcMsg) {
        let level = msg.level as usize;
        let piece = msg.data.expect_complete().clone();
        api.compute(piece.units());
        if self.pieces.is_empty() {
            let levels = self.hierarchy.max_level() as usize + 2;
            self.pieces.resize_with(levels, Vec::new);
        }
        self.pieces[level].push(piece);
        if self.pieces[level].len() == 4 {
            let merged = merge_pieces(std::mem::take(&mut self.pieces[level]));
            // Telemetry: the completion instant of each quadtree merge, by
            // level. The runtime reconstructs per-level spans from these.
            api.stat_observe(
                &format!("merge.level{}.complete", msg.level),
                api.now().ticks() as f64,
            );
            if msg.level == self.hierarchy.max_level() {
                api.exfiltrate(SummaryMsg {
                    sender: api.coord(),
                    level: msg.level,
                    data: RegionSummary::Complete(merged),
                });
            } else {
                self.ship(api, msg.level + 1, merged);
            }
        }
    }
}

/// Which implementation of the algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Implementation {
    /// The hand-written node program.
    Native,
    /// The synthesized guarded-command program under interpretation.
    Synthesized,
}

/// Result of a divide-and-conquer run.
#[derive(Debug, Clone)]
pub struct DandcOutcome {
    /// The root's merged summary (absent if the run stalled, e.g. under
    /// message loss).
    pub summary: Option<BoundarySummary>,
    /// The standard metric bundle.
    pub metrics: RunMetrics,
    /// Number of exfiltrations (1 on success).
    pub exfil_count: usize,
}

fn make_factory(
    implementation: Implementation,
    side: u32,
    threshold: f64,
) -> impl FnMut(GridCoord) -> Box<dyn NodeProgram<DandcMsg>> {
    let program = Rc::new(synthesize_quadtree_program(
        Hierarchy::new(side).max_level(),
    ));
    let semantics = Rc::new(RegionSemantics { threshold });
    move |_coord| match implementation {
        Implementation::Native => Box::new(DandcProgram::new(side, threshold)),
        Implementation::Synthesized => Box::new(SynthesizedNode::new(
            program.clone(),
            semantics.clone(),
            side,
        )),
    }
}

/// Runs the algorithm on the ideal virtual machine with the uniform cost
/// model.
pub fn run_dandc_vm(
    side: u32,
    field: &Field,
    threshold: f64,
    seed: u64,
    implementation: Implementation,
) -> DandcOutcome {
    run_dandc_vm_with_cost(
        side,
        field,
        threshold,
        seed,
        implementation,
        CostModel::uniform(),
    )
}

/// Runs the algorithm on the ideal virtual machine under an explicit cost
/// model. Setting `ticks_per_unit = 0` yields the paper's *step* model
/// (one latency unit per hop regardless of message size), under which the
/// O(√n)-steps claim of §4.1 is measured.
pub fn run_dandc_vm_with_cost(
    side: u32,
    field: &Field,
    threshold: f64,
    seed: u64,
    implementation: Implementation,
    cost: CostModel,
) -> DandcOutcome {
    let field = field.clone();
    let mut vm: Vm<DandcMsg> = Vm::new(
        side,
        cost,
        seed,
        move |c| field.value(c),
        make_factory(implementation, side, threshold),
    );
    vm.run();
    let metrics = vm.metrics();
    let exfil = vm.take_exfiltrated();
    DandcOutcome {
        exfil_count: exfil.len(),
        summary: exfil
            .into_iter()
            .next()
            .map(|e| e.payload.data.expect_complete().clone()),
        metrics,
    }
}

/// Reports from the three runtime phases of a physical run.
#[derive(Debug, Clone)]
pub struct PhysicalReports {
    /// Topology emulation (§5.1).
    pub topo: TopoReport,
    /// Binding (§5.2).
    pub bind: BindReport,
    /// Application execution.
    pub app: AppReport,
}

/// Runs the algorithm on an emulated physical deployment: topology
/// emulation, then binding, then the application.
///
/// `link` applies to the *application* phase only; the control phases run
/// on reliable links. The paper's protocols carry no loss handling — their
/// repair mechanism is periodic re-execution (§5.1) — so subjecting them
/// to per-message loss would measure an unimplemented failure mode (two
/// nodes can end up believing they lead one cell). Application traffic is
/// where §4.3's asynchronous incremental merge earns its keep, and that is
/// what EXP-12 stresses.
pub fn run_dandc_physical(
    deployment: Deployment,
    link: LinkModel,
    threshold: f64,
    field: &Field,
    seed: u64,
    implementation: Implementation,
) -> (DandcOutcome, PhysicalReports) {
    run_dandc_physical_with(
        deployment,
        link,
        threshold,
        field,
        seed,
        implementation,
        None,
    )
}

/// [`run_dandc_physical`] with optional hop-by-hop ARQ
/// `(max_retries, timeout_ticks)` for the application phase — the
/// reliability extension evaluated by EXP-12.
#[allow(clippy::too_many_arguments)]
pub fn run_dandc_physical_with(
    deployment: Deployment,
    link: LinkModel,
    threshold: f64,
    field: &Field,
    seed: u64,
    implementation: Implementation,
    arq: Option<(u32, u64)>,
) -> (DandcOutcome, PhysicalReports) {
    let side = deployment.grid().cells_per_side();
    assert_eq!(field.side(), side, "field must cover the virtual grid");
    let range = deployment.grid().range_for_adjacent_cell_reachability();
    let field = field.clone();
    let mut rt: PhysicalRuntime<DandcMsg> = PhysicalRuntime::new(
        deployment,
        RadioModel::uniform(range),
        LinkModel::ideal(),
        None,
        1,
        seed,
        move |c| field.value(c),
    );
    let topo = rt.run_topology_emulation();
    let bind = rt.run_binding();
    rt.install_programs(make_factory(implementation, side, threshold));
    rt.set_link_model(link);
    if let Some((max_retries, timeout_ticks)) = arq {
        rt.enable_arq(max_retries, timeout_ticks);
    }
    let app = rt.run_application();
    let metrics = rt.metrics(&app);
    let exfil = rt.take_exfiltrated();
    (
        DandcOutcome {
            exfil_count: exfil.len(),
            summary: exfil
                .into_iter()
                .next()
                .map(|e| e.payload.data.expect_complete().clone()),
            metrics,
        },
        PhysicalReports { topo, bind, app },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldSpec;
    use crate::regions::label_regions;
    use wsn_net::DeploymentSpec;

    fn blob_field(side: u32, seed: u64) -> Field {
        Field::generate(
            FieldSpec::Blobs {
                count: 3,
                amplitude: 10.0,
                radius: 2.0,
            },
            side,
            seed,
        )
    }

    #[test]
    fn native_vm_run_matches_ground_truth() {
        for side in [2u32, 4, 8, 16] {
            let field = blob_field(side, side as u64);
            let out = run_dandc_vm(side, &field, 5.0, 1, Implementation::Native);
            assert_eq!(out.exfil_count, 1, "side {side}");
            let summary = out.summary.unwrap();
            let truth = label_regions(&field.threshold(5.0));
            assert_eq!(summary.region_count(), truth.region_count(), "side {side}");
        }
    }

    #[test]
    fn synthesized_equals_native_exactly() {
        for (side, seed) in [(4u32, 1u64), (8, 2), (16, 3)] {
            let field = Field::generate(
                FieldSpec::RandomCells {
                    p: 0.45,
                    hot: 1.0,
                    cold: 0.0,
                },
                side,
                seed,
            );
            let native = run_dandc_vm(side, &field, 0.5, 9, Implementation::Native);
            let synth = run_dandc_vm(side, &field, 0.5, 9, Implementation::Synthesized);
            assert_eq!(native.summary, synth.summary, "side {side} seed {seed}");
            assert_eq!(native.exfil_count, synth.exfil_count);
            // Same traffic shape: identical message counts and energy.
            assert_eq!(native.metrics.messages, synth.metrics.messages);
            assert_eq!(native.metrics.data_units, synth.metrics.data_units);
            assert!((native.metrics.total_energy - synth.metrics.total_energy).abs() < 1e-9);
            assert_eq!(native.metrics.latency_ticks, synth.metrics.latency_ticks);
        }
    }

    #[test]
    fn native_run_observes_merge_completions() {
        let side = 4u32;
        let field = blob_field(side, 2);
        let f = field.clone();
        let mut vm: Vm<DandcMsg> = Vm::new(
            side,
            CostModel::uniform(),
            1,
            move |c| f.value(c),
            make_factory(Implementation::Native, side, 5.0),
        );
        vm.run();
        // 4×4 grid: level 1 completes 4 quadrant merges, level 2 (root) 1.
        let h1 = vm
            .stats()
            .histogram("merge.level1.complete")
            .expect("level-1 merges observed");
        assert_eq!(h1.count(), 4);
        let h2 = vm
            .stats()
            .histogram("merge.level2.complete")
            .expect("root merge observed");
        assert_eq!(h2.count(), 1);
        assert!(h2.max() >= h1.max(), "the root completes last");
    }

    #[test]
    fn trivial_grid_exfiltrates_leaf() {
        let field = Field::generate(FieldSpec::Uniform(9.0), 1, 1);
        let out = run_dandc_vm(1, &field, 5.0, 1, Implementation::Native);
        assert_eq!(out.exfil_count, 1);
        assert_eq!(out.summary.unwrap().region_count(), 1);
    }

    #[test]
    fn physical_run_agrees_with_vm_result() {
        let side = 4u32;
        let field = blob_field(side, 7);
        let vm_out = run_dandc_vm(side, &field, 5.0, 1, Implementation::Native);
        let deployment = DeploymentSpec::per_cell(side, 3).generate(5);
        let (phys_out, reports) = run_dandc_physical(
            deployment,
            LinkModel::ideal(),
            5.0,
            &field,
            5,
            Implementation::Native,
        );
        assert!(reports.topo.complete);
        assert!(reports.bind.unique);
        assert_eq!(phys_out.exfil_count, 1);
        assert_eq!(
            phys_out.summary, vm_out.summary,
            "same result at both levels"
        );
        // But the physical run pays more: protocol energy + multi-hop cells.
        assert!(phys_out.metrics.total_energy > vm_out.metrics.total_energy);
        assert!(phys_out.metrics.latency_ticks >= vm_out.metrics.latency_ticks);
    }

    #[test]
    fn physical_synthesized_also_agrees() {
        let side = 4u32;
        let field = blob_field(side, 11);
        let deployment = DeploymentSpec::per_cell(side, 2).generate(13);
        let (a, _) = run_dandc_physical(
            deployment.clone(),
            LinkModel::ideal(),
            5.0,
            &field,
            5,
            Implementation::Synthesized,
        );
        let truth = label_regions(&field.threshold(5.0));
        assert_eq!(a.summary.unwrap().region_count(), truth.region_count());
    }

    #[test]
    fn lossy_network_can_stall_without_wrong_answers() {
        let side = 8u32;
        let field = blob_field(side, 3);
        let deployment = DeploymentSpec::per_cell(side, 2).generate(21);
        let (out, _) = run_dandc_physical(
            deployment,
            LinkModel::lossy(0.25, 2),
            5.0,
            &field,
            7,
            Implementation::Native,
        );
        // With 25% loss the merge tree usually stalls; whatever is
        // exfiltrated must still be a valid summary (never a corrupt one).
        if let Some(summary) = out.summary {
            assert_eq!(summary.side, side);
        } else {
            assert_eq!(out.exfil_count, 0);
        }
    }
}
