//! Failure handling across the stack: node churn, re-election, message
//! loss, and the safety property that a stalled merge never yields a wrong
//! answer.

use wsn::core::GridCoord;
use wsn::net::{ChaosPlan, DeploymentSpec, LinkModel, RadioModel};
use wsn::runtime::{PhysicalRuntime, SelfHealConfig};
use wsn::sim::SimTime;
use wsn::synth::SummaryMsg;
use wsn::topoquery::{
    label_regions, run_dandc_physical, DandcProgram, Field, FieldSpec, Implementation,
    RegionSummary,
};

type Msg = SummaryMsg<RegionSummary>;

fn build_runtime(side: u32, per_cell: usize, seed: u64, field: Field) -> PhysicalRuntime<Msg> {
    let deployment = DeploymentSpec::per_cell(side, per_cell).generate(seed);
    let range = deployment.grid().range_for_adjacent_cell_reachability();
    PhysicalRuntime::new(
        deployment,
        RadioModel::uniform(range),
        LinkModel::ideal(),
        None,
        1,
        seed,
        move |c| field.value(c),
    )
}

#[test]
fn killing_every_cell_leader_still_recovers() {
    let side = 2u32;
    let field = Field::generate(FieldSpec::Uniform(10.0), side, 1);
    let truth = label_regions(&field.threshold(5.0)).region_count();
    let mut rt = build_runtime(side, 5, 3, field);
    rt.run_topology_emulation();
    let bind = rt.run_binding();
    assert!(bind.unique);
    let victims: Vec<usize> = rt
        .grid()
        .nodes()
        .map(|c| rt.leader_of(c).unwrap())
        .collect();
    for v in &victims {
        let now = rt.now();
        rt.medium().borrow_mut().kill(*v, now);
    }
    let (topo, bind2) = rt.refresh_after_churn();
    assert!(topo.complete, "4 survivors per cell keep cells connected");
    assert!(bind2.unique);
    for cell in rt.grid().nodes() {
        let new = rt.leader_of(cell).unwrap();
        assert!(!victims.contains(&new));
    }
    rt.install_programs(move |_| Box::new(DandcProgram::new(side, 5.0)));
    let app = rt.run_application();
    assert_eq!(app.exfil_count, 1);
    assert_eq!(
        rt.take_exfiltrated()[0]
            .payload
            .data
            .expect_complete()
            .region_count(),
        truth
    );
}

#[test]
fn fault_plan_kills_mid_application() {
    // A mid-run failure of the root leader prevents exfiltration but the
    // run still terminates (no wedged simulation). The kill travels the
    // real injector path: a crash-only ChaosPlan installed into the
    // runtime's kernel, applied by the injector actor at its scheduled
    // instant.
    let side = 2u32;
    let field = Field::generate(FieldSpec::Uniform(10.0), side, 1);
    let mut rt = build_runtime(side, 3, 5, field);
    rt.run_topology_emulation();
    rt.run_binding();
    let root_leader = rt.leader_of(GridCoord::new(0, 0)).unwrap();
    // Schedule the kill just after the application kicks off.
    let kill_at = rt.now() + 1;
    let plan = ChaosPlan::none().crash_at(kill_at, root_leader);
    rt.install_chaos(plan).unwrap();
    rt.install_programs(move |_| Box::new(DandcProgram::new(side, 5.0)));
    let app = rt.run_application();
    assert_eq!(app.exfil_count, 0, "root died; nothing exfiltrated");
    assert!(
        !rt.medium().borrow().is_alive(root_leader),
        "the injector applied the crash"
    );
}

#[test]
fn self_healing_recovers_the_answer_after_leader_crash() {
    // The same class of failure `fault_plan_kills_mid_application` proves
    // fatal for a plain application run is survived by the chaos mission:
    // leases expire, the runtime re-emulates and re-binds, and the answer
    // still matches the centralized oracle.
    let side = 2u32;
    let field = Field::generate(FieldSpec::Uniform(10.0), side, 1);
    let truth = label_regions(&field.threshold(5.0)).region_count();
    let victim = {
        let mut probe = build_runtime(side, 4, 3, field.clone());
        probe.run_topology_emulation();
        assert!(probe.run_binding().unique);
        probe.leader_of(GridCoord::new(0, 0)).unwrap()
    };
    let cfg = SelfHealConfig::default();
    // A pending far-future chaos event holds each bounded bring-up phase
    // to its full horizon, so the application starts at exactly
    // 3 × phase_budget_ticks; the root-cell leader dies one tick later.
    let crash_at = 3 * cfg.phase_budget_ticks + 1;
    let mut rt = build_runtime(side, 4, 3, field);
    rt.install_programs(move |_| Box::new(DandcProgram::new(side, 5.0)));
    rt.install_chaos(ChaosPlan::none().crash_at(SimTime::from_ticks(crash_at), victim))
        .unwrap();
    let report = rt.run_chaos_mission(cfg, 1);
    assert!(
        report.completed,
        "healing must rescue the merge: {report:?}"
    );
    assert!(report.heals >= 1, "{report:?}");
    assert!(report.leases_expired >= 1, "{report:?}");
    let answers = rt.take_exfiltrated();
    assert!(!answers.is_empty());
    for a in &answers {
        assert_eq!(
            a.payload.data.expect_complete().region_count(),
            truth,
            "a healed run must still tell the truth"
        );
    }
}

#[test]
fn loss_free_physical_run_is_always_correct() {
    for seed in 0..5u64 {
        let side = 4u32;
        let field = Field::generate(
            FieldSpec::RandomCells {
                p: 0.5,
                hot: 1.0,
                cold: 0.0,
            },
            side,
            seed,
        );
        let truth = label_regions(&field.threshold(0.5)).region_count();
        let deployment = DeploymentSpec::per_cell(side, 2).generate(seed + 50);
        let (out, _) = run_dandc_physical(
            deployment,
            LinkModel::ideal(),
            0.5,
            &field,
            seed,
            Implementation::Native,
        );
        assert_eq!(
            out.summary.expect("no loss, must complete").region_count(),
            truth
        );
    }
}

#[test]
fn lossy_runs_complete_or_stay_silent_never_lie() {
    let side = 4u32;
    let field = Field::generate(
        FieldSpec::Blobs {
            count: 2,
            amplitude: 10.0,
            radius: 1.0,
        },
        side,
        3,
    );
    let truth = label_regions(&field.threshold(5.0)).region_count();
    let mut completed = 0;
    for seed in 0..8u64 {
        let deployment = DeploymentSpec::per_cell(side, 2).generate(seed);
        let (out, _) = run_dandc_physical(
            deployment,
            LinkModel::lossy(0.15, 2),
            5.0,
            &field,
            seed,
            Implementation::Native,
        );
        if let Some(summary) = out.summary {
            completed += 1;
            // Completion implies every child summary arrived intact, so
            // the answer is exact.
            assert_eq!(summary.region_count(), truth, "seed {seed}");
        }
    }
    // With 15% loss across ~45 logical messages, at least one of eight
    // trials stalls and at least one completes (deterministic seeds).
    assert!(completed < 8, "some trial should stall under 15% loss");
}
