//! Churn recovery: kill elected leaders mid-mission and show the runtime
//! re-running topology emulation and binding (§5.1: "the above protocol
//! should execute periodically" because "nodes can leave or fail").
//!
//! ```text
//! cargo run --release --example churn_recovery
//! ```

use wsn::core::GridCoord;
use wsn::net::{DeploymentSpec, LinkModel, RadioModel};
use wsn::runtime::PhysicalRuntime;
use wsn::synth::SummaryMsg;
use wsn::topoquery::{label_regions, DandcProgram, Field, FieldSpec, RegionSummary};

fn main() {
    let side = 4u32;
    let deployment = DeploymentSpec::per_cell(side, 4).generate(77);
    let range = deployment.grid().range_for_adjacent_cell_reachability();
    let field = Field::generate(
        FieldSpec::Blobs {
            count: 2,
            amplitude: 10.0,
            radius: 1.2,
        },
        side,
        9,
    );
    let truth = label_regions(&field.threshold(5.0)).region_count();
    let f = field.clone();
    let mut rt: PhysicalRuntime<SummaryMsg<RegionSummary>> = PhysicalRuntime::new(
        deployment,
        RadioModel::uniform(range),
        LinkModel::ideal(),
        None,
        1,
        77,
        move |c| f.value(c),
    );

    rt.run_topology_emulation();
    let bind = rt.run_binding();
    let elected = bind.leaders.iter().flatten().count();
    println!("initial election: {elected} unique leaders");
    rt.install_programs(move |_| Box::new(DandcProgram::new(side, 5.0)));
    let app = rt.run_application();
    println!(
        "round 1: {} exfiltration(s), latency {:?} ticks\n",
        app.exfil_count, app.last_exfil_ticks
    );
    let got = rt.take_exfiltrated()[0]
        .payload
        .data
        .expect_complete()
        .region_count();
    assert_eq!(got, truth);

    // Kill three leaders, including the root's.
    for cell in [
        GridCoord::new(0, 0),
        GridCoord::new(2, 1),
        GridCoord::new(3, 3),
    ] {
        let victim = rt.leader_of(cell).expect("leader exists");
        println!(
            "killing node {victim}, leader of cell ({}, {})",
            cell.col, cell.row
        );
        let now = rt.now();
        rt.medium().borrow_mut().kill(victim, now);
    }

    let (topo2, bind2) = rt.refresh_after_churn();
    println!(
        "\nrecovery: topology re-emulated (complete={}), re-election unique={}",
        topo2.complete, bind2.unique
    );
    for cell in [
        GridCoord::new(0, 0),
        GridCoord::new(2, 1),
        GridCoord::new(3, 3),
    ] {
        println!(
            "  cell ({}, {}) new leader: node {:?}",
            cell.col,
            cell.row,
            rt.leader_of(cell)
        );
    }

    let app2 = rt.run_application();
    let got2 = rt.take_exfiltrated()[0]
        .payload
        .data
        .expect_complete()
        .region_count();
    println!(
        "\nround 2 after recovery: {} exfiltration(s), {} regions (truth {}) {}",
        app2.exfil_count,
        got2,
        truth,
        if got2 == truth { "✓" } else { "✗" },
    );
    assert_eq!(got2, truth);
}
