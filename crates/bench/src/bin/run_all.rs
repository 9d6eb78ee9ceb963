//! Runs every figure regenerator and experiment in DESIGN.md order, then
//! the gate table's `conform` and `perf` rows (the model-fidelity gate,
//! and the seeded snapshots vs the committed `BENCH_topoquery.json`),
//! and only then rewrites the baseline — its only writer.

use wsn_bench::gates::{self, BASELINE_PATH};

fn main() {
    print!("{}\n\n", wsn_bench::fig2_quadtree());
    print!("{}\n\n", wsn_bench::fig3_mapping());
    print!("{}\n\n", wsn_bench::fig4_program());
    println!("{}", wsn_bench::exp5_latency_scaling(&[4, 8, 16, 32, 64]));
    println!(
        "{}",
        wsn_bench::exp6_dandc_vs_central(&[4, 8, 16, 32], &[0.05, 0.2, 0.5])
    );
    println!(
        "{}",
        wsn_bench::exp7_topology_emulation(&[4, 8, 16], &[4], &[2.24])
    );
    println!(
        "{}",
        wsn_bench::exp7_topology_emulation(&[8], &[8, 16, 32], &[0.4, 0.5, 0.7, 1.0])
    );
    println!(
        "{}",
        wsn_bench::exp8_binding(8, &[8, 16, 32], &[0.4, 0.5, 0.7, 2.24])
    );
    println!("{}", wsn_bench::exp9_model_fidelity(&[4, 8, 16], 3));
    println!("{}", wsn_bench::exp10_group_cost(32, &[1, 2, 3, 4, 5]));
    println!("{}", wsn_bench::exp11_energy_balance(16, 64));
    println!(
        "{}",
        wsn_bench::exp12_loss_robustness(8, 3, &[0.0, 0.01, 0.05, 0.1], 20)
    );
    println!("{}", wsn_bench::exp13_mapping_ablation(&[8, 16, 32]));
    println!("{}", wsn_bench::exp14_collectives(&[4, 8, 16]));
    println!("{}", wsn_bench::exp15_mac_ablation(8, 3, &[4, 8, 16, 32]));
    println!(
        "{}",
        wsn_bench::exp16_mission_under_churn(4, 4, 40, &[0, 10, 5, 1])
    );
    println!("{}", wsn_bench::exp17_election_lifetime(4, 4, 3000.0, 400));
    println!(
        "{}",
        wsn_bench::exp18_sampling_accuracy(4, &[2, 4, 8, 16], &[0.5, 2.0])
    );
    println!(
        "{}",
        wsn_bench::exp19_architecture_selection(&[4, 8, 16, 32])
    );
    println!(
        "{}",
        wsn_bench::exp20_parallel_scale(
            &[8, 16],
            3,
            &[
                wsn_bench::experiments::RunEngine::Sequential,
                wsn_bench::experiments::RunEngine::Sharded {
                    cut_level: 2,
                    workers: 4,
                },
            ],
        )
    );
    // The gate table's model-fidelity and perf rows: the measurements the
    // tables above are built from must sit inside the symbolically
    // certified §4 bounds, and the seeded snapshots must match the
    // committed baseline *before* it is rewritten, so drift fails loudly
    // instead of being silently absorbed into a fresh snapshot.
    let baseline = std::fs::read_to_string(BASELINE_PATH).ok();
    for row in ["conform", "perf"] {
        if row == "perf" && baseline.is_none() {
            println!("no {BASELINE_PATH} baseline found; recording a fresh one");
            continue;
        }
        let run = gates::find(row).expect("gate row").clean();
        print!("{}", run.report);
        println!("{}", run.line);
        assert!(run.passed, "gate row {row} failed");
    }
    let mut snaps = wsn_bench::perfbase::perf_snapshots(&[4, 8], 1.0, 1.0)
        .expect("seeded perf snapshots must record");
    // Carry the committed scale rows forward unchanged; run_all does not
    // re-record them.
    if let Some(text) = baseline {
        let committed = wsn_bench::perfbase::parse_snapshots(&text)
            .unwrap_or_else(|e| panic!("{BASELINE_PATH}: {e}"));
        snaps.extend(committed.into_iter().filter(|r| r.scale));
    }
    std::fs::write(BASELINE_PATH, wsn_bench::perfbase::render_snapshots(&snaps))
        .unwrap_or_else(|e| panic!("cannot write {BASELINE_PATH}: {e}"));
    println!("wrote {BASELINE_PATH} ({} sides)", snaps.len());
}
