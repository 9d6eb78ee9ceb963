//! A side-512 memory guard. perfbench's `scale-512` workload runs one
//! seeded mission on a 262,144-node deployment; this test runs the same
//! mission (seed 1, one node per cell, the blob field, the typed
//! transport) and demands one exfiltrated answer equal to the oracle's
//! region count and a peak resident set of at most 450 MB.
//!
//! The peak is the process's `VmHWM`, read from `/proc/self/status`, so
//! the test must have its process to itself: it is the only test of this
//! target and is `#[ignore]`d, and the CI parallel-gate job runs it with
//! `cargo test --release -p wsn-bench --test scale_memory --
//! --include-ignored` (a few seconds in release).

use wsn_bench::blob_field;
use wsn_net::{DeploymentSpec, LinkModel, RadioModel};
use wsn_runtime::PhysicalRuntime;
use wsn_topoquery::{label_regions, DandcMsg, DandcProgram, RegionSummary};

const SIDE: u32 = 512;
const SEED: u64 = 1;
const THRESHOLD: f64 = 5.0;
const PEAK_LIMIT_BYTES: u64 = 450_000_000;

/// This process's peak resident set size, in bytes.
fn vm_hwm_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a VmHWM line in kB");
    kb * 1024
}

#[test]
#[ignore = "reads the process's peak memory, so it needs a process of its own; run by the CI parallel-gate job"]
fn side_512_mission_peaks_under_450_mb() {
    let field = blob_field(SIDE, SEED);
    let regions = label_regions(&field.threshold(THRESHOLD)).region_count();
    let deployment = DeploymentSpec::per_cell(SIDE, 1).generate(SEED);
    let range = deployment.grid().range_for_adjacent_cell_reachability();
    let mut rt: PhysicalRuntime<DandcMsg> = PhysicalRuntime::new(
        deployment,
        RadioModel::uniform(range),
        LinkModel::ideal(),
        None,
        1,
        SEED,
        move |c| field.value(c),
    );
    let mut peaks = vec![("construction", vm_hwm_bytes())];
    assert!(rt.run_topology_emulation().complete, "topology emulation");
    peaks.push(("topology emulation", vm_hwm_bytes()));
    assert!(rt.run_binding().unique, "binding");
    peaks.push(("binding", vm_hwm_bytes()));
    rt.install_programs(|_| Box::new(DandcProgram::new(SIDE, THRESHOLD)));
    rt.run_application();
    peaks.push(("application", vm_hwm_bytes()));

    let exfil = rt.take_exfiltrated();
    assert_eq!(exfil.len(), 1, "exfiltrations");
    match &exfil[0].payload.data {
        RegionSummary::Complete(s) => assert_eq!(s.region_count(), regions, "region count"),
        RegionSummary::Partial(_) => panic!("the exfiltrated result is not a complete summary"),
    }
    let peak = vm_hwm_bytes();
    assert!(
        peak <= PEAK_LIMIT_BYTES,
        "peak RSS {peak} B is over {PEAK_LIMIT_BYTES} B; VmHWM after each phase: {peaks:?}"
    );
}
