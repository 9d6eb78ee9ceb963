//! Byte-equivalence of the framed and the typed transport.
//!
//! The frame-layout certificate (wsn-analyze pass 7) licenses swapping
//! heap-owning `DandcMsg` payloads for flat `FrameBuf`s on the hot path.
//! This suite proves the swap is invisible:
//!
//! * the full topoquery mission run on `PhysicalRuntime<FrameBuf>`
//!   (via [`FramedProgram`]) exfiltrates **identical decoded answers**
//!   and identical run metrics to the typed `PhysicalRuntime<DandcMsg>`
//!   run, across seeds at sides 4 and 8;
//! * the two runs record byte-identical traces: phase telemetry, the
//!   complete dispatch log and the causal DAG;
//! * what a framed mission exfiltrates sits inside the certified byte
//!   bound.
//!
//! Payload round trips, and the refusal of `Partial` summaries, which
//! have no wire form, are tested with the codec in
//! `wsn_topoquery::wirecodec`.

use wsn_core::{GridCoord, NodeProgram};
use wsn_net::{DeploymentSpec, FrameBuf, LinkModel, RadioModel, WirePayload};
use wsn_runtime::{decode_framed, FramedProgram, PhysicalRuntime};
use wsn_topoquery::{DandcMsg, DandcProgram};

const SEEDS: [u64; 5] = [3, 5, 11, 21, 42];

/// The seeded side-`side` deployment every mission here runs on.
fn runtime<P: Clone + 'static>(side: u32, seed: u64) -> PhysicalRuntime<P> {
    let deployment = DeploymentSpec::per_cell(side, 2).generate(seed);
    let range = deployment.grid().range_for_adjacent_cell_reachability();
    PhysicalRuntime::new(
        deployment,
        RadioModel::uniform(range),
        LinkModel::ideal(),
        None,
        1,
        seed,
        |c| f64::from((c.col * 7 + c.row * 3) % 11),
    )
}

/// Runs the full topoquery mission and returns the decoded exfiltrated
/// answers plus the headline run metrics, generic over the payload
/// representation on the air.
fn mission<P, D>(
    side: u32,
    seed: u64,
    make: impl Fn() -> Box<dyn NodeProgram<P>> + 'static,
    decode: D,
) -> (Vec<(GridCoord, DandcMsg)>, String)
where
    P: Clone + 'static,
    D: Fn(&P) -> DandcMsg,
{
    let mut rt = runtime::<P>(side, seed);
    assert!(rt.run_topology_emulation().complete);
    assert!(rt.run_binding().unique);
    rt.install_programs(move |_| make());
    let app = rt.run_application();
    let metrics = format!(
        "messages={} hops={} retx={} elapsed={} exfil={}",
        app.messages, app.physical_hops, app.retransmissions, app.elapsed_ticks, app.exfil_count
    );
    let answers = rt
        .take_exfiltrated()
        .iter()
        .map(|e| (e.from, decode(&e.payload)))
        .collect();
    (answers, metrics)
}

#[test]
fn framed_missions_decode_identical_to_legacy_typed_missions() {
    for side in [4u32, 8] {
        for seed in SEEDS {
            let legacy = mission::<DandcMsg, _>(
                side,
                seed,
                move || Box::new(DandcProgram::new(side, 5.0)),
                Clone::clone,
            );
            let framed = mission::<FrameBuf, _>(
                side,
                seed,
                move || Box::new(FramedProgram::new(DandcProgram::new(side, 5.0))),
                |f| decode_framed::<DandcMsg>(f).expect("framed exfiltration decodes"),
            );
            assert_eq!(
                legacy, framed,
                "side {side} seed {seed}: framed run diverged from legacy"
            );
        }
    }
}

/// Runs the full topoquery mission with telemetry and the dispatch log on
/// from topology emulation, and causal tracing on from the application,
/// and returns the recorded trace as JSONL.
fn traced_mission<P: Clone + 'static>(
    side: u32,
    seed: u64,
    make: impl Fn() -> Box<dyn NodeProgram<P>> + 'static,
) -> String {
    let mut rt = runtime::<P>(side, seed);
    rt.enable_telemetry(true);
    assert!(rt.run_topology_emulation().complete);
    assert!(rt.run_binding().unique);
    rt.install_programs(move |_| make());
    rt.enable_causal_tracing();
    rt.run_application();
    rt.record_trace().to_jsonl()
}

#[test]
fn framed_missions_record_traces_identical_to_typed_missions() {
    // The kernel records `RtMsg`'s discriminant, never a frame's bytes,
    // and both transports carry the causal stamp in the typed envelope:
    // a framed run's trace is the typed run's, byte for byte.
    for side in [4u32, 8] {
        for seed in SEEDS {
            let typed = traced_mission::<DandcMsg>(side, seed, move || {
                Box::new(DandcProgram::new(side, 5.0))
            });
            let framed = traced_mission::<FrameBuf>(side, seed, move || {
                Box::new(FramedProgram::new(DandcProgram::new(side, 5.0)))
            });
            assert!(typed.contains("app.hop"), "side {side}: no causal hops");
            if typed != framed {
                let line = typed.lines().zip(framed.lines()).position(|(a, b)| a != b);
                panic!(
                    "side {side} seed {seed}: framed trace diverged from typed at line {line:?}"
                );
            }
        }
    }
}

#[test]
fn framed_exfiltrations_respect_the_certified_byte_bound() {
    // Whatever the mission actually ships must sit inside the closed-form
    // bound the certificate quotes for the deployment's top level.
    let side = 8u32;
    let (answers, _) = mission::<FrameBuf, _>(
        side,
        3,
        move || Box::new(FramedProgram::new(DandcProgram::new(side, 5.0))),
        |f| decode_framed::<DandcMsg>(f).expect("framed exfiltration decodes"),
    );
    assert!(!answers.is_empty());
    for (_, msg) in &answers {
        let actual = msg.encoded_bytes() as u64;
        let bound = wsn_core::summary_wire_bound_bytes(side);
        assert!(
            actual <= bound,
            "exfiltrated {actual} bytes exceeds the certified bound {bound}"
        );
    }
}
