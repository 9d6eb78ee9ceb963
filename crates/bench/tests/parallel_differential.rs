//! Differential determinism suite: the sharded parallel kernel is
//! certified against the sequential reference by byte-comparison, not by
//! statistics. For every (side, cut level, seed) cell of the matrix the
//! sharded run's JSONL trace — events, causal log, counters, gauges,
//! per-node energy — and its metric bundle must be **byte-identical** to
//! the sequential run's. One application round under delivery chaos
//! (duplicated and reordered deliveries, a dead node) rides in the matrix
//! so the windows are differenced on chaotic traffic too.

use wsn_bench::experiments::{
    record_end_to_end_trace_mutated, record_end_to_end_trace_with, RunEngine,
};
use wsn_bench::gates::Mutation;
use wsn_core::{GridCoord, NodeApi, NodeProgram};
use wsn_net::{DeliveryChaos, DeploymentSpec, LinkModel, RadioModel};
use wsn_runtime::{ParallelConfig, PhysicalRuntime, ShardMutation};

const SEEDS: [u64; 5] = [3, 5, 11, 21, 42];

struct Gather {
    expected: usize,
    seen: usize,
    sum: f64,
}

impl NodeProgram<f64> for Gather {
    fn on_init(&mut self, api: &mut dyn NodeApi<f64>) {
        let v = api.read_sensor();
        api.compute(1);
        if api.coord() != GridCoord::new(0, 0) {
            api.send(GridCoord::new(0, 0), 1, v);
        } else {
            self.sum += v;
            self.seen += 1;
        }
    }

    fn on_receive(&mut self, api: &mut dyn NodeApi<f64>, _from: GridCoord, payload: f64) {
        self.sum += payload;
        self.seen += 1;
        if self.seen == self.expected {
            api.exfiltrate(self.sum);
        }
    }
}

/// Sequential reference vs sharded run at every cut level, one side at a
/// time so failures name the exact matrix cell.
fn differential_matrix(side: u32, per_cell: usize, seeds: &[u64]) {
    for &seed in seeds {
        let (seq_doc, seq_metrics) =
            record_end_to_end_trace_with(side, per_cell, seed, true, RunEngine::Sequential);
        let seq_jsonl = seq_doc.to_jsonl();
        let seq_metrics = format!("{seq_metrics:?}");
        for cut_level in [1u32, 2] {
            let engine = RunEngine::Sharded {
                cut_level,
                workers: 4,
            };
            let (doc, metrics) = record_end_to_end_trace_with(side, per_cell, seed, true, engine);
            assert_eq!(
                doc.to_jsonl(),
                seq_jsonl,
                "side {side} seed {seed} cut {cut_level}: sharded trace diverged"
            );
            assert_eq!(
                format!("{metrics:?}"),
                seq_metrics,
                "side {side} seed {seed} cut {cut_level}: sharded metrics diverged"
            );
        }
    }
}

#[test]
fn side_4_sharded_traces_are_byte_identical() {
    differential_matrix(4, 3, &SEEDS);
}

#[test]
fn side_8_sharded_traces_are_byte_identical() {
    differential_matrix(8, 3, &SEEDS);
}

#[test]
fn side_16_sharded_traces_are_byte_identical() {
    differential_matrix(16, 3, &SEEDS);
}

/// Side 64 runs one-tick windows of up to 5,120 dispatches, where the
/// sides above stop at 832. Two seeds at one node per cell keep the
/// input cheap.
#[test]
fn side_64_sharded_traces_are_byte_identical() {
    differential_matrix(64, 1, &SEEDS[..2]);
}

/// The suite's teeth: a misordered boundary merge planted on one matrix
/// cell makes its sharded trace diverge from the sequential one, while
/// the same cell without the mutation still matches it.
#[test]
fn a_misordered_merge_on_one_cell_diverges() {
    let (side, seed) = (4, SEEDS[0]);
    let engine = RunEngine::Sharded {
        cut_level: 1,
        workers: 4,
    };
    let trace = |engine, mutation| {
        record_end_to_end_trace_mutated(side, 3, seed, true, engine, mutation)
            .0
            .to_jsonl()
    };
    let sequential = trace(RunEngine::Sequential, None);
    assert_eq!(trace(engine, None), sequential, "the clean cell must match");
    let misorder = Mutation::Shard(ShardMutation::MisorderedMerge);
    assert_ne!(
        trace(engine, Some(misorder)),
        sequential,
        "a misordered boundary merge went unnoticed"
    );
}

/// The chaos cell of the matrix: one application round with duplicated
/// and reordered deliveries and a node killed before it, on the sharded
/// kernel at cuts 1 and 2 on 3 lanes, compared with the sequential round
/// on the application report and the whole trace (events, causal log,
/// counters, per-node energy).
#[test]
fn delivery_chaos_round_is_byte_identical_across_engines() {
    let run = |parallel: Option<ParallelConfig>| {
        let deployment = DeploymentSpec::per_cell(4, 3).generate(33);
        let range = deployment.grid().range_for_adjacent_cell_reachability();
        let mut rt: PhysicalRuntime<f64> = PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            33,
            |c| f64::from(c.col + c.row),
        );
        rt.enable_telemetry(true);
        assert!(rt.run_topology_emulation().complete);
        assert!(rt.run_binding().unique);
        rt.install_programs(|_| {
            Box::new(Gather {
                expected: 16,
                seen: 0,
                sum: 0.0,
            })
        });
        rt.enable_causal_tracing();
        rt.medium().borrow_mut().set_delivery_chaos(DeliveryChaos {
            dup_prob: 0.2,
            reorder_prob: 0.2,
            reorder_max_extra_ticks: 3,
        });
        // A follower of the origin cell dies before the round.
        let origin = GridCoord::new(0, 0);
        let victim = rt
            .deployment()
            .nodes_in_cell(origin)
            .iter()
            .copied()
            .find(|&i| Some(i) != rt.leader_of(origin))
            .expect("the origin cell has a follower");
        let now = rt.now();
        rt.medium().borrow_mut().kill(victim, now);
        let app = match &parallel {
            None => rt.run_application(),
            Some(cfg) => rt.run_application_parallel(cfg),
        };
        assert!(rt.stats().counter("medium.duplicated") > 0);
        assert!(rt.stats().counter("medium.reordered") > 0);
        (app, rt.record_trace().to_jsonl())
    };
    let sequential = run(None);
    for cut_level in [1u32, 2] {
        let cfg = ParallelConfig {
            cut_level,
            workers: 3,
        };
        assert_eq!(
            run(Some(cfg)),
            sequential,
            "delivery-chaos round at {cfg:?} diverged from sequential"
        );
    }
}
