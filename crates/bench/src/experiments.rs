//! The quantitative experiments (EXP-5 … EXP-16 in DESIGN.md §5).
//!
//! Each function is parameterized by its sweep so the regenerator binaries
//! run paper scale while tests smoke-test miniatures. All randomness is
//! seeded; rerunning a binary reproduces its table bit for bit.

use crate::gates::Mutation;
use crate::table::{f, Table};
use wsn_core::{
    follower_to_leader_hops, full_boundary_units, quadtree_merge_estimate,
    tree_convergecast_estimate, CollectiveMsg, ConvergecastSum, CostModel, DisseminateProgram,
    GridCoord, Hierarchy, NodeApi, NodeProgram, ReduceOp, ReduceProgram, SortProgram, TreeVm,
    VirtualGrid, VirtualTree, Vm,
};
use wsn_net::{DeploymentSpec, LinkModel, RadioModel, UnitDiskGraph};
use wsn_runtime::{AppReport, ParallelConfig, PhysicalRuntime, ShardMutation};
use wsn_synth::{
    quadtree_task_graph, AnnealingMapper, CentroidMapper, Mapper, Mapping, MappingCost,
    QuadrantMapper, RandomFeasibleMapper,
};
use wsn_topoquery::{
    label_regions, run_centralized_vm, run_dandc_physical, run_dandc_vm, run_dandc_vm_with_cost,
    Field, FieldSpec, Implementation,
};

/// A blob field scaled to the grid.
pub fn blob_field(side: u32, seed: u64) -> Field {
    Field::generate(
        FieldSpec::Blobs {
            count: 3,
            amplitude: 10.0,
            radius: (f64::from(side) / 8.0).max(1.5),
        },
        side,
        seed,
    )
}

/// EXP-5: the O(√N)-steps claim. Runs the divide-and-conquer algorithm
/// under the paper's *step* cost model (`ticks_per_unit = 0`: one latency
/// unit per hop) and reports measured steps against the 2(√N − 1)
/// prediction, plus the volume-model latency for contrast.
pub fn exp5_latency_scaling(sides: &[u32]) -> Table {
    let mut t = Table::new(
        "EXP-5: D&C latency scaling — O(sqrt N) steps (paper §4.1)",
        &[
            "side",
            "N",
            "steps",
            "pred 2(side-1)",
            "steps/side",
            "volume ticks",
        ],
    );
    for &side in sides {
        let field = blob_field(side, 42);
        let step_cost = CostModel {
            ticks_per_unit: 0,
            ..CostModel::uniform()
        };
        let steps = run_dandc_vm_with_cost(side, &field, 5.0, 1, Implementation::Native, step_cost)
            .metrics
            .latency_ticks;
        let volume = run_dandc_vm(side, &field, 5.0, 1, Implementation::Native)
            .metrics
            .latency_ticks;
        t.row(vec![
            side.to_string(),
            (side * side).to_string(),
            steps.to_string(),
            (2 * (side - 1)).to_string(),
            f(steps as f64 / f64::from(side), 3),
            volume.to_string(),
        ]);
    }
    t
}

/// EXP-6: divide-and-conquer vs centralized collection across grid size
/// and feature density, on the virtual machine.
pub fn exp6_dandc_vs_central(sides: &[u32], densities: &[f64]) -> Table {
    let mut t = Table::new(
        "EXP-6: in-network D&C vs centralized collection (total energy, hotspot, latency)",
        &[
            "side",
            "p",
            "E(dandc)",
            "E(central)",
            "ratio",
            "hot(dandc)",
            "hot(central)",
            "lat(dandc)",
            "lat(central)",
        ],
    );
    for &side in sides {
        for &p in densities {
            let field = Field::generate(
                FieldSpec::RandomCells {
                    p,
                    hot: 1.0,
                    cold: 0.0,
                },
                side,
                7,
            );
            let dandc = run_dandc_vm(side, &field, 0.5, 1, Implementation::Native);
            let central = run_centralized_vm(side, &field, 0.5, 1);
            t.row(vec![
                side.to_string(),
                f(p, 2),
                f(dandc.metrics.total_energy, 0),
                f(central.metrics.total_energy, 0),
                f(central.metrics.total_energy / dandc.metrics.total_energy, 2),
                f(dandc.metrics.max_node_energy, 0),
                f(central.metrics.max_node_energy, 0),
                dandc.metrics.latency_ticks.to_string(),
                central.metrics.latency_ticks.to_string(),
            ]);
        }
    }
    t
}

/// EXP-7: topology emulation cost (§5.1). Verifies completeness and the
/// paper's claims that setup runs in parallel per cell (latency tracks the
/// worst intra-cell path, not network size) and that protocol messages
/// cross at most one boundary (the suppressed count is exactly those).
pub fn exp7_topology_emulation(cells: &[u32], per_cell: &[usize], range_factors: &[f64]) -> Table {
    let mut t = Table::new(
        "EXP-7: topology emulation protocol (§5.1)",
        &[
            "m",
            "per-cell",
            "range/d",
            "N phys",
            "elapsed",
            "max cell diam",
            "elapsed/diam",
            "broadcasts",
            "suppressed",
            "complete",
        ],
    );
    for &m in cells {
        for &k in per_cell {
            for &factor in range_factors {
                let deployment = DeploymentSpec::per_cell(m, k).generate(11);
                // The paper guarantees cross-cell adjacency at r = d·√5;
                // smaller ranges force the multi-hop path-discovery part of
                // the protocol to do real work (intra-cell relay chains).
                let range = deployment.grid().cell_size() * factor;
                let graph = UnitDiskGraph::build(deployment.positions(), range);
                let max_diam = deployment
                    .grid()
                    .cells()
                    .map(|c| {
                        graph
                            .subset_diameter(deployment.nodes_in_cell(c))
                            .unwrap_or(0)
                    })
                    .max()
                    .unwrap_or(0);
                let n = deployment.node_count();
                let mut rt: PhysicalRuntime<u32> = PhysicalRuntime::new(
                    deployment,
                    RadioModel::uniform(range),
                    LinkModel::ideal(),
                    None,
                    1,
                    11,
                    |_| 0.0,
                );
                let report = rt.run_topology_emulation();
                if report.complete {
                    rt.verify_routes().expect("route invariant");
                }
                t.row(vec![
                    m.to_string(),
                    k.to_string(),
                    f(factor, 2),
                    n.to_string(),
                    report.elapsed_ticks.to_string(),
                    max_diam.to_string(),
                    f(report.elapsed_ticks as f64 / f64::from(max_diam.max(1)), 2),
                    report.broadcasts.to_string(),
                    report.suppressed.to_string(),
                    report.complete.to_string(),
                ]);
            }
        }
    }
    t
}

/// EXP-8: binding convergence (§5.2) vs in-cell population.
pub fn exp8_binding(m: u32, per_cell: &[usize], range_factors: &[f64]) -> Table {
    let mut t = Table::new(
        "EXP-8: binding protocol convergence (§5.2)",
        &[
            "per-cell",
            "range/d",
            "N phys",
            "conn cells",
            "elapsed",
            "max cell diam",
            "delta bcasts",
            "bcasts/node",
            "unique",
            "tree complete",
        ],
    );
    for &k in per_cell {
        for &factor in range_factors {
            let deployment = DeploymentSpec::per_cell(m, k).generate(23);
            let range = deployment.grid().cell_size() * factor;
            let graph = UnitDiskGraph::build(deployment.positions(), range);
            let max_diam = deployment
                .grid()
                .cells()
                .map(|c| {
                    graph
                        .subset_diameter(deployment.nodes_in_cell(c))
                        .unwrap_or(0)
                })
                .max()
                .unwrap_or(0);
            // §5.2 assumes every cell's induced subgraph is connected;
            // report how many actually are, because uniqueness can only
            // fail where that assumption fails.
            let connected = deployment
                .grid()
                .cells()
                .filter(|&c| graph.subset_connected(deployment.nodes_in_cell(c)))
                .count();
            let cell_count = deployment.grid().cell_count();
            let n = deployment.node_count();
            let mut rt: PhysicalRuntime<u32> = PhysicalRuntime::new(
                deployment,
                RadioModel::uniform(range),
                LinkModel::ideal(),
                None,
                1,
                23,
                |_| 0.0,
            );
            rt.run_topology_emulation();
            let bind = rt.run_binding();
            t.row(vec![
                k.to_string(),
                f(factor, 2),
                n.to_string(),
                format!("{connected}/{cell_count}"),
                bind.elapsed_ticks.to_string(),
                max_diam.to_string(),
                bind.delta_broadcasts.to_string(),
                f(bind.delta_broadcasts as f64 / n as f64, 2),
                bind.unique.to_string(),
                bind.tree_complete.to_string(),
            ]);
        }
    }
    t
}

/// EXP-9: model fidelity — the paper's promise that "theoretical
/// performance analysis corresponds to real performance measurements".
/// Uses the all-feature field so the analytic payload model is exact, and
/// compares closed form vs virtual machine vs emulated physical network.
pub fn exp9_model_fidelity(sides: &[u32], per_cell: usize) -> Table {
    let mut t = Table::new(
        "EXP-9: analytic estimate vs virtual machine vs emulated physical network",
        &[
            "side",
            "lat est",
            "lat vm",
            "lat phys",
            "vm/est",
            "phys/vm",
            "E est",
            "E vm",
            "E phys",
            "E vm/est",
            "E phys/vm",
        ],
    );
    for &side in sides {
        let field = Field::generate(FieldSpec::Uniform(10.0), side, 1);
        let est = quadtree_merge_estimate(
            side,
            &CostModel::uniform(),
            &full_boundary_units,
            // The node program charges one merge-compute per received
            // piece (4 per merge), each of the piece's size.
            &|level| 4 * full_boundary_units(level - 1),
            1,
        );
        let vm = run_dandc_vm(side, &field, 5.0, 1, Implementation::Native);
        let deployment = DeploymentSpec::per_cell(side, per_cell).generate(5);
        let (phys, reports) = run_dandc_physical(
            deployment,
            LinkModel::ideal(),
            5.0,
            &field,
            5,
            Implementation::Native,
        );
        assert!(reports.topo.complete && reports.bind.unique);
        let (lv, lp) = (vm.metrics.latency_ticks, phys.metrics.latency_ticks);
        // Physical energy includes protocol phases; compare app-phase
        // traffic via total ledger (documented inflation).
        t.row(vec![
            side.to_string(),
            est.latency_ticks.to_string(),
            lv.to_string(),
            lp.to_string(),
            f(lv as f64 / est.latency_ticks as f64, 3),
            f(lp as f64 / lv as f64, 2),
            f(est.total_energy, 0),
            f(vm.metrics.total_energy, 0),
            f(phys.metrics.total_energy, 0),
            f(vm.metrics.total_energy / est.total_energy, 3),
            f(phys.metrics.total_energy / vm.metrics.total_energy, 2),
        ]);
    }
    t
}

/// The per-level group-send probe of EXP-10.
struct GroupSend {
    level: u8,
    hierarchy: Hierarchy,
}

impl NodeProgram<u32> for GroupSend {
    fn on_init(&mut self, api: &mut dyn NodeApi<u32>) {
        let me = api.coord();
        let leader = self.hierarchy.leader(me, self.level);
        if leader != me {
            api.send(leader, 1, 0);
        }
    }
    fn on_receive(&mut self, _api: &mut dyn NodeApi<u32>, _from: GridCoord, _p: u32) {}
}

/// EXP-10: group-communication cost (§4.2): measured follower→leader hop
/// statistics against the closed-form prediction.
pub fn exp10_group_cost(side: u32, levels: &[u8]) -> Table {
    let mut t = Table::new(
        "EXP-10: group middleware follower->leader cost (§3.2/§4.2)",
        &[
            "level",
            "block",
            "mean hops",
            "pred mean (followers)",
            "max hops",
            "pred max",
            "energy",
            "pred energy",
        ],
    );
    let hierarchy = Hierarchy::new(side);
    for &level in levels {
        assert!(level >= 1 && level <= hierarchy.max_level());
        let mut vm: Vm<u32> = Vm::new(
            side,
            CostModel::uniform(),
            1,
            |_| 0.0,
            move |_| {
                Box::new(GroupSend {
                    level,
                    hierarchy: Hierarchy::new(side),
                })
            },
        );
        vm.run();
        let stats = vm.stats().clone();
        let hops = stats.histogram("vm.hops").expect("sends happened").clone();
        let b = 1u64 << level;
        // Mean over followers only (the leader does not send to itself).
        let pred_mean = (b * b * (b - 1)) as f64 / (b * b - 1) as f64;
        let (_, pred_max) = follower_to_leader_hops(level);
        let blocks = (u64::from(side) >> level).pow(2);
        let pred_energy = 2.0 * (b * b * (b - 1) * blocks) as f64;
        let mut hops_sorted = hops.clone();
        t.row(vec![
            level.to_string(),
            format!("{b}x{b}"),
            f(hops.mean().unwrap(), 3),
            f(pred_mean, 3),
            f(hops_sorted.quantile(1.0).unwrap(), 0),
            pred_max.to_string(),
            f(vm.ledger().total(), 0),
            f(pred_energy, 0),
        ]);
        let _ = stats.counter("vm.messages");
    }
    t
}

/// EXP-11: energy balance under three leader-placement strategies across
/// repeated rounds of the task graph: the paper's fixed NW-corner leaders,
/// fixed centroid placement, and per-round rotation (the paper's
/// "especially if the role of leader is to be periodically rotated").
pub fn exp11_energy_balance(side: u32, rounds: u32) -> Table {
    let mut t = Table::new(
        "EXP-11: leader placement and energy balance over repeated rounds",
        &[
            "strategy",
            "rounds",
            "total E",
            "max node E",
            "mean node E",
            "max/mean",
            "Jain",
        ],
    );
    let cost = CostModel::uniform();
    let qt = quadtree_task_graph(side, &full_boundary_units, &|_| 1);

    let accumulate = |mappings: &mut dyn FnMut(u32) -> Mapping| -> Vec<f64> {
        let mut loads = vec![0.0; (side as usize).pow(2)];
        for r in 0..rounds {
            let m = mappings(r);
            for (acc, l) in loads
                .iter_mut()
                .zip(MappingCost::node_loads(&qt, &m, &cost))
            {
                *acc += l;
            }
        }
        loads
    };

    type Strategy = Box<dyn FnMut(u32) -> Mapping>;
    let strategies: Vec<(&str, Strategy)> = vec![
        ("NW corner (paper)", {
            let qt = qt.clone();
            Box::new(move |_| QuadrantMapper.map(&qt))
        }),
        ("centroid", {
            let qt = qt.clone();
            Box::new(move |_| CentroidMapper.map(&qt))
        }),
        ("rotating", {
            let qt = qt.clone();
            Box::new(move |r| {
                let mut m = QuadrantMapper.map(&qt);
                for task in qt.graph.tasks() {
                    if task.level == 0 {
                        continue;
                    }
                    let (origin, es) = qt.extent[task.id];
                    let k = r % (es * es);
                    m.assign(
                        task.id,
                        GridCoord::new(origin.col + k % es, origin.row + k / es),
                    );
                }
                m
            })
        }),
    ];

    for (name, mut strategy) in strategies {
        let loads = accumulate(&mut *strategy);
        let total: f64 = loads.iter().sum();
        let max = loads.iter().copied().fold(0.0, f64::max);
        let mean = total / loads.len() as f64;
        let sum_sq: f64 = loads.iter().map(|x| x * x).sum();
        let jain = if sum_sq == 0.0 {
            1.0
        } else {
            total * total / (loads.len() as f64 * sum_sq)
        };
        t.row(vec![
            name.to_string(),
            rounds.to_string(),
            f(total, 0),
            f(max, 0),
            f(mean, 1),
            f(max / mean, 2),
            f(jain, 3),
        ]);
    }
    t
}

/// EXP-12: robustness of the asynchronous incremental merge under message
/// loss and jitter on the emulated physical network, with and without the
/// hop-by-hop ARQ extension.
pub fn exp12_loss_robustness(side: u32, per_cell: usize, drops: &[f64], trials: u64) -> Table {
    let mut t = Table::new(
        "EXP-12: message loss vs completion and correctness (§4.3's asynchronous merge)",
        &[
            "drop p",
            "arq",
            "trials",
            "completed",
            "correct",
            "completion rate",
            "mean latency",
            "mean energy",
            "retx",
        ],
    );
    let field = blob_field(side, 3);
    let truth = label_regions(&field.threshold(5.0)).region_count();
    for &p in drops {
        for arq in [None, Some((8u32, 64u64))] {
            // Trials are independent simulations: sweep them in parallel.
            let field_ref = &field;
            let outcomes = crate::parallel::parallel_map((0..trials).collect(), move |trial| {
                let deployment = DeploymentSpec::per_cell(side, per_cell).generate(100 + trial);
                let (out, reports) = wsn_topoquery::run_dandc_physical_with(
                    deployment,
                    LinkModel::lossy(p, 2),
                    5.0,
                    field_ref,
                    200 + trial,
                    Implementation::Native,
                    arq,
                );
                (
                    out.metrics.total_energy,
                    reports.app.retransmissions,
                    out.summary
                        .map(|s| (s.region_count(), out.metrics.latency_ticks)),
                )
            });
            let mut completed = 0u64;
            let mut correct = 0u64;
            let mut latency_sum = 0u64;
            let mut energy_sum = 0.0;
            let mut retx = 0u64;
            for (energy, retransmissions, result) in outcomes {
                energy_sum += energy;
                retx += retransmissions;
                if let Some((regions, latency)) = result {
                    completed += 1;
                    latency_sum += latency;
                    if regions == truth {
                        correct += 1;
                    }
                }
            }
            t.row(vec![
                f(p, 3),
                if arq.is_some() { "yes" } else { "no" }.to_string(),
                trials.to_string(),
                completed.to_string(),
                correct.to_string(),
                f(completed as f64 / trials as f64, 2),
                if completed > 0 {
                    f(latency_sum as f64 / completed as f64, 0)
                } else {
                    "-".to_string()
                },
                f(energy_sum / trials as f64, 0),
                retx.to_string(),
            ]);
        }
    }
    t
}

/// EXP-13: mapping-strategy ablation under the coverage and
/// spatial-correlation constraints (§4.2).
pub fn exp13_mapping_ablation(sides: &[u32]) -> Table {
    let mut t = Table::new(
        "EXP-13: task mapping ablation (one round, uniform cost model)",
        &[
            "side",
            "mapper",
            "total E",
            "max node E",
            "Jain",
            "critical path",
        ],
    );
    let cost = CostModel::uniform();
    for &side in sides {
        let qt = quadtree_task_graph(side, &full_boundary_units, &|_| 1);
        let mut mappers: Vec<Box<dyn Mapper>> = vec![
            Box::new(QuadrantMapper),
            Box::new(RandomFeasibleMapper::new(5)),
            Box::new(CentroidMapper),
            Box::new(AnnealingMapper::new(5, cost, 400, 0.5)),
        ];
        for mapper in &mut mappers {
            let m = mapper.map(&qt);
            wsn_synth::first_violation(&qt, &m).expect("mapper produced infeasible mapping");
            let c = MappingCost::evaluate(&qt, &m, &cost);
            t.row(vec![
                side.to_string(),
                mapper.name().to_string(),
                f(c.total_energy, 0),
                f(c.max_node_energy, 0),
                f(c.energy_balance, 3),
                c.critical_path_ticks.to_string(),
            ]);
        }
    }
    t
}

/// EXP-14: collective computation primitives (§2's "summing, sorting, or
/// ranking"): measured cost of reduce, disseminate, and odd-even
/// transposition sort on the virtual architecture, against closed forms.
pub fn exp14_collectives(sides: &[u32]) -> Table {
    let mut t = Table::new(
        "EXP-14: collective primitives on the virtual architecture",
        &[
            "side",
            "primitive",
            "latency",
            "pred latency",
            "energy",
            "pred energy",
            "messages",
        ],
    );
    let cost = CostModel::uniform();
    for &side in sides {
        // Reduce: same traffic shape as the quad-tree merge with 1-unit
        // payloads; absorb charges 1 compute per incoming (4 per merge).
        let est = quadtree_merge_estimate(side, &cost, &|_| 1, &|_| 4, 1);
        let mut vm: Vm<CollectiveMsg> = Vm::new(
            side,
            cost,
            1,
            |_| 1.0,
            move |_| Box::new(ReduceProgram::new(side, ReduceOp::Sum)),
        );
        vm.run();
        let m = vm.metrics();
        t.row(vec![
            side.to_string(),
            "reduce (sum)".into(),
            m.latency_ticks.to_string(),
            est.latency_ticks.to_string(),
            f(m.total_energy, 0),
            f(est.total_energy, 0),
            m.messages.to_string(),
        ]);

        // Disseminate: the reverse tree; same path energy, no merge
        // compute, and latency measured to the last leaf delivery.
        let mut vm: Vm<CollectiveMsg> = Vm::new(
            side,
            cost,
            1,
            |_| 0.0,
            move |_| Box::new(DisseminateProgram::new(side, 7.0)),
        );
        vm.run();
        let m = vm.metrics();
        let path_only = quadtree_merge_estimate(side, &cost, &|_| 1, &|_| 0, 0);
        t.row(vec![
            side.to_string(),
            "disseminate".into(),
            m.latency_ticks.to_string(),
            path_only.latency_ticks.to_string(),
            f(m.total_energy, 0),
            f(path_only.total_energy, 0),
            m.messages.to_string(),
        ]);

        // Sort: N phases of neighbor exchanges along the snake order.
        let grid = VirtualGrid::new(side);
        let mut vm: Vm<CollectiveMsg> = Vm::new(
            side,
            cost,
            1,
            move |c| {
                f64::from((wsn_core::snake_index(grid, c) as u32).wrapping_mul(2654435761) % 1000)
            },
            move |_| Box::new(SortProgram::new(side)),
        );
        vm.run();
        let m = vm.metrics();
        let n = (side as u64).pow(2);
        // Exchanges: ⌈N/2⌉ even phases of ⌊N/2⌋ pairs, ⌊N/2⌋ odd phases of
        // ⌊(N−1)/2⌋ pairs; 2 messages per pair per phase, 1 hop each.
        let msgs = n.div_ceil(2) * (n / 2) * 2 + (n / 2) * ((n - 1) / 2) * 2;
        // Energy: 2 per message (tx+rx over one hop) + 1 compute per
        // message consumed + 1 compute per node at init = 3·msgs + N.
        let pred_energy = 3 * msgs + n;
        // Latency: phases pipeline perfectly along the snake — N − 1 ticks
        // for N > 1 (one unit-payload hop per effective phase).
        let pred_latency = n.saturating_sub(1);
        t.row(vec![
            side.to_string(),
            "sort (odd-even)".into(),
            m.latency_ticks.to_string(),
            pred_latency.to_string(),
            f(m.total_energy, 0),
            pred_energy.to_string(),
            m.messages.to_string(),
        ]);
    }
    t
}

/// EXP-15: channel-access ablation (§2's synchronous vs asynchronous
/// network model): the D&C application under ideal (asynchronous) access
/// vs TDMA frames of growing size. Energy is MAC-independent; latency
/// pays ~half a frame per hop.
pub fn exp15_mac_ablation(side: u32, per_cell: usize, frames: &[u64]) -> Table {
    let mut t = Table::new(
        "EXP-15: asynchronous vs TDMA channel access (application phase)",
        &[
            "mac",
            "latency",
            "latency ratio",
            "energy",
            "physical hops",
            "exfil",
        ],
    );
    let field = blob_field(side, 3);
    let mut baseline_latency = None;
    let mut configs: Vec<(String, Option<(u64, u64)>)> = vec![("async (ideal)".into(), None)];
    for &fr in frames {
        configs.push((format!("TDMA {fr}x1"), Some((fr, 1))));
    }
    for (name, mac) in configs {
        let deployment = DeploymentSpec::per_cell(side, per_cell).generate(5);
        let range = deployment.grid().range_for_adjacent_cell_reachability();
        let f2 = field.clone();
        let mut rt: PhysicalRuntime<wsn_topoquery::DandcMsg> = PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            5,
            move |c| f2.value(c),
        );
        rt.run_topology_emulation();
        let bind = rt.run_binding();
        assert!(bind.unique);
        rt.install_programs(move |_| Box::new(wsn_topoquery::DandcProgram::new(side, 5.0)));
        if let Some((frame_slots, slot_ticks)) = mac {
            rt.set_mac_model(wsn_net::MacModel::Tdma {
                frame_slots,
                slot_ticks,
            });
        }
        let app = rt.run_application();
        let metrics = rt.metrics(&app);
        let lat = app.last_exfil_ticks.unwrap_or(app.elapsed_ticks);
        let base = *baseline_latency.get_or_insert(lat);
        t.row(vec![
            name,
            lat.to_string(),
            f(lat as f64 / base as f64, 2),
            f(metrics.total_energy, 0),
            app.physical_hops.to_string(),
            app.exfil_count.to_string(),
        ]);
    }
    t
}

/// Which scheduler drives a traced topoquery run. Every driver taking an
/// engine produces **bit-identical** output under either variant — that
/// contract is what the differential determinism suite certifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEngine {
    /// The single-queue reference kernel.
    Sequential,
    /// The sharded kernel: level-`cut_level` quad-tree quadrant shards
    /// striped over `workers` logical lanes, synchronized at window
    /// barriers.
    Sharded { cut_level: u32, workers: usize },
}

impl RunEngine {
    /// Runs the application phase of `rt` on this engine. Generic over
    /// the payload so the same engines drive both the legacy in-memory
    /// payload (`DandcMsg`) and the certified zero-copy frame
    /// (`wsn_net::FrameBuf`).
    pub fn run_application<P: Clone + 'static>(self, rt: &mut PhysicalRuntime<P>) -> AppReport {
        match self {
            RunEngine::Sequential => rt.run_application(),
            RunEngine::Sharded { cut_level, workers } => {
                rt.run_application_parallel(&ParallelConfig { cut_level, workers })
            }
        }
    }

    /// Shard count of the engine's plan (1 for the sequential engine).
    pub fn shard_count(self, side: u32) -> usize {
        match self {
            RunEngine::Sequential => 1,
            RunEngine::Sharded { cut_level, .. } => {
                wsn_core::ShardPlan::new(side, cut_level as u8).shard_count() as usize
            }
        }
    }
}

impl std::fmt::Display for RunEngine {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunEngine::Sequential => write!(out, "sequential"),
            RunEngine::Sharded { cut_level, workers } => {
                write!(out, "sharded cut={cut_level} w={workers}")
            }
        }
    }
}

/// The sharded engine on one lane at quad-tree cut `cut`.
fn one_lane(cut: u8) -> RunEngine {
    RunEngine::Sharded {
        cut_level: u32::from(cut),
        workers: 1,
    }
}

/// The Figure-4 divide-and-conquer program every seeded mission runs.
fn dandc(side: u32) -> Box<dyn NodeProgram<wsn_topoquery::DandcMsg>> {
    Box::new(wsn_topoquery::DandcProgram::new(side, 5.0))
}

/// The uniform field of the model-fidelity runs: every summary is the
/// full boundary the §4 analysis prices.
fn uniform_field(side: u32) -> Field {
    Field::generate(FieldSpec::Uniform(10.0), side, 1)
}

/// The one seeded-mission set-up behind every recorder below: deploy
/// `per_cell` nodes per cell of a `side` grid from `seed`, sense `field`,
/// bring up the topology and the leaders, install `program` on every
/// leader and run the application on `engine`, with telemetry on (and
/// the kernel's dispatch log when `trace_events`) and the application
/// traced causally. `mutation` is planted in the layer it sabotages: the
/// radio model or the sharded runtime.
#[allow(clippy::too_many_arguments)]
fn seeded_mission<P: Clone + 'static>(
    side: u32,
    per_cell: usize,
    seed: u64,
    field: Field,
    trace_events: bool,
    engine: RunEngine,
    mutation: Option<Mutation>,
    program: impl Fn(u32) -> Box<dyn NodeProgram<P>> + 'static,
) -> (PhysicalRuntime<P>, AppReport) {
    let deployment = DeploymentSpec::per_cell(side, per_cell).generate(seed);
    let range = deployment.grid().range_for_adjacent_cell_reachability();
    let mut radio = RadioModel::uniform(range);
    let (hop_cost, tx_energy) = Mutation::radio_scale(mutation);
    radio.ticks_per_unit *= hop_cost;
    radio.tx_energy_per_unit *= tx_energy;
    let mut rt: PhysicalRuntime<P> = PhysicalRuntime::new(
        deployment,
        radio,
        LinkModel::ideal(),
        None,
        1,
        seed,
        move |c| field.value(c),
    );
    if let Some(Mutation::Shard(m)) = mutation {
        rt.plant_shard_mutation(m);
    }
    rt.enable_telemetry(trace_events);
    let topo = rt.run_topology_emulation();
    assert!(topo.complete, "topology emulation must complete");
    let bind = rt.run_binding();
    assert!(bind.unique, "binding must elect unique leaders");
    rt.install_programs(move |_| program(side));
    // Causal tracing goes on after the control phases so the exported
    // happens-before DAG covers exactly the application — the shape the
    // critical-path profiler walks.
    rt.enable_causal_tracing();
    let app = engine.run_application(&mut rt);
    (rt, app)
}

/// Runs the full mission (topology emulation → binding → D&C application)
/// on an emulated deployment with telemetry enabled, and exports the run
/// as a [`wsn_obs::TraceDocument`]: phase spans, phase counters, kernel
/// histograms, per-node energy snapshots, and (when `trace_events` is set)
/// the complete dispatch log. This is what `netscope --demo` records and
/// what the determinism suite replays.
pub fn record_end_to_end_trace(
    side: u32,
    per_cell: usize,
    seed: u64,
    trace_events: bool,
) -> wsn_obs::TraceDocument {
    record_end_to_end_trace_with(side, per_cell, seed, trace_events, RunEngine::Sequential).0
}

/// [`record_end_to_end_trace`] parameterized by execution engine, also
/// returning the application phase's [`wsn_core::RunMetrics`] — the
/// triple (JSONL trace, causal log inside it, metrics) the differential
/// determinism suite compares byte for byte across engines.
pub fn record_end_to_end_trace_with(
    side: u32,
    per_cell: usize,
    seed: u64,
    trace_events: bool,
    engine: RunEngine,
) -> (wsn_obs::TraceDocument, wsn_core::RunMetrics) {
    record_end_to_end_trace_mutated(side, per_cell, seed, trace_events, engine, None)
}

/// [`record_end_to_end_trace_with`] with `mutation` planted — how the
/// differential checks prove they notice a misordered boundary merge.
pub fn record_end_to_end_trace_mutated(
    side: u32,
    per_cell: usize,
    seed: u64,
    trace_events: bool,
    engine: RunEngine,
    mutation: Option<Mutation>,
) -> (wsn_obs::TraceDocument, wsn_core::RunMetrics) {
    fn export<P: Clone + 'static>(
        (rt, app): (PhysicalRuntime<P>, AppReport),
    ) -> (wsn_obs::TraceDocument, wsn_core::RunMetrics) {
        (rt.record_trace(), rt.metrics(&app))
    }
    let field = blob_field(side, seed);
    // The certified zero-copy hot path: whenever the frame-layout
    // certificate covers this side (every payload bound fits the fixed
    // frame), summaries travel as encoded `FrameBuf`s instead of
    // heap-owning `DandcMsg` values. Both engines take the same path, so
    // the differential suite keeps comparing byte-identical artifacts.
    if wsn_core::framed_payload_fits(side) {
        export(seeded_mission::<wsn_net::FrameBuf>(
            side,
            per_cell,
            seed,
            field,
            trace_events,
            engine,
            mutation,
            |s| {
                Box::new(wsn_runtime::FramedProgram::new(
                    wsn_topoquery::DandcProgram::new(s, 5.0),
                ))
            },
        ))
    } else {
        export(seeded_mission(
            side,
            per_cell,
            seed,
            field,
            trace_events,
            engine,
            mutation,
            dandc,
        ))
    }
}

/// Records the seeded model-fidelity run the conformance gate checks:
/// the EXP-9 configuration (uniform field, so every summary is the full
/// boundary the §4 analysis prices) on the emulated physical network,
/// exported as a telemetry trace.
///
/// The two multipliers deliberately mis-price the *runtime's* radio
/// against the certifier's `CostModel` — the mutation the conformance
/// gate must catch: `hop_cost_multiplier` scales ticks-per-unit (latency
/// drift; fractional values like `1.5` express a +50% hop delay),
/// `tx_energy_multiplier` scales transmit energy (energy drift). Pass
/// `1.0`/`1.0` for the faithful run.
pub fn record_model_fidelity_trace(
    side: u32,
    per_cell: usize,
    seed: u64,
    hop_cost_multiplier: f64,
    tx_energy_multiplier: f64,
) -> wsn_obs::TraceDocument {
    record_model_fidelity_trace_with(
        side,
        per_cell,
        seed,
        hop_cost_multiplier,
        tx_energy_multiplier,
        RunEngine::Sequential,
    )
}

/// [`record_model_fidelity_trace`] parameterized by execution engine.
/// The sharded engine must land inside exactly the same certified §4
/// intervals as the sequential one — the oracle-at-scale suite runs
/// this at sides where exhaustive differential fuzzing can't reach.
pub fn record_model_fidelity_trace_with(
    side: u32,
    per_cell: usize,
    seed: u64,
    hop_cost_multiplier: f64,
    tx_energy_multiplier: f64,
    engine: RunEngine,
) -> wsn_obs::TraceDocument {
    let radio = Some(Mutation::Radio {
        hop_cost: hop_cost_multiplier,
        tx_energy: tx_energy_multiplier,
    });
    let field = uniform_field(side);
    let (rt, _) = seeded_mission(side, per_cell, seed, field, false, engine, radio, dandc);
    rt.record_trace()
}

/// Records the seeded model-fidelity run on the sharded engine at
/// `cut`, with the per-shard telemetry (`shard=`-labeled counters and
/// gauges from [`PhysicalRuntime::shard_telemetry`]) merged into the
/// exported trace — the document the TC010 shard accounting check
/// reconciles against the shard certificate.
///
/// `skew` plants the runtime's undercounting tap
/// ([`ShardMutation::UndercountTap`]), the mutation TC010 must catch.
pub fn record_shard_metrics_trace(
    side: u32,
    per_cell: usize,
    seed: u64,
    cut: u8,
    skew: bool,
) -> wsn_obs::TraceDocument {
    let mutation = skew.then_some(Mutation::Shard(ShardMutation::UndercountTap));
    let (engine, field) = (one_lane(cut), uniform_field(side));
    let (rt, _) = seeded_mission(side, per_cell, seed, field, false, engine, mutation, dandc);
    let mut doc = rt.record_trace();
    doc.absorb_stats(rt.shard_telemetry());
    doc
}

/// EXP-20: parallel-kernel scaling. For each side, runs the seeded
/// uniform-field topoquery mission on the given engine and reports the
/// event throughput and memory high-water mark — the `events_per_sec` /
/// `peak_rss_bytes` axes the perf baseline records. Deterministic
/// columns (events, latency, exfiltrations) are engine-independent by
/// the determinism contract; only the wall-clock-derived columns vary
/// between machines.
pub fn exp20_parallel_scale(sides: &[u32], per_cell: usize, engines: &[RunEngine]) -> Table {
    let mut t = Table::new(
        "EXP-20: sharded kernel scaling (seeded topoquery mission)",
        &[
            "side",
            "N phys",
            "engine",
            "shards",
            "events",
            "wall ms",
            "events/sec",
            "peak RSS MiB",
            "latency",
        ],
    );
    for &side in sides {
        for &engine in engines {
            let started = std::time::Instant::now();
            let doc = record_model_fidelity_trace_with(side, per_cell, 5, 1.0, 1.0, engine);
            let wall = started.elapsed();
            let meta = doc.meta.expect("trace has a meta line");
            let span = doc
                .spans
                .iter()
                .find(|s| s.name == "application")
                .expect("application span");
            let rate = meta.events as f64 / wall.as_secs_f64().max(1e-9);
            t.row(vec![
                side.to_string(),
                meta.nodes.to_string(),
                engine.to_string(),
                engine.shard_count(side).to_string(),
                meta.events.to_string(),
                wall.as_millis().to_string(),
                f(rate, 0),
                f(
                    crate::perfbase::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
                    1,
                ),
                span.duration_ticks().to_string(),
            ]);
        }
    }
    t
}

/// The correct D&C program plus one planted defect: the far-corner cell
/// `(side−1, side−1)` also sends its leaf summary straight up its column
/// to cell `(side−1, 0)` — a point-to-point message that is not a
/// child-leader → parent-leader merge, so its hops cross the quad-tree
/// shard boundary off the certified edge set. The extra message lands in
/// a quorum slot that never fills (level 0), leaving the algorithm's
/// result untouched: only the shard-conformance replay (`TC009`) can see
/// the leak.
struct ShardLeakProgram {
    inner: wsn_topoquery::DandcProgram,
    side: u32,
}

impl NodeProgram<wsn_topoquery::DandcMsg> for ShardLeakProgram {
    fn on_init(&mut self, api: &mut dyn NodeApi<wsn_topoquery::DandcMsg>) {
        self.inner.on_init(api);
        let here = api.coord();
        if here == GridCoord::new(self.side - 1, self.side - 1) {
            let leaf = wsn_topoquery::BoundarySummary::leaf(here, false);
            let units = leaf.units();
            api.send(
                GridCoord::new(self.side - 1, 0),
                units,
                wsn_synth::SummaryMsg {
                    sender: here,
                    level: 0,
                    data: wsn_topoquery::RegionSummary::Complete(leaf),
                },
            );
        }
    }

    fn on_receive(
        &mut self,
        api: &mut dyn NodeApi<wsn_topoquery::DandcMsg>,
        from: GridCoord,
        msg: wsn_topoquery::DandcMsg,
    ) {
        self.inner.on_receive(api, from, msg);
    }
}

/// Records the seeded model-fidelity run with the planted cross-shard
/// leak of `ShardLeakProgram` — the dynamic half of the shard gate's
/// [`Mutation::ShardLeak`]. The static analyzer cannot see this defect
/// (it lives in the hand-written program, not the synthesized one); the
/// `TC009` trace replay must.
pub fn record_shard_leak_trace(side: u32, per_cell: usize, seed: u64) -> wsn_obs::TraceDocument {
    assert!(side >= 2, "a leak needs somewhere to cross");
    let leaky = |side| -> Box<dyn NodeProgram<wsn_topoquery::DandcMsg>> {
        let inner = wsn_topoquery::DandcProgram::new(side, 5.0);
        Box::new(ShardLeakProgram { inner, side })
    };
    let (engine, field) = (RunEngine::Sequential, uniform_field(side));
    let (rt, _) = seeded_mission(side, per_cell, seed, field, false, engine, None, leaky);
    rt.record_trace()
}

/// EXP-16: sustained operation under churn — the paper's "the above
/// protocol should execute periodically" (§5.1), quantified. Rounds
/// completed over a mission with one random node death per round, as a
/// function of the protocol refresh period.
pub fn exp16_mission_under_churn(
    side: u32,
    per_cell: usize,
    rounds: u32,
    periods: &[u32],
) -> Table {
    let mut t = Table::new(
        "EXP-16: mission completion under churn vs protocol refresh period",
        &[
            "refresh every",
            "rounds",
            "completed",
            "rate",
            "killed",
            "refreshes",
            "survivors",
        ],
    );
    let field = blob_field(side, 3);
    for &period in periods {
        let deployment = DeploymentSpec::per_cell(side, per_cell).generate(5);
        let range = deployment.grid().range_for_adjacent_cell_reachability();
        let f2 = field.clone();
        let mut rt: PhysicalRuntime<wsn_topoquery::DandcMsg> = PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            5,
            move |c| f2.value(c),
        );
        rt.run_topology_emulation();
        assert!(rt.run_binding().unique);
        rt.install_programs(move |_| Box::new(wsn_topoquery::DandcProgram::new(side, 5.0)));
        let report = rt.run_mission(
            wsn_runtime::MissionConfig {
                rounds,
                refresh_every: period,
                churn_per_round: 1,
                churn_seed: 77,
                stop_on_first_death: false,
            },
            1,
        );
        t.row(vec![
            if period == 0 {
                "never".to_string()
            } else {
                period.to_string()
            },
            report.rounds.to_string(),
            report.completed.to_string(),
            f(f64::from(report.completed) / f64::from(report.rounds), 2),
            report.killed.to_string(),
            report.refreshes.to_string(),
            report.survivors.to_string(),
        ]);
    }
    t
}

/// EXP-17: leader-election policy and system lifetime (§5.2: "Residual
/// energy level or more sophisticated metrics could also be employed,
/// especially if the role of leader is to be periodically rotated").
/// Budgeted nodes run rounds until the first node dies; the energy-aware
/// policy re-elects on a period (paying the refresh protocol's energy) so
/// leadership rotates off the hotspot.
pub fn exp17_election_lifetime(side: u32, per_cell: usize, budget: f64, max_rounds: u32) -> Table {
    let mut t = Table::new(
        "EXP-17: election policy vs system lifetime (first node death)",
        &[
            "policy",
            "refresh",
            "budget",
            "rounds to first death",
            "completed",
            "refreshes",
        ],
    );
    let field = blob_field(side, 3);
    let configs = [
        (
            "closest-to-center (paper)",
            wsn_runtime::ElectionPolicy::ClosestToCenter,
            0u32,
        ),
        (
            "closest-to-center (paper)",
            wsn_runtime::ElectionPolicy::ClosestToCenter,
            8,
        ),
        (
            "max residual energy",
            wsn_runtime::ElectionPolicy::MaxResidualEnergy,
            8,
        ),
        (
            "max residual energy",
            wsn_runtime::ElectionPolicy::MaxResidualEnergy,
            2,
        ),
    ];
    for (name, policy, refresh_every) in configs {
        let deployment = DeploymentSpec::per_cell(side, per_cell).generate(5);
        let range = deployment.grid().range_for_adjacent_cell_reachability();
        let f2 = field.clone();
        let mut rt: PhysicalRuntime<wsn_topoquery::DandcMsg> = PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            Some(budget),
            1,
            5,
            move |c| f2.value(c),
        );
        rt.set_election_policy(policy);
        rt.run_topology_emulation();
        assert!(rt.run_binding().unique);
        rt.install_programs(move |_| Box::new(wsn_topoquery::DandcProgram::new(side, 5.0)));
        let report = rt.run_mission(
            wsn_runtime::MissionConfig {
                rounds: max_rounds,
                refresh_every,
                churn_per_round: 0,
                churn_seed: 1,
                stop_on_first_death: true,
            },
            1,
        );
        t.row(vec![
            name.to_string(),
            if refresh_every == 0 {
                "never".into()
            } else {
                refresh_every.to_string()
            },
            f(budget, 0),
            report.rounds.to_string(),
            report.completed.to_string(),
            report.refreshes.to_string(),
        ]);
    }
    t
}

/// EXP-18: intra-cell sampling (§3.2's "intra-cell readings"): mean
/// absolute error of the leaders' effective readings versus cell density
/// and sensor noise, with and without the sampling phase — plus what that
/// accuracy buys in data units moved.
pub fn exp18_sampling_accuracy(side: u32, densities: &[usize], noises: &[f64]) -> Table {
    let mut t = Table::new(
        "EXP-18: intra-cell sampling vs single-sensor reading (leader MAE)",
        &[
            "per-cell",
            "noise σ",
            "MAE single",
            "MAE sampled",
            "improvement",
            "samples",
            "elapsed",
        ],
    );
    for &per_cell in densities {
        for &noise in noises {
            let deployment = DeploymentSpec::per_cell(side, per_cell).generate(5);
            let range = deployment.grid().range_for_adjacent_cell_reachability();
            let truth = |c: GridCoord| f64::from(c.col * 7 + c.row * 3);
            let mut rt: PhysicalRuntime<u32> = PhysicalRuntime::new(
                deployment,
                RadioModel::uniform(range),
                LinkModel::ideal(),
                None,
                1,
                5,
                truth,
            );
            rt.set_sampling_noise(noise, 13);
            rt.run_topology_emulation();
            assert!(rt.run_binding().unique);

            let mae = |rt: &PhysicalRuntime<u32>| -> f64 {
                let cells: Vec<GridCoord> = rt.grid().nodes().collect();
                cells
                    .iter()
                    .map(|&c| {
                        let leader = rt.leader_of(c).expect("leader");
                        (rt.node(leader).aggregated_reading() - truth(c)).abs()
                    })
                    .sum::<f64>()
                    / cells.len() as f64
            };

            let single = mae(&rt);
            let (elapsed, delivered) = rt.run_sampling();
            let sampled = mae(&rt);
            t.row(vec![
                per_cell.to_string(),
                f(noise, 1),
                f(single, 3),
                f(sampled, 3),
                f(single / sampled.max(1e-12), 2),
                delivered.to_string(),
                elapsed.to_string(),
            ]);
        }
    }
    t
}

/// EXP-19: architecture selection (§3.2: "for non-uniform deployments,
/// other virtual topologies such as a tree could be more appropriate").
/// Aggregating one reading per sensing point under the grid architecture
/// (hierarchical reduce over the emulated grid) vs the tree architecture
/// (convergecast over a cluster tree), both measured on their VMs and
/// against their closed forms.
///
/// Caveat the table quantifies: a tree *virtual hop* is one edge
/// regardless of geography, which is realistic exactly for clustered
/// deployments (edges map to short intra/inter-cluster links) — the
/// deployment class for which the paper recommends the tree.
pub fn exp19_architecture_selection(grid_sides: &[u32]) -> Table {
    let mut t = Table::new(
        "EXP-19: grid vs tree virtual architecture for aggregation",
        &[
            "N sensed",
            "architecture",
            "latency",
            "pred",
            "energy",
            "pred",
            "messages",
        ],
    );
    let cost = CostModel::uniform();
    for &side in grid_sides {
        let n = (side as usize).pow(2);

        // Grid: hierarchical reduce on the m×m grid.
        let mut vm: Vm<CollectiveMsg> = Vm::new(
            side,
            cost,
            1,
            |_| 1.0,
            move |_| Box::new(ReduceProgram::new(side, ReduceOp::Sum)),
        );
        vm.run();
        let m = vm.metrics();
        let est = quadtree_merge_estimate(side, &cost, &|_| 1, &|_| 4, 1);
        t.row(vec![
            n.to_string(),
            format!("grid {side}x{side}"),
            m.latency_ticks.to_string(),
            est.latency_ticks.to_string(),
            f(m.total_energy, 0),
            f(est.total_energy, 0),
            m.messages.to_string(),
        ]);

        // Tree: a 4-ary cluster tree whose leaves are the sensing points
        // (interior nodes are cluster heads, which also sense).
        let depth = side.trailing_zeros(); // 4^depth leaves = side²
        let tree = VirtualTree::balanced_kary(4, depth);
        let t2 = tree.clone();
        let est = tree_convergecast_estimate(&tree, &cost, 1);
        let mut tvm = TreeVm::new(
            tree,
            cost,
            1,
            |_| 1.0,
            move |id| Box::new(ConvergecastSum::new(t2.children(id).len())),
        );
        let (latency, energy, messages) = tvm.run();
        t.row(vec![
            n.to_string(),
            format!("4-ary tree h={depth}"),
            latency.to_string(),
            est.latency_ticks.to_string(),
            f(energy, 0),
            f(est.total_energy, 0),
            messages.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp5_steps_match_prediction() {
        let t = exp5_latency_scaling(&[4, 8]);
        assert_eq!(t.len(), 2);
        // steps == 2(side−1) exactly under the step model.
        assert_eq!(t.cell(0, 2), t.cell(0, 3));
        assert_eq!(t.cell(1, 2), t.cell(1, 3));
    }

    #[test]
    fn exp6_dandc_wins_at_scale() {
        let t = exp6_dandc_vs_central(&[16], &[0.2]);
        let ratio: f64 = t.cell(0, 4).parse().unwrap();
        assert!(
            ratio > 1.0,
            "centralized/dandc energy ratio {ratio} should exceed 1"
        );
    }

    #[test]
    fn exp7_completes_and_tracks_diameter() {
        let t = exp7_topology_emulation(&[4], &[3], &[5.0f64.sqrt()]);
        assert_eq!(t.cell(0, 9), "true");
        let ratio: f64 = t.cell(0, 6).parse().unwrap();
        assert!(
            ratio < 10.0,
            "elapsed should track cell diameter, ratio {ratio}"
        );
    }

    #[test]
    fn exp8_unique_leaders() {
        let t = exp8_binding(3, &[2, 4], &[5.0f64.sqrt()]);
        for r in 0..t.len() {
            assert_eq!(t.cell(r, 8), "true");
            assert_eq!(t.cell(r, 9), "true");
        }
    }

    #[test]
    fn exp9_vm_matches_estimate_exactly() {
        let t = exp9_model_fidelity(&[4], 2);
        assert_eq!(t.cell(0, 4), "1.000", "vm/est latency");
        assert_eq!(t.cell(0, 9), "1.000", "vm/est energy");
        let phys_vm: f64 = t.cell(0, 5).parse().unwrap();
        assert!(phys_vm >= 1.0);
    }

    #[test]
    fn exp10_measured_matches_prediction() {
        let t = exp10_group_cost(8, &[1, 2]);
        for r in 0..t.len() {
            assert_eq!(t.cell(r, 2), t.cell(r, 3), "mean hops row {r}");
            assert_eq!(t.cell(r, 6), t.cell(r, 7), "energy row {r}");
        }
    }

    #[test]
    fn exp11_rotation_improves_balance() {
        let t = exp11_energy_balance(8, 16);
        let jain_nw: f64 = t.cell(0, 6).parse().unwrap();
        let jain_rot: f64 = t.cell(2, 6).parse().unwrap();
        assert!(
            jain_rot > jain_nw,
            "rotating {jain_rot} should beat NW {jain_nw}"
        );
    }

    #[test]
    fn exp12_ideal_links_always_complete_and_arq_restores_liveness() {
        let t = exp12_loss_robustness(4, 2, &[0.0, 0.05], 3);
        // rows: (p=0, no-arq), (p=0, arq), (p=0.05, no-arq), (p=0.05, arq)
        assert_eq!(t.cell(0, 3), "3", "ideal links complete");
        assert_eq!(t.cell(0, 4), "3", "ideal links correct");
        assert_eq!(t.cell(1, 8), "0", "no retransmissions without loss");
        assert_eq!(t.cell(3, 3), "3", "ARQ completes under 5% loss");
        assert_eq!(t.cell(3, 4), "3", "ARQ answers are exact");
        let retx: u64 = t.cell(3, 8).parse().unwrap();
        assert!(retx > 0, "loss must trigger retransmissions");
    }

    #[test]
    fn exp14_reduce_matches_estimate() {
        let t = exp14_collectives(&[4]);
        assert_eq!(t.cell(0, 2), t.cell(0, 3), "reduce latency exact");
        assert_eq!(t.cell(0, 4), t.cell(0, 5), "reduce energy exact");
        assert_eq!(t.cell(1, 4), t.cell(1, 5), "disseminate energy exact");
        assert_eq!(t.cell(2, 2), t.cell(2, 3), "sort latency exact");
        assert_eq!(t.cell(2, 4), t.cell(2, 5), "sort energy exact");
    }

    #[test]
    fn exp15_tdma_slows_but_preserves_result_and_energy() {
        let t = exp15_mac_ablation(4, 2, &[8]);
        assert_eq!(t.cell(0, 5), "1");
        assert_eq!(t.cell(1, 5), "1");
        let base: u64 = t.cell(0, 1).parse().unwrap();
        let tdma: u64 = t.cell(1, 1).parse().unwrap();
        assert!(tdma > base, "TDMA must add access latency");
        assert_eq!(t.cell(0, 3), t.cell(1, 3), "energy is MAC-independent");
    }

    #[test]
    fn exp16_refresh_beats_no_refresh() {
        let t = exp16_mission_under_churn(2, 5, 8, &[0, 1]);
        let never: u32 = t.cell(0, 2).parse().unwrap();
        let every: u32 = t.cell(1, 2).parse().unwrap();
        assert!(every > never, "refresh {every} must beat never {never}");
    }

    #[test]
    fn exp17_reports_lifetimes_for_all_configs() {
        let t = exp17_election_lifetime(2, 4, 600.0, 60);
        assert_eq!(t.len(), 4);
        for r in 0..t.len() {
            let rounds: u32 = t.cell(r, 3).parse().unwrap();
            assert!(rounds > 0);
        }
    }

    #[test]
    fn exp18_sampling_reduces_error() {
        let t = exp18_sampling_accuracy(2, &[8], &[2.0]);
        let single: f64 = t.cell(0, 2).parse().unwrap();
        let sampled: f64 = t.cell(0, 3).parse().unwrap();
        assert!(
            sampled < single,
            "averaging 8 samples must beat one: {sampled} vs {single}"
        );
    }

    #[test]
    fn exp19_both_architectures_match_their_closed_forms() {
        let t = exp19_architecture_selection(&[4]);
        for r in 0..t.len() {
            assert_eq!(t.cell(r, 2), t.cell(r, 3), "latency row {r}");
            assert_eq!(t.cell(r, 4), t.cell(r, 5), "energy row {r}");
        }
        // The tree aggregates in fewer virtual hops than the grid.
        let grid_lat: u64 = t.cell(0, 2).parse().unwrap();
        let tree_lat: u64 = t.cell(1, 2).parse().unwrap();
        assert!(tree_lat < grid_lat);
    }

    #[test]
    fn end_to_end_trace_phases_cover_the_run() {
        let doc = record_end_to_end_trace(4, 2, 5, true);
        let meta = doc.meta.clone().expect("trace has a meta line");
        assert_eq!(meta.grid, 4);
        assert_eq!(meta.nodes, 32);
        let names: Vec<&str> = doc.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["topology-emulation", "binding", "application"]);
        let phase_sum: u64 = doc.spans.iter().map(|s| s.duration_ticks()).sum();
        assert_eq!(phase_sum, meta.total_ticks, "phases tile the run");
        assert!(doc.counter("net.messages") > 0);
        assert!(
            !doc.events.is_empty(),
            "trace_events captures the dispatch log"
        );
        assert_eq!(doc.nodes.len(), 32);
        // The export round-trips through JSONL.
        let parsed = wsn_obs::TraceDocument::from_jsonl(&doc.to_jsonl()).unwrap();
        assert_eq!(parsed.spans, doc.spans);
        assert_eq!(parsed.counters, doc.counters);
    }

    #[test]
    fn exp13_all_mappers_feasible() {
        let t = exp13_mapping_ablation(&[8]);
        assert_eq!(t.len(), 4);
    }
}
