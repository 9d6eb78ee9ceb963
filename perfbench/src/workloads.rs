//! The three seeded workloads. Each builds every input in set-up and then
//! runs a fixed number of ops against the public APIs of `wsn-net`,
//! `wsn-runtime`, `wsn-topoquery` and `wsn-analyze`, checking every
//! answer. Spans go around the library calls, never inside them.

use crate::report::vm_hwm_bytes;
use crate::trace::Tracer;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use wsn_bench::blob_field;
use wsn_bench::lint::certified_engine;
use wsn_bench::RunEngine;
use wsn_core::NodeProgram;
use wsn_net::{Deployment, DeploymentSpec, FrameBuf, LinkModel, RadioModel};
use wsn_runtime::{decode_framed, FramedProgram, ParallelConfig, PhysicalRuntime, RtMsg};
use wsn_topoquery::{label_regions, DandcMsg, DandcProgram, Field, RegionSummary};

/// Feature threshold of the labeling query.
pub const THRESHOLD: f64 = 5.0;

/// The kernel's queue-depth histogram, sampled after every dispatch
/// while the runtime's telemetry is on.
const QUEUE_DEPTH: &str = "kernel.queue_depth";

/// What one op reports besides its host time.
#[derive(Debug, Clone, Copy)]
pub struct OpStats {
    /// Kernel events dispatched during the op.
    pub events: u64,
    /// Simulated ticks from application start to the last exfiltration.
    pub latency_ticks: u64,
    /// Energy the ledger charged during the op.
    pub energy: f64,
}

/// A workload: set-up, then ops in a closed loop with one client.
pub trait Workload {
    type State;
    /// Ops per run.
    fn ops(&self) -> usize;
    /// Nodes in one deployment.
    fn nodes(&self) -> usize;
    /// Bytes of one kernel event on this workload's transport.
    fn event_bytes(&self) -> usize;
    /// Builds every input and whatever the ops stand on (timed as set-up).
    fn setup(&self, tr: &mut Tracer) -> Result<Self::State, String>;
    /// Untimed work before op `i`.
    fn prepare(&self, _st: &mut Self::State, _i: usize, _tr: &mut Tracer) {}
    /// One timed op; `Err` names the check it failed.
    fn op(&self, st: &mut Self::State, i: usize, tr: &mut Tracer) -> Result<OpStats, String>;
    /// The simulated counts of the runtime the last op ran on, by name.
    fn counts(&self, st: &Self::State) -> BTreeMap<String, String>;
    /// Traced runs only: attaches the last op's kernel queue depths to
    /// the span that closed last (the op span).
    fn observe(&self, st: &mut Self::State, tr: &mut Tracer);
    /// Traced runs only: the runtime's own trace document as JSONL.
    fn trace_document(&self, st: &Self::State) -> Option<String>;
}

/// A query: the sensor field the labeling runs over and the oracle's
/// region count for it.
pub struct Query {
    field: Field,
    regions: usize,
}

impl Query {
    fn generate(side: u32, seed: u64, tr: &mut Tracer) -> Query {
        let field = tr.span("topoquery.field", || blob_field(side, seed));
        let regions = tr.span("topoquery.oracle", || {
            label_regions(&field.threshold(THRESHOLD)).region_count()
        });
        Query { field, regions }
    }
}

fn deploy(side: u32, per_cell: usize, seed: u64, tr: &mut Tracer) -> Deployment {
    tr.span("net.deploy", || {
        DeploymentSpec::per_cell(side, per_cell).generate(seed)
    })
}

/// The field every node of a runtime senses. Swapping its content
/// between rounds puts a new query to a standing deployment.
type SharedField = Rc<RefCell<Field>>;

/// Builds a runtime over a copy of `deployment` sensing `field`.
fn runtime<P: Clone + 'static>(
    deployment: &Deployment,
    field: &SharedField,
    seed: u64,
    tr: &mut Tracer,
) -> PhysicalRuntime<P> {
    let deployment = deployment.clone();
    let field = field.clone();
    let range = deployment.grid().range_for_adjacent_cell_reachability();
    let hwm0 = tr.is_on().then(vm_hwm_bytes);
    let mut rt = tr.span("runtime.new", || {
        PhysicalRuntime::new(
            deployment,
            RadioModel::uniform(range),
            LinkModel::ideal(),
            None,
            1,
            seed,
            move |c| field.borrow().value(c),
        )
    });
    if let Some(hwm0) = hwm0 {
        tr.count("hwm_growth", (vm_hwm_bytes() - hwm0) as f64);
        // The runtime's own registry makes the kernel's queue depths
        // and the sharded engine's per-shard counters readable.
        rt.enable_telemetry(false);
    }
    rt
}

/// One mission's generated inputs: a deployment and its query.
pub struct Inputs {
    deployment: Deployment,
    field: SharedField,
    regions: usize,
    seed: u64,
}

impl Inputs {
    fn generate(side: u32, per_cell: usize, seed: u64, tr: &mut Tracer) -> Inputs {
        let deployment = deploy(side, per_cell, seed, tr);
        let query = Query::generate(side, seed, tr);
        Inputs {
            deployment,
            field: Rc::new(RefCell::new(query.field)),
            regions: query.regions,
            seed,
        }
    }

    fn runtime<P: Clone + 'static>(&self, tr: &mut Tracer) -> PhysicalRuntime<P> {
        runtime(&self.deployment, &self.field, self.seed, tr)
    }
}

/// Per-op seed of op `i`: a splitmix64 step, so neighbouring ops get
/// unrelated deployments and fields.
fn op_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn energy_total<P: Clone + 'static>(rt: &PhysicalRuntime<P>) -> f64 {
    rt.medium().borrow().ledger().total()
}

/// Calls `f` on `rt` inside a span named `name`. When tracing, the
/// counts at the call's boundaries (kernel events, medium transmissions
/// and deliveries, receptions suppressed by the one-boundary rule,
/// growth of the process high-water mark) go onto the span.
fn call<P: Clone + 'static, T>(
    tr: &mut Tracer,
    rt: &mut PhysicalRuntime<P>,
    name: &'static str,
    f: impl FnOnce(&mut PhysicalRuntime<P>) -> T,
) -> T {
    if !tr.is_on() {
        return f(rt);
    }
    let before = Probe::read(rt);
    tr.open(name);
    let out = f(rt);
    tr.close();
    let after = Probe::read(rt);
    tr.count("events", (after.events - before.events) as f64);
    tr.count("medium_tx", (after.tx - before.tx) as f64);
    tr.count(
        "medium_delivered",
        (after.delivered - before.delivered) as f64,
    );
    tr.count("suppressed", (after.suppressed - before.suppressed) as f64);
    tr.count("hwm_growth", (after.hwm - before.hwm) as f64);
    out
}

struct Probe {
    events: u64,
    tx: u64,
    delivered: u64,
    suppressed: u64,
    hwm: u64,
}

impl Probe {
    fn read<P: Clone + 'static>(rt: &PhysicalRuntime<P>) -> Probe {
        let stats = rt.stats();
        Probe {
            events: rt.events_total(),
            tx: stats.counter("medium.tx"),
            delivered: stats.counter("medium.delivered"),
            suppressed: stats.counter("topo.suppressed"),
            hwm: vm_hwm_bytes(),
        }
    }
}

/// The simulated counts of `rt`: events, every kernel statistics
/// counter, ledger energy and simulated time.
fn runtime_counts<P: Clone + 'static>(rt: &PhysicalRuntime<P>) -> BTreeMap<String, String> {
    let mut out: BTreeMap<String, String> = rt
        .stats()
        .counters()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.insert("events_total".into(), rt.events_total().to_string());
    out.insert("energy.total".into(), format!("{:?}", energy_total(rt)));
    out.insert("ticks".into(), rt.now().ticks().to_string());
    out
}

/// The kernel's queue-depth samples so far (empty unless telemetry is on).
fn queue_samples<P: Clone + 'static>(rt: &PhysicalRuntime<P>) -> &[f64] {
    rt.stats()
        .histogram(QUEUE_DEPTH)
        .map_or(&[], |h| h.values())
}

/// Attaches the median and maximum of the queue depths sampled after
/// index `from` to the span that closed last.
fn count_queue_depths(samples: &[f64], from: usize, tr: &mut Tracer) {
    let fresh = &samples[from.min(samples.len())..];
    tr.count("queue_depth_p50", crate::report::median(fresh));
    tr.count("queue_depth_max", fresh.iter().copied().fold(0.0, f64::max));
}

fn trace_jsonl<P: Clone + 'static>(rt: &PhysicalRuntime<P>) -> String {
    rt.record_trace().to_jsonl()
}

/// The region count of a complete summary, `None` for a partial one.
fn regions_of(msg: &DandcMsg) -> Option<usize> {
    match &msg.data {
        RegionSummary::Complete(s) => Some(s.region_count()),
        RegionSummary::Partial(_) => None,
    }
}

/// The result of one exfiltration pass: how many results left the
/// network and the first one, decoded.
fn take_answer<P: Clone + 'static>(
    tr: &mut Tracer,
    rt: &mut PhysicalRuntime<P>,
    decode: impl Fn(&P) -> Option<DandcMsg>,
) -> (usize, Option<DandcMsg>) {
    tr.span("runtime.exfil", || {
        let exfil = rt.take_exfiltrated();
        (exfil.len(), exfil.first().and_then(|e| decode(&e.payload)))
    })
}

/// One full mission on `rt`: topology emulation, binding, install, one
/// application run and the decoded, checked answer.
fn mission<P: Clone + 'static>(
    rt: &mut PhysicalRuntime<P>,
    program: fn(u32) -> Box<dyn NodeProgram<P>>,
    decode: fn(&P) -> Option<DandcMsg>,
    expect_regions: usize,
    tr: &mut Tracer,
) -> Result<OpStats, String> {
    let side = rt.grid().side();
    let events0 = rt.events_total();
    let energy0 = energy_total(rt);
    let topo = call(tr, rt, "runtime.topo", |rt| rt.run_topology_emulation());
    if !topo.complete {
        return Err("topology emulation did not complete".into());
    }
    let bind = call(tr, rt, "runtime.bind", |rt| rt.run_binding());
    if !bind.unique {
        return Err("binding elected no unique leader in some cell".into());
    }
    call(tr, rt, "runtime.install", |rt| {
        rt.install_programs(move |_| program(side))
    });
    let app = call(tr, rt, "runtime.app", |rt| rt.run_application());
    tr.count("messages", app.messages as f64);
    tr.count("hops", app.physical_hops as f64);
    let (exfils, answer) = take_answer(tr, rt, decode);
    check_answer(exfils, answer.as_ref(), expect_regions)?;
    Ok(OpStats {
        events: rt.events_total() - events0,
        latency_ticks: app.last_exfil_ticks.ok_or("no exfiltration time")?,
        energy: energy_total(rt) - energy0,
    })
}

fn check_answer(exfils: usize, answer: Option<&DandcMsg>, expect: usize) -> Result<(), String> {
    if exfils != 1 {
        return Err(format!("{exfils} exfiltrations, expected exactly one"));
    }
    let got = answer
        .and_then(regions_of)
        .ok_or("the exfiltrated result is not a complete summary")?;
    if got != expect {
        return Err(format!("{got} regions, the oracle says {expect}"));
    }
    Ok(())
}

fn framed_program(side: u32) -> Box<dyn NodeProgram<FrameBuf>> {
    Box::new(FramedProgram::new(DandcProgram::new(side, THRESHOLD)))
}

fn decode_frame(frame: &FrameBuf) -> Option<DandcMsg> {
    decode_framed::<DandcMsg>(frame).ok()
}

fn typed_program(side: u32) -> Box<dyn NodeProgram<DandcMsg>> {
    Box::new(DandcProgram::new(side, THRESHOLD))
}

fn decode_typed(msg: &DandcMsg) -> Option<DandcMsg> {
    Some(msg.clone())
}

/// `small-framed`: many fresh side-8 missions on the framed transport.
pub struct SmallFramed {
    pub side: u32,
    pub per_cell: usize,
    pub warmups: usize,
    pub ops: usize,
    pub seed: u64,
}

pub struct SmallFramedState {
    inputs: Vec<Inputs>,
    last: Option<PhysicalRuntime<FrameBuf>>,
}

impl Workload for SmallFramed {
    type State = SmallFramedState;

    fn ops(&self) -> usize {
        self.ops
    }

    fn nodes(&self) -> usize {
        (self.side * self.side) as usize * self.per_cell
    }

    fn event_bytes(&self) -> usize {
        std::mem::size_of::<RtMsg<FrameBuf>>()
    }

    fn setup(&self, tr: &mut Tracer) -> Result<SmallFramedState, String> {
        let inputs: Vec<Inputs> = (0..self.ops)
            .map(|i| Inputs::generate(self.side, self.per_cell, op_seed(self.seed, i), tr))
            .collect();
        // Untimed warm-up missions on the first inputs: caches and the
        // allocator settle before the timed ops start.
        for (i, input) in inputs.iter().cycle().take(self.warmups).enumerate() {
            let mut rt = input.runtime::<FrameBuf>(tr);
            mission(&mut rt, framed_program, decode_frame, input.regions, tr)
                .map_err(|e| format!("warm-up mission {i}: {e}"))?;
        }
        Ok(SmallFramedState { inputs, last: None })
    }

    fn prepare(&self, st: &mut SmallFramedState, _i: usize, _tr: &mut Tracer) {
        st.last = None;
    }

    fn op(&self, st: &mut SmallFramedState, i: usize, tr: &mut Tracer) -> Result<OpStats, String> {
        let input = &st.inputs[i];
        let rt = st.last.insert(input.runtime::<FrameBuf>(tr));
        mission(rt, framed_program, decode_frame, input.regions, tr)
    }

    fn counts(&self, st: &SmallFramedState) -> BTreeMap<String, String> {
        st.last.as_ref().map(runtime_counts).unwrap_or_default()
    }

    fn observe(&self, st: &mut SmallFramedState, tr: &mut Tracer) {
        if let Some(rt) = &st.last {
            count_queue_depths(queue_samples(rt), 0, tr);
        }
    }

    fn trace_document(&self, st: &SmallFramedState) -> Option<String> {
        st.last.as_ref().map(trace_jsonl)
    }
}

/// `scale-512`: one side-512 mission on the sequential engine with the
/// typed transport.
pub struct Scale {
    pub side: u32,
    pub ops: usize,
    pub seed: u64,
}

pub struct ScaleState {
    inputs: Inputs,
    fresh: Option<PhysicalRuntime<DandcMsg>>,
    last: Option<PhysicalRuntime<DandcMsg>>,
}

impl Workload for Scale {
    type State = ScaleState;

    fn ops(&self) -> usize {
        self.ops
    }

    fn nodes(&self) -> usize {
        (self.side * self.side) as usize
    }

    fn event_bytes(&self) -> usize {
        std::mem::size_of::<RtMsg<DandcMsg>>()
    }

    fn setup(&self, tr: &mut Tracer) -> Result<ScaleState, String> {
        let inputs = Inputs::generate(self.side, 1, self.seed, tr);
        let fresh = Some(inputs.runtime(tr));
        Ok(ScaleState {
            inputs,
            fresh,
            last: None,
        })
    }

    /// A run of more than one op builds each later op's runtime here,
    /// outside the timed op, after dropping the one the last op used.
    fn prepare(&self, st: &mut ScaleState, _i: usize, tr: &mut Tracer) {
        if st.fresh.is_none() {
            st.last = None;
            st.fresh = Some(st.inputs.runtime(tr));
        }
    }

    fn op(&self, st: &mut ScaleState, _i: usize, tr: &mut Tracer) -> Result<OpStats, String> {
        let mut rt = st.fresh.take().ok_or("no runtime was built for this op")?;
        let out = mission(&mut rt, typed_program, decode_typed, st.inputs.regions, tr);
        st.last = Some(rt);
        out
    }

    fn counts(&self, st: &ScaleState) -> BTreeMap<String, String> {
        st.last.as_ref().map(runtime_counts).unwrap_or_default()
    }

    fn observe(&self, st: &mut ScaleState, tr: &mut Tracer) {
        if let Some(rt) = &st.last {
            count_queue_depths(queue_samples(rt), 0, tr);
        }
    }

    fn trace_document(&self, st: &ScaleState) -> Option<String> {
        st.last.as_ref().map(trace_jsonl)
    }
}

/// `sharded-128`: query rounds on a standing side-128 deployment, on the
/// sharded engine the shard certificate selects.
pub struct Sharded {
    pub side: u32,
    pub cut: u8,
    pub lanes: usize,
    pub ops: usize,
    pub seed: u64,
}

/// What the sequential reference round produced; every sharded round
/// must reproduce it exactly.
#[derive(Debug, Clone, PartialEq)]
struct RoundResult {
    answer: Option<DandcMsg>,
    exfils: usize,
    events: u64,
    messages: u64,
    hops: u64,
    last_exfil_ticks: Option<u64>,
}

pub struct ShardedState {
    rt: PhysicalRuntime<DandcMsg>,
    config: ParallelConfig,
    /// What the standing deployment senses.
    field: SharedField,
    /// Op `i` queries `queries[i]`.
    queries: Vec<Query>,
    /// The sequential reference round on the next op's query.
    reference: Option<RoundResult>,
    /// Queue-depth samples taken before the current op started.
    queue_mark: usize,
}

impl Sharded {
    /// One query round on the standing deployment.
    fn round(
        &self,
        rt: &mut PhysicalRuntime<DandcMsg>,
        config: Option<&ParallelConfig>,
        tr: &mut Tracer,
    ) -> RoundResult {
        let side = self.side;
        let events0 = rt.events_total();
        call(tr, rt, "runtime.install", |rt| {
            rt.install_programs(move |_| typed_program(side))
        });
        let app = match config {
            None => call(tr, rt, "runtime.app", |rt| rt.run_application()),
            Some(cfg) => {
                let shards0 = tr.is_on().then(|| ShardCounters::read(rt));
                let app = call(tr, rt, "runtime.app_sharded", |rt| {
                    rt.run_application_parallel(cfg)
                });
                if let Some(before) = shards0 {
                    ShardCounters::read(rt).attach_delta(&before, tr);
                }
                app
            }
        };
        tr.count("messages", app.messages as f64);
        tr.count("hops", app.physical_hops as f64);
        let (exfils, answer) = take_answer(tr, rt, decode_typed);
        RoundResult {
            answer,
            exfils,
            events: rt.events_total() - events0,
            messages: app.messages,
            hops: app.physical_hops,
            last_exfil_ticks: app.last_exfil_ticks,
        }
    }
}

impl Workload for Sharded {
    type State = ShardedState;

    fn ops(&self) -> usize {
        self.ops
    }

    fn nodes(&self) -> usize {
        (self.side * self.side) as usize
    }

    fn event_bytes(&self) -> usize {
        std::mem::size_of::<RtMsg<DandcMsg>>()
    }

    fn setup(&self, tr: &mut Tracer) -> Result<ShardedState, String> {
        let deployment = deploy(self.side, 1, self.seed, tr);
        // Every round puts its own query field to the standing
        // deployment, so a run's medians cover many fields.
        let queries: Vec<Query> = (0..self.ops)
            .map(|i| Query::generate(self.side, op_seed(self.seed, i), tr))
            .collect();
        let field = Rc::new(RefCell::new(queries[0].field.clone()));
        let mut rt = runtime::<DandcMsg>(&deployment, &field, self.seed, tr);
        if !call(tr, &mut rt, "runtime.topo", |rt| {
            rt.run_topology_emulation()
        })
        .complete
        {
            return Err("topology emulation did not complete".into());
        }
        if !call(tr, &mut rt, "runtime.bind", |rt| rt.run_binding()).unique {
            return Err("binding elected no unique leader in some cell".into());
        }
        // The certificate gate the repository's scale experiments pass
        // before they run the sharded engine. It runs after bring-up so its
        // transient peak sits on top of the standing deployment; run
        // before the runtime, its freed memory left the process peak to
        // the allocator's reuse (119–167 MB across seeds).
        let (engine, diags) = tr.span("analyze.shard_cert", || {
            certified_engine(self.side, self.cut, self.lanes, false)
        });
        let RunEngine::Sharded { cut_level, workers } = engine else {
            return Err(format!(
                "the shard certificate did not select the sharded engine:\n{}",
                diags.render_text()
            ));
        };
        let config = ParallelConfig { cut_level, workers };
        rt.parallel_preconditions(&config)?;
        Ok(ShardedState {
            rt,
            config,
            field,
            queries,
            reference: None,
            queue_mark: 0,
        })
    }

    /// Puts op `i`'s query to the deployment and runs the sequential
    /// reference round on it, untimed.
    fn prepare(&self, st: &mut ShardedState, i: usize, tr: &mut Tracer) {
        *st.field.borrow_mut() = st.queries[i].field.clone();
        st.reference = Some(self.round(&mut st.rt, None, tr));
        st.queue_mark = queue_samples(&st.rt).len();
    }

    fn op(&self, st: &mut ShardedState, i: usize, tr: &mut Tracer) -> Result<OpStats, String> {
        let energy0 = energy_total(&st.rt);
        let round = self.round(&mut st.rt, Some(&st.config), tr);
        check_answer(round.exfils, round.answer.as_ref(), st.queries[i].regions)?;
        let reference = st.reference.take().ok_or("no reference round")?;
        if round != reference {
            return Err(format!(
                "sharded round differs from the sequential reference: {:?} vs {:?}",
                Summary(&round),
                Summary(&reference)
            ));
        }
        Ok(OpStats {
            events: round.events,
            latency_ticks: round.last_exfil_ticks.ok_or("no exfiltration time")?,
            energy: energy_total(&st.rt) - energy0,
        })
    }

    fn counts(&self, st: &ShardedState) -> BTreeMap<String, String> {
        runtime_counts(&st.rt)
    }

    fn observe(&self, st: &mut ShardedState, tr: &mut Tracer) {
        count_queue_depths(queue_samples(&st.rt), st.queue_mark, tr);
    }

    fn trace_document(&self, st: &ShardedState) -> Option<String> {
        Some(trace_jsonl(&st.rt))
    }
}

/// A round without its summary payload, for failure messages.
struct Summary<'a>(&'a RoundResult);

impl std::fmt::Debug for Summary<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let r = self.0;
        write!(
            f,
            "regions={:?} exfils={} events={} messages={} hops={} last_exfil_ticks={:?}",
            r.answer.as_ref().and_then(regions_of),
            r.exfils,
            r.events,
            r.messages,
            r.hops,
            r.last_exfil_ticks
        )
    }
}

/// The sharded engine's own accounting (`shard=`-labeled counters of
/// `shard_telemetry()`), cumulative over rounds.
struct ShardCounters {
    windows: u64,
    stall: u64,
    staged: u64,
    events: BTreeMap<String, u64>,
}

impl ShardCounters {
    fn read(rt: &PhysicalRuntime<DandcMsg>) -> ShardCounters {
        let reg = rt.shard_telemetry();
        let mut out = ShardCounters {
            windows: reg.counter("shard.windows"),
            stall: 0,
            staged: 0,
            events: BTreeMap::new(),
        };
        for (key, value) in reg.counters() {
            let (name, labels) = wsn_obs::split_labels(&key);
            let Some(&(_, shard)) = labels.iter().find(|(k, _)| *k == "shard") else {
                continue;
            };
            match name {
                "shard.barrier.stall" => out.stall += value,
                "shard.cross.staged" => out.staged += value,
                "shard.events" if shard != "global" => {
                    out.events.insert(shard.to_string(), value);
                }
                _ => {}
            }
        }
        out
    }

    /// Attaches one round's windows, barrier stalls, staged cross-shard
    /// events and event skew (busiest shard ÷ mean shard).
    fn attach_delta(&self, before: &ShardCounters, tr: &mut Tracer) {
        tr.count("shard_windows", (self.windows - before.windows) as f64);
        tr.count("shard_barrier_stall", (self.stall - before.stall) as f64);
        tr.count("shard_cross_staged", (self.staged - before.staged) as f64);
        let deltas: Vec<f64> = self
            .events
            .iter()
            .map(|(k, v)| (v - before.events.get(k).copied().unwrap_or(0)) as f64)
            .collect();
        let mean = deltas.iter().sum::<f64>() / deltas.len().max(1) as f64;
        let max = deltas.iter().copied().fold(0.0, f64::max);
        tr.count(
            "shard_events_skew",
            if mean > 0.0 { max / mean } else { 0.0 },
        );
    }
}
