//! Architecture-independent application model: annotated task graphs.
//!
//! §2: "the algorithm is specified using an architecture-independent
//! application model such as an annotated task graph. The application
//! graph is used as an input to a mapping tool…". Tasks carry compute
//! annotations; edges carry the data volume exchanged — together with the
//! cost model this is "sufficient information to decide an efficient
//! mapping of application tasks onto sensor nodes".

/// Index of a task within its graph.
pub type TaskId = usize;

/// What a task does (§4.1: "a leaf node corresponds to a task that is
/// linked to the sensing interface, and interior nodes represent
/// in-network processing").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// Samples the sensing interface.
    Sensing,
    /// In-network processing of children's data.
    Processing,
}

/// One task, annotated for cost analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Id (== index in the graph).
    pub id: TaskId,
    /// Sensing or processing.
    pub kind: TaskKind,
    /// Hierarchy level (0 = leaf) when the graph is leveled; free-form
    /// graphs may leave it 0.
    pub level: u8,
    /// Computation annotation in data units.
    pub compute_units: u64,
}

/// A directed data-flow edge with its data-volume annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producer.
    pub from: TaskId,
    /// Consumer.
    pub to: TaskId,
    /// Data units flowing along the edge per round.
    pub data_units: u64,
}

/// Why an edge could not be added to a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeError {
    /// An endpoint names no task in the graph.
    OutOfRange {
        /// The offending endpoint.
        endpoint: TaskId,
        /// Number of tasks in the graph.
        tasks: usize,
    },
    /// `from == to`.
    SelfLoop {
        /// The task looping onto itself.
        task: TaskId,
    },
    /// The graph already has an edge `from → to`.
    Duplicate {
        /// Producer.
        from: TaskId,
        /// Consumer.
        to: TaskId,
    },
}

impl std::fmt::Display for EdgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeError::OutOfRange { endpoint, tasks } => {
                write!(
                    f,
                    "edge endpoint {endpoint} out of range (graph has {tasks} tasks)"
                )
            }
            EdgeError::SelfLoop { task } => write!(f, "self-loop on task {task}"),
            EdgeError::Duplicate { from, to } => write!(f, "duplicate edge {from} -> {to}"),
        }
    }
}

impl std::error::Error for EdgeError {}

/// An annotated, directed, acyclic task graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGraph {
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    /// children[t] = edges *into* t come from these producers.
    producers: Vec<Vec<TaskId>>,
    /// consumers[t] = tasks fed by t.
    consumers: Vec<Vec<TaskId>>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        TaskGraph::default()
    }

    /// Adds a task and returns its id.
    pub fn add_task(&mut self, kind: TaskKind, level: u8, compute_units: u64) -> TaskId {
        let id = self.tasks.len();
        self.tasks.push(Task {
            id,
            kind,
            level,
            compute_units,
        });
        self.producers.push(Vec::new());
        self.consumers.push(Vec::new());
        id
    }

    /// Adds a data-flow edge `from → to`, rejecting malformed edges with a
    /// typed error instead of panicking.
    pub fn try_add_edge(
        &mut self,
        from: TaskId,
        to: TaskId,
        data_units: u64,
    ) -> Result<(), EdgeError> {
        let tasks = self.tasks.len();
        for endpoint in [from, to] {
            if endpoint >= tasks {
                return Err(EdgeError::OutOfRange { endpoint, tasks });
            }
        }
        if from == to {
            return Err(EdgeError::SelfLoop { task: from });
        }
        if self.producers[to].contains(&from) {
            return Err(EdgeError::Duplicate { from, to });
        }
        self.edges.push(Edge {
            from,
            to,
            data_units,
        });
        self.producers[to].push(from);
        self.consumers[from].push(to);
        Ok(())
    }

    /// Adds a data-flow edge `from → to`, panicking on malformed edges —
    /// the convenient wrapper for graph builders with edges known valid by
    /// construction.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId, data_units: u64) {
        if let Err(e) = self.try_add_edge(from, to, data_units) {
            panic!("{e}");
        }
    }

    /// Number of tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// All tasks.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// One task.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id]
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Producers feeding `t` (its children in the aggregation tree).
    pub fn producers(&self, t: TaskId) -> &[TaskId] {
        &self.producers[t]
    }

    /// Consumers fed by `t`.
    pub fn consumers(&self, t: TaskId) -> &[TaskId] {
        &self.consumers[t]
    }

    /// Tasks with no producers.
    pub fn sources(&self) -> Vec<TaskId> {
        (0..self.tasks.len())
            .filter(|&t| self.producers[t].is_empty())
            .collect()
    }

    /// Tasks with no consumers.
    pub fn sinks(&self) -> Vec<TaskId> {
        (0..self.tasks.len())
            .filter(|&t| self.consumers[t].is_empty())
            .collect()
    }

    /// Leaf (sensing) tasks.
    pub fn sensing_tasks(&self) -> Vec<TaskId> {
        self.tasks
            .iter()
            .filter(|t| t.kind == TaskKind::Sensing)
            .map(|t| t.id)
            .collect()
    }

    /// Kahn topological order; `None` when the graph has a cycle.
    pub fn topological_order(&self) -> Option<Vec<TaskId>> {
        let n = self.tasks.len();
        let mut indegree: Vec<usize> = (0..n).map(|t| self.producers[t].len()).collect();
        let mut ready: Vec<TaskId> = (0..n).filter(|&t| indegree[t] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(t) = ready.pop() {
            order.push(t);
            for &c in &self.consumers[t] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    ready.push(c);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Whether the graph is acyclic.
    pub fn is_dag(&self) -> bool {
        self.topological_order().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskKind::Sensing, 0, 1);
        let b = g.add_task(TaskKind::Sensing, 0, 1);
        let c = g.add_task(TaskKind::Processing, 1, 2);
        let d = g.add_task(TaskKind::Processing, 2, 2);
        g.add_edge(a, c, 3);
        g.add_edge(b, c, 3);
        g.add_edge(c, d, 5);
        g
    }

    #[test]
    fn construction_and_accessors() {
        let g = diamond();
        assert_eq!(g.task_count(), 4);
        assert_eq!(g.edges().len(), 3);
        assert_eq!(g.producers(2), &[0, 1]);
        assert_eq!(g.consumers(0), &[2]);
        assert_eq!(g.sources(), vec![0, 1]);
        assert_eq!(g.sinks(), vec![3]);
        assert_eq!(g.sensing_tasks(), vec![0, 1]);
        assert_eq!(g.task(2).kind, TaskKind::Processing);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order().unwrap();
        let pos = |t: TaskId| order.iter().position(|&x| x == t).unwrap();
        for e in g.edges() {
            assert!(pos(e.from) < pos(e.to), "{e:?}");
        }
        assert!(g.is_dag());
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = diamond();
        g.add_edge(3, 0, 1);
        assert!(!g.is_dag());
        assert_eq!(g.topological_order(), None);
    }

    #[test]
    fn try_add_edge_reports_typed_errors() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskKind::Sensing, 0, 1);
        let b = g.add_task(TaskKind::Processing, 1, 1);
        assert_eq!(g.try_add_edge(a, b, 1), Ok(()));
        assert_eq!(
            g.try_add_edge(a, b, 2),
            Err(EdgeError::Duplicate { from: a, to: b })
        );
        assert_eq!(
            g.try_add_edge(b, b, 1),
            Err(EdgeError::SelfLoop { task: b })
        );
        assert_eq!(
            g.try_add_edge(a, 9, 1),
            Err(EdgeError::OutOfRange {
                endpoint: 9,
                tasks: 2
            })
        );
        // Rejected edges leave the graph untouched.
        assert_eq!(g.edges().len(), 1);
        assert_eq!(g.producers(b), &[a]);
        // Reverse direction is a distinct edge, not a duplicate.
        assert_eq!(g.try_add_edge(b, a, 1), Ok(()));
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edge_panics() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskKind::Sensing, 0, 1);
        let b = g.add_task(TaskKind::Processing, 1, 1);
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskKind::Sensing, 0, 1);
        g.add_edge(a, a, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dangling_edge_panics() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskKind::Sensing, 0, 1);
        g.add_edge(a, 9, 1);
    }
}
