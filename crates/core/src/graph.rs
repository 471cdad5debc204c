//! Application graphs (paper §2.1).
//!
//! "Hurricane applications are specified as a directed graph of tasks ...
//! and data bags. The edges in the graph represent the flow of data
//! between tasks and bags." A bag is produced by at most one task (or is a
//! *source* filled before execution) and consumed by at most one task —
//! clones of that task share it. Bags nobody consumes are *sinks*, read by
//! the application after the run.
//!
//! # Examples
//!
//! ```
//! use hurricane_core::graph::GraphBuilder;
//! use hurricane_core::task::TaskCtx;
//! use hurricane_core::EngineError;
//!
//! let mut g = GraphBuilder::new();
//! let input = g.source("numbers");
//! let doubled = g.bag("doubled");
//! g.task("double", &[input], &[doubled], |ctx: &mut TaskCtx| {
//!     while let Some(recs) = ctx.next_records::<u64>(0)? {
//!         for r in recs {
//!             ctx.write_record(0, &(r * 2))?;
//!         }
//!     }
//!     Ok(())
//! });
//! let graph = g.build().unwrap();
//! assert_eq!(graph.num_tasks(), 1);
//! assert_eq!(graph.num_bags(), 2);
//! ```

use crate::error::EngineError;
use crate::task::{MergeLogic, TaskLogic};
use hurricane_common::TaskId;
use std::sync::Arc;

/// Handle to a bag in a graph under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphBag(pub usize);

/// Handle to a task in a graph under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphTask(pub usize);

/// How a bag gets its contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BagKind {
    /// Filled by the application before execution starts.
    Source,
    /// Produced by a task during execution.
    Internal,
}

/// A bag declaration.
pub struct BagDef {
    /// Human-readable name (for reports and debugging).
    pub name: String,
    /// Source or internal.
    pub kind: BagKind,
    /// The task producing this bag, if any.
    pub producer: Option<TaskId>,
    /// The task consuming this bag, if any (none ⇒ sink).
    pub consumer: Option<TaskId>,
}

/// A task declaration: code plus bag connectivity.
pub struct TaskDef {
    /// Human-readable name.
    pub name: String,
    /// The task body, shared by the original and every clone.
    pub logic: Arc<dyn TaskLogic>,
    /// Optional merge procedure. `None` means clone outputs are simply
    /// concatenated (the default merge, paper §2.1).
    pub merge: Option<Arc<dyn MergeLogic>>,
    /// Indices of input bags.
    pub inputs: Vec<usize>,
    /// Indices of output bags.
    pub outputs: Vec<usize>,
}

/// A validated application graph.
pub struct AppGraph {
    bags: Vec<BagDef>,
    tasks: Vec<TaskDef>,
}

impl AppGraph {
    /// Starts building a graph.
    pub fn builder() -> GraphBuilder {
        GraphBuilder::new()
    }

    /// Number of declared bags.
    pub fn num_bags(&self) -> usize {
        self.bags.len()
    }

    /// Number of declared tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The bag declarations, indexed by [`GraphBag`].
    pub fn bag(&self, b: GraphBag) -> &BagDef {
        &self.bags[b.0]
    }

    /// The task declarations, indexed by [`TaskId`].
    pub fn task(&self, t: TaskId) -> &TaskDef {
        &self.tasks[t.index()]
    }

    /// Source bags (must be filled and are sealed at run start).
    pub fn sources(&self) -> Vec<GraphBag> {
        self.bags
            .iter()
            .enumerate()
            .filter(|(_, b)| b.kind == BagKind::Source)
            .map(|(i, _)| GraphBag(i))
            .collect()
    }

    /// Sink bags (consumed by no task; read by the application afterward).
    pub fn sinks(&self) -> Vec<GraphBag> {
        self.bags
            .iter()
            .enumerate()
            .filter(|(_, b)| b.consumer.is_none())
            .map(|(i, _)| GraphBag(i))
            .collect()
    }

    /// Looks a task up by name.
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.tasks
            .iter()
            .position(|t| t.name == name)
            .map(|i| TaskId(i as u32))
    }
}

/// Builder for [`AppGraph`].
#[derive(Default)]
pub struct GraphBuilder {
    bags: Vec<BagDef>,
    tasks: Vec<TaskDef>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a source bag (input data, filled before the run).
    pub fn source(&mut self, name: impl Into<String>) -> GraphBag {
        self.bags.push(BagDef {
            name: name.into(),
            kind: BagKind::Source,
            producer: None,
            consumer: None,
        });
        GraphBag(self.bags.len() - 1)
    }

    /// Declares an internal bag (produced by a task).
    pub fn bag(&mut self, name: impl Into<String>) -> GraphBag {
        self.bags.push(BagDef {
            name: name.into(),
            kind: BagKind::Internal,
            producer: None,
            consumer: None,
        });
        GraphBag(self.bags.len() - 1)
    }

    /// Declares a task with the default (concatenation) merge.
    pub fn task(
        &mut self,
        name: impl Into<String>,
        inputs: &[GraphBag],
        outputs: &[GraphBag],
        logic: impl TaskLogic,
    ) -> GraphTask {
        self.push_task(name.into(), inputs, outputs, Arc::new(logic), None)
    }

    /// Declares a task with an application-specified merge procedure.
    pub fn task_with_merge(
        &mut self,
        name: impl Into<String>,
        inputs: &[GraphBag],
        outputs: &[GraphBag],
        logic: impl TaskLogic,
        merge: impl MergeLogic,
    ) -> GraphTask {
        self.push_task(
            name.into(),
            inputs,
            outputs,
            Arc::new(logic),
            Some(Arc::new(merge)),
        )
    }

    fn push_task(
        &mut self,
        name: String,
        inputs: &[GraphBag],
        outputs: &[GraphBag],
        logic: Arc<dyn TaskLogic>,
        merge: Option<Arc<dyn MergeLogic>>,
    ) -> GraphTask {
        self.tasks.push(TaskDef {
            name,
            logic,
            merge,
            inputs: inputs.iter().map(|b| b.0).collect(),
            outputs: outputs.iter().map(|b| b.0).collect(),
        });
        GraphTask(self.tasks.len() - 1)
    }

    /// Validates and freezes the graph.
    ///
    /// Checks: every task has ≥ 1 input and ≥ 1 output; each bag has at
    /// most one producer and at most one consumer; sources are never
    /// produced; every internal bag has a producer; bag indices are in
    /// range; and the task/bag graph is acyclic.
    pub fn build(mut self) -> Result<AppGraph, EngineError> {
        let nbags = self.bags.len();
        for (i, t) in self.tasks.iter().enumerate() {
            let tid = TaskId(i as u32);
            if t.inputs.is_empty() {
                return Err(EngineError::InvalidGraph(format!(
                    "task '{}' has no input bag",
                    t.name
                )));
            }
            if t.outputs.is_empty() {
                return Err(EngineError::InvalidGraph(format!(
                    "task '{}' has no output bag",
                    t.name
                )));
            }
            for &b in t.inputs.iter().chain(&t.outputs) {
                if b >= nbags {
                    return Err(EngineError::InvalidGraph(format!(
                        "task '{}' references unknown bag {b}",
                        t.name
                    )));
                }
            }
            for &b in &t.inputs {
                if self.bags[b].consumer.is_some() {
                    return Err(EngineError::InvalidGraph(format!(
                        "bag '{}' has two consumers",
                        self.bags[b].name
                    )));
                }
                self.bags[b].consumer = Some(tid);
            }
            for &b in &t.outputs {
                if self.bags[b].kind == BagKind::Source {
                    return Err(EngineError::InvalidGraph(format!(
                        "task '{}' writes to source bag '{}'",
                        t.name, self.bags[b].name
                    )));
                }
                if self.bags[b].producer.is_some() {
                    return Err(EngineError::InvalidGraph(format!(
                        "bag '{}' has two producers",
                        self.bags[b].name
                    )));
                }
                self.bags[b].producer = Some(tid);
            }
        }
        for b in &self.bags {
            if b.kind == BagKind::Internal && b.producer.is_none() {
                return Err(EngineError::InvalidGraph(format!(
                    "internal bag '{}' has no producer and can never seal",
                    b.name
                )));
            }
        }
        // Cycle check: topological walk over task→task edges through bags.
        let ntasks = self.tasks.len();
        let mut indegree = vec![0usize; ntasks];
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); ntasks];
        for (i, t) in self.tasks.iter().enumerate() {
            for &b in &t.inputs {
                if let Some(p) = self.bags[b].producer {
                    successors[p.index()].push(i);
                    indegree[i] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..ntasks).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0;
        while let Some(i) = queue.pop() {
            visited += 1;
            for &s in &successors[i] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push(s);
                }
            }
        }
        if visited != ntasks {
            return Err(EngineError::InvalidGraph(
                "the task graph contains a cycle".into(),
            ));
        }
        Ok(AppGraph {
            bags: self.bags,
            tasks: self.tasks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskCtx;

    fn noop(_ctx: &mut TaskCtx) -> Result<(), EngineError> {
        Ok(())
    }

    #[test]
    fn clicklog_shape_builds() {
        // The paper's Figure 1 topology with three regions.
        let mut g = GraphBuilder::new();
        let input = g.source("clicklog.txt");
        let regions: Vec<GraphBag> = (0..3).map(|i| g.bag(format!("region.{i}"))).collect();
        g.task("phase1", &[input], &regions, noop);
        let mut counts = Vec::new();
        for (i, &r) in regions.iter().enumerate() {
            let distinct = g.bag(format!("distinct.{i}"));
            g.task_with_merge(
                format!("phase2.{i}"),
                &[r],
                &[distinct],
                noop,
                |_o: usize,
                 _p: &mut [crate::task::BagReader],
                 _out: &mut crate::task::BagWriter| Ok(()),
            );
            let count = g.bag(format!("count.{i}"));
            g.task(format!("phase3.{i}"), &[distinct], &[count], noop);
            counts.push(count);
        }
        let graph = g.build().unwrap();
        assert_eq!(graph.num_tasks(), 7);
        assert_eq!(graph.num_bags(), 10);
        assert_eq!(graph.sources().len(), 1);
        assert_eq!(graph.sinks().len(), 3);
        assert!(graph.task(TaskId(1)).merge.is_some());
        assert!(graph.task(TaskId(0)).merge.is_none());
        assert_eq!(graph.task_by_name("phase1"), Some(TaskId(0)));
    }

    #[test]
    fn rejects_double_consumer() {
        let mut g = GraphBuilder::new();
        let s = g.source("in");
        let o1 = g.bag("o1");
        let o2 = g.bag("o2");
        g.task("a", &[s], &[o1], noop);
        g.task("b", &[s], &[o2], noop);
        assert!(matches!(g.build(), Err(EngineError::InvalidGraph(_))));
    }

    #[test]
    fn rejects_double_producer() {
        let mut g = GraphBuilder::new();
        let s1 = g.source("in1");
        let s2 = g.source("in2");
        let o = g.bag("o");
        g.task("a", &[s1], &[o], noop);
        g.task("b", &[s2], &[o], noop);
        assert!(matches!(g.build(), Err(EngineError::InvalidGraph(_))));
    }

    #[test]
    fn rejects_writing_to_source() {
        let mut g = GraphBuilder::new();
        let s1 = g.source("in");
        let s2 = g.source("other");
        g.task("a", &[s1], &[s2], noop);
        assert!(matches!(g.build(), Err(EngineError::InvalidGraph(_))));
    }

    #[test]
    fn rejects_orphan_internal_bag() {
        let mut g = GraphBuilder::new();
        let s = g.source("in");
        let orphan = g.bag("orphan");
        let o = g.bag("o");
        g.task("a", &[s, orphan], &[o], noop);
        assert!(matches!(g.build(), Err(EngineError::InvalidGraph(_))));
    }

    #[test]
    fn rejects_cycle() {
        let mut g = GraphBuilder::new();
        let a = g.bag("a");
        let b = g.bag("b");
        g.task("t1", &[a], &[b], noop);
        g.task("t2", &[b], &[a], noop);
        assert!(matches!(g.build(), Err(EngineError::InvalidGraph(_))));
    }

    #[test]
    fn rejects_io_less_tasks() {
        let mut g = GraphBuilder::new();
        let s = g.source("in");
        g.task("no-out", &[s], &[], noop);
        assert!(matches!(g.build(), Err(EngineError::InvalidGraph(_))));

        let mut g = GraphBuilder::new();
        let o = g.bag("o");
        g.task("no-in", &[], &[o], noop);
        assert!(matches!(g.build(), Err(EngineError::InvalidGraph(_))));
    }

    #[test]
    fn diamond_is_acyclic() {
        let mut g = GraphBuilder::new();
        let s = g.source("in");
        let l = g.bag("l");
        let r = g.bag("r");
        let l2 = g.bag("l2");
        let r2 = g.bag("r2");
        let out = g.bag("out");
        g.task("split", &[s], &[l, r], noop);
        g.task("left", &[l], &[l2], noop);
        g.task("right", &[r], &[r2], noop);
        g.task("join", &[l2, r2], &[out], noop);
        let graph = g.build().unwrap();
        assert_eq!(graph.num_tasks(), 4);
        assert_eq!(graph.sinks(), vec![GraphBag(5)]);
    }
}
