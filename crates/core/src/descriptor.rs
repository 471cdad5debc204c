//! Wire records for the scheduling plane.
//!
//! Three record kinds flow through the work bags (paper §4.1):
//!
//! * [`Descriptor`] — an executable unit placed in the *ready* bag: either
//!   a task instance (original or clone) or a merge. The descriptor is the
//!   "task blueprint reference": it carries the task id plus the concrete
//!   input/output bag ids for this instance (clones of merge-bearing tasks
//!   write to per-instance partial bags).
//! * [`RunningRecord`] — appended to the *running* bag when a compute node
//!   claims a descriptor; scanned during compute-node failure recovery,
//!   which needs only which unit runs where.
//! * [`DoneRecord`] — appended to the *done* bag when a worker finishes;
//!   consumed by the master to drive the execution graph and replayed
//!   wholesale on master recovery.
//!
//! There is no schedule log: `Master::recover` rebuilds clone counts,
//! partial-bag allocations and generations from the ready bag's full
//! history (every descriptor ever scheduled) and the done bag.
//!
//! Each record encodes as the tuple of its fields, in declaration order
//! (a tuple's encoding is its fields' encodings concatenated), and
//! decodes as that tuple.

use hurricane_common::TaskInstanceId;
use hurricane_format::{CodecError, Record};

/// Descriptor kind: a regular task instance.
pub const KIND_TASK: u8 = 0;
/// Descriptor kind: a merge reconciling clone partials.
pub const KIND_MERGE: u8 = 1;

/// One schedulable unit in the ready bag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Descriptor {
    /// [`KIND_TASK`] or [`KIND_MERGE`].
    pub kind: u8,
    /// Packed [`TaskInstanceId`] (merges use clone index 0).
    pub instance: u64,
    /// Task generation; bumped by failure restarts.
    pub generation: u32,
    /// Task: input bag ids. Merge: flattened per-instance partial bag ids,
    /// laid out `[instance][output]` with stride `outputs.len()`.
    pub inputs: Vec<u64>,
    /// Output bag ids this unit writes (a clone's partials, or the task's
    /// real outputs).
    pub outputs: Vec<u64>,
}

impl Descriptor {
    /// The task instance this descriptor executes.
    pub fn instance_id(&self) -> TaskInstanceId {
        TaskInstanceId::unpack(self.instance)
    }
}

impl Record for Descriptor {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode(out);
        self.instance.encode(out);
        self.generation.encode(out);
        self.inputs.encode(out);
        self.outputs.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (kind, instance, generation, inputs, outputs) =
            <(u8, u64, u32, Vec<u64>, Vec<u64>)>::decode(input)?;
        Ok(Self {
            kind,
            instance,
            generation,
            inputs,
            outputs,
        })
    }
}

/// A claim notice in the running bag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunningRecord {
    /// [`KIND_TASK`] or [`KIND_MERGE`].
    pub kind: u8,
    /// Packed instance id.
    pub instance: u64,
    /// Generation being executed.
    pub generation: u32,
    /// Compute node executing the unit.
    pub node: u32,
}

impl Record for RunningRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.kind, self.instance, self.generation, self.node).encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (kind, instance, generation, node) = <(u8, u64, u32, u32)>::decode(input)?;
        Ok(Self {
            kind,
            instance,
            generation,
            node,
        })
    }
}

/// A completion notice in the done bag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoneRecord {
    /// [`KIND_TASK`] or [`KIND_MERGE`].
    pub kind: u8,
    /// Packed instance id.
    pub instance: u64,
    /// Generation that completed.
    pub generation: u32,
    /// Node that executed the unit.
    pub node: u32,
    /// The unit's output bag ids, echoed from its descriptor so a
    /// recovered master learns partial bags it never saw scheduled.
    pub outputs: Vec<u64>,
    /// Microseconds the unit ran, claim to completion. For a merge this
    /// is what reconciling its partials cost: the master's measured
    /// `reconcile` term of Eq. 2 (see [`crate::heuristic`]).
    pub elapsed_us: u64,
}

impl Record for DoneRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.kind.encode(out);
        self.instance.encode(out);
        self.generation.encode(out);
        self.node.encode(out);
        self.outputs.encode(out);
        self.elapsed_us.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let (kind, instance, generation, node, outputs, elapsed_us) =
            <(u8, u64, u32, u32, Vec<u64>, u64)>::decode(input)?;
        Ok(Self {
            kind,
            instance,
            generation,
            node,
            outputs,
            elapsed_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hurricane_common::TaskId;

    /// `v` encodes as `fields`, the tuple of its fields, and decodes
    /// back to itself.
    fn roundtrip<T: Record + PartialEq + std::fmt::Debug>(v: T, fields: impl Record) {
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut tuple = Vec::new();
        fields.encode(&mut tuple);
        assert_eq!(buf, tuple);
        let mut s = buf.as_slice();
        assert_eq!(T::decode(&mut s).unwrap(), v);
        assert!(s.is_empty());
    }

    #[test]
    fn descriptor_roundtrip() {
        let instance = TaskInstanceId::clone_of(TaskId(3), 2).pack();
        roundtrip(
            Descriptor {
                kind: KIND_MERGE,
                instance,
                generation: 1,
                inputs: vec![10, 11, 12],
                outputs: vec![4],
            },
            (KIND_MERGE, instance, 1u32, vec![10u64, 11, 12], vec![4u64]),
        );
    }

    #[test]
    fn running_roundtrip() {
        roundtrip(
            RunningRecord {
                kind: KIND_TASK,
                instance: 77,
                generation: 0,
                node: 3,
            },
            (KIND_TASK, 77u64, 0u32, 3u32),
        );
    }

    #[test]
    fn done_roundtrip() {
        roundtrip(
            DoneRecord {
                kind: KIND_TASK,
                instance: 5,
                generation: 2,
                node: 0,
                outputs: vec![9],
                elapsed_us: 14_250,
            },
            (KIND_TASK, 5u64, 2u32, 0u32, vec![9u64], 14_250u64),
        );
    }

    #[test]
    fn descriptor_instance_unpacks() {
        let d = Descriptor {
            kind: KIND_TASK,
            instance: TaskInstanceId::clone_of(TaskId(8), 5).pack(),
            generation: 0,
            inputs: vec![],
            outputs: vec![],
        };
        assert_eq!(d.instance_id().task, TaskId(8));
        assert_eq!(d.instance_id().clone.0, 5);
    }
}
