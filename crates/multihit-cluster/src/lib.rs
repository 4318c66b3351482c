//! # multihit-cluster
//!
//! The Summit-like cluster substrate: the paper scales the multi-hit search
//! across up to 1000 nodes / 6000 V100s with MPI; this crate substitutes an
//! in-process message-passing runtime ([`comm`]), the ED / EA workload
//! schedulers ([`sched`], §III-C — including the `O(G)` level-based
//! equi-area scheduler), the cluster topology ([`topology`]), the functional
//! distributed greedy driver ([`driver`]), and its modeled (paper-scale)
//! twin with the α–β interconnect model and the scaling-efficiency
//! arithmetic ([`timing`]).
//!
//! Functional runs use real rank threads that really score their slabs;
//! tests pin their combinations to the single-process reference. Modeled
//! runs price the identical schedule with the cost model so the paper's
//! 100–1000-node sweeps regenerate in milliseconds.

pub mod checkpoint;
pub mod comm;
pub mod des;
pub mod driver;
pub mod fault;
pub mod sched;
pub mod sched_weighted;
pub mod timing;
pub mod topology;

pub use checkpoint::CheckpointStore;
pub use comm::{run_ranks, FtCtx, FtStats, RankCtx};
pub use driver::{
    distributed_discover4, distributed_discover4_ft, DistributedConfig, FtDistResult,
    RecoveryStats, SchedulerKind,
};
pub use fault::{FaultPlan, FaultSpec, FaultState, FtParams};
pub use sched::{
    rebalance_join, schedule_ea_fast, schedule_ed, validate_cover, validate_partitions, Partition,
    SchedError, SlabMove,
};
pub use timing::{
    model_run, model_run_faulty, CommModel, FailureModel, FailureOverhead, FaultyModeledRun,
    ModelConfig, ModeledRun,
};
pub use topology::ClusterShape;
