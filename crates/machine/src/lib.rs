//! Closed-loop full-system multicore simulator.
//!
//! This is the measurement substrate of the reproduction: where the ICPP'11
//! paper runs NPB/PARSEC programs on three physical machines and reads
//! hardware counters, we run workload op streams through this simulator and
//! read its counters. The design goal is that *contention emerges
//! mechanically* — cores with bounded memory-level parallelism stall on
//! cache misses, misses queue at FCFS memory controllers with bank/row
//! timing, remote NUMA requests pay interconnect hops — so that the paper's
//! analytical M/M/1 model is genuinely validated against an independent
//! mechanism, not against itself (DESIGN.md §4).
//!
//! Execution model, mirroring the paper's experimental protocol (§III-A):
//!
//! * a program is partitioned into a **fixed number of threads** (one per
//!   machine core, like the paper's OpenMP runs);
//! * the number of **active cores** varies from 1 to the machine maximum
//!   under a fill-processor-first policy; threads are pinned round-robin
//!   (`sched_setaffinity`), so fewer cores means time-sliced
//!   oversubscription;
//! * each thread executes a stream of [`ops::Op`]s: compute phases, memory
//!   accesses (cache-line granularity) and barriers;
//! * an access walks the cache hierarchy; an LLC miss issues an off-chip
//!   request to the line's home controller (first-touch page placement,
//!   like Linux/numactl), paying interconnect hops when remote;
//! * a core stalls when its current thread waits on outstanding fills; up
//!   to an MSHR-bounded cluster of independent misses overlaps.
//!
//! Counter semantics follow the paper: `total_cycles` = active cores ×
//! makespan (the sum PAPI would report across pinned cores), `work_cycles`
//! = executed compute (constant in the core count by construction — the
//! paper's observation 3), `stall_cycles` = total − work.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod counters;
pub mod firsttouch;
pub mod ops;
pub mod sim;

pub use config::{ConfigError, McScheduler, MemoryPolicy, SimConfig};
pub use counters::{Counters, RunReport, WindowSampler};
pub use firsttouch::FirstTouch;
pub use ops::{Op, ProgramIter, Workload};
pub use sim::{run, try_run_bounded, LaneRunner, RunError};
