"""Parallel-execution substrate: chunk scheduling, sweep executors for
independent-source fan-outs, and the level-synchronous cost model behind
the thread-scaling study (paper Figure 7). See DESIGN.md §2 for why thread
scaling is modeled from measured traces rather than timed directly on
this single-core machine.
"""

from repro.parallel.chunking import (
    ChunkAssignment,
    assign_round_robin,
    chunk_bounds,
    thread_work,
)
from repro.parallel.costmodel import CostModelParams, LevelSynchronousCostModel
from repro.parallel.scaling import (
    PAPER_THREAD_COUNTS,
    MeasuredPoint,
    ScalingPoint,
    ScalingStudy,
)
from repro.parallel.shm import SharedCSR, shm_available
from repro.parallel.sweep import (
    BitparallelSweepExecutor,
    ExecutorCounters,
    MultiprocessSweepExecutor,
    SerialSweepExecutor,
    SweepExecutor,
    SweepInfo,
    create_executor,
    process_map,
)

__all__ = [
    "BitparallelSweepExecutor",
    "ChunkAssignment",
    "CostModelParams",
    "ExecutorCounters",
    "LevelSynchronousCostModel",
    "MeasuredPoint",
    "MultiprocessSweepExecutor",
    "PAPER_THREAD_COUNTS",
    "ScalingPoint",
    "ScalingStudy",
    "SerialSweepExecutor",
    "SharedCSR",
    "SweepExecutor",
    "SweepInfo",
    "assign_round_robin",
    "chunk_bounds",
    "create_executor",
    "process_map",
    "shm_available",
    "thread_work",
]
