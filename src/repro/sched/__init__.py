"""Schedulers: sequential baseline, RCP, LPFS, hierarchical coarse
scheduling, movement derivation and metrics."""

from .coarse import (
    CoarseResult,
    Placement,
    best_dim,
    coarse_length_profile,
    schedule_coarse,
)
from .comm import CommStats, derive_movement, naive_runtime
from .lpfs import schedule_lpfs
from .metrics import (
    comm_speedup,
    hierarchical_critical_path,
    parallel_speedup,
)
from .rcp import RCPWeights, schedule_rcp
from .replay import ReplayError, ReplayReport, replay_schedule
from .report import (
    compile_result_to_dict,
    render_coarse_gantt,
    profile_table,
    render_timeline,
    schedule_to_dict,
)
from .sequential import schedule_sequential
from .stream import (
    StreamColumns,
    build_columns,
    derive_movement_stream,
    engine_epochs,
    iter_schedule_epochs,
    schedule_columns,
)
from .types import Move, Schedule, ScheduleError

__all__ = [
    "CoarseResult",
    "Placement",
    "CommStats",
    "Move",
    "RCPWeights",
    "ReplayError",
    "ReplayReport",
    "Schedule",
    "StreamColumns",
    "ScheduleError",
    "best_dim",
    "comm_speedup",
    "derive_movement",
    "hierarchical_critical_path",
    "naive_runtime",
    "parallel_speedup",
    "coarse_length_profile",
    "schedule_coarse",
    "schedule_lpfs",
    "schedule_rcp",
    "schedule_sequential",
    "compile_result_to_dict",
    "profile_table",
    "render_coarse_gantt",
    "render_timeline",
    "replay_schedule",
    "schedule_to_dict",
    "build_columns",
    "derive_movement_stream",
    "engine_epochs",
    "iter_schedule_epochs",
    "schedule_columns",
]
