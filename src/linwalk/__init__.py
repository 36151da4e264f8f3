"""Linear three-pendulum walking model.

Exact phase and stride transition maps for a walker made of three point
masses on constant-height planes (stance leg, swing leg, torso) joined by
a finite-width pelvis; null-space search for symmetric periodic gaits;
scenario-constrained gait optimization; and walking-economy surfaces over
speed and step frequency.
"""

__version__ = "0.1.0"

from .layout import Q_NAMES, pack_state, selection_matrices
from .model import (
    BodyParams, StrideTiming, default_params, geometry, load_config, scaled_body,
)
from .dynamics import (
    ForceSolution, PhaseODE, assemble_double_support, assemble_single_support,
    map_forces, solve_forces,
)
from .transition import StrideMaps, dump_stride_maps, stride_maps
from .gaits import (
    GaitSolution, PeriodicitySystem, build_periodicity, cop_ramp_torque,
    find_relax_time, null_basis, scenario, singular_spectrum, synthesize_gait,
)
from .analysis import (
    EconomyGrid, TdsPolicy, com_work_per_distance, economy_surface, peak_line,
    sample_trajectory,
)
from .oracle import OracleConfig, Push, integrate, integrate_batch

__all__ = [
    "Q_NAMES", "pack_state", "selection_matrices", "BodyParams", "StrideTiming", "default_params", "geometry", "load_config",
    "scaled_body", "ForceSolution", "PhaseODE", "assemble_double_support",
    "assemble_single_support", "map_forces", "solve_forces", "StrideMaps", "dump_stride_maps",
    "stride_maps", "GaitSolution", "PeriodicitySystem", "build_periodicity",
    "cop_ramp_torque", "find_relax_time", "null_basis", "scenario",
    "singular_spectrum", "synthesize_gait", "EconomyGrid", "TdsPolicy",
    "com_work_per_distance", "economy_surface", "peak_line",
    "sample_trajectory", "OracleConfig", "Push", "integrate", "integrate_batch",
]
