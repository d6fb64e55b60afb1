"""Regulated state synchronization of saturated linear multi-agent systems."""

from .model import (
    AgentModel,
    AssumptionReport,
    check_assumption,
    saturate,
    triple_integrator,
)
from .graph import (
    ExpandedLaplacian,
    Network,
    expanded_laplacian,
    in_rooted_family,
    laplacian,
    random_rooted_network,
    target_dynamics_stable,
)
from .riccati import (
    RiccatiSolution,
    design_observer_gain,
    is_hurwitz,
    solve_lowgain_are,
    solve_scheduled_are,
)
from .scheduling import (
    CompactSetSpec,
    PCache,
    SelectionReport,
    epsilon_of_state,
    select_semiglobal_epsilon,
)
from .protocols import (
    ClosedLoopField,
    ProtocolKind,
    StateLayout,
    global_full,
    global_partial,
    semiglobal_full,
    semiglobal_partial,
)
from .sim import (
    SyncMetrics,
    Trajectory,
    integrate,
    saturation_events,
    sync_metrics,
)
from .cli_io import (
    RunReport,
    Scenario,
    bundled_scenario,
    load_scenario,
    reproduce,
    run_protocol,
    write_trajectory_csv,
)

__version__ = "0.1.0"
