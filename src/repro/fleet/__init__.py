"""Fleet-scale endurance: populations, traffic, survival, campaigns.

The :mod:`repro.fleet` subsystem lifts the paper's single-array lifetime
model (Eq. 4 and the progressive-failure extension in
:mod:`repro.core.failure`) to a *population* of arrays serving
stochastic request traffic — the operational questions a deployment
actually asks: how many of these arrays survive year three, what
replacement rate that implies, and how much capacity headroom an SLO
demands. See ``docs/fleet.md`` for the model and the checkpoint format.
"""

from repro.fleet.checkpoint import CHECKPOINT_VERSION, CheckpointManager
from repro.fleet.population import (
    BUDGET_STREAM,
    TRAFFIC_STREAM,
    CohortSpec,
    Population,
    PopulationSpec,
    interleaved_assignment,
    proportional_counts,
)
from repro.fleet.report import FleetReport, format_report
from repro.fleet.service import (
    DISPATCH_POLICIES,
    FleetService,
    FleetSpec,
    run_campaign,
)
from repro.fleet.survival import (
    SurvivalCurve,
    annual_replacement_rate,
    binomial_tail,
    canonical_hash,
    capacity_headroom,
    kaplan_meier,
    required_fleet_size,
)
from repro.fleet.traffic import (
    TRAFFIC_MODELS,
    TrafficSpec,
    TrafficState,
    capacity_iterations,
    draw_day,
    split_requests,
)

__all__ = [
    "BUDGET_STREAM",
    "CHECKPOINT_VERSION",
    "CheckpointManager",
    "CohortSpec",
    "DISPATCH_POLICIES",
    "FleetReport",
    "FleetService",
    "FleetSpec",
    "Population",
    "PopulationSpec",
    "SurvivalCurve",
    "TRAFFIC_MODELS",
    "TRAFFIC_STREAM",
    "TrafficSpec",
    "TrafficState",
    "annual_replacement_rate",
    "binomial_tail",
    "canonical_hash",
    "capacity_headroom",
    "capacity_iterations",
    "draw_day",
    "format_report",
    "interleaved_assignment",
    "kaplan_meier",
    "proportional_counts",
    "required_fleet_size",
    "run_campaign",
    "split_requests",
]
