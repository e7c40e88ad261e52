"""Fleet-scale endurance: populations, traffic, survival, campaigns.

The :mod:`repro.fleet` subsystem lifts the paper's single-array lifetime
model (Eq. 4 and the progressive-failure extension in
:mod:`repro.core.failure`) to a *population* of arrays serving
stochastic request traffic — the operational questions a deployment
actually asks: how many of these arrays survive year three, what
replacement rate that implies, and how much capacity headroom an SLO
demands. See ``docs/fleet.md`` for the model and the checkpoint format.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "BUDGET_STREAM": "repro.fleet.population",
        "CohortSpec": "repro.fleet.population",
        "Population": "repro.fleet.population",
        "PopulationSpec": "repro.fleet.population",
        "TRAFFIC_STREAM": "repro.fleet.population",
        "interleaved_assignment": "repro.fleet.population",
        "proportional_counts": "repro.fleet.population",
        "CHECKPOINT_VERSION": "repro.fleet.checkpoint",
        "CheckpointManager": "repro.fleet.checkpoint",
        "DISPATCH_POLICIES": "repro.fleet.service",
        "FleetService": "repro.fleet.service",
        "FleetSpec": "repro.fleet.service",
        "run_campaign": "repro.fleet.service",
        "FleetReport": "repro.fleet.report",
        "format_report": "repro.fleet.report",
        "SurvivalCurve": "repro.fleet.survival",
        "annual_replacement_rate": "repro.fleet.survival",
        "binomial_tail": "repro.fleet.survival",
        "canonical_hash": "repro.fleet.survival",
        "capacity_headroom": "repro.fleet.survival",
        "kaplan_meier": "repro.fleet.survival",
        "required_fleet_size": "repro.fleet.survival",
        "TRAFFIC_MODELS": "repro.fleet.traffic",
        "TrafficSpec": "repro.fleet.traffic",
        "TrafficState": "repro.fleet.traffic",
        "capacity_iterations": "repro.fleet.traffic",
        "draw_day": "repro.fleet.traffic",
        "split_requests": "repro.fleet.traffic",
    },
)
