"""Static RNG stream-discipline checks for campaigns and jobs.

Reproducibility at fleet scale rests on a seeding discipline: every
random draw comes from a substream derived from the campaign's base seed
through a distinct spawn key (``np.random.default_rng([seed, TAG,
...])``), so no two consumers ever share a generator. That rule lived in
docstrings and in tests that run campaigns; this pass checks it
statically.

* :func:`derive_stream_keys` — walk every seeded substream derivation a
  :class:`~repro.fleet.service.FleetSpec` or
  :class:`~repro.engine.spec.JobSpec` performs: the campaign traffic
  stream (``TRAFFIC_STREAM``), the per-array endurance budget streams
  (``BUDGET_STREAM``), and the kernel/permutation base stream of a
  simulation job.
* :func:`check_stream_keys` — flag any spawn-key collision or reuse
  across the derived consumers (``RPR015``).
* :func:`check_streams` — the spec-level composition of the two.

Cohort-calibration simulations each own an isolated generator universe
(``default_rng(seed)`` inside one process), so sharing the base seed
across cohorts is not a collision — collisions only matter between
consumers of the *campaign's* shared stream space.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.verify.diagnostics import Diagnostic, Location, Severity

__all__ = [
    "check_stream_keys",
    "check_streams",
    "derive_stream_keys",
]

#: A derived substream: ``(consumer name, spawn-key tuple)``.
StreamKey = Tuple[str, Tuple[int, ...]]


def derive_stream_keys(spec) -> List[StreamKey]:
    """Every seeded substream derivation a spec performs, as named keys.

    For a fleet spec (anything with ``population`` and ``traffic``):
    the arrival-process stream ``(seed, TRAFFIC_STREAM)`` and — when
    per-cell endurance variation is on — one budget stream
    ``(seed, BUDGET_STREAM, array)`` per array. For a simulation job
    spec (anything with ``workload`` and ``seed``): the single
    kernel/permutation base stream ``(seed,)`` its simulator owns.
    """
    keys: List[StreamKey] = []
    if hasattr(spec, "population") and hasattr(spec, "traffic"):
        from repro.fleet.population import BUDGET_STREAM, TRAFFIC_STREAM

        seed = int(spec.seed)
        keys.append(("traffic", (seed, TRAFFIC_STREAM)))
        if spec.population.endurance_sigma > 0:
            for array in range(spec.population.n_arrays):
                keys.append(
                    (f"budget[{array}]", (seed, BUDGET_STREAM, array))
                )
        return keys
    if hasattr(spec, "workload") and hasattr(spec, "seed"):
        keys.append(("simulation", (int(spec.seed),)))
        return keys
    raise TypeError(
        f"cannot derive stream keys from {type(spec).__name__}; expected "
        "a fleet spec or a job spec"
    )


def check_stream_keys(keys: Sequence[StreamKey]) -> List[Diagnostic]:
    """RPR015: spawn keys must be pairwise distinct across consumers.

    Two consumers deriving the same key would draw from identical bit
    streams — correlated "independent" randomness, the classic silent
    seeding bug. Reuse of one key by the same consumer name (listed
    twice) is flagged too: a stream may only be instantiated once per
    campaign or its draws interleave unpredictably.
    """
    diagnostics: List[Diagnostic] = []
    seen: Dict[Tuple[int, ...], str] = {}
    for name, key in keys:
        key = tuple(int(part) for part in key)
        owner = seen.get(key)
        if owner is None:
            seen[key] = name
            continue
        kind = "reused by" if owner == name else "collides with"
        diagnostics.append(
            Diagnostic(
                "RPR015",
                Severity.ERROR,
                f"substream key {key} of {owner!r} {kind} {name!r}",
                Location(place=f"stream {name!r}"),
                hint="derive every consumer's stream from a distinct "
                "spawn-key tuple",
            )
        )
    return diagnostics


def check_streams(spec) -> List[Diagnostic]:
    """The spec-level stream pass: key discipline (RPR015).

    Composes :func:`check_stream_keys` over
    :func:`derive_stream_keys` with — for fleet specs — a sanity check
    that the stream *tags* themselves are distinct.
    """
    diagnostics = check_stream_keys(derive_stream_keys(spec))
    if hasattr(spec, "population") and hasattr(spec, "traffic"):
        from repro.fleet.population import BUDGET_STREAM, TRAFFIC_STREAM

        if BUDGET_STREAM == TRAFFIC_STREAM:
            diagnostics.append(
                Diagnostic(
                    "RPR015",
                    Severity.ERROR,
                    "BUDGET_STREAM and TRAFFIC_STREAM share one tag value",
                    Location(place="stream tags"),
                    hint="spawn-key tags must be pairwise distinct",
                )
            )
    return diagnostics
