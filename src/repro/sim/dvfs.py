"""Per-cluster dynamic voltage/frequency scaling (extension).

The paper's motivation is energy-constrained devices, and its related work
(Seeker et al. [25]) studies frequency governors on mobile SoCs.  This
module adds the missing piece to ask DVFS-era questions of the simulator:
per-cluster frequency governors that periodically rescale core speed
based on observed utilisation, exactly like ``cpufreq`` policies govern
big.LITTLE clusters per-cluster (one OPP domain per cluster).

Semantics
---------
A core at frequency scale ``s`` retires work at ``s`` times its nominal
rate.  Governors run every ``period_ms`` per cluster:

* :class:`PerformanceGovernor` -- always the maximum scale;
* :class:`PowersaveGovernor` -- always the minimum scale;
* :class:`OndemandGovernor` -- jump to max when the cluster's busy
  fraction exceeds ``up_threshold``; otherwise decay proportionally to
  utilisation (a simplified ``ondemand``).

Energy under DVFS uses the classic cubic rule: active power at scale
``s`` is ``P_busy * s^3`` (voltage tracks frequency), so downscaling idle
periods buys super-linear energy savings at linear performance cost.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.obs.probe import DECISION
from repro.sim.core import CoreKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.core import Core
    from repro.sim.energy import PowerModel
    from repro.sim.machine import Machine, RunResult


class FrequencyGovernor(abc.ABC):
    """Chooses one frequency scale per cluster per period."""

    #: Lowest scale a governor may request (OPP floor).
    min_scale: float = 0.4

    @abc.abstractmethod
    def choose_scale(self, utilization: float) -> float:
        """Scale in [min_scale, 1.0] for the cluster's busy fraction."""


class PerformanceGovernor(FrequencyGovernor):
    """Pin the cluster at maximum frequency."""

    def choose_scale(self, utilization: float) -> float:
        return 1.0


class PowersaveGovernor(FrequencyGovernor):
    """Pin the cluster at the OPP floor."""

    def choose_scale(self, utilization: float) -> float:
        return self.min_scale


class OndemandGovernor(FrequencyGovernor):
    """Race-to-max above a threshold, scale with load below it."""

    def __init__(self, up_threshold: float = 0.8, min_scale: float = 0.4) -> None:
        if not 0.0 < up_threshold <= 1.0:
            raise SimulationError(f"up_threshold {up_threshold} outside (0,1]")
        if not 0.0 < min_scale <= 1.0:
            raise SimulationError(f"min_scale {min_scale} outside (0,1]")
        self.up_threshold = up_threshold
        self.min_scale = min_scale

    def choose_scale(self, utilization: float) -> float:
        if utilization >= self.up_threshold:
            return 1.0
        return max(self.min_scale, min(1.0, utilization / self.up_threshold))


@dataclass
class DVFSPolicy:
    """Per-cluster governors plus the evaluation period.

    Attach via ``MachineConfig(dvfs=DVFSPolicy(...))``; the machine then
    re-evaluates cluster frequencies every ``period_ms`` of simulated
    time.
    """

    big_governor: FrequencyGovernor = field(default_factory=PerformanceGovernor)
    little_governor: FrequencyGovernor = field(default_factory=PerformanceGovernor)
    period_ms: float = 10.0
    #: Internal: per-core busy-time snapshot at the last evaluation.
    _last_busy: dict[int, float] = field(default_factory=dict)
    _last_time: float = 0.0

    def __post_init__(self) -> None:
        if self.period_ms <= 0:
            raise SimulationError(f"period_ms must be > 0, got {self.period_ms}")

    def governor_for(self, kind: CoreKind) -> FrequencyGovernor:
        return self.big_governor if kind is CoreKind.BIG else self.little_governor

    def apply(self, machine: "Machine", now: float) -> None:
        """Evaluate both clusters and push new frequency scales."""
        window = now - self._last_time
        self._last_time = now
        if window <= 0:
            return
        for cluster in (machine.big_cores, machine.little_cores):
            if not cluster:
                continue
            busy = 0.0
            for core in cluster:
                # Include the in-flight execution since run_started.
                in_flight = now - core.run_started if core.current else 0.0
                total = core.busy_time + max(0.0, in_flight)
                busy += total - self._last_busy.get(core.core_id, 0.0)
                self._last_busy[core.core_id] = total
            utilization = min(1.0, busy / (window * len(cluster)))
            scale = self.governor_for(cluster[0].kind).choose_scale(utilization)
            hook = machine.hooks[DECISION]
            if hook is not None and abs(scale - cluster[0].freq_scale) >= 1e-12:
                hook(DECISION, None, cluster[0].core_id, now, {
                    "op": "dvfs_governor", "cluster": cluster[0].kind_name,
                    "utilization": utilization, "scale": scale,
                    "prev_scale": cluster[0].freq_scale,
                })
            for core in cluster:
                machine.set_core_frequency(core, scale, now)


def energy_of_dvfs(
    result: "RunResult",
    topology,
    model: "PowerModel | None" = None,
) -> float:
    """Total energy (J) of a DVFS run using the cubic active-power rule.

    Requires the run to have recorded per-scale busy residency (the
    machine does so automatically); idle power is charged at the model's
    idle figures independent of scale.
    """
    from repro.sim.energy import PowerModel

    power = model or PowerModel()
    total = 0.0
    for core_id, spec in enumerate(topology.specs):
        residency = result.core_busy_by_scale.get(core_id, {})
        busy_total = sum(residency.values())
        for scale, busy_ms in residency.items():
            total += busy_ms / 1000.0 * power.busy_power(spec.kind) * scale**3
        idle_ms = max(0.0, result.makespan - busy_total)
        total += idle_ms / 1000.0 * power.idle_power(spec.kind)
    return total
