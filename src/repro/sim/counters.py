"""Synthetic performance-monitoring unit (the gem5 stats substitute).

The paper's speedup model (Table 2) is built offline: run every benchmark
in single-program mode on all-big and all-little machines, record **all 225
gem5 performance counters** of the big cores plus the measured relative
speedup, select the six most informative counters with PCA, normalise them
by committed instructions, and fit a linear regression.

We reproduce that pipeline end to end, which requires a counter substrate
with the same statistical shape:

* every thread has a latent :class:`MicroArchProfile` -- ILP, branchiness,
  store-queue pressure, memory-boundedness, frontend stalls, quiesce
  tendency -- from which its *ground-truth* big-vs-little speedup is a
  fixed function (:meth:`MicroArchProfile.speedup`);
* the seven counters of the paper's Table 2 accumulate during execution at
  rates driven by that profile (with multiplicative noise), so they carry a
  learnable speedup signal;
* :func:`wide_vector` expands a snapshot to the full 225-counter vector by
  adding distractor counters (noise plus mild instruction-count coupling),
  so the PCA selection stage has real work to do.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError

# ---------------------------------------------------------------------------
# Table 2: the counters the paper's PCA selects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CounterSpec:
    """One row of the paper's Table 2 counter list."""

    index: str
    name: str
    description: str


#: The seven counters of Table 2 (A-F are model inputs, G the normaliser).
COUNTER_TABLE: tuple[CounterSpec, ...] = (
    CounterSpec("A", "fp_regfile_writes", "# integer regfile writes"),
    CounterSpec("B", "fetch.Branches", "# branches encountered"),
    CounterSpec("C", "rename.SQFullEvents", "SQ-full blocks"),
    CounterSpec("D", "quiesceCycles", "interrupt waiting cycles"),
    CounterSpec("E", "dcache.tags.tagsinuse", "tags of dcache in use"),
    CounterSpec("F", "fetch.IcacheWaitRetryStallCycles", "MSHR-full stall cycles"),
    CounterSpec("G", "commit.committedInsts", "instructions committed"),
)

#: Names of the informative counters, in Table 2 order.
INFORMATIVE_NAMES: tuple[str, ...] = tuple(s.name for s in COUNTER_TABLE)

#: Committed instructions per work unit (1 work unit = 1 big-core ms at an
#: assumed ~1.5 IPC x 2 GHz, scaled down; absolute value is arbitrary, only
#: ratios matter to the model).
INSTRUCTIONS_PER_WORK = 3.0e6

#: Total width of the synthetic counter vector (matches the 225 gem5 stats
#: the paper records before PCA).
WIDE_VECTOR_SIZE = 225


def counter_names() -> list[str]:
    """Names of all :data:`WIDE_VECTOR_SIZE` synthetic counters."""
    names = list(INFORMATIVE_NAMES)
    names += [f"distractor.{i:03d}" for i in range(WIDE_VECTOR_SIZE - len(names))]
    return names


# ---------------------------------------------------------------------------
# Latent micro-architectural profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MicroArchProfile:
    """Latent thread characteristics in [0, 1] each.

    Attributes:
        ilp: Exploitable instruction-level parallelism; drives the benefit
            of the big core's out-of-order pipeline.
        branchiness: Branch density; mildly correlated with control-heavy
            code that still benefits from the big core's predictor.
        store_pressure: Store-queue occupancy; high values both reflect and
            reward out-of-order buffering.
        mem_bound: Fraction of time stalled on memory; erodes the big
            core's advantage (both cores wait on DRAM at similar speed).
        frontend_stall: Instruction-fetch stall tendency.
        quiesce: Propensity to sit in interrupt-wait (sync-heavy threads).
    """

    ilp: float
    branchiness: float
    store_pressure: float
    mem_bound: float
    frontend_stall: float
    quiesce: float

    def __post_init__(self) -> None:
        for name in (
            "ilp",
            "branchiness",
            "store_pressure",
            "mem_bound",
            "frontend_stall",
            "quiesce",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"profile field {name}={value} outside [0,1]")

    def speedup(self) -> float:
        """Ground-truth big-vs-little speedup of this profile.

        The functional form composes the 2.0/1.2 GHz frequency ratio with
        an out-of-order benefit that grows with ILP and store pressure and
        shrinks with memory- and frontend-boundedness.  The result is
        clipped to [1.0, 2.9] -- big cores are never slower, and 2.9x is
        roughly the A57-vs-A53 ceiling reported for compute-bound kernels.
        """
        freq_ratio = 2.0 / 1.2
        ooo_benefit = 1.0 + 0.55 * self.ilp + 0.15 * self.store_pressure
        erosion = 1.0 + 0.85 * self.mem_bound + 0.25 * self.frontend_stall
        return float(np.clip(freq_ratio * ooo_benefit / erosion, 1.0, 2.9))


def profile_from_traits(
    compute_intensity: float,
    memory_intensity: float,
    sync_intensity: float,
    rng: np.random.Generator,
    jitter: float = 0.08,
) -> MicroArchProfile:
    """Derive a latent profile from benchmark-level traits.

    Args:
        compute_intensity: 0..1, how compute-bound (drives ILP).
        memory_intensity: 0..1, how memory-bound (erodes speedup).
        sync_intensity: 0..1, how synchronisation-heavy (drives quiesce).
        rng: Source of per-thread jitter, so threads of one benchmark are
            similar but not identical.
        jitter: Standard deviation of the additive per-field noise.
    """

    def clamped(base: float) -> float:
        return float(np.clip(base + rng.normal(0.0, jitter), 0.0, 1.0))

    return MicroArchProfile(
        ilp=clamped(0.15 + 0.75 * compute_intensity),
        branchiness=clamped(0.2 + 0.4 * compute_intensity * (1 - memory_intensity)),
        store_pressure=clamped(0.1 + 0.5 * compute_intensity),
        mem_bound=clamped(0.08 + 0.8 * memory_intensity),
        frontend_stall=clamped(0.1 + 0.35 * memory_intensity),
        quiesce=clamped(0.05 + 0.85 * sync_intensity),
    )


# ---------------------------------------------------------------------------
# Per-task counter accumulation
# ---------------------------------------------------------------------------


#: Counters bumped by :meth:`PerformanceCounters.record_compute`, in the
#: order their noise factors are drawn from the RNG stream.
_COMPUTE_NOISY_NAMES: tuple[str, ...] = (
    "fp_regfile_writes",
    "fetch.Branches",
    "rename.SQFullEvents",
    "dcache.tags.tagsinuse",
    "fetch.IcacheWaitRetryStallCycles",
)

#: Noise factors the hot path draws per ``Generator.normal`` call: eight
#: :meth:`PerformanceCounters.record_compute` calls' worth.  Kept small,
#: and packed as float64 (440 bytes, against 1.3 KB as a list of floats),
#: because every task object holds its block for as long as it lives.
_NOISE_BLOCK = 40


@dataclass
class PerformanceCounters:
    """Accumulating PMU state of one task.

    Two accumulator sets are kept: lifetime totals (training) and a window
    that the 10 ms labeler reads and resets (online prediction).

    When ``hotpath`` is set, :meth:`record_compute` takes its five noise
    factors from a block of :data:`_NOISE_BLOCK` drawn by one
    ``Generator.normal`` call, refilled when fewer than five remain,
    instead of making five scalar calls.  numpy's Generator fills
    ``normal(size=N)`` element by element from the same bit-stream, so
    the values are those the scalar calls would draw, in the same order.
    That makes every counter bit-identical provided ``rng`` has no other
    consumer, since the block draws ahead of use: the machine seeds one
    generator per task for its counters alone, and nothing but
    :meth:`record_compute` draws from it.  The block amortises numpy's
    per-call dispatch overhead on the simulator's hottest accounting
    site.
    """

    profile: MicroArchProfile
    rng: np.random.Generator
    totals: dict[str, float] = field(default_factory=dict)
    window: dict[str, float] = field(default_factory=dict)
    hotpath: bool = False
    # Per-instruction rates are a fixed function of the (frozen) profile;
    # the hot path computes them once instead of per record_compute call.
    _rates: tuple[float, ...] | None = field(default=None, repr=False)
    # Hot-path noise block and the index of its next unused factor.
    _noise: array = field(default_factory=lambda: array("d"), repr=False)
    _cursor: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        for name in INFORMATIVE_NAMES:
            self.totals.setdefault(name, 0.0)
            self.window.setdefault(name, 0.0)

    # -- accumulation -------------------------------------------------------
    def _bump(self, name: str, amount: float) -> None:
        self.totals[name] += amount
        self.window[name] += amount

    def record_compute(self, work: float, cpu_time: float) -> None:
        """Account ``work`` units retired over ``cpu_time`` ms of execution.

        Counter rates are per-instruction functions of the latent profile
        with ~5% multiplicative noise, so windows are informative but not
        oracle-clean -- the regression model has realistic residuals.
        """
        if work < 0 or cpu_time < 0:
            raise SimulationError(f"negative accounting: work={work} t={cpu_time}")
        if work == 0.0:
            return
        insts = work * INSTRUCTIONS_PER_WORK
        p = self.profile
        if self.hotpath:
            rates = self._rates
            if rates is None:
                rates = self._rates = (
                    0.05 + 0.40 * p.ilp,
                    0.02 + 0.20 * p.branchiness,
                    0.002 + 0.05 * p.store_pressure,
                    0.05 + 0.60 * p.mem_bound,
                    0.005 + 0.12 * p.frontend_stall,
                )
            noise = self._noise
            start = self._cursor
            if start > len(noise) - 5:
                noise = self._noise = array(
                    "d", self.rng.normal(0.0, 0.05, _NOISE_BLOCK).tobytes()
                )
                start = 0
            self._cursor = start + 5
            totals = self.totals
            window = self.window
            totals["commit.committedInsts"] += insts
            window["commit.committedInsts"] += insts
            for name, rate, sample in zip(
                _COMPUTE_NOISY_NAMES, rates, noise[start:start + 5]
            ):
                amount = insts * rate * max(0.0, 1.0 + sample)
                totals[name] += amount
                window[name] += amount
            return

        def noisy(rate: float) -> float:
            return insts * rate * max(0.0, 1.0 + self.rng.normal(0.0, 0.05))

        self._bump("commit.committedInsts", insts)
        self._bump("fp_regfile_writes", noisy(0.05 + 0.40 * p.ilp))
        self._bump("fetch.Branches", noisy(0.02 + 0.20 * p.branchiness))
        self._bump("rename.SQFullEvents", noisy(0.002 + 0.05 * p.store_pressure))
        self._bump("dcache.tags.tagsinuse", noisy(0.05 + 0.60 * p.mem_bound))
        self._bump(
            "fetch.IcacheWaitRetryStallCycles",
            noisy(0.005 + 0.12 * p.frontend_stall),
        )

    def record_wait(self, wait_time: float) -> None:
        """Account blocked time as quiesce (interrupt-wait) cycles."""
        if wait_time < 0:
            raise SimulationError(f"negative wait time {wait_time}")
        # 2 GHz big-core cycles per ms of quiescence, profile-weighted.
        cycles = wait_time * 2.0e6 * (0.5 + 0.5 * self.profile.quiesce)
        self._bump("quiesceCycles", cycles)

    # -- snapshots ------------------------------------------------------------
    def read_window(self, reset: bool = True) -> dict[str, float]:
        """Return the per-window accumulators, optionally resetting them."""
        snapshot = dict(self.window)
        if reset:
            for name in self.window:
                self.window[name] = 0.0
        return snapshot

    def normalized(self, source: dict[str, float] | None = None) -> dict[str, float]:
        """Counters A-F divided by committed instructions (Table 2 form)."""
        values = source if source is not None else self.totals
        insts = values.get("commit.committedInsts", 0.0)
        if insts <= 0.0:
            return {name: 0.0 for name in INFORMATIVE_NAMES[:-1]}
        return {name: values[name] / insts for name in INFORMATIVE_NAMES[:-1]}


def wide_vector(
    informative: dict[str, float], rng: np.random.Generator
) -> np.ndarray:
    """Expand a 7-counter snapshot to the full 225-counter vector.

    The distractor counters are dominated by noise with a mild coupling to
    committed instructions (most real gem5 counters scale with work done
    but carry no extra speedup information), so PCA-based selection must
    genuinely find the informative columns.

    Args:
        informative: Snapshot containing at least the Table 2 counters.
        rng: Noise source for the distractor columns.

    Returns:
        Vector of length :data:`WIDE_VECTOR_SIZE` in :func:`counter_names`
        order.
    """
    insts = max(informative.get("commit.committedInsts", 0.0), 1.0)
    values = [informative[name] for name in INFORMATIVE_NAMES]
    n_distractors = WIDE_VECTOR_SIZE - len(values)
    noise = rng.normal(1.0, 0.35, size=n_distractors)
    distractors = np.abs(insts * _DISTRACTOR_SCALES * noise)
    return np.concatenate([np.asarray(values, dtype=float), distractors])


#: Fixed per-column rates for the distractor counters: like real PMU events,
#: each distractor has a stable characteristic rate across samples (so it is
#: a plausible counter, not obvious garbage) but its per-sample variation is
#: pure noise, uncorrelated with speedup.
_DISTRACTOR_SCALES = np.random.Generator(np.random.PCG64(0x5EED)).uniform(
    0.001, 0.2, size=WIDE_VECTOR_SIZE - len(INFORMATIVE_NAMES)
)
