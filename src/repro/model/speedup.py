"""Online speedup estimation used by WASH and COLAB at runtime.

Every labeling period (10 ms) the scheduler reads each thread's counter
window, normalises the informative counters by committed instructions, and
asks a :class:`SpeedupEstimator` for the thread's predicted big-vs-little
speedup.  Predictions are smoothed with an exponential moving average so a
single noisy window does not flip a thread's label.

Two estimators are provided:

* :class:`LearnedSpeedupModel` -- the paper-faithful one: a linear model
  over PCA-selected counters produced by :func:`repro.model.training.train_speedup_model`;
* :class:`OracleSpeedupModel` -- reads the simulator's ground truth;
  used by the model ablation (how much does prediction error cost?) and by
  fast unit tests.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ModelError
from repro.model.regression import LinearRegression

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.task import Task

#: Predictions are clipped to the physical speedup range of the modelled
#: A57-vs-A53 pair (big cores are never slower; ~2.9x is the ceiling).
SPEEDUP_MIN = 1.0
SPEEDUP_MAX = 2.9

#: Ignore windows with fewer committed instructions than this: the thread
#: barely ran, so its counter ratios are noise.
MIN_WINDOW_INSTRUCTIONS = 1e4


class PredictionCache:
    """Memo for per-(task, core-kind) model-derived scheduling values.

    Model predictions only change at labeling ticks (every 10 ms the
    labeler refreshes ``predicted_speedup`` via the EMA), yet the charge
    and slice paths re-derive prediction-dependent values on every
    accounting step in between.  This cache holds those values constant
    between ticks; the owner must call :meth:`bump` whenever labels are
    refreshed, which makes cached reads bit-identical to recomputation.

    Keys are ``(tid, is_big)`` so a task migrating between clusters never
    reads the other kind's value.
    """

    __slots__ = ("_cache", "generation", "hits", "misses")

    def __init__(self) -> None:
        self._cache: dict[tuple[int, bool], float] = {}
        #: Number of invalidations (label passes) observed.
        self.generation = 0
        self.hits = 0
        self.misses = 0

    def get(self, tid: int, is_big: bool) -> float | None:
        """Cached value for ``(tid, is_big)``, or None on a miss."""
        value = self._cache.get((tid, is_big))
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, tid: int, is_big: bool, value: float) -> float:
        """Store and return ``value`` for ``(tid, is_big)``."""
        self._cache[(tid, is_big)] = value
        return value

    def bump(self) -> None:
        """Invalidate everything (call after each labeling pass)."""
        self._cache.clear()
        self.generation += 1


class SpeedupEstimator(abc.ABC):
    """Interface shared by the learned model and the oracle."""

    @abc.abstractmethod
    def estimate(self, task: "Task", window: dict[str, float]) -> float | None:
        """Predicted speedup for ``task`` given its counter ``window``.

        Returns None when the window carries too little signal to update
        the estimate (the caller keeps the previous smoothed value).
        """

    @property
    def is_pure(self) -> bool:
        """True if :meth:`estimate` is a pure function of its inputs.

        Pure estimators give the same prediction regardless of how many
        estimates were issued before -- the property the parallel sweep
        executor and the persistent result cache rely on for bit-identical
        results.  A noisy oracle draws from a sequential RNG stream and is
        therefore *not* pure: its predictions depend on run order.
        """
        return False


class OracleSpeedupModel(SpeedupEstimator):
    """Ground-truth estimator (ablation / testing only).

    Optionally adds zero-mean Gaussian noise so experiments can scan the
    sensitivity of each policy to prediction error.
    """

    def __init__(self, noise_std: float = 0.0, seed: int = 0) -> None:
        self.noise_std = noise_std
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def estimate(self, task: "Task", window: dict[str, float]) -> float | None:
        # Task.true_speedup memoizes profile.speedup() on first use; when
        # set the memo is identical to it, so reading it is bit-exact.
        # Before the task's first dispatch it is unset and recomputed.
        truth = task._profile_speedup
        if truth is None:
            truth = task.profile.speedup()
        elif self.noise_std == 0.0:
            # The memo is already clipped to [1.0, 2.9], the same
            # [SPEEDUP_MIN, SPEEDUP_MAX] as below, so the final clip is
            # the identity -- skip its numpy dispatch.
            return truth
        if self.noise_std > 0.0:
            truth += self._rng.normal(0.0, self.noise_std)
        return float(np.clip(truth, SPEEDUP_MIN, SPEEDUP_MAX))

    @property
    def is_pure(self) -> bool:
        return self.noise_std == 0.0

    def to_spec(self) -> dict:
        """JSON-ready constructor arguments (RNG state is *not* captured)."""
        return {"kind": "oracle", "noise_std": self.noise_std, "seed": self.seed}


class LearnedSpeedupModel(SpeedupEstimator):
    """Linear model over PCA-selected, instruction-normalised counters.

    This is the runtime half of the paper's Table 2: the offline training
    pipeline picks ``selected_counters`` and fits ``regression``; at
    runtime the same normalisation is applied to each thread's window.
    """

    def __init__(
        self,
        selected_counters: list[str],
        regression: LinearRegression,
        normalizer: str = "commit.committedInsts",
    ) -> None:
        if not regression.is_fitted:
            raise ModelError("regression must be fitted before use")
        if len(selected_counters) != regression.coef_.shape[0]:
            raise ModelError(
                f"{len(selected_counters)} counters vs "
                f"{regression.coef_.shape[0]} coefficients"
            )
        self.selected_counters = list(selected_counters)
        self.regression = regression
        self.normalizer = normalizer

    def features_from(self, window: dict[str, float]) -> np.ndarray | None:
        """Instruction-normalised feature vector, or None for a dead window."""
        insts = window.get(self.normalizer, 0.0)
        if insts < MIN_WINDOW_INSTRUCTIONS:
            return None
        return np.array(
            [window.get(name, 0.0) / insts for name in self.selected_counters]
        )

    def estimate(self, task: "Task", window: dict[str, float]) -> float | None:
        features = self.features_from(window)
        if features is None:
            return None
        raw = float(self.regression.predict(features))
        # The comparisons ``float(np.clip(raw, SPEEDUP_MIN, SPEEDUP_MAX))``
        # performs, without its numpy dispatch (NaN passes through).
        if raw < SPEEDUP_MIN:
            return SPEEDUP_MIN
        return SPEEDUP_MAX if raw > SPEEDUP_MAX else raw

    @property
    def is_pure(self) -> bool:
        return True

    def to_spec(self) -> dict:
        """JSON-ready fitted state: coefficients, not training data.

        The spec is exact -- ``float`` values round-trip bit-identically
        through :func:`estimator_from_spec` -- which is what lets the
        parallel sweep executor train once in the parent process and ship
        the fitted model to every worker.
        """
        return {
            "kind": "learned",
            "selected_counters": list(self.selected_counters),
            "normalizer": self.normalizer,
            "intercept": self.regression.intercept_,
            "coef": [float(c) for c in self.regression.coef_],
            "r2": self.regression.r2_,
            "residual_std": self.regression.residual_std_,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "LearnedSpeedupModel":
        """Rebuild a fitted model from :meth:`to_spec` output."""
        regression = LinearRegression()
        regression.intercept_ = float(spec["intercept"])
        regression.coef_ = np.asarray(spec["coef"], dtype=float)
        regression.r2_ = spec.get("r2")
        regression.residual_std_ = spec.get("residual_std")
        return cls(
            list(spec["selected_counters"]),
            regression,
            normalizer=spec.get("normalizer", "commit.committedInsts"),
        )

    def describe(self) -> str:
        """Human-readable model equation (the regenerated Table 2 body)."""
        parts = [f"{self.regression.intercept_:.4f}"]
        for name, coef in zip(self.selected_counters, self.regression.coef_):
            parts.append(f"({coef:+.4f} * {name}/{self.normalizer})")
        return "speedup = " + " ".join(parts)


def estimator_to_spec(estimator: SpeedupEstimator) -> dict:
    """Serialise ``estimator`` into a picklable/JSON-ready spec dict.

    Raises:
        ModelError: for estimator types without a spec form (custom
            estimators cannot be shipped to sweep workers).
    """
    if isinstance(estimator, (LearnedSpeedupModel, OracleSpeedupModel)):
        return estimator.to_spec()
    raise ModelError(
        f"estimator {type(estimator).__name__} has no worker-shippable "
        "spec; run the sweep serially or use a learned/oracle model"
    )


def estimator_from_spec(spec: dict) -> SpeedupEstimator:
    """Inverse of :func:`estimator_to_spec`."""
    kind = spec.get("kind")
    if kind == "learned":
        return LearnedSpeedupModel.from_spec(spec)
    if kind == "oracle":
        return OracleSpeedupModel(
            noise_std=spec["noise_std"], seed=spec["seed"]
        )
    raise ModelError(f"unknown estimator spec kind {kind!r}")
