"""Table 2: the PCA-selected counters and linear speedup model.

Runs the paper's full offline pipeline against the simulator: symmetric
all-big / all-little training runs for every benchmark, 225-counter
vectors, PCA counter selection, instruction normalisation, and the final
linear regression.

It also times the stored training set: ``train_speedup_model()`` cold
(each round in an empty cache directory: collect, fit, store) and warm
(the same directory: load, fit).  It writes ``BENCH_training.json`` with
two asserts: the warm model and report equal the cold ones bit for bit
(``float.hex``), and a warm call runs no training simulation.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

from benchmarks.conftest import bench_artifact, bench_assert, emit
from repro.experiments.tables import table2_speedup_model
from repro.model import training
from repro.model.training import train_speedup_model

#: Cold rounds each use a fresh directory; warm rounds share the last one.
COLD_ROUNDS = 3
WARM_ROUNDS = 5

ARTIFACT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_training.json"


def fit_hex(model, report) -> list:
    """Everything the fit produced, floats as ``float.hex``."""
    return [
        [float(c).hex() for c in model.regression.coef_],
        float(model.regression.intercept_).hex(),
        report.r2.hex(),
        report.mae.hex(),
        report.residual_std.hex(),
        report.selected_counters,
        report.n_samples,
    ]


def timed(call) -> tuple[float, object]:
    started = time.perf_counter()
    result = call()
    return time.perf_counter() - started, result


def measure(root: pathlib.Path, simulations: list[int]) -> dict:
    cold_s, warm_s = [], []
    for round_ in range(COLD_ROUNDS):
        cache = root / f"cold-{round_}"
        before = simulations[0]
        seconds, cold = timed(lambda: train_speedup_model(cache_dir=cache))
        cold_s.append(seconds)
        cold_simulations = simulations[0] - before
    before = simulations[0]
    for _ in range(WARM_ROUNDS):
        seconds, warm = timed(lambda: train_speedup_model(cache_dir=cache))
        warm_s.append(seconds)
    [entry] = (cache / "training").iterdir()
    return {
        "cold": cold,
        "cold_s": statistics.median(cold_s),
        "warm_s": statistics.median(warm_s),
        "cold_simulations": cold_simulations,
        "warm_simulations": simulations[0] - before,
        "warm_bit_identical": fit_hex(*warm) == fit_hex(*cold),
        "entry_bytes": entry.stat().st_size,
    }


def to_artifact(report: dict) -> dict:
    return bench_artifact(
        name="training",
        params={"cold_rounds": COLD_ROUNDS, "warm_rounds": WARM_ROUNDS},
        timings={"cold_s": report["cold_s"], "warm_s": report["warm_s"]},
        asserts={
            "warm_bit_identical": bench_assert(
                report["warm_bit_identical"], True, "=="
            ),
            "warm_simulations": bench_assert(report["warm_simulations"], 0, "=="),
        },
        derived={
            "cold_simulations": report["cold_simulations"],
            "warm_speedup": report["cold_s"] / report["warm_s"],
            "entry_bytes": report["entry_bytes"],
        },
    )


def test_table2_speedup_model(benchmark, tmp_path, monkeypatch):
    simulations = [0]
    simulate = training._rates_and_counters

    def counting(*args, **kwargs):
        simulations[0] += 1
        return simulate(*args, **kwargs)

    monkeypatch.setattr(training, "_rates_and_counters", counting)
    report = benchmark.pedantic(
        measure, args=(tmp_path, simulations), rounds=1, iterations=1
    )
    ARTIFACT.write_text(
        json.dumps(to_artifact(report), indent=2, sort_keys=True) + "\n"
    )
    _model, table2 = report["cold"]
    emit(
        benchmark,
        table2_speedup_model(table2)
        + f"\n  cold (collect, fit, store): {report['cold_s']:.3f} s, "
        f"{report['cold_simulations']} simulations"
        f"\n  warm (load, fit)          : {report['warm_s']:.3f} s, "
        f"{report['warm_simulations']} simulations"
        f"\n  wrote {ARTIFACT.name}",
        n_samples=table2.n_samples,
        r2=round(table2.r2, 3),
        mae=round(table2.mae, 3),
        selected=table2.selected_counters,
    )
    assert report["warm_bit_identical"]
    assert report["warm_simulations"] == 0
    # Shape assertions mirroring the paper: six counters, a mostly
    # informative selection, and a usable fit.
    assert len(table2.selected_counters) == 6
    real = [n for n in table2.selected_counters if not n.startswith("distractor")]
    assert len(real) >= 3
    assert table2.r2 > 0.6
