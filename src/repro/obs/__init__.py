"""``repro.obs`` -- observability for the simulator stack.

Structured tracing, a metrics registry and host-side profiling.  Every
run-time observer reaches the machine, kernel machinery and engine
through one seam, :mod:`repro.obs.probe`.  Enable per run via
:class:`ObsConfig`::

    from repro import Machine, MachineConfig
    from repro.obs import ObsConfig

    machine = Machine(topo, sched, MachineConfig(obs=ObsConfig(trace=True,
                                                               metrics=True)))
    result = machine.run()
    result.events       # typed TraceEvent records
    result.metrics      # metrics snapshot (dict)

or from the command line with ``colab-repro report --out trace.json ...``,
which writes a Perfetto-loadable Chrome trace of one run beside its
attribution and decision-quality report.
"""

from repro.obs.attribution import (
    ATTRIBUTION_SCHEMA_VERSION,
    STATE_NAMES,
    AttributionAccounting,
    decision_quality,
    link_decisions,
    render_attribution,
    render_decision_quality,
    summarize_attribution,
    task_state_slices,
)
from repro.obs.context import ObsConfig
from repro.obs.diff import (
    TraceDiff,
    diff_trace_files,
    first_divergence,
    render_trace_diff,
)
from repro.obs.exporters import (
    timeseries_counter_records,
    to_chrome_trace,
    to_jsonl,
    write_jsonl,
)
from repro.obs.ledger import (
    LEDGER_DIR_ENV,
    LEDGER_SCHEMA_VERSION,
    Ledger,
    default_ledger_path,
    record_point,
    render_ledger_rows,
    render_trend,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeWeighted,
)
from repro.obs.profiling import Profiler
from repro.obs.progress import SweepProgress
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA_VERSION,
    TimeseriesSampler,
    series_value,
)
from repro.obs.tracer import (
    SCHEMA_VERSION,
    EventKind,
    TraceEvent,
    Tracer,
    dispatch_slices,
    occupancy_rows,
)

__all__ = [
    "ATTRIBUTION_SCHEMA_VERSION",
    "AttributionAccounting",
    "Counter",
    "EventKind",
    "Gauge",
    "Histogram",
    "LEDGER_DIR_ENV",
    "LEDGER_SCHEMA_VERSION",
    "Ledger",
    "MetricsRegistry",
    "ObsConfig",
    "Profiler",
    "SCHEMA_VERSION",
    "STATE_NAMES",
    "SweepProgress",
    "TIMESERIES_SCHEMA_VERSION",
    "TimeWeighted",
    "TimeseriesSampler",
    "TraceDiff",
    "TraceEvent",
    "Tracer",
    "decision_quality",
    "default_ledger_path",
    "diff_trace_files",
    "dispatch_slices",
    "first_divergence",
    "link_decisions",
    "occupancy_rows",
    "record_point",
    "render_attribution",
    "render_decision_quality",
    "render_ledger_rows",
    "render_trace_diff",
    "render_trend",
    "series_value",
    "summarize_attribution",
    "task_state_slices",
    "timeseries_counter_records",
    "to_chrome_trace",
    "to_jsonl",
    "write_jsonl",
]
