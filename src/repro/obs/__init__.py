"""``repro.obs`` — tracing, metrics, and convergence telemetry.

The instrumentation substrate for the whole package (DESIGN.md §7).  It
sits *below* every other layer — ``fd``, ``relation``, ``core``, the
benchmark harness — so any module may record into it, and it imports
nothing from the rest of the package.

Instrumented code calls the module-level helpers (:func:`span`,
:func:`counter`, :func:`gauge`, :func:`point`, and :func:`tally` for
events the metrics registry counts too); with no recorder installed
they are no-ops costing one thread-local read, so the
permanently instrumented hot paths stay free in production.  Wrap a run
in :func:`recording` to capture a full trace, then export it with
:func:`to_jsonl`, :func:`chrome_trace` (Perfetto / ``chrome://tracing``)
or :func:`summary_tree`, or read the typed :class:`RunTelemetry` a
traced :class:`~repro.core.result.DiscoveryResult` carries::

    from repro import obs

    with obs.recording() as recorder:
        result = create("eulerfd").discover(relation)
    print(obs.summary_tree(recorder))
    print(result.telemetry.series["gr_ncover"])
"""

from . import names
from .clock import Clock, FakeClock, SystemClock, monotonic, system_clock
from .exporters import (
    chrome_trace,
    event_dicts,
    events_from_jsonl,
    summary_tree,
    to_jsonl,
    validate_chrome_trace,
    write_trace,
)
from .recorder import (
    NULL_SPAN,
    Event,
    Recorder,
    SpanHandle,
    counter,
    current_recorder,
    enabled,
    gauge,
    install,
    point,
    recording,
    span,
    uninstall,
)
from .metrics import (
    NULL_TIMER,
    Histogram,
    MetricsRegistry,
    collecting_metrics,
    current_metrics,
    exponential_buckets,
    install_metrics,
    metric_gauge_add,
    metric_gauge_max,
    metric_gauge_set,
    metric_inc,
    metric_observe,
    metric_time,
    metrics_enabled,
    metrics_from_jsonl,
    metrics_jsonl,
    prometheus_name,
    prometheus_text,
    tally,
    uninstall_metrics,
)
from .prof import (
    NULL_PHASE,
    MemoryProfiler,
    current_profiler,
    memory_profiling,
    peak_rss_bytes,
    phase_memory,
)
from .telemetry import PhaseStat, RunTelemetry

__all__ = [
    "Clock",
    "Event",
    "FakeClock",
    "Histogram",
    "MemoryProfiler",
    "MetricsRegistry",
    "NULL_PHASE",
    "NULL_SPAN",
    "NULL_TIMER",
    "PhaseStat",
    "Recorder",
    "RunTelemetry",
    "SpanHandle",
    "SystemClock",
    "chrome_trace",
    "collecting_metrics",
    "counter",
    "current_metrics",
    "current_profiler",
    "current_recorder",
    "enabled",
    "event_dicts",
    "events_from_jsonl",
    "exponential_buckets",
    "gauge",
    "install",
    "install_metrics",
    "memory_profiling",
    "metric_gauge_add",
    "metric_gauge_max",
    "metric_gauge_set",
    "metric_inc",
    "metric_observe",
    "metric_time",
    "metrics_enabled",
    "metrics_from_jsonl",
    "metrics_jsonl",
    "monotonic",
    "names",
    "peak_rss_bytes",
    "phase_memory",
    "point",
    "prometheus_name",
    "prometheus_text",
    "recording",
    "span",
    "summary_tree",
    "system_clock",
    "tally",
    "to_jsonl",
    "uninstall",
    "uninstall_metrics",
    "validate_chrome_trace",
    "write_trace",
]
