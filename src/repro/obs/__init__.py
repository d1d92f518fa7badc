"""repro.obs — unified tracing and metrics for the whole stack.

One tracer, one metrics registry, three exporters.  The executor,
trainer, checkpoint-schedule cache, simulators, fleet and
student-teacher pipeline are all instrumented against this package;
``docs/observability.md`` is the guide.

>>> from repro import obs
>>> with obs.tracing() as tracer:
...     with tracer.span("epoch", category="epoch", epoch=0):
...         obs.get_metrics().counter("batches").inc()
>>> print(obs.summary(tracer))  # doctest: +SKIP

Disabled by default: the process tracer is a :class:`NullTracer`, so
instrumented hot paths cost only a null check until :func:`tracing`
(or :func:`set_tracer`) installs a live one.
"""

from .aggregate import (
    CampaignTelemetry,
    UnitTelemetry,
    campaign_summary,
    load_campaign,
    merge_chrome_trace,
    render_report,
)
from .export import chrome_trace, summary, to_jsonl, write_chrome_trace, write_jsonl
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    Metrics,
    get_metrics,
    reset_metrics,
)
from .runlog import (
    CAMPAIGN_FILENAME,
    TELEMETRY_DIRNAME,
    RunlogTracer,
    UnitCapture,
    read_campaign_record,
    read_unit_runlog,
    runlog_lines,
    write_campaign_record,
    write_unit_runlog,
)
from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceEvent,
    Tracer,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "get_metrics",
    "reset_metrics",
    "chrome_trace",
    "write_chrome_trace",
    "to_jsonl",
    "write_jsonl",
    "summary",
    "RunlogTracer",
    "UnitCapture",
    "TELEMETRY_DIRNAME",
    "CAMPAIGN_FILENAME",
    "runlog_lines",
    "write_unit_runlog",
    "read_unit_runlog",
    "write_campaign_record",
    "read_campaign_record",
    "UnitTelemetry",
    "CampaignTelemetry",
    "load_campaign",
    "merge_chrome_trace",
    "campaign_summary",
    "render_report",
]
