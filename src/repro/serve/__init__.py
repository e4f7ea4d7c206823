"""Multi-tenant inference-serving simulation with SLO-aware scheduling.

The traffic-driven evaluation axis on top of the full-SoC machinery:
per-tenant arrival sources (:mod:`repro.serve.workload`) stream requests
on demand, dispatch policies (:mod:`repro.serve.scheduler`) pick what
runs next, and an incremental event-queue engine
(:mod:`repro.serve.cluster`) steps whichever tile is furthest behind so
queueing composes with shared L2/DRAM/TLB contention while holding only
O(in-flight + tenants) state; golden fingerprints (``tests/golden/``) pin
its request logs.  Tail-latency/goodput/fairness
SLO metrics fold online (:mod:`repro.serve.metrics` — exact histograms or
streaming P2 sketches); long runs can checkpoint at quiescent points and
resume bitwise (:mod:`repro.serve.checkpoint`).  Results export to
JSON/CSV (:mod:`repro.serve.export`); the ``p99_latency_ms`` /
``goodput_qps`` / ``qps_per_watt`` / ``slo_violation_rate`` DSE
objectives make a design point searchable *under a traffic profile*.
"""

from repro.serve.checkpoint import load_checkpoint, save_checkpoint
from repro.serve.cluster import (
    RECORD_MODES,
    ServeResult,
    ServingSimulation,
    estimate_service_cycles,
    simulate_serving,
)
from repro.serve.export import (
    export_serve_csv,
    export_serve_json,
    serve_table,
    serve_to_dict,
)
from repro.serve.metrics import (
    LatencySketch,
    ReportAccumulator,
    ServeReport,
    TenantMetrics,
    build_report,
    jain_fairness,
)
from repro.serve.request import Request, RequestRecord
from repro.serve.scheduler import (
    SCHEDULERS,
    BatchScheduler,
    FCFSScheduler,
    PriorityScheduler,
    RoundRobinScheduler,
    Scheduler,
    SJFScheduler,
    make_scheduler,
)
from repro.serve.workload import (
    ARRIVAL_KINDS,
    ArrivalSource,
    ClosedLoopSource,
    OpenLoopSource,
    TenantSpec,
    TrafficProfile,
    load_trace_profile,
    make_source,
    parse_tenant,
)

__all__ = [
    "ARRIVAL_KINDS",
    "RECORD_MODES",
    "SCHEDULERS",
    "ArrivalSource",
    "BatchScheduler",
    "ClosedLoopSource",
    "FCFSScheduler",
    "LatencySketch",
    "OpenLoopSource",
    "PriorityScheduler",
    "ReportAccumulator",
    "Request",
    "RequestRecord",
    "RoundRobinScheduler",
    "Scheduler",
    "ServeReport",
    "ServeResult",
    "ServingSimulation",
    "SJFScheduler",
    "TenantMetrics",
    "TenantSpec",
    "TrafficProfile",
    "build_report",
    "estimate_service_cycles",
    "export_serve_csv",
    "export_serve_json",
    "jain_fairness",
    "load_checkpoint",
    "load_trace_profile",
    "make_scheduler",
    "make_source",
    "parse_tenant",
    "save_checkpoint",
    "serve_table",
    "serve_to_dict",
    "simulate_serving",
]
