"""What the tracer wraps, and which per-layer metrics the spans yield.

A layer is a module under ``src/repro/``.  :data:`FUNCTIONS` and
:data:`METHODS` name the public entry points whose calls become spans;
:data:`PER_LAYER` is the ordered list of per-layer metrics in
``BENCHMARK.json`` with the span and field each one reads.

Units: ``host_s`` / ``host_ms`` / ``host_us`` are host time
(``time.perf_counter``), ``count`` metrics are exact and repeat for a fixed
seed, ``ratio`` metrics are quotients whose base is given in the README.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


def _rows_in(position: int, keyword: str):
    """Counter of rows in the per-PE sequence a call was given."""
    def measure(args, kwargs, _result):
        parts = args[position] if len(args) > position else kwargs[keyword]
        return {"rows": sum(len(x) for x in parts)}
    return measure


def _pool_takes(args, kwargs, _result):
    """Buffer-pool counters of the machine a solve ran on."""
    graph = args[0] if args else kwargs["graph"]
    stats = graph.machine.pool.stats()
    return {"pool_hits": stats["hits"],
            "pool_takes": stats["hits"] + stats["misses"]}


_KERNELS = ("packed_lexsort", "segmented_lexsort", "segmented_unique",
            "segmented_searchsorted", "segmented_lookup", "route_plan")
_COLLECTIVES = ("allreduce", "exscan", "scan", "allgather", "allgatherv",
                "gatherv", "bcast")

#: ``(span, module, attribute, measure)``
FUNCTIONS: List[tuple] = [
    ("graphgen.gen", "repro.graphgen", "gen_family", None),
    ("simmpi.route_rows", "repro.simmpi.alltoall", "route_rows",
     _rows_in(1, "rows_per_pe")),
    ("simmpi.alltoall_direct", "repro.simmpi.alltoall", "alltoallv_direct",
     None),
    ("simmpi.alltoall_grid", "repro.simmpi.alltoall", "alltoallv_grid", None),
    ("simmpi.alltoall_hypercube", "repro.simmpi.alltoall",
     "alltoallv_hypercube", None),
    ("sorting.sort_rows", "repro.sorting.api", "sort_rows",
     _rows_in(1, "parts")),
    ("sorting.hypercube", "repro.sorting.hypercube", "sort_hypercube", None),
    ("sorting.samplesort", "repro.sorting.samplesort", "sort_samplesort",
     None),
    ("sorting.rebalance", "repro.sorting.common", "rebalance_blocks", None),
    *[(f"kernels.{k}", "repro.kernels.segmented", k, None) for k in _KERNELS],
    ("core.local_preprocessing", "repro.core.local_preprocessing",
     "local_preprocessing", None),
    ("core.min_edges", "repro.core.minedges", "min_edges", None),
    ("core.contract_components", "repro.core.contraction",
     "contract_components", None),
    ("core.exchange_labels", "repro.core.labels", "exchange_labels", None),
    ("core.relabel", "repro.core.labels", "relabel", None),
    ("core.redistribute", "repro.core.redistribute", "redistribute", None),
    ("core.base_case", "repro.core.base_case", "base_case", None),
    ("core.msf", "repro.core.mst", "minimum_spanning_forest", _pool_takes),
    ("seq.filter_boruvka_msf", "repro.seq.filter_kruskal",
     "filter_boruvka_msf", None),
    ("seq.kruskal_reference", "repro.seq.kruskal", "msf_weight", None),
    ("analysis.run_algorithm", "repro.analysis.runner", "run_algorithm",
     None),
    *[(f"serve.{f}", "repro.serve.incremental", f, None)
      for f in ("plan_replay", "sparsified_recompute", "replay_recompute",
                "full_recompute")],
]

#: ``(span, module, class, method, measure)``
METHODS: List[tuple] = [
    ("dgraph.distribute", "repro.graphgen.base", "GeneratedGraph",
     "distribute", None),
    ("dgraph.edges_take", "repro.dgraph.edges", "Edges", "take", None),
    *[("simmpi.collectives", "repro.simmpi.collectives", "Comm", m, None)
      for m in _COLLECTIVES],
    ("simmpi.machine_init", "repro.simmpi.machine", "Machine", "__init__",
     None),
    ("serve.session_build", "repro.serve.session", "GraphSession",
     "__init__", None),
    ("serve.apply_epoch", "repro.serve.session", "GraphSession",
     "apply_epoch", None),
]

#: Metrics the serving workload measures itself (clients, queue summary,
#: protocol codec); every other workload reports them as 0.
SERVE_CLIENT_METRICS: List[Tuple[str, str]] = [
    ("serve.epochs_noop", "count"),
    ("serve.epochs_sparsified", "count"),
    ("serve.epochs_replay", "count"),
    ("serve.epochs_full", "count"),
    ("serve.incremental_epoch_ratio", "ratio"),
    ("serve.queue_wait_ms_mean", "host_ms"),
    ("serve.read_ms_p50", "host_ms"),
    ("serve.read_ms_p99", "host_ms"),
    ("serve.reads_completed", "reads"),
    ("serve.protocol_parse_us", "host_us"),
    ("serve.protocol_encode_us", "host_us"),
]


def _span_metrics() -> List[Tuple[str, str, str, str]]:
    """``(metric, unit, span, field)`` for every metric read off spans."""
    def s(span):
        return (f"{span}_s", "host_s", span, "s")

    def self_s(span):
        return (f"{span}_self_s", "host_s", span, "self_s")

    def calls(span):
        return (f"{span}_calls", "count", span, "calls")

    rows = [
        ("graphgen.gen_s", "host_s", "graphgen.gen", "s"),
        s("dgraph.distribute"), s("dgraph.edges_take"),
        s("simmpi.route_rows"), self_s("simmpi.route_rows"),
        calls("simmpi.route_rows"),
        ("simmpi.route_rows_rows", "count", "simmpi.route_rows", "rows"),
        s("simmpi.alltoall_direct"), s("simmpi.alltoall_grid"),
        s("simmpi.alltoall_hypercube"), s("simmpi.collectives"),
        s("simmpi.machine_init"),
        s("sorting.sort_rows"), self_s("sorting.sort_rows"),
        calls("sorting.sort_rows"),
        ("sorting.rows_sorted", "count", "sorting.sort_rows", "rows"),
        s("sorting.hypercube"), s("sorting.samplesort"),
        s("sorting.rebalance"),
    ]
    for k in _KERNELS:
        rows += [s(f"kernels.{k}"), calls(f"kernels.{k}")]
    rows += [
        s("core.local_preprocessing"), self_s("core.local_preprocessing"),
        s("core.min_edges"), s("core.contract_components"),
        s("core.exchange_labels"), s("core.relabel"), s("core.redistribute"),
        s("core.base_case"),
        ("core.msf_self_s", "host_s", "core.msf", "self_s"),
        ("core.rounds", "count", "core.min_edges", "calls"),
        s("seq.filter_boruvka_msf"), s("seq.kruskal_reference"),
        self_s("analysis.run_algorithm"),
        s("serve.session_build"),
        s("serve.apply_epoch"), self_s("serve.apply_epoch"),
    ]
    for f in ("plan_replay", "sparsified_recompute", "replay_recompute",
              "full_recompute"):
        rows += [s(f"serve.{f}"), calls(f"serve.{f}")]
    return rows


SPAN_METRICS = _span_metrics()

#: ``(metric, unit)`` in ``BENCHMARK.json`` order.  Every metric is "lower is
#: better" except the ratios of useful outcomes and ``serve.reads_completed``.
PER_LAYER: List[Tuple[str, str]] = (
    [(m, unit) for m, unit, _span, _field in SPAN_METRICS]
    + [("kernels.pool_hit_ratio", "ratio")]
    + SERVE_CLIENT_METRICS
    + [("perfbench.trace_overhead_ratio", "ratio")]
)

HIGHER_IS_BETTER = {"kernels.pool_hit_ratio", "serve.incremental_epoch_ratio",
                    "serve.reads_completed"}


#: Spans that only set-up enters; their metrics are read from there.
SETUP_SPANS = {"graphgen.gen", "seq.kruskal_reference", "serve.session_build"}


def span_metric_values(totals: Dict[str, Dict[str, float]],
                       setup: Dict[str, Dict[str, float]]
                       ) -> Dict[str, float]:
    """The span-derived metrics of one op (or one window of epochs), given
    its span totals and those of set-up.

    A layer the op never entered reads 0 calls and 0.0 seconds.
    """
    out = {}
    for metric, unit, span, field in SPAN_METRICS:
        value = (setup if span in SETUP_SPANS else totals).get(
            span, {}).get(field, 0)
        out[metric] = int(value) if unit == "count" else float(value)
    return out


def pool_hit_ratio(totals: Dict[str, Dict[str, float]]) -> float:
    """Pool hits / takes over the solves of one op (0 with no take)."""
    msf = totals.get("core.msf", {})
    takes = msf.get("pool_takes", 0)
    return msf.get("pool_hits", 0) / takes if takes else 0.0
