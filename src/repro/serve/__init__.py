"""MST-as-a-service: persistent sessions, async queue, incremental MSF.

The serving layer keeps a simulated machine and a distributed graph alive
across requests (docs/serving.md):

* :class:`GraphSession` -- the stateful core: versioned MSF, epoch-batched
  edge churn, incremental recompute (noop / sparsified / replay);
* :class:`RequestQueue` -- asyncio single-writer/multi-reader queue with
  bounded depth, deadlines and cancellation;
* :mod:`repro.serve.protocol` -- the NDJSON wire format;
* :func:`serve_stdio` / :func:`serve_tcp` / :func:`serve_lines` -- the
  transports behind ``repro serve``.
"""

from .incremental import (
    full_recompute,
    plan_replay,
    replay_recompute,
    sparsified_recompute,
)
from .queue import RequestQueue, percentile
from .session import EpochReport, GraphSession, MutationError, SessionView
from .server import serve_lines, serve_stdio, serve_tcp

__all__ = [
    "full_recompute",
    "plan_replay",
    "replay_recompute",
    "sparsified_recompute",
    "RequestQueue",
    "percentile",
    "EpochReport",
    "GraphSession",
    "MutationError",
    "SessionView",
    "serve_lines",
    "serve_stdio",
    "serve_tcp",
]
