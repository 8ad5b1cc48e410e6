"""NDJSON wire protocol of ``repro serve`` (docs/serving.md).

One request per line, one response per line; responses carry the
request's ``id`` and may arrive out of order (queries overtake batched
mutations).  Requests::

    {"id": 1, "op": "msf_weight"}
    {"id": 2, "op": "components", "vertices": [0, 5]}
    {"id": 3, "op": "edge_in_msf", "u": 0, "v": 5}
    {"id": 4, "op": "stats"}
    {"id": 5, "op": "insert_edges", "edges": [[0, 5, 17], ...]}
    {"id": 6, "op": "delete_edges", "edges": [[0, 5], ...]}
    {"id": 7, "op": "flush"}
    {"id": 8, "op": "cancel", "target": 5}
    {"id": 9, "op": "shutdown"}

Any request may set ``"deadline_ms"`` (budget from enqueue).  Responses::

    {"id": 1, "ok": true, "result": {...}, "metrics":
        {"queue_wait_ms": 0.1, "compute_ms": 2.0, "version": 7}}
    {"id": 5, "ok": false, "error": {"code": "bad_request",
                                     "message": "..."}}

Error codes: ``bad_request``, ``queue_full``, ``deadline_exceeded``,
``cancelled``, ``compute_error``, ``shutdown``.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

#: Ops answered from the published view (multi-reader path).
QUERY_OPS = frozenset({"msf_weight", "components", "edge_in_msf", "stats"})
#: Ops batched into epochs (single-writer path).
MUTATION_OPS = frozenset({"insert_edges", "delete_edges"})
#: Queue-control ops handled on the event loop itself.
CONTROL_OPS = frozenset({"flush", "cancel", "shutdown"})

ALL_OPS = QUERY_OPS | MUTATION_OPS | CONTROL_OPS


class ProtocolError(ValueError):
    """A request line that cannot be dispatched."""

    def __init__(self, message: str, request_id=None):
        super().__init__(message)
        self.request_id = request_id


def parse_request(line: str) -> Dict:
    """Decode + structurally validate one request line."""
    try:
        req = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"invalid JSON: {exc}")
    if not isinstance(req, dict):
        raise ProtocolError("request must be a JSON object")
    rid = req.get("id")
    if rid is not None and (isinstance(rid, bool)
                            or not isinstance(rid, (str, int))):
        raise ProtocolError("'id' must be a string or integer", None)
    op = req.get("op")
    if not isinstance(op, str) or op not in ALL_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {sorted(ALL_OPS)}", rid)
    deadline = req.get("deadline_ms")
    if deadline is not None and (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float)) or deadline <= 0):
        raise ProtocolError("'deadline_ms' must be a positive number", rid)
    if op in MUTATION_OPS and not isinstance(req.get("edges"), list):
        raise ProtocolError(f"op {op!r} requires an 'edges' list", rid)
    if op == "components" and not isinstance(req.get("vertices", []),
                                             (list, type(None))):
        raise ProtocolError("op 'components' takes a 'vertices' list", rid)
    if op == "edge_in_msf" and ("u" not in req or "v" not in req):
        raise ProtocolError("op 'edge_in_msf' requires 'u' and 'v'", rid)
    if op == "cancel" and "target" not in req:
        raise ProtocolError("op 'cancel' requires 'target'", rid)
    return req


def ok_response(rid, result: Dict,
                metrics: Optional[Dict] = None) -> Dict:
    """A success response envelope for request ``rid``."""
    resp = {"id": rid, "ok": True, "result": result}
    if metrics is not None:
        resp["metrics"] = metrics
    return resp


def error_response(rid, code: str, message: str,
                   metrics: Optional[Dict] = None) -> Dict:
    """An error response envelope carrying ``code`` and ``message``."""
    resp = {"id": rid, "ok": False,
            "error": {"code": code, "message": message}}
    if metrics is not None:
        resp["metrics"] = metrics
    return resp


def encode_response(resp: Dict) -> str:
    """One response line (no trailing newline)."""
    return json.dumps(resp, separators=(",", ":"), sort_keys=True)
