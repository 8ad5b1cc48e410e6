"""Transports for ``repro serve``: NDJSON over stdio or localhost TCP.

Both transports share one :class:`~repro.serve.queue.RequestQueue` (and
therefore one session): every connection's lines feed the same queue, so
mutation epochs batch across clients.  Responses are written as they
resolve -- queries can overtake batched mutations; clients correlate by
``id``.  A ``shutdown`` request stops the transport after draining.

The stdio entry point is synchronous (:func:`serve_stdio` /
:func:`serve_lines` run their own event loop), which is what the CLI and
the round-trip tests use.
"""

from __future__ import annotations

import asyncio
import sys
from typing import Dict, Iterable, List, Optional

from ..obs.ledger import append_record, ledger_path, make_record
from . import protocol
from .queue import RequestQueue
from .session import GraphSession


def _bad_line(exc: protocol.ProtocolError) -> Dict:
    return protocol.error_response(exc.request_id, "bad_request", str(exc))


async def _serve_stream(queue: RequestQueue, lines, write_line) -> bool:
    """Pump one line stream through the queue; True when shut down.

    ``lines`` is an async iterator of raw request lines; ``write_line``
    is called with each encoded response (serialized by a lock so
    concurrent completions interleave whole lines, never bytes).
    """
    write_lock = asyncio.Lock()
    tasks: List[asyncio.Task] = []
    shutdown = False

    async def respond(resp: Dict) -> None:
        async with write_lock:
            write_line(protocol.encode_response(resp))

    async def handle(req: Dict) -> None:
        await respond(await queue.submit(req))

    async for raw in lines:
        line = raw.strip()
        if not line:
            continue
        try:
            req = protocol.parse_request(line)
        except protocol.ProtocolError as exc:
            await respond(_bad_line(exc))
            continue
        if req["op"] == "shutdown":
            # Drain in-order: everything admitted before the shutdown
            # resolves first, then the shutdown response goes out last.
            if tasks:
                await asyncio.gather(*tasks)
                tasks.clear()
            await handle(req)
            shutdown = True
            break
        tasks.append(asyncio.ensure_future(handle(req)))
    if tasks:
        await asyncio.gather(*tasks)
    await queue.drain()
    return shutdown


async def _iter_blocking_lines(stream):
    """Async-iterate a blocking text stream (stdin) via the executor."""
    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, stream.readline)
        if line == "":
            return
        yield line


def serve_lines(session: GraphSession, lines: Iterable[str],
                **queue_opts) -> List[str]:
    """Serve a finite request-line sequence; returns response lines.

    The in-process harness behind the stdio transport and the tests:
    runs its own event loop, feeds every line, drains, and returns the
    encoded responses in completion order.
    """
    out: List[str] = []

    async def _run() -> None:
        queue = RequestQueue(session, **queue_opts)

        async def _aiter():
            for line in lines:
                yield line

        try:
            await _serve_stream(queue, _aiter(), out.append)
        finally:
            queue.close()

    asyncio.run(_run())
    return out


def serve_stdio(session: GraphSession, in_stream=None, out_stream=None,
                ledger: Optional[str] = None, **queue_opts) -> Dict:
    """Serve NDJSON requests from stdin until EOF or ``shutdown``.

    Returns the queue summary (also appended to the run ledger when one
    is configured -- see :func:`repro.obs.ledger.ledger_path`).
    """
    in_stream = in_stream or sys.stdin
    out_stream = out_stream or sys.stdout

    def write_line(text: str) -> None:
        out_stream.write(text + "\n")
        out_stream.flush()

    summary: Dict = {}

    async def _run() -> None:
        queue = RequestQueue(session, **queue_opts)
        try:
            await _serve_stream(queue, _iter_blocking_lines(in_stream),
                                write_line)
        finally:
            summary.update(queue.summary())
            queue.close()

    asyncio.run(_run())
    _ledger_summary(session, summary, ledger)
    return summary


async def serve_tcp(session: GraphSession, host: str = "127.0.0.1",
                    port: int = 0, ready=None, **queue_opts) -> Dict:
    """Serve NDJSON over TCP until a client sends ``shutdown``.

    All connections share one queue.  ``ready`` (optional callable)
    receives the bound ``(host, port)`` once listening -- tests use it to
    learn the ephemeral port.  Returns the queue summary.
    """
    queue = RequestQueue(session, **queue_opts)
    done = asyncio.Event()

    async def on_connect(reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> None:
        def write_line(text: str) -> None:
            writer.write(text.encode() + b"\n")

        async def _aiter():
            while True:
                raw = await reader.readline()
                if not raw:
                    return
                yield raw.decode()

        try:
            if await _serve_stream(queue, _aiter(), write_line):
                done.set()
            await writer.drain()
        finally:
            writer.close()

    server = await asyncio.start_server(on_connect, host, port)
    try:
        if ready is not None:
            ready(server.sockets[0].getsockname()[:2])
        await done.wait()
    finally:
        server.close()
        await server.wait_closed()
        summary = queue.summary()
        queue.close()
    _ledger_summary(session, summary, None)
    return summary


def _ledger_summary(session: GraphSession, summary: Dict,
                    explicit: Optional[str]) -> None:
    """Append one ``serve`` row to the run ledger (no-op when unset)."""
    path = ledger_path(explicit)
    if path is None:
        return
    record = make_record(
        "serve", "serve_session",
        config={
            "n_vertices": session.n_vertices,
            "algorithm": "boruvka",
        },
        machine=session.machine,
        simulated=[{"label": "serve_total", "simulated_seconds":
                    session.total_simulated_seconds}],
        extra={"serving": summary},
    )
    append_record(record, path)
