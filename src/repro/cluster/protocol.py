"""Wire protocol shared by the cluster coordinator, workers and clients.

Messages are plain dicts with a ``"type"`` key, framed as a 4-byte
big-endian length prefix followed by an encoding of the dict.  Two
codecs share the framing:

* :data:`PICKLE` (the default) — the cluster plane's codec.  Pickle is
  the right tool there because the only non-primitive payloads are a
  task's :class:`~repro.core.backends.EvaluationRequest` (a frozen
  bundle of primitives, one lane chunk) and its answer, the
  ``(pure outcomes, decision paths)`` pair that
  :func:`~repro.core.backends.evaluate_request` returns — and the
  fleet is trusted (the same trust model as a
  ``ProcessPoolExecutor``; do not expose a coordinator to untrusted
  networks).
* :data:`JSON` — the tuning service's codec
  (:mod:`repro.service.protocol`).  Service clients are *untrusted*
  (the daemon rate-limits and namespace-isolates them), so their bytes
  must never reach ``pickle.loads``: a JSON frame can carry data but
  not code.  The service vocabulary is primitives-only, so nothing is
  lost.

Message vocabulary (all senders include nothing else):

========== =========== ==================================================
type       direction   fields
========== =========== ==================================================
hello      peer → coor ``role`` ("worker"/"client"), ``version``,
                       ``name``, ``slots`` (workers only)
welcome    coor → peer ``version``, ``workers`` (current fleet width)
task       coor → wkr  ``task_id``, ``request``
result     wkr → coor  ``task_id``, ``result``
error      wkr → coor  ``task_id``, ``message``
heartbeat  wkr → coor  —
submit     cli → coor  ``task_id``, ``request``
cancel     cli → coor  ``task_id``
result     coor → cli  ``task_id``, ``result``
error      coor → cli  ``task_id``, ``kind`` ("evaluation"/"dispatch"),
                       ``message``
fleet      coor → peer ``workers`` (broadcast on join/leave)
========== =========== ==================================================
"""

from __future__ import annotations

import asyncio
import json
import pickle
import socket
import struct
import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Type, TypeVar

from repro.errors import ClusterProtocolError
from repro.faults import fault_point

#: Bump when the message vocabulary or the task payloads change
#: incompatibly; peers with mismatched versions refuse to talk rather
#: than mis-parse.
PROTOCOL_VERSION = 3

#: Frame codecs (see module docstring for when each applies).
PICKLE = "pickle"
JSON = "json"

#: Frame header: payload length, 4-byte big-endian unsigned.
_HEADER = struct.Struct(">I")

#: Upper bound on one frame; a request/result is a few KB, so anything
#: near this is a corrupted stream, not a legitimate message.
MAX_MESSAGE_BYTES = 16 * 1024 * 1024


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``"host:port"`` string into its parts.

    Raises:
        ClusterProtocolError: When the string is not ``host:port`` with
            an integer port.
    """
    host, sep, port_text = address.strip().rpartition(":")
    if not sep or not host:
        raise ClusterProtocolError(
            f"cluster address must be 'host:port', got {address!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ClusterProtocolError(
            f"cluster address has a non-integer port: {address!r}"
        ) from None
    return host, port


def format_address(host: str, port: int) -> str:
    """The canonical ``host:port`` rendering of an address."""
    return f"{host}:{port}"


_Self = TypeVar("_Self", bound="LoopThread")


class LoopThread:
    """A server's event loop on a daemon thread: the in-process form of
    the cluster coordinator and the tuning daemon.

    The constructor runs ``server.start()`` on a fresh loop and returns
    once it completed; the loop then serves until :meth:`stop` awaits
    ``server.stop()`` on it and joins the thread.  A start failure (a
    busy port, say) closes the loop, ends the thread and is re-raised
    as ``error`` with the original exception as ``__cause__``.

    Args:
        server: Object with ``async start()`` and ``async stop()``.
        what: Name for the server in start errors.
        thread_name: Name of the loop thread.
        timeout: Seconds to wait for ``start()``.
        error: Exception type raised when the start fails.
    """

    def __init__(
        self,
        server: Any,
        what: str,
        *,
        thread_name: str,
        timeout: float,
        error: Type[Exception],
    ) -> None:
        self._server = server
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        failure: List[BaseException] = []

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(server.start())
            except BaseException as exc:  # re-raised by the constructor
                failure.append(exc)
                self._loop.close()
                return
            finally:
                started.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=_run, name=thread_name, daemon=True)
        self._thread.start()
        if not started.wait(timeout=timeout):
            raise error(f"{what} failed to start")
        if failure:
            self._thread.join()
            raise error(f"{what} failed to start: {failure[0]}") from failure[0]

    def stop(self) -> None:
        if not self._loop.is_closed():
            asyncio.run_coroutine_threadsafe(
                self._server.stop(), self._loop
            ).result(timeout=10.0)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
            self._loop.close()

    def __enter__(self: _Self) -> _Self:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def _encode_payload(message: Dict[str, Any], codec: str) -> bytes:
    if codec == JSON:
        try:
            return json.dumps(message, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise ClusterProtocolError(
                f"message is not JSON-serialisable: {exc}"
            ) from exc
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def _decode_payload(payload: bytes, codec: str) -> Dict[str, Any]:
    """Decode and validate one frame body.

    The codec is the *receiver's* choice, never the sender's: a JSON
    peer decodes with ``json.loads`` only, so hostile bytes on a JSON
    port can never reach ``pickle.loads``.
    """
    try:
        if codec == JSON:
            message = json.loads(payload.decode("utf-8"))
        else:
            message = pickle.loads(payload)
    except Exception as exc:
        raise ClusterProtocolError(f"unparseable cluster frame: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ClusterProtocolError(
            f"cluster frame is not a typed message: {message!r}"
        )
    return message


def encode_message(message: Dict[str, Any], *, codec: str = PICKLE) -> bytes:
    """One framed message, ready to write to a transport."""
    payload = _encode_payload(message, codec)
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ClusterProtocolError(
            f"refusing to send a {len(payload)}-byte cluster message "
            f"(limit {MAX_MESSAGE_BYTES})"
        )
    return _HEADER.pack(len(payload)) + payload


def send_nowait(
    writer: asyncio.StreamWriter, message: Dict[str, Any], *, codec: str = PICKLE
) -> None:
    """Queue one message on a stream without awaiting flow control.

    The header and payload are written in a single call, so concurrent
    senders on the same writer can never interleave partial frames.
    Dead transports are ignored — connection loss is detected (and
    handled) by the peer's read loop, not its writes.
    """
    if writer.is_closing():
        return
    frame = encode_message(message, codec=codec)
    fault = fault_point("cluster.send_frame")
    if fault is not None:
        if fault.kind == "drop":
            # The frame vanishes on the wire; the connection survives.
            # Recovery relies on the protocol's liveness machinery
            # (heartbeat reaping, straggler duplication, re-dispatch).
            return
        if fault.kind == "truncate":
            # Half a frame, then the link dies mid-send — the peer's
            # readexactly fails and treats the connection as lost.
            try:
                writer.write(frame[: max(1, len(frame) // 2)])
                transport = writer.transport
                if transport is not None:
                    transport.abort()
            except (ConnectionError, RuntimeError, OSError):
                pass
            return
        if fault.kind in ("delay", "slow"):
            # A slow link.  Blocking the loop is intentional: frames
            # must not be reordered, and chaos delays are tiny.
            time.sleep(fault.seconds)
    try:
        writer.write(frame)
    except (ConnectionError, RuntimeError, OSError):
        return


async def send_message(
    writer: asyncio.StreamWriter, message: Dict[str, Any], *, codec: str = PICKLE
) -> None:
    """Send one message and honour transport flow control."""
    writer.write(encode_message(message, codec=codec))
    await writer.drain()


async def recv_message(
    reader: asyncio.StreamReader, *, codec: str = PICKLE
) -> Optional[Dict[str, Any]]:
    """Read one framed message; ``None`` when the peer closed the
    connection (cleanly or not).

    Raises:
        ClusterProtocolError: On an oversized or unparseable frame —
            the stream cannot be resynchronised after either.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ClusterProtocolError(
            f"cluster frame of {length} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit (corrupted stream?)"
        )
    try:
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError, OSError):
        return None
    return _decode_payload(payload, codec)


def send_frame(
    sock: "socket.socket", message: Dict[str, Any], *, codec: str = PICKLE
) -> None:
    """Blocking-socket twin of :func:`send_message`.

    The tuning service's synchronous :class:`~repro.service.ServiceClient`
    talks the same frames as the asyncio peers but from a plain
    ``socket`` — sharing :func:`encode_message` keeps the two sides
    incapable of drifting apart.
    """
    sock.sendall(encode_message(message, codec=codec))


def recv_frame(
    sock: "socket.socket", *, codec: str = PICKLE
) -> Optional[Dict[str, Any]]:
    """Blocking-socket twin of :func:`recv_message`.

    Returns ``None`` when the peer closed the connection.

    Raises:
        ClusterProtocolError: On an oversized or unparseable frame.
    """
    header = _recv_exactly(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ClusterProtocolError(
            f"cluster frame of {length} bytes exceeds the "
            f"{MAX_MESSAGE_BYTES}-byte limit (corrupted stream?)"
        )
    payload = _recv_exactly(sock, length)
    if payload is None:
        return None
    return _decode_payload(payload, codec)


def _recv_exactly(sock: "socket.socket", count: int) -> Optional[bytes]:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except (ConnectionError, OSError):
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def check_version(message: Dict[str, Any], who: str) -> None:
    """Refuse to talk across protocol versions.

    Raises:
        ClusterProtocolError: On a version mismatch.
    """
    version = message.get("version")
    if version != PROTOCOL_VERSION:
        raise ClusterProtocolError(
            f"{who} speaks cluster protocol {version!r}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )
