"""A cluster worker: connects to a coordinator and evaluates requests.

Workers are stateless — every task carries a complete, self-verifying
:class:`~repro.core.backends.EvaluationRequest` (one lane chunk), and
the handler (:func:`repro.core.backends.evaluate_request` by default)
rebuilds its evaluator from the benchmark registry, memoised per
``(app, machine, seed, cache_dir)``, and answers with each lane's pure
outcome and, for each lane it simulated, the decision path its
requester grows its own trees from.  A worker can therefore serve any
number of concurrent tuning sessions over any number of programs, and
joining or leaving mid-tune is always safe.

Tasks run on a thread pool of ``slots`` threads while the asyncio side
stays responsive for heartbeats, so a long simulation never makes the
coordinator think the worker died.
"""

from __future__ import annotations

import asyncio
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional

from repro.faults import fault_point

from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    check_version,
    parse_address,
    recv_message,
    send_message,
    send_nowait,
)
from repro.errors import ClusterProtocolError, ClusterUnavailable

log = logging.getLogger(__name__)


def _default_handler(request: Any) -> Any:
    # Imported lazily: repro.core.backends imports this package's client
    # for ClusterEvaluator, so a module-level import would be circular.
    from repro.core.backends import evaluate_request

    return evaluate_request(request)


class Worker:
    """One worker process/thread serving a coordinator.

    Args:
        address: Coordinator ``host:port``.
        slots: Concurrent evaluations this worker offers.
        heartbeat_interval: Seconds between heartbeats.
        name: Advertised name (defaults to ``worker``; the coordinator
            suffixes a unique id either way).
        handler: The function applied to each request; overridable for
            tests.  Defaults to
            :func:`repro.core.backends.evaluate_request`.
    """

    def __init__(
        self,
        address: str,
        *,
        slots: int = 1,
        heartbeat_interval: float = 2.0,
        name: Optional[str] = None,
        handler: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        self.address = address
        self.slots = max(1, slots)
        self.heartbeat_interval = heartbeat_interval
        self.name = name or "worker"
        self.handler = handler or _default_handler
        self._writer: Optional[asyncio.StreamWriter] = None
        self._stopping = False
        self._on_ready: Optional[Callable[[], None]] = None

    async def run(self) -> None:
        """Connect, serve tasks until the coordinator goes away."""
        host, port = parse_address(self.address)
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as exc:
            raise ClusterUnavailable(
                f"cannot reach cluster coordinator at {self.address}: {exc}"
            ) from exc
        self._writer = writer
        await send_message(
            writer,
            {
                "type": "hello",
                "role": "worker",
                "version": PROTOCOL_VERSION,
                "name": self.name,
                "slots": self.slots,
            },
        )
        welcome = await recv_message(reader)
        if welcome is None:
            raise ClusterUnavailable(
                f"coordinator at {self.address} hung up during the handshake"
            )
        if welcome.get("type") != "welcome":
            raise ClusterProtocolError(
                f"coordinator at {self.address} did not answer the hello"
            )
        check_version(welcome, "coordinator")
        log.info("worker connected to %s with %d slot(s)", self.address, self.slots)
        if self._on_ready is not None:
            self._on_ready()

        loop = asyncio.get_running_loop()
        executor = ThreadPoolExecutor(
            max_workers=self.slots, thread_name_prefix="repro-cluster-eval"
        )
        heartbeat = loop.create_task(self._heartbeat_loop(writer))
        running: set = set()
        try:
            while True:
                message = await recv_message(reader)
                if message is None:
                    if not self._stopping:
                        log.info("coordinator at %s went away", self.address)
                    return
                kind = message.get("type")
                if kind == "task":
                    task = loop.create_task(
                        self._run_task(
                            loop, executor, writer,
                            message["task_id"], message["request"],
                        )
                    )
                    running.add(task)
                    task.add_done_callback(running.discard)
                elif kind in ("welcome", "fleet"):
                    continue
                else:
                    log.warning("coordinator sent unexpected %r", kind)
        finally:
            heartbeat.cancel()
            for task in running:
                task.cancel()
            executor.shutdown(wait=False)
            writer.close()

    async def _run_task(
        self,
        loop: asyncio.AbstractEventLoop,
        executor: ThreadPoolExecutor,
        writer: asyncio.StreamWriter,
        task_id: str,
        request: Any,
    ) -> None:
        try:
            result = await loop.run_in_executor(
                executor, self._apply_handler, request
            )
        except Exception as exc:
            send_nowait(
                writer,
                {"type": "error", "task_id": task_id,
                 "message": f"{type(exc).__name__}: {exc}"},
            )
        else:
            fault = fault_point("worker.result_ack")
            if fault is not None and fault.kind == "crash":
                # The host dies after computing but before acking: the
                # coordinator sees the connection drop and re-dispatches
                # this very task to a surviving worker.
                log.warning(
                    "injected crash before acking task %s", task_id
                )
                transport = writer.transport
                if transport is not None:
                    transport.abort()
                self._stopping = True
                return
            send_nowait(
                writer, {"type": "result", "task_id": task_id, "result": result}
            )

    def _apply_handler(self, request: Any) -> Any:
        fault = fault_point("worker.compute")
        if fault is not None and fault.kind in ("delay", "slow"):
            time.sleep(fault.seconds)  # a straggler
        return self.handler(request)

    async def _heartbeat_loop(self, writer: asyncio.StreamWriter) -> None:
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            fault = fault_point("worker.heartbeat")
            if fault is not None and fault.kind in ("delay", "slow"):
                # A stalled host: heartbeats arrive late enough for the
                # coordinator's reaper to (rightly) declare this worker
                # dead and re-dispatch its tasks.
                await asyncio.sleep(fault.seconds)
            send_nowait(writer, {"type": "heartbeat"})

    def request_stop(self) -> None:
        """Ask the run loop to exit by closing the transport."""
        self._stopping = True
        writer = self._writer
        if writer is not None:
            writer.close()


class WorkerHandle:
    """A worker running its own event loop on a daemon thread.

    ``stop()`` closes the connection cleanly; ``kill()`` aborts the
    transport without any goodbye, which is how tests simulate a worker
    host dying mid-evaluation (the coordinator sees the connection drop
    and re-dispatches the worker's in-flight tasks).
    """

    def __init__(self, worker: Worker) -> None:
        self.worker = worker
        self._loop = asyncio.new_event_loop()
        started = threading.Event()
        self._failure: Optional[BaseException] = None

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self._main(started))
            except Exception as exc:  # surfaced via join()
                self._failure = exc
                started.set()
            finally:
                self._loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-cluster-worker", daemon=True
        )
        self._thread.start()
        started.wait(timeout=10.0)
        if self._failure is not None:
            raise self._failure

    async def _main(self, started: threading.Event) -> None:
        # `started` fires once the hello/welcome handshake completes; a
        # connect or handshake failure instead propagates out of run()
        # and reaches the handle constructor via _failure.
        self.worker._on_ready = started.set
        try:
            await self.worker.run()
        except asyncio.CancelledError:
            pass

    def stop(self, timeout: float = 10.0) -> None:
        """Disconnect cleanly and wait for the worker thread to exit."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.worker.request_stop)
            self._thread.join(timeout=timeout)

    def kill(self, timeout: float = 10.0) -> None:
        """Abort the transport — no goodbye, as if the host died."""

        def _abort() -> None:
            writer = self.worker._writer
            if writer is not None:
                transport = writer.transport
                if transport is not None:
                    transport.abort()
            self.worker._stopping = True

        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(_abort)
            self._thread.join(timeout=timeout)

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    def __enter__(self) -> "WorkerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def start_worker_thread(
    address: str,
    *,
    slots: int = 1,
    heartbeat_interval: float = 2.0,
    name: Optional[str] = None,
    handler: Optional[Callable[[Any], Any]] = None,
) -> WorkerHandle:
    """Spawn a loopback worker on a daemon thread and return its handle."""
    worker = Worker(
        address,
        slots=slots,
        heartbeat_interval=heartbeat_interval,
        name=name,
        handler=handler,
    )
    return WorkerHandle(worker)
