"""Distributed evaluation plane: farm pure evaluations across a fleet.

:class:`~repro.core.backends.EvaluationRequest` is a picklable,
self-verifying bundle of primitives — one lane chunk of candidate
configurations, named by benchmark and machine — precisely so
candidate evaluations can leave the machine; this package takes that
step.  It follows the event-driven coordinator/worker design of Dask's
distributed scheduler (SNIPPETS.md #1): a single asyncio TCP
**coordinator** owns a queue of evaluation tasks and farms them to a
fleet of **workers** — local threads, local processes, or remote hosts
— while **clients** (the :class:`~repro.core.backends.ClusterEvaluator`
behind ``backend="cluster"``) submit cache-miss requests and collect
results.

The plane is a *pure-compute* accelerator: workers only ever run the
order-independent half of candidate evaluation
(:func:`~repro.core.backends.evaluate_request`, which answers with what
:meth:`~repro.core.fitness.Evaluator.compute_batch_flagged` returns:
each lane's outcome, with its decision path if the worker simulated
it), and the requesting tuner grows its own trees from the paths and
commits results through the same ordered-commit machinery as every
other backend, so tuning reports are bit-for-bit identical to serial
no matter where — or how many times — a simulation ran.

Robustness:

* workers send **heartbeats**; one that goes silent past the timeout
  is declared dead and its in-flight tasks are re-dispatched;
* a dropped worker connection re-dispatches immediately (no timeout
  wait);
* workers may **join and leave at any time** — a late joiner starts
  draining the queue on arrival, and clients learn the fleet width so
  speculation depth can grow with it;
* tasks stuck on a **straggler** past a configurable age are
  speculatively duplicated onto an idle worker; the first result wins
  (duplicates are harmless — evaluations are pure).

Run a fleet from the command line::

    python -m repro.cluster coordinator --bind 0.0.0.0:7733
    python -m repro.cluster worker --connect coordinator-host:7733

and point tuners at it with ``backend="cluster"`` plus
``cluster_address="coordinator-host:7733"`` (or the
``REPRO_CLUSTER_ADDRESS`` environment variable).  Without an address,
``backend="cluster"`` self-hosts an in-process loopback fleet of
``cluster_workers`` workers — the same code path the determinism
matrix locks down.
"""

from __future__ import annotations

from repro.cluster.client import ClusterClient
from repro.cluster.coordinator import Coordinator, CoordinatorHandle
from repro.cluster.local import LocalCluster
from repro.cluster.protocol import PROTOCOL_VERSION, parse_address
from repro.cluster.worker import Worker, WorkerHandle, start_worker_thread
from repro.errors import ClusterError, ClusterProtocolError, ClusterUnavailable

__all__ = [
    "ClusterClient",
    "ClusterError",
    "ClusterProtocolError",
    "ClusterUnavailable",
    "Coordinator",
    "CoordinatorHandle",
    "LocalCluster",
    "PROTOCOL_VERSION",
    "Worker",
    "WorkerHandle",
    "parse_address",
    "start_worker_thread",
]
