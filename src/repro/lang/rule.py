"""Rules: the executable choices inside a transform.

A rule pairs an executable body (operating on real numpy arrays, so
results are checkable) with the static metadata the compiler needs:

* its *dependency pattern* — data-parallel and sequential patterns can
  be mapped to OpenCL, wavefront and recursive ones cannot (paper
  Section 3.1, phase one);
* its *cost specification* — per-output-element arithmetic and memory
  traffic, and the input bounding box that gates local-memory variant
  generation (phase three);
* disqualifiers — calls to external libraries or inline native code
  prevent OpenCL conversion (phase two).

Bodies receive a :class:`RuleContext` giving region-limited views of
the matrices, the transform parameters, tunable values, and the two
structured-parallelism primitives (:meth:`RuleContext.charge` for cost
accounting and continuation-style child spawning via return values).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import LanguageError

#: Metadata values may be constants or functions of the transform params.
ParamFn = Union[float, int, Callable[[Mapping[str, float]], float]]


class Pattern(enum.Enum):
    """Dependency pattern of a rule (paper Section 3.1).

    Only ``DATA_PARALLEL`` and ``SEQUENTIAL`` patterns are eligible for
    OpenCL kernel generation; ``WAVEFRONT`` and ``RECURSIVE`` patterns
    are rejected by the dependency analysis.
    """

    #: Every output element is independent (elementwise / stencil).
    DATA_PARALLEL = "data_parallel"
    #: A sequential scan along one dimension (still OpenCL-mappable as
    #: one work-item per independent row/column).
    SEQUENTIAL = "sequential"
    #: Diagonal-front dependencies; not mappable by our implementation.
    WAVEFRONT = "wavefront"
    #: The body recursively invokes transforms (divide and conquer).
    RECURSIVE = "recursive"


def _as_fn(value: ParamFn, name: str) -> Callable[[Mapping[str, float]], float]:
    """Normalise a constant-or-callable metadata field into a callable."""
    if callable(value):
        return value
    try:
        numeric = float(value)
    except (TypeError, ValueError) as exc:
        raise LanguageError(f"cost field {name!r} must be numeric or callable") from exc
    return lambda _params, _v=numeric: _v


@dataclass(frozen=True)
class CostSpec:
    """Per-output-element cost model of a rule.

    All fields may be constants or functions of the transform's
    parameter mapping (e.g. kernel width ``kw``), because arithmetic
    intensity often depends on them: a 2-D convolution performs
    ``2*kw*kw`` flops per output element.

    Attributes:
        flops_per_item: Arithmetic operations per output element.
        bytes_read_per_item: Global-memory bytes read per output element
            in the naive version (including stencil redundancy).
        bytes_written_per_item: Bytes written per output element.
        bounding_box: Number of input elements feeding one output
            element; values > 1 enable the local-memory kernel variant.
        sequential_fraction: Fraction of the work that is inherently
            sequential (1.0 for a scalar scan); drives the CPU model.
        kernel_launches: Number of device kernel launches one
            invocation requires (cyclic reduction launches O(log n)
            kernels; elementwise rules launch once).  May depend on
            parameters, which may include the dynamic size ``n``.
        cpu_flops_per_item: Optional override of ``flops_per_item``
            for the CPU backend.  Transcendental-heavy kernels
            (Black-Scholes' exp/log/sqrt) cost far more on scalar CPU
            code than on GPU special-function units; this field lets a
            rule express that asymmetry.  ``None`` means no override.
        strided_access: True when the rule's memory accesses stride by
            large powers of two (cyclic reduction).  Such access
            patterns waste cache lines on CPUs and cause bank/partition
            conflicts on GPUs; each device charges its own
            ``strided_penalty`` on the read traffic.
    """

    flops_per_item: ParamFn = 1.0
    bytes_read_per_item: ParamFn = 8.0
    bytes_written_per_item: ParamFn = 8.0
    bounding_box: ParamFn = 1
    sequential_fraction: float = 0.0
    kernel_launches: ParamFn = 1
    cpu_flops_per_item: Optional[ParamFn] = None
    strided_access: bool = False

    @cached_property
    def _fns(self) -> Tuple[Optional[Callable[[Mapping[str, float]], float]], ...]:
        """The parametric fields as callables, built on the first
        :meth:`resolve` (a malformed field raises there) and kept."""
        return (
            _as_fn(self.flops_per_item, "flops_per_item"),
            _as_fn(self.bytes_read_per_item, "bytes_read_per_item"),
            _as_fn(self.bytes_written_per_item, "bytes_written_per_item"),
            _as_fn(self.bounding_box, "bounding_box"),
            _as_fn(self.kernel_launches, "kernel_launches"),
            (
                _as_fn(self.cpu_flops_per_item, "cpu_flops_per_item")
                if self.cpu_flops_per_item is not None
                else None
            ),
        )

    def resolve(self, params: Mapping[str, float]) -> "ResolvedCost":
        """Evaluate all fields against concrete transform parameters."""
        flops, read, written, box, launches, cpu_flops = self._fns
        return ResolvedCost(
            flops_per_item=float(flops(params)),
            bytes_read_per_item=float(read(params)),
            bytes_written_per_item=float(written(params)),
            bounding_box=int(box(params)),
            sequential_fraction=self.sequential_fraction,
            kernel_launches=max(1, int(launches(params))),
            cpu_flops_per_item=(
                float(cpu_flops(params)) if cpu_flops is not None else None
            ),
            strided_access=self.strided_access,
        )


@dataclass(frozen=True)
class ResolvedCost:
    """A :class:`CostSpec` evaluated at concrete parameter values."""

    flops_per_item: float
    bytes_read_per_item: float
    bytes_written_per_item: float
    bounding_box: int
    sequential_fraction: float
    kernel_launches: int = 1
    cpu_flops_per_item: Optional[float] = None
    strided_access: bool = False

    @property
    def effective_cpu_flops_per_item(self) -> float:
        """Per-item flops on the CPU backend (override or default)."""
        if self.cpu_flops_per_item is not None:
            return self.cpu_flops_per_item
        return self.flops_per_item


@dataclass(frozen=True)
class Rule:
    """One way of computing a transform's outputs from its inputs.

    Attributes:
        name: Rule name, unique within its transform.
        reads: Names of matrices the rule reads.
        writes: Names of matrices the rule writes.
        body: Executable body ``body(ctx) -> Optional[Continuation]``.
            Data-parallel bodies must honour ``ctx.rows`` (the slice of
            output rows to produce) so the runtime can split work
            between CPU chunks and the GPU.  Recursive bodies may
            return a continuation descriptor (see
            :mod:`repro.runtime.task`).
        pattern: Dependency pattern (drives OpenCL eligibility).
        cost: Per-element cost model.
        calls_external: True when the body calls an external library
            (LAPACK); disqualifies OpenCL conversion (paper phase two).
        has_inline_native: True when the body contains constructs with
            no OpenCL equivalent; also disqualifies conversion.
        divisible: Whether the output may be split row-wise across
            devices/tasks (False for indivisible whole-problem bodies
            such as a direct tridiagonal solve).
        opencl_hostile_platforms: Platform names whose OpenCL compiler
            rejects this kernel; models the paper's "detect by
            attempting to compile and reject" fallback.
        touches_data: False for pure driver bodies that only spawn
            child invocations without reading or writing matrix
            elements themselves.  The runtime then skips the host
            residency check and device invalidation, so data produced
            on the GPU stays there across the driver's children (e.g.
            an iteration loop whose kernels reuse device buffers).
        data_independent: True when the rule's virtual timing, cost
            charges and spawn structure depend only on array *shapes*
            and transform parameters — never on array *contents* — and
            the numeric results feed nothing but the (discarded)
            output arrays.  The batched evaluator may then run the
            rule with ``ctx.numeric`` off: the scheduler walks the
            exact same task graph with the exact same virtual costs
            while the numpy arithmetic is skipped.  Rules with
            data-dependent control flow (Sort's median pivot) must
            leave this False.
    """

    name: str
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]
    body: Callable[["RuleContext"], object]
    pattern: Pattern = Pattern.DATA_PARALLEL
    cost: CostSpec = field(default_factory=CostSpec)
    calls_external: bool = False
    has_inline_native: bool = False
    divisible: bool = True
    opencl_hostile_platforms: Tuple[str, ...] = ()
    touches_data: bool = True
    data_independent: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise LanguageError("rule name must be non-empty")
        if not self.writes:
            raise LanguageError(f"rule {self.name!r} must write at least one matrix")
        if not callable(self.body):
            raise LanguageError(f"rule {self.name!r} body must be callable")

    @property
    def is_opencl_candidate_pattern(self) -> bool:
        """Whether the dependency pattern alone permits OpenCL mapping."""
        return self.pattern in (Pattern.DATA_PARALLEL, Pattern.SEQUENTIAL)


class RuleContext:
    """Execution context handed to rule bodies.

    Provides region-limited access to matrices, transform parameters
    (user tunables arrive among them), and cost accounting.

    Attributes:
        rows: Half-open row interval ``(r0, r1)`` of the *first output*
            this body invocation must produce.  Data-parallel bodies
            must restrict writes to these rows.
        params: Transform parameter mapping (e.g. ``{"kw": 7}``).
        numeric: False when the runtime only needs the body's *shape*
            behaviour — charges and spawns — because the numeric
            results are discarded (batched lanes of a
            ``data_independent`` program).  Bodies of
            ``data_independent`` recursive rules must branch on this
            flag around their heavy array arithmetic while keeping
            every :meth:`charge` call and returned spawn identical.
    """

    def __init__(
        self,
        env: Dict[str, np.ndarray],
        params: Mapping[str, float],
        rows: Tuple[int, int],
        numeric: bool = True,
    ) -> None:
        self._env = env
        self.params = dict(params)
        self.rows = rows
        self.numeric = numeric
        self._charged_flops = 0.0
        self._charged_bytes = 0.0
        self._charged_sequential = False

    def array(self, name: str) -> np.ndarray:
        """Full backing array of a matrix (reads and writes allowed)."""
        try:
            return self._env[name]
        except KeyError as exc:
            raise LanguageError(f"matrix {name!r} not bound in this invocation") from exc

    def input(self, name: str) -> np.ndarray:
        """Alias of :meth:`array` that documents read intent."""
        return self.array(name)

    def output_rows(self, name: str) -> np.ndarray:
        """Writable view of the context's row slice of an output matrix."""
        arr = self.array(name)
        r0, r1 = self.rows
        return arr[r0:r1]

    def charge(
        self, flops: float = 0.0, mem_bytes: float = 0.0, sequential: bool = False
    ) -> None:
        """Account virtual cost for work this body performed inline.

        Bodies that delegate their cost to the rule's :class:`CostSpec`
        (all data-parallel kernels) never call this; recursive bodies
        use it for their local split/combine work.

        Args:
            flops: Arithmetic operations performed.
            mem_bytes: Bytes read + written.
            sequential: True when the work runs at scalar throughput.
        """
        if flops < 0 or mem_bytes < 0:
            raise LanguageError("charged cost must be non-negative")
        self._charged_flops += flops
        self._charged_bytes += mem_bytes
        if sequential:
            self._charged_sequential = True

    @property
    def charged(self) -> Tuple[float, float, bool]:
        """Accumulated (flops, bytes, any_sequential) charges."""
        return (self._charged_flops, self._charged_bytes, self._charged_sequential)
