"""Lazy operation streams for paper-scale leaf bodies.

The paper's benchmarks run at 10^7..10^12 gates; materializing a leaf's
full operation list before scheduling caps the pipeline orders of
magnitude below that. An :class:`OpStream` is a *replayable* source of
:class:`~repro.core.operation.Operation` objects: iterating it yields the
leaf's ops one at a time, in program order, and a fresh iteration always
replays the identical sequence (the streaming pipeline consumes a leaf
more than once — once per candidate width, plus movement derivation).

Replayability is the load-bearing contract: the windowed scheduler
(:mod:`repro.sched.stream`) promises bit-identical schedules to the
materialized pipeline, which it can only do if every pass over the
stream observes the same ops in the same order. Streams are therefore
built from pure *factories* (zero-argument callables returning a fresh
iterator), never from half-consumed generators.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence

from .operation import Operation

__all__ = [
    "OpStream",
    "ListStream",
    "GeneratorStream",
    "as_stream",
    "iter_chunks",
    "materialize",
]


class OpStream:
    """Abstract replayable stream of operations.

    Subclasses implement :meth:`__iter__` to yield ``Operation`` objects
    in program order; every fresh iteration must replay the identical
    sequence. ``length_hint`` is advisory (``None`` = unknown) and used
    only for progress reporting and preallocation, never correctness.
    """

    length_hint: Optional[int] = None

    def __iter__(self) -> Iterator[Operation]:  # pragma: no cover - abstract
        raise NotImplementedError

    def __len__(self) -> int:
        if self.length_hint is None:
            raise TypeError("stream length unknown (length_hint is None)")
        return self.length_hint


class ListStream(OpStream):
    """A stream over an already-materialized operation sequence."""

    def __init__(self, ops: Sequence[Operation]):
        self._ops = ops
        self.length_hint = len(ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops)


class GeneratorStream(OpStream):
    """A stream backed by a generator *factory*.

    ``factory`` must be a zero-argument callable returning a fresh
    iterator over the same op sequence each call — that is what makes
    the stream replayable. Passing an already-started generator is a
    bug the first replay would silently corrupt, so iteration calls the
    factory anew every time.
    """

    def __init__(
        self,
        factory: Callable[[], Iterator[Operation]],
        length_hint: Optional[int] = None,
    ):
        self._factory = factory
        self.length_hint = length_hint

    def __iter__(self) -> Iterator[Operation]:
        return self._factory()


def as_stream(source) -> OpStream:
    """Coerce a stream source to an :class:`OpStream`.

    Accepts an existing stream (returned as-is), a module (its body must
    be gates only), or any operation sequence.
    """
    if isinstance(source, OpStream):
        return source
    # Late import: core.module does not depend on opstream.
    from .module import Module

    if isinstance(source, Module):
        if not source.is_leaf:
            raise ValueError(
                f"module {source.name!r} is not a leaf; "
                "flatten it first (passes.stream.stream_flatten)"
            )
        return ListStream(source.body)
    return ListStream(list(source))


def iter_chunks(
    stream: OpStream, window: Optional[int]
) -> Iterator[List[Operation]]:
    """Iterate ``stream`` in chunks of at most ``window`` ops.

    ``window=None`` is the unbounded window: the whole stream
    materializes as one chunk (the memory profile of the materialized
    pipeline). A finite window bounds how many ``Operation`` objects are
    ever alive at once; the consumer must drop each chunk before
    requesting the next for the bound to hold.
    """
    if window is None:
        ops = list(stream)
        if ops:
            yield ops
        return
    if window < 1:
        raise ValueError(f"window must be >= 1 or None, got {window}")
    chunk: List[Operation] = []
    for op in stream:
        chunk.append(op)
        if len(chunk) >= window:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


def materialize(stream: OpStream) -> List[Operation]:
    """Fully expand a stream (small inputs / tests only)."""
    return list(stream)
