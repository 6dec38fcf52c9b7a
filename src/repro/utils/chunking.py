"""Row-chunking primitives shared by the out-of-core execution path.

The memory-bounded pipeline (:mod:`repro.sim.chunked`) never materializes an
``(n, d)`` population matrix: generators yield *chunks* of users and the
aggregators fold each chunk into O(d log d) running sums.  Two invariants make
that path reproducible:

* **fixed blocks** — randomness is always attached to *blocks* of
  :data:`DEFAULT_BLOCK_ROWS` consecutive users (one ``SeedSequence`` child per
  block, spawned from the root in block order).  The block plan depends only
  on ``(n, block_rows)``, never on how a caller slices the stream, so any
  chunk size reproduces the same bits;
* **lossless re-grouping** — :func:`iter_row_groups` re-slices an arbitrary
  stream of row-chunks into exact groups without dropping, duplicating or
  reordering rows, copying only across group boundaries.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["DEFAULT_BLOCK_ROWS", "plan_row_blocks", "iter_row_groups"]

#: Users per randomness block.  Chosen so one block's transient working set
#: (float64 scores + their row-partitioned copy during sampling, report
#: matrices during randomization) stays in the tens of megabytes even at
#: d=1024, while numpy kernels still amortize their per-call overhead.
DEFAULT_BLOCK_ROWS = 8192


def plan_row_blocks(total: int, block_rows: int) -> list[tuple[int, int]]:
    """Split ``total`` rows into contiguous ``[start, stop)`` blocks.

    The plan depends only on ``(total, block_rows)`` — never on how the rows
    are later streamed — which is what makes per-block seeding invariant to
    the caller's chunk size.

    >>> plan_row_blocks(10, 4)
    [(0, 4), (4, 8), (8, 10)]
    """
    if total < 1:
        raise ValueError(f"total must be at least 1, got {total}")
    if block_rows < 1:
        raise ValueError(f"block_rows must be at least 1, got {block_rows}")
    return [
        (start, min(start + block_rows, total))
        for start in range(0, total, block_rows)
    ]


def iter_row_groups(
    chunks: Iterable[np.ndarray], rows_per_group: int
) -> Iterator[np.ndarray]:
    """Re-slice a stream of row-chunks into groups of ``rows_per_group`` rows.

    Rows are passed through in order, none dropped or duplicated; the final
    group may be short.  Slices that fall inside one incoming chunk are
    yielded as views (no copy); only groups spanning a chunk boundary are
    concatenated.

    >>> parts = [np.arange(5), np.arange(5, 7), np.arange(7, 12)]
    >>> [group.tolist() for group in iter_row_groups(parts, 4)]
    [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
    """
    if rows_per_group < 1:
        raise ValueError(f"rows_per_group must be at least 1, got {rows_per_group}")
    buffer: list[np.ndarray] = []
    buffered = 0
    for chunk in chunks:
        array = np.asarray(chunk)
        while array.shape[0]:
            if not buffer and array.shape[0] >= rows_per_group:
                yield array[:rows_per_group]
                array = array[rows_per_group:]
                continue
            take = min(rows_per_group - buffered, array.shape[0])
            buffer.append(array[:take])
            buffered += take
            array = array[take:]
            if buffered == rows_per_group:
                yield buffer[0] if len(buffer) == 1 else np.concatenate(buffer)
                buffer, buffered = [], 0
    if buffered:
        yield buffer[0] if len(buffer) == 1 else np.concatenate(buffer)
