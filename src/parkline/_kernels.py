"""Backend names and int64 radix checks.

Backends: "numpy" (the default) counts words on (occupied set, state)
pairs (`procedures.count_landing`), asking the rule once per pair and
letter; "python" runs the per-word engine
(`procedures.run_engine`) on every word, the independent reference.
Call sites choose one via `backend=`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

BACKENDS = ("numpy", "python")


class RadixOverflowError(OverflowError):
    """Mixed-radix word indices or orbit keys would not fit in int64."""


def resolve_backend(backend: str | None) -> str:
    if backend is None:
        return "numpy"
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    return backend


def radix_weights(base: int, r: int) -> np.ndarray:
    """int64 place values base^(r-1), ..., base, 1 of length-r numbers in
    radix `base`. Raises RadixOverflowError unless every such number,
    up to base^r - 1, fits in int64."""
    import numpy as np

    if base**r - 1 > np.iinfo(np.int64).max:
        raise RadixOverflowError(
            f"{base}^{r} words overflow int64 indices and keys"
        )
    return base ** np.arange(r - 1, -1, -1, dtype=np.int64)
