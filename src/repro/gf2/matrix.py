"""Dense GF(2) matrices backed by numpy uint8 arrays.

Only the operations needed by the LFSR unrolling and overlay derivation are
implemented; everything reduces mod 2 eagerly so values stay in {0, 1}.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class GF2Matrix:
    """A dense matrix over GF(2).

    The underlying storage is ``numpy.uint8`` with entries restricted to
    {0, 1}.  Multiplication uses integer matmul followed by ``& 1``, which
    is both exact and fast for the matrix sizes this project needs
    (LFSR widths up to a few hundred, scan chains up to a few thousand).
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray | Sequence[Sequence[int]]):
        arr = np.asarray(data, dtype=np.uint8)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {arr.shape}")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("GF(2) matrix entries must be 0 or 1")
        self.data = arr

    # -- construction helpers -------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "GF2Matrix":
        return cls(np.array(list(rows), dtype=np.uint8))

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def n_rows(self) -> int:
        return int(self.data.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.data.shape[1])

    # -- algebra ---------------------------------------------------------------
    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.n_cols != other.n_rows:
            raise ValueError(
                f"shape mismatch: {self.shape} @ {other.shape}"
            )
        product = (self.data.astype(np.uint32) @ other.data.astype(np.uint32)) & 1
        return GF2Matrix(product.astype(np.uint8))

    def __add__(self, other: "GF2Matrix") -> "GF2Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        return GF2Matrix(self.data ^ other.data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.all(self.data == other.data))

    def __hash__(self) -> int:  # pragma: no cover - matrices are not dict keys
        return hash(self.data.tobytes())

    def mul_vec(self, vec: Sequence[int]) -> list[int]:
        """Matrix-vector product over GF(2); ``vec`` is a plain bit list."""
        v = np.asarray(vec, dtype=np.uint32)
        if v.shape != (self.n_cols,):
            raise ValueError(
                f"vector length {v.shape} incompatible with {self.shape}"
            )
        return list(((self.data.astype(np.uint32) @ v) & 1).astype(int))

    def pow(self, exponent: int) -> "GF2Matrix":
        """Matrix power by square-and-multiply (exponent >= 0)."""
        if exponent < 0:
            raise ValueError("negative exponents are not supported")
        if self.n_rows != self.n_cols:
            raise ValueError("matrix power requires a square matrix")
        result = identity(self.n_rows)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    def row(self, index: int) -> list[int]:
        return list(self.data[index].astype(int))

    def transpose(self) -> "GF2Matrix":
        return GF2Matrix(self.data.T.copy())

    def copy(self) -> "GF2Matrix":
        return GF2Matrix(self.data.copy())

    def __repr__(self) -> str:
        return f"GF2Matrix(shape={self.shape})"


def identity(n: int) -> GF2Matrix:
    """The n-by-n identity matrix over GF(2)."""
    return GF2Matrix(np.eye(n, dtype=np.uint8))


def zeros(n_rows: int, n_cols: int) -> GF2Matrix:
    """An all-zero GF(2) matrix of the given shape."""
    return GF2Matrix(np.zeros((n_rows, n_cols), dtype=np.uint8))
