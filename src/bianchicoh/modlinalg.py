"""Exact linear algebra over Z/q for prime q.

Matrices are numpy int64 arrays with entries reduced to 0..q-1; all
elimination uses modular inverses (q prime), so ranks and kernels are
exact.  Kernel bases are returned in reduced row-echelon form, which
makes them canonical: recomputing from any generating set of the same
subspace yields the same matrix.  That is what lets sparse_kernel_basis,
which eliminates sparse rows before a dense step, return exactly the
matrix that kernel_basis returns on the dense form of the same rows.

Products go through mulmod, which splits the inner dimension so that no
int64 partial sum reaches 2^63; with q < 2^31 (the bound that
CoefficientModulus enforces) every product and sum here is exact.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

from .errors import ConstructionFailure, ShapeMismatch

_INT64_MAX = 2**63 - 1
# The sparse pass stops once the lightest live row has more entries than
# this; the rows left go to the dense kernel.
SPARSE_WEIGHT_CAP = 32
# Bound on the entries of one temporary array in the row certificate.
_CHUNK_CELLS = 1 << 20


def mulmod(x, y, q: int) -> np.ndarray:
    """x @ y mod q for int64 arrays with entries in [0, q), computed exactly.

    The inner dimension is split into chunks of at most
    (2^63 - 1) // (q - 1)^2 terms, so no partial sum overflows.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    n = x.shape[-1]
    step = max(1, _INT64_MAX // max(1, (q - 1) ** 2))
    if n <= step:
        return (x @ y) % q
    return sum((x[..., s:s + step] @ y[s:s + step]) % q
               for s in range(0, n, step)) % q


class MatQ:
    """A matrix over Z/q."""

    __slots__ = ("q", "arr")

    def __init__(self, q: int, data):
        self.q = q
        arr = np.array(data, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, 0)
        elif arr.ndim == 0:
            arr = arr.reshape(0, 0)
        self.arr = np.mod(arr, q)

    @staticmethod
    def identity(q: int, n: int) -> "MatQ":
        return MatQ(q, np.eye(n, dtype=np.int64))

    @property
    def nrows(self) -> int:
        return self.arr.shape[0]

    @property
    def ncols(self) -> int:
        return self.arr.shape[1]

    def __matmul__(self, other: "MatQ") -> "MatQ":
        self._same_q(other)
        if self.ncols != other.nrows:
            raise ShapeMismatch(
                f"cannot multiply {self.arr.shape} by {other.arr.shape}"
            )
        return MatQ(self.q, mulmod(self.arr, other.arr, self.q))

    def __add__(self, other: "MatQ") -> "MatQ":
        self._same_q(other)
        if self.arr.shape != other.arr.shape:
            raise ShapeMismatch("shape mismatch in addition")
        return MatQ(self.q, self.arr + other.arr)

    def __sub__(self, other: "MatQ") -> "MatQ":
        self._same_q(other)
        if self.arr.shape != other.arr.shape:
            raise ShapeMismatch("shape mismatch in subtraction")
        return MatQ(self.q, self.arr - other.arr)

    def __eq__(self, other):
        return (
            isinstance(other, MatQ)
            and self.q == other.q
            and self.arr.shape == other.arr.shape
            and bool(np.array_equal(self.arr, other.arr))
        )

    def __hash__(self):
        return hash((self.q, self.arr.shape, self.arr.tobytes()))

    def _same_q(self, other):
        if self.q != other.q:
            raise ShapeMismatch(f"moduli differ: {self.q} vs {other.q}")

    def transpose(self) -> "MatQ":
        return MatQ(self.q, self.arr.T)

    def is_zero(self) -> bool:
        return bool(np.all(self.arr == 0))

    def to_lists(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.arr]

    def __repr__(self):
        return f"MatQ(q={self.q}, {self.arr.shape[0]}x{self.arr.shape[1]})"


def block_diag2(m: MatQ) -> MatQ:
    """diag(m, m), acting on two stacked copies of the coordinates."""
    r, c = m.nrows, m.ncols
    arr = np.zeros((2 * r, 2 * c), dtype=np.int64)
    arr[:r, :c] = m.arr
    arr[r:, c:] = m.arr
    return MatQ(m.q, arr)


def _inv(a: int, q: int) -> int:
    return pow(int(a), q - 2, q)


def rref(m: MatQ) -> tuple[MatQ, tuple[int, ...]]:
    """Reduced row-echelon form and its pivot columns."""
    q = m.q
    a = m.arr.copy()
    nr, nc = a.shape
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        a[r] = (a[r] * _inv(a[r, c], q)) % q
        rest = np.nonzero(a[:, c])[0]
        rest = rest[rest != r]
        if rest.size:
            a[rest] = (a[rest] - np.outer(a[rest, c], a[r])) % q
        pivots.append(c)
        r += 1
    return MatQ(q, a[:r]), tuple(pivots)


def rank(m: MatQ) -> int:
    return len(rref(m)[1])


def kernel_basis(m: MatQ) -> MatQ:
    """Canonical basis (RREF rows) of the right kernel {v : m v = 0}."""
    q = m.q
    red, pivots = rref(m)
    nc = m.ncols
    pivset = set(pivots)
    free = [c for c in range(nc) if c not in pivset]
    if not free:
        return MatQ(q, np.zeros((0, nc), dtype=np.int64))
    rows = np.zeros((len(free), nc), dtype=np.int64)
    for i, fc in enumerate(free):
        rows[i, fc] = 1
        for r, pc in enumerate(pivots):
            rows[i, pc] = (-red.arr[r, fc]) % q
    return rref(MatQ(q, rows))[0]


def sparse_kernel_basis(rows, ncols: int, q: int) -> MatQ:
    """kernel_basis of the matrix with sparse rows {column: integer}.

    Structured Gaussian elimination: pop the lightest live row, pivot on
    its column with the fewest live rows (ties to the lowest column), and
    clear that column from the other rows; stop once the lightest row
    has more than SPARSE_WEIGHT_CAP entries.  The dense kernel of the
    rows left, over the columns without a pivot, is back-substituted
    through the pivot rows and brought to RREF, so the result equals
    kernel_basis(MatQ(q, dense rows)).  Every input row is then checked
    to pair to 0 with every basis vector.
    """
    live: dict[int, dict[int, int]] = {}
    for i, row in enumerate(rows):
        red = {j: v % q for j, v in row.items() if v % q}
        if red:
            live[i] = red
    cols: list[set[int]] = [set() for _ in range(ncols)]
    for i, row in live.items():
        for j in row:
            cols[j].add(i)
    heap = [(len(row), i) for i, row in live.items()]
    heapify(heap)
    pivots: list[tuple[int, dict[int, int]]] = []
    while heap:
        weight, i = heap[0]
        row = live.get(i)
        if row is None or len(row) != weight:
            heappop(heap)  # stale entry
            continue
        if weight > SPARSE_WEIGHT_CAP:
            break
        heappop(heap)
        del live[i]
        c = min(row, key=lambda j: (len(cols[j]), j))
        inv = _inv(row[c], q)
        if inv != 1:
            row = {j: v * inv % q for j, v in row.items()}
        for j in row:
            cols[j].discard(i)
        for k in list(cols[c]):
            other = live[k]
            f = other[c]
            for j, v in row.items():
                nv = (other.get(j, 0) - f * v) % q
                if nv:
                    if j not in other:
                        cols[j].add(k)
                    other[j] = nv
                else:
                    del other[j]
                    cols[j].discard(k)
            if other:
                heappush(heap, (len(other), k))
            else:
                del live[k]
        pivots.append((c, row))
    pivset = {c for c, _ in pivots}
    free = [j for j in range(ncols) if j not in pivset]
    pos = {j: t for t, j in enumerate(free)}
    rest = np.zeros((len(live), len(free)), dtype=np.int64)
    for t, i in enumerate(sorted(live)):
        for j, v in live[i].items():
            rest[t, pos[j]] = v
    sub = kernel_basis(MatQ(q, rest))
    k = sub.nrows
    if k == 0:
        return MatQ(q, np.zeros((0, ncols), dtype=np.int64))
    # x[j] holds coordinate j of all k kernel vectors
    x = np.zeros((ncols, k), dtype=np.int64)
    x[free] = sub.arr.T
    for c, row in reversed(pivots):
        acc = np.zeros(k, dtype=np.int64)
        for j, v in row.items():
            if j != c:
                acc = (acc + v * x[j]) % q
        x[c] = (-acc) % q
    basis = rref(MatQ(q, x.T))[0]
    _check_annihilates(rows, basis)
    return basis


def _check_annihilates(rows, basis: MatQ):
    """Raise ConstructionFailure unless row . v = 0 mod q for all pairs."""
    bad = np.flatnonzero(sparse_values(basis, rows).arr.any(axis=0))
    if bad.size:
        raise ConstructionFailure(
            f"row {int(bad[0])} does not vanish on the kernel basis"
        )


def sparse_values(basis: MatQ, rows) -> MatQ:
    """basis @ dense(rows).T for sparse integer rows {column: value}.

    Entry [i, k] is the value of basis row i on row k.  Each entry of
    each row is paired with its column of basis.arr.T, in chunks of at
    most _CHUNK_CELLS cells, and summed per row; no dense row is formed.
    """
    q = basis.q
    k = basis.nrows
    sums = np.zeros((len(rows), k), dtype=np.int64)
    ri, cj, vals = [], [], []
    for i, row in enumerate(rows):
        ri += [i] * len(row)
        cj += row.keys()
        vals += row.values()
    if vals and k:
        ri = np.asarray(ri, dtype=np.int64)
        cj = np.asarray(cj, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.int64) % q
        bt = basis.arr.T
        step = max(1, _CHUNK_CELLS // k)
        for s in range(0, len(vals), step):
            r = ri[s:s + step]
            prod = (bt[cj[s:s + step]] * vals[s:s + step, None]) % q
            starts = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
            seg = np.add.reduceat(prod, starts, axis=0) % q
            sums[r[starts]] = (sums[r[starts]] + seg) % q
    return MatQ(q, sums.T)


def left_kernel(m: MatQ) -> MatQ:
    """Canonical basis of the left kernel {v : v m = 0} (as rows)."""
    return kernel_basis(m.transpose())


def fixed_space(op: MatQ) -> MatQ:
    """Canonical basis of the fixed space ker(op - 1) of a square matrix."""
    if op.nrows != op.ncols:
        raise ShapeMismatch(f"fixed_space needs a square matrix, got {op!r}")
    return kernel_basis(op - MatQ.identity(op.q, op.nrows))


def project_rows(basis: MatQ, images) -> tuple[np.ndarray, int | None]:
    """Coordinates in an RREF basis of every row of images.

    Checks once that basis is in reduced row-echelon form (ValueError
    otherwise), reads the coordinates of all rows off the pivot columns
    and rebuilds the rows from them.  Returns (coords, None) when every
    row lies in the row space, else (coords, index of the first row
    that does not); the caller raises its own error.
    """
    q = basis.q
    imgs = np.mod(np.asarray(images, dtype=np.int64), q)
    red, pivots = rref(basis)
    if red.nrows != basis.nrows or not (red == basis):
        raise ValueError("basis must be in reduced row-echelon form")
    coords = imgs[:, list(pivots)]
    recon = mulmod(coords, basis.arr, q) if pivots else np.zeros_like(imgs)
    bad = np.flatnonzero((recon != imgs).any(axis=1))
    return coords, (int(bad[0]) if bad.size else None)


def coordinates_in_rowspace(basis: MatQ, v) -> np.ndarray | None:
    """Coordinates of the row vector v in an RREF basis, or None.

    Reads coefficients off the pivot columns; returns None when v is
    not in the row space.
    """
    q = basis.q
    vv = np.mod(np.asarray(v, dtype=np.int64), q)
    red, pivots = rref(basis)
    if red.nrows != basis.nrows or not (red == basis):
        raise ValueError("basis must be in reduced row-echelon form")
    coords = vv[list(pivots)] if pivots else np.zeros(0, dtype=np.int64)
    recon = mulmod(coords, basis.arr, q) if basis.nrows else np.zeros_like(vv)
    if not np.array_equal(recon, vv):
        return None
    return coords
