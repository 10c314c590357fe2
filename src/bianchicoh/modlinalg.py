"""Exact linear algebra over Z/q for prime q.

Matrices are numpy int64 arrays with entries reduced to 0..q-1; all
elimination uses modular inverses (q prime), so ranks and kernels are
exact.  Kernel bases are returned in reduced row-echelon form, which
makes them canonical: recomputing from any generating set of the same
subspace yields the same matrix.  That is what lets sparse_kernel_basis,
which eliminates SparseRows (numpy (row, column, value) arrays) in
rounds of independent pivots before a dense step, return exactly the
matrix that kernel_basis returns on the dense form of the same rows.

Products go through mulmod, which splits the inner dimension so that no
int64 partial sum reaches 2^63; the sparse pass reduces each product of
two residues before it sums them.  With q < 2^31 (the bound that
CoefficientModulus enforces) every product and sum here is exact.
"""

from __future__ import annotations

from itertools import chain

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


class SparseRows:
    """nrows integer rows as int64 arrays r, c, v sorted by (row, column),
    one entry per key and no zero value; len() is nrows, empty rows too."""

    __slots__ = ("r", "c", "v", "nrows")

    def __init__(self, r, c, v, nrows: int):
        self.r, self.c, self.v, self.nrows = r, c, v, nrows

    def __len__(self):
        return self.nrows


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
    free = sorted(set(range(nc)).difference(pivots))
    if not free:
        return MatQ(q, np.zeros((0, nc), dtype=np.int64))
    rows = np.zeros((len(free), nc), dtype=np.int64)
    rows[np.arange(len(free)), free] = 1
    rows[:, list(pivots)] = -red.arr[:, free].T % q
    return rref(MatQ(q, rows))[0]


def sparse_kernel_basis(rows: SparseRows, ncols: int, q: int) -> MatQ:
    """kernel_basis of the integer matrix rows, mod q.

    The values are reduced mod q and zeros dropped; the rows arrive
    sorted and coalesced.  Structured Gaussian elimination in rounds of
    independent pivots stops once the lightest live row has more than
    SPARSE_WEIGHT_CAP entries.  Else the rows of weight at most
    min(SPARSE_WEIGHT_CAP, 2 * lightest) are the candidates, each on its
    column with the fewest live rows (ties to the lowest column).  In
    (weight, column count) order a candidate is accepted when its pivot
    column lies in no accepted row and its row holds no accepted pivot
    column.  The pivot rows P are scaled to 1 at their columns C, and
    every other row R becomes R - R[:, C] P in one gather.  The dense
    kernel of the rows left, over the columns without a pivot, is
    back-substituted round by round in reverse, x[C] = -P_offdiag x, and
    brought to RREF: the result is kernel_basis(MatQ(q, dense rows)).
    Every input row is then checked to vanish on every basis vector,
    which proves that the basis lies in the kernel; that it spans the
    kernel rests on the elimination alone.

    Round lemma.  No accepted pivot row holds another pivot column of
    its round, so each is unchanged by the other eliminations of the
    round, and the simultaneous update equals any sequential order.
    After the round no live row holds a column of C, so each pivot row
    reads only free columns and pivots of later rounds, which the
    reverse back-substitution has filled in.  The result is the
    canonical RREF kernel, whatever the order of the pivots.
    """
    keep = rows.v % q != 0
    r, c, v = rows.r[keep], rows.c[keep], rows.v[keep] % q
    rounds = []  # (C, pivot of each off-diagonal entry, its column, value)
    free = np.ones(ncols, dtype=bool)
    while r.size:
        first = _starts(r).nonzero()[0]
        bounds = np.append(first, r.size)
        weight = bounds[1:] - first
        if weight.min() > SPARSE_WEIGHT_CAP:
            break
        row = np.repeat(np.arange(first.size), weight)
        key = np.bincount(c, minlength=ncols)[c] * ncols + c
        best = np.minimum.reduceat(key, first)
        at = key == best[row]  # the pivot entry of each row
        cand = np.flatnonzero(weight <= min(SPARSE_WEIGHT_CAP,
                                            2 * weight.min()))
        piv, cols, bounds = c[at].tolist(), c.tolist(), bounds.tolist()
        in_row, is_piv, accepted = set(), set(), []
        for i in cand[np.lexsort((best[cand], weight[cand]))].tolist():
            span = cols[bounds[i]:bounds[i + 1]]
            if piv[i] not in in_row and is_piv.isdisjoint(span):
                accepted.append(i)
                is_piv.add(piv[i])
                in_row.update(span)
        take = np.bincount(accepted, minlength=first.size) > 0
        C = c[at][take]
        free[C] = False
        inv = np.array([_inv(a, q) for a in v[at][take].tolist()])
        pe = take[row]
        pk = (np.cumsum(take) - 1)[row[pe]]  # sorted pivot numbers
        pc, pv = c[pe], v[pe] * inv[pk] % q
        colk = np.full(ncols, -1)
        colk[C] = np.arange(C.size)
        hit = (hk := np.where(pe, -1, colk[c])) >= 0
        count = np.bincount(pk, minlength=C.size)
        n, seg = count[hk[hit]], (np.cumsum(count) - count)[hk[hit]]
        idx = np.repeat(seg - np.cumsum(n) + n, n) + np.arange(n.sum())
        r, c, v = _summed(
            np.concatenate((r[~pe], np.repeat(r[hit], n))),
            np.concatenate((c[~pe], pc[idx])),
            np.concatenate((v[~pe], -(np.repeat(v[hit], n) * pv[idx]) % q)),
            ncols, q)
        off = ~at[pe]
        rounds.append((C, pk[off], pc[off], pv[off]))
    row = np.cumsum(_starts(r)) - 1
    rest = np.zeros((row.size and row[-1] + 1, free.sum()), dtype=np.int64)
    rest[row, (np.cumsum(free) - 1)[c]] = v
    sub = kernel_basis(MatQ(q, rest))
    if (k := sub.nrows) == 0:
        return MatQ(q, np.zeros((0, ncols), dtype=np.int64))
    # x[j] holds coordinate j of all k kernel vectors
    x = np.zeros((ncols, k), dtype=np.int64)
    x[free] = sub.arr.T
    for C, pk, pc, pv in reversed(rounds):
        acc = np.zeros((C.size, k), dtype=np.int64)
        np.add.at(acc, pk, pv[:, None] * x[pc] % q)
        x[C] = -acc % q
    basis = rref(MatQ(q, x.T))[0]
    bad = np.flatnonzero(_pairings(basis, rows).any(axis=1))
    if bad.size:
        raise ConstructionFailure(
            f"row {int(bad[0])} does not vanish on the kernel basis")
    return basis


def _coo(rows, ncols: int, q: int) -> SparseRows:
    """Sparse rows {column: integer} as SparseRows of their values mod q."""
    r = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    c = np.fromiter(chain.from_iterable(rows), np.int64, r.size)
    v = np.fromiter(chain.from_iterable(row.values() for row in rows),
                    np.int64, r.size)
    return SparseRows(*_summed(r, c, v % q, ncols, q), len(rows))


def _summed(r, c, v, ncols: int, q: int):
    """Entries sorted by (r, c), duplicate keys summed mod q, zeros dropped
    (each v a residue, a key repeated at most row weight + 1 times)."""
    key = r * ncols + c
    order = np.argsort(key, kind="stable")
    first = _starts(key[order]).nonzero()[0]
    v = np.add.reduceat(v[order], first)
    v[v >= q] %= q
    keep = order[first][v != 0]
    return r[keep], c[keep], v[v != 0]


def _starts(a) -> np.ndarray:
    """True at each entry of a sorted array that differs from the last."""
    return np.concatenate((a[:1] == a[:1], a[1:] != a[:-1]))


def sparse_values(basis: MatQ, rows) -> MatQ:
    """basis @ dense(rows).T for sparse integer rows {column: value}."""
    return MatQ(basis.q, _pairings(basis, _coo(rows, basis.ncols, basis.q)).T)


def _pairings(basis: MatQ, rows: SparseRows) -> np.ndarray:
    """Row k: the values of row k of the integer rows on the basis rows.

    Each entry, reduced mod q, meets its column of basis.arr.T in chunks
    of at most _CHUNK_CELLS cells, summed per row; no row is made dense.
    """
    r, c, v, q, k = rows.r, rows.c, rows.v, basis.q, basis.nrows
    sums = np.zeros((rows.nrows, k), dtype=np.int64)
    step = max(1, _CHUNK_CELLS // max(k, 1))
    for s in range(0, v.size if k else 0, step):
        rs = r[s:s + step]
        prod = basis.arr.T[c[s:s + step]] * (v[s:s + step, None] % q) % q
        starts = _starts(rs).nonzero()[0]
        seg = np.add.reduceat(prod, starts, axis=0) % q
        sums[rs[starts]] = (sums[rs[starts]] + seg) % q
    return sums


def left_kernel(m: MatQ) -> MatQ:
    """Canonical basis of the left kernel {v : v m = 0} (as rows)."""
    return kernel_basis(m.transpose())


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

    project_rows on the one row v; None when v is not in the row space.
    """
    coords, bad = project_rows(basis, [v])
    return None if bad is not None else coords[0]
