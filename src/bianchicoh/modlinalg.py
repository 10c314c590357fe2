"""Exact linear algebra over Z/q for prime q.

Matrices are numpy int64 arrays with entries reduced to 0..q-1; all
elimination uses modular inverses (q prime), so ranks and kernels are
exact.  Kernel bases are returned in reduced row-echelon form, which
makes them canonical: recomputing from any generating set of the same
subspace yields the same matrix.  That is what lets sparse_kernel_basis,
which eliminates SparseRows (numpy (row, column, value) arrays) in
rounds of independent pivots until the live block is dense and hands
the rest to the dense kernel, return exactly the matrix that
kernel_basis returns on the dense form of the same rows, wherever the
rounds stop.  rref works in panels of columns and brings the columns
right of a panel up to date with one product.

Products go through mulmod.  A large one runs in float64 through BLAS
in chunks of k terms with (q - 1)^2 * k < 2^53, so every partial sum is
an integer below 2^53 and exact; when such chunks would be shorter than
a panel (q above about 1.2 * 10^7) it runs in int64 in chunks that keep
every partial sum below 2^63.  The sparse pass reduces each product of
two residues before it sums them, and the row certificate does so when
a row is long enough to need it.  With q < 2^31 (the bound that
CoefficientModulus enforces) every product and sum here is exact.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import ConstructionFailure, ShapeMismatch

_INT64_MAX = 2**63 - 1
# Every integer up to 2^53 is a float64.
_FLOAT_EXACT = 2**53
# Columns per panel of rref.
_PANEL = 64
# Multiply-adds from which a product pays for its float64 copies; the
# first BLAS call of a process also maps about 0.4 MiB of work buffers.
_BLAS_MIN = 1 << 16
# The sparse pass stops once its live entries times this reach live rows
# times live columns; the rows left go to the dense kernel.
_DENSITY = 4


def mulmod(x, y, q: int) -> np.ndarray:
    """x @ y mod q for int64 arrays with entries in [0, q), computed exactly.

    A product of at least _BLAS_MIN multiply-adds runs in float64
    through BLAS when chunks of k terms with (q - 1)^2 * k < 2^53 hold
    at least _PANEL terms.  Else it runs in int64, in chunks of at most
    (2^63 - 1) // (q - 1)^2 terms.  Either way every partial sum is an
    exact integer.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    n = x.shape[-1]
    sq = max(1, (q - 1) ** 2)
    step = (_FLOAT_EXACT - 1) // sq
    if step >= _PANEL and x.size * y.size // max(n, 1) >= _BLAS_MIN:
        x, y = x.astype(np.float64), y.astype(np.float64)
    else:
        step = _INT64_MAX // sq
    # reduced in int64, which is much faster than the float64 remainder
    if n <= step:
        return np.matmul(x, y).astype(np.int64) % q
    return sum(np.matmul(x[..., s:s + step], y[s:s + step]).astype(np.int64)
               % q for s in range(0, n, step)) % q


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
    """Reduced row-echelon form and its pivot columns.

    Panel-blocked.  The columns are taken _PANEL at a time.  Rows r..
    (those without a pivot yet) are eliminated on the panel columns one
    pivot at a time, and beside them z records each row as multiples of
    the panel's pivot rows as they first read: when row i becomes the
    t-th pivot row, z[i, t] = 1, and every row operation acts on z too.
    The columns right of the panel are then brought up to date at once,
    tail = tail (pivot rows zeroed) + z @ (their tail as first read),
    and the new pivot columns are cleared from the rows above with one
    more product.  Both products go through mulmod.  The RREF is
    canonical, so the result equals that of one pivot at a time.
    """
    q = m.q
    a = m.arr.copy()
    nr, nc = a.shape
    pivots = []
    # entries may fall this many pivots' worth of (q - 1)^2 below 0
    # before a reduction, which keeps them above -2^62
    every = _INT64_MAX // 2 // (q - 1) ** 2
    r = c1 = 0
    while c1 < nc and r < nr:
        # the last panel takes up to 2 * _PANEL columns: z costs about as
        # much per pivot as a tail of _PANEL columns saves
        c0 = c1
        c1 = c0 + _PANEL if nc - c0 > 2 * _PANEL else nc
        w, r0, tail = c1 - c0, r, c1 < nc
        # b: rows r0.. of the panel (a view of a when nothing is right of
        # it), then z
        b = a[r0:, c0:c1]
        if tail:
            z = np.zeros((nr - r0, min(w, nr - r0)), np.int64)
            b = np.concatenate((b, z), axis=1)
        i = lag = 0
        for j in range(w):
            if r0 + i >= nr:
                break
            b[:, j] %= q
            nz = np.nonzero(b[i:, j])[0]
            if nz.size == 0:
                continue
            p = i + int(nz[0])
            if p != i:
                b[[i, p]] = b[[p, i]]
                if tail:
                    a[[r0 + i, r0 + p], c1:] = a[[r0 + p, r0 + i], c1:]
            if tail:
                b[i, w + i] = 1
            b[i] = b[i] % q * _inv(b[i, j], q) % q
            f = b[:, j].copy()
            f[i] = 0
            # row i is 0 left of j and in z right of column i
            live = b[:, j:w + i + 1]
            live -= np.outer(f, live[i])
            lag += 1
            if lag == every:
                b %= q
                lag = 0
            pivots.append(c0 + j)
            i += 1
        b %= q
        r = r0 + i
        if tail:
            a[r0:, c0:c1] = b[:, :w]
            if i:
                first = a[r0:r, c1:].copy()
                a[r0:r, c1:] = 0
                a[r0:, c1:] += mulmod(b[:, w:w + i], first, q)
                a[r0:, c1:] %= q
        if i and r0:
            new = pivots[-i:]
            a[:r0, c0:] -= mulmod(a[:r0, new], a[r0:r, c0:], q)
            a[:r0, c0:] %= q
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
    sorted and coalesced.  Structured Gaussian elimination runs in
    rounds of independent pivots until the live block is dense: it stops
    once its entries times _DENSITY reach its live rows times its live
    columns.  In a round the rows of weight at most 2 * lightest are the
    candidates, each on its column with the fewest live rows (ties to
    the lowest column).  In (weight, column count) order a candidate is
    accepted when its pivot column lies in no accepted row and its row
    holds no accepted pivot column.  The pivot rows P are scaled to 1 at
    their columns C, and every other row R becomes R - R[:, C] P in one
    gather.  The dense kernel of the rows left, over the columns without
    a pivot, is back-substituted round by round in reverse,
    x[C] = -P_offdiag x, and brought to RREF: the result is
    kernel_basis(MatQ(q, dense rows)).  The rows left must hold no pivot
    column (ConstructionFailure otherwise).  Every input row is then
    checked to vanish on every basis vector, which proves that the basis
    lies in the kernel; that it spans the kernel rests on the
    elimination alone.

    Round lemma.  No accepted pivot row holds another pivot column of
    its round, so each is unchanged by the other eliminations of the
    round, and the simultaneous update equals any sequential order.
    After the round no live row holds a column of C, so each pivot row
    reads only free columns and pivots of later rounds, which the
    reverse back-substitution has filled in.

    Stopping lemma.  After any round the pivot rows and the live rows
    span the input rows, and the live rows vanish on every pivot column.
    So x lies in the kernel exactly when the live rows vanish on its free
    columns and x[C] is back-substituted from them: the kernel is the
    same space whichever round the pass stops after, and its RREF basis
    is unique.  The result is the canonical RREF kernel, whatever the
    order of the pivots and the stopping point.
    """
    keep = rows.v % q != 0
    r, c, v = rows.r[keep], rows.c[keep], rows.v[keep] % q
    rounds = []  # (C, pivot of each off-diagonal entry, its column, value)
    free = np.ones(ncols, dtype=bool)
    while r.size:
        first = _starts(r).nonzero()[0]
        count = np.bincount(c, minlength=ncols)
        if r.size * _DENSITY >= first.size * np.count_nonzero(count):
            break
        bounds = np.append(first, r.size)
        weight = bounds[1:] - first
        row = np.repeat(np.arange(first.size), weight)
        key = count[c] * ncols + c
        best = np.minimum.reduceat(key, first)
        at = key == best[row]  # the pivot entry of each row
        cand = np.flatnonzero(weight <= 2 * weight.min())
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
    if not free[c].all():  # the round lemma, checked
        raise ConstructionFailure("a pivot column is still live")
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

    One gather per basis row: each entry times its coordinate, summed
    per row in int64 and then reduced; no row is made dense.  The
    products are reduced before the sum only when a row is long enough
    that its sum of products below (q - 1)^2 could reach 2^63.
    """
    r, c, q = rows.r, rows.c, basis.q
    v = rows.v % q
    at = _starts(r).nonzero()[0]
    longest = int(np.diff(np.append(at, r.size)).max(initial=0))
    reduce = longest * (q - 1) ** 2 > _INT64_MAX
    sums = np.zeros((rows.nrows, basis.nrows), dtype=np.int64)
    if at.size:
        for k, b in enumerate(basis.arr):
            prod = b[c] * v
            sums[r[at], k] = np.add.reduceat(prod % q if reduce else prod,
                                             at) % q
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
