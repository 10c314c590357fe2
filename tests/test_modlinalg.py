"""Linear algebra over Z/q: RREF, dense and sparse kernels, fixed spaces."""

from __future__ import annotations

import random

import numpy as np
import pytest

import bianchicoh.modlinalg as modlinalg
from bianchicoh.errors import ConstructionFailure, ShapeMismatch
from bianchicoh.ideals import parse_ideal
from bianchicoh.modlinalg import (
    _BLAS_MIN,
    _DENSITY,
    _PANEL,
    MatQ,
    coordinates_in_rowspace,
    kernel_basis,
    left_kernel,
    mulmod,
    project_rows,
    rank,
    rref,
    sparse_kernel_basis,
    sparse_values,
)
from bianchicoh.qfield import field
from bianchicoh.schreier import CongCtx
from oracles import (
    dense_rows,
    heap_sparse_kernel_basis,
    loop_kernel_basis,
    loop_rref,
    matpow,
    row_dicts,
    sparse_rows,
)
from test_cohom import FROZEN_DIMS


def _random_mat(rng, q, r, c):
    return MatQ(q, [[rng.randrange(q) for _ in range(c)] for _ in range(r)])


def test_constructor_normalizes_mod_q():
    m = MatQ(5, [[7, -1], [10, 4]])
    assert m.to_lists() == [[2, 4], [0, 4]]
    assert MatQ(5, []).nrows == 0


def test_empty_two_dimensional_shapes_are_kept():
    assert MatQ(5, np.zeros((3, 0), dtype=np.int64)).arr.shape == (3, 0)
    assert MatQ(5, np.zeros((0, 4), dtype=np.int64)).arr.shape == (0, 4)
    assert MatQ(5, []).arr.shape == (0, 0)
    two_by_zero = MatQ(5, np.zeros((2, 0), dtype=np.int64))
    assert two_by_zero.transpose().arr.shape == (0, 2)


def test_matmul_add_sub_shapes():
    a = MatQ(7, [[1, 2], [3, 4]])
    b = MatQ(7, [[1, 0, 1], [0, 1, 1]])
    assert (a @ b).to_lists() == [[1, 2, 3], [3, 4, 0]]
    with pytest.raises(ShapeMismatch):
        b @ a
    with pytest.raises(ShapeMismatch):
        a + b
    assert (a - a).is_zero()
    with pytest.raises(ValueError):
        a @ MatQ(5, [[1, 1], [1, 1]])


def test_rref_is_idempotent_and_canonical():
    rng = random.Random(5)
    for q in (5, 7, 13):
        for _ in range(30):
            m = _random_mat(rng, q, rng.randrange(1, 6), rng.randrange(1, 6))
            red, pivots = rref(m)
            red2, pivots2 = rref(red)
            assert red == red2 and pivots == pivots2
            # pivot columns are standard basis vectors
            for r, c in enumerate(pivots):
                col = red.arr[:, c]
                assert col[r] == 1 and np.count_nonzero(col) == 1


def test_rank_plus_nullity():
    rng = random.Random(6)
    for _ in range(40):
        q = rng.choice((5, 11))
        m = _random_mat(rng, q, rng.randrange(1, 7), rng.randrange(1, 7))
        k = kernel_basis(m)
        assert rank(m) + k.nrows == m.ncols
        if k.nrows:
            assert (m @ k.transpose()).is_zero()


def test_left_kernel_annihilates_from_the_left():
    rng = random.Random(7)
    for _ in range(20):
        m = _random_mat(rng, 5, rng.randrange(1, 6), rng.randrange(1, 6))
        lk = left_kernel(m)
        assert lk.nrows + rank(m) == m.nrows
        if lk.nrows:
            assert (lk @ m).is_zero()


def test_kernel_of_full_rank_matrix_is_empty():
    m = MatQ(7, [[1, 0], [0, 1], [3, 4]])
    assert kernel_basis(m).nrows == 0


def test_left_kernel_of_op_minus_identity_is_the_left_fixed_space():
    """left_kernel(op - I) solves v op = v for row vectors v.

    That is how unit_invariants reads its operator, whose rows are the
    images of the basis; kernel_basis(op - I) gives the right fixed line.
    """
    q = 5
    # op maps e1 -> e1 + e2, e2 -> e2 (columns act on the right of op)
    op = MatQ(q, [[1, 0], [1, 1]])
    minus = op - MatQ.identity(q, 2)
    fs = left_kernel(minus)
    assert fs.nrows == 1
    v = fs.arr[0]
    assert np.array_equal((v @ op.arr) % q, v)
    right = kernel_basis(minus)
    assert right.nrows == 1
    w = right.arr[0]
    assert np.array_equal((op.arr @ w) % q, w)
    assert not np.array_equal(v, w)
    with pytest.raises(ShapeMismatch):
        MatQ(q, [[1, 2, 3]]) - MatQ.identity(q, 1)


def test_matpow_matches_repeated_multiplication():
    rng = random.Random(8)
    m = _random_mat(rng, 7, 4, 4)
    acc = MatQ.identity(7, 4)
    for k in range(6):
        assert matpow(m, k) == acc
        acc = acc @ m
    with pytest.raises(ShapeMismatch):
        matpow(MatQ(7, [[1, 2]]), 2)


def test_coordinates_in_rowspace():
    q = 5
    basis = rref(MatQ(q, [[1, 2, 0], [0, 0, 1]]))[0]
    v = (2 * basis.arr[0] + 3 * basis.arr[1]) % q
    coords = coordinates_in_rowspace(basis, v)
    assert coords is not None and list(coords) == [2, 3]
    assert coordinates_in_rowspace(basis, [0, 1, 0]) is None
    with pytest.raises(ValueError):
        coordinates_in_rowspace(MatQ(q, [[2, 0, 0]]), [1, 0, 0])


def test_coordinates_random_round_trip():
    rng = random.Random(9)
    for _ in range(25):
        q = 7
        m = _random_mat(rng, q, 3, 6)
        basis = rref(m)[0]
        if not basis.nrows:
            continue
        coeffs = [rng.randrange(q) for _ in range(basis.nrows)]
        v = np.mod(np.array(coeffs) @ basis.arr, q)
        coords = coordinates_in_rowspace(basis, v)
        assert coords is not None
        assert np.array_equal(np.mod(coords @ basis.arr, q), v)


def test_products_exact_at_the_largest_modulus():
    q = 2147483647  # the largest prime below 2^31
    rng = random.Random(8)
    a = [[q - 1] * 7 for _ in range(3)]
    b = [[q - 1] * 2 for _ in range(7)]
    expected = [[sum(x * y for x, y in zip(row, col)) % q
                 for col in zip(*b)] for row in a]
    assert (MatQ(q, a) @ MatQ(q, b)).to_lists() == expected == [[7, 7]] * 3
    for _ in range(20):
        n = rng.randrange(1, 40)
        x = [rng.randrange(q) for _ in range(n)]
        y = [[rng.randrange(q) for _ in range(3)] for _ in range(n)]
        want = [sum(x[i] * y[i][j] for i in range(n)) % q for j in range(3)]
        assert mulmod(np.array(x), np.array(y), q).tolist() == want
    basis = rref(MatQ(q, [[q - 1] * 5, [1, 2, 3, 4, q - 2]]))[0]
    v = (MatQ(q, [[q - 1, q - 2]]) @ basis).arr[0]
    assert coordinates_in_rowspace(basis, v).tolist() == [q - 1, q - 2]
    coords, bad = project_rows(basis, [v])
    assert bad is None and coords.tolist() == [[q - 1, q - 2]]
    want = [[(int(row[0]) * (q - 1) - int(row[4])) % q] for row in basis.arr]
    assert sparse_values(basis, [{0: q - 1, 4: -1}]).to_lists() == want


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, int(n ** 0.5) + 1))


# the largest prime whose products of _PANEL terms stay below 2^53, so
# that mulmod runs in float64, and the next prime, which runs in int64
FLOAT_MAX_PRIME = next(q for q in range(int((2**53 / _PANEL) ** 0.5) + 1,
                                        2, -1)
                       if (q - 1) ** 2 * _PANEL < 2**53 and _is_prime(q))
INT_MIN_PRIME = next(q for q in range(FLOAT_MAX_PRIME + 1, 2**31)
                     if _is_prime(q))


def _rank_deficient(rng, q, nrows, ncols):
    """A random nrows x ncols matrix mod q in which about a third of the
    columns and of the rows are sums of two others, and a few columns
    are zero."""
    a = rng.integers(0, q, (nrows, ncols))
    for j in rng.choice(ncols, size=ncols // 3, replace=False):
        a[:, j] = (a[:, rng.integers(ncols)] + a[:, rng.integers(ncols)]) % q
    for i in rng.choice(nrows, size=nrows // 3, replace=False):
        a[i] = (a[rng.integers(nrows)] + a[rng.integers(nrows)]) % q
    a[:, rng.choice(ncols, size=ncols // 5, replace=False)] = 0
    return MatQ(q, a)


def test_blocked_rref_equals_the_loop_judge(monkeypatch):
    """rref in panels == one pivot at a time, on both product paths.

    Widths around one and two panels, zero columns inside a panel, rank
    deficiency and empty shapes.  The spy shows which dtype the panel
    products ran in at each modulus: float64 for products of at least
    _BLAS_MIN multiply-adds where the modulus allows it, else int64.
    """
    matmul = np.matmul
    dtypes = []

    def spy(x, y, *args, **kwargs):
        big = x.size * y.size // max(x.shape[-1], 1) >= _BLAS_MIN
        dtypes.append((x.dtype, big))
        return matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    rng = np.random.default_rng(19)
    widths = (_PANEL - 1, _PANEL, _PANEL + 1, 2 * _PANEL + 1, 3 * _PANEL + 1)
    for q, dtype in ((5, np.float64), (FLOAT_MAX_PRIME, np.float64),
                     (INT_MIN_PRIME, np.int64), (2147483647, np.int64)):
        dtypes.clear()
        shapes = ((0, 5), (5, 0), (0, 0), (1, 1), (3, 2 * _PANEL + 1))
        cases = [MatQ(q, np.zeros(shape, dtype=np.int64)) for shape in shapes]
        cases.append(MatQ(q, [[rng.integers(1, q)]]))
        for w in widths:
            for nrows in (w // 3, w + 7):
                cases += [_rank_deficient(rng, q, nrows, w),
                          MatQ(q, rng.integers(0, q, (nrows, w)))]
        for m in cases:
            red, pivots = rref(m)
            assert (red, pivots) == loop_rref(m), (q, m.arr.shape)
        kinds = {t for t, _ in dtypes}
        if dtype is np.float64:  # a chunk of a large product may be small
            assert np.dtype(dtype) in kinds, q
            assert (np.dtype(np.int64), True) not in dtypes, q
        else:
            assert kinds == {np.dtype(np.int64)}, q


def _dense_kernel(rows, ncols, q):
    dense = dense_rows(row_dicts(rows), ncols)
    return loop_kernel_basis(MatQ(q, np.array(dense, dtype=np.int64)
                                  .reshape(-1, ncols)))


JUDGE_MODULI = (2, 3, 5, 2147483647)
# the inspect dims levels of the dims-large-d2 benchmark workload
LARGE_D2_LEVELS = ("(9+11*w)", "(19+7*w)", "(23)")


def test_sparse_kernel_equals_dense_kernel_on_relator_matrices(
        monkeypatch):
    """Rounds of pivots == one heap pivot at a time == the dense kernel.

    The two stop the sparse pass at different points (the density rule,
    a weight cap), which does not change the kernel; at (19+7*w) the
    rounds leave a dense tail.  The dense kernel takes about a second
    per modulus at the large levels and is compared at the extreme
    moduli only.
    """
    levels = sorted({(d, text) for d, text, _, _ in FROZEN_DIMS})
    levels += [(2, text) for text in LARGE_D2_LEVELS]
    remainders = []
    dense = modlinalg.kernel_basis

    def spy(m):
        remainders.append(m.nrows)
        return dense(m)

    monkeypatch.setattr(modlinalg, "kernel_basis", spy)
    for d, text in levels:
        ctx = field(d)
        cc = CongCtx(parse_ideal(ctx, text), ctx)
        ncols = len(cc.sgen_edges)
        for q in JUDGE_MODULI:
            remainders.clear()
            got = sparse_kernel_basis(cc.relmat, ncols, q)
            if text == "(19+7*w)":  # the sparse pass left a dense tail
                assert remainders[0] > 0, q
            assert got == heap_sparse_kernel_basis(cc.relmat, ncols, q), (
                d, text, q)
            if text not in LARGE_D2_LEVELS or q in (2, 2147483647):
                assert got == _dense_kernel(cc.relmat, ncols, q), (d, text, q)


def test_sparse_kernel_equals_the_heap_judge_on_random_light_rows():
    rng = random.Random(41)
    for trial in range(240):
        q = JUDGE_MODULI[trial % len(JUDGE_MODULI)]
        ncols = rng.randrange(1, 16)
        rows = []
        for _ in range(rng.randrange(0, 20)):
            if rows and rng.random() < 0.15:
                rows.append(dict(rng.choice(rows)))  # a duplicate row
            elif rng.random() < 0.1:
                rows.append({j: q * rng.randint(-3, 3)  # a zero row
                             for j in rng.sample(range(ncols),
                                                 min(2, ncols))})
            else:
                # the last column is never touched
                cols = range(ncols - 1)
                rows.append({j: rng.randint(-3 * q, 3 * q) for j in
                             rng.sample(cols, min(rng.randrange(6),
                                                  len(cols)))})
        # integer values: the kernel itself must reduce and drop them
        rows = sparse_rows(rows)
        got = sparse_kernel_basis(rows, ncols, q)
        assert got == heap_sparse_kernel_basis(rows, ncols, q), trial
        assert got == _dense_kernel(rows, ncols, q), trial


def test_sparse_kernel_certificate_catches_a_wrong_pivot_inverse(
        monkeypatch):
    """A pivot row not scaled to 1 leaves its column in the other rows.

    The wrong inverse is used by the sparse pivots only; once the dense
    remainder is reached the true one returns.  The check before the
    dense step finds the pivot column still live.  At (3+1*w) the basis
    the fault gives is empty, which the row certificate cannot tell from
    a true one.
    """
    true_inv, dense = modlinalg._inv, modlinalg.kernel_basis
    wrong, dense_started = [], []

    def wrong_inv(a, q):
        if dense_started:
            return true_inv(a, q)
        wrong.append(a)
        return 2 * true_inv(a, q) % q

    def spy(m):
        dense_started.append(m.nrows)
        return dense(m)

    monkeypatch.setattr(modlinalg, "kernel_basis", spy)
    ctx = field(2)
    for text, dim in (("(3+1*w)", 3), ("(9+11*w)", 10)):
        cc = CongCtx(parse_ideal(ctx, text), ctx)
        ncols = len(cc.sgen_edges)
        monkeypatch.setattr(modlinalg, "_inv", true_inv)
        assert sparse_kernel_basis(cc.relmat, ncols, 5).nrows == dim
        dense_started.clear()
        wrong.clear()
        monkeypatch.setattr(modlinalg, "_inv", wrong_inv)
        with pytest.raises(ConstructionFailure, match="still live"):
            sparse_kernel_basis(cc.relmat, ncols, 5)
        assert wrong and not dense_started, text


def _heavy_rows(rng, nrows, ncols, weight):
    return [
        {j: rng.randrange(-4, 5) for j in rng.sample(range(ncols), weight)}
        for _ in range(nrows)
    ]


def test_sparse_kernel_with_a_dense_remainder(monkeypatch):
    rng = random.Random(31)
    remainders = []
    dense = modlinalg.kernel_basis

    def spy(m):
        remainders.append(m.nrows)
        return dense(m)

    monkeypatch.setattr(modlinalg, "kernel_basis", spy)
    ncols = 96
    for trial in range(12):
        # rows dense enough that the density rule stops the sparse pass
        weight = rng.randrange(ncols // _DENSITY + 1, ncols + 1)
        rows = _heavy_rows(rng, rng.randrange(1, ncols + 8), ncols, weight)
        # light rows, zero and empty rows and duplicates ride along
        rows += [{j: 1 for j in rng.sample(range(ncols), 3)} for _ in range(5)]
        rows += [{}, {0: 0, 1: 5 * 7}, dict(rows[0])]
        rows = sparse_rows(rows)
        for q in (5, 7, 2147483647):
            remainders.clear()
            sparse = sparse_kernel_basis(rows, ncols, q)
            assert remainders and remainders[0] > 0, trial
            assert sparse == _dense_kernel(rows, ncols, q), (trial, q)


def test_sparse_kernel_edge_shapes():
    def kernel(rows, ncols, q):
        return sparse_kernel_basis(sparse_rows(rows), ncols, q)

    assert kernel([], 3, 5) == MatQ.identity(5, 3)
    assert kernel([{}, {1: 10}], 2, 5) == MatQ.identity(5, 2)
    assert kernel([{0: 1}, {1: 3}], 2, 7).nrows == 0
    assert kernel([], 0, 5).arr.shape == (0, 0)


def test_sparse_kernel_certificate_catches_a_wrong_basis(monkeypatch):
    rng = random.Random(37)
    ncols = 64
    rows = sparse_rows(_heavy_rows(rng, 8, ncols, ncols // _DENSITY + 4))
    remainders = []

    def identity_kernel(m):
        remainders.append(m.nrows)
        return MatQ.identity(m.q, m.ncols)

    # a remainder kernel that ignores the remaining rows
    monkeypatch.setattr(modlinalg, "kernel_basis", identity_kernel)
    with pytest.raises(ConstructionFailure, match="does not vanish"):
        sparse_kernel_basis(rows, ncols, 5)
    assert remainders[0] > 0


def test_project_rows_equals_the_per_row_projection():
    rng = random.Random(67)
    for q in (5, 7, 2147483647):
        for _ in range(30):
            basis = rref(_random_mat(rng, q, rng.randrange(0, 5), 7))[0]
            rows = []
            for _ in range(rng.randrange(1, 8)):
                if basis.nrows and rng.random() < 0.7:
                    coeffs = [rng.randrange(q) for _ in range(basis.nrows)]
                    rows.append(mulmod(np.array(coeffs), basis.arr, q))
                else:
                    rows.append(np.array([rng.randrange(q) for _ in range(7)]))
            coords, bad = project_rows(basis, np.array(rows))
            want = [coordinates_in_rowspace(basis, r) for r in rows]
            assert bad == next(
                (i for i, c in enumerate(want) if c is None), None)
            for got, c in zip(coords, want):
                if c is not None:
                    assert got.tolist() == c.tolist()
    with pytest.raises(ValueError):
        project_rows(MatQ(5, [[2, 0, 0]]), [[1, 0, 0]])


def test_sparse_values_equal_the_dense_product():
    rng = random.Random(73)
    for q in (5, 2147483647):
        for nrows in (0, 1, 3):
            basis = _random_mat(rng, q, nrows, 9)
            rows = [
                {j: rng.randint(-3 * q, 3 * q)
                 for j in rng.sample(range(9), rng.randrange(0, 6))}
                for _ in range(rng.randrange(0, 6))
            ]
            dense = MatQ(q, np.array(dense_rows(rows, 9),
                                     dtype=object).reshape(-1, 9) % q)
            got = sparse_values(basis, rows)
            assert got.arr.shape == (nrows, len(rows))
            if nrows and rows:
                assert got == basis @ dense.transpose()
            else:
                assert not got.arr.any()
