"""Linear algebra over Z/q: RREF, dense and sparse kernels, fixed spaces."""

from __future__ import annotations

import random

import numpy as np
import pytest

import bianchicoh.modlinalg as modlinalg
from bianchicoh.errors import ConstructionFailure, ShapeMismatch
from bianchicoh.ideals import parse_ideal
from bianchicoh.modlinalg import (
    SPARSE_WEIGHT_CAP,
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
from oracles import dense_rows, matpow


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


def _dense_kernel(rows, ncols, q):
    return kernel_basis(MatQ(q, np.array(dense_rows(rows, ncols),
                                         dtype=np.int64).reshape(-1, ncols)))


def test_sparse_kernel_equals_dense_kernel_on_relator_matrices():
    levels = {1: "(2+5*w)", 2: "(3+1*w)", 3: "(1+5*w)", 7: "(1+2*w)",
              11: "(1-2*w)"}
    for d, text in levels.items():
        ctx = field(d)
        cc = CongCtx(parse_ideal(ctx, text), ctx)
        for q in (5, 2147483647):
            sparse = sparse_kernel_basis(cc.relmat, len(cc.sgens), q)
            assert sparse == _dense_kernel(cc.relmat, len(cc.sgens), q), (d, q)


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
    ncols = 3 * SPARSE_WEIGHT_CAP
    for trial in range(12):
        weight = rng.randrange(SPARSE_WEIGHT_CAP + 1, ncols + 1)
        rows = _heavy_rows(rng, rng.randrange(1, ncols + 8), ncols, weight)
        # light rows, zero and empty rows and duplicates ride along
        rows += [{j: 1 for j in rng.sample(range(ncols), 3)} for _ in range(5)]
        rows += [{}, {0: 0, 1: 5 * 7}, dict(rows[0])]
        for q in (5, 7, 2147483647):
            remainders.clear()
            sparse = sparse_kernel_basis(rows, ncols, q)
            assert remainders and remainders[0] > 0, trial
            assert sparse == _dense_kernel(rows, ncols, q), (trial, q)


def test_sparse_kernel_edge_shapes():
    assert sparse_kernel_basis([], 3, 5) == MatQ.identity(5, 3)
    assert sparse_kernel_basis([{}, {1: 10}], 2, 5) == MatQ.identity(5, 2)
    assert sparse_kernel_basis([{0: 1}, {1: 3}], 2, 7).nrows == 0
    assert sparse_kernel_basis([], 0, 5).arr.shape == (0, 0)


def test_sparse_kernel_certificate_catches_a_wrong_basis(monkeypatch):
    rng = random.Random(37)
    ncols = 2 * SPARSE_WEIGHT_CAP
    rows = _heavy_rows(rng, 8, ncols, SPARSE_WEIGHT_CAP + 4)

    def identity_kernel(m):
        return MatQ.identity(m.q, m.ncols)

    # a remainder kernel that ignores the remaining rows
    monkeypatch.setattr(modlinalg, "kernel_basis", identity_kernel)
    with pytest.raises(ConstructionFailure, match="does not vanish"):
        sparse_kernel_basis(rows, ncols, 5)


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
