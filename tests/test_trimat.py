from itertools import product

import pytest

from oracles import (
    AffineMap,
    BlockParts,
    ElementaryOp,
    IllegalDirection,
    RingMismatch,
    affine_to_matrix,
    apply_col_op,
    apply_row_op,
    block_decompose,
    classify,
    identity,
    identity_affine,
    mat_mul,
    matrix,
    scaling_map,
    sum_of,
    zero_matrix,
)
from semidec.errors import DimensionMismatch, DimensionTooSmall


def all_triangular(ring, n):
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    for combo in product(range(ring.size), repeat=len(positions)):
        ent = [[ring.zero] * n for _ in range(n)]
        for (i, j), v in zip(positions, combo):
            ent[i][j] = v
        yield matrix(ring, ent)


def test_mat_mul_examples(z2, z3, boolean):
    u = matrix(z2, [[1, 1], [0, 1]])
    assert mat_mul(u, u).entries == ((1, 0), (0, 1))
    a = matrix(z3, [[2, 1], [0, 2]])
    assert mat_mul(a, identity(z3, 2)).entries == a.entries
    b = matrix(boolean, [[1, 1], [0, 1]])
    assert mat_mul(b, b).entries == ((1, 1), (0, 1))


def test_mat_mul_errors(z2, z3):
    with pytest.raises(RingMismatch):
        mat_mul(identity(z2, 2), identity(z3, 2))
    with pytest.raises(DimensionMismatch):
        mat_mul(identity(z2, 2), identity(z2, 3))


def test_triangularity_enforced(z3):
    with pytest.raises(ValueError):
        matrix(z3, [[1, 0], [1, 1]])


def test_classify(z3):
    assert classify(matrix(z3, [[1, 0], [0, 0]]))["subidentity"]
    flags = classify(matrix(z3, [[1, 2], [0, 1]]))
    assert flags["unitriangular"] and not flags["subidentity"]
    flags = classify(matrix(z3, [[2, 0], [0, 1]]))
    assert not flags["unitriangular"]


def test_row_op_examples(z2, z3):
    m = apply_row_op(identity(z2, 2), ElementaryOp("add", target=0, scalar=1, source=1))
    assert m.entries == ((1, 1), (0, 1))
    m = apply_row_op(matrix(z3, [[1, 1], [0, 1]]), ElementaryOp("scale", target=0, scalar=0))
    assert m.entries == ((0, 0), (0, 1))
    with pytest.raises(IllegalDirection):
        apply_row_op(identity(z2, 2), ElementaryOp("add", target=1, scalar=1, source=0))


def test_col_op_direction(z2):
    m = apply_col_op(identity(z2, 2), ElementaryOp("add", target=1, scalar=1, source=0))
    assert m.entries == ((1, 1), (0, 1))
    with pytest.raises(IllegalDirection):
        apply_col_op(identity(z2, 2), ElementaryOp("add", target=0, scalar=1, source=1))


def _legal_ops(ring, n, rows):
    ops = []
    for target in range(n):
        for scalar in range(ring.size):
            ops.append(ElementaryOp("scale", target, scalar))
    for target in range(n):
        for source in range(n):
            legal = target < source if rows else target > source
            if legal:
                for scalar in range(ring.size):
                    ops.append(ElementaryOp("add", target, scalar, source))
    return ops


def test_ops_match_elementary_multiplication_exhaustive(z3):
    # the internal assert in apply_*_op compares against direct row/column
    # arithmetic on every call; run every op against every matrix
    for m in all_triangular(z3, 2):
        for op in _legal_ops(z3, 2, rows=True):
            apply_row_op(m, op)
        for op in _legal_ops(z3, 2, rows=False):
            apply_col_op(m, op)


def test_block_decompose(z2, z3):
    parts = block_decompose(matrix(z3, [[2, 1], [0, 2]]))
    assert parts.M.entries == ((2,),) and parts.v == (1,) and parts.c == 2
    parts = block_decompose(identity(z2, 3))
    assert parts.M.entries == identity(z2, 2).entries
    assert parts.v == (0, 0) and parts.c == 1
    parts = block_decompose(zero_matrix(z2, 2))
    assert parts.M.entries == ((0,),) and parts.v == (0,) and parts.c == 0
    with pytest.raises(DimensionTooSmall):
        block_decompose(identity(z2, 1))


def test_block_round_trip(z3):
    for m in all_triangular(z3, 2):
        assert block_decompose(m).reassemble().entries == m.entries


def test_affine_to_matrix_examples(z2, z3):
    f = scaling_map(z3, 1, 2, (1,))
    assert affine_to_matrix(f).entries == ((1, 1), (0, 2))
    assert affine_to_matrix(identity_affine(z2, 2)).entries == identity(z2, 3).entries
    const = scaling_map(z2, 2, 0, (1, 0))
    assert affine_to_matrix(const).entries == ((1, 1, 0), (0, 0, 0), (0, 0, 0))


def all_affine_triangular(ring, dim):
    rows = list(product(range(ring.size), repeat=dim))
    mats = [
        x
        for x in product(rows, repeat=dim)
        if all(x[i][j] == ring.zero for i in range(dim) for j in range(i))
    ]
    for x in mats:
        for c in product(range(ring.size), repeat=dim):
            yield AffineMap(dim, ring, c, x=x)


@pytest.mark.parametrize("ring_name,dim", [("z2", 1), ("z2", 2), ("z3", 1), ("z3", 2), ("boolean", 1), ("boolean", 2)])
def test_corner_embedding_is_multiplicative(ring_name, dim, request):
    ring = request.getfixturevalue(ring_name)
    maps = list(all_affine_triangular(ring, dim))
    mats = {i: affine_to_matrix(f) for i, f in enumerate(maps)}
    # injective on formal maps
    assert len({m.entries for m in mats.values()}) == len(maps)
    for i, f in enumerate(maps):
        for j, g in enumerate(maps):
            assert affine_to_matrix(f.compose(g)).entries == mat_mul(mats[i], mats[j]).entries


@pytest.mark.parametrize("ring_name,dim", [("z3", 1), ("z3", 2), ("boolean", 2)])
def test_corner_embedding_action(ring_name, dim, request):
    # (1, v) @ M_f = (1, f(v)) for every vector v
    ring = request.getfixturevalue(ring_name)
    for f in all_affine_triangular(ring, dim):
        mat = affine_to_matrix(f)
        for v in product(range(ring.size), repeat=dim):
            row = (ring.one,) + v
            out = tuple(
                sum_of(ring, (ring.mul[row[i]][mat.entries[i][j]] for i in range(dim + 1)))
                for j in range(dim + 1)
            )
            assert out == (ring.one,) + f.apply(v)


def test_block_parts_type():
    assert BlockParts.__dataclass_fields__.keys() == {"M", "v", "c"}
