"""LinearSpan as the package's one exact solver, against the dense
Gauss-Jordan eliminations it replaced."""

from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from superchord.diagrams import LinearSpan, invert_matrix
from superchord.liesuper import _invert_form
from superchord.ribbon import invert_supermap
from superchord.scalars import QALPHA, QQ, Poly, AlphaScalar, alpha
from superchord.supergraded import SuperMap, SuperSpace
from test_associator import _solve_affine

fast = settings(derandomize=True, max_examples=150, deadline=None)
slow = settings(derandomize=True, max_examples=40, deadline=None)


# Reference copies of the eliminations that LinearSpan replaced.

def _invert_form_ref(alg, form):
    """Inverse Gram matrix of the form, by exact Gaussian elimination."""
    d = alg.dim
    rows = []
    for i in range(d):
        row = [Fraction(0)] * (2 * d)
        for j in range(d):
            row[j] = Fraction(form.get((i, j), 0))
        row[d + i] = Fraction(1)
        rows.append(row)
    for col in range(d):
        piv = next((r for r in range(col, d) if rows[r][col]), None)
        if piv is None:
            raise ValueError("invariant form is degenerate")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(d):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    out = {}
    for i in range(d):
        for j in range(d):
            v = rows[i][d + j]
            if v:
                out[(i, j)] = v
    return out


def invert_supermap_ref(f):
    """Inverse by Gaussian elimination; raises on singular maps."""
    if f.source.dim != f.target.dim:
        raise ValueError("only square maps can be inverted")
    ring = f.ring
    n = f.source.dim
    rows = [[f.m.get((i, j), ring.zero) for j in range(n)]
            + [ring.one if i == j else ring.zero for j in range(n)]
            for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n)
                      if not (rows[r][col] == ring.zero)), None)
        if pivot is None:
            raise ValueError("map is not invertible")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = ring.one / rows[col][col]
        rows[col] = [inv * v for v in rows[col]]
        for r in range(n):
            if r != col and not (rows[r][col] == ring.zero):
                c = rows[r][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[col])]
    entries = {}
    for i in range(n):
        for j in range(n):
            v = rows[i][n + j]
            if not (v == ring.zero):
                entries[(i, j)] = v
    return SuperMap(f.target, f.source, entries, ring)


_ZERO = Fraction(0)


def _solve_affine_ref(base, cols, nunknowns):
    """Solve sum_w c_w col_w = -base exactly; free unknowns become zero."""
    rows = []
    for e in range(len(base)):
        keys = set(base[e])
        for col in cols:
            keys |= set(col[e])
        for k in sorted(keys):
            coeffs = [col[e].get(k, _ZERO) for col in cols]
            rhs = -base[e].get(k, _ZERO)
            rows.append((coeffs, rhs))
    sol = [None] * nunknowns
    pivots = {}
    work = [(list(c), r) for c, r in rows]
    for coeffs, rhs in work:
        coeffs = list(coeffs)
        # Stored pivot rows are not back-cleaned, so reduce until no pivot
        # column survives; each step zeroes the smallest one for good.
        while True:
            hit = next((idx for idx in range(nunknowns)
                        if coeffs[idx] and idx in pivots), None)
            if hit is None:
                break
            prow, prhs = pivots[hit]
            f = coeffs[hit]
            for idx in range(hit, nunknowns):
                if prow[idx]:
                    coeffs[idx] -= f * prow[idx]
            rhs -= f * prhs
        piv = next((idx for idx in range(nunknowns) if coeffs[idx]), None)
        if piv is None:
            if rhs:
                raise ValueError("inconsistent associator equations")
            continue
        inv = 1 / coeffs[piv]
        coeffs = [c * inv for c in coeffs]
        rhs *= inv
        pivots[piv] = (coeffs, rhs)
    for piv in sorted(pivots, reverse=True):
        prow, prhs = pivots[piv]
        acc = prhs
        for idx in range(piv + 1, nunknowns):
            if prow[idx]:
                acc -= prow[idx] * (sol[idx] if sol[idx] is not None else 0)
        sol[piv] = acc
    return [v if v is not None else _ZERO for v in sol]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


# Small entries with many zeros, so singular matrices come up often.
small = st.integers(-2, 2)


@st.composite
def square_q(draw, max_n=4):
    n = draw(st.integers(1, max_n))
    cells = draw(st.lists(small, min_size=n * n, max_size=n * n))
    return n, {(i, j): Fraction(cells[i * n + j])
               for i in range(n) for j in range(n) if cells[i * n + j]}


@st.composite
def square_alpha(draw, max_n=3):
    n = draw(st.integers(1, max_n))
    cells = draw(st.lists(st.tuples(small, small),
                          min_size=n * n, max_size=n * n))
    a = alpha()
    return n, {ij: a * c1 + c0
               for ij, (c0, c1) in zip(product(range(n), repeat=2), cells)
               if c0 or c1}


@fast
@given(square_q())
def test_invert_form_matches_gauss_jordan(case):
    n, form = case
    alg = SimpleNamespace(dim=n)
    assert _outcome(_invert_form, alg, form) == \
        _outcome(_invert_form_ref, alg, form)


@fast
@given(square_q(), st.data())
def test_invert_supermap_matches_gauss_jordan_over_q(case, data):
    n, entries = case
    parities = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    space = SuperSpace(parities)
    f = SuperMap(space, space, entries, QQ)
    assert _outcome(invert_supermap, f) == _outcome(invert_supermap_ref, f)


@slow
@given(square_alpha())
def test_invert_supermap_matches_gauss_jordan_over_qalpha(case):
    n, entries = case
    space = SuperSpace([0] * n)
    f = SuperMap(space, space, entries, QALPHA)
    assert _outcome(invert_supermap, f) == _outcome(invert_supermap_ref, f)


def test_invert_matrix_singular_and_inverse_fixtures():
    assert invert_matrix({(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4},
                         2) is None
    assert invert_matrix({}, 1) is None
    a = alpha()
    inv = invert_matrix({(0, 0): a, (0, 1): 1, (1, 1): a}, 2, QALPHA)
    assert inv == {(0, 0): 1 / a, (0, 1): -1 / (a * a), (1, 1): 1 / a}


def _system(matrix, const, groups):
    """Spread equation rows over `groups` residuals, keyed by row index,
    in the (base, cols) layout of the associator solve."""
    nunknowns = len(matrix[0])
    base = [dict() for _ in range(groups)]
    cols = [[dict() for _ in range(groups)] for _ in range(nunknowns)]
    for r, (row, c) in enumerate(zip(matrix, const)):
        e = r % groups
        if c:
            base[e][(r,)] = c
        for idx, v in enumerate(row):
            if v:
                cols[idx][e][(r,)] = v
    return base, cols


def _rank(rows):
    """Rank of a list of Fraction rows, by plain forward elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def consistent_system(draw):
    """A rank-deficient system M x + b = 0 with a known solution."""
    nunknowns = draw(st.integers(1, 5))
    nbasis = draw(st.integers(1, nunknowns))
    basis = [draw(st.lists(small, min_size=nunknowns, max_size=nunknowns))
             for _ in range(nbasis)]
    mixes = draw(st.lists(st.lists(small, min_size=nbasis, max_size=nbasis),
                          min_size=1, max_size=6))
    matrix = [[Fraction(sum(m * row[idx] for m, row in zip(mix, basis)))
               for idx in range(nunknowns)] for mix in mixes]
    x0 = draw(st.lists(small, min_size=nunknowns, max_size=nunknowns))
    const = [-sum(v * x for v, x in zip(row, x0)) for row in matrix]
    groups = draw(st.integers(1, 3))
    return matrix, const, groups


@fast
@given(consistent_system())
def test_solve_affine_matches_gauss_jordan_on_consistent_systems(case):
    matrix, const, groups = case
    base, cols = _system(matrix, const, groups)
    n = len(cols)
    sol = _solve_affine(base, cols, n)
    assert sol == _solve_affine_ref(base, cols, n)
    for row, c in zip(matrix, const):
        assert sum(v * x for v, x in zip(row, sol)) + c == 0
    # Unknown idx is free when its column adds nothing to the rank of the
    # columns before it; a free unknown comes out as zero.
    for idx in range(n):
        if _rank([r[:idx + 1] for r in matrix]) == _rank([r[:idx]
                                                         for r in matrix]):
            assert sol[idx] == 0


@fast
@given(consistent_system(), st.integers(1, 3), st.data())
def test_solve_affine_rejects_inconsistent_systems(case, shift, data):
    matrix, const, groups = case
    # A copy of an existing equation with a shifted constant contradicts it.
    r = data.draw(st.integers(0, len(matrix) - 1))
    matrix = matrix + [matrix[r]]
    const = const + [const[r] + shift]
    base, cols = _system(matrix, const, groups)
    n = len(cols)
    with pytest.raises(ValueError, match="inconsistent"):
        _solve_affine(base, cols, n)
    with pytest.raises(ValueError, match="inconsistent"):
        _solve_affine_ref(base, cols, n)


def test_linear_span_over_qalpha_rank_and_membership():
    a = alpha()
    span = LinearSpan(QALPHA)
    assert span.add({"x": 1, "y": a})
    assert not span.add({"x": a, "y": a * a})
    assert span.rank == 1
    assert span.add({"y": 1, "z": 1 / (a + 1)})
    assert span.rank == 2
    assert span.contains({"x": 2, "y": 2 * a + (a - 1),
                          "z": (a - 1) / (a + 1)})
    assert not span.contains({"x": 1})
    assert not span.contains({"z": 1})
    # Pivots are the largest keys: "y", then "z"; "x" stays free.
    assert span.residual({"x": a}) == {"x": a}
    assert span.residual({"y": 1}) == {"x": -1 / a}
    assert span.residual({"z": 1}) == {"x": (a + 1) / a}
    assert span.residual({"x": 0}) == {}
    # Over Q the same vectors would be refused: alpha is not rational.
    with pytest.raises(ValueError):
        LinearSpan().add({"x": a})


@slow
@given(st.integers(1, 4), st.data())
def test_linear_span_over_qalpha_triangular_rank(k, data):
    # k rows with a unit at key i and Q(alpha) entries below it are
    # independent; Q(alpha) combinations of them add nothing.
    def poly(d):
        c0, c1, c2 = d.draw(st.tuples(small, small, small))
        return AlphaScalar(Poly([c0, c1, c2]))
    rows = [{i: 1} for i in range(k)]
    for i in range(k):
        for j in range(i):
            rows[i][j] = poly(data)
    span = LinearSpan(QALPHA)
    for row in rows:
        assert span.add(row)
    coeffs = [poly(data) for _ in range(k)]
    combo = {}
    for c, row in zip(coeffs, rows):
        for key, v in row.items():
            combo[key] = combo.get(key, QALPHA.zero) + c * QALPHA.coerce(v)
    assert span.contains(combo)
    assert not span.add(combo)
    assert span.rank == k
    assert not span.contains({k: 1})
