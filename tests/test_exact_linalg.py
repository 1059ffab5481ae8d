import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from divclass import (
    InputError,
    IntMatrix,
    bound,
    minor_gcd,
    rank,
    relation_matrix,
    smith_normal_form,
    solve_integer,
    support_forms,
)
from divclass import InternalInvariantError, exact_linalg
from divclass.sweep import random_poset

from oracles import (
    bareiss_rank,
    bounded_solve_exists,
    brute_invariant_factors,
    brute_minor_gcd,
    dense_product,
    dense_smith_normal_form,
    det_cofactor,
    layered_poset,
    rational_rank,
)


def random_matrix(rng, max_dim=5, lo=-9, hi=9):
    m = rng.randint(0, max_dim)
    n = rng.randint(0, max_dim)
    rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
    return IntMatrix.from_rows(rows, cols=n), rows


def oracle_product(U, A, V):
    """U A V as lists of rows, by the dense oracle product."""
    return dense_product(dense_product(U.to_lists(), A.to_lists(), A.cols), V.to_lists(), V.cols)


def check_decomposition(A, snf):
    assert snf.U @ A @ snf.V == snf.D
    assert oracle_product(snf.U, A, snf.V) == snf.D.to_lists()
    assert abs(det_cofactor(snf.U.to_lists())) == 1
    assert abs(det_cofactor(snf.V.to_lists())) == 1
    diag = [snf.D[k, k] for k in range(min(A.rows, A.cols))]
    assert all(d > 0 for d in diag[: snf.rank])
    assert all(d == 0 for d in diag[snf.rank :])
    for i in range(snf.D.rows):
        for j in range(snf.D.cols):
            if i != j:
                assert snf.D[i, j] == 0
    for a, b in zip(snf.invariant_factors, snf.invariant_factors[1:]):
        assert b % a == 0


def test_identity_snf():
    snf = smith_normal_form(IntMatrix.identity(3))
    assert snf.invariant_factors == (1, 1, 1)
    assert snf.D == IntMatrix.identity(3)


def test_diag_2_3():
    snf = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert snf.invariant_factors == (1, 6)


def veronese_matrix(n, r):
    rows = [[int(j == i) for j in range(n)] for i in range(n - 1)]
    rows.append([-1] * (n - 1) + [r])
    return rows


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [1, 2, 5, 6])
def test_veronese_matrix_invariant_factors(n, r):
    rows = veronese_matrix(n, r)
    snf = smith_normal_form(IntMatrix.from_rows(rows))
    assert snf.invariant_factors == brute_invariant_factors(rows)
    assert snf.invariant_factors == (1,) * (n - 1) + (r,)


def test_minor_gcd_trivial_conventions():
    A = IntMatrix.from_rows([[4, 2], [0, 7]])
    assert minor_gcd(A, 0) == 1
    assert minor_gcd(IntMatrix.from_rows([[2, 0], [0, 3]]), 2) == 6


def test_minor_gcd_veronese_augmented():
    # all-ones column appended to the n=4, r=6 matrix: gcd of the 4-minors is gcd(6, 4)
    A = IntMatrix.from_rows(veronese_matrix(4, 6)).append_column([1, 1, 1, 1])
    assert minor_gcd(A, 4) == 2
    assert minor_gcd(A, 4) == brute_minor_gcd(A.to_lists(), 4)


def test_minor_gcd_out_of_range():
    A = IntMatrix.from_rows([[1, 2]])
    with pytest.raises(InputError):
        minor_gcd(A, 2)
    with pytest.raises(InputError):
        minor_gcd(A, -1)


def test_minor_size_must_be_an_integer():
    with pytest.raises(InputError, match="integer"):
        minor_gcd(IntMatrix.from_rows([[1, 2]]), 1.0)


def test_rank_trivial():
    assert rank(IntMatrix.zeros(3, 4)) == 0
    assert rank(IntMatrix.identity(5)) == 5


def test_rank_segre_cone_matrix():
    # 13 forms in 12 coordinates for (m, p, n, q) = (4, 2, 9, 3); the matrix
    # has full column rank 12: the cokernel is Z, of rank 13 - 12 = 1.
    from divclass import segre_veronese_cone

    cone = segre_veronese_cone(4, 2, 9, 3)
    A = IntMatrix.from_rows(cone.forms, cols=cone.dim)
    assert (A.rows, A.cols) == (13, 12)
    oracle = bareiss_rank(A.to_lists())
    assert oracle == rational_rank(A.to_lists()) == 12
    assert rank(A) == oracle


def test_oracle_ranks_agree_on_randoms():
    rng = random.Random(5)
    for _ in range(100):
        _, rows = random_matrix(rng)
        assert bareiss_rank(rows) == rational_rank(rows)


def test_solve_identity():
    assert solve_integer(IntMatrix.identity(3), [7, -2, 0]) == (7, -2, 0)


def test_solve_parity_obstruction():
    assert solve_integer(IntMatrix.from_rows([[2]]), [3]) is None


def test_solve_two_chains_all_ones():
    # purity of the (2, 2)-chain poset forces the canonical class to vanish,
    # so the all-ones vector must lie in the column span; verify by multiplying
    from divclass import bound, relation_matrix, support_forms, two_chains_poset

    A = relation_matrix(support_forms(bound(two_chains_poset(2, 2))))
    b = [1] * A.rows
    x = solve_integer(A, b)
    assert x is not None
    assert list(A.mul_vector(x)) == b


def test_solve_random_solvable_and_unsolvable():
    rng = random.Random(11)
    solvable = unsolvable = 0
    while solvable < 40 or unsolvable < 40:
        m = rng.randint(1, 4)
        n = rng.randint(1, 3)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        A = IntMatrix.from_rows(rows)
        if solvable < 40:
            x0 = [rng.randint(-4, 4) for _ in range(n)]
            b = list(A.mul_vector(x0))
            x = solve_integer(A, b)
            assert x is not None and list(A.mul_vector(x)) == b
            solvable += 1
        b = [rng.randint(-9, 9) for _ in range(m)]
        x = solve_integer(A, b)
        if x is None:
            assert not bounded_solve_exists(rows, b, bound=20)
            unsolvable += 1
        else:
            assert list(A.mul_vector(x)) == b


def test_zero_dimensional_matrices():
    for shape in [(0, 0), (0, 3), (3, 0)]:
        A = IntMatrix.zeros(*shape)
        snf = smith_normal_form(A)
        assert snf.invariant_factors == ()
        assert snf.rank == 0
        check_decomposition(A, snf)
    assert solve_integer(IntMatrix.zeros(3, 0), [0, 0, 0]) == ()
    assert solve_integer(IntMatrix.zeros(3, 0), [0, 1, 0]) is None
    x = solve_integer(IntMatrix.zeros(0, 3), [])
    assert x == (0, 0, 0)


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        solve_integer(IntMatrix.identity(2), [1, 2, 3])


def test_solve_right_hand_side_must_be_integers():
    # a float is never presented as an integer solution
    with pytest.raises(InputError, match="integer"):
        solve_integer(IntMatrix.from_rows([[2]]), [2.0])


def test_snf_property_suite_random():
    rng = random.Random(1234)
    for _ in range(120):
        A, rows = random_matrix(rng)
        snf = smith_normal_form(A)
        check_decomposition(A, snf)
        for k in range(min(A.rows, A.cols) + 1):
            assert minor_gcd(A, k) == brute_minor_gcd(rows, k)


def test_determinism():
    rng = random.Random(77)
    for _ in range(25):
        A, _ = random_matrix(rng)
        # two separate eliminations (nothing is cached) give equal results
        first = smith_normal_form(A)
        second = smith_normal_form(A)
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)


def pinned_corpus():
    rng = random.Random(20261018)
    for _ in range(2000):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        rows = [[0 if rng.random() < 0.3 else rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        yield IntMatrix.from_rows(rows, cols=n)
    for _ in range(20):
        m, n = rng.randint(12, 24), rng.randint(10, 18)
        yield IntMatrix.from_rows([[rng.randint(-(10**3), 10**3) for _ in range(n)] for _ in range(m)])
    for _ in range(200):
        yield relation_matrix(support_forms(bound(random_poset(rng, 10))))


def test_smith_decompositions_pinned():
    # Cone mode prints U @ omega as the smith-basis coordinates, so the exact
    # transforms are part of the output, not only the invariant factors.  Any
    # change to the pivot rule or to the order of operations changes the digest.
    digest = hashlib.sha256()
    for A in pinned_corpus():
        snf = smith_normal_form(A)
        digest.update(repr((snf.U, snf.D, snf.V)).encode())
    assert digest.hexdigest() == "f18bf11010ca3f3123c82be2c92bba4d35215a99f835dc2bc8f58033c3858c19"


def test_sparse_check_agrees_with_dense_product():
    for A in pinned_corpus():
        snf = smith_normal_form(A)
        product = snf.U @ A @ snf.V
        assert product == snf.D
        assert product.to_lists() == oracle_product(snf.U, A, snf.V)


def with_entry_changed(M, i, j, delta):
    entries = [list(M.row(k)) for k in range(M.rows)]
    entries[i][j] += delta
    return IntMatrix(M.rows, M.cols, (e for row in entries for e in row))


def test_sparse_check_rejects_every_single_entry_change():
    # U' = U + e E_ik changes U A V by e (row k of A V) in row i, and
    # V' = V + e E_kl changes it by e (column k of U A) in column l; with U
    # and V invertible, that is nonzero exactly when row k, resp. column k,
    # of A is nonzero.  Elsewhere the product is unchanged, and so must the
    # verdict be.
    rng = random.Random(8)
    matrices = [random_matrix(rng)[0] for _ in range(200)]
    matrices += [relation_matrix(support_forms(bound(random_poset(rng, 10)))) for _ in range(50)]
    rejected = changes = 0
    for A in matrices:
        snf = smith_normal_form(A)
        nonzero_rows = [any(A.row(k)) for k in range(A.rows)]
        nonzero_cols = [any(A.column(k)) for k in range(A.cols)]
        for delta in (1, -1):
            for i in range(A.rows):
                for k in range(A.rows):
                    U = with_entry_changed(snf.U, i, k, delta)
                    carries = U @ A @ snf.V == snf.D
                    assert carries is not nonzero_rows[k]
                    rejected += not carries
                    changes += 1
            for k in range(A.cols):
                for l in range(A.cols):
                    V = with_entry_changed(snf.V, k, l, delta)
                    carries = snf.U @ A @ V == snf.D
                    assert carries is not nonzero_cols[k]
                    rejected += not carries
                    changes += 1
    assert (rejected, changes) == (18504, 19868)


def test_product_check_rejects_a_dropped_column_update(monkeypatch):
    # On [[2, 3]] the elimination logs column 1 -= column 0, a swap, then
    # column 1 -= 2 column 0.  A 1 x 2 matrix has no row operations, so the
    # first call to _add_multiple is the check's replay of the first logged
    # addition on the columns of U A.  Dropping it there alone leaves the
    # elimination and its invariant factors unchanged, so only the
    # U A V = D check fails.
    A = IntMatrix.from_rows([[2, 3]])
    assert smith_normal_form(A).column_ops == [(0, 1, 1), (0, 1, 0), (0, 1, 2)]
    add_multiple = exact_linalg._add_multiple
    dropped = []

    def drop_first_update(row, other, q):
        if not dropped:
            dropped.append((dict(row), dict(other), q))
            return
        add_multiple(row, other, q)

    monkeypatch.setattr(exact_linalg, "_add_multiple", drop_first_update)
    with pytest.raises(InternalInvariantError, match="do not carry"):
        smith_normal_form(A)
    assert dropped == [({0: 3}, {0: 2}, -1)]


def corrupted_logs(ops):
    """Every log that differs from ``ops`` in one entry.

    Each quotient moves by +1 and by -1 (so an addition with q = +-1 may
    become a swap, and a swap an addition), each addition acts the other
    way round (column a -= q column b), and each swap is dropped: exchanging
    the two columns of a swap names the same swap.
    """
    for k, (a, b, q) in enumerate(ops):
        for delta in (1, -1):
            yield ops[:k] + [(a, b, q + delta)] + ops[k + 1 :]
        yield ops[:k] + ([(b, a, q)] if q else []) + ops[k + 1 :]


def test_product_check_rejects_every_corrupted_column_log(monkeypatch):
    # With full column rank, U A is injective, so U A V = D determines V:
    # any log whose replay gives another V must fail the check.  Each change
    # above replaces one elementary matrix E_k of V = E_1 E_2 ... by another
    # one, so it changes V.
    rng = random.Random(12)
    matrices = []
    while len(matrices) < 60:
        A, _ = random_matrix(rng)
        if A.cols and smith_normal_form(A).rank == A.cols:
            matrices.append(A)
    matrices += [relation_matrix(support_forms(bound(random_poset(rng, 8)))) for _ in range(10)]
    replay = exact_linalg._replay_columns
    rejected = changes = 0
    for A in matrices:
        snf = smith_normal_form(A)
        assert snf.rank == A.cols
        for corrupted in corrupted_logs(snf.column_ops):
            monkeypatch.setattr(exact_linalg, "_replay_columns", lambda columns, ops: replay(columns, corrupted))
            with pytest.raises(InternalInvariantError, match="do not carry"):
                smith_normal_form(A)
            rejected += 1
        changes += 3 * len(snf.column_ops)
        monkeypatch.undo()
    assert (rejected, changes) == (1431, 1431)


def test_smith_decompositions_pinned_at_scale():
    # Relation matrices of Hasse diagrams: unit pivots throughout, where the
    # pivot search stops at the first entry of absolute value 1.
    rng = random.Random(20261019)
    posets = [layered_poset(n) for n in (40, 80, 120)]
    while len(posets) < 7:
        p = random_poset(rng, 100)
        if p.n >= 60:
            posets.append(p)
    digest = hashlib.sha256()
    for p in posets:
        snf = smith_normal_form(relation_matrix(support_forms(bound(p))))
        digest.update(repr((snf.U, snf.D, snf.V)).encode())
    assert digest.hexdigest() == "f52a77573ceabd87a2e21b537ad81e7f2a69f4000888fc86bd608920a6c16040"


def matches_dense_elimination(A):
    snf = smith_normal_form(A)
    assert (snf.U, snf.D, snf.V, snf.invariant_factors, snf.rank) == dense_smith_normal_form(A)
    return snf


def test_sparse_store_matches_dense_elimination_on_posets():
    rng = random.Random(20261020)
    for _ in range(2000):
        matches_dense_elimination(relation_matrix(support_forms(bound(random_poset(rng, 10)))))


def test_sparse_store_matches_dense_elimination_on_small_matrices():
    # Half the matrices are scaled by 2..6, so that torsion and non-unit
    # pivots are common; zero rows and columns come from the sparse entries.
    rng = random.Random(20261021)
    seen = {"torsion": 0, "non-unit pivot": 0, "zero row": 0, "zero column": 0}
    for _ in range(500):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        scale = rng.choice((1, rng.randint(2, 6)))
        rows = [[0 if rng.random() < 0.4 else scale * rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        A = IntMatrix.from_rows(rows, cols=n)
        snf = matches_dense_elimination(A)
        seen["torsion"] += any(f > 1 for f in snf.invariant_factors)
        seen["non-unit pivot"] += all(abs(e) != 1 for row in rows for e in row) and snf.rank > 0
        seen["zero row"] += any(not any(row) for row in rows)
        seen["zero column"] += any(not any(A.column(j)) for j in range(n))
    assert min(seen.values()) >= 50, seen


def test_sparse_store_matches_dense_elimination_on_dense_matrices():
    rng = random.Random(20261022)
    for _ in range(30):
        m, n = rng.randint(24, 36), rng.randint(18, 28)
        matches_dense_elimination(
            IntMatrix.from_rows([[rng.randint(-(10**3), 10**3) for _ in range(n)] for _ in range(m)])
        )


def test_sparse_store_matches_dense_elimination_on_layered_posets():
    for n in (40, 80, 160, 320):
        matches_dense_elimination(relation_matrix(support_forms(bound(layered_poset(n)))))


def test_sparse_products_match_dense_transforms():
    rng = random.Random(20261023)
    for A in itertools.islice(pinned_corpus(), 0, None, 7):
        snf = smith_normal_form(A)
        v = [rng.randint(-9, 9) for _ in range(A.rows)]
        y = [rng.randint(-9, 9) for _ in range(A.cols)]
        assert [[e] for e in snf.U.mul_vector(v)] == dense_product(snf.U.to_lists(), [[x] for x in v], 1)
        assert [[e] for e in snf.V.mul_vector(y)] == dense_product(snf.V.to_lists(), [[x] for x in y], 1)


@st.composite
def small_matrices(draw):
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entries = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**40), 2**40))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    return IntMatrix.from_rows(rows, cols=n)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(small_matrices())
def test_lazy_v_matches_dense_elimination(A):
    # V is built on first read by replaying the column log on the identity.
    snf = smith_normal_form(A)
    assert "V" not in vars(snf)
    assert snf.V == dense_smith_normal_form(A)[2]
    assert snf.U @ A @ snf.V == snf.D


def test_matrix_validation():
    with pytest.raises(InputError):
        IntMatrix(2, 2, [1, 2, 3])
    with pytest.raises(InputError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(InputError):
        IntMatrix.from_rows([[1.5]])
    with pytest.raises(InputError):
        IntMatrix.identity(2) @ IntMatrix.identity(3)


def test_matrix_helpers():
    A = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert A.row(1) == (4, 5, 6)
    assert A.column(2) == (3, 6)
    assert A.transpose().to_lists() == [[1, 4], [2, 5], [3, 6]]
    assert A.mul_vector([1, 0, -1]) == (-2, -2)
    assert A.append_column([7, 8]).row(0) == (1, 2, 3, 7)
    with pytest.raises(InputError):
        A.determinant()
    assert IntMatrix.from_rows([[3, 1], [1, 1]]).determinant() == 2
    assert det_cofactor([[3, 1], [1, 1]]) == 2
