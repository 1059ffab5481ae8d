import hashlib
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from divclass import (
    AbelianPresentation,
    BoundedPoset,
    InputError,
    IntMatrix,
    fitting_number,
    relation_matrix,
    smith_normal_form,
    solve_integer,
)
from divclass import InternalInvariantError, exact_linalg
from divclass.joinmeet import _top_down_matrix
from divclass.sweep import random_poset

from oracles import (
    bareiss_rank,
    bounded_solve_exists,
    brute_invariant_factors,
    brute_minor_gcd,
    dense_product,
    dense_replay,
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
    assert fitting_number(AbelianPresentation(A), A.rows) == 1
    assert fitting_number(AbelianPresentation(IntMatrix.from_rows([[2, 0], [0, 3]])), 0) == 6


def test_minor_gcd_veronese_augmented():
    # all-ones column appended to the n=4, r=6 matrix: gcd of the 4-minors is gcd(6, 4)
    A = IntMatrix.from_rows(veronese_matrix(4, 6)).append_column([1, 1, 1, 1])
    assert fitting_number(AbelianPresentation(A), A.rows - 4) == 2
    assert fitting_number(AbelianPresentation(A), A.rows - 4) == brute_minor_gcd(A.to_lists(), 4)


def test_rank_trivial():
    assert smith_normal_form(IntMatrix.zeros(3, 4)).rank == 0
    assert smith_normal_form(IntMatrix.identity(5)).rank == 5


def test_rank_segre_cone_matrix():
    # 13 forms in 12 coordinates for (m, p, n, q) = (4, 2, 9, 3); the matrix
    # has full column rank 12: the cokernel is Z, of rank 13 - 12 = 1.
    from divclass import segre_veronese_cone

    cone = segre_veronese_cone(4, 2, 9, 3)
    A = IntMatrix.from_rows(cone.forms, cols=cone.dim)
    assert (A.rows, A.cols) == (13, 12)
    oracle = bareiss_rank(A.to_lists())
    assert oracle == rational_rank(A.to_lists()) == 12
    assert smith_normal_form(A).rank == oracle


def test_oracle_ranks_agree_on_randoms():
    rng = random.Random(5)
    for _ in range(100):
        _, rows = random_matrix(rng)
        assert bareiss_rank(rows) == rational_rank(rows)


def test_solve_identity():
    assert solve_integer(IntMatrix.identity(3), [7, -2, 0]) == (7, -2, 0)


def test_solve_pads_past_the_rank():
    # no relations to satisfy: every entry of x is a free entry of y
    assert solve_integer(IntMatrix.zeros(0, 5), ()) == (0, 0, 0, 0, 0)


def test_solve_parity_obstruction():
    assert solve_integer(IntMatrix.from_rows([[2]]), [3]) is None


def test_solve_two_chains_all_ones():
    # purity of the (2, 2)-chain poset forces the canonical class to vanish,
    # so the all-ones vector must lie in the column span; verify by multiplying
    from divclass import two_chains_poset

    A = relation_matrix(BoundedPoset(two_chains_poset(2, 2)))
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
        assert A.pretty() == f"({shape[0]}x{shape[1]} empty)"
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
        p = AbelianPresentation(A)
        for k in range(min(A.rows, A.cols) + 1):
            assert fitting_number(p, A.rows - k) == brute_minor_gcd(rows, k)


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
        yield relation_matrix(BoundedPoset(random_poset(rng, 10)))


def test_smith_decompositions_pinned():
    # Cone mode prints U @ omega as the smith-basis coordinates, so the exact
    # transforms are part of the output, not only the invariant factors.  Any
    # change to the pivot rule or to the order of operations changes the digest.
    # Each transform is hashed as its shape and dense rows, not its repr, so
    # the digest does not depend on how an empty matrix prints.
    digest = hashlib.sha256()
    for A in pinned_corpus():
        snf = smith_normal_form(A)
        encoded = tuple((M.rows, M.cols, M.to_lists()) for M in (snf.U, snf.D, snf.V))
        digest.update(repr(encoded).encode())
    assert digest.hexdigest() == "94a74884603472a256c40b79e0a14d0df3e6818a41e0bca257315e036fdf6c39"


def test_sparse_check_agrees_with_dense_product():
    for A in pinned_corpus():
        snf = smith_normal_form(A)
        product = snf.U @ A @ snf.V
        assert product == snf.D
        assert product.to_lists() == oracle_product(snf.U, A, snf.V)


def with_entry_changed(M, i, j, delta):
    entries = [list(M.row(k)) for k in range(M.rows)]
    entries[i][j] += delta
    return IntMatrix.from_rows(entries, cols=M.cols)


def test_sparse_check_rejects_every_single_entry_change():
    # U' = U + e E_ik changes U A V by e (row k of A V) in row i, and
    # V' = V + e E_kl changes it by e (column k of U A) in column l; with U
    # and V invertible, that is nonzero exactly when row k, resp. column k,
    # of A is nonzero.  Elsewhere the product is unchanged, and so must the
    # verdict be.
    rng = random.Random(8)
    matrices = [random_matrix(rng)[0] for _ in range(200)]
    matrices += [relation_matrix(BoundedPoset(random_poset(rng, 10))) for _ in range(50)]
    rejected = changes = 0
    for A in matrices:
        snf = smith_normal_form(A)
        nonzero_rows = [any(A.row(k)) for k in range(A.rows)]
        nonzero_cols = [any(A[i, k] for i in range(A.rows)) for k in range(A.cols)]
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
    # column 1 -= 2 column 0, and no row operation.  The check's replay is
    # the one call of _replay inside smith_normal_form; dropping the first
    # logged addition there alone leaves the elimination, its invariant
    # factors and its log unchanged, so only the U A V = D check fails.
    A = IntMatrix.from_rows([[2, 3]])
    assert smith_normal_form(A).ops == [("column", 0, 1, 1), ("column", 0, 1, 0), ("column", 0, 1, 2)]
    replay = exact_linalg._replay
    dropped = []

    def drop_first_update(rows, ops):
        dropped.append(ops[0])
        return replay(rows, ops[1:])

    monkeypatch.setattr(exact_linalg, "_replay", drop_first_update)
    with pytest.raises(InternalInvariantError, match="do not carry"):
        smith_normal_form(A)
    assert dropped == [("column", 0, 1, 1)]


def test_divisibility_check_rejects_a_skipped_fix_up(monkeypatch):
    # On diag(2, 3) the fix-up finds row 1 not divisible by the pivot 2 and
    # folds it in; with next shadowed in the module it finds no offender, so
    # the elimination ends with the factors (2, 3), which the check refuses
    monkeypatch.setattr(exact_linalg, "next", lambda *args: None, raising=False)
    with pytest.raises(InternalInvariantError, match=r"invariant factors \(2, 3\) violate divisibility"):
        smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))


def corrupted_column_logs(ops):
    """Every log that differs from ``ops`` in one column operation.

    Each quotient moves by +1 and by -1 (so an addition with q = +-1 may
    become a swap, and a swap an addition), each addition acts the other
    way round (column a -= q column b), and each swap is dropped: exchanging
    the two columns of a swap names the same swap.
    """
    for k, (kind, a, b, q) in enumerate(ops):
        if kind == "column":
            for delta in (1, -1):
                yield ops[:k] + [(kind, a, b, q + delta)] + ops[k + 1 :]
            yield ops[:k] + ([(kind, b, a, q)] if q else []) + ops[k + 1 :]


def corrupted_row_logs(ops):
    """Every log that differs from ``ops`` in one row operation or sign change.

    Each row addition's quotient moves by +1 and by -1 (so q = +-1 may
    become a swap), and each row swap and each sign change is dropped.
    """
    for k, (kind, a, b, q) in enumerate(ops):
        if kind == "row" and q:
            for delta in (1, -1):
                yield ops[:k] + [(kind, a, b, q + delta)] + ops[k + 1 :]
        elif kind != "column":
            yield ops[:k] + ops[k + 1 :]


def rejected_corruptions(monkeypatch, A, logs):
    """How many of ``logs`` the check rejected, each replayed in place of A's own log; all must be."""
    replay = exact_linalg._replay
    rejected = 0
    for corrupted in logs:
        monkeypatch.setattr(exact_linalg, "_replay", lambda rows, ops: replay(rows, corrupted))
        with pytest.raises(InternalInvariantError, match="do not carry"):
            smith_normal_form(A)
        rejected += 1
    monkeypatch.undo()
    return rejected


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
    matrices += [relation_matrix(BoundedPoset(random_poset(rng, 8))) for _ in range(10)]
    rejected = changes = 0
    for A in matrices:
        snf = smith_normal_form(A)
        assert snf.rank == A.cols
        rejected += rejected_corruptions(monkeypatch, A, corrupted_column_logs(snf.ops))
        changes += 3 * sum(kind == "column" for kind, _, _, _ in snf.ops)
    assert (rejected, changes) == (1431, 1431)


def test_product_check_rejects_every_corrupted_row_log(monkeypatch):
    # A square nonsingular A makes U A V = D determine U = D V^-1 A^-1 once
    # the column operations are fixed.  Each change above replaces one
    # elementary matrix R_k of U = ... R_2 R_1 by another one (or by the
    # identity), so it changes U and must fail the check.  Rows are scaled
    # by different factors, so that non-unit pivots and the divisibility
    # fix-up's folds (row t += row i, logged with a > b) are common.
    rng = random.Random(14)
    matrices = []
    while len(matrices) < 80:
        n = rng.randint(1, 5)
        scales = [rng.choice((1, 2, 3, 4, 6, 9)) for _ in range(n)]
        A = IntMatrix.from_rows([[s * rng.randint(-9, 9) for _ in range(n)] for s in scales])
        if A.determinant():
            matrices.append(A)
    rejected = 0
    seen = {"addition": 0, "fold": 0, "swap": 0, "negate": 0}
    for A in matrices:
        ops = smith_normal_form(A).ops
        rejected += rejected_corruptions(monkeypatch, A, corrupted_row_logs(ops))
        for kind, a, b, q in ops:
            if kind == "row":
                seen["swap" if q == 0 else "fold" if a > b else "addition"] += 1
            seen["negate"] += kind == "negate"
    # 2 * (835 + 29) + 267 + 139 = 2134: every corrupted log was rejected
    assert (rejected, seen) == (2134, {"addition": 835, "fold": 29, "swap": 267, "negate": 139})


def sparse_rows(dense):
    return [{j: e for j, e in enumerate(row) if e} for row in dense]


def test_replay_matches_dense_replay_on_arbitrary_logs():
    # Random sparse rows and random logs of every kind, most of them no
    # Smith log could hold.  Entries and quotients up to 3 make additions
    # cancel cells as well as fill them.
    rng = random.Random(20261022)
    seen = {"row addition": 0, "row swap": 0, "column addition": 0, "column swap": 0, "negate": 0}
    for _ in range(1500):
        m, n = rng.randint(0, 5), rng.randint(2, 6)
        dense = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(m)]
        ops = []
        for _ in range(rng.randint(0, 12)):
            kind = rng.choice(list(seen) if m > 1 else ["column addition", "column swap"])
            seen[kind] += 1
            lines = n if kind.startswith("column") else m
            a, b = rng.sample(range(lines), 2)
            if kind == "negate":
                ops.append(("negate", a, a, 0))
            else:
                q = rng.choice((-3, -2, -1, 1, 2, 3)) if kind.endswith("addition") else 0
                ops.append((kind.split()[0], a, b, q))
        replayed = exact_linalg._replay(sparse_rows(dense), ops)
        assert replayed == sparse_rows(dense_replay(dense, ops))
        assert all(all(row.values()) for row in replayed)
    assert min(seen.values()) > 1000


@pytest.mark.parametrize(
    "rows, ops, expected",
    [
        # a column swap in rows that hold only one of the two columns
        ([{0: 5}, {1: 7}, {0: 2, 1: 3}, {}], [("column", 0, 1, 0)], [{1: 5}, {0: 7}, {0: 3, 1: 2}, {}]),
        # additions that fill an empty cell
        ([{0: 2}], [("column", 0, 1, 3)], [{0: 2, 1: -6}]),
        ([{0: 1}, {1: 1}], [("row", 0, 1, 2)], [{0: 1}, {0: -2, 1: 1}]),
        # additions that cancel a cell to zero, which is not stored
        ([{0: 2, 1: 6}], [("column", 0, 1, 3)], [{0: 2}]),
        ([{0: 1, 2: 4}, {0: 2}], [("row", 0, 1, 2)], [{0: 1, 2: 4}, {2: -8}]),
        ([{0: 1}, {0: 2}], [("row", 0, 1, 2)], [{0: 1}, {}]),
        # a row swap, then a sign change
        ([{0: 1}, {1: -2}], [("row", 0, 1, 0), ("negate", 1, 1, 0)], [{1: -2}, {0: -1}]),
    ],
    ids=["column swap", "column fill", "row fill", "column cancel", "row cancel", "row emptied", "swap, negate"],
)
def test_replay_cases(rows, ops, expected):
    dense = [[row.get(j, 0) for j in range(3)] for row in rows]
    assert exact_linalg._replay(rows, ops) == expected == sparse_rows(dense_replay(dense, ops))


def test_replay_allocates_nothing_per_column():
    # Column operations on columns near 10^8 of rows that hold none of
    # them: the replay walks the rows it is given and sizes nothing by a
    # column index.
    far = 10**8 - 1
    ops = [("column", far - 1, far, 1), ("column", far, far - 1, 0), ("column", 0, far, 2)]
    for rows in ([], [{}, {}]):
        tracemalloc.start()
        try:
            replayed = exact_linalg._replay(rows, ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert replayed == rows and peak < 2**12


def at_scale_corpus():
    # Relation matrices of Hasse diagrams: unit pivots throughout, where the
    # pivot search stops at the first entry of absolute value 1.
    rng = random.Random(20261019)
    posets = [layered_poset(n) for n in (40, 80, 120)]
    while len(posets) < 7:
        p = random_poset(rng, 100)
        if p.n >= 60:
            posets.append(p)
    return [relation_matrix(BoundedPoset(p)) for p in posets]


def test_smith_decompositions_pinned_at_scale():
    digest = hashlib.sha256()
    for A in at_scale_corpus():
        snf = smith_normal_form(A)
        digest.update(repr((snf.U, snf.D, snf.V)).encode())
    assert digest.hexdigest() == "f52a77573ceabd87a2e21b537ad81e7f2a69f4000888fc86bd608920a6c16040"


def test_smith_operation_logs_pinned():
    # The log itself, operation by operation: a change that reorders
    # commuting operations, or skips or adds a zero-effect one, leaves U and
    # V alone but changes this digest.
    digest = hashlib.sha256()
    for A in itertools.chain(pinned_corpus(), at_scale_corpus()):
        snf = smith_normal_form(A)
        digest.update(repr((snf.rows, snf.cols, snf.invariant_factors, snf.ops)).encode())
    assert digest.hexdigest() == "27404898611034805a76aadf18269bf41268c8277827824a7b861981650c9628"


def matches_dense_elimination(A):
    snf = smith_normal_form(A)
    assert (snf.U, snf.D, snf.V, snf.invariant_factors, snf.rank) == dense_smith_normal_form(A)
    return snf


def test_sparse_store_matches_dense_elimination_on_posets():
    # each poset's relation matrix in edge order, and in the
    # top-down order that joinmeet_report eliminates
    rng = random.Random(20261020)
    for _ in range(2000):
        extension = BoundedPoset(random_poset(rng, 10))
        matches_dense_elimination(relation_matrix(extension))
        matches_dense_elimination(_top_down_matrix(extension))


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
        seen["zero column"] += any(not any(row[j] for row in rows) for j in range(n))
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
        matches_dense_elimination(relation_matrix(BoundedPoset(layered_poset(n))))


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
@given(small_matrices(), st.data())
def test_lazy_u_matches_dense_elimination(A, data):
    # U is built on first read by replaying the row operations and sign
    # changes on the identity; U_mul_vector replays them on v without it.
    snf = smith_normal_form(A)
    v = data.draw(st.lists(st.integers(-(2**40), 2**40), min_size=A.rows, max_size=A.rows))
    Uv = snf.U_mul_vector(v)
    assert "U" not in vars(snf)
    assert snf.U == dense_smith_normal_form(A)[0]
    assert Uv == snf.U.mul_vector(v)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(small_matrices())
def test_lazy_v_matches_dense_elimination(A):
    # V is built on first read by replaying the column log on the identity.
    snf = smith_normal_form(A)
    assert "V" not in vars(snf)
    assert snf.V == dense_smith_normal_form(A)[2]
    assert snf.U @ A @ snf.V == snf.D


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(small_matrices())
def test_minor_gcds_match_brute_force_at_large_entries(A):
    # the random suites above draw |e| <= 9; here entries reach 2^40
    factors = smith_normal_form(A).invariant_factors
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    rows = A.to_lists()
    p = AbelianPresentation(A)
    for k in range(min(A.rows, A.cols) + 1):
        assert fitting_number(p, A.rows - k) == brute_minor_gcd(rows, k)


def test_matrix_validation():
    with pytest.raises(InputError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(InputError):
        IntMatrix.from_rows([[1.5]])
    with pytest.raises(InputError):
        IntMatrix.identity(2) @ IntMatrix.identity(3)


def test_matrix_helpers():
    A = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert A.row(1) == (4, 5, 6)
    assert A.mul_vector([1, 0, -1]) == (-2, -2)
    assert A.append_column([7, 8]).row(0) == (1, 2, 3, 7)
    with pytest.raises(InputError):
        A.determinant()
    assert IntMatrix.from_rows([[3, 1], [1, 1]]).determinant() == 2
    assert det_cofactor([[3, 1], [1, 1]]) == 2
