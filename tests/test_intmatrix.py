"""Properties of the sparse ``IntMatrix`` against list-of-lists oracles.

Each matrix is drawn as a list of rows plus its column count, so that the
oracles never read the sparse store.  ``derandomize=True`` makes every run
draw the same examples.
"""

import pytest
from hypothesis import given, settings, strategies as st

from divclass import AbelianPresentation, InputError, IntMatrix

from oracles import dense_product, det_cofactor

PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# zeros are frequent, so that rows and columns are often sparse or empty
ENTRIES = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**70), 2**70))
SIZES = st.integers(0, 5)


def lists(m, n):
    return st.lists(st.lists(ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m)


@st.composite
def shaped(draw, m=None, n=None):
    """(rows, cols, list of rows) of a matrix."""
    m = draw(SIZES) if m is None else m
    n = draw(SIZES) if n is None else n
    return m, n, draw(lists(m, n))


@PROPERTIES
@given(st.data())
def test_product_matches_oracle(data):
    m, k, a = data.draw(shaped())
    _, n, b = data.draw(shaped(m=k))
    product = IntMatrix.from_rows(a, cols=k) @ IntMatrix.from_rows(b, cols=n)
    expected = dense_product(a, b, n)
    assert (product.rows, product.cols) == (m, n)
    assert product.to_lists() == expected
    dense = IntMatrix.from_rows(expected, cols=n)
    assert product == dense and hash(product) == hash(dense)


@PROPERTIES
@given(st.data())
def test_mul_vector_matches_oracle(data):
    m, n, a = data.draw(shaped())
    v = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
    expected = tuple(e for e, in dense_product(a, [[x] for x in v], 1))
    assert IntMatrix.from_rows(a, cols=n).mul_vector(v) == expected


@PROPERTIES
@given(st.data())
def test_append_column_matches_oracle(data):
    m, n, a = data.draw(shaped())
    col = data.draw(st.lists(ENTRIES, min_size=m, max_size=m))
    wider = IntMatrix.from_rows(a, cols=n).append_column(col)
    assert (wider.rows, wider.cols) == (m, n + 1)
    assert wider.to_lists() == [row + [c] for row, c in zip(a, col)]


@PROPERTIES
@given(SIZES.flatmap(lambda k: shaped(m=k, n=k)))
def test_determinant_matches_cofactor_expansion(matrix):
    _, _, a = matrix
    assert IntMatrix.from_rows(a, cols=len(a)).determinant() == det_cofactor(a)


@PROPERTIES
@given(shaped())
def test_repr_is_dense_and_round_trips(matrix):
    m, n, a = matrix
    M = IntMatrix.from_rows(a, cols=n)
    assert repr(M) == (f"IntMatrix.from_rows({a!r})" if m and n else f"IntMatrix.zeros({m}, {n})")
    assert eval(repr(M)) == M


@PROPERTIES
@given(st.data())
def test_equality_and_hash_across_constructors(data):
    m, n, a = data.draw(shaped())
    dense = IntMatrix.from_rows(a, cols=n)
    # the sparse rows keep some of the zero entries, written out explicitly
    sparse_rows = [{j: e for j, e in enumerate(row) if e or data.draw(st.booleans())} for row in a]
    sparse = IntMatrix(sparse_rows, cols=n)
    assert sparse == dense
    assert hash(sparse) == hash(dense)
    assert sparse.to_lists() == a and repr(sparse) == repr(dense)
    if m and n:
        i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, n - 1))
        changed = [list(row) for row in a]
        changed[i][j] += data.draw(st.sampled_from((-1, 1)))
        assert IntMatrix.from_rows(changed, cols=n) != dense


def test_sparse_row_validation():
    assert IntMatrix([{0: 0}], cols=1) == IntMatrix.zeros(1, 1)
    with pytest.raises(InputError):
        IntMatrix([{2: 1}], cols=2)
    with pytest.raises(InputError):
        IntMatrix([{-1: 1}], cols=2)
    with pytest.raises(InputError):
        IntMatrix([{0: 1.5}], cols=2)
    with pytest.raises(InputError):
        IntMatrix([{"0": 1}], cols=2)
    with pytest.raises(InputError):
        IntMatrix([], cols=-1)


def test_negative_dimensions_are_input_errors():
    with pytest.raises(InputError):
        IntMatrix.zeros(-1, 0)
    with pytest.raises(InputError):
        IntMatrix.zeros(0, -1)


def test_dimensions_must_be_integers():
    with pytest.raises(InputError, match="row count must be an integer"):
        IntMatrix.zeros(1.0, 0)
    with pytest.raises(InputError, match="column count must be an integer"):
        IntMatrix.zeros(0, 1.0)


def test_sparse_width_must_be_an_integer():
    with pytest.raises(InputError, match="column count must be an integer"):
        IntMatrix([{0: 1}], 1.5)


@pytest.mark.parametrize("rows, cols", [([[1]], True), ([[1, 2]], 2.0), ([], True)])
def test_dense_width_must_be_an_integer(rows, cols):
    # True == 1 and 2.0 == 2, so a width compared with the rows' length
    # before it was read as an integer let both through
    with pytest.raises(InputError, match="column count must be an integer"):
        IntMatrix.from_rows(rows, cols=cols)


@pytest.mark.parametrize("index", [-1, 2, 5, 7])
def test_row_and_column_indices_out_of_range(index):
    M = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert M.row(1) == (3, 4)
    for read in (M.row, lambda k: M[k, 0], lambda k: M[0, k]):
        with pytest.raises(InputError, match="out of range"):
            read(index)


@pytest.mark.parametrize("index", [1.5, 0.5, 1.0, "1"])
def test_row_and_column_indices_must_be_integers(index):
    # 1.5 used to read as an absent entry (0) and 1.0 as column 1
    M = IntMatrix.from_rows([[1, 2], [3, 4]])
    for read in (M.row, lambda k: M[k, 0], lambda k: M[0, k]):
        with pytest.raises(InputError, match="index must be an integer"):
            read(index)


@pytest.mark.parametrize(
    "read, vector",
    [
        ("mul_vector", [1.5, 0]),
        ("mul_vector", [0, "1"]),
        ("mul_vector", 5),
        ("U_mul_vector", [1.5, 0]),
        ("U_mul_vector", [0, "1"]),
        ("U_mul_vector", 5),
        ("append_column", 5),
    ],
    ids=repr,
)
def test_vector_readers_take_integer_vectors(read, vector):
    # mul_vector and U_mul_vector returned (1.5, 4.5) for [1.5, 0]
    M = IntMatrix.from_rows([[1, 2], [3, 4]])
    reader = AbelianPresentation(M).smith if read == "U_mul_vector" else M
    with pytest.raises(InputError, match="must be"):
        getattr(reader, read)(vector)


@pytest.mark.parametrize(
    "read, vector, message",
    [
        ("mul_vector", [1, 2, 3], "vector of length 3 does not match 2 columns"),
        ("U_mul_vector", [1], "vector of length 1 does not match 3 rows"),
        ("append_column", [1, 2], "column of length 2 does not match 3 rows"),
    ],
    ids=["mul_vector", "U_mul_vector", "append_column"],
)
def test_vector_readers_check_the_length(read, vector, message):
    M = IntMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    reader = AbelianPresentation(M).smith if read == "U_mul_vector" else M
    with pytest.raises(InputError, match=message):
        getattr(reader, read)(vector)


def test_a_matrix_equals_no_other_type():
    M = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert M.__eq__([[1, 2], [3, 4]]) is NotImplemented
    assert M != [[1, 2], [3, 4]] and M != ((1, 2), (3, 4))


def test_a_matrix_multiplies_no_other_type():
    M = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert M.__matmul__(3) is NotImplemented
    for other in (3, [[1, 0], [0, 1]]):
        with pytest.raises(TypeError):
            M @ other
