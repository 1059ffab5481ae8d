"""The shared input guards of ``divclass.errors``, read through every public entry point."""

import pytest

from divclass import (
    ClassElement,
    ConeDescription,
    InputError,
    IntMatrix,
    build_poset,
    normalize_form,
    solve_integer,
)

M = IntMatrix.from_rows([[1, 2], [3, 4]])


@pytest.mark.parametrize(
    "build",
    [
        lambda: ConeDescription(2, 5),
        lambda: IntMatrix.from_rows(5),
        lambda: IntMatrix.from_rows([5]),
        lambda: IntMatrix.from_sparse(5, 2),
        lambda: IntMatrix.from_sparse([5], 2),
        lambda: M[0],
        lambda: IntMatrix(2, 2, 5),
        lambda: IntMatrix.identity(1.5),
        lambda: IntMatrix.zeros(1.5, 1),
        lambda: ClassElement(5),
        lambda: solve_integer(M, 5),
        lambda: build_poset(5),
        lambda: build_poset(["a"], 5),
        lambda: IntMatrix.from_sparse([{0: 1}], 2).mul_vector({0: 1, 1: 2}),
        lambda: ConeDescription(2, [{1: 0, 0: 1}, (1, 1)]),
        lambda: M.mul_vector({2, 1}),
        lambda: IntMatrix(1, 2, {5, 1}),
        lambda: normalize_form({3, 6}),
        lambda: build_poset("abc"),
        lambda: IntMatrix.from_rows([b"\x01\x02"]),
        lambda: M[(0,)],
        lambda: M[0, 1, 2],
    ],
    ids=[
        "cone-forms",
        "from-rows",
        "from-rows-row",
        "from-sparse",
        "from-sparse-row",
        "index",
        "entries",
        "identity",
        "zeros",
        "class-element",
        "right-hand-side",
        "names",
        "relations",
        "vector-as-mapping",
        "cone-form-as-mapping",
        "vector-as-set",
        "entries-as-set",
        "form-as-set",
        "names-as-string",
        "row-as-bytes",
        "index-too-short",
        "index-too-long",
    ],
)
def test_malformed_containers_are_input_errors(build):
    # each raised a bare TypeError, AttributeError or ValueError from inside
    # the library, or read a mapping as its keys, a set in hash order or a
    # string character by character and answered silently
    with pytest.raises(InputError):
        build()

