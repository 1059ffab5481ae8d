"""The shared input guards of ``divclass.errors``, read through every public entry point."""

import pytest

from divclass import (
    ClassElement,
    ConeDescription,
    InputError,
    IntMatrix,
    build_poset,
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
    ],
)
def test_malformed_containers_are_input_errors(build):
    # each raised a bare TypeError or AttributeError from inside the library
    with pytest.raises(InputError):
        build()

