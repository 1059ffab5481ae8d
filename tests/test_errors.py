"""The shared input guards of ``divclass.errors``, read through every public entry point."""

import inspect

import pytest

import divclass
from divclass import (
    AbelianPresentation,
    ClassElement,
    ConeDescription,
    InputError,
    IntMatrix,
    build_poset,
    choose_tree,
    cone_report,
    fitting_number,
    normalize_form,
    quotient_by,
    run_sweep,
    smith_normal_form,
    solve_integer,
    structure,
    torsion_number,
    verify_column_relations,
)
from divclass.abelian import torsion_and_free_coordinates
from divclass.errors import as_tuple, excerpt, integer_vector

M = IntMatrix.from_rows([[1, 2], [3, 4]])


@pytest.mark.parametrize(
    "build",
    [
        lambda: ConeDescription(2, 5),
        lambda: IntMatrix.from_rows(5),
        lambda: IntMatrix.from_rows([5]),
        lambda: IntMatrix(5, 2),
        lambda: IntMatrix([5], 2),
        lambda: M[0],
        lambda: IntMatrix.identity(1.5),
        lambda: IntMatrix.zeros(1.5, 1),
        lambda: ClassElement(5),
        lambda: solve_integer(M, 5),
        lambda: build_poset(5),
        lambda: build_poset(["a"], 5),
        lambda: IntMatrix([{0: 1}], 2).mul_vector({0: 1, 1: 2}),
        lambda: ConeDescription(2, [{1: 0, 0: 1}, (1, 1)]),
        lambda: M.mul_vector({2, 1}),
        lambda: IntMatrix({(5, 1), (0, 2)}, 2),
        lambda: normalize_form({3, 6}),
        lambda: build_poset("abc"),
        lambda: IntMatrix.from_rows([b"\x01\x02"]),
        lambda: M[(0,)],
        lambda: M[0, 1, 2],
        lambda: as_tuple("ab", "vector"),
        lambda: as_tuple(b"ab", "vector"),
        lambda: as_tuple({0: 1}, "vector"),
        lambda: as_tuple({1, 2}, "vector"),
    ],
    ids=[
        "cone-forms",
        "from-rows",
        "from-rows-row",
        "from-sparse",
        "from-sparse-row",
        "index",
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
        "str-as-tuple",
        "bytes-as-tuple",
        "dict-as-tuple",
        "set-as-tuple",
    ],
)
def test_malformed_containers_are_input_errors(build):
    # each raised a bare TypeError, AttributeError or ValueError from inside
    # the library, or read a mapping as its keys, a set in hash order or a
    # string character by character and answered silently
    with pytest.raises(InputError):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: ConeDescription(True, [(1,)]),
        lambda: IntMatrix.from_rows([[True, False]]),
        lambda: IntMatrix([{True: 1}], 2),
        lambda: run_sweep(True, 3, 1),
        lambda: fitting_number(AbelianPresentation(M), True),
        lambda: ClassElement((True, 2)),
        lambda: integer_vector((1, True), "vector"),
        lambda: integer_vector([0, False], "vector"),
    ],
    ids=[
        "cone-dimension",
        "entry",
        "column",
        "sweep-count",
        "fitting-index",
        "coordinate",
        "tuple-entry",
        "list-entry",
    ],
)
def test_bools_are_not_integers(build):
    # each was read as 0 or 1, while the command line refuses a JSON true
    with pytest.raises(InputError):
        build()


class _Tuple(tuple):
    pass


class _List(list):
    pass


class _Int(int):
    pass


@pytest.mark.parametrize(
    "values, expected",
    [
        ((1, -2), (1, -2)),
        ([1, -2], (1, -2)),
        (_Tuple((1, -2)), (1, -2)),
        (_List([1, -2]), (1, -2)),
        ((_Int(3), 4), (3, 4)),
        ((2**200, -(2**200)), (2**200, -(2**200))),
        ([2**200], (2**200,)),
        ((), ()),
    ],
    ids=["tuple", "list", "tuple-subclass", "list-subclass", "int-subclass", "huge", "huge-list", "empty"],
)
def test_integer_vectors_read_as_exact_int_tuples(values, expected):
    # tuples, lists and their subclasses read as an exact tuple of exact
    # ints, each value unchanged
    result = integer_vector(values, "vector")
    assert result == expected and type(result) is tuple
    assert all(type(x) is int for x in result)
    assert as_tuple(values, "vector") == tuple(values) and type(as_tuple(values, "vector")) is tuple


Z6 = AbelianPresentation(IntMatrix.from_rows([[6]]))


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda: torsion_number(Z6, (4,)), (4,)),
        (lambda: quotient_by(Z6, [1]), [1]),
        (lambda: structure(AbelianPresentation([[6]])), [[6]]),
        (lambda: smith_normal_form([[6]]), [[6]]),
        (lambda: solve_integer([[1]], [1]), [[1]]),
        (lambda: cone_report("x"), "x"),
        (lambda: choose_tree(None), None),
        (lambda: verify_column_relations(build_poset(["a"])), build_poset(["a"])),
    ],
    ids=[
        "element",
        "quotient-element",
        "presentation",
        "smith",
        "solve",
        "cone",
        "tree-extension",
        "verified-tree",
    ],
)
def test_wrong_typed_arguments_are_input_errors(call, value):
    # each read an attribute of the value and raised AttributeError
    with pytest.raises(InputError) as info:
        call()
    assert excerpt(value) in str(info.value)


# valid arguments after the first, for each public function that takes more
ONE = ClassElement((1,))
REST = {
    "determinantal_invariants": (2,),
    "fitting_number": (0,),
    "quotient_by": (ONE,),
    "run_sweep": (10, 1),
    "segre_veronese_cone": (1, 2, 1),
    "solve_integer": ((1,),),
    "torsion_and_free_coordinates": (ONE,),
    "torsion_number": (ONE,),
    "two_chains_poset": (0,),
    "veronese_cone": (1,),
}
DOORS = {name: getattr(divclass, name) for name in divclass.__all__}
DOORS = {name: value for name, value in DOORS.items() if inspect.isfunction(value)}
DOORS["torsion_and_free_coordinates"] = torsion_and_free_coordinates


@pytest.mark.parametrize("name", sorted(DOORS))
def test_every_public_function_refuses_a_wrong_typed_first_argument(name):
    # no public door may pass a wrong type on to an AttributeError deeper in
    wrong = object()
    with pytest.raises(InputError) as info:
        DOORS[name](wrong, *REST.get(name, ()))
    assert excerpt(wrong) in str(info.value)


HUGE = 10**5000  # past the interpreter's 4,300-digit limit for writing an int out


@pytest.mark.parametrize(
    "build",
    [
        lambda: fitting_number(AbelianPresentation(M), HUGE),
        lambda: M[HUGE, 0],
        lambda: M.row(-HUGE),
        lambda: ConeDescription(2, [(2 * HUGE, 2)]),
        lambda: ConeDescription(3, [(HUGE, 1)]),
        lambda: ConeDescription(HUGE, [(1, 1)]),
        lambda: ConeDescription(2, [(1, 1)], [HUGE, -HUGE]),
        lambda: IntMatrix.from_rows([[1]], cols=HUGE),
        lambda: build_poset(["a"], [("a", "b" * 5000)]),
        lambda: ClassElement(["x" * 5000]),
    ],
    ids=[
        "fitting-index",
        "matrix-index",
        "row-index",
        "non-primitive-form",
        "form-of-wrong-length",
        "cone-dimension",
        "interior-point",
        "row-length",
        "unknown-element",
        "non-integer-coordinate",
    ],
)
def test_messages_quote_only_an_excerpt_of_a_huge_value(build):
    # writing HUGE out raised ValueError, not InputError; a long string was
    # quoted in full
    with pytest.raises(InputError) as info:
        build()
    assert len(str(info.value)) < 300


def test_excerpt_is_repr_for_short_values():
    for value in (-(2**128) + 1, "name", ("a", 1), [1, 2, 3], (2**64, -5)):
        assert excerpt(value) == repr(value)
    assert excerpt(2**128) == "<129-bit integer>"
    assert len(excerpt([["x" * 5000] * 5000] * 5000)) <= 100
