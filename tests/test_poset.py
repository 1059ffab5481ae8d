import random

import pytest

from divclass import (
    BoundedPoset,
    InputError,
    LimitExceededError,
    Poset,
    build_poset,
    maximal_chains,
    two_chains_poset,
)
from divclass.poset import disjoint_chain_pairs
from divclass.sweep import random_poset

from oracles import (
    brute_maximal_chain_cardinalities,
    networkx_canonical_poset,
    recursive_maximal_chains,
)


def test_single_element():
    p = build_poset(["a"])
    assert p.n == 1
    assert p.covers == frozenset()
    assert p.minimals() == p.maximals() == (0,)


def test_transitive_reduction_of_chain():
    p = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert p.labels == ("a", "b", "c")
    assert p.covers == frozenset({(0, 1), (1, 2)})


def test_cycle_rejected():
    with pytest.raises(InputError):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(InputError):
        build_poset(["a"], [("a", "a")])


@pytest.mark.parametrize(
    "relation",
    ["ba", "ab", ("a", "b", "a"), ("a",), (), 7, None, {"a", "b"}, {"a": 1, "b": 2}],
    ids=["'ba'", "'ab'", "('a', 'b', 'a')", "('a',)", "()", "7", "None", "set", "mapping"],
)
def test_relation_that_is_not_a_pair_rejected(relation):
    # a two-character string would otherwise unpack into a pair of names, a
    # set in hash order and a mapping into its keys
    with pytest.raises(InputError, match="not a pair"):
        build_poset(["a", "b"], [relation])


@pytest.mark.parametrize(
    "labels, covers",
    [
        (("a", "b", "c"), {(0, 1), (1, 2), (0, 2)}),
        (("a", "b"), {(1, 0)}),
        (("a", "a"), set()),
        (("a", "b"), {(0, 2)}),
        (("a", "b"), {(-1, 1)}),
        (("a", "b"), {(0, 0)}),
        (("a", "b"), {(False, True)}),
        (("a", "b"), {(0, 1, 1)}),
        (("a", "b"), {"01"}),
        ((1, 2), set()),
        (["a", "b"], set()),
    ],
    ids=[
        "implied cover",
        "descending cover",
        "repeated label",
        "cover out of range",
        "negative index",
        "reflexive cover",
        "bool indices",
        "triple",
        "string pair",
        "non-string labels",
        "label list",
    ],
)
def test_malformed_poset_rejected_on_construction(labels, covers):
    # a directly built Poset is held to what build_poset guarantees: the
    # chain a < b < c with its implied cover (0, 2) would otherwise get the
    # class group Z where the chain's is 0
    with pytest.raises(InputError):
        Poset(labels=labels, covers=frozenset(covers))


def test_covers_must_be_a_frozenset():
    with pytest.raises(InputError, match="frozenset"):
        Poset(labels=("a", "b"), covers={(0, 1)})
    assert Poset(labels=("a", "b", "c"), covers=frozenset({(0, 1), (1, 2)})) == build_poset(
        ["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]
    )


def _messy_relations(rng, n):
    """Shuffled names and a random order's relations, padded and sometimes cyclic.

    Pads with implied (transitive) relations and repeated pairs; about one
    set in four gains a back edge or a reflexive pair.
    """
    names = [f"e{k}" for k in rng.sample(range(100), n)]
    hidden = rng.sample(names, n)  # position i < j in hidden: i may lie below j
    density = rng.random() * 0.5
    direct = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density}
    reach = [set() for _ in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if (i, j) in direct:
                reach[i] |= {j} | reach[j]
    implied = sorted({(i, j) for i in range(n) for j in reach[i]} - direct)
    pairs = sorted(direct) + rng.sample(implied, rng.randrange(len(implied) + 1))
    pairs += rng.choices(pairs, k=rng.randrange(4)) if pairs else []
    if n and rng.random() < 0.25:
        i, j = sorted(rng.randrange(n) for _ in range(2))
        pairs.append((j, i))
    rng.shuffle(pairs)
    return names, [(hidden[i], hidden[j]) for i, j in pairs]


def test_build_poset_matches_networkx_oracle():
    rng = random.Random(20261018)
    cyclic = 0
    for _ in range(2500):
        names, relations = _messy_relations(rng, rng.randrange(15))
        expected = networkx_canonical_poset(names, relations)
        if expected is None:
            cyclic += 1
            with pytest.raises(InputError):
                build_poset(names, relations)
        else:
            assert build_poset(names, relations) == expected
    assert 200 < cyclic < 1000


def test_unknown_and_duplicate_names():
    with pytest.raises(InputError):
        build_poset(["a"], [("a", "z")])
    with pytest.raises(InputError):
        build_poset(["a", "a"])


def test_relabeling_is_linear_extension():
    rng = random.Random(6)
    for _ in range(60):
        p = random_poset(rng, 7)
        assert all(i < j for i, j in p.covers)


def test_build_idempotent():
    rng = random.Random(8)
    for _ in range(40):
        p = random_poset(rng, 7)
        again = build_poset(p.labels, p.cover_label_pairs())
        assert again == p


def test_stable_topological_relabeling():
    # c has no relations and comes last in input order, so it stays last
    p = build_poset(["b", "a", "c"], [("b", "a")])
    assert p.labels == ("b", "a", "c")


def test_bound_empty():
    b = BoundedPoset(build_poset([]))
    assert b.edges == ((0, 1),)
    assert b.top == 1
    assert b.vertex_name(0) == "bot" and b.vertex_name(1) == "top"


def test_bound_two_chains_1_1():
    b = BoundedPoset(two_chains_poset(1, 1))
    assert len(b.edges) == 6  # 2 covers + 2 minimal + 2 maximal


def test_bound_antichain():
    b = BoundedPoset(build_poset(["x1", "x2"]))
    assert b.edges == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_bound_edge_count_formula():
    rng = random.Random(10)
    for _ in range(60):
        p = random_poset(rng, 7)
        b = BoundedPoset(p)
        if p.n == 0:
            assert len(b.edges) == 1
        else:
            assert len(b.edges) == len(p.covers) + len(p.minimals()) + len(p.maximals())


def test_is_pure_examples():
    assert BoundedPoset(build_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])).is_graded()
    assert not BoundedPoset(two_chains_poset(5, 2)).is_graded()
    assert BoundedPoset(build_poset([f"x{i}" for i in range(4)])).is_graded()
    assert BoundedPoset(build_poset([])).is_graded()


def test_is_pure_against_brute_force():
    rng = random.Random(12)
    for _ in range(150):
        p = random_poset(rng, 7)
        sizes = brute_maximal_chain_cardinalities(p.n, p.covers)
        assert BoundedPoset(p).is_graded() == (len(set(sizes)) <= 1)


def test_maximal_chains_two_chains():
    p = two_chains_poset(5, 2)
    chains = maximal_chains(p)
    assert sorted(len(c) for c in chains) == [3, 6]


def disjoint_pairs(p):
    return list(disjoint_chain_pairs(maximal_chains(p)))


def test_disjoint_pair_examples():
    assert disjoint_pairs(build_poset(["a", "b"], [("a", "b")])) == []

    [(first, second)] = disjoint_pairs(two_chains_poset(5, 2))
    # chain length counts cover steps, one less than the element count
    assert (len(first) - 1, len(second) - 1) == (5, 2)
    assert set(first).isdisjoint(second)

    diamond = build_poset(["x", "y", "z", "w"], [("x", "y"), ("x", "z"), ("y", "w"), ("z", "w")])
    assert disjoint_pairs(diamond) == []


def test_disjoint_pair_empty_poset():
    assert disjoint_pairs(build_poset([])) == []


def test_chain_limit():
    # three stacked antichains of 2: 2^3 = 8 maximal chains
    names = [f"v{i}" for i in range(6)]
    relations = [
        (names[i], names[j])
        for layer in range(2)
        for i in (2 * layer, 2 * layer + 1)
        for j in (2 * layer + 2, 2 * layer + 3)
    ]
    p = build_poset(names, relations)
    assert len(maximal_chains(p)) == 8
    with pytest.raises(LimitExceededError):
        maximal_chains(p, limit=3)


def test_maximal_chains_match_recursive_oracle():
    rng = random.Random(20261018)
    for _ in range(2000):
        p = random_poset(rng, 10)
        chains = maximal_chains(p)
        assert chains == recursive_maximal_chains(p, len(chains))
        if not chains:  # the empty poset
            continue
        # both stop on the first chain past the limit
        for enumerate_chains in (maximal_chains, recursive_maximal_chains):
            with pytest.raises(LimitExceededError):
                enumerate_chains(p, len(chains) - 1)


def test_long_chain_needs_no_recursion():
    # one frame per chain element would pass the interpreter's recursion limit
    p = two_chains_poset(1500, 1)
    assert [len(c) for c in maximal_chains(p)] == [1501, 2]
    [(first, second)] = disjoint_pairs(p)
    assert (len(first) - 1, len(second) - 1) == (1500, 1)


def test_two_chains_builder():
    p = two_chains_poset(0, 0)
    assert p.n == 2 and not p.covers
    with pytest.raises(InputError):
        two_chains_poset(-1, 2)
    p52 = two_chains_poset(5, 2)
    assert p52.n == 9
    assert len(p52.covers) == 7


@pytest.mark.parametrize(
    "build",
    [
        lambda: two_chains_poset(1.5, 2),
        lambda: two_chains_poset(2, "1"),
        lambda: maximal_chains(two_chains_poset(2, 1), limit="3"),
    ],
    ids=["a", "b", "limit"],
)
def test_chain_arguments_must_be_integers(build):
    with pytest.raises(InputError, match="must be an integer"):
        build()
