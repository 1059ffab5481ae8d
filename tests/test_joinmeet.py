import copy
import math
import random
import re
import sys
from collections import Counter

import pytest

from divclass import (
    AbelianPresentation,
    BoundedPoset,
    ClassElement,
    ConeDescription,
    GroupStructure,
    InputError,
    InternalInvariantError,
    IntMatrix,
    SpanningTree,
    build_poset,
    choose_tree,
    cone_report,
    joinmeet_report,
    maximal_chains,
    relation_matrix,
    torsion_number,
    two_chains_poset,
    verify_column_relations,
)
from divclass import joinmeet, poset
from divclass.cli import main
from divclass.joinmeet import _relation_rows
from divclass.sweep import CHECKS, draw_relations, random_poset, run_sweep
from oracles import dense_class_expressions, layered_poset


def antichain2():
    return build_poset(["x1", "x2"])


def test_support_forms_antichain():
    # one support-form row per Hasse edge in edge order, columns z_0..z_n
    extension = BoundedPoset(antichain2())
    assert relation_matrix(extension).to_lists() == [[1, -1, 0], [1, 0, -1], [0, 1, 0], [0, 0, 1]]
    assert extension.edges == ((0, 1), (0, 2), (1, 3), (2, 3))


def test_support_forms_single_chain():
    extension = BoundedPoset(build_poset(["x1", "x2"], [("x1", "x2")]))
    # internal cover first, then the bottom edge, then the top edge
    assert extension.edges == ((1, 2), (0, 1), (2, 3))
    assert relation_matrix(extension).to_lists() == [[0, 1, -1], [1, -1, 0], [0, 0, 1]]


def test_support_forms_empty_poset():
    extension = BoundedPoset(build_poset([]))
    assert relation_matrix(extension).to_lists() == [[1]]
    assert extension.edges == ((0, 1),)


def test_relation_matrix_examples():
    assert relation_matrix(BoundedPoset(antichain2())) == IntMatrix.from_rows(
        [[1, -1, 0], [1, 0, -1], [0, 1, 0], [0, 0, 1]]
    )
    assert relation_matrix(BoundedPoset(build_poset(["x1"]))) == IntMatrix.from_rows([[1, -1], [0, 1]])
    assert relation_matrix(BoundedPoset(build_poset([]))) == IntMatrix.from_rows([[1]])


def test_trusted_relation_matrix_matches_the_validating_constructor():
    rng = random.Random(1)
    for _ in range(300):
        extension = BoundedPoset(random_poset(rng, 10))
        validated = IntMatrix(_relation_rows(extension), cols=extension.top)
        matrix = relation_matrix(extension)
        assert matrix == validated and hash(matrix) == hash(validated)


def test_choose_tree_chain():
    tree = choose_tree(BoundedPoset(build_poset(["x1", "x2"], [("x1", "x2")])))
    assert tree.tree_edges == ((0, 1), (1, 2), (2, 3))
    assert tree.nontree_edges == ()


def test_choose_tree_antichain():
    tree = choose_tree(BoundedPoset(antichain2()))
    assert tree.tree_edges == ((0, 1), (1, 3), (2, 3))
    assert tree.nontree_edges == ((0, 2),)


def test_choose_tree_two_chains():
    extension = BoundedPoset(two_chains_poset(1, 1))
    tree = choose_tree(extension)
    assert len(tree.tree_edges) == 5
    assert len(tree.nontree_edges) == 1


def test_tree_rows_upper_triangular():
    rng = random.Random(21)
    for _ in range(60):
        p = random_poset(rng, 7)
        extension = BoundedPoset(p)
        tree = choose_tree(extension)
        coeffs = dict(zip(extension.edges, relation_matrix(extension).to_lists()))
        for v, edge in enumerate(tree.tree_edges):
            row = coeffs[edge]
            assert row[v] == 1
            assert all(row[w] == 0 for w in range(v))


# a two-element chain a < b: its extension has the edges (1, 2), (0, 1) and (2, 3)
CHAIN2 = build_poset(["a", "b"], [("a", "b")])


def with_edges(poset, edges):
    """``BoundedPoset(poset)`` with its derived edges overwritten, a state no constructor builds."""
    extension = BoundedPoset(poset)
    object.__setattr__(extension, "edges", edges)
    return extension


def test_tree_of_another_extension_is_input_error():
    # a tree carries its extension, so the tree steps cannot be handed a
    # tree of another one; the edges of another extension, or of this one
    # with a vertex's tree edge moved to the nontree edges, build no tree
    e1 = BoundedPoset(two_chains_poset(2, 1))
    e2 = BoundedPoset(build_poset(["a", "b", "c"], [("a", "b"), ("a", "c")]))
    t2 = choose_tree(e2)
    with pytest.raises(InputError, match="do not partition"):
        SpanningTree(e1, t2.tree_edges, t2.nontree_edges)
    t1 = choose_tree(e1)
    with pytest.raises(InputError, match="one edge out of each vertex"):
        SpanningTree(e1, t1.tree_edges[:-1], t1.nontree_edges + t1.tree_edges[-1:])


@pytest.mark.parametrize(
    "fields, message",
    [
        ((None, None), "tree edges must be a sequence"),
        (([(0, 1), (1, 3), (2, 3)], None), "nontree edges must be a sequence"),
        ((((0, 1), (1, 3), (2, 3)), ((0, 2, 4),)), r"tree edge \(0, 2, 4\) is not a pair"),
        ((((0, 1), (1, 3), (2, 3)), ([0, 2],)), r"tree edge \[0, 2\] is not a pair"),
        ((((0, 1), (1, 3), (2, 3)), (5,)), "tree edge 5 is not a pair"),
        ((((0, 1), (1, 3), (2, 3)), ((0, "2"),)), "is not a pair of int vertices"),
        ((((0, True), (1, 3), (2, 3)), ((0, 2),)), "is not a pair of int vertices"),
    ],
    ids=["none", "none-nontree", "triple", "list-edge", "int-edge", "str-vertex", "bool-vertex"],
)
def test_malformed_spanning_tree_is_input_error(fields, message):
    # each field is read as a tuple and each edge must be an int pair before
    # the edges are sorted against the extension's, which would raise TypeError
    with pytest.raises(InputError, match=message):
        SpanningTree(BoundedPoset(antichain2()), *fields)


def test_spanning_tree_reads_its_edge_fields_as_tuples():
    extension = BoundedPoset(antichain2())
    tree = choose_tree(extension)
    listed = SpanningTree(extension, list(tree.tree_edges), list(tree.nontree_edges))
    assert listed == tree and hash(listed) == hash(tree)
    assert type(listed.tree_edges) is tuple and type(listed.nontree_edges) is tuple
    with pytest.raises(InputError, match="needs a BoundedPoset"):
        SpanningTree(antichain2(), tree.tree_edges, tree.nontree_edges)


def test_an_extension_is_derived_from_its_poset():
    # hand-built edges would reach relation_matrix's trusted constructor (an
    # edge to column 5 of a one-element poset) and the tree route (the chain
    # a < b with an extra edge (1, 3) has a nontree edge of canonical
    # coordinate -1, the true chain none), so they cannot be passed in
    with pytest.raises(TypeError):
        BoundedPoset(build_poset(["a"]), ((0, 5),))
    with pytest.raises(TypeError):
        BoundedPoset(CHAIN2, BoundedPoset(CHAIN2).edges + ((1, 3),))
    with pytest.raises(TypeError):
        BoundedPoset(base=CHAIN2, edges=((0, 1),))
    assert BoundedPoset(CHAIN2) == BoundedPoset(CHAIN2)
    assert choose_tree(BoundedPoset(CHAIN2)).nontree_edges == ()
    for base in (None, "ab", ("a", "b"), BoundedPoset(CHAIN2)):
        with pytest.raises(InputError, match="needs a Poset"):
            BoundedPoset(base)


@pytest.mark.parametrize(
    "edges, message",
    [
        (((0, 1), (2, 3)), "vertex 1 has no upward edge"),
        (((1, 2), (1, 2), (0, 1), (2, 3)), "tree edges do not partition the edge set"),
        (((1, 2), (0, 1), (2, 3), (2, 0)), "tree row 2 is not upper triangular"),
    ],
    ids=["no-upward-edge", "repeated-edge", "downward-edge"],
)
def test_each_choose_tree_invariant_raises(edges, message):
    with pytest.raises(InternalInvariantError, match=message):
        choose_tree(with_edges(CHAIN2, edges))


def test_is_graded_raises_on_an_edge_out_of_an_unranked_vertex():
    with pytest.raises(InternalInvariantError, match="vertex 2 reached before being ranked"):
        with_edges(CHAIN2, ((2, 1), (0, 2), (1, 3))).is_graded()


def test_class_expressions_chain():
    tree = choose_tree(BoundedPoset(build_poset(["x1", "x2"], [("x1", "x2")])))
    assert tree.canonical_coords == ()
    assert tree.cycles == ()


def test_class_expressions_antichain():
    tree = choose_tree(BoundedPoset(antichain2()))
    # cycle bot -> x2 -> top -> x1 -> bot: +1 on (x2, top), -1 on (bot, x1)
    # and (x1, top); so the canonical coordinate is 1 + (1 - 1 - 1) = 0
    assert tree.cycles == (((2, 1), (0, -1), (1, -1)),)
    assert tree.canonical_coords == (0,)


def test_class_expressions_two_chains():
    tree = choose_tree(BoundedPoset(two_chains_poset(5, 2)))
    assert tuple(abs(c) for c in tree.canonical_coords) == (3,)


def test_cycles_are_derived_from_the_tree_edges():
    # like a BoundedPoset's edges, the cycles and the canonical coordinates
    # are derived on construction and cannot be passed in
    extension = BoundedPoset(antichain2())
    tree = choose_tree(extension)
    with pytest.raises(TypeError):
        SpanningTree(extension, tree.tree_edges, tree.nontree_edges, tree.cycles)
    with pytest.raises(TypeError):
        SpanningTree(extension, tree.tree_edges, tree.nontree_edges, canonical_coords=(0,))


def with_cycles(tree, cycles):
    """A copy of ``tree`` with its derived cycles overwritten, a state no constructor builds."""
    corrupted = copy.copy(tree)
    object.__setattr__(corrupted, "cycles", cycles)
    return corrupted


def test_verify_column_relations():
    for poset in (build_poset(["x1"]), antichain2(), two_chains_poset(3, 1)):
        assert verify_column_relations(choose_tree(BoundedPoset(poset)))


def test_verify_rejects_corrupted_expression():
    tree = choose_tree(BoundedPoset(antichain2()))
    for cycle in (((2, 1), (0, 1), (1, -1)), ((2, 1), (1, -1))):  # a sign flipped, a vertex dropped
        assert not verify_column_relations(with_cycles(tree, (cycle,)))


def densify(cycles, rows):
    """Dense table of sparse cycles: entry [v][j] sums the signs of vertex v in cycle j."""
    table = [[0] * len(cycles) for _ in range(rows)]
    for j, cycle in enumerate(cycles):
        for v, sign in cycle:
            table[v][j] += sign
    return tuple(map(tuple, table))


def test_sparse_cycles_match_dense_oracle():
    rng = random.Random(90)
    posets = [random_poset(rng, 10) for _ in range(2000)]
    posets += [layered_poset(n) for n in (20, 40, 80, 160)]
    mutated = 0
    for p in posets:
        extension = BoundedPoset(p)
        tree = choose_tree(extension)
        coeffs, canonical = dense_class_expressions(tree)
        assert densify(tree.cycles, len(tree.tree_edges)) == coeffs
        assert tree.canonical_coords == canonical
        # each coordinate the report prints is the one read off its certified cycle
        assert tree.canonical_coords == tuple(1 + sum(s for _, s in c) for c in tree.cycles)
        assert all(len({v for v, _ in cycle}) == len(cycle) for cycle in tree.cycles)
        assert verify_column_relations(tree)
        if not tree.cycles:
            continue
        # every single dropped vertex or flipped sign in one cycle breaks a relation
        j = rng.randrange(len(tree.cycles))
        cycle = tree.cycles[j]
        for k, (v, sign) in enumerate(cycle):
            for changed in (cycle[:k] + cycle[k + 1 :], cycle[:k] + ((v, -sign),) + cycle[k + 1 :]):
                cycles = tree.cycles[:j] + (changed,) + tree.cycles[j + 1 :]
                assert not verify_column_relations(with_cycles(tree, cycles))
                mutated += 1
    assert mutated > 2000


def test_joinmeet_report_examples():
    rep = joinmeet_report(two_chains_poset(5, 2))
    assert rep.group.free_rank == 1 and not rep.group.torsion_factors
    assert rep.torsion_number == 3
    assert rep.pure is False and rep.gorenstein is False

    rep = joinmeet_report(two_chains_poset(3, 3))
    assert rep.group.free_rank == 1
    assert rep.torsion_number == 0
    assert rep.pure is True and rep.gorenstein is True

    rep = joinmeet_report(antichain2())
    assert rep.group.free_rank == 1
    assert rep.torsion_number == 0
    assert rep.pure is True


def test_joinmeet_report_empty_poset():
    rep = joinmeet_report(build_poset([]))
    assert rep.num_height_one_primes == 1
    assert rep.group.free_rank == 0
    assert rep.torsion_number == 0
    assert rep.gorenstein and rep.pure


def test_rank_formula_and_freeness():
    rng = random.Random(40)
    for _ in range(80):
        p = random_poset(rng, 7)
        rep = joinmeet_report(p)
        assert rep.group.free_rank == len(BoundedPoset(p).edges) - (p.n + 1)
        assert rep.group.torsion_factors == ()


def test_report_at_scale():
    # Both routes run on all 693 Hasse edges and are cross-checked inside the report.
    rep = joinmeet_report(layered_poset(320))
    assert rep.num_height_one_primes == 693
    assert rep.group.free_rank == 693 - 321
    assert rep.group.torsion_factors == ()
    assert rep.gorenstein == rep.pure


def test_report_at_roadmap_scale():
    # 1000 elements, 2,153 Hasse edges; both routes run and are cross-checked
    # inside the report.
    rep = joinmeet_report(layered_poset(1000))
    assert rep.num_height_one_primes == 2153
    assert rep.group.free_rank == 2153 - 1001
    assert rep.group.torsion_factors == ()
    assert rep.gorenstein == rep.pure


def alternate_tree(extension):
    """Largest-target upward edges: a different valid spanning tree."""
    ups = {}
    for u, v in extension.edges:
        ups.setdefault(u, []).append(v)
    tree = tuple((v, max(ups[v])) for v in range(extension.base.n + 1))
    tree_set = set(tree)
    nontree = tuple(e for e in extension.edges if e not in tree_set)
    return SpanningTree(extension, tree, nontree)


def test_tree_independence_of_torsion_number():
    rng = random.Random(55)
    for _ in range(60):
        p = random_poset(rng, 7)
        extension = BoundedPoset(p)
        default = choose_tree(extension)
        alt_tree = alternate_tree(extension)
        assert verify_column_relations(alt_tree)
        d_default = math.gcd(*(abs(c) for c in default.canonical_coords))
        d_alt = math.gcd(*(abs(c) for c in alt_tree.canonical_coords))
        assert d_default == d_alt
        table = densify(alt_tree.cycles, len(alt_tree.tree_edges))
        assert table == dense_class_expressions(alt_tree)[0]
        assert all(c in (-1, 0, 1) for row in table for c in row)


def label_free_facts(report):
    return (
        report.group,
        report.torsion_number,
        report.pure,
        report.gorenstein,
        report.num_height_one_primes,
        math.gcd(*report.canonical_in_basis),
    )


def test_label_permutation_invariance():
    # a poset report reads the structure alone: renaming the elements and
    # shuffling the element and relation order rebuilds the same report
    draws, shuffles = random.Random(11), random.Random(12)
    for _ in range(1000):
        p = random_poset(draws, 10)
        fresh = [f"v{k}" for k in range(p.n)]
        shuffles.shuffle(fresh)
        rename = dict(zip(p.labels, fresh))
        relations = [(rename[a], rename[b]) for a, b in p.cover_label_pairs()]
        shuffles.shuffle(relations)
        q = build_poset(shuffles.sample(fresh, p.n), relations)
        assert label_free_facts(joinmeet_report(q)) == label_free_facts(joinmeet_report(p)), p


def test_cross_method_torsion_on_randoms():
    rng = random.Random(70)
    for _ in range(60):
        p = random_poset(rng, 7)
        extension = BoundedPoset(p)
        matrix = relation_matrix(extension)
        tree = choose_tree(extension)
        d_tree = math.gcd(*(abs(c) for c in tree.canonical_coords))
        presentation = AbelianPresentation(matrix)
        d_matrix = torsion_number(presentation, ClassElement((1,) * matrix.rows))
        assert d_tree == d_matrix


def report_presentation(monkeypatch, p):
    """The ``AbelianPresentation`` that ``joinmeet_report(p)`` eliminates."""
    seen = []

    def recording(matrix):
        seen.append(AbelianPresentation(matrix))
        return seen[-1]

    with monkeypatch.context() as patch:
        patch.setattr(joinmeet, "AbelianPresentation", recording)
        joinmeet_report(p)
    (presentation,) = seen
    return presentation


def top_down_bijections(extension):
    """Rows of relation_matrix by descending (upper, lower) endpoint; columns by first appearance."""
    edges = sorted(extension.edges, key=lambda e: (-e[1], -e[0]))
    row_of = [extension.edges.index(e) for e in edges]
    col_of = list(dict.fromkeys(x for u, v in edges for x in (v, u) if x != extension.top))
    return row_of, col_of


def test_report_matrix_permutes_the_relation_matrix(monkeypatch):
    # entry by entry, the report's matrix is relation_matrix with its rows
    # and its columns each put through a bijection
    rng = random.Random(26)
    posets = [layered_poset(n) for n in range(20, 161, 20)]
    posets += [random_poset(rng, 10) for _ in range(500)]
    for p in posets:
        extension = BoundedPoset(p)
        matrix = report_presentation(monkeypatch, p).relations
        dense = relation_matrix(extension).to_lists()
        row_of, col_of = top_down_bijections(extension)
        assert sorted(row_of) == list(range(len(dense))), p
        assert sorted(col_of) == list(range(extension.top)), p
        assert (matrix.rows, matrix.cols) == (len(dense), extension.top)
        assert matrix.to_lists() == [[dense[i][j] for j in col_of] for i in row_of], p


def row_addition_counts(ops, rows):
    """How many logged row additions each input row received, following it through row swaps."""
    at = list(range(rows))  # at[position] = input row now there
    counts = Counter()
    for kind, a, b, q in ops:
        if kind == "row" and q:
            counts[at[b]] += 1
        elif kind == "row":
            at[a], at[b] = at[b], at[a]
    return counts


def test_report_elimination_has_one_entry_pivot_rows(monkeypatch):
    # top-down, every pivot is a lone +1 already on the diagonal: no column
    # operation, no sign change, and each row is cleared by at most two
    # additions of ±1, one per endpoint
    rng = random.Random(27)
    posets = [random_poset(rng, 10) for _ in range(2000)] + [layered_poset(640)]
    for p in posets:
        snf = report_presentation(monkeypatch, p).smith
        assert {kind for kind, _, _, _ in snf.ops} <= {"row"}, p
        assert {q for _, _, _, q in snf.ops} <= {-1, 0, 1}, p
        assert max(row_addition_counts(snf.ops, snf.rows).values(), default=0) <= 2, p
    # 2,751 operations here; relation_matrix's order logs 15,345
    assert len(snf.ops) <= 3000


def test_report_raises_on_impossible_state(monkeypatch):
    import divclass.joinmeet as jm

    monkeypatch.setattr(jm, "verify_column_relations", lambda *args: False)
    with pytest.raises(InternalInvariantError):
        joinmeet_report(antichain2())


def _repeat_a_tree_edge(tree):
    """The same tree with its first cycle passing its first tree edge twice."""
    if not tree.cycles:
        return tree
    first = tree.cycles[0]
    return with_cycles(tree, (first + first[:1],) + tree.cycles[1:])


# joinmeet_report is the only home of the sweep's rank_formula and
# cycle_coefficients: each case breaks one of its checks and names the
# message that check raises, and the samples of run_sweep(50, 5, 3) it hits
@pytest.mark.parametrize(
    "name, corrupt, message, hits",
    [
        (
            "structure",
            lambda real: lambda pres: GroupStructure(real(pres).free_rank + 1, ()),
            r"must be free of rank \d+, got Z",
            50,
        ),
        (
            "structure",
            lambda real: lambda pres: GroupStructure(real(pres).free_rank, (2,)),
            r"must be free of rank \d+, got .*Z/2",
            50,
        ),
        (
            "choose_tree",
            lambda real: lambda extension: _repeat_a_tree_edge(real(extension)),
            r"^fundamental-cycle coefficients must be -1, 0, or 1$",
            28,
        ),
        (
            "torsion_number",
            lambda real: lambda pres, element: real(pres, element) + 1,
            r"tree-basis torsion number \d+ disagrees with the Fitting-ideal value \d+",
            50,
        ),
    ],
    ids=["rank", "torsion-factor", "cycle-coefficient", "torsion-number"],
)
def test_each_report_invariant_raises(monkeypatch, name, corrupt, message, hits):
    monkeypatch.setattr(joinmeet, name, corrupt(getattr(joinmeet, name)))
    with pytest.raises(InternalInvariantError, match=message):
        joinmeet_report(two_chains_poset(3, 1))

    rng = random.Random(3)
    affected = []
    for index in range(50):
        try:
            joinmeet_report(random_poset(rng, 5))
        except InternalInvariantError:
            affected.append(index)
    assert len(affected) == hits
    doc = run_sweep(50, 5, 3).as_document()
    assert [failure["index"] for failure in doc["failures"]] == affected
    for failure in doc["failures"]:
        assert failure["check"] == "report_consistency"
        assert re.search(message, failure["message"])
    assert doc["checks"]["report_consistency"] == {"pass": 50 - hits, "fail": hits}
    # no other check is attempted for a sample whose report raised
    for check in CHECKS[1:]:
        assert doc["checks"][check] == {"pass": 50 - hits, "fail": 0}


def test_cone_mode_agrees_with_poset_mode():
    # the support forms of a poset, fed to cone mode, describe the same ring
    rng = random.Random(80)
    for _ in range(300):
        p = random_poset(rng, 7)
        coeffs = relation_matrix(BoundedPoset(p)).to_lists()
        rep = joinmeet_report(p)
        cone = cone_report(ConeDescription(p.n + 1, coeffs))
        assert (cone.group, cone.torsion_number, cone.gorenstein, cone.num_height_one_primes) == (
            rep.group,
            rep.torsion_number,
            rep.gorenstein,
            rep.num_height_one_primes,
        )
        assert math.gcd(*cone.canonical_in_basis) == math.gcd(*rep.canonical_in_basis)


def chain_length_gcd(p):
    """gcd of |C| - min |C'| over the maximal chains C; 0 for the empty poset."""
    lengths = [len(chain) for chain in maximal_chains(p)]
    low = min(lengths, default=0)
    return math.gcd(*(length - low for length in lengths))


def test_torsion_number_is_the_chain_length_gcd():
    # each fundamental cycle is the difference of two maximal chains, and
    # its net up-count is their length gap
    for a in range(6):
        for b in range(6):
            assert chain_length_gcd(two_chains_poset(a, b)) == abs(a - b)
    rng = random.Random(11)
    for _ in range(2000):
        p = random_poset(rng, 10)
        assert joinmeet_report(p).torsion_number == chain_length_gcd(p), p


# the report builds its bounded extension, its top-down matrix and its tree,
# checks the tree and derives its cycles (in the SpanningTree constructor),
# and verifies them, once
STEPS = (
    "BoundedPoset",
    "_top_down_matrix",
    "choose_tree",
    "SpanningTree",
    "verify_column_relations",
)


@pytest.fixture
def calls(monkeypatch):
    """Counts calls, through every divclass reference, to the poset-mode steps."""
    counts = Counter()
    for cls in (poset.BoundedPoset, joinmeet.SpanningTree):

        def counting_init(value, _init=cls.__post_init__, _name=cls.__name__):
            counts[_name] += 1
            _init(value)

        monkeypatch.setattr(cls, "__post_init__", counting_init)
    for home, name in (
        (poset, "build_poset"),
        (joinmeet, "_top_down_matrix"),
        (joinmeet, "choose_tree"),
        (joinmeet, "verify_column_relations"),
    ):
        original = getattr(home, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name == "divclass" or module_name.startswith("divclass."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counting)
    return counts


def test_sweep_builds_each_step_once_per_structure(calls):
    # each distinct draw is built once; the report steps run once per
    # distinct (n, covers)
    rng = random.Random(1)
    draws = {draw_relations(rng, 7) for _ in range(100)}
    rng = random.Random(1)
    distinct = {(p.n, p.covers) for p in (random_poset(rng, 7) for _ in range(100))}
    calls.clear()
    run_sweep(100, 7, 1)
    assert len(distinct) < len(draws) < 100
    assert calls["build_poset"] == len(draws)
    assert {step: calls[step] for step in STEPS} == {step: len(distinct) for step in STEPS}


def test_report_builds_each_step_once(calls):
    joinmeet_report(two_chains_poset(5, 2))
    assert {step: calls[step] for step in STEPS} == {step: 1 for step in STEPS}


def test_family_two_chains_builds_its_poset_once(calls):
    assert main(["family", "two-chains", "--a", "3", "--b", "1"]) == 0
    assert calls["build_poset"] == 1
    assert {step: calls[step] for step in STEPS} == {step: 1 for step in STEPS}
