import math
import random
import sys
from collections import Counter

import pytest

from divclass import (
    AbelianPresentation,
    ClassElement,
    ConeDescription,
    InternalInvariantError,
    IntMatrix,
    SpanningTree,
    bound,
    build_poset,
    choose_tree,
    class_expressions,
    cone_report,
    joinmeet_report,
    relation_matrix,
    support_forms,
    torsion_number,
    two_chains_poset,
    verify_column_relations,
)
from divclass import joinmeet, poset
from divclass.cli import main
from divclass.semigroup import canonical_coordinate_gcd
from divclass.sweep import random_poset, run_sweep
from oracles import dense_class_expressions, layered_poset


def antichain2():
    return build_poset(["x1", "x2"])


def test_support_forms_antichain():
    forms = support_forms(bound(antichain2()))
    assert [f.coeffs for f in forms] == [(1, -1, 0), (1, 0, -1), (0, 1, 0), (0, 0, 1)]
    assert [f.source_edge for f in forms] == [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_support_forms_single_chain():
    forms = support_forms(bound(build_poset(["x1", "x2"], [("x1", "x2")])))
    # internal cover first, then the bottom edge, then the top edge
    assert [f.source_edge for f in forms] == [(1, 2), (0, 1), (2, 3)]
    assert [f.coeffs for f in forms] == [(0, 1, -1), (1, -1, 0), (0, 0, 1)]


def test_support_forms_empty_poset():
    forms = support_forms(bound(build_poset([])))
    assert [f.coeffs for f in forms] == [(1,)]
    assert forms[0].source_edge == (0, 1)


def test_relation_matrix_examples():
    assert relation_matrix(support_forms(bound(antichain2()))) == IntMatrix.from_rows(
        [[1, -1, 0], [1, 0, -1], [0, 1, 0], [0, 0, 1]]
    )
    assert relation_matrix(support_forms(bound(build_poset(["x1"])))) == IntMatrix.from_rows(
        [[1, -1], [0, 1]]
    )
    assert relation_matrix(support_forms(bound(build_poset([])))) == IntMatrix.from_rows([[1]])


def test_choose_tree_chain():
    tree = choose_tree(bound(build_poset(["x1", "x2"], [("x1", "x2")])))
    assert tree.tree_edges == ((0, 1), (1, 2), (2, 3))
    assert tree.nontree_edges == ()


def test_choose_tree_antichain():
    tree = choose_tree(bound(antichain2()))
    assert tree.tree_edges == ((0, 1), (1, 3), (2, 3))
    assert tree.nontree_edges == ((0, 2),)


def test_choose_tree_two_chains():
    extension = bound(two_chains_poset(1, 1))
    tree = choose_tree(extension)
    assert len(tree.tree_edges) == 5
    assert len(tree.nontree_edges) == 1


def test_tree_rows_upper_triangular():
    rng = random.Random(21)
    for _ in range(60):
        p = random_poset(rng, 7)
        extension = bound(p)
        tree = choose_tree(extension)
        coeffs = {f.source_edge: f.coeffs for f in support_forms(extension)}
        for v, edge in enumerate(tree.tree_edges):
            row = coeffs[edge]
            assert row[v] == 1
            assert all(row[w] == 0 for w in range(v))


def test_class_expressions_chain():
    extension = bound(build_poset(["x1", "x2"], [("x1", "x2")]))
    expr = class_expressions(extension, choose_tree(extension))
    assert expr.canonical_coords == ()
    assert expr.cycles == ()


def test_class_expressions_antichain():
    extension = bound(antichain2())
    tree = choose_tree(extension)
    expr = class_expressions(extension, tree)
    # cycle bot -> x2 -> top -> x1 -> bot: +1 on (x2, top), -1 on (bot, x1)
    # and (x1, top); so the canonical coordinate is 1 + (1 - 1 - 1) = 0
    assert expr.cycles == (((2, 1), (0, -1), (1, -1)),)
    assert expr.canonical_coords == (0,)


def test_class_expressions_two_chains():
    extension = bound(two_chains_poset(5, 2))
    expr = class_expressions(extension, choose_tree(extension))
    assert tuple(abs(c) for c in expr.canonical_coords) == (3,)


def test_verify_column_relations():
    for poset in (build_poset(["x1"]), antichain2(), two_chains_poset(3, 1)):
        extension = bound(poset)
        tree = choose_tree(extension)
        expr = class_expressions(extension, tree)
        assert verify_column_relations(support_forms(extension), tree, expr)


def test_verify_rejects_corrupted_expression():
    from divclass.joinmeet import ClassExpression

    extension = bound(antichain2())
    tree = choose_tree(extension)
    expr = class_expressions(extension, tree)
    forms = support_forms(extension)
    for cycle in (((2, 1), (0, 1), (1, -1)), ((2, 1), (1, -1))):  # a sign flipped, a vertex dropped
        corrupted = ClassExpression((cycle,), expr.canonical_coords)
        assert not verify_column_relations(forms, tree, corrupted)


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
        extension = bound(p)
        forms = support_forms(extension)
        tree = choose_tree(extension)
        expr = class_expressions(extension, tree)
        coeffs, canonical = dense_class_expressions(extension, tree)
        assert densify(expr.cycles, len(tree.tree_edges)) == coeffs
        assert expr.canonical_coords == canonical
        assert all(len({v for v, _ in cycle}) == len(cycle) for cycle in expr.cycles)
        assert verify_column_relations(forms, tree, expr)
        if not expr.cycles:
            continue
        # every single dropped vertex or flipped sign in one cycle breaks a relation
        j = rng.randrange(len(expr.cycles))
        cycle = expr.cycles[j]
        for k, (v, sign) in enumerate(cycle):
            for changed in (cycle[:k] + cycle[k + 1 :], cycle[:k] + ((v, -sign),) + cycle[k + 1 :]):
                cycles = expr.cycles[:j] + (changed,) + expr.cycles[j + 1 :]
                corrupted = joinmeet.ClassExpression(cycles, expr.canonical_coords)
                assert not verify_column_relations(forms, tree, corrupted)
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
        assert rep.group.free_rank == len(bound(p).edges) - (p.n + 1)
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
    return SpanningTree(tree, nontree)


def test_tree_independence_of_torsion_number():
    rng = random.Random(55)
    for _ in range(60):
        p = random_poset(rng, 7)
        extension = bound(p)
        default = class_expressions(extension, choose_tree(extension))
        alt_tree = alternate_tree(extension)
        alt = class_expressions(extension, alt_tree)
        assert verify_column_relations(support_forms(extension), alt_tree, alt)
        d_default = math.gcd(*(abs(c) for c in default.canonical_coords))
        d_alt = math.gcd(*(abs(c) for c in alt.canonical_coords))
        assert d_default == d_alt
        table = densify(alt.cycles, len(alt_tree.tree_edges))
        assert table == dense_class_expressions(extension, alt_tree)[0]
        assert all(c in (-1, 0, 1) for row in table for c in row)


def test_label_permutation_invariance():
    rng = random.Random(60)
    for _ in range(40):
        p = random_poset(rng, 7)
        rep = joinmeet_report(p)
        names = list(p.labels)
        shuffled = names.copy()
        rng.shuffle(shuffled)
        rename = dict(zip(names, shuffled))
        q = build_poset(
            sorted(shuffled),
            [(rename[a], rename[b]) for a, b in p.cover_label_pairs()],
        )
        other = joinmeet_report(q)
        assert (rep.group, rep.torsion_number, rep.pure, rep.gorenstein) == (
            other.group,
            other.torsion_number,
            other.pure,
            other.gorenstein,
        )


def test_cross_method_torsion_on_randoms():
    rng = random.Random(70)
    for _ in range(60):
        p = random_poset(rng, 7)
        extension = bound(p)
        matrix = relation_matrix(support_forms(extension))
        expr = class_expressions(extension, choose_tree(extension))
        d_tree = math.gcd(*(abs(c) for c in expr.canonical_coords))
        presentation = AbelianPresentation(matrix)
        d_matrix = torsion_number(presentation, ClassElement((1,) * matrix.rows))
        assert d_tree == d_matrix


def test_report_raises_on_impossible_state(monkeypatch):
    import divclass.joinmeet as jm

    monkeypatch.setattr(jm, "verify_column_relations", lambda *args: False)
    with pytest.raises(InternalInvariantError):
        joinmeet_report(antichain2())


def test_cone_mode_agrees_with_poset_mode():
    # the support forms of a poset, fed to cone mode, describe the same ring
    rng = random.Random(80)
    for _ in range(300):
        p = random_poset(rng, 7)
        coeffs = [f.coeffs for f in support_forms(bound(p))]
        rep = joinmeet_report(p)
        cone = cone_report(ConeDescription(p.n + 1, coeffs))
        assert (cone.group, cone.torsion_number, cone.gorenstein, cone.num_height_one_primes) == (
            rep.group,
            rep.torsion_number,
            rep.gorenstein,
            rep.num_height_one_primes,
        )
        assert canonical_coordinate_gcd(cone) == canonical_coordinate_gcd(rep)


STEPS = ("bound", "support_forms", "choose_tree", "class_expressions")


@pytest.fixture
def calls(monkeypatch):
    """Counts calls, through every divclass reference, to the poset-mode steps."""
    counts = Counter()
    for home, name in (
        (poset, "build_poset"),
        (poset, "bound"),
        (joinmeet, "support_forms"),
        (joinmeet, "choose_tree"),
        (joinmeet, "class_expressions"),
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


def test_sweep_builds_each_step_once_per_sample(calls):
    run_sweep(100, 7, 1)
    assert {step: calls[step] for step in STEPS} == {step: 100 for step in STEPS}


def test_report_builds_each_step_once(calls):
    joinmeet_report(two_chains_poset(5, 2))
    assert {step: calls[step] for step in STEPS} == {step: 1 for step in STEPS}


def test_family_two_chains_builds_its_poset_once(calls):
    assert main(["family", "two-chains", "--a", "3", "--b", "1"]) == 0
    assert calls["build_poset"] == 1
    assert {step: calls[step] for step in STEPS} == {step: 1 for step in STEPS}
