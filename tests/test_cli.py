import io
import json
import os
import subprocess
import sys

import pytest

from divclass.cli import main, parse_input_document

from divclass import InputError, Poset, segre_veronese_cone


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def two_chains_doc(a, b):
    xs = [f"x{i}" for i in range(a + 1)]
    ys = [f"y{i}" for i in range(b + 1)]
    return {
        "mode": "poset",
        "elements": xs + ys,
        "relations": [list(p) for p in zip(xs, xs[1:])] + [list(p) for p in zip(ys, ys[1:])],
    }


def test_analyze_poset_file(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(two_chains_doc(5, 2)))
    code, out, err = run_cli(capsys, ["analyze", "--input", str(path)])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["torsion_number"] == "3"
    assert doc["pure"] is False
    assert doc["rank"] == 1
    assert doc["mode"] == "poset"


def test_analyze_cone_stdin(capsys, monkeypatch):
    cone = segre_veronese_cone(4, 2, 9, 3)
    payload = json.dumps(
        {"mode": "cone", "dim": cone.dim, "forms": [list(f) for f in cone.forms]}
    )
    code, out, err = run_cli(capsys, ["analyze"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["torsion_number"] == "6"
    assert doc["rank"] == 1
    assert "pure" not in doc


def test_analyze_accepts_string_integers(capsys, monkeypatch):
    payload = json.dumps({"mode": "cone", "dim": "2", "forms": [["1", "0"], ["-1", "2"]]})
    code, out, _ = run_cli(capsys, ["analyze"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["invariant_factors"] == ["2"]


def test_analyze_cone_with_interior_point(capsys, monkeypatch):
    payload = json.dumps(
        {"mode": "cone", "dim": 2, "forms": [[1, 0], [-1, 2]], "interior_point": [1, 1]}
    )
    code, out, _ = run_cli(capsys, ["analyze"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["interior_point"] == ["1", "1"]
    # the echo re-parses and re-analyzes to the same result
    code2, out2, _ = run_cli(
        capsys, ["analyze"], stdin=json.dumps(doc["input"]), monkeypatch=monkeypatch
    )
    assert code2 == 0
    assert json.loads(out2)["invariant_factors"] == doc["invariant_factors"]

    bad = json.dumps(
        {"mode": "cone", "dim": 2, "forms": [[1, 0], [-1, 2]], "interior_point": [-1, 0]}
    )
    code3, _, err = run_cli(capsys, ["analyze"], stdin=bad, monkeypatch=monkeypatch)
    assert code3 == 1 and "interior" in err


def test_analyze_repeated_form_is_input_error(capsys, monkeypatch):
    # veronese_cone(3, 2) with its last form listed twice
    forms = [[1, 0, 0], [0, 1, 0], [-1, -1, 2], [-1, -1, 2]]
    payload = json.dumps({"mode": "cone", "dim": 3, "forms": forms})
    code, out, err = run_cli(capsys, ["analyze"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert "more than once" in err


def test_analyze_empty_poset(capsys, monkeypatch):
    payload = json.dumps({"mode": "poset", "elements": [], "relations": []})
    code, out, _ = run_cli(capsys, ["analyze"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 0
    assert doc["torsion_number"] == "0"
    assert doc["gorenstein"] is True and doc["pure"] is True
    assert doc["num_height_one_primes"] == 1


def test_analyze_huge_declared_dimension(capsys, monkeypatch):
    payload = json.dumps({"mode": "cone", "dim": 1000000, "forms": []})
    code, out, err = run_cli(capsys, ["analyze"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert (doc["rank"], doc["invariant_factors"], doc["torsion_number"]) == (0, [], "0")


def test_analyze_cycle_is_input_error(capsys, monkeypatch):
    payload = json.dumps(
        {"mode": "poset", "elements": ["a", "b"], "relations": [["a", "b"], ["b", "a"]]}
    )
    code, out, err = run_cli(capsys, ["analyze"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 1
    assert "cycle" in err


def test_analyze_bad_json(capsys, monkeypatch):
    code, _, err = run_cli(capsys, ["analyze"], stdin="{not json", monkeypatch=monkeypatch)
    assert code == 1 and "JSON" in err


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, ["analyze", "--input", "/no/such/file.json"])
    assert code == 1 and "cannot read" in err


def test_analyze_undecodable_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_bytes(b"\xff\xfe" + json.dumps(two_chains_doc(1, 1)).encode("utf-16-le"))
    code, out, err = run_cli(capsys, ["analyze", "--input", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "UTF-8" in err


def test_analyze_name_with_lone_surrogate_is_input_error(capsys, monkeypatch):
    for output in ("json", "text"):
        for doc in (
            {"mode": "poset", "elements": ["\ud800"], "relations": []},
            {"mode": "poset", "elements": ["a", "b"], "relations": [["a", "\udfff"]]},
        ):
            argv = ["--output", output, "analyze"]
            code, out, err = run_cli(capsys, argv, stdin=json.dumps(doc), monkeypatch=monkeypatch)
            assert code == 1 and out == "" and err.startswith("error: ")
    # a bad element and a bad relation name: the element, first in order, is quoted
    doc = {"mode": "poset", "elements": ["a", "b\udc00"], "relations": [["a", "\ud801"]]}
    code, out, err = run_cli(capsys, ["analyze"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert err == "error: name 'b\\udc00' does not encode as UTF-8\n"
    # a high and a low surrogate ending and starting adjacent names: each
    # name alone is refused, though the two would pair in UTF-16
    for doc in (
        {"mode": "poset", "elements": ["a\ud800", "\udc00b"], "relations": []},
        {"mode": "poset", "elements": ["a", "b"], "relations": [["a\ud800", "\udc00b"]]},
    ):
        code, out, err = run_cli(capsys, ["analyze"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert (code, out) == (1, "")
        assert err == "error: name 'a\\ud800' does not encode as UTF-8\n"


def test_analyze_deeply_nested_json_is_input_error(capsys, monkeypatch):
    depth = 200_000
    payload = "[" * depth + "]" * depth
    code, out, err = run_cli(capsys, ["analyze"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "nested too deeply" in err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit before Python 3.10.7"
)
def test_analyze_number_past_the_digit_limit_is_input_error(capsys, monkeypatch):
    payload = '{"mode": "cone", "dim": 1' + "0" * 4300 + ', "forms": [[1]]}'
    code, out, err = run_cli(capsys, ["analyze"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "digits" in err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit before Python 3.10.7"
)
@pytest.mark.parametrize(
    "doc, digits",
    [
        ({"mode": "cone", "dim": "1" + "0" * 4300, "forms": []}, 4301),
        ({"mode": "cone", "dim": 1, "forms": [["-" + "7" * 5001]]}, 5001),
    ],
)
def test_analyze_decimal_string_past_the_digit_limit_is_input_error(
    capsys, monkeypatch, doc, digits
):
    # a decimal string is named as one, with its digit count, not echoed
    code, out, err = run_cli(capsys, ["analyze"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"{digits} digits" in err and len(err) < 300


@pytest.mark.parametrize(
    "doc",
    [
        {"mode": "poset", "elements": ["a"], "relations": [[f"x{i}" for i in range(5000)]]},
        {"mode": "poset", "elements": ["a"], "relations": [["a", "z" * 5000]]},
        {"mode": "cone", "dim": "1" * 5000 + "x", "forms": []},
        {"mode": "cone", "dim": 1, "forms": [["z" * 5000]]},
        {"mode": "poset", "elements": ["\ud800" + "a" * 4999], "relations": []},
        {"mode": "cone", "dim": 2, "forms": [[1] * 3003]},
        {"mode": "cone", "dim": 3001, "forms": [[2] * 3001]},
        {"mode": "poset", "elements": [], "relations": [], "k" * 5000: 1},
    ],
    ids=[
        "long-relation",
        "long-unknown-name",
        "long-dim-string",
        "long-form-entry",
        "long-unencodable-name",
        "long-form-of-wrong-length",
        "long-non-primitive-form",
        "long-unknown-field",
    ],
)
def test_analyze_error_quotes_only_an_excerpt_of_a_long_value(capsys, monkeypatch, doc):
    code, out, err = run_cli(capsys, ["analyze"], stdin=json.dumps(doc), monkeypatch=monkeypatch)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.encode()) <= 300


def test_analyze_prints_answers_past_the_digit_limit(capsys, monkeypatch):
    # forms (1, 0), (10^4300 - 3, 10^4300 - 1), (0, 1): Cl = Z and d = 2 * 10^4300 - 5
    a, b = "9" * 4299 + "7", "9" * 4300
    payload = f'{{"mode": "cone", "dim": 2, "forms": [[1, 0], [{a}, {b}], [0, 1]]}}'
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run_cli(capsys, ["analyze"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert (doc["rank"], doc["invariant_factors"]) == (1, [])
    assert doc["torsion_number"] == "1" + "9" * 4299 + "5"
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
    # an interpreter without the limit takes the same path, minus the lifting
    for name in ("get_int_max_str_digits", "set_int_max_str_digits"):
        monkeypatch.delattr(sys, name, raising=False)
    code, out, err = run_cli(capsys, ["family", "veronese", "--n", "4", "--r", "6"])
    assert code == 0 and json.loads(out)["torsion_number"] == "2"


def test_decimal_strings_are_strict():
    cone = parse_input_document({"mode": "cone", "dim": "2", "forms": [["-1", "007"]]})
    assert cone.forms == ((-1, 7),)
    for bad in (" 1", "1 ", "1_0", "\u0661\u0662", "+1", "", "-", "0x10", "1e3", "1.0"):
        with pytest.raises(InputError):
            parse_input_document({"mode": "cone", "dim": bad, "forms": []})


def test_mode_field_validation():
    with pytest.raises(InputError):
        parse_input_document({"mode": "poset", "elements": ["a"], "relations": [], "dim": 1})
    with pytest.raises(InputError):
        parse_input_document({"mode": "cone", "dim": 1})
    for mode in ("sphere", [], {}):
        with pytest.raises(InputError, match='needs "mode"'):
            parse_input_document({"mode": mode})
    with pytest.raises(InputError):
        parse_input_document({"mode": "cone", "dim": 1, "forms": [[1]], "elements": []})
    with pytest.raises(InputError, match=r"unknown poset mode fields: \[1, 'a'\]"):
        parse_input_document({"mode": "poset", "elements": [], "relations": [], 1: 2, "a": 3})
    with pytest.raises(InputError):
        parse_input_document([1, 2])
    with pytest.raises(InputError, match='poset mode needs "elements" and "relations"'):
        parse_input_document({"mode": "poset", "elements": ["a"]})
    with pytest.raises(InputError, match='"elements" must be an array of strings'):
        parse_input_document({"mode": "poset", "elements": ["a", 1], "relations": []})
    with pytest.raises(InputError, match='"relations" must be an array of string pairs'):
        parse_input_document({"mode": "poset", "elements": ["a"], "relations": {"a": "a"}})
    with pytest.raises(InputError, match='"forms" must be an array of integer arrays'):
        parse_input_document({"mode": "cone", "dim": 1, "forms": 5})
    with pytest.raises(InputError, match='"forms" entry must be an array of integers'):
        parse_input_document({"mode": "cone", "dim": 1, "forms": [5]})
    with pytest.raises(InputError, match='"interior_point" must be an array of integers'):
        parse_input_document({"mode": "cone", "dim": 1, "forms": [[1]], "interior_point": 1})


def test_round_trip_of_echoed_input(capsys, monkeypatch):
    payload = json.dumps(two_chains_doc(3, 1))
    code, out, _ = run_cli(capsys, ["analyze"], stdin=payload, monkeypatch=monkeypatch)
    assert code == 0
    echoed = json.loads(out)["input"]
    redone = parse_input_document(echoed)
    code2, out2, _ = run_cli(
        capsys, ["analyze"], stdin=json.dumps(echoed), monkeypatch=monkeypatch
    )
    assert code2 == 0
    first = json.loads(out)
    second = json.loads(out2)
    assert first["input"] == second["input"]
    assert first["torsion_number"] == second["torsion_number"]
    assert isinstance(redone, Poset)


def test_byte_identical_rerun(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(two_chains_doc(4, 2)))
    _, out1, _ = run_cli(capsys, ["analyze", "--input", str(path)])
    _, out2, _ = run_cli(capsys, ["analyze", "--input", str(path)])
    assert out1 == out2


def test_family_two_chains(capsys):
    code, out, _ = run_cli(capsys, ["family", "two-chains", "--a", "3", "--b", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["torsion_number"] == "0" and doc["pure"] is True
    assert doc["family"] == {"name": "two-chains", "a": 3, "b": 3}


def test_family_veronese(capsys):
    code, out, _ = run_cli(capsys, ["family", "veronese", "--n", "4", "--r", "6"])
    assert code == 0
    assert json.loads(out)["torsion_number"] == "2"


def test_family_segre(capsys):
    code, out, _ = run_cli(
        capsys, ["family", "segre", "--m", "4", "--p", "2", "--n", "9", "--q", "3"]
    )
    assert code == 0
    assert json.loads(out)["torsion_number"] == "6"


def test_family_determinantal(capsys):
    code, out, _ = run_cli(capsys, ["family", "determinantal", "--m", "3", "--n", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["torsion_number"] == "1"
    assert doc["gorenstein"] is False
    assert doc["rank"] == 1


# recorded from the hand-written determinantal document that preceded the
# shared builder; text output keeps the key order, which JSON output sorts
DETERMINANTAL_1_5_TEXT = """\
tool:
  name: divclass
  version: 0.1.0
mode: determinantal
input: None
num_height_one_primes: None
rank: 1
invariant_factors:
  (none)
canonical_class:
  basis: height-one-prime
  coords:
    - 4
torsion_number: 4
gorenstein: False
family:
  name: determinantal
  m: 1
  n: 5
"""


def test_family_determinantal_text_is_pinned(capsys):
    code, out, err = run_cli(
        capsys, ["--output", "text", "family", "determinantal", "--m", "1", "--n", "5"]
    )
    assert (code, out, err) == (0, DETERMINANTAL_1_5_TEXT, "")


def test_family_errors(capsys):
    code, _, err = run_cli(capsys, ["family", "veronese", "--n", "4"])
    assert code == 1 and "--r" in err
    code, _, err = run_cli(capsys, ["family", "veronese", "--n", "4", "--r", "6", "--a", "9"])
    assert code == 1 and "--a" in err
    code, _, err = run_cli(capsys, ["family", "nosuch"])
    assert code == 1
    code, _, err = run_cli(capsys, ["family", "two-chains", "--a", "-1", "--b", "0"])
    assert code == 1
    code, _, err = run_cli(capsys, ["family", "determinantal", "--m", "5", "--n", "2"])
    assert code == 1
    code, out, err = run_cli(capsys, ["family", "veronese", "--n", "1001", "--r", "2"])
    assert (code, out) == (1, "") and "form entries" in err


def test_sweep_small(capsys):
    code, out, _ = run_cli(capsys, ["sweep", "--count", "30", "--max-n", "5", "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert doc["seed"] == 7
    assert doc["checks"]["pure_iff_gorenstein"]["pass"] == 30


def test_sweep_degenerate_and_deterministic(capsys):
    code, out1, _ = run_cli(capsys, ["sweep", "--count", "1", "--max-n", "0", "--seed", "0"])
    assert code == 0
    assert json.loads(out1)["all_passed"] is True
    _, out2, _ = run_cli(capsys, ["sweep", "--count", "1", "--max-n", "0", "--seed", "0"])
    assert out1 == out2


def test_sweep_bad_parameters(capsys):
    code, _, _ = run_cli(capsys, ["sweep", "--count", "0"])
    assert code == 1
    code, _, _ = run_cli(capsys, ["sweep", "--max-n", "11"])
    assert code == 1


def test_internal_invariant_maps_to_exit_2(capsys, monkeypatch, tmp_path):
    import divclass.cli as cli_module
    from divclass.errors import InternalInvariantError

    def boom(_):
        raise InternalInvariantError("forced for the exit-code test")

    monkeypatch.setattr(cli_module, "joinmeet_report", boom)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(two_chains_doc(1, 1)))
    code, _, err = run_cli(capsys, ["analyze", "--input", str(path)])
    assert code == 2
    assert "invariant" in err


def test_text_output(capsys):
    code, out, _ = run_cli(capsys, ["--output", "text", "family", "veronese", "--n", "4", "--r", "6"])
    assert code == 0
    assert "torsion_number: 2" in out
    code, out, _ = run_cli(capsys, ["family", "veronese", "--n", "4", "--r", "6", "--output", "text"])
    assert code == 0
    assert "torsion_number: 2" in out


def test_one_parser_serves_many_calls(capsys):
    import divclass.cli as cli_module

    assert cli_module.build_parser() is cli_module.build_parser()
    two_chains = ["family", "two-chains", "--a", "1", "--b", "2"]
    code, out, _ = run_cli(capsys, ["--output", "text", *two_chains])
    assert code == 0 and "torsion_number: 1" in out
    code, out, _ = run_cli(capsys, two_chains)
    assert code == 0 and json.loads(out)["torsion_number"] == "1"

    code, out, _ = run_cli(capsys, ["sweep", "--count", "3"])
    assert code == 0 and json.loads(out)["count"] == 3
    code, out, _ = run_cli(capsys, ["sweep"])
    assert code == 0 and json.loads(out)["count"] == 200

    code, usual, _ = run_cli(capsys, two_chains)
    assert code == 0
    code, out, err = run_cli(capsys, [*two_chains, "--nosuch"])
    assert (code, out) == (1, "") and "--nosuch" in err
    assert run_cli(capsys, two_chains) == (0, usual, "")


def test_unknown_flag_is_input_error(capsys):
    # a message that fits is quoted whole
    assert run_cli(capsys, ["analyze", "--bogus"]) == (
        1,
        "",
        "error: unrecognized arguments: --bogus\n",
    )
    assert run_cli(capsys, ["sweep", "--count", "1x"]) == (
        1,
        "",
        "error: argument --count: invalid int value: '1x'\n",
    )
    code, _, _ = run_cli(capsys, [])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--count", "1" * 5000],
        ["sweep", "--" + "x" * 5000],
        ["family", "veronese", "--n", "4", "--r", "1" * 5000],
        ["sweep", "--" + "é" * 5000],
    ],
    ids=["long-count", "long-unknown-flag", "long-family-parameter", "long-non-ascii-flag"],
)
def test_flag_error_is_cut_to_a_short_message(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.endswith("...\n") and len(err.encode()) <= 300


def divclass_src():
    # the child imports the same divclass as this test, installed or not
    import divclass

    return os.path.dirname(os.path.dirname(os.path.abspath(divclass.__file__)))


def run_python(args):
    path = os.pathsep.join(filter(None, (divclass_src(), os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = run_python(["-m", "divclass", "family", "determinantal", "--m", "2", "--n", "5"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["torsion_number"] == "3"


def test_cli_imports_only_the_standard_library():
    # -I ignores PYTHONPATH and the user site directory; the child runs one
    # ring of each mode, so an import made only while computing shows too
    rings = [
        ["family", "two-chains", "--a", "3", "--b", "1"],
        ["family", "segre", "--m", "4", "--p", "2", "--n", "9", "--q", "3"],
        ["family", "determinantal", "--m", "2", "--n", "5"],
        ["sweep", "--count", "20"],
    ]
    proc = subprocess.run(
        [
            sys.executable,
            "-I",
            "-c",
            "import sys\n"
            f"sys.path.insert(0, {divclass_src()!r})\n"
            "before = set(sys.modules)\n"
            "import divclass.cli\n"
            f"codes = [divclass.cli.main(argv) for argv in {rings!r}]\n"
            "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(codes, sorted(new - set(sys.stdlib_module_names) - {'divclass'}),\n"
            "      sorted({'networkx', 'hypothesis'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] [] []"
