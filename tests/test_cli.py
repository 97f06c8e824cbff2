import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

import hassewitt
from hassewitt import cli, rationals
from hassewitt.cohomology import BaseField, cohclass_to_json, h1, hilbert_symbol
from hassewitt.forms import MAX_SIZE, DiagonalForm, form_to_json
from hassewitt.rationals import Place
from hassewitt.solvability import search_point, solvable_over_Q
from test_forms import dense_gram

SCHEMAS = Path(__file__).resolve().parent.parent / "schemas"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def validate(name, doc):
    if jsonschema is None:
        pytest.skip("jsonschema not installed")
    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text())
    jsonschema.validate(doc, schema)


def test_documented_hilbert_example(capsys):
    code, out, _ = run(capsys, "hilbert", "-a", "-1", "-b", "-1", "--place", "inf")
    assert code == 0
    assert json.loads(out) == {"symbol": -1}
    validate("hilbert", json.loads(out))


def test_documented_obstruct_example(capsys):
    doc = run_json(capsys, "obstruct", "--form", "[-1,-1,-1]", "--field", "Q")
    assert doc == {
        "field": "Q",
        "degree": 3,
        "zero": False,
        "payload": 1,
        "form": ["-1", "-1", "-1"],
    }
    validate("obstruct", doc)


def test_documented_search_example(capsys):
    doc = run_json(capsys, "search", "--form", "[5,5]", "--height", "5")
    assert doc == {"point": ["1/5", "2/5"]}
    validate("search", doc)


def test_negative_fraction_option_values(capsys):
    # -a -1/2 must parse as an option value, not as a flag
    doc = run_json(capsys, "hilbert", "-a", "-1/2", "-b", "-3", "--place", "7")
    assert doc == {"symbol": hilbert_symbol(Fraction(-1, 2), -3, Place.finite(7))}
    validate("hilbert", doc)


def test_exit_code_1_on_usage(capsys):
    for argv in (
        [],
        ["no-such-command"],
        ["hilbert", "-a", "-1", "--place", "inf"],  # missing -b
        ["hilbert", "-a", "x", "-b", "1", "--place", "inf"],  # malformed rational
        ["search", "--form", "[5,5]", "--height", "x"],
        ["obstruct", "--form", "not json", "--field", "Q"],
        ["h1", "-a", "2", "--field", "Zp:3"],  # malformed field syntax
        ["hilbert", "-a", "1", "-b", "1", "--place", "oo"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""


def test_exit_code_2_on_domain_errors(capsys):
    for argv in (
        ["hilbert", "-a", "0", "-b", "1", "--place", "inf"],  # zero argument
        ["hilbert", "-a", "1", "-b", "1", "--place", "4"],  # 4 is not a prime
        ["h1", "-a", "2", "--field", "Qp:9"],  # 9 is not a prime
        ["obstruct", "--form", "[1,0]", "--field", "Q"],  # degenerate form
        ["obstruct", "--form", "[]", "--field", "Q"],
        ["diag", "--matrix", "[[1,2],[3,4]]"],  # not symmetric
        ["diag", "--matrix", "[[1,1],[1,1]]"],  # singular
        ["search", "--form", "[1,1]", "--height", "0"],
        ["hw", "--form", "[1]", "--field", "Qp:-3"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:")


def test_large_factors_answer_or_refuse(capsys):
    # a 31-digit denominator, 1000003 * 10000019 * 100000000000000003
    doc = run_json(capsys, "solvable", "--form", '["1/1000004900005700030000147000171", 3]')
    assert doc == {
        "solvable": False,
        "witness": None,
        "failing_place": "2",
        "checked_places": ["inf", "2"],
    }
    validate("solvable", doc)
    # a prime place above 10^12
    doc = run_json(capsys, "hilbert", "-a", "3", "-b", "5", "--place", "1000000000039")
    assert doc == {"symbol": 1}
    # two 16-digit primes outlast the rho budget: a domain error, not a hang,
    # once the form passes the real place and 2 and its entries are factored
    semiprime = str(1000000000000037 * 1000000000000091)
    code, out, err = run(capsys, "solvable", "--form", f"[{semiprime}, 1]")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "rho iterations" in err
    # the same entry in a form that fails at 2 needs no factoring
    doc = run_json(capsys, "solvable", "--form", f"[{semiprime}, 3]")
    assert doc["failing_place"] == "2"
    assert doc["checked_places"] == ["inf", "2"]


def test_human_flag_changes_layout_not_content(capsys):
    compact = run_json(capsys, "solvable", "--form", "[-1,3]")
    code, out, _ = run(capsys, "solvable", "--form", "[-1,3]", "--human")
    assert code == 0
    assert "\n" in out.strip()
    assert json.loads(out) == compact


def test_solvable_outputs(capsys):
    doc = run_json(capsys, "solvable", "--form", "[-1,3]")
    assert doc == {
        "solvable": False,
        "witness": None,
        "failing_place": "2",
        "checked_places": ["inf", "2"],
    }
    validate("solvable", doc)
    doc = run_json(capsys, "solvable", "--form", "[-1,3]", "--place", "3")
    assert doc == {"place": "3", "solvable": False}
    validate("solvable", doc)
    doc = run_json(capsys, "solvable", "--form", "[5,5]")
    assert doc["solvable"] is True and doc["witness"] == ["1/5", "2/5"]
    validate("solvable", doc)


def test_solvable_at_one_place_certifies_its_prime_once(capsys, monkeypatch):
    calls = []
    is_prime = rationals.is_prime
    monkeypatch.setattr(rationals, "is_prime", lambda n: calls.append(n) or is_prime(n))
    code, out, _ = run(capsys, "solvable", "--form", "[3, 1000003]", "--place", "1000003")
    assert code == 0
    assert out == '{"place": "1000003", "solvable": false}\n'
    assert calls == [1000003]


def test_solvable_answers_past_the_recursion_limit(capsys):
    n = 1100
    doc = run_json(capsys, "solvable", "--form", json.dumps([1] * n))
    assert doc["solvable"] is True
    assert doc["witness"] == ["0"] * (n - 1) + ["1"]


def test_gerbe_commands(capsys):
    expected = {
        "families": 8,
        "path_independent": True,
        "matches_character_cup": True,
        "nonzero": True,
        "census": 8,
        "verified": True,
        "labels": ["1", "sigma_a", "sigma_b", "sigma_ab"],
        # row sigma, column tau: chi_a(sigma) * chi_b(tau)
        "cocycle_table": [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 0], [0, 0, 1, 1]],
    }
    doc = run_json(capsys, "gerbe-verify")
    assert doc == expected
    assert list(doc) == list(expected)  # the JSON text keeps this key order
    validate("gerbe-verify", doc)
    doc = run_json(capsys, "h2-census")
    assert doc == {"classes": 8}
    validate("h2-census", doc)


def test_diag_output(capsys):
    doc = run_json(capsys, "diag", "--matrix", "[[0,1],[1,0]]")
    assert doc == {
        "transform": [["1", "1"], ["-1/2", "1/2"]],
        "diagonal": ["2", "-1/2"],
    }
    validate("diag", doc)


def test_diag_refuses_past_the_size_cap(capsys):
    # at 600 rows the refusal must not first convert or compare the n^2
    # entries; a single row past the cap is refused by its length
    for rows in (dense_gram(MAX_SIZE + 1), dense_gram(600), [[1] * 600]):
        matrix = json.dumps(rows)
        start = time.perf_counter()
        code, out, err = run(capsys, "diag", "--matrix", matrix)
        assert time.perf_counter() - start < 0.1
        assert code == 2 and out == ""
        assert err.startswith("error:") and f"exceeds the cap of {MAX_SIZE}" in err


def test_h1_and_hw_match_library(capsys):
    doc = run_json(capsys, "h1", "-a", "18", "--field", "Q")
    assert doc == cohclass_to_json(h1(18, BaseField.parse("Q")))
    validate("cohclass", doc)
    doc = run_json(capsys, "hw", "--form", '[2,"1/3"]', "--field", "Qp:3")
    assert doc["hw"][0]["payload"] == 6
    assert doc["top_obstruction"]["degree"] == 2
    validate("hw", doc)


def test_degree_one_over_q_prints_the_squarefree_integer(capsys):
    _, out, _ = run(capsys, "h1", "-a", "-18", "--field", "Q")
    assert out == '{"field": "Q", "degree": 1, "zero": false, "payload": -2}\n'
    doc = run_json(capsys, "hw", "--form", "[-1,3,5]", "--field", "Q")
    assert doc["hw"][0]["payload"] == -15
    assert doc["hw"][1]["payload"] == ["2", "5"]
    validate("hw", doc)


coeff = st.fractions(min_value=-8, max_value=8, max_denominator=5).filter(
    lambda q: q != 0
)


def run_captured(*argv):
    # hypothesis dislikes function-scoped capsys, so capture by hand
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


@given(st.lists(coeff, min_size=1, max_size=3), st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_cli_search_matches_library(form_entries, height):
    form = DiagonalForm(tuple(form_entries))
    code, out = run_captured(
        "search", "--form", json.dumps(form_to_json(form)), "--height", str(height)
    )
    assert code == 0
    pt = search_point(form, height)
    expected = None if pt is None else [str(x) for x in pt]
    assert json.loads(out) == {"point": expected}


@given(st.lists(coeff, min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_cli_solvable_matches_library(form_entries):
    form = DiagonalForm(tuple(form_entries))
    code, out = run_captured("solvable", "--form", json.dumps(form_to_json(form)))
    assert code == 0
    assert json.loads(out) == solvable_over_Q(form).to_json()


@given(coeff, coeff)
@settings(max_examples=40, deadline=None)
def test_rationals_survive_the_argv_round_trip(a, b):
    # fractions formatted the way the CLI prints them feed back in bit for bit
    code, out = run_captured("hilbert", "-a", str(a), "-b", str(b), "--place", "2")
    assert code == 0
    assert json.loads(out) == {"symbol": hilbert_symbol(a, b, Place.finite(2))}


def test_rank_seven_content_form_answers_promptly():
    # content 7919 > the default height 100: no denominator can carry a point,
    # so the rank-7 search, which grows like h^7, never starts
    form = json.dumps([7919, -7919] * 3 + [7919])
    src = Path(hassewitt.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-m", "hassewitt.cli", "solvable", "--form", form],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {
        "solvable": True,
        "witness": None,
        "failing_place": None,
        "checked_places": ["inf", "2", "7919"],
    }


def run_process(*argv, timeout, preexec_fn=None):
    src = Path(hassewitt.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "hassewitt.cli", *argv],
        env=env, capture_output=True, text=True, timeout=timeout, preexec_fn=preexec_fn,
    )


def test_oversized_search_exits_2_under_a_memory_limit():
    # the half tables would take 6.71 GiB; under a 1 GiB address-space limit a
    # search that allocated first would die instead of refusing or answering
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    out = run_process(
        "search", "--form", "[3,5,7,-1000003]", "--height", "30000",
        timeout=60, preexec_fn=limit,
    )
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and "budget of 2097152" in out.stderr
    out = run_process(
        "search", "--form", "[1,1,1,-3]", "--height", "30000",
        timeout=60, preexec_fn=limit,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"point": ["0", "0", "1", "0"]}


RANK_SEVEN = "[2,3,5,7,11,13,-1000003]"


def test_searches_past_the_budget_answer_promptly():
    # no content to prune: the rank-7 depth-first search at the default
    # height 100 used to run for minutes
    out = run_process("solvable", "--form", RANK_SEVEN, timeout=30)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {
        "solvable": True,
        "witness": None,
        "failing_place": None,
        "checked_places": ["inf", "2", "3", "5", "7", "11", "13", "1000003"],
    }
    out = run_process("search", "--form", RANK_SEVEN, "--height", "100", timeout=30)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error:") and "budget of 2097152" in out.stderr
    # 15-digit entries trip the int64 guard, so the depth-first scan runs
    out = run_process(
        "solvable", "--form", "[100000000000031,3,-300000000000089,5]", timeout=30
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {
        "solvable": True,
        "witness": None,
        "failing_place": None,
        "checked_places": ["inf", "2", "3", "5", "100000000000031", "300000000000089"],
    }


def test_meet_in_the_middle_probes_spend_the_budget():
    # x^2 + y^2 = 3 d^2 has no rational point, and each of the 2000001 half
    # table entries fits the budget, so every denominator probes a full table
    out = run_process("search", "--form", '["1/3","1/3"]', "--height", "2000000", timeout=60)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error:") and "budget of 2097152" in out.stderr
