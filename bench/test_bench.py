"""Tests of the benchmark itself: corrupted outputs are caught, the result
line follows BENCHMARK.json, and a directory without the program fails.

    python3 -m pytest -q bench
"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.use_checkout_source()

import workloads  # noqa: E402
from hassewitt.forms import DiagonalForm, SymmetricForm  # noqa: E402
from hassewitt.rationals import Place  # noqa: E402
from hassewitt.solvability import SolvabilityCertificate, solvable_over_Q  # noqa: E402
from spans import Spans  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def off_by_one(cert):
    x = cert.witness[0]
    bad = (Fraction(x.numerator + 1, x.denominator),) + cert.witness[1:]
    return SolvabilityCertificate(True, bad, None, cert.checked_places)


def test_witness_numerator_off_by_one_is_caught():
    family = workloads.Family()
    form = DiagonalForm.of(2, 3, -5)
    cert = solvable_over_Q(form)
    assert cert.witness is not None
    assert family.check(form, cert) is None
    assert "does not satisfy" in family.check(form, off_by_one(cert))


def test_witness_above_the_height_is_caught():
    form = DiagonalForm.of(1, 1)
    point = (Fraction(3, 5), Fraction(4, 5))
    assert workloads.check_point(form.entries, point, 5) is None
    assert "exceeds height" in workloads.check_point(form.entries, point, 4)


def test_false_verdict_refuted_by_the_oracle_is_caught():
    form = DiagonalForm.of(1, 3)  # x = 1 is a point, so no place refutes it
    for place in (Place.finite(2), Place.finite(3)):
        wrong = SolvabilityCertificate(False, None, place, (place,))
        assert "residue oracle finds a solution" in workloads.Family().check(form, wrong)
    wrong = SolvabilityCertificate(False, None, Place.real(), (Place.real(),))
    assert "entry is positive" in workloads.Family().check(form, wrong)


def test_oracle_disagreement_is_caught():
    oracle = workloads.Oracle()
    x = next(oracle.inputs(0))
    closed, residue = oracle.run(x)
    assert oracle.check(x, (closed, residue)) is None
    assert "residue oracle" in oracle.check(x, (closed, not residue))


def test_corrupted_invariants_are_caught():
    inv = workloads.Invariants()
    gram = SymmetricForm.from_rows(workloads.random_gram(random.Random(1), 6))
    transform, diagonal, vectors, tops = inv.run(gram)
    assert inv.check(gram, (transform, diagonal, vectors, tops)) is None
    bad_transform = [list(row) for row in transform]
    bad_transform[0][0] += 1
    assert "A B A^T" in inv.check(gram, (bad_transform, diagonal, vectors, tops))
    swapped = tops[1:] + tops[:1]
    assert "top obstruction" in inv.check(gram, (transform, diagonal, vectors, swapped))


def test_corrupted_cli_document_is_caught():
    cli = workloads.CliCold(run.ROOT)
    argv = ("search", "--form", "[2, 3, -5]", "--height", "30")
    code, out = cli.in_process(argv)
    assert code == 0
    doc = json.loads(out)
    assert cli._check_doc(argv, doc) is None
    num, den = doc["point"][0].split("/") if "/" in doc["point"][0] else (doc["point"][0], "1")
    doc["point"][0] = f"{int(num) + 1}/{den}"
    assert "does not satisfy" in cli._check_doc(argv, doc)


def test_tail_has_ten_samples_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)


def test_self_time_subtracts_children():
    spans = Spans()
    with spans.span("op", 0):
        with spans.span("child", 0):
            pass
    with spans.span("probe", 0, calls=3):
        pass
    times = spans.self_times()
    (op_self, _), (child, _) = times["op"], times["child"]
    assert op_self + child == pytest.approx(spans.durations("op")[0])
    assert times["probe"][1] == 3


def result_line(args, capsys):
    status = run.main(args)
    return status, json.loads(capsys.readouterr().out.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_metric(trace, capsys):
    status, result = result_line(
        ["--workload", "oracle", "--seed", "3", "--seconds", "0.5", "--trace", str(trace)], capsys
    )
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in section]


def test_corrupted_run_fails(monkeypatch, capsys):
    real = workloads.Family.run
    monkeypatch.setattr(
        workloads.Family, "run",
        lambda self, form: (lambda c: off_by_one(c) if c.witness else c)(real(self, form)),
    )
    status, result = result_line(
        ["--workload", "family", "--seconds", "0.3", "--trace", "0"], capsys
    )
    assert status == 1
    assert not result["correct"] and result["failed"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "family", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / "bench" / "runs").exists()
