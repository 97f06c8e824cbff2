"""Every narrative script in demos/ runs to the end and prints exactly the
output pinned by its sha256 below."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hassewitt

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# a demo's output changes only on purpose: re-pin it in the same change
STDOUT_SHA256 = {
    "descent_cocycle.py": "7fcdaf4c00764490a2bca4b2614c6dcbc1c79154eabf036288994024ca3d72df",
    "diagonalize_a_form.py": "df3727d9a1f7b219f7a6983dc25629df62ba497360ebf19075610a95097f9866",
    "local_global_certificates.py": "e061614fbcfd68e8cdd38d4377de4464bc72619c9034a32ad78b7ffde9640c8c",
    "obstruction_vs_points.py": "87ec831937a5b0271458a5149caea459507005139060e61872445e9425693f38",
    "symbols_and_reciprocity.py": "98f0b6377e9085996c770dd4ef589f8d9c7bfb1ee04920c314fed02e19baa581",
}


def test_demos_are_found():
    # an empty glob would leave the parametrized test with nothing to run,
    # and a demo without a digest would go unchecked
    assert DEMOS
    assert [p.name for p in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    src = Path(hassewitt.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == STDOUT_SHA256[script.name]
