"""Result bytes do not depend on the interpreter's string-hash seed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import foliacoh
from foliacoh import cli
from foliacoh.gstar import weil_algebra

from test_equivariant_ranks import SO3

DATA = Path(cli.__file__).parent / "data"
SRC = str(Path(foliacoh.__file__).resolve().parent.parent)
SEEDS = ("0", "12345")

RUNS = [
    ("spectral", "hopf_gstar.json"),
    ("validate", "hopf_gstar.json"),
    ("cohomology", "sphere3_split_ses.json"),
    ("module", "hopf_module.json"),
    ("equivariant", "sphere3_gstar.json"),
    ("equivariant", "weil_so3_4.json"),
]


def run_under_seed(command, path, seed):
    path_env = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=SRC if not path_env else os.pathsep.join([SRC, path_env]))
    run = subprocess.run([sys.executable, "-m", "foliacoh.cli", command, "--input", str(path)],
                         capture_output=True, env=env, timeout=120)
    assert "Traceback" not in run.stderr.decode(), run.stderr
    return run.returncode, run.stdout


@pytest.mark.parametrize("command,name", RUNS, ids=[f"{c}-{n}" for c, n in RUNS])
def test_stdout_bytes_equal_under_two_hash_seeds(command, name, tmp_path):
    path = DATA / name
    if not path.exists():  # W(so(3)) truncated at N = 4, generated
        path = tmp_path / name
        path.write_text(json.dumps(
            cli.document_for("gstar_algebra", cli.gstar_to_payload(weil_algebra(SO3, 4)), 4)))
    first, second = (run_under_seed(command, path, seed) for seed in SEEDS)
    assert first == second
    assert first[0] == cli.EXIT_OK and first[1]
