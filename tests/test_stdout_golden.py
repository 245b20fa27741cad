"""Whole stdout and exit code, pinned per document, command and format.

Every bundled document runs under every ``cli.COMMANDS`` entry in both
``--format json`` and ``--format text``, and ``foliacoh fixtures`` runs once;
the exit code and the sha256 of stdout are pinned in ``stdout_golden.json``.
Most bundled pairs exit 2, so this also pins the error texts.  Truncated Weil
algebras, W(R^2) in the monomial basis and in one unit-LU basis and W(so(3)),
are pinned under the commands that take a G*-algebra.

A change that means to alter stdout rewrites the pins with
``python tests/test_stdout_golden.py`` and says which pins moved and why.
"""

import contextlib
import functools
import hashlib
import io
import json
import random
import tempfile
from pathlib import Path

from foliacoh import cli
from foliacoh.gstar import LieAlgebraSpec, weil_algebra

from conftest import change_basis

DATA = Path(cli.__file__).parent / "data"
PINS = Path(__file__).with_name("stdout_golden.json")
SO3 = LieAlgebraSpec(3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}})
GSTAR_COMMANDS = ("validate", "cohomology", "equivariant", "spectral")


@functools.cache
def _weil_documents() -> dict[str, dict]:
    r2 = weil_algebra(LieAlgebraSpec.abelian(2), 4)
    structures = {
        "weil_r2_n4": r2,
        "weil_r2_n4_lu": change_basis(r2, random.Random(34)),
        "weil_so3_n4": weil_algebra(SO3, 4),
    }
    return {name: cli.document_for("gstar_algebra", cli.gstar_to_payload(s), 4)
            for name, s in structures.items()}


def _cases() -> list[tuple[str, str, str]]:
    bundled = [(p.stem, cmd, fmt) for p in sorted(DATA.glob("*.json"))
               for cmd in cli.COMMANDS for fmt in ("json", "text")]
    weil = [(name, cmd, fmt) for name in sorted(_weil_documents())
            for cmd in GSTAR_COMMANDS for fmt in ("json", "text")]
    return bundled + weil


def _key(name: str, command: str, fmt: str) -> str:
    return f"{command} {name} {fmt}"


def _run(read, argv: list[str]) -> list:
    code = cli.main(argv)
    return [code, hashlib.sha256(read().encode()).hexdigest()]


def _paths(tmp_dir: Path) -> dict[str, Path]:
    paths = {p.stem: p for p in DATA.glob("*.json")}
    for name, doc in _weil_documents().items():
        paths[name] = tmp_dir / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def _observed(read, tmp_dir: Path) -> dict[str, list]:
    """Exit code and stdout sha256 per case; read() returns the stdout written since its last call."""
    paths = _paths(tmp_dir)
    out = {_key(name, cmd, fmt): _run(read, [cmd, "--input", str(paths[name]), "--format", fmt])
           for name, cmd, fmt in _cases()}
    out["fixtures"] = _run(read, ["fixtures"])
    return out


def test_pins_cover_every_case():
    keys = {_key(*case) for case in _cases()} | {"fixtures"}
    assert set(json.loads(PINS.read_text())) == keys


def test_stdout_matches_pins(capsys, tmp_path):
    pins = json.loads(PINS.read_text())
    observed = _observed(lambda: capsys.readouterr().out, tmp_path)
    moved = sorted(k for k in pins if observed.get(k) != pins[k])
    assert not moved, f"{len(moved)} pins moved, first {moved[:5]}"


def _drain(buf: io.StringIO) -> str:
    text = buf.getvalue()
    buf.seek(0)
    buf.truncate()
    return text


if __name__ == "__main__":
    buf = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(buf):
        pins = _observed(lambda: _drain(buf), Path(tmp))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} pins to {PINS}")
