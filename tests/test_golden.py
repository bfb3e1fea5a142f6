"""Golden reports: every `dps` subcommand against its committed output.

Each case runs in a fresh directory holding copies of `golden/inputs`,
so the paths and sha256 digests in the reports are the same on every
machine.  Key order at every level, strings, ints, bools and nulls must
match exactly; floats must agree within 1e-12, so that a runner with
another BLAS still passes.

`python tests/test_golden.py DIR` writes the current outputs to DIR
(`DIR/<case>.stdout`, plus `DIR/<case>.out` for the `--out` file).
Byte identity of a change is judged against the parent commit's output
written the same way on the same machine, with `diff -r` between the
two directories.  The committed files are not that reference: their
last digits depend on the machine that wrote them, and a fresh run on
another machine may differ from them in some files, within 1e-12.
"""

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"

CASES = {
    "analyze": ["analyze", "state.json"],
    "analyze-qubit": ["analyze", "qubit.json"],
    "analyze-not-dps": ["analyze", "mixed.json", "--tol-star", "1e-6"],
    "distance-closed": ["distance", "state.json", "other.json", "--method", "closed"],
    "distance-oracle": ["distance", "state.json", "mixed.json", "--method", "oracle"],
    "distance-both": ["distance", "state.json", "other.json"],
    "schmidt": ["schmidt", "iso.json"],
    "schmidt-dims": ["schmidt", "state.json", "--dims", "2", "2", "--p-tol", "1e-7"],
    "entanglement": ["entanglement", "state.json", "--dims", "2", "2"],
    "werner2q": ["werner2q", "--p", "0.8", "--omega", "1.3", "--out", "werner.json"],
    "werner2q-stdout": ["werner2q", "--p", "0.3", "--omega", "0.9"],
    "isotropic": ["isotropic", "--da", "3", "--F", "0.8", "--out", "isotropic.json"],
    "channel-depolarize": ["channel", "depolarize", "state.json", "--p", "0.5", "--out", "dep.json"],
    "channel-depolarize-cp": ["channel", "depolarize", "pure.json", "--p", "-0.05", "--require-cp"],
    "channel-protocol1": ["channel", "protocol1", "pure.json", "--beta2", "1.125", "--out", "p1.json"],
    "channel-twirl-clifford": ["channel", "twirl", "channel.json", "--out", "twirl.json"],
    "channel-twirl-clifford-noid": ["channel", "twirl", "channel.json", "--exclude-identity"],
    "channel-twirl-clifford3": ["channel", "twirl", "channel3.json", "--out", "twirl.json"],
    "channel-twirl-clifford3-noid": ["channel", "twirl", "channel3.json", "--exclude-identity"],
    "channel-twirl-haar": [
        "channel", "twirl", "channel.json", "--mode", "haar-sample",
        "--samples", "200", "--seed", "3", "--out", "twirl.json",
    ],
    "channel-recipe": [
        "channel", "recipe", "pure.json", "--f", "0.7", "--seed", "35", "--trials", "400",
        "--out", "recipe.json",
    ],
    "channel-local": ["channel", "local", "iso.json", "--pa", "0.5", "--pb", "0.9", "--out", "local.json"],
    "moments-exact": ["moments", "state.json", "--assume-dps"],
    "moments-perm": ["moments", "state.json", "--mode", "perm"],
    "moments-mc": [
        "moments", "state.json", "--mode", "mc", "--shots", "2000", "--seed", "11",
        "--assume-dps", "--recovery-tol", "5e-3",
    ],
    "fig1": ["fig1", "--dim", "3", "--grid", "4"],
    "fig1-out": ["fig1", "--dim", "4", "--grid", "3", "--out", "surface.csv"],
    "gen-dps-stdout": ["gen", "dps", "--dim", "3", "--p", "0.3", "--seed", "5"],
    "gen-dps": ["gen", "dps", "--dim", "4", "--p", "-0.1", "--seed", "6", "--out", "gen.json"],
    "gen-haar-pure": ["gen", "haar-pure", "--dim", "3", "--seed", "9", "--out", "gen.json"],
    "gen-isotropic": ["gen", "isotropic", "--da", "2", "--F", "0.9", "--out", "gen.json"],
}


def run_case(argv, workdir: Path) -> dict:
    """Run one case in ``workdir``; {"stdout": text, "out": text of the --out file}."""
    from dpstates.cli import main

    for src in INPUTS.iterdir():
        shutil.copyfile(src, workdir / src.name)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(argv))
    assert code == 0, argv
    texts = {"stdout": stdout.getvalue()}
    if "--out" in argv:
        texts["out"] = (workdir / argv[argv.index("--out") + 1]).read_bytes().decode()
    return texts


def parse(text: str, csv: bool):
    if not csv:
        return json.loads(text)
    return [[_cell(c) for c in line.split(",")] for line in text.splitlines()]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def assert_same(got, want, where: str = "$") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict), where
        assert list(got) == list(want), f"{where}: key order {list(got)} != {list(want)}"
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float) or isinstance(got, float):
        # 17-digit floats that happen to be integral render as JSON ints
        assert type(got) in (int, float) and type(want) in (int, float), where
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = CASES[name]
    got = run_case(argv, tmp_path)
    csv = argv[0] == "fig1"
    assert sorted(got) == sorted(k for k in ("stdout", "out") if (GOLDEN / f"{name}.{k}").exists())
    for kind, text in got.items():
        want = (GOLDEN / f"{name}.{kind}").read_bytes().decode()
        assert_same(parse(text, csv), parse(want, csv), f"{name}.{kind}")


def test_every_subcommand_has_a_golden_case():
    from conftest import leaf_commands
    from dpstates.cli import build_parser

    commands = {path for path, _ in leaf_commands(build_parser())}
    covered = {path for path in commands for argv in CASES.values() if tuple(argv[: len(path)]) == path}
    assert covered == commands


def write_all(target: Path) -> None:
    target.mkdir(parents=True, exist_ok=True)
    cwd = Path.cwd()
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                texts = run_case(argv, Path(tmp))
            finally:
                os.chdir(cwd)
        for kind, text in texts.items():
            (target / f"{name}.{kind}").write_bytes(text.encode())


if __name__ == "__main__":
    write_all(Path(sys.argv[1]).resolve())
