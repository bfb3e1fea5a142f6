import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpstates.cli import build_parser, main, render_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def write_state(path, matrix, dims=None):
    M = np.asarray(matrix, dtype=complex)
    doc = {"dim": M.shape[0]}
    if dims is not None:
        doc["dims"] = list(dims)
    doc["matrix"] = [[[z.real, z.imag] for z in row] for row in M]
    path.write_text(json.dumps(doc))
    return str(path)


class TestRenderJson:
    def test_scalars_and_nesting(self):
        text = render_json({"a": 1, "b": [1.5, None, True], "c": {"d": "x"}})
        assert json.loads(text) == {"a": 1, "b": [1.5, None, True], "c": {"d": "x"}}
        assert text.endswith("\n")

    def test_full_float_precision(self):
        text = render_json({"x": 0.1 + 0.2})
        assert json.loads(text)["x"] == 0.1 + 0.2

    def test_numpy_values(self):
        text = render_json({"v": np.float64(0.5), "n": np.int64(3), "a": np.arange(2)})
        assert json.loads(text) == {"v": 0.5, "n": 3, "a": [0, 1]}


class TestGenAnalyze:
    def test_round_trip_recovers_p(self, capsys, tmp_path):
        path = str(tmp_path / "s.json")
        run_json(capsys, "gen", "dps", "--dim", "4", "--p", "-0.15", "--seed", "11", "--out", path)
        rep = run_json(capsys, "analyze", path)
        assert rep["results"]["verdict"] == "DPS"
        assert rep["results"]["p"] == pytest.approx(-0.15, abs=1e-9)
        assert rep["inputs"]["state"]["sha256"]

    def test_haar_pure_has_unit_p(self, capsys, tmp_path):
        path = str(tmp_path / "pure.json")
        run_json(capsys, "gen", "haar-pure", "--dim", "3", "--seed", "5", "--out", path)
        rep = run_json(capsys, "analyze", path)
        assert rep["results"]["p"] == pytest.approx(1.0, abs=1e-9)

    def test_gen_writes_to_stdout_without_out(self, capsys):
        code, out = run(capsys, "gen", "dps", "--dim", "2", "--p", "0.5", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 2
        assert len(doc["matrix"]) == 2

    def test_analyze_reports_non_dps(self, capsys, tmp_path):
        path = write_state(tmp_path / "m.json", np.diag([0.5, 0.3, 0.2]))
        rep = run_json(capsys, "analyze", path)
        assert rep["results"]["verdict"] == "NOT_DPS"
        assert rep["results"]["p"] is None


class TestExitCodes:
    def test_missing_key_is_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2}')
        assert main([str("analyze"), str(path)]) == 2

    def test_invalid_json_is_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["analyze", str(path)]) == 2

    def test_missing_file_is_2(self, tmp_path):
        assert main(["analyze", str(tmp_path / "absent.json")]) == 2

    def test_non_hermitian_is_2(self, tmp_path):
        path = tmp_path / "nh.json"
        doc = {
            "dim": 2,
            "matrix": [[[1.0, 0.0], [0.1, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        }
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 2

    def test_domain_error_is_3(self, capsys, tmp_path):
        path = write_state(tmp_path / "m.json", np.diag([0.5, 0.3, 0.2]))
        # closed-form distance demands DPS inputs
        assert main(["distance", path, path, "--method", "closed"]) == 3

    def test_dims_mismatch_is_3(self, tmp_path):
        path = write_state(tmp_path / "m.json", np.eye(4) / 4.0)
        assert main(["schmidt", path, "--dims", "2", "3"]) == 3

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_out_of_range_parameter_is_3(self):
        assert main(["gen", "dps", "--dim", "2", "--p", "2.0", "--seed", "1"]) == 3


class TestDistance:
    def test_both_methods_agree(self, capsys, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        run_json(capsys, "gen", "dps", "--dim", "5", "--p", "0.6", "--seed", "21", "--out", a)
        run_json(capsys, "gen", "dps", "--dim", "5", "--p", "-0.1", "--seed", "22", "--out", b)
        rep = run_json(capsys, "distance", a, b, "--method", "both")
        assert rep["results"]["delta"]["fidelity"] < 1e-10
        assert rep["results"]["delta"]["trace_distance"] < 1e-10
        assert rep["results"]["closed"]["fuchs_chain_ok"]

    def test_oracle_method_accepts_any_state(self, capsys, tmp_path):
        path = write_state(tmp_path / "m.json", np.diag([0.5, 0.3, 0.2]))
        rep = run_json(capsys, "distance", path, path, "--method", "oracle")
        assert rep["results"]["oracle"]["trace_distance"] == pytest.approx(0.0, abs=1e-12)
        assert rep["results"]["oracle"]["fidelity"] == pytest.approx(1.0, abs=1e-10)


class TestBipartiteCommands:
    def test_schmidt_uses_dims_from_file(self, capsys, tmp_path):
        path = str(tmp_path / "iso.json")
        run_json(capsys, "gen", "isotropic", "--da", "3", "--F", "0.8", "--out", path)
        rep = run_json(capsys, "schmidt", path)
        assert rep["parameters"]["dims"] == [3, 3]
        b = rep["results"]["schmidt_coefficients"]
        assert b == pytest.approx([1.0 / math.sqrt(3.0)] * 3, abs=1e-10)
        assert rep["results"]["closed_form_deviation_a"] < 1e-10

    def test_entanglement_reports_thresholds(self, capsys, tmp_path):
        path = str(tmp_path / "iso.json")
        run_json(capsys, "gen", "isotropic", "--da", "2", "--F", "0.9", "--out", path)
        rep = run_json(capsys, "entanglement", path)
        assert rep["results"]["entangled"]
        assert rep["results"]["negative_count"] == 1
        assert rep["results"]["threshold_pair"] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert "sufficient but not necessary" in rep["results"]["caveat"]

    def test_werner2q_state_file_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "w.json")
        rep = run_json(capsys, "werner2q", "--p", "0.8", "--omega", "1.3", "--out", path)
        assert rep["results"]["entangled"]
        ent = run_json(capsys, "entanglement", path)
        assert ent["results"]["entangled"]
        mu4 = min(rep["results"]["pt_eigenvalues"])
        assert min(ent["results"]["pt_spectrum"]) == pytest.approx(mu4, abs=1e-10)

    def test_isotropic_separability(self, capsys):
        rep = run_json(capsys, "isotropic", "--da", "3", "--F", "0.2")
        assert rep["results"]["separable"]
        assert not rep["results"]["entangled"]


class TestChannelCommands:
    def test_depolarize_require_cp(self, capsys, tmp_path):
        path = str(tmp_path / "s.json")
        run_json(capsys, "gen", "haar-pure", "--dim", "3", "--seed", "31", "--out", path)
        rep = run_json(capsys, "channel", "depolarize", path, "--p", "-0.2")
        assert not rep["results"]["physically_realizable"]
        assert main(["channel", "depolarize", path, "--p", "-0.2", "--require-cp"]) == 3

    def test_protocol1_matches_formula(self, capsys, tmp_path):
        path = str(tmp_path / "s.json")
        run_json(capsys, "gen", "haar-pure", "--dim", "2", "--seed", "32", "--out", path)
        rep = run_json(capsys, "channel", "protocol1", path, "--beta2", "0.75")
        assert rep["results"]["formula_delta"] < 1e-10
        assert rep["results"]["p_equivalent"] == pytest.approx(0.25)

    def test_protocol1_rejects_mixed_input(self, capsys, tmp_path):
        path = write_state(tmp_path / "m.json", np.diag([0.6, 0.4]))
        assert main(["channel", "protocol1", path, "--beta2", "0.5"]) == 3

    def test_twirl_channel_file(self, capsys, tmp_path):
        from dpstates import random_channel

        ch = random_channel(2, 3, seed=33)
        doc = {
            "dim": 2,
            "kraus": [[[[z.real, z.imag] for z in row] for row in K] for K in ch.kraus],
        }
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(doc))
        rep = run_json(capsys, "channel", "twirl", str(path))
        assert rep["results"]["p_hat"] == pytest.approx(rep["results"]["p_exact"], abs=1e-12)
        assert rep["results"]["depolarizing_deviation"] < 1e-10

    def test_twirl_rejects_bad_channel_file(self, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text(json.dumps({"dim": 2, "kraus": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]]}))
        assert main(["channel", "twirl", str(path)]) == 2

    def test_recipe_reports_target(self, capsys, tmp_path):
        path = str(tmp_path / "s.json")
        run_json(capsys, "gen", "haar-pure", "--dim", "2", "--seed", "34", "--out", path)
        rep = run_json(
            capsys, "channel", "recipe", path, "--f", "0.7", "--seed", "35", "--trials", "4000"
        )
        assert rep["results"]["p_target"] == pytest.approx(0.6)
        assert rep["results"]["p_hat"] == pytest.approx(0.6, abs=0.05)

    def test_local_scales_isotropic_polarization(self, capsys, tmp_path):
        path = str(tmp_path / "iso.json")
        gen = run_json(capsys, "gen", "isotropic", "--da", "2", "--F", "0.85", "--out", path)
        rep = run_json(capsys, "channel", "local", path, "--pa", "0.5", "--pb", "0.9")
        assert rep["results"]["dps_verdict"] == "DPS"
        assert rep["results"]["p"] == pytest.approx(0.5 * 0.9 * gen["parameters"]["p"], abs=1e-9)


class TestMomentsCommand:
    def test_exact_and_recovery(self, capsys, tmp_path):
        path = str(tmp_path / "s.json")
        run_json(capsys, "gen", "dps", "--dim", "4", "--p", "0.45", "--seed", "41", "--out", path)
        rep = run_json(capsys, "moments", path, "--mode", "exact", "--assume-dps")
        rec = rep["results"]["recovered"]
        assert rec["sign_resolved"]
        assert rec["p"] == pytest.approx(0.45, abs=1e-9)

    def test_mc_requires_seed(self, tmp_path, capsys):
        path = str(tmp_path / "s.json")
        run_json(capsys, "gen", "dps", "--dim", "2", "--p", "0.5", "--seed", "42", "--out", path)
        assert main(["moments", path, "--mode", "mc"]) == 3

    def test_mc_reports_std_error(self, capsys, tmp_path):
        path = str(tmp_path / "s.json")
        run_json(capsys, "gen", "dps", "--dim", "2", "--p", "0.5", "--seed", "43", "--out", path)
        rep = run_json(
            capsys, "moments", path, "--m", "2", "--mode", "mc", "--shots", "5000", "--seed", "44"
        )
        (m2,) = rep["results"]["moments"]
        assert m2["shots"] == 5000
        assert m2["std_error"] > 0
        assert abs(m2["value"] - 0.625) < 5.0 * m2["std_error"]


class TestFig1:
    def test_csv_shape_and_content(self, capsys):
        code, out = run(capsys, "fig1", "--dim", "3", "--grid", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,f,bures,trace_distance,sqrt_one_minus_F"
        assert len(lines) == 1 + 36
        first = [float(x) for x in lines[1].split(",")]
        assert first[0] == pytest.approx(-1.0 / 8.0)
        assert first[1] == 0.0
        # identical states at f = 1: all distances vanish
        last = [float(x) for x in lines[-1].split(",")]
        assert last[1] == 1.0
        assert last[2] == last[3] == last[4] == 0.0

    def test_rows_match_per_point_loop(self, capsys):
        from dpstates import distance_report, make_dps, p_min_cp

        D, grid = 4, 7
        code, out = run(capsys, "fig1", "--dim", str(D), "--grid", str(grid))
        assert code == 0
        e0, e1 = np.eye(D)[0], np.eye(D)[1]
        want = ["p,f,bures,trace_distance,sqrt_one_minus_F"]
        for p in np.linspace(p_min_cp(D), 1.0, grid):
            for f in np.linspace(0.0, 1.0, grid):
                phi = math.sqrt(f) * e0 + math.sqrt(1.0 - f) * e1
                rep = distance_report(make_dps(e0, p), make_dps(phi, p))
                row = (p, f, rep.bures, rep.trace_distance, math.sqrt(max(1.0 - rep.fidelity, 0.0)))
                want.append(",".join(format(float(v), ".17g") for v in row))
        assert out.splitlines() == want

    def test_writes_nothing_when_one_point_fails(self, capsys, tmp_path, monkeypatch):
        from dpstates import metrics

        exact = metrics._trace_distance
        # T = 0 at one f of the grid breaks the Fuchs chain there alone
        monkeypatch.setattr(
            metrics, "_trace_distance", lambda D, p, q, f: exact(D, p, q, f) * (np.abs(f - 0.5) > 0.1)
        )
        path = tmp_path / "surf.csv"
        code, out = run(capsys, "fig1", "--dim", "3", "--grid", "5", "--out", str(path))
        assert code == 4
        assert out == ""
        assert not path.exists()

    def test_writes_file_with_lf(self, capsys, tmp_path):
        path = tmp_path / "surf.csv"
        code, _ = run(capsys, "fig1", "--dim", "2", "--grid", "3", "--out", str(path))
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestDeterminism:
    def test_repeat_invocations_are_byte_identical(self, capsys, tmp_path):
        state = str(tmp_path / "s.json")
        run(capsys, "gen", "dps", "--dim", "3", "--p", "0.3", "--seed", "51", "--out", state)
        pure = str(tmp_path / "p.json")
        run(capsys, "gen", "haar-pure", "--dim", "2", "--seed", "52", "--out", pure)
        invocations = [
            ["analyze", state],
            ["gen", "dps", "--dim", "5", "--p", "-0.05", "--seed", "53"],
            ["moments", state, "--mode", "mc", "--m", "2", "3", "--shots", "2000", "--seed", "54"],
            ["channel", "recipe", pure, "--f", "0.8", "--seed", "55", "--trials", "300"],
            ["fig1", "--dim", "4", "--grid", "4"],
            ["isotropic", "--da", "4", "--F", "0.55"],
        ]
        for argv in invocations:
            first = run(capsys, *argv)
            second = run(capsys, *argv)
            assert first == second, argv

    def test_gen_output_files_byte_identical(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(capsys, "gen", "dps", "--dim", "4", "--p", "0.2", "--seed", "56", "--out", str(a))
        run(capsys, "gen", "dps", "--dim", "4", "--p", "0.2", "--seed", "56", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


BOUNDARY_COMMANDS = [
    ["analyze", "{nan}"],
    ["distance", "{nan}", "{mm}"],
    ["moments", "{nan}"],
    ["moments", "{nan}", "--mode", "perm"],
    ["werner2q", "--p", "nan", "--omega", "0.5"],
    ["isotropic", "--da", "2", "--F", "nan"],
    ["channel", "depolarize", "{mm}", "--p", "nan"],
    ["fig1", "--dim", "1", "--grid", "10"],
    ["analyze", "{dps}", "--tol-star", "nan"],
    ["schmidt", "{dps}", "--p-tol", "nan"],
    ["entanglement", "{dps}", "--neg-tol", "nan"],
    ["moments", "{dps}", "--assume-dps", "--recovery-tol", "nan"],
    ["gen", "dps", "--p", "0.5", "--seed", "-1"],
    ["gen", "haar-pure", "--seed", "-1"],
    ["moments", "{dps}", "--mode", "mc", "--seed", "-5"],
    ["channel", "recipe", "{pure}", "--f", "0.5", "--trials", "10", "--seed", "-1"],
    ["channel", "twirl", "{ch}", "--mode", "haar-sample", "--samples", "10", "--seed", "-1"],
    ["entanglement", "{dps}", "--neg-tol", "-1"],
    ["analyze", "{dps}", "--tol-star", "-1"],
    ["schmidt", "{dps}", "--p-tol", "-1"],
    ["moments", "{dps}", "--assume-dps", "--recovery-tol", "-1"],
    ["gen", "dps", "--dim", "-3", "--p", "0.5", "--seed", "1"],
    ["channel", "local", "{dps}", "--dims", "1", "4", "--pa", "0.5", "--pb", "0.5"],
    ["channel", "local", "{dps}", "--dims", "4", "1", "--pa", "0.5", "--pb", "0.5"],
]


def write_inputs(tmp_path) -> dict:
    """State and channel files for the boundary and fuzz tests, by name."""
    nan = np.eye(4) / 4.0
    nan[0, 1] = nan[1, 0] = np.nan
    ch = tmp_path / "ch.json"
    ch.write_text(json.dumps({"dim": 2, "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    return {
        "nan": write_state(tmp_path / "nan.json", nan),
        "mm": write_state(tmp_path / "mm.json", np.eye(4) / 4.0),
        "dps": write_state(tmp_path / "dps.json", np.diag([0.625, 0.125, 0.125, 0.125]), dims=(2, 2)),
        "pure": write_state(tmp_path / "pure.json", np.diag([1.0, 0.0, 0.0])),
        "ch": str(ch),
        "bad": str(bad),
        "missing": str(tmp_path / "missing.json"),
    }


@pytest.mark.parametrize("argv", BOUNDARY_COMMANDS, ids=lambda a: " ".join(a))
def test_non_finite_and_out_of_range_input_is_refused(argv, capsys, tmp_path):
    paths = write_inputs(tmp_path)
    code = main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    # a malformed file is exit 2; every flag or dimension out of its domain is exit 3
    assert code == (2 if "{nan}" in argv else 3)
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_identifying_commands_build_no_basis(capsys, tmp_path):
    from dpstates.bloch import generate_basis

    state = str(tmp_path / "s.json")
    other = str(tmp_path / "o.json")
    run_json(capsys, "gen", "dps", "--dim", "6", "--p", "0.4", "--seed", "61", "--out", state)
    run_json(capsys, "gen", "dps", "--dim", "6", "--p", "-0.1", "--seed", "62", "--out", other)
    generate_basis.cache_clear()
    for argv in (
        ["analyze", state],
        ["distance", state, other, "--method", "both"],
        ["schmidt", state, "--dims", "2", "3"],
        ["entanglement", state, "--dims", "2", "3"],
        ["channel", "local", state, "--dims", "2", "3", "--pa", "0.8", "--pb", "0.6"],
    ):
        run_json(capsys, *argv)
    assert generate_basis.cache_info().misses == 0


def test_cli_import_loads_no_scipy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, dpstates.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# fuzz: every drawn command line is answered or refused with a documented code

INTS = st.integers(-3, 8).map(str)
COUNTS = st.integers(-3, 50).map(str)
FLOATS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.5", "1", "2"])
SWITCH = st.just(None)
STATES = st.sampled_from(["dps", "pure", "mm", "nan", "bad", "missing"])
CHANNELS = st.sampled_from(["ch", "dps", "bad", "missing"])


def _args(flag: str, value) -> list:
    """argv for one flag: a None value is a switch, a list spans several args.

    A scalar goes as "--flag=value", so that argparse reads "-inf" as a value.
    """
    name = "--" + flag.replace("_", "-")
    if value is None:
        return [name]
    if isinstance(value, list):
        return [name, *value]
    return [f"{name}={value}"]


def cat(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def flags(**drawn):
    """Each flag present or absent, with a drawn value."""
    return cat(*(st.one_of(st.just([]), v.map(lambda x, f=f: _args(f, x))) for f, v in drawn.items()))


def need(flag, values):
    return values.map(lambda v: _args(flag, v))


def named(files):
    return files.map(lambda n: ["{" + n + "}"])


PAIR = st.lists(st.integers(-3, 8).map(str), min_size=2, max_size=2)
FUZZ_COMMANDS = {
    "analyze": cat(st.just(["analyze"]), named(STATES), flags(tol_star=FLOATS, tol_spectrum=FLOATS)),
    "distance": cat(
        st.just(["distance"]), named(STATES), named(STATES), flags(method=st.sampled_from(["closed", "oracle", "both"]))
    ),
    "schmidt": cat(st.just(["schmidt"]), named(STATES), flags(dims=PAIR, p_tol=FLOATS)),
    "entanglement": cat(st.just(["entanglement"]), named(STATES), flags(dims=PAIR, neg_tol=FLOATS)),
    "werner2q": cat(st.just(["werner2q"]), need("p", FLOATS), need("omega", FLOATS)),
    "isotropic": cat(st.just(["isotropic"]), need("da", INTS), need("F", FLOATS)),
    "channel depolarize": cat(
        st.just(["channel", "depolarize"]), named(STATES), need("p", FLOATS), flags(require_cp=SWITCH)
    ),
    "channel protocol1": cat(st.just(["channel", "protocol1"]), named(STATES), need("beta2", FLOATS)),
    "channel twirl": cat(
        st.just(["channel", "twirl"]),
        named(CHANNELS),
        flags(
            mode=st.sampled_from(["exact-clifford", "haar-sample"]),
            samples=COUNTS,
            seed=INTS,
            exclude_identity=SWITCH,
        ),
    ),
    "channel recipe": cat(
        st.just(["channel", "recipe"]), named(STATES), need("f", FLOATS), need("seed", INTS), need("trials", COUNTS)
    ),
    "channel local": cat(
        st.just(["channel", "local"]), named(STATES), need("pa", FLOATS), need("pb", FLOATS), flags(dims=PAIR)
    ),
    "moments": cat(
        st.just(["moments"]),
        named(STATES),
        flags(
            m=st.lists(st.integers(-3, 8).map(str), min_size=1, max_size=3),
            mode=st.sampled_from(["exact", "perm", "mc"]),
            shots=COUNTS,
            seed=INTS,
            assume_dps=SWITCH,
            recovery_tol=FLOATS,
        ),
    ),
    "fig1": cat(st.just(["fig1"]), flags(dim=INTS, grid=INTS)),
    "gen": cat(
        st.just(["gen"]),
        st.sampled_from(["dps", "isotropic", "haar-pure"]).map(lambda k: [k]),
        flags(dim=INTS, p=FLOATS, da=INTS, F=FLOATS, seed=INTS),
    ),
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("fuzz"))


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def test_fuzz_covers_every_subcommand():
    covered = {name.split()[0] for name in FUZZ_COMMANDS}
    assert covered == set(build_parser()._subparsers._group_actions[0].choices)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(FUZZ_COMMANDS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_command_lines_exit_cleanly(name, fuzz_inputs, data):
    argv = [a.format(**fuzz_inputs) for a in data.draw(FUZZ_COMMANDS[name], label="argv")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert "Traceback" not in err.getvalue()
        return
    assert err.getvalue() == ""
    if argv[0] == "fig1":
        header, *rows = out.getvalue().splitlines()
        assert rows and all(math.isfinite(float(x)) for row in rows for x in row.split(","))
    else:
        assert _finite(json.loads(out.getvalue()))
