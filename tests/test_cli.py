import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpstates.bloch import SPECTRUM_TOL, measure_dps
from dpstates.cli import build_parser, main, render_json, state_document
from dpstates.errors import InternalCheckError
from dpstates.metrics import _dps_spectrum

from conftest import leaf_commands, random_dps, random_mixed, random_non_dps, rng_for


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


def text_of(obj) -> str:
    """The whole JSON text that ``render_json`` streams."""
    return "".join(render_json(obj))


class TestRenderJson:
    def test_scalars_and_nesting(self):
        text = text_of({"a": 1, "b": [1.5, None, True], "c": {"d": "x"}})
        assert json.loads(text) == {"a": 1, "b": [1.5, None, True], "c": {"d": "x"}}
        assert text.endswith("\n")

    def test_full_float_precision(self):
        text = text_of({"x": 0.1 + 0.2})
        assert json.loads(text)["x"] == 0.1 + 0.2

    def test_numpy_values(self):
        text = text_of({"v": np.float64(0.5), "n": np.int64(3), "a": np.arange(2)})
        assert json.loads(text) == {"v": 0.5, "n": 3, "a": [0, 1]}

    @pytest.mark.parametrize("transpose", [False, True])
    def test_complex_matrix_renders_as_its_pairs(self, transpose):
        # a complex matrix is rendered straight from the array, byte for
        # byte as the nested [re, im] lists it stands for
        M = rng_for(90).standard_normal((4, 4)) + 1j * rng_for(91).standard_normal((4, 4))
        M.real[0, 0], M.imag[0, 1] = -0.0, -0.0
        M.real[1, 1], M.imag[1, 2] = 5e-324, 2.2250738585072014e-308 / 3
        M.real[2, 2], M.imag[3, 0] = 1e300, -1e300
        M = M.T if transpose else M
        pairs = [[[float(z.real), float(z.imag)] for z in row] for row in M]
        assert text_of({"dim": 4, "matrix": M, "nested": {"m": M}}) == text_of(
            {"dim": 4, "matrix": pairs, "nested": {"m": pairs}}
        )

    def test_state_document_renders_as_its_pairs(self):
        state = random_mixed(5, rng_for(92))
        pairs = [[[float(z.real), float(z.imag)] for z in row] for row in state.matrix]
        text = text_of(state_document(state))
        assert text == text_of({"dim": 5, "matrix": pairs})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_complex_matrix_refuses_non_finite_entries(self, bad):
        M = np.eye(2, dtype=complex)
        M[0, 1] = bad
        with pytest.raises(InternalCheckError):
            render_json({"matrix": M})
        # refused in the call, before a chunk of the finite matrix ahead of it exists
        with pytest.raises(InternalCheckError):
            render_json({"a": np.eye(3, dtype=complex), "b": M})
        with pytest.raises(InternalCheckError):
            render_json({"a": np.eye(3, dtype=complex), "b": float(abs(bad))})

    def test_unserializable_value_is_an_internal_error(self):
        with pytest.raises(InternalCheckError, match="unserializable value of type set"):
            render_json({"results": {"a": {1, 2}}})

    def test_state_file_streams_one_row_at_a_time(self, tmp_path):
        import tracemalloc

        from dpstates.cli import _emit

        state = random_mixed(400, rng_for(93))
        path = tmp_path / "s.json"
        tracemalloc.start()
        try:
            _emit(render_json(state_document(state)), str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the text is about 9 MB; one row of it is about 23 kB
        assert path.stat().st_size > 8_000_000
        assert peak < 1_000_000
        assert path.read_text() == text_of(state_document(state))


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


    @pytest.mark.parametrize("D", [2, 3, 4, 5])
    def test_analyze_reports_eigh_spectrum(self, capsys, tmp_path, D):
        # positive and spectrum_deviation are report-only fields, read from
        # one eigvalsh of the loaded state; the verdict makes no eigensolve
        rng = rng_for(28, D)
        for i, state in enumerate((random_dps(D, rng).to_matrix(), random_non_dps(D, rng), random_mixed(D, rng))):
            r = run_json(capsys, "analyze", write_state(tmp_path / f"s{i}.json", state.matrix))["results"]
            vals = np.linalg.eigvalsh(state.matrix)
            p = measure_dps(state).p
            assert r["spectrum_deviation"] == float(np.max(np.abs(vals - _dps_spectrum(D, p))))
            assert r["positive"] == bool(vals[0] >= -SPECTRUM_TOL)


class TestIdentifyCommands:
    def test_state_just_past_p_one_is_usable(self, capsys, tmp_path):
        # p = 1 + 5e-9 is within SPECTRUM_TOL of the range: analyze calls it
        # a DPS with p = 1, so distance and schmidt must accept it too
        v = np.array([0.6, 0.0, 0.0, 0.8j])
        p = 1.0 + 5e-9
        path = write_state(tmp_path / "s.json", (1.0 - p) / 4 * np.eye(4) + p * np.outer(v, v.conj()), dims=(2, 2))
        rep = run_json(capsys, "analyze", path)["results"]
        assert rep["verdict"] == "DPS" and rep["p"] == 1.0
        assert run_json(capsys, "distance", path, path, "--method", "closed")["results"]["closed"]["p"] == 1.0
        assert run_json(capsys, "schmidt", path)["results"]["p"] == 1.0

    def test_identification_makes_no_eigensolve(self, capsys, tmp_path, monkeypatch):
        # the eigensolves left are report fields: analyze's spectrum and
        # schmidt's marginal spectra
        v = np.array([0.6, 0.0, 0.0, 0.8j])
        rho = 0.15 * np.eye(4) + 0.4 * np.outer(v, v.conj())
        state = write_state(tmp_path / "s.json", rho, dims=(2, 2))
        pure = write_state(tmp_path / "pure.json", np.outer(v, v.conj()), dims=(2, 2))

        def refuse(*args, **kwargs):
            raise AssertionError("identification made an eigensolve")

        for name in ("eigh", "eigvalsh", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for argv in (
            ["distance", state, state, "--method", "closed"],
            ["entanglement", state],
            ["channel", "local", state, "--pa", "0.5", "--pb", "0.5"],
            ["channel", "protocol1", pure, "--beta2", "0.5"],
            ["channel", "recipe", pure, "--f", "0.5", "--seed", "1", "--trials", "10"],
        ):
            run_json(capsys, *argv)
        # a refusal is worded from the DPS verdict, not from a spectrum
        for argv in (
            ["channel", "protocol1", state, "--beta2", "0.5"],
            ["channel", "recipe", state, "--f", "0.5", "--seed", "1", "--trials", "10"],
        ):
            assert main(argv) == 3


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

    def test_isotropic_builds_the_state_only_for_out(self, capsys):
        # the (da^2, da^2) state would be 13 MB at da = 30
        import tracemalloc

        tracemalloc.start()
        try:
            rep = run_json(capsys, "isotropic", "--da", "30", "--F", "0.5")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep["results"]["entangled"]
        assert peak < 2_000_000


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

        # D = 5 is past the dimensions the enumerated Clifford group reaches
        for D in (2, 5):
            ch = random_channel(D, 3, seed=33)
            doc = {
                "dim": D,
                "kraus": [[[[z.real, z.imag] for z in row] for row in K] for K in ch.kraus],
            }
            path = tmp_path / f"ch{D}.json"
            path.write_text(json.dumps(doc))
            rep = run_json(capsys, "channel", "twirl", str(path))
            assert rep["results"]["p_hat"] == rep["results"]["p_exact"]
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
        from dpstates import distance_arrays, p_min_cp

        D, grid = 4, 7
        code, out = run(capsys, "fig1", "--dim", str(D), "--grid", str(grid))
        assert code == 0
        want = ["p,f,bures,trace_distance,sqrt_one_minus_F"]
        for p in np.linspace(p_min_cp(D), 1.0, grid):
            for f in np.linspace(0.0, 1.0, grid):
                # one point at overlap sqrt(f)^2; at a given overlap distance_arrays is
                # distance_report bit for bit, but for T above f = 1/2 (TestDistanceArrays)
                amp = math.sqrt(f)
                rep = distance_arrays(D, p, p, amp * amp)
                row = (p, f, rep.bures[0], rep.trace_distance[0], math.sqrt(max(1.0 - rep.fidelity[0], 0.0)))
                want.append(",".join(format(float(v), ".17g") for v in row))
        assert out.splitlines() == want

    def test_writes_nothing_when_one_point_fails(self, capsys, tmp_path, monkeypatch):
        from dpstates import metrics

        exact = metrics._trace_distance
        # T = 0 at one f of the grid breaks the Fuchs chain there alone
        monkeypatch.setattr(
            metrics, "_trace_distance", lambda D, p, q, f, *g: exact(D, p, q, f, *g) * (np.abs(f - 0.5) > 0.1)
        )
        path = tmp_path / "surf.csv"
        code, out = run(capsys, "fig1", "--dim", "3", "--grid", "5", "--out", str(path))
        assert code == 4
        assert out == ""
        assert not path.exists()

    @pytest.mark.parametrize("grid, block_points", [(9, 18), (400, None)])
    def test_blocks_match_a_whole_grid_evaluation(self, grid, block_points, capsys, monkeypatch):
        from dpstates import cli, distance_arrays, p_min_cp

        if block_points is not None:
            monkeypatch.setattr(cli, "FIG1_BLOCK_POINTS", block_points)
        assert grid / (cli.FIG1_BLOCK_POINTS // grid) >= 3
        D = 9
        code, out = run(capsys, "fig1", "--dim", str(D), "--grid", str(grid))
        assert code == 0
        p = np.linspace(p_min_cp(D), 1.0, grid)
        f = np.linspace(0.0, 1.0, grid)
        amp = np.sqrt(f)
        rep = distance_arrays(D, p[:, None], p[:, None], amp * amp)
        cols = (rep.bures, rep.trace_distance, np.sqrt(np.maximum(1.0 - rep.fidelity, 0.0)))
        want = ["p,f,bures,trace_distance,sqrt_one_minus_F"]
        for i, pv in enumerate(p):
            for j, fv in enumerate(f):
                want.append(",".join(format(float(v), ".17g") for v in (pv, fv, *(c[i, j] for c in cols))))
        assert out == "\n".join(want) + "\n"

    def test_failure_in_the_last_block_writes_nothing(self, capsys, tmp_path, monkeypatch):
        from dpstates import cli, metrics

        grid = 9
        # blocks of 2 p rows: the last block is the p = 1 row alone
        monkeypatch.setattr(cli, "FIG1_BLOCK_POINTS", 2 * grid)
        exact = metrics._trace_distance
        monkeypatch.setattr(metrics, "_trace_distance", lambda D, p, q, f, *g: exact(D, p, q, f, *g) * (p < 1.0))
        path = tmp_path / "surf.csv"
        for out in ([], ["--out", str(path)]):
            assert run(capsys, "fig1", "--dim", "3", "--grid", str(grid), *out) == (4, "")
        assert not path.exists()

    def test_peak_memory_does_not_grow_with_grid(self, tmp_path):
        import tracemalloc

        peaks = []
        for grid in (200, 400):
            tracemalloc.start()
            try:
                assert main(["fig1", "--dim", "9", "--grid", str(grid), "--out", str(tmp_path / "f.csv")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a whole-grid evaluation holds about 490 B a point: 20 MB at grid 200, 79 MB at 400
        assert max(peaks) < 8 * 2**20

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
    # moments checks these two itself: order m is seeded with seed + m, which is 0 here,
    # and --recovery-tol is echoed in the report though only --assume-dps reads it
    ["moments", "{dps}", "--mode", "mc", "--seed", "-2", "--m", "2"],
    ["moments", "{dps}", "--recovery-tol", "nan"],
    ["channel", "recipe", "{pure}", "--f", "0.5", "--trials", "10", "--seed", "-1"],
    ["channel", "twirl", "{ch}", "--mode", "haar-sample", "--samples", "10", "--seed", "-1"],
    ["entanglement", "{dps}", "--neg-tol", "-1"],
    ["analyze", "{dps}", "--tol-star", "-1"],
    ["schmidt", "{dps}", "--p-tol", "-1"],
    ["moments", "{dps}", "--assume-dps", "--recovery-tol", "-1"],
    ["gen", "dps", "--dim", "-3", "--p", "0.5", "--seed", "1"],
    ["channel", "local", "{dps}", "--dims", "1", "4", "--pa", "0.5", "--pb", "0.5"],
    ["channel", "local", "{dps}", "--dims", "4", "1", "--pa", "0.5", "--pb", "0.5"],
    ["channel", "protocol1", "{notpsd}", "--beta2", "0.5"],
    ["channel", "recipe", "{notpsd}", "--f", "0.5", "--trials", "10", "--seed", "1"],
    # a unit-trace Hermitian file that is not positive, refused by the fidelity oracle
    ["distance", "{mm3}", "{notpsd}", "--method", "oracle"],
    ["channel", "twirl", "{ch}", "--mode", "haar-sample", "--samples", "50", "--seed", "1", "--exclude-identity"],
    ["channel", "twirl", "{ch}", "--samples", "50", "--seed", "1"],
    ["moments", "{dps}", "--mode", "exact", "--seed", "5"],
    ["moments", "{dps}", "--mode", "exact", "--shots", "10"],
    ["moments", "{dps}", "--mode", "perm", "--seed", "5", "--shots", "10"],
    ["gen", "isotropic", "--F", "0.5", "--da", "41"],
    ["gen", "isotropic", "--F", "0.5", "--da", "41", "--out", "{missing}"],
    ["isotropic", "--da", "41", "--F", "0.5", "--out", "{missing}"],
    # without --out the isotropic report still holds O(da^2) data; fig1 writes grid^2 rows
    ["isotropic", "--da", "100000", "--F", "0.5"],
    ["fig1", "--grid", "100000000"],
    ["fig1", "--grid", "2001"],
    ["gen", "dps", "--dim", "1201", "--p", "0.5", "--seed", "1"],
    ["gen", "haar-pure", "--dim", "1201", "--seed", "1", "--out", "{missing}"],
    ["analyze", "{nonnumeric}"],
    ["analyze", "{misshapen}"],
    ["analyze", "{floatdim}"],
    ["analyze", "{dim1}"],
    ["schmidt", "{baddims}"],
    ["channel", "twirl", "{nokraus}"],
    # numeric strings, and a JSON integer beyond float range, are no [re, im] number pairs
    ["analyze", "{strings}"],
    ["analyze", "{hugeint}"],
    ["channel", "twirl", "{hugeint}"],
    # more shots than the int64 the binomial draw takes
    ["moments", "{dps}", "--mode", "mc", "--seed", "1", "--shots", "100000000000000000000"],
    # --dims that do not factorize D, refused by schmidt_dps and local_depolarize
    ["schmidt", "{dps}", "--dims", "2", "3"],
    ["channel", "local", "{dps}", "--dims", "2", "3", "--pa", "0.5", "--pb", "0.5"],
    # the exact Clifford twirl needs a prime D <= 31
    ["channel", "twirl", "{ch4}"],
    ["channel", "twirl", "{ch6}"],
    ["channel", "twirl", "{ch37}"],
    # an --out that cannot be opened: its directory is missing
    ["werner2q", "--p", "0.5", "--omega", "0.3", "--out", "{unwritable}"],
    ["gen", "dps", "--p", "0.5", "--seed", "1", "--out", "{unwritable}"],
    ["fig1", "--grid", "3", "--out", "{unwritable}"],
    # --out - would put a state file and the report on stdout as two JSON documents
    ["werner2q", "--p", "0.5", "--omega", "0.3", "--out", "{stdout}"],
    ["gen", "dps", "--p", "0.5", "--seed", "1", "--out", "{stdout}"],
    # an empty --out names no file
    ["werner2q", "--p", "0.5", "--omega", "0.3", "--out", "{empty}"],
    # a JSON boolean beside numbers, which np.asarray would read as 1
    ["analyze", "{boolmix}"],
    ["analyze", "{boolfalse}"],
    ["channel", "twirl", "{boolkraus}"],
    # rows of unequal length, which np.asarray cannot stack
    ["analyze", "{ragged}"],
]

# inputs whose file breaks the schema, and --out targets that name no writable file,
# so that they are refused with exit 2
MALFORMED = {
    "{nan}", "{nonnumeric}", "{misshapen}", "{floatdim}", "{dim1}", "{baddims}", "{nokraus}", "{strings}", "{hugeint}",
    "{boolmix}", "{boolfalse}", "{boolkraus}", "{unwritable}", "{stdout}", "{empty}", "{ragged}",
}


def write_inputs(tmp_path) -> dict:
    """State and channel files for the boundary and fuzz tests, by name."""
    nan = np.eye(4) / 4.0
    nan[0, 1] = nan[1, 0] = np.nan
    ch = tmp_path / "ch.json"
    ch.write_text(json.dumps({"dim": 2, "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}))
    # identity channels at dimensions the exact Clifford twirl refuses
    for D in (4, 6, 37):
        identity = [[[float(i == j), 0.0] for j in range(D)] for i in range(D)]
        (tmp_path / f"ch{D}.json").write_text(json.dumps({"dim": D, "kraus": [identity]}))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    huge = [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]  # an integer beyond float range
    # files that each break one rule of the schema
    docs = {
        "nonnumeric": {"dim": 2, "matrix": [[["x", 0], [0, 0]], [[0, 0], [1, 0]]]},
        "misshapen": {"dim": 2, "matrix": [[[1, 0]]]},
        "floatdim": {"dim": 2.0, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]},
        "dim1": {"dim": 1, "matrix": [[[1, 0]]]},
        "nokraus": {"dim": 2, "kraus": []},
        "strings": {"dim": 2, "matrix": [[["0.5", 0], [0, 0]], [[0, 0], ["5e-1", 0]]]},
        # read as a state by analyze and as a channel by channel twirl
        "hugeint": {"dim": 2, "matrix": huge, "kraus": [huge]},
        # |0><0| and the identity channel, each with its entry 0 written [true, 0],
        # and |0><0| with its last entry written [0, false]
        "boolmix": {"dim": 2, "matrix": [[[True, 0], [0, 0]], [[0, 0], [0, 0]]]},
        "boolkraus": {"dim": 2, "kraus": [[[[True, 0], [0, 0]], [[0, 0], [1, 0]]]]},
        "boolfalse": {"dim": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0], [0, False]]]},
        "ragged": {"dim": 2, "matrix": [[[1, 0], [0, 0]], [[0, 0]]]},
    }
    for name, doc in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return {
        **{name: str(tmp_path / f"{name}.json") for name in docs},
        "nan": write_state(tmp_path / "nan.json", nan),
        "baddims": write_state(tmp_path / "baddims.json", np.eye(4) / 4.0, dims=(2, 3)),
        "mm": write_state(tmp_path / "mm.json", np.eye(4) / 4.0),
        "mm3": write_state(tmp_path / "mm3.json", np.eye(3) / 3.0),
        "dps": write_state(tmp_path / "dps.json", np.diag([0.625, 0.125, 0.125, 0.125]), dims=(2, 2)),
        "pure": write_state(tmp_path / "pure.json", np.diag([1.0, 0.0, 0.0])),
        # top eigenvalue 1 and unit trace, but not positive: not a pure state
        "notpsd": write_state(tmp_path / "notpsd.json", np.diag([1.0, 0.3, -0.3])),
        "ch": str(ch),
        **{f"ch{D}": str(tmp_path / f"ch{D}.json") for D in (4, 6, 37)},
        "bad": str(bad),
        "missing": str(tmp_path / "missing.json"),
        "unwritable": str(tmp_path / "nodir" / "out.json"),
        "stdout": "-",
        "empty": "",
    }


@pytest.mark.parametrize("argv", BOUNDARY_COMMANDS, ids=lambda a: " ".join(a))
def test_non_finite_and_out_of_range_input_is_refused(argv, capsys, tmp_path):
    paths = write_inputs(tmp_path)
    code = main([a.format(**paths) for a in argv])
    captured = capsys.readouterr()
    # a malformed file is exit 2; every flag or dimension out of its domain is exit 3
    assert code == (2 if MALFORMED.intersection(argv) else 3)
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        # a flag that the kind does not read
        ["gen", "haar-pure", "--dim", "3", "--p", "0.3", "--seed", "1"],
        ["gen", "haar-pure", "--seed", "1", "--da", "2"],
        ["gen", "dps", "--p", "0.3", "--seed", "1", "--da", "3"],
        ["gen", "dps", "--p", "0.3", "--seed", "1", "--F", "0.5"],
        ["gen", "isotropic", "--F", "0.5", "--seed", "1"],
        ["gen", "isotropic", "--F", "0.5", "--dim", "3"],
        ["gen", "isotropic", "--F", "0.5", "--p", "0.3"],
        # a flag that the kind needs
        ["gen", "dps", "--seed", "1"],
        ["gen", "dps", "--p", "0.3"],
        ["gen", "haar-pure", "--dim", "3"],
        ["gen", "isotropic", "--da", "2"],
    ],
    ids=lambda a: " ".join(a),
)
def test_malformed_gen_command_line_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "usage: dps" in captured.err


def test_files_without_a_boolean_token_are_not_walked(capsys, tmp_path, monkeypatch):
    import dpstates.cli as cli

    def walked(obj):
        raise AssertionError("the entries were walked for booleans")

    monkeypatch.setattr(cli, "_holds_bool", walked)
    paths = write_inputs(tmp_path)
    assert main(["analyze", paths["dps"]]) == 0
    assert main(["channel", "twirl", paths["ch"]]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "isotropic", "--F", "0.5", "--da", "41", "--out"],
        ["isotropic", "--da", "41", "--F", "0.5", "--out"],
        ["gen", "dps", "--dim", "1201", "--p", "0.5", "--seed", "1", "--out"],
        ["gen", "haar-pure", "--dim", "1201", "--seed", "1", "--out"],
    ],
)
def test_oversized_isotropic_write_is_refused_before_any_state(argv, capsys, tmp_path, monkeypatch):
    import dpstates.cli as cli

    def built(*args):
        raise AssertionError("the state was built")

    for name in ("isotropic", "haar_state", "make_dps"):
        monkeypatch.setattr(cli, name, built)
    out = tmp_path / "x.json"
    assert main([*argv, str(out)]) == 3
    limit = cli.MAX_WRITE_DIM if "--dim" in argv else cli.MAX_WRITE_DA
    assert f"<= {limit}" in capsys.readouterr().err
    assert not out.exists()


def test_gen_writes_up_to_the_dimension_limit(capsys, monkeypatch):
    import dpstates.cli as cli

    monkeypatch.setattr(cli, "MAX_WRITE_DIM", 5)
    assert len(run_json(capsys, "gen", "haar-pure", "--dim", "5", "--seed", "1")["matrix"]) == 5
    assert run(capsys, "gen", "haar-pure", "--dim", "6", "--seed", "1") == (3, "")


def test_fig1_writes_up_to_the_grid_limit(capsys, tmp_path, monkeypatch):
    import dpstates.cli as cli

    monkeypatch.setattr(cli, "MAX_FIG1_GRID", 5)
    assert len(run(capsys, "fig1", "--grid", "5")[1].splitlines()) == 1 + 5 * 5
    path = tmp_path / "surface.csv"
    assert run(capsys, "fig1", "--grid", "6", "--out", str(path)) == (3, "")
    assert not path.exists()


def test_isotropic_report_without_out_passes_the_write_limit(capsys):
    rep = run_json(capsys, "isotropic", "--da", "1000", "--F", "0.5")
    assert rep["results"]["entangled"] is True


def test_identifying_commands_build_no_basis(capsys, tmp_path, monkeypatch):
    import dpstates
    import dpstates.bloch

    def refuse(D):
        raise AssertionError("the basis was built")

    state = str(tmp_path / "s.json")
    other = str(tmp_path / "o.json")
    run_json(capsys, "gen", "dps", "--dim", "6", "--p", "0.4", "--seed", "61", "--out", state)
    run_json(capsys, "gen", "dps", "--dim", "6", "--p", "-0.1", "--seed", "62", "--out", other)
    for module in (dpstates, dpstates.bloch):
        monkeypatch.setattr(module, "generate_basis", refuse)
    for argv in (
        ["analyze", state],
        ["distance", state, other, "--method", "both"],
        ["schmidt", state, "--dims", "2", "3"],
        ["entanglement", state, "--dims", "2", "3"],
        ["channel", "local", state, "--dims", "2", "3", "--pa", "0.8", "--pb", "0.6"],
    ):
        run_json(capsys, *argv)


def run_python(*args: str):
    """A fresh interpreter on this checkout's src, its output captured as text."""
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_cli_import_loads_no_scipy_and_no_numpy_random():
    # numpy.random costs about 10 ms to import; only the commands that draw should pay it
    heavy = "('scipy.', 'numpy.random.')"
    probe = f"import sys, dpstates.cli; print(sorted(m for m in sys.modules if (m + '.').startswith({heavy})))"
    out = run_python("-c", probe)
    assert out.returncode == 0 and out.stdout.strip() == "[]"


@pytest.mark.parametrize("entries", [{(0, 0): math.inf}, {(0, 1): math.inf, (1, 0): math.inf}], ids=["diagonal", "pair"])
def test_infinite_entries_are_refused_in_one_line(tmp_path, entries):
    # a fresh process, so that a RuntimeWarning would reach stderr as it does for a user
    M = np.eye(3) / 3.0
    for ij, z in entries.items():
        M[ij] = z
    path = write_state(tmp_path / "inf.json", M)
    assert "Infinity" in Path(path).read_text()
    out = run_python("-m", "dpstates", "analyze", path)
    assert out.returncode == 2 and out.stdout == ""
    assert len(out.stderr.splitlines()) == 1 and "NaN or infinite" in out.stderr, out.stderr


# ---------------------------------------------------------------------------
# fuzz: every drawn command line is answered or refused with a documented code

INTS = st.integers(-3, 50).map(str)
FLOATS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.5", "1", "2"])
STATES = st.sampled_from(["dps", "pure", "mm", "nan", "bad", "missing"])
CHANNELS = st.sampled_from(["ch", "dps", "bad", "missing"])


def _words(action) -> st.SearchStrategy:
    """argv words for one parser action, drawn by the action's shape alone.

    A scalar flag goes as "--flag=value", so that argparse reads "-inf"
    as a value.
    """
    flag = action.option_strings[0] if action.option_strings else action.dest
    if not action.option_strings:
        if action.nargs is None and action.choices is not None:
            return st.sampled_from(list(action.choices)).map(lambda c: [c])
        if action.nargs is None:
            files = CHANNELS if action.dest == "channel" else STATES
            return files.map(lambda name: ["{" + name + "}"])
    elif action.nargs == 0:
        return st.just([flag])
    elif action.nargs in (2, "+") and action.type is int:
        low, high = (2, 2) if action.nargs == 2 else (1, 3)
        return st.lists(INTS, min_size=low, max_size=high).map(lambda vs: [flag, *vs])
    elif action.nargs is None:
        values = {float: FLOATS, int: INTS}.get(action.type)
        if action.choices is not None:
            values = st.sampled_from(list(action.choices))
        if values is not None:
            return values.map(lambda v: [f"{flag}={v}"])
    raise ValueError(f"no fuzz rule for {flag} (nargs={action.nargs!r}, type={action.type!r})")


def _command_lines(path, actions) -> st.SearchStrategy:
    """dps command lines: positionals first, required flags always, the others present or absent.

    --out is left to the boundary cases.
    """
    parts = [st.just(list(path))]
    for action in sorted(actions, key=lambda a: bool(a.option_strings)):
        if action.dest != "out":
            words = _words(action)
            parts.append(words if action.required else st.one_of(st.just([]), words))
    return st.tuples(*parts).map(lambda ps: [w for p in ps for w in p])


FUZZ_COMMANDS = {" ".join(path): _command_lines(path, actions) for path, actions in leaf_commands(build_parser())}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("fuzz"))


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


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


def test_readme_synopsis_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("The console script is `dps`", 1)[1].split("```", 2)[1]
    lines = [line.split() for line in block.splitlines() if line.startswith("dps ")]
    leaves = list(leaf_commands(build_parser()))
    assert len(leaves) == 16
    for path, actions in leaves:
        words = {w.strip("[]") for line in lines if tuple(line[1 : 1 + len(path)]) == path for w in line}
        assert words, f"no synopsis line for dps {' '.join(path)}"
        for action in actions:
            for opt in action.option_strings:
                assert opt in words, f"README synopsis of dps {' '.join(path)} lacks {opt}"
