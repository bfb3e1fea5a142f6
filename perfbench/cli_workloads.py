"""The three CLI workloads: `dps` subcommands, each in a fresh interpreter.

A workload function writes its seeded input files into the work
directory and returns its round of operations.  Each operation is a
`dps` argument list with a check that compares the command's output
with an independent computation from ``reference``.  Operations with a
``fault`` are boundary inputs the program mishandles today; they pass
only on exit 2 or 3 with a one-line message and no traceback.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref
from reference import CheckError, close, expect

SE_LIMIT = 5.0  # Monte Carlo estimates must land within this many standard errors


class Op:
    __slots__ = ("argv", "check", "fault")

    def __init__(self, argv, check, fault: str | None = None):
        self.argv = [str(a) for a in argv]
        self.check = check
        self.fault = fault

    @property
    def label(self) -> str:
        return "dps " + " ".join(self.argv)


class Outcome:
    __slots__ = ("code", "stdout", "stderr", "work")

    def __init__(self, code: int, stdout: bytes, stderr: bytes, work: Path):
        self.code, self.stdout, self.stderr, self.work = code, stdout, stderr, work

    def report(self) -> dict:
        if self.code != 0:
            raise CheckError(f"exit {self.code}: {self.last_error()}")
        return json.loads(self.stdout)

    def results(self) -> dict:
        return self.report()["results"]

    def last_error(self) -> str:
        lines = self.stderr.decode(errors="replace").strip().splitlines()
        return lines[-1] if lines else "(no stderr)"

    def state(self, name: str) -> np.ndarray:
        return ref.read_state(self.work / name)[0]


def rejected(out: Outcome, codes=(2, 3)) -> None:
    """A refusal: the documented exit code and one stderr line, no traceback."""
    text = out.stderr.decode(errors="replace")
    lines = text.strip().splitlines()
    if out.code not in codes or len(lines) != 1 or "Traceback" in text:
        raise CheckError(f"exit {out.code}, {len(lines)} stderr lines: {out.last_error()}")


def f17(x: float) -> str:
    return repr(float(x))


def check_p(what: str, got, p: float) -> None:
    expect(f"{what}: p missing", got is not None)
    close(f"{what}: p", got, p, 1e-8)


def check_analyze(M: np.ndarray, p: float | None):
    def check(out: Outcome) -> None:
        r = out.results()
        truth = ref.spectral_dps_p(M)
        if p is None:
            expect("reference calls a generated mixed state a DPS", truth is None)
            expect(f"verdict {r['verdict']} for a mixed state", r["verdict"] == "NOT_DPS" and r["p"] is None)
            return
        expect(f"verdict {r['verdict']} for a DPS", r["verdict"] == "DPS")
        check_p("analyze", r["p"], p)
        close("coherence norm", r["coherence_norm"], abs(p), 1e-9)
        close("invariant ladder", r["invariant_ladder"], [p ** (k + 2) for k in range(4)], 1e-8)

    return check


def check_distance(A, B, p, q, psi, phi):
    def check(out: Outcome) -> None:
        r = out.results()
        F, T = ref.fidelity(A, B), ref.trace_distance(A, B)
        for route in ("closed", "oracle"):
            close(f"{route} fidelity", r[route]["fidelity"], F, 1e-8)
            close(f"{route} trace distance", r[route]["trace_distance"], T, 1e-9)
            close(f"{route} Bures", r[route]["bures"], math.sqrt(max(2.0 - 2.0 * math.sqrt(F), 0.0)), 1e-7)
        close("overlap f", r["closed"]["f"], abs(np.vdot(psi, phi)) ** 2, 1e-9)
        check_p("distance a", r["closed"]["p"], p)
        check_p("distance b", r["closed"]["q"], q)

    return check


def check_schmidt(M, psi, p, dA, dB):
    def check(out: Outcome) -> None:
        r = out.results()
        check_p("schmidt", r["p"], p)
        close("Schmidt coefficients", r["schmidt_coefficients"], ref.schmidt(psi, dA, dB), 1e-8)
        close("marginal A", r["marginal_spectrum_a"], ref.eigvalsh(ref.ptrace(M, dA, dB, "A")), 1e-10)
        close("marginal B", r["marginal_spectrum_b"], ref.eigvalsh(ref.ptrace(M, dA, dB, "B")), 1e-10)

    return check


def check_entanglement(M, psi, p, dA, dB):
    def check(out: Outcome) -> None:
        r = out.results()
        check_p("entanglement", r["p"], p)
        close("Schmidt coefficients", r["schmidt_coefficients"], ref.schmidt(psi, dA, dB), 1e-8)
        close("PT spectrum", r["pt_spectrum"], ref.eigvalsh(ref.ptranspose_b(M, dA, dB)), 1e-9)
        neg, count = ref.negativity(M, dA, dB)
        close("negativity", r["negativity"], neg, 1e-9)
        expect(f"negative count {r['negative_count']} != {count}", r["negative_count"] == count)
        expect("entangled flag", r["entangled"] == (count > 0))

    return check


def check_local(M, dA, dB, pa, pb, name):
    def check(out: Outcome) -> None:
        r = out.results()
        got = out.state(name)
        close("local depolarization", got, ref.local_depolarize(M, dA, dB, pa, pb), 1e-12)
        truth = ref.spectral_dps_p(got)
        if truth is None:
            expect(f"verdict {r['dps_verdict']} for a non-DPS output", r["dps_verdict"] == "NOT_DPS")
        else:
            expect(f"verdict {r['dps_verdict']} for a DPS output", r["dps_verdict"] == "DPS")
            check_p("local", r["p"], truth)

    return check


def check_moments(M, orders, shots=0, recovered=None):
    def check(out: Outcome) -> None:
        r = out.results()
        got = {row["m"]: row for row in r["moments"]}
        expect(f"moment orders {sorted(got)} != {orders}", sorted(got) == list(orders))
        for m in orders:
            t = ref.moment(M, m)
            if shots:
                se = math.sqrt(max(1.0 - t * t, 0.0) / shots)
                close(f"std error m={m}", got[m]["std_error"], se, 1e-12)
                expect(
                    f"Monte Carlo moment m={m} off by {abs(got[m]['value'] - t) / se:.1f} SE",
                    abs(got[m]["value"] - t) <= SE_LIMIT * se,
                )
            else:
                close(f"moment m={m}", got[m]["value"], t, 1e-12)
        if recovered is not None:
            check_p("moments recovery", r["recovered"]["p"], recovered)
            expect("sign resolved", r["recovered"]["sign_resolved"] is True)

    return check


def check_protocol1(psi, beta2, name):
    D = psi.shape[0]

    def check(out: Outcome) -> None:
        r = out.results()
        close("protocol output", out.state(name), ref.protocol_output(psi, beta2), 1e-10)
        close("alpha", r["alpha"], ref.protocol_alpha(D, beta2), 1e-12)
        close("p equivalent", r["p_equivalent"], 1.0 - beta2, 1e-15)
        expect(f"formula delta {r['formula_delta']:.3e}", 0.0 <= r["formula_delta"] <= 1e-10)

    return check


def check_twirl(kraus, samples=0, seed=0):
    D = kraus[0].shape[0]
    sd = {}

    def check(out: Outcome) -> None:
        r = out.results()
        f = ref.jamiolkowski_f(kraus)
        close("Jamiolkowski f", r["f"], f, 1e-12)
        close("p exact", r["p_exact"], ref.twirl_p(D, f), 1e-12)
        if not samples:
            close("Clifford p_hat", r["p_hat"], ref.twirl_p(D, f), 1e-12)
            expect(f"deviation {r['depolarizing_deviation']:.3e}", r["depolarizing_deviation"] <= 1e-10)
            return
        if not sd:
            sd["v"] = ref.twirl_sample_sd(kraus, np.random.default_rng([seed, 99]))
        se = sd["v"] / math.sqrt(samples)
        off = abs(r["p_hat"] - r["p_exact"]) / se
        expect(f"Haar-sample p_hat off by {off:.1f} SE", off <= SE_LIMIT)

    return check


def check_recipe(psi, f, trials, seed, name):
    D = psi.shape[0]
    sd = {}

    def check(out: Outcome) -> None:
        r = out.results()
        M = out.state(name)
        target = ref.twirl_p(D, f)
        close("p target", r["p_target"], target, 1e-12)
        proj = float(np.real(np.vdot(psi, M @ psi)))
        close("p_hat from the output state", r["p_hat"], (proj - 1.0 / D) / (1.0 - 1.0 / D), 1e-9)
        if not sd:
            sd["v"] = ref.recipe_sample_sd(D, f, np.random.default_rng([seed, 98]))
        off = abs(r["p_hat"] - target) / (sd["v"] / math.sqrt(trials))
        expect(f"recipe p_hat off by {off:.1f} SE", off <= SE_LIMIT)

    return check


def check_fig1(D: int, grid: int, name: str):
    def check(out: Outcome) -> None:
        expect(f"exit {out.code}: {out.last_error()}", out.code == 0)
        lines = (out.work / name).read_text().splitlines()
        expect("fig1 header", lines[0] == "p,f,bures,trace_distance,sqrt_one_minus_F")
        expect(f"fig1 has {len(lines) - 1} rows, not {grid * grid}", len(lines) - 1 == grid * grid)
        rows = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
        p, f, bures, T, s = rows.T
        close("fig1 p grid", p, np.repeat(np.linspace(ref.p_min_cp(D), 1.0, grid), grid), 1e-15)
        close("fig1 f grid", f, np.tile(np.linspace(0.0, 1.0, grid), grid), 1e-15)
        close("T = |p| sqrt(1-f)", T, np.abs(p) * np.sqrt(1.0 - f), 1e-9)
        expect("Fuchs-van de Graaf lower bound B^2/2 <= T", bool(np.all(bures * bures / 2.0 <= T + 1e-9)))
        expect("Fuchs-van de Graaf upper bound T <= sqrt(1-F)", bool(np.all(T * T <= s * s + 1e-9)))

    return check


def check_gen_dps(name, p):
    def check(out: Outcome) -> None:
        out.report()
        check_p("generated DPS", ref.spectral_dps_p(out.state(name)), p)

    return check


def check_gen_pure(name, D):
    def check(out: Outcome) -> None:
        out.report()
        close("pure spectrum", ref.eigvalsh(out.state(name)), np.eye(D)[-1], 1e-10)

    return check


def check_gen_isotropic(da, F):
    def check(out: Outcome) -> None:
        expect(f"exit {out.code}: {out.last_error()}", out.code == 0)
        (out.work / "iso_stdout.json").write_bytes(out.stdout)
        M, dims = ref.read_state(out.work / "iso_stdout.json")
        expect(f"isotropic dims {dims}", dims == [da, da])
        p = (da * da * F - 1.0) / (da * da - 1.0)
        close("isotropic state", M, ref.dps_matrix(ref.maximally_entangled(da), p), 1e-12)

    return check


def check_isotropic(da, F):
    def check(out: Outcome) -> None:
        r = out.results()
        p = (da * da * F - 1.0) / (da * da - 1.0)
        close("isotropic p", r["p"], p, 1e-12)
        expect("separability verdict", r["separable"] == (F <= 1.0 / da))
        neg, count = ref.negativity(ref.dps_matrix(ref.maximally_entangled(da), p), da, da)
        close("isotropic negativity", r["negativity"], neg, 1e-9)
        expect("isotropic entangled flag", r["entangled"] == (count > 0))

    return check


def check_werner(p, omega, name):
    def check(out: Outcome) -> None:
        r = out.results()
        M = out.state(name)
        v = np.zeros(4, dtype=complex)
        v[0], v[3] = math.cos(omega / 2.0), math.sin(omega / 2.0)
        close("two-qubit state", M, ref.dps_matrix(v, p), 1e-12)
        pt = ref.eigvalsh(ref.ptranspose_b(M, 2, 2))
        close("PT eigenvalues", np.sort(r["pt_eigenvalues"]), pt, 1e-12)
        expect("entangled flag", r["entangled"] == bool(pt[0] < -1e-9))

    return check


def check_depolarize(M, p, name):
    D = M.shape[0]

    def check(out: Outcome) -> None:
        r = out.results()
        got = out.state(name)
        close("depolarized state", got, ref.depolarize(M, p), 1e-12)
        close("purity", r["purity"], float(np.real(np.trace(got @ got))), 1e-12)
        expect("CP flag", r["physically_realizable"] == (p >= ref.p_min_cp(D) - 1e-12))

    return check


# ---------------------------------------------------------------------------
# workloads


def _dps_input(work: Path, name: str, D: int, p: float, rng, dims=None):
    psi = ref.haar_vector(D, rng)
    M = ref.dps_matrix(psi, p)
    ref.write_state(work / name, M, dims)
    return psi, M


def _boundary_ops(work: Path) -> list[Op]:
    """Inputs the program mishandles today; fixed, so they fail alike on every seed."""
    nan = np.eye(4) / 4.0
    nan[0, 1] = nan[1, 0] = np.nan
    ref.write_state(work / "nan.json", nan.astype(complex))
    ref.write_state(work / "mm4.json", np.eye(4, dtype=complex) / 4.0)
    nan_file = "NaN state file: LinAlgError traceback, exit 1"
    nan_flag = "NaN flag: exit 4 from the report serializer"
    return [
        Op(["analyze", "nan.json"], rejected, nan_file),
        Op(["distance", "nan.json", "mm4.json"], rejected, nan_file),
        Op(["moments", "nan.json"], rejected, nan_file),
        Op(["moments", "nan.json", "--mode", "perm"], rejected, "NaN state file: exit 4 from the report serializer"),
        Op(["werner2q", "--p", "nan", "--omega", "0.5"], rejected, nan_flag),
        Op(["isotropic", "--da", "2", "--F", "nan"], rejected, nan_flag),
        Op(["channel", "depolarize", "mm4.json", "--p", "nan"], rejected, nan_flag),
        Op(["fig1", "--dim", "1", "--grid", "10"], rejected, "fig1 --dim 1: IndexError traceback, exit 1"),
    ]


def cli_tour(work: Path, seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    p4, q4, p6 = ref.positive_p(rng), ref.negative_p(4, rng), ref.positive_p(rng)
    psi4, A4 = _dps_input(work, "t4p.json", 4, p4, rng, dims=(2, 2))
    phi4, B4 = _dps_input(work, "t4n.json", 4, q4, rng)
    psi6, A6 = _dps_input(work, "t6p.json", 6, p6, rng, dims=(2, 3))
    N4 = ref.mixed_state(4, rng)
    ref.write_state(work / "mix4.json", N4)
    psi3 = ref.haar_vector(3, rng)
    ref.write_state(work / "pure3.json", np.outer(psi3, psi3.conj()))
    kraus3 = ref.random_kraus(3, 2, rng)
    ref.write_channel(work / "ch3.json", kraus3)

    gen_p, gen_seed = ref.positive_p(rng), int(rng.integers(1 << 30))
    iso_F = float(rng.uniform(0.05, 0.95))
    w_p, w_omega = float(rng.uniform(0.2, 0.95)), float(rng.uniform(0.1, 1.5))
    dep_p = float(rng.uniform(ref.p_min_cp(4), 1.0))
    below_cp = float(rng.uniform(0.9 * ref.p_min(4), 1.1 * ref.p_min_cp(4)))
    beta2 = float(rng.uniform(0.1, 1.1))
    tw_seed, rec_seed, mc_seed = (int(s) for s in rng.integers(1 << 30, size=3))
    rec_f = float(rng.uniform(0.2, 0.9))
    pa, pb = float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.3, 0.9))

    ops = [
        Op(["gen", "dps", "--dim", 5, "--p", f17(gen_p), "--seed", gen_seed, "--out", "g_dps.json"],
           check_gen_dps("g_dps.json", gen_p)),
        Op(["gen", "haar-pure", "--dim", 6, "--seed", gen_seed, "--out", "g_pure.json"],
           check_gen_pure("g_pure.json", 6)),
        Op(["gen", "isotropic", "--da", 3, "--F", f17(iso_F)], check_gen_isotropic(3, iso_F)),
        Op(["analyze", "t4p.json"], check_analyze(A4, p4)),
        Op(["analyze", "mix4.json"], check_analyze(N4, None)),
        Op(["distance", "t4p.json", "t4n.json", "--method", "both"], check_distance(A4, B4, p4, q4, psi4, phi4)),
        Op(["schmidt", "t6p.json"], check_schmidt(A6, psi6, p6, 2, 3)),
        Op(["entanglement", "t4p.json", "--dims", 2, 2], check_entanglement(A4, psi4, p4, 2, 2)),
        Op(["werner2q", "--p", f17(w_p), "--omega", f17(w_omega), "--out", "w.json"],
           check_werner(w_p, w_omega, "w.json")),
        Op(["isotropic", "--da", 3, "--F", f17(iso_F)], check_isotropic(3, iso_F)),
        Op(["channel", "depolarize", "t4p.json", "--p", f17(dep_p), "--out", "dep.json"],
           check_depolarize(A4, dep_p, "dep.json")),
        Op(["channel", "depolarize", "t4p.json", "--p", f17(below_cp), "--require-cp"],
           lambda out: rejected(out, codes=(3,))),
        Op(["channel", "protocol1", "pure3.json", "--beta2", f17(beta2), "--out", "p1.json"],
           check_protocol1(psi3, beta2, "p1.json")),
        Op(["channel", "twirl", "ch3.json", "--mode", "exact-clifford"], check_twirl(kraus3)),
        Op(["channel", "twirl", "ch3.json", "--mode", "haar-sample", "--samples", 400, "--seed", tw_seed],
           check_twirl(kraus3, 400, tw_seed)),
        Op(["channel", "recipe", "pure3.json", "--f", f17(rec_f), "--seed", rec_seed, "--trials", 2000,
            "--out", "rec.json"], check_recipe(psi3, rec_f, 2000, rec_seed, "rec.json")),
        Op(["channel", "local", "t6p.json", "--dims", 2, 3, "--pa", f17(pa), "--pb", f17(pb), "--out", "loc.json"],
           check_local(A6, 2, 3, pa, pb, "loc.json")),
        Op(["moments", "t4p.json", "--m", 2, 3, "--mode", "exact", "--assume-dps"],
           check_moments(A4, (2, 3), recovered=p4)),
        Op(["moments", "t4n.json", "--mode", "perm"], check_moments(B4, (2, 3))),
        Op(["moments", "t4p.json", "--mode", "mc", "--shots", 100000, "--seed", mc_seed],
           check_moments(A4, (2, 3), shots=100000)),
        Op(["fig1", "--dim", 5, "--grid", 10, "--out", "fig_small.csv"], check_fig1(5, 10, "fig_small.csv")),
    ]
    return ops + _boundary_ops(work)


def cli_identify(work: Path, seed: int) -> list[Op]:
    # D=10 commands are the majority, so the median command lies inside
    # their cluster rather than on the edge between the D=10 and D=12
    # clusters, where it would jump from run to run.
    rng = np.random.default_rng([seed, 2])
    p10, q10 = ref.positive_p(rng), ref.negative_p(10, rng)
    p12, q12 = ref.positive_p(rng), ref.negative_p(12, rng)
    psi10, A10 = _dps_input(work, "a10p.json", 10, p10, rng, dims=(2, 5))
    phi10, B10 = _dps_input(work, "a10n.json", 10, q10, rng)
    N10 = ref.mixed_state(10, rng)
    ref.write_state(work / "n10.json", N10)
    psi12, A12 = _dps_input(work, "a12p.json", 12, p12, rng, dims=(3, 4))
    phi12, B12 = _dps_input(work, "a12n.json", 12, q12, rng)
    pa10, pb10, pa12, pb12 = (float(x) for x in rng.uniform(0.3, 0.9, size=4))

    return [
        Op(["analyze", "a10p.json"], check_analyze(A10, p10)),
        Op(["analyze", "a10n.json"], check_analyze(B10, q10)),
        Op(["analyze", "n10.json"], check_analyze(N10, None)),
        Op(["distance", "a10p.json", "a10n.json", "--method", "both"],
           check_distance(A10, B10, p10, q10, psi10, phi10)),
        Op(["schmidt", "a10p.json"], check_schmidt(A10, psi10, p10, 2, 5)),
        Op(["schmidt", "a10n.json", "--dims", 2, 5], check_schmidt(B10, phi10, q10, 2, 5)),
        Op(["entanglement", "a10p.json", "--dims", 2, 5], check_entanglement(A10, psi10, p10, 2, 5)),
        Op(["entanglement", "a10n.json", "--dims", 2, 5], check_entanglement(B10, phi10, q10, 2, 5)),
        Op(["channel", "local", "a10p.json", "--pa", f17(pa10), "--pb", f17(pb10), "--out", "loc10.json"],
           check_local(A10, 2, 5, pa10, pb10, "loc10.json")),
        Op(["schmidt", "n10.json", "--dims", 2, 5], lambda out: rejected(out, codes=(3,))),
        Op(["distance", "n10.json", "a10p.json", "--method", "closed"], lambda out: rejected(out, codes=(3,))),
        Op(["analyze", "a12p.json"], check_analyze(A12, p12)),
        Op(["distance", "a12p.json", "a12n.json", "--method", "both"],
           check_distance(A12, B12, p12, q12, psi12, phi12)),
        Op(["schmidt", "a12p.json"], check_schmidt(A12, psi12, p12, 3, 4)),
        Op(["entanglement", "a12p.json", "--dims", 3, 4], check_entanglement(A12, psi12, p12, 3, 4)),
        Op(["entanglement", "a12n.json", "--dims", 2, 6], check_entanglement(B12, phi12, q12, 2, 6)),
        Op(["channel", "local", "a12n.json", "--dims", 3, 4, "--pa", f17(pa12), "--pb", f17(pb12),
            "--out", "loc12.json"], check_local(B12, 3, 4, pa12, pb12, "loc12.json")),
        Op(["moments", "a12p.json", "--mode", "perm"], check_moments(A12, (2, 3))),
    ]


def cli_compute(work: Path, seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    psi12 = ref.haar_vector(12, rng)
    ref.write_state(work / "pure12.json", np.outer(psi12, psi12.conj()))
    psi8 = ref.haar_vector(8, rng)
    ref.write_state(work / "pure8.json", np.outer(psi8, psi8.conj()))
    kraus6 = ref.random_kraus(6, 2, rng)
    ref.write_channel(work / "ch6.json", kraus6)
    beta2, rec_f = float(rng.uniform(0.1, 1.0)), float(rng.uniform(0.2, 0.9))
    rec_seed, tw_seed = (int(s) for s in rng.integers(1 << 30, size=2))
    trials, samples = 20000, 8000

    return [
        Op(["fig1", "--dim", 9, "--grid", 300, "--out", "fig.csv"], check_fig1(9, 300, "fig.csv")),
        Op(["channel", "protocol1", "pure12.json", "--beta2", f17(beta2), "--out", "p1.json"],
           check_protocol1(psi12, beta2, "p1.json")),
        Op(["channel", "recipe", "pure8.json", "--f", f17(rec_f), "--seed", rec_seed, "--trials", trials,
            "--out", "rec.json"], check_recipe(psi8, rec_f, trials, rec_seed, "rec.json")),
        Op(["channel", "twirl", "ch6.json", "--mode", "haar-sample", "--samples", samples, "--seed", tw_seed],
           check_twirl(kraus6, samples, tw_seed)),
    ]


WORKLOADS = {"cli-tour": cli_tour, "cli-identify": cli_identify, "cli-compute": cli_compute}
