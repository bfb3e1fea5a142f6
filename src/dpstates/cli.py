"""Command-line interface: `dps <subcommand>`.

States and channels travel as JSON files; every command prints one JSON
report to stdout (CSV for the surface command).  Reports are rendered
by a local serializer with fixed key order and 17-significant-digit
floats, so identical inputs and seeds produce byte-identical output.

Exit codes: 0 success (regardless of verdict), 2 input-format or file
invariant failure, 3 domain/precondition violation, 4 internal
invariant violation (an oracle disagreed; a bug, not bad input).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from .bipartite import (
    isotropic,
    negativity,
    pair_threshold,
    reduced_spectrum_dps,
    schmidt_dps,
    two_qubit_canonical,
)
from .bloch import dps_test, measure_dps
from .channels import (
    KrausChannel,
    apply_depolarizing,
    chi_from_beta2,
    haar_state,
    jamiolkowski_fidelity,
    jamiolkowski_state,
    local_depolarize,
    pdps_recipe,
    protocol1,
    twirl,
    twirl_p,
)
from .errors import DomainError, InternalCheckError, NotDPSError
from .linalg import DensityMatrix, eig_hermitian, partial_trace
from .metrics import (
    DpsState,
    distance_arrays,
    distance_report,
    fidelity_oracle,
    make_dps,
    p_min_cp,
    pure_overlap,
    trace_distance_oracle,
)
from .moments import (
    dps_p_from_moments,
    moment_exact,
    moment_montecarlo,
    moment_permutation,
)


class CliInputError(Exception):
    """Malformed input file or schema violation (exit code 2)."""


# ---------------------------------------------------------------------------
# deterministic JSON rendering


def _f17(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise InternalCheckError("non-finite value reached the report serializer")
    return format(x, ".17g")


def _is_scalar(v) -> bool:
    return v is None or isinstance(v, (bool, int, float, str, np.integer, np.floating, np.bool_))


def _render(obj, ind: int) -> str:
    pad = "  " * ind
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _f17(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_render(v, ind + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        if all(_is_scalar(v) for v in seq):
            return "[" + ", ".join(_render(v, 0) for v in seq) + "]"
        rows = [f"{pad}  {_render(v, ind + 1)}" for v in seq]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise InternalCheckError(f"unserializable value of type {type(obj).__name__}")


def render_json(obj) -> str:
    return _render(obj, 0) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _report(report: dict, out: str | None = None, state=None, dims=None) -> int:
    """Write ``state`` to ``out`` when one is given, then print ``report``."""
    if out:
        _emit(render_json(state_document(state, dims=dims)), out)
        report["results"]["out"] = out
    sys.stdout.write(render_json(report))
    return 0


# ---------------------------------------------------------------------------
# state / channel file handling


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _parse_matrix(entry, dim: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(entry, dtype=float)
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"{what}: matrix entries must be [re, im] number pairs: {exc}")
    if arr.shape != (dim, dim, 2):
        raise CliInputError(f"{what}: expected shape ({dim}, {dim}, 2) of [re, im] pairs, got {arr.shape}")
    return arr[..., 0] + 1.0j * arr[..., 1]


def _matrix_to_pairs(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _read_doc(path: str, kind: str, key: str) -> tuple[dict, int, bytes]:
    """(document, dim, raw bytes) of a JSON object with "dim" >= 2 and ``key``, or CliInputError."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {kind} file {path}: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path}: not valid JSON: {exc}")
    if not isinstance(doc, dict) or "dim" not in doc or key not in doc:
        raise CliInputError(f'{path}: a {kind} file needs "dim" and "{key}" keys')
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 2:
        raise CliInputError(f'{path}: "dim" must be an integer >= 2, got {dim!r}')
    return doc, dim, raw


def load_state(path: str) -> tuple[DensityMatrix, list | None, str]:
    """Parse a StateFile; returns (state, dims-or-None, sha256 digest).

    Raises:
        CliInputError: schema or invariant violations, with the violated
            check and its residual in the message.
    """
    doc, dim, raw = _read_doc(path, "state", "matrix")
    dims = doc.get("dims")
    if dims is not None:
        if (
            not isinstance(dims, list)
            or len(dims) != 2
            or not all(isinstance(d, int) and d >= 2 for d in dims)
            or dims[0] * dims[1] != dim
        ):
            raise CliInputError(f'{path}: "dims" must be [dA, dB] with dA*dB = {dim}')
    M = _parse_matrix(doc["matrix"], dim, path)
    try:
        state = DensityMatrix(M)
    except DomainError as exc:
        raise CliInputError(f"{path}: {exc}")
    return state, dims, _sha256(raw)


def load_channel(path: str) -> tuple[KrausChannel, str]:
    """Parse a channel file {"dim": D, "kraus": [matrix, ...]}.

    Raises:
        CliInputError.
    """
    doc, dim, raw = _read_doc(path, "channel", "kraus")
    if not isinstance(doc["kraus"], list) or not doc["kraus"]:
        raise CliInputError(f'{path}: "kraus" must be a nonempty list of matrices')
    ops = [_parse_matrix(entry, dim, path) for entry in doc["kraus"]]
    try:
        ch = KrausChannel(dim=dim, kraus=tuple(ops))
    except DomainError as exc:
        raise CliInputError(f"{path}: {exc}")
    return ch, _sha256(raw)


def state_document(state: DensityMatrix, dims: list | None = None) -> dict:
    doc: dict = {"dim": state.dim}
    if dims is not None:
        doc["dims"] = [int(dims[0]), int(dims[1])]
    doc["matrix"] = _matrix_to_pairs(state.matrix)
    return doc


def _state_input(path: str, digest: str) -> dict:
    return {"path": path, "sha256": digest}


def _pure_vector(state: DensityMatrix, what: str) -> np.ndarray:
    """Extract |psi> from a pure-state density matrix, or exit 3."""
    spec = eig_hermitian(state.matrix)
    top = float(spec.eigenvalues[-1])
    if abs(top - 1.0) > 1e-10:
        raise DomainError(
            f"{what} requires a pure state; largest eigenvalue is {top:.15g}, not 1"
        )
    return spec.eigenvectors[:, -1]


def _as_dps(state: DensityMatrix, what: str) -> DpsState:
    """Identify a DPS and rebuild its (p, purification) pair, or exit 3."""
    m = measure_dps(state)
    p = m.verdict()
    if p is None:
        raise NotDPSError(f"{what}: input is not a depolarized pure state within tolerance")
    return make_dps(m.purification, p)


def _require_dims(dims_flag, dims_file, dim: int) -> tuple[int, int]:
    dims = dims_flag if dims_flag is not None else dims_file
    if dims is None:
        raise DomainError("subsystem dimensions needed: pass --dims dA dB (or put \"dims\" in the file)")
    dA, dB = int(dims[0]), int(dims[1])
    if dA * dB != dim:
        raise DomainError(f"dims {dA}x{dB} do not factorize the state dimension {dim}")
    return dA, dB


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(ns) -> int:
    state, _, digest = load_state(ns.state)
    D = state.dim
    m = measure_dps(state)
    verdict_p = m.verdict(ns.tol_star, ns.tol_spectrum)
    results: dict = {
        "dim": D,
        "coherence_norm": m.norm,
        "positive": bool(m.eigenvalues[0] >= -ns.tol_spectrum),
        "invariant_ladder": m.ladder(3) if D >= 3 else None,
        "star_residual": m.star_residual,
        "spectrum_deviation": m.spectrum_deviation,
        "verdict": "DPS" if verdict_p is not None else "NOT_DPS",
        "p": verdict_p,
    }
    if D == 2:
        results["sign_convention"] = "p >= 0 at D=2: both signs share one spectrum"
    report = {
        "command": "analyze",
        "inputs": {"state": _state_input(ns.state, digest)},
        "tolerances": {"tol_star": ns.tol_star, "tol_spectrum": ns.tol_spectrum},
        "results": results,
    }
    return _report(report)


def cmd_distance(ns) -> int:
    a, _, dig_a = load_state(ns.state_a)
    b, _, dig_b = load_state(ns.state_b)
    results: dict = {}
    if ns.method in ("closed", "both"):
        da = _as_dps(a, "closed-form distance")
        db = _as_dps(b, "closed-form distance")
        rep = distance_report(da, db)
        results["closed"] = {
            "fidelity": rep.fidelity,
            "trace_distance": rep.trace_distance,
            "bures": rep.bures,
            "angle": rep.angle,
            "f": pure_overlap(da, db),
            "p": da.p,
            "q": db.p,
            "fuchs_chain_ok": True,
        }
    if ns.method in ("oracle", "both"):
        F = fidelity_oracle(a, b)
        results["oracle"] = {
            "fidelity": F,
            "trace_distance": trace_distance_oracle(a, b),
            "bures": math.sqrt(max(2.0 - 2.0 * math.sqrt(F), 0.0)),
            "angle": math.acos(min(max(math.sqrt(F), 0.0), 1.0)),
        }
    if ns.method == "both":
        results["delta"] = {
            k: abs(results["closed"][k] - results["oracle"][k]) for k in ("fidelity", "trace_distance")
        }
    report = {
        "command": "distance",
        "inputs": {
            "state_a": _state_input(ns.state_a, dig_a),
            "state_b": _state_input(ns.state_b, dig_b),
        },
        "parameters": {"method": ns.method},
        "results": results,
    }
    return _report(report)


def cmd_schmidt(ns) -> int:
    state, dims_file, digest = load_state(ns.state)
    dA, dB = _require_dims(ns.dims, dims_file, state.dim)
    p, form = schmidt_dps(state, dA, dB, p_tol=ns.p_tol)
    specA_closed = reduced_spectrum_dps(p, form.b, dA)
    specB_closed = reduced_spectrum_dps(p, form.b, dB)
    specA = np.linalg.eigvalsh(partial_trace(state.matrix, dA, dB, keep="A"))
    specB = np.linalg.eigvalsh(partial_trace(state.matrix, dA, dB, keep="B"))
    report = {
        "command": "schmidt",
        "inputs": {"state": _state_input(ns.state, digest)},
        "parameters": {"dims": [dA, dB]},
        "tolerances": {"p_tol": ns.p_tol},
        "results": {
            "p": p,
            "schmidt_coefficients": form.b,
            "marginal_spectrum_a": specA,
            "marginal_spectrum_b": specB,
            "closed_form_deviation_a": float(np.max(np.abs(specA - specA_closed))),
            "closed_form_deviation_b": float(np.max(np.abs(specB - specB_closed))),
        },
    }
    return _report(report)


def cmd_entanglement(ns) -> int:
    state, dims_file, digest = load_state(ns.state)
    dA, dB = _require_dims(ns.dims, dims_file, state.dim)
    p, form = schmidt_dps(state, dA, dB)
    rep = negativity(p, form.b[:dA], dA, dB, neg_tol=ns.neg_tol)
    pair = pair_threshold(form.b[:dA], dA, dB)
    report = {
        "command": "entanglement",
        "inputs": {"state": _state_input(ns.state, digest)},
        "parameters": {"dims": [dA, dB]},
        "tolerances": {"neg_tol": ns.neg_tol},
        "results": {
            "p": p,
            "schmidt_coefficients": form.b[:dA],
            "pt_spectrum": rep.pt_spectrum,
            "negativity": rep.negativity,
            "negative_count": rep.negative_count,
            "bound": rep.bound,
            "entangled": rep.entangled,
            "threshold_pair": None if math.isinf(pair) else pair,
            "threshold_flat": 1.0 / (dA * dB / 2.0 + 1.0),
            "caveat": rep.caveat,
        },
    }
    return _report(report)


def cmd_werner2q(ns) -> int:
    state, mu = two_qubit_canonical(ns.p, ns.omega)
    sin_threshold = (1.0 - ns.p) / (2.0 * ns.p) if ns.p > 1.0 / 3.0 else None
    report = {
        "command": "werner2q",
        "inputs": {},
        "parameters": {"p": ns.p, "omega": ns.omega},
        "results": {
            "pt_eigenvalues": list(mu),
            "entangled": mu[3] < -1e-9,
            "sin_omega_threshold": sin_threshold,
        },
    }
    return _report(report, ns.out, state, [2, 2])


def cmd_isotropic(ns) -> int:
    dps, separable = isotropic(ns.da, ns.F)
    b = np.full(ns.da, 1.0 / math.sqrt(ns.da))
    rep = negativity(dps.p, b, ns.da, ns.da)
    report = {
        "command": "isotropic",
        "inputs": {},
        "parameters": {"da": ns.da, "F": ns.F},
        "results": {
            "p": dps.p,
            "separable": separable,
            "negativity": rep.negativity,
            "entangled": rep.entangled,
            "threshold_p": 1.0 / (ns.da + 1.0),
        },
    }
    return _report(report, ns.out, dps.to_matrix(), [ns.da, ns.da])


def cmd_channel_depolarize(ns) -> int:
    state, dims, digest = load_state(ns.state)
    result = apply_depolarizing(state, ns.p)
    if ns.require_cp and not result.physically_realizable:
        raise DomainError(
            f"p={ns.p:.15g} is below the CP bound {p_min_cp(state.dim):.15g}; "
            "no physical map realizes it (--require-cp)"
        )
    report = {
        "command": "channel depolarize",
        "inputs": {"state": _state_input(ns.state, digest)},
        "parameters": {"p": ns.p, "require_cp": bool(ns.require_cp)},
        "results": {
            "physically_realizable": result.physically_realizable,
            "purity": result.state.purity(),
        },
    }
    return _report(report, ns.out, result.state, dims)


def cmd_channel_protocol1(ns) -> int:
    state, _, digest = load_state(ns.state)
    psi = _pure_vector(state, "protocol1")
    chi = chi_from_beta2(state.dim, ns.beta2)
    out = protocol1(psi, chi)
    # residual (1-b2) rho + (b2/D) 1 is the depolarizing map at p = 1 - b2
    p_equiv = 1.0 - ns.beta2
    formula = apply_depolarizing(state, p_equiv)
    delta = trace_distance_oracle(out, formula.state)
    report = {
        "command": "channel protocol1",
        "inputs": {"state": _state_input(ns.state, digest)},
        "parameters": {"beta2": ns.beta2},
        "results": {
            "alpha": float(chi.alpha.real),
            "p_equivalent": p_equiv,
            "formula_delta": delta,
        },
    }
    return _report(report, ns.out, out)


def cmd_channel_twirl(ns) -> int:
    ch, digest = load_channel(ns.channel)
    result = twirl(
        ch,
        mode=ns.mode,
        samples=ns.samples,
        seed=ns.seed,
        exclude_identity=ns.exclude_identity,
    )
    f = jamiolkowski_fidelity(ch)
    report = {
        "command": "channel twirl",
        "inputs": {"channel": _state_input(ns.channel, digest)},
        "parameters": {
            "mode": ns.mode,
            "samples": ns.samples,
            "exclude_identity": bool(ns.exclude_identity),
        },
        "seed": ns.seed,
        "results": {
            "f": f,
            "p_hat": result.p_hat,
            "p_exact": twirl_p(ch.dim, f),
            "depolarizing_deviation": result.depolarizing_deviation,
        },
    }
    choi = jamiolkowski_state(result.channel) if ns.out else None
    return _report(report, ns.out, choi, [ch.dim, ch.dim])


def cmd_channel_recipe(ns) -> int:
    state, _, digest = load_state(ns.state)
    psi = _pure_vector(state, "recipe")
    out = pdps_recipe(psi, ns.f, ns.seed, ns.trials)
    D = state.dim
    proj = float(np.real(np.vdot(psi, out.matrix @ psi)))
    p_hat = (proj - 1.0 / D) / (1.0 - 1.0 / D)
    report = {
        "command": "channel recipe",
        "inputs": {"state": _state_input(ns.state, digest)},
        "parameters": {"f": ns.f, "trials": ns.trials},
        "seed": ns.seed,
        "results": {"p_target": twirl_p(D, ns.f), "p_hat": p_hat},
    }
    return _report(report, ns.out, out)


def cmd_channel_local(ns) -> int:
    state, dims_file, digest = load_state(ns.state)
    dA, dB = _require_dims(ns.dims, dims_file, state.dim)
    out = local_depolarize(state, dA, dB, ns.pa, ns.pb)
    p = dps_test(out)
    report = {
        "command": "channel local",
        "inputs": {"state": _state_input(ns.state, digest)},
        "parameters": {"dims": [dA, dB], "pa": ns.pa, "pb": ns.pb},
        "results": {
            "dps_verdict": "DPS" if p is not None else "NOT_DPS",
            "p": p,
        },
    }
    return _report(report, ns.out, out, [dA, dB])


def cmd_moments(ns) -> int:
    state, _, digest = load_state(ns.state)
    orders = list(dict.fromkeys(ns.m))
    if ns.assume_dps:
        for needed in (2, 3):
            if needed not in orders:
                orders.append(needed)

    def one(m: int):
        if ns.mode == "exact":
            return moment_exact(state, m)
        if ns.mode == "perm":
            return moment_permutation(state, m)
        if ns.seed is None:
            raise DomainError("--mode mc needs --seed")
        return moment_montecarlo(state, m, ns.shots, ns.seed + m)

    estimates = {m: one(m) for m in sorted(orders)}
    results: dict = {
        "moments": [
            {
                "m": est.m,
                "value": est.value,
                "method": est.method,
                "shots": est.shots,
                "std_error": est.std_error,
            }
            for est in estimates.values()
        ]
    }
    if ns.assume_dps:
        try:
            p, resolved = dps_p_from_moments(
                estimates[2].value, estimates[3].value, state.dim, tol=ns.recovery_tol
            )
            results["recovered"] = {"p": p, "sign_resolved": resolved}
        except DomainError as exc:
            results["recovered"] = {"p": None, "reason": str(exc)}
    report = {
        "command": "moments",
        "inputs": {"state": _state_input(ns.state, digest)},
        "parameters": {
            "m": sorted(orders),
            "mode": ns.mode,
            "shots": ns.shots if ns.mode == "mc" else 0,
            "assume_dps": bool(ns.assume_dps),
        },
        "tolerances": {"recovery_tol": ns.recovery_tol},
        "results": results,
    }
    if ns.mode == "mc":
        report["seed"] = ns.seed
    return _report(report)


def cmd_fig1(ns) -> int:
    D = ns.dim
    if D < 2:
        raise DomainError("--dim must be >= 2")
    if ns.grid < 2:
        raise DomainError("--grid must be >= 2")
    p = np.linspace(p_min_cp(D), 1.0, ns.grid)
    f = np.linspace(0.0, 1.0, ns.grid)
    # pure_overlap of e0 and sqrt(f) e0 + sqrt(1-f) e1 is sqrt(f)^2, not f
    amp = np.sqrt(f)
    rep = distance_arrays(D, p[:, None], p[:, None], amp * amp)
    cols = (rep.bures, rep.trace_distance, np.sqrt(np.maximum(1.0 - rep.fidelity, 0.0)))
    if not all(np.isfinite(c).all() for c in cols):
        raise InternalCheckError("non-finite value reached the report serializer")
    f_txt = [_f17(x) for x in f]
    bures, dist, gap = (c.tolist() for c in cols)
    lines = ["p,f,bures,trace_distance,sqrt_one_minus_F"]
    for i, p_txt in enumerate(_f17(x) for x in p):
        lines.extend(
            f"{p_txt},{ft},{b:.17g},{t:.17g},{s:.17g}"
            for ft, b, t, s in zip(f_txt, bures[i], dist[i], gap[i])
        )
    _emit("\n".join(lines) + "\n", ns.out)
    return 0


def cmd_gen(ns) -> int:
    if ns.kind == "dps":
        if ns.p is None or ns.seed is None:
            raise DomainError("gen dps needs --p and --seed")
        rng = np.random.default_rng(ns.seed)
        psi = haar_state(ns.dim, rng)
        state = make_dps(psi, ns.p).to_matrix()
        doc = state_document(state)
        meta = {"kind": "dps", "dim": ns.dim, "p": ns.p, "seed": ns.seed}
    elif ns.kind == "haar-pure":
        if ns.seed is None:
            raise DomainError("gen haar-pure needs --seed")
        rng = np.random.default_rng(ns.seed)
        psi = haar_state(ns.dim, rng)
        state = make_dps(psi, 1.0).to_matrix()
        doc = state_document(state)
        meta = {"kind": "haar-pure", "dim": ns.dim, "seed": ns.seed}
    else:
        if ns.F is None:
            raise DomainError("gen isotropic needs --F")
        dps, _ = isotropic(ns.da, ns.F)
        doc = state_document(dps.to_matrix(), dims=[ns.da, ns.da])
        meta = {"kind": "isotropic", "da": ns.da, "F": ns.F, "p": dps.p}
    text = render_json(doc)
    if ns.out:
        _emit(text, ns.out)
        report = {"command": "gen", "parameters": meta, "results": {"out": ns.out}}
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dps",
        description="Analyze depolarized pure states: identification, distances, "
        "entanglement, physical depolarization protocols, trace moments.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_an = sub.add_parser("analyze", help="coherence vector, invariants, DPS verdict")
    p_an.add_argument("state")
    p_an.add_argument("--tol-star", type=float, default=1e-8)
    p_an.add_argument("--tol-spectrum", type=float, default=1e-8)
    p_an.set_defaults(func=cmd_analyze)

    p_di = sub.add_parser("distance", help="fidelity / trace distance / Bures between two states")
    p_di.add_argument("state_a")
    p_di.add_argument("state_b")
    p_di.add_argument("--method", choices=("closed", "oracle", "both"), default="both")
    p_di.set_defaults(func=cmd_distance)

    p_sc = sub.add_parser("schmidt", help="Schmidt form and marginal spectra of a bipartite DPS")
    p_sc.add_argument("state")
    p_sc.add_argument("--dims", type=int, nargs=2, metavar=("DA", "DB"))
    p_sc.add_argument("--p-tol", type=float, default=1e-8)
    p_sc.set_defaults(func=cmd_schmidt)

    p_en = sub.add_parser("entanglement", help="partial-transpose spectrum and negativity")
    p_en.add_argument("state")
    p_en.add_argument("--dims", type=int, nargs=2, metavar=("DA", "DB"))
    p_en.add_argument("--neg-tol", type=float, default=1e-9)
    p_en.set_defaults(func=cmd_entanglement)

    p_we = sub.add_parser("werner2q", help="two-qubit canonical family (p, omega)")
    p_we.add_argument("--p", type=float, required=True)
    p_we.add_argument("--omega", type=float, required=True)
    p_we.add_argument("--out")
    p_we.set_defaults(func=cmd_werner2q)

    p_is = sub.add_parser("isotropic", help="isotropic state as a DPS; separability verdict")
    p_is.add_argument("--da", type=int, required=True)
    p_is.add_argument("--F", type=float, required=True)
    p_is.add_argument("--out")
    p_is.set_defaults(func=cmd_isotropic)

    p_ch = sub.add_parser("channel", help="depolarization maps and protocols")
    ch_sub = p_ch.add_subparsers(dest="channel_cmd", required=True)

    c_de = ch_sub.add_parser("depolarize", help="apply (1-p) 1/D + p rho")
    c_de.add_argument("state")
    c_de.add_argument("--p", type=float, required=True)
    c_de.add_argument("--require-cp", action="store_true")
    c_de.add_argument("--out")
    c_de.set_defaults(func=cmd_channel_depolarize)

    c_p1 = ch_sub.add_parser("protocol1", help="ancilla-protocol simulation on a pure state")
    c_p1.add_argument("state")
    c_p1.add_argument("--beta2", type=float, required=True)
    c_p1.add_argument("--out")
    c_p1.set_defaults(func=cmd_channel_protocol1)

    c_tw = ch_sub.add_parser("twirl", help="average a channel into a depolarizing one")
    c_tw.add_argument("channel")
    c_tw.add_argument("--mode", choices=("exact-clifford", "haar-sample"), default="exact-clifford")
    c_tw.add_argument("--samples", type=int, default=0)
    c_tw.add_argument("--seed", type=int)
    c_tw.add_argument("--exclude-identity", action="store_true")
    c_tw.add_argument("--out")
    c_tw.set_defaults(func=cmd_channel_twirl)

    c_re = ch_sub.add_parser("recipe", help="Monte-Carlo PDPS from conjugated two-outcome maps")
    c_re.add_argument("state")
    c_re.add_argument("--f", type=float, required=True)
    c_re.add_argument("--seed", type=int, required=True)
    c_re.add_argument("--trials", type=int, required=True)
    c_re.add_argument("--out")
    c_re.set_defaults(func=cmd_channel_recipe)

    c_lo = ch_sub.add_parser("local", help="independent depolarization of each subsystem")
    c_lo.add_argument("state")
    c_lo.add_argument("--dims", type=int, nargs=2, metavar=("DA", "DB"))
    c_lo.add_argument("--pa", type=float, required=True)
    c_lo.add_argument("--pb", type=float, required=True)
    c_lo.add_argument("--out")
    c_lo.set_defaults(func=cmd_channel_local)

    p_mo = sub.add_parser("moments", help="Tr(rho^m) exactly, by permutation operator, or Monte Carlo")
    p_mo.add_argument("state")
    p_mo.add_argument("--m", type=int, nargs="+", default=[2, 3])
    p_mo.add_argument("--mode", choices=("exact", "perm", "mc"), default="exact")
    p_mo.add_argument("--shots", type=int, default=100000)
    p_mo.add_argument("--seed", type=int)
    p_mo.add_argument("--assume-dps", action="store_true")
    p_mo.add_argument("--recovery-tol", type=float, default=1e-8)
    p_mo.set_defaults(func=cmd_moments)

    p_f1 = sub.add_parser("fig1", help="CSV distance surfaces over (p, f)")
    p_f1.add_argument("--dim", type=int, default=9)
    p_f1.add_argument("--grid", type=int, default=50)
    p_f1.add_argument("--out")
    p_f1.set_defaults(func=cmd_fig1)

    p_ge = sub.add_parser("gen", help="write state files: dps | isotropic | haar-pure")
    p_ge.add_argument("kind", choices=("dps", "isotropic", "haar-pure"))
    p_ge.add_argument("--dim", type=int, default=3)
    p_ge.add_argument("--p", type=float)
    p_ge.add_argument("--da", type=int, default=2)
    p_ge.add_argument("--F", type=float)
    p_ge.add_argument("--seed", type=int)
    p_ge.add_argument("--out")
    p_ge.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        for name, value in vars(ns).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"--{name.replace('_', '-')} must be finite, got {value}")
        return ns.func(ns)
    except CliInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
