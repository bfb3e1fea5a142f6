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
from dataclasses import dataclass

import numpy as np

from .bipartite import (
    NEG_TOL,
    P_TOL,
    isotropic,
    negativity,
    pair_threshold,
    reduced_spectrum_dps,
    schmidt_dps,
    two_qubit_canonical,
)
from .bloch import SPECTRUM_TOL, STAR_TOL, dps_test, measure_dps
from .channels import (
    KrausChannel,
    apply_depolarizing,
    chi_from_beta2,
    haar_state,
    jamiolkowski_fidelity,
    jamiolkowski_state,
    local_depolarize,
    p_from_overlap,
    pdps_recipe,
    protocol1,
    twirl,
    twirl_p,
)
from .errors import DomainError, InternalCheckError, NotDPSError
from .linalg import DensityMatrix, partial_trace
from .metrics import (
    DpsState,
    _array_measures,
    bures_from_fidelity,
    distance_report,
    fidelity_oracle,
    make_dps,
    p_min_cp,
    pure_overlap,
    trace_distance_oracle,
)
from .moments import (
    RECOVERY_TOL,
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


def _emit(chunks, path: str | None) -> None:
    """Write the strings of ``chunks`` in turn to ``path``, or to stdout when it is None or "-"."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(chunks)


_NO_SEED = object()


@dataclass
class Report:
    """What one report command computed; :func:`_publish` adds the envelope.

    ``state``, with its bipartition ``dims``, is what ``--out`` writes.
    ``seed`` stays ``_NO_SEED`` for a report without a "seed" key.
    """

    results: dict
    parameters: dict | None = None
    seed: object = _NO_SEED
    state: DensityMatrix | None = None
    dims: list | None = None


def _is_tolerance(dest: str) -> bool:
    return "tol" in dest.split("_")


def _publish(ns, rep: Report) -> None:
    """Write ``rep.state`` to ``--out`` if given, then print the report.

    Keys, in order: "command" (the subcommand path); "inputs" (each file
    that load_state / load_channel read; absent for gen, which reads
    none); "parameters" and "seed" when the command returns them;
    "tolerances" (every flag whose dest has the word "tol") when there
    are any; "results".
    """
    command = " ".join(filter(None, (ns.subcommand, getattr(ns, "channel_cmd", None))))
    report: dict = {"command": command}
    if ns.inputs is not None:
        report["inputs"] = ns.inputs
    if rep.parameters is not None:
        report["parameters"] = rep.parameters
    tolerances = {dest: value for dest, value in vars(ns).items() if _is_tolerance(dest)}
    if tolerances:
        report["tolerances"] = tolerances
    if rep.seed is not _NO_SEED:
        report["seed"] = rep.seed
    out = getattr(ns, "out", None)
    if out:
        _emit([render_json(state_document(rep.state, dims=rep.dims))], out)
        rep.results["out"] = out
    report["results"] = rep.results
    sys.stdout.write(render_json(report))


# ---------------------------------------------------------------------------
# state / channel file handling


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


def _read_doc(ns, arg: str, kind: str, key: str) -> tuple[dict, int, str]:
    """(document, dim, path) of the JSON object named by ``ns.<arg>``, or CliInputError.

    The document needs "dim" >= 2 and ``key``; the file's path and
    sha256 go into ``ns.inputs[arg]`` for the report envelope.
    """
    path = getattr(ns, arg)
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
    ns.inputs[arg] = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
    return doc, dim, path


def load_state(ns, arg: str = "state") -> tuple[DensityMatrix, list | None]:
    """Parse the StateFile named by ``ns.<arg>``; returns (state, dims-or-None).

    Raises:
        CliInputError: schema or invariant violations, with the violated
            check and its residual in the message.
    """
    doc, dim, path = _read_doc(ns, arg, "state", "matrix")
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
    return state, dims


def load_channel(ns, arg: str = "channel") -> KrausChannel:
    """Parse the channel file {"dim": D, "kraus": [matrix, ...]} named by ``ns.<arg>``.

    Raises:
        CliInputError.
    """
    doc, dim, path = _read_doc(ns, arg, "channel", "kraus")
    if not isinstance(doc["kraus"], list) or not doc["kraus"]:
        raise CliInputError(f'{path}: "kraus" must be a nonempty list of matrices')
    ops = [_parse_matrix(entry, dim, path) for entry in doc["kraus"]]
    try:
        ch = KrausChannel(dim=dim, kraus=ops)
    except DomainError as exc:
        raise CliInputError(f"{path}: {exc}")
    return ch


def state_document(state: DensityMatrix, dims: list | None = None) -> dict:
    doc: dict = {"dim": state.dim}
    if dims is not None:
        doc["dims"] = [int(dims[0]), int(dims[1])]
    doc["matrix"] = _matrix_to_pairs(state.matrix)
    return doc


def _pure_vector(state: DensityMatrix, what: str) -> np.ndarray:
    """Extract |psi> from a pure-state density matrix, or exit 3.

    The state must pass the DPS test, which checks positivity, and have
    its largest eigenvalue within 1e-10 of 1.
    """
    m = measure_dps(state)
    low, top = float(m.eigenvalues[0]), float(m.eigenvalues[-1])
    if m.verdict() is None or abs(top - 1.0) > 1e-10:
        raise DomainError(
            f"{what} requires a pure state; eigenvalues span [{low:.15g}, {top:.15g}], not {{0, 1}}"
        )
    return m.purification


def _as_dps(state: DensityMatrix, what: str) -> DpsState:
    """Identify a DPS and rebuild its (p, purification) pair, or exit 3."""
    m = measure_dps(state)
    p = m.verdict()
    if p is None:
        raise NotDPSError(f"{what}: input is not a depolarized pure state within tolerance")
    return make_dps(m.purification, p)


def _refuse_unread(ns, what: str, flags) -> None:
    """Exit 3 if any of ``flags``, which ``what`` does not read, was given."""
    for name in sorted(flags):
        if getattr(ns, name) is not None:
            raise DomainError(f"{what} does not read --{name}")


# A written state is a dense matrix in JSON text.  Peak RSS, measured with
# fork and wait4: the complex (dim, dim) matrix of gen dps / haar-pure takes
# about 36 MB + 0.37 KB * dim^2 (171 MB at dim = 600, 536-578 MB at 1200,
# 1 GB near 1600); the real, mostly zero (da^2, da^2) isotropic matrix about
# 34 MB + 214 B * da^4 (208 MB at da = 30, 551 MB at 40, 1 GB at 46).
MAX_WRITE_DIM = 1200
MAX_WRITE_DA = 40


def _refuse_large_write(flag: str, value: int, limit: int) -> None:
    """Exit 3 before building a state matrix too large to write: ``--flag value`` above ``limit``."""
    if value > limit:
        raise DomainError(
            f"writing the state builds its dense matrix; --{flag} must be <= {limit}, got {value}"
        )


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


def cmd_analyze(ns) -> Report:
    state, _ = load_state(ns)
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
    return Report(results)


def cmd_distance(ns) -> Report:
    a, _ = load_state(ns, "state_a")
    b, _ = load_state(ns, "state_b")
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
        bures, angle = bures_from_fidelity(F)
        results["oracle"] = {
            "fidelity": F,
            "trace_distance": trace_distance_oracle(a, b),
            "bures": bures,
            "angle": angle,
        }
    if ns.method == "both":
        results["delta"] = {
            k: abs(results["closed"][k] - results["oracle"][k]) for k in ("fidelity", "trace_distance")
        }
    return Report(results, {"method": ns.method})


def cmd_schmidt(ns) -> Report:
    state, dims_file = load_state(ns)
    dA, dB = _require_dims(ns.dims, dims_file, state.dim)
    p, form = schmidt_dps(state, dA, dB, p_tol=ns.p_tol)
    specA_closed = reduced_spectrum_dps(p, form.b, dA)
    specB_closed = reduced_spectrum_dps(p, form.b, dB)
    specA = np.linalg.eigvalsh(partial_trace(state.matrix, dA, dB, keep="A"))
    specB = np.linalg.eigvalsh(partial_trace(state.matrix, dA, dB, keep="B"))
    results = {
        "p": p,
        "schmidt_coefficients": form.b,
        "marginal_spectrum_a": specA,
        "marginal_spectrum_b": specB,
        "closed_form_deviation_a": float(np.max(np.abs(specA - specA_closed))),
        "closed_form_deviation_b": float(np.max(np.abs(specB - specB_closed))),
    }
    return Report(results, {"dims": [dA, dB]})


def cmd_entanglement(ns) -> Report:
    state, dims_file = load_state(ns)
    dA, dB = _require_dims(ns.dims, dims_file, state.dim)
    p, form = schmidt_dps(state, dA, dB)
    rep = negativity(p, form.b[:dA], dA, dB, neg_tol=ns.neg_tol)
    pair = pair_threshold(form.b[:dA], dA, dB)
    results = {
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
    }
    return Report(results, {"dims": [dA, dB]})


def cmd_werner2q(ns) -> Report:
    state, mu = two_qubit_canonical(ns.p, ns.omega)
    sin_threshold = (1.0 - ns.p) / (2.0 * ns.p) if ns.p > 1.0 / 3.0 else None
    results = {
        "pt_eigenvalues": list(mu),
        "entangled": mu[3] < -NEG_TOL,
        "sin_omega_threshold": sin_threshold,
    }
    return Report(results, {"p": ns.p, "omega": ns.omega}, state=state, dims=[2, 2])


def cmd_isotropic(ns) -> Report:
    if ns.out:
        _refuse_large_write("da", ns.da, MAX_WRITE_DA)
    dps, separable = isotropic(ns.da, ns.F)
    b = np.full(ns.da, 1.0 / math.sqrt(ns.da))
    rep = negativity(dps.p, b, ns.da, ns.da)
    results = {
        "p": dps.p,
        "separable": separable,
        "negativity": rep.negativity,
        "entangled": rep.entangled,
        "threshold_p": 1.0 / (ns.da + 1.0),
    }
    # the (da^2, da^2) matrix is built only for --out; the report needs closed forms alone
    state = dps.to_matrix() if ns.out else None
    return Report(results, {"da": ns.da, "F": ns.F}, state=state, dims=[ns.da, ns.da])


def cmd_channel_depolarize(ns) -> Report:
    state, dims = load_state(ns)
    result = apply_depolarizing(state, ns.p)
    if ns.require_cp and not result.physically_realizable:
        raise DomainError(
            f"p={ns.p:.15g} is below the CP bound {p_min_cp(state.dim):.15g}; "
            "no physical map realizes it (--require-cp)"
        )
    results = {
        "physically_realizable": result.physically_realizable,
        "purity": result.state.purity(),
    }
    return Report(results, {"p": ns.p, "require_cp": bool(ns.require_cp)}, state=result.state, dims=dims)


def cmd_channel_protocol1(ns) -> Report:
    state, _ = load_state(ns)
    psi = _pure_vector(state, "protocol1")
    chi = chi_from_beta2(state.dim, ns.beta2)
    out = protocol1(psi, chi)
    # residual (1-b2) rho + (b2/D) 1 is the depolarizing map at p = 1 - b2
    p_equiv = 1.0 - ns.beta2
    formula = apply_depolarizing(state, p_equiv)
    delta = trace_distance_oracle(out, formula.state)
    results = {
        "alpha": float(chi.alpha.real),
        "p_equivalent": p_equiv,
        "formula_delta": delta,
    }
    return Report(results, {"beta2": ns.beta2}, state=out)


def cmd_channel_twirl(ns) -> Report:
    ch = load_channel(ns)
    result = twirl(
        ch,
        mode=ns.mode,
        samples=ns.samples,
        seed=ns.seed,
        exclude_identity=ns.exclude_identity,
    )
    f = jamiolkowski_fidelity(ch)
    results = {
        "f": f,
        "p_hat": result.p_hat,
        "p_exact": twirl_p(ch.dim, f),
        "depolarizing_deviation": result.depolarizing_deviation,
    }
    parameters = {
        "mode": ns.mode,
        "samples": ns.samples,
        "exclude_identity": bool(ns.exclude_identity),
    }
    choi = jamiolkowski_state(result.channel) if ns.out else None
    return Report(results, parameters, seed=ns.seed, state=choi, dims=[ch.dim, ch.dim])


def cmd_channel_recipe(ns) -> Report:
    state, _ = load_state(ns)
    psi = _pure_vector(state, "recipe")
    out = pdps_recipe(psi, ns.f, ns.seed, ns.trials)
    D = state.dim
    p_hat = p_from_overlap(D, float(np.real(np.vdot(psi, out.matrix @ psi))))
    results = {"p_target": twirl_p(D, ns.f), "p_hat": p_hat}
    return Report(results, {"f": ns.f, "trials": ns.trials}, seed=ns.seed, state=out)


def cmd_channel_local(ns) -> Report:
    state, dims_file = load_state(ns)
    dA, dB = _require_dims(ns.dims, dims_file, state.dim)
    out = local_depolarize(state, dA, dB, ns.pa, ns.pb)
    p = dps_test(out)
    results = {
        "dps_verdict": "DPS" if p is not None else "NOT_DPS",
        "p": p,
    }
    return Report(results, {"dims": [dA, dB], "pa": ns.pa, "pb": ns.pb}, state=out, dims=[dA, dB])


def cmd_moments(ns) -> Report:
    state, _ = load_state(ns)
    if ns.mode == "mc":
        shots = 100000 if ns.shots is None else ns.shots
    else:
        _refuse_unread(ns, f"moments --mode {ns.mode}", ("seed", "shots"))
        shots = 0
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
        return moment_montecarlo(state, m, shots, ns.seed + m)

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
    parameters = {
        "m": sorted(orders),
        "mode": ns.mode,
        "shots": shots,
        "assume_dps": bool(ns.assume_dps),
    }
    return Report(results, parameters, seed=ns.seed if ns.mode == "mc" else _NO_SEED)


# fig1 evaluates its (p, f) grid in blocks of whole p rows, about this many
# points each, so its working set does not grow with --grid
FIG1_BLOCK_POINTS = 32768


def cmd_fig1(ns) -> None:
    D = ns.dim
    if D < 2:
        raise DomainError("--dim must be >= 2")
    if ns.grid < 2:
        raise DomainError("--grid must be >= 2")
    p = np.linspace(p_min_cp(D), 1.0, ns.grid)
    f = np.linspace(0.0, 1.0, ns.grid)
    # pure_overlap of e0 and sqrt(f) e0 + sqrt(1-f) e1 is sqrt(f)^2, not f
    amp = np.sqrt(f)
    overlap = amp * amp
    rows = max(1, FIG1_BLOCK_POINTS // ns.grid)
    starts = range(0, ns.grid, rows)

    def block(i: int):
        """Bures, trace distance and sqrt(1-F) over p rows i to i + rows."""
        pb = p[i : i + rows, None]
        F, dist, bures = _array_measures(D, pb, pb, overlap)  # the angle is never printed
        cols = (bures, dist, np.sqrt(np.maximum(1.0 - F, 0.0)))
        if not all(np.isfinite(c).all() for c in cols):
            raise InternalCheckError("non-finite value reached the report serializer")
        return cols

    # nothing is written unless every point passes: a check pass, then an emit pass
    for i in starts:
        block(i)
    p_txt = [_f17(x) for x in p]
    f_txt = [_f17(x) for x in f]

    def csv():
        yield "p,f,bures,trace_distance,sqrt_one_minus_F\n"
        for i in starts:
            for pt, *cols in zip(p_txt[i : i + rows], *(c.tolist() for c in block(i))):
                row = pt + ",%s,%.17g,%.17g,%.17g\n"  # pt, a formatted float, holds no "%"
                yield "".join([row % point for point in zip(f_txt, *cols)])

    _emit(csv(), ns.out)


def cmd_gen(ns) -> Report | None:
    reads = {"dps": {"dim", "p", "seed"}, "haar-pure": {"dim", "seed"}, "isotropic": {"da", "F"}}[ns.kind]
    _refuse_unread(ns, f"gen {ns.kind}", {"dim", "p", "da", "F", "seed"} - reads)
    dim = 3 if ns.dim is None else ns.dim
    if ns.kind != "isotropic":
        _refuse_large_write("dim", dim, MAX_WRITE_DIM)
    dims = None
    if ns.kind == "dps":
        if ns.p is None or ns.seed is None:
            raise DomainError("gen dps needs --p and --seed")
        rng = np.random.default_rng(ns.seed)
        psi = haar_state(dim, rng)
        state = make_dps(psi, ns.p).to_matrix()
        meta = {"kind": "dps", "dim": dim, "p": ns.p, "seed": ns.seed}
    elif ns.kind == "haar-pure":
        if ns.seed is None:
            raise DomainError("gen haar-pure needs --seed")
        rng = np.random.default_rng(ns.seed)
        psi = haar_state(dim, rng)
        state = make_dps(psi, 1.0).to_matrix()
        meta = {"kind": "haar-pure", "dim": dim, "seed": ns.seed}
    else:
        if ns.F is None:
            raise DomainError("gen isotropic needs --F")
        da = 2 if ns.da is None else ns.da
        _refuse_large_write("da", da, MAX_WRITE_DA)
        dps, _ = isotropic(da, ns.F)
        state, dims = dps.to_matrix(), [da, da]
        meta = {"kind": "isotropic", "da": da, "F": ns.F, "p": dps.p}
    if not ns.out:
        sys.stdout.write(render_json(state_document(state, dims=dims)))
        return None
    return Report({}, meta, state=state, dims=dims)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dps",
        description="Analyze depolarized pure states: identification, distances, "
        "entanglement, physical depolarization protocols, trace moments.",
    )
    # load_state / load_channel record each file they read here
    parser.set_defaults(inputs={})
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_an = sub.add_parser("analyze", help="coherence vector, invariants, DPS verdict")
    p_an.add_argument("state")
    p_an.add_argument("--tol-star", type=float, default=STAR_TOL)
    p_an.add_argument("--tol-spectrum", type=float, default=SPECTRUM_TOL)
    p_an.set_defaults(func=cmd_analyze)

    p_di = sub.add_parser("distance", help="fidelity / trace distance / Bures between two states")
    p_di.add_argument("state_a")
    p_di.add_argument("state_b")
    p_di.add_argument("--method", choices=("closed", "oracle", "both"), default="both")
    p_di.set_defaults(func=cmd_distance)

    p_sc = sub.add_parser("schmidt", help="Schmidt form and marginal spectra of a bipartite DPS")
    p_sc.add_argument("state")
    p_sc.add_argument("--dims", type=int, nargs=2, metavar=("DA", "DB"))
    p_sc.add_argument("--p-tol", type=float, default=P_TOL)
    p_sc.set_defaults(func=cmd_schmidt)

    p_en = sub.add_parser("entanglement", help="partial-transpose spectrum and negativity")
    p_en.add_argument("state")
    p_en.add_argument("--dims", type=int, nargs=2, metavar=("DA", "DB"))
    p_en.add_argument("--neg-tol", type=float, default=NEG_TOL)
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
    p_mo.add_argument("--shots", type=int)
    p_mo.add_argument("--seed", type=int)
    p_mo.add_argument("--assume-dps", action="store_true")
    p_mo.add_argument("--recovery-tol", type=float, default=RECOVERY_TOL)
    p_mo.set_defaults(func=cmd_moments)

    p_f1 = sub.add_parser("fig1", help="CSV distance surfaces over (p, f)")
    p_f1.add_argument("--dim", type=int, default=9)
    p_f1.add_argument("--grid", type=int, default=50)
    p_f1.add_argument("--out")
    p_f1.set_defaults(func=cmd_fig1)

    p_ge = sub.add_parser("gen", help="write state files: dps | isotropic | haar-pure")
    p_ge.add_argument("kind", choices=("dps", "isotropic", "haar-pure"))
    p_ge.add_argument("--dim", type=int)
    p_ge.add_argument("--p", type=float)
    p_ge.add_argument("--da", type=int)
    p_ge.add_argument("--F", type=float)
    p_ge.add_argument("--seed", type=int)
    p_ge.add_argument("--out")
    # gen reads no file, and its report has no "inputs" key
    p_ge.set_defaults(func=cmd_gen, inputs=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        for name, value in vars(ns).items():
            flag = "--" + name.replace("_", "-")
            if isinstance(value, float) and not math.isfinite(value):
                raise DomainError(f"{flag} must be finite, got {value}")
            if (name == "seed" or _is_tolerance(name)) and value is not None and value < 0:
                raise DomainError(f"{flag} must be >= 0, got {value}")
        rep = ns.func(ns)
        if rep is not None:
            _publish(ns, rep)
        return 0
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
