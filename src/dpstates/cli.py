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
from itertools import chain, repeat
from typing import Iterator, NamedTuple

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
    CLIFFORD_TWIRL_MAX_DIM,
    KrausChannel,
    apply_depolarizing,
    chi_from_beta2,
    haar_state,
    jamiolkowski_fidelity,
    local_depolarize,
    p_from_overlap,
    pdps_recipe,
    protocol1,
    twirl,
    twirl_p,
)
from .errors import DomainError, InternalCheckError
from .linalg import DensityMatrix, _require_count, _require_tolerance, _seeded_rng, partial_trace
from .metrics import (
    DistanceReport,
    _array_measures,
    _dps_levels,
    _dps_spectrum,
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


def _render(obj, ind: int) -> Iterator:
    """The JSON text of ``obj`` as strings and, for each complex matrix, one checked stream of its rows."""
    pad = "  " * ind
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "c" and obj.ndim == 2 and obj.size:
            yield _render_complex_matrix(obj, ind)
            return
        obj = obj.tolist()
    if obj is None:
        yield "null"
    elif isinstance(obj, bool):
        yield "true" if obj else "false"
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, float):
        yield _f17(obj)
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, (dict, list, tuple)) and not obj:
        yield "{}" if isinstance(obj, dict) else "[]"
    elif isinstance(obj, dict):
        for n, (k, v) in enumerate(obj.items()):
            yield (",\n" if n else "{\n") + f"{pad}  {json.dumps(str(k))}: "
            yield from _render(v, ind + 1)
        yield f"\n{pad}}}"
    elif isinstance(obj, (list, tuple)) and all(_is_scalar(v) for v in obj):
        yield "[" + ", ".join(next(_render(v, 0)) for v in obj) + "]"
    elif isinstance(obj, (list, tuple)):
        for n, v in enumerate(obj):
            yield (",\n" if n else "[\n") + f"{pad}  "
            yield from _render(v, ind + 1)
        yield f"\n{pad}]"
    else:
        raise InternalCheckError(f"unserializable value of type {type(obj).__name__}")


def _render_complex_matrix(M: np.ndarray, ind: int) -> Iterator[str]:
    """M as rows of [re, im] pairs, laid out as ``_render`` lays out those nested lists.

    Checked finite at the call, then formatted one matrix row per chunk
    as the stream is read.  Each row is one %-format of its interleaved
    real and imaginary parts ("%.17g" is ``_f17``'s format), so a state
    file of D^2 entries costs its float formatting, not D^2 nested lists.
    """
    if not np.isfinite(M).all():
        raise InternalCheckError("non-finite value reached the report serializer")
    pad = "  " * ind
    row = f",\n{pad}    ".join(["[%.17g, %.17g]"] * M.shape[1])
    parts = np.ascontiguousarray(M, dtype=complex).view(float)
    heads = chain([f"[\n{pad}  [\n{pad}    "], repeat(f"\n{pad}  ],\n{pad}  [\n{pad}    "))
    return chain((head + row % tuple(r.tolist()) for head, r in zip(heads, parts)), [f"\n{pad}  ]\n{pad}]"])


def render_json(obj) -> Iterator[str]:
    """The JSON text of ``obj`` and a newline, as chunks for ``_emit``; every check runs in this call."""
    return chain.from_iterable([c] if isinstance(c, str) else c for c in [*_render(obj, 0), "\n"])


def _emit(chunks, path: str | None) -> None:
    """Write the strings of ``chunks`` in turn to ``path``, or to stdout when it is None.

    Raises:
        CliInputError: ``path`` cannot be opened or written.
    """
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise CliInputError(f"cannot write --out file {path}: {exc}")


_NO_SEED = object()


class Report(NamedTuple):
    """What one report command computed; :func:`_publish` adds the envelope.

    ``state``, with its bipartition ``dims``, is what ``--out`` writes.
    ``seed`` stays ``_NO_SEED`` for a report without a "seed" key.
    """

    results: dict
    parameters: dict | None = None
    seed: object = _NO_SEED
    state: DensityMatrix | None = None
    dims: list | None = None


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
    tolerances = {dest: value for dest, value in vars(ns).items() if "tol" in dest.split("_")}
    if tolerances:
        report["tolerances"] = tolerances
    if rep.seed is not _NO_SEED:
        report["seed"] = rep.seed
    out = getattr(ns, "out", None)
    if out:
        _emit(render_json(state_document(rep.state, dims=rep.dims)), out)
        rep.results["out"] = out
    report["results"] = rep.results
    _emit(render_json(report), None)


# ---------------------------------------------------------------------------
# state / channel file handling


def _parse_matrix(entry, dim: int, what: str) -> np.ndarray:
    try:
        arr = np.asarray(entry)
    except ValueError as exc:  # ragged nesting
        raise CliInputError(f"{what}: matrix entries must be [re, im] number pairs: {exc}")
    # strings and booleans are no numbers, and an integer beyond 64 bits makes the dtype object
    if arr.dtype.kind not in "iuf":
        raise CliInputError(f"{what}: matrix entries must be [re, im] number pairs, not {arr.dtype} entries")
    if arr.shape != (dim, dim, 2):
        raise CliInputError(f"{what}: expected shape ({dim}, {dim}, 2) of [re, im] pairs, got {arr.shape}")
    return arr[..., 0] + 1.0j * arr[..., 1]


def _holds_bool(obj) -> bool:
    """True when a JSON boolean sits anywhere in ``obj`` or in the lists nested in it."""
    stack = [obj]
    while stack:
        v = stack.pop()
        if isinstance(v, bool):
            return True
        if isinstance(v, list):
            stack.extend(v)
    return False


def _read_doc(ns, arg: str, kind: str, key: str) -> tuple[dict, int, str]:
    """(document, dim, path) of the JSON object named by ``ns.<arg>``, or CliInputError.

    The document needs "dim" >= 2 and ``key``, and no JSON boolean in
    ``key``; the file's path and sha256 go into ``ns.inputs[arg]`` for
    the report envelope.
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
    # beside numbers np.asarray reads a boolean as 0 or 1, past _parse_matrix's dtype check.
    # Only a file that may hold one pays for the walk: every "false" has an "l", which no
    # number or schema key has, and every "true" a "u" beyond those of the key's name.
    # One-byte searches run at memchr speed, about 10x a search for b"true" or b"false".
    if (b"l" in raw or raw.count(b"u") > key.count("u")) and _holds_bool(doc[key]):
        raise CliInputError(f'{path}: "{key}" entries must be numbers, not JSON booleans')
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
    doc["matrix"] = state.matrix
    return doc


def _pure_vector(state: DensityMatrix, what: str) -> np.ndarray:
    """Extract |psi> from a pure-state density matrix, or exit 3.

    The state must be a DPS (:meth:`DpsMeasurement.state`, whose
    certificate bounds every eigenvalue), and its top eigenvalue
    (1 + (D-1)p)/D must lie within 1e-10 of 1.  That bound is absolute
    because unit trace fixes the scale of the eigenvalues.
    """
    dps = measure_dps(state).state()
    top = _dps_levels(state.dim, dps.p)[1]
    if abs(top - 1.0) > 1e-10:
        raise DomainError(f"{what} requires a pure state; its top eigenvalue is {top:.15g}, not 1")
    return dps.pure


def _refuse_unread(ns, what: str, flags) -> None:
    """Exit 3 if any of ``flags``, which ``what`` does not read, was given."""
    for name in sorted(flags):
        if getattr(ns, name) is not None:
            raise DomainError(f"{what} does not read --{name}")


# A written state is a dense matrix in JSON text, written row by row.  Peak RSS,
# measured with fork and wait4: gen dps / haar-pure take about 35 MB + 78 B *
# dim^2, nearly all of it building the state (63 MB at dim = 600, 147 MB at 1200,
# where rendering peaks at 1.4 MB in tracemalloc); the real, mostly zero (da^2,
# da^2) isotropic matrix 34 MB + 84 B * da^4 (97 MB at da = 30, 250 MB at 40).
MAX_WRITE_DIM = 1200
MAX_WRITE_DA = 40
# The isotropic report builds the da^2-entry purification and its da^2 PT
# eigenvalues: 34 MB + 61 B * da^2, under about 550 MB (513 MB at da = 2800).
# fig1 peaks at 39 MB but writes grid^2 rows of about 100 B at about 2 us each:
# 100 MB in 2.1 s at grid = 1000, 400 MB in 7.7 s at 2000.
MAX_REPORT_DA = 2800
MAX_FIG1_GRID = 2000


def _refuse_large(
    flag: str, value: int, limit: int, why: str = "writing the state builds its dense matrix"
) -> None:
    """Exit 3 before allocating what ``why`` names: ``--flag value`` above ``limit``."""
    if value > limit:
        raise DomainError(f"{why}; --{flag} must be <= {limit}, got {value}")


def _load_bipartite(ns) -> tuple[DensityMatrix, int, int]:
    """(state, dA, dB): :func:`load_state`, split by --dims, else by the file's "dims", else exit 3."""
    state, dims = load_state(ns)
    if ns.dims is not None:
        dims = ns.dims
    if dims is None:
        raise DomainError("subsystem dimensions needed: pass --dims dA dB (or put \"dims\" in the file)")
    return state, int(dims[0]), int(dims[1])


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(ns) -> Report:
    state, _ = load_state(ns)
    D = state.dim
    m = measure_dps(state)
    verdict_p = m.verdict(ns.tol_star, ns.tol_spectrum)
    # report only: the verdict above makes no eigensolve; unit trace fixes the
    # scale, so the eigenvalues need no rescaling, as in DensityMatrix.is_positive
    vals = np.linalg.eigvalsh(state.matrix)
    results: dict = {
        "dim": D,
        "coherence_norm": m.norm,
        "positive": bool(vals[0] >= -ns.tol_spectrum),
        "invariant_ladder": m.ladder(3) if D >= 3 else None,
        "star_residual": m.star_residual,
        "spectrum_deviation": float(np.max(np.abs(vals - _dps_spectrum(D, m.p)))),
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
        da, db = measure_dps(a).state(), measure_dps(b).state()
        results["closed"] = {
            **distance_report(da, db)._asdict(),
            "f": pure_overlap(da, db),
            "p": da.p,
            "q": db.p,
            "fuchs_chain_ok": True,
        }
    if ns.method in ("oracle", "both"):
        F = fidelity_oracle(a, b)
        results["oracle"] = DistanceReport(F, trace_distance_oracle(a, b), *bures_from_fidelity(F))._asdict()
    if ns.method == "both":
        results["delta"] = {
            k: abs(results["closed"][k] - results["oracle"][k]) for k in ("fidelity", "trace_distance")
        }
    return Report(results, {"method": ns.method})


def cmd_schmidt(ns) -> Report:
    state, dA, dB = _load_bipartite(ns)
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
    state, dA, dB = _load_bipartite(ns)
    p, form = schmidt_dps(state, dA, dB)
    rep = negativity(p, form.b, dA, dB, neg_tol=ns.neg_tol)
    pair = pair_threshold(form.b, dA, dB)
    results = {
        "p": p,
        "schmidt_coefficients": form.b,
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
        _refuse_large("da", ns.da, MAX_WRITE_DA)
    _refuse_large("da", ns.da, MAX_REPORT_DA, "the report builds the da^2-entry purification and spectrum")
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
    return Report(results, parameters, seed=ns.seed, state=result.jamiolkowski, dims=[ch.dim, ch.dim])


def cmd_channel_recipe(ns) -> Report:
    state, _ = load_state(ns)
    psi = _pure_vector(state, "recipe")
    out = pdps_recipe(psi, ns.f, ns.seed, ns.trials)
    D = state.dim
    p_hat = p_from_overlap(D, float(np.real(np.vdot(psi, out.matrix @ psi))))
    results = {"p_target": twirl_p(D, ns.f), "p_hat": p_hat}
    return Report(results, {"f": ns.f, "trials": ns.trials}, seed=ns.seed, state=out)


def cmd_channel_local(ns) -> Report:
    state, dA, dB = _load_bipartite(ns)
    out = local_depolarize(state, dA, dB, ns.pa, ns.pb)
    p = dps_test(out)
    results = {
        "dps_verdict": "DPS" if p is not None else "NOT_DPS",
        "p": p,
    }
    return Report(results, {"dims": [dA, dB], "pa": ns.pa, "pb": ns.pb}, state=out, dims=[dA, dB])


def cmd_moments(ns) -> Report:
    state, _ = load_state(ns)
    # the library never sees these two flags as given: --recovery-tol is echoed in the report but
    # read only under --assume-dps, where a DomainError becomes recovered.reason, and order m is
    # seeded with seed + m, which a negative seed can bring to 0
    _require_tolerance(ns.recovery_tol, "--recovery-tol")
    if ns.mode == "mc":
        _require_count(ns.seed, "--seed", 0)
        shots = 100000 if ns.shots is None else ns.shots
    else:
        _refuse_unread(ns, f"moments --mode {ns.mode}", ("seed", "shots"))
        shots = 0
    orders = sorted({*ns.m, *((2, 3) if ns.assume_dps else ())})

    def one(m: int):
        if ns.mode == "exact":
            return moment_exact(state, m)
        if ns.mode == "perm":
            return moment_permutation(state, m)
        return moment_montecarlo(state, m, shots, ns.seed + m)

    estimates = {m: one(m) for m in orders}
    results: dict = {"moments": [est._asdict() for est in estimates.values()]}
    if ns.assume_dps:
        try:
            p, resolved = dps_p_from_moments(
                estimates[2].value, estimates[3].value, state.dim, tol=ns.recovery_tol
            )
            results["recovered"] = {"p": p, "sign_resolved": resolved}
        except DomainError as exc:
            results["recovered"] = {"p": None, "reason": str(exc)}
    parameters = {
        "m": orders,
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
    _require_count(ns.grid, "--grid", 2)
    _refuse_large("grid", ns.grid, MAX_FIG1_GRID, "fig1 writes grid^2 rows")
    p = np.linspace(p_min_cp(D), 1.0, ns.grid)
    f = np.linspace(0.0, 1.0, ns.grid)
    # the surfaces are at overlap sqrt(f)^2, |<e0|phi>|^2 for phi = sqrt(f) e0 + sqrt(1-f) e1
    amp = np.sqrt(f)
    overlap = amp * amp
    rows = max(1, FIG1_BLOCK_POINTS // ns.grid)
    starts = range(0, ns.grid, rows)

    def block(i: int):
        """Bures, trace distance and sqrt(1-F) over p rows i to i + rows."""
        pb = p[i : i + rows, None]
        F, dist, bures = _array_measures(D, pb, pb, overlap)  # the angle is never printed
        return bures, dist, np.sqrt(np.maximum(1.0 - F, 0.0))

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
    dims = None
    if ns.kind == "isotropic":
        _refuse_large("da", ns.da, MAX_WRITE_DA)
        dps, _ = isotropic(ns.da, ns.F)
        state, dims = dps.to_matrix(), [ns.da, ns.da]
        meta = {"kind": ns.kind, "da": ns.da, "F": ns.F, "p": dps.p}
    else:
        _refuse_large("dim", ns.dim, MAX_WRITE_DIM)
        # haar-pure is gen dps at p = 1, whose parameters have no "p"
        pure = ns.kind == "haar-pure"
        p = 1.0 if pure else ns.p
        state = make_dps(haar_state(ns.dim, _seeded_rng(ns.seed)), p).to_matrix()
        meta = {"kind": ns.kind, "dim": ns.dim, "p": p, "seed": ns.seed}
        if pure:
            del meta["p"]
    if not ns.out:
        _emit(render_json(state_document(state, dims=dims)), None)
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
    # the arguments that several commands share, each stated once
    state = argparse.ArgumentParser(add_help=False)
    state.add_argument("state")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")
    dims = argparse.ArgumentParser(add_help=False)
    dims.add_argument("--dims", type=int, nargs=2, metavar=("DA", "DB"))

    p_an = sub.add_parser("analyze", parents=[state], help="coherence vector, invariants, DPS verdict")
    p_an.add_argument("--tol-star", type=float, default=STAR_TOL)
    p_an.add_argument("--tol-spectrum", type=float, default=SPECTRUM_TOL)
    p_an.set_defaults(func=cmd_analyze)

    p_di = sub.add_parser("distance", help="fidelity / trace distance / Bures between two states")
    p_di.add_argument("state_a")
    p_di.add_argument("state_b")
    p_di.add_argument("--method", choices=("closed", "oracle", "both"), default="both")
    p_di.set_defaults(func=cmd_distance)

    p_sc = sub.add_parser("schmidt", parents=[state, dims], help="Schmidt form and marginal spectra of a bipartite DPS")
    p_sc.add_argument("--p-tol", type=float, default=P_TOL)
    p_sc.set_defaults(func=cmd_schmidt)

    p_en = sub.add_parser("entanglement", parents=[state, dims], help="partial-transpose spectrum and negativity")
    p_en.add_argument("--neg-tol", type=float, default=NEG_TOL)
    p_en.set_defaults(func=cmd_entanglement)

    p_we = sub.add_parser("werner2q", parents=[out], help="two-qubit canonical family (p, omega)")
    p_we.add_argument("--p", type=float, required=True)
    p_we.add_argument("--omega", type=float, required=True)
    p_we.set_defaults(func=cmd_werner2q)

    p_is = sub.add_parser("isotropic", parents=[out], help="isotropic state as a DPS; separability verdict")
    p_is.add_argument("--da", type=int, required=True)
    p_is.add_argument("--F", type=float, required=True)
    p_is.set_defaults(func=cmd_isotropic)

    p_ch = sub.add_parser("channel", help="depolarization maps and protocols")
    ch_sub = p_ch.add_subparsers(dest="channel_cmd", required=True)

    c_de = ch_sub.add_parser("depolarize", parents=[state, out], help="apply (1-p) 1/D + p rho")
    c_de.add_argument("--p", type=float, required=True)
    c_de.add_argument("--require-cp", action="store_true")
    c_de.set_defaults(func=cmd_channel_depolarize)

    c_p1 = ch_sub.add_parser("protocol1", parents=[state, out], help="ancilla-protocol simulation on a pure state")
    c_p1.add_argument("--beta2", type=float, required=True)
    c_p1.set_defaults(func=cmd_channel_protocol1)

    tw_help = f"average a channel into a depolarizing one (exact-clifford: prime D <= {CLIFFORD_TWIRL_MAX_DIM})"
    c_tw = ch_sub.add_parser("twirl", parents=[out], help=tw_help)
    c_tw.add_argument("channel")
    c_tw.add_argument("--mode", choices=("exact-clifford", "haar-sample"), default="exact-clifford")
    c_tw.add_argument("--samples", type=int, default=0)
    c_tw.add_argument("--seed", type=int)
    c_tw.add_argument("--exclude-identity", action="store_true")
    c_tw.set_defaults(func=cmd_channel_twirl)

    c_re = ch_sub.add_parser("recipe", parents=[state, out], help="Monte-Carlo PDPS from conjugated two-outcome maps")
    c_re.add_argument("--f", type=float, required=True)
    c_re.add_argument("--seed", type=int, required=True)
    c_re.add_argument("--trials", type=int, required=True)
    c_re.set_defaults(func=cmd_channel_recipe)

    c_lo = ch_sub.add_parser("local", parents=[state, dims, out], help="independent depolarization of each subsystem")
    c_lo.add_argument("--pa", type=float, required=True)
    c_lo.add_argument("--pb", type=float, required=True)
    c_lo.set_defaults(func=cmd_channel_local)

    p_mo = sub.add_parser("moments", parents=[state], help="Tr(rho^m) exactly, by permutation operator, or Monte Carlo")
    p_mo.add_argument("--m", type=int, nargs="+", default=[2, 3])
    p_mo.add_argument("--mode", choices=("exact", "perm", "mc"), default="exact")
    p_mo.add_argument("--shots", type=int)
    p_mo.add_argument("--seed", type=int)
    p_mo.add_argument("--assume-dps", action="store_true")
    p_mo.add_argument("--recovery-tol", type=float, default=RECOVERY_TOL)
    p_mo.set_defaults(func=cmd_moments)

    p_f1 = sub.add_parser("fig1", parents=[out], help="CSV distance surfaces over (p, f)")
    p_f1.add_argument("--dim", type=int, default=9)
    p_f1.add_argument("--grid", type=int, default=50)
    p_f1.set_defaults(func=cmd_fig1)

    p_ge = sub.add_parser("gen", help="write state files: dps | isotropic | haar-pure")
    # gen reads no file, and its report has no "inputs" key
    p_ge.set_defaults(func=cmd_gen, inputs=None)
    gen_sub = p_ge.add_subparsers(dest="kind", required=True)
    g_dp = gen_sub.add_parser("dps", parents=[out], help="a Haar-random DPS of polarization p")
    g_dp.add_argument("--dim", type=int, default=3)
    g_dp.add_argument("--p", type=float, required=True)
    g_dp.add_argument("--seed", type=int, required=True)
    g_hp = gen_sub.add_parser("haar-pure", parents=[out], help="a Haar-random pure state")
    g_hp.add_argument("--dim", type=int, default=3)
    g_hp.add_argument("--seed", type=int, required=True)
    g_is = gen_sub.add_parser("isotropic", parents=[out], help="the isotropic state of fidelity F")
    g_is.add_argument("--da", type=int, default=2)
    g_is.add_argument("--F", type=float, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if getattr(ns, "out", None) in ("-", ""):
            # stdout carries the report, and gen and fig1 print their output there when --out is
            # left out; an empty --out would write nothing and still exit 0
            raise CliInputError(f"--out must name a file, got {ns.out!r}")
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
