"""Span recording around calls into dpstates, installed from outside the package.

``install`` replaces each traced public function in every ``dpstates``
module namespace that holds it, so calls between modules are seen too,
and wraps numpy's ``eigh``/``eigvalsh``/``svd`` to count the eigensolves
that dpstates code calls directly.  Spans stay in memory until ``dump``.
Each span records name, start, end, parent and the tracemalloc peak
above the memory in use when the span opened.
"""

from __future__ import annotations

import hashlib
import sys
import time
import tracemalloc

import numpy as np

# traced function -> the per-layer metrics read from its spans
TRACED = {
    "cli.load_state": ("self_s",),
    "cli.render_json": ("self_s",),
    "bloch.generate_basis": ("calls", "self_s", "peak_mb"),
    "bloch.dps_test": ("calls", "self_s"),
    "bloch.to_coherence": ("self_s",),
    "bloch.star": ("self_s",),
    "bloch.invariant_ladder": ("self_s",),
    "metrics.distance_report": ("calls", "self_s"),
    "metrics.make_dps": ("calls", "self_s"),
    "metrics.fidelity_oracle": ("self_s",),
    "metrics.trace_distance_oracle": ("self_s",),
    "bipartite.schmidt_dps": ("self_s",),
    "bipartite.negativity": ("calls", "self_s"),
    "bipartite.pt_spectrum_closed": ("self_s",),
    "channels.protocol1": ("self_s", "peak_mb"),
    "channels.pdps_recipe": ("self_s", "peak_mb"),
    "channels.twirl": ("self_s",),
    "channels.local_depolarize": ("self_s",),
    "moments.moment_permutation": ("self_s",),
    "moments.moment_montecarlo": ("self_s",),
    "moments.count_positive_charpoly": ("self_s",),
    "linalg.eig_hermitian": ("self_s",),
    "linalg.sqrt_psd": ("self_s",),
    "linalg.trace_norm": ("self_s",),
}
EIGENSOLVERS = ("eigh", "eigvalsh", "svd")


def _digest(arr) -> tuple:
    a = np.ascontiguousarray(arr)
    return a.shape, a.dtype.str, hashlib.blake2b(a.tobytes(), digest_size=16).digest()


class Recorder:
    """In-memory span store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows: list[list[int]] = []  # name id, start ns, end ns, parent row, peak bytes
        self._stack: list[list[int]] = []  # row, running peak, base bytes
        self.eigensolves = 0
        self._solved: dict[tuple, int] = {}
        self._tested: dict[tuple, int] = {}

    def wrap(self, name: str, fn, on_call=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        rows, stack = self.rows, self._stack

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            cur, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][1] = max(stack[-1][1], peak)
            tracemalloc.reset_peak()
            row = len(rows)
            rows.append([nid, 0, 0, stack[-1][0] if stack else -1, 0])
            stack.append([row, cur, cur])
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                _, peak = tracemalloc.get_traced_memory()
                frame = stack.pop()
                top = max(frame[1], peak)
                rec = rows[row]
                rec[1], rec[2], rec[4] = t0, t1, top - frame[2]
                if stack:
                    stack[-1][1] = max(stack[-1][1], top)
                tracemalloc.reset_peak()

        traced.__wrapped__ = fn
        return traced

    def count_eigensolves(self, fn):
        solved = self._solved

        def counted(a, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__", "").startswith("dpstates"):
                self.eigensolves += 1
                key = _digest(a)
                solved[key] = solved.get(key, 0) + 1
            return fn(a, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def note_tested(self, args) -> None:
        key = _digest(args[0].matrix)
        self._tested[key] = self._tested.get(key, 0) + 1

    def reset(self) -> None:
        """Forget every closed span and count; call only between traced calls."""
        self.rows.clear()
        self.eigensolves = 0
        self._solved.clear()
        self._tested.clear()

    def identify_counts(self) -> tuple[int, int]:
        """(eigensolves of matrices that dps_test examined, dps_test calls)."""
        tests = sum(self._tested.values())
        return sum(self._solved.get(k, 0) for k in self._tested), tests

    def dump(self, path) -> None:
        solved, tests = self.identify_counts()
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            rows=np.array(self.rows, dtype=np.int64).reshape(-1, 5),
            counts=np.array([self.eigensolves, solved, tests], dtype=np.int64),
        )


def _replace(original, replacement) -> None:
    for modname, mod in list(sys.modules.items()):
        if modname == "dpstates" or modname.startswith("dpstates."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(rec: Recorder) -> None:
    """Wrap the traced functions of an imported dpstates and start tracemalloc."""
    import dpstates.cli

    commands = [f"cli.{n}" for n in vars(dpstates.cli) if n.startswith("cmd_")]
    for qualname in (*TRACED, *commands):
        short, name = qualname.split(".")
        fn = getattr(sys.modules.get(f"dpstates.{short}"), name, None)
        if fn is None:
            continue
        hook = rec.note_tested if qualname == "bloch.dps_test" else None
        _replace(fn, rec.wrap(qualname, fn, hook))
    for name in EIGENSOLVERS:
        setattr(np.linalg, name, rec.count_eigensolves(getattr(np.linalg, name)))
    tracemalloc.start()


class Totals:
    """Per-function sums over any number of span dumps."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.peak: dict[str, int] = {}
        self.eigensolves = 0
        self.identify_solves = 0
        self.identify_tests = 0

    def add(self, names, rows: np.ndarray, counts) -> None:
        self.eigensolves += int(counts[0])
        self.identify_solves += int(counts[1])
        self.identify_tests += int(counts[2])
        if rows.shape[0] == 0:
            return
        dur = rows[:, 2] - rows[:, 1]
        parent = rows[:, 3]
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=rows.shape[0])
        own = dur - child.astype(np.int64)
        for nid, name in enumerate(names):
            mask = rows[:, 0] == nid
            n = int(np.sum(mask))
            if not n:
                continue
            name = str(name)
            self.calls[name] = self.calls.get(name, 0) + n
            self.self_ns[name] = self.self_ns.get(name, 0) + int(np.sum(own[mask]))
            self.peak[name] = max(self.peak.get(name, 0), int(np.max(rows[mask, 4])))

    def add_recorder(self, rec: Recorder) -> None:
        solved, tests = rec.identify_counts()
        self.add(rec.names, np.array(rec.rows, dtype=np.int64).reshape(-1, 5), (rec.eigensolves, solved, tests))

    def add_file(self, path) -> None:
        with np.load(path) as z:
            self.add(z["names"], z["rows"], z["counts"])

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9
