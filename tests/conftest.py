import collections

import numpy as np
from hypothesis import settings

from dpstates import DensityMatrix, haar_state, make_dps, p_min

# selected in CI with --hypothesis-profile=ci: a failure there prints a
# @reproduce_failure blob that replays the falsifying example anywhere
settings.register_profile("ci", print_blob=True)


def rng_for(*seed_parts) -> np.random.Generator:
    return np.random.default_rng(list(seed_parts))


def random_dps(D: int, rng: np.random.Generator, p: float | None = None):
    if p is None:
        p = float(rng.uniform(p_min(D), 1.0))
    return make_dps(haar_state(D, rng), p)


def random_mixed(D: int, rng: np.random.Generator, rank: int | None = None) -> DensityMatrix:
    k = D if rank is None else rank
    A = rng.standard_normal((D, k)) + 1.0j * rng.standard_normal((D, k))
    M = A @ A.conj().T
    return DensityMatrix(M / np.real(np.trace(M)))


def random_non_dps(D: int, rng: np.random.Generator) -> DensityMatrix:
    """An unequal two-pure-state mixture: generically not a DPS.

    Equal mixtures of orthogonal pures are excluded on purpose; at D=3
    such a state IS a DPS with p = -1/2.
    """
    a = haar_state(D, rng)
    b = haar_state(D, rng)
    w = float(rng.uniform(0.55, 0.9))
    M = w * np.outer(a, a.conj()) + (1.0 - w) * np.outer(b, b.conj())
    return DensityMatrix(M)


def count_solver_calls(monkeypatch) -> collections.Counter:
    """From here on, the number of calls of each numpy eigensolver and of svd, by name."""
    calls = collections.Counter()
    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd"):

        def counted(*args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def leaf_commands(parser, path=()):
    """(subcommand path, actions) of every leaf subcommand under ``parser``, help left out.

    The tests' one walk of argparse internals: the README synopsis,
    golden-coverage and fuzz tests read the `dps` interface from it.
    """
    subs = parser._subparsers
    if subs is None:
        yield path, [action for action in parser._actions if action.dest != "help"]
        return
    for name, sub in subs._group_actions[0].choices.items():
        yield from leaf_commands(sub, (*path, name))
