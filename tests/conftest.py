from __future__ import annotations

import importlib
import random
from fractions import Fraction

import pytest

from pathgeom import MultiVector, OMEGA0, PHI0
from pathgeom.linalg import det as exact_det, rank as exact_rank


@pytest.fixture
def rng():
    return random.Random(20240817)


def rand_fraction(rng, lo=-10, hi=10, den=10) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_vector(rng, dim, lo=-10, hi=10, den=10):
    return [rand_fraction(rng, lo, hi, den) for _ in range(dim)]


def rand_form(rng, dim, degree, nterms=None) -> MultiVector:
    from itertools import combinations

    tuples = list(combinations(range(1, dim + 1), degree))
    k = nterms if nterms is not None else len(tuples)
    chosen = rng.sample(tuples, min(k, len(tuples)))
    return MultiVector.from_terms(dim, [(t, rand_fraction(rng)) for t in chosen], degree=degree)


def rand_invertible(rng, dim=4, positive=True) -> list:
    """Random rational invertible matrix, as rows; det > 0 when ``positive``."""
    while True:
        rows = [[rand_fraction(rng, -3, 3, 4) for _ in range(dim)] for _ in range(dim)]
        d = exact_det(rows)
        if d == 0:
            continue
        if positive and d < 0:
            rows[0] = [-x for x in rows[0]]
        elif positive is False and d > 0:
            rows[0] = [-x for x in rows[0]]
        return rows


def rand_injective_3to4(rng) -> list:
    """Random rational 4×3 matrix of rank 3, as rows."""
    while True:
        rows = [[rand_fraction(rng, -3, 3, 4) for _ in range(3)] for _ in range(4)]
        if exact_rank(rows) == 3:
            return rows


def rand_orthogonal_elliptic_pair(rng, allow_flip=False):
    """Pullback of the model pair (ω₀, κφ₀) by a random invertible map.

    Pairings scale by det A, so the result is elliptic and orthogonal; with
    ``allow_flip`` the map may reverse orientation, giving the
    negative-self-pairing branch.
    """
    from pathgeom import pullback
    from pathgeom.pairs import EllipticPair

    positive = True if not allow_flip else rng.choice([True, False])
    a = rand_invertible(rng, positive=positive)
    kappa = rand_fraction(rng, 1, 5, 4)
    return EllipticPair(pullback(OMEGA0, a), pullback(PHI0 * kappa, a)), kappa, a


def count_calls_everywhere(monkeypatch, module: str, name: str,
                           owners=("scalars", "exterior", "pairs", "splitting", "eds", "cli")) -> dict:
    """Count calls of ``pathgeom.<module>.<name>`` under every name that one of ``owners`` binds it to."""
    original = getattr(importlib.import_module(f"pathgeom.{module}"), name)
    counter = {"calls": 0}

    def counted(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    for owner in owners:
        mod = importlib.import_module(f"pathgeom.{owner}")
        for key, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, key, counted)
    return counter
