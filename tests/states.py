"""Builders shared by the test modules: leaf and fraction shorthands, and the
small pullback states that several of them check."""
from fractions import Fraction
from functools import cache

from lamlab.circle import angle
from lamlab.fpp import enumerate_fpps
from lamlab.leaves import Lamination, Leaf
from lamlab.pullback import CriticalPortrait, canonical_lamination, pullback


def fr(p, q=1):
    return Fraction(p, q)


def lf(a, b):
    return Leaf(angle(a), angle(b))


@cache
def canonical_states(d):
    return [canonical_lamination(P, 3) for P in enumerate_fpps(d)]


@cache
def rabbit_state():
    F0 = Lamination(2, frozenset({lf("1/7", "2/7"), lf("2/7", "4/7"), lf("4/7", "1/7")}))
    C = CriticalPortrait(2, frozenset({lf("1/14", "4/7")}))
    return pullback(F0, C, 2)


@cache
def cubic_state():
    F0 = Lamination(3, frozenset({lf("1/8", "3/8")}))
    C = CriticalPortrait(
        3, frozenset({lf("1/8", "11/24"), lf("11/24", "19/24"), lf("1/8", "19/24")})
    )
    return pullback(F0, C, 4)


@cache
def quartic_global_state():
    F0 = Lamination(
        4, frozenset({lf("1/63", "4/63"), lf("4/63", "16/63"), lf("16/63", "1/63")})
    )
    C = CriticalPortrait(
        4,
        frozenset(
            {
                lf("4/252", "67/252"),
                lf("67/252", "130/252"),
                lf("130/252", "193/252"),
                lf("4/252", "193/252"),
            }
        ),
    )
    return pullback(F0, C, 2)


@cache
def quartic_local_state():
    F0 = Lamination(
        4,
        frozenset(
            {
                lf(0, "84/252"),
                lf("88/252", "100/252"),
                lf("100/252", "148/252"),
                lf("88/252", "148/252"),
            }
        ),
    )
    C = CriticalPortrait(
        4,
        frozenset(
            {
                lf("88/252", "151/252"),
                lf("151/252", "214/252"),
                lf("88/252", "214/252"),
                lf("0/252", "63/252"),
            }
        ),
    )
    return pullback(F0, C, 2)


@cache
def mixed_quartic_state(n=2):
    F0 = Lamination(
        4, frozenset({lf(0, "1/3"), lf("7/15", "11/15"), lf("13/15", "14/15")})
    )
    C = CriticalPortrait(
        4, frozenset({lf(0, "1/4"), lf("1/3", "5/6"), lf("7/15", "43/60")})
    )
    return pullback(F0, C, n)
