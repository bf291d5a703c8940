"""Deterministic generic-coordinate draws and a posteriori certification.

True algebraic independence cannot be represented with finite rationals, so
coordinates are drawn from per-stream cosets q + r_i whose offsets are
r_i = N_i / D: one odd denominator D in (2**62, 2**64) per seed, and a
64-bit numerator N_i per stream, all derived deterministically from the
seed.  Every coordinate of a draw then clears over D times a power of two.
One integer kernel (:meth:`GenericPool.draw_integers`) draws a value as
its numerator and denominator; :meth:`GenericPool.draw_near` is its
Fraction.  A degeneracy is a nonzero integer polynomial in the numerators,
and for a fixed D such a polynomial of degree k vanishes at uniform 64-bit
numerators with probability at most k / 2**64 (Schwartz 1980; Zippel
1979).  Rigor is restored per run all the same: every determinant or pivot
a computation relied on is recorded, as one integer, and certified nonzero
after the fact.

Every draw is a pure function of (seed, stream, target, eps).  A pool's
only state is a memo of pure functions, its denominators, its offsets and
its draws, which it shares with the pools derived from it, so a draw is
computed once per run and then looked up, and the pool is confined, with
those pools, to one task; certificates are immutable and freely shareable.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

REGEN_ATTEMPTS = 3


class GenericityError(RuntimeError):
    """Raised when regeneration attempts are exhausted without a clean certificate."""


@dataclass(frozen=True)
class GenericityCertificate:
    """Integers a computation required to be nonzero, known by position."""

    conditions: tuple[int, ...]
    failed_index: Optional[int]

    @property
    def ok(self) -> bool:
        return self.failed_index is None


def certify(transcript: Iterable[int]) -> GenericityCertificate:
    """Certificate over a transcript; fails at the first zero value."""
    conditions = tuple(transcript)
    failed = next((i for i, v in enumerate(conditions) if v == 0), None)
    return GenericityCertificate(conditions, failed)


def distinctness_transcript(values: Iterable[Fraction]) -> list[int]:
    """Conditions under which all values are pairwise distinct.

    The values are stably sorted by exact value and the N-1 neighbours
    a, b are recorded as the integer a.num * b.den - b.num * a.den, zero
    exactly when a = b: two equal values always sort next to each other, so
    the N values are pairwise distinct exactly when no condition is zero.
    The sort key is ``(floor(x * 2**160), x)``: the integer floor is
    monotone in x and settles almost every comparison, and values with the
    same floor fall back to the exact value, so the stable order is the one
    the exact values alone give.
    """
    ordered = sorted(values, key=lambda x: (
        (x.numerator << 160) // x.denominator, x))
    return [a.numerator * b.denominator - b.numerator * a.denominator
            for a, b in zip(ordered, ordered[1:])]


def distinctness_transcript_of_numerators(numerators: Iterable[int]
                                          ) -> list[int]:
    """The conditions of :func:`distinctness_transcript` for values given
    as integer numerators over one positive denominator E: the numerators
    sorted, and the neighbours A, B recorded as A - B.  Each is E / (a.den
    * b.den) > 0 times the condition of the values a, b, in the same order,
    so the count and the first zero are the same.
    """
    ordered = sorted(numerators)
    return [a - b for a, b in zip(ordered, ordered[1:])]


def _derived_seed(*parts) -> int:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _u64(seed: int, tag: str, lo: int, hi: int) -> int:
    """Deterministic integer in [lo, hi] from (seed, tag)."""
    span = hi - lo + 1
    acc = 0
    counter = 0
    # enough hash output to make the modulo bias negligible and deterministic
    while acc < span * span:
        block = hashlib.sha256(f"{seed}:{tag}:{counter}".encode()).digest()
        acc = (acc << 256) | int.from_bytes(block, "big")
        counter += 1
    return lo + acc % span


class GenericPool:
    """Seeded source of generic rational coordinates.

    A pool of seed s draws one odd denominator D_s in (2**62, 2**64), and
    stream i owns the offset r_i = N_i / D_s with a 64-bit numerator N_i,
    a pure function of (s, i); every offset of the pool has a denominator
    dividing D_s.  Pools of other seeds, derived and regenerated ones
    included, draw their own D.  Two streams may share a numerator: draws
    on them at the same dyadic point are then equal coordinates, which the
    distinctness certificate rejects, and any other degeneracy fails the
    same certificates, so the draw moves on to the next of
    :func:`regeneration_pools`.  No certified answer rests on distinct
    offsets.

    A root pool creates a memo of D keyed by seed, of offsets keyed by
    (seed, stream) and of draws keyed by the integers (seed, stream, target
    numerator and denominator, eps numerator and denominator), a cache of
    those pure functions, which every pool :meth:`derive` and
    :func:`regeneration_pools` make from it shares, so they belong to one
    task.  Every verify grid cell derives trial t's pool from the same
    (seed, t) and draws each coordinate at one of 7 integer targets, so a
    grid redraws the same values: at m_max 5, n_max 2 and 2 trials, 418 of
    8,348 draws are computed and the rest are looked up.  The memo holds
    about 265 bytes per draw and 220 bytes per (seed, stream), the seed's D
    included (tracemalloc, CPython 3.11).  At m_max 6, n_max 3 a trial pool
    memoises 402 draws on 66 streams, so a grid adds at most about 120 KB
    per trial pool, however many cells reuse it.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._dens: dict[int, int] = {}
        self._memo: dict[tuple[int, int], Fraction] = {}
        self._draws: dict[tuple[int, ...], tuple[int, int]] = {}

    def _sibling(self, seed: int) -> "GenericPool":
        """Fresh pool seeded ``seed`` that shares this pool's memo."""
        pool = GenericPool(seed)
        pool._dens = self._dens
        pool._memo = self._memo
        pool._draws = self._draws
        return pool

    def derive(self, index: int) -> "GenericPool":
        """Child pool for an independent trial; pure function of (seed, index)."""
        return self._sibling(_derived_seed(self.seed, "trial", index))

    def offset(self, stream: int) -> Fraction:
        key = (self.seed, stream)
        r = self._memo.get(key)
        if r is None:
            den = self._dens.get(self.seed)
            if den is None:
                den = self._dens[self.seed] = _u64(
                    self.seed, "den", 2 ** 62 + 1, 2 ** 64 - 1) | 1
            num = _u64(self.seed, f"num:{stream}:0", 1, 2 ** 64 - 1)
            r = self._memo[key] = Fraction(num, den)
        return r

    def draw_integers(self, target: Fraction, eps: Fraction, stream: int
                      ) -> tuple[int, int]:
        """The integer draw kernel: the value q + s*r_stream within eps of
        target, exactly, as its numerator and positive denominator in
        lowest terms.

        q is the dyadic rational nearest target at resolution rho, the
        largest power of two at most eps/4, and the offset copy is shrunk
        by the least 2**-j below eps/2, so the value is a pure function of
        (seed, stream, target, eps).  Everything is integer arithmetic: rho
        comes from bit lengths, the rounding is one floor division, the
        shrink is found by shifted comparison, and no Fraction is built.
        The offset r = rn / rd is in lowest terms and rd is odd, so the
        value's numerator is prime to rd and only a power of two can cancel.
        The value is computed once per run, checks included, and memoised
        under integer keys, which a lookup hashes in about a third of the
        time Fraction keys take; a nonpositive eps is never memoised and
        raises on every call.
        """
        key = (self.seed, stream, target.numerator, target.denominator,
               eps.numerator, eps.denominator)
        drawn = self._draws.get(key)
        if drawn is not None:
            return drawn
        _, _, tn, td, en, eps_d = key  # td, eps_d > 0
        if en <= 0:
            raise ValueError("eps must be positive")
        # rho = 2**k is the largest power of two <= eps/4 = en/ed; bit
        # lengths give k or k + 1
        ed = 4 * eps_d
        k = en.bit_length() - ed.bit_length()
        if (ed << k > en) if k >= 0 else (ed > en << -k):
            k -= 1
        # steps = floor(target / rho + 1/2), q = steps * rho = qn / 2**qe
        if k >= 0:
            steps = (2 * tn + (td << k)) // (td << (k + 1))
            qn, qe = steps << k, 0
        else:
            qn = ((tn << (1 - k)) + td) // (2 * td)
            qe = -k
        r = self.offset(stream)
        rn, rd = r.numerator, r.denominator
        # least j >= 0 with r / 2**j < eps / 2, i.e. big < small * 2**j
        big, small = 2 * eps_d * rn, en * rd
        j = max(0, big.bit_length() - small.bit_length())
        if small << j <= big:
            j += 1
        # offset term rn / (rd * 2**j), over the denominator rd * 2**top
        top = max(qe, j)
        vn = (qn * rd << (top - qe)) + (rn << (top - j))
        vd = rd << top
        if not abs(vn * td - tn * vd) * eps_d < en * vd * td:
            raise RuntimeError("drawn value left the eps-neighbourhood of target")
        g = math.gcd(vn, vd)  # a power of two
        drawn = self._draws[key] = vn // g, vd // g
        return drawn

    def draw_near(self, target: Fraction, eps: Fraction, stream: int) -> Fraction:
        """The value of :meth:`draw_integers`, as a Fraction."""
        return Fraction(*self.draw_integers(target, eps, stream))


def regeneration_pools(pool: GenericPool) -> Iterator[GenericPool]:
    """The pools a certified draw tries in turn: ``pool`` itself, then fresh
    pools seeded ``pool.seed + 1``, ..., up to ``REGEN_ATTEMPTS`` in all,
    which share ``pool``'s memo and each draw their own denominator."""
    yield pool
    for attempt in range(1, REGEN_ATTEMPTS):
        yield pool._sibling(pool.seed + attempt)
