"""Deterministic generic-coordinate draws and a posteriori certification.

True algebraic independence cannot be represented with finite rationals, so
coordinates are drawn from per-stream cosets q + r_i whose offsets r_i are
64-bit-entropy rationals derived deterministically from a seed.  Rigor is
restored per run: every determinant or pivot a computation relied on is
recorded, as one integer, and certified nonzero after the fact.

Every draw is a pure function of (seed, stream, target, eps).  A pool's
only state is a memo of its offsets, which it shares with the pools derived
from it, so it is confined, with those pools, to one task; certificates are
immutable and freely shareable.
"""

from __future__ import annotations

import hashlib
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

    Stream i owns the offset r_i, a pure function of (seed, stream) with a
    64-bit numerator and an odd denominator above 2**62.  Two streams may
    share an offset: draws on them at the same dyadic point are then equal
    coordinates, which the distinctness certificate rejects, and any other
    degeneracy fails the same certificates, so the draw moves on to the next
    of :func:`regeneration_pools`.  No certified answer rests on distinct
    offsets.

    A root pool creates a memo of offsets keyed by (seed, stream), a cache
    of that pure function, which every pool :meth:`derive` and
    :func:`regeneration_pools` make from it shares, so they belong to one
    task.  It holds about 270 bytes per (seed, stream) drawn: a verify grid
    cell draws at most 66 streams per pool (m_max 6, n_max 3) and every cell
    derives trial t's pool from the same (seed, t), so a grid adds at most
    about 18 KB per trial pool, however many cells reuse it.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._memo: dict[tuple[int, int], Fraction] = {}

    def _sibling(self, seed: int) -> "GenericPool":
        """Fresh pool seeded ``seed`` that shares this pool's offset memo."""
        pool = GenericPool(seed)
        pool._memo = self._memo
        return pool

    def derive(self, index: int) -> "GenericPool":
        """Child pool for an independent trial; pure function of (seed, index)."""
        return self._sibling(_derived_seed(self.seed, "trial", index))

    def offset(self, stream: int) -> Fraction:
        key = (self.seed, stream)
        r = self._memo.get(key)
        if r is None:
            num = _u64(self.seed, f"num:{stream}:0", 1, 2 ** 64 - 1)
            den = _u64(self.seed, f"den:{stream}:0", 2 ** 62 + 1, 2 ** 64 - 1) | 1
            r = self._memo[key] = Fraction(num, den)
        return r

    def draw_near(self, target: Fraction, eps: Fraction, stream: int) -> Fraction:
        """A value q + s*r_stream within eps of target, exactly.

        q is the dyadic rational nearest target at resolution rho, the
        largest power of two at most eps/4, and the offset copy is shrunk
        by the least 2**-j below eps/2, so the value is a pure function of
        (seed, stream, target, eps).  Everything is integer arithmetic: rho
        comes from bit lengths, the rounding is one floor division, the
        shrink is found by shifted comparison, and one Fraction is built at
        the end.
        """
        target = Fraction(target)
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        # rho = 2**k is the largest power of two <= eps/4 = en/ed; bit
        # lengths give k or k + 1
        en, ed = eps.numerator, 4 * eps.denominator
        k = en.bit_length() - ed.bit_length()
        if (ed << k > en) if k >= 0 else (ed > en << -k):
            k -= 1
        tn, td = target.numerator, target.denominator
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
        big, small = 2 * eps.denominator * rn, en * rd
        j = max(0, big.bit_length() - small.bit_length())
        if small << j <= big:
            j += 1
        # offset term rn / (rd * 2**j)
        top = max(qe, j)
        value = Fraction((qn * rd << (top - qe)) + (rn << (top - j)), rd << top)
        vn, vd = value.numerator, value.denominator
        if not abs(vn * td - tn * vd) * eps.denominator < en * vd * td:
            raise RuntimeError("drawn value left the eps-neighbourhood of target")
        return value


def regeneration_pools(pool: GenericPool) -> Iterator[GenericPool]:
    """The pools a certified draw tries in turn: ``pool`` itself, then fresh
    pools seeded ``pool.seed + 1``, ..., up to ``REGEN_ATTEMPTS`` in all,
    which share ``pool``'s offset memo."""
    yield pool
    for attempt in range(1, REGEN_ATTEMPTS):
        yield pool._sibling(pool.seed + attempt)
