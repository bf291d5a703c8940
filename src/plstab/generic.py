"""Deterministic generic-coordinate draws and a posteriori certification.

True algebraic independence cannot be represented with finite rationals, so
coordinates are drawn from per-stream cosets q + r_i whose offsets r_i are
64-bit-entropy rationals derived deterministically from a seed.  Rigor is
restored per run: every determinant or pivot a computation relied on is
recorded and certified nonzero after the fact.

A pool is stateful (per-stream draw counters, and an offset-candidate memo
it shares with the pools derived from it) and must be confined, with those
pools, to one task; certificates are immutable and freely shareable.
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
    """Transcript of values a computation required to be nonzero."""

    conditions: tuple[tuple[str, Fraction], ...]
    failed_index: Optional[int]

    @property
    def ok(self) -> bool:
        return self.failed_index is None


def certify(transcript: Iterable[tuple[str, Fraction]]) -> GenericityCertificate:
    """Certificate over a transcript; fails at the first zero value."""
    conditions = tuple((d, v) for d, v in transcript)
    failed = next((i for i, (_, v) in enumerate(conditions) if v == 0), None)
    return GenericityCertificate(conditions, failed)


def distinctness_transcript(labelled: Iterable[tuple[str, Fraction]]
                            ) -> list[tuple[str, Fraction]]:
    """Conditions under which all labelled values are pairwise distinct.

    The (label, value) pairs are stably sorted by exact value and the N-1
    differences of neighbours are recorded as ``("coord A != B", a - b)``:
    two equal values always sort next to each other, so the N values are
    pairwise distinct exactly when no neighbouring difference is zero.
    The sort key is ``(floor(x * 2**160), x)``: the integer floor is
    monotone in x and settles almost every comparison, and values with the
    same floor fall back to the exact value, so the stable order is the one
    the exact values alone give.
    """
    ordered = sorted(labelled, key=lambda item: (
        (item[1].numerator << 160) // item[1].denominator, item[1]))
    return [(f"coord {la} != {lb}", a - b)
            for (la, a), (lb, b) in zip(ordered, ordered[1:])]


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

    Stream i owns a fixed offset r_i with 64-bit numerator and an odd
    denominator above 2**62, and distinct streams of one pool yield
    distinct offsets.  The offset is the stream's first candidate
    (seed, stream, attempt) with attempt = 0, 1, ... that differs from the
    offsets the pool already handed out.  So the offset is a function of
    (seed, stream) alone, except on a collision of candidates, where it
    also depends on which streams that pool drew earlier.

    Candidates are a pure function of (seed, stream, attempt) and are kept
    in a memo that a root pool creates and that every pool :meth:`derive`
    and :func:`regeneration_pools` make from it shares: a root and all
    pools derived from it belong to one task.  The memo grows by one entry
    of about 270 bytes per (seed, stream, attempt) drawn.  A verify grid
    cell draws at most 66 streams per pool (m_max 6, n_max 3) and every
    cell derives trial t's pool from the same (seed, t), so a grid adds at
    most 66 entries, about 18 KB, per trial pool it draws from, however
    many cells reuse them.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._offsets: dict[int, Fraction] = {}
        self._counters: dict[int, int] = {}
        # reduced (numerator, denominator) of every offset handed out
        self._offset_values: set[tuple[int, int]] = set()
        self._candidates: dict[tuple[int, int, int], Fraction] = {}

    def _sibling(self, seed: int) -> "GenericPool":
        """Fresh pool seeded ``seed`` that shares this pool's candidate memo."""
        pool = GenericPool(seed)
        pool._candidates = self._candidates
        return pool

    def derive(self, index: int) -> "GenericPool":
        """Child pool for an independent trial; pure function of (seed, index)."""
        return self._sibling(_derived_seed(self.seed, "trial", index))

    def offset(self, stream: int) -> Fraction:
        r = self._offsets.get(stream)
        if r is not None:
            return r
        attempt = 0
        while True:
            key = (self.seed, stream, attempt)
            r = self._candidates.get(key)
            if r is None:
                num = _u64(self.seed, f"num:{stream}:{attempt}", 1, 2 ** 64 - 1)
                den = _u64(self.seed, f"den:{stream}:{attempt}", 2 ** 62 + 1, 2 ** 64 - 1) | 1
                r = self._candidates[key] = Fraction(num, den)
            value = (r.numerator, r.denominator)
            if value not in self._offset_values:
                break
            attempt += 1
        self._offsets[stream] = r
        self._offset_values.add(value)
        return r

    def draw_near(self, target: Fraction, eps: Fraction, stream: int) -> Fraction:
        """A value q + s*r_stream within eps of target, exactly.

        q is the dyadic rational nearest target at resolution rho, the
        largest power of two at most eps/4, and the offset copy is shrunk
        by the least 2**-j below eps/2 (and further by 2**-count for the
        stream's draw counter, so repeated draws differ).  Advances the
        counter.  Everything is integer arithmetic: rho comes from bit
        lengths, the rounding is one floor division, the shrink is found by
        shifted comparison, and one Fraction is built at the end.
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
        count = self._counters.get(stream, 0)
        self._counters[stream] = count + 1
        e = j + count  # offset term rn / (rd * 2**e)
        top = max(qe, e)
        value = Fraction((qn * rd << (top - qe)) + (rn << (top - e)), rd << top)
        vn, vd = value.numerator, value.denominator
        if not abs(vn * td - tn * vd) * eps.denominator < en * vd * td:
            raise RuntimeError("drawn value left the eps-neighbourhood of target")
        return value


def regeneration_pools(pool: GenericPool) -> Iterator[GenericPool]:
    """The pools a certified draw tries in turn: ``pool`` itself, then fresh
    pools seeded ``pool.seed + 1``, ..., up to ``REGEN_ATTEMPTS`` in all,
    which share ``pool``'s candidate memo."""
    yield pool
    for attempt in range(1, REGEN_ATTEMPTS):
        yield pool._sibling(pool.seed + attempt)
