"""Exponent vectors and the principal order driving the reduction.

An exponent vector is a finitely supported sequence of naturals indexed
from 1.  Under the slot convention of the negative-monomial template,
odd slot ``2n-1`` counts powers of ``T[-(2n-1)/2]`` and even slot ``2n``
counts powers of ``G[-(n-1)/2]``, so the doubled weight of one unit in
slot k is ``k`` for odd k and ``(k-2)/2`` for even k.  Slot 2 is the
unique weight-0 slot, which is why enumeration needs the explicit
length bound.
"""

from __future__ import annotations

import re


def slot_weight2(slot: int) -> int:
    """Doubled weight contributed by one unit of exponent in a slot."""
    if slot < 1:
        raise ValueError(f"slots are indexed from 1, got {slot}")
    return slot if slot % 2 else (slot - 2) // 2


class ExponentVector:
    """Immutable sparse vector of naturals, indexed from slot 1.

    Interned like `GeneratorId`: every vector is built by ``__new__``, which
    returns the one object for its entries from ``_cache``, a table with no
    size cap, so equality and hashing are those of identity."""

    __slots__ = ("entries", "length", "weight2", "_bumps")
    _cache: dict[tuple[tuple[int, int], ...], "ExponentVector"] = {}

    def __new__(cls, entries):
        items = tuple(sorted((s, e) for s, e in entries if e))
        hit = cls._cache.get(items)
        if hit is not None:
            return hit
        for s, e in items:
            if s < 1:
                raise ValueError(f"slots are indexed from 1, got {s}")
            if e < 0:
                raise ValueError(f"negative exponent {e} in slot {s}")
        seen = [s for s, _ in items]
        if len(set(seen)) != len(seen):
            raise ValueError(f"duplicate slots in {items}")
        ev = object.__new__(cls)
        ev.entries = items
        ev.length = sum(e for _, e in items)
        ev.weight2 = sum(slot_weight2(s) * e for s, e in items)
        ev._bumps = None
        cls._cache[items] = ev
        return ev

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def min_nonzero_slot(self) -> int | None:
        return self.entries[0][0] if self.entries else None

    def max_slot(self) -> int | None:
        return self.entries[-1][0] if self.entries else None

    def bump(self, slot: int, delta: int) -> "ExponentVector":
        """The vector with ``delta`` added to one slot (may not go negative),
        kept on this vector for the next call with the same arguments."""
        bumps = self._bumps
        if bumps is None:  # made on the first bump: a vector never bumped has none
            bumps = self._bumps = {}
        key = (slot, delta)
        hit = bumps.get(key)
        if hit is None:
            items = dict(self.entries)
            new = items.get(slot, 0) + delta
            if new < 0:
                raise ValueError(f"slot {slot} would become negative")
            items[slot] = new
            hit = bumps[key] = ExponentVector(items.items())
        return hit

    def __add__(self, other: "ExponentVector") -> "ExponentVector":
        items = dict(self.entries)
        for s, e in other.entries:
            items[s] = items.get(s, 0) + e
        return ExponentVector(items.items())

    def dense_key(self) -> tuple[int, ...]:
        """Entries from slot 1 upward, without trailing zeros.  As a key it
        gives the reverse lexicographic order: the first differing slot
        (from slot 1 up) decides, and the zero vector is the minimum."""
        if not self.entries:
            return ()
        top = self.entries[-1][0]
        dense = [0] * top
        for s, e in self.entries:
            dense[s - 1] = e
        return tuple(dense)

    def __str__(self) -> str:
        if not self.entries:
            return "{}"
        return "{" + ",".join(f"{s}:{e}" for s, e in self.entries) + "}"

    def __repr__(self) -> str:
        return f"ev({str(self)!r})"


ZERO_VECTOR = ExponentVector(())


def principal_sort_key(i: ExponentVector):
    """The principal order as a key: lexicographic on (weight, length,
    `dense_key`).  A tuple of ints and int tuples is totally ordered, and
    two vectors with one key have the same entries, so are one object."""
    return (i.weight2, i.length, i.dense_key())


def walk_vectors(slots, max_weight2: int, max_length: int) -> list[ExponentVector]:
    """Every vector over ``slots``, a list of (slot, doubled weight,
    exponent cap) triples, with doubled weight <= max_weight2 and length
    <= max_length, in walk order: lexicographic in the exponents, the
    first slot's outermost.

    The walk extends every partial vector by one slot at a time, so its
    depth does not grow with the number of slots."""
    partial = [((), max_weight2, max_length)]  # (entries, weight left, length left)
    for slot, w2, cap in slots:
        extended = []
        for item in partial:
            extended.append(item)  # exponent 0 in this slot
            acc, left_w2, left_len = item
            if left_len and w2 <= left_w2:
                top = min(cap, left_len, left_w2 // w2 if w2 else left_len)
                for e in range(1, top + 1):
                    extended.append((acc + ((slot, e),), left_w2 - w2 * e, left_len - e))
        partial = extended
    return [ExponentVector(acc) for acc, _, _ in partial]


def enumerate_vectors(max_weight2: int, max_length: int) -> list[ExponentVector]:
    """All vectors with weight <= max_weight2/2 and length <= max_length,
    sorted descending by the principal order."""
    if max_weight2 < 0 or max_length < 0:
        raise ValueError("enumeration bounds must be nonnegative")
    slots = [(s, slot_weight2(s), max_length) for s in range(1, 2 * max_weight2 + 3)
             if slot_weight2(s) <= max_weight2]
    out = walk_vectors(slots, max_weight2, max_length)
    out.sort(key=principal_sort_key, reverse=True)
    return out


_EV_RE = re.compile(r"^\{([^{}]*)\}$")


def parse_exponent_vector(text: str) -> ExponentVector:
    m = _EV_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad exponent vector {text!r}; expected {{slot:exp,...}}")
    body = m.group(1).strip()
    if not body:
        return ZERO_VECTOR
    items = []
    for chunk in body.split(","):
        try:
            s, e = chunk.split(":")
            items.append((int(s), int(e)))
        except ValueError as exc:
            raise ValueError(f"bad exponent entry {chunk!r}") from exc
    return ExponentVector(items)
