import random
import sys

import pytest
from hypothesis import given, strategies as st

from n2sca.orders import (
    ExponentVector,
    ZERO_VECTOR,
    enumerate_vectors,
    parse_exponent_vector,
    principal_sort_key,
    slot_weight2,
    walk_vectors,
)

small_evs = st.builds(
    lambda items: ExponentVector(items.items()),
    st.dictionaries(st.integers(1, 8), st.integers(0, 3), max_size=4),
)


def ev(*items):
    return ExponentVector(items)


def sign(a, b):
    return (a > b) - (a < b)


class TestWeightLength:
    def test_unit_weights(self):
        assert ev((1, 1)).weight2 == 1  # 1/2
        assert ev((2, 1)).weight2 == 0
        assert ev((3, 1)).weight2 == 3  # 3/2
        assert ev((4, 1)).weight2 == 1  # 1/2

    def test_zero_vector(self):
        assert ZERO_VECTOR.weight2 == 0
        assert ZERO_VECTOR.length == 0

    def test_mixed(self):
        i = ev((1, 2), (3, 1), (4, 1))
        assert i.weight2 == 6  # 2*(1/2) + 3/2 + 1/2 = 3
        assert i.length == 4

    def test_unit_lengths(self):
        for k in range(1, 9):
            assert ev((k, 1)).length == 1


class TestCompares:
    def test_revlex_earlier_slot_wins(self):
        assert ev((1, 1)).revlex_key() > ev((4, 1)).revlex_key()

    def test_revlex_zero_is_minimum(self):
        for k in range(1, 9):
            assert ZERO_VECTOR.revlex_key() < ev((k, 1)).revlex_key()

    def test_reflexive(self):
        i = ev((2, 1), (5, 2))
        assert i.revlex_key() == ev((5, 2), (2, 1)).revlex_key()
        assert principal_sort_key(i) == principal_sort_key(ev((5, 2), (2, 1)))

    def test_revlex_key_orders_as_the_dense_exponents(self):
        # the reference: exponents from slot 1 up to the top slot, compared
        # as tuples; a vector that stops where another goes on sorts below it
        def dense(i):
            out = [0] * (i.max_slot() or 0)
            for s, e in i.entries:
                out[s - 1] = e
            return tuple(out)

        rng = random.Random(5)
        for _ in range(5000):
            top = rng.choice([3, 8, 40])
            i, j = (ExponentVector({rng.randint(1, top): rng.randint(0, 3)
                                    for _ in range(rng.randint(0, 4))}.items())
                    for _ in range(2))
            assert sign(i.revlex_key(), j.revlex_key()) == sign(dense(i), dense(j)), (i, j)

    def test_revlex_key_is_as_long_as_the_entries(self):
        i = ev((1, 2), (10**12, 1))
        assert i.revlex_key() == ((-1, 2), (-10**12, 1))
        assert i.revlex_key() > ev((1, 2), (10**12 + 1, 5)).revlex_key() > ev((1, 2)).revlex_key()

    def test_principal_weight_first(self):
        assert principal_sort_key(ev((1, 1))) > principal_sort_key(ev((2, 1)))

    def test_principal_length_breaks_weight_tie(self):
        # both weigh 3/2; lengths 3 > 1
        assert principal_sort_key(ev((1, 3))) > principal_sort_key(ev((3, 1)))

    def test_principal_revlex_breaks_both_ties(self):
        assert principal_sort_key(ev((1, 1))) > principal_sort_key(ev((4, 1)))

    def test_independent_rederivation(self):
        # re-derive the principal order clause by clause from the raw sums
        def w2(i):
            return sum(slot_weight2(s) * e for s, e in i.entries)

        def d(i):
            return sum(e for _, e in i.entries)

        def dense(i, top=16):
            out = [0] * top
            for s, e in i.entries:
                out[s - 1] = e
            return out

        def clauses(i, j):
            if i == j:
                return 0
            if w2(i) != w2(j):
                return sign(w2(i), w2(j))
            if d(i) != d(j):
                return sign(d(i), d(j))
            di, dj = dense(i), dense(j)
            for a, b in zip(di, dj):
                if a != b:
                    return sign(a, b)
            raise AssertionError

        rng = random.Random(3)
        for _ in range(2000):
            items_i = {rng.randint(1, 8): rng.randint(0, 3) for _ in range(3)}
            items_j = {rng.randint(1, 8): rng.randint(0, 3) for _ in range(3)}
            i, j = ExponentVector(items_i.items()), ExponentVector(items_j.items())
            assert sign(principal_sort_key(i), principal_sort_key(j)) == clauses(i, j)

    def test_total_order_properties_seeded(self):
        rng = random.Random(0)

        def rand():
            return ExponentVector(
                {rng.randint(1, 8): rng.randint(0, 3) for _ in range(3)}.items()
            )

        for _ in range(10_000):
            i, j, k = rand(), rand(), rand()
            for key in (ExponentVector.revlex_key, principal_sort_key):
                ki, kj, kk = key(i), key(j), key(k)
                assert sign(ki, kj) == -sign(kj, ki)
                assert (ki == kj) == (i is j)
                if ki >= kj >= kk:
                    assert ki >= kk


@given(small_evs, small_evs)
def test_weight_and_length_additive(i, j):
    s = i + j
    assert s.weight2 == i.weight2 + j.weight2
    assert s.length == i.length + j.length


@given(small_evs)
def test_subtracting_units_drops_weight(i):
    for slot, e in i.entries:
        if e:
            smaller = i.bump(slot, -1)
            assert smaller.weight2 == i.weight2 - slot_weight2(slot)
            assert smaller.length == i.length - 1


class TestEnumeration:
    def test_half_weight_box(self):
        got = enumerate_vectors(1, 2)
        expected = {
            ZERO_VECTOR, ev((2, 1)), ev((2, 2)), ev((1, 1)), ev((4, 1)),
            ev((1, 1), (2, 1)), ev((2, 1), (4, 1)),
        }
        assert set(got) == expected
        assert len(got) == 7
        # descending principal order, zero last
        for a, b in zip(got, got[1:]):
            assert principal_sort_key(a) > principal_sort_key(b)
        assert got[-1] == ZERO_VECTOR

    def test_weight_zero_is_slot2_only(self):
        assert enumerate_vectors(0, 3) == [ev((2, 3)), ev((2, 2)), ev((2, 1)), ZERO_VECTOR]

    def test_trivial_box(self):
        assert enumerate_vectors(0, 0) == [ZERO_VECTOR]

    @pytest.mark.parametrize("bounds", [(0, 0), (1, 2), (4, 3), (5, 4), (6, 4)])
    def test_strictly_descending_by_the_principal_key(self, bounds):
        # the deg-lemma suite takes the words after i in the box as exactly
        # the principal-smaller ones
        evs = enumerate_vectors(*bounds)
        assert len(set(evs)) == len(evs)
        keys = [principal_sort_key(i) for i in evs]
        assert all(a > b for a, b in zip(keys, keys[1:]))

    def test_counts_match_bruteforce(self):
        def brute(max_w2, max_len):
            top = 2 * max_w2 + 2
            count = 0

            def walk(slot, w2, ln):
                nonlocal count
                if slot > top:
                    count += 1
                    return
                sw = slot_weight2(slot)
                e = 0
                while ln + e <= max_len and w2 + sw * e <= max_w2:
                    walk(slot + 1, w2 + sw * e, ln + e)
                    e += 1

            walk(1, 0, 0)
            return count

        for bounds in ((1, 2), (2, 2), (4, 3), (6, 4), (0, 5)):
            assert len(enumerate_vectors(*bounds)) == brute(*bounds)

    def test_rejects_negative_bounds(self):
        with pytest.raises(ValueError):
            enumerate_vectors(-1, 2)

    def test_slot_count_past_the_recursion_limit(self):
        assert enumerate_vectors(2 * sys.getrecursionlimit(), 0) == [ZERO_VECTOR]

    @pytest.mark.parametrize("slots, max_w2, max_len", [
        ([(1, 1, 3), (2, 0, 3), (3, 3, 3), (4, 1, 3)], 4, 3),
        ([(2, 0, 2), (5, 5, 1), (6, 2, 4)], 7, 4),
        ([(1, 1, 0), (3, 3, 2)], 6, 5),
    ])
    def test_walk_order_is_depth_first(self, slots, max_w2, max_len):
        def depth_first(rest, left_w2, left_len):
            if not rest:
                return [()]
            (slot, w2, cap), rest = rest[0], rest[1:]
            out = []
            e = 0
            while e <= min(cap, left_len) and w2 * e <= left_w2:
                head = ((slot, e),) if e else ()
                out += [head + tail for tail in depth_first(rest, left_w2 - w2 * e,
                                                           left_len - e)]
                e += 1
            return out

        want = [ExponentVector(items) for items in depth_first(slots, max_w2, max_len)]
        assert walk_vectors(slots, max_w2, max_len) == want


class TestMinSlotAndText:
    def test_min_nonzero_slot(self):
        assert ev((3, 1)).min_nonzero_slot() == 3
        assert ZERO_VECTOR.min_nonzero_slot() is None
        assert (ev((2, 1)) + ev((5, 1))).min_nonzero_slot() == 2

    def test_text_roundtrip(self):
        for text in ("{1:2,4:1}", "{}", "{2:1}"):
            assert str(parse_exponent_vector(text)) == text
        assert parse_exponent_vector("{1:2, 4:1}") == ev((1, 2), (4, 1))

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="bad exponent vector '1:2'"):
            parse_exponent_vector("1:2")
        with pytest.raises(ValueError, match="slots are indexed from 1, got 0"):
            parse_exponent_vector("{0:1}")
        with pytest.raises(ValueError, match="negative exponent -2 in slot 1"):
            parse_exponent_vector("{1:-2}")

    def test_bump_validation(self):
        with pytest.raises(ValueError):
            ZERO_VECTOR.bump(1, -1)
        assert ev((1, 1)).bump(1, -1) == ZERO_VECTOR


class TestInterning:
    """Equal entries make one object, whatever builds it, so equality and
    hashing can be those of identity."""

    def test_identity_equality_and_hashing(self):
        assert ExponentVector.__eq__ is object.__eq__
        assert ExponentVector.__hash__ is object.__hash__

    def test_every_builder_returns_the_one_vector(self):
        want = ev((1, 2), (4, 1))
        assert ExponentVector([(4, 1), (3, 0), (1, 2)]) is want
        assert ExponentVector({1: 2, 4: 1}.items()) is want
        assert ev((1, 2)).bump(4, 1) is want
        assert ev((1, 3), (4, 1)).bump(1, -1) is want
        assert ev((1, 2)) + ev((4, 1)) is want
        assert ev((1, 1)) + ev((4, 1)) + ev((1, 1)) is want
        assert parse_exponent_vector("{1:2,4:1}") is want
        assert parse_exponent_vector("{ 4:1, 1:2 }") is want
        assert [v for v in enumerate_vectors(3, 3) if v.entries == want.entries] == [want]
        assert ExponentVector(()) is ZERO_VECTOR is parse_exponent_vector("{}")
        assert ev((2, 1)).bump(2, -1) is ZERO_VECTOR

    def test_enumerated_vectors_are_the_interned_ones(self):
        for v in enumerate_vectors(6, 3):
            assert ExponentVector(v.entries) is v
            assert parse_exponent_vector(str(v)) is v
        for v in walk_vectors([(1, 1, 2), (4, 1, 1)], 3, 3):
            assert ExponentVector(dict(v.entries).items()) is v

    @given(small_evs, st.integers(1, 8), st.integers(-3, 3))
    def test_bump_is_interned_and_a_refused_bump_raises_again(self, v, slot, delta):
        entries = dict(v.entries)
        new = entries.get(slot, 0) + delta
        if new < 0:
            for _ in range(2):
                with pytest.raises(ValueError):
                    v.bump(slot, delta)
            return
        entries[slot] = new
        want = ExponentVector(entries.items())
        assert v.bump(slot, delta) is want
        assert v.bump(slot, delta) is v.bump(slot, delta)

    @given(small_evs, small_evs)
    def test_sum_is_interned(self, i, j):
        entries = dict(i.entries)
        for s, e in j.entries:
            entries[s] = entries.get(s, 0) + e
        assert i + j is ExponentVector(entries.items()) is j + i
