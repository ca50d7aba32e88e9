"""IndexedPriorityQueue: heap + position-map invariants vs a brute-force model.

The queue is the scheduling core of the Gibson–Bruck next-reaction engine
(``engine="nrm"``): it must deliver the true minimum putative firing time
after any interleaving of inserts, key updates (both directions), and pops.
The property tests drive random operation sequences against a dict-backed
model and check the structural invariants after every single operation.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import IndexedPriorityQueue


def check_invariants(queue):
    """The structural contract: heap order plus a consistent position map."""
    heap, keys, pos = queue._heap, queue._keys, queue._pos
    # Position map: pos[item] == slot for live items, -1 for popped ones.
    for slot, item in enumerate(heap):
        assert pos[item] == slot, f"pos[{item}]={pos[item]} but heap[{slot}]={item}"
    live = sum(1 for p in pos if p >= 0)
    assert live == len(heap), "position map counts a different live set than the heap"
    # Heap order: every parent key <= both child keys.
    for slot in range(1, len(heap)):
        parent = (slot - 1) >> 1
        assert keys[heap[parent]] <= keys[heap[slot]], (
            f"heap violation at slot {slot}: parent key {keys[heap[parent]]} > "
            f"child key {keys[heap[slot]]}"
        )


finite_keys = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
keys_with_inf = st.one_of(finite_keys, st.just(math.inf))


class TestBasics:
    def test_construction_heapifies(self):
        queue = IndexedPriorityQueue([5.0, 1.0, 3.0, 0.5, 2.0])
        check_invariants(queue)
        assert len(queue) == 5
        assert queue.top() == (3, 0.5)
        assert queue.key(0) == 5.0

    def test_empty_queue(self):
        queue = IndexedPriorityQueue()
        assert len(queue) == 0
        assert not queue
        assert 0 not in queue
        with pytest.raises(IndexError):
            queue.top()
        with pytest.raises(IndexError):
            queue.pop()

    def test_push_assigns_dense_ids(self):
        queue = IndexedPriorityQueue([2.0])
        assert queue.push(1.0) == 1
        assert queue.push(3.0) == 2
        assert queue.top() == (1, 1.0)
        check_invariants(queue)

    def test_pop_retires_the_item_id(self):
        queue = IndexedPriorityQueue([2.0, 1.0])
        assert queue.pop() == (1, 1.0)
        assert 1 not in queue and 0 in queue
        with pytest.raises(KeyError):
            queue.update(1, 0.0)
        with pytest.raises(KeyError):
            queue.key(1)
        # Ids are never reused: the next push continues the sequence.
        assert queue.push(0.5) == 2
        check_invariants(queue)

    def test_update_both_directions(self):
        queue = IndexedPriorityQueue([1.0, 2.0, 3.0, 4.0])
        queue.update(3, 0.5)  # decrease-key: new minimum
        check_invariants(queue)
        assert queue.top() == (3, 0.5)
        queue.update(3, 10.0)  # increase-key: sinks back down
        check_invariants(queue)
        assert queue.top() == (0, 1.0)

    def test_inf_keys_park_at_the_bottom(self):
        queue = IndexedPriorityQueue([math.inf, 2.0, math.inf])
        assert queue.top() == (1, 2.0)
        queue.update(1, math.inf)
        check_invariants(queue)
        assert queue.top()[1] == math.inf  # all parked: NRM reads this as silent
        queue.update(2, 0.25)  # re-enabled reaction
        assert queue.top() == (2, 0.25)

    def test_unknown_item_raises(self):
        queue = IndexedPriorityQueue([1.0])
        for bad in (-1, 5):
            with pytest.raises(KeyError):
                queue.update(bad, 0.0)
            with pytest.raises(KeyError):
                queue.key(bad)


class TestPropertyBased:
    """Random operation sequences vs the obvious dict model."""

    @given(
        st.lists(keys_with_inf, min_size=0, max_size=12),
        st.lists(
            st.tuples(st.sampled_from(["push", "pop", "update"]), st.integers(0, 2**32), keys_with_inf),
            max_size=60,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_against_brute_force_model(self, initial, operations):
        queue = IndexedPriorityQueue(initial)
        model = dict(enumerate(initial))
        check_invariants(queue)
        for op, selector, key in operations:
            if op == "push":
                item = queue.push(key)
                assert item not in model, "push reused a live/retired id"
                model[item] = key
            elif op == "pop":
                if not model:
                    with pytest.raises(IndexError):
                        queue.pop()
                    continue
                item, popped_key = queue.pop()
                assert popped_key == model[item]
                assert popped_key == min(model.values())
                del model[item]
            else:  # update a pseudo-random live item
                if not model:
                    continue
                live = sorted(model)
                item = live[selector % len(live)]
                queue.update(item, key)
                model[item] = key
            check_invariants(queue)
            # The queryable state matches the model exactly.
            assert len(queue) == len(model)
            for item, want in model.items():
                assert item in queue
                assert queue.key(item) == want
            if model:
                top_item, top_key = queue.top()
                assert top_key == min(model.values())
                assert model[top_item] == top_key

    @given(st.lists(finite_keys, min_size=1, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_heapsort_drains_in_sorted_order(self, keys):
        queue = IndexedPriorityQueue(keys)
        drained = []
        while queue:
            check_invariants(queue)
            drained.append(queue.pop()[1])
        assert drained == sorted(keys)

    @given(
        st.lists(finite_keys, min_size=2, max_size=16),
        st.lists(st.tuples(st.integers(0, 2**32), finite_keys), min_size=1, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_update_storms_preserve_the_minimum(self, keys, updates):
        # The NRM access pattern: a fixed item set, keys rewritten in place.
        queue = IndexedPriorityQueue(keys)
        current = list(keys)
        for selector, key in updates:
            item = selector % len(current)
            queue.update(item, key)
            current[item] = key
            check_invariants(queue)
            top_item, top_key = queue.top()
            assert top_key == min(current)
            assert current[top_item] == top_key


def legacy_repair(queue, item, key):
    """The pre-directional repair: write the key, sift up, then sift down."""
    queue._keys[item] = key
    queue._sift_up(queue._pos[item])
    queue._sift_down(queue._pos[item])


#: Few distinct values, so equal keys (and the tie-breaking they exercise)
#: are common.
tied_keys = st.one_of(st.integers(0, 6).map(float), st.just(math.inf))


class TestDirectionalRekey:
    """``_rekey`` sifts one way only, yet must leave the exact layout the old
    sift-up-then-sift-down repair did: ties are broken by position, so seeded
    NRM streams depend on the layout, not just on the heap order."""

    @given(
        st.lists(tied_keys, min_size=1, max_size=24),
        st.lists(st.tuples(st.integers(0, 2**32), tied_keys), min_size=1, max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_layout_matches_legacy_repair(self, keys, updates):
        ours = IndexedPriorityQueue(keys)
        legacy = IndexedPriorityQueue(keys)
        for selector, key in updates:
            item = selector % len(keys)
            ours._rekey(item, key)
            legacy_repair(legacy, item, key)
            assert ours._heap == legacy._heap
            assert ours._pos == legacy._pos
            assert ours._keys == legacy._keys
            check_invariants(ours)

    @given(st.lists(tied_keys, min_size=1, max_size=24), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_equal_key_leaves_layout_untouched(self, keys, selector):
        queue = IndexedPriorityQueue(keys)
        item = selector % len(keys)
        heap, pos = list(queue._heap), list(queue._pos)
        queue._rekey(item, queue._keys[item])
        assert queue._heap == heap
        assert queue._pos == pos
