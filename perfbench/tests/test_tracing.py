"""Self-time and unattributed-time arithmetic, and span nesting."""

import asyncio

import pytest

from tracing import Span, Tracer, self_times, unattributed, union_length


def span(i, start, end, parent=None, name="bfs.bfs"):
    return Span(i, name, start, end, parent=parent)


def test_union_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 5), (7, 8)]) == 5
    assert union_length([(0, 10), (2, 3)]) == 10
    assert union_length([(-5, 2), (8, 15)], 0, 10) == 4
    assert union_length([]) == 0


def test_self_time_subtracts_union_of_children():
    spans = [
        span(1, 0, 10, name="core.fdiam"),
        span(2, 1, 3, parent=1),
        span(3, 2, 5, parent=1),  # overlaps child 2 (other thread)
        span(4, 7, 8, parent=1),
        span(5, 7.5, 7.75, parent=4, name="store.gather_rows"),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10 - 5)
    assert selfs[2] == pytest.approx(2)
    assert selfs[4] == pytest.approx(0.75)
    assert selfs[5] == pytest.approx(0.25)
    # Self times of a properly nested tree add up to the root's duration.
    assert sum(selfs[i] for i in (1, 4, 5)) + union_length([(1, 3), (2, 5)]) == pytest.approx(10)


def test_self_time_clips_children_that_outlive_the_parent():
    spans = [span(1, 0, 4, name="service.submit"), span(2, 3, 9, parent=1)]
    assert self_times(spans)[1] == pytest.approx(3)


def test_unattributed_is_window_minus_covered_time():
    spans = [span(1, 0, 10), span(2, 2, 4, parent=1), span(3, 12, 15)]
    assert unattributed(spans, 0, 20) == pytest.approx(20 - 13)
    assert unattributed(spans, 11, 13) == pytest.approx(1)
    assert unattributed([], 0, 2) == pytest.approx(2)


def test_wrapped_calls_nest_and_share_request_ids():
    tracer = Tracer()

    def inner(x):
        return x + 1

    inner_w = tracer.wrap(inner, "bfs.inner")

    async def outer(x):
        await asyncio.sleep(0)
        return inner_w(x)

    outer_w = tracer.wrap(outer, "service.outer", new_request=True)

    async def main():
        return await asyncio.gather(outer_w(1), outer_w(2))

    assert asyncio.run(main()) == [2, 3]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    outers = {s.id: s for s in by_name["service.outer"]}
    assert len(outers) == 2 and len(by_name["bfs.inner"]) == 2
    assert len({s.request for s in outers.values()}) == 2
    for child in by_name["bfs.inner"]:
        parent = outers[child.parent]
        assert child.request == parent.request
        assert parent.start <= child.start <= child.end <= parent.end


def test_hook_reads_results_and_unpatch_restores():
    class Thing:
        def work(self, n):
            return list(range(n))

    tracer = Tracer()

    def hook(span, args, kwargs):
        def after(result):
            span.attrs["items"] = len(result)
        return after

    original = Thing.work
    tracer.patch_method(Thing, "work", "bfs.work", hook=hook)
    assert Thing().work(3) == [0, 1, 2]
    assert tracer.spans[0].attrs == {"items": 3}
    tracer.unpatch()
    assert Thing.work is original
