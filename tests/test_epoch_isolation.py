"""Cross-traversal isolation of the shared visit-counter array.

F-Diam threads ONE VisitMarks instance through thousands of
heterogeneous traversals (full BFS, winnow partial BFS, eliminate
partial BFS, multi-source extensions). The counter trick's guarantee is
that no traversal can ever observe another's marks. These tests
interleave every traversal type aggressively and compare against
fresh-marks runs.
"""

import numpy as np

from conftest import random_gnp
from repro.bfs import TraversalKernel, VisitMarks, Workspace, serial_bfs


def shared_kernel(graph, marks):
    """A kernel whose workspace runs on the caller's ``marks``."""
    return TraversalKernel(
        graph, workspace=Workspace(graph.num_vertices, marks=marks)
    )


class TestSharedMarksEquivalence:
    def test_interleaved_traversals_match_fresh_marks(self):
        g, _ = random_gnp(60, 0.08, 91)
        shared = VisitMarks(60)
        kernel = shared_kernel(g, shared)
        rng = np.random.default_rng(5)

        for _ in range(50):
            kind = rng.integers(0, 4)
            v = int(rng.integers(0, 60))
            if kind == 0:
                a = kernel.bfs(v)
                b = TraversalKernel(g).bfs(v)
                assert a.eccentricity == b.eccentricity
                assert a.visited_count == b.visited_count
            elif kind == 1:
                cap = int(rng.integers(0, 5))
                a = kernel.levels([v], cap)
                b = TraversalKernel(g).levels([v], cap)
                assert len(a) == len(b)
                for la, lb in zip(a, b):
                    assert (la == lb).all()
            elif kind == 2:
                r = int(rng.integers(0, 4))
                assert (kernel.ball(v, r) == TraversalKernel(g).ball(v, r)).all()
            else:
                a = serial_bfs(g, v, shared)
                b = serial_bfs(g, v)
                assert a.eccentricity == b.eccentricity

    def test_serial_then_vectorized_same_marks(self):
        # The serial engine snapshots the marks into a Python list; a
        # following vectorized traversal on the same marks must still be
        # correct (the epoch bump invalidates everything regardless).
        g, _ = random_gnp(40, 0.12, 92)
        marks = VisitMarks(40)
        kernel = shared_kernel(g, marks)
        for v in range(0, 40, 5):
            s = serial_bfs(g, v, marks)
            p = kernel.bfs(v)
            assert s.eccentricity == p.eccentricity

    def test_thousands_of_epochs(self):
        g, _ = random_gnp(25, 0.15, 93)
        marks = VisitMarks(25)
        kernel = shared_kernel(g, marks)
        expected = TraversalKernel(g).bfs(0).eccentricity
        for _ in range(2000):
            assert kernel.bfs(0).eccentricity == expected
        assert marks.counter == 2000
