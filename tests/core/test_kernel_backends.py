"""The pluggable kernel backend layer: dispatch semantics, and the
numpy backend's bit-identical equivalence with the stdlib oracle across
all three frozen families, every attach mode, and the edge cases
(unreachable pairs, infeasible thresholds, empty label sides, the
high-cardinality-w delegation path)."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings

from tests.helpers import random_graph, thresholds_for
from tests.test_properties import (
    QUERY_CONSTRAINTS,
    quality_digraphs,
    quality_graphs,
    quality_weighted_graphs,
)

from repro.core import (
    BACKEND_CHOICES,
    DirectedWCIndex,
    KernelBackend,
    KernelUnavailableError,
    WeightedWCIndex,
    attach_frozen,
    available_backends,
    build_wc_index_plus,
    default_backend_name,
    numpy_available,
    resolve_backend,
    save_frozen,
)
from repro.core import kernels as kernels_module
from repro.graph.generators import gnm_random_graph

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)


@pytest.fixture
def no_numpy(monkeypatch):
    """Simulate a machine without numpy: the single availability probe
    answers None and the instance cache is cleared for the test."""
    monkeypatch.setattr(kernels_module, "_load_numpy", lambda: None)
    monkeypatch.setattr(kernels_module, "_INSTANCES", {})


class TestDispatch:
    def test_choices_cover_both_backends(self):
        assert BACKEND_CHOICES == ("auto", "stdlib", "numpy")

    def test_stdlib_always_available(self):
        assert available_backends()[0] == "stdlib"
        assert resolve_backend("stdlib").name == "stdlib"

    def test_instances_are_shared(self):
        assert resolve_backend("stdlib") is resolve_backend("stdlib")

    def test_auto_and_none_resolve_to_default(self):
        default = default_backend_name()
        assert resolve_backend(None).name == default
        assert resolve_backend("auto").name == default

    def test_instance_passes_through(self):
        backend = resolve_backend("stdlib")
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            resolve_backend("fortran")

    @needs_numpy
    def test_numpy_detected_when_installed(self):
        assert available_backends() == ("stdlib", "numpy")
        assert default_backend_name() == "numpy"
        assert resolve_backend("numpy").name == "numpy"

    def test_without_numpy_auto_falls_back(self, no_numpy):
        assert not kernels_module.numpy_available()
        assert kernels_module.available_backends() == ("stdlib",)
        assert kernels_module.default_backend_name() == "stdlib"
        assert kernels_module.resolve_backend("auto").name == "stdlib"

    def test_without_numpy_explicit_numpy_fails_fast(self, no_numpy):
        with pytest.raises(KernelUnavailableError, match="not available"):
            kernels_module.resolve_backend("numpy")

    def test_abstract_backend_is_abstract(self):
        backend = KernelBackend()
        with pytest.raises(NotImplementedError):
            backend.prepare_side(None)
        with pytest.raises(NotImplementedError):
            backend.batch([], None, None, 0)


class TestEngineSelection:
    def test_freeze_reports_backend(self):
        graph = random_graph(0)
        frozen = build_wc_index_plus(graph, "degree").freeze(
            backend="stdlib"
        )
        assert frozen.kernel_backend == "stdlib"

    def test_auto_freeze_picks_default(self):
        graph = random_graph(1)
        frozen = build_wc_index_plus(graph, "degree").freeze()
        assert frozen.kernel_backend == default_backend_name()

    @needs_numpy
    def test_select_backend_switches_and_chains(self):
        graph = random_graph(2)
        frozen = build_wc_index_plus(graph, "degree").freeze(
            backend="stdlib"
        )
        queries = [
            (s, t, w)
            for s in range(graph.num_vertices)
            for t in range(graph.num_vertices)
            for w in thresholds_for(graph)
        ]
        expected = frozen.distance_many(queries)
        assert frozen.select_backend("numpy") is frozen
        assert frozen.kernel_backend == "numpy"
        assert frozen.distance_many(queries) == expected

    def test_explicit_numpy_without_numpy_fails_at_freeze(self, no_numpy):
        graph = random_graph(3)
        index = build_wc_index_plus(graph, "degree")
        with pytest.raises(KernelUnavailableError):
            index.freeze(backend="numpy")


def all_queries(num_vertices, thresholds):
    return [
        (s, t, w)
        for s in range(num_vertices)
        for t in range(num_vertices)
        for w in thresholds
    ]


def force_vectorized():
    """Keep batches of any size on the vectorized path (small ones are
    otherwise routed to the stdlib kernels)."""
    from repro.core.kernels import numpy_backend

    return mock.patch.object(numpy_backend, "_MIN_NUMPY_BATCH", 1)


@pytest.fixture
def vectorized():
    with force_vectorized():
        yield


def assert_backends_agree(index):
    """Freeze once per backend and require bit-identical batches —
    including the unreachable pairs (INF) the sparse strategies
    produce and thresholds above every quality (empty feasible sets)."""
    stdlib_engine = index.freeze(backend="stdlib")
    numpy_engine = index.freeze(backend="numpy")
    queries = all_queries(index.num_vertices, QUERY_CONSTRAINTS)
    with force_vectorized():
        numpy_answers = numpy_engine.distance_many(queries)
    assert numpy_answers == stdlib_engine.distance_many(queries)


@needs_numpy
class TestNumpyEquivalence:
    @settings(max_examples=25)
    @given(quality_graphs())
    def test_undirected(self, graph):
        assert_backends_agree(build_wc_index_plus(graph, "degree"))

    @settings(max_examples=20)
    @given(quality_digraphs())
    def test_directed(self, graph):
        assert_backends_agree(DirectedWCIndex(graph))

    @settings(max_examples=20)
    @given(quality_weighted_graphs())
    def test_weighted(self, graph):
        assert_backends_agree(WeightedWCIndex(graph))

    def test_empty_batch(self):
        frozen = build_wc_index_plus(random_graph(4), "degree").freeze(
            backend="numpy"
        )
        assert frozen.distance_many([]) == []

    def test_single_vertex_no_edges(self, vectorized):
        from repro.graph.graph import Graph

        frozen = build_wc_index_plus(Graph(1), "degree").freeze(
            backend="numpy"
        )
        assert frozen.distance_many([(0, 0, 1.0)]) == [0.0]

    def test_out_of_range_matches_stdlib_message(self, vectorized):
        index = build_wc_index_plus(random_graph(5), "degree")
        queries = [(0, 0, 1.0), (0, index.num_vertices, 1.0)]
        with pytest.raises(ValueError) as stdlib_err:
            index.freeze(backend="stdlib").distance_many(queries)
        with pytest.raises(ValueError) as numpy_err:
            index.freeze(backend="numpy").distance_many(queries)
        assert str(numpy_err.value) == str(stdlib_err.value)

    def test_negative_vertex_rejected(self, vectorized):
        frozen = build_wc_index_plus(random_graph(6), "degree").freeze(
            backend="numpy"
        )
        with pytest.raises(ValueError, match="out of range"):
            frozen.distance_many([(-1, 0, 1.0)])

    def test_small_batches_route_to_stdlib(self, monkeypatch):
        # Below the crossover the whole batch goes to the stdlib kernel
        # (bit-identical answers); at or above it, numpy keeps it.
        from repro.core.kernels import numpy_backend

        crossover = numpy_backend._MIN_NUMPY_BATCH
        assert crossover == 32
        index = build_wc_index_plus(
            gnm_random_graph(40, 120, seed=11, num_qualities=4), "degree"
        )
        rng = random.Random(5)
        batches = {
            size: [
                (rng.randrange(40), rng.randrange(40), rng.choice((1.0, 2.5)))
                for _ in range(size)
            ]
            for size in (1, 16, crossover - 1, crossover, 128)
        }
        expected = {
            size: index.freeze(backend="stdlib").distance_many(queries)
            for size, queries in batches.items()
        }
        numpy_engine = index.freeze(backend="numpy")
        stdlib = resolve_backend("stdlib")
        routed = []
        real_batch = stdlib.batch

        def spy(queries, *args):
            routed.append(len(queries))
            return real_batch(queries, *args)

        monkeypatch.setattr(stdlib, "batch", spy)
        for size, queries in batches.items():
            del routed[:]
            assert numpy_engine.distance_many(queries) == expected[size]
            assert routed == ([size] if size < crossover else [])

    def test_high_cardinality_w_delegates_identically(self):
        # One distinct threshold per query defeats the per-w slice
        # cache, so the backend hands the whole batch to stdlib — the
        # answers must not change.
        graph = gnm_random_graph(40, 120, seed=11, num_qualities=4)
        index = build_wc_index_plus(graph, "degree")
        rng = random.Random(13)
        queries = [
            (rng.randrange(40), rng.randrange(40), 1.0 + rng.random() * 3)
            for _ in range(300)
        ]
        assert len({w for _, _, w in queries}) > 64
        assert index.freeze(backend="numpy").distance_many(queries) == (
            index.freeze(backend="stdlib").distance_many(queries)
        )

    def test_infinite_threshold(self):
        # w = inf: no finite quality is feasible, every group is empty.
        index = build_wc_index_plus(random_graph(7), "degree")
        queries = all_queries(index.num_vertices, (float("inf"),))
        numpy_answers = index.freeze(backend="numpy").distance_many(
            queries
        )
        assert numpy_answers == index.freeze(
            backend="stdlib"
        ).distance_many(queries)
        assert all(
            d == (0.0 if s == t else float("inf"))
            for (s, t, _), d in zip(queries, numpy_answers)
        )

    def test_attach_release_after_numpy_queries(self):
        # The numpy side state holds frombuffer exports over the
        # attached views; release() must drop them first or the
        # memoryview release raises BufferError.
        import io

        index = build_wc_index_plus(random_graph(8), "degree")
        buffer = io.BytesIO()
        save_frozen(index.freeze(), buffer)
        engine = attach_frozen(buffer.getvalue(), backend="numpy")
        queries = all_queries(index.num_vertices, (1.0, 2.0, 3.0))
        assert engine.distance_many(queries) == index.freeze(
            backend="stdlib"
        ).distance_many(queries)
        engine.release()
