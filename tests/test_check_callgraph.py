"""Call-graph construction and resolution tests."""

import textwrap

from repro.check.engine import parse


def graph_of(**modules: str):
    return parse([(rel, rel, textwrap.dedent(src)) for rel, src in modules.items()]).callgraph()


def edge_keys(graph, caller: str) -> set[str]:
    return {site.callee for site in graph.callees(caller)}


def test_same_module_function_call():
    graph = graph_of(
        **{
            "m.py": """
            def helper():
                pass

            def caller():
                helper()
            """
        }
    )
    assert edge_keys(graph, "m.py::caller") == {"m.py::helper"}


def test_imported_function_resolves_cross_module():
    graph = graph_of(
        **{
            "a.py": """
            def work():
                pass
            """,
            "b.py": """
            from repro.a import work

            def caller():
                work()
            """,
        }
    )
    assert edge_keys(graph, "b.py::caller") == {"a.py::work"}


def test_import_alias_resolves():
    graph = graph_of(
        **{
            "a.py": """
            def work():
                pass
            """,
            "b.py": """
            from repro.a import work as w

            def caller():
                w()
            """,
        }
    )
    assert edge_keys(graph, "b.py::caller") == {"a.py::work"}


def test_self_method_resolution():
    graph = graph_of(
        **{
            "m.py": """
            class C:
                def run(self):
                    self.step()

                def step(self):
                    pass
            """
        }
    )
    assert edge_keys(graph, "m.py::C.run") == {"m.py::C.step"}


def test_inherited_method_resolves_through_base():
    graph = graph_of(
        **{
            "m.py": """
            class Base:
                def step(self):
                    pass

            class Child(Base):
                def run(self):
                    self.step()
            """
        }
    )
    assert edge_keys(graph, "m.py::Child.run") == {"m.py::Base.step"}


def test_instantiation_links_to_init():
    graph = graph_of(
        **{
            "m.py": """
            class C:
                def __init__(self):
                    pass

            def make():
                return C()
            """
        }
    )
    assert edge_keys(graph, "m.py::make") == {"m.py::C.__init__"}


def test_duck_resolution_links_all_candidates():
    graph = graph_of(
        **{
            "a.py": """
            class A:
                def flush(self):
                    pass
            """,
            "b.py": """
            class B:
                def flush(self):
                    pass
            """,
            "c.py": """
            def caller(obj):
                obj.flush()
            """,
        }
    )
    # The receiver's type is unknown: both definitions are candidates.
    assert edge_keys(graph, "c.py::caller") == {"a.py::A.flush", "b.py::B.flush"}


def test_bound_alias_resolves_to_method():
    graph = graph_of(
        **{
            "m.py": """
            class C:
                def _evict_frame(self, pid):
                    pass

                def sweep(self):
                    evict = self._evict_frame
                    evict(1)
            """
        }
    )
    assert "m.py::C._evict_frame" in edge_keys(graph, "m.py::C.sweep")


def test_bound_alias_does_not_borrow_an_import_of_the_same_name():
    # An import binds the name as spelled at the call site (``go``), not
    # the attribute the local alias stands for (``work``): the aliased
    # call stays a duck call over every ``work`` definition.
    graph = graph_of(
        **{
            "a.py": """
            def work():
                pass
            """,
            "c.py": """
            class K:
                def work(self):
                    pass
            """,
            "b.py": """
            from repro.a import work

            class B:
                def run(self):
                    go = self.k.work
                    go()
            """,
        }
    )
    assert edge_keys(graph, "b.py::B.run") == {"a.py::work", "c.py::K.work"}


def test_callable_passed_as_argument_is_not_an_edge():
    # The scheduler seam: registering a runner must NOT create a call
    # edge — RL101 relies on this to bless scheduler-routed maintenance.
    graph = graph_of(
        **{
            "m.py": """
            class C:
                def _pass(self):
                    pass

                def setup(self, scheduler):
                    scheduler.register("task", self._pass)
            """
        }
    )
    assert "m.py::C._pass" not in edge_keys(graph, "m.py::C.setup")


def test_partial_wrapped_registration_is_an_edge():
    # partial(self.m, ...) handed to scheduler.register keeps m reachable:
    # the wrap site records a may-call edge even though no direct call
    # expression exists (the RL101 tightening of satellite work).
    graph = graph_of(
        **{
            "m.py": """
            from functools import partial

            class C:
                def _compact(self, level):
                    pass

                def setup(self, scheduler):
                    scheduler.register("compact", partial(self._compact, 0))
            """
        }
    )
    assert "m.py::C._compact" in edge_keys(graph, "m.py::C.setup")


def test_partial_bound_alias_resolves_on_call():
    graph = graph_of(
        **{
            "m.py": """
            from functools import partial

            class C:
                def _evict_frame(self, pid):
                    pass

                def sweep(self):
                    evict = partial(self._evict_frame, 1)
                    evict()
            """
        }
    )
    assert "m.py::C._evict_frame" in edge_keys(graph, "m.py::C.sweep")


def test_partial_over_subscript_receiver_stays_unresolved():
    # The shard pool seam: partial(self.shards[sid].put_many, ...) has a
    # subscript receiver, so the wrapped callable cannot be chained — no
    # edge, matching the pool's deliberate opacity.
    graph = graph_of(
        **{
            "m.py": """
            from functools import partial

            class Shard:
                def put_many(self, kvs):
                    pass

            class Router:
                def put_many(self, kvs):
                    thunk = partial(self.shards[0].put_many, kvs)
                    return thunk
            """
        }
    )
    assert edge_keys(graph, "m.py::Router.put_many") == set()
