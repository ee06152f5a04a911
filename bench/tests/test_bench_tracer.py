"""Tracer: rebinding at import sites, self time, hook accounting."""

import importlib
import sys
import textwrap

import pytest

from tracer import HOOK_SPAN, Tracer, self_times, summarize


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    """A package whose module ``b`` imports ``a.leaf`` by name."""
    root = tmp_path / "fakepkg"
    root.mkdir()
    (root / "__init__.py").write_text("from .a import leaf\n")
    (root / "a.py").write_text(textwrap.dedent("""
        CLOCK = None

        def leaf():
            CLOCK.t += 3.0
            return "leaf"

        def _private():
            return leaf()

        class Thing:
            def method(self):
                return leaf()
    """))
    (root / "b.py").write_text(textwrap.dedent("""
        from . import a
        from .a import leaf

        def caller():
            a.CLOCK.t += 2.0
            out = leaf()
            a.CLOCK.t += 1.0
            return out
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    pkg = importlib.import_module("fakepkg")
    importlib.import_module("fakepkg.b")
    clock = FakeClock()
    importlib.import_module("fakepkg.a").CLOCK = clock
    yield pkg, clock
    for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
        del sys.modules[name]


def test_rebinds_at_every_import_site_and_restores(fakepkg):
    pkg, clock = fakepkg
    a, b = pkg.a, pkg.b
    originals = (a.leaf, b.leaf, pkg.leaf, b.caller)
    tracer = Tracer(pkg, clock=clock)
    assert tracer.traced_names == ["fakepkg.a.leaf", "fakepkg.b.caller"]
    with tracer:
        assert a.leaf is b.leaf is pkg.leaf
        assert a.leaf is not originals[0]
        b.caller()
        pkg.a.Thing().method()  # methods are not wrapped, the leaf they call is
        a._private()  # private functions are not wrapped
    assert (a.leaf, b.leaf, pkg.leaf, b.caller) == originals
    names = [s.name for s in tracer.spans]
    assert names == ["fakepkg.a.leaf", "fakepkg.b.caller", "fakepkg.a.leaf", "fakepkg.a.leaf"]
    leaf, caller = tracer.spans[0], tracer.spans[1]
    assert leaf.parent == caller.id and caller.parent is None
    assert (leaf.layer, caller.layer) == ("a", "b")


def test_self_time_excludes_children(fakepkg):
    pkg, clock = fakepkg
    tracer = Tracer(pkg, clock=clock)
    with tracer:
        pkg.b.caller()
    own = self_times(tracer.spans)
    leaf, caller = tracer.spans
    assert own[leaf.id] == 3.0
    assert own[caller.id] == 3.0  # 6 s inclusive minus the 3 s child
    layers, funcs = summarize(tracer.spans)
    assert layers["a"] == {"calls": 1, "self_s": 3.0}
    assert layers["b"] == {"calls": 1, "self_s": 3.0}
    assert funcs["fakepkg.b.caller"]["incl_s"] == 6.0


def test_hook_time_is_no_layer_s_self_time(fakepkg):
    pkg, clock = fakepkg

    def slow_hook(counters, args, result):
        clock.t += 5.0
        counters.add("leaves")
        counters.seen("results", result)

    tracer = Tracer(pkg, hooks={"fakepkg.a.leaf": slow_hook}, clock=clock)
    with tracer:
        pkg.b.caller()
        pkg.b.caller()
    layers, funcs = summarize(tracer.spans)
    assert layers["b"]["self_s"] == 6.0
    assert layers["trace"] == {"calls": 2, "self_s": 10.0}
    assert [s.name for s in tracer.spans].count(HOOK_SPAN) == 2
    assert tracer.counters.sums["leaves"] == 2
    assert tracer.counters.distinct("results") == 1


def test_hook_for_untraced_name_is_rejected(fakepkg):
    pkg, _ = fakepkg
    with pytest.raises(ValueError):
        Tracer(pkg, hooks={"fakepkg.a._private": lambda c, a, r: None})


def test_real_package_import_sites():
    import zenochain
    from zenochain import experiments, protocols, stochastics
    from layers import HOOKS

    original = protocols.run_projective
    tracer = Tracer(zenochain, HOOKS)
    with tracer:
        assert experiments.run_projective is protocols.run_projective is zenochain.run_projective
        assert experiments.run_projective is not original
        assert stochastics.SeededSampler.uniform.__module__ == "zenochain.stochastics"
        assert not hasattr(stochastics.SeededSampler.uniform, "__wrapped__")
    assert experiments.run_projective is original
