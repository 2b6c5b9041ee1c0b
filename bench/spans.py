"""Call-site tracing for the benchmark's traced run.

The tracer replaces functions at the sites where one rcaudit module
imports another module's public function (``rcaudit.exact.is_rainbow_connected``
is the verifier as the exact solver sees it, ``rcaudit.construct.is_rainbow_connected``
the same function as the construction sees it). Each call through a
wrapped site is a span with a parent: the innermost wrapped call open when
it started. Spans are aggregated in memory as they close, per site and
per (parent site, site) edge, rather than stored one by one: the
exhaustive sweep makes millions of them.

A span's self time is its duration minus the durations of its direct
child spans, so the self times of all spans under one root add up to the
root's duration exactly. Each site belongs to the layer (module) that
defines the wrapped function.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

ROOT_SITE = "rcaudit.cli.main"

CALLER_MODULES = (
    "rcaudit.cli",
    "rcaudit.audit",
    "rcaudit.construct",
    "rcaudit.exact",
    "rcaudit.rainbow",
)


@dataclass
class SiteStats:
    layer: str
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


@dataclass
class Tracer:
    """Span bookkeeping with a replaceable clock (the self-test drives it
    with a fake one)."""

    clock: Callable[[], float] = time.perf_counter
    sites: dict[str, SiteStats] = field(default_factory=dict)
    edges: dict[tuple[str, str], list] = field(default_factory=dict)
    observers: dict[str, Callable] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # each open span is [child_time, site]; the bottom entry collects roots
        self._stack: list[list] = [[0.0, None]]

    def reset(self) -> None:
        for stat in self.sites.values():
            stat.calls = 0
            stat.total = 0.0
            stat.self_time = 0.0
        self.edges.clear()
        self._stack = [[0.0, None]]

    def site(self, name: str, layer: str) -> SiteStats:
        return self.sites.setdefault(name, SiteStats(layer))

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        stat = self.site(name, layer)
        clock = self.clock
        edges = self.edges
        observe = self.observers.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1]
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[0] += dt
                stat.calls += 1
                stat.total += dt
                stat.self_time += dt - frame[0]
                edge = edges.get((parent[1], name))
                if edge is None:
                    edges[(parent[1], name)] = [1, dt]
                else:
                    edge[0] += 1
                    edge[1] += dt
            if observe is not None:
                observe(args, result, dt)
            return result

        return traced

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for stat in self.sites.values():
            out[stat.layer] = out.get(stat.layer, 0.0) + stat.self_time
        return out

    def unmeasured(self) -> list[str]:
        return sorted(name for name, stat in self.sites.items() if stat.calls == 0)


def discover_sites(required: tuple[tuple[str, str, str], ...] = ()) -> list[tuple[str, str, str]]:
    """(module, attribute, layer) for every public rcaudit function that a
    caller module imports from another rcaudit module, plus the required
    sites, which are kept even when the scan no longer finds them."""
    found = []
    for modname in CALLER_MODULES:
        module = sys.modules[modname]
        for attr, value in sorted(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            home = value.__module__
            if home.startswith("rcaudit.") and home != modname:
                found.append((modname, attr, home.rsplit(".", 1)[1]))
    return found + [site for site in required if site not in found]


class Installed:
    """Context manager that patches the sites for the duration of a block
    and restores the original functions afterwards."""

    def __init__(self, tracer: Tracer, sites: list[tuple[str, str, str]]):
        self.tracer = tracer
        self.sites = sites
        self._saved: list[tuple[object, str, Callable]] = []

    def __enter__(self) -> Tracer:
        for modname, attr, layer in self.sites:
            module = sys.modules[modname]
            original = getattr(module, attr, None)
            if original is None:
                # a required site the code no longer has: listed as unmeasured
                self.tracer.site(f"{modname}.{attr}", layer)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.tracer.wrap(f"{modname}.{attr}", layer, original))
        return self.tracer

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_test() -> list[str]:
    """Check the self-time arithmetic on a span tree with known times.

    root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    Self times: root 3, a 2, b 4, c 1; they sum to the root's 10.
    """
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    c = tracer.wrap("c", "z", lambda: None)

    def a_body():
        c()

    a = tracer.wrap("a", "y", a_body)
    b = tracer.wrap("b", "y", lambda: None)

    def root_body():
        a()
        b()

    tracer.wrap("root", "x", root_body)()
    got = {name: stat.self_time for name, stat in tracer.sites.items()}
    want = {"root": 3.0, "a": 2.0, "b": 4.0, "c": 1.0}
    problems = []
    if got != want:
        problems.append(f"self times {got}, expected {want}")
    if tracer.layer_self() != {"x": 3.0, "y": 6.0, "z": 1.0}:
        problems.append(f"layer self times {tracer.layer_self()}")
    if tracer.edges.get(("a", "c")) != [1, 1.0]:
        problems.append(f"edge a->c {tracer.edges.get(('a', 'c'))}")
    return problems
