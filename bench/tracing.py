"""Per-layer spans recorded from outside the program.

The tracer replaces public names in the module namespaces that call
them (``latticepick.cli.validate_polygon``, ``latticepick.pick.boundary_count``,
...) with wrappers that time each call.  A span's self time is its
duration minus the time covered by the spans it caused, so the self
times of all spans add up to the duration of the root span,
``cli.main``.  Names that a refactor removed are skipped, and the
metrics built on them are reported absent.

Small predicates called per point or per triangle (``edge_gcd``,
``twice_signed_area``) are not wrapped: their time stays in the self
time of the caller.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (namespace the call is looked up in, name, span)
PATCHES = [
    ("latticepick.cli", "main", "cli.main"),
    ("latticepick.cli", "parse_polygon", "cli.parse"),
    ("latticepick.cli", "render_svg", "cli.render_svg"),
    ("latticepick.cli", "validate_polygon", "core.validate"),
    ("latticepick.cli", "twice_polygon_area", "core.area"),
    ("latticepick.pick", "twice_polygon_area", "core.area"),
    ("latticepick.triangulate", "twice_polygon_area", "core.area"),
    ("latticepick.cli", "interior_count_oracle", "pick.interior_scan"),
    ("latticepick.pick", "interior_count_oracle", "pick.interior_scan"),
    ("latticepick.cli", "boundary_count", "pick.boundary_count"),
    ("latticepick.pick", "boundary_count", "pick.boundary_count"),
    ("latticepick.cli", "verify_pick", "pick.verify_pick"),
    ("latticepick.cli", "polygon_lattice_points", "pick.lattice_points"),
    ("latticepick.cli", "primitive_triangulation", "triangulate.refine"),
    ("latticepick.triangulate", "initial_triangulation", "triangulate.ear_clip"),
    ("latticepick.triangulate", "gcd_edge_split", "triangulate.edge_split"),
    ("latticepick.triangulate", "interior_split", "triangulate.interior_split"),
    ("latticepick.triangulate", "normalize", "bezout.normalize"),
    ("latticepick.triangulate", "interior_split_point", "bezout.split_point"),
]

LAYERS = ("cli", "core", "triangulate", "bezout", "pick")


class Tracer:
    """Self time, inclusive time and call count per span name."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.present: set[str] = set()
        self._stack: list[float] = []   # time covered by children, per open span
        self._wrappers: list[tuple[object, str, object, object]] = []
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self.present.add(span)
                original = getattr(module, attr)
                self._wrappers.append(
                    (module, attr, original, self._wrap(span, original)))

    def _wrap(self, span: str, fn):
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[span] += dt - stack.pop()
                total_s[span] += dt
                calls[span] += 1
                if stack:
                    stack[-1] += dt
        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        for module, attr, _, wrapper in self._wrappers:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._wrappers:
                setattr(module, attr, original)

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
