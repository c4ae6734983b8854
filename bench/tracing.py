"""Spans around calls into rankone, recorded from outside the library.

rankone imports with `from .x import y`, so a function is bound in several
module namespaces (and in module-level dicts such as `cli.SUITES`).  `install`
rebinds every binding of each traced function, and wraps `RootSystem` and
`Report` methods on their classes.  Spans stay in memory as
[name, start, end, parent index] and are summarised or written out when the
pass ends.
"""
from __future__ import annotations

import functools
import sys
import time

# Functions traced as `<module>.<qualname>`.  Each is called at most a few
# thousand times per pass; the inner kernels (w_dot, w_add, reflect) are called
# hundreds of thousands of times and would measure the wrapper instead.
SPANS = (
    "weyl.RootSystem.orbit",
    "weyl.RootSystem.weyl_dim",
    "weyl.RootSystem.to_dominant_chamber",
    "tensor.character_oracle",
    "tensor.racah_speiser_weight",
    "tensor.expected_summand_labels",
    "tensor.dimension_sum_check",
    "scalars.growth_order_estimate",
    "scalars.growth_closed_form",
    "scalars.growth_product",
    "scalars.vanishing_table_check",
    "spherical.verify_omega_identity",
    "spherical.omega_h_expand",
    "hypergeom.f21",
    "poly.pmul",
    "poly.ppow",
    "groups.exceptional_in_interval",
    "ktypes.minimal_ktype",
    "ktypes.label_from_weight",
    "so_model.verify_intertwining",
    "so_model.exceptional_vanishing_residual",
    "so_model.iwasawa_roundtrip_error",
    "cli.main",
    "cli.Report.to_json",
    "cli.Report.to_csv",
    "cli.verify_groups",
    "cli.verify_tensor",
    "cli.verify_spherical",
    "cli.verify_scalars",
    "cli.verify_so_model",
)

# Root-system constructors, summed into one span.  While they are cached, only
# the calls that actually build (cache misses) are recorded.
BUILDERS = ("type_b", "type_d", "type_a_u", "type_c_c1")
BUILD_SPAN = "weyl.root_system_build"

SPAN_NAMES = SPANS + (BUILD_SPAN,)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, misses_only=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            before = fn.cache_info().misses if misses_only else 0
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
                if misses_only and fn.cache_info().misses == before:
                    del spans[idx]  # a cache hit ran no code, so it has no children

        return traced

    def summary(self) -> dict:
        """{name: [calls, self seconds]} and the seconds covered by root spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0, 0.0] for name in SPAN_NAMES}
        covered = 0.0
        for (name, start, end, parent), inner in zip(self.spans, child):
            out[name][0] += 1
            out[name][1] += end - start - inner
            if parent < 0:
                covered += end - start
        return {"layers": out, "covered_s": covered}

    def write(self, path: str):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def _rebind(old, new):
    """Replace `old` by `new` in every rankone module namespace and module-level dict."""
    for modname, module in list(sys.modules.items()):
        if modname != "rankone" and not modname.startswith("rankone."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is old:
                        value[key] = new


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function; returns the names that were not found."""
    missing = []
    for name in SPANS:
        modname, *path = name.split(".")
        owner = sys.modules.get(f"rankone.{modname}")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        fn = getattr(owner, path[-1], None)
        if fn is None:
            missing.append(name)
        elif len(path) == 1:
            _rebind(fn, tracer.wrap(name, fn))
        else:
            setattr(owner, path[-1], tracer.wrap(name, fn))
    weyl = sys.modules["rankone.weyl"]
    for attr in BUILDERS:
        fn = getattr(weyl, attr, None)
        if fn is None:
            missing.append(f"weyl.{attr}")
        else:
            _rebind(fn, tracer.wrap(BUILD_SPAN, fn, misses_only=hasattr(fn, "cache_info")))
    return missing
