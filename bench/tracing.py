"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces each public function listed in `LAYERS` with a
timing wrapper, on every `aoiflow` module attribute bound to it, because a
caller looks the function up in its own module (`mmd.probe_reaches`,
`flowlp.solve_lp_reaching`, `mmd.solve_lp`, `flowlp.link_groups`, ...).
Each wrapped call becomes a span: id, parent span, operation index, name,
start and end.  A function's self time is its duration minus the time of the
wrapped calls directly beneath it.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# module -> public functions wrapped there; a function a later version drops
# is skipped and its metrics read zero
LAYERS = {
    "mmd": ("min_max_delay", "decompose", "min_max_delay_oracle"),
    "flowlp": (
        "probe_reaches",
        "useful_links",
        "group_augment",
        "build_flow_lp",
        "certify_value_below",
    ),
    "lp": ("solve_lp", "solve_lp_reaching"),
    "expander": ("build_expanded", "link_groups"),
    "maxflow": ("max_flow", "shortest_delay", "decompose_paths"),
    "model": ("validate_solution", "normalize_holding"),
    "solvers": ("solve_optimal", "mmd1_exact"),
    "experiments": ("run_sweep", "generate"),
    "fileio": ("load_instance", "save_solution"),
    "cli": ("main",),
}

ENGINES = ("augment", "dual-certificate", "simplex", "unreachable")


def _program_cells(program) -> int:
    return len(program.rows) * program.n_vars


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.op_counts: defaultdict = defaultdict(Counter)  # op -> counts
        self._stack: list[list] = []  # [span id, child seconds, child calls]
        self._next_id = 0

    def install(self) -> None:
        package = importlib.import_module("aoiflow")
        modules = [package] + [
            importlib.import_module(f"aoiflow.{name}") for name in LAYERS
        ]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"aoiflow.{layer}")
            for fn_name in names:
                original = getattr(home, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0, 0]
            self._next_id += 1
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += end - start - frame[1]
                if parent is not None:
                    parent[1] += end - start
                    parent[2] += 1
                self.spans.append(
                    (frame[0], parent[0] if parent else None, self.op, name, start, end)
                )
            if hook is not None:
                hook(args, kwargs, result, frame)
            return result

        return traced

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n
        self.op_counts[self.op][key] += n

    # count hooks: run after a successful call, outside its timed span

    def _on_mmd_min_max_delay(self, args, kwargs, result, frame):
        if frame[2] == 0:  # nothing wrapped ran below: the lru cache answered
            self._count("mmd.cache_hits")
        elif result is not None:
            self._count("mmd.probes", len(result.probes))

    def _on_flowlp_probe_reaches(self, args, kwargs, result, frame):
        self._count(f"flowlp.engine.{result.engine}")

    def _on_flowlp_useful_links(self, args, kwargs, result, frame):
        self._count("flowlp.useful_links.expanded", len(args[0].links))
        self._count("flowlp.useful_links.kept", len(result or ()))

    def _on_flowlp_group_augment(self, args, kwargs, result, frame):
        self._count("flowlp.group_augment.successes", result is not None)

    def _on_flowlp_certify_value_below(self, args, kwargs, result, frame):
        self._count("flowlp.certify_value_below.successes", bool(result))

    def _on_flowlp_build_flow_lp(self, args, kwargs, result, frame):
        self._count("flowlp.lp_cells", _program_cells(result.program))

    def _on_lp_solve_lp(self, args, kwargs, result, frame):
        self._count("lp.cells", _program_cells(args[0]))

    _on_lp_solve_lp_reaching = _on_lp_solve_lp

    def _on_expander_build_expanded(self, args, kwargs, result, frame):
        self._count("expander.expanded_links", len(result.links))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, each as (value, unit)."""

        def ratio(num, den):
            return num / den if den else 0.0

        c, calls, self_s = self.counts, self.calls, self.self_s
        m: dict[str, tuple[float, str]] = {}

        def timed(name, with_calls=False):
            if with_calls:
                m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.self_s"] = (self_s[name], "s")

        timed("mmd.min_max_delay", with_calls=True)
        m["mmd.probes"] = (c["mmd.probes"], "count")
        m["mmd.engine_probe_ratio"] = (
            ratio(calls["flowlp.probe_reaches"], c["mmd.probes"]),
            "ratio",
        )
        m["mmd.cache_hit_ratio"] = (
            ratio(c["mmd.cache_hits"], calls["mmd.min_max_delay"]),
            "ratio",
        )
        timed("mmd.decompose")
        timed("mmd.min_max_delay_oracle")
        timed("flowlp.probe_reaches", with_calls=True)
        for engine in ENGINES:
            m[f"flowlp.engine.{engine}"] = (c[f"flowlp.engine.{engine}"], "count")
        timed("flowlp.useful_links")
        m["flowlp.useful_links.kept_ratio"] = (
            ratio(c["flowlp.useful_links.kept"], c["flowlp.useful_links.expanded"]),
            "ratio",
        )
        timed("flowlp.group_augment")
        m["flowlp.group_augment.success_ratio"] = (
            ratio(c["flowlp.group_augment.successes"], calls["flowlp.group_augment"]),
            "ratio",
        )
        timed("flowlp.build_flow_lp")
        m["flowlp.lp_cells"] = (c["flowlp.lp_cells"], "count")
        timed("flowlp.certify_value_below")
        m["flowlp.certify_value_below.success_ratio"] = (
            ratio(
                c["flowlp.certify_value_below.successes"],
                calls["flowlp.certify_value_below"],
            ),
            "ratio",
        )
        timed("lp.solve_lp", with_calls=True)
        timed("lp.solve_lp_reaching", with_calls=True)
        m["lp.cells"] = (c["lp.cells"], "count")
        timed("expander.build_expanded", with_calls=True)
        m["expander.expanded_links"] = (c["expander.expanded_links"], "count")
        timed("expander.link_groups")
        timed("maxflow.max_flow", with_calls=True)
        timed("maxflow.shortest_delay")
        timed("maxflow.decompose_paths")
        timed("model.validate_solution")
        timed("model.normalize_holding")
        timed("solvers.solve_optimal")
        timed("solvers.mmd1_exact", with_calls=True)
        timed("experiments.run_sweep")
        timed("experiments.generate")
        timed("fileio.load_instance")
        timed("fileio.save_solution")
        timed("cli.main")
        return m

    def write_spans(self, path) -> None:
        """One JSON object per span, ordered by end time."""
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "op": op,
                            "name": name,
                            "start": start,
                            "end": end,
                        }
                    )
                    + "\n"
                )
