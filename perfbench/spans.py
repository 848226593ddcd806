"""Per-layer spans for the traced run.

The tracer wraps the module attributes through which qdm's pipeline calls
each layer, keeps one span per call in memory (name, start, end, parent,
pass) and reduces them to per-pass self times and counts. Nothing in qdm
changes: the wrappers replace attributes only while installed. A boundary
that a later version of qdm renamed or moved is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

#: Layer -> the end-to-end metric and workload its numbers should move, with
#: its share of a pass in one traced run on a 2-core box when the benchmark
#: was added.
LAYERS = {
    "dynamics.evolve": "pass_s on stiff (~90 %) and quickstart (~90 %); 0 calls on sweep",
    "dynamics.characteristic_time": "pass_s on sweep (its largest layer, ~70 %); ~9 % of stiff",
    "dynamics.steady_state": "pass_s on sweep (~14 %); ~1 % of stiff",
    "physics.spectral_density": "first_pass_s on sweep (~0.8 s cold, 86 distinct of 440 calls); a little on stiff (fig4a)",
    "dissipators.phonon_dissipator": "first_pass_s on sweep; a little on stiff (fig4a, 52 channels)",
    "dissipators.assemble_liouvillian": "pass_s on sweep (~10 %)",
    "hamiltonians.build": "pass_s on sweep (<1 %)",
    "entanglement.qubit_concurrence": "pass_s on quickstart (~8 %)",
    "scenarios.self": "pass_s on all three workloads (~1 %)",
}

#: (layer, module, attribute): the boundaries the pipeline calls a layer through.
BOUNDARIES = (
    ("dynamics.evolve", "qdm.scenarios", "evolve"),
    ("dynamics.characteristic_time", "qdm.scenarios", "characteristic_time"),
    ("dynamics.steady_state", "qdm.scenarios", "steady_state"),
    ("entanglement.qubit_concurrence", "qdm.scenarios", "qubit_concurrence"),
    ("entanglement.qubit_concurrence", "qdm.dynamics", "qubit_concurrence"),
    ("hamiltonians.build", "qdm.scenarios", "build_effective_hamiltonian"),
    ("hamiltonians.build", "qdm.scenarios", "build_effective_tunneling_hamiltonian"),
    ("hamiltonians.build", "qdm.scenarios", "build_full_hamiltonian"),
    ("hamiltonians.build", "qdm.scenarios", "dressed_basis"),
    ("dissipators.phonon_dissipator", "qdm.scenarios", "phonon_dissipator"),
    ("dissipators.assemble_liouvillian", "qdm.scenarios", "assemble_liouvillian"),
    ("physics.spectral_density", "qdm.dissipators", "spectral_density"),
)

#: The span the benchmark opens around each public-API call; its self time
#: is the scenario pipeline's own work.
ROOT = "scenarios.self"


def _spectral_key(args, kwargs, result):
    """(omega, parity) of a spectral_density call."""
    return tuple(args[:2])


def _channel_count(args, kwargs, result):
    """Jump operators a phonon_dissipator call returned."""
    return len(result)


_INFO = {
    "physics.spectral_density": _spectral_key,
    "dissipators.phonon_dissipator": _channel_count,
}

_NAME, _START, _END, _PARENT, _PASS, _INFO_FIELD = range(6)


class Tracer:
    """Spans of one benchmark run, in memory until `write`."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.pass_index = 0
        self.present: set[str] = set()
        self.missing: list[str] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.pass_index, None])
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self._open.pop()
            self.spans[index][_END] = time.perf_counter()

    def _wrap(self, layer: str, fn):
        info = _INFO.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer) as record:
                result = fn(*args, **kwargs)
            if info is not None:
                record[_INFO_FIELD] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary that exists; note the ones that do not."""
        self.missing = []
        for layer, module_name, attr in BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(layer, fn))
            self.present.add(layer)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def absent(self) -> list[str]:
        return [layer for layer in LAYERS if layer != ROOT and layer not in self.present]

    def per_pass(self) -> dict[int, dict[str, dict]]:
        """Self seconds, calls and span infos of each layer, by pass."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                covered[span[_PARENT]] += span[_END] - span[_START]
        passes: dict[int, dict[str, dict]] = {}
        for span, child_s in zip(self.spans, covered):
            table = passes.setdefault(span[_PASS], {name: {"s": 0.0, "calls": 0, "infos": []} for name in LAYERS})
            entry = table[span[_NAME]]
            entry["s"] += span[_END] - span[_START] - child_s
            entry["calls"] += 1
            if span[_INFO_FIELD] is not None:
                entry["infos"].append(span[_INFO_FIELD])
        return passes

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "pass", "info"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans}, default=str))


def layer_metrics(tracer: Tracer, first_pass: int, warm_passes: list[int]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: medians over the warm traced passes, plus the cold
    first pass where a per-process cache makes it differ."""
    passes = tracer.per_pass()
    warm = [passes[p] for p in warm_passes]
    first = passes[first_pass]

    def median(layer: str, key: str) -> float:
        return statistics.median(w[layer][key] for w in warm)

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.s"] = (median(layer, "s"), "s")
        metrics[f"{layer}.calls"] = (median(layer, "calls"), "count")
    for layer in ("physics.spectral_density", "dissipators.phonon_dissipator"):
        metrics[f"{layer}.first_s"] = (first[layer]["s"], "s")
    keys = first["physics.spectral_density"]["infos"]
    metrics["physics.spectral_density.distinct_ratio"] = (len(set(keys)) / len(keys) if keys else 0.0, "ratio")
    metrics["dissipators.phonon_dissipator.channels"] = (
        statistics.median(sum(w["dissipators.phonon_dissipator"]["infos"]) for w in warm),
        "count",
    )
    return metrics
