"""Per-layer tracing of triwave from outside the package.

``Tracer.install`` wraps the public functions of each module, and the methods
named below, with a timing wrapper.  A name another module imported is
replaced there too, because that module looks it up in its own namespace:
``m_value`` is wrapped in both ``triwave.history`` and ``triwave.replay``.
``uninstall`` puts the originals back, so untraced rounds run the plain code.

Every wrapped call adds to its name's call count, inclusive time and child
time.  Self time is inclusive time minus the time of wrapped calls made
inside it.  The first ``SPAN_CAP`` spans (name, start, end, parent) are also
kept in memory and written to the trace file.  Hot names such as ``m_value``
run hundreds of thousands of times per scenario, so keeping them all would
cost more memory than the run itself.

Two probes measure state rather than time: the size of the pair history
after each event and the number of objects ``next_collision`` sorts per call.
Their own cost is taken out of every enclosing span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SPAN_CAP = 20_000

# (module, attribute, label); a dotted attribute is a method of a class
TRACED = [
    ("flux", "derivative_bounds", "flux.derivative_bounds"),
    ("flux", "interpolate", "flux.interpolate"),
    ("flux", "build_effective_flux", "flux.build_effective_flux"),
    ("envelopes", "convex_envelope", "envelopes.hull"),
    ("envelopes", "concave_envelope", "envelopes.hull"),
    ("wavefield", "speed_groups", "wavefield.speed_groups"),
    ("wavefield", "effective_flux", "wavefield.effective_flux"),
    ("wavefield", "validate_enumeration", "wavefield.validate_enumeration"),
    ("simulator", "next_collision", "simulator.next_collision"),
    ("simulator", "resolve", "simulator.resolve"),
    ("simulator", "run", "simulator.run"),
    ("history", "m_value", "history.m_value"),
    ("history", "PairHistory.initialize", "history.initialize"),
    ("history", "PairHistory.on_event", "history.on_event"),
    ("history", "PairHistory.snapshot", "history.snapshot"),
    ("replay", "Replay.run", "replay.run"),
    ("verifier", "run_verifier", "verifier.run_verifier"),
    ("verifier", "check_log2_kernel", "verifier.check_log2_kernel"),
    ("verifier", "check_small_n_lemmas", "verifier.check_small_n_lemmas"),
    ("verifier", "write_report", "verifier.write_report"),
    ("scenario", "run_scenario", "scenario.run_scenario"),
]
# the list next_collision builds and sorts on every call
FRONTS_HOOK = ("simulator", "_objects")


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.child: dict[str, float] = defaultdict(float)
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.fronts_scanned = 0
        self.pairs_peak = 0
        self.records_peak = 0
        self.probe_s = 0.0           # time in probes and reference samples, kept out of spans
        self.missing: list[str] = []
        self._stack: list[list] = []  # [label, child time] per open span
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _span(self, label: str, fn):
        stack, calls, total, child, spans = self._stack, self.calls, self.total, self.child, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [label, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            probe0 = self.probe_s
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start - (self.probe_s - probe0)
                calls[label] += 1
                total[label] += dur
                child[label] += frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((label, start, end, parent))

        return traced

    def _on_event_probe(self, fn):
        @functools.wraps(fn)
        def probed(history, *args, **kwargs):
            out = fn(history, *args, **kwargs)
            start = time.perf_counter()
            pairs = getattr(history, "pairs", {})
            self.pairs_peak = max(self.pairs_peak, len(pairs))
            records = {id(p.record) for p in pairs.values() if getattr(p, "record", None) is not None}
            self.records_peak = max(self.records_peak, len(records))
            self.probe_s += time.perf_counter() - start
            return out

        return probed

    def _fronts_probe(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.fronts_scanned += len(out)
            return out

        return probed

    def _replace(self, original, wrapped, modules) -> None:
        """Rebind ``original`` to ``wrapped`` wherever a module holds it."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapped)

    def install(self, package) -> None:
        prefix = package.__name__ + "."
        modules = [package] + [m for name, m in sys.modules.items()
                               if name.startswith(prefix) and m is not None]
        for mod_name, attr, label in TRACED:
            mod = sys.modules.get(prefix + mod_name)
            owner_name, _, method = attr.partition(".")
            owner = getattr(mod, owner_name, None) if mod is not None else None
            original = vars(owner).get(method) if method and owner is not None else owner
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if method:
                wrapped = self._span(label, original)
                if label == "history.on_event":
                    wrapped = self._on_event_probe(wrapped)
                self._saved.append((owner, method, original))
                setattr(owner, method, wrapped)
            else:
                self._replace(original, self._span(label, original), modules)
        mod = sys.modules.get(prefix + FRONTS_HOOK[0])
        original = getattr(mod, FRONTS_HOOK[1], None)
        if original is None:
            self.missing.append(".".join(FRONTS_HOOK))
        else:
            self._replace(original, self._fronts_probe(original), modules)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def self_time(self, label: str) -> float:
        return self.total[label] - self.child[label]

    def summary(self) -> dict:
        return {
            label: {"calls": self.calls[label], "s": self.total[label], "self_s": self.self_time(label)}
            for label in sorted(self.calls)
        }
