"""Span tracing of gausskey's layers, driven entirely from the benchmark.

``Tracer.install`` replaces every public function of the layer modules
(``gaussian``, ``attack``, ``rates``, ``landscape``, ``cli``) with a timing
wrapper, in every ``gausskey`` module namespace that holds it.  A module
that imported a function by name keeps its own reference -- ``landscape``
binds ``key_rate_asymptotic``, ``rates`` binds ``violated_constraint`` and
``entropy_h`` -- so patching only the defining module would miss those
calls.  ``uninstall`` restores the originals.

Each span records its inclusive time, its self time (minus wrapped
children) and, per tag, the time its outermost descendants with that tag
took.  A span's tags are its layer, plus "library" for every layer but the
CLI, so that "rates.numeric minus its gaussian children" and "a CLI command
minus the library" can be read off without double counting nested spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

_ABSENT = object()

LAYERS = ("gaussian", "attack", "rates", "landscape", "cli")

# Entry points of the closed-form rate: only the outermost of a nested
# chain (key_rate_asymptotic -> key_rate_noswitching) counts as one point.
CLOSED_FORM = frozenset(
    {
        "rates.key_rate_asymptotic",
        "rates.key_rate_noswitching",
        "rates.key_rate_switching",
        "rates.key_rate_switching_mixed",
    }
)

# Hot leaf functions, called several times per rate: counted, not timed,
# so that tracing does not multiply the cost of a point.  Their time stays
# in the caller's self time.
COUNT_ONLY = frozenset(
    {
        "gaussian.entropy_h",
        "gaussian.entropy_h_asymptotic",
        "attack.violated_constraint",
        "attack.check_constraints",
        "rates.conditional_spectrum_noswitching",
        "rates.conditional_spectra_switching",
        "landscape.f_log",
        "cli.fmt",
    }
)


@dataclass
class SpanStats:
    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0
    below_ns: Counter = field(default_factory=Counter)


class _ThreadState(threading.local):
    """Per-thread span stack: GAUSSKEY_THREADS > 1 runs rates on pool threads."""

    def __init__(self, registry: list) -> None:
        self.stack: list[list] = []  # frames: [child_ns, below_ns or None, worker ends]
        self.closed_depth = 0
        self.zero_depth = 0
        self.counts = Counter()  # per thread: += on a shared Counter can lose updates
        registry.append(self.counts)


class Tracer:
    """Collects spans and counts while installed; see the module docstring.

    A span that ends on a worker thread is recorded as ``<name>@worker``
    with no parent; a main-thread span during which worker spans ended is
    recorded as ``<name>@pooled``, because its children ran elsewhere and
    its self time is not defined.
    """

    def __init__(self) -> None:
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.closed_form = SpanStats()  # outermost closed-form calls, main thread
        self._thread_counts: list[Counter] = []
        self._local = _ThreadState(self._thread_counts)
        self._main = threading.get_ident()
        self._worker_ends = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _finish(self, name: str, tags: tuple, elapsed: int, frame: list, stack: list) -> None:
        if threading.get_ident() != self._main:
            self._worker_ends += 1
            name += "@worker"
        elif frame[2] != self._worker_ends:
            name += "@pooled"
        stats = self.spans[name]
        stats.calls += 1
        stats.incl_ns += elapsed
        stats.self_ns += elapsed - frame[0]
        below = frame[1]
        if below:
            stats.below_ns.update(below)
        if stack:
            parent = stack[-1]
            parent[0] += elapsed
            if parent[1] is None:
                parent[1] = Counter()
            for tag in tags:
                parent[1][tag] += elapsed
            if below:
                for tag, ns in below.items():
                    if tag not in tags:
                        parent[1][tag] += ns

    def _wrap(self, name: str, layer: str, fn):
        if name in COUNT_ONLY:
            return self._count_wrap(name, fn)
        return self._span_wrap(name, (layer,) if layer == "cli" else (layer, "library"), fn)

    def _count_wrap(self, name: str, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrap(self, name: str, tags: tuple, fn):
        tracer = self
        local = self._local
        clock = time.perf_counter_ns
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        closed = name in CLOSED_FORM
        zero = name == "landscape.find_zero_rate_transmissivity"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if closed:
                if local.closed_depth:  # inner step of an outer closed-form call
                    local.closed_depth += 1
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        local.closed_depth -= 1
                local.closed_depth += 1
                local.counts["rates.closed_form"] += 1
                if local.zero_depth:
                    local.counts["landscape.find_zero_rate_transmissivity.rate_calls"] += 1
            local.zero_depth += zero
            stack = local.stack
            frame = [0, None, tracer._worker_ends]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                local.zero_depth -= zero
                tracer._finish(name, tags, elapsed, frame, stack)
                if closed:
                    local.closed_depth -= 1
                    if threading.get_ident() == tracer._main:
                        tracer.closed_form.calls += 1
                        tracer.closed_form.incl_ns += elapsed
            if observe is not None:
                observe(local.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            importlib.import_module(f"gausskey.{layer}")
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "gausskey" or key.startswith("gausskey."))
        ]
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"gausskey.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", layer, fn)
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
                elif isinstance(value, dict):  # dispatch tables such as cli._COMMANDS
                    for key, item in list(value.items()):
                        wrapper = wrappers.get(id(item))
                        if wrapper is not None:
                            self._patches.append((value, key, item))
                            value[key] = wrapper
        self._install_parse_span()
        self._install_covmat_count()

    def _install_parse_span(self) -> None:
        """Time argument parsing too: it is a method of the CLI's parser class."""
        cli = sys.modules["gausskey.cli"]
        parser_cls = type(cli.build_parser())
        self._patch(parser_cls, "parse_args", self._wrap("cli.parse_args", "cli", parser_cls.parse_args))

    def _install_covmat_count(self) -> None:
        gaussian = sys.modules["gausskey.gaussian"]
        original = gaussian.CovMat.__post_init__
        local = self._local

        def counted(self_) -> None:
            local.counts["gaussian.covmat"] += 1
            original(self_)

        self._patch(gaussian.CovMat, "__post_init__", counted)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            elif original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- read-out ------------------------------------------------------

    @property
    def counts(self) -> Counter:
        return sum(self._thread_counts, Counter())

    def stats(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())


def _observe_grid(counts: Counter, args: dict, result) -> None:
    counts["attack.physical_grid.kept"] += len(result)
    counts["attack.physical_grid.candidates"] += args["resolution"] ** 2


def _observe_boundary(counts: Counter, args: dict, result) -> None:
    counts["attack.boundary_curve.kept"] += len(result.samples)
    counts["attack.boundary_curve.candidates"] += 2 * args["n_samples"]


_OBSERVERS = {
    "attack.physical_grid": _observe_grid,
    "attack.boundary_curve": _observe_boundary,
}


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(tracer: Tracer, passes: int, points_per_pass: int) -> dict[str, float]:
    """Per-layer figures of the traced passes (counts are per pass)."""
    t = tracer
    counts = t.counts

    def calls(name: str) -> int:
        return t.stats(name).calls

    def incl_us(*names: str) -> float:
        total = sum(t.stats(n).incl_ns for n in names)
        return _per(total / 1e3, sum(calls(n) for n in names))

    def per_pass(value: int) -> float:
        return value / passes if value % passes else value // passes

    numeric = t.stats("rates.key_rate_numeric")
    verify = t.stats("landscape.verify_minimality")
    zero = t.stats("landscape.find_zero_rate_transmissivity")
    commands = [s for n, s in t.spans.items() if n.startswith("cli.cmd_") and "@" not in n]
    cmd_ns = sum(s.incl_ns for s in commands)
    cmd_library_ns = sum(s.below_ns["library"] for s in commands)
    parse_ns = sum(t.stats(n).incl_ns for n in ("cli.build_parser", "cli.parse_args", "cli.make_config"))
    conditioning = ("gaussian.heterodyne_condition", "gaussian.homodyne_condition")
    return {
        "gaussian.symplectic_spectrum.calls": per_pass(calls("gaussian.symplectic_spectrum")),
        "gaussian.symplectic_spectrum.us": incl_us("gaussian.symplectic_spectrum"),
        "gaussian.conditioning.us": incl_us(*conditioning),
        "gaussian.beamsplitter_apply.us": incl_us("gaussian.beamsplitter_apply"),
        "gaussian.covmat.count": _per(counts["gaussian.covmat"], numeric.calls),
        "gaussian.entropy_h.calls": per_pass(counts["gaussian.entropy_h"]),
        "rates.closed_form.us": _per(t.closed_form.incl_ns / 1e3, t.closed_form.calls),
        "rates.closed_form.calls": per_pass(counts["rates.closed_form"]),
        "rates.numeric.ms": incl_us("rates.key_rate_numeric") / 1e3,
        "rates.numeric.self_ms": _per(
            (numeric.incl_ns - numeric.below_ns["gaussian"]) / 1e6, numeric.calls
        ),
        "attack.physical_grid.ms": incl_us("attack.physical_grid") / 1e3,
        "attack.physical_grid.keep_ratio": _per(
            counts["attack.physical_grid.kept"], counts["attack.physical_grid.candidates"]
        ),
        "attack.boundary_curve.ms": incl_us("attack.boundary_curve") / 1e3,
        "attack.boundary_curve.keep_ratio": _per(
            counts["attack.boundary_curve.kept"], counts["attack.boundary_curve.candidates"]
        ),
        "attack.violated_constraint.calls_per_point": _per(
            counts["attack.violated_constraint"], points_per_pass * passes
        ),
        "landscape.verify_minimality.self_ms": _per(verify.self_ns / 1e6, verify.calls),
        "landscape.critical_point_report.ms": incl_us("landscape.critical_point_report") / 1e3,
        "landscape.find_zero_rate_transmissivity.ms": incl_us("landscape.find_zero_rate_transmissivity") / 1e3,
        "landscape.find_zero_rate_transmissivity.rate_calls": _per(
            counts["landscape.find_zero_rate_transmissivity.rate_calls"], zero.calls
        ),
        "cli.parse.ms": _per(parse_ns / 1e6, calls("cli.main") + calls("cli.main@pooled")),
        "cli.render.self_ms": _per((cmd_ns - cmd_library_ns) / 1e6, sum(s.calls for s in commands)),
    }
