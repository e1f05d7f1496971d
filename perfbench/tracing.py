"""In-memory spans and counters around the public calls into scqsim's layers.

Each wrapper is installed at the name its caller looks up (``scqsim.cli``
binds most layer functions at import, ``scqsim.drives`` binds the integrator,
``scqsim.export`` is looked up as a module attribute). A target that no
longer exists is skipped and listed, so a refactor that moves a function
loses that one metric instead of breaking the benchmark.

A span records name, start, end, parent and run id. Calls too frequent for
one span each (the ``h_of_t`` closure, the Lyapunov per-row helpers) are
aggregated: their count and time go to counters, and their time is charged
to the enclosing span as child time, so self times still add up.
"""

import functools
import importlib
import inspect
import logging
import time
from collections import defaultdict

perf = time.perf_counter


class _Span:
    __slots__ = ("name", "start", "end", "parent", "run", "child_s")

    def __init__(self, name, start, parent, run):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s


class _WarningCounter(logging.Handler):
    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        self.tracer.count("evolution.drift_warn_count")


class Tracer:
    """Spans and counters for one traced pass; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run = None
        self.counters = defaultdict(float)
        self.per_run = defaultdict(lambda: defaultdict(float))
        self.values = defaultdict(list)
        self.skipped = []
        self._patched = []
        self._handler = _WarningCounter(self)

    # -- recording ---------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = _Span(name, perf(), parent, self.run)
        self.stack.append(span)
        return span

    def close(self, span):
        span.end = perf()
        self.stack.pop()
        if span.parent is not None:
            span.parent.child_s += span.end - span.start
        self.spans.append(span)

    def count(self, name, amount=1.0):
        self.counters[name] += amount
        self.per_run[self.run][name] += amount

    def aggregate(self, name, seconds):
        """One call of a high-frequency child: count it and charge its time to the parent."""
        self.count(name + "_calls")
        self.count(name + "_s", seconds)
        if self.stack:
            self.stack[-1].child_s += seconds

    def root(self, run_id):
        self.run = run_id
        return self.open("cli.main")

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, fn, name_of, after=None):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span = self.open(name_of(bound.arguments))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(bound.arguments, result)
            return result

        return wrapper

    def _aggregate_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.aggregate(name, perf() - start)

        return wrapper

    def _patch(self, module_name, attr, make):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            self.skipped.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, make(original))
        self._patched.append((module, attr, original))

    def install(self):
        span = self._span_wrapper

        def fixed(name):
            return lambda arguments: name

        def fock_dim(arguments, result):
            self.values["hamiltonians.fock_dim"].append(arguments.get("n_levels", 0))

        def rk4_steps(arguments, result):
            grid = arguments.get("grid")
            self.count("evolution.rk4_steps",
                       getattr(grid, "steps", 0) * arguments.get("substeps", 1))

        def replay_name(arguments):
            model = arguments.get("model")
            return "drives.replay_" + ("approx" if model == "approximate_rotating" else "exact")

        def loop_name(arguments):
            integrator = str(arguments.get("integrator", "fixed_rk4"))
            return "lyapunov.loop_" + integrator.split("_")[0]

        def loop_done(arguments, run):
            self.values["lyapunov.converged"].append(bool(getattr(run, "converged", False)))
            self.count("lyapunov.loop_samples", getattr(arguments.get("grid"), "steps", -1) + 1)

        def csv_rows(arguments, result):
            obj = next(iter(arguments.values()))
            traj = getattr(obj, "trajectory", obj)
            self.count("export.csv_rows", len(getattr(traj, "times", ())))

        def with_bytes(name, counter, after=None):
            # tell() flushes a text stream, so it runs inside the span: the
            # flush is export time, not time of the caller
            def make(fn):
                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    stream = kwargs["stream"] if "stream" in kwargs else args[-1]
                    before = _tell(stream)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        end = _tell(stream)
                        if before is not None and end is not None:
                            self.count(counter, end - before)

                return span(counted, fixed(name), after)

            return make

        def driven(fn):
            inner = span(fn, fixed("hamiltonians.build"))
            return lambda *a, **k: self._aggregate_wrapper(inner(*a, **k), "hamiltonians.h_of_t")

        def drift_probe(fn):
            def wrapper(drift, *args, **kwargs):
                self.values["evolution.drift"].append(float(drift))
                return fn(drift, *args, **kwargs)

            return wrapper

        self._patch("scqsim.cli", "build_parser", lambda f: span(f, fixed("cli.parser")))
        self._patch("scqsim.cli", "parse_config", lambda f: span(f, fixed("config.parse")))
        for module in ("scqsim.cli", "scqsim.hamiltonians"):
            for attr in ("build_approximate", "build_exact_two_level"):
                self._patch(module, attr, lambda f: span(f, fixed("hamiltonians.build")))
            self._patch(module, "build_fock",
                        lambda f: span(f, fixed("hamiltonians.build_fock"), fock_dim))
        self._patch("scqsim.drives", "driven_hamiltonian", driven)
        self._patch("scqsim.cli", "propagate_static",
                    lambda f: span(f, fixed("evolution.static")))
        self._patch("scqsim.drives", "evolve_time_dependent",
                    lambda f: span(f, fixed("evolution.rk4"), rk4_steps))
        self._patch("scqsim.evolution", "_check_drift", drift_probe)
        self._patch("scqsim.cli", "design_transfer", lambda f: span(f, fixed("drives.design")))
        self._patch("scqsim.cli", "closed_loop_experiment", lambda f: span(f, replay_name))
        self._patch("scqsim.cli", "simulate_closed_loop",
                    lambda f: span(f, loop_name, loop_done))
        for attr in ("feedback_controls", "lyapunov_value"):
            self._patch("scqsim.lyapunov", attr,
                        lambda f: self._aggregate_wrapper(f, "lyapunov.post"))
        for attr in ("write_trajectory_csv", "write_lyapunov_csv"):
            self._patch("scqsim.export", attr,
                        with_bytes("export.csv", "export.csv_bytes", csv_rows))
        self._patch("scqsim.export", "dump_json", with_bytes("export.json", "export.json_bytes"))
        for attr in ("trajectory_to_dict", "lyapunov_to_dict"):
            self._patch("scqsim.export", attr, lambda f: span(f, fixed("export.json")))
        logging.getLogger("scqsim.evolution").addHandler(self._handler)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        logging.getLogger("scqsim.evolution").removeHandler(self._handler)

    # -- results -------------------------------------------------------------

    def self_seconds(self, prefix):
        """Sum of self time over spans whose name equals or starts with prefix + '.'."""
        return sum(s.self_s for s in self.spans
                   if s.name == prefix or s.name.startswith(prefix + "."))

    def total_seconds(self, name):
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def records(self):
        index = {id(s): i for i, s in enumerate(self.spans)}
        for i, s in enumerate(self.spans):
            yield {"id": i, "name": s.name, "start": s.start, "end": s.end,
                   "parent": None if s.parent is None else index.get(id(s.parent)),
                   "run": s.run, "self_s": s.self_s}


def _tell(stream):
    try:
        return stream.tell()
    except (AttributeError, OSError, ValueError):
        return None
