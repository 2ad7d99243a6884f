"""In-memory span tracing of swigident's layers, installed from outside.

install() wraps the entry points of each module (cli, dsl, model, graphs,
expr, rules, engine, oracle).  Several modules bind names at import (engine
takes the rule_* functions and eval_expr, rules takes d_separated, cli takes
identify, verify and sample), so a wrapper replaces every binding of the
original function in every swigident module, not only the defining module's
attribute; methods are replaced on their class.  Nothing under src/ changes.

A span records its name, start, end, parent span and request id.  Self time
is a span's duration minus the durations of its direct child spans.  A call
made from inside a span of the same name (recursion) is not a new span.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

from swigident.errors import RuleRefusedError

RULES = ("total_probability", "product", "ci_modify", "consistency", "drop_later", "redundancy")


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.request: object = None
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, request)
        self._stack: list[list] = []  # open spans: [id, name, child seconds]
        self._next_id = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # counters recorded by probes
        self.distinct: defaultdict = defaultdict(set)
        self._serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next_serial = itertools.count()

    def serial(self, obj) -> int:
        """Stable small id for an object, never reused while it lives."""
        if obj not in self._serials:
            self._serials[obj] = next(self._next_serial)
        return self._serials[obj]

    def call(self, name: str, fn, args, kwargs, probe):
        stack = self._stack
        if not self.active or (stack and stack[-1][1] == name):
            return fn(*args, **kwargs)
        parent = stack[-1] if stack else None
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        stack.append(frame)
        start = time.perf_counter()
        try:
            if probe is None:
                return fn(*args, **kwargs)
            return probe(self, args, kwargs, lambda: fn(*args, **kwargs))
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - frame[2]
            if parent is not None:
                parent[2] += duration
            self.spans.append(
                (frame[0], name, start, end, None if parent is None else parent[0], self.request)
            )

    def count_signature(self) -> dict:
        """Every count the trace recorded; equal between two traced runs of
        the same inputs."""
        return {
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }

    def write_spans(self, path) -> None:
        """One JSON array per line, fields as in the header line; times in
        seconds from the first span's start."""
        t0 = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "request"]}))
            fh.write("\n")
            for sid, name, start, end, parent, request in sorted(self.spans):
                fh.write(json.dumps([sid, name, start - t0, end - t0, parent, request]) + "\n")


@contextlib.contextmanager
def paused(tracer: Tracer | None):
    """Record nothing inside the block (used around the untimed checks)."""
    if tracer is None:
        yield
        return
    was, tracer.active = tracer.active, False
    try:
        yield
    finally:
        tracer.active = was


# ---------------------------------------------------------------------------
# probes: counters recorded where the work happens


def _refusals(name):
    def probe(tracer, args, kwargs, run):
        try:
            return run()
        except RuleRefusedError:
            tracer.counts[f"{name}.refused"] += 1
            raise

    return probe


def _distinct(name, key):
    def probe(tracer, args, kwargs, run):
        tracer.distinct[name].add(key(tracer, *args))
        return run()

    return probe


def _joint(tracer, args, kwargs, run):
    # A build is a call that added a joint to the model's cache, or one that
    # bypasses it (an explicit active law).
    model = args[0]
    before = len(model._joints)
    out = run()
    bypass = kwargs.get("active_laws") is not None or (len(args) > 2 and args[2] is not None)
    if bypass or len(model._joints) > before:
        tracer.counts["oracle.joint.builds"] += 1
        tracer.counts["oracle.joint.bytes"] += out.table.nbytes
    return out


def _conditional(tracer, args, kwargs, run):
    joint, deps, conds = args
    if (deps, conds) in joint._conditionals:
        tracer.counts["oracle.conditional.hits"] += 1
    return run()


def _sample(tracer, args, kwargs, run):
    out = run()
    tracer.counts["oracle.sample.rows"] += len(out)
    return out


def _write_csv(tracer, args, kwargs, run):
    fh = args[1]
    try:
        before = fh.tell()
    except (OSError, ValueError):
        return run()
    out = run()
    tracer.counts["oracle.csv_bytes"] += fh.tell() - before
    return out


# (span name, module, attribute path, probe)
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("dsl.parse_graph", "dsl", "parse_graph", None),
    ("dsl.parse_estimand", "dsl", "parse_estimand", None),
    ("dsl.emit_graph", "dsl", "emit_graph", None),
    ("model.to_swig", "model", "to_swig", None),
    (
        "model.regime_graph",
        "model",
        "Swig.regime_graph",
        _distinct("model.regime_graph", lambda t, swig, regime: (swig.edges, regime)),
    ),
    (
        "graphs.d_separated",
        "graphs",
        "d_separated",
        _distinct("graphs.d_separated", lambda t, swig, query: (swig.edges, query)),
    ),
    ("graphs.drop_later_obstruction", "graphs", "drop_later_obstruction", None),
    ("expr.canonicalize", "expr", "canonicalize", None),
    ("expr.to_text", "expr", "to_text", None),
    *((f"rules.{r}", "rules", f"rule_{r}", _refusals(f"rules.{r}")) for r in RULES),
    ("engine.identify", "engine", "identify", None),
    ("engine.verify", "engine", "verify", None),
    ("engine.from_json", "engine", "Derivation.from_json", None),
    (
        "oracle.eval_expr",
        "oracle",
        "eval_expr",
        _distinct("oracle.eval_expr", lambda t, model, e, *rest: (t.serial(model), e)),
    ),
    ("oracle.eval_estimand", "oracle", "eval_estimand", None),
    ("oracle.joint", "oracle", "joint", _joint),
    ("oracle.conditional", "oracle", "RegimeJoint.conditional", _conditional),
    ("oracle.random_base_cpts", "oracle", "random_base_cpts", None),
    ("oracle.model_from_base_cpts", "oracle", "model_from_base_cpts", None),
    ("oracle.sample", "oracle", "sample", _sample),
    ("oracle.write_csv", "oracle", "Dataset.write_csv", _write_csv),
    ("oracle.read_csv", "oracle", "Dataset.read_csv", None),
    ("oracle.plugin_estimate", "oracle", "plugin_estimate", None),
    ("oracle.save_model", "oracle", "save_model", None),
    ("oracle.load_model", "oracle", "load_model", None),
)


def _wrapper(tracer: Tracer, name: str, fn, probe):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, probe)

    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def install(tracer: Tracer):
    """Wrap every target; returns a function that restores the originals."""
    modules = [m for n, m in sys.modules.items() if n == "swigident" or n.startswith("swigident.")]
    undo: list[tuple[object, str, object]] = []
    for name, module_name, attr, probe in TARGETS:
        owner = sys.modules[f"swigident.{module_name}"]
        *classes, fn_name = attr.split(".")
        for cls_name in classes:
            owner = getattr(owner, cls_name)
        if classes:
            raw = owner.__dict__[fn_name]
            if isinstance(raw, classmethod):
                new = classmethod(_wrapper(tracer, name, raw.__func__, probe))
            else:
                new = _wrapper(tracer, name, raw, probe)
            undo.append((owner, fn_name, raw))
            setattr(owner, fn_name, new)
            continue
        original = getattr(owner, fn_name)
        new = _wrapper(tracer, name, original, probe)
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, binding, value))
                    setattr(module, binding, new)

    def uninstall() -> None:
        for owner, binding, value in reversed(undo):
            setattr(owner, binding, value)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer report


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    distinct = {k: len(v) for k, v in tracer.distinct.items()}
    out: dict[str, float] = {}

    def layer(name, *fields):
        """Report name's self time and the given fields (calls,
        distinct_ratio)."""
        values = {
            "calls": calls[name],
            "distinct_ratio": _ratio(distinct.get(name, 0), calls[name]),
        }
        for f in fields:
            out[f"{name}.{f}"] = values[f]
        out[f"{name}.self_s"] = self_s.get(name, 0.0)

    layer("oracle.eval_expr", "calls", "distinct_ratio")
    layer("oracle.joint", "calls")
    out["oracle.joint.builds"] = counts["oracle.joint.builds"]
    out["oracle.joint.bytes"] = counts["oracle.joint.bytes"]
    layer("oracle.conditional", "calls")
    out["oracle.conditional.hit_ratio"] = _ratio(
        counts["oracle.conditional.hits"], calls["oracle.conditional"]
    )
    layer("oracle.random_base_cpts")
    layer("oracle.model_from_base_cpts")
    layer("graphs.d_separated", "calls", "distinct_ratio")
    layer("graphs.drop_later_obstruction", "calls")
    layer("model.regime_graph", "calls", "distinct_ratio")
    accepted = attempted = 0
    for rule in RULES:
        name = f"rules.{rule}"
        refused = counts[f"{name}.refused"]
        layer(name, "calls")
        out[f"{name}.refused"] = refused
        out[f"{name}.accept_ratio"] = _ratio(calls[name] - refused, calls[name])
        accepted += calls[name] - refused
        attempted += calls[name]
    out["rules.accept_ratio"] = _ratio(accepted, attempted)
    layer("expr.canonicalize", "calls")
    layer("expr.to_text", "calls")
    layer("engine.identify")
    layer("engine.verify")
    layer("oracle.sample")
    out["oracle.sample.rows"] = counts["oracle.sample.rows"]
    layer("oracle.write_csv")
    layer("oracle.read_csv")
    out["oracle.csv_bytes"] = counts["oracle.csv_bytes"]
    layer("oracle.plugin_estimate")
    layer("cli.main")
    layer("dsl.parse_graph")
    layer("dsl.parse_estimand")
    layer("dsl.emit_graph")
    layer("model.to_swig", "calls")
    return out
