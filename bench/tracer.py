"""Per-layer tracing of one mqcsim CLI run, installed from outside ``src/``.

The layers are the package modules.  :func:`install` wraps every public
function of each layer and rebinds every name under ``mqcsim.*`` that
refers to it, so from-imports (``spectrum`` as bound in ``mqcsim.cli``)
and calls inside a module go through the wrapper too.  Each call becomes
one span ``(id, function, start, end, parent, thread, failed, extra)``
kept in memory; :meth:`Tracer.dump` writes them out when the run ends.
Work submitted to a ``ThreadPoolExecutor`` is parented to the span that
submitted it.  A few functions carry a probe that records work counts
(terms in and out, grid sizes, bytes) at the same boundary as the span.

:func:`layer_metrics` turns the spans into the per-layer metrics of the
benchmark.  A metric whose source function no longer exists, or whose
probe no longer fits the function, reads ``None``.

Run as a script, this module is the traced counterpart of
``python -m mqcsim.cli``::

    python3 bench/tracer.py SPANS.json spectrum --preset fig4 ...

It exits with the CLI's exit code after writing the spans.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

PACKAGE = "mqcsim"
LAYERS = ("cli", "config", "spectra", "disorder", "expansion", "coupling",
          "atom", "basis", "oracle")

#: every monomial branches over five phase harmonics per atom in a kick
KICK_BRANCHES = 25


def fingerprint(value) -> str:
    """Stable text key of an argument value; arrays hash their bytes."""
    if isinstance(value, np.ndarray):
        digest = hashlib.sha1(np.ascontiguousarray(value).tobytes())
        return f"array({value.dtype.str},{value.shape},{digest.hexdigest()})"
    if isinstance(value, (list, tuple)):
        return "(" + ",".join(fingerprint(v) for v in value) + ")"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k!r}:{fingerprint(v)}" for k, v in
                              sorted(value.items(), key=repr)) + "}"
    return repr(value)


def _arguments(func, args, kwargs) -> dict:
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _call_key(func, args, kwargs, result) -> dict:
    return {"key": fingerprint(sorted(_arguments(func, args, kwargs).items()))}


def _kick(func, args, kwargs, result) -> dict:
    vector = _arguments(func, args, kwargs)["vector"]
    return {"terms_in": len(vector), "terms_out": len(result)}


def _resolvent(func, args, kwargs, result) -> dict:
    arguments = _arguments(func, args, kwargs)
    return {"terms_in": len(arguments["vector"]),
            "z_size": int(np.size(arguments["z"])),
            "terms_out": len(result)}


def _interaction(func, args, kwargs, result) -> dict:
    return {"terms_out": len(result)}


def _term_table(func, args, kwargs, result) -> dict:
    extra = _call_key(func, args, kwargs, result)
    extra.update(terms=len(result.tags), bytes=int(result.coeffs.nbytes))
    return extra


def _laplace(func, args, kwargs, result) -> dict:
    z1 = _arguments(func, args, kwargs)["z1_values"]
    return {"solves": 2 * int(np.size(z1))}


def _written(func, args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arguments(func, args, kwargs)["path"])}


#: work counts recorded at a function's boundary, by "layer.function"
PROBES = {
    "expansion.apply_kick": _kick,
    "expansion.apply_resolvent": _resolvent,
    "expansion.apply_interaction": _interaction,
    "disorder.averaged_solution": _call_key,
    "oracle.demodulated_term_table": _term_table,
    "oracle.demodulated_laplace": _laplace,
    "config.write_table": _written,
    "config.write_report": _written,
    "config.write_sidecar": _written,
}

#: probes that fail on a changed signature or result mark the span
#: instead of failing the run
PROBE_ERRORS = (TypeError, KeyError, AttributeError, OSError)


class Tracer:
    """In-memory span recorder shared by every wrapped function."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span on this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, func, probe=None):
        """Return ``func`` recording one span per call under ``name``."""
        index = len(self.names)
        self.names.append(name)
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            failed, result = True, None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                failed = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = None
                if probe is not None and not failed:
                    try:
                        extra = probe(func, args, kwargs, result)
                    except PROBE_ERRORS as err:
                        extra = {"probe_error": repr(err)}
                spans.append((sid, index, start, end, parent,
                              threading.get_ident(), failed, extra))

        return traced

    def adopt(self, parent, fn):
        """Run ``fn`` (on another thread) as a child of span ``parent``."""
        def run(*args, **kwargs):
            local = self._local
            saved = getattr(local, "stack", None)
            local.stack = [] if parent is None else [parent]
            try:
                return fn(*args, **kwargs)
            finally:
                local.stack = saved

        return run

    def dump(self, path, **fields) -> None:
        """Write the function names and every span as JSON."""
        record = dict(fields, functions=self.names,
                      spans=sorted(self.spans, key=lambda s: s[0]))
        with open(path, "w") as handle:
            json.dump(record, handle)


def install(tracer: Tracer, package: str = PACKAGE, layers=LAYERS):
    """Wrap the public functions of every layer module of ``package``.

    Returns a function that restores every binding it replaced.
    """
    importlib.import_module(package)
    for layer in layers:
        importlib.import_module(f"{package}.{layer}")
    modules = [module for name, module in sys.modules.items()
               if module is not None
               and (name == package or name.startswith(package + "."))]
    wrappers = {}
    for layer in layers:
        module = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__):
                continue
            name = f"{layer}.{attr}"
            wrappers[id(obj)] = (obj, tracer.wrap(name, obj, PROBES.get(name)))
    replaced = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
                replaced.append((module, attr, obj))

    submit = ThreadPoolExecutor.submit

    def traced_submit(self, fn, /, *args, **kwargs):
        return submit(self, tracer.adopt(tracer.current(), fn),
                      *args, **kwargs)

    ThreadPoolExecutor.submit = traced_submit

    def restore():
        ThreadPoolExecutor.submit = submit
        for module, attr, obj in replaced:
            setattr(module, attr, obj)

    return restore


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover.

    Children on the same thread nest inside their parent; children run
    by pool threads may overlap each other, so the covered part is the
    union of the child intervals clipped to the parent's.
    """
    children = defaultdict(list)
    for sid, _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, *_ in spans:
        covered, edge = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, edge), min(hi, end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[sid] = (end - start) - covered
    return out


def _ratio(numerator, denominator):
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: dict, layers=LAYERS) -> dict:
    """Per-layer metrics from a dumped trace (see :meth:`Tracer.dump`).

    Ratios whose base is zero (the work did not happen in this workload)
    read 0.
    """
    names = trace["functions"]
    spans = trace["spans"]
    known = set(names)
    selfs = self_times(spans)
    by_id = {span[0]: span for span in spans}
    layer_of = [name.split(".", 1)[0] for name in names]
    by_name = defaultdict(list)
    for span in spans:
        by_name[names[span[1]]].append(span)

    metrics = {}
    for layer in layers:
        own = [s for s in spans if layer_of[s[1]] == layer]
        escaped = [s for s in own if s[6] and (
            s[4] is None or layer_of[by_id[s[4]][1]] != layer)]
        metrics[f"{layer}.calls"] = len(own)
        metrics[f"{layer}.self_s"] = sum(selfs[s[0]] for s in own)
        metrics[f"{layer}.errors"] = len(escaped)

    def extras(name, field):
        if name not in known:
            return None
        values = []
        for span in by_name[name]:
            extra = span[7] or {}
            if field not in extra:
                return None
            values.append(extra[field])
        return values

    def total(name, field):
        values = extras(name, field)
        return None if values is None else sum(values)

    def inclusive_s(name):
        # outermost calls only, so recursion is not counted twice
        if name not in known:
            return None
        return sum(s[3] - s[2] for s in by_name[name]
                   if s[4] is None or names[by_id[s[4]][1]] != name)

    def self_s(name):
        if name not in known:
            return None
        return sum(selfs[s[0]] for s in by_name[name])

    def distinct_ratio(name):
        keys = extras(name, "key")
        return None if keys is None else _ratio(len(set(keys)), len(keys))

    def summed(*values):
        return None if any(v is None for v in values) else sum(values)

    resolvent = "expansion.apply_resolvent"
    points = None
    if extras(resolvent, "terms_in") is not None:
        points = sum(n * z for n, z in zip(extras(resolvent, "terms_in"),
                                           extras(resolvent, "z_size")))
    metrics["expansion.resolvent_term_points"] = points
    resolvent_s = inclusive_s(resolvent)
    metrics["expansion.resolvent_ns_per_term_point"] = _ratio(
        None if resolvent_s is None else resolvent_s * 1e9, points)
    metrics["expansion.terms_out"] = summed(
        total("expansion.apply_kick", "terms_out"),
        total(resolvent, "terms_out"),
        total("expansion.apply_interaction", "terms_out"))
    kicked_in = total("expansion.apply_kick", "terms_in")
    metrics["expansion.kick_keep_ratio"] = _ratio(
        total("expansion.apply_kick", "terms_out"),
        None if kicked_in is None else KICK_BRANCHES * kicked_in)

    metrics["disorder.distinct_call_ratio"] = distinct_ratio(
        "disorder.averaged_solution")

    table = "oracle.demodulated_term_table"
    metrics["oracle.term_table_s"] = inclusive_s(table)
    metrics["oracle.term_table_terms"] = total(table, "terms")
    metrics["oracle.term_table_bytes"] = total(table, "bytes")
    metrics["oracle.term_table_distinct_ratio"] = distinct_ratio(table)
    metrics["oracle.generator_s"] = inclusive_s("oracle.pair_generator")
    metrics["oracle.binned_kick_s"] = inclusive_s("oracle.binned_kick")
    metrics["oracle.laplace_self_s"] = self_s("oracle.demodulated_laplace")
    metrics["oracle.solves"] = total("oracle.demodulated_laplace", "solves")

    metrics["config.bytes_written"] = summed(
        total("config.write_table", "bytes"),
        total("config.write_report", "bytes"),
        total("config.write_sidecar", "bytes"))
    return metrics


def main(argv) -> int:
    if len(argv) < 1:
        print("usage: tracer.py SPANS.json CLI-ARGS...", file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = importlib.import_module(f"{PACKAGE}.cli")
    code = None
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code
        raise
    finally:
        tracer.dump(out, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
