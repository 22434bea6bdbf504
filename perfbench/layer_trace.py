"""Run one operation in-process with a span around every call into each layer.

    python3 perfbench/layer_trace.py OUT.json cli ARGS...  # weylcurrents CLI argv
    python3 perfbench/layer_trace.py OUT.json grid CALLS.json

The spans are installed from here, by rebinding names, so the library itself
is unchanged. A hooked name is replaced in every `weylcurrents` module that
bound it (for example `char_integrable_dominant` lives in both `characters`
and `kostka`). A name the library no longer has is reported as absent.

A layer's self time is its span time minus the time of the spans it caused.
A call that starts while its own layer (or a layer listed as absorbing it) is
innermost gets no span of its own, so recursion and helper calls stay in the
caller's layer. Spans are kept in memory; hot, tiny spans are only summed.
At the end OUT.json gets the per-layer sums, raw tallies and the span list; the
operation's own stdout and exit code pass through unchanged.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import sys
import time
import types
from dataclasses import dataclass

PKG = "weylcurrents"


@dataclass(frozen=True)
class Hook:
    module: str  # weylcurrents submodule that owns the name
    name: str  # attribute path inside it, e.g. "RootSystem.freudenthal_weights"
    layer: str  # metric prefix, e.g. "rootsystem.freudenthal"
    hot: bool = False  # called so often that spans are summed, not listed
    absorbed_by: tuple = ()  # layers in which a call of this hook gets no span


HOOKS = (
    Hook("rootsystem", "RootSystem.freudenthal_weights", "rootsystem.freudenthal"),
    Hook("rootsystem", "RootSystem.freudenthal_dominant", "rootsystem.freudenthal"),
    Hook("affine", "cosets_up_to_shift", "affine.cosets"),
    Hook("qseries", "QPolynomial.__mul__", "qseries.mul", hot=True),
    Hook("characters", "_pbw_raw", "characters.pbw"),
    Hook("characters", "char_integrable_dominant", "characters.integrable"),
    Hook("characters", "_dominant_in_ball", "characters.integrable"),
    Hook("characters", "expand_in_global_weyl", "characters.expansion"),
    Hook("characters", "char_local_weyl", "characters.demazure"),
    Hook("kostka", "kostka_paths", "kostka.paths"),
    Hook("kostka", "kostka_paths_restricted", "kostka.paths"),
    Hook("kostka", "kostka_alt_sum", "kostka.altsum"),
    Hook("kostka", "kostka_characters", "kostka.chars"),
    Hook("kostka", "kostka_characters_unrestricted", "kostka.chars"),
    # build_crystal's own time is vertex enumeration, sorting and indexing
    Hook("crystals", "build_crystal", "crystals.enumerate"),
    Hook("crystals", "tensor_stats", "crystals.stats", hot=True),
    Hook("crystals", "apply_op", "crystals.arrows", hot=True, absorbed_by=("crystals.energy",)),
    Hook("crystals", "energy_of_element", "crystals.energy", hot=True),
    Hook("crystals", "_build_R", "crystals.energy"),
    Hook("crystals", "_build_H", "crystals.energy"),
    Hook("crystals", "CrystalGraph.__init__", "crystals.seal"),
    Hook("crystals", "_write_cache", "crystals.cache_write"),
    Hook("crystals", "CrystalGraph.from_json", "crystals.cache_load"),
    Hook("crystals", "json.load", "crystals.cache_load"),
    Hook("cli", "_emit", "cli.emit"),
)


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [layer, start, child_time, span_id]
        self.self_s: dict = {}
        self.calls: dict = {}
        self.counts: dict = {}
        self.spans = []  # (id, layer, start, end, parent_id)
        self.span_ids = 0
        self.seen_keys: dict = {}
        self.pbw_tables: dict = {}  # id -> table, each computed table once
        self.absent = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _parent_id(self):
        for frame in reversed(self.stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def enter(self, hook):
        self.calls[hook.layer] = self.calls.get(hook.layer, 0) + 1
        span_id = None
        if not hook.hot:
            self.span_ids += 1
            span_id = self.span_ids
        frame = [hook.layer, 0.0, 0.0, span_id]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def leave(self, hook, frame):
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame[1]
        self.self_s[hook.layer] = self.self_s.get(hook.layer, 0.0) + dur - frame[2]
        if self.stack:
            self.stack[-1][2] += dur
        if frame[3] is not None:
            self.spans.append((frame[3], hook.layer, frame[1], end, self._parent_id()))

    def skip(self, hook):
        return bool(self.stack) and (
            self.stack[-1][0] == hook.layer or self.stack[-1][0] in hook.absorbed_by
        )

    def wrap(self, hook, raw, on_result):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.skip(hook):
                result = raw(*args, **kwargs)
            else:
                frame = tracer.enter(hook)
                try:
                    result = raw(*args, **kwargs)
                finally:
                    tracer.leave(hook, frame)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return wrapper


# -- counters taken at the hooks (run after the span closes) ------------------


def _on_cosets(tracer, args, reps):
    tracer.count("affine.coset_reps", len(reps))
    if tracer.stack and tracer.stack[-1][0] == "kostka.altsum":
        tracer.count("kostka.altsum_images", len(reps))


def _on_pbw(tracer, args, table):
    tracer.pbw_tables[id(table)] = table


def _on_ball(tracer, args, weights):
    tracer.count("characters.ball_weights", len(weights))


def _on_expansion(tracer, args, expansion):
    tracer.count("characters.expansion_terms", len(getattr(expansion, "multiplicities", ())))


def _on_seal(tracer, args, _none):
    graph = args[0]
    tracer.count("crystals.vertices", len(getattr(graph, "vertices", ())))
    tracer.count("crystals.highest", len(getattr(graph, "component_highest", ())))


def _on_cache_write(tracer, args, _none):
    for a in args:
        if isinstance(a, str) and os.path.isfile(a):
            tracer.count("crystals.cache_bytes", os.path.getsize(a))


ON_RESULT = {
    "cosets_up_to_shift": _on_cosets,
    "_pbw_raw": _on_pbw,
    "_dominant_in_ball": _on_ball,
    "expand_in_global_weyl": _on_expansion,
    "CrystalGraph.__init__": _on_seal,
    "_write_cache": _on_cache_write,
}


def _demazure_hits(tracer, raw):
    """Count calls whose (root system, weight) was asked before in this
    process: the reuse a memo layer can serve."""

    def wrapper(*args, **kwargs):
        key = repr(args[:2])
        tracer.count("characters.demazure_hits", int(key in tracer.seen_keys))
        tracer.seen_keys[key] = True
        return raw(*args, **kwargs)

    return wrapper


# -- installation -------------------------------------------------------------


def _package_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == PKG or n.startswith(PKG + ".")]


def install(tracer):
    """Rebind every hooked name. A hook whose module this operation did not
    import stays idle; one whose module or name is gone is listed as absent."""
    modules = _package_modules()
    for hook in HOOKS:
        module = f"{PKG}.{hook.module}"
        if module not in sys.modules and importlib.util.find_spec(module) is not None:
            continue
        owner = sys.modules.get(module)
        *path, attr = hook.name.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not hasattr(owner, attr):
            tracer.absent.append(f"{hook.module}.{hook.name}")
            continue
        raw = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        wrapped = tracer.wrap(hook, func, ON_RESULT.get(hook.name))
        if hook.name == "char_local_weyl":
            wrapped = _demazure_hits(tracer, wrapped)
        if isinstance(owner, type):
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        elif owner in modules:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
        else:
            # a module the library imported (json): give the importer a copy
            proxy = types.ModuleType(owner.__name__)
            proxy.__dict__.update(vars(owner))
            setattr(proxy, attr, wrapped)
            setattr(sys.modules[module], path[-1], proxy)


# -- summary ------------------------------------------------------------------

LAYER_SECONDS = (
    "rootsystem.freudenthal", "affine.cosets", "qseries.mul",
    "characters.pbw", "characters.integrable", "characters.expansion", "characters.demazure",
    "kostka.paths", "kostka.altsum", "kostka.chars",
    "crystals.enumerate", "crystals.stats", "crystals.arrows", "crystals.energy",
    "crystals.seal", "crystals.cache_write", "crystals.cache_load",
    "cli.emit",
)


def summary(tracer, import_s):
    """Layer self times and raw tallies of one operation. Both are sums, so
    the summaries of several processes that make up one operation add up."""
    layers = {f"{layer}_s": tracer.self_s.get(layer, 0.0) for layer in LAYER_SECONDS}
    layers["cli.import_s"] = import_s
    tallies = dict(tracer.counts)
    tallies.update({f"calls.{layer}": n for layer, n in tracer.calls.items()})
    pbw = tracer.pbw_tables.values()
    tallies["pbw.weights"] = sum(len(t) for t in pbw)
    tallies["pbw.dominant"] = sum(
        1 for t in pbw for w in t if all(c >= 0 for c in getattr(w, "coeffs", w))
    )
    return {"self_s": layers, "tallies": tallies, "absent": tracer.absent}


def combine(summaries):
    """One summary for an operation made of several traced processes."""
    out = {"self_s": {}, "tallies": {}, "absent": []}
    for s in summaries:
        for key in ("self_s", "tallies"):
            for name, v in s[key].items():
                out[key][name] = out[key].get(name, 0) + v
        out["absent"] += [a for a in s["absent"] if a not in out["absent"]]
    return out


def counters(tallies):
    """The per-layer counts and ratios reported from an operation's tallies."""

    def ratio(num, den):
        return num / den if den else 0.0

    def t(name):
        return tallies.get(name, 0)

    return {
        "rootsystem.freudenthal_calls": t("calls.rootsystem.freudenthal"),
        "qseries.mul_calls": t("calls.qseries.mul"),
        "characters.pbw_weights": t("pbw.weights"),
        "characters.pbw_dominant_ratio": ratio(t("pbw.dominant"), t("pbw.weights")),
        "characters.ball_weights": t("characters.ball_weights"),
        "characters.expansion_terms": t("characters.expansion_terms"),
        "characters.demazure_calls": t("calls.characters.demazure"),
        "characters.demazure_hit_ratio": ratio(
            t("characters.demazure_hits"), t("calls.characters.demazure")
        ),
        "kostka.altsum_images": t("kostka.altsum_images"),
        "affine.coset_reps": t("affine.coset_reps"),
        "crystals.cache_bytes": t("crystals.cache_bytes"),
        "crystals.vertices": t("crystals.vertices"),
        "crystals.highest_ratio": ratio(t("crystals.highest"), t("crystals.vertices")),
    }


def main(argv) -> int:
    out_path, mode, *rest = argv[1:]
    calls = None
    if mode == "grid":
        with open(rest[0], encoding="utf-8") as fh:
            calls = json.load(fh)
    elif mode != "cli":
        raise SystemExit(f"unknown mode {mode!r}")
    t0 = time.perf_counter()
    importlib.import_module(f"{PKG}.cli" if mode == "cli" else PKG)
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        if mode == "cli":
            code = sys.modules[f"{PKG}.cli"].main(rest)
        else:
            from grid_session import run_session

            json.dump(run_session(calls), sys.stdout)
            sys.stdout.write("\n")
            code = 0
    sys.stdout.write(captured.getvalue())
    sys.stdout.flush()
    result = summary(tracer, import_s)
    result["spans"] = tracer.spans
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
