"""Spans around every call into the program's modules, from outside it.

The tracer swaps wrappers into the namespaces the program's own call sites
read (``pipeline.certify``, ``certify.resultant``, ``linalg.nullspace``,
...) and swaps the originals back afterwards, so untraced ops run the
program untouched.  Spans stay in memory; per-layer metrics are derived
from them at the end of a run.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path in it, span name).  The span name's prefix is
# the layer; a function bound in several namespaces is wrapped in each.
SITES = [
    # the benchmark's own entry points
    ("tuttesolve.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("tuttesolve.pipeline", "column_series", "pipeline.column_series"),
    ("tuttesolve.pipeline", "CoeffTable.build", "pipeline.CoeffTable.build"),
    ("tuttesolve.eqparse", "parse_equation", "eqparse.parse_equation"),
    ("tuttesolve.report", "render_report", "report.render_report"),
    ("tuttesolve.report", "parse_report", "report.parse_report"),
    # the pipeline's stages
    ("tuttesolve.pipeline", "parse_equation", "eqparse.parse_equation"),
    ("tuttesolve.pipeline", "check_well_posed", "funceq.check_well_posed"),
    ("tuttesolve.pipeline", "expand_series", "funceq.expand_series"),
    ("tuttesolve.pipeline", "specialize_y0", "funceq.specialize_y0"),
    ("tuttesolve.pipeline", "guess_algeq", "guessing.guess_algeq"),
    ("tuttesolve.pipeline", "eliminate_g", "certify.eliminate_g"),
    ("tuttesolve.pipeline", "certify", "certify.certify"),
    ("tuttesolve.pipeline", "algeq_to_ode", "holonomic.algeq_to_ode"),
    ("tuttesolve.pipeline", "ode_to_rec", "holonomic.ode_to_rec"),
    ("tuttesolve.pipeline", "minimize_rec", "holonomic.minimize_rec"),
    ("tuttesolve.pipeline", "unroll", "evalrec.unroll"),
    # inside certification
    ("tuttesolve.certify", "check_well_posed", "funceq.check_well_posed"),
    ("tuttesolve.certify", "expand_series", "funceq.expand_series"),
    ("tuttesolve.certify", "specialize_y0", "funceq.specialize_y0"),
    ("tuttesolve.certify", "defect_annihilator", "certify.defect_annihilator"),
    ("tuttesolve.certify", "resultant", "mpoly.resultant"),
    ("tuttesolve.certify", "squarefree_primitive", "mpoly.squarefree_primitive"),
    ("tuttesolve.certify", "vanishing_bound", "mpoly.vanishing_bound"),
    # expand_series checks well-posedness first
    ("tuttesolve.funceq", "check_well_posed", "funceq.check_well_posed"),
    # guessing binds it at import; funceq imports it from mpoly per call
    ("tuttesolve.guessing", "squarefree_primitive", "mpoly.squarefree_primitive"),
    ("tuttesolve.mpoly", "squarefree_primitive", "mpoly.squarefree_primitive"),
    # guessing and holonomic call through the linalg module object
    ("tuttesolve.linalg", "nullspace", "linalg.nullspace"),
    ("tuttesolve.linalg", "nullspace_field", "linalg.nullspace_field"),
]

LAYERS = ("eqparse", "funceq", "guessing", "linalg", "certify", "mpoly",
          "holonomic", "evalrec", "report", "pipeline")

ROOTS = {"solve": "pipeline.run_pipeline", "table": "pipeline.CoeffTable.build",
         "column": "pipeline.column_series"}


def _notes(fail) -> dict:
    """Per-call facts recorded on a span, from its arguments and result."""

    def resultant(args, out):
        A, B, v = args
        return {"var": v, "deg": [A.degree(v), B.degree(v)],
                "terms_out": len(out.terms)}

    def certificate(args, out):
        return {"status": out.status, "bound": out.bound,
                "checked_order": out.checkedOrder,
                "annihilator_terms": out.annihilator_support}

    return {
        "mpoly.resultant": resultant,
        "certify.certify": certificate,
        "funceq.expand_series": lambda args, out: {"order": args[1]},
        "guessing.guess_algeq": lambda args, out: {"fail": out is fail},
        "evalrec.unroll": lambda args, out: {
            "bits": abs(out.value.numerator).bit_length()},
        "report.render_report": lambda args, out: {
            "bytes": len(out.encode())},
    }


class Tracer:
    """Records spans as [name, parent index, start, end, facts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._notes = _notes(importlib.import_module("tuttesolve.guessing").FAIL)

    def _wrap(self, fn, name):
        spans, stack, note = self.spans, self._stack, self._notes.get(name)

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = perf_counter()
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[3] = perf_counter()
            if note is not None:
                span[4] = note(args, out)
            return out

        return traced

    def install(self) -> None:
        for modname, path, name in SITES:
            owner = importlib.import_module(modname)
            *parents, attr = path.split(".")
            for p in parents:
                owner = getattr(owner, p)
            raw = owner.__dict__[attr]
            wrapped = self._wrap(getattr(owner, attr), name)
            if isinstance(raw, classmethod):
                wrapped = staticmethod(wrapped)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def check_op(spans: list[list], first: int, kind: str, wall: float):
    """Self-check of one traced op's spans; returns a problem or None.

    The op must have exactly one root span of its entry point, and its
    top-level spans must fit inside the op's measured time.
    """
    top = [s for s in spans[first:] if s[1] == -1]
    roots = [s for s in top if s[0] == ROOTS[kind]]
    if len(roots) != 1:
        return f"{len(roots)} root spans of {ROOTS[kind]}"
    covered = sum(s[3] - s[2] for s in top)
    if covered > wall + 1e-6:
        return f"spans cover {covered:.6f} s of a {wall:.6f} s op"
    return None


PER_LAYER = [
    ("mpoly.resultant_s", "s"), ("mpoly.resultant_calls", "count"),
    ("mpoly.resultant_terms_out", "count"), ("mpoly.squarefree_s", "s"),
    ("mpoly.self_s", "s"),
    ("certify.self_s", "s"), ("certify.eliminate_s", "s"),
    ("certify.annihilator_s", "s"), ("certify.annihilator_terms", "count"),
    ("certify.bound", "order"), ("certify.checked_order", "order"),
    ("certify.refuted_ratio", "ratio"),
    ("funceq.expand_s", "s"), ("funceq.expand_calls", "count"),
    ("funceq.max_order", "order"), ("funceq.well_posed_s", "s"),
    ("funceq.self_s", "s"),
    ("guessing.guess_s", "s"), ("guessing.fail_ratio", "ratio"),
    ("guessing.self_s", "s"),
    ("linalg.nullspace_s", "s"), ("linalg.nullspace_calls", "count"),
    ("linalg.self_s", "s"),
    ("holonomic.ode_s", "s"), ("holonomic.rec_s", "s"),
    ("holonomic.minimize_s", "s"), ("holonomic.minimize_attempts", "count"),
    ("holonomic.self_s", "s"),
    ("evalrec.unroll_s", "s"), ("evalrec.value_bits", "bits"),
    ("report.render_s", "s"), ("report.parse_s", "s"),
    ("report.bytes", "bytes"),
    ("eqparse.parse_s", "s"), ("pipeline.self_s", "s"),
    ("pipeline.restarts", "count"), ("trace.overhead_s", "s"),
]


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


class Profile:
    """Totals over the spans of a traced run's ops."""

    def __init__(self, spans: list[list], ops: int):
        self.spans = spans
        self.ops = ops
        self.total = Counter()          # inclusive seconds per span name
        self.calls = Counter()
        self.self_by_layer = Counter()
        self.facts = defaultdict(list)  # span name -> facts of each call
        self.pipeline_expansions = 0    # expansions run_pipeline asked for
        child = [0.0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child[s[1]] += s[3] - s[2]
        for i, (name, parent, t0, t1, facts) in enumerate(spans):
            self.total[name] += t1 - t0
            self.calls[name] += 1
            self.self_by_layer[name.split(".")[0]] += t1 - t0 - child[i]
            if facts is not None and "error" not in facts:
                self.facts[name].append(facts)
            if (name == "funceq.expand_series" and parent >= 0
                    and spans[parent][0] == "pipeline.run_pipeline"):
                self.pipeline_expansions += 1
        self.solves = self.calls["pipeline.run_pipeline"]

    def metrics(self, overhead_s: float) -> dict[str, float]:
        n = self.ops
        per_op = {
            "mpoly.resultant_s": self.total["mpoly.resultant"],
            "mpoly.resultant_calls": self.calls["mpoly.resultant"],
            "mpoly.squarefree_s": self.total["mpoly.squarefree_primitive"],
            "certify.eliminate_s": self.total["certify.eliminate_g"],
            "certify.annihilator_s": self.total["certify.defect_annihilator"],
            "funceq.expand_s": self.total["funceq.expand_series"],
            "funceq.expand_calls": self.calls["funceq.expand_series"],
            "funceq.well_posed_s": self.total["funceq.check_well_posed"],
            "guessing.guess_s": self.total["guessing.guess_algeq"],
            "linalg.nullspace_s": self.total["linalg.nullspace"],
            "linalg.nullspace_calls": self.calls["linalg.nullspace"],
            "holonomic.ode_s": self.total["holonomic.algeq_to_ode"],
            "holonomic.rec_s": self.total["holonomic.ode_to_rec"],
            "holonomic.minimize_s": self.total["holonomic.minimize_rec"],
            "holonomic.minimize_attempts": self.calls["holonomic.minimize_rec"],
            "evalrec.unroll_s": self.total["evalrec.unroll"],
            "report.render_s": self.total["report.render_report"],
            "report.parse_s": self.total["report.parse_report"],
            "eqparse.parse_s": self.total["eqparse.parse_equation"],
        }
        out = {k: v / n for k, v in per_op.items()}
        for layer in ("mpoly", "certify", "funceq", "guessing", "linalg",
                      "holonomic", "pipeline"):
            out[f"{layer}.self_s"] = self.self_by_layer[layer] / n
        certs = self.facts["certify.certify"]
        proven = [c for c in certs if c["status"] == "proven"]
        guesses = self.facts["guessing.guess_algeq"]
        out.update({
            "mpoly.resultant_terms_out": _mean(
                f["terms_out"] for f in self.facts["mpoly.resultant"]),
            "certify.annihilator_terms": _mean(
                c["annihilator_terms"] for c in proven),
            "certify.bound": _mean(c["bound"] for c in proven),
            "certify.checked_order": _mean(c["checked_order"] for c in proven),
            "certify.refuted_ratio": _mean(
                c["status"] == "refuted" for c in certs),
            "funceq.max_order": max(
                (f["order"] for f in self.facts["funceq.expand_series"]),
                default=0),
            "guessing.fail_ratio": _mean(g["fail"] for g in guesses),
            "evalrec.value_bits": _mean(
                f["bits"] for f in self.facts["evalrec.unroll"]),
            "report.bytes": _mean(
                f["bytes"] for f in self.facts["report.render_report"]),
            "pipeline.restarts": ((self.pipeline_expansions - self.solves)
                                  / self.solves if self.solves else 0.0),
            "trace.overhead_s": overhead_s,
        })
        return out

    def shares(self) -> list[tuple[str, float]]:
        """Each layer's share of all self time, largest first."""
        whole = sum(self.self_by_layer.values()) or 1.0
        return sorted(((layer, self.self_by_layer[layer] / whole)
                       for layer in LAYERS), key=lambda t: -t[1])

    def resultants(self) -> list[tuple[tuple, list[int]]]:
        """Output term counts of the resultant calls, by eliminated
        variable and input degrees."""
        seen = defaultdict(list)
        for f in self.facts["mpoly.resultant"]:
            seen[(f["var"], *f["deg"])].append(f["terms_out"])
        return sorted(seen.items())
