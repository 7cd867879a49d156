"""Spans around calls into the nctorus layers, installed from outside.

Tracing wraps public functions of each module (and the point evaluation
``PeriodicFunction.__call__`` on its class) so that the library source stays
untouched.  Every wrapped call records one span: name, start, end, parent
span and the benchmark operation it belongs to.  Spans are kept in memory
and written out when the run ends.  Counters (calls, points, computed work)
are recorded at the same boundaries.

Names that a module imported by value are wrapped where they are used, for
example ``nctorus.pairing.represent`` as well as
``nctorus.oscillator.represent``.  The Hermite recurrence ``_hermite_iter``
is a generator consumed inside ``diagonal_elements`` and cannot be separated
from outside: its time is part of the ``diagonal_elements`` self time there,
and of ``hermite_rows`` everywhere else.

A layer's self time is the summed duration of its spans minus the time
covered by their direct child spans.
"""

import functools
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder with per-name counters."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, op index)
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._patches = []

    def span(self, name, fn, count=None):
        """Wrap fn so that each call records a span; count(args, kwargs) adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self.counts, args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)

        return traced

    def patch(self, owner, attr, name, count=None, original=None):
        """Replace owner.attr by its traced form (of original, if given)."""
        self.replace(owner, attr, self.span(name, original or getattr(owner, attr), count))

    def replace(self, owner, attr, value):
        """Set owner.attr to value, remembering how to undo it."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def self_times(self):
        """Per span name: (calls, total seconds, self seconds).

        Spans outside an operation (op index -1, such as the benchmark building
        its next inputs) are left out.
        """
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, own = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op < 0:
                continue
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[i]
        return {n: (calls[n], total[n], own[n]) for n in calls}

    def write(self, path):
        """Write spans as tab-separated lines: name, start, end, parent, op."""
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def _count_points(counter_name, n_samples_of=None):
    def count(counts, args, kwargs):
        x = args[1] if len(args) > 1 else kwargs["x"]
        counts[counter_name + ".calls"] += 1
        points = int(np.size(x))
        counts[counter_name + ".points"] += points
        if n_samples_of is not None:
            counts[counter_name + ".dense_terms"] += points * n_samples_of(args[0])
    return count


def _count_represent(counts, args, kwargs):
    # complex-by-real GEMMs as numpy runs them: 8 real flops per complex
    # multiply-add for M_f and the M_f @ T product, 2 for the real T
    a, basis = args[0], args[1]
    n, k = basis.n_modes, basis.n_quad
    for deg, _ in a.items():
        counts["oscillator.represent.gemm_flops"] += 8 * n * n * k
        if deg != 0:
            counts["oscillator.represent.gemm_flops"] += 2 * n * n * k + 8 * n ** 3


def _count_diagonals(counts, args, kwargs):
    pairs = list(args[0])
    n_modes = args[1]
    grid_factor = kwargs.get("grid_factor", 8)
    distinct = len({0.0} | {float(a) for _, a in pairs})
    counts["oscillator.diagonal_elements.mode_points"] += (
        n_modes * (grid_factor * n_modes + 1) * distinct
    )


def _count_calls(name):
    def count(counts, args, kwargs):
        counts[name] += 1
    return count


def install(tracer):
    """Wrap the public layer functions of nctorus; undo with tracer.uninstall()."""
    from nctorus import algebra, cli, heatzeta, ktheory, oscillator, pairing, periodic

    tracer.patch(periodic.PeriodicFunction, "__call__", "periodic.eval",
                 _count_points("periodic.eval", lambda f: f.n_samples))

    for fn in ("multiply", "adjoint", "projection_defect", "chern_number",
               "rieffel_projection"):
        count = _count_calls("algebra.multiply.calls") if fn == "multiply" else None
        original = getattr(algebra, fn)
        tracer.patch(algebra, fn, "algebra." + fn, count)
        if hasattr(pairing, fn):
            tracer.patch(pairing, fn, "algebra." + fn, count, original=original)

    hermite_rows = oscillator.hermite_rows
    tracer.patch(oscillator, "hermite_rows", "oscillator.hermite_rows")
    tracer.patch(heatzeta, "hermite_rows", "oscillator.hermite_rows",
                 original=hermite_rows)
    tracer.patch(oscillator, "multiplication_matrix", "oscillator.multiplication_matrix")
    tracer.patch(oscillator, "translation_matrix", "oscillator.translation_matrix")
    represent = oscillator.represent
    tracer.patch(oscillator, "represent", "oscillator.represent", _count_represent)
    tracer.patch(pairing, "represent", "oscillator.represent", _count_represent,
                 original=represent)
    diagonal_elements = oscillator.diagonal_elements
    tracer.patch(oscillator, "diagonal_elements", "oscillator.diagonal_elements",
                 _count_diagonals)
    tracer.patch(heatzeta, "diagonal_elements", "oscillator.diagonal_elements",
                 _count_diagonals, original=diagonal_elements)
    algebra_diagonals = oscillator.algebra_diagonals
    tracer.patch(oscillator, "algebra_diagonals", "oscillator.algebra_diagonals")
    tracer.patch(pairing, "algebra_diagonals", "oscillator.algebra_diagonals",
                 original=algebra_diagonals)

    # eigh and svd are reached as np.linalg.* inside pairing.fedosov_index;
    # nothing else in nctorus calls them
    tracer.patch(np.linalg, "eigh", "pairing.eigh")
    tracer.patch(np.linalg, "svd", "pairing.svd")
    for fn in ("fedosov_index", "character_degree0", "index_pairing"):
        tracer.patch(pairing, fn, "pairing." + fn)

    tracer.patch(heatzeta, "heat_trace_weighted", "heatzeta.heat_trace_weighted")
    tracer.patch(heatzeta, "dixmier_limit", "heatzeta.dixmier_limit")
    zeta_trace = heatzeta.zeta_trace

    def zeta_by_method(f, alpha, s, method=None, **kwargs):
        if method is None:
            method = "eigen_sum_tail" if float(alpha) == 0.0 else "heat_mellin"
        return methods[method](f, alpha, s, method=method, **kwargs)

    methods = {m: tracer.span("heatzeta.zeta_trace." + m, zeta_trace)
               for m in ("eigen_sum_tail", "heat_mellin")}
    tracer.replace(heatzeta, "zeta_trace", zeta_by_method)

    tracer.patch(ktheory, "gap_label_witness", "ktheory.gap_label_witness")
    tracer.patch(cli, "main", "cli.main")
