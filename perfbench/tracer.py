"""Span tracer that wraps the program's public entry points from outside.

Each wrapped call records one span: a name, a start and end time, and the
index of the span that was open when it began (its parent).  Spans are kept
in flat arrays in memory and written out once, when the run ends.  Result
hooks read iteration and convergence counts from the objects the solvers
return (ProxResult, FbsResult, SchemeTrace), so nothing in the program is
changed or re-instrumented.

Self time of a span is its duration minus the durations of its direct
children; calls are single-threaded and properly nested, so the children
cover disjoint parts of the parent's interval.
"""

import time
from array import array

import numpy as np

from mmrsafi import fbs, forward, linops, prox, schemes

# Span names, one per layer boundary.  The per-layer metrics aggregate them.
BANK_FWD = "linops.bank_fwd"
BANK_ADJ = "linops.bank_adj"
NORM = "linops.norm"
PROX = "prox"
FBS = "fbs"
FORWARD = "forward"
MASK = "schemes.mask"
OBJECTIVE = "schemes.objective"
RUN_CVX = "schemes.run_cvx"
RUN_MMR = "schemes.run_mmr"
RUN_SAFI = "schemes.run_safi"

COUNTERS = ("prox.iters", "prox.unconverged", "fbs.iters",
            "fbs.unconverged", "schemes.outer_steps")


def _count_solver(prefix):
    def hook(tracer, result):
        tracer.counts[prefix + ".iters"] += result.iterations
        if not result.converged:
            tracer.counts[prefix + ".unconverged"] += 1
    return hook


def _count_outer_steps(tracer, result):
    _, trace = result
    tracer.counts["schemes.outer_steps"] += len(trace.residuals)


# (owner, attribute, span name, result hook).  A function imported by name
# into another module is patched in every module that calls it, because the
# callers look the name up in their own globals.
_TARGETS = (
    (linops.FilterBank, "forward", BANK_FWD, None),
    (linops.FilterBank, "adjoint", BANK_ADJ, None),
    (prox, "operator_norm", NORM, None),
    (fbs, "operator_norm", NORM, None),
    (prox, "prox_weighted_l1", PROX, _count_solver("prox")),
    (fbs, "prox_weighted_l1", PROX, _count_solver("prox")),
    (schemes, "fbs_solve", FBS, _count_solver("fbs")),
    (forward.MaskedDftOp, "forward", FORWARD, None),
    (forward.MaskedDftOp, "adjoint", FORWARD, None),
    (schemes, "mask_mmr", MASK, None),
    (schemes, "mask_safi", MASK, None),
    (schemes, "eval_objective", OBJECTIVE, None),
    (schemes, "run_cvx", RUN_CVX, _count_outer_steps),
    (schemes, "run_mmr", RUN_MMR, _count_outer_steps),
    (schemes, "run_safi", RUN_SAFI, _count_outer_steps),
)


class Tracer:
    """Records spans while installed; use as a context manager per round."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name, fn, hook):
        nid = self._id(name)
        name_id, parent, start, end = (self.name_id, self.parent, self.start,
                                       self.end)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for owner, attr, name, hook in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def mark(self):
        """Span index and counter snapshot delimiting a round."""
        return len(self.start), dict(self.counts)

    def layer_totals(self, begin, end):
        """Per-layer (calls, seconds, self seconds) over spans [begin, end)
        plus the counter deltas, for one round."""
        (b, counts_b), (e, counts_e) = begin, end
        ids = np.frombuffer(self.name_id, dtype=np.int32)[b:e]
        parent = np.frombuffer(self.parent, dtype=np.int64)[b:e]
        dur = (np.frombuffer(self.end, dtype=np.float64)[b:e]
               - np.frombuffer(self.start, dtype=np.float64)[b:e])
        child = np.zeros_like(dur)
        nested = parent >= b
        np.add.at(child, parent[nested] - b, dur[nested])
        totals = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            totals[name] = (int(sel.sum()), float(dur[sel].sum()),
                            float((dur[sel] - child[sel]).sum()))
        counts = {k: counts_e[k] - counts_b[k] for k in COUNTERS}
        return totals, counts, e - b

    def save(self, path):
        """Write every recorded span to an .npz file."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
