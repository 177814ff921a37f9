"""Span tracer and layer counters, installed from outside the package.

``Tracer.install()`` replaces each traced function of ``hccourant`` with a
wrapper at every module binding site (``from .exactlin import membership``
binds the same function object in several modules, so each binding is
replaced), and wraps traced methods on their class.  The package itself is
not modified.

Each wrapped call records one span: name, start, end, parent span and the
request (the top-level benchmark operation) it belongs to.  Spans stay in
memory in flat arrays and are written out by ``write_spans`` at the end of
the run.  A span's self time is its duration minus the time covered by its
child spans and by the tracer's own counter hooks.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

#: layer -> (module, traced names); "Class" wraps the constructor and
#: "Class.method" wraps a method
TRACED = {
    "exactlin": ("hccourant.exactlin",
                 ("rref", "rref_transform", "membership", "quotient_basis",
                  "nullspace", "row_space", "make_reducer")),
    "hochschild": ("hccourant.hochschild",
                   ("homology", "cohomology_h1", "boundary_b",
                    "lie_derivative", "interior_product", "connes_B")),
    "courant": ("hccourant.courant",
                ("ESpace", "EpsilonSpace", "ESpace.courant_bracket",
                 "EpsilonSpace.bracket", "EpsilonSpace.form")),
    "dirac": ("hccourant.dirac",
              ("is_dirac", "poisson_graph", "is_poisson",
               "biderivation_space", "find_two_form_witness",
               "lie_algebroid_check")),
    "morita": ("hccourant.morita",
               ("verify_morita", "build_morita_maps", "verify_opposite")),
    "omni": ("hccourant.omni",
             ("build_omni_iso", "verify_main_theorem", "d_structure_check")),
    "algebra": ("hccourant.algebra", ("make_algebra", "matrix_algebra")),
    "files": ("hccourant.files", ("load_algebra_ref", "load_bracket_table")),
    "cli": ("hccourant.cli", ("main",)),
    "suite": ("hccourant.suite", ("run_suite",)),
}

#: counters derived per layer (all are exact counts or ratios of counts)
COUNTERS = (
    "exactlin.rref.entries", "exactlin.rref.nnz",
    "exactlin.qmatrix.entries_coerced", "exactlin.membership.repeat_ratio",
    "exactlin.quotient_basis.kept_ratio",
    "hochschild.homology.repeat_ratio", "hochschild.homology.chain_dim_max",
    "courant.bracket.repeat_ratio",
    "dirac.is_dirac.true_ratio", "dirac.two_form_witness.tries",
    "dirac.two_form_witness.hit_ratio",
)


def traced_names():
    """Every traced span name, ``<layer>.<name>``, in table order."""
    return [f"{layer}.{name}" for layer, (_, names) in TRACED.items()
            for name in names]


def _matrix_fingerprint(S):
    """Shape plus the hashes of the first, middle and last rows.

    Hashing every entry of every span matrix would cost more than the
    elimination it measures under the ``fractions`` backend; three sampled
    rows separate the matrices one run produces.
    """
    d = S.data
    n = len(d)
    if n == 0:
        return (0, S.cols)
    return (n, S.cols, hash(d[0]), hash(d[n // 2]), hash(d[-1]))


class Tracer:
    """In-memory span store plus the counters of the layer table."""

    def __init__(self):
        self._name_id = {}
        self.name_of = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_hook = array("d")   # counter-hook time inside the span
        self._stack = []
        self._request = -1
        self.counts = {
            "rref.entries": 0, "rref.nnz": 0, "qmatrix.entries_coerced": 0,
            "membership.calls": 0, "membership.repeats": 0,
            "homology.calls": 0, "homology.repeats": 0,
            "homology.chain_dim_max": 0,
            "bracket.calls": 0, "bracket.repeats": 0,
            "is_dirac.calls": 0, "is_dirac.true": 0,
            "two_form_witness.tries": 0, "two_form_witness.hits": 0,
            "quotient_basis.kept": 0,
        }
        self._seen_spans = set()
        self._seen_homology = set()
        self._seen_brackets = set()
        self._algebra_token = {}   # id(algebra) -> (algebra, token)
        self._structure_token = {}
        self._restore = []
        self.hook_s = 0.0

    # -- span recording -----------------------------------------------------

    def _nid(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.name_of)
            self.name_of.append(name)
        return nid

    def begin_request(self, name):
        """Open a top-level span for one benchmark operation."""
        idx = self._open(self._nid(name))
        self._request = idx
        self.span_request[idx] = idx
        return idx

    def end_request(self, idx):
        self._close(idx)
        self._request = -1

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_request.append(self._request)
        self.span_hook.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def _hook_done(self, t0):
        """Charge counter-hook time to the open span, not to its self time."""
        dt = time.perf_counter() - t0
        self.hook_s += dt
        if self._stack:
            self.span_hook[self._stack[-1]] += dt

    def _innermost(self):
        return self.name_of[self.span_name[self._stack[-1]]] \
            if self._stack else None

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced function at every ``hccourant`` binding site."""
        import hccourant  # noqa: F401 - loads every submodule
        for layer, (modname, names) in TRACED.items():
            mod = importlib.import_module(modname)
            for name in names:
                span = f"{layer}.{name}"
                hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
                if "." in name:
                    cls_name, meth = name.split(".")
                    self._wrap_attr(getattr(mod, cls_name), meth, span, hook)
                elif isinstance(getattr(mod, name), type):
                    self._wrap_attr(getattr(mod, name), "__init__", span,
                                    hook)
                else:
                    self._rebind(getattr(mod, name),
                                 self._wrapper(getattr(mod, name), span,
                                               hook))
        exactlin = importlib.import_module("hccourant.exactlin")
        self._wrap_qmatrix_init(exactlin.QMatrix)
        dirac = importlib.import_module("hccourant.dirac")
        self._count_two_form_tries(dirac)

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "hccourant"
                                      or n.startswith("hccourant."))]

    def _rebind(self, orig, wrapper):
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def _wrap_attr(self, owner, attr, span, hook):
        orig = owner.__dict__[attr]
        self._restore.append((owner, attr, orig))
        setattr(owner, attr, self._wrapper(orig, span, hook))

    def _wrapper(self, fn, span, hook):
        nid = self._nid(span)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                t0 = time.perf_counter()
                hook(args, result)
                tracer._hook_done(t0)
            return result

        return functools.wraps(fn)(traced)

    def _wrap_qmatrix_init(self, QMatrix):
        orig = QMatrix.__dict__["__init__"]
        counts = self.counts

        def __init__(self_, data, cols=None):
            orig(self_, data, cols)
            counts["qmatrix.entries_coerced"] += self_.rows * self_.cols

        self._restore.append((QMatrix, "__init__", orig))
        QMatrix.__init__ = __init__

    def _count_two_form_tries(self, dirac):
        orig = dirac._two_form_conditions
        tracer = self

        def conditions(*args, **kwargs):
            if tracer._innermost() == "dirac.find_two_form_witness":
                tracer.counts["two_form_witness.tries"] += 1
            return orig(*args, **kwargs)

        self._restore.append((dirac, "_two_form_conditions", orig))
        dirac._two_form_conditions = conditions

    # -- counter hooks (run after the span closes) ---------------------------

    def _count_rref_input(self, M):
        self.counts["rref.entries"] += M.rows * M.cols
        self.counts["rref.nnz"] += sum(1 for row in M.data for x in row if x)

    def _hook_rref(self, args, result):
        self._count_rref_input(args[0])

    def _hook_rref_transform(self, args, result):
        self._count_rref_input(args[0])

    def _hook_membership(self, args, result):
        key = _matrix_fingerprint(args[1])
        self.counts["membership.calls"] += 1
        if key in self._seen_spans:
            self.counts["membership.repeats"] += 1
        else:
            self._seen_spans.add(key)

    def _hook_homology(self, args, result):
        A, n = args[0], args[1]
        self.counts["homology.calls"] += 1
        key = (self._algebra_key(A), n)
        if key in self._seen_homology:
            self.counts["homology.repeats"] += 1
        else:
            self._seen_homology.add(key)
        self.counts["homology.chain_dim_max"] = max(
            self.counts["homology.chain_dim_max"], A.dim ** (n + 2))

    def _hook_ESpace_courant_bracket(self, args, result):
        E, e1, e2 = args[0], args[1], args[2]
        self.counts["bracket.calls"] += 1
        key = (self._algebra_key(E.algebra), e1.x, e1.alpha, e2.x, e2.alpha)
        if key in self._seen_brackets:
            self.counts["bracket.repeats"] += 1
        else:
            self._seen_brackets.add(key)

    def _hook_is_dirac(self, args, result):
        self.counts["is_dirac.calls"] += 1
        self.counts["is_dirac.true"] += bool(result.dirac)

    def _hook_find_two_form_witness(self, args, result):
        self.counts["two_form_witness.hits"] += result[0] is not None

    def _algebra_key(self, A):
        """A small token per distinct structure (same constants, same token)."""
        hit = self._algebra_token.get(id(A))
        if hit is not None and hit[0] is A:
            return hit[1]
        content = (A.structure, A.unit)
        token = self._structure_token.setdefault(
            content, len(self._structure_token))
        self._algebra_token[id(A)] = (A, token)
        return token

    # -- summaries ----------------------------------------------------------

    def function_table(self):
        """``{span name: (calls, total_s, self_s)}`` over every span."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        table = {name: [0, 0.0, 0.0] for name in self.name_of}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            row = table[self.name_of[self.span_name[i]]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i] - self.span_hook[i]
        return {k: tuple(v) for k, v in table.items()}

    def self_under(self, layer, ancestor):
        """Self time of ``layer`` spans that run below an ``ancestor`` span."""
        n = len(self.span_name)
        anc = self._name_id.get(ancestor)
        under = [False] * n
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                under[i] = under[p] or self.span_name[p] == anc
                child[p] += self.span_end[i] - self.span_start[i]
        prefix = layer + "."
        total = 0.0
        for i in range(n):
            if under[i] and self.name_of[self.span_name[i]].startswith(prefix):
                total += (self.span_end[i] - self.span_start[i] - child[i]
                          - self.span_hook[i])
        return total

    def counters(self):
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        tested = self._membership_under("exactlin.quotient_basis")
        return {
            "exactlin.rref.entries": c["rref.entries"],
            "exactlin.rref.nnz": c["rref.nnz"],
            "exactlin.qmatrix.entries_coerced":
                c["qmatrix.entries_coerced"],
            "exactlin.membership.repeat_ratio":
                ratio(c["membership.repeats"], c["membership.calls"]),
            "exactlin.quotient_basis.kept_ratio":
                ratio(c["quotient_basis.kept"], tested),
            "hochschild.homology.repeat_ratio":
                ratio(c["homology.repeats"], c["homology.calls"]),
            "hochschild.homology.chain_dim_max":
                c["homology.chain_dim_max"],
            "courant.bracket.repeat_ratio":
                ratio(c["bracket.repeats"], c["bracket.calls"]),
            "dirac.is_dirac.true_ratio":
                ratio(c["is_dirac.true"], c["is_dirac.calls"]),
            "dirac.two_form_witness.tries": c["two_form_witness.tries"],
            "dirac.two_form_witness.hit_ratio":
                ratio(c["two_form_witness.hits"],
                      c["two_form_witness.tries"]),
        }

    def _hook_quotient_basis(self, args, result):
        self.counts["quotient_basis.kept"] += result[0].rows

    def _membership_under(self, parent_name):
        """Membership calls made directly by ``parent_name`` spans (the rows
        ``quotient_basis`` tests against its growing echelon)."""
        pid = self._name_id.get(parent_name)
        mid = self._name_id.get("exactlin.membership")
        return sum(1 for i in range(len(self.span_name))
                   if self.span_name[i] == mid
                   and self.span_parent[i] >= 0
                   and self.span_name[self.span_parent[i]] == pid)

    def write_spans(self, path):
        """One JSON line per span, in the order the spans were opened."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps({
                    "id": i, "name": self.name_of[self.span_name[i]],
                    "parent": self.span_parent[i],
                    "request": self.span_request[i],
                    "start": self.span_start[i], "end": self.span_end[i],
                    "hook_s": self.span_hook[i]}) + "\n")
