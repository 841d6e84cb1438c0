"""Outside-in tracer for the traced benchmark run.

It wraps chosen padicforms functions and methods from outside the package:
every module attribute bound to a wrapped function is replaced (``derham``
imports ``p_local_solve`` by name, ``cli`` imports ``cohomology_ring``), and
everything is put back by ``uninstall``.  Spans (name, start, end, parent, op)
are kept in memory and written out at the end.  A span's self time is its
duration minus the time its child spans cover; the time spent fingerprinting a
call's inputs is charged to neither.  Calls are recorded only inside an op,
between ``begin_op`` and ``end_op``, so the output checks between ops leave
no trace.

``arith`` is not wrapped: ``valuation`` runs more than 100k times per rp2 omega
op, so a wrapper would distort the run; its cost lands in linalg's self time.
"""

import functools
import json
import sys
import time
import weakref
from collections import defaultdict


# A probe maps (tracer, args) to (input fingerprint, shape or None); a shape
# is (rows, cols, largest coefficient bit length).

def _probe_p_local_snf(tracer, args):
    rows, p = args[0], args[1]
    bits = 0
    for row in rows:
        for x in row:
            if x:
                bits = max(bits, abs(x.numerator).bit_length(),
                           x.denominator.bit_length())
    key = hash((tuple(tuple(r) for r in rows), p))
    return key, (len(rows), len(rows[0]) if rows else 0, bits)


def _probe_snf(tracer, args):
    mat = args[0]
    bits = max((abs(v).bit_length() for v in mat.entries.values()), default=0)
    return hash(mat), (mat.rows, mat.cols, bits)


def _probe_cohomology(tracer, args):
    return hash(tuple(args[:4])), None


def _probe_dga_cohomology(tracer, args):
    return (tracer.serials(args[0]),) + tuple(args[1:]), None


def _ring_suffix(args):
    ring = args[2]
    return "z" if ring == "Z" else "gf" if ring == "GF" else "zmod"


class _Serials:
    """Stable small integers for objects, so fingerprints survive id reuse."""

    def __init__(self):
        self._ids = weakref.WeakKeyDictionary()
        self._count = 0

    def __call__(self, obj):
        serial = self._ids.get(obj)
        if serial is None:
            self._count += 1
            serial = self._ids[obj] = self._count
        return serial


# (module, attribute path, metric name, probe or None, suffix function or None)
TARGETS = [
    ("linalg", "p_local_snf", "linalg.p_local_snf", _probe_p_local_snf, None),
    ("linalg", "p_local_solve", "linalg.p_local_solve", None, None),
    ("linalg", "p_local_kernel", "linalg.p_local_kernel", None, None),
    ("linalg", "p_local_cohomology", "linalg.p_local_cohomology", None, None),
    ("linalg", "solve_int", "linalg.solve_int", None, None),
    ("linalg", "smith_normal_form", "linalg.smith_normal_form", _probe_snf,
     None),
    ("linalg", "cohomology", "linalg.cohomology", _probe_cohomology,
     _ring_suffix),
    ("linalg", "hnf_rows", "linalg.hnf_rows", None, None),
    ("linalg", "AbelianGroupReport.class_coordinates",
     "linalg.AbelianGroupReport.class_coordinates", None, None),
    ("derham", "omega_cohomology", "derham.omega_cohomology", None, None),
    ("derham", "SectionComplex.__init__", "derham.SectionComplex.__init__",
     None, None),
    ("derham", "SectionComplex.express", "derham.SectionComplex.express",
     None, None),
    ("derham", "SectionComplex.diff_in_sections",
     "derham.SectionComplex.diff_in_sections", None, None),
    ("derham", "SectionComplex.cohomology", "derham.SectionComplex.cohomology",
     None, None),
    ("derham", "SectionComplex.multiply_sections",
     "derham.SectionComplex.multiply_sections", None, None),
    ("derham", "OmegaLevels.level", "derham.OmegaLevels.level", None, None),
    ("divided", "OmegaElement.multiply", "divided.OmegaElement.multiply",
     None, None),
    ("massey", "DgaData.from_space", "massey.DgaData.from_space", None, None),
    ("massey", "DgaData.cohomology", "massey.DgaData.cohomology",
     _probe_dga_cohomology, None),
    ("massey", "eligible_pairs", "massey.eligible_pairs", None, None),
    ("massey", "triple_massey", "massey.triple_massey", None, None),
    ("massey", "indeterminacy_generators", "massey.indeterminacy_generators",
     None, None),
    ("massey", "solve_over", "massey.solve_over", None, None),
    ("massey", "in_subgroup_mod", "massey.in_subgroup_mod", None, None),
    ("products", "cup", "products.cup", None, None),
    ("products", "cohomology_ring", "products.cohomology_ring", None, None),
    ("simplicial", "SimplicialSet.load", "simplicial.SimplicialSet.load",
     None, None),
    ("simplicial", "normalized_cochain_complex",
     "simplicial.normalized_cochain_complex", None, None),
    ("decalage", "build_D", "decalage.build_D", None, None),
    ("decalage", "ShiftedComplex.cohomology",
     "decalage.ShiftedComplex.cohomology", None, None),
    ("report", "validate_report", "report.validate_report", None, None),
    ("report", "dump_json", "report.dump_json", None, None),
    ("cli", "main", "cli.main", None, None),
]

OP_SPAN = "bench.op"


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "padicforms"
                                  or name.startswith("padicforms."))]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, probe_s]
        self._stack = []
        self._patched = []       # (owner, attribute, original value)
        self._keys = defaultdict(set)
        self._shape = defaultdict(lambda: [0, 0, 0])
        self.serials = _Serials()
        self.ambient_dim_max = 0
        self.op = -1
        self.recording = False

    # -- patching --------------------------------------------------------------

    def install(self):
        modules = _package_modules()
        for module_name, path, metric, probe, suffix in TARGETS:
            owner = sys.modules["padicforms." + module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = self._wrap(fn, metric, probe, suffix)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            self._set(owner, attr, wrapped, raw)
            if not cls_path:
                # rebind every other module-level name bound to the function
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is fn and (module, name) != (owner, attr):
                            self._set(module, name, wrapped, value)
        derham = sys.modules["padicforms.derham"]
        self._set(derham.SectionComplex, "cell_block",
                  self._observe_cell_block(derham.SectionComplex.cell_block),
                  derham.SectionComplex.__dict__["cell_block"])

    def _set(self, owner, attr, value, original):
        setattr(owner, attr, value)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _observe_cell_block(self, fn):
        tracer = self

        @functools.wraps(fn)
        def cell_block(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tracer.recording:
                tracer.ambient_dim_max = max(tracer.ambient_dim_max, out[1])
            return out
        return cell_block

    def _wrap(self, fn, metric, probe, suffix):
        spans = self.spans
        stack = self._stack
        keys = self._keys
        shapes = self._shape
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            t_probe = time.perf_counter()
            name = metric + "." + suffix(args) if suffix else metric
            if probe is not None:
                key, shape = probe(tracer, args)
                keys[name].add(key)
                if shape is not None:
                    shapes[name] = [max(a, b) for a, b in
                                    zip(shapes[name], shape)]
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, 0.0]
            spans.append(span)
            stack.append(index)
            start = time.perf_counter()
            span[1] = start
            span[5] = start - t_probe
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
        return wrapper

    # -- op spans ----------------------------------------------------------------

    def begin_op(self, index):
        self.op = index
        self.recording = True
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, time.perf_counter(), 0.0, -1, index, 0.0])

    def end_op(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()
        self.recording = False

    # -- summaries -----------------------------------------------------------------

    def layer_table(self):
        """name -> calls, self_s, distinct inputs and their ratio to calls,
        largest input shape, and self time split by the parent span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _, probe_s in self.spans:
            if parent >= 0:
                covered[parent] += end - start + probe_s
        table = {}
        for i, (name, start, end, parent, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "by_parent": defaultdict(float)})
            own = end - start - covered[i]
            row["calls"] += 1
            row["self_s"] += own
            parent_name = self.spans[parent][0] if parent >= 0 else None
            row["by_parent"][parent_name] += own
        for name, row in table.items():
            row["by_parent"] = dict(sorted(row["by_parent"].items(),
                                           key=lambda kv: -kv[1]))
            if name in self._keys:
                row["distinct"] = len(self._keys[name])
                row["distinct_ratio"] = row["distinct"] / row["calls"]
            if name in self._shape:
                row["max_rows"], row["max_cols"], row["max_coeff_bits"] = \
                    self._shape[name]
        return table

    def write_spans(self, path):
        """One JSON array per line: name, start_s, end_s, parent index, op."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, _ in self.spans:
                fh.write(json.dumps([name, round(start - origin, 7),
                                     round(end - origin, 7), parent, op]))
                fh.write("\n")
