"""The benchmark's workloads: inputs made from a seed, the ops, their checks.

Every op is one call into padicforms' public API; CLI ops go through
``padicforms.cli.main(argv)`` in-process with stdout captured.  A workload's
``setup`` returns its inputs and the text of the space files its CLI ops
read, by file name.  No op repeats
another op's inputs within a run.  Inputs cycle through fixed size classes so
that every seed gives the same mix of sizes and only the random structure
inside each class changes.
"""

import contextlib
import importlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

MODULES = ("arith", "linalg", "simplicial", "products", "divided", "derham",
           "decalage", "massey", "report", "cli")

GF2 = ("GF", 2)
ZMOD = ("Zmod", 2 ** 8)


def load_api():
    """Import padicforms and return its modules by short name."""
    return SimpleNamespace(**{name: importlib.import_module("padicforms." + name)
                              for name in MODULES})


@dataclass
class Op:
    index: int
    label: str
    kind: str
    cells: list                      # simplices per dimension
    argv: list = None                # CLI ops
    params: dict = field(default_factory=dict)
    latency: bool = True             # counted in the latency percentiles
    # filled in by the runner
    seconds: float = 0.0
    code: int = None
    output: bytes = b""
    payload: object = None
    error: str = None


def run_cli(api, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = api.cli.main(argv)
    return code, out.getvalue().encode("utf-8"), None


def _cells(space):
    return [len(level) for level in space.simplices]


def _cli_report(api, op):
    """The parsed report of a CLI op, or the reason it is unusable."""
    try:
        payload = json.loads(op.output)
    except ValueError:
        return None, "stdout is not JSON"
    errors = api.report.validate_report(payload)
    if errors:
        return None, "validate_report: " + "; ".join(errors)
    return payload, None


def draw_space(api, rng, size, edges, seen):
    """A seeded ``random_space(s, *size)`` whose face table is not in
    ``seen``, with its edge count in ``edges`` unless that is None."""
    for _ in range(10000):
        space = api.massey.random_space(rng.randrange(2 ** 31), *size)
        body = space.dump()
        key = body.split("\n", 1)[1]
        if key not in seen and (edges is None or
                                len(space.simplices[1]) in edges):
            seen.add(key)
            return space, body
    raise RuntimeError(f"no unused space of size {size} with {edges} edges")


class Workload:
    """Defaults for a workload whose inputs are a list of CLI ops."""

    def ops(self, api, inputs):
        """Hand out the ops in order, each taken off the list, so that a
        finished op and its output can be freed."""
        inputs.reverse()
        while inputs:
            yield inputs.pop()

    def run(self, api, op):
        return run_cli(api, op.argv)

    def describe(self, api, op, cache):
        return {"cells": op.cells}


def _alternating_free_rank(payload):
    return sum((-1) ** d["degree"] * d["free_rank"] for d in payload["degrees"])


# ---------------------------------------------------------------------------
# omega-forms: p-local form lattices on spaces
# ---------------------------------------------------------------------------

class OmegaForms(Workload):
    """CLI ``cohomology --model omega`` on library spaces and small files.

    The first three ops are seeded ``random_space(s, 2, 2, 1)`` files at
    weight 3, then rp2 (p=2 and p=3, W=4) and sphere:2 (p=2, W=5), then more
    random files.  The random files cycle through the primes and all have 3
    edges: files with 4 edges take about twice as long, and with both sizes
    the median op fell in the gap between them and moved by a third from run
    to run.
    """

    name = "omega-forms"
    LIBRARY = [("rp2", 2, 4), ("rp2", 3, 4), ("sphere:2", 2, 5)]
    RANDOM_CLASSES = [(3, 2), (3, 3), (3, 5)]
    RANDOM_WEIGHT = 3
    OPS_PER_SECOND = 12              # inputs generated per second of run

    def setup(self, api, seed, seconds):
        rng = random.Random(f"{self.name}/{seed}")
        n_ops = max(12, int(seconds * self.OPS_PER_SECOND))
        seen = {p: set() for _, p in self.RANDOM_CLASSES}
        ops, files = [], {}
        random_count = 0
        while len(ops) < n_ops:
            index = len(ops)
            if random_count == len(self.RANDOM_CLASSES) and \
                    index < random_count + len(self.LIBRARY):
                token, p, w = self.LIBRARY[index - random_count]
                name, _, arg = token.partition(":")
                space = api.simplicial.standard_space(name, int(arg) if arg else None)
                label = f"{token} p={p} W={w}"
            else:
                edges, p = self.RANDOM_CLASSES[random_count % len(self.RANDOM_CLASSES)]
                w = self.RANDOM_WEIGHT
                space, body = draw_space(api, rng, (2, 2, 1), (edges,), seen[p])
                token = f"@omega-{index:04d}.txt"
                files[token[1:]] = body
                label = f"{token} p={p} W={w}"
                random_count += 1
            argv = ["cohomology", "--space", token, "--model", "omega",
                    "--prime", str(p), "--weight", str(w)]
            ops.append(Op(index, label, "omega", _cells(space), argv,
                          {"prime": p, "weight": w, "space": space}))
        return ops, files

    def check(self, api, op):
        payload, reason = _cli_report(api, op)
        if reason:
            return reason
        manifest = payload["manifest"]
        if (manifest.get("model"), manifest.get("prime"),
                manifest.get("weight")) != ("omega", op.params["prime"],
                                            op.params["weight"]):
            return "manifest does not match the op"
        want = 0 if all(payload["stable"].values()) else 3
        if op.code != want:
            return f"exit code {op.code}, stability flags say {want}"
        return None

    def describe(self, api, op, cache):
        """Cells per dimension and the ambient dimension per form degree."""
        space, p, w = op.params["space"], op.params["prime"], op.params["weight"]
        key = (p, w, space.dimension)
        if key not in cache:
            cache[key] = api.derham.OmegaLevels(w, p, space.dimension)
        levels = cache[key]
        q_max = min(3, space.dimension)
        ambient = [sum(levels.dims(d, k) * n for d, n in enumerate(op.cells))
                   for k in range(q_max + 2)]
        return {"cells": op.cells, "ambient_dim": ambient}


# ---------------------------------------------------------------------------
# massey-batch: defined triples on each space, sharing one DgaData
# ---------------------------------------------------------------------------

class MasseyBatch(Workload):
    """``triple_massey(dga, a, b, c)`` with c in {a, b} over eligible pairs.

    Spaces are seeded ``random_space`` instances cycling through three size
    classes; fixing the edge count fixes the number of defined triples per
    ring (28, 45 and 91).  Per space, one "pairs" op builds the shared DgaData
    and lists the eligible pairs over GF(2) and Z/2^8; it counts towards
    ops_per_s but not towards the latency percentiles.  Then come the triple
    ops of a seeded sample of TRIPLES_PER_RING defined triples per ring,
    alternating between the two rings, so every space adds the same number of
    ops of each ring.  A triple is defined only when [b][c] = 0 as well.
    """

    name = "massey-batch"
    SIZE_CLASSES = [((3, 4, 2), 8), ((3, 5, 3), 10), ((4, 6, 4), 14)]
    TRIPLES_PER_RING = 28
    SPACES_PER_SECOND = 10

    def setup(self, api, seed, seconds):
        rng = random.Random(f"{self.name}/{seed}")
        n_spaces = max(3, int(seconds * self.SPACES_PER_SECOND))
        seen = set()
        spaces = []
        while len(spaces) < n_spaces:
            size, edges = self.SIZE_CLASSES[len(spaces) % len(self.SIZE_CLASSES)]
            spaces.append(draw_space(api, rng, size, (edges,), seen)[0])
        return (seed, spaces), {}

    def ops(self, api, inputs):
        seed, spaces = inputs
        index = 0
        for number, space in enumerate(spaces):
            prep = Op(index, f"s{number} pairs", "pairs", _cells(space),
                      params={"space": space}, latency=False)
            index += 1
            yield prep
            if prep.payload is None:
                continue
            dga, by_ring = prep.payload
            streams = [self._triples(
                random.Random(f"{self.name}/{seed}/{number}/{ring}"),
                number, space, dga, ring, pairs)
                for ring, pairs in by_ring.items()]
            for op in itertools.chain.from_iterable(
                    itertools.zip_longest(*streams)):
                if op is not None:
                    op.index = index
                    index += 1
                    yield op

    def _triples(self, rng, number, space, dga, ring, pairs):
        tag = "gf2" if ring == GF2 else "z256"
        eligible = {(qa, tuple(a), qb, tuple(b)) for (qa, a), (qb, b) in pairs}
        defined = []
        for k, ((qa, a), (qb, b)) in enumerate(pairs):
            choices = [("a", a, qa)]
            if (qb, tuple(b)) != (qa, tuple(a)):
                choices.append(("b", b, qb))
            for which, c, qc in choices:
                if (qb, tuple(b), qc, tuple(c)) in eligible:
                    defined.append((f"s{number} {tag} pair{k} c={which}",
                                    a, b, c, (qa, qb, qc)))
        keep = sorted(rng.sample(range(len(defined)),
                                 min(len(defined), self.TRIPLES_PER_RING)))
        for label, a, b, c, degrees in (defined[i] for i in keep):
            yield Op(-1, label, "triple", _cells(space), params={
                "dga": dga, "ring": ring, "a": a, "b": b, "c": c,
                "degrees": degrees})

    def run(self, api, op):
        m = api.massey
        if op.kind == "pairs":
            dga = m.DgaData.from_space(op.params["space"])
            by_ring = {ring: m.eligible_pairs(dga, 2, ring=ring)
                       for ring in (GF2, ZMOD)}
            text = json.dumps({f"{kind}{mod}": pairs
                               for (kind, mod), pairs in by_ring.items()})
            return 0, text.encode("utf-8"), (dga, by_ring)
        p = op.params
        result = m.triple_massey(p["dga"], p["a"], p["b"], p["c"], p["ring"],
                                 p["degrees"])
        text = json.dumps([result.degree, result.representative,
                           result.indeterminacy, result.defining_system,
                           result.vanishes], sort_keys=True)
        return 0, text.encode("utf-8"), result

    def check(self, api, op):
        if op.kind == "pairs":
            dga, by_ring = op.payload
            for (_, mod), pairs in by_ring.items():
                for pair in pairs:
                    for q, vec in pair:
                        if any(x % mod for x in dga.diff(q).mul_vector(vec)):
                            return f"class of degree {q} is not a cocycle"
            return None
        p = op.params
        dga, ring, result = p["dga"], p["ring"], op.payload
        mod = ring[1]
        errors = api.report.validate_report(
            api.report.massey_report({"op": op.label}, result))
        if errors:
            return "validate_report: " + "; ".join(errors)
        if any(x % mod for x in dga.diff(result.degree).mul_vector(
                result.representative)):
            return f"representative is not a cocycle mod {mod}"
        qa, qb, qc = p["degrees"]
        if ring == GF2 and (qc, p["c"]) == (qa, p["a"]):
            # over F_2, m(a, b, a) contains (a cup_1 a) cup b
            sq = dga.cup1(qa, qa, list(p["a"]), list(p["a"]))
            value = dga.mul(2 * qa - 1, qb, sq, list(p["b"]))
            diff = [(x - y) % 2 for x, y in zip(value, result.representative)]
            if not api.massey.in_subgroup_mod(dga, result.degree, diff,
                                              result.indeterminacy, ring):
                return "(a cup_1 a) cup b is not in m(a, b, a)"
        return None


# ---------------------------------------------------------------------------
# cochain-ring: integer cohomology rings and decalage lattices
# ---------------------------------------------------------------------------

class CochainRing(Workload):
    """CLI ``cohomology --model singular`` then ``--model decalage`` per file.

    Files are seeded ``random_space`` instances cycling through a ladder of
    six sizes, so that the op times of neighbouring sizes and of the two
    models overlap and the median does not sit in a gap between them.  The
    two largest sizes, which set the tail, keep only the three most common
    edge counts.
    """

    name = "cochain-ring"
    SIZE_CLASSES = [((5, 11, 8), None), ((5, 12, 9), None),
                    ((6, 14, 11), None), ((6, 16, 12), None),
                    ((7, 18, 14), (41, 42, 43)), ((7, 20, 15), (44, 45, 46))]
    MODELS = ("singular", "decalage")
    SPACES_PER_SECOND = 18

    def setup(self, api, seed, seconds):
        rng = random.Random(f"{self.name}/{seed}")
        n_spaces = max(3, int(seconds * self.SPACES_PER_SECOND))
        seen = set()
        ops, files = [], {}
        while len(ops) < 2 * n_spaces:
            number = len(ops) // 2
            size, edges = self.SIZE_CLASSES[number % len(self.SIZE_CLASSES)]
            space, body = draw_space(api, rng, size, edges, seen)
            token = f"@ring-{number:04d}.txt"
            files[token[1:]] = body
            for model in self.MODELS:
                argv = ["cohomology", "--space", token, "--model", model]
                ops.append(Op(len(ops), f"{token} {model}", model, _cells(space),
                              argv, {"euler": space.euler_characteristic()}))
        return ops, files

    def check(self, api, op):
        payload, reason = _cli_report(api, op)
        if reason:
            return reason
        if op.code != 0:
            return f"exit code {op.code}"
        # both models are rationally the cochain complex of the space
        if _alternating_free_rank(payload) != op.params["euler"]:
            return "alternating sum of free ranks is not the Euler characteristic"
        return None


WORKLOADS = {w.name: w for w in (OmegaForms(), MasseyBatch(), CochainRing())}
