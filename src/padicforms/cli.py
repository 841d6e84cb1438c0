"""Batch command line: build spaces, run computations, emit reports.

Verbs: cohomology, massey, verify, space.  Exit codes: 0 success, 1 suite
failure, 2 configuration error, 3 instability (omega-side models only),
4 internal error (a StructuralError: an invariant that the mathematics
guarantees failed to hold, or a report that fails schema validation; the
reason on stderr, no report).  An unwritable --out file is a configuration
error.
Identical manifests produce byte-identical output.
"""

import argparse
import sys

from padicforms.arith import ConfigurationError, SessionConfig
from padicforms.decalage import VLevels, build_D, tensor_cochain_algebra
from padicforms.derham import (
    OmegaLevels,
    apl_mod_p,
    build_omega,
    extendability_witness,
    homotopy_groups_check,
    omega_cohomology,
    rational_poincare_dims,
    stable_cohomology,
)
from padicforms.divided import gamma_tensor_oracle
from padicforms.linalg import StructuralError, p_local_cohomology
from padicforms.massey import (
    DgaData,
    UndefinedMasseyProduct,
    fixture_from_json,
    massey_scaling_check,
    rectification_obstruction,
    triple_massey,
)
from padicforms.products import (
    cohomology_ring,
    cup_i_coboundary_defect,
    hirsch_check,
)
from padicforms.report import (
    cohomology_report,
    dump_json,
    massey_report,
    space_report,
    validate_report,
    verify_report,
)
from padicforms.simplicial import SimplicialSet, standard_space, basis_cochain


DEFAULTS = {"prime": 2, "precision": 8, "weight": 4, "max_degree": 3,
            "seed": 0, "format": "json", "out": None}


def _add_common(parser, suppress):
    get = (lambda key: argparse.SUPPRESS) if suppress else DEFAULTS.get
    parser.add_argument("--prime", type=int, default=get("prime"))
    parser.add_argument("--precision", type=int, default=get("precision"))
    parser.add_argument("--weight", type=int, default=get("weight"))
    parser.add_argument("--max-degree", type=int, default=get("max_degree"))
    parser.add_argument("--seed", type=int, default=get("seed"))
    parser.add_argument("--format", choices=("json", "text"),
                        default=get("format"))
    parser.add_argument("--out", default=get("out"))


def build_parser():
    # the per-subcommand copies use SUPPRESS so they never clobber values
    # parsed before the subcommand word
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    parser = argparse.ArgumentParser(
        prog="padicforms",
        description="Exact p-adic cochain computations on finite simplicial sets")
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    coh = sub.add_parser("cohomology", parents=[common],
                         help="cohomology of a space in a model")
    coh.add_argument("--space", required=True,
                     help="library name (delta:N, boundary_delta:N, sphere:N, "
                          "rp2) or @file for a space file")
    coh.add_argument("--model", default="singular",
                     choices=("singular", "omega", "decalage",
                              "v_tensor_omega"))

    mas = sub.add_parser("massey", parents=[common],
                         help="triple Massey products")
    mas.add_argument("--space", default=None)
    mas.add_argument("--fixture", default=None, help="fixture JSON file")
    mas.add_argument("--degrees", required=True, help="|a|,|b|,|c|")
    mas.add_argument("--classes", default="0,0,0",
                     help="generator indices per degree, or 'zero'")
    mas.add_argument("--coefficients", choices=("gf", "zmod"), default="gf")
    mas.add_argument("--scaling", default=None,
                     help="r,s,t: check the p-power scaling property")
    mas.add_argument("--rectify", action="store_true",
                     help="run the rectification obstruction on (a, b)")

    ver = sub.add_parser("verify", parents=[common],
                         help="run an invariant suite")
    ver.add_argument("--suite", default="all",
                     choices=("poincare", "extendability", "homotopy_groups",
                              "hirsch", "apl_mod_p", "gamma_oracle", "all"))

    spc = sub.add_parser("space", parents=[common],
                         help="dump or load space files")
    spc.add_argument("action", choices=("dump", "load"))
    spc.add_argument("--space", default=None)
    spc.add_argument("--file", default=None)
    return parser


def resolve_space(token):
    """A library space by name, or a space file given as @path.

    An unreadable file or a face table that breaks the simplicial identities
    is a configuration error.
    """
    if token.startswith("@"):
        path = token[1:]
        try:
            with open(path, encoding="utf-8") as fh:
                return SimplicialSet.load(fh.read())
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read space file {path}: {exc.strerror}") from exc
        except StructuralError as exc:
            raise ConfigurationError(f"bad space file {path}: {exc}") from exc
    name, _, arg = token.partition(":")
    return standard_space(name, int(arg) if arg else None)


def manifest_of(args):
    out = {"command": args.command, "prime": args.prime,
           "precision": args.precision, "weight": args.weight,
           "max_degree": args.max_degree, "seed": args.seed}
    for key in ("space", "model", "fixture", "degrees", "classes",
                "coefficients", "scaling", "suite", "action", "file"):
        if getattr(args, key, None) is not None:
            out[key] = getattr(args, key)
    return out


# -- cohomology -----------------------------------------------------------------

def run_cohomology(args, config):
    space = resolve_space(args.space)
    q_max = min(config.max_degree, space.dimension)
    manifest = manifest_of(args)
    if args.model == "singular":
        reports, products = cohomology_ring(space, "Z", config.prime, q_max)
        return cohomology_report(manifest, reports, products), 0
    if args.model == "omega":
        result = omega_cohomology(space, config.weight, q_max, config.prime)
        payload = cohomology_report(manifest, result["reports"],
                                    result["products"], result["stable"])
        code = 0 if all(result["stable"].values()) else 3
        return payload, code
    if args.model == "decalage":
        shifted = build_D(space, config.prime)
        reports = {q: shifted.cohomology(q, config.prime)
                   for q in range(q_max + 1)}
        return cohomology_report(manifest, reports), 0
    if args.model == "v_tensor_omega":
        v = VLevels(config.prime, space.dimension + 1, q_max)
        _, reports, stable = stable_cohomology(
            space, lambda w: tensor_cochain_algebra(
                v, OmegaLevels(w, config.prime, space.dimension), q_max),
            config.weight, q_max)
        payload = cohomology_report(manifest, reports, stable=stable)
        return payload, 0 if all(stable.values()) else 3
    raise ConfigurationError(f"unknown model {args.model}")


# -- massey ----------------------------------------------------------------------

def run_massey(args, config):
    manifest = manifest_of(args)
    degrees = tuple(int(x) for x in args.degrees.split(","))
    if not (2 if args.rectify else 3) <= len(degrees) <= 3:
        raise ConfigurationError("--degrees needs three degrees "
                                 "(two or three with --rectify)")
    indices = None if args.classes == "zero" else \
        [int(x) for x in args.classes.split(",")]
    if indices is not None and len(indices) < len(degrees):
        raise ConfigurationError("--classes needs one index per degree")
    if args.fixture:
        try:
            with open(args.fixture, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read fixture file {args.fixture}: {exc.strerror}") from exc
        dga = fixture_from_json(text)
    elif args.space:
        dga = DgaData.from_space(resolve_space(args.space))
    else:
        raise ConfigurationError("massey needs --space or --fixture")
    p = config.prime
    ring = ("GF", p) if args.coefficients == "gf" else \
        ("Zmod", p ** config.precision)
    _, modulus = ring

    def class_vector(q, index):
        rep = dga.cohomology(q, ring)
        if index >= len(rep.generators):
            raise ConfigurationError(
                f"degree {q} has only {len(rep.generators)} generators")
        return [x % modulus for x in rep.generators[index]]

    if indices is None:
        vectors = [[0] * dga.dim(q) for q in degrees]
    else:
        vectors = [class_vector(q, i) for q, i in zip(degrees, indices)]

    if args.rectify:
        out = rectification_obstruction(dga, vectors[0], vectors[1],
                                        degrees[:2])
        payload = massey_report(manifest, out["massey"],
                                extra={"verdict": out["verdict"],
                                       "sq_route": _jsonable(out.get("sq_route"))})
        return payload, 0
    if args.scaling:
        exponents = tuple(int(x) for x in args.scaling.split(","))
        ok = massey_scaling_check(dga, vectors[0], vectors[1], vectors[2],
                                  degrees, exponents, p, config.precision)
        result = triple_massey(dga, vectors[0], vectors[1], vectors[2],
                               ("Zmod", p ** config.precision), degrees)
        payload = massey_report(manifest, result,
                                extra={"verdict": "scaling-holds" if ok
                                       else "scaling-fails"})
        return payload, 0 if ok else 1
    result = triple_massey(dga, vectors[0], vectors[1], vectors[2], ring,
                           degrees)
    return massey_report(manifest, result), 0


def _jsonable(obj):
    if obj is None:
        return None
    out = {}
    for k, v in obj.items():
        out[k] = list(v) if isinstance(v, (list, tuple)) else v
    return out


# -- verify ------------------------------------------------------------------------

def suite_poincare(config):
    details = []
    ok = True
    for n in (1, 2):
        for w in (config.weight, config.weight + 1):
            level = build_omega(n, w, config.prime)
            for k in range(n + 1):
                d_prev = level.diff_matrix(k - 1) if k else \
                    [[] for _ in range(level.dims(0))]
                d_cur = level.diff_matrix(k) if k < n else []
                rep = p_local_cohomology(d_prev, d_cur, config.prime)
                want = (1, []) if k == 0 else (0, [])
                good = rep.invariants() == want
                ok = ok and good
                details.append({"n": n, "weight": w, "degree": k,
                                "invariants": list(rep.invariants()),
                                "passed": good})
    return {"name": "poincare", "passed": ok, "details": details}


def suite_extendability(config):
    details = []
    ok = True
    for w in range(1, config.weight + 1):
        rep = extendability_witness(w, config.prime)
        good = (not rep["extendable"]) and rep["certificate_valid"] and \
            rep["control_extendable"]
        ok = ok and good
        details.append({"weight": w, "passed": good})
    return {"name": "extendability", "passed": ok, "details": details}


def suite_homotopy_groups(config):
    details = []
    ok = True
    for k in (0, 1):
        rep = homotopy_groups_check(k, config.weight, config.prime)
        good = rep["pi_k_omega_is_z_mod_p"] and \
            rep.get("stated_generator_generates", False) and \
            rep["valuation_equals_k"]
        ok = ok and good
        details.append({"k": k, "passed": good,
                        "pi_k_omega": list(rep["pi_k_omega"]),
                        "pi_k_cocycles": list(rep["pi_k_cocycles"]),
                        "generator_valuation": rep["generator_valuation"]})
    return {"name": "homotopy_groups", "passed": ok, "details": details}


def suite_hirsch(config):
    from padicforms.simplicial import rp2, sphere
    details = []
    ok = True
    for space in (rp2(), sphere(2)):
        for ring in ("Z", ("GF", 2)):
            failures = 0
            basis1 = [basis_cochain(space, 1, i, ring)
                      for i in range(space.n_cells(1))]
            for a in basis1:
                for b in basis1:
                    for c in basis1:
                        good, _ = hirsch_check(a, b, c)
                        failures += 0 if good else 1
                    defect = cup_i_coboundary_defect(a, b, 1)
                    failures += 0 if defect.is_zero() else 1
            good = failures == 0
            ok = ok and good
            details.append({"space": space.name,
                            "ring": "Z" if ring == "Z" else "GF(2)",
                            "failures": failures, "passed": good})
    return {"name": "hirsch", "passed": ok, "details": details}


def suite_apl(config):
    out = apl_mod_p(1, config.prime, max(config.weight, 4))
    w = out["weight"]
    want0 = len([a for a in range(w + 1) if a % 2 == 0]) if config.prime == 2 \
        else None
    details = [{"n": 1, "dims": out["dims"]}]
    ok = True
    if config.prime == 2:
        want1 = len([a for a in range(w) if a % 2 == 1])
        ok = out["dims"][0] == want0 and out["dims"][1] == want1
        details[0]["expected"] = {0: want0, 1: want1}
    control = rational_poincare_dims(1, w)
    good_control = control == [0, 0]
    details.append({"rational_control": control, "passed": good_control})
    ok = ok and good_control
    return {"name": "apl_mod_p", "passed": ok, "details": details}


def suite_gamma(config):
    reports = [gamma_tensor_oracle(4, {"v": 2}),
               gamma_tensor_oracle(3, {"v": 1}),
               gamma_tensor_oracle(4, {"v": 2, "w": 2}),
               gamma_tensor_oracle(3, {"v": 2, "w": 1})]
    ok = all(r["ok"] for r in reports)
    return {"name": "gamma_oracle", "passed": ok,
            "details": [{"letters": r["letters"], "ok": r["ok"]}
                        for r in reports]}


SUITES = {
    "poincare": suite_poincare,
    "extendability": suite_extendability,
    "homotopy_groups": suite_homotopy_groups,
    "hirsch": suite_hirsch,
    "apl_mod_p": suite_apl,
    "gamma_oracle": suite_gamma,
}


def run_verify(args, config):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    suites = [SUITES[name](config) for name in names]
    payload = verify_report(manifest_of(args), suites)
    return payload, 0 if payload["passed"] else 1


# -- space -------------------------------------------------------------------------

def run_space(args, config):
    manifest = manifest_of(args)
    if args.action == "dump":
        if not args.space:
            raise ConfigurationError("space dump needs --space")
        space = resolve_space(args.space)
    else:
        if not args.file:
            raise ConfigurationError("space load needs --file")
        space = resolve_space("@" + args.file)
    return space_report(manifest, space), 0


# -- driver ------------------------------------------------------------------------

def format_text(payload):
    lines = [f"# {payload['kind']} report (v{payload['version']})"]
    for key, value in sorted(payload["manifest"].items()):
        lines.append(f"  {key}: {value}")
    if payload["kind"] == "cohomology":
        for entry in payload["degrees"]:
            tors = "+".join(f"Z/{t}" for t in entry["torsion"]) or "-"
            lines.append(f"H^{entry['degree']}: free rank "
                         f"{entry['free_rank']}, torsion {tors}")
        for q, flag in sorted(payload.get("stable", {}).items()):
            lines.append(f"stable[{q}]: {flag}")
    elif payload["kind"] == "massey":
        lines.append(f"degree: {payload['degree']}")
        lines.append(f"vanishes: {payload['vanishes']}")
        if "verdict" in payload:
            lines.append(f"verdict: {payload['verdict']}")
    elif payload["kind"] == "verify":
        for suite in payload["suites"]:
            lines.append(f"{suite['name']}: "
                         f"{'pass' if suite['passed'] else 'FAIL'}")
        lines.append(f"overall: {'pass' if payload['passed'] else 'FAIL'}")
    elif payload["kind"] == "space":
        lines.append(payload["text"].rstrip())
    return "\n".join(lines) + "\n"


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = SessionConfig(prime=args.prime, precision=args.precision,
                               weight=args.weight, max_degree=args.max_degree)
        runner = {"cohomology": run_cohomology, "massey": run_massey,
                  "verify": run_verify, "space": run_space}[args.command]
        payload, code = runner(args, config)
    except (ConfigurationError, UndefinedMasseyProduct, ValueError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except StructuralError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4
    errors = validate_report(payload)
    if errors:
        sys.stderr.write("internal error: report failed schema validation:\n")
        for err in errors:
            sys.stderr.write(f"  {err}\n")
        return 4
    text = dump_json(payload) if args.format == "json" else format_text(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"configuration error: cannot write {args.out}: "
                             f"{exc.strerror}\n")
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
