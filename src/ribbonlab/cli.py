"""JSON command line front end for the decision procedures and check suites.

Subcommands:

  limit-quadric   degeneracy verdict and kernel witness for a quadric direction
  limit-relation  rank verdict for a degree-d relation on the rational normal curve
  verify          run the suites of ribbonlab.suites (rnc, conormal, xg, fitting,
                  families, all)
  family          build / rescale / order / discriminant over pi-adic families

This module holds only the argument parsing, the commands, the cost guard
and the error contract; the verify checks are (check, params) data in
ribbonlab.suites.  Every command prints one JSON document {"status": ...,
"payload": ...}, whatever its input: a failure, a bad argument or an
unwritable --json-out included, is a status "error" document whose payload
carries the message (an exception of an unexpected type is named in it, and
its traceback goes to stderr); only --help prints usage instead.  The bytes
depend only on the inputs and --seed: verify and family build seed each
random draw from a stable checksum of (seed, suite, property, params)
(suites.rng_for), verify runs its items one after another in a fixed order,
and wall-clock timing goes to stderr, never into the document.  Exit status
is 0 only when the status is "ok" and, for verify, every property passed.

limit-relation and verify refuse, before building anything, arguments that
reach a degree-d slice in g coordinates with more than MAX_SLICE_MONOMIALS
monomials: (g, d) for limit-relation, (gmax, max(dmax, 4)) for verify.
family build refuses a family of more than MAX_FAMILY_SLOTS coefficient slots.
"""

import argparse
import json
import sys
import time

from .conormal import LambdaFunctional, is_limit_quadric, phi_d
from .exact import rat, rat_to_str
from .families import (
    TruncatedFamily,
    binary_discriminant,
    constant_family,
    discriminant_section,
    hyperell_order,
    perturb_hyperelliptic,
    rescale_v,
    ribbon_order,
)
from .poly import BinaryForm, WPoly, veronese_pullback
from .rnc import QuadForm
from .suites import SUITES, rng_for, run_items
from .xg import hyperelliptic_model, random_ribbon_ell, split_ribbon_ideal


class CommandError(ValueError):
    """Bad input or unusable arguments; reported as status error."""


class _Parser(argparse.ArgumentParser):
    """An argument error raises CommandError instead of printing usage and exiting 2."""

    def error(self, message):
        raise CommandError("%s: %s" % (self.prog, message))


# Cost guard: the largest slice of degree-d forms in u_0..u_{g-1} that a
# command may reach, counted by its comb(g - 1 + d, d) monomials.  5000
# admits the degree-4 slices up to g = 17, the degree-5 ones up to g = 12,
# the defaults of every command and every benchmark size; ideal_slice at
# (g, d) = (12, 5), 4368 monomials, takes about 0.04 s (2-core Xeon VM,
# Python 3.11), so the limit could be raised.
MAX_SLICE_MONOMIALS = 5000


def _check_slice_size(g, d):
    """Refuse (g, d) before anything is built if its slice is over the guard.

    comb(g - 1 + d, d) is built up as comb(n - m + k, k) for k = 1..m with
    m = min(d, g - 1); every partial product is a smaller binomial, so the
    loop stops as soon as one passes the guard, however large g and d are.
    """
    m = min(d, g - 1)
    n = g - 1 + d
    count = 1
    for k in range(1, m + 1):
        count = count * (n - m + k) // k
        if count > MAX_SLICE_MONOMIALS:
            raise CommandError(
                "g=%d, d=%d reaches a slice of more than %d monomials "
                "(comb(g-1+d, d)); the cost guard allows at most %d"
                % (g, d, MAX_SLICE_MONOMIALS, MAX_SLICE_MONOMIALS))


# Cost guard for family build: a genus-g family has (g-1)(2g-5) generators,
# of at most two terms in the split model and at most 4g-2 in the others (the
# lift of h in a VV generator); each term holds 2g-2 exponents and order_bound
# rationals.  400000 such slots admit the split model up to g = 37, g = 5 up
# to order bound 9992 (split) or 1103 (with h), and every size of tests/ and
# bench/workloads.py (g <= 5, order bound <= 11); the largest of these take
# about 1 s (2-core Xeon VM, Python 3.11).
MAX_FAMILY_SLOTS = 400000


def _check_family_size(g, model, bound):
    """Refuse a family build before anything is built if it is over the guard."""
    terms = 2 if model == "split" else 4 * g - 2
    if (g - 1) * (2 * g - 5) * terms * (2 * g - 2 + bound) > MAX_FAMILY_SLOTS:
        raise CommandError(
            "g=%d, order bound %d reaches more than %d coefficient slots; "
            "the cost guard allows at most %d"
            % (g, bound, MAX_FAMILY_SLOTS, MAX_FAMILY_SLOTS))


# ---------------------------------------------------------------------------
# plumbing

def _reject_float(literal):
    raise CommandError("JSON number %s is not exact; write it as an integer "
                       "or a \"p/q\" string" % literal)


# json's hooks for non-integer numbers and for NaN/Infinity
_EXACT_JSON = {"parse_float": _reject_float, "parse_constant": _reject_float}


def _load_json_arg(text):
    """Accept inline JSON or a path to a JSON file; a float literal is refused."""
    stripped = text.strip()
    if stripped and stripped[0] in "[{-0123456789\"":
        try:
            return json.loads(stripped, **_EXACT_JSON)
        except json.JSONDecodeError as exc:
            raise CommandError("inline JSON is malformed: %s" % exc)
    try:
        with open(text, "r", encoding="utf-8") as fh:
            return json.load(fh, **_EXACT_JSON)
    except OSError as exc:
        raise CommandError("cannot read %r: %s" % (text, exc))
    except json.JSONDecodeError as exc:
        raise CommandError("file %r is not valid JSON: %s" % (text, exc))


def _parse_binary_form(data) -> BinaryForm:
    if isinstance(data, dict):
        return BinaryForm.from_json(data)
    if isinstance(data, list):
        if not data:
            raise CommandError("a binary form needs at least one coefficient")
        return BinaryForm(len(data) - 1, [rat(c) for c in data])
    raise CommandError("expected a coefficient list or a degree/coeffs object")


def _parse_family(data) -> TruncatedFamily:
    if not isinstance(data, dict):
        raise CommandError("expected a family JSON object")
    try:
        return TruncatedFamily.from_json(data)
    except (KeyError, TypeError) as exc:
        raise CommandError("malformed family JSON: %s" % exc)


# ---------------------------------------------------------------------------
# commands

def cmd_limit_quadric(args):
    data = _load_json_arg(args.q)
    if isinstance(data, dict):
        q = QuadForm.from_json(data)
        if args.g is not None and args.g != q.g:
            raise CommandError("--g %d disagrees with the matrix header g=%d"
                               % (args.g, q.g))
    elif isinstance(data, list):
        if args.g is None:
            raise CommandError("--g is required when --q is a bare matrix")
        q = QuadForm(args.g, data)
    else:
        raise CommandError("--q must be a matrix or a {g, matrix} object")
    degenerate, witness = is_limit_quadric(q)
    return {"g": q.g,
            "degenerate": degenerate,
            "det": rat_to_str(q.det()),
            "witness_lambda": witness.to_json() if witness is not None else None}


def cmd_limit_relation(args):
    if args.d is not None:
        _check_slice_size(args.g, args.d)
    data = _load_json_arg(args.poly)
    if not isinstance(data, list):
        raise CommandError("--poly must be a list of term objects")
    x = WPoly.from_json(args.g, data)
    if not x:
        raise CommandError("the zero polynomial is not a canonical relation")
    d = args.d if args.d is not None else x.degree("weighted")
    _check_slice_size(args.g, d)
    if (not x.is_u_only() or not x.is_homogeneous("weighted")
            or x.degree("weighted") != d or not veronese_pullback(x).is_zero()):
        raise CommandError("not a canonical relation")
    matrix = phi_d(x, d)
    kernel = matrix.left_kernel_basis()
    return {"g": args.g,
            "d": d,
            "limit": bool(kernel),
            "rank": args.g - 2 - len(kernel),
            "matrix": matrix.to_json()["matrix"],
            "witness_lambda": (LambdaFunctional(args.g, kernel[0]).normalized().to_json()
                               if kernel else None)}


def cmd_verify(args):
    if args.gmax < 3:
        raise CommandError("--gmax must be at least 3")
    if args.dmax < 2:
        raise CommandError("--dmax must be at least 2")
    # an upper bound on every slice the items build: the rnc suite runs each
    # g up to gmax, and the Hilbert function items reach degree max(dmax, 4)
    _check_slice_size(args.gmax, max(args.dmax, 4))
    names = list(SUITES) if args.suite == "all" else [args.suite]
    suites = {}
    total = passed = 0
    for name in names:
        results = run_items(name, SUITES[name](args.gmax, args.dmax), args.seed)
        suites[name] = results
        total += len(results)
        passed += sum(1 for item in results if item["pass"])
    return {"seed": args.seed,
            "gmax": args.gmax,
            "dmax": args.dmax,
            "suites": suites,
            "total": total,
            "passed": passed,
            "all_pass": passed == total}


def cmd_family_build(args):
    g, d, bound = args.g, args.d, args.order_bound
    if bound is None:
        bound = 3 * d + 2 if args.model == "perturbed" else 4
    _check_family_size(g, args.model, bound)
    if args.model == "split":
        family = constant_family(split_ribbon_ideal(g), bound)
        return {"g": g, "model": "split", "order_bound": bound,
                "family": family.to_json()}
    if args.h is None:
        raise CommandError("--h is required for model %r" % args.model)
    h = _parse_binary_form(_load_json_arg(args.h))
    if args.model == "hyperelliptic":
        family = constant_family(hyperelliptic_model(g, h), bound)
        return {"g": g, "model": "hyperelliptic", "order_bound": bound,
                "h": h.to_json(), "family": family.to_json()}
    rng = rng_for(args.seed, "family", "build", {"g": g, "d": d})
    family = perturb_hyperelliptic(g, h, d, bound, random_ribbon_ell(g, rng))
    return {"g": g, "model": "perturbed", "d": d, "order_bound": bound,
            "seed": args.seed, "h": h.to_json(), "family": family.to_json()}


def cmd_family_rescale(args):
    family = _parse_family(_load_json_arg(args.family))
    scaled = rescale_v(family, args.k)
    return {"g": scaled.g, "k": args.k, "order_bound": scaled.order_bound,
            "family": scaled.to_json()}


def cmd_family_order(args):
    family = _parse_family(_load_json_arg(args.family))
    bound = family.order_bound

    def show(m):
        return ">= %d" % bound if m >= bound else str(m)

    r, h = ribbon_order(family), hyperell_order(family)
    return {"g": family.g,
            "order_bound": bound,
            "ribbon_order": r,
            "ribbon_order_display": show(r),
            "hyperelliptic_order": h,
            "hyperelliptic_order_display": show(h)}


def cmd_family_discriminant(args):
    family = _parse_family(_load_json_arg(args.family))
    section = discriminant_section(family)
    return {"g": family.g,
            "ribbon_order": ribbon_order(family),
            "section": section.to_json(),
            "binary_discriminant": rat_to_str(binary_discriminant(section.s))}


# ---------------------------------------------------------------------------
# dispatcher

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-out", metavar="PATH", default=None,
                        help="also write the JSON document to this file")
    common.add_argument("--quiet", action="store_true",
                        help="suppress stdout and the stderr timing note")

    parser = _Parser(
        prog="ribbonlab",
        description="exact decision procedures and check suites, JSON in and out")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("limit-quadric", parents=[common],
                       help="degeneracy verdict for a quadric direction")
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--q", required=True,
                   help="symmetric matrix, inline JSON or a file path")
    p.set_defaults(handler=cmd_limit_quadric)

    p = sub.add_parser("limit-relation", parents=[common],
                       help="rank verdict for a canonical relation")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--poly", required=True,
                   help="term list, inline JSON or a file path")
    p.set_defaults(handler=cmd_limit_relation)

    p = sub.add_parser("verify", parents=[common], help="run a property suite")
    p.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    p.add_argument("--gmax", type=int, default=5)
    p.add_argument("--dmax", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_verify)

    fam = sub.add_parser("family", help="pi-adic family operations")
    fam_sub = fam.add_subparsers(dest="action", required=True)

    p = fam_sub.add_parser("build", parents=[common],
                           help="construct a family as JSON")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--model", choices=["perturbed", "hyperelliptic", "split"],
                   default="perturbed")
    p.add_argument("--h", default=None,
                   help="binary form of degree 2g+2: coefficient list or degree/coeffs JSON")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--order-bound", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=cmd_family_build)

    p = fam_sub.add_parser("rescale", parents=[common],
                           help="divide the v variables by pi^k")
    p.add_argument("--family", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=cmd_family_rescale)

    p = fam_sub.add_parser("order", parents=[common],
                           help="shape orders of a family")
    p.add_argument("--family", required=True)
    p.set_defaults(handler=cmd_family_order)

    p = fam_sub.add_parser("discriminant", parents=[common],
                           help="extract the degree 2g+2 section")
    p.add_argument("--family", required=True)
    p.set_defaults(handler=cmd_family_discriminant)

    return parser


def main(argv=None) -> int:
    started = time.perf_counter()
    json_out, quiet = None, False
    try:
        args = _build_parser().parse_args(argv)
        json_out, quiet = args.json_out, args.quiet
        payload = args.handler(args)
        status = "ok"
    except (CommandError, ValueError, ArithmeticError, KeyError) as exc:
        payload = {"message": str(exc)}
        status = "error"
    except Exception as exc:
        # input that slipped past validation: still one document, exit 1
        if not quiet:
            import traceback
            traceback.print_exc()
        payload = {"message": "%s: %s" % (type(exc).__name__, exc)}
        status = "error"
    document = json.dumps({"status": status, "payload": payload},
                          indent=2, sort_keys=True)
    try:
        if json_out:
            with open(json_out, "w", encoding="utf-8") as fh:
                fh.write(document + "\n")
    except OSError as exc:
        status = "error"
        document = json.dumps({"status": status, "payload": {
            "message": "cannot write --json-out: %s" % exc}}, indent=2, sort_keys=True)
    if not quiet:
        sys.stdout.write(document + "\n")
        sys.stderr.write("elapsed %.1f ms\n"
                         % ((time.perf_counter() - started) * 1000.0))
    if status != "ok":
        return 1
    return 0 if payload.get("all_pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
