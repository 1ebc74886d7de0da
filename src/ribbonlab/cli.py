"""JSON command line front end for the decision procedures and check suites.

Subcommands:

  limit-quadric   degeneracy verdict and kernel witness for a quadric direction
  limit-relation  rank verdict for a degree-d relation on the rational normal curve
  verify          run the suites of ribbonlab.suites (rnc, conormal, xg, fitting,
                  families, all)
  family          build / rescale / order / discriminant over pi-adic families

This module holds only the argument parsing, the commands, the cost guard and
the error contract; the verify checks are (check, params) data in
ribbonlab.suites.  Each command handler imports the modules it runs when it is
called, so limit-quadric loads only conormal, rnc and exact, limit-relation
only conormal, poly and exact, and only verify loads suites.  Each JSON
document is read by one reader, the from_json of its class (QuadForm, WPoly,
BinaryForm, TruncatedFamily), which names the field of any entry it refuses; a
bare --q matrix or --h coefficient list is first wrapped into the object form
that reader takes, and any other value of either is refused by its flag.  Every
command prints one JSON document {"status": ..., "payload": ...}, whatever its
input: a failure, a bad argument or an unwritable --json-out included, is a
status "error" document whose payload carries the message (an exception of an
unexpected type is named in it, and its traceback goes to stderr); only --help
prints usage instead.  The bytes depend only on the inputs and --seed: verify
and family build seed each random draw from a stable checksum of (seed, suite,
property, params) (xg.rng_for), verify runs its items one after another in a
fixed order, and wall-clock timing goes to stderr, never into the document.
Exit status is 0 only when the status is "ok" and, for verify, every property
passed.

limit-relation and verify refuse, before building anything, arguments that
reach a degree-d slice in g coordinates with more than MAX_SLICE_MONOMIALS
monomials: (g, d) for limit-relation, (gmax, max(dmax, 4)) for verify.
family build refuses a family of more than MAX_FAMILY_SLOTS coefficient slots.
"""

import argparse
import json
import os
import sys
import time

# The --suite choices, sorted(suites.SUITES); a constant, so that building the
# parser imports no suite.
SUITE_NAMES = ("conormal", "families", "fitting", "rnc", "xg")


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
    """Read the file the argument names if it exists, else parse it inline if
    it starts like a JSON value ([, {, -, a digit or "), else read it as a
    path; a float literal is refused."""
    stripped = text.strip()
    if stripped and stripped[0] in "[{-0123456789\"" and not os.path.isfile(text):
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


# ---------------------------------------------------------------------------
# commands

def cmd_limit_quadric(args):
    from .conormal import is_limit_quadric
    from .exact import rat_to_str
    from .rnc import QuadForm

    data = _load_json_arg(args.q)
    if isinstance(data, list):
        if args.g is None:
            raise CommandError("--g is required when --q is a bare matrix")
        data = {"g": args.g, "matrix": data}
    elif not isinstance(data, dict):
        raise CommandError("--q must be a bare matrix (a list of rows, with --g) "
                           "or a {g, matrix} object, got %r" % (data,))
    q = QuadForm.from_json(data)
    if args.g is not None and args.g != q.g:
        raise CommandError("--g %d disagrees with the matrix header g=%d" % (args.g, q.g))
    degenerate, witness = is_limit_quadric(q)
    return {"g": q.g,
            "degenerate": degenerate,
            "det": rat_to_str(q.det()),
            "witness_lambda": witness.to_json() if witness is not None else None}


def cmd_limit_relation(args):
    from .conormal import relation_rank
    from .poly import WPoly

    if args.d is not None:
        _check_slice_size(args.g, args.d)
    data = _load_json_arg(args.poly)
    if not isinstance(data, list):
        raise CommandError("--poly must be a list of term objects")
    x = WPoly.from_json(args.g, data)
    if not x:
        raise CommandError("the zero polynomial is not a canonical relation")
    try:
        degree = x.degree()
    except ValueError:  # x is inhomogeneous
        raise CommandError("not a canonical relation")
    d = args.d
    if d is None:
        d = degree
        _check_slice_size(args.g, d)
    try:
        matrix, rank, witness = relation_rank(x, d)
    except ValueError:
        # phi_d refuses x unless it is u-only, of degree d and pulls back to zero
        raise CommandError("not a canonical relation")
    return {"g": args.g,
            "d": d,
            "limit": witness is not None,
            "rank": rank,
            "matrix": matrix.to_json(),
            "witness_lambda": witness.to_json() if witness is not None else None}


def cmd_verify(args):
    from .suites import SUITES, run_items

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
    from .families import constant_family, perturb_hyperelliptic
    from .poly import BinaryForm
    from .xg import hyperelliptic_model, random_ribbon_ell, rng_for, split_ribbon_ideal

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
    data = _load_json_arg(args.h)
    if isinstance(data, list) and data:
        data = {"degree": len(data) - 1, "coeffs": data}
    elif not isinstance(data, dict):
        raise CommandError("--h must be a nonempty coefficient list or a "
                           "{degree, coeffs} object, got %r" % (data,))
    h = BinaryForm.from_json(data)
    if args.model == "hyperelliptic":
        family = constant_family(hyperelliptic_model(g, h), bound)
        return {"g": g, "model": "hyperelliptic", "order_bound": bound,
                "h": h.to_json(), "family": family.to_json()}
    rng = rng_for(args.seed, "family", "build", {"g": g, "d": d})
    family = perturb_hyperelliptic(g, h, d, bound, random_ribbon_ell(g, rng))
    return {"g": g, "model": "perturbed", "d": d, "order_bound": bound,
            "seed": args.seed, "h": h.to_json(), "family": family.to_json()}


def cmd_family_rescale(args):
    from .families import TruncatedFamily, rescale_v

    family = TruncatedFamily.from_json(_load_json_arg(args.family))
    scaled = rescale_v(family, args.k)
    return {"g": scaled.g, "k": args.k, "order_bound": scaled.order_bound,
            "family": scaled.to_json()}


def cmd_family_order(args):
    from .families import TruncatedFamily, hyperell_order, ribbon_order

    family = TruncatedFamily.from_json(_load_json_arg(args.family))
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
    from .exact import rat_to_str
    from .families import (TruncatedFamily, binary_discriminant, discriminant_section,
                           ribbon_order)

    family = TruncatedFamily.from_json(_load_json_arg(args.family))
    s = discriminant_section(family)
    return {"g": family.g,
            "ribbon_order": ribbon_order(family),
            "section": {"g": family.g, "s": s.to_json()},
            "binary_discriminant": rat_to_str(binary_discriminant(s))}


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
    p.add_argument("--suite", choices=list(SUITE_NAMES) + ["all"], default="all")
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
