"""One benchmark job, run in its own Python process.

    python3 bench/job.py [--trace PATH --job-id N] cli ARG...
    python3 bench/job.py [--trace PATH --job-id N] lib KIND PARAMS_JSON

`cli` runs the ribbonlab command line exactly as the `ribbonlab` console
script does.  `lib` calls one public library function (see LIBRARY_JOBS)
and prints its result as one JSON document.  With --trace the timing
wrappers of tracer.py are installed after the import, and the spans are
written to PATH when the job ends; stdout is the same either way.
"""

import json
import sys
import time


def _hilbert(ribbonlab, p):
    h = ribbonlab.BinaryForm(2 * p["g"] + 2, [int(c) for c in p["h"]])
    ideal = ribbonlab.hyperelliptic_model(p["g"], h)
    return {"hilbert": ribbonlab.hilbert_function(ideal, "weighted", p["degrees"])}


def _syzygies(ribbonlab, p):
    g = p["g"]
    if p["model"] == "split":
        ideal, table = ribbonlab.split_ribbon_ideal(g), "ribbon"
    elif p["model"] == "hyperelliptic":
        h = ribbonlab.BinaryForm(2 * g + 2, [int(c) for c in p["h"]])
        ideal, table = ribbonlab.hyperelliptic_model(g, h), "hyperelliptic"
    else:
        ideal, table = ribbonlab.canonical_ribbon_ideal(g, _ribbon_ell(ribbonlab, p)), "ribbon"
    records = ribbonlab.syzygies_by_degree(ideal, p["max_degree"], table)
    return {"minimal": {str(d): r.minimal_count for d, r in sorted(records.items())},
            "kernel": {str(d): r.kernel_dim for d, r in sorted(records.items())}}


def _ribbon_ell(ribbonlab, p):
    """The combination sum_k coeffs[k] * (k-th basis element of the ell space)."""
    g = p["g"]
    space = ribbonlab.ribbon_ell_space(g)
    ell = [ribbonlab.WPoly.zero(g) for _ in space[0]]
    for c, basis_ell in zip(p["coeffs"], space):
        ell = [acc + e.map_coeffs(lambda x, c=c: x * c) for acc, e in zip(ell, basis_ell)]
    return ell


def _eliminate(ribbonlab, p):
    ideal = ribbonlab.canonical_ribbon_ideal(p["g"], _ribbon_ell(ribbonlab, p))
    return {"dim": ribbonlab.eliminate_v_degree(ideal, p["d"]).dim}


def _ell_space(ribbonlab, p):
    return {"dim": len(ribbonlab.ribbon_ell_space(p["g"]))}


def _groebner(ribbonlab, p):
    result = ribbonlab.certify_groebner(ribbonlab.split_ribbon_ideal(p["g"]))
    if result is None:
        return {"order": None}
    return {"order": result.order, "basis": len(result.basis),
            "normal": [result.normal_monomial_count(d) for d in p["degrees"]]}


LIBRARY_JOBS = {
    "hilbert": _hilbert,
    "syzygies": _syzygies,
    "eliminate": _eliminate,
    "ell_space": _ell_space,
    "groebner": _groebner,
}


def main(argv):
    trace_path = job_id = None
    if argv[:1] == ["--trace"]:
        trace_path, job_id, argv = argv[1], int(argv[3]), argv[4:]
    mode, rest = argv[0], argv[1:]
    started = time.perf_counter()
    import ribbonlab
    import ribbonlab.cli
    import_s = time.perf_counter() - started
    recorder = None
    if trace_path is not None:
        import tracer
        recorder = tracer.install(tracer.Recorder(job_id))
        recorder.import_s = import_s
    try:
        if mode == "cli":
            return ribbonlab.cli.main(rest)
        kind, params = rest
        payload = LIBRARY_JOBS[kind](ribbonlab, json.loads(params))
        dumps = json.dumps if recorder is None else recorder.wrap(
            tracer.JSON_SPAN, json.dumps, library=False)
        sys.stdout.write(dumps({"status": "ok", "payload": payload},
                               indent=2, sort_keys=True) + "\n")
        return 0
    finally:
        if recorder is not None:
            recorder.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
