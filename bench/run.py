"""ribbonlab benchmark: one client, closed loop, one fresh process per job.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Each job is started only after the previous one has exited, the way one user
runs the command line.  CLI jobs run `python -m ribbonlab.cli`; library jobs
run bench/job.py, which calls one public function.  Every job's stdout must be
exactly one JSON document whose answer matches the known one (workloads.py).

--trace 0 measures the end-to-end metrics; the bounded times are reported at
the speed of a reference probe timed around every job (see REFERENCE_S), and
the plain wall-time figures are printed beside them.  --trace 1 runs every
job twice, first plain and then under the timing wrappers of tracer.py,
requires the two stdouts to be identical, and reports the per-layer metrics
and the tracing overhead.  The last stdout line is one JSON object holding
the metrics that BENCHMARK.json names for the mode; the lines before it are
for people.
"""

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import tracer
import reference
from workloads import WORKLOADS, Job

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DIGESTS = os.path.join(HERE, "digests.json")
DIGEST_SEED = 1
# The set-up probe: a CLI call that does no work.
SETUP_JOB = Job("setup", "cli", ["limit-quadric", "--g", "3", "--q", "[[1]]"],
                lambda p: None if (p["degenerate"], p["det"]) == (False, "1") else "wrong answer")
# Set-up probes per run, spread evenly over the run so that their median
# averages over the host's drift rather than sampling one moment of it.
SETUP_CALLS = 11
# No job of a workload starts later than this, whatever --seconds says.
HARD_LIMIT_S = 150.0
# The host's speed drifts by a factor of two over minutes, and the reference
# probe (reference.py) drifts with the jobs (NOTES.md).  So without tracing a
# reference probe runs before every job and after the last one, and the
# bounded time metrics are reported at reference speed: each job's wall time
# is scaled by REFERENCE_S / the mean of the two probes around it, each
# set-up probe's by REFERENCE_S / the probe after it.  REFERENCE_S is the
# probe's median wall time on the host the benchmark was defined on.
REFERENCE_S = 0.4
REFERENCE = [sys.executable, os.path.join(HERE, "reference.py")]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the stdout digests of this --seed %d run in digests.json"
                        % DIGEST_SEED)
    return parser.parse_args(argv)


class Runner:
    """Starts job processes from one checkout and collects what they report."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.env = dict(os.environ)
        # users get the default worker count, so the benchmark measures it
        self.env.pop("RIBBONLAB_THREADS", None)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.spawned = 0

    def command(self, job, trace_path=None):
        if trace_path is not None:
            return [sys.executable, os.path.join(HERE, "job.py"), "--trace", trace_path,
                    "--job-id", str(self.spawned), job.mode] + job.args
        if job.mode == "cli":
            return [sys.executable, "-m", "ribbonlab.cli"] + job.args
        return [sys.executable, os.path.join(HERE, "job.py"), "lib"] + job.args

    def spawn(self, argv):
        """Run argv to completion: (wall seconds, exit code, stdout bytes, max RSS in MB)."""
        self.spawned += 1
        out_path = os.path.join(self.workdir, "stdout")
        with open(out_path, "wb") as out, open(os.devnull, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.workdir,
                                    env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        return wall, proc.returncode, stdout, usage.ru_maxrss / 1024.0


def judge(job, code, stdout):
    """None when the job's result is right, else why it is wrong.

    The exit code must follow the CLI's contract: 1 for a status-error
    document, 1 for a verify report that is not all_pass, 0 otherwise.
    """
    try:
        doc = json.loads(stdout.decode("utf-8"))
    except ValueError:
        return "stdout is not exactly one JSON document (exit %d)" % code
    if not isinstance(doc, dict) or not isinstance(doc.get("payload"), dict):
        return "stdout document is not a status/payload object"
    status, payload = doc.get("status"), doc["payload"]
    if job.expect_error:
        if code == 1 and status == "error":
            return None
        return "malformed input gave exit %d, status %r" % (code, status)
    want_code = 0 if payload.get("all_pass", True) else 1
    if code != want_code or status != "ok":
        return "exit %d, status %r" % (code, status)
    try:
        return job.check(payload)
    except (KeyError, TypeError, ValueError, StopIteration, AttributeError) as exc:
        return "payload does not have the expected form: %r" % (exc,)


def kind_weighted(samples, failures, multiplicity):
    """(median seconds per job, jobs per second, failed share) over one cycle.

    Each kind is weighted by how often it occurs in a cycle of the workload's
    job mix, so a run that stops part-way through its second or later cycle
    does not over-weight the kinds at the start of a cycle.  The median uses
    each kind's median job; the rate is the jobs of a cycle divided by the sum
    of their kinds' median wall times, the rate of a run made of whole cycles
    of typical jobs.
    """
    kinds = [kind for kind in multiplicity if kind in samples]
    medians = sorted(statistics.median(samples[kind])
                     for kind in kinds for _ in range(multiplicity[kind]))
    cycle_s = sum(multiplicity[kind] * statistics.median(samples[kind]) for kind in kinds)
    jobs = sum(multiplicity[kind] for kind in kinds)
    failed = sum(multiplicity[kind] * failures.get(kind, 0) / len(samples[kind])
                 for kind in kinds)
    return statistics.median(medians), jobs / cycle_s, failed / jobs


def tail(times):
    """(percentile, value): the highest percentile with at least ten jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = -(-pct * n // 100)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None, None


def job_stream(name, seed, workdir):
    """The workload's jobs, cycle after cycle, drawn from a generator seeded by --seed."""
    rng = random.Random("%s:%d" % (name, seed))
    index = 0
    while True:
        yield from WORKLOADS[name](rng, workdir, index, seed)
        index += 1


def probe_setup(runner, setup, until):
    """Run set-up probes until `setup` holds `until` wall times."""
    while len(setup) < until:
        wall, code, stdout, _ = runner.spawn(runner.command(SETUP_JOB))
        if judge(SETUP_JOB, code, stdout) is not None:
            raise SystemExit("the set-up probe failed: %r" % stdout[:200])
        setup.append(wall)


def probe_reference(runner):
    """Wall time of one reference probe."""
    wall, code, stdout, _ = runner.spawn(REFERENCE)
    if code or json.loads(stdout) != reference.EXPECTED:
        raise SystemExit("the reference probe failed: %r" % stdout[:200])
    return wall


def run_workload(name, args, runner, workdir, digests):
    """Run one workload; return (result dict, human-readable lines).

    Jobs start until --seconds have passed and at least one whole cycle has
    run, so --seconds 0 runs exactly one cycle.  Without tracing, set-up
    probes run between jobs, one every --seconds / SETUP_CALLS, and a
    reference probe runs before every job and after the last one.
    """
    setup, setup_scaled, refs, between = [], [], [], []
    probes = 0 if args.trace else SETUP_CALLS
    cycle = WORKLOADS[name](random.Random(0), workdir, 0, args.seed)
    multiplicity = Counter(job.kind for job in cycle)
    want_digests = digests.get(name, []) if args.seed == DIGEST_SEED else []
    got_digests = []
    samples, traced_samples, failed_kinds = {}, {}, Counter()
    failures, rss, trace_files = [], [], []
    known_defects = 0
    # an untimed warm-up call, so that no timed job pays for a cold file cache
    runner.spawn(runner.command(SETUP_JOB))
    started = time.perf_counter()
    for job in job_stream(name, args.seed, workdir):
        elapsed = time.perf_counter() - started
        if (elapsed >= args.seconds and len(got_digests) >= len(cycle)) or elapsed >= HARD_LIMIT_S:
            break
        if args.seconds > 0:
            probe_setup(runner, setup, min(probes, 1 + int(probes * elapsed / args.seconds)))
        if not args.trace:
            refs.append(probe_reference(runner))
            setup_scaled.extend(t * REFERENCE_S / refs[-1] for t in setup[len(setup_scaled):])
        wall, code, stdout, peak = runner.spawn(runner.command(job))
        samples.setdefault(job.kind, []).append(wall)
        if refs:
            # the job ran between probes len(refs) - 1 and len(refs)
            between.append((job.kind, wall, len(refs)))
        rss.append(peak)
        problem = judge(job, code, stdout)
        k = len(got_digests)
        # error documents carry free-form messages, so only answers are pinned
        got_digests.append(None if job.expect_error else hashlib.sha256(stdout).hexdigest())
        if problem is None and k < len(want_digests) and want_digests[k] != got_digests[k]:
            problem = "stdout differs from the bytes recorded for --seed %d" % DIGEST_SEED
        if problem is None and args.trace:
            path = os.path.join(workdir, "trace-%d.json" % k)
            t_wall, t_code, t_stdout, _ = runner.spawn(runner.command(job, path))
            traced_samples.setdefault(job.kind, []).append(t_wall)
            trace_files.append(path)
            if (t_code, t_stdout) != (code, stdout):
                problem = "traced run changed the exit code or stdout"
        if problem is not None:
            failures.append((job.kind, job.args, problem))
            failed_kinds[job.kind] += 1
        elif code and not job.expect_error:
            known_defects += 1
    probe_setup(runner, setup, probes)
    if not args.trace:
        refs.append(probe_reference(runner))
        setup_scaled.extend(t * REFERENCE_S / refs[-1] for t in setup[len(setup_scaled):])
    scaled = {}
    for kind, wall, i in between:
        scaled.setdefault(kind, []).append(wall * 2 * REFERENCE_S / (refs[i - 1] + refs[i]))
    run_wall = time.perf_counter() - started
    attempted = len(got_digests)
    if attempted < len(cycle):
        # a partial cycle would silently drop the kinds at its end from the mix
        missing = sorted(set(multiplicity) - set(samples)) or ["the rest of the cycle"]
        failures.append(("incomplete", [], "the run reached %.0f s before %s ran"
                         % (HARD_LIMIT_S, ", ".join(missing))))
    if args.record_digests and args.seed == DIGEST_SEED and any(got_digests):
        digests[name] = got_digests[:64]

    p50, rate, failed_ratio = (kind_weighted(samples, failed_kinds, multiplicity)
                               if attempted >= len(cycle) else (0.0, 0.0, 1.0))
    scaled_rate = (kind_weighted(scaled, Counter(), multiplicity)[1]
                   if scaled and attempted >= len(cycle) else 0.0)
    lines = ["workload %s: %d jobs in %.1f s, %d failed" % (name, attempted, run_wall,
                                                            len(failures))]
    for kind, job_args, problem in failures:
        lines.append("  FAILED %s %s: %s" % (kind, json.dumps(job_args)[:160], problem))
    if known_defects:
        lines.append("  %d jobs reported a verify item failing on an input outside its premise"
                     " (a known suite defect, see NOTES.md); their reports were right" % known_defects)
    if args.trace:
        metrics = layer_metrics(trace_files, sum(map(sum, traced_samples.values())))
        if traced_samples:
            metrics["trace.overhead_s"] = (
                kind_weighted(traced_samples, Counter(), multiplicity)[0] - p50, "s")
        for key in sorted(metrics):
            lines.append("  %-44s %14.6f %s" % (key, metrics[key][0], metrics[key][1]))
    else:
        times = [t for ts in samples.values() for t in ts]
        pct, tail_value = tail(times)
        metrics = {"setup_s": (statistics.median(setup_scaled), "s"),
                   "jobs_per_s": (scaled_rate, "1/s"),
                   "setup_wall_s": (statistics.median(setup), "s"),
                   "jobs_per_wall_s": (rate, "1/s"),
                   "reference_s": (statistics.median(refs), "s"),
                   "job_p50_s": (p50, "s"),
                   "peak_rss_mb": (max(rss), "MB"),
                   "failed_ratio": (failed_ratio, "-")}
        for key, (value, unit) in metrics.items():
            lines.append("  %-15s %12.6f %s" % (key, value, unit))
        lines.append("  job_tail_s   %s over %d jobs (highest percentile with at least ten"
                     " jobs beyond it)" % ("p%d %.6f s" % (pct, tail_value) if pct
                                           else "undefined", len(times)))
        lines.append("  raw: %d jobs, %d set-up and %d reference probes in %.2f s of run"
                     " wall time" % (attempted, len(setup), len(refs), run_wall))
        for kind in multiplicity:
            if kind in samples:
                lines.append("  kind %-30s x%-3d median %.4f s over %d"
                             % (kind, multiplicity[kind], statistics.median(samples[kind]),
                                len(samples[kind])))
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics}, lines


def layer_metrics(paths, traced_wall):
    """Per-layer metrics of the traced jobs, keyed by metric name.

    Counts and times are means per job; `self_share` is a function's self
    time summed over the job threads, as a share of the traced jobs' wall time.
    """
    calls, self_s, counts = Counter(), Counter(), Counter()
    import_s = cmd_self = overlap_lib = overlap_wall = 0.0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        import_s += data["import_s"]
        for name, values in data["counters"].items():
            counts.update({(_metric_name(name), key): v for key, v in values.items()})
        spans = data["spans"]
        for _, name, start, end, own, depth in spans:
            calls[_metric_name(name)] += 1
            self_s[_metric_name(name)] += own
            if name.startswith("cli.cmd_"):
                # outermost library and JSON calls inside the command, on any thread
                inner = [(s, e, n) for _, n, s, e, _, d in spans
                         if d == 0 and not n.startswith("cli.cmd_") and start <= s and e <= end]
                cmd_self += end - start - _union_length((s, e) for s, e, _ in inner)
                if name == "cli.cmd_verify":
                    overlap_wall += end - start
                    overlap_lib += sum(e - s for s, e, n in inner if n != tracer.JSON_SPAN)
    jobs = max(len(paths), 1)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {"cli.import_s": (import_s / jobs, "s"),
           "cli.json_s": (self_s[tracer.JSON_SPAN] / jobs, "s"),
           "cli.cmd_self_s": (cmd_self / jobs, "s"),
           "cli.cmd_self_share": (100 * ratio(cmd_self, traced_wall), "%"),
           "cli.verify.overlap": (ratio(overlap_lib, overlap_wall), "ratio")}
    for metric in sorted(set(_metric_name(m) for m in tracer.FUNCTIONS)):
        count = "adds" if metric == "exact.row_eliminator" else "calls"
        out["%s.%s" % (metric, count)] = (calls[metric] / jobs, "1/job")
        out[metric + ".self_s"] = (self_s[metric] / jobs, "s")
        out[metric + ".self_share"] = (100 * ratio(self_s[metric], traced_wall), "%")
    for metric, key in (("exact.rref", "cells"), ("exact.rref", "nnz_in"),
                        ("exact.rref", "nnz_out"), ("exact.sparse", "nnz_in"),
                        ("poly.monomials", "produced")):
        out["%s.%s" % (metric, key)] = (counts[metric, key] / jobs, "1/job")
    for metric in ("exact.rref", "exact.sparse"):
        out[metric + ".rank_ratio"] = (ratio(counts[metric, "rank"], counts[metric, "rows"]),
                                       "ratio")
    out["exact.row_eliminator.accept_ratio"] = (
        ratio(counts["exact.row_eliminator", "accepted"], calls["exact.row_eliminator"]), "ratio")
    for metric in sorted(tracer.REPEAT_TRACKED):
        out[metric + ".repeat_ratio"] = (ratio(counts[metric, "repeats"], calls[metric]), "ratio")
    return out


def _union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _metric_name(name):
    """Both sparse entry points report as one `exact.sparse` metric."""
    return "exact.sparse" if name.startswith("exact.sparse") else name


def main(argv):
    args = parse_args(argv)
    # a terminated run still stops its job process and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "ribbonlab", "cli.py")):
        print("no ribbonlab sources under %s; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    digests = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            digests = json.load(fh)
    names = [n for n in WORKLOADS] if args.workload == "all" else [args.workload]
    results = {}
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        runner = Runner(workdir)
        for name in names:
            result, lines = run_workload(name, args, runner, workdir, digests)
            print("\n".join(lines), flush=True)
            results[name] = result
    if args.record_digests:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")

    def pick(result, prefix=""):
        return {prefix + key: {"value": result["metrics"][key][0],
                               "unit": result["metrics"][key][1]} for key in wanted}

    if len(names) == 1:
        metrics = pick(results[names[0]])
    else:
        metrics = {}
        for name in names:
            metrics.update(pick(results[name], name + "."))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
