"""horoshift benchmark: CLI workloads timed end to end, and a traced pass.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, a table each
    python3 bench/run.py --write-golden            # re-record bench/golden.json

Closed loop, one client: the workload's CLI invocations run one after the
other, each in a fresh single-threaded Python child (``child.py``) that
imports ``horoshift.cli`` and calls ``cli.main(argv)`` in a fresh pass
directory.  Passes repeat until ``--seconds`` is spent (at least one).
Before the passes, a few children only import the CLI, so set-up time has
several samples even on workloads with two invocations.  Each child also
times a fixed calibration loop around ``cli.main``; ``wall_s`` scales every
invocation by it, so that other tenants of a shared host, which slow the
program and the loop alike, move it far less than the raw time.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs the same untraced passes and then one traced pass, in
which every layer's public functions record spans (``spans.py``), and
reports the per-layer metrics.  Every invocation's output is checked (exit
code, artifacts parse, verdicts against the mathematical reference, bytes
equal between passes); the last stdout line is the JSON result.
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
SETUP_PROBES = 9
# one calibration slice (child.py) on an undisturbed 2-vCPU Intel Xeon VM:
# wall_s reads in that machine's seconds
CAL_REF_S = 0.0134
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# certify functions whose time is reported on its own, not in certify.self_s
CERTIFY_PARTS = ("dilated_trace", "horoball_box_mask", "gf2_nullspace")
STATUS = ("certify.direction_status", "certify.horoball_status",
          "certify.skew_horoball_status")


def monotonic():
    # CLOCK_MONOTONIC is system-wide, so the child's reading is comparable
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    env.update({v: "1" for v in THREAD_VARS})
    return env


def environment():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "commit": commit, **{v: "1" for v in THREAD_VARS}}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, p):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * p // 100) - 1)]


class Runner:
    """Runs the passes of one workload and checks every invocation."""

    def __init__(self, workload, seed, golden, workdir):
        self.workload, self.seed, self.golden = workload, seed, golden
        self.workdir = workdir
        self.env = child_env()
        self.passes = 0
        self.setup_s = []
        self.rss_kb = []
        self.attempted = self.failed = 0
        self.certs = [0, 0]  # conclusive, all expansivity certificates
        self.first = {}  # "inv/artifact" -> (sha256, canonical, kinds)
        self.drift = 0
        self.problems = []
        self.warnings = set()
        self.spans = []  # [(invocation, spans)] of the traced pass

    def spawn(self, mode, argv, cwd):
        result = self.workdir / "result.json"
        t0 = monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(result), *mode,
             "--", *argv], cwd=cwd, env=self.env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
        if not result.exists():
            raise RuntimeError("child left no report: "
                               + proc.stderr.decode(errors="replace")[-400:])
        report = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        self.setup_s.append(report["imported_at"] - t0)
        return report, proc.stderr.decode(errors="replace")

    def probe(self):
        try:
            self.spawn(["probe"], [], self.workdir)
        except (OSError, RuntimeError, subprocess.SubprocessError) as e:
            self.problems.append(f"set-up probe: {e}")

    def run_pass(self, traced=False):
        """One pass over the invocations; returns ([(cli.main seconds, the
        same corrected for host contention) per invocation],
        [(invocation, spans)])."""
        pdir = self.workdir / f"pass{self.passes}"
        pdir.mkdir()
        self.passes += 1
        mains, spans = [], []
        for i, inv in enumerate(self.workload.invocations):
            self.attempted += 1
            try:
                mode = ["trace", f"{self.passes - 1}/{i}"] if traced else ["run"]
                report, err = self.spawn(mode, W.argv_for(inv, self.seed), pdir)
                problems = self.check(i, inv, report, err, pdir)
            except Exception as e:  # a crashed check fails the invocation only
                report, problems = {}, [f"{type(e).__name__}: {e}"]
            main_s, cal = report.get("main_s", 0.0), report.get("calibration")
            mains.append((main_s, main_s * CAL_REF_S / statistics.fmean(cal)
                          if cal else main_s))
            spans.append((i, report.get("spans", [])))
            self.warnings.update(report.get("warnings", []))
            if problems:
                self.failed += 1
                self.problems.extend(f"pass {self.passes - 1} invocation {i}: "
                                     f"{p}" for p in problems)
        shutil.rmtree(pdir)
        return mains, spans

    def check(self, i, inv, report, err, pdir):
        problems = []
        if report.get("rc") != 0:
            problems.append(f"exit code {report.get('rc')}: "
                            f"{(report.get('error') or err)[-300:]}")
        self.rss_kb.append(report.get("maxrss_kb", 0))
        artifacts = report.get("artifacts", {})
        names = {os.path.basename(rel) for rel in artifacts}
        problems += [f"missing artifact {a}" for a in inv.artifacts
                     if a not in names]
        docs = {}
        for rel, sha in artifacts.items():
            name = os.path.basename(rel)
            data = (pdir / rel).read_bytes()
            try:
                docs[name] = W.parse_artifact(name, data)
            except (ValueError, UnicodeDecodeError) as e:
                problems.append(f"{rel} does not parse: {e}")
                continue
            problems += self.compare(f"{i}/{name}", inv, name, data, docs,
                                     sha)
        for doc in docs.values():
            for _, kind in W.certificates(doc):
                if kind in W.EXPANSIVITY_KINDS:
                    self.certs[1] += 1
                    self.certs[0] += kind in W.CONCLUSIVE
        docs = {n: d for n, d in docs.items() if d is not None}
        problems += self.workload.check(i, docs, self.golden)
        return problems

    def compare(self, key, inv, name, data, docs, sha):
        """Bytes equal to the first pass; on the first pass, drift from the
        digests recorded at seed 0 (counted, not a failure)."""
        if key in self.first:
            if self.first[key][0] != sha:
                return [f"{key}: bytes differ between passes"]
            return []
        canon = W.canonical(name, data)
        canon_sha = W.sha256(canon) if canon is not None else None
        doc = docs.get(name)
        kinds = None if doc is None else [list(c) for c in W.certificates(doc)]
        self.first[key] = (sha, canon_sha, kinds)
        if self.golden is None:  # recording the digests
            return []
        if self.seed == 0 or not (inv.seeded or inv.reads_nd):
            self.drift += self.golden.get("digests", {}).get(key) != sha
        elif canon_sha is not None:
            self.drift += self.golden.get("canonical", {}).get(key) != canon_sha
        return []


def layer_metrics(spans_by_inv, drift):
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    spans = []
    for inv, rows in spans_by_inv:
        by_id = {s[0]: s for s in rows}
        for s in rows:
            spans.append((inv, s, by_id))

    def named(name):
        return [s for _, s, _ in spans if s[1] == name]

    def outermost(names):
        out = []
        for inv, s, by_id in spans:
            if s[1] not in names:
                continue
            p = s[6]
            while p >= 0 and by_id[p][1] not in names:
                p = by_id[p][6]
            if p < 0:
                out.append((inv, s))
        return out

    def total(rows):
        return sum(s[4] for s in rows)

    def attr(rows, key):
        return sum(s[8].get(key, 0) for s in rows)

    def layer(prefix):
        return [s for _, s, _ in spans if s[1].startswith(prefix + ".")]

    def self_s(rows):
        return sum(s[4] - s[5] for s in rows)

    m = {}
    ds = named("certify.direction_status")
    m["certify.direction_status.calls"] = len(ds)
    m["certify.direction_status.p50_ms"] = 1e3 * percentile([s[4] for s in ds], 50)
    m["certify.direction_status.p99_ms"] = 1e3 * percentile([s[4] for s in ds], 99)
    m["certify.horoball_status.calls"] = len(named("certify.horoball_status"))
    m["certify.horoball_status.s"] = total(
        s for _, s in outermost({"certify.horoball_status"}))
    parts = {f"certify.{p}" for p in CERTIFY_PARTS}
    m["certify.self_s"] = self_s(s for s in layer("certify")
                                 if s[1] not in parts)
    for part, counters in (("dilated_trace", ("sites",)),
                           ("horoball_box_mask", ("cells",)),
                           ("gf2_nullspace", ("rows", "cols", "basis"))):
        name = f"certify.{part}"
        m[f"{name}.calls"] = len(named(name))
        m[f"{name}.s"] = total(s for _, s in outermost({name}))
        for c in counters:
            m[f"{name}.{c}"] = attr(named(name), c)
    m["certify.skew_horoball_status.s"] = total(
        s for _, s in outermost({"certify.skew_horoball_status"}))
    verdicts = [s[8] for _, s in outermost(set(STATUS))]
    m["certify.verdict.witness"] = sum(v.get("kind") == "witness" for v in verdicts)
    m["certify.verdict.deterministic"] = sum(
        v.get("kind") == "window-deterministic" for v in verdicts)
    m["certify.verdict.inconclusive"] = sum(
        v.get("kind") == "inconclusive" for v in verdicts)
    m["certify.verdict.budget"] = sum(
        v.get("kind") == "inconclusive" and v.get("reason") == "budget"
        for v in verdicts)

    en = outermost({"subshifts.enumerate_fillings"})
    clamped = [s for _, s in en if s[8].get("clamped")]
    m["subshifts.enumerate.calls"] = len(en)
    m["subshifts.enumerate.clamped_calls"] = len(clamped)
    m["subshifts.enumerate.yielded"] = attr((s for _, s in en), "yielded")
    m["subshifts.enumerate.s"] = total(s for _, s in en)
    m["subshifts.enumerate.budget_hits"] = sum(
        s[8].get("error") == "ResourceBudgetError" for _, s in en)
    m["subshifts.enumerate.distinct_ratio"] = (
        len({(inv, s[8].get("key")) for inv, s in en}) / len(en) if en else 0.0)
    m["subshifts.extend.success_ratio"] = (
        sum(s[8].get("yielded", 0) > 0 for s in clamped) / len(clamped)
        if clamped else 0.0)
    m["subshifts.validate.calls"] = len(named("subshifts.validate"))
    m["subshifts.validate.s"] = total(s for _, s in outermost({"subshifts.validate"}))

    for name in ("groups", "horoballs", "separation"):
        rows = layer(name)
        m[f"{name}.s"] = self_s(rows)
        m[f"{name}.calls"] = len(rows)
    m["groups.ball.elements"] = attr(
        (s for s in layer("groups") if s[1].endswith(".ball")), "elements")
    m["serialize.s"] = self_s(layer("serialize"))
    m["serialize.json_bytes"] = attr(named("serialize.json_dumps"), "bytes")
    m["serialize.drift_artifacts"] = drift
    render = {s[1] for s in layer("render")}
    m["render.s"] = self_s(layer("render"))
    m["render.bytes"] = attr((s for _, s in outermost(render)), "bytes")
    m["cli.self_s"] = self_s(named("cli.main"))
    return m


def invocation_summary(rows):
    """Free and clamped enumeration counts and the largest self times of
    one traced invocation."""
    en = [s for s in rows if s[1] == "subshifts.enumerate_fillings"]
    parts = []
    for label, calls in (("free", [s for s in en if not s[8]["clamped"]]),
                         ("clamped", [s for s in en if s[8]["clamped"]])):
        if calls:
            parts.append(f"{label} enumerate {len(calls)} calls yielding "
                         f"{sum(s[8]['yielded'] for s in calls)}")
    own = {}
    for s in rows:
        own[s[1]] = own.get(s[1], 0.0) + s[4] - s[5]
    top = sorted(own.items(), key=lambda kv: -kv[1])[:3]
    parts.append("self " + ", ".join(f"{n} {t:.3g} s" for n, t in top))
    return "; ".join(parts)


def run_workload(workload, seed, seconds, traced, golden, spec):
    workdir = ROOT / ".bench-work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workload, seed, golden, workdir)
    try:
        start = monotonic()
        for _ in range(SETUP_PROBES):
            runner.probe()
        passes, last = [], 0.0
        # start another pass only while one more still fits
        while not passes or monotonic() - start + last <= seconds:
            t0 = monotonic()
            passes.append(runner.run_pass()[0])
            last = monotonic() - t0
        if traced:
            traced_mains, spans = runner.run_pass(traced=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
    walls = [sum(c for _, c in p) for p in passes]
    wall = statistics.median(walls)
    summary = {
        "raw_wall_s": ([sum(m for m, _ in p) for p in passes], None),
        "wall_s": (walls, wall),
        "setup_s": (runner.setup_s, statistics.median(runner.setup_s)),
        "peak_rss_mb": (None, max(runner.rss_kb, default=0) / 1024),
        "ok_frac": (None, 1 - runner.failed / runner.attempted),
        "conclusive_frac": (None, runner.certs[0] / runner.certs[1]
                            if runner.certs[1] else 0.0),
    }
    if traced:
        runner.spans = spans
        values = layer_metrics(spans, runner.drift)
        values["trace.overhead_frac"] = (
            sum(c for _, c in traced_mains) / wall - 1)
        wanted = spec["per_layer"]
    else:
        values = {k: v for k, (_, v) in summary.items() if v is not None}
        wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise SystemExit(f"metrics {sorted(set(values) ^ {m['name'] for m in wanted})} "
                         f"disagree with BENCHMARK.json")
    return runner, summary, values, wanted


def report(workload, seed, seconds, traced, runner, summary, values, wanted):
    print(f"# workload {workload.name} (seed {seed}, {seconds} s, "
          f"trace {int(traced)}): {workload.why}")
    print(f"# {runner.passes} passes x {len(workload.invocations)} invocations; "
          f"{runner.attempted} attempted, {runner.failed} failed "
          f"(fail_frac {runner.failed / runner.attempted:.4f}); "
          f"artifacts drifted from the seed-0 record: {runner.drift}")
    for name, (samples, _) in summary.items():
        if samples:
            q1, q2, q3 = quartiles(samples)
            print(f"#   {name:<18} median {q2:.6g}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  n {len(samples)}")
    for m in wanted:
        print(f"#   {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']}")
    for i, rows in runner.spans:
        print(f"#   invocation {i}: {invocation_summary(rows)}")
    for w in sorted(runner.warnings):
        print(f"# warning: {w}")
    for p in runner.problems[:20]:
        print(f"# FAIL {p}")
    return {"correct": runner.failed == 0 and not runner.problems,
            "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def write_golden(spec):
    """Record artifact digests and certificate kinds of one seed-0 pass."""
    golden = {}
    for workload in W.WORKLOADS.values():
        runner, *_ = run_workload(workload, 0, 0, False, None, spec)
        if runner.failed:
            raise SystemExit(f"{workload.name}: {runner.problems}")
        first = sorted(runner.first.items())
        golden[workload.name] = {
            "digests": {k: v[0] for k, v in first},
            "canonical": {k: v[1] for k, v in first if v[1] is not None},
            "kinds": {k: v[2] for k, v in first if v[2] is not None},
        }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=["all", *W.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="re-record bench/golden.json from a seed-0 pass")
    args = ap.parse_args()

    if not (ROOT / "src" / "horoshift" / "cli.py").is_file():
        sys.exit(f"no horoshift sources under {ROOT / 'src'}; run from a "
                 f"checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.write_golden:
        write_golden(spec)
        return
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env = environment()
    print("# environment " + json.dumps(env, sort_keys=True))
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        workload = W.WORKLOADS[name]
        out = run_workload(workload, args.seed, seconds, bool(args.trace),
                           golden.get(name, {}), spec)
        results[name] = report(workload, args.seed, seconds, bool(args.trace),
                               *out)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({n: r["correct"] for n, r in results.items()}))
        if not all(r["correct"] for r in results.values()):
            sys.exit(1)


if __name__ == "__main__":
    main()
