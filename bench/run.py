"""rcaudit benchmark: corpus sweeps through the CLI entry point.

    python3 bench/run.py --workload random_sweep --seed 1 --seconds 36 --trace 0

Run from a source checkout; the benchmark imports ``rcaudit`` from the
checkout's ``src`` directory and nowhere else. It is a closed loop with a
single caller: in one process and one thread, it writes the workload's
graph6 corpus (set-up), then sweeps it with ``rcaudit.cli.main(["sweep",
shard, "--format", "json", "--out", reports, ...])``, one call per shard,
each call starting when the previous one has returned. A round sweeps
every shard once; rounds repeat until ``--seconds`` would be exceeded, and
at least twice, so that repeats can be compared byte for byte.

Times are reported at a nominal host speed. Before each timed call (and
each set-up repetition) the benchmark times a fixed pure-Python reference
kernel, and scales the call's time by REFERENCE_NOMINAL_S / reference
time. On a 2-core machine shared with other jobs, identical calls took
up to 45% longer when neighbours were busy, and the reference kernel slowed
by the same factor: over ten random-sweep runs that straddled such a
change, the raw sweep time spread by 30% (quartile distance over median)
and the scaled one by 6%. ``wall_s`` is the sum over shards of each
shard's median scaled call time; the raw times are in the record.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` makes one
untraced round and two traced ones: the traced rounds patch rcaudit's
cross-module call sites (see spans.py) and print the per-layer metrics.

Every output is checked outside the timed region (see workloads.py). The
last line of stdout is the result; the line before it is a full record
(environment, seeds, parameters, self-tests, per-call times, gate
problems, unmeasured call sites), also written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
# the reference kernel's time on a quiet 2-core machine; scaled times are
# seconds at that speed
REFERENCE_NOMINAL_S = 0.2
# no new round starts past this point, so a run stays inside its time
# limit even when the machine is much slower than expected
HARD_STOP_S = 120.0
# the per-layer self times must account for the traced wall time this closely
SELF_SUM_TOLERANCE = 0.05


def _git_sha() -> str | None:
    """HEAD of a git checkout, read from the files (the benchmark may run
    where git is absent or the tree is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rcaudit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _environment(args, workload) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
    }


class Corpus:
    """The workload's shards, written SETUP_REPS times; every repetition
    must produce the same text."""

    def __init__(self, workload, seed: int, run_dir: Path):
        from workloads import corpus_shards

        self.setup_s: list[float] = []
        self.generate_s: list[float] = []
        self.reference_s: list[float] = []
        first = None
        for _ in range(SETUP_REPS):
            gc.collect()
            self.reference_s.append(_reference())
            t0 = time.perf_counter()
            graphs = workload.generate()
            t1 = time.perf_counter()
            shards = corpus_shards(workload, graphs, seed)
            paths = [run_dir / f"shard-{i}.g6" for i in range(len(shards))]
            for path, lines in zip(paths, shards):
                path.write_text("\n".join(lines) + "\n")
            t2 = time.perf_counter()
            self.setup_s.append(t2 - t0)
            self.generate_s.append(t1 - t0)
            if first is not None and shards != first:
                raise RuntimeError("set-up is not deterministic: the corpus changed between repetitions")
            first = shards
            self.generated = len(graphs)
            del graphs
        self.shards = first
        self.graphs = sum(len(lines) for lines in first)
        self.argvs = [
            ["sweep", str(path), "--format", "json", "--out", str(run_dir / f"reports-{i}.jsonl"),
             *workload.sweep_args]
            for i, path in enumerate(paths)
        ]


def _reference() -> float:
    """Seconds taken by a fixed pure-Python kernel that does the kind of
    work a sweep does (breadth-first search over (vertex, color set) states
    with tuples, sets and lists) without any rcaudit code, so that it
    measures how fast the host runs Python at the moment."""
    rng = random.Random(7)
    n = 11
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.45:
                bit = 1 << rng.randrange(6)
                adj[u].append((v, bit))
                adj[v].append((u, bit))
    t0 = time.perf_counter()
    for _ in range(150):
        for s in range(n):
            seen = {(s, 0)}
            queue = [(s, 0)]
            head = 0
            while head < len(queue):
                v, mask = queue[head]
                head += 1
                for w, bit in adj[v]:
                    state = (w, mask | bit)
                    if not mask & bit and state not in seen:
                        seen.add(state)
                        queue.append(state)
    return time.perf_counter() - t0


class Invocation:
    """One timed call of the CLI entry point, preceded by an untimed run
    of the reference kernel."""

    def __init__(self, argv: list[str], main):
        out_path = Path(argv[argv.index("--out") + 1])
        gc.collect()
        self.reference = _reference()
        stdout, stderr = io.StringIO(), io.StringIO()
        self.error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                self.rc = main(argv)
        except Exception:
            self.rc = None
            self.error = traceback.format_exc()
        self.wall = time.perf_counter() - t0
        self.stdout = stdout.getvalue()
        self.stderr = stderr.getvalue()
        self.out = out_path.read_text() if out_path.is_file() else ""
        out_path.unlink(missing_ok=True)


def _sweep(corpus: Corpus, main) -> list[Invocation]:
    return [Invocation(argv, main) for argv in corpus.argvs]


def _gate(corpus: Corpus, rounds: list[list[Invocation]]) -> tuple[int, int, int, list[str]]:
    """(failed, exact, findings, problems) over all rounds; each shard's
    first call is checked in full, its later calls against it byte for byte."""
    from workloads import check_first, check_repeat

    failed = exact = findings = 0
    problems: list[str] = []
    for s, lines in enumerate(corpus.shards):
        calls = [r[s] for r in rounds]
        first = calls[0]
        checks = [check_first(lines, first.rc, first.stdout, first.out)]
        checks += [
            check_repeat(lines, c.rc, c.stdout, c.out, first.stdout, first.out) for c in calls[1:]
        ]
        failed += sum(c.failed for c in checks)
        exact += checks[0].exact
        findings += checks[0].findings
        problems += [p for c in checks for p in c.problems]
        problems += [c.error.strip().splitlines()[-1] for c in calls if c.error]
    return failed, exact, findings, problems


def _outcome(rounds, attempted: int, failed: int, problems: list[str]) -> dict:
    return {
        "calls": [
            [{"rc": c.rc, "wall_s": c.wall, "reference_s": c.reference, "stderr": c.stderr[-2000:]} for c in r]
            for r in rounds
        ],
        "attempted": attempted,
        "failed": failed,
        "ok_share": {"count": attempted - failed, "base": attempted},
        "problems": problems[:50],
        "problem_count": len(problems),
    }


def _scaled(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_NOMINAL_S / reference


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _untraced(seconds: float, corpus: Corpus, main, record: dict) -> dict:
    rounds: list[list[Invocation]] = []
    started = time.perf_counter()
    while True:
        rounds.append(_sweep(corpus, main))
        elapsed = time.perf_counter() - started
        per_round = elapsed / len(rounds)
        if elapsed + per_round > HARD_STOP_S:
            break
        if len(rounds) >= 2 and elapsed + per_round > seconds:
            break
    failed, exact, findings, problems = _gate(corpus, rounds)
    attempted = corpus.graphs * len(rounds)
    record.update(_outcome(rounds, attempted, failed, problems))
    record["exact_share"] = {"count": exact, "base": corpus.graphs}
    record["findings"] = findings
    wall = sum(statistics.median(_scaled(r[s].wall, r[s].reference) for r in rounds)
               for s in range(len(corpus.shards)))
    record["raw_wall_s"] = sum(statistics.median(r[s].wall for r in rounds) for s in range(len(corpus.shards)))
    return {
        "setup_s": _metric(statistics.median(map(_scaled, corpus.setup_s, corpus.reference_s)), "s"),
        "wall_s": _metric(wall, "s"),
        "exact_share": _metric(exact / corpus.graphs, "ratio"),
        "ok_share": _metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _traced(corpus: Corpus, main, record: dict) -> dict:
    import layers
    import spans

    untraced = _sweep(corpus, main)
    sites = spans.discover_sites(layers.REQUIRED_SITES)
    tracer = spans.Tracer()
    rounds = [untraced]
    per_round: list[dict] = []
    observers: list[layers.Observers] = []
    for _ in range(2):
        tracer.reset()
        tracer.observers.clear()
        obs = layers.Observers()
        obs.install(tracer, sites)
        with spans.Installed(tracer, sites):
            rounds.append(_sweep(corpus, tracer.wrap(spans.ROOT_SITE, "cli", main)))
        observers.append(obs)
        per_round.append(layers.program_metrics(tracer, obs, sum(c.wall for c in rounds[-1])))
        if len(per_round) == 1:
            record["unmeasured_sites"] = tracer.unmeasured()
            record["spans"] = sorted(
                ([parent, child, n, t] for (parent, child), (n, t) in tracer.edges.items()),
                key=lambda e: -e[3],
            )
    failed, _, findings, problems = _gate(corpus, rounds)
    counters = [{k: m[k] for k in layers.WORK_COUNTERS} for m in per_round]
    repeat = counters[0] == counters[1]
    if not repeat:
        failed += corpus.graphs
        diff = {k: (v, counters[1][k]) for k, v in counters[0].items() if v != counters[1][k]}
        problems.append(f"work counters differ between traced rounds: {diff}")
    attempted = corpus.graphs * len(rounds)
    record.update(_outcome(rounds, attempted, failed, problems))
    record["leaf_fail_ratio"] = {
        "count": observers[0].leaf_fail, "base": per_round[0]["rainbow.leaf_calls"],
    }
    values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    untraced_wall = sum(c.wall for c in untraced)
    values.update({
        "audit.findings": findings,
        "generators.corpus_s": statistics.median(corpus.generate_s),
        "generators.graphs": corpus.generated,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": (values["trace.wall_s"] - untraced_wall) / untraced_wall,
        "trace.counters_repeat": int(repeat),
    })
    if abs(values["trace.self_sum_ratio"] - 1) > SELF_SUM_TOLERANCE:
        record["self_test"] = [f"layer self times sum to {values['trace.self_sum_ratio']} of the traced wall time"]
    return {name: _metric(values[name], unit) for name, (unit, _) in layers.PER_LAYER.items()}


def run(args, workload) -> tuple[dict, dict]:
    import layers
    import spans
    from rcaudit import cli

    record = {"environment": _environment(args, workload)}
    record["self_test"] = spans.self_test() + layers.self_test() or "ok"
    run_dir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        corpus = Corpus(workload, args.seed, run_dir)
        record["argv"] = [["rcaudit", *argv] for argv in corpus.argvs]
        record["raw_setup_s"] = corpus.setup_s
        record["setup_reference_s"] = corpus.reference_s
        if args.trace:
            metrics = _traced(corpus, cli.main, record)
        else:
            metrics = _untraced(args.seconds, corpus, cli.main, record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return record, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rcaudit" / "__init__.py").is_file():
        print(f"error: no rcaudit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rcaudit

    if Path(rcaudit.__file__).resolve().parent != SRC / "rcaudit":
        print(f"error: imported rcaudit from {rcaudit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    record, metrics = run(args, WORKLOADS[args.workload])
    result = {
        "correct": record["failed"] == 0 and record["self_test"] == "ok",
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    record["result"] = result
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    for problem in record["problems"][:10]:
        print(f"gate: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
