"""Run the repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ntp-fleet --seed 1 --seconds 20 --trace 0

Every measurement runs in a fresh child process, so peak memory, set-up
time and warm caches never carry over from another run.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric of BENCHMARK.json
with ``--trace 0``, every per-layer metric with ``--trace 1``); the lines
before it print each metric by name with its unit.  The exit code is 0
only when the outputs were correct.

Steadiness mode runs each workload on ``--steady K`` seeds (``--sets 2``
runs two disjoint sets, as the acceptance check does) and prints, per
metric, the median, the quartiles and the spread against its bound:

    python3 perfbench/run.py --steady 10 --sets 2 --workload all --seconds 20
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
#: a child that has not answered within this many seconds is killed
CHILD_TIMEOUT = 170
#: the default seed; seeds from 1001 up were never used while tuning and
#: are kept for checking later claims (see README.md)
TUNING_SEED = 1


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def metric_table(spec: dict, trace: bool) -> dict:
    """Metric name -> its BENCHMARK.json entry, for this kind of run."""
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=TUNING_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="reduced sizes for self-tests; p99 is reported without ten samples beyond it",
    )
    parser.add_argument("--steady", type=int, default=0, metavar="K")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child: the measurement itself -------------------------------------------


def child_main(args) -> int:
    sys.path.insert(0, SRC)
    from pbench import serveload, simload

    if args.workload == "serve-probes":
        run = serveload.measure_traced if args.trace else serveload.measure
        result = run(args.seed, args.seconds, args.smoke)
    else:
        workload = {"ntp-fleet": simload.NTP_FLEET,
                    "lossy-mesh-hardened": simload.LOSSY_MESH}[args.workload]
        run = simload.measure_traced if args.trace else simload.measure
        result = run(workload, args.seed, args.seconds, args.smoke)
    # counters may arrive as numpy integers
    result["metrics"] = {name: float(v) for name, v in result["metrics"].items()}
    tracer = result.pop("tracer", None)
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(path)
        result["report"]["span_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(result))
    return 0


# -- parent: isolation, checking, printing ------------------------------------


def run_child(args, seed: int) -> dict:
    """One measurement in a fresh interpreter; its parsed result."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", args.workload, "--seed", str(seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"measurement process failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def check_metrics(result: dict, table: dict) -> None:
    """Every named metric present, well named, finite, and (end-to-end) never zero."""
    from pbench.stats import valid_metric_name

    metrics = result["metrics"]
    missing = sorted(set(table) - set(metrics))
    extra = sorted(set(metrics) - set(table))
    if missing or extra:
        raise RuntimeError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    for name, value in metrics.items():
        if not valid_metric_name(name):
            raise RuntimeError(f"metric name {name!r} is outside [A-Za-z0-9_.-]")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not a finite number: {value!r}")
        if "bound" in table[name] and value == 0:
            raise RuntimeError(f"end-to-end metric {name} read 0")


def single_run(args, spec: dict) -> int:
    table = metric_table(spec, bool(args.trace))
    result = run_child(args, args.seed)
    check_metrics(result, table)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, value in result["metrics"].items():
        print(f"  {name:<28} {value:>14.6g} {table[name]['unit']}")
    for key, value in result["report"].items():
        print(f"  [{key}] {value}")
    for problem in result["problems"]:
        print(f"  CORRECTNESS: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": table[name]["unit"]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0 if result["correct"] else 1


def steady_run(args, spec: dict) -> int:
    from pbench.stats import spread, worse_by

    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    table = metric_table(spec, bool(args.trace))
    summary = {}
    ok = True
    for workload in workloads:
        args.workload = workload
        sets = []
        for s in range(args.sets):
            values = {name: [] for name in table}
            for i in range(args.steady):
                seed = args.seed + s * args.steady + i
                result = run_child(args, seed)
                check_metrics(result, table)
                ok &= result["correct"] and result["failed"] == 0
                for name, value in result["metrics"].items():
                    values[name].append(value)
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
            sets.append(values)
        print(f"\n{workload}: {args.steady} seeds x {args.sets} set(s)")
        print(f"  {'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}  verdict")
        rows = {}
        for name, entry in table.items():
            bound = entry.get("bound")
            per_set = [spread(v[name]) for v in sets]
            for stats in per_set:
                verdict = ""
                if bound is not None and name != "setup_s":
                    verdict = "steady" if stats["spread"] < bound / 3 else "UNSTEADY"
                    ok &= stats["spread"] <= bound
                print(f"  {name:<28}{stats['median']:>12.5g}{stats['q1']:>12.5g}"
                      f"{stats['q3']:>12.5g}{stats['spread']:>9.3f}"
                      f"{'' if bound is None else bound:>7}  {verdict}")
            agree = None
            if bound is not None and len(per_set) > 1:
                agree = worse_by(
                    per_set[0]["median"], per_set[1]["median"], entry["better"]
                )
                ok &= agree <= bound
                print(f"  {'':<28}second set worse by {agree:+.3f} "
                      f"({'within' if agree <= bound else 'OUTSIDE'} bound)")
            rows[name] = {
                "values": [v[name] for v in sets],
                "sets": per_set,
                "second_worse_by": agree,
                "bound": bound,
            }
        summary[workload] = rows
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"steady-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=1)
    print(f"\nsummary written to {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program source under {SRC}: nothing to measure", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names and not (args.steady and args.workload == "all"):
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    try:
        if args.steady:
            return steady_run(args, spec)
        return single_run(args, spec)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
