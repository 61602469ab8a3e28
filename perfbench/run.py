"""Run one benchmark workload on the permsym sources of this checkout.

    python3 perfbench/run.py --workload decompose|queries|hole \\
        --seed N --seconds S --trace 0|1

The workload runs in this process as a closed loop, one request in
flight, in whole rounds until another round would not fit in S seconds
(at least one round).  Every answer is checked against perfbench's
reference computations outside the timed region.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``run_s``, the
time spent inside the program on one round's request list, each named
operation at its median over rounds (see ``median_round``);
``peak_rss_mb``, this process's peak resident memory; and ``setup_s``,
the median wall time of fresh interpreters each running
``import permsym``, started between operations throughout the run.
With ``--trace 1`` every public function of the package is wrapped
(see tracer.py) and the metrics are per layer, medians over rounds.
"""

from __future__ import annotations

import argparse
import json
import os

# One BLAS thread: on two shared cores a second BLAS thread makes the
# timings depend on what the other core's tenants are doing.  Set before
# numpy is first imported, here and in the cold-start interpreters.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
COLD_STARTS = 10  # spread evenly over the run; the host's speed drifts
WORKLOAD_NAMES = ("decompose", "queries", "hole")


class ColdStarts:
    """Wall times of fresh interpreters importing permsym.

    ``poll`` is called between operations and starts one interpreter when
    a tenth of the run has passed since the last, so the samples cover the
    whole run rather than one moment of it.
    """

    def __init__(self, seconds: float) -> None:
        self.interval = seconds / COLD_STARTS
        self.times: list[float] = []
        self.last = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, self.env.get("PYTHONPATH")) if p)

    def poll(self) -> None:
        if time.perf_counter() - self.last >= self.interval:
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import permsym"],
            cwd=ROOT, env=self.env, check=True, stdout=subprocess.DEVNULL,
        )
        self.last = time.perf_counter()
        self.times.append(self.last - t0)

    def median(self) -> float:
        while len(self.times) < COLD_STARTS:
            self.sample()
        return statistics.median(self.times)


def run_rounds(round_fn, seed: int, seconds: float, tracer=None, between=None):
    """Whole rounds until another would overrun ``seconds`` of wall time.
    ``between`` is called after each operation, outside the timed region."""
    from workloads import FAILED

    timed: list[dict[str, float]] = []
    marks: list[tuple[int, int]] = []
    attempted = failed = 0
    problems: list[str] = []
    began = time.perf_counter()
    while True:
        lo = tracer.mark() if tracer else 0
        spent: dict[str, float] = {}
        for name, call, check in round_fn(seed, len(timed)):
            t0 = time.perf_counter()
            try:
                answer = call()
            except Exception as exc:  # a crash is a wrong answer, not a benchmark error
                answer = exc
            spent[name] = spent.get(name, 0.0) + time.perf_counter() - t0
            attempted += 1
            if isinstance(answer, Exception):
                verdict = [f"raised {answer!r}"]
            else:
                try:
                    verdict = check(answer)
                except Exception as exc:  # an answer the check cannot read is wrong
                    verdict = [f"unreadable answer: {exc!r}"]
            if verdict == FAILED:
                failed += 1
            else:
                problems += [f"{name}: {p}" for p in verdict]
            if between:
                between()
        timed.append(spent)
        if tracer:
            marks.append((lo, tracer.mark()))
        elapsed = time.perf_counter() - began
        if elapsed * (len(timed) + 1) / len(timed) > seconds:
            return timed, marks, attempted, failed, problems


def median_round(rounds: list[dict[str, float]]) -> float:
    """The time of one round, each operation at its median over rounds.

    Each round maps operation names to the time spent on them in that
    round; every round has the same names.  The host's speed swings by
    up to 1.6x in phases of seconds, so one slow phase can spoil a whole
    round's total; taken per operation, the median drops it wherever it
    falls.
    """
    names = rounds[0].keys()
    if any(r.keys() != names for r in rounds):
        raise RuntimeError("rounds differ in their operations")
    return sum(statistics.median(r[name] for r in rounds) for name in names)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "permsym", "__init__.py")):
        print(f"perfbench: no permsym package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import permsym
    import workloads

    if not os.path.abspath(permsym.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported permsym from {permsym.__file__}, not {SRC}", file=sys.stderr)
        return 2

    tracer = cold = None
    if args.trace:
        from tracer import Tracer, per_layer_units

        tracer = Tracer(permsym)
        tracer.install()
    else:
        cold = ColdStarts(args.seconds)
    try:
        timed, marks, attempted, failed, problems = run_rounds(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, tracer, cold and cold.poll
        )
    finally:
        if tracer:
            tracer.uninstall()

    if args.trace:
        rounds = [tracer.layer_metrics(lo, hi) for lo, hi in marks]
        metrics = {
            name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
            for name, unit in per_layer_units(rounds[0])
        }
        metrics["traced.run_s"] = {"value": median_round(timed), "unit": "s"}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "run_s": {"value": median_round(timed), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "setup_s": {"value": cold.median(), "unit": "s"},
        }

    for line in problems[:20]:
        print(f"perfbench: wrong answer: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: rounds of {[round(sum(t.values()), 3) for t in timed]} s, "
          f"{attempted} operations, {failed} failed, {len(problems)} wrong", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
