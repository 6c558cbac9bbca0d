"""Layered cold-process benchmark of quiverdt.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Every pass runs in a fresh interpreter (``child.py``), one at a time,
because every ``quiverdt`` invocation starts cold: state kept between
passes would report a speed-up no user sees.  The run first times
``SETUP_PROBES`` set-ups alone, then runs passes until the next one would
end after ``--seconds`` (at least ``MIN_PASSES``), and checks every output.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, writing their spans to ``.perfbench_out/``.  The last line
of standard output is the result object; the line before it holds details
(pass times, sample counts, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 5
MIN_PASSES = 3
MIN_TRACE_PASSES = 2  # one untraced, one traced
BUDGET_S = 170.0  # the whole run ends within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "wall_s.tail": "s", "peak_rss_mb": "MB"}
LAYER_GROUPS = tuple(dict.fromkeys(name.split(".")[0] for name in tracing.LAYERS))
COUNT_METRICS = (
    "ncalg.ideal_membership.members",
    "ncalg.ideal_membership.nonmembers",
    "ncalg.ideal_membership.cert_parts",
    "ncalg.ideal_membership.residual_terms",
    "monad.components",
    "partitions.objects",
    "qseries.compare.coeffs",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in tracing.LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNT_METRICS:
        units[name] = "count"
    units["ncalg.ideal_membership.repeat_share"] = "fraction"
    for group in LAYER_GROUPS:
        units[f"layer.{group}.share"] = "fraction"
    units["trace.overhead_s"] = "s"
    return units


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest percentile that has at least
    ten samples beyond it, as a nearest-rank order statistic.  Below 21
    samples no percentile above the median qualifies, and the median is
    reported as percentile 50."""
    xs = sorted(values)
    k = len(xs) - 11  # index with exactly ten samples beyond it
    if k >= 0 and (k + 1) / len(xs) > 0.5:
        return 100.0 * (k + 1) / len(xs), xs[k]
    return 50.0, statistics.median(xs)


class Run:
    """One benchmark run: launches child interpreters one at a time and
    keeps what they report."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.n_items = 0
        self.setups: list[float] = []
        self.passes: list[dict] = []  # successful passes
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return BUDGET_S - (time.monotonic() - self.start)

    def launch(self, *extra: str) -> dict | None:
        """Runs one child; returns its report with ``setup_s`` added, or
        None when it produced none."""
        cmd = [sys.executable, "-s", str(HERE / "child.py"), "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        # A fixed hash seed keeps set and dict iteration order, and so the
        # work done, the same in every pass.
        env = dict(os.environ, PYTHONHASHSEED="0")
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.problems.append(f"child {' '.join(extra)} timed out")
            return None
        lines = out.strip().splitlines()
        try:
            if proc.returncode != 0 or not lines:
                raise ValueError(f"exit {proc.returncode}")
            report = json.loads(lines[-1])
        except ValueError as exc:
            self.problems.append(f"child {' '.join(extra)}: {exc}: {err.strip()[-300:]}")
            return None
        report["setup_s"] = report["ready"] - t0
        return report

    def probe_setup(self) -> bool:
        """One untimed warm-up set-up (it compiles the bytecode caches), then
        ``SETUP_PROBES`` timed ones."""
        for i in range(SETUP_PROBES + 1):
            report = self.launch("--setup-only")
            if report is None:
                return False
            self.n_items = report["n_items"]
            if i:
                self.setups.append(report["setup_s"])
        return True

    def run_pass(self, index: int, traced: bool) -> float:
        """Runs one pass and returns its elapsed time."""
        t0 = time.monotonic()
        report = self.launch("--pass-index", str(index), *(["--trace"] if traced else []))
        self.attempted += self.n_items
        if report is None:  # every item of the pass counts as failed
            self.failed += self.n_items
        else:
            report["traced"] = traced
            report["pass_s"] = sum(seconds for _, seconds, _ in report["items"])
            self.setups.append(report["setup_s"])
            bad = [f"{i}: {p}" for i, _, p in report["items"] if p is not None]
            self.failed += len(bad)
            self.problems.extend(bad)
            self.passes.append(report)
        return time.monotonic() - t0

    def measure(self, seconds: float, trace: bool) -> None:
        """Passes until the next would end after ``seconds``; traced runs
        alternate untraced and traced passes."""
        t0 = time.monotonic()
        durations: list[float] = []
        least = MIN_TRACE_PASSES if trace else MIN_PASSES
        index = 0
        while True:
            est = statistics.median(durations) if durations else 0.0
            if index >= least and time.monotonic() - t0 + est > seconds:
                break
            if self.remaining() < est + 2.0:
                break
            durations.append(self.run_pass(index, trace and index % 2 == 1))
            index += 1

    def end_to_end(self) -> tuple[dict, dict]:
        pass_s = [p["pass_s"] for p in self.passes]
        pct, tail_s = tail(pass_s)
        values = {
            "setup_s": statistics.median(self.setups),
            "wall_s": statistics.median(pass_s),
            "wall_s.tail": tail_s,
            "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024.0 for p in self.passes),
        }
        detail = {"tail_percentile": pct, "tail_samples": len(pass_s), "pass_s": pass_s,
                  "setup_samples": self.setups}
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, detail

    def per_layer(self) -> tuple[dict, dict]:
        traced = [p for p in self.passes if p["traced"]]
        plain = [p for p in self.passes if not p["traced"]]
        rows = []
        for p in traced:
            row = tracing.layer_metrics(p["spans"])
            row.update(p["counts"])
            for group in LAYER_GROUPS:
                busy = sum(v for k, v in row.items() if k.startswith(group + ".") and k.endswith(".self_s"))
                row[f"layer.{group}.share"] = busy / p["pass_s"] if p["pass_s"] else 0.0
            rows.append(row)
        units = per_layer_units()
        values = {k: statistics.median(row[k] for row in rows) for k in units if k != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(p["pass_s"] for p in traced)
                                      - statistics.median(p["pass_s"] for p in plain))
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"{self.workload}.spans.json"
        with open(spans_file, "w") as handle:
            json.dump({"workload": self.workload, "seed": self.seed,
                       "passes": [p["spans"] for p in traced]}, handle)
        detail = {"traced_pass_s": [p["pass_s"] for p in traced],
                  "untraced_pass_s": [p["pass_s"] for p in plain],
                  "spans_file": str(spans_file.relative_to(ROOT))}
        return {k: {"value": values[k], "unit": u} for k, u in units.items()}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quiverdt" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'quiverdt'}", file=sys.stderr)
        return 1
    run = Run(args.workload, args.seed)
    if not run.probe_setup():
        print("error: set-up failed: " + "; ".join(run.problems), file=sys.stderr)
        return 1
    run.measure(args.seconds, bool(args.trace))
    if {p["traced"] for p in run.passes} != ({False, True} if args.trace else {False}):
        print("error: no pass completed: " + "; ".join(run.problems[:5]), file=sys.stderr)
        return 1
    metrics, detail = run.per_layer() if args.trace else run.end_to_end()
    detail.update(workload=args.workload, seed=args.seed, passes=len(run.passes),
                  failed_frac=run.failed / run.attempted, failures=run.problems[:10])
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
