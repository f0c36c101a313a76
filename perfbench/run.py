"""flatmin's benchmark: `flatmin run` end to end, and layer by layer when traced.

Run from the root of a flatmin checkout:

    python3 perfbench/run.py --workload grid-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                    # every workload, default seed

Load comes from this one process: it starts one child at a time and waits for
it. ``--trace 0`` measures whole `flatmin run` children and prints the
end-to-end metrics; ``--trace 1`` alternates untraced children with children that run
flatmin under the outside-in tracer (``traced_run.py``), times the step floors
and the tier-1 suite once, and prints the per-layer metrics. Every child's
outputs are checked; any failed check makes the run incorrect.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

from tracer import Span, self_times, subtree
from workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    OutputError,
    Workload,
    digests,
    paper_orderings,
    read_outputs,
    wrapped_cells,
)

HERE = Path(__file__).resolve().parent
REFERENCE_DIGESTS = HERE / "reference_digests.json"

DEFAULT_SECONDS = 30
# a run stops starting children after this many seconds, so it ends well
# inside the three minutes one run may take
RUN_BUDGET_S = 150.0
# what a traced run keeps of that budget for the floors and the tier-1 suite
TRACE_RESERVE_S = 60.0

# name -> unit; the order is the order they are printed in. Times are CPU
# seconds (user + system, all threads) of a child, read through os.wait4: on a
# shared VM the hypervisor takes the vCPUs away for up to most of a 2 s child
# ("steal"), which wall time counts and CPU time does not. Wall time is
# printed beside them, with the steal seen while each child ran.
END_TO_END = {
    "cpu_s": "s",
    "updates_per_cpu_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "optim.step.calls": "count",
    "optim.step.self_s": "s",
    "optim.step.us_per_call": "us",
    "optim.adam_step.floor_ratio": "ratio",
    "optim.miadam_step.floor_ratio": "ratio",
    "landscapes.batch_loss_grad.calls": "count",
    "landscapes.batch_loss_grad.self_s": "s",
    "landscapes.landscape_eval.calls": "count",
    "landscapes.landscape_eval.self_s": "s",
    "mlp.loss_and_grad.calls": "count",
    "mlp.loss_and_grad.self_s": "s",
    "mlp.eval.calls": "count",
    "mlp.eval.self_s": "s",
    "mlp.eval_passes_per_split": "ratio",
    "hessian.hvp.calls": "count",
    "hessian.hvp.self_s": "s",
    "hessian.grad_evals_per_hvp": "ratio",
    "hessian.top_converged_ratio": "ratio",
    "theory.run_regret_experiment.self_s": "s",
    "harness.normalize_config.s": "s",
    "harness.run_config.self_s": "s",
    "harness.thread_overlap": "ratio",
    "reporting.write_csv.self_s": "s",
    "reporting.rows_written": "count",
    "reporting.bytes_written": "count",
    "trace.overhead": "ratio",
    "tier1.wall_s": "s",
}

OPTIM_STEPS = ("optim.sgd_step", "optim.sgdm_step", "optim.adam_step", "optim.miadam_step")
MLP_EVAL = ("mlp.forward_loss", "mlp.accuracy")

SETUP_CODE = (
    "import json, sys\n"
    "import flatmin.cli\n"
    "from flatmin.harness import normalize_config\n"
    "with open(sys.argv[1]) as f:\n"
    "    normalize_config(json.load(f))\n"
)


class Child(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    # CPU time the hypervisor took from this VM, summed over its vCPUs,
    # while the child ran
    steal_s: float


def machine_steal_s() -> float:
    """Seconds of steal summed over all CPUs since boot; 0 where unknown."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def run_child(cmd, env, log_path: Path, limit_s: float, cwd: Path) -> Child:
    """Spawn ``cmd``, wait for it, and return its wall and CPU time and peak RSS.

    The child is killed if it runs longer than ``limit_s``. The wait uses
    ``os.wait4`` so the CPU time and peak RSS are this child's own.
    """
    with open(log_path, "ab") as log:
        steal = machine_steal_s()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=log, stderr=log)

    def kill(signum, frame):
        if proc.returncode is None:
            os.kill(proc.pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, max(limit_s, 0.001))
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode,
        machine_steal_s() - steal,
    )


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def describe(values, unit: str) -> str:
    """Median, quartiles, count, and the tail the sample count supports."""
    q1, med, q3 = quartiles(values)
    text = f"median of {len(values)} (IQR {q1:.4g}-{q3:.4g} {unit}, max {max(values):.4g})"
    # the highest percentile with at least ten samples beyond it
    if len(values) > 20:
        pct = int(100 * (1 - 10 / len(values)))
        tail = statistics.quantiles(values, n=100)[pct - 1]
        text += f", p{pct} {tail:.4g}"
    return text


class Bench:
    """One benchmark invocation: its checkout, work directory and tallies."""

    def __init__(self, root: Path, work: Path, seed: int, seconds: float, update_reference: bool):
        self.root = root
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.update_reference = update_reference
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.caller_set_threads = self.env.pop("FLATMIN_THREADS", None) is not None
        # flatmin's pool already runs min(nproc, optimizers) threads; OpenBLAS
        # threads on top would oversubscribe the CPUs and spin-wait, adding
        # CPU time that is not flatmin's
        self.caller_blas_threads = self.env.get("OPENBLAS_NUM_THREADS")
        self.env["OPENBLAS_NUM_THREADS"] = "1"
        self.env["PYTHONPATH"] = str(root / "src")
        self.attempted = 0
        self.failed = 0
        # failed checks, each a child's or the run's own
        self.errors: list[str] = []
        self.incomplete = False
        self.reference_digests = (
            json.loads(REFERENCE_DIGESTS.read_text()) if REFERENCE_DIGESTS.is_file() else {}
        )

    # -- children -----------------------------------------------------------

    def child(self, cmd, limit_s: float = 120.0) -> Child:
        limit = min(limit_s, self.deadline + 5.0 - time.perf_counter())
        return run_child(cmd, self.env, self.work / "children.log", limit, self.root)

    def fail(self, message: str) -> None:
        """Count one failed child."""
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def flatmin_cmd(self, config: Path, out: Path) -> list[str]:
        return [sys.executable, "-m", "flatmin.cli", "run", str(config), "--output-dir", str(out)]

    def traced_cmd(self, config: Path, out: Path, spans: Path) -> list[str]:
        return [sys.executable, str(HERE / "traced_run.py"), str(config), str(out), str(spans)]

    def machine(self) -> dict:
        out = subprocess.run(
            [sys.executable, str(HERE / "machine.py")], env=self.env, cwd=self.root,
            capture_output=True, text=True, check=True, timeout=60,
        )
        record = json.loads(out.stdout)
        record["FLATMIN_THREADS_set_by_caller"] = self.caller_set_threads
        record["OPENBLAS_NUM_THREADS_set_by_caller"] = self.caller_blas_threads
        return record

    # -- checks -------------------------------------------------------------

    def check(self, w: Workload, child: Child, out: Path, reference: dict | None, what: str):
        """Count one attempted run; return its outputs, or None if it failed."""
        self.attempted += 1
        if child.code != 0:
            log = (self.work / "children.log").read_text(errors="replace")
            self.fail(f"{w.name} {what}: exit code {child.code}: ...{log[-300:]}")
            return None
        try:
            outputs = read_outputs(w, out)
        except (OutputError, OSError) as err:
            self.fail(f"{w.name} {what}: {err}")
            return None
        if reference is not None and outputs != reference:
            differ = sorted(k for k in outputs if outputs[k] != reference.get(k))
            self.fail(f"{w.name} {what}: output bytes differ from the first run in {differ}")
            return None
        if reference is None and self.seed == DEFAULT_SEED and not self.update_reference:
            want = self.reference_digests.get(w.name)
            if digests(outputs) != want:
                self.fail(f"{w.name} {what}: digests differ from {REFERENCE_DIGESTS.name}")
                return None
        return outputs

    # -- workloads ----------------------------------------------------------

    def setup_child(self, config: Path) -> Child | None:
        """One set-up child: start Python, import flatmin.cli, normalise the config."""
        child = self.child([sys.executable, "-c", SETUP_CODE, str(config)], 60.0)
        self.attempted += 1
        if child.code != 0:
            self.fail(f"set-up child: exit code {child.code}")
            return None
        return child

    def end_to_end(self, w: Workload, config: Path) -> tuple[dict, dict]:
        # the first set-up child warms the bytecode and file caches; set-up
        # children then alternate with runs, so both medians span the whole
        # run and a slow spell of the machine touches both alike
        self.setup_child(config)
        walls, cpus, steals, rss, setup, setup_walls = [], [], [], [], [], []
        reference = None
        begin = time.perf_counter()
        rep = 0
        while (time.perf_counter() - begin < self.seconds or rep < 3) and (
            time.perf_counter() < self.deadline
        ):
            out = self.work / f"out-{rep}"
            child = self.child(self.flatmin_cmd(config, out))
            outputs = self.check(w, child, out, reference, f"run {rep}")
            if reference is None and outputs is not None:
                reference = outputs
            shutil.rmtree(out, ignore_errors=True)
            walls.append(child.wall_s)
            cpus.append(child.cpu_s)
            steals.append(child.steal_s)
            rss.append(child.rss_mb)
            setup_child = self.setup_child(config)
            if setup_child is not None:
                setup.append(setup_child.cpu_s)
                setup_walls.append(setup_child.wall_s)
            rep += 1
        cpu = statistics.median(cpus)
        metrics = {
            "cpu_s": cpu,
            "updates_per_cpu_s": w.updates / cpu,
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mb": statistics.median(rss),
        }
        detail = {
            "cpu_s": describe(cpus, "s"),
            "setup_s": describe(setup, "s") if setup else "no setup child succeeded",
            "peak_rss_mb": describe(rss, "MiB"),
            # informational, not gated: what a user waits for, and the steal
            # that made it differ from the CPU time
            "wall_s": f"{statistics.median(walls):.6g} s, " + describe(walls, "s"),
            "steal_s": f"{statistics.median(steals):.6g} s, " + describe(steals, "s"),
            "setup_wall_s": describe(setup_walls, "s") if setup_walls else None,
            "updates_per_run": w.updates,
            "samples": {"cpu_s": cpus, "wall_s": walls, "steal_s": steals, "setup_s": setup,
                        "setup_wall_s": setup_walls, "peak_rss_mb": rss},
        }
        if reference is not None:
            detail["paper_orderings_not_gated"] = paper_orderings(w, reference)
            detail["np_float64_cells_in_csv"] = wrapped_cells(reference)
            detail["digests"] = digests(reference)
        return metrics, detail

    def traced(self, w: Workload, config: Path, raw_config: dict) -> tuple[dict, dict]:
        plain_cpus, traced_cpus, per_rep = [], [], []
        reference = None
        begin = time.perf_counter()
        rep = 0
        while (time.perf_counter() - begin < self.seconds or rep < 2) and (
            time.perf_counter() < self.deadline - TRACE_RESERVE_S
        ):
            out = self.work / f"plain-{rep}"
            child = self.child(self.flatmin_cmd(config, out))
            outputs = self.check(w, child, out, reference, f"untraced run {rep}")
            if reference is None and outputs is not None:
                reference = outputs
            plain_cpus.append(child.cpu_s)
            shutil.rmtree(out, ignore_errors=True)

            out, spans_path = self.work / f"traced-{rep}", self.work / f"spans-{rep}.json"
            child = self.child(self.traced_cmd(config, out, spans_path))
            # compared with the untraced outputs: tracing must not change a byte
            outputs = self.check(w, child, out, reference, f"traced run {rep}")
            if outputs is not None:
                dump = json.loads(spans_path.read_text())
                spans = [Span(*s) for s in dump["spans"]]
                traced_cpus.append(dump["main_cpu_s"])
                results = json.loads(outputs["report.json"])["results"]
                per_rep.append(layer_metrics(w, spans, results))
            shutil.rmtree(out, ignore_errors=True)
            spans_path.unlink(missing_ok=True)
            rep += 1

        metrics = {
            name: statistics.median(rep_metrics[name] for rep_metrics in per_rep)
            for name in per_rep[0]
        } if per_rep else {}
        if traced_cpus:
            metrics["trace.overhead"] = (
                statistics.median(traced_cpus) / statistics.median(plain_cpus) - 1.0
            )
        metrics.update(self.floors(w, raw_config))
        metrics["tier1.wall_s"], tier1_code = self.tier1()
        detail = {
            "traced_runs": len(traced_cpus),
            "untraced_cpu_s": describe(plain_cpus, "s"),
            "traced_cpu_s": describe(traced_cpus, "s") if traced_cpus else None,
            "tier1_exit_code": tier1_code,
        }
        return metrics, detail

    def floors(self, w: Workload, raw_config: dict) -> dict:
        """Package step time over the raw numpy floor, at the workload's size."""
        src = str(self.root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        from floors import floor_ratios
        from flatmin.harness import normalize_config
        from flatmin.optim import AdamHyperParams, MIAdamHyperParams

        blocks = normalize_config(raw_config)["optimizers"]
        fields = ("alpha", "beta1", "beta2", "epsilon", "weight_decay", "eps_in_sqrt")
        adam_block = next(b for b in blocks if b["kind"] == "adam")
        mi_block = max((b for b in blocks if b["kind"] == "miadam"), key=lambda b: b["order_n"])
        adam_hp = AdamHyperParams(**{k: adam_block[k] for k in fields})
        mi_hp = MIAdamHyperParams(
            adam=AdamHyperParams(**{k: mi_block[k] for k in fields}),
            order_n=mi_block["order_n"],
            kappa=mi_block["kappa"],
            switch_step=2**62,  # timed before the switch
        )
        ratios = floor_ratios(adam_hp, mi_hp, w.step_dim, seed=self.seed)
        return {f"optim.{k}.floor_ratio": v for k, v in ratios.items()}

    def tier1(self) -> tuple[float, int]:
        """Wall time of the repository's tier-1 suite, run once; informational."""
        cmd = [
            sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "-p", "no:cacheprovider", f"--basetemp={self.work / 'pytest-tmp'}",
        ]
        child = self.child(cmd, 150.0)
        return child.wall_s, child.code

    def run(self, w: Workload, trace: bool) -> dict:
        self.work.mkdir(parents=True, exist_ok=True)
        raw_config = w.config(self.seed)
        config = self.work / "config.json"
        config.write_text(json.dumps(raw_config, indent=2, sort_keys=True))
        machine = self.machine()
        if trace:
            metrics, detail = self.traced(w, config, raw_config)
            wanted = PER_LAYER
        else:
            metrics, detail = self.end_to_end(w, config)
            wanted = END_TO_END
            if self.update_reference and "digests" in detail:
                self.reference_digests[w.name] = detail["digests"]
                REFERENCE_DIGESTS.write_text(
                    json.dumps(self.reference_digests, indent=2, sort_keys=True) + "\n"
                )
        missing = sorted(set(wanted) - set(metrics))
        if missing:
            self.incomplete = True
            self.errors.append(f"{w.name}: no value for {missing}")
        return {
            "workload": w.name,
            "seed": self.seed,
            "trace": trace,
            "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in wanted.items()},
            "detail": detail,
            "machine": machine,
        }


def layer_metrics(w: Workload, spans: list[Span], results: dict) -> dict:
    """Per-layer counts, self times and ratios from one traced run's spans."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def self_s(*names):
        return sum(selfs[s.id] for n in names for s in by_name[n])

    m = {}
    step_calls = calls(*OPTIM_STEPS)
    m["optim.step.calls"] = step_calls
    m["optim.step.self_s"] = self_s(*OPTIM_STEPS)
    m["optim.step.us_per_call"] = 1e6 * m["optim.step.self_s"] / step_calls if step_calls else 0.0
    for name in ("landscapes.batch_loss_grad", "landscapes.landscape_eval", "mlp.loss_and_grad",
                 "hessian.hvp"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    m["mlp.eval.calls"] = calls(*MLP_EVAL)
    m["mlp.eval.self_s"] = self_s(*MLP_EVAL)
    splits = w.epochs * w.optimizers * 2
    m["mlp.eval_passes_per_split"] = m["mlp.eval.calls"] / splits if splits else 0.0

    hvp_ids = {s.id for s in by_name["hessian.hvp"]}
    grads_in_hvp = sum(1 for s in by_name["mlp.loss_and_grad"] if s.parent in hvp_ids)
    m["hessian.grad_evals_per_hvp"] = grads_in_hvp / len(hvp_ids) if hvp_ids else 0.0
    reached = [r["top_tolerance_reached"] for r in results.values()
               if isinstance(r, dict) and "top_tolerance_reached" in r]
    m["hessian.top_converged_ratio"] = sum(reached) / len(reached) if reached else 0.0

    m["theory.run_regret_experiment.self_s"] = self_s("theory.run_regret_experiment")
    m["harness.normalize_config.s"] = sum(s.duration for s in by_name["harness.normalize_config"])
    m["harness.run_config.self_s"] = self_s("harness.run_config")
    root = by_name["harness.run_config"][0]
    m["harness.thread_overlap"] = (
        sum(selfs[s.id] for s in subtree(spans, root.id)) / root.duration
    )

    m["reporting.write_csv.self_s"] = self_s("reporting.write_csv")
    csvs = [Path(s.path).read_bytes() for s in by_name["reporting.write_csv"]]
    m["reporting.rows_written"] = sum(data.count(b"\n") for data in csvs)
    m["reporting.bytes_written"] = sum(len(data) for data in csvs)
    return m


def final_line(results: list[dict], bench: Bench) -> dict:
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    return {
        "correct": bench.failed == 0 and not bench.incomplete,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def print_summary(result: dict, errors: list[str]) -> None:
    name = result["workload"]
    detail = result["detail"]
    print(f"[{name}] seed {result['seed']}, trace {int(result['trace'])}")
    print(f"[{name}] machine {json.dumps(result['machine'], sort_keys=True)}")
    for metric, entry in result["metrics"].items():
        note = detail.get(metric, "")
        print(f"{name:14s} {metric:38s} {entry['value']:14.6g} {entry['unit']:6s} {note}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name:14s} {'error_rate':38s} {failed / max(attempted, 1):14.6g} {'ratio':6s} "
          f"{failed} of {attempted} checked children failed")
    for key in ("wall_s", "steal_s", "setup_wall_s", "untraced_cpu_s", "traced_cpu_s",
                "tier1_exit_code",
                "paper_orderings_not_gated", "np_float64_cells_in_csv"):
        if key in detail:
            print(f"{name:14s} {key}: {detail[key]}")
    for err in errors:
        print(f"{name:14s} FAILED: {err}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="how long to keep starting measured children")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help=f"rewrite {REFERENCE_DIGESTS.name} from this run (default seed only)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "flatmin" / "cli.py").is_file():
        print(f"error: no flatmin source at {root / 'src' / 'flatmin'}; "
              "run from the root of a flatmin checkout", file=sys.stderr)
        return 2
    if args.update_reference and (args.seed != DEFAULT_SEED or args.trace):
        print("error: --update-reference needs the default seed and --trace 0", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work_root = root / ".perfbench"
    work = work_root / f"run-{os.getpid()}"
    bench = Bench(root, work, args.seed, args.seconds, args.update_reference)
    results = []
    try:
        for name in names:
            bench.work = work / name
            before = len(bench.errors)
            attempted, failed = bench.attempted, bench.failed
            result = bench.run(WORKLOADS[name], bool(args.trace))
            result["attempted"] = bench.attempted - attempted
            result["failed"] = bench.failed - failed
            results.append(result)
            print_summary(result, bench.errors[before:])
            print("detail " + json.dumps(result, sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(json.dumps(final_line(results, bench)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
