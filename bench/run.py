#!/usr/bin/env python3
"""qlandauer benchmark: one workload per run, in a fresh interpreter.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all --seed <n> --seconds <s>

The repository root is this file's parent directory; the package is
imported from its `src/` and the CLI is run as `python3 -m qlandauer.cli`.
Workloads (see bench/README.md for why each exists):

    cli_default   the six README commands, each a fresh CLI process
    ledger_sweep  temperature sweep, angle sweep and crossing search in-process
    readout_cold  simulated_readout_run at nbar0 0.074 / 0.5, realistic preset
    readout_hot   simulated_readout_run at nbar0 2 (shots) and 4.8 (noiseless)

Every workload is a closed loop with one client: fixed passes run back to
back until --seconds have elapsed (at least one pass; the pass that crosses
the limit is finished).  Each op's output is checked; the last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.  With
--trace 0 the metrics are end-to-end (setup_s, wall_s, peak_rss_mb), with
times in reference seconds (bench/hostspeed.py).  With --trace 1 untraced
and traced passes alternate and the metrics are the per-layer numbers of
bench/tracer.py, per traced pass, in plain seconds.  `--workload all` runs
every workload untraced and traced, each in its own process, and prints
every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work" / str(os.getpid())

# BLAS threads are pinned before numpy is imported, here and in every child.
BLAS_THREADS = 1
CHILD_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "PYTHONPATH": str(SRC),
}

# Workload and metric names, units and directions live in BENCHMARK.json only.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SETUP_PROBES = 15
CHILD_TIMEOUT_S = 120.0
READOUT_COLD_OPS_PER_PASS = 20

# Output checks that define a failed op.  RESIDUAL_BOUND is the CLI's
# VERIFY_RESIDUAL_BOUND; it is fixed here so the check cannot loosen with it.
RESIDUAL_BOUND = 1e-9
SIGN_TOL = 1e-12

# Setup: interpreter start, imports and one small erasure as warm-up.
INPROCESS_SETUP = (
    "import qlandauer\n"
    "from qlandauer.protocol import ExperimentConfig, run_erasure\n"
    "run_erasure(ExperimentConfig())\n"
)
CLI_SETUP = "import qlandauer.cli\n"


@dataclass
class Op:
    start: float
    end: float
    failed: bool = False
    wrong: bool = False
    note: str = ""


@dataclass
class Pass:
    start: float
    end: float
    traced: bool
    ops: list
    fingerprint: object = None
    totals: dict = field(default_factory=dict)
    import_ns: int = 0
    peak_rss_mb: float = 0.0


def derive_seed(seed: int, *tags) -> int:
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def ledger_problem(lhs, delta_s, mutual, rel_ent, residual) -> str:
    """Why one ledger breaks the erasure equality checks ('' if it holds)."""
    terms = (lhs, delta_s, mutual, rel_ent, residual)
    if None in terms:
        return "divergent ledger term"
    if not all(math.isfinite(x) for x in terms):
        return f"non-finite ledger term in {terms}"
    if abs(residual) > RESIDUAL_BOUND:
        return f"|residual| {abs(residual):.3e} > {RESIDUAL_BOUND}"
    if abs(lhs - (delta_s + mutual + rel_ent)) > RESIDUAL_BOUND:
        return "lhs differs from dS + I + D"
    if mutual < -SIGN_TOL:
        return f"I = {mutual:.3e} < 0"
    if rel_ent < -SIGN_TOL:
        return f"D = {rel_ent:.3e} < 0"
    if lhs < delta_s - SIGN_TOL:
        return f"lhs {lhs:.6g} < dS {delta_s:.6g}"
    return ""


def row_op(start, end, row) -> Op:
    problem = ledger_problem(row.lhs, row.delta_s, row.mutual_info,
                             row.relative_entropy, row.residual)
    if problem:
        return Op(start, end, failed=True, wrong=True, note=problem)
    if row.fit_converged is not None and not row.fit_converged:
        return Op(start, end, failed=True, note=f"fit not converged at nbar0 {row.nbar0}")
    return Op(start, end)


# ---------------------------------------------------------------------------
# In-process workloads


def run_inprocess_pass(calls, traced: bool) -> Pass:
    """Time each (label, fn, check) call; checks run after the timed region."""
    from tracer import Tracer

    tracer = Tracer() if traced else None
    timed = []
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        for label, fn, check in calls:
            t0 = time.perf_counter()
            try:
                value, error = fn(), ""
            except Exception as exc:  # an op that raises is a failed op
                value, error = None, f"{label}: {type(exc).__name__}: {exc}"
            timed.append((t0, time.perf_counter(), value, error, check))
        end = time.perf_counter()
    finally:
        if tracer:
            tracer.uninstall()
    ops = [Op(t0, t1, failed=True, note=error) if error else check(t0, t1, value)
           for t0, t1, value, error, check in timed]
    return Pass(start, end, traced, ops, fingerprint=repr([t[2] for t in timed]),
                totals=tracer.totals() if tracer else {})


def rows_check(expected_rows: int):
    def check(start, end, rows):
        if len(rows) != expected_rows:
            return Op(start, end, failed=True, wrong=True,
                      note=f"{len(rows)} rows, expected {expected_rows}")
        bad = [op for op in (row_op(start, end, r) for r in rows) if op.failed]
        return bad[0] if bad else Op(start, end)
    return check


def crossings_check(start, end, crossings) -> Op:
    low, high = crossings
    if low is None or high is None or not (0 < low < math.pi / 2 < high < math.pi):
        return Op(start, end, failed=True, wrong=True, note=f"crossings {crossings}")
    return Op(start, end)


def ledger_sweep_calls(seed: int, index: int):
    import dataclasses

    import numpy as np
    from qlandauer import protocol

    cfg = protocol.ExperimentConfig(seed=derive_seed(seed, "ledger_sweep"))
    nbar_grid = np.geomspace(0.074, 20.0, 12)
    theta_grid = np.linspace(0.0, math.pi, 25)
    return [
        ("sweep_temperature", lambda: protocol.sweep_temperature(cfg, nbar_grid),
         rows_check(len(nbar_grid))),
        ("sweep_theta",
         lambda: protocol.sweep_theta(dataclasses.replace(cfg, nbar0=2.0), theta_grid),
         rows_check(len(theta_grid))),
        ("find_entropy_zero_crossings",
         lambda: protocol.find_entropy_zero_crossings(dataclasses.replace(cfg, nbar0=0.5)),
         crossings_check),
    ]


def readout_call(label: str, **config):
    from qlandauer import protocol

    cfg = protocol.ExperimentConfig(**config)
    return (label, lambda: protocol.simulated_readout_run(cfg), row_op)


def readout_cold_calls(seed: int, index: int):
    from qlandauer.protocol import REALISTIC_IMPERFECTIONS

    calls = []
    for k in range(READOUT_COLD_OPS_PER_PASS):
        op_index = index * READOUT_COLD_OPS_PER_PASS + k
        calls.append(readout_call(
            f"readout op {op_index}", nbar0=0.074 if k % 2 == 0 else 0.5, shots=100,
            seed=derive_seed(seed, "readout_cold", op_index),
            imperfections=REALISTIC_IMPERFECTIONS))
    return calls


def readout_hot_calls(seed: int, index: int):
    # The nbar0 4.8 op with 100 shots is left out: its fit takes 10k to 108k
    # iterations depending on the shot seed, which made the pass time spread
    # by about 15% across seeds.  The noiseless op has the same n_fit 29
    # against 30 points, hits the iteration cap every time at this commit,
    # and counts as failed until the fit is fixed.
    return [
        readout_call("nbar0 2 shots 100", nbar0=2.0, shots=100,
                     seed=derive_seed(seed, "readout_hot", index)),
        readout_call("nbar0 4.8 noiseless", nbar0=4.8),
    ]


INPROCESS = {
    "ledger_sweep": ledger_sweep_calls,
    "readout_cold": readout_cold_calls,
    "readout_hot": readout_hot_calls,
}


# ---------------------------------------------------------------------------
# CLI workload: each command is a fresh process.


def cli_commands(seed: int, work: Path):
    s = str(derive_seed(seed, "cli_default"))
    return [
        ("verify", ["verify", "--seed", s], None),
        ("sweep-temp", ["sweep-temp", "-o", str(work / "temp.csv"), "--seed", s],
         work / "temp.csv"),
        ("sweep-theta", ["sweep-theta", "-o", str(work / "theta.csv"), "--seed", s],
         work / "theta.csv"),
        ("crossings", ["crossings", "--seed", s], None),
        ("readout", ["readout", "--shots", "100", "--seed", s], None),
        ("run", ["run", "--shots", "100", "--seed", s], None),
    ]


def spawn(argv, stdout_path: Path, stderr_path: Path):
    """Run a child to exit; return (start, end, exit_code, peak_rss_mb)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage.ru_maxrss / 1024.0


def key_values(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        if " = " in line and not line.startswith("#"):
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


def number(text):
    return None if text in (None, "", "divergent") else float(text)


def check_cli_output(name: str, stdout: str, table: str | None) -> tuple[bool, bool, str]:
    """(failed, wrong, note) for one command's output."""
    if table is not None:
        lines = [ln for ln in table.splitlines() if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        expected = 25 if name == "sweep-temp" else 49
        if len(lines) - 1 != expected:
            return True, True, f"{name}: {len(lines) - 1} rows, expected {expected}"
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            problem = ledger_problem(*(number(row.get(k)) for k in (
                "lhs", "delta_s", "mutual_info", "relative_entropy", "residual")))
            if problem:
                return True, True, f"{name}: {problem}"
        return False, False, ""
    kv = key_values(stdout)
    if name in ("verify", "run"):
        problem = ledger_problem(*(number(kv.get(k)) for k in (
            "lhs", "delta_s_nats", "mutual_info_nats", "relative_entropy_nats", "residual")))
        if problem:
            return True, True, f"{name}: {problem}"
        if name == "verify" and kv.get("verified") != "yes":
            return True, True, f"verify: verified = {kv.get('verified')}"
    elif name == "crossings":
        try:
            low, high = float(kv["theta_low"]), float(kv["theta_high"])
        except (KeyError, ValueError):
            return True, True, f"crossings: {kv}"
        if not 0 < low < math.pi / 2 < high < math.pi:
            return True, True, f"crossings: theta_low {low}, theta_high {high}"
    elif name == "readout" and kv.get("fit_converged") != "yes":
        return True, False, f"readout: fit_converged = {kv.get('fit_converged')}"
    return False, False, ""


def run_cli_pass(seed: int, traced: bool, work: Path) -> Pass:
    from tracer import merge_totals

    ops, outputs, totals, import_ns, peak = [], [], [], 0, 0.0
    start = time.perf_counter()
    for name, args, table_path in cli_commands(seed, work):
        totals_path = work / f"{name}.totals.json"
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(totals_path), *args]
        else:
            argv = [sys.executable, "-m", "qlandauer.cli", *args]
        t0, t1, code, rss = spawn(argv, work / f"{name}.out", work / f"{name}.err")
        peak = max(peak, rss)
        stdout = (work / f"{name}.out").read_text(encoding="utf-8")
        table = table_path.read_text(encoding="utf-8") if table_path and code == 0 else None
        outputs.append((stdout, table))
        if code != 0:
            err = (work / f"{name}.err").read_text(encoding="utf-8").strip()
            ops.append(Op(t0, t1, failed=True, note=f"{name}: exit {code}: {err[-200:]}"))
            continue
        ops.append(Op(t0, t1, *check_cli_output(name, stdout, table)))
        if traced:
            part = json.loads(totals_path.read_text(encoding="utf-8"))
            import_ns += part.pop("cli.import_ns")
            totals.append(part)
    end = time.perf_counter()
    fingerprint = hashlib.sha256(repr(outputs).encode()).hexdigest()
    return Pass(start, end, traced, ops, fingerprint, merge_totals(totals), import_ns, peak)


# ---------------------------------------------------------------------------
# Measurement


def measure_setup(workload: str) -> list:
    """(spawn, ready) times of fresh processes that set up the workload."""
    code = (CLI_SETUP if workload == "cli_default" else INPROCESS_SETUP)
    code += "print('ready', flush=True)\n"
    intervals = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                                env=CHILD_ENV, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe for {workload} failed (exit {proc.returncode})")
        intervals.append((start, ready))
    return intervals


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Closed loop: passes back to back until `seconds` have elapsed.  With
    `trace`, untraced and traced passes alternate in pairs on equal inputs."""
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if workload == "cli_default":
            passes.append(run_cli_pass(seed, traced, WORK))
        else:
            # A traced pass repeats the inputs of the untraced pass before it.
            index = len(passes) // 2 if trace else len(passes)
            passes.append(run_inprocess_pass(INPROCESS[workload](seed, index), traced))
        if time.perf_counter() - start >= seconds and len(passes) % (1 + trace) == 0:
            return passes


def provenance(seed: int, cpu: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "qlandauer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, or None if it is not a git repository.  The
    ceiling keeps git from finding a repository above the checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from hostspeed import Sampler, pin_to_one_cpu
    from tracer import layer_metrics, merge_totals, self_test

    # Children inherit the CPU, so the host-speed samples describe theirs too.
    cpu = pin_to_one_cpu()
    if workload != "cli_default":
        exec(INPROCESS_SETUP, {})
    print("# provenance " + json.dumps(provenance(seed, cpu)))

    # End-to-end times are scaled by the host-speed sampler; a traced run
    # reports plain seconds so that the sampler does not land in any span.
    sampler = None if trace else Sampler()
    problems = self_test() if trace else []
    for problem in problems:
        print(f"# tracer self-test: {problem}")
    with sampler or contextlib.nullcontext():
        probes = [] if trace else measure_setup(workload)
        passes = run_passes(workload, seed, seconds, trace)
    seconds_of = sampler.scaled if sampler else (lambda t0, t1: t1 - t0)

    ops = [op for p in passes for op in p.ops]
    failed = sum(op.failed for op in ops)
    wrong = [op.note for op in ops if op.wrong]
    deterministic = workload in ("cli_default", "ledger_sweep")
    if deterministic and len({p.fingerprint for p in passes}) != 1:
        wrong.append("outputs differ between passes with the same seed")
    for note in sorted({op.note for op in ops if op.note}):
        print(f"# failed op: {note}")
    print(f"# ops attempted = {len(ops)}, failed = {failed}, "
          f"failed_frac = {failed / len(ops):.4f}, passes = {len(passes)}")

    plain = [p for p in passes if not p.traced]
    latencies = [seconds_of(op.start, op.end) for p in plain for op in p.ops]
    walls = [seconds_of(p.start, p.end) for p in plain]
    # Shown, not gated: p90 only on readout_cold, the one workload with
    # enough ops per run for ten or more samples beyond it.
    line = f"# latency_p50_s = {statistics.median(latencies):.6f} s"
    if workload == "readout_cold":
        line += f", latency_p90_s = {statistics.quantiles(latencies, n=10)[-1]:.6f} s"
    print(f"{line} over {len(latencies)} ops")

    if trace:
        traced = [p for p in passes if p.traced]
        overhead = statistics.median(
            (t.end - t.start) - (u.end - u.start) for u, t in zip(passes[::2], passes[1::2]))
        traced_ns = int(sum(p.end - p.start for p in traced) * 1e9)
        totals = merge_totals(p.totals for p in traced)
        if totals.get("negative_self"):
            problems.append(f"{totals['negative_self']} spans with negative self time")
        values = layer_metrics([m["name"] for m in SPEC["per_layer"]], totals, len(traced),
                               traced_ns, overhead, sum(p.import_ns for p in traced))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
    else:
        if workload == "cli_default":
            peak = max(p.peak_rss_mb for p in passes)
        else:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = statistics.median(p.end - p.start for p in plain)
        print(f"# wall_s unscaled = {raw:.6f} s, host slowdown = {raw / statistics.median(walls):.3f}"
              f" x nominal, samples = {len(sampler.starts)}")
        values = {
            "setup_s": statistics.median(seconds_of(*p) for p in probes),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    return {
        "correct": not wrong and not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"failed_frac={result['failed'] / result['attempted']:.4f}")
            for line in lines[:-1]:
                if line.startswith(("# latency", "# wall", "# tracer")):
                    print("  " + line[2:])
            for name, metric in result["metrics"].items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qlandauer" / "__init__.py").is_file():
        print(f"error: no qlandauer package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    # Pin BLAS threads before this process imports numpy.
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONPATH"):
        os.environ[key] = CHILD_ENV[key]
    sys.path.insert(0, str(SRC))
    WORK.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
