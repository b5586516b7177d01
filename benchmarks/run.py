#!/usr/bin/env python3
"""Benchmark for biphoton: verified runs, report emission and CLI cold start.

Run from the repository root:

    python3 benchmarks/run.py --workload verify_shared --seed 1 --seconds 30 --trace 0

Workloads (see benchmarks/README.md for why each exists):

* ``verify_shared`` - ``load_config -> run_protocol -> oracle_report ->
  compare_reports`` in process, over a small fixed pool of families.
* ``run_fresh`` - the same plus ``emit_report`` as JSON and CSV, with a
  new Haar-random family on every op.
* ``cli_cold`` - ``python -m biphoton.cli`` as a subprocess, one at a time.

Each workload is one caller in a closed loop: the next op starts when the
previous one is done and checked.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs an untraced half and a traced half, prints the
per-layer metrics and writes the spans to
``benchmarks/.out/trace-<workload>.jsonl``.  The last
line of standard output is one JSON object.  The exit code is 0 only when
every op passed its checks.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

# The benchmark's own modules import only the standard library, so the
# set-up timer below still sees numpy's import cost.
from checks import FAULTS, Checker
from layers import per_layer
from spans import Tracer, plain_call

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"

WORKLOADS = ("verify_shared", "run_fresh", "cli_cold")
#: Set-up is measured this many times per run (one in this process, the
#: rest in child processes; for cli_cold, warm-up invocations); the
#: median is reported.
SETUP_SAMPLES = 5
WARMUP_OPS = {"verify_shared": 24, "run_fresh": 12}
#: Exact counts are summed over this many leading ops of the traced phase.
COUNT_OPS = {"verify_shared": 48, "run_fresh": 24, "cli_cold": 6}
#: Cold-start probes per traced run of an in-process workload.
COLD_PROBES = 3
CHILD_TIMEOUT_S = 60

CLI_ENV = dict(os.environ, PYTHONPATH=str(SRC))
CLI = [sys.executable, "-m", "biphoton.cli"]


class ProgramMissing(RuntimeError):
    pass


def import_program():
    """Import biphoton from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "biphoton" / "__init__.py").is_file():
        raise ProgramMissing(f"no biphoton package under {SRC}")
    sys.path.insert(0, str(SRC))
    import biphoton
    import biphoton.auxprep
    import biphoton.cli
    import biphoton.measurement
    import biphoton.protocol
    import biphoton.statevec

    if Path(biphoton.__file__).resolve().parent != SRC / "biphoton":
        raise ProgramMissing(f"biphoton was imported from {biphoton.__file__}")
    return types.SimpleNamespace(
        cli=biphoton.cli,
        protocol=biphoton.protocol,
        measurement=biphoton.measurement,
        auxprep=biphoton.auxprep,
        statevec=biphoton.statevec,
    )


# ---------------------------------------------------------------------------
# one op
# ---------------------------------------------------------------------------


def _report_attrs(report) -> dict:
    return {
        "mode": report.mode,
        "branches": len(report.branches),
        "zero": sum(b.kind == "zero" for b in report.branches),
    }


def _text_attrs(text: str) -> dict:
    return {"bytes": len(text.encode("utf-8"))}


def _phase_checks(report, oracle) -> int:
    """Residuals ``compare_reports`` checks against an oracle state."""
    return sum(
        1 for b in report.branches if b.is_success and oracle.states[b.j] is not None
    )


def pipeline(bp, config, call, formats=()):
    """What ``biphoton run``/``verify`` do for one decoded config."""
    cfg = call("cli.load_config", bp.cli.load_config, config)
    report = call(
        "protocol.run_protocol", bp.protocol.run_protocol,
        cfg.input_state, cfg.family, cfg.mode, cfg.analyzer, cfg.tol,
        attrs=_report_attrs,
    )
    oracle = call(
        "protocol.oracle_report", bp.protocol.oracle_report,
        cfg.input_state, cfg.family, cfg.tol,
    )
    verdict = call(
        "protocol.compare_reports", bp.protocol.compare_reports,
        report, oracle, cfg.tol,
        attrs=lambda _: {"phase_checks": _phase_checks(report, oracle)},
    )
    texts = {
        fmt: call(f"cli.emit_report.{fmt}", bp.cli.emit_report, report, fmt,
                  attrs=_text_attrs)
        for fmt in formats
    }
    return cfg, report, verdict, texts


def _build_aux(bp, cfg):
    if cfg.mode == "general":
        return bp.auxprep.build_general_aux(cfg.family)
    if cfg.mode == "parity5":
        return bp.auxprep.build_parity_aux5()
    return bp.auxprep.build_parity_aux4()


def layer_probes(bp, call, cfg) -> None:
    """Time the layers nested inside ``load_config`` and ``run_protocol``."""
    call(
        "measurement.family_from_assignment", bp.measurement.family_from_assignment,
        cfg.family.basis.states.copy(), cfg.family.assignment,
    )
    aux = call("auxprep.build_aux", _build_aux, bp, cfg,
               attrs=lambda a: {"components": len(a.ket)})
    call("statevec.tensor", bp.statevec.tensor, cfg.input_state, aux.ket,
         attrs=lambda k: {"components": len(k)})


class InProcess:
    """``verify_shared`` and ``run_fresh``: the pipeline called in process."""

    def __init__(self, bp, workload, checker):
        self.bp = bp
        self.workload = workload
        self.checker = checker
        self.formats = ("json", "csv") if workload == "run_fresh" else ()
        self._parity = bp.measurement.parity_family()

    def execute(self, op, call):
        return pipeline(self.bp, op.config, call, self.formats)

    def check(self, op, result) -> list:
        _, report, verdict, texts = result
        return self.checker.report(op, report, verdict, texts)

    def probe(self, tracer, op, result) -> None:
        cfg, report, _, _ = result
        with tracer.span("probe"):
            layer_probes(self.bp, tracer.call, cfg)
        # Calls this workload's ops never make, timed on the op's own
        # inputs so every layer metric is measured on every workload.
        with tracer.span("probe.extra"):
            if not self.formats:
                for fmt in ("json", "csv"):
                    tracer.call(f"cli.emit_report.{fmt}", self.bp.cli.emit_report,
                                report, fmt, attrs=_text_attrs)
            if self.workload == "run_fresh":
                for mode in ("parity5", "parity4"):
                    tracer.call(
                        "protocol.run_protocol", self.bp.protocol.run_protocol,
                        cfg.input_state, self._parity, mode, cfg.analyzer, cfg.tol,
                        attrs=_report_attrs,
                    )

    def close(self):
        pass


class ColdCli:
    """``cli_cold``: one ``python -m biphoton.cli`` child at a time."""

    def __init__(self, bp, checker, work: Path):
        self.bp = bp
        self.checker = checker
        self.work = work
        work.mkdir(parents=True, exist_ok=True)

    def execute(self, op, call):
        config = self.work / "config.json"
        config.write_text(json.dumps(op.config), encoding="utf-8")
        out = self.work / f"report.{op.kind}"
        if out.exists():
            out.unlink()
        if op.kind == "verify":
            args = ["verify", "--config", str(config)]
        else:
            args = ["run", "--config", str(config), "--format", op.kind,
                    "--out", str(out)]
        proc = invoke(args)
        out_text = out.read_text(encoding="utf-8") if out.exists() else None
        return proc, out_text

    def check(self, op, result) -> list:
        proc, out_text = result
        problems = self.checker.cli(op, proc.returncode, proc.stdout, out_text)
        if proc.stderr:
            problems.append(f"stderr: {proc.stderr.strip()[:200]}")
        return problems

    def probe(self, tracer, op, result) -> None:
        formats = () if op.kind == "verify" else (op.kind,)
        with tracer.span("probe"):
            cfg = pipeline(self.bp, op.config, tracer.call, formats)[0]
            layer_probes(self.bp, tracer.call, cfg)
        with tracer.span("probe.cold"):
            cold_probe(tracer, "interpreter" if op.index % 2 == 0 else "import")

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def invoke(args, code=None):
    """Run one child Python (the CLI, or ``-c code``) and wait for it."""
    cmd = [sys.executable, "-c", code] if code is not None else CLI + list(args)
    return subprocess.run(
        cmd, cwd=ROOT, env=CLI_ENV, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )


_COLD_CODE = {"interpreter": "pass", "import": "import biphoton.cli"}


def cold_probe(tracer, which: str) -> None:
    with tracer.span(f"cli.cold.{which}"):
        invoke((), code=_COLD_CODE[which]).check_returncode()


# ---------------------------------------------------------------------------
# loops
# ---------------------------------------------------------------------------


def closed_loop(runner, source, seconds, min_ops=1, tracer=None):
    """Ops back to back for ``seconds`` (and at least ``min_ops``)."""
    call = tracer.call if tracer else plain_call
    latencies, problems_seen = [], []
    failed = 0
    start = perf_counter()
    deadline = start + seconds
    index = 0
    while index < min_ops or perf_counter() < deadline:
        op = source.op(index)
        if tracer:
            tracer.op = index
            span = tracer.open("op")
        t0 = perf_counter()
        try:
            result, error = runner.execute(op, call), None
        except Exception as exc:  # a failed op is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        if tracer:
            tracer.close(span, error=error and "op")
            span = tracer.open("check")
        if error is None:
            try:
                problems = runner.check(op, result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [error]
        if tracer:
            tracer.close(span)
            if error is None:
                try:
                    runner.probe(tracer, op, result)
                except Exception as exc:
                    problems.append(f"probe raised {type(exc).__name__}: {exc}")
        if problems:
            failed += 1
            if len(problems_seen) < 5:
                problems_seen.append(f"op {index}: {'; '.join(problems)}")
        index += 1
    return {
        "elapsed": perf_counter() - start,
        "attempted": index,
        "failed": failed,
        "latencies": latencies,
        "problems": problems_seen,
    }


def setup(workload, seed, checker, cli_warmups):
    """Import plus warm-up ops, the set-up a user pays before steady state.

    Returns the program, the op runner, the set-up times measured here
    and the number of warm-up ops that failed.  In process that is one
    time: import (numpy included) plus the warm-up ops.  For ``cli_cold``
    each of ``cli_warmups`` warm-up invocations is one time.
    """
    t0 = perf_counter()
    bp = import_program()
    import_s = perf_counter() - t0
    import workloads

    warm_source = workloads.stream(workload, seed, workloads.WARMUP)
    if workload == "cli_cold":
        runner = ColdCli(bp, checker, OUT_DIR / f"cli_cold-{os.getpid()}")
        warm = closed_loop(runner, warm_source, seconds=0.0, min_ops=cli_warmups)
        return bp, runner, warm["latencies"], warm["failed"]
    runner = InProcess(bp, workload, checker)
    warm = closed_loop(runner, warm_source, seconds=0.0, min_ops=WARMUP_OPS[workload])
    return bp, runner, [import_s + warm["elapsed"]], warm["failed"]


def setup_child(workload, seed) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(values, q) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(loop, setup_s, peak_rss_kb) -> dict:
    passed = loop["attempted"] - loop["failed"]
    lat = loop["latencies"]
    return {
        "ops_per_s": (passed / loop["elapsed"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 0.9) * 1e3, "ms"),
        "verified_op_ratio": (passed / loop["attempted"], "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def machine_facts(workload, seed) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "revision": git_revision(),
    }


def git_revision() -> str:
    """HEAD read straight from ``.git``; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def emit(metrics: dict, loop_totals, correct: bool, facts: dict) -> None:
    print("# " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop_totals[0],
        "failed": loop_totals[1],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_untraced(workload, seed, seconds, checker):
    import workloads

    _, runner, setups, warm_failed = setup(workload, seed, checker, SETUP_SAMPLES)
    try:
        loop = closed_loop(runner, workloads.stream(workload, seed, workloads.TIMED), seconds)
    finally:
        runner.close()
    if workload == "cli_cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups += [setup_child(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    metrics = end_to_end(loop, statistics.median(setups), rss_kb)
    return metrics, (loop,), warm_failed


def cold_start_probes(tracer, bp, checker, source) -> int:
    """Interpreter, import and `biphoton verify` on the workload's configs."""
    runner = ColdCli(bp, checker, OUT_DIR / f"probe-{os.getpid()}")
    tracer.op = None
    failed = 0
    try:
        for k in range(COLD_PROBES):
            cold_probe(tracer, "interpreter")
            cold_probe(tracer, "import")
            op = dataclasses.replace(source.op(k), kind="verify")
            with tracer.span("cli.cold.invocation"):
                result = runner.execute(op, None)
            failed += bool(runner.check(op, result))
    finally:
        runner.close()
    return failed


def run_traced(workload, seed, seconds, checker):
    """An untraced half, then a traced half with probes, on the same inputs."""
    import workloads

    bp, runner, _, warm_failed = setup(workload, seed, checker, 1)
    tracer = Tracer()
    try:
        plain = closed_loop(runner, workloads.stream(workload, seed, workloads.TIMED),
                            seconds / 2)
        traced = closed_loop(runner, workloads.stream(workload, seed, workloads.TIMED),
                             seconds / 2, min_ops=COUNT_OPS[workload], tracer=tracer)
    finally:
        runner.close()
    if workload != "cli_cold":
        warm_failed += cold_start_probes(
            tracer, bp, checker, workloads.stream(workload, seed, workloads.TIMED)
        )
    metrics = per_layer(tracer, workload, plain, traced, COUNT_OPS[workload])
    return metrics, (plain, traced), warm_failed, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", choices=FAULTS,
                        help="negative control: corrupt what the checks read")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    checker = Checker(args.inject_fault)
    try:
        if args.setup_probe:
            _, _, setups, failed = setup(args.workload, args.seed, checker, 1)
            print(json.dumps({"setup_s": setups[0]}))
            return 0 if failed == 0 else 1
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        if args.trace:
            metrics, loops, warm_failed, tracer = run_traced(
                args.workload, args.seed, args.seconds, checker
            )
        else:
            metrics, loops, warm_failed = run_untraced(
                args.workload, args.seed, args.seconds, checker
            )
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    facts = machine_facts(args.workload, args.seed)
    if args.trace:
        path = OUT_DIR / f"trace-{args.workload}.jsonl"
        tracer.write_jsonl(path, facts)
        print(f"# spans: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    attempted = sum(loop["attempted"] for loop in loops)
    failed = sum(loop["failed"] for loop in loops)
    for loop in loops:
        for problem in loop["problems"]:
            print(f"# FAILED {problem}")
    if warm_failed:
        print(f"# FAILED {warm_failed} warm-up ops")
    correct = failed == 0 and warm_failed == 0
    print(f"# {attempted} ops timed and checked, {failed} failed")
    emit(metrics, (attempted, failed), correct, facts)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
