"""Per-layer metrics derived from the traced phase's spans.

Spans sit at the benchmark's calls into the program's public functions.
A call's metrics come from the calls the workload's ops make (children
of an ``op`` span).  Where a workload's ops never make a call, they come
from probe calls on the same op's inputs (children of ``probe`` or
``probe.extra``), so every metric is measured on every workload.

Layers nested inside a public call cannot be split from the outside:
family build sits inside ``cli.load_config``, resource build and tensor
join inside ``protocol.run_protocol``.  Probe calls on the op's own
inputs (``probe`` spans) time them, and the shares subtract them from
the enclosing call.  In ``cli_cold`` the op is a child process; its
in-process work is the probe pipeline and everything else (interpreter,
imports, argparse, file I/O) counts as ``cli``.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spans import p50_us

PROBES = ("probe", "probe.extra", "probe.cold")


def _attr(span, key, default=None):
    return (span[6] or {}).get(key, default)


def per_layer(tracer, workload, plain, traced, count_ops) -> dict:
    spans = tracer.spans
    self_s = tracer.self_times()

    def dur(k):
        return spans[k][2] - spans[k][1]

    def role(k):
        parent = spans[k][3]
        return spans[parent][0] if parent is not None else None

    by_name = defaultdict(list)
    for k, span in enumerate(spans):
        by_name[span[0]].append(k)

    def pick(name, mode=None):
        """The op's own calls of ``name``, else the probe calls."""
        ks = [k for k in by_name[name] if mode is None or _attr(spans[k], "mode") == mode]
        own = [k for k in ks if role(k) == "op"]
        return own or [k for k in ks if role(k) in ("probe", "probe.extra")]

    def mean_attr(ks, key):
        return statistics.fmean(_attr(spans[k], key, 0) for k in ks) if ks else 0.0

    m = {}
    for name in (
        "protocol.run_protocol", "protocol.oracle_report", "protocol.compare_reports",
        "measurement.family_from_assignment", "auxprep.build_aux", "statevec.tensor",
        "cli.load_config", "cli.emit_report.json", "cli.emit_report.csv",
    ):
        ks = pick(name)
        m[f"{name}.calls"] = (len(ks), "count")
        m[f"{name}.self_s"] = (sum(self_s[k] for k in ks), "s")
        m[f"{name}.p50_us"] = (p50_us([dur(k) for k in ks]), "us")
        m[f"{name}.failures"] = (sum(spans[k][5] is not None for k in ks), "count")
    for mode in ("general", "parity5", "parity4"):
        ks = pick("protocol.run_protocol", mode)
        m[f"protocol.run_protocol.{mode}.p50_us"] = (p50_us([dur(k) for k in ks]), "us")

    runs = pick("protocol.run_protocol")
    branches = sum(_attr(spans[k], "branches", 0) for k in runs)
    zero = sum(_attr(spans[k], "zero", 0) for k in runs)
    m["protocol.branches"] = (branches / max(len(runs), 1), "count/op")
    m["protocol.zero_branch_ratio"] = (zero / max(branches, 1), "ratio")
    m["protocol.compare_reports.phase_checks"] = (
        mean_attr(pick("protocol.compare_reports"), "phase_checks"), "count/op")
    m["auxprep.aux_components"] = (mean_attr(pick("auxprep.build_aux"), "components"), "count/op")
    m["statevec.joint_components"] = (
        mean_attr(pick("statevec.tensor"), "components"), "count/op")
    for fmt in ("json", "csv"):
        m[f"cli.emit_report.{fmt}.bytes"] = (
            mean_attr(pick(f"cli.emit_report.{fmt}"), "bytes"), "B/op")

    # Cold start: interpreter alone, interpreter plus import, a full call.
    interp = [dur(k) for k in by_name["cli.cold.interpreter"]]
    imports = [dur(k) for k in by_name["cli.cold.import"]]
    calls = by_name["op"] if workload == "cli_cold" else by_name["cli.cold.invocation"]
    m["cli.cold.interpreter_ms"] = (p50_us(interp) / 1e3, "ms")
    m["cli.cold.import_ms"] = (p50_us(imports) / 1e3, "ms")
    m["cli.cold.work_ms"] = ((p50_us([dur(k) for k in calls]) - p50_us(imports)) / 1e3, "ms")

    m.update(_shares(spans, self_s, workload, role))
    m.update(_exact_counts(spans, role, count_ops))

    probe_s = sum(dur(k) for k, s in enumerate(spans) if s[0] in PROBES)
    traced_rate = traced["attempted"] / (traced["elapsed"] - probe_s)
    plain_rate = plain["attempted"] / plain["elapsed"]
    m["trace.overhead_ratio"] = (traced_rate / plain_rate, "ratio")
    return m


def _shares(spans, self_s, workload, role) -> dict:
    ops, own = {}, defaultdict(lambda: defaultdict(float))
    for k, span in enumerate(spans):
        if span[0] == "op":
            ops[span[4]] = k
        elif role(k) in ("op", "probe"):
            own[span[4]][span[0]] += self_s[k]
    total = defaultdict(float)
    op_time = 0.0
    for op_id, k in ops.items():
        t = own[op_id]
        duration = spans[k][2] - spans[k][1]
        op_time += duration
        family = t["measurement.family_from_assignment"]
        aux = t["auxprep.build_aux"]
        join = t["statevec.tensor"]
        protocol = (
            t["protocol.run_protocol"] - aux - join
            + t["protocol.oracle_report"] + t["protocol.compare_reports"]
        )
        if workload == "cli_cold":
            cli = duration - family - aux - join - protocol
        else:
            cli = (
                t["cli.load_config"] - family
                + t["cli.emit_report.json"] + t["cli.emit_report.csv"]
            )
        for layer, value in (
            ("cli", cli), ("measurement", family), ("auxprep", aux),
            ("statevec", join), ("protocol", protocol),
        ):
            total[layer] += value
    return {
        f"{layer}.share": (max(total[layer], 0.0) / op_time, "ratio")
        for layer in ("cli", "measurement", "auxprep", "statevec", "protocol")
    }


def _exact_counts(spans, role, count_ops) -> dict:
    """Sizes summed over the first ``count_ops`` ops; equal for equal seeds."""
    sums = defaultdict(int)
    for k, span in enumerate(spans):
        op_id, attrs = span[4], span[6] or {}
        if op_id is None or op_id >= count_ops:
            continue
        name, where = span[0], role(k)
        if where in ("op", "probe"):
            if name == "protocol.run_protocol":
                sums["branches"] += attrs.get("branches", 0)
            elif name == "protocol.compare_reports":
                sums["phase_checks"] += attrs.get("phase_checks", 0)
            elif name == "auxprep.build_aux":
                sums["aux_components"] += attrs.get("components", 0)
            elif name == "statevec.tensor":
                sums["joint_components"] += attrs.get("components", 0)
        if name.startswith("cli.emit_report.") and where in ("op", "probe", "probe.extra"):
            sums["emitted_bytes"] += attrs.get("bytes", 0)
    return {
        f"exact.{key}": (sums[key], "B" if key == "emitted_bytes" else "count")
        for key in ("branches", "phase_checks", "aux_components",
                    "joint_components", "emitted_bytes")
    }
