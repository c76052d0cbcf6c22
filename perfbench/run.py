#!/usr/bin/env python3
"""qchan benchmark: end-to-end CLI and library timings, checked by an oracle.

    python3 perfbench/run.py --workload cli-short --seed 1 --seconds 25 --trace 0

Run it from the root of a qchan checkout; it imports qchan from ``src/``
only.  Workloads: ``cli-short``, ``cli-report``, ``lib-verdicts`` (see
README.md).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones; both lists, with units, come from BENCHMARK.json.
The last line of stdout is the result object; the line before it holds
the details (environment, tail percentile, failures, ladder rungs).
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every process the benchmark starts.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from host import HostSpeed, compute_reference, spawn_reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable

SETUP_REPS = 7  # set-ups per run, spread over it; setup_s is their median
PROBE_REPS = 5  # import-time and interpreter-start probes per traced run
VERDICT_BUDGET_S = 2.0  # a ladder rung passes when its verdict takes at most this
RUNG_CAP_S = 10.0  # a rung still running after this is stopped and counts as missed
OP_TIMEOUT_S = 120.0
WORKER_ADDRESS_SPACE = 3 << 30  # bytes; large ladder rungs fail with MemoryError instead

# Host reference per CLI workload, matched to what dominates its ops:
# process start and import for cli-short, numpy work for cli-report.
REFERENCE = {"cli-short": "spawn", "cli-report": "compute"}

IMPORT_PROBE = "import time, qchan; print(time.monotonic()); print(qchan.__file__)"


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (WORKER_ADDRESS_SPACE, WORKER_ADDRESS_SPACE))


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": metadata.version("sympy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "pinned_env": PINNED_ENV,
    }


# --- processes -------------------------------------------------------------------


def check_source(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"qchan was imported from {path}, not from {SRC}")


def import_setup() -> float:
    """Fresh interpreter until ``import qchan`` returns, in seconds."""

    start = time.monotonic()
    proc = subprocess.run([PY, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"import qchan failed: {proc.stderr.strip()[-400:]}")
    done, path = proc.stdout.splitlines()[:2]
    check_source(path)
    return float(done) - start


def import_times() -> dict:
    """Medians of ``-X importtime`` cumulative times and of a bare interpreter start."""

    found = defaultdict(list)
    starts = []
    for _ in range(PROBE_REPS):
        proc = subprocess.run([PY, "-X", "importtime", "-c", "import qchan"], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in ("qchan", "sympy"):
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
        starts.append(spawn_reference(child_env()))
    if not found["qchan"]:
        raise BenchError("-X importtime reported no qchan import")
    return {
        "import.qchan_s": stats.median(found["qchan"]),
        "import.sympy_s": stats.median(found["sympy"]) if found["sympy"] else 0.0,
        "interp.start_s": stats.median(starts),
    }


class Worker:
    """A perfbench/worker.py process answering verdict requests."""

    def __init__(self, run_dir: Path, spans_out: Path | None = None):
        cmd = [PY, str(HERE / "worker.py"), json.dumps(workloads.WARMUP_REQUEST)]
        if spans_out is not None:
            cmd.append(str(spans_out))
        self.err_path = run_dir / f"worker-{time.monotonic_ns()}.err"
        start = time.monotonic()
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, stderr=err,
                                         preexec_fn=limit_memory)
        self.buf = b""
        line = self.readline(OP_TIMEOUT_S)
        if line is None:
            self.kill()
            raise BenchError(f"worker did not start: {self.stderr_tail()}")
        ready = json.loads(line)
        self.setup_s = ready["warm"] - start

    def stderr_tail(self) -> str:
        return self.err_path.read_text(errors="replace").strip()[-400:]

    def readline(self, timeout: float) -> bytes | None:
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line

    def ask(self, req: dict, timeout: float) -> dict | None:
        """Send one request; None when no reply came within ``timeout``."""
        self.proc.stdin.write((json.dumps(req) + "\n").encode())
        self.proc.stdin.flush()
        line = self.readline(timeout)
        return None if line is None else json.loads(line)

    def reference(self) -> float:
        reply = self.ask({"reference": True}, OP_TIMEOUT_S)
        if reply is None:
            raise BenchError("worker did not time its reference")
        return reply["reference_s"]

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with {self.proc.returncode}: {self.stderr_tail()}")

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()


# --- per-layer accumulation ---------------------------------------------------------


class Layers:
    """Self time, calls and counters summed over the spans of a traced pass."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.applies: list[tuple[int, int]] = []
        self.states: list[int] = []
        self.bytes = 0
        self.ops = 0

    def add(self, span_list: list) -> None:
        for name, (calls, self_ns) in stats.self_times(span_list).items():
            self.calls[name] += calls
            self.self_ns[name] += self_ns
        for span in span_list:
            extra = span[6] or {}
            if "applies" in extra:
                self.applies.append((extra["n"], extra["applies"]))
            if "states" in extra:
                self.states.append(extra["states"])
            self.bytes += extra.get("bytes", 0)
        self.ops += sum(1 for span in span_list if span[1] == "op")

    def metrics(self) -> dict:
        ops = max(self.ops, 1)
        out = {}
        for module, attr in spans.TRACED:
            name = f"{module}.{attr}"
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_s"] = self.self_ns[name] / 1e9 / ops
        out["channels.to_choi.applies_per_call"] = (
            sum(a for _, a in self.applies) / len(self.applies) if self.applies else 0.0
        )
        out["verification.constant_fnorm_sample_test.states"] = (
            sum(self.states) / len(self.states) if self.states else 0.0
        )
        out["jsonio.dumps.bytes"] = self.bytes / ops
        return out

    def detail(self) -> dict:
        by_dim = defaultdict(set)
        for n, applies in self.applies:
            by_dim[n].add(applies)
        return {
            "traced_ops": self.ops,
            "calls": dict(sorted(self.calls.items())),
            "to_choi_applies_by_dim": {str(n): sorted(v) for n, v in sorted(by_dim.items())},
            "to_choi_applies_equal_2n2_minus_n": all(v == {2 * n * n - n} for n, v in by_dim.items()),
        }


# --- workloads ----------------------------------------------------------------------


def op_record(kind: str, wall: float, reasons: list[str], known_open: bool = False, **more) -> dict:
    return {"kind": kind, "wall": wall, "reasons": reasons, "known_open": known_open, **more}


def cli_rows(workload: str, seed: int, run_dir: Path) -> list[dict]:
    if workload == "cli-report":
        return workloads.cli_report_cycle(seed)
    rows, files = workloads.cli_short_cycle(seed)
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (run_dir / name).write_text(text, encoding="utf-8")
    return rows


class SetupSampler:
    """SETUP_REPS set-ups spread evenly over a pass, each after a spawn reference.

    A set-up is a fresh interpreter until ``import qchan`` returns; for
    lib-verdicts, until a new worker has also answered its warm-up request.
    """

    def __init__(self, run_dir: Path, lib: bool, ops: int):
        self.run_dir, self.lib = run_dir, lib
        self.every = max(1, ops // SETUP_REPS)
        self.host = HostSpeed("spawn", lambda: spawn_reference(child_env()))
        self.records: list[dict] = []

    def before_op(self, index: int) -> None:
        if index % self.every or len(self.records) >= SETUP_REPS:
            return
        ref = self.host.sample()
        if self.lib:
            worker = Worker(self.run_dir)
            worker.stop()
            wall = worker.setup_s
        else:
            wall = import_setup()
        self.records.append(op_record("setup", wall, [], ref=ref))

    def scaled(self) -> list[dict]:
        while len(self.records) < SETUP_REPS:
            self.before_op(0)
        return self.host.scale_ops(self.records)


def cli_pass(rows: list[dict], cycles: int, run_dir: Path, digests: dict, reference: str,
             layers: Layers | None = None, setups: SetupSampler | None = None) -> list[dict]:
    """Every row once per cycle, each op a fresh process after a host reference."""

    ops = []
    if reference == "spawn":
        host = HostSpeed("spawn", lambda: spawn_reference(child_env()))
    else:
        host = HostSpeed("compute", compute_reference)
    spans_path = run_dir / "spans.json"
    for _ in range(cycles):
        for row in rows:
            if setups is not None:
                setups.before_op(len(ops))
            argv = [str(run_dir / a[1:]) if a.startswith("@") else a for a in row["argv"]]
            if layers is None:
                cmd = [PY, "-m", "qchan", *argv]
            else:
                cmd = [PY, str(HERE / "traced_cli.py"), str(spans_path), "--", *argv]
            ref = host.sample()
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=run_dir, env=child_env(), capture_output=True,
                                  timeout=OP_TIMEOUT_S)
            wall = time.perf_counter() - start
            reasons = oracle.check_cli(row, proc.returncode, proc.stdout.decode("utf-8", "replace"))
            digest = hashlib.sha256(proc.stdout).hexdigest()
            if digests.setdefault(" ".join(argv), digest) != digest:
                reasons.append("stdout differs from an earlier run of the same argv")
            if layers is not None:
                if spans_path.exists():
                    layers.add(json.loads(spans_path.read_text()))
                    spans_path.unlink()
                else:
                    reasons.append("traced CLI process wrote no spans")
            ops.append(op_record(row["kind"], wall, reasons, row.get("known_open", False),
                                 ref=ref, argv=row["argv"]))
    return host.scale_ops(ops)


def lib_pass(worker: Worker, requests: list[dict], setups: SetupSampler | None = None) -> list[dict]:
    """Every request in turn, each after a host reference timed in the worker."""

    ops = []
    host = HostSpeed("compute", worker.reference)
    for i, req in enumerate(requests):
        if setups is not None:
            setups.before_op(i)
        ref = host.sample()
        reply = worker.ask(req, OP_TIMEOUT_S)
        if reply is None:
            raise BenchError(f"no reply to request {req['id']} within {OP_TIMEOUT_S} s")
        reasons = oracle.check_verdict(req, reply)
        ops.append(op_record(req["channel"], reply["wall_s"], reasons, ref=ref, n=req["n"],
                             source=req["source"]))
    return host.scale_ops(ops)


def ladder(seed: int, run_dir: Path) -> dict:
    """Largest ladder dimension whose diagonal-channel verdict takes at most 2 s."""

    worker = Worker(run_dir)
    rungs = []
    try:
        for req in workloads.ladder_requests(seed):
            req["id"] = len(rungs)
            reply = worker.ask(req, RUNG_CAP_S)
            if reply is None:
                worker.kill()
                rungs.append({"n": req["n"], "wall_s": None, "outcome": f"stopped after {RUNG_CAP_S} s"})
                break
            reasons = oracle.check_verdict(req, reply)
            if reply.get("error"):
                outcome = "raised"
            elif reasons:
                outcome = "wrong verdict"
            else:
                outcome = "pass" if reply["wall_s"] <= VERDICT_BUDGET_S else "slow"
            rungs.append({"n": req["n"], "wall_s": reply["wall_s"], "outcome": outcome,
                          "reasons": reasons})
            if outcome != "pass":
                break
    finally:
        if worker.proc.poll() is None:
            worker.stop()
    passed = [r for r in rungs if r["outcome"] == "pass"]
    return {
        "verdict_max_dim": passed[-1]["n"] if passed else 0,
        "budget_s": VERDICT_BUDGET_S,
        "last_pass": passed[-1] if passed else None,
        "first_miss": rungs[-1] if rungs and rungs[-1]["outcome"] != "pass" else None,
        "wrong": sum(1 for r in rungs if r["outcome"] == "wrong verdict"),
        "rungs": len(rungs),
    }


def timing_metrics(ops: list[dict]) -> tuple[dict, dict]:
    scaled = [o["scaled"] for o in ops]
    walls = [o["wall"] for o in ops]
    pct, tail, count = stats.tail_percentile(scaled)
    values = {
        "op_p50_s": stats.median(scaled),
        "op_tail_s": tail,
        "ops_per_s": len(ops) / sum(scaled),
    }
    raw = {
        "op_p50_s": stats.median(walls),
        "op_tail_s": stats.tail_percentile(walls)[1],
        "ops_per_s": len(ops) / sum(walls),
    }
    return values, {"op_tail": {"percentile": pct, "samples": count}, "unscaled": raw}


def oracle_metrics(ops: list[dict], workload: str) -> tuple[dict, dict]:
    contradicted = [o for o in ops if o["reasons"]]
    values = {
        "failed_frac": len(contradicted) / len(ops),
        "verification.verdict_mismatch": float(len(contradicted)),
    }
    if workload == "lib-verdicts":
        for kind in ("family", "diagonal"):
            values[f"{kind}_op_p50_s"] = stats.median([o["scaled"] for o in ops if o["kind"] == kind])
    reasons = Counter()
    for o in contradicted:
        label = o["kind"] if "argv" in o else f"{o['kind']} n={o['n']}"
        for reason in o["reasons"]:
            reasons[(label, reason, o["known_open"])] += 1
    failures = [{"op": label, "reason": reason, "known_open": known, "count": count}
                for (label, reason, known), count in sorted(reasons.items())]
    return values, {"failures": failures}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> tuple[dict, dict, list]:
    """Returns (metric values, detail, all checked ops)."""

    cycles = workloads.cycles_for(workload, seconds)
    import_setup()  # untimed: checks the import source and fills the bytecode cache
    values: dict = {}
    detail: dict = {"cycles": cycles}
    checked: list = []
    lib = workload == "lib-verdicts"
    if lib:
        requests = workloads.lib_requests(seed, cycles)
    else:
        rows = cli_rows(workload, seed, run_dir)
        digests: dict = {}

    if not trace:
        sampler = SetupSampler(run_dir, lib, len(requests) if lib else cycles * len(rows))
        if lib:
            worker = Worker(run_dir)
            try:
                ops = lib_pass(worker, requests, sampler)
            finally:
                worker.stop()
        else:
            ops = cli_pass(rows, cycles, run_dir, digests, REFERENCE[workload], setups=sampler)
        setups = sampler.scaled()
        values["setup_s"] = stats.median([o["scaled"] for o in setups])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        detail["setup_samples_s"] = [o["wall"] for o in setups]
        more, extra = timing_metrics(ops)
        values.update(more)
        detail.update(extra)
        checked += ops
    else:
        if lib:
            worker = Worker(run_dir)
            try:
                ops = lib_pass(worker, requests)
            finally:
                worker.stop()
            layers = Layers()
            spans_path = run_dir / "lib-spans.json"
            traced_worker = Worker(run_dir, spans_path)
            try:
                traced_ops = lib_pass(traced_worker, requests)
            finally:
                traced_worker.stop()
            layers.add(json.loads(spans_path.read_text()))
        else:
            ops = cli_pass(rows, cycles, run_dir, digests, REFERENCE[workload])
            layers = Layers()
            traced_ops = cli_pass(rows, cycles, run_dir, digests, REFERENCE[workload], layers)
        checked += ops + traced_ops
        untraced_s = sum(o["scaled"] for o in ops)
        values["trace.overhead_frac"] = (sum(o["scaled"] for o in traced_ops) - untraced_s) / untraced_s
        values.update(layers.metrics())
        values.update(import_times())
        detail["layers"] = layers.detail()

    more, extra = oracle_metrics(ops, workload)
    values.update(more)
    detail.update(extra)
    if trace:
        if lib:
            detail["ladder"] = ladder(seed, run_dir)
            values["verdict_max_dim"] = float(detail["ladder"]["verdict_max_dim"])
        else:
            detail["not_measured"] = ["family_op_p50_s", "diagonal_op_p50_s", "verdict_max_dim"]
            values.update(dict.fromkeys(detail["not_measured"], 0.0))
    detail["ops"] = len(ops)
    detail["op_times"] = [[o["kind"], o.get("n"), o["wall"], o["scaled"]] for o in ops]
    return values, detail, checked


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.NOMINAL_CYCLE_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qchan" / "__init__.py").is_file():
        print(f"perfbench: no qchan sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # One core for the runner and everything it starts: references and ops
    # then run where the host slows them alike.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment()
        values, detail, checked = run_workload(args.workload, args.seed, args.seconds,
                                               bool(args.trace), run_dir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ladder_result = detail.get("ladder", {})
    failed = sum(1 for o in checked if o["reasons"] and not o["known_open"])
    failed += ladder_result.get("wrong", 0)
    attempted = len(checked) + ladder_result.get("rungs", 0)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env,
                  known_open_failures=sum(1 for o in checked if o["reasons"] and o["known_open"]))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    detail["other_metrics"] = {k: v for k, v in sorted(values.items()) if k not in metrics}
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
