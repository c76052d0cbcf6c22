"""Warm library worker for the lib-verdicts workload.

Usage: python perfbench/worker.py WARMUP_JSON [SPANS_OUT]

Imports qchan once, answers the warm-up request, then prints one ready
line ``{"imported": t, "warm": t}`` (time.monotonic() values, comparable
with the parent's clock).  After that it reads one JSON request per
stdin line and writes one JSON reply per stdout line, until stdin closes.
With SPANS_OUT it traces every request and writes the spans on exit.
A request ``{"reference": true}`` times host.compute_reference() here.

A request asks for one full verdict: is_cptp, constant_fnorm_criterion
and constant_fnorm_sample_test, all through qchan's public functions.
"""

import json
import sys
import time

import numpy as np

import qchan

imported = time.monotonic()


def build_channel(req: dict):
    n = req["n"]
    if req["source"] == "small":
        return qchan.DiagonalChannel(dim=n, t=np.array(req["t"]))
    ch = qchan.FamilyChannel(family=qchan.Family(req["family"]), p=req["p"], dim=n)
    return qchan.family_to_diagonal(ch) if req["channel"] == "diagonal" else ch


def verdict(req: dict) -> dict:
    ch = build_channel(req)
    apply_fn = qchan.as_linear_map(ch)
    cptp = qchan.is_cptp(apply_fn, req["n"])
    holds, norm = qchan.constant_fnorm_criterion(ch)
    sample = qchan.constant_fnorm_sample_test(
        apply_fn, req["n"], samples=req["samples"], seed=req["seed"]
    )
    return {
        "cptp": cptp.passed,
        "min_choi_eigenvalue": cptp.min_choi_eigenvalue,
        "trace_violation": cptp.trace_violation,
        "criterion_holds": holds,
        "expected_norm": norm,
        "sample_passed": sample.passed,
        "samples_used": sample.samples_used,
        "constant_norm": bool(holds and sample.passed),
    }


def main() -> int:
    warmup = json.loads(sys.argv[1])
    tracer = None
    if len(sys.argv) > 2:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    verdict(warmup)
    if tracer is not None:
        tracer.spans.clear()
    print(json.dumps({"imported": imported, "warm": time.monotonic()}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("reference"):
            import host  # here, so that set-up time does not include it

            print(json.dumps({"reference_s": host.compute_reference()}), flush=True)
            continue
        start = time.perf_counter()
        try:
            if tracer is not None:
                reply = tracer.op(req["id"], verdict, req)
            else:
                reply = verdict(req)
        except Exception as exc:  # reported as a failed op, not a crash
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        reply["id"] = req["id"]
        reply["wall_s"] = time.perf_counter() - start
        print(json.dumps(reply), flush=True)
    if tracer is not None:
        tracer.dump(sys.argv[2])
    return 0


if __name__ == "__main__":
    sys.exit(main())
