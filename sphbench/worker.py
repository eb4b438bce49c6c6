"""One repetition: a fresh interpreter answers a workload's whole request list.

    python3 -s sphbench/worker.py ROOT PLAN OUT TRACE [SPANS]

ROOT is the checkout holding src/sphdiv.  Set-up ends when `sphdiv` and
`sphdiv.cli` are imported; the moment is reported on CLOCK_MONOTONIC so
that the parent can time set-up from the process's start.  Requests run
one after another in this process: CLI requests through
`sphdiv.cli.main`, `validate_presentation` as a library call.  Answers
are written to OUT as JSON lines, one per request, then a line with the
repetition's figures.  With PLAN "-" the worker only imports, which
compiles the bytecode before anything is timed.
"""
import contextlib
import io
import json  # sphdiv imports json too, so this adds nothing to set-up
import os
import resource
import sys
import time


def run_request(req, root) -> dict:
    out, err = io.StringIO(), io.StringIO()
    res = {"rc": None, "error": None}
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if req["op"] == "cli":
                res["rc"] = sphdiv.cli.main(list(req["argv"]))
            else:
                validate_presentation(req["source"], root)
    except Exception as exc:  # a fault of the program is an answer to record
        res["error"] = f"{type(exc).__name__}: {exc}"
    res["out"], res["err"] = out.getvalue(), err.getvalue()
    return res


def validate_presentation(source, root) -> None:
    if "catalog" in source:
        key, n = source["catalog"]
        pres = sphdiv.catalog.builtin(key, n).presentation
    else:
        with open(os.path.join(root, source["path"]), encoding="utf-8") as fh:
            _, pres = sphdiv.docio.load_document(fh.read())
    sphdiv.knoplie.validate_presentation(pres)


def main(root, ready, plan_path, out_path, trace, spans_path=None) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import spans  # after set-up, which it must not lengthen

    caches = {name: getattr(sphdiv.knoplie, name) for name in spans.CACHES}
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
    clock = time.perf_counter
    batch = 0.0
    output_bytes = 0
    # answers go to disk as they come, so that peak memory is the
    # program's and not the answers kept so far
    with open(out_path, "w", encoding="utf-8") as out:
        for i, req in enumerate(plan):
            if tracer:
                tracer.request = i
            t0 = clock()
            res = run_request(req, root)
            res["s"] = clock() - t0
            batch += res["s"]
            if req["op"] == "cli":
                output_bytes += len(res["out"])
            out.write(json.dumps(res) + "\n")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        layers = {"cli.output_bytes": output_bytes}
        for name, fn in caches.items():
            info = fn.cache_info()
            layers[f"knoplie.{name}.hits"] = info.hits
            layers[f"knoplie.{name}.misses"] = info.misses
        if tracer:
            layers.update(tracer.aggregate())
            if spans_path:
                tracer.write(spans_path)
        out.write(json.dumps({"ready": ready, "batch_s": batch,
                              "peak_rss_mb": peak_kb / 1024, "layers": layers}) + "\n")


if __name__ == "__main__":
    ROOT = sys.argv[1]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import sphdiv.cli
    READY = time.clock_gettime(time.CLOCK_MONOTONIC)
    if sys.argv[2] != "-":
        main(ROOT, READY, sys.argv[2], sys.argv[3], sys.argv[4] == "1",
             sys.argv[5] if len(sys.argv) > 5 else None)
