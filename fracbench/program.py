"""One program process: set up, run one ``fracblow`` command, report.

    python3 fracbench/program.py --workload W --seed S --dir D [--trace] [--setup-only]

Set-up is everything before the command is ready to run: the interpreter,
the imports and generating the config, which is written to D/run.ini.
The command then runs in-process through ``fracblow.cli.main`` with its
outputs under D/out.  D/result.json receives the monotonic clock reading
at which set-up ended, the command's wall time and exit code, the peak
resident memory of this process and, untraced, the times of the reference
job (``reference.py``) run after set-up and after the command.  The
reference job is not part of set-up.  With --trace the boundaries in
``tracing.BOUNDARIES`` are wrapped, the spans go to D/trace.jsonl and the
per-layer metrics into the result.  run.py starts this file with the BLAS
and OpenMP pools pinned to one thread.
"""
import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer(f"{args.dir.name}-{os.getpid()}")
        tracing.install_fft(tracer)
    import fracblow.cli
    import inputs
    import reference

    if tracer is not None:
        tracing.install(tracer)
    cfg_path = args.dir / "run.ini"
    cfg_path.write_text(inputs.config_text(args.workload, args.seed))
    out = args.dir / "out"
    result = {"ready": time.monotonic()}
    if tracer is None:
        reference.job()  # warm-up: numpy's FFT plan for the job's size
        result["ref_s"] = reference.times()

    if not args.setup_only:
        argv = [inputs.COMMANDS[args.workload], "--config", str(cfg_path), "--out", str(out)]
        start = time.perf_counter()
        result["exit_code"] = fracblow.cli.main(argv)
        result["run_s"] = time.perf_counter() - start
        result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is None:
            result["ref_s"] += reference.times()
    if tracer is not None and not args.setup_only:
        import checks

        rows = checks.read_sweep(out) if (out / "sweep_rows.csv").is_file() else []
        written = sum(f.stat().st_size for f in out.iterdir() if f.is_file())
        layers = tracing.layer_metrics(tracer, len(rows),
                                       sum(r["failed"] != "0" for r in rows), written)
        tracing.write_spans(tracer, args.dir / "trace.jsonl")
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        result["missing"] = tracer.missing
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
