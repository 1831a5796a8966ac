"""perfbench: end-to-end and per-layer benchmark of the ``iec`` CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 50 --trace 0

Workloads (inputs are generated from ``--seed`` by ``perfbench/inputs.py``):

  fit       ``iec train`` at default settings on a 20k-row CSV; stresses
            ``ann.train``.
  score     ``iec evaluate`` of a fitted model on a 100k-row CSV with two
            categorical columns; stresses ``load_csv`` and ``hddt.predict``.
  protocol  ``iec benchmark --repetitions 5 --epochs 200`` on a wide 10k-row
            CSV; stresses ``grow_tree`` (many small trees).

``BENCHMARK.json`` gates ``fit`` and ``protocol``; ``score`` is run by hand
(see README.md for why).

The CLI is called in process through ``iec.cli.main``, each workload in its
own process.  Set-up runs in child processes so that it does not count
towards the measured peak RSS.  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` untraced and traced calls
alternate and it carries the per-layer metrics of the traced calls.  Every
call's output is checked; a call that exits non-zero or fails a check counts
as failed.  Exit code 2 means the checkout's ``src/iec`` is missing or was
not the package imported; no result is printed then.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from inputs import WORKLOADS
from spans import LAYERS, ROOT_SPAN, Tracer, self_times, tree_shape

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# One BLAS thread: the network's matrices are small (n x ~17 by ~17 x ~11);
# on a 2-vCPU Xeon VM `fit` trained in 18 s with one thread against 20 s with
# two, and one thread keeps parent and change runs alike on a shared machine.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up repeats at least SETUP_MIN_REPS times and, while short, until the
# repetitions have taken SETUP_MIN_S of wall time (at most SETUP_MAX_REPS
# times); the median of their in-process times is setup_s.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 20, 4.0
SETUP_TIMEOUT_S = 170
# Layers whose self times partition a traced call; the root span "cli" keeps
# the remainder: argument parsing, model JSON read/write and printing.
SHARE_LAYERS = (*LAYERS, ROOT_SPAN)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def set_up(workload: str, seed: int, work: Path) -> tuple[list[float], dict]:
    """Generate the inputs repeatedly in child processes; return the set-up
    times they report and the manifest.  Every repetition must write the same
    bytes."""
    times, digests = [], set()
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or (time.perf_counter() - start < SETUP_MIN_S
                                          and len(times) < SETUP_MAX_REPS):
        child = subprocess.run([sys.executable, str(HERE / "inputs.py"), "--workload",
                                workload, "--seed", str(seed), "--out", str(work)],
                               check=True, timeout=SETUP_TIMEOUT_S,
                               capture_output=True, text=True)
        times.append(float(child.stdout.split()[-1]))
        digests.add(tuple(sha256(p) for p in sorted(work.iterdir())))
    if len(digests) != 1:
        raise RuntimeError("set-up wrote different files on repeated runs")
    with open(work / "manifest.json", encoding="utf-8") as fh:
        return times, json.load(fh)


def command(workload: str, manifest: dict, work: Path, warm_up: bool = False) -> list[str]:
    """argv for the workload's CLI call; the warm-up call is a cheap variant."""
    params, seed = manifest["params"], str(manifest["seed"])
    argv = ["--data", manifest["data"]]
    if manifest["categorical"]:
        argv += ["--categorical", ",".join(manifest["categorical"])]
    if workload == "fit":
        argv = ["train", *argv, "--out", str(work / "out_model.json"),
                "--seed", seed, "--format", "json"]
        return argv + ["--epochs", "20"] if warm_up else argv
    if workload == "score":
        return ["evaluate", *argv, "--model", manifest["model"], "--format", "json"]
    reps, epochs = (1, 20) if warm_up else (params["repetitions"], params["epochs"])
    return ["benchmark", *argv, "--repetitions", str(reps), "--epochs", str(epochs),
            "--learning-rate", str(params["learning_rate"]), "--seed", seed,
            "--format", "json", "--dump-folds", str(work / "folds.json")]


def run_op(argv: list[str], tracer=None, op: int = 0) -> tuple[int, float, str, str]:
    """One in-process CLI call, traced as call ``op`` when a tracer is given:
    (exit code, wall seconds, stdout, stderr)."""
    from iec import cli

    out, err = io.StringIO(), io.StringIO()
    traced = tracer.operation(op) if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), traced:
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue(), err.getvalue()


def check_op(workload: str, code: int, stdout: str, stderr: str, manifest: dict,
             work: Path) -> tuple[list[str], float | None, str | None]:
    """(problems, printed IEC AUC, checksum of the output that is compared
    between commits)."""
    if code != 0:
        return [f"exit code {code}: {stderr.strip()}"], None, None
    try:
        if workload == "fit":
            problems, auc = checks.check_fit(stdout, work / "out_model.json", manifest)
            digest = sha256(work / "out_model.json")
        elif workload == "score":
            problems, auc = checks.check_score(stdout, manifest)
            digest = hashlib.sha256(stdout.encode()).hexdigest()
        else:
            problems, auc = checks.check_protocol(stdout, work / "folds.json", manifest)
            digest = sha256(work / "folds.json")
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return [f"unreadable output: {exc!r}"], None, None
    return problems, auc, digest


def measure(workload: str, manifest: dict, work: Path, seconds: float, tracer) -> list[dict]:
    """Call the workload until the next call would end after ``seconds``
    (at least once).  With a tracer, each round is an untraced then a traced
    call."""
    argv = command(workload, manifest, work)
    records, rounds = [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if tracer else (False,)):
            code, elapsed, out, err = run_op(argv, tracer if traced else None, len(records))
            problems, auc, digest = check_op(workload, code, out, err, manifest, work)
            records.append({"traced": traced, "seconds": elapsed, "problems": problems,
                            "auc": auc, "digest": digest})
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            return records


def rows_per_op(workload: str, manifest: dict) -> int:
    """Input rows one call handles: training rows, scored rows, or rows x
    repetitions."""
    if workload == "protocol":
        return manifest["rows"] * manifest["params"]["repetitions"]
    return manifest["rows"]


def folds_per_op(workload: str, manifest: dict) -> int:
    """IEC models one call fits, each of which needs a tree."""
    if workload == "protocol":
        return manifest["params"]["repetitions"]
    return 1 if workload == "fit" else 0


def end_to_end(workload, manifest, records, setup_times) -> dict:
    op_s = statistics.median(r["seconds"] for r in records)
    aucs = [r["auc"] for r in records if r["auc"] is not None]
    return {
        "op_s": (op_s, "s"),
        "rows_per_s": (rows_per_op(workload, manifest) / op_s, "rows/s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "iec_auc": (aucs[0] if aucs else 0.0, "ratio"),
    }


def per_layer(workload, manifest, records, tracer) -> dict:
    traced = [r["seconds"] for r in records if r["traced"]]
    untraced = [r["seconds"] for r in records if not r["traced"]]
    n = len(traced)
    own = self_times(tracer.spans)

    def per_op(name):
        return own.get(name, 0.0) / n

    def infos(name):
        return [s.info for s in tracer.spans if s.name == name]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    loads = infos("data.load_csv")
    trees = [tree_shape(i["tree"]) for i in infos("hddt.grow_tree")]
    predicted = sum(i["rows"] for i in infos("hddt.predict"))
    trains = infos("ann.train")
    epochs = sum(t["epochs"] for t in trains)
    # Model operation count of one full-batch epoch: the two n x d_m x k
    # products (forward and weight gradient) at 2 flops per multiply-add,
    # plus about 10 flops per hidden unit and row for the rest.
    gflop = sum(t["epochs"] * t["n"] * t["k"] * (4 * t["d_m"] + 10) for t in trains) / 1e9
    train_s = own.get("ann.train", 0.0)
    op_s = sum(traced) / n
    grow_calls = len(trees)
    metrics = {
        "data.load_csv.s": (per_op("data.load_csv"), "s"),
        "data.load_csv.rows_per_s": (rate(sum(i["rows"] for i in loads),
                                          own.get("data.load_csv", 0.0)), "rows/s"),
        "data.split.s": (per_op("data.split"), "s"),
        "data.scale.s": (per_op("data.scale"), "s"),
        "hddt.grow_tree.s": (per_op("hddt.grow_tree"), "s"),
        "hddt.grow_tree.calls": (grow_calls / n, "count"),
        "hddt.grow_tree.nodes": (sum(t[0] for t in trees) / grow_calls if trees else 0.0, "count"),
        "hddt.grow_tree.depth": (max((t[1] for t in trees), default=0), "count"),
        "hddt.tree_reuse": (rate(folds_per_op(workload, manifest) * n, grow_calls), "ratio"),
        "hddt.predict.s": (per_op("hddt.predict"), "s"),
        "hddt.predict.rows": (predicted / n, "count"),
        "hddt.predict.rows_per_s": (rate(predicted, own.get("hddt.predict", 0.0)), "rows/s"),
        "ann.train.s": (per_op("ann.train"), "s"),
        "ann.train.calls": (len(trains) / n, "count"),
        "ann.train.s_per_epoch": (train_s / epochs if epochs else 0.0, "s"),
        "ann.train.gflop": (gflop / n, "GFLOP"),
        "ann.train.gflops": (rate(gflop, train_s), "GFLOP/s"),
        "ann.d_m": (statistics.fmean(t["d_m"] for t in trains) if trains else 0.0, "count"),
        "ann.k": (statistics.fmean(t["k"] for t in trains) if trains else 0.0, "count"),
        "ann.classify_batch.s": (per_op("ann.classify_batch"), "s"),
        "ensemble.fit.self_s": (per_op("ensemble.fit"), "s"),
        "ensemble.predict.self_s": (per_op("ensemble.predict"), "s"),
        "metrics.s": (per_op("metrics"), "s"),
        "cli.self_s": (per_op("cli"), "s"),
        "trace.op_s": (op_s, "s"),
        "trace.overhead_s": (op_s - sum(untraced) / len(untraced), "s"),
    }
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.share"] = (per_op(layer) / op_s, "ratio")
    return metrics


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}",
            "blas_threads": blas_threads()}


def run(args, work: Path) -> int:
    import iec

    if Path(iec.__file__).resolve().parent != (ROOT / "src" / "iec").resolve():
        print(f"perfbench: imported iec from {iec.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine:", json.dumps(machine()))
    setup_times, manifest = set_up(args.workload, args.seed, work)
    print("inputs:", json.dumps(manifest["params"]))
    print("setup_s:", " ".join(f"{t:.3f}" for t in setup_times))

    run_op(command(args.workload, manifest, work, warm_up=True))
    tracer = Tracer() if args.trace else None
    records = measure(args.workload, manifest, work, args.seconds, tracer)

    failed = sum(1 for r in records if r["problems"])
    digests = {r["digest"] for r in records if r["digest"]}
    for i, r in enumerate(records):
        kind = "traced" if r["traced"] else "untraced"
        print(f"op {i} ({kind}): {r['seconds']:.4f} s {'; '.join(r['problems']) or 'ok'}")
    if len(digests) > 1:
        print("checksums differ between calls on the same inputs")
        failed = len(records)
    for digest in sorted(digests):
        print(f"checksum {args.workload} sha256={digest}")
    print(f"failed_ops: {failed}/{len(records)}")

    if tracer:
        metrics = per_layer(args.workload, manifest, records, tracer)
        with open(WORK / f"trace-{args.workload}-seed{args.seed}.jsonl", "w",
                  encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps({"op": s.op, "id": s.id, "parent": s.parent,
                                     "name": s.name, "start": s.start, "end": s.end}) + "\n")
    else:
        metrics = end_to_end(args.workload, manifest, records, setup_times)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the iec CLI.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "iec" / "__init__.py").is_file():
        print(f"perfbench: no iec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
