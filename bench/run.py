"""conifold-lab benchmark: one command, three workloads, each in a fresh process.

    python3 bench/run.py                                  # all workloads, timed
    python3 bench/run.py --workload gh-converge --seed 7 --seconds 30 --trace 0
    python3 bench/run.py --workload pointwise --trace 1   # per-layer breakdown

With ``--trace 0`` it reports the end-to-end metrics ``wall_s`` (seconds of
one iteration's timed calls, median over the timed iterations), ``setup_s``
(seconds to import the package and its scipy dependencies plus a warm-up
pass, median over three fresh processes) and ``peak_rss_mb`` (peak
resident set of the workload process), and prints ``fail_frac`` (failed
checks over checks attempted).  Both times are given at the reference speed
of the machine: each is scaled by ``KERNEL_REF_S`` over the median time of a
fixed speed kernel that the same process runs between the timed steps, so
that the host's drifting speed cancels out.  The raw times are printed too.
With ``--trace 1`` it runs untraced and traced iterations in pairs and
reports the per-layer metrics of the traced ones.  The last line of output
is one JSON object per the benchmark contract; see ``bench/README.md``.
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

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("gh-converge", "estimates", "pointwise")
DEFAULT_SECONDS = 30
SETUP_PROBES = 2  # plus the workload process itself: three set-up samples
TIME_LIMIT_S = 170.0
#: Nominal seconds of one speed-kernel pass (about its median on the 2-vCPU VM
#: of bench/README.md): times are scaled to the speed at which a pass takes this.
KERNEL_REF_S = 0.020

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _worker(args: list[str], deadline: float) -> dict:
    """Run the worker in a fresh process with the pool at its shipped default."""
    env = {k: v for k, v in os.environ.items() if k != "CONIFOLD_LAB_THREADS"}
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int | None, seconds: float, trace: bool,
                 write_reference: bool = False) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S

    def probes(count):
        return [_worker(["--probe"], deadline) for _ in range(count)]

    args = ["--workload", name, "--seconds", str(seconds), "--trace", str(int(trace))]
    if seed is not None:
        args += ["--seed", str(seed)]
    if write_reference:
        args.append("--write-reference")
    # Probes before and after the workload, so the set-up samples span the run
    # rather than one moment of the machine's load.
    before = probes(SETUP_PROBES // 2)
    out = _worker(args, deadline)
    own = {k: out[k] for k in ("setup_s", "setup_speed_s")}
    out["setup_probes"] = before + [own] + probes(SETUP_PROBES - SETUP_PROBES // 2)
    return out


def _scale(seconds: float, speed: list[float]) -> float:
    """``seconds`` at the reference machine speed, given kernel pass times around it."""
    return seconds * KERNEL_REF_S / statistics.median(speed)


def timings(out: dict) -> dict:
    """Raw and speed-scaled wall and set-up times of a run.

    The timed iterations are scaled by the kernel passes run after every
    iteration of the run.
    """
    walls = out["wall_s"]
    speed = [t for passes in out["speed_s"] for t in passes]
    setups = [p["setup_s"] for p in out["setup_probes"]]
    return {
        "wall_s": _scale(statistics.median(walls), speed),
        "setup_s": statistics.median(_scale(p["setup_s"], p["setup_speed_s"])
                                     for p in out["setup_probes"]),
        "raw_wall_s": statistics.median(walls),
        "raw_setup_s": statistics.median(setups),
        "speed_factor": KERNEL_REF_S / statistics.median(speed),
    }


def _result(out: dict, trace: bool) -> dict:
    if trace:
        metrics = out["layers"]
    else:
        times = timings(out)
        values = {
            "wall_s": times["wall_s"],
            "setup_s": times["setup_s"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": metrics}


def _print_summary(name: str, out: dict, result: dict, trace: bool):
    env = out["env"]
    print(f"== {name}  seed={out['seed']}  nproc={env['nproc']} "
          f"affinity={env['affinity']} pool_width={env['pool_width']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    warm_up = "".join(f"{w:.3f} (warm-up), " for w in out.get("warm_up_s", []))
    print(f"   timed iterations={len(out['wall_s'])}  raw wall_s per iteration: {warm_up}"
          + ", ".join(f"{w:.3f}" for w in out["wall_s"]))
    print("   raw setup_s samples: "
          + ", ".join(f"{p['setup_s']:.3f}" for p in out["setup_probes"]))
    if trace:
        print("   traced wall_s per iteration: "
              + ", ".join(f"{w:.3f}" for w in out["traced_wall_s"]))
        print(f"   bench.self_s = {out['bench_self_s']:.6g} s "
              "(harness time inside traced iterations)")
    else:
        times = timings(out)
        print(f"   raw wall_s = {times['raw_wall_s']:.6g} s, raw setup_s = "
              f"{times['raw_setup_s']:.6g} s, machine speed = {times['speed_factor']:.4g} "
              f"x reference (kernel pass {KERNEL_REF_S * 1e3:g} ms)")
    for k, m in result["metrics"].items():
        print(f"   {k} = {m['value']:.6g} {m['unit']}")
    frac = out["failed"] / out["attempted"]
    print(f"   fail_frac = {frac:.6g} ({out['failed']}/{out['attempted']} checks failed)")
    for f in out["failures"]:
        print(f"   FAILED {f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: the one the reference was stored for)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store iteration 0 of the default seed as the reference")
    args = parser.parse_args()

    if not (ROOT / "src" / "conifold_lab" / "__init__.py").is_file():
        print(f"no conifold_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               args.write_reference)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        result = _result(out, bool(args.trace))
        _print_summary(name, out, result, bool(args.trace))
        print(json.dumps(result))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
