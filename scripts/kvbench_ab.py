#!/usr/bin/env python3
"""Paired A/B of kvbench: a base revision against the working tree.

    make kvbench-ab BASE=<rev> WORKLOAD=<name> PAIRS=10
    python3 scripts/kvbench_ab.py --base <rev> --workload <name> --pairs 10
    python3 scripts/kvbench_ab.py --workload read_hot --pairs 10 \
        --traced 3 --layers hotcache.hit_ratio,hotcache.invalidations

The noise-floor rule of benchmark/README.md as one command:

1. check out BASE in a git worktree under target/kvbench-ab/base (reused
   and re-pointed on later calls; `git worktree remove --force
   target/kvbench-ab/base` deletes it);
2. build both kvbench binaries --offline (BASE's and the working tree's);
3. run PAIRS alternating pairs on seeds 1..PAIRS — the base goes first on
   odd seeds, the change on even ones — plus one pair on a seed outside
   that range; every run lasts BENCHMARK.json's run_seconds;
4. read only the final JSON line each run prints;
5. print, per end-to-end metric of BENCHMARK.json, each side's median and
   quartiles over the paired seeds, the change's win count, and whether
   the gain rule holds (wins >= 90 % of pairs and the medians differ by
   more than the base's interquartile range);
6. with --traced N, run N traced runs per side afterwards (--trace 1,
   seeds 11..10+N, alternating as above) and print each --layers metric
   (per-layer names of BENCHMARK.json) with its per-side values and
   median: the per-layer evidence for a change, in the same command.

Without --base it compares against HEAD when tracked files have
uncommitted changes, else against HEAD~1. --pairs 0 skips the pairs.
Needs git, cargo and python3; nothing under benchmark/ is modified.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "target", "kvbench-ab")
UNSEEN_SEED = 1_000_003


def git(*args, cwd=ROOT):
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True
    ).stdout.strip()


def resolve_base(base):
    if not base:
        dirty = git("status", "--porcelain", "--untracked-files=no")
        base = "HEAD" if dirty else "HEAD~1"
    return git("rev-parse", "--verify", base + "^{commit}")


def checkout_base(rev):
    tree = os.path.join(WORK, "base")
    if os.path.isdir(tree):
        git("checkout", "--quiet", "--detach", rev, cwd=tree)
    else:
        os.makedirs(WORK, exist_ok=True)
        git("worktree", "add", "--quiet", "--detach", tree, rev)
    return tree


def build(tree, side):
    target = os.path.join(WORK, "target-" + side)
    manifest = os.path.join(tree, "benchmark", "Cargo.toml")
    print(f"building {side} kvbench ({tree})", file=sys.stderr)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", manifest, "--target-dir", target],
        check=True,
    )
    return os.path.join(target, "release", "kvbench")


def run(binary, tree, workload, seed, seconds, trace=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if not lines:
        sys.exit(f"{' '.join(cmd)} printed nothing (exit {out.returncode}):\n"
                 f"{out.stderr}")
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, result["correct"], result["failed"]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)  # the exclusive method kvbench uses
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default="", help="git revision (see above)")
    ap.add_argument("--workload", default="mixed_repl")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--traced", type=int, default=0,
                    help="traced runs per side after the pairs")
    ap.add_argument("--layers", default="",
                    help="comma-separated per-layer metrics to print")
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    seconds = contract["run_seconds"]
    metrics = contract["end_to_end"]
    layers = [l for l in a.layers.split(",") if l]
    known = {m["name"] for m in contract["per_layer"]}
    unknown = [l for l in layers if l not in known]
    if unknown:
        sys.exit(f"not a per-layer metric of BENCHMARK.json: {unknown}")
    if a.traced and not layers:
        sys.exit("--traced needs --layers")

    rev = resolve_base(a.base)
    base_tree = checkout_base(rev)
    sides = {
        "base": (build(base_tree, "base"), base_tree),
        "change": (build(ROOT, "change"), ROOT),
    }
    print(f"base {rev[:12]} vs working tree: {a.workload}, {a.pairs} pairs "
          f"+ seed {UNSEEN_SEED}, {seconds:g} s per run", file=sys.stderr)

    bad = []
    if a.pairs:
        pairs(a, sides, rev, seconds, metrics, bad)
    if a.traced:
        traced(a, sides, rev, seconds, layers, bad)
    if bad:
        print("runs that were not correct or had failures:")
        for line in bad:
            print("  " + line)
        sys.exit(1)


def pairs(a, sides, rev, seconds, metrics, bad):
    runs = {"base": [], "change": []}
    unseen = {}
    seeds = list(range(1, a.pairs + 1)) + [UNSEEN_SEED]
    for seed in seeds:
        order = ["base", "change"] if seed % 2 == 1 else ["change", "base"]
        for side in order:
            binary, tree = sides[side]
            values, correct, failed = run(binary, tree, a.workload, seed,
                                          seconds)
            if not correct or failed:
                bad.append(f"{side} seed {seed}: correct={correct} "
                           f"failed={failed}")
            if seed == UNSEEN_SEED:
                unseen[side] = values
            else:
                runs[side].append(values)
            shown = " ".join(f"{m['name']}={values[m['name']]:.4g}"
                             for m in metrics)
            print(f"  seed {seed:>7} {side:<6} {shown}", file=sys.stderr)

    print(f"{a.workload}: base {rev[:12]} vs working tree, "
          f"{a.pairs} pairs (seeds 1-{a.pairs}), unseen seed {UNSEEN_SEED}")
    print(f"{'metric':<16} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'ratio':>7} {'wins':>6} "
          f"{'unseen b/c':>19}  gain rule")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        b = [r[name] for r in runs["base"]]
        c = [r[name] for r in runs["change"]]
        wins = sum((cv < bv) if lower else (cv > bv) for bv, cv in zip(b, c))
        bm, cm = statistics.median(b), statistics.median(c)
        (b1, b3), (c1, c3) = quartiles(b), quartiles(c)
        better = (cm < bm) if lower else (cm > bm)
        holds = wins * 10 >= 9 * len(b) and better and abs(cm - bm) > b3 - b1
        ratio = cm / bm if bm else float("nan")
        spread = lambda med, q1, q3: f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
        unseen_bc = f"{unseen['base'][name]:.4g}/{unseen['change'][name]:.4g}"
        print(f"{name:<16} {spread(bm, b1, b3):>30} {spread(cm, c1, c3):>30} "
              f"{ratio:>7.3f} {wins:>3}/{len(b):<2} {unseen_bc:>19}  "
              + ("holds" if holds else "-"))


def traced(a, sides, rev, seconds, layers, bad):
    runs = {"base": [], "change": []}
    seeds = list(range(11, 11 + a.traced))
    for seed in seeds:
        order = ["base", "change"] if seed % 2 == 1 else ["change", "base"]
        for side in order:
            binary, tree = sides[side]
            values, correct, failed = run(binary, tree, a.workload, seed,
                                          seconds, trace=True)
            if not correct or failed:
                bad.append(f"{side} traced seed {seed}: correct={correct} "
                           f"failed={failed}")
            runs[side].append(values)
            shown = " ".join(f"{l}={values[l]:.4g}" for l in layers)
            print(f"  traced seed {seed:>3} {side:<6} {shown}",
                  file=sys.stderr)

    print(f"{a.workload}: base {rev[:12]} vs working tree, {a.traced} "
          f"traced runs per side (--trace 1, seeds {seeds[0]}-{seeds[-1]})")
    rows = []
    for l in layers:
        cells = [l]
        for side in ("base", "change"):
            v = [r[l] for r in runs[side]]
            shown = " ".join(f"{x:.4g}" for x in v)
            cells.append(f"{shown} | {statistics.median(v):.4g}")
        rows.append(cells)
    head = ["layer", "base values | median", "change values | median"]
    width = [max(len(r[i]) for r in rows + [head]) for i in range(3)]
    for r in [head] + rows:
        print(f"{r[0]:<{width[0]}}  {r[1]:>{width[1]}}  {r[2]:>{width[2]}}")


if __name__ == "__main__":
    main()
