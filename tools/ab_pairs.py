"""Alternating A/B pairs of perfbench runs: a git ref against this checkout.

    python3 tools/ab_pairs.py HEAD~1 --workload train --seed 1 \\
        --seconds 30 --pairs 10 --metric norm_wall_s --out BENCH.json

Archives the ref with ``git archive`` into a temporary directory (under
$TMPDIR), then runs ``perfbench/run.py --trace 0`` in that tree (the
parent) and in this checkout (the change), one run each per pair, the
parent first in even pairs and the change first in odd ones.  Prints each
pair's end-to-end metrics, each side's median and quartiles per metric,
the change's wins, and whether the gain rule holds for ``--metric``: the
change is better in at least nine tenths of the pairs, ties counting for
neither side, and its median is better than the parent's by more than the
parent's interquartile range.  Each metric's better direction is read
from this checkout's BENCHMARK.json.

Exits 1 when a run fails, reports ``"correct": false``, or prints a
round digest other than its pair partner's: the two trees must compute the
same bits.  Uses the standard library only.
"""

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def summarize(parent, change, better="lower"):
    """The gain rule on paired values of one metric: parent[i] and
    change[i] are pair i's runs.  Quartiles are statistics.quantiles'
    (the exclusive method), so at least two pairs are needed."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs, one value per side each")
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    out = {"better": better, "pairs": len(parent), "wins": wins,
           "losses": losses, "ties": len(parent) - wins - losses}
    for side, values in zip(SIDES, (parent, change)):
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    parent_iqr = out["parent"]["q3"] - out["parent"]["q1"]
    gain = sign * (out["parent"]["median"] - out["change"]["median"])
    out["median_gain"] = gain
    out["parent_iqr"] = parent_iqr
    out["rule_holds"] = (wins >= math.ceil(0.9 * len(parent))
                         and gain > parent_iqr)
    return out


def parse_run(stdout):
    """perfbench's result: the JSON object on its last line, and the
    round digest from its ``digest`` line."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    digest = next((line.split()[-1] for line in lines
                   if line.startswith("digest ")), None)
    return result, digest


def digest_error(pair):
    """Why a pair's two runs disagree on the round digest, or None."""
    parent, change = pair["parent"]["digest"], pair["change"]["digest"]
    if parent != change:
        return f"digests differ: parent {parent}, change {change}"
    return None


def run_perfbench(tree, args):
    """One untraced perfbench run in ``tree``: (result, digest, error)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True, timeout=20 * args.seconds + 600)
    if proc.returncode != 0:
        return {}, None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        result, digest = parse_run(proc.stdout)
    except json.JSONDecodeError:
        return {}, None, "no JSON result line"
    if not result.get("correct"):
        return result, digest, f"correct is {result.get('correct')!r}"
    return result, digest, None


def archive(ref, dest):
    """Extract the tree of ``ref`` into dest; returns the commit hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", ref + "^{commit}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         check=True, capture_output=True).stdout
    # extraction filters exist from Python 3.12 and in late 3.10/3.11 patches
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        fh.extractall(dest, **safe)
    return commit


def checkout_state():
    """This checkout's HEAD commit, and whether its tree differs from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain",
                                              "--untracked-files=no"))


def end_to_end_metrics():
    """{name: better} of the end-to-end metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("ref", help="git ref of the parent tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--metric", default="norm_wall_s",
                   help="end-to-end metric the gain rule is checked on")
    p.add_argument("--out", help="also write every run and the summary "
                   "here as JSON")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be >= 2")
    return args


def main(argv=None):
    args = parse_args(argv)
    metrics = end_to_end_metrics()
    if args.metric not in metrics:
        print(f"unknown end-to-end metric {args.metric!r}", file=sys.stderr)
        return 2
    runs, failed = [], False
    head, dirty = checkout_state()
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        commit = archive(args.ref, tmp)
        trees = {"parent": Path(tmp), "change": ROOT}
        print(f"# parent {args.ref} = {commit}; change = HEAD {head}"
              f"{' with uncommitted edits' if dirty else ''}")
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"pair": i, "first": order[0]}
            for side in order:
                result, digest, error = run_perfbench(trees[side], args)
                values = {k: v["value"]
                          for k, v in result.get("metrics", {}).items()}
                pair[side] = {"metrics": values, "digest": digest,
                              "failed_ops": result.get("failed"),
                              "error": error}
                if error:
                    failed = True
                    print(f"pair {i} {side}: FAILED {error}", file=sys.stderr)
            if not failed and (error := digest_error(pair)):
                failed = True
                pair["error"] = error
                print(f"pair {i}: FAILED {error}", file=sys.stderr)
            runs.append(pair)
            print(f"pair {i} ({pair['first']} first) " + "  ".join(
                f"{name} {pair['parent']['metrics'].get(name, float('nan')):.4f}"
                f" -> {pair['change']['metrics'].get(name, float('nan')):.4f}"
                for name in metrics), flush=True)
            if failed:
                break
    summary = {}
    if not failed:
        for name, better in metrics.items():
            summary[name] = s = summarize(
                [r["parent"]["metrics"][name] for r in runs],
                [r["change"]["metrics"][name] for r in runs], better)
            print(f"{name}: parent median {s['parent']['median']:.4f} "
                  f"[{s['parent']['q1']:.4f}, {s['parent']['q3']:.4f}], change "
                  f"median {s['change']['median']:.4f} [{s['change']['q1']:.4f}"
                  f", {s['change']['q3']:.4f}]; change better in {s['wins']} "
                  f"of {s['pairs']} ({s['ties']} ties)")
        digests = {r[side]["digest"] for r in runs for side in SIDES}
        print(f"digests: {' '.join(sorted(map(str, digests)))}")
        holds = summary[args.metric]["rule_holds"]
        print(f"gain rule on {args.metric}: {'holds' if holds else 'not met'}")
    if args.out:
        record = {"parent": commit, "change": head, "change_dirty": dirty,
                  "workload": args.workload,
                  "seed": args.seed, "seconds": args.seconds,
                  "pairs": args.pairs, "metric": args.metric,
                  "runs": runs, "summary": summary}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
