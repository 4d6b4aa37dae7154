"""The set-up step of a benchmark run, timed as a whole process.

Starts like a user's redarg process does (interpreter start and
``import redarg.cli``), then generates the workload's inputs from the
seed and writes them, with their known answers, to the output directory.

    python3 perfbench/prepare.py --workload pipeline --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import redarg.cli  # noqa: E402,F401  (importing the program is part of set-up)

import gen  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus = ROOT / "corpus"
    if args.workload == "oracle-probes":
        items = gen.oracle_probes(corpus)
    elif args.workload == "pipeline":
        items = gen.pipeline_systems(args.seed, corpus)
        for k, system in enumerate(items):
            text = system.pop("text", None)
            if text is not None:
                path = out / f"{k:03d}-{system['name']}.trs"
                path.write_text(text)
                system["file"] = str(path)
    elif args.workload == "eval-deep":
        items = gen.eval_goals(args.seed, corpus)
    else:
        parser.error(f"unknown workload {args.workload}")
    (out / "manifest.json").write_text(json.dumps(items, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
