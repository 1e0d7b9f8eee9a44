"""Print the SHA-256 of every output file of each workload, made anew.

Each workload's scenario document is made from the seed, set up and run
once by the code of this checkout, and every output file it writes
(per-replication CSVs and summary.json) is hashed. Two commits whose
listings are equal for a seed wrote byte-identical outputs for it.

Usage: python3 bench/hashes.py [--seed N]
"""

from __future__ import annotations

import argparse
import sys

from common import OUT, fresh_dir, hash_tree, import_chainsim


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    import_chainsim()
    import workloads

    for name, wl in workloads.WORKLOADS.items():
        work = fresh_dir(OUT / "hashes" / f"{name}-seed{args.seed}")
        doc_path = work / "scenario.json"
        workloads.write_doc(wl, args.seed, doc_path)
        out_dir = work / "out"
        workloads.execute(wl, workloads.set_up(wl, doc_path), out_dir)
        for rel, digest in hash_tree(out_dir).items():
            print(f"{digest}  {name}/{rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
