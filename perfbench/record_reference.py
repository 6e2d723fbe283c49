"""Record the SHA-256 of every `cli` workload command's CSV into cli_reference.json.

Run from the root of a checkout, at the commit whose output is the reference:

    python3 perfbench/record_reference.py

Manifests are left out because they contain the output path.
"""

import hashlib
import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    hashes = {}
    for seed in range(workloads.CLI_SEEDS):
        for name, argv in workloads.cli_commands(seed):
            key = run.reference_key(argv)
            if key in hashes:
                continue
            csv_path = run.WORK / f"{name}.csv"
            _, code, _ = run.run_child([sys.executable, "-c", run.CLI_ENTRY, *argv,
                                        "--out", str(csv_path)], run.WORK / f"{name}.err")
            if code != 0:
                raise SystemExit(f"{key} exited with {code}")
            hashes[key] = hashlib.sha256(csv_path.read_bytes()).hexdigest()
            for path in run.WORK.glob(f"{name}.*"):
                path.unlink()
    with open(run.REFERENCE, "w", encoding="utf-8") as f:
        json.dump({"sha256": hashes}, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
