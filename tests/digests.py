"""Byte identity as a committed record: the sha256 of every file the reference runs write.

    python tests/digests.py           # run everything and rewrite tests/digests.json
    python tests/digests.py --check   # run everything and compare with tests/digests.json

The runs are the four CI configs, a 600-iteration run of ``configs/reference.json``,
``gradcheck --trials 2``, ``hessian-check --trials 5`` and ``margin-check --trials 3``,
each through ``metriclab.cli.run`` on the ``src/`` beside this file.  The record
keeps one sha256 per written file and the Python, NumPy, SciPy and BLAS versions
it was made with.  Floating-point bits may move with any of these, so ``--check``
compares only when all four match; otherwise it prints "environment differs, not
compared" and the versions that differ, and exits 0.  Exit status 1 when a digest
moved or a file appeared or went missing, or when a run did not exit 0.  Not a
test module: Tier-1 does not collect it.
"""

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "tests" / "digests.json"
sys.path.insert(0, str(ROOT / "src"))  # the checkout's metriclab, installed or not

from metriclab import cli  # noqa: E402

CI_CONFIGS = ("ci-combined-simce", "ci-wide-triplet", "ci-wide-simce", "ci-raw-m-simce")
REFERENCE_ITERS = 600
CHECKS = (("gradcheck", "--trials", "2"), ("hessian-check", "--trials", "5"), ("margin-check", "--trials", "3"))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def _runs(tmp: Path):
    """(output directory name, argv) of every run, the reference config trimmed to its iterations."""
    for name in CI_CONFIGS:
        yield name, ["train", "--config", str(ROOT / "configs" / f"{name}.json")]
    payload = json.loads((ROOT / "configs" / "reference.json").read_text(encoding="utf-8"))
    payload["train"]["total_iters"] = REFERENCE_ITERS
    config = tmp / "reference.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    yield f"reference-{REFERENCE_ITERS}", ["train", "--config", str(config)]
    for check in CHECKS:
        yield check[0], list(check)


def digests() -> dict:
    """sha256 of every file the runs write, keyed by '<run>/<file>'."""
    files = {}
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        tmp = Path(tmp)
        for name, argv in _runs(tmp):
            out = tmp / "out" / name
            status = cli.run([*argv, "--out", str(out)])
            if status != 0:
                sys.exit(f"{' '.join(argv)} exited {status}")
            for path in sorted(out.iterdir()):
                files[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return files


def check(record: dict) -> int:
    env = environment()
    differs = {key: (record["environment"].get(key), value) for key, value in env.items()
               if record["environment"].get(key) != value}
    if differs:
        print("environment differs, not compared")
        for key, (recorded, here) in differs.items():
            print(f"  {key}: recorded {recorded}, here {here}")
        return 0
    files, recorded = digests(), record["files"]
    names = recorded.keys() | files.keys()
    moved = sorted(name for name in names if recorded.get(name) != files.get(name))
    for name in moved:
        print(f"moved {name}: recorded {recorded.get(name, 'absent')}, here {files.get(name, 'absent')}")
    print(f"{len(names) - len(moved)} of {len(names)} digests match")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help=f"compare with {RECORD.name} instead of writing it")
    args = parser.parse_args(argv)
    if args.check:
        return check(json.loads(RECORD.read_text(encoding="utf-8")))
    record = {"environment": environment(), "files": digests()}
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {len(record['files'])} digests to {RECORD.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
