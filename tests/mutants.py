"""Mutation checks: each entry breaks one source line, and its named tests must then fail.

    python tests/mutants.py

For every entry the runner copies ``src/`` to a temporary directory, replaces
the entry's line there, and runs the entry's test node ids against the copy
with ``pytest -x``; the entry passes when a test fails.  Before any mutant it
runs every named test against an unchanged copy and requires them to pass, so
a failure under a mutant is the mutant's doing.  An entry whose line is not in
its file exactly once fails the runner, so the table follows the code.  An
entry with a ``survives`` reason is a known equivalent mutant: its tests must
pass, so the reason is dropped the day a test kills it.  Exit status 0 when
every mutant meets its entry, 1 otherwise.  Not a test module: Tier-1 does
not collect it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str           # relative to the repository root
    line: str           # an exact source line, indentation included
    replacement: str
    killers: tuple      # test node ids, one of which must fail
    survives: str = ""  # why no test can kill it; such a mutant must pass its killers


_HINGE_ORACLE = "tests/test_fast_paths.py::test_hinge_count_and_value_match_the_loop_oracle_on_arbitrary_layouts"
_HINGE_CLAMP = "tests/test_losses.py::TestTripletLoss::test_near_tied_hinges_never_sum_below_zero"
_PARAM_GRADS = "tests/test_training.py::TestModelForward::test_parameter_gradients_match_finite_differences"

MUTANTS = [
    Mutant("a tied hinge counts as active", "src/metriclab/losses.py",
           "    active = (v[..., None] > an[..., None, :]) & lay.grid",
           "    active = (v[..., None] >= an[..., None, :]) & lay.grid",
           (_HINGE_ORACLE,)),
    Mutant("padded slots count", "src/metriclab/losses.py",
           "    active = (v[..., None] > an[..., None, :]) & lay.grid",
           "    active = v[..., None] > an[..., None, :]",
           (_HINGE_ORACLE,)),
    Mutant("the hinge value is not clamped at 0", "src/metriclab/losses.py",
           "    total = np.maximum((k * v).sum(axis=(-2, -1), where=k > 0)"
           " - (c * an).sum(axis=(-2, -1), where=c > 0), 0.0)",
           "    total = (k * v).sum(axis=(-2, -1), where=k > 0) - (c * an).sum(axis=(-2, -1), where=c > 0)",
           (_HINGE_CLAMP,)),
    Mutant("scipy.special loads at import", "src/metriclab/synth.py",
           "import scipy",
           "import scipy.special",
           ("tests/test_cli.py::TestConsoleScript::test_scipy_special_loads_only_for_the_commands_that_use_it",)),
    Mutant("the Gram product is the bare GEMM", "src/metriclab/core.py",
           "    return G + G.swapaxes(-1, -2)",
           "    return X @ X.swapaxes(-1, -2)",
           ("tests/test_core.py::TestGramScores::test_symmetric_to_the_bit_and_near_the_loop_oracle",),
           survives="NumPy computes X @ X.T by SYRK, symmetric to the bit and within every bound; "
                    "only its bits and its time differ, and no test pins either"),
    Mutant("no embed-bias gradient", "src/metriclab/training.py",
           '    grad_embed.sum(axis=0, out=grads["embed_bias"])',
           "    pass",
           (_PARAM_GRADS,)),
    Mutant("no head-gradient copy", "src/metriclab/training.py",
           '        grads["head_weight"][...], grads["head_bias"][...]'
           ' = result.head_grad_weight, result.head_grad_bias',
           "        pass",
           (_PARAM_GRADS,)),
    Mutant("the int field rule accepts every value", "src/metriclab/errors.py",
           '    "int": (lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool), "an integer"),',
           '    "int": (lambda v: True, "an integer"),',
           ("tests/test_training.py::TestTrainConfig::test_integer_fields_refuse_floats_and_booleans",)),
]


def _pytest(src: Path, node_ids) -> int:
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *node_ids]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    imported = subprocess.run([sys.executable, "-c", "import metriclab; print(metriclab.__file__)"],
                              env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True)
    if not imported.stdout.startswith(str(src)):
        sys.exit(f"metriclab imports from {imported.stdout.strip() or imported.stderr.strip()}, not the copy")
    return src


def _apply(src: Path, mutant: Mutant) -> str | None:
    """Replace the mutant's line in the copy; the reason it cannot, or None."""
    path = src / Path(mutant.file).relative_to("src")
    lines = path.read_text().split("\n")
    found = lines.count(mutant.line)
    if found != 1:
        return f"its line occurs {found} times in {mutant.file}"
    lines[lines.index(mutant.line)] = mutant.replacement
    path.write_text("\n".join(lines))
    return None


def main() -> int:
    killers = sorted({node for mutant in MUTANTS for node in mutant.killers})
    failed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        status = _pytest(_copy_src(Path(tmp) / "clean"), killers)
        if status != 0:
            print(f"FAIL the named tests do not pass on unchanged source (pytest exit {status})")
            return 1
        for i, mutant in enumerate(MUTANTS):
            src = _copy_src(Path(tmp) / f"mutant-{i}")
            reason = _apply(src, mutant)
            if reason is None:
                status = _pytest(src, mutant.killers)
                # 1: a test failed; anything else (no tests, a collection error) kills nothing
                expected = 0 if mutant.survives else 1
                reason = None if status == expected else f"pytest exit {status}, expected {expected}"
            failed += reason is not None
            if reason is not None:
                print(f"FAIL {mutant.name}: {reason}")
            else:
                print(f"survives {mutant.name} ({mutant.survives})" if mutant.survives else f"killed {mutant.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
