"""What each entry point loads, checked in fresh interpreters.

A run pays at start-up for every module its imports pull in.  The
command line loads the oracle only for the subcommands that compare
against it, and no subcommand loads any part of scipy: the interaction
pieces are numpy arrays and the SI constants are literals.  scipy is a
dependency of the tests alone, and runs with scipy made unimportable
still finish.  Nor does any subcommand load ``numpy.ma``, which
``np.unique`` imports on its first call, and only mc-average loads
``numpy.random``: oracle-check draws its orientations from the standard
library's ``random``.  The package re-exports the
oracle names lazily, so ``import mqcsim`` does not load the oracle.
The time-domain transients live with the tests (``tests/transient.py``)
and load ``scipy.integrate`` only when they integrate, so importing
them loads no scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mqcsim.config import MIN_MC_SAMPLES

ROOT = Path(__file__).resolve().parents[1]

#: packages no subcommand needs; a loaded submodule loads its package
UNUSED = ("scipy", "numpy.ma")

#: modules no spectrum-side run needs; numpy.random alone adds about
#: 5.4 MB of peak RSS and 8-10 ms to a run, and only the oracle's Monte
#: Carlo draws from it: oracle-check draws its orientations from the
#: standard library's random
SPECTRUM_FREE = UNUSED + ("mqcsim.oracle", "numpy.random")

#: small runs of each subcommand kind and the modules each must not load
RUNS = {
    "spectrum": (["spectrum", "--detuning-count", "5", "--kappas", "2",
                  "--channels", "parallel"], SPECTRUM_FREE),
    "table1": (["table1"], SPECTRUM_FREE),
    "cross-section": (["cross-section"], SPECTRUM_FREE),
    "oracle-check": (["oracle-check", "--oracle-directions", "1"],
                     UNUSED + ("numpy.random",)),
    "mc-average": (["mc-average", "--mc-samples", str(MIN_MC_SAMPLES),
                    "--kappas", "2", "--channels", "parallel",
                    "--detuning-count", "5"], UNUSED),
}


def _fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it ends by printing one JSON
    line, which is returned."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def _loaded_after(statements: str, watched) -> dict:
    return _fresh(f"import json, sys\n{statements}\n"
                  f"print(json.dumps([m for m in {list(watched)!r} "
                  f"if m in sys.modules]))")


def test_importing_the_cli_loads_no_oracle_and_no_scipy():
    assert _loaded_after("import mqcsim.cli", SPECTRUM_FREE) == []


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_a_run_loads_only_what_its_subcommand_uses(kind, tmp_path):
    argv, unwanted = RUNS[kind]
    argv = argv + ["--output-dir", str(tmp_path)]
    statements = ("from mqcsim.cli import main\n"
                  f"assert main({argv!r}) == 0")
    assert _loaded_after(statements, unwanted) == []


#: a finder, first on sys.meta_path, that makes scipy unimportable
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
"""


@pytest.mark.parametrize("kind", ["spectrum", "oracle-check"])
def test_a_run_needs_no_scipy(kind, tmp_path):
    argv = RUNS[kind][0] + ["--output-dir", str(tmp_path)]
    done = _fresh(BLOCK_SCIPY + "import json\n"
                  "from mqcsim.cli import main\n"
                  f"code = main({argv!r})\n"
                  "print(json.dumps({'code': code,\n"
                  "                  'scipy': 'scipy' in sys.modules}))")
    assert done == {"code": 0, "scipy": False}


def test_sidecar_records_numpy_and_no_scipy(tmp_path):
    argv = RUNS["spectrum"][0] + ["--output-dir", str(tmp_path)]
    _fresh("import json\n"
           "from mqcsim.cli import main\n"
           f"assert main({argv!r}) == 0\n"
           "print(json.dumps(None))")
    environment = json.loads(
        (tmp_path / "spectrum.json").read_text())["environment"]
    assert environment["numpy"] == np.__version__
    assert environment["python"] == ".".join(map(str, sys.version_info[:3]))
    assert "scipy" not in environment
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert environment["blas"] == {"name": blas["name"],
                                   "version": blas["version"]}
    assert set(environment) == {"python", "numpy", "blas",
                                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}


def test_lazy_package_names_resolve():
    resolved = _fresh(
        "import json, sys\n"
        "import mqcsim\n"
        "eager = 'mqcsim.oracle' in sys.modules\n"
        "from mqcsim import monte_carlo_spectrum\n"
        "from mqcsim.oracle import monte_carlo_spectrum as oracle_mc\n"
        "same = monte_carlo_spectrum is oracle_mc\n"
        "missing = [n for n in mqcsim.__all__ if not hasattr(mqcsim, n)]\n"
        "sys.path.insert(0, 'tests')\n"
        "from transient import OracleRun, time_domain_evolve\n"
        "print(json.dumps({'eager': eager, 'same': same, "
        "'missing': missing, 'scipy': 'scipy' in sys.modules}))")
    assert resolved == {"eager": False, "same": True, "missing": [],
                        "scipy": False}
