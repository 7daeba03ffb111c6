"""Output checks applied to every workload run of the benchmark.

``fig4`` is compared series by series with reference values captured
from the package before any optimisation (``fig4_reference.npz``).  Each
series is held to a relative tolerance of its own peak, so the weak
one-quantum x channel (about 4e-5 of the y channel) is checked on its
own scale, with an absolute floor taken from the largest series of the
same demodulation order, so series that are zero up to roundoff (one-
quantum perpendicular, about 1e-17; two-quantum perpendicular with
gamma -> 0, about 1e-24) do not fail on noise.

``oracle_check`` is a validation suite: a run passes when it exits 0 and
every line of its report reads ``PASS``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("fig4_reference.npz")

#: relative tolerance against a series' own peak; leaves room for exact
#: pole-residue evaluation, which matched the chain to 3e-12
RTOL = 1e-9

#: absolute floor as a share of the largest peak of the same kappa,
#: about 45 units of roundoff
FLOOR = 1e-14

FIG4_SERIES = tuple(
    f"spectrum_k{kappa}_{channel}_{direction}{suffix}"
    for suffix in ("", "_gamma0") for kappa in (1, 2)
    for channel in ("parallel", "perpendicular") for direction in ("x", "y"))


def read_series(path) -> tuple:
    """Detuning grid and complex values of one spectrum TSV."""
    lines = [line for line in Path(path).read_text().splitlines()
             if not line.startswith("# ")]
    names = lines[0].split("\t")
    data = np.array([[float(v) for v in line.split("\t")]
                     for line in lines[1:]]).reshape(-1, len(names))
    column = dict(zip(names, data.T))
    return (column["omega_detuning_over_gamma"],
            column["Re_S"] + 1j * column["Im_S"])


def load_reference() -> dict:
    with np.load(REFERENCE, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def fig4_problems(directory, reference: dict) -> list:
    """Differences of a fig4 output directory from the reference."""
    problems = []
    kappa_of = lambda name: name[len("spectrum_k")]
    kappa_peak = {}
    for name in FIG4_SERIES:
        peak = float(np.max(np.abs(reference[name])))
        kappa_peak[kappa_of(name)] = max(kappa_peak.get(kappa_of(name), 0.0),
                                         peak)
    for name in FIG4_SERIES:
        path = Path(directory) / f"{name}.tsv"
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        grid, values = read_series(path)
        expected = reference[name]
        if grid.shape != reference["detunings"].shape or values.shape \
                != expected.shape:
            problems.append(f"{name}: {values.size} points, expected "
                            f"{expected.size}")
            continue
        if not np.array_equal(grid, reference["detunings"]):
            problems.append(f"{name}: detuning grid differs")
        tolerance = max(RTOL * float(np.max(np.abs(expected))),
                        FLOOR * kappa_peak[kappa_of(name)])
        error = float(np.max(np.maximum(np.abs(values.real - expected.real),
                                        np.abs(values.imag - expected.imag))))
        if not error <= tolerance:
            problems.append(f"{name}: max error {error:.3e} exceeds "
                            f"{tolerance:.3e}")
    return problems


def report_problems(path) -> list:
    """FAIL lines, or a missing report, of a validation-suite run."""
    path = Path(path)
    if not path.is_file():
        return [f"{path.name}: missing"]
    lines = [line for line in path.read_text().splitlines()
             if line and not line.startswith("# ")
             and not line.startswith("seed = ")]
    if not lines:
        return [f"{path.name}: no report lines"]
    return [f"{path.name}: {line}" for line in lines
            if not line.startswith("PASS ")]


def run_problems(exit_code: int, stderr: str) -> list:
    """Problems every workload run is checked for, whatever it computes."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    return problems


def capture_reference(directory) -> None:
    """Store the series of a fig4 output directory as the reference.

    This is how ``fig4_reference.npz`` was made, from a
    ``spectrum --preset fig4`` run of the package before any
    optimisation; run it again only to re-base the check on purpose.
    """
    arrays = {}
    for name in FIG4_SERIES:
        grid, arrays[name] = read_series(Path(directory) / f"{name}.tsv")
        arrays["detunings"] = grid
    np.savez_compressed(REFERENCE, **arrays)
