"""Output checks whose failures count against ``failed`` in the result.

The tolerances are the ones the library documents for each finder; they are
written out here rather than imported, so that a change to the library's
constants cannot loosen the benchmark's checks.
"""

from __future__ import annotations

import csv
import io

import numpy as np
from replicator_lab.model_core import State, step_full

#: Documented residual bound of every reported equilibrium and 2-cycle.
RESIDUAL_TOL = 1e-10
#: Documented residual bound of ``find_diagonal_equilibria`` roots.
DIAGONAL_REFINE_TOL = 1e-12
#: Distance under which two reported points are the same point.
MERGE_TOL = 1e-6

#: Outcome codes: ToGG, ToBB, ToGB, ToBG, NonConvergent.
NON_CONVERGENT = 4
#: Code of each outcome after swapping the two firms (ToGB <-> ToBG).
SWAP_CODES = np.array([0, 1, 3, 2, 4], dtype=np.uint8)
#: Basin image palette, indexed by outcome code (README: CLI outputs).
PALETTE = ((0, 160, 0), (139, 69, 19), (230, 200, 0), (40, 90, 200), (128, 128, 128))


def swap_symmetric(cells: np.ndarray) -> bool:
    """``cells[j, i] == swap(cells[i, j])`` for every cell, exactly."""
    return bool(np.array_equal(cells.T, SWAP_CODES[cells]))


def fractions_sum_to_one(fractions) -> bool:
    return abs(sum(fractions) - 1.0) <= 1e-12


def decode_ppm(data: bytes) -> np.ndarray:
    """Outcome codes of a basin PPM, indexed like ``BasinRaster.cells``.

    Image rows run top-down along decreasing eta2 and columns along eta1.
    Raises ValueError on a malformed image or an unknown colour.
    """
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P6" or parts[2] != b"255":
        raise ValueError("not a binary 8-bit PPM")
    width, height = (int(v) for v in parts[1].split())
    pixels = np.frombuffer(parts[3], dtype=np.uint8)
    if width != height or pixels.size != width * height * 3:
        raise ValueError(f"bad PPM size {width}x{height} with {pixels.size} bytes")
    rgb = pixels.reshape(height, width, 3).astype(np.int32)
    key = (rgb[..., 0] << 16) | (rgb[..., 1] << 8) | rgb[..., 2]
    image = np.full(key.shape, 255, dtype=np.uint8)
    for code, (r, g, b) in enumerate(PALETTE):
        image[key == ((r << 16) | (g << 8) | b)] = code
    if (image == 255).any():
        raise ValueError("PPM holds a colour outside the basin palette")
    return image[::-1, :].T.copy()


def cycle_residual(params, a: float, b: float) -> float:
    """Defect of the diagonal 2-cycle {a, b}: max(|g(a) - b|, |g(b) - a|)."""
    return max(abs(step_full(params, State(a, a)).eta1 - b),
               abs(step_full(params, State(b, b)).eta1 - a))


def read_csv(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def fixed_point_residual(params, eta1: float, eta2: float) -> float:
    """Max-norm one-step defect of the full map at (eta1, eta2)."""
    nxt = step_full(params, State(eta1, eta2))
    return max(abs(nxt.eta1 - eta1), abs(nxt.eta2 - eta2))
