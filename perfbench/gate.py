"""Comparison of an op's outputs with reference outputs recorded at one seed.

An op's outputs are ``{"values": {key: [float, ...]}, "classes": {key: ...}}``.
Classes (per-point flags and gaps with their numbers masked, argmins,
counts) must match exactly.  Values must have NaN and infinities in the
same places, and every finite value must satisfy

    |got - ref| <= rtol * max(|ref|, 1e-3 * max |ref| over its array),

so points where a curve crosses zero are held to its overall scale.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
RTOL = 1e-6
_SCALE_FLOOR = 1e-3


def normalise(outputs: dict) -> dict:
    """The outputs as they read back from JSON (tuples to lists, keys to str)."""
    return json.loads(json.dumps(outputs))


def load_reference(workload: str, seed: int, scale: str) -> dict | None:
    if seed != DEFAULT_SEED or scale != "full":
        return None
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text())


def _same_nonfinite(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


def compare(outputs: dict, reference: dict, rtol: float = RTOL) -> list[str]:
    problems = []
    got_c, ref_c = outputs["classes"], reference["classes"]
    for key in sorted(set(got_c) | set(ref_c)):
        if got_c.get(key) != ref_c.get(key):
            problems.append(f"{key}: {got_c.get(key)!r} != reference {ref_c.get(key)!r}")
    got_v, ref_v = outputs["values"], reference["values"]
    for key in sorted(set(got_v) | set(ref_v)):
        got, ref = got_v.get(key), ref_v.get(key)
        if got is None or ref is None or len(got) != len(ref):
            problems.append(f"{key}: shape differs from reference")
            continue
        finite = [abs(r) for r in ref if math.isfinite(r)]
        floor = _SCALE_FLOOR * max(finite, default=0.0)
        for j, (g, r) in enumerate(zip(got, ref)):
            if math.isfinite(r):
                ok = math.isfinite(g) and abs(g - r) <= rtol * max(abs(r), floor)
            else:
                ok = _same_nonfinite(g, r)
            if not ok:
                problems.append(f"{key}[{j}]: {g!r} vs reference {r!r}")
                break
    return problems
