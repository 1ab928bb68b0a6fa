"""Semantic diff of two report trees.

    python tools/semdiff.py OLD_DIR NEW_DIR

Compares every file of the two trees (same relative paths) by what the
numbers mean rather than by their bytes, prints each field that moved
with its old and new values, and exits 1 when a move breaks a rule:

* integers, booleans and strings must be equal: exit codes, solution
  and behavior counts, verdicts, kernel dimensions, ``matches``; so must
  the length of every list;
* ``spectrum``, ``spectra`` and ``finite_spectrum`` entries must agree to
  ``SPECTRUM_TOL`` kappa |A|_2 per eigenvalue, kappa its condition number
  from ``scipy.linalg.eig`` with left vectors, when ``NAME.loops.json``
  beside ``NAME.json`` holds the closed loop A under the spectrum's path
  (else kappa = 1 and max|lambda| stands in for |A|_2);
* ``pd_margin`` must be equal to ``NUMBER_TOL`` relative, or higher;
* the start names, Newton step counts and residuals in ``INFORMATIONAL``
  may move freely (they are printed, not judged);
* every other number, gains ``f_star`` first, must agree to
  ``NUMBER_TOL`` relative to the max-norm of the array it sits in.

Files that are not JSON are split into tokens; numeric tokens must agree
to ``NUMBER_TOL`` relative to max(1, |old|, |new|), the others be equal.
Each token that breaks this is printed; the moves within it are counted
in one line per file, with the largest.  A file in only one tree is a
failure.
"""
from __future__ import annotations

import json
import os
import re
import sys

import numpy as np
import scipy.linalg as sla

NUMBER_TOL = 1e-8
SPECTRUM_TOL = 1e-10
SPECTRA = {"spectrum", "spectra", "finite_spectrum"}
MARGINS = {"pd_margin"}
INFORMATIONAL = {"start", "iterations", "residual_max", "residual", "ode_residual",
                 "descriptor_residuals"}
_TOKEN = re.compile(r"[\s,;()\[\]{}]+")


class Diff:
    """The moved fields of one comparison and whether any broke a rule."""

    def __init__(self):
        self.lines: list[str] = []
        self.failed = False

    def moved(self, path: str, old, new, ok: bool, note: str = "") -> None:
        self.failed |= not ok
        tag = "moved" if ok else "FAIL"
        self.lines.append(f"{tag} {path}: {old!r} -> {new!r}{note}")


def _array(value):
    """A float array from nested JSON lists, or None (also for integers
    and booleans, which are compared exactly)."""
    try:
        arr = np.array(value)
    except ValueError:
        return None
    return arr if arr.size and arr.dtype.kind == "f" else None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _conditions(a, eigs):
    """Per eigenvalue of ``eigs``: kappa |A|_2 from the loop ``a``."""
    a = np.array(a, dtype=float)
    w, vl, vr = sla.eig(a, left=True, right=True)
    kappa = 1.0 / np.maximum(np.abs(np.einsum("ij,ij->j", vl.conj(), vr)), 1e-300)
    nearest = np.abs(eigs[:, None] - w[None, :]).argmin(axis=1)
    return kappa[nearest] * np.linalg.norm(a, 2)


def _compare_spectrum(diff, path, old, new, loop):
    lam_old = np.array([complex(*pair) for pair in old])
    lam_new = np.array([complex(*pair) for pair in new])
    if loop is None:
        scale = np.full(lam_old.shape, max(np.abs(lam_old).max(initial=0.0), 1e-300))
    else:
        scale = _conditions(loop, lam_old)
    for k, (a, b, s) in enumerate(zip(lam_old, lam_new, scale)):
        if a != b:
            ok = abs(a - b) <= SPECTRUM_TOL * s
            diff.moved(f"{path}/{k}", a, b, ok, f" (|d| {abs(a - b):.2e}, bound "
                                                 f"{SPECTRUM_TOL * s:.2e})")


def _compare_numbers(diff, path, old, new, key):
    a, b = np.array(old, dtype=float), np.array(new, dtype=float)
    if a.shape != b.shape:
        diff.moved(path, old, new, False, " (shape)")
        return
    if np.array_equal(a, b):
        return
    gap = float(np.abs(a - b).max())
    if key in INFORMATIONAL:
        diff.moved(path, old, new, True)
    elif key in MARGINS:
        diff.moved(path, old, new, bool(np.all(b >= a - NUMBER_TOL * np.abs(a))))
    else:
        ok = gap <= NUMBER_TOL * float(np.abs(a).max())
        diff.moved(path, old, new, ok, f" (max |d| {gap:.2e})")


def compare_json(diff, path, old, new, loops, key=""):
    """Walk two parsed reports side by side."""
    if key in SPECTRA and isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            what = "spectrum count" if key == "spectra" else "eigenvalue count"
            diff.moved(path, len(old), len(new), False, f" ({what})")
        elif key == "spectra":
            for k, (a, b) in enumerate(zip(old, new)):
                compare_json(diff, f"{path}/{k}", a, b, loops, "spectrum")
        else:
            _compare_spectrum(diff, path, old, new, loops.get(path.split(":", 1)[1]))
        return
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(set(old) | set(new)):
            if k not in old or k not in new:
                diff.moved(f"{path}/{k}", old.get(k), new.get(k), False, " (field)")
            else:
                compare_json(diff, f"{path}/{k}", old[k], new[k], loops, k)
        return
    if _array(old) is not None and _array(new) is not None:
        _compare_numbers(diff, path, old, new, key)
        return
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            diff.moved(path, len(old), len(new), key in INFORMATIONAL, " (length)")
            return
        for k, (a, b) in enumerate(zip(old, new)):
            compare_json(diff, f"{path}/{k}", a, b, loops, key)
        return
    if _is_number(old) and _is_number(new) and not (
            isinstance(old, int) and isinstance(new, int)):
        _compare_numbers(diff, path, old, new, key)
    elif old != new or type(old) is not type(new):
        diff.moved(path, old, new, key in INFORMATIONAL)


def _number(token):
    for kind in (float, complex):
        try:
            return kind(token)
        except ValueError:
            pass
    return None


def compare_text(diff, path, old: str, new: str):
    a, b = _TOKEN.split(old.strip()), _TOKEN.split(new.strip())
    if len(a) != len(b):
        diff.moved(path, f"{len(a)} tokens", f"{len(b)} tokens", False)
        return
    within, largest = 0, (0.0, "")
    for k, (s, t) in enumerate(zip(a, b)):
        if s == t:
            continue
        x, y = _number(s), _number(t)
        if x is None or y is None:
            diff.moved(f"{path}#{k}", s, t, False)
            continue
        gap = abs(x - y) / max(1.0, abs(x), abs(y))
        if gap > NUMBER_TOL:
            diff.moved(f"{path}#{k}", s, t, False)
        else:
            within += 1
            largest = max(largest, (gap, f"#{k}: {s!r} -> {t!r}"))
    if within:
        diff.lines.append(f"moved {path}: {within} number(s), largest "
                          f"{largest[1]} (relative {largest[0]:.2e})")


def _files(root):
    out = set()
    for base, _, names in os.walk(root):
        for name in names:
            if not name.endswith(".loops.json"):
                out.add(os.path.relpath(os.path.join(base, name), root))
    return out


def _loops(root, rel):
    path = os.path.join(root, rel[:-len(".json")] + ".loops.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def semdiff(old_dir: str, new_dir: str) -> Diff:
    diff = Diff()
    old_files, new_files = _files(old_dir), _files(new_dir)
    for rel in sorted(old_files ^ new_files):
        diff.moved(rel, rel in old_files, rel in new_files, False, " (file present)")
    for rel in sorted(old_files & new_files):
        with open(os.path.join(old_dir, rel)) as fa, open(os.path.join(new_dir, rel)) as fb:
            a, b = fa.read(), fb.read()
        if a == b:
            continue
        if rel.endswith(".json"):
            loops = {**_loops(new_dir, rel), **_loops(old_dir, rel)}
            compare_json(diff, f"{rel}:", json.loads(a), json.loads(b), loops)
        else:
            compare_text(diff, rel, a, b)
    return diff


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(os.path.isdir(d) for d in args):
        print("usage: semdiff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    diff = semdiff(*args)
    for line in diff.lines:
        print(line)
    print(f"semdiff: {len(diff.lines)} moved field(s), "
          + ("rule broken" if diff.failed else "all within the rules"))
    return 1 if diff.failed else 0


if __name__ == "__main__":
    sys.exit(main())
