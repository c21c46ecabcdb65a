"""The assembled numbers against the committed reference, tests/reference.json.

Levels 1 and 2 of three cases are recomputed (see tests/make_reference.py)
and every array that moved is named.  In the environment the file was
written in the digests must match, so one ulp anywhere fails; elsewhere the
largest |entry| and the Frobenius norm must agree to 1e-12 relative.
"""

import json

import numpy as np

import make_reference as ref

RTOL = 1e-12


def _moved(want: dict, got: dict, exact: bool) -> list:
    moved = sorted(set(want) ^ set(got))
    for name in sorted(set(want) & set(got)):
        w, g = want[name], got[name]
        if w["shape"] != g["shape"]:
            moved.append(name)
        elif exact:
            if w["sha256"] != g["sha256"]:
                moved.append(name)
        elif not all(np.isclose(g[k], w[k], rtol=RTOL, atol=0.0)
                     for k in ("max_abs", "frobenius")):
            moved.append(name)
    return moved


def test_assembled_numbers_match_the_reference():
    want = json.loads(ref.REFERENCE.read_text())
    got = ref.reference()
    exact = got["environment"] == want["environment"]
    moved = _moved(want["arrays"], got["arrays"], exact)
    how = "digests" if exact else f"norms to {RTOL:g} relative"
    assert not moved, f"moved ({how}): " + ", ".join(moved)


def test_the_comparison_names_what_moved():
    # One ulp in one entry changes the digest but not the norms at 1e-12;
    # a changed norm is named in either mode.
    a = np.linspace(0.5, 2.0, 12).reshape(3, 4)
    b = a.copy()
    b[1, 2] = np.nextafter(b[1, 2], np.inf)
    c = a * (1.0 + 1e-9)
    want = {"x/matrix": ref.summary(a), "x/rhs": ref.summary(a[0])}
    ulp = {"x/matrix": ref.summary(b), "x/rhs": ref.summary(a[0])}
    scaled = {"x/matrix": ref.summary(c), "x/rhs": ref.summary(a[0])}
    assert _moved(want, ulp, exact=True) == ["x/matrix"]
    assert _moved(want, ulp, exact=False) == []
    assert _moved(want, scaled, exact=False) == ["x/matrix"]
    assert _moved(want, {"x/matrix": ref.summary(a)}, exact=True) == ["x/rhs"]
