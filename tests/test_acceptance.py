"""The acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
The criteria are implemented in bblab.acceptance and shared with the
``bblab verify-paper`` CLI verb.

Criterion 3 asserts that separating (1/2, 1/2) from P_2 takes exactly 3
leaves at every coefficient bound M = 1, 2, 3.  The paper's bound
2^(floor(n/2)+1) - 1 counts nodes (3 nodes, i.e. 2 leaves, at n = 2); the
stronger "more than 3 leaves" reading is false, since a 3-leaf tree whose
atoms are {(1/2, 0)} plus two empties separates.  The README's acceptance
section has the analysis.
"""

from bblab import acceptance

_registry = []
_RESULTS = {}


def _run(idx):
    label, fn = acceptance.CRITERIA[idx - 1]
    if idx not in _RESULTS:
        _RESULTS[idx] = fn(_registry)
    ok, msg = _RESULTS[idx]
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} criterion {idx:2d} [{label}]: {msg}")
    assert ok, f"criterion {idx} [{label}]: {msg}"


def test_criterion_01_cross_polytope_tightness():
    _run(1)


def test_criterion_02_bounded_minimal_trees():
    _run(2)


def test_criterion_03_separation_hardness_as_stated():
    _run(3)


def test_criterion_04_packing_cover_criticality():
    _run(4)


def test_criterion_05_facet_rank():
    _run(5)


def test_criterion_06_set_cover_reduction():
    _run(6)


def test_criterion_07_simulation_lemma():
    _run(7)


def test_criterion_08_perturbed_cross_polytope():
    _run(8)


def test_criterion_09_shattering_and_entropy():
    _run(9)


def test_criterion_10_tsp_desk_scale():
    _run(10)


def test_criterion_11_certificate_replay():
    # depends on artifacts registered by earlier criteria
    for idx in (1, 3, 4, 10):
        if idx not in _RESULTS:
            _RESULTS[idx] = acceptance.CRITERIA[idx - 1][1](_registry)
    _run(11)
