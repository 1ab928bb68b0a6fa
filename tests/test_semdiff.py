"""The semantic report comparator in ``tools/semdiff.py``."""
import json
import shutil
import sys
from pathlib import Path

import pytest

from dgame import cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import semdiff  # noqa: E402

LANE = str(ROOT / "problems" / "lane_keeping.json")


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    """A report tree of lane's identified forward solve and its inverse."""
    root = tmp_path_factory.mktemp("tree")
    codes = {
        "forward": cli.main(["forward", LANE, "--costs", "identified", "--starts", "8",
                             "--out", str(root / "forward.json")]),
        "inverse": cli.main(["inverse", LANE, "--starts", "8",
                             "--out", str(root / "inverse.json")]),
    }
    (root / "exit_codes.json").write_text(json.dumps(codes))
    return root


def _edited(tree, tmp_path, name, edit):
    """A copy of the tree whose report ``name`` went through ``edit``."""
    new = tmp_path / "new"
    shutil.copytree(tree, new)
    report = json.loads((new / name).read_text())
    edit(report)
    (new / name).write_text(json.dumps(report))
    return new


def test_identical_trees_pass(tree, capsys):
    assert semdiff.main([str(tree), str(tree)]) == 0
    assert "0 moved field(s)" in capsys.readouterr().out


def test_flipped_verdict_fails(tree, tmp_path):
    def flip(report):
        report["behaviors"]["matches"][0] = not report["behaviors"]["matches"][0]

    diff = semdiff.semdiff(str(tree), str(_edited(tree, tmp_path, "inverse.json", flip)))
    assert diff.failed
    assert any(line.startswith("FAIL inverse.json:/behaviors/matches/0") for line in diff.lines)


def test_changed_solution_count_fails(tree, tmp_path):
    diff = semdiff.semdiff(str(tree), str(_edited(
        tree, tmp_path, "forward.json", lambda report: report["forward"].pop())))
    assert diff.failed


def test_changed_exit_code_fails(tree, tmp_path):
    diff = semdiff.semdiff(str(tree), str(_edited(
        tree, tmp_path, "exit_codes.json", lambda codes: codes.update(forward=3))))
    assert diff.failed


@pytest.mark.parametrize("move, fails", [(1e-6, True), (1e-12, False)])
def test_gain_moves_are_judged_relative_to_the_gain(tree, tmp_path, move, fails):
    def nudge(report):
        f = report["forward"][0]["f_star"]
        f[0][0] += move * max(abs(v) for row in f for v in row)

    diff = semdiff.semdiff(str(tree), str(_edited(tree, tmp_path, "forward.json", nudge)))
    assert diff.failed is fails
    assert diff.lines and "/forward/0/f_star" in diff.lines[0]


def test_spectrum_bound_scales_with_the_loop(tree, tmp_path):
    # a move of 1e-9 relative fails without the loop, and passes once the
    # loop's norm and eigenvalue conditioning say it is rounding
    def nudge(report):
        pair = report["forward"][0]["spectrum"][0]
        pair[0] *= 1.0 + 1e-9

    new = _edited(tree, tmp_path, "forward.json", nudge)
    assert semdiff.semdiff(str(tree), str(new)).failed
    loop = [[1e3, 1e4], [0.0, 1.0]]
    (new / "forward.loops.json").write_text(json.dumps({"/forward/0/spectrum": loop}))
    assert not semdiff.semdiff(str(tree), str(new)).failed


def test_margins_may_rise_but_not_fall(tree, tmp_path):
    def scale(factor):
        def edit(report):
            report["inverse"]["players"][0]["pd_margin"] *= factor
        return edit

    assert not semdiff.semdiff(str(tree), str(_edited(
        tree, tmp_path / "up", "inverse.json", scale(1.5)))).failed
    assert semdiff.semdiff(str(tree), str(_edited(
        tree, tmp_path / "down", "inverse.json", scale(0.5)))).failed


def test_start_names_and_step_counts_are_informational(tree, tmp_path):
    def relabel(report):
        report["forward"][0]["start"] = "seeded-raw-99"
        report["forward"][0]["iterations"] += 5

    diff = semdiff.semdiff(str(tree), str(_edited(tree, tmp_path, "forward.json", relabel)))
    assert not diff.failed and len(diff.lines) == 2


def test_text_files_compare_numbers_with_tolerance(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir(), new.mkdir()
    (old / "out.txt").write_text("gain [1.0 2.5]\nok: True\n")
    (new / "out.txt").write_text("gain [1.0000000000001 2.5]\nok: True\n")
    assert not semdiff.semdiff(str(old), str(new)).failed
    (new / "out.txt").write_text("gain [1.0001 2.5]\nok: True\n")
    assert semdiff.semdiff(str(old), str(new)).failed
    (new / "out.txt").write_text("gain [1.0 2.5]\nok: False\n")
    assert semdiff.semdiff(str(old), str(new)).failed
