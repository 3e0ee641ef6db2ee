"""tools/tour_diff.py on one checkout against itself."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location("tour_diff", ROOT / "tools" / "tour_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tour_diff_of_a_checkout_with_itself(monkeypatch, capsys):
    tour = _load_tool()
    readme = (ROOT / "README.md").read_text()
    commands = tour.tour_commands(readme)
    assert len(commands) == 21 and ["selftest"] in commands
    assert set(tour.candidate_files(readme)) == {"cand.json", "deriv.json", "pair.json"}
    # two quick commands, one of them reading a candidate file
    picked = [argv for argv in commands if argv[:2] in (["group", "monoid"],
                                                        ["algebra", "check-endo"])]
    monkeypatch.setattr(tour, "tour_commands", lambda text: picked)
    assert tour.main(["--old", str(ROOT), "--new", str(ROOT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines[:2]] == [
        ["equal", "751dc61094973aae", "751dc61094973aae"],
        ["equal", "56b35fdbd1391ca5", "56b35fdbd1391ca5"]]
    assert lines[2] == "2 commands: 2 with equal verdicts, 2 with equal hashes"
