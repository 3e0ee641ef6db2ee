"""tools/hotspots.py on one nf-stream round."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = {path.stem for path in (ROOT / "src" / "innerscope").glob("*.py")}


def test_one_nf_stream_round_prints_both_sections(load_tool, capsys):
    tool = load_tool("hotspots")
    assert tool.main(["--workload", "nf-stream", "--rounds", "1", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.match(r"# nf-stream: 1 round\(s\) at seed 1, [\d.]+ s in requests under cProfile,"
                    r" 0 failed request\(s\)$", lines[0])
    titles = [i for i, line in enumerate(lines) if line.startswith("# top ")]
    assert [lines[i] for i in titles] == ["# top %d innerscope functions by %s time" % (tool.TOP, t)
                                          for t in ("self", "cumulative")]
    self_rows = [line.split() for line in lines[titles[0] + 2:titles[1]]]
    cum_rows = [line.split() for line in lines[titles[1] + 2:]]
    for rows in (self_rows, cum_rows):
        assert 0 < len(rows) <= tool.TOP
        for calls, self_s, cum_s, share, name in rows:
            assert int(calls) > 0 and float(self_s) <= float(cum_s) and share.endswith("%")
            assert re.fullmatch(r"\w+\.[\w<>]+:\d+", name) and name.split(".")[0] in MODULES
    assert [float(r[1]) for r in self_rows] == sorted((float(r[1]) for r in self_rows), reverse=True)
    assert [float(r[2]) for r in cum_rows] == sorted((float(r[2]) for r in cum_rows), reverse=True)
    # nf-stream's requests are normal forms
    assert any(r[-1].startswith("rewrite.normal_form:") for r in cum_rows)


def test_selftest_prints_each_checks_best_and_worst(load_tool, monkeypatch, capsys):
    # two cheap checks of the selftest, then a failing one, each run --rounds times
    from innerscope import acceptance
    from innerscope.errors import Verdict

    tool = load_tool("hotspots")
    runs = []

    def broken():
        runs.append(1)
        return Verdict(False, "broken on purpose")

    checks = [c for c in acceptance.CHECKS if c[0] in ("endo-monoid", "leavitt-pair")]
    monkeypatch.setattr(acceptance, "CHECKS", checks)
    assert tool.main(["--selftest", "--rounds", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["# selftest: each acceptance check run 3 time(s), best and worst wall time",
                         "   best_ms   worst_ms   ok  check"]
    rows = [line.split() for line in lines[2:]]
    assert [row[3] for row in rows] == ["endo-monoid", "leavitt-pair"]
    for best, worst, ok, _ in rows:
        assert 0 <= float(best) <= float(worst) and ok == "yes"
    monkeypatch.setattr(acceptance, "CHECKS", checks + [("broken", broken, None)])
    assert tool.main(["--selftest", "--rounds", "2"]) == 1
    assert runs == [1, 1]
    assert capsys.readouterr().out.splitlines()[-1].split()[2:] == ["NO", "broken"]
