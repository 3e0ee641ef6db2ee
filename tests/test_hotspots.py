"""tools/hotspots.py on one nf-stream round."""

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "hotspots.py"
MODULES = {path.stem for path in (ROOT / "src" / "innerscope").glob("*.py")}


def _load_tool():
    spec = importlib.util.spec_from_file_location("hotspots", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_nf_stream_round_prints_both_sections(capsys):
    tool = _load_tool()
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
