"""tools/same_results.py: a tree against itself on the perfbench
workloads, and how a difference is reported. The README tour and the scans
are tested in test_tour_diff.py and test_scan_digest.py."""

import hashlib
import json
import subprocess

# Request 1 of round 0 at seed 424242 of each workload, and its digests; a
# change here is a change in results.
ONLY = ["424242:0 #1 "]
FROZEN = {
    "tensor-scan": "8ebbf710e3c75ded2863c3e16405a182693f46656861a2cc925f607587b97999",
    "word-stream": "e5a5494108cfcd5edc9ef900380dff8b7fea32b2d324e207262967d8c8754ef7",
    "nf-stream": "5cf68cc27edc4b17b379972fa206e491ccc264515478471a8c7241aa3ef95694",
    "verb-mix": "38dd34333576e05568a8bd4ccef7bd2d3fb1dc7939dbbbe1fe59ca6229a29f55",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_a_tree_equals_itself_under_two_hash_seeds(self_compare):
    assert self_compare(ONLY) == (0, ["equal   %s  %s" % (digest, name)
                                      for name, digest in FROZEN.items()])


def test_a_doctored_record_is_reported(same_results, monkeypatch, capsys):
    record = '["group monoid --group s3.json",0,[{"name":"size","pass":true,"value":7}]]'
    long_record = '["embed verify",[%s]]' % ",".join(["0"] * 400)
    old = {"tour": [record, record], "scans": ["[]"], "verb-mix": [long_record]}
    new = {"tour": [record, record.replace("7", "8")], "scans": ["[]"],
           "verb-mix": [long_record.replace("0]]", "1]]")]}
    outputs = iter([json.dumps(old), json.dumps(new)])

    class Child:
        returncode = 0

        def __init__(self, argv, **kwargs):
            self.out = next(outputs)

        def communicate(self):
            return self.out, None

    monkeypatch.setattr(subprocess, "Popen", Child)
    assert same_results.main(["old", "new"]) == 1
    out = capsys.readouterr().out.splitlines()
    cut = long_record[:200] + " ... " + long_record[len(long_record) - 103:]
    assert out == ["DIFFER  tour  record 1",
                   "  old: " + record, "  new: " + record.replace("7", "8"),
                   "equal   %s  scans" % _sha("[]"),
                   "DIFFER  verb-mix  record 0",
                   "  old: " + cut, "  new: " + cut[:-3] + "1]]"]
    outputs = iter([json.dumps(old)])
    assert same_results.main(["old"]) == 0
    lines = ["%s  %s" % (_sha("\n".join(records)), name) for name, records in old.items()]
    assert capsys.readouterr().out.splitlines() == lines + ["%s  all 3" % _sha("\n".join(lines))]
