"""tools/scan_digest.py prints the same digests in every process, and the
frozen ones on its UT2(GF(3)) and GF(3)^2 subset."""

import hashlib
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ARGV = [sys.executable, str(ROOT / "tools" / "scan_digest.py"),
        "--only", "UT2(GF(3))", "--only", "K^2'/GF(3)"]
# the last line of ARGV's output; a change here is a change in scan results
FROZEN = "cc40a9237ec0bd23b83c4c2508cfec26d93a9aee6dbf3a7ce1f2ab495c0dd469  all 25"


def _digests(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(ARGV, cwd=ROOT, env=env, capture_output=True, text=True,
                          check=True).stdout


def test_digests_do_not_depend_on_the_process():
    # set and dict orders change with the hash seed; the digests must not
    out = _digests("0")
    assert _digests("1") == out
    *rows, total = out.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", row) for row in rows)
    labels = [row.split("  ", 1)[1] for row in rows]
    # UT2(GF(3)), then the seeded copies of GF(3)^2 in rounds 0-2 at both seeds
    assert labels[0] == "UT2(GF(3))"
    assert len(labels) == 25 and all(re.fullmatch(r"tensor-scan (424242|31337):[012] #\d+ "
                                                  r"K\^2'/GF\(3\)", label)
                                     for label in labels[1:])
    assert total == "%s  all 25" % hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert total == FROZEN
