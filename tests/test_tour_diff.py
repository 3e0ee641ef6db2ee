"""tools/same_results.py on the README tour: the commands it reads, and one
checkout against itself on two of them."""

import hashlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
# two quick commands, one of them reading a candidate file
ONLY = ["group monoid --group s3.json",
        "algebra check-endo --algebra m2f2.json --candidate cand.json"]
# their digests; a change here is a change in results
FROZEN = {
    "tour": "e41a1c9a06aed806e24dc84c79095f1f42639b84f34319c376fe6f60e72150ab",
    "tour-hashes": "95c5e59077d4a730543ba558981ffb3f78517434f8a9c5756c2fdd5916c85488",
}


def test_tour_diff_of_a_checkout_with_itself(same_results, self_compare):
    readme = (ROOT / "README.md").read_text()
    commands = same_results.tour_commands(readme)
    assert len(commands) == 21 and ["selftest"] in commands
    assert set(same_results.candidate_files(readme)) == {"cand.json", "deriv.json", "pair.json"}
    assert self_compare(ONLY) == (0, ["equal   %s  %s" % (digest, name)
                                      for name, digest in FROZEN.items()])


def test_the_tour_hashes_are_the_ones_the_cli_tour_freezes(same_results):
    records = [[ONLY[0], "751dc61094973aaefd4dec678df773d18a2782687f27f6ef221a5dbfba8ec9af"],
               [ONLY[1], "56b35fdbd1391ca5ce261ce4b247be07ddbec8050cffa214c95a993cffc85fc0"]]
    text = "\n".join(map(same_results._text, records))
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN["tour-hashes"]
