"""tools/same_results.py gives the same scan digests in every process, and
the frozen ones on UT2(GF(3)) and the seeded copies of GF(3)^2 that
tensor-scan scans."""

ONLY = ["UT2(GF(3))", "K^2'/GF(3)"]
# their digests; a change here is a change in scan results
FROZEN = {
    "scans": "a53ec6606cd464ebd3abbd46420c4312fbbe761c68720c5c791d72b6b9e10875",
    "tensor-scan": "27120cea1d14e925c0d92af5e489e038685d94659c6c8e8968a0f2914299e0e6",
}


def test_digests_do_not_depend_on_the_process(self_compare):
    assert self_compare(ONLY) == (0, [
        "equal   %s  %s" % (digest, name) for name, digest in FROZEN.items()])
