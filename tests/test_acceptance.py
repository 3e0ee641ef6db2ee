"""One verdict line per headline check; the whole battery must be green.

One test per entry of acceptance.CHECKS, named test_<check name> with
dashes as underscores, so a new check is covered without a new function.
Run with -s to see the verdict lines for passing checks too; pytest
prints them on its own whenever a check fails.
"""

from innerscope import acceptance


def _verdict_test(name, check):
    def test():
        passed, detail = check()
        print("%s %s: %s" % ("PASS" if passed else "FAIL", name, detail))
        assert passed, detail
    test.__name__ = "test_" + name.replace("-", "_")
    return test


for _name, _check in acceptance.CHECKS:
    _test = _verdict_test(_name, _check)
    globals()[_test.__name__] = _test
