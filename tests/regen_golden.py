"""Print the golden-digest tables of tests/test_acceptance.py, computed
from the current code, in the literal form that module holds them:

    python tests/regen_golden.py > golden.txt

GOLDEN_REPORTS and GOLDEN_DUAL_STDOUT are recomputed for the commands the
module lists, GOLDEN_CERTIFICATES for its FAMILIES.  While the code keeps
every report byte-identical the output is the committed tables, verbatim;
after a deliberate change to a report's bytes it is what replaces them.
"""

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, os.pardir, "src"), HERE]

import test_acceptance as golden  # noqa: E402


def render(name, table):
    """The source text of the dict literal `name = {...}` of a golden
    table: each key on its line, its value on the next."""
    lines = [name + " = {"]
    for key, value in table.items():
        if isinstance(value, tuple):
            value = '(%d, "%s")' % value
        else:
            value = '"%s"' % value
        lines += ['    "%s":' % key, "        " + value + ","]
    return "\n".join(lines + ["}"])


def tables():
    """The three golden tables, recomputed, in their module's order."""
    reports, stdout = {}, {}
    with tempfile.TemporaryDirectory() as scratch:
        for command in golden.GOLDEN_REPORTS:
            code, report, out = golden.command_digests(
                command, os.path.join(scratch, "report.json"))
            reports[command] = (code, report)
            if command in golden.GOLDEN_DUAL_STDOUT:
                stdout[command] = out
    certificates = {name: golden.certificate_digest(
        golden.duality_report(make())) for name, make in golden.FAMILIES}
    return {"GOLDEN_CERTIFICATES": certificates, "GOLDEN_REPORTS": reports,
            "GOLDEN_DUAL_STDOUT": stdout}


def main():
    print("\n\n".join(render(name, table)
                      for name, table in tables().items()))


if __name__ == "__main__":
    main()
