"""Re-record the golden digests of ``test_cli.py`` and ``test_estimate_digests.py``.

    PYTHONPATH=src python tests/record_cli_digests.py

Recomputes every ``CLI_DIGESTS``, ``PEIERLS_DIGESTS`` and
``ESTIMATE_DIGESTS`` entry in process, through ``cli.main`` and the tests'
own ``_cli_digest``, ``_peierls_digest`` and ``_estimate_digest``, and
prints only the entries whose digest differs, as
table lines to paste over the old ones; a count goes to stderr.  It edits
no file: an intended output change is pasted by hand, and CHANGES.md lists
the re-recorded entries with the reason.
"""

import io
import json
import sys
from types import SimpleNamespace

import pytest

import test_cli
import test_estimate_digests


class _Capture:
    """The part of pytest's ``capsys`` the digests use."""

    def __init__(self, monkeypatch):
        self._mp = monkeypatch
        self._swap()

    def _swap(self):
        for name in ("stdout", "stderr"):
            self._mp.setattr(sys, name, io.StringIO())

    def readouterr(self):
        """What was written to stdout and stderr since the last call."""
        read = SimpleNamespace(out=sys.stdout.getvalue(), err=sys.stderr.getvalue())
        self._swap()
        return read


def _doc_name(doc):
    names = (name for name, value in vars(test_cli).items() if value is doc and name.isupper())
    return next(names, repr(doc))


def main():
    mp = pytest.MonkeyPatch()
    changed = []
    try:
        cap = _Capture(mp)
        for argv, doc, digest in test_cli.CLI_DIGESTS:
            new = test_cli._cli_digest(argv, doc, mp, cap)
            if new != digest:
                changed.append(f'    ({json.dumps(argv)}, {_doc_name(doc)},\n     "{new}"),')
        for cmd, digest in test_cli.PEIERLS_DIGESTS.items():
            new = test_cli._peierls_digest(cmd, cap)
            if new != digest:
                changed.append(f'    "{cmd}":\n        "{new}",')
        for name, digest in test_estimate_digests.ESTIMATE_DIGESTS.items():
            new = test_estimate_digests._estimate_digest(name)
            if new != digest:
                changed.append(f'    "{name}":\n        "{new}",')
    finally:
        mp.undo()
    for line in changed:
        print(line)
    total = sum(map(len, (test_cli.CLI_DIGESTS, test_cli.PEIERLS_DIGESTS,
                          test_estimate_digests.ESTIMATE_DIGESTS)))
    print(f"{len(changed)} of {total} digests differ", file=sys.stderr)


if __name__ == "__main__":
    main()
