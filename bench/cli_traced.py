"""Run the entwit CLI with the outside-in tracer installed.

Usage: python3 cli_traced.py OUT.json <entwit arguments...>

Equivalent to ``python -m entwit.cli <arguments...>`` except that every
span is recorded; the aggregate and the spans go to OUT.json when the
command ends, and the exit code is the command's.
"""

import json
import sys

import tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.install()
    import entwit.cli

    tr.enabled = True
    code = entwit.cli.main(argv)
    tr.enabled = False
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"aggregate": tr.aggregate(), "spans": tr.rows()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
