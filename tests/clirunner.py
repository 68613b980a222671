"""Run the freedf CLI in-process and keep what it wrote.

invoke(args) calls freedf.cli.main with stdout and stderr captured, each
on its own and both in the order written. The result holds exit_code,
stdout, stderr, output (both streams), stdout_bytes, stderr_bytes, and
the exception that ended the run, if it was not a zero exit.
"""

import io
import sys
from types import SimpleNamespace

from freedf.cli import main


class _Tee(io.BytesIO):
    """The bytes of one stream, each also written to the shared one."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, data):
        self.both.write(data)
        return super().write(data)


def invoke(args, prog_name="freedf", terminal_width=None):
    both = io.BytesIO()
    out, err = _Tee(both), _Tee(both)
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = (io.TextIOWrapper(b, encoding="utf-8", write_through=True) for b in (out, err))
    code, exception = 0, None
    try:
        main(args=list(args), prog_name=prog_name, terminal_width=terminal_width)
    except SystemExit as e:
        code = e.code or 0
        exception = e if code else None
    except Exception as e:
        code, exception = 1, e
    finally:
        for stream in (sys.stdout, sys.stderr):
            stream.detach()
        sys.stdout, sys.stderr = saved
    stdout_bytes, stderr_bytes = out.getvalue(), err.getvalue()
    return SimpleNamespace(
        exit_code=code, exception=exception, output=both.getvalue().decode(),
        stdout=stdout_bytes.decode(), stderr=stderr_bytes.decode(),
        stdout_bytes=stdout_bytes, stderr_bytes=stderr_bytes,
    )
