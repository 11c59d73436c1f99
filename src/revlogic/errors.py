"""Shared exception base and diagnostics helpers for the revlogic package."""


class RevLogicError(Exception):
    """Base class for all errors raised by revlogic."""


def _utf8_position(data: bytes, exc: UnicodeDecodeError) -> tuple[int, int]:
    """1-based (line, column) of the first byte `exc` says is not UTF-8.

    Lines are counted the way `str.splitlines` counts them.
    """
    # Everything before the first bad byte decodes; the sentinel keeps a
    # trailing line break from ending the last line.
    lines = (data[: exc.start].decode("utf-8") + "x").splitlines()
    return len(lines), len(lines[-1])
