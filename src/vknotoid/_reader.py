"""The one way the package reads an input file: diagrams, tables, brackets
and manifests, given on the command line or bundled."""

from __future__ import annotations

import os

_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)


def read_input(path) -> str:
    """The file's text, exactly as a text-mode read with ``encoding="utf-8"``
    returns it: strict UTF-8 with ``\\r\\n`` and a lone ``\\r`` read as
    ``\\n``.  It raises what that read raises, with the path in the message,
    also where only the read fails (a directory opens on POSIX), and leaves
    no descriptor open.  One ``os.open`` and reads to EOF: no file object
    and no text wrapper, which cost more than the read of a small file."""
    fd = os.open(path, _FLAGS)
    try:
        chunks = []
        while chunk := os.read(fd, 65536):
            chunks.append(chunk)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    text = b"".join(chunks).decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def content_lines(text: str) -> list[str]:
    """The lines of an input file's text, stripped, without the blank ones
    and the ``#`` comments."""
    return [ln for ln in (s.strip() for s in text.splitlines())
            if ln and not ln.startswith("#")]
