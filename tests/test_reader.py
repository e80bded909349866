"""The one input reader returns what a text-mode UTF-8 read returns, raises
what it raises with the same message, and leaves no descriptor open."""

import os
import sys
from pathlib import Path

import pytest

from vknotoid._reader import read_input

# 64 KiB is the reader's chunk: a "\r\n" and a two-byte character each
# straddle a chunk boundary below
CHUNK = 65536
FILES = {
    "lf.knd": b"name a\ncode O+1,U+1\n",
    "crlf.knd": b"name a\r\ncode O+1,U+1\r\n",
    "cr.knd": b"name a\rcode O+1,U+1\r",
    "mixed.knd": b"a\r\nb\rc\nd\r\r\n\n\re",
    "bom.knd": b"\xef\xbb\xbfname a\r\ncode -\n",
    "empty.knd": b"",
    "big.knd": b"x" * (CHUNK - 1) + b"\r\n" + b"y" * (CHUNK - 2)
               + "é".encode() + b"\rz" * 5000,
    "latin1.knd": b"code O+1,U+1\n# caf\xe9\n",
    "late.knd": b"a" * (3 * CHUNK) + b"\xff\n",
    "cut.knd": b"code -\n\xc3",
}


def text_mode(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def outcome(read, path):
    try:
        return "text", read(path)
    except (OSError, UnicodeDecodeError) as exc:
        return type(exc), str(exc)


def open_descriptors():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") \
        else None


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "sub.knd").mkdir()
    (tmp_path / "dangling.knd").symlink_to("nowhere.knd")
    (tmp_path / "loop.knd").symlink_to("loop.knd")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("spell", [str, Path, lambda name: "./" + name])
@pytest.mark.parametrize("name", list(FILES) + ["sub.knd", "missing.knd",
                                                "dangling.knd", "loop.knd"])
def test_reader_matches_a_text_mode_read(inputs, spell, name):
    path = spell(name)
    before = open_descriptors()
    got = outcome(read_input, path)
    assert open_descriptors() == before
    assert got == outcome(text_mode, path)
    assert outcome(read_input, inputs / name) \
        == outcome(text_mode, inputs / name)


def test_reader_reads_past_one_chunk(inputs):
    text = read_input("big.knd")
    assert len(FILES["big.knd"]) > 2 * CHUNK
    assert "\r" not in text and text.count("\n") == 5001
    assert outcome(read_input, "late.knd")[1].endswith(
        "position %d: invalid start byte" % (3 * CHUNK))


def test_a_directory_is_named_on_the_read(inputs):
    # POSIX opens a directory read-only; the read fails, and the error names
    # the path as the failed open of a text-mode read does
    assert outcome(read_input, "sub.knd") \
        == (IsADirectoryError, "[Errno 21] Is a directory: 'sub.knd'")


@pytest.mark.skipif(sys.platform == "win32" or os.geteuid() == 0,
                    reason="permission bits do not stop this user")
def test_an_unreadable_file(inputs):
    path = inputs / "locked.knd"
    path.write_bytes(FILES["lf.knd"])
    path.chmod(0)
    try:
        before = open_descriptors()
        got = outcome(read_input, "locked.knd")
        assert open_descriptors() == before
        assert got[0] is PermissionError
        assert got == outcome(text_mode, "locked.knd")
    finally:
        path.chmod(0o644)
