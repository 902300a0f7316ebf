"""Click files made by hand, and the table of faulty ones that the
reader must refuse, shared by the reader's tests and the histogram
command's exit-2 tests.

A click file (v2) is a 256-byte ASCII header, the magic line and the
writer's six ``# key: value`` lines padded with spaces to a last
newline, over a body of little-endian int64 picoseconds.  While a run
appends to it, its header is blank: spaces up to the last newline.
"""

import numpy as np
import pytest

INT64_MAX = np.iinfo(np.int64).max
HEADER_BYTES = 256
MAGIC = b"# fransonsim clicks v2\n"
FIELDS = {"channel": "signal", "span_ps": "1000", "seed": "1",
          "config_hash": "", "true_count": "3", "dark_count": "0"}
TIMES = (10, 20, 30)
BLANK_HEADER = b" " * (HEADER_BYTES - 1) + b"\n"


def click_file(times=TIMES, extra=b"", **fields) -> bytes:
    """The bytes of a click file: FIELDS with `fields` replaced (None
    drops a key, bytes go in as they are), the header lines `extra`
    after them, and `times` as the body."""
    lines = b"".join(
        b"# %s: %s\n" % (key.encode(), value if isinstance(value, bytes)
                         else str(value).encode())
        for key, value in {**FIELDS, **fields}.items() if value is not None)
    header = (MAGIC + lines + extra).ljust(HEADER_BYTES - 1) + b"\n"
    return header + np.asarray(times, "<i8").tobytes()


GOOD = click_file()
V1_TEXT = (b"# fransonsim clicks v1\n# channel: signal\n# span_ps: 1000\n"
           b"# seed: 1\n# config_hash: \n# true_count: 3\n"
           b"# dark_count: 0\n10\n20\n30\n")


def _count(rows, size):
    return (f"the header counts {rows} clicks \\(true_count \\+ dark_count"
            f"\\), {8 * rows} bytes, but the body has {size}$")


# pytest params of files the reader refuses: their bytes and what the
# refusal says after "<path>: "
REFUSALS = [pytest.param(data, message, id=name) for name, data, message in [
    ("one-record-short", GOOD[:-8], _count(3, 16)),
    ("one-byte-short", GOOD[:-1], _count(3, 23)),
    ("one-byte-long", GOOD + b"\0", _count(3, 25)),
    ("count-above-body", click_file(true_count=4), _count(4, 24)),
    ("count-below-body", click_file(true_count=2), _count(2, 24)),
    # refused before the reader allocates 8 bytes for each
    ("count-beyond-the-body", click_file(true_count=INT64_MAX),
     _count(INT64_MAX, 24)),
    ("dark-count-above-clicks", click_file(true_count=0, dark_count=4),
     _count(4, 24)),
    ("descending", click_file((10, 30, 20)),
     "click timestamps must be strictly increasing"),
    ("repeated", click_file((10, 20, 20)),
     "click timestamps must be strictly increasing"),
    ("above-span", click_file((10, 20, 1001)),
     r"clicks outside \[0, span\]: 10..1001 span=1000"),
    ("negative", click_file((-1, 20, 30)), r"clicks outside \[0, span\]"),
    ("no-span_ps", click_file(span_ps=None), "no '# span_ps:' header line"),
    ("no-true_count", click_file(true_count=None),
     "no '# true_count:' header line"),
    ("no-dark_count", click_file(dark_count=None),
     "no '# dark_count:' header line"),
    ("duplicate-key", click_file(extra=b"# seed: 2\n"),
     "'# seed: 2' is not a header line"),
    ("unknown-key", click_file(extra=b"# note: 1\n"),
     "'# note: 1' is not a header line"),
    ("no-colon", click_file(extra=b"#seed 1\n"),
     "'#seed 1' is not a header line"),
    ("not-a-comment", click_file(extra=b"seed: 1\n"),
     "'seed: 1' is not a header line"),
    ("text-in-padding", GOOD[:200] + b"x" + GOOD[201:],
     "'x' is not a header line"),
    ("non-ascii-key", click_file(extra=b"# n\xc3\xb6te: 1\n"),
     "header is not ASCII"),
    ("non-ascii-value", click_file(channel=b"sign\xe4l"),
     "header is not ASCII"),
    ("span-not-integer", click_file(span_ps="1e3"),
     "header span_ps: '1e3' is not a non-negative int64"),
    ("span-beyond-int64", click_file(span_ps=INT64_MAX + 1),
     "header span_ps: '9223372036854775808' is not a non-negative int64"),
    # clicks past the histogram's bucket edge, 2**62 ps, read as valid
    ("span-past-the-histogram-edge",
     click_file((10, 20, 2 ** 62 + 5), span_ps=2 ** 62 + 5),
     "span_ps 4611686018427387909 lies outside \\[0, 2\\*\\*62\\) ps"),
    ("span-at-the-histogram-edge", click_file(span_ps=2 ** 62),
     "span_ps 4611686018427387904 lies outside \\[0, 2\\*\\*62\\) ps"),
    ("true_count-not-integer", click_file(true_count="3.0"),
     "header true_count: '3.0' is not"),
    ("dark_count-negative", click_file(dark_count=-1),
     "header dark_count: '-1' is not"),
    ("dark_count-empty", click_file(dark_count=""),
     "header dark_count: '' is not"),
    ("header-cut", GOOD[:100], "the header is not 256 bytes ending in \\\\n"),
    ("header-without-newline", GOOD[:255] + b" " + GOOD[256:],
     "the header is not 256 bytes ending in \\\\n"),
    # a header line running past byte 256 leaves no newline there
    ("header-overflow", click_file(config_hash="f" * 300),
     "the header is not 256 bytes ending in \\\\n"),
    # the counts' sum is a Python int: in int64 it would wrap to -2
    ("counts-sum-beyond-int64",
     click_file(true_count=INT64_MAX, dark_count=INT64_MAX),
     _count(2 * INT64_MAX, 24)),
    ("v1-text", V1_TEXT, "click file version 'v1'; only v2 is read"),
    ("v3", b"# fransonsim clicks v3\n" + GOOD[len(MAGIC):],
     "click file version 'v3'; only v2 is read"),
    ("foreign", b"1 2 3\n", "not a fransonsim click file"),
    ("empty", b"", "not a fransonsim click file"),
    # a run that stopped before it wrote the header over the blank one
    ("unfinished-dump", BLANK_HEADER + GOOD[HEADER_BYTES:],
     "not a fransonsim click file"),
]]
