"""The failure contract: an input a run cannot use exits 1 or 3, and
simulated data that are not finite exit 2, with one line under the README's
prefix for it, no traceback, and nothing written.  Every such case in the
suite runs through :func:`helpers.refused`; these rows are the ones no other
test file holds, one at least per exit-1 or exit-3 row of the README's table
of failures, which is checked against ``cli._FAILURES`` here."""

import numpy as np
import pytest

from dcinv.cli import _FAILURES, EXIT_IO, EXIT_USAGE
from helpers import GRID, REPLAY, readme_failures, refused, stored_run

_DATA = "{tmp}/d.txt"

# id -> (argv, files, exit code, message): each message starts with its README prefix.
# --upscale 10**15 is refused before numpy is asked for an image (10.7 PiB without the check).
TABLE = {
    "usage-flag-left-out": (["render"], {}, 1, "usage: dcinv render"),
    "upscale-too-large": (["render", "--grid", "{tmp}/g.txt", "--out", "{tmp}/g.ppm",
                           "--upscale", str(10 ** 15)], GRID, 1,
                          "invalid arguments: --upscale 1000000000000000 makes a "
                          "2000000000000000 x 2000000000000000 image"),
    "ablate-workers-below-1": (["ablate", "--suite", "blocks", "--scale", "desk", "--workers",
                                "-3", "--out", "{tmp}/o"], {}, 1,
                               "invalid arguments: --workers must be at least 1, got -3\n"),
    "config-not-utf-8": (["invert-dip", "--scale", "desk", "--config", "{tmp}/run.cfg",
                          "--out", "{tmp}/o"], {"run.cfg": b"[dip]\ntau = 5\xff"}, 3,
                         "parse error: {tmp}/run.cfg: line 2: bytes that are not UTF-8\n"),
    "config-not-utf-8-after-a-byte-order-mark": (
        ["invert-dip", "--scale", "desk", "--config", "{tmp}/run.cfg", "--out", "{tmp}/o"],
        {"run.cfg": b"\xef\xbb\xbf[dip]\ntau = 5\xff\n"}, 3,
        "parse error: {tmp}/run.cfg: line 2: bytes that are not UTF-8\n"),
    "config-empty-default-section": (["invert-dip", "--scale", "desk", "--config",
                                      "{tmp}/run.cfg", "--out", "{tmp}/o"],
                                     {"run.cfg": "[DEFAULT]\n"}, 1,
                                     "invalid arguments: unknown config section [DEFAULT]"),
    "grid-not-utf-8-in-its-header": (["render", "--grid", "{tmp}/g.txt", "--out", "{tmp}/g.ppm"],
                                     {"g.txt": b"# dcinv grid v1 \xff\n2 1\n0.5 0.25\n"}, 3,
                                     "parse error: {tmp}/g.txt: line 1: bytes that are not "
                                     "UTF-8\n"),
    "manifest-not-utf-8": (REPLAY, {"m.json": b'{\n"version": 2\xff}'}, 3,
                           "parse error: {tmp}/m.json: line 2: bytes that are not UTF-8\n"),
    "manifest-too-deep": (REPLAY, {"m.json": "[" * 100000}, 3,
                          "manifest error: {tmp}/m.json: JSON nested too deeply to read\n"),
    "manifest-too-deep-under-a-key": (REPLAY, {"m.json": '{"config": ' + "[" * 100000}, 3,
                                      "manifest error: {tmp}/m.json: JSON nested too deeply"),
    "data-std-0-no-floor": (["invert-dip", "--scale", "desk", "--data", _DATA, "--out",
                             "{tmp}/o"], {"d.txt": "# dcinv data v1\n0 10 20 30 0.0 0.0\n"}, 3,
                            "parse error: {tmp}/d.txt: line 2: std is 0, and so is the floor"),
    "data-electrode-outside-the-mesh": (
        ["invert-conv", "--scale", "desk", "--data", _DATA, "--out", "{tmp}/o"],
        {"d.txt": "# dcinv data v1\n-25 0 25 50 1.0 0.1\n0 10 20 3000 1.0 0.1\n"}, 3,
        "parse error: {tmp}/d.txt: line 3: an electrode outside the mesh, x in (-366.289, "
        "366.289]\n"),
    "data-electrode-outside-the-mesh-replayed": (
        REPLAY, {"d.txt": "# dcinv data v1\n3000 -25 0 25 1.0 0.1\n",
                 "m.json": {**stored_run("dip"), "data": _DATA}}, 3,
        "parse error: {tmp}/d.txt: line 2: an electrode outside the mesh"),
    "data-file-missing": (["invert-conv", "--scale", "desk", "--data", _DATA, "--out",
                           "{tmp}/o"], {}, 3,
                          "i/o error: [Errno 2] No such file or directory: '{tmp}/d.txt'\n"),
    "checkpoint-of-one-array": (["invert-dip", "--scale", "desk", "--pretrained",
                                 "{tmp}/ck.npy", "--out", "{tmp}/o"],
                                {"ck.npy": lambda path: np.save(path, np.zeros(3))}, 3,
                                "checkpoint error: checkpoint {tmp}/ck.npy is a single array"),
}


@pytest.mark.parametrize("argv, files, code, message", TABLE.values(), ids=list(TABLE))
def test_failure(argv, files, code, message):
    refused(argv, code, message, files)


_OVERFLOW = ["--scale", "desk", "--noise", "1e308", "--out", "{tmp}/o"]
_SIMULATE = stored_run("simulate")
# id -> (argv, files): a noise level whose simulated data overflow, refused before any write
NOT_FINITE = {
    "simulate": (["simulate", *_OVERFLOW], {}),
    "invert-dip": (["invert-dip", *_OVERFLOW], {}),
    "invert-conv": (["invert-conv", *_OVERFLOW], {}),
    "ablate": (["ablate", "--suite", "dropout", *_OVERFLOW], {}),
    "replay": (REPLAY, {"m.json": {**_SIMULATE,
                                   "scenario": {**_SIMULATE["scenario"], "noise_rel": 1e308}}}),
}


@pytest.mark.parametrize("argv, files", NOT_FINITE.values(), ids=list(NOT_FINITE))
def test_simulated_data_that_are_not_finite(argv, files):
    err = refused(argv, 2, "numerical failure: noise_rel 1e+308 makes simulated data that are "
                  "not finite\n", files)
    assert "RuntimeWarning" not in err


def test_the_readme_table_of_failures_is_the_contract():
    """Each README row's prefix and code are an outcome of ``cli._FAILURES``
    (or the parser's usage line), and each outcome has a row; each exit-1 or
    exit-3 row has a row in TABLE, and each TABLE row one README row."""
    readme = readme_failures()
    outcomes = {(prefix.removesuffix(":"), code) for _, code, prefix, _ in readme}
    assert outcomes == {*_FAILURES.values(), ("usage: dcinv", EXIT_USAGE)}
    assert len(outcomes) == len(readme)
    assert all(example.startswith(prefix) for _, _, prefix, example in readme)
    rows = {(code, prefix) for _, code, prefix, _ in readme
            for _, _, c, message in TABLE.values() if c == code and message.startswith(prefix)}
    assert rows == {(code, prefix) for _, code, prefix, _ in readme
                    if code in (EXIT_USAGE, EXIT_IO)}
    for _, _, code, message in TABLE.values():
        assert sum(c == code and message.startswith(p) for _, c, p, _ in readme) == 1, message
