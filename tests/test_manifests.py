"""Stored runs: a manifest reads back as the run that wrote it, and anything
else exits 3 naming its path, before the run writes anything."""

import hashlib
import json
import math
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcinv.dip import DipConfig
from dcinv.fileio import from_fields
from dcinv.net.model import UPSAMPLERS, ArchConfig
from dcinv.runs import (FROM_V1, ArchChoice, ConventionalConfig, ConventionalRun, DipRun,
                        SimulateRun, load_run, manifest, replay)
from dcinv.scenarios import DikeGeometry, ScenarioSpec, build_case1, build_case2
from dcinv.tikhonov import GNConfig, RegularizationConfig
from dcinv.trace import load_grid, load_trace
from helpers import REPLAY, at, refused, stored_run

# Version-1 manifests of three README commands (tests/corpus/v1/README.md),
# with the SHA-256 of each output that is the same at 1 and 2 BLAS threads.
CORPUS = Path(__file__).parent / "corpus" / "v1"
# The desk DIP run's model, trace and checkpoints are stored whole: between 1
# and 2 BLAS threads they moved by up to 1.7e-15 (model), 3.5e-14 (trace chi)
# and 6.4e-15 (checkpoint arrays) relative to each array's largest magnitude.
CORPUS_RTOL = 1e-12

PRESETS = [build_case1(45.0, scale="desk")[0], build_case1(60.0, scale="full")[0],
           build_case2(two_cylinders=False, scale="desk")[0],
           build_case2(two_cylinders=True, scale="full")[0]]


def _numbers(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


scenarios = st.builds(replace, st.sampled_from(PRESETS), name=st.text(max_size=8),
                      n_pad=st.integers(0, 9), noise_rel=_numbers(0.0, 1.0),
                      noise_seed=st.integers(0, 2 ** 64))
dip_configs = st.builds(DipConfig, tau=_numbers(1e-3, 1e6), lr=_numbers(1e-9, 1.0),
                        epochs_stage1=st.integers(0, 10 ** 6),
                        dropout_rate=_numbers(0.0, 0.99), m_ref=_numbers(-10.0, 10.0),
                        rng_seed=st.integers(0, 2 ** 32), chi_stop=_numbers(0.0, 10.0))
reg_gn = st.builds(ConventionalConfig,
                   st.builds(RegularizationConfig, alpha_s=_numbers(0.0, 10.0),
                             p_s=_numbers(0.0, 2.0), irls_epsilon=_numbers(1e-6, 1.0),
                             use_sensitivity_weights=st.booleans()),
                   st.builds(GNConfig, beta0=st.none() | _numbers(1e-6, 1e6),
                             cooling_factor=_numbers(0.01, 0.99),
                             cg_maxiter=st.integers(1, 100), rng_seed=st.integers(0, 2 ** 32)))
paths = st.none() | st.text(min_size=1, max_size=8)
out_dirs = st.text(min_size=1, max_size=8)
runs = st.one_of(
    st.builds(SimulateRun, scenarios, out_dirs),
    st.builds(DipRun, scenarios, dip_configs,
              st.builds(ArchChoice, st.integers(1, 5), st.sampled_from(UPSAMPLERS)),
              paths, paths, out_dirs),
    st.builds(ConventionalRun, scenarios, reg_gn, paths, out_dirs))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(runs)
def test_a_manifest_reads_back_as_its_run(run):
    stored = json.loads(json.dumps(manifest(run), sort_keys=True))
    assert stored["version"] == 2
    assert load_run(stored) == run
    assert load_run(_as_v1(stored)) == run


def _nodes(value, path=""):
    """(path, value) of every node under the root of a JSON tree, pre-order."""
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        child_path = (f"{path}[{key}]" if isinstance(value, list)
                      else f"{path}.{key}" if path else key)
        yield child_path, child
        yield from _nodes(child, child_path)


def _as_v1(stored: dict) -> dict:
    """A version-2 manifest as version 1 wrote it: :data:`FROM_V1` backwards."""
    table = FROM_V1[stored["method"]]
    for path, value in table["dropped"].items():
        parent, key = at(stored, path)
        parent[key] = value
    for path in table["added"]:
        parent, key = at(stored, path)
        del parent[key]
    stored["version"] = 1
    return stored


# The fields that also take null, and the JSON kind of their other values.
NULLABLE = {"data": str, "pretrained": str, "config.gn.beta0": float, "scenario.dike": list}
# JSON values of another type than each kind's (float takes any finite number)
WRONG = {bool: [0, 1.5, "true", [True], {"a": 1}], int: [True, 2.5, 2.0, "3", [1], {"a": 1}],
         float: [True, "1.0", [1.0], {"a": 1}], str: [5, True, ["x"], {"a": 1}],
         list: [5, "x", {"a": 1}], dict: [5, "x", [1]]}


def _wrong_values(path, value):
    """JSON values that the field at ``path``, now holding ``value``, refuses."""
    kind = NULLABLE[path] if value is None else type(value)
    return WRONG[kind] + ([] if path in NULLABLE else [None])


@st.composite
def garbage(draw):
    """(manifest, path the error must name): a drawn run's manifest, of
    version 2 or 1, with a wrong JSON type, NaN or Infinity at one node, or
    one key missing or unknown at one level."""
    stored = manifest(draw(runs))
    if draw(st.booleans()):
        stored = _as_v1(stored)
    nodes = list(_nodes(stored))
    levels = [""] + [path for path, value in nodes if isinstance(value, dict)]
    how = draw(st.sampled_from(["wrong", "non-finite", "missing", "unknown"]))
    if how in ("wrong", "non-finite"):
        path, value = draw(st.sampled_from(nodes))
        bad = draw(st.sampled_from(_wrong_values(path, value) if how == "wrong"
                                   else [float("nan"), float("inf"), float("-inf")]))
        parent, key = at(stored, path)
        parent[key] = bad
    else:
        level = draw(st.sampled_from(levels))
        parent = at(stored, f"{level}.x")[0] if level else stored
        if how == "missing":
            key = draw(st.sampled_from(sorted(parent)))
            del parent[key]
        else:
            key = draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in parent))
            parent[key] = draw(st.integers() | st.text(max_size=4))
        path = f"{level}.{key}" if level else key
    # outputs is compared whole, and a method picks the fields
    return stored, "outputs" if path.startswith("outputs") else path


@settings(derandomize=True, max_examples=60, deadline=None)
@given(garbage())
def test_garbage_exits_3_naming_its_path(case):
    stored, path = case
    if isinstance(stored.get("out_dir"), str):
        stored["out_dir"] = "{tmp}/o"
    err = refused(REPLAY, 3, "manifest error: {tmp}/m.json: ", {"m.json": stored})
    assert path in err, err


@pytest.mark.parametrize("method, path, value", [
    # each a TypeError traceback before
    ("dip", "scenario.n_core_x", 2.5), ("dip", "scenario.n_core_x", "10"),
    ("dip", "scenario.dx", "5"), ("simulate", "scenario.noise_seed", 1.5),
    ("dip", "config.epochs_stage1", 1.5), ("dip", "config.rng_seed", 1.5),
    ("conventional", "config.gn.cg_maxiter", 2.5),
    # each accepted before
    ("conventional", "config.reg.use_sensitivity_weights", "no"),
    ("conventional", "config.reg.use_sensitivity_weights", "yes"),
    ("dip", "version", True), ("simulate", "scenario.n_pad", 2.0),
    ("simulate", "scenario.name", 5), ("simulate", "tua", 5),
    ("simulate", "outputs.data", "elsewhere.txt"),
    # each exit 1 from deep in the run before
    ("simulate", "scenario.n_core_x", 0), ("simulate", "scenario.cylinders", [[1, 2]]),
    ("dip", "arch.n_blocks", 6),
    # a tuple field that is not a list, never reached before
    ("simulate", "scenario.cylinders", "none"), ("simulate", "scenario.dike", 45.0),
    ("simulate", "scenario.dx", float("nan")), ("simulate", "scenario.noise_seed", -1),
    ("dip", "config.rng_seed", -1), ("simulate", "scenario.line_length", 2000.0),
    # each a numpy memory-error traceback (exit 1) before: 2.8 PiB of electrode
    # positions, 728 TiB of cell widths, sizes numpy refuses at once
    ("simulate", "scenario.line_length", 1e16), ("simulate", "scenario.n_core_x", 10**14)])
def test_value_a_run_refuses_exits_3_naming_its_path(method, path, value):
    stored = stored_run(method)
    parent, key = at(stored, path)
    parent[key] = value
    err = refused(REPLAY, 3, "manifest error: {tmp}/m.json: ", {"m.json": stored})
    if path.startswith("outputs"):
        path = "outputs"
    # a type error names the path; a value a dataclass rejects, its entry and the field
    entry, _, field = path.rpartition(".")
    assert path in err or (f"{entry}: " in err and field in err), err


def test_a_survey_too_large_to_build_exits_3():
    """A scenario of 1,000 stations with no receiver cap (497,503 data) is
    refused as it is read, before the run builds its survey."""
    stored = stored_run("simulate")
    stored["scenario"].update(n_core_x=1000, line_length=4995.0, station_spacing=5.0,
                              max_receivers=10**9)
    err = refused(REPLAY, 3, "manifest error: {tmp}/m.json: scenario: ", {"m.json": stored})
    assert "got 497503\n" in err


def test_unknown_key_and_rewritten_outputs_exit_3():
    """An extra top-level key beside a rewritten outputs entry replayed with
    exit 0, and both keys were copied into the new manifest."""
    stored = stored_run("simulate")
    stored["tua"] = 5
    stored["outputs"]["data"] = "elsewhere.txt"
    refused(REPLAY, 3, "outputs must be", {"m.json": stored})


@pytest.mark.parametrize("version", [0, 3, 1.0, "2", True, None])
def test_a_version_other_than_1_or_2_exits_3(version):
    stored = stored_run("simulate")
    stored["version"] = version
    refused(REPLAY, 3, f"version must be 1 or 2, got {json.dumps(version)}", {"m.json": stored})


_MISSING = object()  # a manifest key deleted, not set


@pytest.mark.parametrize("method", ["invert", None, 5, _MISSING])
def test_a_method_other_than_the_three_exits_3(method):
    stored = stored_run("simulate")
    if method is _MISSING:
        del stored["method"]
    else:
        stored["method"] = method
    got = "none" if method is _MISSING else json.dumps(method)
    refused(REPLAY, 3, f": method must be one of simulate, dip, conventional, got {got}\n",
            {"m.json": stored})


@pytest.mark.parametrize("cls, field", [(DipConfig, "m_ref"), (RegularizationConfig, "m_ref"),
                                        (ArchConfig, "output_scale")])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_a_value_the_walker_refuses_is_refused_through_the_api_too(cls, field, value):
    """A manifest, an INI file or a checkpoint cannot carry a non-finite
    number to these fields, so only a config built in Python reaches their
    dataclass's own check."""
    with pytest.raises(ValueError, match=f"^{field} must be a finite number, got"):
        from_fields(cls, {field: value}, ini=True)
    with pytest.raises(ValueError, match=fr"^{field} must be in \(-inf, inf\), got"):
        cls(**{field: value})


# Each declared range as a message writes it; a range widened in the code shows here.
RANGES = {
    DipConfig: {"tau": "(0, inf)", "lr": "(0, inf)", "adam_beta1": "[0, 1)",
                "adam_beta2": "[0, 1)", "adam_eps": "(0, inf)", "epochs_stage1": "[0, inf)",
                "epochs_stage2": "[0, inf)", "dropout_rate": "[0, 1)", "m_ref": "(-inf, inf)",
                "rng_seed": "[0, inf)", "stage1_lr": "(0, inf)", "stage1_tol": "[0, inf)",
                "chi_stop": "[0, inf)", "chi_patience": "[1, inf)"},
    RegularizationConfig: {"alpha_s": "[0, inf)", "alpha_x": "[0, inf)", "alpha_z": "[0, inf)",
                           "p_s": "[0, 2]", "p_x": "[0, 2]", "p_z": "[0, 2]",
                           "m_ref": "(-inf, inf)", "irls_epsilon": "(0, inf)"},
    GNConfig: {"beta0": "(0, inf)", "beta0_ratio": "(0, inf)", "cooling_factor": "(0, 1)",
               "iterations_per_beta": "[1, inf)", "max_beta_steps": "[1, inf)",
               "cg_tol": "[0, inf)", "cg_maxiter": "[1, inf)", "target_chi": "[0, inf)",
               "line_search_max": "[0, inf)", "rng_seed": "[0, inf)"},
    ArchConfig: {"latent_dim": "[1, inf)", "negative_slope": "[0, 1]",
                 "output_scale": "(-inf, inf)", "dropout_rate": "[0, 1)"},
    ScenarioSpec: {"background_sigma": "(0, inf)", "layer_sigma": "(0, inf)",
                   "target_sigma": "(0, inf)", "noise_rel": "[0, inf)", "noise_seed": "[0, inf)"},
    DikeGeometry: {"width": "(0, inf]", "dip_degrees": "(0, 90]"},
}
# the fields a class has no default for
_REQUIRED = {ScenarioSpec: {"name": "probe"},
             DikeGeometry: {"x_top": 0.0, "depth_top": 20.0, "depth_bottom": 120.0,
                            "width": 25.0, "dip_degrees": 45.0}}


def test_the_declared_ranges_are_the_table():
    declared = {(cls, f.name, f.metadata["range"].text)
                for cls in RANGES for f in fields(cls) if "range" in f.metadata}
    assert declared == {(cls, name, interval) for cls, table in RANGES.items()
                        for name, interval in table.items()}


def _accepts(make, value) -> bool:
    try:
        make(value)
    except (TypeError, ValueError):  # None, compared with a number, is a TypeError
        return False
    return True


@pytest.mark.parametrize("cls, name, interval",
                         [(cls, name, interval) for cls, table in RANGES.items()
                          for name, interval in table.items()],
                         ids=[f"{cls.__name__}.{name}" for cls, table in RANGES.items()
                              for name in table])
def test_a_value_is_accepted_or_refused_as_its_range_says(cls, name, interval):
    """Each finite end of the range and its neighbours (the next integers for
    an integer field, else the next floats, NaN and the infinities), given to
    the class as a Python and a numpy number and read by ``from_fields``,
    which also takes only finite numbers; None passes only as a default."""
    low, high = (float(end) for end in interval[1:-1].split(","))
    ends = [end for end in (low, high) if math.isfinite(end)]
    if get_type_hints(cls)[name] is int:
        probes, scalar = [int(end) + step for end in ends for step in (-1, 0, 1)], np.int64
    else:
        probes = [float(np.nextafter(end, to)) for end in ends for to in (-math.inf, end, math.inf)]
        probes, scalar = probes + [math.nan, math.inf, -math.inf], np.float64

    def inside(value):
        return ((low < value or interval[0] == "[" and value == low)
                and (value < high or interval[-1] == "]" and value == high))

    def build(value):
        return cls(**{**_REQUIRED.get(cls, {}), name: value})

    def read(value):
        return from_fields(cls, {**_REQUIRED.get(cls, {}), name: value}, ini=True)

    got = {value: (_accepts(build, value), _accepts(build, scalar(value)), _accepts(read, value))
           for value in probes}
    assert got == {value: (inside(value), inside(value), inside(value) and math.isfinite(value))
                   for value in probes}
    optional = cls.__dataclass_fields__[name].default is None
    assert (_accepts(build, None), _accepts(read, None)) == (optional, optional)


def _corpus(name: str) -> dict:
    return json.loads((CORPUS / name / "manifest.json").read_text())


def test_a_version_1_run_that_kept_its_models_exits_3():
    stored = _corpus("dip")
    stored.update(out_dir="{tmp}/o", config={**stored["config"], "store_models": True})
    refused(REPLAY, 3, "config.store_models must be false in version 1, got true",
            {"m.json": stored})


def test_a_field_version_1_lacks_takes_its_table_value(monkeypatch):
    monkeypatch.setitem(FROM_V1, "dip", {**FROM_V1["dip"], "added": {"config.tau": 5.0}})
    stored = _corpus("dip")
    with pytest.raises(ValueError, match=r"config\.tau must be none in version 1, got 300\.0"):
        load_run(stored)
    del stored["config"]["tau"]
    assert load_run(stored).config.tau == 5.0


def _paths(stored: dict) -> set:
    """The path of every object key in a manifest."""
    return {path for path, _ in _nodes(stored) if "[" not in path}


@pytest.mark.parametrize("name", ["simulate", "dip", "conventional"])
def test_the_migration_table_names_each_field_version_1_changed(name):
    """A field that a run gains or loses after version 1 needs an entry in
    FROM_V1, or a stored run would replay with another default."""
    stored = _corpus(name)
    table = FROM_V1[stored["method"]]
    old, new = _paths(stored), _paths(stored_run(stored["method"]))
    assert sorted(old - new - set(table["dropped"])) == []
    assert sorted(new - old - set(table["added"])) == []
    assert set(table["dropped"]) <= old - new and set(table["added"]) <= new - old


@pytest.mark.parametrize("name", ["simulate", "dip", "conventional"])
def test_the_version_1_corpus_replays(name, tmp_path):
    """Hashed outputs come back byte for byte, stored ones within
    CORPUS_RTOL, and the manifest as version 2 writes the same run."""
    stored = CORPUS / name
    replay(stored / "manifest.json", out_dir=str(tmp_path))
    for file, digest in json.loads((stored / "sha256.json").read_text()).items():
        assert hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() == digest, file
    for path in stored.glob("*.npz"):
        with np.load(path) as want, np.load(tmp_path / path.name) as got:
            assert sorted(got.files) == sorted(want.files)
            for key in want.files:
                _assert_close(got[key], want[key], f"{path.name} {key}")
    if (stored / "model.txt").exists():
        (got, *got_shape), (want, *want_shape) = (load_grid(d / "model.txt")
                                                  for d in (tmp_path, stored))
        assert got_shape == want_shape
        _assert_close(got, want, "model.txt")
    if (stored / "trace.txt").exists():
        got, want = (load_trace(d / "trace.txt") for d in (tmp_path, stored))
        assert (got.converged, got.stop_reason) == (want.converged, want.stop_reason)
        for field in ("epoch", "beta", "phi_d", "phi_m", "chi"):
            _assert_close(*(np.array([getattr(r, field) for r in t.records])
                            for t in (got, want)), f"trace.txt {field}")
    want = _corpus(name)
    for path in FROM_V1[want["method"]]["dropped"]:
        parent, key = at(want, path)
        del parent[key]
    want.update(version=2, out_dir=str(tmp_path))
    assert json.loads((tmp_path / "manifest.json").read_text()) == want


def _assert_close(got, want, what: str):
    if want.dtype.kind != "f":
        assert np.array_equal(got, want), what
        return
    assert got.shape == want.shape, what
    assert np.abs(got - want).max(initial=0.0) <= CORPUS_RTOL * np.abs(want).max(), what
