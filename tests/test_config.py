"""Config resolution: defaults, units, overrides, hashing."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optomech.config import (
    ConfigError,
    DEFAULTS,
    SI_C,
    SI_HBAR,
    config_hash,
    load_config_file,
    resolve_config,
)


def test_natural_units_default():
    cfg = resolve_config()
    assert cfg.c == 1.0 and cfg.hbar == 1.0
    assert cfg.units == "natural"


def test_si_units_resolution():
    cfg = resolve_config({"units": "SI"})
    assert cfg.c == SI_C
    assert cfg.hbar == SI_HBAR


def test_explicit_constants_beat_units():
    cfg = resolve_config({"units": "SI", "c": 3.0e8})
    assert cfg.c == 3.0e8
    assert cfg.hbar == SI_HBAR


def test_flags_win_over_file():
    cfg = resolve_config({"kmax": 2, "omega_c": 5.0}, {"kmax": 7})
    assert cfg.kmax == 7
    assert cfg.omega_c == 5.0


def test_none_overrides_are_skipped():
    cfg = resolve_config({"kmax": 2}, {"kmax": None})
    assert cfg.kmax == 2


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        resolve_config({"frequency": 1.0})
    with pytest.raises(ConfigError):
        resolve_config(None, {"frequency": 1.0})
    with pytest.raises(ConfigError):
        resolve_config({"grid": {"frequency": [1.0]}})


def test_bad_enum_values():
    with pytest.raises(ConfigError):
        resolve_config({"units": "imperial"})
    with pytest.raises(ConfigError):
        resolve_config({"out_format": "xml"})
    with pytest.raises(ConfigError):
        resolve_config({"r_convention": "rounded"})
    with pytest.raises(ConfigError, match="variant"):
        resolve_config({"variant": "x"})
    with pytest.raises(ConfigError, match="mirror_model"):
        resolve_config({"mirror_model": "x"})


def test_hash_is_stable_and_sensitive():
    a = config_hash(resolve_config({"kmax": 2}))
    b = config_hash(resolve_config({"kmax": 2}))
    c = config_hash(resolve_config({"kmax": 3}))
    assert a == b
    assert a != c
    assert len(a) == 12


def test_load_config_file_diagnostics(tmp_path):
    good = tmp_path / "ok.json"
    good.write_text(json.dumps({"mass": 2.0}))
    assert load_config_file(str(good)) == {"mass": 2.0}
    top_level = tmp_path / "arr.json"
    top_level.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config_file(str(top_level))
    bad = tmp_path / "bad.json"
    bad.write_text('{"mass": 1,\n "oops\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config_file(str(bad))
    with pytest.raises(ConfigError, match="absent.json"):
        load_config_file(str(tmp_path / "absent.json"))


@pytest.mark.parametrize("k_eigen", [-3, 0, 2.0, True])
def test_k_eigen_must_be_a_positive_integer(k_eigen):
    with pytest.raises(ConfigError, match="k_eigen"):
        resolve_config({"k_eigen": k_eigen})
    assert resolve_config({"k_eigen": 1}).k_eigen == 1


def test_every_default_key_resolves():
    cfg = resolve_config()
    for key in DEFAULTS:
        assert hasattr(cfg, key)



@pytest.mark.parametrize("key, value", [
    ("kmax", 2.5), ("kmax", "4"), ("kmax", 0), ("kmax", True),
    ("n_mech", 1), ("n_mech", 8.0), ("n_opt", 1), ("n_opt", False),
    ("dim_cap", "x"), ("dim_cap", 3),
    ("order", 3), ("order", -1), ("order", 1.0), ("order", True),
    ("grid", {"omega_c": 2.0}), ("grid", {"omega_c": []}), ("grid", {"omega_c": "1,2"}),
    ("tail_correct", "no"), ("tail_correct", 0), ("tail_correct", 1.0),
])
def test_bad_cutoff_and_grid_values_are_config_errors(key, value):
    with pytest.raises(ConfigError, match=key):
        resolve_config({key: value})


@pytest.mark.parametrize("key, top", [("kmax", 512), ("jmax", 10**7), ("ltrunc", 10**7)])
def test_size_keys_have_upper_bounds(key, top):
    assert resolve_config({key: top}).to_dict()[key] == top
    for doc, name in (({key: top + 1}, key), ({"grid": {key: [2, top + 1]}}, f"grid.{key}")):
        with pytest.raises(ConfigError, match=rf"{name} must be an integer in \[1, {top}\]"):
            resolve_config(doc)


@pytest.mark.parametrize("key, value", [
    ("omega_c", "x"), ("mass", True), ("t_end", [1.0]), ("q0", "far"),
    ("eta", float("nan")), ("eta", float("inf")), ("eta", 0.0), ("eta", -1.0), ("eta", "0.5"),
])
def test_real_valued_keys_reject_other_types_and_bad_eta(key, value):
    with pytest.raises(ConfigError, match=key):
        resolve_config({key: value})
    assert resolve_config({key: 2}).to_dict()[key] == 2


@pytest.mark.parametrize("grid, name", [
    ({"omega_c": [1.0, "x"]}, "grid.omega_c"),
    ({"mass": [1.0, False]}, "grid.mass"),
    ({"kmax": [2, 2.5]}, "grid.kmax"),
    ({"r_convention": ["exact", "rounded"]}, "grid.r_convention"),
    ({"eta": [0.5, -1.0]}, "grid.eta"),
    ({"variant": ["new", "x"]}, "grid.variant"),
    ({"mirror_model": ["newton", "x"]}, "grid.mirror_model"),
    ({"tail_correct": [True, "no"]}, "grid.tail_correct"),
])
def test_grid_values_follow_their_key_rule(grid, name):
    with pytest.raises(ConfigError, match=name):
        resolve_config({"grid": grid})


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8)
)
_JSON_VALUES = _JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=3)
_GRIDS = st.dictionaries(st.sampled_from(sorted(DEFAULTS) + ["frequency"]), _JSON_VALUES,
                         max_size=2)


@settings(max_examples=100, deadline=None)
@given(value=_JSON_VALUES | _GRIDS,
       others=st.dictionaries(st.sampled_from(sorted(DEFAULTS)), _JSON_VALUES | _GRIDS,
                              max_size=2))
@example(value=10**400, others={})  # JSON integers are unbounded; math.isfinite overflows
def test_any_json_config_resolves_or_is_config_error(value, others):
    # every key meets the drawn value; a few other drawn keys ride along
    for key in DEFAULTS:
        try:
            resolve_config({**others, key: value})
        except ConfigError:
            pass
