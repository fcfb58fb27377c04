"""Strict config loading: defaults, validation, and admissibility gating."""

import functools
import hashlib
import importlib.util
import json
import platform
import re
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from ns2dsens.diagnostics import grashof
from ns2dsens.dynamics import SystemKind
from ns2dsens.interpolants import BoxAverage, SpectralProjection
from ns2dsens.runconfig import ConfigError, load_config, load_config_data
from ns2dsens.spectral import norm

BENCH = Path(__file__).resolve().parent.parent / "bench"
README = BENCH.parent / "README.md"


def _minimal(**overrides):
    data = {
        "grid": {"n": 16},
        "physics": {"nu1": 0.01},
        "solver": {"dt": 1e-3, "t_end": 0.1, "sample_every": 10},
    }
    data.update(overrides)
    return data


class TestMinimalConfig:
    def test_defaults_filled_and_echoed(self):
        cfg = load_config_data(_minimal())
        assert cfg.grid.n == 16
        assert cfg.physics.nu2 == cfg.physics.nu1 == 0.01
        assert cfg.physics.mu == 0.0
        assert cfg.solver.sample_every == 10
        assert cfg.system_kind is None
        assert cfg.seed == 0
        assert cfg.output_dir == "out"
        assert cfg.effective["physics"]["nu2"] == 0.01
        assert cfg.effective["initial"] == {"kind": "taylor_green"}
        assert cfg.effective["system"]["kind"] is None
        assert norm(cfg.initial) == pytest.approx(np.sqrt(0.5), rel=1e-12)

    def test_string_scientific_notation_accepted(self):
        data = _minimal()
        data["solver"]["dt"] = "1e-3"
        cfg = load_config_data(data)
        assert cfg.solver.dt == 1e-3

    def test_missing_required_block(self):
        with pytest.raises(ConfigError, match="missing required block 'solver'"):
            load_config_data({"grid": {"n": 16}, "physics": {"nu1": 0.01}})

    def test_root_must_be_mapping(self):
        with pytest.raises(ConfigError, match="mapping"):
            load_config_data([1, 2])


class TestStrictKeys:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown top-level key 'viscosity'"):
            load_config_data(_minimal(viscosity=0.1))

    def test_unknown_physics_key(self):
        data = _minimal()
        data["physics"]["nu3"] = 0.1
        with pytest.raises(ConfigError, match="unknown key 'nu3'"):
            load_config_data(data)

    def test_unknown_experiment_key(self):
        with pytest.raises(ConfigError, match="unknown key 'cadence'"):
            load_config_data(_minimal(experiment={"cadence": 2}))

    def test_unknown_solver_key(self):
        # imex_cnab2 is the only scheme, so there is no scheme key to set.
        data = _minimal()
        data["solver"]["scheme"] = "imex_cnab2"
        with pytest.raises(ConfigError, match="unknown key 'scheme'"):
            load_config_data(data)


class TestMirroredValidation:
    def test_odd_grid_rejected(self):
        data = _minimal()
        data["grid"]["n"] = 17
        with pytest.raises(ConfigError, match="grid"):
            load_config_data(data)

    def test_bad_solver_cadence_rejected(self):
        data = _minimal()
        data["solver"]["sample_every"] = 7
        with pytest.raises(ConfigError, match="solver"):
            load_config_data(data)

    def test_mu_without_interpolant_rejected(self):
        data = _minimal()
        data["physics"]["mu"] = 1.0
        with pytest.raises(ConfigError, match="physics"):
            load_config_data(data)

    def test_bad_system_kind(self):
        with pytest.raises(ConfigError, match="system.kind"):
            load_config_data(_minimal(system={"kind": "navier"}))

    def test_boolean_is_not_a_number(self):
        data = _minimal()
        data["physics"]["nu1"] = True
        with pytest.raises(ConfigError, match="boolean"):
            load_config_data(data)


class TestInterpolantAndForcing:
    def test_spectral_projection(self):
        data = _minimal(system={"kind": "da"})
        data["physics"].update(mu=1.0, interpolant={"kind": "spectral_projection",
                                                    "modes": 4})
        cfg = load_config_data(data)
        assert cfg.physics.interp == SpectralProjection(modes=4)
        assert cfg.system_kind is SystemKind.DA

    def test_box_average_divisibility(self):
        data = _minimal()
        data["physics"].update(mu=0.5, interpolant={"kind": "box_average",
                                                    "boxes": 5})
        with pytest.raises(ConfigError, match="does not divide"):
            load_config_data(data)
        data["physics"]["interpolant"]["boxes"] = 4
        cfg = load_config_data(data)
        assert cfg.physics.interp == BoxAverage(boxes=4)

    def test_grashof_forcing_hits_target(self):
        data = _minimal()
        data["physics"]["forcing"] = {"kind": "grashof", "grashof": 250.0}
        cfg = load_config_data(data)
        assert grashof(norm(cfg.physics.forcing), 0.01) == pytest.approx(
            250.0, rel=1e-12
        )

    def test_random_forcing_is_seed_deterministic(self):
        data = _minimal()
        data["physics"]["forcing"] = {"kind": "random_solenoidal", "l2_norm": 2.0}
        a = load_config_data(data)
        b = load_config_data(data)
        c = load_config_data(data, seed_override=9)
        assert np.array_equal(a.physics.forcing.coeffs, b.physics.forcing.coeffs)
        assert not np.array_equal(a.physics.forcing.coeffs,
                                  c.physics.forcing.coeffs)


class TestAdmissibilityGate:
    def _da(self, mu, **extra):
        data = _minimal(system={"kind": "da"})
        data["physics"].update(
            mu=mu, interpolant={"kind": "spectral_projection", "modes": 4}
        )
        data["physics"].update(extra)
        return data

    def test_inadmissible_gain_rejected(self):
        # mu c0 h^2 = 50 / (4 pi^2 25) ~ 0.051 > nu = 0.01.
        with pytest.raises(ConfigError, match="admissibility condition"):
            load_config_data(self._da(50.0))

    def test_opt_out_loads_with_flags(self):
        cfg = load_config_data(self._da(50.0, allow_inadmissible=True))
        assert cfg.allow_inadmissible
        assert cfg.effective["admissibility"] == {"nonstrict": False,
                                                  "strict": False}

    def test_admissible_gain_loads(self):
        cfg = load_config_data(self._da(1.0))
        assert cfg.effective["admissibility"]["nonstrict"]

    def test_switch_target_included_in_gate(self):
        data = self._da(1.5)
        data["experiment"] = {"t_switch": 0.05, "nu_new": 0.001}
        with pytest.raises(ConfigError, match="admissibility"):
            load_config_data(data)


class TestExperimentBlock:
    def test_values_coerced(self):
        data = _minimal(
            experiment={
                "deltas": [5e-3, 2.5e-3],
                "norm": "l2_v",
                "ratio_window": [0.4, 0.6],
                "with_control": True,
            }
        )
        cfg = load_config_data(data)
        assert cfg.experiment["deltas"] == (5e-3, 2.5e-3)
        assert cfg.experiment["ratio_window"] == (0.4, 0.6)
        assert cfg.experiment["with_control"] is True

    def test_bad_norm_rejected(self):
        with pytest.raises(ConfigError, match="experiment.norm"):
            load_config_data(_minimal(experiment={"norm": "h7"}))

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigError, match="ratio_window"):
            load_config_data(_minimal(experiment={"ratio_window": [0.6, 0.4]}))


class TestKindKeys:
    """A key that the block's kind does not read is an unknown key, not a dropped one."""

    @pytest.mark.parametrize("block, raw, key", [
        ("initial", {"kind": "taylor_green", "seed": 5, "kmax": 99}, "kmax"),
        ("assimilated_initial", {"kind": "zero", "l2_norm": 2.0}, "l2_norm"),
        ("forcing", {"kind": "none", "seed": 3}, "seed"),
        ("forcing", {"kind": "grashof", "grashof": 250.0, "l2_norm": 2.0}, "l2_norm"),
        ("interpolant", {"kind": "spectral_projection", "modes": 4, "boxes": 4}, "boxes"),
        ("interpolant", {"kind": "box_average", "boxes": 4, "modes": 4}, "modes"),
    ])
    def test_key_the_kind_ignores_is_rejected(self, block, raw, key):
        data = _minimal()
        if block in ("initial", "assimilated_initial"):
            data[block] = raw
        else:
            data["physics"].update(mu=0.5, **{block: raw})
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in block .* of kind "
                                              f"'{raw['kind']}'"):
            load_config_data(data)


def test_readme_yaml_blocks_load():
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert blocks
    for text in blocks:
        load_config_data(yaml.safe_load(text))


class TestSeeds:
    def test_initial_seed_defaults_from_base(self):
        data = _minimal(initial={"kind": "random_solenoidal"}, seed=5)
        cfg = load_config_data(data)
        assert cfg.effective["initial"]["seed"] == 6

    def test_explicit_seed_wins_over_override(self):
        data = _minimal(initial={"kind": "random_solenoidal", "seed": 11})
        a = load_config_data(data)
        b = load_config_data(data, seed_override=99)
        assert np.array_equal(a.initial.coeffs, b.initial.coeffs)

    def test_assimilated_initial_defaults_zero_kind(self):
        data = _minimal(assimilated_initial={})
        cfg = load_config_data(data)
        assert norm(cfg.assimilated_initial) == 0.0


class TestYamlFile:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "grid:\n  n: 16\n"
            "physics:\n  nu1: 0.01\n"
            "solver:\n  dt: 1.0e-3\n  t_end: 0.1\n  sample_every: 10\n"
            "seed: 3\n"
        )
        cfg = load_config(path)
        assert cfg.seed == 3
        assert cfg.solver.dt == 1e-3

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("grid:\n  n: 16\n bad_indent: {\n")
        with pytest.raises(ConfigError, match=r"line \d+"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")


@functools.lru_cache(maxsize=1)
def _loadable_configs():
    """The YAML of every loadable config of this file and of the sync benchmark's."""
    da = _minimal(system={"kind": "da"})
    da["physics"].update(mu=1.0, interpolant={"kind": "spectral_projection", "modes": 4})
    inadmissible = _minimal(system={"kind": "da"})
    inadmissible["physics"].update(mu=50.0, allow_inadmissible=True,
                                   interpolant={"kind": "spectral_projection", "modes": 4})
    box = _minimal()
    box["physics"].update(mu=0.5, interpolant={"kind": "box_average", "boxes": 4})
    grashof_forced, random_forced = _minimal(), _minimal()
    grashof_forced["physics"]["forcing"] = {"kind": "grashof", "grashof": 250.0}
    random_forced["physics"]["forcing"] = {"kind": "random_solenoidal", "l2_norm": 2.0}
    scientific = _minimal()
    scientific["solver"]["dt"] = "1e-3"
    texts = [yaml.safe_dump(data) for data in [
        _minimal(), scientific, da, inadmissible, box, grashof_forced, random_forced,
        _minimal(experiment={"deltas": [5e-3, 2.5e-3], "norm": "l2_v",
                             "ratio_window": [0.4, 0.6], "with_control": True}),
        _minimal(initial={"kind": "random_solenoidal"}, seed=5),
        _minimal(initial={"kind": "random_solenoidal", "seed": 11}),
        _minimal(assimilated_initial={}),
    ]]
    texts.append("grid:\n  n: 16\nphysics:\n  nu1: 0.01\n"
                  "solver:\n  dt: 1.0e-3\n  t_end: 0.1\n  sample_every: 10\nseed: 3\n")
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve their module here
    spec.loader.exec_module(workloads)
    texts.append(workloads._SYNC_YAML.format(n=48, nu=0.01, grashof=1e3, dt=1e-3, t_end=0.3,
                                             threshold=0.25, seed=901))
    return tuple(texts)


def _recorded(base, used):
    """A subclass of base that appends base's name to used on construction."""

    class Recorded(base):
        def __init__(self, *args, **kwargs):
            used.append(base.__name__)
            super().__init__(*args, **kwargs)

    return Recorded


def _config_bits(cfg):
    """Everything a RunConfig holds, fields as their coefficient bytes."""
    fields = (cfg.physics.forcing, cfg.initial, cfg.assimilated_initial)
    physics = (cfg.physics.nu1, cfg.physics.nu2, cfg.physics.mu, cfg.physics.interp)
    return (cfg.grid, physics, cfg.solver, cfg.system_kind, cfg.linear_only, cfg.experiment,
            cfg.seed, cfg.output_dir, cfg.allow_inadmissible, cfg.effective,
            [None if f is None else f.coeffs.tobytes() for f in fields])


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
class TestLibyaml:
    @pytest.mark.parametrize("i", range(len(_loadable_configs())))
    def test_c_and_python_classes_agree(self, tmp_path, monkeypatch, i):
        # libyaml's safe loader and dumper give the RunConfig and echo bytes
        # of PyYAML's pure-Python ones; without libyaml the code uses those.
        path = tmp_path / "run.yaml"
        path.write_text(_loadable_configs()[i], encoding="utf-8")
        used = []
        for name in ("CSafeLoader", "CSafeDumper"):
            monkeypatch.setattr(yaml, name, _recorded(getattr(yaml, name), used))
        with_c = load_config(path)
        echo = with_c.echo()
        assert used == ["CSafeLoader", "CSafeDumper"]
        assert echo == yaml.safe_dump(with_c.effective, sort_keys=True)
        monkeypatch.delattr(yaml, "CSafeLoader")
        monkeypatch.delattr(yaml, "CSafeDumper")
        without = load_config(path)
        assert _config_bits(without) == _config_bits(with_c)
        assert without.echo() == echo

    def test_sync_echo_bytes_without_libyaml(self, tmp_path, monkeypatch):
        from ns2dsens import cli

        path = tmp_path / "sync.yaml"
        path.write_text(_loadable_configs()[-1], encoding="utf-8")
        echoes = []
        for strip in (False, True):
            if strip:
                monkeypatch.delattr(yaml, "CSafeLoader")
                monkeypatch.delattr(yaml, "CSafeDumper")
            out = tmp_path / f"out{int(strip)}"
            assert cli.main(["sync", "--config", str(path), "--out", str(out), "--quiet"]) == 0
            echoes.append((out / "config_echo.yaml").read_bytes())
        want = yaml.safe_dump(load_config(path).effective, sort_keys=True).encode()
        assert echoes == [want, want]


PINS = Path(__file__).with_name("config_pins.json")


def _pin(cfg) -> dict:
    """sha256 of cfg's echo bytes, of its other values and of its field coefficient bytes."""
    values = (cfg.grid, cfg.physics.nu1, cfg.physics.nu2, cfg.physics.mu, cfg.physics.interp,
              cfg.solver, cfg.system_kind, cfg.linear_only, sorted(cfg.experiment.items()),
              cfg.seed, cfg.output_dir, cfg.allow_inadmissible)
    fields = hashlib.sha256()
    for f in (cfg.physics.forcing, cfg.initial, cfg.assimilated_initial):
        fields.update(b"none" if f is None else f.coeffs.tobytes())
    return {"echo": hashlib.sha256(cfg.echo().encode()).hexdigest(),
            "values": hashlib.sha256(repr(values).encode()).hexdigest(),
            "fields": fields.hexdigest()}


def _pinned_cases():
    return [(i, seed) for i in range(len(_loadable_configs())) for seed in (None, 7)]


def _load_case(tmp_dir, i, seed):
    path = Path(tmp_dir) / "run.yaml"
    path.write_text(_loadable_configs()[i], encoding="utf-8")
    return load_config(path, seed_override=seed)


class TestPinnedConfigs:
    """Every loadable config, as loaded and with seed_override=7, against committed sha256s.

    Echo bytes and values are platform-independent.  Field coefficients come
    from numpy's generator and FFT, so their bytes are compared only under the
    numpy version and machine the pins were made with.  After a deliberate
    change, regenerate the pins with `PYTHONPATH=src python tests/test_runconfig.py`.
    """

    @pytest.mark.parametrize("i, seed", _pinned_cases())
    def test_echo_values_and_fields_match_pins(self, tmp_path, i, seed):
        pins = json.loads(PINS.read_text(encoding="utf-8"))
        want = pins["configs"][f"{i} seed={seed}"]
        got = _pin(_load_case(tmp_path, i, seed))
        assert got["echo"] == want["echo"]
        assert got["values"] == want["values"]
        if (np.__version__, platform.machine()) != (pins["numpy"], pins["machine"]):
            pytest.skip(f"field bytes pinned under numpy {pins['numpy']} on {pins['machine']}")
        assert got["fields"] == want["fields"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        configs = {f"{i} seed={seed}": _pin(_load_case(tmp, i, seed))
                   for i, seed in _pinned_cases()}
    PINS.write_text(json.dumps({"numpy": np.__version__, "machine": platform.machine(),
                                "configs": configs}, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
