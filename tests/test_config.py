"""Tests for config parsing, per-scenario defaults, and policy assembly."""

import math
import re
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from chsolver import (
    AdaptiveStep,
    SimConfig,
    ConfigParseError,
    ConfigValidationError,
    FixedStep,
    PrescribedMesh,
    SCENARIO_NAMES,
    build_policy,
    build_scenario,
    parse_config,
    r_max_root,
)
from chsolver import config


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestDefaults:
    def test_empty_file_plus_scenario_override(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""), scenario="kissing_bubbles")
        assert cfg.scenario == "kissing_bubbles"
        assert cfg.modes == 128
        assert cfg.dim == 2
        assert np.isclose(cfg.eps, math.sqrt(0.1))
        assert cfg.horizon == 1.0
        assert cfg.policy_kind == "adaptive"
        assert (cfg.tau_min, cfg.tau_max, cfg.alpha) == (1e-4, 7e-3, 0.01)
        assert cfg.snapshots == (0.0, 0.1, 0.2, 0.5, 0.8, 1.0)

    def test_every_scenario_has_complete_defaults(self, tmp_path):
        path = write(tmp_path, "")
        for name in SCENARIO_NAMES:
            cfg = parse_config(path, scenario=name)
            build_scenario(cfg)

    def test_convergence_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, "scenario = convergence"))
        assert cfg.eps == 0.2
        assert cfg.horizon == 0.1
        assert cfg.policy_kind == "random"
        assert cfg.count == 400
        assert cfg.ref_steps == 12800

    def test_coarsening3d_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""), scenario="coarsening3d")
        assert cfg.dim == 3
        assert cfg.modes == 48
        assert np.isclose(cfg.eps, 2.0 * math.pi / 48.0)
        assert (cfg.tau_min, cfg.tau_max, cfg.alpha) == (4e-5, 1e-4, 1.0)

    def test_equilibrium_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""), scenario="equilibrium")
        assert cfg.policy_kind == "fixed"
        assert cfg.tau == 0.01


class TestParsing:
    def test_full_file(self, tmp_path):
        text = """
        # full override
        scenario = coarsening2d
        n = 48
        seed = 7
        dealias = yes

        [policy]
        kind = adaptive
        tau_min = 1e-5
        tau_max = 2e-4   # trailing comment
        alpha = 0.5

        [output]
        outdir = results
        snapshots = 0, 0.5, 1.5
        record_every = 10
        """
        cfg = parse_config(write(tmp_path, text))
        assert cfg.scenario == "coarsening2d"
        assert cfg.modes == 48
        assert cfg.seed == 7
        assert cfg.dealias is True
        assert cfg.tau_max == 2e-4
        assert cfg.alpha == 0.5
        assert cfg.outdir == "results"
        assert cfg.snapshots == (0.0, 0.5, 1.5)
        assert cfg.record_every == 10
        # untouched keys keep scenario defaults
        assert cfg.eps == 0.3
        assert cfg.horizon == 3.0

    def test_keys_before_header_belong_to_run(self, tmp_path):
        cfg = parse_config(write(tmp_path, "scenario = equilibrium\nn = 16\n"))
        assert cfg.modes == 16

    def test_scenario_argument_beats_file(self, tmp_path):
        cfg = parse_config(write(tmp_path, "scenario = equilibrium"), scenario="convergence")
        assert cfg.scenario == "convergence"

    def test_eps2_takes_square_root(self, tmp_path):
        cfg = parse_config(write(tmp_path, "scenario = kissing_bubbles\neps2 = 0.04"))
        assert np.isclose(cfg.eps, 0.2)

    def test_bool_spellings(self, tmp_path):
        for raw, expected in [("true", True), ("On", True), ("0", False), ("no", False)]:
            cfg = parse_config(
                write(tmp_path, f"scenario = equilibrium\ndealias = {raw}", name=f"{raw}.cfg")
            )
            assert cfg.dealias is expected

    def test_unknown_key_reports_line(self, tmp_path):
        with pytest.raises(ConfigParseError, match="line 2: unknown key 'foo'"):
            parse_config(write(tmp_path, "scenario = equilibrium\nfoo = 1\n"))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigParseError, match="unknown section 'extras'"):
            parse_config(write(tmp_path, "[extras]\nx = 1\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigParseError, match="duplicate key"):
            parse_config(write(tmp_path, "scenario = equilibrium\nn = 8\nn = 16\n"))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigParseError, match="expected 'key = value'"):
            parse_config(write(tmp_path, "scenario equilibrium\n"))

    def test_bad_value_type(self, tmp_path):
        with pytest.raises(ConfigParseError, match="line 2: cannot parse"):
            parse_config(write(tmp_path, "scenario = equilibrium\nn = many\n"))

    def test_unterminated_section(self, tmp_path):
        with pytest.raises(ConfigParseError, match="unterminated section"):
            parse_config(write(tmp_path, "[policy\n"))


class TestValidation:
    def test_scenario_required(self, tmp_path):
        with pytest.raises(ConfigValidationError, match="no scenario selected"):
            parse_config(write(tmp_path, "n = 16"))

    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(ConfigValidationError, match="unknown scenario"):
            parse_config(write(tmp_path, ""), scenario="melting")

    def test_eps_conflict(self, tmp_path):
        with pytest.raises(ConfigValidationError, match="not both"):
            parse_config(write(tmp_path, "scenario = equilibrium\neps = 0.1\neps2 = 0.01"))

    def test_odd_modes_rejected(self, tmp_path):
        with pytest.raises(ConfigValidationError, match="even"):
            parse_config(write(tmp_path, "scenario = equilibrium\nn = 15"))

    def test_adaptive_bounds_checked(self, tmp_path):
        text = "scenario = coarsening2d\n[policy]\ntau_min = 1e-3\ntau_max = 1e-4\n"
        with pytest.raises(ConfigValidationError, match="tau_min <= tau_max"):
            parse_config(write(tmp_path, text))

    def test_snapshot_beyond_horizon(self, tmp_path):
        text = "scenario = equilibrium\n[output]\nsnapshots = 0.0, 5.0\n"
        with pytest.raises(ConfigValidationError, match="snapshot times"):
            parse_config(write(tmp_path, text))

    @pytest.mark.parametrize("check_snapshots", [True, False])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1.0"])
    def test_snapshot_times_must_be_finite_and_nonnegative(self, tmp_path, bad, check_snapshots):
        # a subcommand that writes no snapshot waives only the upper bound
        text = f"scenario = equilibrium\n[output]\nsnapshots = 0.0, {bad}\n"
        with pytest.raises(ConfigValidationError, match=re.escape("snapshot times must lie in [0, horizon]")):
            parse_config(write(tmp_path, text), check_snapshots=check_snapshots)

    def test_unknown_policy_kind(self, tmp_path):
        with pytest.raises(ConfigValidationError, match="unknown policy kind"):
            parse_config(write(tmp_path, "scenario = equilibrium\n[policy]\nkind = magic\n"))

    def test_fixed_needs_tau(self, tmp_path):
        text = "scenario = convergence\n[policy]\nkind = fixed\n"
        with pytest.raises(ConfigValidationError, match="needs tau"):
            parse_config(write(tmp_path, text))

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "section,key",
        [
            ("run", "horizon"),
            ("run", "eps"),
            ("run", "eps2"),
            ("run", "length"),
            ("policy", "tau"),
            ("policy", "tau_min"),
            ("policy", "tau_max"),
            ("policy", "alpha"),
            ("policy", "delta"),
            ("output", "snapshots"),
        ],
    )
    def test_nonfinite_value_rejected(self, tmp_path, section, key, value):
        text = f"scenario = kissing_bubbles\n[{section}]\n{key} = {value}\n"
        with pytest.raises(ConfigValidationError):
            parse_config(write(tmp_path, text))


    @pytest.mark.parametrize("kind", ["fixed", "random", "adaptive"])
    @pytest.mark.parametrize(
        "key,value,match",
        [
            ("tau", "-1", "tau must be positive"),
            ("tau", "0", "tau must be positive"),
            ("count", "0", "count must be >= 2"),
            ("count", "1", "count must be >= 2"),
            ("tau_min", "-1e-4", "tau_min must be positive"),
            ("tau_max", "0", "tau_max must be positive"),
            ("alpha", "-0.5", "alpha must be nonnegative"),
            ("delta", "0", "delta must lie in"),
            ("delta", "4", "delta must lie in"),
        ],
    )
    def test_policy_keys_range_checked_under_every_kind(self, tmp_path, kind, key, value, match):
        # the keys a kind needs come from the preset or the file; the bad key
        # is rejected even where that kind ignores it
        keys = {"kind": kind, "tau": "0.01", "count": "10", key: value}
        text = "scenario = kissing_bubbles\n[policy]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        with pytest.raises(ConfigValidationError, match=match):
            parse_config(write(tmp_path, text))

    @pytest.mark.parametrize("kind", ["fixed", "random", "adaptive"])
    @pytest.mark.parametrize("key", ["tau", "tau_min"])
    def test_step_floor_under_every_kind(self, tmp_path, kind, key):
        # horizon 1: landing_tol is 1e-12, and a step no longer than it is
        # rejected even where the kind ignores the key
        def text(value):
            keys = {"kind": kind, "tau": "0.01", "count": "10", key: value}
            return "scenario = kissing_bubbles\n[policy]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())

        message = f"{key} = 1e-12 is not longer than the landing tolerance 1e-12"
        with pytest.raises(ConfigValidationError, match=re.escape(message)):
            parse_config(write(tmp_path, text("1e-12")))
        assert getattr(parse_config(write(tmp_path, text("2e-12"))), key) == 2e-12

    @pytest.mark.parametrize(
        "key,value,eps",
        [
            ("eps", "1e200", "1e+200"),  # eps**2 overflows
            ("eps", "1e154", "1e+154"),  # 1/(4 eps^2) is 0.0
            ("eps", "1e-155", "1e-155"),  # 1/eps^2 is inf
            ("eps", "1e-200", "1e-200"),  # eps**2 is 0.0
            ("eps2", "1e-320", "9.99994433575849e-161"),
        ],
    )
    def test_eps_range_at_each_end(self, tmp_path, key, value, eps):
        # the cubic's weight 1/eps^2 and the double-well's 1/(4 eps^2) must
        # be positive finite floats
        text = f"scenario = kissing_bubbles\n{key} = {value}\n"
        message = f"eps = {eps} is out of range: 1/eps^2 and 1/(4 eps^2) must be positive finite floats"
        with pytest.raises(ConfigValidationError, match=re.escape(message)):
            parse_config(write(tmp_path, text))

    @pytest.mark.parametrize("value", [1e153, 1e-154])
    def test_eps_range_keeps_its_last_floats(self, tmp_path, value):
        assert parse_config(write(tmp_path, f"scenario = kissing_bubbles\neps = {value!r}\n")).eps == value

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_kernels_need_two_rows(self, tmp_path, value):
        # random_mesh, which the kernels command draws its mesh from, needs two steps
        with pytest.raises(ConfigValidationError, match="max_n must be >= 2"):
            parse_config(write(tmp_path, f"scenario = convergence\n[kernels]\nmax_n = {value}\n"))
        assert parse_config(write(tmp_path, "scenario = convergence\n[kernels]\nmax_n = 2\n")).max_n == 2

    @pytest.mark.parametrize("kind", ["fixed", "random", "adaptive"])
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_every_preset_parses_under_every_kind(self, tmp_path, scenario, kind):
        text = (
            f"scenario = {scenario}\n[policy]\nkind = {kind}\n"
            "tau = 0.01\ncount = 10\ntau_min = 1e-5\ntau_max = 1e-3\nalpha = 0.01\n"
        )
        cfg = parse_config(write(tmp_path, text))
        assert cfg.policy_kind == kind
        build_scenario(cfg)


class TestAssembly:
    def test_fixed_policy(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""), scenario="equilibrium")
        policy = build_policy(cfg)
        assert isinstance(policy, FixedStep)
        assert policy.tau == 0.01

    def test_random_policy_is_seeded_mesh(self, tmp_path):
        cfg = parse_config(write(tmp_path, "scenario = convergence\n[policy]\ncount = 50\n"))
        policy = build_policy(cfg)
        assert isinstance(policy, PrescribedMesh)
        assert policy.mesh.count == 50
        assert np.isclose(policy.mesh.horizon, cfg.horizon)
        again = build_policy(cfg)
        assert np.array_equal(policy.mesh.steps, again.mesh.steps)

    def test_adaptive_policy_with_delta(self, tmp_path):
        text = "scenario = coarsening2d\n[policy]\ndelta = 0.2\n"
        policy = build_policy(parse_config(write(tmp_path, text)))
        assert isinstance(policy, AdaptiveStep)
        assert np.isclose(policy.ratio_cap, r_max_root() - 0.2)

    def test_scenario_round_trip(self, tmp_path):
        cfg = parse_config(write(tmp_path, ""), scenario="kissing_bubbles")
        sc = build_scenario(cfg)
        assert sc.name == "kissing_bubbles"
        assert (sc.dim, sc.modes, sc.length) == (2, 128, cfg.length)
        assert sc.snapshot_times == cfg.snapshots
        assert isinstance(sc.policy, AdaptiveStep)


class TestKeyTable:
    """The section table, SimConfig's fields and the module docstring name
    the same keys."""

    def test_every_key_sets_one_field_and_every_field_has_a_key(self):
        keys = [key for table in config._SECTIONS.values() for key in table]
        targets = Counter(config._FIELD_NAMES.get(key, "eps" if key == "eps2" else key) for key in keys)
        # eps is set by eps and by eps2; every other field by one key
        assert targets == Counter({f.name: 1 for f in fields(SimConfig)}) + Counter({"eps": 1})

    def test_docstring_lists_each_sections_keys(self):
        listed, section = {}, None
        for line in config.__doc__.split("Sections and keys:")[1].splitlines():
            header = re.match(r"\s*\[(\w+)\](.*)", line)
            if header:
                section, line = header[1], header[2]
            names = re.sub(r"\([^)]*\)", "", line).split(",")
            listed.setdefault(section, []).extend(name.strip() for name in names if name.strip())
        listed.pop(None, None)
        assert listed == {name: list(table) for name, table in config._SECTIONS.items()}
