"""Tests for the declarative algorithm registry (repro.core.registry)."""

import pytest

from repro.core.algorithms import (
    CacheAwareOptions,
    CacheObliviousOptions,
    DeterministicOptions,
)
from repro.core.registry import (
    AlgorithmOptions,
    NoOptions,
    algorithm_names,
    algorithm_specs,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
)
from repro.exceptions import AlgorithmError, OptionsError, RegistrationError

#: The seven paper/baseline algorithms plus the vectorized in-memory
#: registrations of :mod:`repro.fastpath.algorithms` and the out-of-core
#: pair of :mod:`repro.fastpath.oocore`.
BUILTINS = [
    "cache_aware",
    "deterministic",
    "cache_oblivious",
    "hu_tao_chung",
    "dementiev",
    "bnlj",
    "in_memory",
    "vector_count",
    "vector_enum",
    "oocore_count",
    "oocore_enum",
]


class TestBuiltins:
    def test_all_builtins_registered_in_order(self):
        assert algorithm_names() == BUILTINS

    def test_substrate_kinds(self):
        substrates = {spec.name: spec.substrate for spec in algorithm_specs()}
        assert substrates["cache_oblivious"] == "oblivious-vm"
        assert substrates["in_memory"] == "in-memory"
        for name in ("cache_aware", "deterministic", "hu_tao_chung", "dementiev", "bnlj"):
            assert substrates[name] == "machine"

    def test_seed_acceptance_declared(self):
        accepts = {spec.name: spec.accepts_seed for spec in algorithm_specs()}
        assert accepts["cache_aware"] and accepts["cache_oblivious"]
        assert not accepts["deterministic"]
        assert not accepts["bnlj"]

    def test_specs_carry_paper_metadata(self):
        spec = get_algorithm("cache_aware")
        assert spec.section.startswith("2")
        assert "E^{3/2}" in spec.io_bound
        assert spec.options_type is CacheAwareOptions

    def test_unknown_algorithm_raises(self):
        with pytest.raises(AlgorithmError, match="quantum"):
            get_algorithm("quantum")


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        @register_algorithm(
            "_test_dup",
            summary="t",
            section="-",
            io_bound="-",
            substrate="in-memory",
            accepts_seed=False,
        )
        def first(context, sink, options):
            return None

        try:
            with pytest.raises(RegistrationError, match="already registered"):
                register_algorithm(
                    "_test_dup",
                    summary="t",
                    section="-",
                    io_bound="-",
                    substrate="in-memory",
                    accepts_seed=False,
                )(lambda context, sink, options: None)
        finally:
            unregister_algorithm("_test_dup")

    def test_unknown_substrate_rejected(self):
        with pytest.raises(RegistrationError, match="substrate"):
            register_algorithm(
                "_test_substrate",
                summary="t",
                section="-",
                io_bound="-",
                substrate="quantum-foam",
                accepts_seed=False,
            )

    def test_shardable_requires_machine_substrate(self):
        with pytest.raises(RegistrationError, match="shardable"):
            register_algorithm(
                "_test_shardable",
                summary="t",
                section="-",
                io_bound="-",
                substrate="in-memory",
                accepts_seed=False,
                shardable=True,
            )

    def test_options_must_be_algorithm_options_subclass(self):
        with pytest.raises(RegistrationError, match="AlgorithmOptions"):
            register_algorithm(
                "_test_options",
                summary="t",
                section="-",
                io_bound="-",
                substrate="in-memory",
                accepts_seed=False,
                options=dict,
            )

    def test_registered_algorithm_visible_and_removable(self):
        @register_algorithm(
            "_test_visible",
            summary="t",
            section="-",
            io_bound="-",
            substrate="in-memory",
            accepts_seed=False,
        )
        def runner(context, sink, options):
            return None

        try:
            assert "_test_visible" in algorithm_names()
            assert get_algorithm("_test_visible").runner is runner
        finally:
            unregister_algorithm("_test_visible")
        assert "_test_visible" not in algorithm_names()


class TestFreshInterpreterBehaviour:
    """The registry populates lazily; these paths must work as the very
    first registry touch of a process (exercised in a subprocess)."""

    def _run(self, code):
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        src = str(pathlib.Path(repro.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)

    def test_algorithms_view_get_works_before_any_refresh(self):
        completed = self._run(
            "from repro.core.api import ALGORITHMS\n"
            "assert ALGORITHMS.get('cache_aware') is not None\n"
            "assert len(ALGORITHMS.values()) == 11\n"
        )
        assert completed.returncode == 0, completed.stderr

    def test_plugin_cannot_claim_builtin_name_on_empty_registry(self):
        completed = self._run(
            "from repro.core.registry import register_algorithm, get_algorithm\n"
            "from repro.exceptions import RegistrationError\n"
            "try:\n"
            "    register_algorithm('cache_aware', summary='t', section='-',\n"
            "                       io_bound='-', substrate='in-memory',\n"
            "                       accepts_seed=False)(lambda c, s, o: None)\n"
            "except RegistrationError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('duplicate builtin registration was allowed')\n"
            "assert get_algorithm('cache_aware').substrate == 'machine'\n"
        )
        assert completed.returncode == 0, completed.stderr


class TestTypedOptions:
    def test_unknown_option_rejected(self):
        with pytest.raises(OptionsError, match="nonsense"):
            CacheAwareOptions.from_mapping({"nonsense": 1})

    def test_wrong_type_rejected(self):
        with pytest.raises(OptionsError, match="num_colors"):
            CacheAwareOptions.from_mapping({"num_colors": "three"})
        with pytest.raises(OptionsError, match="num_colors"):
            CacheAwareOptions.from_mapping({"num_colors": True})

    def test_out_of_range_rejected(self):
        with pytest.raises(OptionsError, match=">= 1"):
            CacheAwareOptions.from_mapping({"num_colors": 0})
        with pytest.raises(OptionsError, match="max_family_size"):
            DeterministicOptions.from_mapping({"max_family_size": 0})

    def test_cache_oblivious_options(self):
        options = CacheObliviousOptions.from_mapping({"max_depth": 0})
        assert options.max_depth == 0
        with pytest.raises(OptionsError, match="size_recorder"):
            CacheObliviousOptions.from_mapping({"size_recorder": 42})

    def test_valid_options_round_trip(self):
        options = DeterministicOptions.from_mapping({"num_colors": 4, "max_family_size": 64})
        assert options.to_mapping() == {"num_colors": 4, "max_family_size": 64}

    def test_resolve_accepts_dataclass_instance(self):
        spec = get_algorithm("cache_aware")
        options = CacheAwareOptions(num_colors=2)
        assert spec.resolve_options(options, None) is options

    def test_resolve_rejects_wrong_dataclass(self):
        spec = get_algorithm("cache_aware")
        with pytest.raises(OptionsError, match="CacheAwareOptions"):
            spec.resolve_options(DeterministicOptions(), None)

    def test_resolve_rejects_mixed_forms(self):
        spec = get_algorithm("cache_aware")
        with pytest.raises(OptionsError, match="not both"):
            spec.resolve_options(CacheAwareOptions(), {"num_colors": 2})
        with pytest.raises(OptionsError, match="both in mapping"):
            spec.resolve_options({"num_colors": 2}, {"num_colors": 3})

    def test_no_options_schema_is_empty(self):
        assert get_algorithm("bnlj").options_schema() == []
        assert isinstance(NoOptions(), AlgorithmOptions)

    def test_options_schema_rows(self):
        schema = get_algorithm("deterministic").options_schema()
        names = [row["name"] for row in schema]
        assert names == ["num_colors", "max_family_size"]
        defaults = {row["name"]: row["default"] for row in schema}
        assert defaults == {"num_colors": None, "max_family_size": 256}
