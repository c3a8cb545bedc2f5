"""The process execution config (repro.config): one ExecConfig parsed from
the environment in one place, overlaid and restored by ``use_config``."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.analyze.absint import prove_plan_predicate
from repro.analyze.planverify import assert_valid_plan
from repro.config import (
    DEFAULT_WORKERS,
    ExecConfig,
    exec_config,
    from_env,
    use_config,
)
from repro.dbms.plan import (
    plan_annotator,
    plan_verifier,
    set_plan_annotator,
    set_plan_verifier,
)
from repro.errors import TiogaError
from repro.obs.lineage import active_lineage

ALL_ON = {
    "REPRO_PARALLEL": "1", "REPRO_COLUMNAR": "1", "REPRO_ABSINT": "1",
    "REPRO_LINEAGE": "1", "REPRO_PLAN_VERIFY": "1",
}

#: env -> the ExecConfig fields it sets (everything else stays default).
#: The first rows are the CI legs, with the settings they ran under before
#: the config was unified.
ENV_TABLE = [
    ("plain", {}, {}),
    ("verify-leg", {"REPRO_PLAN_VERIFY": "1"}, {"verify": True}),
    ("parallel-leg", {"REPRO_PARALLEL": "1", "REPRO_PLAN_VERIFY": "1"},
     {"workers": DEFAULT_WORKERS, "cache": True, "verify": True}),
    ("columnar-leg", {"REPRO_COLUMNAR": "1", "REPRO_PLAN_VERIFY": "1"},
     {"columnar": True, "verify": True}),
    ("absint-leg", {"REPRO_ABSINT": "1", "REPRO_PLAN_VERIFY": "1"},
     {"absint": True, "verify": True}),
    ("lineage-leg", {"REPRO_LINEAGE": "1", "REPRO_PLAN_VERIFY": "1"},
     {"lineage": True, "verify": True}),
    ("all-on-leg", ALL_ON,
     {"workers": DEFAULT_WORKERS, "cache": True, "columnar": True,
      "absint": True, "lineage": True, "verify": True}),
    ("explicit-workers", {"REPRO_PARALLEL": "8"},
     {"workers": 8, "cache": True}),
    ("empty-is-off", dict.fromkeys(ALL_ON, ""), {}),
    ("zero-is-off", dict.fromkeys(ALL_ON, "0"), {}),
    # One truthiness rule: any other value turns a flag on.
    ("true-spelling", {"REPRO_PLAN_VERIFY": "true", "REPRO_ABSINT": "yes",
                       "REPRO_LINEAGE": "true", "REPRO_COLUMNAR": "on"},
     {"verify": True, "absint": True, "lineage": True, "columnar": True}),
    # Removed spellings are ignored, not half-honoured.
    ("removed-spellings",
     {"REPRO_PARALLEL": "1", "REPRO_PARALLEL_CACHE": "0",
      "REPRO_PARALLEL_MORSEL": "16", "REPRO_COLUMNAR_BATCH": "7",
      "REPRO_LINEAGE_MAX": "3"},
     {"workers": DEFAULT_WORKERS, "cache": True}),
]


@pytest.mark.parametrize(
    "env, fields", [row[1:] for row in ENV_TABLE],
    ids=[row[0] for row in ENV_TABLE])
def test_from_env_table(env, fields):
    assert from_env(env) == ExecConfig(**fields)


@pytest.mark.parametrize("raw", ["four", "-2", "1.5", " 4", "4x", "00"])
def test_malformed_parallel_is_rejected(raw):
    with pytest.raises(TiogaError) as info:
        from_env({"REPRO_PARALLEL": raw})
    assert "REPRO_PARALLEL" in str(info.value)
    assert repr(raw) in str(info.value)


def test_only_the_config_module_reads_repro_env():
    """Every REPRO_* variable is read in repro/config.py and nowhere else."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    readers = sorted(
        str(path.relative_to(src))
        for path in src.rglob("*.py")
        if re.search(r"\benviron\b", text := path.read_text())
        and "REPRO_" in text
    )
    assert readers == ["config.py"]


class TestExecConfig:
    def test_default_runs_plans_as_built(self):
        config = ExecConfig()
        assert config.plain and not config.parallel
        assert not (config.lineage or config.absint or config.verify)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ExecConfig().workers = 4

    def test_partition_rows(self):
        assert ExecConfig(morsel_size=64).partition_rows == 128
        assert ExecConfig(min_partition_rows=1).partition_rows == 2
        assert ExecConfig(min_partition_rows=500).partition_rows == 500


class TestUseConfig:
    @pytest.fixture(autouse=True)
    def _plain(self):
        """Start from the default config whatever the environment set."""
        with use_config(ExecConfig()):
            yield

    def test_overlay_keeps_env_installed_fields(self):
        # What Engine(workers=4) gave under REPRO_COLUMNAR=1.
        with use_config(from_env({"REPRO_COLUMNAR": "1"})):
            with use_config(workers=4) as config:
                assert config.columnar and config.workers == 4
                assert exec_config() is config
            assert exec_config() == ExecConfig(columnar=True)

    def test_installs_hooks_to_match(self):
        assert plan_annotator() is None and plan_verifier() is None
        assert active_lineage() is None
        with use_config(absint=True, verify=True, lineage=True,
                        max_mappings=5):
            assert plan_annotator() is prove_plan_predicate
            assert plan_verifier() is assert_valid_plan
            assert active_lineage().max_mappings == 5
            with use_config(absint=False, verify=False, lineage=False):
                assert plan_annotator() is None
                assert plan_verifier() is None
                assert active_lineage() is None
            assert plan_annotator() is prove_plan_predicate
        assert plan_annotator() is None and plan_verifier() is None
        assert active_lineage() is None

    def test_unchanged_fields_leave_direct_hooks_alone(self):
        """A verifier installed directly (a test's counting hook) survives
        an overlay that does not touch ``verify``."""

        def counting(root):
            pass

        set_plan_verifier(counting)
        with use_config(workers=2, columnar=True):
            assert plan_verifier() is counting
        assert plan_verifier() is counting

    def test_restores_everything_when_body_raises(self):
        before = exec_config()

        def stray(predicate, child):
            return None

        with pytest.raises(RuntimeError):
            with use_config(workers=3, absint=True, verify=True,
                            lineage=True):
                set_plan_annotator(stray)     # replaced inside the block
                raise RuntimeError("boom")
        assert exec_config() is before
        assert plan_annotator() is None
        assert plan_verifier() is None
        assert active_lineage() is None

    def test_unknown_field_is_rejected(self):
        with pytest.raises(TypeError):
            with use_config(morsels=4):
                pass
        assert exec_config() == ExecConfig()
