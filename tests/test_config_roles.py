"""Every field of the configs a fuzzing job hashes says whether it can
change a result (``repro.config``): the checkpoint fingerprint and the
verify memo's key are derived from those tags, so an untagged field
would silently fall out of one or the other."""

from dataclasses import fields, is_dataclass

import pytest

from repro.config import (OPERATIONAL, SEMANTIC, field_role, semantic_dict,
                          semantic_key)
from repro.fuzz import FeedbackConfig, FuzzConfig
from repro.mutate import MutatorConfig
from repro.tv import ExecutionLimits, RefinementConfig

CONFIGS = (FuzzConfig, RefinementConfig, ExecutionLimits, MutatorConfig,
           FeedbackConfig)


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.__name__)
def test_every_field_is_tagged(config):
    untagged = [item.name for item in fields(config)
                if field_role(item) not in (SEMANTIC, OPERATIONAL)]
    assert untagged == []


def test_nested_configs_are_covered():
    # Every dataclass FuzzConfig nests is one of CONFIGS.
    seen = set()
    stack = [FuzzConfig()]
    while stack:
        config = stack.pop()
        seen.add(type(config))
        stack.extend(getattr(config, item.name) for item in fields(config)
                     if is_dataclass(getattr(config, item.name)))
    assert seen == set(CONFIGS)


def test_operational_fields_are_left_out():
    payload = semantic_dict(FuzzConfig())
    for name in ("save_dir", "save_all", "log_path"):
        assert name not in payload
    assert "batched" not in payload["tv"]
    assert "corpus_dir" not in payload["feedback"]
    assert payload["tv"]["limits"] == {"max_steps": 4096,
                                       "max_call_depth": 8}


def test_cache_key_covers_every_semantic_refinement_field():
    base = RefinementConfig()
    assert base.cache_key() == RefinementConfig(batched=False).cache_key()
    for changed in (RefinementConfig(max_inputs=7),
                    RefinementConfig(max_nondet_runs=3),
                    RefinementConfig(pointer_block_size=8),
                    RefinementConfig(seed=5),
                    RefinementConfig(limits=ExecutionLimits(max_steps=9)),
                    RefinementConfig(limits=ExecutionLimits(
                        max_call_depth=2))):
        assert changed.cache_key() != base.cache_key()
    hash(semantic_key(MutatorConfig(enabled_mutations=["shuffle"])))


def test_an_untagged_field_is_refused():
    from dataclasses import dataclass

    @dataclass
    class Loose:
        knob: int = 1

    with pytest.raises(TypeError, match="Loose.knob"):
        semantic_key(Loose())
