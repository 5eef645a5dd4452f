"""The public surface the README promises."""

import dataclasses
import inspect
import pathlib
import re

import tscnc

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _piecemeal_names():
    paragraphs = README.read_text(encoding="utf-8").split("\n\n")
    (para,) = [p for p in paragraphs if "for piecemeal use" in p]
    return [n for n in re.findall(r"`(\w+)`", para) if n != "tscnc"]


def test_readme_piecemeal_names_import_from_package():
    names = _piecemeal_names()
    assert "backward" in names
    for name in names:
        assert name in tscnc.__all__, name
        assert callable(getattr(tscnc, name)), name



def test_a_run_takes_its_config_alone():
    # the config names the dataset and the architecture; the callback is
    # keyword-only, so a stale run_tscnc(config, data) fails at the call
    params = inspect.signature(tscnc.run_tscnc).parameters
    assert [(p.name, p.kind) for p in params.values()] == [
        ("config", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("on_epoch", inspect.Parameter.KEYWORD_ONLY)]
    assert params["on_epoch"].default is None


def test_masked_layer_holds_only_independent_state():
    # a conv's channel counts are read off W, and prune.protected alone
    # keeps a layer dense: neither is a stored field
    assert [f.name for f in dataclasses.fields(tscnc.network.MaskedLayer)] == [
        "kind", "W", "Z", "b", "kernel_size", "stride", "pad", "_plan"]


def test_one_fgsm_and_no_clamp():
    # FGSM is pgd on fgsm_spec(eps), and attacks clip to the data's range
    assert [f.name for f in dataclasses.fields(tscnc.AttackSpec)] == [
        "epsilon", "step_size", "steps", "random_start"]
    assert not hasattr(tscnc.attacks, "fgsm")
    assert "fgsm_spec" in tscnc.__all__ and "fgsm" not in tscnc.__all__
    assert list(inspect.signature(tscnc.fgsm_spec).parameters) == ["epsilon"]
    assert tscnc.data.FEATURE_RANGE == (0.0, 1.0)
