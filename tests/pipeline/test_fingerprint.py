"""Content-address fingerprints: stability and invalidation."""

from repro.bench.runner import RunnerConfig
from repro.pipeline.fingerprint import fingerprint_stage, params_digest
from repro.pipeline.stage import Pipeline, Stage


def noop(inputs, params):
    return None


class TestParamsDigest:
    def test_stable_across_calls(self):
        params = {"budget": 8, "pruner": "decision tree"}
        assert params_digest(params) == params_digest(dict(params))

    def test_none_params_have_a_digest(self):
        assert params_digest(None) == params_digest(None)

    def test_value_change_changes_digest(self):
        assert params_digest({"budget": 8}) != params_digest({"budget": 9})

    def test_dataclass_params(self):
        assert params_digest(RunnerConfig(seed=1)) == params_digest(
            RunnerConfig(seed=1)
        )
        assert params_digest(RunnerConfig(seed=1)) != params_digest(
            RunnerConfig(seed=2)
        )

    def test_type_distinctions_matter(self):
        # A tuple and a list of the same values are different content.
        assert params_digest({"v": (1, 2)}) != params_digest({"v": [1, 2]})


class TestFingerprintStage:
    def test_deterministic(self):
        fp = fingerprint_stage("s", "1", {"a": 1}, {"p": "abc"})
        assert fp == fingerprint_stage("s", "1", {"a": 1}, {"p": "abc"})
        assert len(fp) == 64 and int(fp, 16) >= 0

    def test_name_version_params_parents_all_matter(self):
        base = fingerprint_stage("s", "1", {"a": 1}, {"p": "abc"})
        assert fingerprint_stage("t", "1", {"a": 1}, {"p": "abc"}) != base
        assert fingerprint_stage("s", "2", {"a": 1}, {"p": "abc"}) != base
        assert fingerprint_stage("s", "1", {"a": 2}, {"p": "abc"}) != base
        assert fingerprint_stage("s", "1", {"a": 1}, {"p": "xyz"}) != base

    def test_parent_sequence_form(self):
        # Sequence parents hash by position, mapping parents by name=fp.
        a = fingerprint_stage("s", "1", None, ["f1", "f2"])
        b = fingerprint_stage("s", "1", None, ["f2", "f1"])
        assert a != b


class TestPipelineFingerprints:
    def make(self):
        p = Pipeline()
        p.add(Stage("root", noop))
        p.add(Stage("mid", noop, ("root",)))
        p.add(Stage("leaf", noop, ("mid",)))
        p.add(Stage("side", noop, ("root",)))
        return p

    def test_root_param_change_propagates_to_all_descendants(self):
        p = self.make()
        before = p.fingerprints({"root": {"seed": 0}})
        after = p.fingerprints({"root": {"seed": 1}})
        assert all(before[name] != after[name] for name in before)

    def test_mid_param_change_spares_siblings(self):
        p = self.make()
        before = p.fingerprints({"mid": {"k": 0}})
        after = p.fingerprints({"mid": {"k": 1}})
        assert before["root"] == after["root"]
        assert before["side"] == after["side"]
        assert before["mid"] != after["mid"]
        assert before["leaf"] != after["leaf"]

    def test_descendants(self):
        p = self.make()
        assert p.descendants("root") == ["mid", "leaf", "side"]
        assert p.descendants("mid") == ["leaf"]
        assert p.descendants("leaf") == []
