import json
import math

import pytest

from hermite_obs import reporting, verify


class TestFormatting:
    def test_seventeen_digit_floats(self):
        assert reporting.fmt_float(1.0 / 3.0) == "0.33333333333333331"
        assert reporting.fmt_float(2) == "2"

    def test_non_finite(self):
        assert reporting.fmt_float(math.inf) == "inf"
        assert reporting.fmt_float(-math.inf) == "-inf"
        assert reporting.fmt_float(math.nan) == "nan"

    def test_sanitize_nested(self):
        doc = reporting.sanitize({"a": [math.inf, 1.5], "b": {"c": math.nan}})
        assert doc == {"a": ["inf", 1.5], "b": {"c": "nan"}}
        json.dumps(doc, allow_nan=False)  # strictly serializable

    def test_config_hash_stable_and_order_independent(self):
        h1 = reporting.config_hash({"x": 1, "y": [2.0, 3.0]})
        h2 = reporting.config_hash({"y": [2.0, 3.0], "x": 1})
        assert h1 == h2 and len(h1) == 16


class TestWriters:
    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        reporting.write_csv(str(path), ["a", "b"], [[1, 0.5], [2, 1.0 / 3.0]])
        assert path.read_bytes() == b"a,b\n1,0.5\n2,0.33333333333333331\n"

    def test_json_sorted_keys(self, tmp_path):
        path = tmp_path / "t.json"
        reporting.write_json(str(path), {"z": 1, "a": 2})
        text = path.read_text()
        assert text.index('"a"') < text.index('"z"')

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(reporting.EmitError):
            reporting.write_json(str(tmp_path / "no" / "t.json"), {})

    def test_xy_series(self, tmp_path):
        path = tmp_path / "s.dat"
        reporting.write_xy_series(str(path), [1.0, 2.0], [3.0, 4.5])
        assert path.read_text() == "1 3\n2 4.5\n"


class TestVerifyRunner:
    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            verify.run_suites(["no_such_suite"], seed=0)

    def test_verdict_shape(self):
        verdicts, ok = verify.run_suites(["est_chebyshev"], seed=1, trials=5)
        assert ok
        v = verdicts[0]
        assert set(v) == {"suite", "trials", "failures", "worst_margin", "seed"}
        assert v["trials"] == 5 and v["failures"] == 0

    def test_same_seed_same_margins(self):
        a, _ = verify.run_suites(["basis_ladder"], seed=11, trials=6)
        b, _ = verify.run_suites(["basis_ladder"], seed=11, trials=6)
        assert a == b


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_suite_is_its_named_module_function(name):
    # the tracer finds each suite as the module attribute suite_<name>; a
    # wrapper with __wrapped__ would give it the per-trial check's signature
    fn = verify.SUITES[name]
    assert fn is getattr(verify, "suite_" + name)
    assert fn.__name__ == "suite_" + name and not hasattr(fn, "__wrapped__")
    assert fn(seed=0, trials=1)["suite"] == name
