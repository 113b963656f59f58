"""The attack record: the Wilson interval, the record's fields and the line it prints."""

import subprocess
import sys
from pathlib import Path

import pytest

import raagcrypt
from raagcrypt.analyze import AttackRecord, wilson95


class TestWilson95:
    @pytest.mark.parametrize("successes, trials, expected", [
        (0, 10, (0.0, 0.277533)),
        (10, 10, (0.722467, 1.0)),
        (5, 10, (0.236593, 0.763407)),
        (3, 1000, (0.001021, 0.008783)),
    ])
    def test_pinned_values(self, successes, trials, expected):
        assert wilson95(successes, trials) == pytest.approx(expected, abs=5e-7)

    def test_interval_contains_the_rate_at_both_clamps(self):
        for trials in range(1, 301):
            for successes in range(trials + 1):
                low, high = wilson95(successes, trials)
                assert 0.0 <= low <= successes / trials <= high <= 1.0, (successes, trials)
            assert wilson95(0, trials)[0] == 0.0 and wilson95(trials, trials)[1] == 1.0


class TestAttackRecord:
    def test_line_derives_rate_and_interval_from_the_counts(self):
        record = AttackRecord("cheat-random", (("rounds", 3),), 50, 5)
        assert record.line() == ("strategy cheat-random rounds 3 trials 50 accepted 5 "
                                 "wilson95 0.043476 0.213602 acceptance 0.100000")

    def test_fields_are_the_measured_counts_only(self):
        assert AttackRecord._fields == ("attack", "parameters", "trials", "successes")
        record = AttackRecord(attack="honest", parameters=(), trials=4, successes=4)
        assert record == AttackRecord("honest", (), 4, 4)
        with pytest.raises(TypeError):
            AttackRecord("honest", (), 4)
        with pytest.raises(AttributeError):
            record.successes = 3

    def test_the_package_import_leaves_analyze_out(self):
        root = str(Path(raagcrypt.__file__).resolve().parent.parent)
        code = (f"import sys; sys.path.insert(0, {root!r}); import raagcrypt; "
                "print('raagcrypt.analyze' in sys.modules)")
        result = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                                capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr
