"""Unit tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main
from repro.data import GeneratorConfig, generate, save_csv, save_fimi


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    config = GeneratorConfig(
        n_records=300, n_attributes=8, min_values=2, max_values=3,
        n_rules=1, min_length=2, max_length=2,
        min_coverage=60, max_coverage=60,
        min_confidence=0.9, max_confidence=0.9)
    dataset = generate(config, seed=55).dataset
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    save_csv(dataset, path)
    return str(path)


class TestParser:
    def test_mine_requires_min_sup(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["mine", "x.csv"])

    def test_unknown_correction_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["mine", "x.csv", "--min-sup", "10",
                               "--correction", "magic"])

    @pytest.mark.parametrize("policy", ["packed", "bitset", "auto"])
    def test_policy_option_rejected(self, policy, capsys):
        """The permutation pass has one storage; no --policy flag."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["mine", "x.csv", "--min-sup",
                                       "10", "--policy", policy])
        assert excinfo.value.code == 2
        assert "--policy" in capsys.readouterr().err

    def test_defaults(self):
        args = build_parser().parse_args(["mine", "x.csv",
                                          "--min-sup", "10"])
        assert args.correction == "bh"
        assert args.alpha == 0.05
        assert args.permutations == 1000


class TestCommands:
    def test_datasets_listing(self):
        out = io.StringIO()
        assert main(["datasets"], out=out) == 0
        text = out.getvalue()
        for name in ("adult", "german", "hypo", "mushroom"):
            assert f"builtin:{name}" in text

    def test_corrections_listing(self):
        out = io.StringIO()
        assert main(["corrections"], out=out) == 0
        text = out.getvalue()
        for key in ("bonferroni", "bh", "by", "lamp",
                    "permutation-fwer"):
            assert key in text

    def test_mine_csv(self, csv_path):
        out = io.StringIO()
        code = main(["mine", csv_path, "--min-sup", "30",
                     "--correction", "bonferroni", "--top", "3"],
                    out=out)
        assert code == 0
        text = out.getvalue()
        assert "BC:" in text
        assert "=>" in text

    def test_mine_builtin(self):
        out = io.StringIO()
        code = main(["mine", "builtin:german", "--min-sup", "80",
                     "--correction", "lamp", "--top", "2"], out=out)
        assert code == 0
        assert "LAMP" in out.getvalue()

    def test_mine_fimi(self, tmp_path):
        config = GeneratorConfig(n_records=100, n_attributes=5,
                                 min_values=2, max_values=2, n_rules=0)
        dataset = generate(config, seed=9).dataset
        data_path = tmp_path / "t.fimi"
        label_path = tmp_path / "t.labels"
        save_fimi(dataset, data_path, label_path=label_path)
        # FIMI via CLI reads labels from the last item per line, so
        # write a combined file instead.
        combined = tmp_path / "combined.fimi"
        lines = data_path.read_text().splitlines()
        labels = label_path.read_text().splitlines()
        combined.write_text("\n".join(
            f"{line} {label}" for line, label in zip(lines, labels)))
        out = io.StringIO()
        code = main(["mine", str(combined), "--min-sup", "20",
                     "--correction", "bh"], out=out)
        assert code == 0

    def test_unknown_format_is_error(self, tmp_path):
        weird = tmp_path / "data.xyz"
        weird.write_text("whatever")
        out = io.StringIO()
        assert main(["mine", str(weird), "--min-sup", "5"],
                    out=out) == 2

    def test_unknown_builtin_is_error(self):
        out = io.StringIO()
        assert main(["mine", "builtin:iris", "--min-sup", "5"],
                    out=out) == 2

    def test_class_column_by_name(self, csv_path):
        out = io.StringIO()
        code = main(["mine", csv_path, "--min-sup", "30",
                     "--class-column", "class"], out=out)
        assert code == 0

    def test_permutation_via_cli(self, csv_path):
        out = io.StringIO()
        code = main(["mine", csv_path, "--min-sup", "30",
                     "--correction", "permutation-fwer",
                     "--permutations", "40", "--seed", "1"], out=out)
        assert code == 0
        assert "Perm_FWER" in out.getvalue()
