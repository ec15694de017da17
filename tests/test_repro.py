"""The reproduction harness, pinned on a small run."""

from cefai.repro import existence_table, format_table


class TestPinnedRepro:
    """``existence_table`` at a small scale: its detail lines depend on
    every seeded sampler, the solver, the counterexample certification
    and both audits, so a refactor of any of them must reproduce them."""

    def test_details_and_table(self):
        report = existence_table(scale=0.1, seed=20)
        assert report.details == (
            "1-3 items: 17/17 solved",
            "4 items, 2 agents: 10/10 solved",
            "4 items, 3 agents: 35/35 solved, 0 instances certified to have "
            "no equilibrium, 0 unexplained",
            "4 items, 4 agents: counterexample region, 3 points x 3 completions, "
            "0 equilibria found",
            "5 items, 2 agents: counterexample region, 3 points x 3 completions, "
            "0 equilibria found",
            "domination guarantees: 62 executions, 0 violations",
            "share guarantees (parts up to 4): 62 pairs, 6150 applicable "
            "instances, 0 violations",
        )
        assert format_table(report) == "\n".join(
            [
                "items   agents  expected  measured  status",
                "-----   ------  --------  --------  ------",
                "1,2,3   2-4     Yes       Yes       ok",
                "4       2       Yes       Yes       ok",
                "4       3       Yes       Yes       ok",
                "4       4+      No        No        ok",
                "5+      2+      No        No        ok",
            ]
        )
        assert report.all_match and report.audits_clean
