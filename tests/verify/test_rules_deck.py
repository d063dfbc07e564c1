"""Tests for the RV3xx deck-text rules (tolerant scanner + checks)."""

from repro.verify import verify_deck
from repro.verify.rules_deck import DeckCard, DeckSource


def deck_report(body, **kwargs):
    kwargs.setdefault("include_circuit", False)
    return verify_deck("test deck\n" + body + "\n.end\n", **kwargs)


def codes(report):
    return {d.code for d in report}


def by_code(report, code):
    return [d for d in report if d.code == code]


class TestDeckSource:
    def test_line_numbers_survive_continuations(self):
        src = DeckSource("title\nr1 a 0 1k\nv1 in 0 pwl(0 0\n+ 1n 1)\n")
        assert [c.line for c in src.cards] == [2, 3]
        assert src.cards[1].text == "v1 in 0 pwl(0 0 1n 1)"

    def test_comments_and_blanks_skipped(self):
        src = DeckSource("t\n* full comment\n\nr1 a 0 1k ; tail\n$ gone\n")
        assert [c.text for c in src.cards] == ["r1 a 0 1k"]

    def test_paren_aware_tokens(self):
        card = DeckCard(1, "v1 a 0 pulse(0 1 1n 50p 50p 2n 5n)")
        assert card.tokens()[-1] == "pulse(0 1 1n 50p 50p 2n 5n)"

    def test_unbalanced_parens_fall_back_to_split(self):
        card = DeckCard(1, "v1 a 0 pulse(0 1")
        assert card.tokens() == ["v1", "a", "0", "pulse(0", "1"]

    def test_element_cards_track_subckt_scope(self):
        src = DeckSource(
            "t\n.subckt s a\nr1 a 0 1k\n.ends\nr1 top 0 1k\n"
        )
        scopes = [(scope, tokens[0])
                  for _card, scope, tokens in src.element_cards()]
        assert scopes == [("s", "r1"), ("", "r1")]


class TestCommentTitle:
    """A ``*`` comment on the first line holds the title's slot, so the
    first card is linted like every other one."""

    def test_scan_keeps_an_empty_title(self):
        src = DeckSource("* title\nr1 a 0 1k\n.end\n")
        assert src.title == ""
        assert [(c.line, c.text) for c in src.cards] == [
            (2, "r1 a 0 1k"), (3, ".end")]

    def test_first_card_suffix_is_rv306(self):
        report = verify_deck("* t\nR1 a 0 10x\nV1 a 0 1\n.op\n.end\n",
                             include_circuit=False)
        diags = by_code(report, "RV306")
        assert diags and diags[0].location.line == 2

    def test_duplicate_of_first_card_is_rv304(self):
        report = verify_deck(
            "* t\nR1 a 0 1k\nR1 a 0 2k\nV1 a 0 1\n.op\n.end\n",
            include_circuit=False)
        diags = by_code(report, "RV304")
        assert diags and diags[0].subject == "r1"
        assert diags[0].location.line == 3


class TestParseError:
    def test_strict_rejection_surfaces_as_rv300(self):
        report = deck_report("v1 a 0 sin(0 1 1meg)\nr1 a 0 1k")
        assert by_code(report, "RV300")
        assert report.has_errors

    def test_clean_deck_has_no_rv300(self):
        assert not by_code(deck_report("r1 a 0 1k\nv1 a 0 1"), "RV300")

    def test_unparsable_deck_skips_circuit_rules(self):
        report = verify_deck("t\nq1 a b c 1k\n.end\n",
                             include_circuit=True)
        assert "RV300" in codes(report)
        assert not codes(report) & {"RV001", "RV101", "RV201"}


class TestSubcircuitRules:
    def test_undefined_subckt(self):
        diags = by_code(deck_report("v1 a 0 1\nr1 a 0 1k\nx1 a nosub"),
                        "RV301")
        assert diags and diags[0].subject == "x1"
        assert diags[0].location.line == 4

    def test_unused_subckt_warning(self):
        body = ".subckt spare a\nr1 a 0 1k\n.ends\nr2 top 0 1k"
        diags = by_code(deck_report(body), "RV302")
        assert diags and diags[0].subject == "spare"
        assert diags[0].severity.value == "warning"

    def test_arity_mismatch(self):
        body = (".subckt div top tap\nr1 top tap 1k\nr2 tap 0 1k\n.ends\n"
                "v1 in 0 1\nx1 in div")
        diags = by_code(deck_report(body), "RV303")
        assert diags
        assert "declares 2 port(s)" in diags[0].message


class TestDuplicateElements:
    def test_same_scope_duplicate_flagged(self):
        diags = by_code(deck_report("r1 a 0 1k\nr1 b 0 1k"), "RV304")
        assert diags
        assert "line 2" in diags[0].message
        assert diags[0].location.line == 3

    def test_same_name_in_different_scopes_allowed(self):
        body = ".subckt s a\nr1 a 0 1k\n.ends\nr1 top 0 1k\nx1 top s"
        assert not by_code(deck_report(body), "RV304")

    def test_unknown_card_letter_located(self):
        diags = by_code(deck_report("q1 a b c 1k"), "RV304")
        assert diags and diags[0].subject == "q1"
        assert diags[0].location is not None


class TestParams:
    def test_unused_param_warning(self):
        diags = by_code(
            deck_report(".param rload=2k\nr1 a 0 1k\nv1 a 0 1"), "RV305"
        )
        assert diags and diags[0].subject == "rload"

    def test_referenced_param_clean(self):
        body = ".param rload=2k\nr1 a 0 {rload}\nv1 a 0 1"
        assert not by_code(deck_report(body), "RV305")


class TestSuspiciousSuffix:
    def test_element_value_flagged(self):
        diags = by_code(deck_report("r1 a 0 10x\nv1 a 0 1"), "RV306")
        assert diags and "'10x'" in diags[0].message
        assert diags[0].location.line == 2

    def test_tran_directive_flagged(self):
        body = "r1 a 0 1k\nv1 a 0 1\n.tran 10x 100n"
        diags = by_code(deck_report(body), "RV306")
        assert diags and diags[0].subject == ".tran"

    def test_waveform_args_scanned(self):
        body = "r1 a 0 1k\nv1 a 0 pulse(0 1 1q 50p 50p 2n 5n)"
        diags = by_code(deck_report(body), "RV306")
        assert diags and "'1q'" in diags[0].message

    def test_units_and_multipliers_accepted(self):
        body = ("r1 a 0 2kohm\nc1 a 0 10f\nv1 a 0 0.9v\n"
                ".tran 1p 100ns")
        assert not by_code(deck_report(body), "RV306")


class TestUnknownModel:
    def test_finfet_model_flagged_with_line(self):
        diags = by_code(
            deck_report("v1 d 0 1\nm1 d g 0 mystery"), "RV307"
        )
        assert diags and diags[0].subject == "m1"
        assert "'mystery'" in diags[0].message
        assert diags[0].location.line == 3

    def test_mtj_model_flagged(self):
        assert by_code(deck_report("v1 a 0 1\ny1 a b missing"), "RV307")

    def test_builtin_and_defined_models_accepted(self):
        body = (".model myn nfet(vth0=0.3)\n"
                "v1 d 0 1\nm1 d g 0 myn\nm2 d g 0 nfet20hp\n"
                "y1 a b mtj_table1 state=AP")
        assert not by_code(deck_report(body), "RV307")
