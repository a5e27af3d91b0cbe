from __future__ import annotations

import types
import warnings

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import bitstrings, ref_evaluate
from rkl import predlang
from rkl.core import MAX_DIGITS
from rkl.predlang import (
    MAX_DEPTH,
    VARIABLES,
    Arith,
    Bit,
    Cmp,
    Logic,
    Not,
    Num,
    ParseError,
    UnboundVariable,
    Var,
    evaluate,
    kind_of,
    parse,
    render,
)
from rkl.reductions import PI2_NAMES, YOKO_NAMES

FULL_ENV = {"x": 4, "m": 2, "n": 7, "y": 1, "z": 3, "len": 0}


def same(a, b) -> bool:
    """Equal and spelled alike.  A node equals any tuple of its values, so
    Not(e) == Bit(e); the repr names every node class and tells them apart."""
    return a == b and repr(a) == repr(b)


class TestParse:
    def test_conjunction_of_comparisons(self):
        assert same(parse("x mod 2 = 0 and n >= m"), Logic(
            "and",
            Cmp("=", Arith("mod", Var("x"), Num(2)), Num(0)),
            Cmp(">=", Var("n"), Var("m")),
        ))

    def test_bit_and_disjunction(self):
        assert same(parse("bit(0) = 1 or y < 3"), Logic(
            "or", Cmp("=", Bit(Num(0)), Num(1)), Cmp("<", Var("y"), Num(3))
        ))

    def test_dangling_operator_offset(self):
        with pytest.raises(ParseError) as info:
            parse("x +")
        assert info.value.offset == 3

    @pytest.mark.parametrize("digit", ["\u0663", "\u00b2"])  # Arabic-Indic three, superscript two
    def test_non_ascii_digit_rejected_with_offset(self, digit):
        with pytest.raises(ParseError) as info:
            parse(f"z >= {digit}")
        assert info.value.offset == 5

    def test_precedence_not_over_and_over_or(self):
        e = parse("not x = 0 and y = 1 or z = 2")
        assert same(e, Logic(
            "or",
            Logic("and", Not(Cmp("=", Var("x"), Num(0))), Cmp("=", Var("y"), Num(1))),
            Cmp("=", Var("z"), Num(2)),
        ))

    def test_precedence_product_over_sum_over_comparison(self):
        e = parse("x + 2 * 3 = 10 - 4")
        assert same(e, Cmp(
            "=",
            Arith("+", Var("x"), Arith("*", Num(2), Num(3))),
            Arith("-", Num(10), Num(4)),
        ))

    def test_left_associativity(self):
        assert same(parse("7 - 2 - 1"), Arith("-", Arith("-", Num(7), Num(2)), Num(1)))

    def test_parentheses_override(self):
        assert same(parse("(x + 1) * 2"), Arith("*", Arith("+", Var("x"), Num(1)), Num(2)))

    def test_unicode_comparisons(self):
        assert parse("x ≠ 1") == parse("x != 1")
        assert parse("x ≤ 1") == parse("x <= 1")
        assert parse("x ≥ 1") == parse("x >= 1")

    def test_boolean_operand_where_number_needed(self):
        with pytest.raises(ParseError):
            parse("(x = 1) + 2")

    def test_numeric_operand_where_boolean_needed(self):
        with pytest.raises(ParseError):
            parse("x and y")
        with pytest.raises(ParseError):
            parse("not 3 = 3 = 3")

    def test_chained_comparison_rejected(self):
        with pytest.raises(ParseError):
            parse("1 < 2 < 3")

    def test_unknown_name_rejected(self):
        with pytest.raises(ParseError):
            parse("foo = 1")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("x = 1 )")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse("")


class TestEvaluate:
    def test_parity(self):
        assert evaluate(parse("x mod 2 = 0"), {"x": 4}) is True
        assert evaluate(parse("x mod 2 = 0"), {"x": 5}) is False

    def test_bit_past_end_reads_zero(self):
        assert evaluate(parse("bit(5)"), {}, tau="01") == 0
        assert evaluate(parse("bit(1)"), {}, tau="01") == 1

    def test_truncated_subtraction(self):
        assert evaluate(parse("3 - 7"), {}) == 0
        assert evaluate(parse("7 - 3"), {}) == 4

    def test_mod_zero_is_zero(self):
        assert evaluate(parse("5 mod 0"), {}) == 0

    def test_len_binds_to_tau(self):
        assert evaluate(parse("len"), {}, tau="0110") == 4

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable) as info:
            evaluate(parse("x = 1"), {})
        assert info.value.name == "x"

    def test_bit_without_tau(self):
        with pytest.raises(UnboundVariable):
            evaluate(parse("bit(0)"), {"x": 1})
        with pytest.raises(UnboundVariable):
            evaluate(parse("len"), {})

    def test_len_reads_tau_not_env(self):
        with pytest.raises(UnboundVariable) as info:
            evaluate(parse("len = 0"), {"len": 0})
        assert info.value.name == "len"
        assert evaluate(parse("len = 0"), {"len": 5}, tau="") is True


class TestRender:
    def test_round_trip_examples(self):
        for text in [
            "x mod 2 = 0 and n >= m",
            "bit(0) = 1 or y < 3",
            "not (x = 1 or y = 2)",
            "(x + 1) * (y + 2) = z",
            "x - (y - z) >= 1",
        ]:
            e = parse(text)
            assert same(parse(render(e)), e)

    def test_minimal_parentheses(self):
        assert render(parse("(x + 1) + 2")) == "x + 1 + 2"
        assert render(parse("x + (1 + 2)")) == "x + (1 + 2)"
        assert render(parse("not (x = 1)")) == "not x = 1"


# --- random AST fuzzing -----------------------------------------------------

_nat_leaves = st.one_of(
    st.integers(0, 99).map(Num),
    st.sampled_from(VARIABLES).map(Var),
)


def _nat_nodes(children):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "mod"]), children, children).map(
            lambda t: Arith(*t)
        ),
        children.map(Bit),
    )


nat_exprs = st.recursive(_nat_leaves, _nat_nodes, max_leaves=12)

_bool_leaves = st.tuples(
    st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), nat_exprs, nat_exprs
).map(lambda t: Cmp(*t))


def _bool_nodes(children):
    return st.one_of(
        children.map(Not),
        st.tuples(st.sampled_from(["and", "or"]), children, children).map(
            lambda t: Logic(*t)
        ),
    )


bool_exprs = st.recursive(_bool_leaves, _bool_nodes, max_leaves=10)
any_exprs = st.one_of(nat_exprs, bool_exprs)


class TestFuzz:
    @given(any_exprs)
    def test_printer_parser_round_trip(self, e):
        assert same(parse(render(e)), e)

    @given(any_exprs, st.text(alphabet="01", max_size=6))
    def test_total_on_full_environment(self, e, tau):
        value = evaluate(e, FULL_ENV, tau=tau)
        if kind_of(e) == "bool":
            assert value in (True, False)
        else:
            assert isinstance(value, int) and value >= 0

    @given(any_exprs)
    def test_render_is_stable(self, e):
        assert render(parse(render(e))) == render(e)


def outcome(run):
    """The value with its type, or the name an UnboundVariable carries."""
    try:
        value = run()
    except UnboundVariable as exc:
        return ("unbound", exc.name)
    return ("value", value, type(value))


partial_envs = st.dictionaries(st.sampled_from(VARIABLES), st.integers(0, 40))
NAT_PARAMS = ("x", "m", "n", "y", "z")
ALL_PARAMS = (*NAT_PARAMS, "bits", "len")


def lower(e, params, witness=None):
    """predlang.compile with every warning an error: the ast node
    constructors warn about missing or stray fields on newer Pythons."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return predlang.compile(e, params, witness)


def run_lowered(e, env, tau):
    """Lower e over exactly the names env and tau bind, as evaluate does,
    and call it once."""
    bindings = {k: v for k, v in env.items() if k != "len"}
    if tau is not None:
        bindings.update(bits=tau, len=len(tau))
    return lower(e, tuple(bindings))(*bindings.values())


class TestCompile:
    @given(any_exprs, partial_envs, st.none() | bitstrings(6))
    def test_matches_tree_walk(self, e, env, tau):
        expected = outcome(lambda: ref_evaluate(e, env, tau))
        assert outcome(lambda: run_lowered(e, env, tau)) == expected
        assert outcome(lambda: evaluate(e, env, tau)) == expected

    @given(any_exprs, bitstrings(6))
    def test_one_closure_serves_many_environments(self, e, tau):
        fn = lower(e, ALL_PARAMS)
        for y in range(4):
            env = dict(FULL_ENV, y=y, z=3 * y)
            args = [*(env[k] for k in NAT_PARAMS), tau, len(tau)]
            assert outcome(lambda: fn(*args)) == outcome(lambda: ref_evaluate(e, env, tau))

    @pytest.mark.parametrize(
        "text, value",
        [
            ("3 - 7", 0),
            ("7 - 3", 4),
            ("3 - 3", 0),
            ("x - 9 + 1", 1),
            ("5 mod 0", 0),
            ("x mod (2 - 2)", 0),
            ("7 mod 3", 1),
            ("bit(1)", 1),
            ("bit(2)", 0),
            ("bit(99 * 99 * 99 * 99 * 99 * 99 * 99 * 99 * 99 * 99)", 0),
            ("bit(len - 1) + bit(len)", 1),
            (f"{'9' * MAX_DIGITS} mod 1000 - x", 995),
            (f"x - {'9' * MAX_DIGITS}", 0),
        ],
    )
    def test_total_edge_cases(self, text, value):
        e = parse(text)
        env, tau = {"x": 4}, "01"
        assert run_lowered(e, env, tau) == value == ref_evaluate(e, env, tau)

    def test_both_operands_of_and_or_are_computed(self):
        # A false left side does not hide the unbound right side.
        for text in ("x < 0 and y = 1", "x >= 0 or y = 1"):
            with pytest.raises(UnboundVariable) as info:
                lower(parse(text), ("x",))
            assert info.value.name == "y"

    def test_bit_and_len_need_tau(self):
        for text, name in (("bit(0) = 1", "bit"), ("len > 0", "len"), ("bit(len) = 0", "bit")):
            with pytest.raises(UnboundVariable) as info:
                lower(parse(text), ())
            assert info.value.name == name


def ref_least(e, env, tau, witness, candidates):
    """The first candidate at which ref_evaluate holds, scanned one by one."""
    return next((w for w in candidates if ref_evaluate(e, {**env, witness: w}, tau)), None)


def code_names(code: types.CodeType) -> set[str]:
    """Global and attribute names a code object and its nested code read."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= code_names(const)
    return names


HUGE = int("9" * MAX_DIGITS)
full_envs = st.fixed_dictionaries({k: st.integers(0, 40) for k in NAT_PARAMS})


class TestWitness:
    @given(bool_exprs, full_envs, bitstrings(6), st.sampled_from(NAT_PARAMS),
           st.integers(0, 40), st.integers(0, 12))
    @example(Cmp(">=", Arith("*", Var("n"), Num(HUGE)), Arith("mod", Num(HUGE), Var("x"))),
             dict(FULL_ENV), "01", "n", 0, 3)
    def test_first_witness_matches_brute_force_scan(self, e, env, tau, witness, start, size):
        bindings = {k: v for k, v in env.items() if k != witness}
        bindings.update(bits=tau, len=len(tau))
        window = range(start, start + size)
        least = lower(e, tuple(bindings), witness)
        assert least(*bindings.values(), window) == ref_least(e, env, tau, witness, window)

    def test_unbound_name_is_refused_before_compiling(self):
        with pytest.raises(UnboundVariable) as info:
            lower(parse("n >= m + y"), ("x", "m"), "n")
        assert info.value.name == "y" and info.value.offset is None


class TestClosedLanguage:
    @given(any_exprs, st.sampled_from((None, *NAT_PARAMS)))
    def test_code_reads_no_name_but_next_and_startswith(self, e, witness):
        fn = lower(e, tuple(k for k in ALL_PARAMS if k != witness), witness)
        assert code_names(fn.__code__) <= {"next", "startswith"}
        assert fn.__globals__["__builtins__"] == {}


def nested_parens(k: int) -> str:
    return "(" * k + "x" + ")" * k


def right_nested(op: str, k: int) -> str:
    """y op (y op (... y)) with k operators, nesting 2k + 1 levels."""
    return f"y {op} (" * k + "y" + ")" * k


DEEPEST = [
    nested_parens(MAX_DEPTH - 1),
    "+".join(["y"] * MAX_DEPTH),
    "not " * (MAX_DEPTH - 2) + "x = 1",
    "bit(" * (MAX_DEPTH - 1) + "0" + ")" * (MAX_DEPTH - 1),
    "z >= " + "+".join(["y"] * (MAX_DEPTH - 1)),
    # "-" and "mod" nest walrus temporaries, three and two levels per operator.
    "-".join(["y"] * MAX_DEPTH),
    " mod ".join(["y"] * MAX_DEPTH),
    "z >= " + "-".join(["y"] * (MAX_DEPTH - 1)),
    f"({right_nested('-', MAX_DEPTH // 2 - 1)})",
    f"({right_nested('mod', MAX_DEPTH // 2 - 1)})",
    "z < " + right_nested("-", MAX_DEPTH // 2 - 1),
    "bit(" * (MAX_DEPTH - 6) + "y - (y mod (y - y))" + ")" * (MAX_DEPTH - 6),
    " or ".join(["x = 1"] * (MAX_DEPTH - 1)),
    " and ".join(["not y - x = 0"] * (MAX_DEPTH - 3)),
]


class TestDepthLimit:
    @pytest.mark.parametrize("text", DEEPEST)
    def test_deepest_accepted_expression_round_trips(self, text):
        e = parse(text)
        assert same(parse(render(e)), e)
        env = {"x": 1, "y": 1, "z": 0}
        tau = "1"
        assert run_lowered(e, env, tau) == ref_evaluate(e, env, tau)
        least = lower(e, ("x", "z", "bits", "len"), "y")
        assert least(1, 0, tau, 1, range(3)) == ref_least(e, env, tau, "y", range(3))

    @pytest.mark.parametrize("text", DEEPEST)
    def test_deepest_accepted_expression_is_the_limit(self, text):
        with pytest.raises(ParseError):
            parse(f"({text})")

    @pytest.mark.parametrize(
        "text, offset",
        [
            # Refused at the first "(" that opens level MAX_DEPTH.
            (nested_parens(MAX_DEPTH), MAX_DEPTH - 1),
            (nested_parens(2000), MAX_DEPTH - 1),
            # Refused at the operator that makes the chain too deep.
            ("+".join(["y"] * (MAX_DEPTH + 1)), 2 * MAX_DEPTH - 1),
            ("z >= " + "+".join(["y"] * 3000), 5 + 2 * MAX_DEPTH - 1),
            (" or ".join(["x = 1"] * 100), 9 * (MAX_DEPTH - 2) + 6),
            # One "not" too many over a comparison is refused at the outermost.
            ("not " * (MAX_DEPTH - 1) + "x = 1", 0),
            ("not " * 3000 + "x = 1", 4 * (MAX_DEPTH - 1)),
            ("bit(" * 3000 + "0" + ")" * 3000, 4 * (MAX_DEPTH - 1)),
        ],
    )
    def test_deeper_expression_refused_with_offset(self, text, offset):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.offset == offset
        assert info.value.expected == (f"at most {MAX_DEPTH} levels of nesting",)


def names_in_text_order(expr) -> list[str]:
    """Every variable and "bit", in the order render(expr) spells them."""
    if isinstance(expr, Var):
        return [expr.name]
    if isinstance(expr, Bit):
        return ["bit", *names_in_text_order(expr.index)]
    if isinstance(expr, Not):
        return names_in_text_order(expr.operand)
    if isinstance(expr, (Arith, Cmp, Logic)):
        return names_in_text_order(expr.left) + names_in_text_order(expr.right)
    return []


BINDABLE = (*VARIABLES, "bit")


class TestBoundNames:
    @given(bool_exprs, st.sets(st.sampled_from(BINDABLE)))
    def test_first_name_outside_the_bindings_is_refused_at_its_offset(self, e, names):
        text = render(e)
        outside = [name for name in names_in_text_order(e) if name not in names]
        if not outside:
            assert same(parse(text, names), e)
            return
        with pytest.raises(UnboundVariable) as info:
            parse(text, names)
        assert info.value.name == outside[0]
        assert text.startswith(outside[0], info.value.offset)
        assert str(info.value) == f"at offset {info.value.offset}: unbound: {outside[0]}"

    @given(bool_exprs, st.text(alphabet="01", max_size=6))
    def test_accepted_matrix_never_meets_an_unbound_name(self, e, tau):
        names = set(names_in_text_order(e))
        env = {name: 3 for name in names if name in VARIABLES}
        assert run_lowered(parse(render(e), names), env, tau) in (True, False)

    @given(nat_exprs)
    def test_arithmetic_matrix_refused_at_its_start(self, e):
        text = "  " + render(e)
        with pytest.raises(ParseError) as info:
            parse(text, BINDABLE)
        assert info.value.offset == 2
        assert str(info.value) == "at offset 2: expected a comparison, found an arithmetic value"
        assert same(parse(text), e)

    def test_evaluation_time_unbound_has_no_offset(self):
        with pytest.raises(UnboundVariable) as info:
            evaluate(parse("x = 1"), {})
        assert info.value.offset is None and str(info.value) == "unbound: x"


# --- token soup --------------------------------------------------------------

_soup_tokens = st.one_of(
    st.sampled_from(
        [*VARIABLES, "bit", "and", "or", "not", "mod", "foo", "_x"]
        + ["=", "!=", "<", "<=", ">", ">=", "+", "-", "*", "(", ")", "(", ")"]
        + ["≠", "≤", "≥", "!", "$", "é", "\u0663", "\u00b2", "#"]
    ),
    st.integers(0, 10**12).map(str),
    st.characters(),
)
token_soup = st.lists(
    st.tuples(_soup_tokens, st.sampled_from(["", " ", "  ", "\t", "\n"])), max_size=30
).map(lambda parts: "".join(token + space for token, space in parts))


class TestTokenSoup:
    @given(token_soup)
    @example("z >= " + "9" * (MAX_DIGITS + 1))
    @example("(" * (MAX_DEPTH + 1) + "x")
    def test_parse_gives_a_node_or_a_located_refusal(self, text):
        for names in (None, YOKO_NAMES, PI2_NAMES):
            try:
                e = parse(text, names)
            except (ParseError, UnboundVariable) as exc:
                assert 0 <= exc.offset <= len(text)
            else:
                assert isinstance(e, (Num, Var, Bit, Arith, Cmp, Not, Logic))
                assert names is None or kind_of(e) == "bool"

    def test_longest_number_accepted_and_longer_refused_at_its_offset(self):
        longest = "9" * MAX_DIGITS
        assert same(parse(f"z >= {longest}"), Cmp(">=", Var("z"), Num(int(longest))))
        with pytest.raises(ParseError) as info:
            parse(f"z >= 1 + {longest}9")
        assert info.value.offset == 9
        assert str(info.value) == (
            f"at offset 9: expected a number of at most {MAX_DIGITS} digits, "
            f"found {MAX_DIGITS + 1} digits"
        )


class TestRefusalMessages:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1 < 2 < 3", "at offset 6: expected end of input, found <"),
            ("bit(x = 1)", "at offset 6: expected ')', found ="),
            ("(x = 1) + 2", "at offset 0: expected an arithmetic value, found a comparison"),
            ("x and y = 1", "at offset 0: expected a comparison, found an arithmetic value"),
            ("x = 1 and 2", "at offset 10: expected a comparison, found an arithmetic value"),
            ("not 3", "at offset 4: expected a comparison, found an arithmetic value"),
            ("x = 1 not y", "at offset 6: expected end of input, found not"),
            ("x <= = 1", "at offset 5: expected a number or a variable or 'bit(' or '(', found ="),
            ("x ! 1", "at offset 2: expected a token, found '!'"),
            ("x mod mod 2", "at offset 6: expected a number or a variable or 'bit(' or '(', "
             "found 'mod'"),
        ],
    )
    def test_exact_message(self, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert str(info.value) == message
