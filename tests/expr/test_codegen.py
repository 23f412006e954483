"""Generated-source inspection: the runtime compiler's lowering rules,
and the inlined source's values against the interpreter, bit for bit."""

import math
import struct

import pytest

from repro.expr import ast
from repro.expr.ast import Const, Param, State, Var
from repro.expr.compile import compile_model, generate_source
from repro.expr.evaluate import DIV_EPS, LOG_EPS, evaluate


class TestLowering:
    def test_positional_indices_are_baked(self):
        expr = ast.add(Param("b"), ast.add(Var("y"), State("s")))
        source = generate_source(
            [expr], ["a", "b"], ["x", "y"], ["s"]
        )
        assert "P[1]" in source
        assert "V[1]" in source
        assert "S[0]" in source
        assert "P[0]" not in source  # unused parameter never read

    def test_single_use_temp_inlined_and_shared_value_bound_once(self):
        shared = ast.mul(Var("x"), Var("y"))
        expr = ast.add(ast.mul(ast.add(shared, Const(1)), Var("z")), shared)
        source = generate_source([expr], [], ["x", "y", "z"], [])
        body = [line.strip() for line in source.splitlines()[1:-1]]
        # The product read twice is bound once; the sum read once is
        # inlined into its reader, parenthesised for precedence.
        assert len(body) == 2
        name, __, rhs = body[0].partition(" = ")
        assert rhs == "V[0] * V[1]"
        assert body[1].endswith(f" = ({name} + 1.0) * V[2] + {name}")

    def test_division_guard_is_one_chained_entry(self):
        expr = ast.div(Var("a"), ast.add(Var("b"), Var("c")))
        source = generate_source([expr], [], ["a", "b", "c"], [])
        body = [line.strip() for line in source.splitlines()[1:-1]]
        # The divisor is read twice, so it is bound; the guard is one
        # chained comparison with the protected branch on the `if` side
        # (a NaN divisor falls through to the IEEE quotient, as in
        # protected_div), and no magnitude temp.
        assert len(body) == 2
        name, __, rhs = body[0].partition(" = ")
        assert rhs == "V[1] + V[2]"
        assert body[1].endswith(
            f" = 0.0 if {-DIV_EPS!r} < {name} < {DIV_EPS!r} else V[0] / {name}"
        )
        assert ">= 0.0 else -" not in source

    def test_log_guard_is_one_chained_entry(self):
        source = generate_source([ast.log(Var("x"))], [], ["x"], [])
        assert (
            f"0.0 if {-LOG_EPS!r} < V[0] < {LOG_EPS!r} else _log(_abs(V[0]))"
        ) in source

    def test_deep_tree_stays_compilable(self):
        # Inlining a 400-deep right-nested chain would nest its
        # parentheses past what CPython's parser accepts.
        expr = Var("x")
        for __ in range(400):
            expr = ast.sub(Var("y"), expr)
        model = compile_model([expr], [], ["x", "y"], [])
        assert model((), (1.5, 0.25), ()) == (
            evaluate(expr, variables={"x": 1.5, "y": 0.25}),
        )

    def test_exp_clamp_constant_present(self):
        source = generate_source([ast.exp(Var("x"))], [], ["x"], [])
        assert "60.0" in source

    def test_min_lowered_to_conditional(self):
        source = generate_source(
            [ast.minimum(Var("x"), Var("y"))], [], ["x", "y"], []
        )
        assert " < " in source

    def test_multiple_outputs_share_subtrees(self):
        shared = ast.mul(Var("x"), Var("x"))
        source = generate_source(
            [shared, ast.add(shared, Const(1))], [], ["x"], []
        )
        assert source.count("*") == 1  # the shared product emitted once

    def test_return_is_tuple(self):
        source = generate_source([Const(1), Const(2)], [], [], [])
        assert source.strip().endswith(")")
        assert "return (" in source

    def test_single_output_trailing_comma(self):
        source = generate_source([Const(1)], [], [], [])
        assert ",)" in source


class TestErrorPaths:
    def test_unbound_variable(self):
        from repro.expr.compile import CompilationError

        with pytest.raises(CompilationError, match="variable"):
            generate_source([Var("nope")], [], [], [])

    def test_unbound_state(self):
        from repro.expr.compile import CompilationError

        with pytest.raises(CompilationError, match="state"):
            generate_source([State("nope")], [], [], [])


A, B, C = Var("a"), Var("b"), Var("c")
X = Var("x")
#: Operand values under which re-associating a sum or product changes
#: its bits.
ABC = {"a": 0.1, "b": 0.2, "c": 0.3}
GUARD_ARGUMENTS = {
    "+eps": DIV_EPS,
    "-eps": -DIV_EPS,
    "+0": 0.0,
    "-0": -0.0,
    "nan": math.nan,
    "+inf": math.inf,
    "-inf": -math.inf,
}

INLINED_CASES = {
    "a-(b-c)": ast.sub(A, ast.sub(B, C)),
    "a+(b+c)": ast.add(A, ast.add(B, C)),
    "a*(b*c)": ast.mul(A, ast.mul(B, C)),
    "(a+b)+c": ast.add(ast.add(A, B), C),
    "a/(b*c)": ast.div(A, ast.mul(B, C)),
    "a/b/c": ast.div(ast.div(A, B), C),
    "-(a*b)": ast.neg(ast.mul(A, B)),
    "-(-a)": ast.neg(ast.neg(A)),
    "-(a+b)*c": ast.mul(ast.neg(ast.add(A, B)), C),
    "a*-2.5": ast.mul(A, Const(-2.5)),
    "-2.5-a": ast.sub(Const(-2.5), A),
    "a--0.0": ast.sub(A, Const(-0.0)),
    "-(-1.5)": ast.neg(Const(-1.5)),
    "exp(-1.5)*a": ast.mul(ast.exp(Const(-1.5)), A),
    "a+inf": ast.add(A, Const(math.inf)),
    "-inf*a": ast.mul(Const(-math.inf), A),
    "a-nan": ast.sub(A, Const(math.nan)),
    "inf/inf": ast.div(Const(math.inf), Const(math.inf)),
    "a*(b/c)": ast.mul(A, ast.div(B, C)),
    "(b/c)*a": ast.mul(ast.div(B, C), A),
    "a*log(b)": ast.mul(A, ast.log(B)),
    "min(a,b)*c": ast.mul(ast.minimum(A, B), C),
    "c*max(a,b)": ast.mul(C, ast.maximum(A, B)),
    "-(a/b)": ast.neg(ast.div(A, B)),
    "(a+b)/c": ast.div(ast.add(A, B), C),
    "exp(a*b)-c": ast.sub(ast.exp(ast.mul(A, B)), C),
}


def same_bits(got: float, want: float) -> bool:
    """Equal bit patterns; NaN compares as one marker (the compiled log
    guard negates a NaN argument where protected_log takes ``abs``, so a
    NaN's sign is not part of the contract)."""
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return struct.pack("<d", got) == struct.pack("<d", want)


def compiled_and_interpreted(expr, variables):
    names = sorted(variables)
    model = compile_model([expr], [], names, [])
    (got,) = model((), tuple(variables[name] for name in names), ())
    return got, evaluate(expr, variables=variables)


class TestInlinedBits:
    @pytest.mark.parametrize("expr", INLINED_CASES.values(), ids=INLINED_CASES)
    def test_case_matches_interpreter(self, expr):
        for values in (ABC, {"a": -3.0, "b": 1e-300, "c": 7.0}):
            got, want = compiled_and_interpreted(expr, values)
            assert same_bits(got, want), (got, want)

    def test_cases_discriminate_association(self):
        # The sum and product cases would change bits if re-associated.
        a, b, c = ABC.values()
        assert (a + b) + c != a + (b + c)
        assert (a * b) * c != a * (b * c)

    @pytest.mark.parametrize("value", GUARD_ARGUMENTS.values(), ids=GUARD_ARGUMENTS)
    @pytest.mark.parametrize(
        "expr",
        [ast.div(A, X), ast.log(X), ast.mul(B, ast.div(A, X)), ast.neg(ast.log(X))],
        ids=["a/x", "log(x)", "b*(a/x)", "-log(x)"],
    )
    def test_guard_arguments_match_interpreter(self, expr, value):
        got, want = compiled_and_interpreted(expr, {"a": 0.75, "b": -2.0, "x": value})
        assert same_bits(got, want), (got, want)
