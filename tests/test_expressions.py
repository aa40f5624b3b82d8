import numpy as np
import pytest

from mfglab.expressions import ExpressionError, compile_spacetime, compile_spatial


def test_arithmetic_and_functions():
    fn = compile_spacetime("2 + 0.5*sin(3.141592653589793*x) - t/2", 1)
    x = np.array([0.0, 0.5])
    t = np.array([1.0, 1.0])
    got = fn(x, t)
    assert np.allclose(got, 2 + 0.5 * np.sin(np.pi * x) - 0.5)


def test_power_and_unary():
    fn = compile_spacetime("-x^2 + 2^3", 1)
    assert np.allclose(fn(np.array([3.0]), np.array([0.0])), [-9.0 + 8.0])


def test_x_alias_and_2d():
    fn = compile_spacetime("x1*x2 + exp(t)", 2)
    got = fn(np.array([2.0]), np.array([3.0]), np.array([0.0]))
    assert np.allclose(got, [7.0])
    with pytest.raises(ExpressionError, match="x2"):
        compile_spacetime("x2", 1)


def test_spatial_rejects_time():
    with pytest.raises(ExpressionError, match="spatial"):
        compile_spatial("1 + t", 1)
    fn = compile_spatial("1 + x/2", 1)
    assert np.allclose(fn(np.array([1.0])), [1.5])


def test_unknown_identifier():
    with pytest.raises(ExpressionError, match="unknown identifier"):
        compile_spacetime("y + 1", 1)


def test_syntax_errors():
    with pytest.raises(ExpressionError):
        compile_spacetime("1 +", 1)
    with pytest.raises(ExpressionError):
        compile_spacetime("sin 3", 1)
    with pytest.raises(ExpressionError):
        compile_spacetime("(1", 1)


X = np.array([0.25, 0.5, 1.5, 3.0])
T = np.array([0.0, 0.3, 0.7, 1.0])

# each source against NumPy written out in the same operation order: ^ is
# np.power and right associative, binds tighter than unary minus, and every
# literal is a float
ACCEPTED = [
    ("-x^2 + 2^3", lambda x, t: -np.power(x, 2.0) + np.power(2.0, 3.0)),
    ("2^-x", lambda x, t: np.power(2.0, -x)),
    ("-2^2", lambda x, t: -np.power(2.0, 2.0)),
    ("x^2^t", lambda x, t: np.power(x, np.power(2.0, t))),
    ("x^-2^t", lambda x, t: np.power(x, -np.power(2.0, t))),
    ("--x", lambda x, t: -(-x)),
    ("+x - -t", lambda x, t: x - (-t)),
    ("1/2/x", lambda x, t: 1.0 / 2.0 / x),
    ("2*x1 - t/3", lambda x, t: 2.0 * x - t / 3.0),
    (".5*x", lambda x, t: 0.5 * x),
    ("1.e5 + x", lambda x, t: 1e5 + x),
    ("3E-1*t", lambda x, t: 0.3 * t),
    ("sin(cos(exp(t)))", lambda x, t: np.sin(np.cos(np.exp(t)))),
    ("exp(-x^2/2)", lambda x, t: np.exp(-np.power(x, 2.0) / 2.0)),
    ("(x + 1)^(t - 0.5)", lambda x, t: np.power(x + 1.0, t - 0.5)),
    ("x\t*\tt", lambda x, t: x * t),
    ("sin(\n  x + t\n)", lambda x, t: np.sin(x + t)),
    # trailing whitespace, as a YAML block scalar leaves it: the hand-written
    # tokenizer this compiler replaced refused it
    ("x^2\n", lambda x, t: np.power(x, 2.0)),
]

REJECTED = [
    "x**2", "1_0", "0x10", "1j", "True", "None", "'a'", "x < 1", "x // 2",
    "x % 2", "~x", "not x", "x[0]", "x.real", "abs(x)", "__import__('os')",
    "sin(x, t)", "sin(x=1)", "sin(x)(t)", "x(1)", "x # c", "x;1", "x,1",
    "lambda: 1", "", "sin", "sin(*x)", "()", "x if t else 1",
    # names the compiled code is evaluated with, besides the grammar's own
    "power(x)", "__builtins__",
    # a leading-zero integer: Python's grammar refuses it, the hand-written
    # tokenizer this compiler replaced read it as 7
    "007",
]


def test_grammar_corpus():
    wrong = []
    for src, ref in ACCEPTED:
        got = compile_spacetime(src, 1)(X, T)
        if not np.array_equal(got, ref(X, T)):
            wrong.append(f"{src!r} evaluates to {got}")
    for src in REJECTED:
        try:
            compile_spacetime(src, 1)
        except ExpressionError:
            continue
        wrong.append(f"{src!r} accepted")
    assert not wrong, wrong
