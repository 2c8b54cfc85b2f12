"""The seven suite equations as the paper prints them, each f with its f′.

Each entry is a pair of ``lambda m, x: ...`` over a math namespace ``m``:
``math`` for the suite callables' bits, ``mpmath`` for high-precision runs and
roots, ``sympy`` for derivatives. Spelled with ``m.``-qualified names, int
exponents and float constants, so that over ``math`` each formula is the
expression ``bench.SUITE`` must match bit for bit. Imports nothing, so any
interpreter can load it.
"""

FORMULAS = {
    "f1": (lambda m, x: x**5 - x + 1.0, lambda m, x: 5.0 * x**4 - 1.0),
    "f2": (lambda m, x: m.cos(x) - x, lambda m, x: -m.sin(x) - 1.0),
    "f3": (lambda m, x: m.atan(x), lambda m, x: 1.0 / (1.0 + x * x)),
    "f4": (
        lambda m, x: 10.0 * x * m.exp(-(x * x)) - 1.0,
        lambda m, x: 10.0 * m.exp(-(x * x)) * (1.0 - 2.0 * x * x),
    ),
    "f5": (
        lambda m, x: m.exp(-x) * m.sin(x) + m.log(x * x + 1.0),
        lambda m, x: m.exp(-x) * (m.cos(x) - m.sin(x)) + 2.0 * x / (x * x + 1.0),
    ),
    "f6": (lambda m, x: x**3 - m.exp(-x), lambda m, x: 3.0 * x * x + m.exp(-x)),
    "f7": (lambda m, x: m.exp(-x) - m.cos(x), lambda m, x: -m.exp(-x) + m.sin(x)),
}
