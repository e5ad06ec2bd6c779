"""Scalar arithmetic for the test oracles, apart from the label-array
kernels they check: one label at a time, summed and negated digit by
digit mod p, and multiplied as residues mod p when s = 1 and through
logs to the base eta otherwise; and digit tuples of the context, added
digitwise mod p and multiplied as schoolbook polynomials reduced by the
context's modulus (elem_mul), apart from the packed products of gf."""

import functools


class Labels:
    """add, sub, neg, mul and inv on single int labels of a ScalarField."""

    def __init__(self, sf):
        self.p, self.s, self.q = sf.p, sf.s, sf.q
        if self.s > 1:
            self._exp, self._log = _eta_powers(sf.ctx)

    def _digitwise(self, op, *labels):
        p = self.p
        return sum(op(*(a // p**j % p for a in labels)) % p * p**j
                   for j in range(self.s))

    def add(self, a, b):
        return self._digitwise(lambda x, y: x + y, a, b)

    def neg(self, a):
        return self._digitwise(lambda x: -x, a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.s == 1:
            return a * b % self.p
        if not a or not b:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]

    def inv(self, a):
        return next(b for b in range(1, self.q) if self.mul(a, b) == 1)


@functools.cache
def _eta_powers(ctx):
    """The labels of eta^0, ..., eta^(q-2), and the log of each nonzero label."""
    label = {element(ctx, a): a for a in range(ctx.q)}
    x, exp = ctx.one, []
    for _ in range(ctx.q - 1):
        exp.append(label[x])
        x = elem_mul(ctx, x, ctx.eta())
    return exp, {a: k for k, a in enumerate(exp)}


def poly_mul_mod(a, b, mod, p):
    """Schoolbook product of two digit lists, reduced by a monic modulus."""
    deg = len(mod) - 1
    out = [0] * (2 * deg)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    for i in range(2 * deg - 1, deg - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(deg):
                out[i - deg + j] = (out[i - deg + j] - c * mod[j]) % p
    return out[:deg]


def elem_mul(ctx, a, b):
    """The product of two digit tuples of the context, as a digit tuple."""
    return tuple(poly_mul_mod(a, b, ctx.modulus, ctx.p))


def elem_add(ctx, a, b):
    return tuple((x + y) % ctx.p for x, y in zip(a, b))


def elem_neg(ctx, a):
    return tuple(-x % ctx.p for x in a)


def element(ctx, label):
    """The digit tuple of sum(c_j * eta^j) for the label sum(c_j * p^j)."""
    acc = ctx.decode(0)
    for j in range(ctx.s):
        c = ctx.decode(label // ctx.p**j % ctx.p)
        acc = elem_add(ctx, acc, elem_mul(ctx, c, ctx.pow(ctx.eta(), j)))
    return acc
