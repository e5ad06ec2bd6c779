"""Scalar arithmetic for the test oracles, apart from the label-array
kernels they check: one label at a time, plain residues mod p when s = 1
and a read of ScalarField.tables() when s > 1; and digit tuples of the
context, added digitwise mod p and multiplied with FieldContext.mul."""


class Labels:
    """add, sub, neg, mul and inv on single int labels of a ScalarField."""

    def __init__(self, sf):
        self.p, self.q = sf.p, sf.q
        self._tables = None if sf.s == 1 else [t.tolist() for t in sf.tables()[:3]]

    def add(self, a, b):
        if self._tables is None:
            return (a + b) % self.p
        return self._tables[0][a][b]

    def neg(self, a):
        if self._tables is None:
            return -a % self.p
        return self._tables[2][a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self._tables is None:
            return a * b % self.p
        return self._tables[1][a][b]

    def inv(self, a):
        return next(b for b in range(1, self.q) if self.mul(a, b) == 1)


def elem_add(ctx, a, b):
    return tuple((x + y) % ctx.p for x, y in zip(a, b))


def elem_neg(ctx, a):
    return tuple(-x % ctx.p for x in a)


def element(ctx, label):
    """The digit tuple of sum(c_j * eta^j) for the label sum(c_j * p^j)."""
    acc = ctx.decode(0)
    for j in range(ctx.s):
        c = ctx.decode(label // ctx.p**j % ctx.p)
        acc = elem_add(ctx, acc, ctx.mul(c, ctx.pow(ctx.eta(), j)))
    return acc
