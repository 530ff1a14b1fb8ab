"""The tests' one high-precision reference: the two-region model in mpmath,
written in the relative wage w.  Both shares are explicit in w, h = a/(a + b)
and 1 - h = b/(a + b) with a = X(X - phi), b = w(1 - phi X) and X = w**sigma,
so no double-precision wage solve or share subtraction is involved.  Floats
convert to mpf exactly.  Each method works at ``dps`` digits, or at the working
precision where that is higher, so ``mpmath.diff`` can differentiate it.
"""

import mpmath


def _at_dps(method):
    def run(self, *args):
        with mpmath.workdps(max(self.dps, mpmath.mp.dps)):
            return method(self, *(mpmath.mpf(x) if isinstance(x, float) else x for x in args))
    return run


class Economy:
    """One economy (sigma, phi, theta) with the logit penalty weight mu."""

    def __init__(self, sigma, phi, theta=0.0, mu=0.0, dps=50):
        self.s, self.p, self.th, self.mu = (mpmath.mpf(v) for v in (sigma, phi, theta, mu))
        self.dps = dps

    @_at_dps
    def shares(self, w):
        """(h, 1 - h) at wage w."""
        X = w ** self.s
        a, b = X * (X - self.p), w * (1 - self.p * X)
        return a / (a + b), b / (a + b)

    def _balance(self, w, h):
        """(1 - h)a - hb, convex in w and zero where w supports h, and its slope."""
        s, p, X = self.s, self.p, w ** self.s
        return ((1 - h) * X * (X - p) - h * w * (1 - p * X),
                (1 - h) * (2 * X - p) * s * X / w - h * (1 - (1 + s) * p * X))

    @_at_dps
    def wage(self, h):
        """The wage at share h: Newton steps on the convex balance, from the right
        end of the half bracket holding h, decrease to the root until one does not."""
        w = mpmath.mpf(1) if h <= 0.5 else self.p ** (-1 / self.s)
        while True:
            f, df = self._balance(w, h)
            if not w - f / df < w:
                return w
            w -= f / df

    @_at_dps
    def G(self, X):
        """G_poly at X = w**sigma, through the slope of the wage map: dh/dw is
        X G/(a + b)**2, and (a + b) dh/dw is the balance's slope at h(w)."""
        w = X ** (1 / self.s)
        a, b = X * (X - self.p), w * (1 - self.p * X)
        return (a + b) * self._balance(w, a / (a + b))[1] / X

    def _brackets(self, h, w):
        """P_L**(1 - sigma) and P_R**(1 - sigma) at share h and wage w."""
        m = w ** (1 - self.s)
        return h * m + (1 - h) * self.p, h * self.p * m + 1 - h

    @_at_dps
    def price_indices(self, h, w):
        """(P_L, P_R) at share h and wage w, not necessarily market-clearing."""
        return tuple(x ** (1 / (1 - self.s)) for x in self._brackets(h, w))

    @_at_dps
    def delta_V(self, w):
        """delta_u (log branch at theta = 1) less mu (ln h - ln(1 - h)) at wage w."""
        s, th, (h, g) = self.s, self.th, self.shares(w)
        A, B = self._brackets(h, w)
        if th == 1:
            gap = mpmath.log(w) + mpmath.log(A / B) / (s - 1)
        else:
            k = (1 - th) / (s - 1)
            gap = (w ** (1 - th) * A ** k - B ** k) / (1 - th)
        return gap - self.mu * (mpmath.log(h) - mpmath.log(g))

    @_at_dps
    def rest_point(self):
        """The outermost logit rest point's wage, bisecting (1.000001, w_hi - 1e-40 w_hi)."""
        lo, hi = mpmath.mpf("1.000001"), self.p ** (-1 / self.s) * (1 - mpmath.mpf(10) ** -40)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if self.delta_V(mid) > 0 else (lo, mid)
        return (lo + hi) / 2

    @_at_dps
    def dV_dh(self, h, k=1):
        """d^k(delta_V)/dh^k at share h, by mpmath.diff through the wage."""
        return mpmath.diff(lambda x: self.delta_V(self.wage(x)), h, k)

    @_at_dps
    def ddelta_u_dphi(self, h):
        """d(delta_u)/d(phi) at the fixed share h, by the chain rule through
        the wage, whose slope in phi there is -(d balance/d phi)/(d balance/dw);
        the partials of delta_u take one form for every theta."""
        s, p, th, g = self.s, self.p, self.th, 1 - h
        w, k = self.wage(h), (1 - th) / (s - 1)
        X, m, (A, B) = w ** s, w ** (1 - s), self._brackets(h, w)
        dw_dphi = X * (g - h * w) / self._balance(w, h)[1]
        a, b = w ** (1 - th) * A ** (k - 1), B ** (k - 1)
        return (g * a - h * m * b) / (s - 1) + (a * A - h * m * (a - p * b)) / w * dw_dphi
