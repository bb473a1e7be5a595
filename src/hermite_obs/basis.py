"""Hermite basis machinery: multi-indices, stable function evaluation,
ladder-operator algebra and finite expansions.

Everything downstream (restriction Gram matrices, Weyl-quantized operators,
semigroup propagation) is expressed in the orthonormal basis of Hermite
functions ``Phi_alpha(x) = prod_j phi_{alpha_j}(x_j)``, where ``phi_k`` is the
k-th one-dimensional Hermite function, i.e. the k-th eigenfunction of the
harmonic oscillator ``-d^2/dx^2 + x^2`` with eigenvalue ``2k + 1``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

SQRT2 = math.sqrt(2.0)

# Ladder map kinds.
RAISE = "raise"
LOWER = "lower"
POSITION = "position"
DERIVATIVE = "derivative"

_KINDS = (RAISE, LOWER, POSITION, DERIVATIVE)


class ContractViolation(ValueError):
    """An operation was called outside its documented contract."""


class UsageError(ContractViolation):
    """Malformed user input; the command line reports it as a usage error."""


def finite_float(text):
    """float(text), refusing nan and the infinities with a ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("%r is not a finite number" % text)
    return value


def parse_shorthand(text, table):
    """'head:key=value,...' -> (head, {key: value}).  ``table`` maps each
    head to its keys and their defaults, None for a required key; a key
    takes its default's type, int or else float.  Any other head or key, a
    value that is not a finite number, a value of an int key that is not a
    whole number, or a missing required key raises UsageError."""
    head, _, args = text.partition(":")
    opts = dict(table.get(head, {}))
    try:
        if head not in table:
            raise ValueError("unknown shorthand; choose from %s" % ", ".join(table))
        for key, _, val in (item.partition("=") for item in args.split(",") if item):
            if (key := key.strip()) not in opts:
                raise ValueError("%s takes the keys %s" % (head, ", ".join(opts) or "none"))
            value, whole = finite_float(val), type(table[head][key]) is int
            if whole and not value.is_integer():
                raise ValueError("%s takes a whole number, not %s" % (key, val.strip()))
            opts[key] = int(value) if whole else value
        if None in opts.values():
            raise ValueError("%s needs the keys %s" % (head, ", ".join(opts)))
    except ValueError as exc:
        raise UsageError("%r: %s" % (text, exc)) from None
    return head, opts


def frozen_cache(fn):
    """``fn`` as a table of the process: built on the first call with each
    argument tuple, kept, and returned with its array, or each array of its
    tuple, read-only, so that no caller can change what the next one reads.
    Nothing is built at import."""
    def frozen(*args):
        out = fn(*args)
        for arr in out if isinstance(out, tuple) else (out,):
            arr.flags.writeable = False
        return out

    return lru_cache(maxsize=None)(wraps(fn)(frozen))


def space_dimension(n, N):
    """Dimension of E_N in n variables: binomial(N + n, n)."""
    return math.comb(N + n, n)


@lru_cache(maxsize=None)
def multi_indices(n, N):
    """All multi-indices alpha in N^n with |alpha| <= N, graded-lex ordered.

    Ordering is by total order |alpha| first, then lexicographic on the
    entry tuple.  The order is fixed globally so that every matrix built on
    E_N is reproducible byte for byte and so that E_k is always a leading
    block of E_N for k <= N.
    """
    if n < 1:
        raise ContractViolation("dimension n must be >= 1")
    if N < 0:
        raise ContractViolation("cutoff N must be >= 0")

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    out = []
    for k in range(N + 1):
        out.extend(sorted(compositions(k, n)))
    assert len(out) == space_dimension(n, N)
    return tuple(out)


@lru_cache(maxsize=None)
def index_positions(n, N):
    """Dict mapping each multi-index of E_N to its row in the graded order."""
    return {alpha: i for i, alpha in enumerate(multi_indices(n, N))}


@frozen_cache
def index_levels(n, N):
    """Array of |alpha| per basis position (read-only)."""
    return np.array([sum(a) for a in multi_indices(n, N)], dtype=np.int64)


@frozen_cache
def _index_array(n, N):
    """``multi_indices(n, N)`` as a read-only (dim, n) int array."""
    return np.array(multi_indices(n, N))


def hermite_values(N, x):
    """Values phi_0(x) .. phi_N(x) of the weighted Hermite functions.

    Uses the normalized three-term recurrence with the Gaussian weight
    included,

        phi_{k+1} = x sqrt(2/(k+1)) phi_k - sqrt(k/(k+1)) phi_{k-1},

    seeded with phi_0 = pi^(-1/4) exp(-x^2/2).  Keeping the weight inside
    the recurrence keeps every iterate O(1) and avoids the factorial
    overflow of the bare Hermite polynomials.

    Parameters
    ----------
    N : int
        Highest degree to evaluate.
    x : float or ndarray
        Evaluation point(s).

    Returns
    -------
    ndarray of shape (N + 1,) + shape(x).
    """
    x = np.asarray(x, dtype=float)
    vals = np.empty((N + 1,) + x.shape, dtype=float)
    near = np.minimum(np.abs(x), 2.0**511)  # past it x^2 / 2 passes the double range and phi_0 is 0
    vals[0] = math.pi ** (-0.25) * np.exp(-0.5 * near * near)
    if N >= 1:
        vals[1] = x * SQRT2 * vals[0]
    for k in range(1, N):
        vals[k + 1] = x * math.sqrt(2.0 / (k + 1)) * vals[k] - math.sqrt(
            k / (k + 1.0)
        ) * vals[k - 1]
    return vals


def eval_hermite_1d(k, x):
    """phi_k(x) for a single degree k >= 0."""
    if k < 0:
        raise ContractViolation("degree k must be >= 0")
    return hermite_values(k, x)[k]


@dataclass(frozen=True)
class HermiteExpansion:
    """A finite Hermite combination f = sum_{|alpha| <= N} c_alpha Phi_alpha.

    Coefficients follow the global graded-lex order of ``multi_indices``.
    By Parseval over the orthonormal family, the L2(R^n) norm of f equals the
    Euclidean norm of the coefficient vector.  Instances are immutable.
    """

    n: int
    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (space_dimension(self.n, self.N),):
            raise ContractViolation(
                "expected %d coefficients for n=%d, N=%d, got shape %s"
                % (space_dimension(self.n, self.N), self.n, self.N, c.shape)
            )
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    # -- vector-space operations ------------------------------------------

    def norm(self):
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other):
        """<f, g> = sum c_alpha conj(d_alpha)."""
        self._check_compatible(other)
        return complex(np.vdot(other.coeffs, self.coeffs))

    def scaled(self, z):
        return HermiteExpansion(self.n, self.N, self.coeffs * z)

    def add(self, other):
        self._check_compatible(other)
        return HermiteExpansion(self.n, self.N, self.coeffs + other.coeffs)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scaled(-1.0))

    def _check_compatible(self, other):
        if other.n != self.n or other.N != self.N:
            raise ContractViolation("expansions live on different spaces")

    def padded(self, new_N):
        """Embed into E_{new_N} (new_N >= N); coefficients are preserved."""
        if new_N < self.N:
            raise ContractViolation("padded() cannot shrink the cutoff")
        if new_N == self.N:
            return self
        # E_N is the leading block of E_{new_N} in the graded order
        out = np.zeros(space_dimension(self.n, new_N), dtype=complex)
        out[: self.coeffs.size] = self.coeffs
        return HermiteExpansion(self.n, new_N, out)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x):
        """Pointwise values of f.

        ``x`` is a point of R^n or an array of shape (m, n); 1-d input in
        dimension one is treated as a batch of scalar points.  The 1-d factor
        values phi_k(x_j) are shared across all multi-indices: one product
        per axis over the multi-index table, summed over the coefficients in
        their order by a running sum.
        """
        pts = np.asarray(x, dtype=float)
        scalar = False
        if self.n == 1:
            if pts.ndim == 0:
                scalar = True
            pts = pts.reshape(-1, 1)
        else:
            if pts.ndim == 1:
                scalar = True
                pts = pts.reshape(1, -1)
        if pts.shape[1] != self.n:
            raise ContractViolation("points have wrong spatial dimension")
        idx = _index_array(self.n, self.N)
        terms = hermite_values(self.N, pts[:, 0])[idx[:, 0]]
        for j in range(1, self.n):
            terms *= hermite_values(self.N, pts[:, j])[idx[:, j]]
        out = np.cumsum(self.coeffs[:, None] * terms, axis=0)[-1]
        return out[0] if scalar else out

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return json.dumps(
            {
                "n": self.n,
                "N": self.N,
                "order": "grlex",
                "coeffs": [[float(z.real), float(z.imag)] for z in self.coeffs],
            }
        )

    @staticmethod
    def from_json(text):
        doc = json.loads(text)
        if doc.get("order") != "grlex":
            raise ContractViolation("unsupported coefficient order %r" % doc.get("order"))
        coeffs = np.array([complex(re, im) for re, im in doc["coeffs"]])
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        return HermiteExpansion(doc["n"], doc["N"], coeffs)


def unit_expansion(n, N, alpha):
    """The basis expansion Phi_alpha inside E_N."""
    alpha = tuple(alpha)
    c = np.zeros(space_dimension(n, N), dtype=complex)
    c[index_positions(n, N)[alpha]] = 1.0
    return HermiteExpansion(n, N, c)


def random_expansion(n, N, rng):
    """Expansion with independent standard complex Gaussian coefficients."""
    dim = space_dimension(n, N)
    c = rng.standard_normal(dim)
    return HermiteExpansion(n, N, c + 1j * rng.standard_normal(dim))


# -- ladder maps -------------------------------------------------------------


@dataclass(frozen=True)
class LadderMap:
    """One creation/annihilation-type map along a fixed axis.

    kind 'raise'      a_{j,+}: Phi_alpha -> sqrt(alpha_j + 1) Phi_{alpha+e_j}
    kind 'lower'      a_{j,-}: Phi_alpha -> sqrt(alpha_j) Phi_{alpha-e_j}
    kind 'position'   x_j   = (a_+ + a_-)/sqrt(2)
    kind 'derivative' d/dx_j = (a_- - a_+)/sqrt(2)

    Raise/position/derivative enlarge the cutoff by one; lower shrinks it.
    """

    kind: str
    axis: int
    source_cutoff: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ContractViolation("unknown ladder kind %r" % self.kind)
        if self.source_cutoff < 0:
            raise ContractViolation("source cutoff must be >= 0")

    @property
    def target_cutoff(self):
        if self.kind == LOWER:
            return max(self.source_cutoff - 1, 0)
        return self.source_cutoff + 1


def apply_ladder(m: LadderMap, f: HermiteExpansion) -> HermiteExpansion:
    """Apply a ladder map to an expansion, coefficient-exactly."""
    if f.N != m.source_cutoff:
        raise ContractViolation(
            "expansion cutoff %d does not match ladder source %d" % (f.N, m.source_cutoff)
        )
    if m.axis < 0 or m.axis >= f.n:
        raise ContractViolation("axis out of range")
    if m.kind in (POSITION, DERIVATIVE):
        up = apply_ladder(LadderMap(RAISE, m.axis, f.N), f)
        down = apply_ladder(LadderMap(LOWER, m.axis, f.N), f).padded(up.N)
        return (up + down if m.kind == POSITION else down - up).scaled(1.0 / SQRT2)

    N_out = m.target_cutoff
    out = np.zeros(space_dimension(f.n, N_out), dtype=complex)
    if m.kind == RAISE:
        src, tgt, fac = _ladder_table(f.n, N_out, m.axis)
        out[tgt] = fac * f.coeffs[src]
    else:  # LOWER, the adjoint: read the raise table of E_N backwards
        src, tgt, fac = _ladder_table(f.n, f.N, m.axis)
        out[src] = fac * f.coeffs[tgt]
    return HermiteExpansion(f.n, N_out, out)


@frozen_cache
def _ladder_table(n, M, axis):
    """Index-shift table ``(src, tgt, fac)`` of a_{axis,+} inside E_M.

    For every alpha with |alpha| <= M - 1 at position ``src``, the raised
    index alpha + e_axis sits at position ``tgt`` and picks up the factor
    ``fac = sqrt(alpha_axis + 1)``.  Positions are those of the global graded
    order, which agree on every cutoff because E_k is a leading block of E_M.
    Read-only arrays; empty for M = 0.
    """
    pos = index_positions(n, M)
    alphas = multi_indices(n, M)[: space_dimension(n, M - 1)]
    src = np.arange(len(alphas), dtype=np.int64)
    tgt = np.array(
        [pos[a[:axis] + (a[axis] + 1,) + a[axis + 1 :]] for a in alphas], dtype=np.int64
    )
    fac = np.sqrt(np.array([a[axis] + 1.0 for a in alphas]))
    return src, tgt, fac


@frozen_cache
def raise_matrix(n, M, axis):
    """Matrix of a_{axis,+} on E_M (images beyond level M are dropped).

    Compose ladder matrices only on a buffered cutoff: a product of p
    raise-type factors applied to columns with |alpha| <= M - p is exact.
    """
    src, tgt, fac = _ladder_table(n, M, axis)
    A = np.zeros((space_dimension(n, M),) * 2)
    A[tgt, src] = fac
    return A


def position_matrix(n, M, axis):
    R = raise_matrix(n, M, axis)
    return (R + R.T) / SQRT2


def momentum_matrix(n, M, axis):
    """Matrix of D_j = -i d/dx_j = i (a_+ - a_-)/sqrt(2) on E_M."""
    R = raise_matrix(n, M, axis)
    return 1j * (R - R.T) / SQRT2


# -- fits --------------------------------------------------------------------


def linear_fit(g, y):
    """Least-squares line y ~ slope g + intercept; returns
    (slope, intercept, ssr, r2), with r2 = 1 for constant y."""
    A = np.column_stack([g, np.ones_like(g)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ssr = float(resid @ resid)
    tot = float(np.sum((y - y.mean()) ** 2))
    return float(coef[0]), float(coef[1]), ssr, 1.0 - ssr / tot if tot > 0 else 1.0
