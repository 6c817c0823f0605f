"""Additive mixed-input Gaussian process surrogate.

The covariance is a base squared-exponential term on the quantitative
coordinates plus, for each qualitative factor, a level-specific
squared-exponential term that is active only when both points share that
level.  Hyperparameters are estimated by multi-start bounded L-BFGS-B
on the profiled negative log-likelihood (the process mean has a closed
form given the rest), with its analytic gradient (Rasmussen & Williams
2006, sec. 5.4.1).  ``minimize`` takes scipy's call form and runs
L-BFGS-B in this module's own loop over scipy's ``setulb`` kernel: the
iterates of scipy's ``minimize`` without its per-evaluation wrappers.
A fit runs all of its starts in lockstep (``_lockstep``): each start keeps
its own ``setulb`` state, and each round scores the points that every live
start asks for in one stacked objective call (``_Objective.stack``), each
point with the bits of a call at that point alone.  So every start's
iterates and result are those of the start run alone.  A fit's start whose
trial point scores inf restarts once from its last finite iterate
(``_fit_start``).  ``fit`` still calls
``minimize`` once per start, in start order, with the start's handle
(``_StartHandle``): the first call runs every start, and each call returns
its own start's result.  The benchmark's tracer and probe, and tests, count
and time the starts by rebinding ``minimize``, which is why it keeps
scipy's call form.
The compiled modules that hold ``setulb`` (``scipy.optimize._lbfgsb``)
and LAPACK's ``dpotrf``, ``dpotrs`` and ``dpotri``
(``scipy.linalg._flapack``) are loaded by themselves with
``_scipy_extension``, so no process runs the package import of
``scipy.optimize`` or ``scipy.linalg``; a later import of those packages
finds them as its own.
The fit builds its Gram on a pair table, ``_KernelWorkspace``, over the
pairs of its lower triangle, where the gradient is one product of a
design matrix, built at the first gradient, with the pair terms.
One-shot cross-covariances between two point sets (``predict_batch``,
``coverage_check``) build no table: ``cross_covariance``
computes them in column blocks, with the table's bits.  A block writes
its differences one coordinate at a time, so that numpy's inner loops run
over the block's columns rather than over p, and computes and adds each
level term only where the levels match.  A table's Gram build takes the
variances and rates in ``_pack``'s order, computes the rates of every
term, base and level, in one stacked product, exponentiates and scales
them in one buffer once, and adds the level terms to their pairs in
factor order with one ``np.add.at``; each step keeps the bits of a build
one level at a time; a stack of builds takes each step once for the
stack.  The fit writes each evaluation's Gram into one column-major
buffer, or a stack's into one column-major block each, which
``_try_cholesky`` factors in place.  The profiled likelihood solves for y
and 1 with one two-column ``dpotrs``.  ``fit`` runs its
LAPACK calls on one BLAS thread and restores the previous count
afterwards.  The conditioning core, ``_posterior`` and ``_predictive``,
takes one training Gram or a stack of them along leading axes; only the
factorizations and solves loop over the stack.
``params_to_dict`` gives the JSON form of the hyperparameters, which
``traceio`` writes and reads back (``params_from_doc``).
"""
from __future__ import annotations

import ctypes
import glob
import importlib.util
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder

import numpy as np
import scipy

from .design_space import DesignSpace, MixedPoint, _unit_lhd, point_arrays
from .errors import FitFailureError, IllConditionedModelError, ValidationError
from .simulators import get_transform

# the scipy releases whose private compiled modules _scipy_extension loads (pyproject.toml's pin)
_SCIPY_SUPPORTED = ">=1.17,<1.18"


def _scipy_extension(subpackage: str, name: str, *attributes: str) -> tuple:
    """The named attributes of scipy's compiled module ``scipy.<subpackage>.<name>``.

    The module is taken from ``sys.modules`` when scipy has loaded it, and
    otherwise loaded by itself from the installed scipy's ``subpackage``
    directory, so the subpackage's ``__init__.py`` does not run (its import
    takes far longer than the calls the library makes).  Such a module is
    left out of ``sys.modules``: a later import of the subpackage then loads
    it as its own and sets it as the package's attribute, and the
    interpreter hands that import the extension it has already initialised,
    so the same function objects run either way.  Each call without the
    package loads the module again, so callers fetch an attribute once.  A
    scipy without the module or one of the attributes raises
    ``ImportError``.
    """
    full = f"scipy.{subpackage}.{name}"
    module = sys.modules.get(full)
    if module is None:
        finder = FileFinder(os.path.join(os.path.dirname(scipy.__file__), subpackage),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(full)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)  # registers a single-phase module
            spec.loader.exec_module(module)
            sys.modules.pop(full, None)
    if module is None or not all(hasattr(module, attr) for attr in attributes):
        raise ImportError(f"scipy {scipy.__version__} has no compiled module {full} with "
                          f"{', '.join(attributes)}; contour-seeker needs scipy{_SCIPY_SUPPORTED}")
    return tuple(getattr(module, attr) for attr in attributes)


dpotrf, dpotri, dpotrs = _scipy_extension("linalg", "_flapack", "dpotrf", "dpotri", "dpotrs")

# Jitter ladder, relative to the (constant) Gram diagonal.
_JITTER_START = 1e-8
_JITTER_CAP = 1e-4

DUPLICATE_TOL = 1e-12

# Most rows of one matrix of the pair table's stacked product: the base
# terms and each level's are split into matrices of at most this many rows,
# so that a large design pads little.
_STACK_ROWS = 1024
# Most columns of one block of ``cross_covariance``: a block's negated squared
# differences take (n1, columns, p) floats.
_GRID_COLUMNS = 1024
# Most elements of a stack of cross-covariances conditioned in one call: a
# Monte-Carlo block of (draws, n_train, n_grid) takes as many draws as fit.
_STACK_ELEMENTS = 1 << 14
# Most elements of one stacked objective call of the fit: the starts sharing
# a call each take an (n, n) Gram and a Gram-build buffer of about that size.
_LOCKSTEP_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class EzGpParams:
    """Hyperparameters: mean, q+1 variances, base rates, per-level rate matrices.

    ``theta`` holds one (p, m_h) array per qualitative factor; column l_h
    contains the rates of the term active at level l_h.
    """

    mu: float
    sigma2: np.ndarray            # (q+1,)
    theta0: np.ndarray            # (p,)
    theta: tuple[np.ndarray, ...]  # q arrays of shape (p, m_h)

    def validate(self, space: DesignSpace) -> None:
        if not all(np.all(np.isfinite(v)) for v in (self.mu, self.sigma2, self.theta0, *self.theta)):
            raise ValidationError("mu, variances and rates must be finite")
        if len(self.sigma2) != space.q + 1:
            raise ValidationError(f"sigma2 must have length q+1={space.q + 1}")
        if self.sigma2[0] <= 0 or np.any(np.asarray(self.sigma2) < 0):
            raise ValidationError("variances must be >= 0 with the base variance > 0")
        if len(self.theta0) != space.p:
            raise ValidationError(f"theta0 must have length p={space.p}")
        if np.any(np.asarray(self.theta0) <= 0):
            raise ValidationError("base rates must be positive")
        if len(self.theta) != space.q:
            raise ValidationError(f"theta must have one matrix per factor (q={space.q})")
        for h, (mat, m) in enumerate(zip(self.theta, space.qual_levels)):
            if mat.shape != (space.p, m):
                raise ValidationError(f"theta[{h}] must have shape ({space.p}, {m})")
            if np.any(mat <= 0):
                raise ValidationError(f"theta[{h}] rates must be positive")

    @property
    def total_variance(self) -> float:
        return float(np.sum(self.sigma2))


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered training pairs on the modeling (possibly transformed) scale.

    ``x`` (n, p) and ``z`` (n, q) are the arrays of ``points``, built once.
    ``transform`` must name a response transform (``get_transform``).
    """

    points: tuple[MixedPoint, ...]
    responses: np.ndarray
    transform: str = "identity"
    x: np.ndarray = field(init=False, repr=False)
    z: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "responses", np.asarray(self.responses, dtype=float))
        get_transform(self.transform)
        if len(self.points) != len(self.responses):
            raise ValidationError("points and responses must have equal length")
        if len(self.points) < 2:
            raise ValidationError("a dataset needs at least 2 observations")
        x, z = point_arrays(self.points)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        bad = np.flatnonzero(~np.isfinite(self.responses))
        if len(bad):
            raise ValidationError(f"non-finite responses at indices {bad.tolist()}")
        dupes = self.duplicate_pairs()
        if dupes:
            raise ValidationError(f"duplicate design points at index pairs {dupes}")

    def __len__(self) -> int:
        return len(self.points)

    def duplicate_pairs(self) -> list[tuple[int, int]]:
        rows, cols = np.nonzero(np.triu(coincident(self.x, self.z, self.x, self.z), k=1))
        return [(int(i), int(j)) for i, j in zip(rows, cols)]

    def extended(self, point: MixedPoint, y: float) -> "Dataset":
        return Dataset(self.points + (point,), np.append(self.responses, y), self.transform)


def coincident(x1, z1, x2, z2) -> np.ndarray:
    """(n1, n2) mask of input pairs that share every level and differ by at
    most DUPLICATE_TOL in every quantitative coordinate."""
    mask = np.ones((len(x1), len(x2)), dtype=bool)
    # one (n1, n2) comparison per coordinate and per factor; a NaN coordinate compares False
    for a in range(x1.shape[1]):
        mask &= np.abs(x1[:, a, None] - x2[:, a]) <= DUPLICATE_TOL
    for h in range(z1.shape[1]):
        mask &= z1[:, h, None] == z2[:, h]
    return mask


def coincident_rows(x1, z1, x2, z2) -> np.ndarray:
    """``coincident(x1, z1, x2, z2).any(axis=1)`` without its (n1, n2, p)
    broadcast.  A coincident pair is within 2 x DUPLICATE_TOL in the first
    coordinate.  The first set's sorted coordinates give the second-set
    points with such a neighbour (usually none); the first-set points near
    one of those, found by ``searchsorted``, alone take the exact test."""
    reach = 2 * DUPLICATE_TOL
    ordered = np.sort(x1[:, 0])
    hit = np.flatnonzero(np.searchsorted(ordered, x2[:, 0] - reach)
                         < np.searchsorted(ordered, x2[:, 0] + reach, side="right"))
    first = np.sort(x2[hit, 0])
    near = np.flatnonzero(np.searchsorted(first, x1[:, 0] - reach)
                          < np.searchsorted(first, x1[:, 0] + reach, side="right"))
    mask = np.zeros(len(x1), dtype=bool)
    mask[near] = coincident(x1[near], z1[near], x2[hit], z2[hit]).any(axis=1)
    return mask


def cross_covariance(params: EzGpParams, x1, z1, x2, z2) -> np.ndarray:
    """Covariance matrix (n1, n2) between two point sets given as (n,p) and
    (n,q) arrays.

    Built in equal blocks of at most ``_GRID_COLUMNS`` columns of the second
    set, so memory grows as n1 x n2 plus one block's differences.  A block
    writes its negated squared differences once, into one (n1, columns, p)
    buffer, one coordinate at a time (so numpy's loops run over the block's
    columns, not over p); takes the base term as one product with
    ``theta0``, its ``exp`` and its variance; then, factor by factor, every
    pair's term at the first point's level rates (one product per row), and,
    only where the two levels match, its ``exp``, its variance and its add,
    as the pair table adds a level's terms to that level's pairs only.  The
    mask of matching levels is written into one bool buffer from contiguous
    copies of both sets' level columns, made once per call.  So each pair
    gets its base term and then its level terms in factor order.  Every
    product is a gemv over rows of negated squared differences, with the
    bits of the fit's pair table; a product of one row would be a dot, so a
    single column is computed as two.
    """
    n1, n2, p = len(x1), len(x2), x1.shape[1]
    if n2 == 1:
        return cross_covariance(params, x1, z1, np.repeat(x2, 2, axis=0), np.repeat(z2, 2, axis=0))[:, :1].copy()
    k = np.empty((n1, n2))
    # each first-set point's rates at its level of each factor, shaped as a product's right-hand side
    level_rates = [mat.T[z1[:, h] - 1][:, :, None] for h, mat in enumerate(params.theta)]
    # each factor's levels as one contiguous row per set
    levels1, levels2 = np.ascontiguousarray(z1.T), np.ascontiguousarray(z2.T)
    # equal blocks, so that none is a single column
    n_blocks = max(1, -(-n2 // _GRID_COLUMNS))
    width = max(1, -(-n2 // n_blocks))
    # one block's buffers, each contiguous; a narrower last block takes their front
    neg_d2_buf, values_buf = np.empty(n1 * width * p), np.empty(2 * n1 * width)
    mask_buf = np.empty(n1 * width, dtype=bool)
    for start in range(0, n2, width):
        x_block = x2[start:start + width]
        cols = len(x_block)
        neg_d2 = neg_d2_buf[:n1 * cols * p].reshape(n1, cols, p)
        block, term = values_buf[:2 * n1 * cols].reshape(2, n1, cols)
        mask = mask_buf[:n1 * cols].reshape(n1, cols)
        for a in range(p):
            np.subtract(x1[:, a, None], x_block[:, a], out=neg_d2[:, :, a])
        np.square(neg_d2, out=neg_d2)
        np.negative(neg_d2, out=neg_d2)
        np.matmul(neg_d2, params.theta0, out=block)
        np.exp(block, out=block)
        block *= params.sigma2[0]
        for h, rates in enumerate(level_rates):
            np.equal(levels1[h, :, None], levels2[h, start:start + cols], out=mask)
            np.matmul(neg_d2, rates, out=term[:, :, None])
            np.exp(term, out=term, where=mask)
            np.multiply(term, params.sigma2[h + 1], out=term, where=mask)
            np.add(block, term, out=block, where=mask)
        k[:, start:start + cols] = block
    return k


class _KernelWorkspace:
    """The pair table of one point set's training Gram: what the fit's
    repeated builds of it and ``condition``'s one share.  Grids against
    other points, such as ``predict_batch``'s, go through
    ``cross_covariance``'s column blocks instead, which build no table.

    ``pairs`` lists the (i, j) pairs of the Gram's lower triangle,
    ``np.tril_indices(n)``, as two index arrays, and ``flat_pairs`` their
    positions i + n * j in a column-major (n, n) matrix.

    ``stacked`` is one zero-padded (rows, ``width``, p) stack of negated
    squared coordinate differences, one per term of a build: first each of
    the ``n_pairs`` pairs', in pair order, filling ``base_rows`` rows with
    at least one spare slot after them, then the pairs of each level that
    some pair shares, in factor order; levels no pair shares take no rows.
    Each level starts a new row and takes as many rows as its pairs need.
    ``width`` is the largest level's count of pairs, capped at
    ``_STACK_ROWS`` so that a large design pads little.
    ``targets`` holds the pair of each level-part entry (the spare slot on
    padding), and ``rate_index`` and ``variance_index`` where each row's
    rates and variance sit in ``_pack``'s order.  One loop over the
    factors' levels lists each shared level's pairs, variance and rates,
    and each table follows from those lists.  ``design``, for the
    likelihood gradient, is built on first use.
    """

    def __init__(self, x, z, qual_levels):
        self.size, self.qual_levels = (len(x), len(x)), tuple(qual_levels)
        self.pairs = i, j = np.tril_indices(len(x))
        self.flat_pairs = np.ravel_multi_index(self.pairs, self.size, order="F")
        p, q = x.shape[1], len(self.qual_levels)
        self.n_pairs = n_pairs = len(i)
        # per term that takes rows, the base's and then each shared level's in factor order:
        # its variance and its p rates in ``_pack``'s order (theta[h][k, col] sits at
        # k * m_h + col of the factor's block), and a level's pairs in ascending order
        variances, rates, members = [0], [q + 1 + np.arange(p)], []
        z_i, shared = z[i], z[i] == z[j]
        block = q + 1 + p
        for h, m in enumerate(self.qual_levels):
            for col in range(m):
                member = np.flatnonzero(shared[:, h] & (z_i[:, h] == col + 1))
                if len(member):
                    variances.append(h + 1)
                    rates.append(block + m * np.arange(p) + col)
                    members.append(member)
            block += p * m
        # without levels the base alone sets the width; an empty set of pairs still takes one row
        self.width = max(1, min(max(map(len, members), default=n_pairs), _STACK_ROWS))
        self.base_rows = n_pairs // self.width + 1
        term_rows = [self.base_rows] + [-(-len(member) // self.width) for member in members]
        # per stacked row: its rates, shaped as the product's right-hand side, and its variance
        self.rate_index = np.repeat(rates, term_rows, axis=0)[:, :, None]
        self.variance_index = np.repeat(variances, term_rows)[:, None]
        # a level's pairs fill its rows in order; the rest of its last row pads to the spare slot
        self.targets = np.full((len(self.variance_index) - self.base_rows) * self.width, n_pairs, dtype=np.intp)
        start = 0
        for member, n_rows in zip(members, term_rows[1:]):
            self.targets[start:start + len(member)] = member
            start += n_rows * self.width

        self.stacked = np.empty((len(self.variance_index), self.width, p))
        rows = self.stacked.reshape(-1, p)
        cut = self.base_rows * self.width
        neg_d2 = rows[:n_pairs]
        np.subtract(x[i], x[j], out=neg_d2)
        np.square(neg_d2, out=neg_d2)
        np.negative(neg_d2, out=neg_d2)
        rows[n_pairs:cut] = 0
        # each level entry copies its pair's row, padding the zero row of the spare slot;
        # mode="clip" writes straight into out (the indices are in range)
        np.take(rows[:n_pairs + 1], self.targets, axis=0, out=rows[cut:], mode="clip")
        self.n_params = q + 1 + p + p * sum(self.qual_levels)
        self._per_build = {}

    def per_build(self, key: str, index: np.ndarray, step: int, count: int) -> np.ndarray:
        """``index`` for each of ``count`` builds of a stack, (count, *index.shape):
        build s's copy is offset by s x ``step``, so that one gather or
        scatter on a 1-D view of the stack's buffer serves every build.
        Cached under ``key`` at the largest count asked for; a smaller count
        takes the front of it."""
        out = self._per_build.get(key)
        if out is None or len(out) < count:
            out = index + step * np.arange(count).reshape((count,) + (1,) * index.ndim)
            self._per_build[key] = out
        return out[:count]

    def gram(self, e: np.ndarray, with_terms: bool = False):
        """Kernel values on the pairs at ``e``, the variances and rates in
        ``_pack``'s order (not logged): one build at e (D,), or one per row
        of a stack e (S, D), each with the bits of its build alone.

        Each value is the base term plus one level term per factor, added in
        factor order.  Every step keeps the bits of a build over each
        level's own rows:
        - all rates are one stacked ``matmul`` of ``stacked`` with each
          row's rates, and numpy runs one gemv per (build, stacked matrix),
          which gives each row the bits of any other gemv over it; the rows
          hold -d2, and (-d2) @ theta is -(d2 @ theta) bit for bit;
        - one ``exp`` covers the whole buffer, and one product scales each
          row by its variance;
        - one ``np.add.at`` on the buffer's 1-D view adds in index order, so
          each pair gets its level terms in factor order (padding goes to
          the spare slot), each build at its own offset.
        With ``with_terms``, ``(values, terms)``: also the term values
        stacked as ``design``'s columns, a fresh array.  The values are a
        view of the build's own buffer.
        """
        n_pairs, cut = self.n_pairs, self.base_rows * self.width
        if e.ndim == 2:
            return self._stacked_gram(e, with_terms)
        buf = np.empty(self.stacked.shape[:2])
        np.matmul(self.stacked, e[self.rate_index], out=buf[:, :, None])
        np.exp(buf, out=buf)
        buf *= e[self.variance_index]
        flat = buf.reshape(-1)
        terms = flat[self.term_positions] if with_terms else None
        np.add.at(flat[:cut], self.targets, flat[cut:])
        k = flat[:n_pairs]
        return (k, terms) if with_terms else k

    def _stacked_gram(self, e: np.ndarray, with_terms: bool):
        """``gram`` at a stack e (S, D): the one-build steps on an (S, rows,
        width) buffer, each index offset by ``per_build`` (one 1-D gather or
        ``np.add.at`` for the stack)."""
        n_pairs, cut = self.n_pairs, self.base_rows * self.width
        count, size = len(e), self.stacked.shape[0] * self.width
        flat_e = e.reshape(-1)
        buf = np.empty((count,) + self.stacked.shape[:2])
        np.matmul(self.stacked, flat_e[self.per_build("rates", self.rate_index, self.n_params, count)],
                  out=buf[..., None])
        np.exp(buf, out=buf)
        buf *= flat_e[self.per_build("variances", self.variance_index, self.n_params, count)]
        builds = buf.reshape(count, size)
        flat = builds.reshape(-1)
        terms = flat[self.per_build("terms", self.term_positions, size, count)] if with_terms else None
        np.add.at(flat, self.per_build("targets", self.targets, size, count).reshape(-1),
                  builds[:, cut:].reshape(-1))
        k = builds[:, :n_pairs]
        return (k, terms) if with_terms else k

    @cached_property
    def term_positions(self) -> np.ndarray:
        """Where each of ``design``'s terms sits in a build's buffer: every
        pair's base term, then each shared level's terms in factor order."""
        level_slots = np.flatnonzero(self.targets < self.n_pairs)
        return np.concatenate([np.arange(self.n_pairs), self.base_rows * self.width + level_slots])

    @cached_property
    def design(self) -> tuple[np.ndarray, np.ndarray]:
        """``(D, term_index)`` over the pairs.

        The terms are those of ``term_positions``; ``term_index`` is the
        position of each term's pair in a column-major (n, n) matrix, as in
        ``flat_pairs``.  ``D`` has one row per log-parameter in ``_pack``'s
        order and one column per term: the term's pair weight at its
        variance and the weight times its ``stacked`` row at its rates, the
        sign of the term's derivative.  The weight is 1 on the diagonal and 2 off it, where a
        pair stands for its mirror image.
        """
        i, j = self.pairs
        n_pairs, p = self.n_pairs, self.stacked.shape[2]
        positions = self.term_positions
        term_pair = np.concatenate([np.arange(n_pairs), self.targets[self.targets < n_pairs]])
        w = np.where(i == j, 1.0, 2.0)[term_pair]
        row = positions // self.width
        cols = np.arange(len(positions))
        design = np.zeros((self.n_params, len(positions)))
        design[self.variance_index[row, 0], cols] = w
        design[self.rate_index[row, :, 0], cols[:, None]] = w[:, None] * self.stacked.reshape(-1, p)[positions]
        return design, self.flat_pairs[term_pair]

    def nll_gradient(self, e: np.ndarray, factor: np.ndarray, resid: np.ndarray, terms: np.ndarray,
                     jitter_rate: float) -> np.ndarray:
        """Gradient of the profiled objective in the log-parameters of ``_pack``,
        at ``e`` = exp(log-parameters): one (D,), or one per row of a stack
        e (S, D), each with the bits of its gradient alone.

        ``factor`` factors Phi = gram + jitter_rate * (mean diagonal) I, one
        column-major (n, n) matrix per build (``_try_cholesky``'s), ``resid``
        is y - mu_hat 1 and ``terms`` the stacked term values.  With
        W = Phi^{-1} - alpha alpha' and alpha = Phi^{-1} resid, each component
        is sum(W * dPhi), which is ``D @ (W[term_index] * terms)`` before the
        rates' chain-rule factor e; the jitter moves with every variance,
        since the mean diagonal is sum(sigma2).  Overwrites ``factor`` with
        the lower triangle of Phi^{-1}: ``dpotri`` runs in place per matrix.
        """
        design, term_index = self.design
        alpha = _solve(factor, resid)
        n_sigma = len(self.qual_levels) + 1
        if e.ndim == 1:
            inv = dpotri(factor, lower=1, overwrite_c=1)[0]  # lower triangle of Phi^{-1}, column-major
            w = (inv.T - alpha[:, None] * alpha).reshape(-1)[term_index]
            g = design @ (w * terms)
            g[:n_sigma] += e[:n_sigma] * (jitter_rate * (inv.trace() - alpha @ alpha))
            g[n_sigma:] *= e[n_sigma:]
            return g
        count, n = len(e), self.size[0]
        for c in factor:
            dpotri(c, lower=1, overwrite_c=1)
        inv_t = factor.swapaxes(-1, -2)  # each inverse's lower triangle, read row-major
        w = (inv_t - alpha[:, :, None] * alpha[:, None, :]).reshape(-1)[
            self.per_build("term_index", term_index, n * n, count)]
        g = np.matmul(design, (w * terms)[..., None])[..., 0]
        trace = np.add.reduce(inv_t.reshape(count, -1)[:, ::n + 1], axis=-1)
        g[:, :n_sigma] += e[:, :n_sigma] * (jitter_rate * (trace - np.vecdot(alpha, alpha)))[:, None]
        g[:, n_sigma:] *= e[:, n_sigma:]
        return g


def _lower_gram(ws: _KernelWorkspace, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The column-major Gram with ``ws.gram``'s values over a lower
    triangle's pairs, or one such (n, n) matrix per row of a stack of values
    (S, n_pairs), written into ``out`` when given, else into new zero
    matrices: potrf reads the lower triangle only, and the diagonal gives
    the jitter.  A stack's ``out`` is (S, n, n) with each matrix
    column-major, one after another in memory.  potrf and potri with
    ``lower=1`` never write the upper triangle, so a buffer that they factor
    and invert in place keeps it zero, and the next values overwrite every
    entry they wrote."""
    if out is None:
        out = np.zeros(values.shape[:-1] + ws.size).swapaxes(-1, -2)
    n = ws.size[0]
    positions = ws.flat_pairs if values.ndim == 1 else ws.per_build("pairs", ws.flat_pairs, n * n, len(values))
    out.swapaxes(-1, -2).reshape(-1)[positions] = values
    return out


def _try_cholesky(a: np.ndarray, jitter: float):
    """LAPACK's lower factor c of a + jitter I, or None, computed in a's
    place.

    ``a`` must be column-major, so that potrf writes over it without a copy:
    the jitter goes onto its diagonal, and its lower triangle becomes the
    factor (or, on failure, a partial one).  ``c`` is ``a`` itself, and its
    strict upper triangle still holds a's entries, so read it through
    ``np.tril``."""
    a.reshape(-1, order="F")[::len(a) + 1] += jitter  # a view: a is column-major
    c, info = dpotrf(a, lower=1, clean=0, overwrite_a=1)
    return None if info != 0 else c


def _solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Phi^{-1} b from the factor c of ``_try_cholesky``.  A stack of factors
    c (..., n, n) solves the stack b (..., n) or (..., n, k) one ``dpotrs``
    call per matrix, each result laid out as that call returns it
    (column-major): b is copied into the result once, and each call solves
    its matrix there in place."""
    if c.ndim == 2:
        return dpotrs(c, b, lower=1)[0]
    n = c.shape[-1]
    cs = c.reshape(-1, n, n)
    bs = b.reshape(len(cs), *b.shape[c.ndim - 2:])
    if b.ndim < c.ndim:
        out = np.empty(bs.shape)
    else:
        out = np.empty((len(cs), bs.shape[-1], n)).swapaxes(-1, -2)
    out[...] = bs
    for c_i, b_i in zip(cs, out):
        dpotrs(c_i, b_i, lower=1, overwrite_b=1)
    return out.reshape(b.shape)


def _diag_mean(phi: np.ndarray):
    """Mean of the Gram diagonal, one per matrix of a stack (the bits of
    ``np.mean(np.diag(phi))``)."""
    return phi.trace(axis1=-2, axis2=-1) / phi.shape[-1]


def _jitter_ladder(scale: float, jitter: float | None):
    """The rungs a Gram with mean diagonal ``scale`` tries: ``jitter`` alone
    when given, else 1e-8 x scale rising tenfold up to 1e-4 x scale; none
    when ``scale`` is not finite."""
    if not math.isfinite(scale):
        return
    if jitter is not None:
        yield jitter
        return
    j = _JITTER_START * scale
    while j <= _JITTER_CAP * scale * (1 + 1e-9):
        yield j
        j *= 10


def _factor_gram(phi: np.ndarray, jitter: float | None = None):
    """``(c, jitter_used)``: the factor of the jittered Gram phi (n, n), or of
    each Gram of a stack (..., n, n), and the jitter it took.

    Each Gram climbs its own jitter ladder (``_jitter_ladder``) and stops at
    the first rung where ``_try_cholesky`` factors it; each rung factors a
    fresh column-major copy, so phi is left as it was.  A Gram that fails at
    every rung, or whose mean diagonal is not finite, leaves NaN in its
    factor and its jitter; a single Gram, run as a stack of one, raises
    IllConditionedModelError instead.
    """
    n = phi.shape[-1]
    phis = phi.reshape(-1, n, n)
    scales = _diag_mean(phis).tolist()
    # each factor column-major, as potrf returns it, so that potrs reads it without a copy
    c, used = np.full((len(phis), n, n), np.nan).swapaxes(-1, -2), np.full(len(phis), np.nan)
    for i, scale in enumerate(scales):
        for j in _jitter_ladder(scale, jitter):
            factor = _try_cholesky(np.array(phis[i], order="F"), j)
            if factor is not None:
                c[i], used[i] = factor, j
                break
    if phi.ndim == 2 and math.isnan(used[0]):
        scale, = scales
        if not math.isfinite(scale):
            raise IllConditionedModelError(f"Gram diagonal mean is {scale}")
        cond = float(np.linalg.cond(phi)) if n <= 500 else float("inf")
        *_, last = _jitter_ladder(scale, jitter)
        raise IllConditionedModelError(
            f"Gram factorization failed at jitter {last:.3e} (condition ~{cond:.3e})", condition=cond)
    return c.reshape(phi.shape), used.reshape(phi.shape[:-2])


def _with_ones(y: np.ndarray) -> np.ndarray:
    """The right-hand side [y, 1] (..., n, 2) of ``_profiled_nll``, each
    matrix column-major."""
    rhs = np.ones(y.shape[:-1] + (2, y.shape[-1]))
    rhs[..., 0, :] = y
    return rhs.swapaxes(-1, -2)


def _profiled_nll(factor: np.ndarray, rhs: np.ndarray):
    """(objective, profiled mean, Phi^{-1} 1, 1'Phi^{-1} 1) for ``rhs`` =
    ``_with_ones(y)``, where the objective is
    log|Phi| + y'P y - (1'P 1)^{-1} (1'P y)^2; one of each per matrix of a
    stack of factors.  One ``dpotrs`` call per matrix solves for both
    columns, with the bits of two single solves."""
    y, ones = rhs[..., 0], rhs[..., 1]
    logdet = 2.0 * np.log(factor.diagonal(axis1=-2, axis2=-1)).sum(axis=-1)
    sol = _solve(factor, rhs)
    sol_y, sol_1 = sol[..., 0], sol[..., 1]
    one_quad = np.vecdot(ones, sol_1)
    one_y = np.vecdot(ones, sol_y)
    obj = logdet + np.vecdot(y, sol_y) - one_y * one_y / one_quad
    return obj, one_y / one_quad, sol_1, one_quad


def neg_log_likelihood(params: EzGpParams, data: Dataset, space: DesignSpace, jitter: float | None = None) -> float:
    """Profiled negative log-likelihood (constants dropped, mean profiled out)."""
    return condition(params, data, space, jitter).nll


@dataclass
class _Posterior:
    """A GP conditioned on one training Gram, or a stack of GPs each conditioned
    on its own: jittered factor, profiled mean, objective, solves.  A stack's
    scalar fields are arrays over its leading axes."""

    factor: np.ndarray        # lower Cholesky factor(s) of the jittered Gram(s), as _factor_gram returns
    jitter: float
    mu_hat: float
    resid_solve: np.ndarray   # Phi^{-1} (y - mu_hat 1)
    ones_solve: np.ndarray    # Phi^{-1} 1
    ones_quad: float          # 1' Phi^{-1} 1
    nll: float


@dataclass
class FittedModel(_Posterior):
    """Conditioned surrogate: hyperparameters and data plus the conditioned state."""

    params: EzGpParams
    data: Dataset
    space: DesignSpace
    start_objectives: tuple[tuple[float, float], ...] = ()
    end_points: tuple[EzGpParams, ...] = ()


def _posterior(phi: np.ndarray, y: np.ndarray, jitter: float | None = None) -> _Posterior:
    """The one conditioning path: training Grams phi (..., n, n) with
    responses y (..., n), ``jitter`` as in ``condition``.

    Only the factorizations and solves run one matrix at a time; the jitter,
    the profiled mean and the objective are computed once for the stack,
    with the bits of one Gram at a time.  With no leading axis the scalar
    fields are floats and a Gram that does not factor raises
    IllConditionedModelError.  A stack's fields carry its leading axes, and
    a Gram that does not factor leaves NaN in its fields, its jitter
    included.
    """
    factor, jitter_used = _factor_gram(phi, jitter)
    obj, mu_hat, ones_solve, ones_quad = _profiled_nll(factor, _with_ones(y))
    resid_solve = _solve(factor, y - mu_hat[..., None] * np.ones(y.shape[-1]))
    if phi.ndim == 2:
        jitter_used, mu_hat, ones_quad, obj = map(float, (jitter_used, mu_hat, ones_quad, obj))
    return _Posterior(factor, jitter_used, mu_hat, resid_solve, ones_solve, ones_quad, obj)


def _predictive(post: _Posterior, prior_var: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive (means, sds) at the columns of the (..., n, m)
    cross-covariance ``r``, one row of m per GP of a stacked ``post``."""
    means = np.expand_dims(post.mu_hat, -1) + np.vecmat(post.resid_solve, r)
    quad = np.sum(r * _solve(post.factor, r), axis=-2)
    s = np.vecmat(post.ones_solve, r)
    var = prior_var - quad + np.square(1.0 - s) / np.expand_dims(post.ones_quad, -1)
    return means, np.sqrt(np.maximum(var, 0.0))


def condition(params: EzGpParams, data: Dataset, space: DesignSpace,
              jitter: float | None = None) -> FittedModel:
    """Build a FittedModel from known hyperparameters (no estimation).

    The process mean is profiled from the data even when ``params.mu`` is
    set; the stored params carry the profiled value.  ``jitter`` (finite,
    >= 0) is added to the Gram diagonal as given; None climbs from 1e-8 x
    the mean Gram diagonal tenfold up to 1e-4 x.  A Gram that does not
    factor raises IllConditionedModelError.

    The training Gram is built as the fit's objective builds it, on the
    pair table of its lower triangle, so that a fitted model is the
    posterior its objective scored.
    """
    params.validate(space)
    if jitter is not None and not (math.isfinite(jitter) and jitter >= 0):
        raise ValidationError(f"jitter must be None or finite and >= 0, got {jitter}")
    ws = _KernelWorkspace(data.x, data.z, space.qual_levels)
    phi = _lower_gram(ws, ws.gram(_param_vector(params)))
    phi += np.tril(phi, -1).T  # symmetric, for a failure's condition number
    post = _posterior(phi, data.responses, jitter)
    return FittedModel(params=replace(params, mu=post.mu_hat), data=data, space=space, **vars(post))


@dataclass(frozen=True)
class FitConfig:
    """Multi-start settings for hyperparameter estimation, checked on
    construction.

    A fit runs exactly ``n_starts`` (>= 1) starts in log-parameter space:
    the warm start, if given, then the centre of the box, then any carried
    starts, then LHD points drawn from ``seed`` (>= 0) for the rest; the
    list is cut at ``n_starts``.  ``theta_bounds`` and
    ``sigma2_rel_bounds`` are two finite numbers with 0 < low < high.  ``max_fev`` (None = scipy default, else
    >= 1) is L-BFGS-B's ``maxfun`` per start, a soft cap: the line search
    in progress finishes, so 40 can end after 41 evaluations.
    ``jitter_scale`` (finite, > 0) multiplies the base jitter used inside
    the objective (raised on retry after a failed fit).
    """

    n_starts: int = 8
    seed: int = 0
    theta_bounds: tuple[float, float] = (1e-2, 1e2)
    sigma2_rel_bounds: tuple[float, float] = (1e-6, 10.0)
    max_fev: int | None = None
    jitter_scale: float = 1.0

    def __post_init__(self):
        if self.n_starts < 1:
            raise ValidationError(f"n_starts must be >= 1, got {self.n_starts}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.max_fev is not None and self.max_fev < 1:
            raise ValidationError(f"max_fev must be None or >= 1, got {self.max_fev}")
        for name in ("theta_bounds", "sigma2_rel_bounds"):
            b = getattr(self, name)
            if len(b) != 2 or not (math.isfinite(b[1]) and 0 < b[0] < b[1]):
                raise ValidationError(f"{name} must be two finite numbers with 0 < low < high, got {b}")
        if not (math.isfinite(self.jitter_scale) and self.jitter_scale > 0):
            raise ValidationError(f"jitter_scale must be finite and positive, got {self.jitter_scale}")


def _param_vector(params: EzGpParams) -> np.ndarray:
    """The variances, base rates and level rates in ``_pack``'s order, not logged."""
    return np.concatenate([params.sigma2, params.theta0, *(mat.ravel() for mat in params.theta)], dtype=float)


def _pack(params: EzGpParams) -> np.ndarray:
    return np.log(_param_vector(params))


def _unpack(vec: np.ndarray, space: DesignSpace) -> EzGpParams:
    p, q = space.p, space.q
    e = np.exp(vec)
    mats, pos = [], q + 1 + p
    for m in space.qual_levels:
        mats.append(e[pos:pos + p * m].reshape(p, m))
        pos += p * m
    return EzGpParams(0.0, e[:q + 1], e[q + 1:q + 1 + p], tuple(mats))


def _log_bounds(space: DesignSpace, config: FitConfig, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    var_y = float(np.var(y))
    var_eff = var_y if var_y > 0 else 1e-12
    s_lo, s_hi = (math.log(config.sigma2_rel_bounds[0] * var_eff),
                  math.log(config.sigma2_rel_bounds[1] * var_eff))
    t_lo, t_hi = math.log(config.theta_bounds[0]), math.log(config.theta_bounds[1])
    n_sigma = space.q + 1
    n_theta = space.p + space.p * sum(space.qual_levels)
    lo = np.array([s_lo] * n_sigma + [t_lo] * n_theta)
    hi = np.array([s_hi] * n_sigma + [t_hi] * n_theta)
    return lo, hi


# scipy's L-BFGS-B defaults: ftol / eps, gtol, maxcor, maxls, maxiter, maxfun
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_PGTOL = 1e-5
_CORRECTIONS = 10
_MAX_LINE_SEARCH = 20
_MAX_ITER = 15000
_MAX_FUN = 15000

# setulb's task codes
_FG, _NEW_X, _CONVERGENCE, _STOP = 3, 1, 4, 5
_STOP_MAXFUN, _STOP_MAXITER = 502, 504


@dataclass(frozen=True)
class LbfgsbResult:
    """What ``minimize`` returns for L-BFGS-B: the fields of scipy's
    ``OptimizeResult`` that its L-BFGS-B driver sets, as attributes."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    nfev: int
    njev: int
    nit: int
    status: int


def minimize(fun, x0, method: str = "L-BFGS-B", jac=None, bounds=None, options=None, **kwargs):
    """scipy's ``minimize``, with bounded L-BFGS-B run by this module's own
    loop over scipy's ``setulb`` kernel (Byrd, Lu, Nocedal & Zhu 1995).

    ``fit`` calls it once per start, in start order, as ``minimize(handle,
    x0, jac=True, method="L-BFGS-B", bounds=<(low, high) pairs>,
    options={"maxfun": max_fev})``, where a ``maxfun`` of None is scipy's
    default, 15000.  ``handle`` is the start's ``_StartHandle``: the first
    such call runs every start of the fit in lockstep (``_lockstep``) and
    returns its own start's result, and each later call returns its
    start's; a start whose trial point scores inf restarts once
    (``_fit_start``), so its result is then that of two runs.  Any other
    ``fun`` returns ``(value, gradient)`` at one point
    and runs through the same loop as a stack of one.  That loop is scipy's
    without the wrappers it puts around each evaluation: the same calls of
    ``setulb`` with the same defaults, in the same order (``x0`` clipped to
    the bounds, ``fun`` evaluated there first, a trial point evaluated only
    when it differs from the last one, ``maxiter`` and the soft ``maxfun``
    cap checked at each new iteration, and the same status rule).  So the
    iterates and the returned ``x``, ``fun``, ``jac``, ``nfev``, ``njev``,
    ``nit`` and ``status`` are scipy's, returned as an ``LbfgsbResult``,
    not scipy's ``OptimizeResult``.  L-BFGS-B here takes nothing else:
    another option, infinite bounds or a ``fun`` without its gradient raise
    ``ValueError``, so no call reaches scipy's own L-BFGS-B driver.

    The name and the one call per start in scipy's call form stay because
    callers that count or time the starts (the benchmark's tracer and
    probe, and tests) rebind this module attribute and call it as scipy's
    ``minimize``; any other ``method`` is scipy's ``minimize`` itself, the
    one path that imports ``scipy.optimize``.  The call form and that
    hand-off can go once the benchmark reads the fit's counts from the fit
    rather than by wrapping this function.  L-BFGS-B needs only the
    kernel's module, ``scipy.optimize._lbfgsb``, which ``_scipy_extension``
    loads, so a process that fits never runs ``scipy.optimize``'s package
    import.
    """
    if method.upper() != "L-BFGS-B":
        import scipy.optimize

        return scipy.optimize.minimize(fun, x0, method=method, jac=jac, bounds=bounds,
                                       options=options, **kwargs)
    options = dict(options or {})
    maxfun = options.pop("maxfun", None)
    if jac is not True or options or kwargs:
        raise ValueError("L-BFGS-B takes only fun returning (value, gradient) (jac=True), "
                         "bounds and the maxfun option")
    box = np.array(bounds, dtype=float)
    # the kernel reads len(x) entries of each bound
    if box.shape != (np.size(x0), 2) or np.ndim(x0) != 1 or not np.isfinite(box).all():
        raise ValueError("bounds must be finite (low, high) pairs, one per entry of x0")
    lo, hi = np.ascontiguousarray(box.T)
    if maxfun is None:
        maxfun = _MAX_FUN
    if isinstance(fun, _StartHandle):
        return fun.run.result(fun.index, x0, lo, hi, maxfun)
    results, _ = _lockstep(lambda points: [fun(points[0])], [_lbfgsb(x0, lo, hi, maxfun)], 1)
    return results[0]


@cache
def _setulb():
    """scipy's L-BFGS-B kernel, fetched once, at the first L-BFGS-B run."""
    return _scipy_extension("optimize", "_lbfgsb", "setulb")[0]


def _lbfgsb(x0, lo, hi, maxfun: int):
    """One start of bounded L-BFGS-B as a generator: it yields each point it
    needs scored, is sent back that point's ``(value, gradient)``, and
    returns the start's ``LbfgsbResult``.  The first point is ``x0`` clipped
    to the bounds; a trial point is yielded only when it differs from the
    last one.  Its ``setulb`` state is its own, so its iterates depend only
    on the values sent to it."""
    setulb = _setulb()
    x = np.clip(x0, lo, hi)
    n = len(x)
    m = _CORRECTIONS
    nbd = np.full(n, 2, dtype=np.int32)  # bounded on both sides
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave, dsave = np.zeros(4, dtype=np.int32), np.zeros(44, dtype=np.int32), np.zeros(29)

    x_eval = x.copy()
    f_eval, g_eval = yield x_eval
    nfev, nit = 1, 0
    f, g = 0.0, np.zeros(n)  # what scipy passes to the kernel's first call
    while True:
        setulb(m, x, lo, hi, nbd, f, g, _FACTR, _PGTOL, wa, iwa, task, lsave, isave, dsave,
               _MAX_LINE_SEARCH, ln_task)
        if task[0] == _FG:
            if (x != x_eval).any():
                x_eval = x.copy()
                f_eval, g_eval = yield x_eval
                nfev += 1
            f = f_eval
            g[:] = g_eval
        elif task[0] == _NEW_X:
            nit += 1
            if nit >= _MAX_ITER:
                task[:] = _STOP, _STOP_MAXITER
            elif nfev > maxfun:
                task[:] = _STOP, _STOP_MAXFUN
        else:
            break
    if task[0] == _CONVERGENCE:
        status = 0
    else:
        status = 1 if nfev > maxfun or nit >= _MAX_ITER else 2
    return LbfgsbResult(x=x, fun=f, jac=g, nfev=nfev, njev=nfev, nit=nit, status=status)


def _watched(run):
    """The start ``run`` as a generator like it, passing its points out and
    their values in, that returns ``(run's result, whether a trial point
    after its first scored non-finite)``."""
    hit = False
    x = next(run)
    while True:
        out = yield x
        try:
            x = run.send(out)
        except StopIteration as stop:
            return stop.value, hit
        hit = hit or not math.isfinite(out[0])


def _fit_start(x0, lo, hi, maxfun: int):
    """One start of ``fit``, as ``_lbfgsb``'s generator.  When a trial point
    scores inf (its Gram does not factor), the kernel ends the start at its
    last finite iterate while reporting convergence.  Such a start restarts
    once from there with fresh ``setulb`` state and the evaluations left of
    ``maxfun``; the two runs' counts add up, and if a trial point of the
    restart scores inf too, the start's status is 2."""
    res, hit = yield from _watched(_lbfgsb(x0, lo, hi, maxfun))
    if not hit or res.status == 1 or not math.isfinite(res.fun):
        return res
    again, hit = yield from _watched(_lbfgsb(res.x, lo, hi, max(maxfun - res.nfev, 1)))
    return replace(again, nfev=res.nfev + again.nfev, njev=res.njev + again.njev, nit=res.nit + again.nit,
                   status=2 if hit else again.status)


def _lockstep(evaluate, runs: list, per_call: int) -> tuple[list, list]:
    """The starts ``runs`` (generators such as ``_lbfgsb``'s) in lockstep:
    ``(results, first values)``, one of each per start.

    Each start keeps its own ``setulb`` state and runs until it
    asks for a point.  A round scores every asked point with ``evaluate``,
    which takes a list of at most ``per_call`` points and returns one
    ``(value, gradient)`` per point, and sends each start its own.  A start
    sees only the values at its own points, so its iterates and result are
    those of the start run alone; the first value each start is sent is
    the one at its clipped ``x0``."""
    results, first = [None] * len(runs), [None] * len(runs)
    asked = [(k, next(run)) for k, run in enumerate(runs)]
    while len(asked) > 1:
        scored = []
        for i in range(0, len(asked), per_call):
            scored += evaluate([x for _, x in asked[i:i + per_call]])
        pending = []
        for (k, _), out in zip(asked, scored):
            if first[k] is None:
                first[k] = out[0]
            try:
                pending.append((k, runs[k].send(out)))
            except StopIteration as stop:
                results[k] = stop.value
        asked = pending
    if asked:
        # the last live start runs alone, without a round's bookkeeping
        (k, x), = asked
        run = runs[k]
        try:
            while True:
                out, = evaluate([x])
                if first[k] is None:
                    first[k] = out[0]
                x = run.send(out)
        except StopIteration as stop:
            results[k] = stop.value
    return results, first


class _Lockstep:
    """The starts of one fit, run in lockstep on the fit's ``_Objective``
    when ``minimize`` first asks for one of their results.  ``first``
    holds each start's initial value.  It holds no handle, so a fit's
    handles, run and objective form no reference cycle and are freed when
    the fit returns."""

    def __init__(self, objective, x0s, lo, hi, maxfun: int):
        self.objective, self.x0s, self.lo, self.hi, self.maxfun = objective, x0s, lo, hi, maxfun
        self.first = [None] * len(x0s)
        self.results = None

    def result(self, k: int, x0, lo, hi, maxfun: int) -> LbfgsbResult:
        """Start k's result; ``x0``, the bounds and ``maxfun`` must be its own."""
        if not (np.array_equal(x0, self.x0s[k]) and np.array_equal(lo, self.lo) and np.array_equal(hi, self.hi)
                and maxfun == self.maxfun):
            raise ValueError("a start handle runs only its own start, with its fit's bounds and maxfun")
        if self.results is None:
            runs = [_fit_start(x0, self.lo, self.hi, self.maxfun) for x0 in self.x0s]
            self.results, self.first = _lockstep(self.objective.stack, runs, self.objective.per_call)
        return self.results[k]


class _StartHandle:
    """Start ``index`` of a ``_Lockstep``, the ``fun`` that ``fit`` passes
    ``minimize``.  Called at one point, it is the start's objective there,
    and the first value it returns is kept as the start's initial value
    unless the run has set it: so a ``minimize`` rebound to wrap ``fun`` in a
    plain function, which runs each start alone, still gives ``fit`` every
    start's f0."""

    __slots__ = ("run", "index")

    def __init__(self, run: _Lockstep, index: int):
        self.run, self.index = run, index

    def __call__(self, vec: np.ndarray) -> tuple[float, np.ndarray]:
        out = self.run.objective(vec)
        if self.run.first[self.index] is None:
            self.run.first[self.index] = out[0]
        return out


# numpy's OpenBLAS has 64-bit integers and suffixes its symbols with "64_"
_BLAS_SUFFIXES = ("", "64_")


@cache
def _blas_thread_controls() -> tuple:
    """(set, get) thread-count functions of each OpenBLAS bundled with numpy
    and scipy; a library without both symbols is left out."""
    controls = []
    for pkg in (np, scipy):
        for path in glob.glob(os.path.dirname(pkg.__file__) + ".libs/*openblas*"):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for suffix in _BLAS_SUFFIXES:
                setter = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
                getter = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    controls.append((setter, getter))
    return tuple(controls)


def _set_blas_threads(counts) -> list[int]:
    """Set the thread count of each bundled OpenBLAS and return the previous
    counts.  ``counts`` is one count for every library or a list as returned.
    Does nothing where a library or its thread symbols are absent."""
    controls = _blas_thread_controls()
    if isinstance(counts, int):
        counts = [counts] * len(controls)
    previous = [get() for _, get in controls]
    for (set_threads, _), count in zip(controls, counts):
        set_threads(count)
    return previous


@contextmanager
def _one_blas_thread():
    """Run the block (or, as a decorator, each call) with each bundled
    OpenBLAS on one thread, then restore the previous counts, also when the
    block raises.  The likelihood's
    LAPACK calls are tiny, and handing them to a second thread costs more
    than they do."""
    previous = _set_blas_threads(1)
    try:
        yield
    finally:
        _set_blas_threads(previous)


class _Objective:
    """The fit's profiled objective with its gradient: ``(value, gradient)``
    at one point when called, and one such pair per point of a list with
    ``stack``, each with the bits of a call at that point alone.

    It works on the pair table of the Gram's lower triangle, which is all
    LAPACK's lower Cholesky factor reads, and hands the exponentiated
    log-parameters to the Gram build as they are; the gradient's design
    matrix is built at the first gradient.  A call writes its Gram into
    the lower triangle of one column-major buffer, which ``_try_cholesky``
    factors and the gradient's ``dpotri`` inverts in place, so no
    evaluation copies its Gram or keeps state from the last one.  A stack
    of S points does the same in one (S, n, n) buffer, each Gram
    column-major in its own block: one Gram build for the stack, the
    factorisations, solves and inverses one matrix at a time, and every
    other step once for the stack.  A point whose Gram does not factor
    scores inf with a zero gradient and leaves the rest of its stack as it
    is.  A stack takes at most ``per_call`` points, so that its buffers hold
    about ``_LOCKSTEP_ELEMENTS`` floats; a stack of one point goes through
    the call, the cheaper path.  No ``EzGpParams`` is built per evaluation.
    """

    def __init__(self, ws: _KernelWorkspace, y: np.ndarray, jitter_rate: float):
        self.ws, self.y, self.jitter_rate = ws, y, jitter_rate
        self.rhs = _with_ones(y)
        n = ws.size[0]
        self.per_call = max(1, _LOCKSTEP_ELEMENTS // (n * n + ws.stacked.shape[0] * ws.width))
        self.phi = np.zeros(ws.size, order="F")
        # a stack's Grams, one block of n * n floats each, sized by the first stack: a lockstep run's
        # first round has the most live starts
        self.blocks = None

    def jitter(self, phi: np.ndarray):
        """The jitter of a Gram, or of each of a stack of Grams."""
        return self.jitter_rate * _diag_mean(phi)

    def __call__(self, vec: np.ndarray) -> tuple[float, np.ndarray]:
        e = np.exp(vec)
        values, terms = self.ws.gram(e, with_terms=True)
        phi = _lower_gram(self.ws, values, out=self.phi)
        factor = _try_cholesky(phi, self.jitter(phi))
        if factor is None:
            return np.inf, np.zeros(len(vec))
        obj, mu_hat = _profiled_nll(factor, self.rhs)[:2]
        return float(obj), self.ws.nll_gradient(e, factor, self.y - mu_hat, terms, self.jitter_rate)

    def stack(self, points: list[np.ndarray]) -> list[tuple[float, np.ndarray]]:
        if len(points) == 1:
            return [self(points[0])]
        count, n = len(points), self.ws.size[0]
        e = np.exp(np.array(points))
        values, terms = self.ws.gram(e, with_terms=True)
        if self.blocks is None or len(self.blocks) < count:
            self.blocks = np.zeros((count, n * n))
            self.rhs_stack = np.broadcast_to(self.rhs, (count,) + self.rhs.shape)
        blocks = self.blocks[:count]
        grams = _lower_gram(self.ws, values, out=blocks.reshape(count, n, n).swapaxes(-1, -2))
        # each Gram's diagonal sum over its block's row: the bits of _diag_mean
        jitters = (self.jitter_rate * (np.add.reduce(blocks[:, ::n + 1], axis=-1) / n)).tolist()
        live = [s for s in range(count) if _try_cholesky(grams[s], jitters[s]) is not None]
        out = [(np.inf, np.zeros(len(points[0])))] * count
        if not live:
            return out
        if len(live) < count:
            # the factored Grams move to the front of the buffer, in order
            for j, s in enumerate(live):
                grams[j] = grams[s]
            grams, e, terms = grams[:len(live)], e[live], terms[live]
        obj, mu_hat = _profiled_nll(grams, self.rhs_stack[:len(live)])[:2]
        g = self.ws.nll_gradient(e, grams, self.y - mu_hat[:, None], terms, self.jitter_rate)
        for s, value, grad in zip(live, obj.tolist(), g):
            out[s] = value, grad
        return out


@_one_blas_thread()
def fit(data: Dataset, space: DesignSpace, config: FitConfig = FitConfig(),
        warm_start: tuple[EzGpParams, ...] = ()) -> FittedModel:
    """Maximum likelihood fit by multi-start bounded L-BFGS-B in log space,
    with the analytic gradient of the profiled objective (``_Objective``).

    Every start runs scipy's L-BFGS-B kernel with scipy's defaults and
    ``max_fev`` as ``maxfun``, in one lockstep run (``_Lockstep``): each
    start keeps its own ``setulb`` state, and each round scores the points
    that all live starts ask for in one stacked objective call.  A start
    gets exactly the values and gradients it would get run alone, so its
    iterates and result are those of the start run alone.  ``fit`` still
    calls ``minimize`` once per start, in start order, passing the start's
    handle (``_StartHandle``); the first call runs every start and each call
    returns its own start's result.  The fit runs on one BLAS thread and
    restores the previous count on return or raise.  A trial point whose
    Gram does not factor scores inf; the kernel then ends that start at its
    last finite point, and the start restarts once from there
    (``_fit_start``).  Returns the best factorizable local optimum over all
    starts; the achieved objective never exceeds any start's initial
    objective, taken from the start's first evaluation.

    The starts are ``warm_start``'s first entry (the warm start), the
    centre of the box, ``warm_start``'s other entries (carried starts, such
    as an earlier fit's end points) and then LHD points drawn from
    ``config.seed``, cut at exactly ``config.n_starts``; each given start is
    clipped to the box.  So with no ``warm_start`` the starts are the
    centre and ``n_starts - 1`` LHD points, and a one-start fit with a warm
    start runs that start alone.  The model carries ``start_objectives``,
    each start's (initial, achieved) objective in start order, and
    ``end_points``, the hyperparameters at each start's finite end point,
    best first (the mean is profiled on conditioning, so theirs is 0).
    """
    y = data.responses
    ws = _KernelWorkspace(data.x, data.z, space.qual_levels)
    lo, hi = _log_bounds(space, config, y)
    objective = _Objective(ws, y, _JITTER_START * config.jitter_scale)

    given = [np.clip(_pack(params), lo, hi) for params in warm_start]
    starts = (given[:1] + [(lo + hi) / 2.0] + given[1:])[:config.n_starts]
    n_lhd = config.n_starts - len(starts)
    if n_lhd:
        rng = np.random.default_rng(config.seed)
        starts.extend(lo + u * (hi - lo) for u in _unit_lhd(n_lhd, len(lo), rng))

    run = _Lockstep(objective, starts, lo, hi, _MAX_FUN if config.max_fev is None else config.max_fev)
    bounds = list(zip(lo, hi))
    results = []
    for idx, x0 in enumerate(starts):
        res = minimize(_StartHandle(run, idx), x0, jac=True, method="L-BFGS-B", bounds=bounds,
                       options={"maxfun": config.max_fev})
        f0 = run.first[idx]
        xb, fb = (res.x, float(res.fun)) if res.fun <= f0 else (x0, f0)
        results.append((fb, idx, xb, f0))

    results.sort(key=lambda r: (r[0], r[1]))
    path = tuple((r[3], r[0]) for r in sorted(results, key=lambda r: r[1]))
    ends = tuple(_unpack(xb, space) for fb, _idx, xb, _f0 in results if np.isfinite(fb))
    for fb, _idx, xb, _f0 in results:
        if not np.isfinite(fb):
            continue
        params = _unpack(xb, space)
        try:
            # condition at the objective's jitter, so the stored nll is the
            # likelihood of the returned factor
            jitter = objective.jitter(_lower_gram(ws, ws.gram(np.exp(xb))))
            model = condition(params, data, space, jitter=jitter)
        except IllConditionedModelError:
            continue
        model.start_objectives, model.end_points = path, ends
        return model
    raise FitFailureError("no optimizer start produced a factorizable model")


def predict_batch(model: FittedModel, x: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predictive (means, sds) arrays at the (m, p) coordinates and (m, q)
    levels of a point set, order preserved.  A candidate's sd can differ in its
    last bits depending on which candidates share the call (its mean was
    seen to agree)."""
    if len(x) == 0:
        return np.empty(0), np.empty(0)
    r = cross_covariance(model.params, model.data.x, model.data.z, x, z)  # (n, m)
    return _predictive(model, model.params.total_variance, r)


def params_to_dict(params: EzGpParams) -> dict:
    return {
        "mu": float(params.mu),
        "sigma2": [float(v) for v in params.sigma2],
        "theta0": [float(v) for v in params.theta0],
        "theta": [[[float(v) for v in row] for row in mat] for mat in params.theta],
    }
