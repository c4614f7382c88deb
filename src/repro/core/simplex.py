"""Dense two-phase simplex solver in pure python.

This is the one solver behind :mod:`repro.core.lp`: a
``linprog``-shaped problem (minimize ``c @ x`` subject to
``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq`` and per-variable bounds) is
solved with a classic two-phase tableau method, with no dependency
beyond the standard library.  Every arithmetic step is ordinary float
math in a fixed order, so it produces bit-identical results on every
platform, which the ``optgap`` experiments and Figure 7 rely on when
they feed LP-optimal rates into the content-addressed run cache.

Scope (exactly what the LP layer needs, nothing more):

- minimization only;
- bounds of the form ``(lo, None)``, ``(lo, hi)`` or the degenerate
  pin ``(v, v)`` (fixed variables are eliminated up front, finite
  upper bounds become extra ``<=`` rows);
- anti-cycling via Dantzig pricing with an automatic switch to Bland's
  rule after a stall budget, so the degenerate flow-conservation LPs
  (many zero right-hand sides) always terminate.

The state-distribution problems are small -- hundreds of variables at
the scale of the cluster topologies ``repro.core.topogen`` emits -- so
a dense tableau is fast enough (milliseconds to a few hundred
milliseconds).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7


class SimplexError(RuntimeError):
    """Infeasible, unbounded, or iteration limit exceeded."""


def _pivot(
    rows: List[List[float]],
    obj: List[float],
    basis: List[int],
    leave: int,
    enter: int,
) -> None:
    """Make ``enter`` basic in row ``leave`` (full tableau update)."""
    pivot_row = rows[leave]
    pivot = pivot_row[enter]
    inv = 1.0 / pivot
    rows[leave] = pivot_row = [value * inv for value in pivot_row]
    for i, row in enumerate(rows):
        if i == leave:
            continue
        factor = row[enter]
        if factor != 0.0:
            rows[i] = [a - factor * p for a, p in zip(row, pivot_row)]
    factor = obj[enter]
    if factor != 0.0:
        obj[:] = [a - factor * p for a, p in zip(obj, pivot_row)]
    basis[leave] = enter


def _iterate(
    rows: List[List[float]],
    obj: List[float],
    basis: List[int],
    allowed: Sequence[bool],
) -> None:
    """Run simplex iterations until optimal; raise on unbounded/stall.

    Dantzig (most negative reduced cost) pricing normally; once the
    iteration count passes a generous stall budget we switch to Bland's
    rule, whose termination guarantee covers degenerate cycling.
    """
    m = len(rows)
    ncols = len(obj) - 1
    bland_after = 50 * (m + ncols) + 200
    max_iter = 40 * bland_after
    for iteration in range(1, max_iter + 1):
        use_bland = iteration > bland_after
        enter = -1
        if use_bland:
            for j in range(ncols):
                if allowed[j] and obj[j] < -_PIVOT_TOL:
                    enter = j
                    break
        else:
            best = -_PIVOT_TOL
            for j in range(ncols):
                if allowed[j] and obj[j] < best:
                    best = obj[j]
                    enter = j
        if enter < 0:
            return  # optimal
        leave = -1
        best_ratio = 0.0
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > _PIVOT_TOL:
                ratio = rows[i][-1] / coeff
                if (
                    leave < 0
                    or ratio < best_ratio - 1e-12
                    or (
                        abs(ratio - best_ratio) <= 1e-12
                        and basis[i] < basis[leave]
                    )
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            raise SimplexError("problem is unbounded")
        _pivot(rows, obj, basis, leave, enter)
    raise SimplexError(f"iteration limit exceeded ({max_iter})")


def solve_linear_program(
    c: Sequence[float],
    a_ub: Optional[Sequence[Sequence[float]]] = None,
    b_ub: Optional[Sequence[float]] = None,
    a_eq: Optional[Sequence[Sequence[float]]] = None,
    b_eq: Optional[Sequence[float]] = None,
    bounds: Optional[Sequence[Tuple[float, Optional[float]]]] = None,
) -> List[float]:
    """Minimize ``c @ x`` s.t. ``A_ub x <= b_ub``, ``A_eq x == b_eq``.

    ``bounds`` is one ``(lo, hi)`` pair per variable (``hi=None`` for
    unbounded above; ``lo`` must be finite); default ``(0, None)``.
    Returns the optimal ``x`` as a plain list of floats.

    Raises :class:`SimplexError` when the problem is infeasible or
    unbounded.
    """
    n = len(c)
    if bounds is None:
        bounds = [(0.0, None)] * n
    if len(bounds) != n:
        raise ValueError("bounds must match the number of variables")

    # --- presolve: pin fixed variables, shift lower bounds to zero ---
    fixed = {}
    keep: List[int] = []
    shift: List[float] = []
    for j, (lo, hi) in enumerate(bounds):
        if lo is None:
            raise ValueError("lower bounds must be finite")
        if hi is not None and hi < lo:
            raise SimplexError(f"variable {j} has empty bound ({lo}, {hi})")
        if hi is not None and hi == lo:
            fixed[j] = lo
        else:
            keep.append(j)
            shift.append(lo)
    column = {j: k for k, j in enumerate(keep)}
    nf = len(keep)

    def _reduce(matrix, rhs):
        """Project rows onto the kept columns, folding pins/shifts into b."""
        out_rows: List[List[float]] = []
        out_b: List[float] = []
        for row, b in zip(matrix or [], rhs or []):
            reduced = [0.0] * nf
            offset = 0.0
            for j, value in enumerate(row):
                if value == 0.0:
                    continue
                if j in fixed:
                    offset += value * fixed[j]
                else:
                    reduced[column[j]] = value
                    offset += value * shift[column[j]]
            out_rows.append(reduced)
            out_b.append(b - offset)
        return out_rows, out_b

    ub_rows, ub_b = _reduce(a_ub, b_ub)
    eq_rows, eq_b = _reduce(a_eq, b_eq)
    # Finite upper bounds on kept variables become plain <= rows.
    for j in keep:
        lo, hi = bounds[j]
        if hi is not None:
            row = [0.0] * nf
            row[column[j]] = 1.0
            ub_rows.append(row)
            ub_b.append(hi - lo)

    if nf == 0:
        for b in ub_b:
            if b < -_FEAS_TOL:
                raise SimplexError("problem is infeasible")
        for b in eq_b:
            if abs(b) > _FEAS_TOL:
                raise SimplexError("problem is infeasible")
        return [fixed[j] for j in range(n)]

    # --- standard form tableau: slacks on <= rows, artificials where
    # no identity column is available, all right-hand sides >= 0 ---
    n_ub = len(ub_rows)
    rows: List[List[float]] = []
    basis: List[int] = []
    artificial_rows: List[int] = []
    for i, (row, b) in enumerate(zip(ub_rows, ub_b)):
        sign = 1.0 if b >= 0.0 else -1.0
        tab = [value * sign for value in row]
        tab.extend(0.0 for _ in range(n_ub))
        tab[nf + i] = sign
        tab.append(b * sign)
        rows.append(tab)
        if sign > 0.0:
            basis.append(nf + i)
        else:
            artificial_rows.append(len(rows) - 1)
            basis.append(-1)  # placeholder, artificial assigned below
    for row, b in zip(eq_rows, eq_b):
        sign = 1.0 if b >= 0.0 else -1.0
        tab = [value * sign for value in row]
        tab.extend(0.0 for _ in range(n_ub))
        tab.append(b * sign)
        rows.append(tab)
        artificial_rows.append(len(rows) - 1)
        basis.append(-1)

    art_start = nf + n_ub
    n_art = len(artificial_rows)
    ncols = art_start + n_art
    for k, i in enumerate(artificial_rows):
        rhs = rows[i].pop()
        rows[i].extend(0.0 for _ in range(n_art))
        rows[i][art_start + k] = 1.0
        rows[i].append(rhs)
        basis[i] = art_start + k
    for i in range(len(rows)):
        if len(rows[i]) != ncols + 1:
            rhs = rows[i].pop()
            rows[i].extend(0.0 for _ in range(ncols + 1 - len(rows[i]) - 1))
            rows[i].append(rhs)

    # --- phase 1: drive the artificials to zero ---
    if n_art:
        obj = [0.0] * (ncols + 1)
        for k in range(n_art):
            obj[art_start + k] = 1.0
        for i in artificial_rows:
            row = rows[i]
            obj[:] = [a - b for a, b in zip(obj, row)]
        allowed = [True] * ncols
        _iterate(rows, obj, basis, allowed)
        if -obj[-1] > _FEAS_TOL:
            raise SimplexError("problem is infeasible")
        # Pivot leftover basic artificials (degenerate at zero) onto a
        # structural/slack column when one exists; a row with none is
        # redundant and its artificial stays harmlessly basic at zero.
        for i in range(len(rows)):
            if basis[i] >= art_start:
                for j in range(art_start):
                    if abs(rows[i][j]) > _PIVOT_TOL:
                        _pivot(rows, obj, basis, i, j)
                        break

    # --- phase 2: the real objective over structural + slack columns ---
    allowed = [j < art_start for j in range(ncols)]
    obj = [0.0] * (ncols + 1)
    for j in keep:
        obj[column[j]] = c[j]
    for i, b in enumerate(basis):
        cost = obj[b] if b < ncols else 0.0
        if cost != 0.0:
            row = rows[i]
            obj[:] = [a - cost * p for a, p in zip(obj, row)]
    _iterate(rows, obj, basis, allowed)

    # --- read the solution back out ---
    x_reduced = [0.0] * nf
    for i, b in enumerate(basis):
        if b < nf:
            x_reduced[b] = rows[i][-1]
    solution = [0.0] * n
    for j, value in fixed.items():
        solution[j] = value
    for k, j in enumerate(keep):
        solution[j] = x_reduced[k] + shift[k]
    return solution
