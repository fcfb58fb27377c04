"""Right-hand sides of the coupled flow, assimilation and sensitivity systems.

All systems share one skeleton on the dealiased band: advective transport
B(a, b), viscous damping through the Stokes operator A, optional body forcing,
and optional nudging mu * P_sigma(I_h(target - current)) toward coarse
observations of a reference field.  The evolved combinations are

    u    d/dt u  = -nu1 A u  - B(u, u) + f                        (flow)
    v    d/dt v  = -nu  A v  - B(v, v) + f + nudge(u, v)          (assimilated)
    ut   d/dt ut = -nu1 A ut - B(ut, u) - B(u, ut) - A u          (sensitivity)
    vt   d/dt vt = -nu1 A vt - B(vt, v) - B(v, vt) - A v + nudge(ut, vt)
    d    d/dt d  = -nu2 A d  - B(d, u1) - B(u2, d) - A u1         (quotient)
    dp   d/dt dp = -nu2 A dp - B(dp, v1) - B(v2, dp) - A v1 + nudge(d, dp)

where sensitivities differentiate with respect to the viscosity and the
quotient fields are the exact evolution of (u1 - u2) / (nu1 - nu2) and its
assimilated counterpart.  Nudging differences are interpolated once
(I_h is linear), truncated to the dealiased band and Leray-projected, so every
right-hand side stays divergence-free, mean-free and band-limited.

One table, `_SYSTEMS`, is the single source of this wiring: per system, one
row per field giving its role (flow, assimilated or derivative), its
viscosity slot, a derivative's advective products and Stokes source, and a
nudged field's target.  `SystemSpec` derives everything else from the rows,
copies of the nu2 rows per `nu2s` entry included; a "nu1" copy is the sensitivity.
`SystemSpec.explicit_rhs` assembles every field's right-hand side in one
round on the band halves of the whole stack (`spectral.BandStack`): one
`bilinear` call forms all advective products of the table, one
`interpolate` call observes the differences of all nudged rows on the band
half (only the band half of I_h of a difference survives the truncation),
and one loop writes the rows in place into one array: forcing, products,
Stokes source, nudging.  The forcing is read only as its projected band half
(`forcing_band`): a constant one's is formed once per `PhysicsParams`, a
callable's value is cut to the band and projected there at every evaluation.
The same round measures every row's source |g|, the datum of the a-priori
bounds: |f|, or |f + mu P_sigma(I_h u_ref)| for a nudged assimilated row,
whose reference rides in the same `interpolate` call as the differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Union

import numpy as np

from .interpolants import InterpolantSpec, interpolate
from .spectral import (
    BandStack,
    GridSpec,
    SpectralField,
    _read_only,
    band_half,
    bilinear,
    leray_project,
    norms,
    project_coeffs,
    row_index,
    stokes_apply,
)

ForcingLike = Union[None, SpectralField, Callable[[float], SpectralField]]


@dataclass(frozen=True)
class PhysicsParams:
    """Viscosities, nudging gain, forcing provider and observation operator.

    nu1 is the viscosity of the reference flow, nu2 the second viscosity used
    by perturbed and assimilating systems.  Forcing may be None (unforced), a
    constant field, or a callable of time; constant fields are projected
    (band-limited, divergence-free, mean-free) on ingestion, a callable's
    value on its band half at every evaluation (`forcing_band`).
    """

    nu1: float
    nu2: float
    mu: float = 0.0
    forcing: ForcingLike = None
    interp: InterpolantSpec | None = None

    def __post_init__(self) -> None:
        if self.nu1 <= 0 or self.nu2 <= 0:
            raise ValueError(f"viscosities must be positive, got {self.nu1}, {self.nu2}")
        if self.mu < 0:
            raise ValueError(f"nudging gain must be nonnegative, got {self.mu}")
        if self.mu > 0 and self.interp is None:
            raise ValueError("nudging with mu > 0 requires an interpolant")
        if isinstance(self.forcing, SpectralField):
            projected = leray_project(self.forcing.band_limited())
            object.__setattr__(self, "forcing", projected)
        elif self.forcing is not None and not callable(self.forcing):
            raise ValueError(f"forcing must be None, a field or a callable, got {self.forcing!r}")

    @cached_property
    def _forcing_band(self) -> np.ndarray:
        """A constant forcing's band half, formed once per params (`forcing_band`)."""
        return _read_only(band_half(self.forcing.coeffs, self.forcing.grid.cutoff))

    @cached_property
    def _forcing_norm(self) -> float:
        """A constant forcing's |f|, the L2 norm of its band half, measured once per params."""
        return norms(BandStack(self.forcing.grid, self._forcing_band), l2_only=True)


def _replace_params(p: PhysicsParams, **changes) -> PhysicsParams:
    """Copy of p with changes, bypassing construction.

    The already-projected forcing object is reused bit-for-bit; re-projecting
    would perturb low-order bits and break exact reproducibility between
    runs that share it.
    """
    q = object.__new__(PhysicsParams)
    for name in ("nu1", "nu2", "mu", "forcing", "interp"):
        object.__setattr__(q, name, changes.get(name, getattr(p, name)))
    return q


def with_viscosity2(p: PhysicsParams, nu2: float) -> PhysicsParams:
    """Copy of p with nu2 replaced and the forcing object reused."""
    if nu2 <= 0:
        raise ValueError(f"viscosities must be positive, got {nu2}")
    return _replace_params(p, nu2=nu2)


def without_nudging(p: PhysicsParams) -> PhysicsParams:
    """Copy of p with zero gain and no interpolant, the forcing object reused."""
    return _replace_params(p, mu=0.0, interp=None)


def forcing_band(p: PhysicsParams, grid: GridSpec, t: float) -> np.ndarray | float:
    """The projected forcing's band half at time t on grid, the scalar 0.0 when unforced.

    The one reader of `PhysicsParams.forcing` after ingestion.  A constant
    forcing's band half is p's own, formed once; a callable's value is cut to
    its band half and projected there, the bits of the band half of
    `leray_project` of its band-limited field.
    """
    f = p.forcing
    if f is None:
        return 0.0
    field = f(t) if callable(f) else f
    if field.grid.n != grid.n:
        raise ValueError(f"forcing grid {field.grid.n} does not match state grid {grid.n}")
    if field is f:
        return p._forcing_band
    return project_coeffs(band_half(field.coeffs, grid.cutoff), *grid.band_projector)


def dq_field(a: SpectralField, b: SpectralField, nu_a: float, nu_b: float) -> SpectralField:
    """Difference quotient (a - b) / (nu_a - nu_b) of two fields in viscosity."""
    if nu_a == nu_b:
        raise ValueError(f"difference quotient needs distinct viscosities, got {nu_a} twice")
    return (a - b) / (nu_a - nu_b)


class SystemKind(str, Enum):
    NSE = "nse"
    DA = "da"
    NSE_SENS = "nse_sens"
    DA_SENS = "da_sens"
    DQ_DIRECT = "dq_direct"
    DA_DQ_DIRECT = "da_dq_direct"


@dataclass(frozen=True)
class FieldRow:
    """Wiring of one evolved field; see the module docstring for the equations.

    role is "flow", "assimilated" or "derivative".  nu is the row's
    viscosity: the name of a PhysicsParams slot ("nu1" or "nu2"), or a value
    (the rows of a `SystemSpec.nu2s` copy at a value).  Derivative rows list their
    advective products as ordered (a, b) pairs and the field whose Stokes
    term couples into them; flow and assimilated rows advect only themselves.
    nudge_to names the field a nudged row is pulled toward.
    """

    role: str
    nu: str | float = "nu1"
    products: tuple[tuple[str, str], ...] = ()
    source: str | None = None
    nudge_to: str | None = None


# The single source of field wiring.  Row order is intra-step evaluation
# order: reference flows first, then quotient and sensitivity fields, then
# assimilating copies.  Assimilated sensitivity runs keep v and vt at nu1,
# the viscosity the derivative is taken at.
_SYSTEMS: dict[SystemKind, dict[str, FieldRow]] = {
    SystemKind.NSE: {"u": FieldRow("flow")},
    SystemKind.DA: {
        "u": FieldRow("flow"),
        "v": FieldRow("assimilated", "nu2", nudge_to="u"),
    },
    SystemKind.NSE_SENS: {
        "u": FieldRow("flow"),
        "ut": FieldRow("derivative", products=(("ut", "u"), ("u", "ut")), source="u"),
    },
    SystemKind.DA_SENS: {
        "u": FieldRow("flow"),
        "ut": FieldRow("derivative", products=(("ut", "u"), ("u", "ut")), source="u"),
        "v": FieldRow("assimilated", nudge_to="u"),
        "vt": FieldRow(
            "derivative", products=(("vt", "v"), ("v", "vt")), source="v", nudge_to="ut"
        ),
    },
    SystemKind.DQ_DIRECT: {
        "u1": FieldRow("flow"),
        "u2": FieldRow("flow", "nu2"),
        "d": FieldRow("derivative", "nu2", products=(("u2", "d"), ("d", "u1")), source="u1"),
    },
    SystemKind.DA_DQ_DIRECT: {
        "u1": FieldRow("flow"),
        "u2": FieldRow("flow", "nu2"),
        "d": FieldRow("derivative", "nu2", products=(("u2", "d"), ("d", "u1")), source="u1"),
        "v1": FieldRow("assimilated", nudge_to="u1"),
        "v2": FieldRow("assimilated", "nu2", nudge_to="u2"),
        "dp": FieldRow(
            "derivative", "nu2", products=(("v2", "dp"), ("dp", "v1")), source="v1", nudge_to="d"
        ),
    },
}


class RoundWiring(NamedTuple):
    """A system's rows as indices into its stack, as one right-hand-side round reads them.

    pairs lists every advective product (a, b) in row order, a flow or
    assimilated row's self-product (a, a) included.  rows gives per row
    whether it starts from the forcing, how many of the products are its
    own, and its Stokes source row or None.  nudged and targets pair each
    nudged row with its target, as slices where evenly spaced (`row_index`);
    assimilated and references pair the nudged rows of role assimilated with
    theirs, the rows whose source |g| reads the reference.  advecting lists
    the rows whose speeds drive the CFL estimate, none when linear_only.
    """

    pairs: tuple[tuple[int, int], ...]
    rows: tuple[tuple[bool, int, int | None], ...]
    nudged: slice | list[int]
    targets: slice | list[int]
    assimilated: slice | list[int]
    references: slice | list[int]
    advecting: list[int]


@dataclass(frozen=True)
class SystemSpec:
    """Which coupled stack to integrate; its wiring is read from one table.

    nu2s (empty by default) batches the stack: the kind's nu1 rows once,
    then per entry j its nu2 rows as copies `name_j` at that viscosity, with
    references to nu2 rows renamed and to nu1 rows kept.  An entry "nu1"
    (the slot) reads the nu1 row of each nu2 flow's role, u1 for u2 and v1
    for v2, whose equation that flow obeys at nu1, and adds only derivative
    rows.  A copy's initial field defaults to its base row's (`base`), and a
    nu2 switch leaves it at its own viscosity.  Copy 0 at "nu1" is the
    sensitivity: d_0 is ut and dp_0 is vt bit for bit.

    Every per-field property derives from the rows: `fields` is row order,
    `zero_default_fields` (zero initial data unless supplied) are the
    derivative rows, `advecting_fields` are the others, `nudged_fields` maps
    nudged rows to their targets, `viscosity` reads the row's slot or value,
    and `wiring` holds the rows as stack indices, computed once.  The CFL
    estimate dt * n * max|u| runs over the advecting rows; each round of
    `explicit_rhs` reads their max|u| off the self-products it forms anyway.
    linear_only disables the advective products, a diagnostic mode that
    turns every equation into a forced Stokes flow, with no CFL estimate.
    """

    kind: SystemKind
    linear_only: bool = False
    nu2s: tuple[float | str, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.kind, SystemKind):
            object.__setattr__(self, "kind", SystemKind(self.kind))
        object.__setattr__(self, "nu2s", tuple(v if v == "nu1" else float(v) for v in self.nu2s))
        if any(nu != "nu1" and nu <= 0 for nu in self.nu2s):
            raise ValueError(f"viscosities must be positive, got {self.nu2s}")

    @cached_property
    def _table(self) -> dict[str, tuple[str, FieldRow]]:
        """Every field's `_SYSTEMS` row name and its own row, in row order."""
        table = _SYSTEMS[self.kind]
        out = {n: (n, row) for n, row in table.items() if not self.nu2s or row.nu == "nu1"}
        twin = {r.role: n for n, r in table.items() if r.nu == "nu1" and r.role != "derivative"}
        for j, nu in enumerate(self.nu2s):
            to = {n: twin.get(r.role, f"{n}_{j}") if nu == "nu1" else f"{n}_{j}"
                  for n, r in table.items() if r.nu == "nu2"}
            for n, copy in to.items():
                if copy not in out:  # else a nu1 row the copy reads as its own
                    row = table[n]
                    pairs = tuple((to.get(a, a), to.get(b, b)) for a, b in row.products)
                    out[copy] = (n, FieldRow(
                        row.role, nu, pairs, to.get(row.source, row.source),
                        to.get(row.nudge_to, row.nudge_to),
                    ))
        return out

    @cached_property
    def rows(self) -> Mapping[str, FieldRow]:
        return MappingProxyType({name: row for name, (_, row) in self._table.items()})

    def base(self, name: str) -> str:
        """The `_SYSTEMS` row that field name copies, name itself outside nu2s copies."""
        return self._table[name][0]

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(self.rows)

    @property
    def zero_default_fields(self) -> frozenset:
        return frozenset(n for n, r in self.rows.items() if r.role == "derivative")

    @property
    def advecting_fields(self) -> tuple[str, ...]:
        return tuple(n for n, r in self.rows.items() if r.role != "derivative")

    @property
    def nudged_fields(self) -> dict[str, str]:
        return {n: r.nudge_to for n, r in self.rows.items() if r.nudge_to is not None}

    def uses_nudging(self, p: PhysicsParams) -> bool:
        return bool(self.nudged_fields) and p.mu > 0

    def _row(self, name: str) -> FieldRow:
        row = self.rows.get(name)
        if row is None:
            raise ValueError(f"system {self.kind.value} has no field {name!r}")
        return row

    def viscosity(self, name: str, p: PhysicsParams) -> float:
        nu = self._row(name).nu
        return getattr(p, nu) if isinstance(nu, str) else nu

    @cached_property
    def wiring(self) -> RoundWiring:
        """The rows as stack indices, computed once per `SystemSpec`."""
        at = {name: i for i, name in enumerate(self.fields)}
        pairs_of = [row.products or ((name, name),) for name, row in self.rows.items()]
        assimilated = [n for n in self.nudged_fields if self.rows[n].role == "assimilated"]
        return RoundWiring(
            pairs=tuple((at[a], at[b]) for row_pairs in pairs_of for a, b in row_pairs),
            rows=tuple(
                (row.role != "derivative", len(row_pairs),
                 None if row.source is None else at[row.source])
                for row, row_pairs in zip(self.rows.values(), pairs_of)
            ),
            nudged=row_index(at[name] for name in self.nudged_fields),
            targets=row_index(at[target] for target in self.nudged_fields.values()),
            assimilated=row_index(at[name] for name in assimilated),
            references=row_index(at[self.rows[name].nudge_to] for name in assimilated),
            advecting=[] if self.linear_only else [at[n] for n in self.advecting_fields],
        )

    def explicit_rhs(
        self, state: BandStack, p: PhysicsParams, t: float
    ) -> tuple[np.ndarray, float, np.ndarray]:
        """Every field's right-hand side but its own -nu A term, the peak speed, and |g| per row.

        state holds the band halves of `fields`, in order; the right-hand
        sides come back as band halves in row order, written in place into
        one fresh array.  One `bilinear` call forms every advective product
        of the table (none when linear_only).  Each row starts from the
        forcing, or for a derivative row from its negated first product, and
        subtracts the remaining products in row order and the Stokes source;
        the nudging terms are then added, and each row's source |g| measured
        (`_observe`).  The peak speed is max|u| over the advecting rows on the
        product grid (see `bilinear`), 0.0 when linear_only.
        """
        g, c = state.grid, state.coeffs
        wiring = self.wiring
        if self.linear_only:
            products = np.zeros((len(wiring.pairs),) + c.shape[1:], dtype=np.complex128)
            speed = 0.0
        else:
            advected = bilinear(state, wiring.pairs)
            products = advected.coeffs
            speed = math.sqrt(max(advected.peak_sq_speed[i] for i in wiring.advecting))
        lam = g.band_stokes
        f = forcing_band(p, g, t)
        terms = iter(products)
        out = np.empty(c.shape, dtype=np.complex128)
        for row, (forced, n_terms, source) in zip(out, wiring.rows):
            if forced:
                np.subtract(f, next(terms), out=row)
            else:
                np.negative(next(terms), out=row)
            for _ in range(n_terms - 1):
                row -= next(terms)
            if source is not None:
                row -= c[source] * lam
        return out, speed, self._observe(state, p, f, out)

    def _observe(self, state: BandStack, p: PhysicsParams, f, out: np.ndarray) -> np.ndarray:
        """Every row's source |g| at forcing f; the nudging terms are added into out.

        g is f, but f + mu P_sigma(I_h u_ref) for an assimilated row nudged
        toward u_ref when mu > 0.  One `interpolate` call observes, on the
        band half, the nudged rows' differences c[targets] - c[nudged] and
        the references of the assimilated rows, and one projection scales
        them all by mu: the nudging terms, and the observed references to
        which f is added.  A constant forcing's |f| is measured once per
        params, a callable's at each call.
        """
        g, c, wiring = state.grid, state.coeffs, self.wiring
        f_l2 = (0.0 if p.forcing is None else norms(BandStack(g, f), l2_only=True)
                if callable(p.forcing) else p._forcing_norm)
        source_l2 = np.full(len(c), f_l2)
        if p.mu > 0 and wiring.nudged:
            diffs = c[wiring.targets] - c[wiring.nudged]
            seen = interpolate(BandStack(g, np.concatenate((diffs, c[wiring.references]))),
                               p.interp).coeffs
            seen = p.mu * project_coeffs(seen, *g.band_projector)
            out[wiring.nudged] += seen[: len(diffs)]
            sources = seen[len(diffs):]
            sources += f
            source_l2[wiring.assimilated] = norms(BandStack(g, sources), l2_only=True)
        return source_l2

    def rhs(
        self, name: str, state: Mapping[str, SpectralField], p: PhysicsParams, t: float = 0.0
    ) -> SpectralField:
        """Full tendency of one field: its row of explicit_rhs minus its own nu A term.

        Fields of the system missing from state count as zero.
        """
        nu = self.viscosity(name, p)
        field = state[name]
        zero = SpectralField.zero(field.grid)
        stack = BandStack.of([state.get(n, zero) for n in self.fields])
        rows = BandStack(field.grid, self.explicit_rhs(stack, p, t)[0]).fields()
        return rows[self.fields.index(name)] - nu * stokes_apply(field)
