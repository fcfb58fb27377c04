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
nudged field's target.  `SystemSpec` derives everything else from the rows
and assembles every right-hand side with one generic loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Callable, Mapping, Union

from .interpolants import InterpolantSpec, interpolate
from .spectral import GridSpec, SpectralField, bilinear, leray_project, stokes_apply

ForcingLike = Union[None, SpectralField, Callable[[float], SpectralField]]


@dataclass(frozen=True)
class PhysicsParams:
    """Viscosities, nudging gain, forcing provider and observation operator.

    nu1 is the viscosity of the reference flow, nu2 the second viscosity used
    by perturbed and assimilating systems.  Forcing may be None (unforced), a
    constant field, or a callable of time; constant fields are projected
    (band-limited, divergence-free, mean-free) on ingestion, callables on
    every evaluation.
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


def with_viscosity2(p: PhysicsParams, nu2: float) -> PhysicsParams:
    """Copy of p with nu2 replaced.

    Bypasses construction so the already-projected forcing object is reused
    bit-for-bit; re-projecting would perturb low-order bits and break exact
    reproducibility between switched and unswitched runs.
    """
    if nu2 <= 0:
        raise ValueError(f"viscosities must be positive, got {nu2}")
    q = object.__new__(PhysicsParams)
    for name in ("nu1", "nu2", "mu", "forcing", "interp"):
        object.__setattr__(q, name, getattr(p, name))
    object.__setattr__(q, "nu2", nu2)
    return q


def forcing_at(p: PhysicsParams, grid: GridSpec, t: float) -> SpectralField:
    """Projected forcing field at time t on the given grid."""
    f = p.forcing
    if f is None:
        return SpectralField.zero(grid)
    if isinstance(f, SpectralField):
        field = f
    else:
        field = leray_project(f(t).band_limited())
    if field.grid.n != grid.n:
        raise ValueError(f"forcing grid {field.grid.n} does not match state grid {grid.n}")
    return field


def _nudge(p: PhysicsParams, target: SpectralField, current: SpectralField) -> SpectralField:
    """mu * P_sigma(I_h(target - current)), truncated to the dealiased band.

    The difference is interpolated once; with a linear interpolant this equals
    I_h(target) - I_h(current) and vanishes exactly when the fields coincide.
    """
    assert p.interp is not None
    diff = interpolate(target - current, p.interp)
    return p.mu * leray_project(diff.band_limited())


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

    role is "flow", "assimilated" or "derivative".  nu names the viscosity
    slot of PhysicsParams ("nu1" or "nu2").  Derivative rows list their
    advective products as ordered (a, b) pairs and the field whose Stokes
    term couples into them; flow and assimilated rows advect only themselves.
    nudge_to names the field a nudged row is pulled toward.
    """

    role: str
    nu: str = "nu1"
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


@dataclass(frozen=True)
class SystemSpec:
    """Which coupled stack to integrate; its wiring is read from one table.

    Every per-field property derives from the system's rows: `fields` is row
    order, `zero_default_fields` (zero initial data unless supplied) are the
    derivative rows, `advecting_fields` (whose speeds drive the CFL estimate)
    are the others, `nudged_fields` maps nudged rows to their targets, and
    `viscosity` reads the row's slot.  linear_only disables the advective
    products, a diagnostic mode that turns every equation into a forced
    Stokes flow.
    """

    kind: SystemKind
    linear_only: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.kind, SystemKind):
            object.__setattr__(self, "kind", SystemKind(self.kind))

    @property
    def rows(self) -> Mapping[str, FieldRow]:
        return MappingProxyType(_SYSTEMS[self.kind])

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(_SYSTEMS[self.kind])

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
        row = _SYSTEMS[self.kind].get(name)
        if row is None:
            raise ValueError(f"system {self.kind.value} has no field {name!r}")
        return row

    def viscosity(self, name: str, p: PhysicsParams) -> float:
        return getattr(p, self._row(name).nu)

    def explicit_rhs(
        self, name: str, state: Mapping[str, SpectralField], p: PhysicsParams, t: float
    ) -> SpectralField:
        """Everything in the field's right-hand side except its own -nu A term.

        Starts from the forcing, or for a derivative row from its negated
        first product; subtracts the remaining advective products in row
        order and the Stokes source; adds nudging toward the target when
        mu > 0.
        """
        row = self._row(name)
        lin = self.linear_only
        if row.role == "derivative":
            (a, b), *rest = row.products
            out = -_advect(state[a], state[b], lin)
        else:
            out = forcing_at(p, state[name].grid, t)
            rest = [(name, name)]
        for a, b in rest:
            out = out - _advect(state[a], state[b], lin)
        if row.source is not None:
            out = out - stokes_apply(state[row.source])
        if row.nudge_to is not None and p.mu > 0:
            out = out + _nudge(p, state[row.nudge_to], state[name])
        return out

    def rhs(
        self, name: str, state: Mapping[str, SpectralField], p: PhysicsParams, t: float = 0.0
    ) -> SpectralField:
        """Full tendency of one field: explicit_rhs minus its own nu A term."""
        nu = self.viscosity(name, p)
        return self.explicit_rhs(name, state, p, t) - nu * stokes_apply(state[name])


def _advect(a: SpectralField, b: SpectralField, linear_only: bool) -> SpectralField:
    return SpectralField.zero(a.grid) if linear_only else bilinear(a, b)
