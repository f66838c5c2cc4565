"""Packing of scheme models into parameter archives and back.

Kernels are stored stage-major ("W.s0", "W.s1", ...) with out-channel-major,
row-major arrays of shape (c_out, c_in_per_group, ks, ks), alongside a
per-stage group-count array.  On load, the W and Wt kernels are projected to
zero mean and the B kernels to nonnegative unit sums, so archives may carry
unconstrained coefficients; Bt and Bh load as stored.
"""

import math

import numpy as np

from .fileio import ArchiveError, ParamArchive
from .linops import (ConvStage, FilterBank, project_positive_normalized,
                     project_zero_mean)
from .schemes import MmrModel, SafiModel
from .splines import (ConcavePotential, HalfLineSpline, LinearSpline,
                      SigmoidSpline, project_nonincreasing)

_KIND_MMR = 0.0
_KIND_SAFI = 1.0

# A bank is refused when a bound B >= ||W||_2 squares past the float range:
# the dual prox steps by 1/B^2 on the analysis bank, and a bank that large
# maps unit images to values whose squares overflow.
_MAX_LOG_NORM_BOUND = 0.5 * math.log(np.finfo(np.float64).max)


def _pack_bank(archive, prefix, bank):
    archive.add(f"{prefix}.groups",
                np.array([st.groups for st in bank.stages], dtype=np.float64))
    for i, st in enumerate(bank.stages):
        archive.add(f"{prefix}.s{i}", st.kernels)


def _unpack_bank(archive, prefix, project=np.asarray):
    name = f"{prefix}.groups"
    groups = archive.get(name)
    if groups.ndim != 1 or groups.size == 0:
        raise ArchiveError(f"{name!r} must be a non-empty 1-D array, has "
                           f"shape {groups.shape}")
    if np.any(groups < 1) or np.any(groups != np.floor(groups)):
        raise ArchiveError(f"{name!r} must hold integers >= 1, got "
                           f"{groups.tolist()}")
    extra = f"{prefix}.s{groups.size}"
    if extra in archive.names():
        raise ArchiveError(f"{extra!r} has no entry in {name!r}")
    # Shapes are checked before the taps are projected.
    stages = [ConvStage(archive.get(f"{prefix}.s{i}"), int(g))
              for i, g in enumerate(groups)]
    bank = FilterBank([ConvStage(project(st.kernels), st.groups)
                       for st in stages])
    log_bound = _log_norm_bound(bank)
    if log_bound > _MAX_LOG_NORM_BOUND:
        raise ArchiveError(
            f"taps of {prefix!r} are too large: its norm bound, about "
            f"1e{log_bound / math.log(10.0):.0f}, squares past the float "
            f"range")
    return bank


def _log_norm_bound(bank):
    """log of an upper bound on ||W||_2, formed without overflow.

    A stage whose largest tap magnitude is m has row sums of |taps| at most
    ks^2 * c_in_pg * m and column sums at most ks^2 * (c_out / groups) * m,
    and its norm is at most the root of their product; the bank's norm is
    at most the product of its stages' norms.  -inf for a zero bank.
    """
    total = 0.0
    for st in bank.stages:
        largest = float(np.max(np.abs(st.kernels)))
        if largest == 0.0:
            return -math.inf
        c_out, c_in_pg, ks, _ = st.kernels.shape
        total += (math.log(largest) + 2.0 * math.log(ks)
                  + 0.5 * math.log(c_in_pg * c_out / st.groups))
    return total


def _positive_scalar(archive, name):
    value = archive.scalar(name)
    if not 0.0 < value < math.inf:
        raise ArchiveError(f"{name!r} must be finite and positive, got "
                           f"{value}")
    return value


def mmr_to_archive(model):
    archive = ParamArchive()
    archive.add("kind", np.array(_KIND_MMR))
    archive.add("lambda", np.array(model.lam))
    _pack_bank(archive, "W", model.W)
    _pack_bank(archive, "B", model.B)
    archive.add("sigma.delta", np.array(model.potentials[0].sigma.delta))
    archive.add("sigma.d",
                np.stack([p.sigma.values for p in model.potentials]))
    archive.add("sigma.r", np.array([p.r for p in model.potentials]))
    return archive


def safi_to_archive(model):
    archive = ParamArchive()
    archive.add("kind", np.array(_KIND_SAFI))
    archive.add("lambda", np.array(model.lam))
    for prefix, bank in (("W", model.W), ("Wt", model.Wt),
                         ("Bt", model.Bt), ("Bh", model.Bh)):
        _pack_bank(archive, prefix, bank)
    archive.add("phi.delta", np.array(model.phi1[0].delta))
    archive.add("phi1.d", np.stack([p.values for p in model.phi1]))
    archive.add("phi2.d", np.stack([p.values for p in model.phi2]))
    archive.add("phi3.d", np.stack([p.base.values for p in model.phi3]))
    return archive


def model_from_archive(archive):
    """Rebuild an MmrModel or SafiModel, projecting the W, Wt and B kernels
    and the potentials' sigma splines."""
    kind = archive.scalar("kind")
    lam = archive.scalar("lambda")
    if not 0.0 <= lam < math.inf:
        raise ArchiveError(f"'lambda' must be finite and nonnegative, got "
                           f"{lam}")
    if kind == _KIND_MMR:
        W = _unpack_bank(archive, "W", project_zero_mean)
        B = _unpack_bank(archive, "B", project_positive_normalized)
        delta = _positive_scalar(archive, "sigma.delta")
        d = archive.get("sigma.d")
        r = archive.get("sigma.r")
        if d.ndim != 2:
            raise ArchiveError(f"'sigma.d' must be 2-D, has shape {d.shape}")
        if r.shape != d.shape[:1]:
            raise ArchiveError(f"'sigma.r' holds {r.size} values for the "
                               f"{d.shape[0]} rows of 'sigma.d'")
        if not np.all((r > 0.0) & (r < math.inf)):
            raise ArchiveError(f"'sigma.r' must hold finite positive values, "
                               f"got {r.tolist()}")
        potentials = []
        for c in range(d.shape[0]):
            # Differences and sums of coefficients near the float limit
            # overflow; such a row is refused.
            with np.errstate(over="ignore"):
                sigma = project_nonincreasing(d[c])
            if not np.all(np.isfinite(sigma)):
                raise ArchiveError(f"row {c} of 'sigma.d' overflows when "
                                   f"projected to be non-increasing")
            potentials.append(ConcavePotential(HalfLineSpline(delta, sigma),
                                               r=float(r[c])))
        return MmrModel(W=W, B=B, potentials=potentials, lam=lam)
    if kind == _KIND_SAFI:
        W = _unpack_bank(archive, "W", project_zero_mean)
        Wt = _unpack_bank(archive, "Wt", project_zero_mean)
        Bt = _unpack_bank(archive, "Bt")
        Bh = _unpack_bank(archive, "Bh")
        delta = _positive_scalar(archive, "phi.delta")
        phi1 = [LinearSpline(delta, row) for row in archive.get("phi1.d")]
        phi2 = [LinearSpline(delta, row) for row in archive.get("phi2.d")]
        phi3 = [SigmoidSpline(LinearSpline(delta, row))
                for row in archive.get("phi3.d")]
        return SafiModel(W=W, Wt=Wt, Bt=Bt, Bh=Bh,
                         phi1=phi1, phi2=phi2, phi3=phi3, lam=lam)
    raise ArchiveError(f"unknown model kind {kind}")
