"""Packing of scheme models into parameter archives and back.

Kernels are stored stage-major ("W.s0", "W.s1", ...) with out-channel-major,
row-major arrays of shape (c_out, c_in_per_group, ks, ks), alongside a
per-stage group-count array.  Constraints are re-applied on load, so archives
may carry unconstrained coefficients.
"""

import numpy as np

from .fileio import ArchiveError, ParamArchive
from .linops import ConvStage, FilterBank
from .schemes import MmrModel, SafiModel
from .splines import (ConcavePotential, HalfLineSpline, LinearSpline,
                      SigmoidSpline, project_nonincreasing)

_KIND_MMR = 0.0
_KIND_SAFI = 1.0


def _pack_bank(archive, prefix, bank):
    archive.add(f"{prefix}.groups",
                np.array([st.groups for st in bank.stages], dtype=np.float64))
    for i, st in enumerate(bank.stages):
        archive.add(f"{prefix}.s{i}", st.kernels)


def _unpack_bank(archive, prefix, constraint=None):
    name = f"{prefix}.groups"
    groups = archive.get(name)
    if np.any(groups < 1) or np.any(groups != np.floor(groups)):
        raise ArchiveError(f"{name!r} must hold integers >= 1, got "
                           f"{groups.tolist()}")
    stages = []
    for i, g in enumerate(groups):
        stages.append(ConvStage(archive.get(f"{prefix}.s{i}"), int(g)))
    return FilterBank(stages, constraint=constraint)


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
    """Rebuild an MmrModel or SafiModel; constraints are re-applied."""
    kind = archive.scalar("kind")
    lam = archive.scalar("lambda")
    if kind == _KIND_MMR:
        W = _unpack_bank(archive, "W", constraint="zero-mean")
        B = _unpack_bank(archive, "B", constraint="positive-normalized")
        delta = archive.scalar("sigma.delta")
        d = archive.get("sigma.d")
        r = archive.get("sigma.r")
        if d.ndim != 2:
            raise ArchiveError(f"'sigma.d' must be 2-D, has shape {d.shape}")
        if r.shape != d.shape[:1]:
            raise ArchiveError(f"'sigma.r' holds {r.size} values for the "
                               f"{d.shape[0]} rows of 'sigma.d'")
        potentials = [
            ConcavePotential(HalfLineSpline(delta, project_nonincreasing(d[c])),
                             r=float(r[c]))
            for c in range(d.shape[0])
        ]
        return MmrModel(W=W, B=B, potentials=potentials, lam=lam)
    if kind == _KIND_SAFI:
        W = _unpack_bank(archive, "W", constraint="zero-mean")
        Wt = _unpack_bank(archive, "Wt", constraint="zero-mean")
        Bt = _unpack_bank(archive, "Bt")
        Bh = _unpack_bank(archive, "Bh")
        delta = archive.scalar("phi.delta")
        phi1 = [LinearSpline(delta, row) for row in archive.get("phi1.d")]
        phi2 = [LinearSpline(delta, row) for row in archive.get("phi2.d")]
        phi3 = [SigmoidSpline(LinearSpline(delta, row))
                for row in archive.get("phi3.d")]
        return SafiModel(W=W, Wt=Wt, Bt=Bt, Bh=Bh,
                         phi1=phi1, phi2=phi2, phi3=phi3, lam=lam)
    raise ArchiveError(f"unknown model kind {kind}")
