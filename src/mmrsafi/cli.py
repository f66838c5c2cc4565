"""Command-line front end.

Subcommands: denoise, mri, objective-trace, make-phantom.  All runs are
deterministic given the flags and the seed; traces go to CSV and images to
binary PGM.
"""

import argparse
import os
import sys

import numpy as np

from .core import Rng, psnr
from .fbs import NumericalError, SolverConfig
from .fileio import archive_read, pgm_read, pgm_write, write_trace_csv
from .forward import (IdentityOp, MaskedDftOp, add_noise, make_cartesian_mask,
                      read_mask_file, write_mask_file)
from .params import model_from_archive
from .phantom import make_phantom
from .prox import ConstraintSet
from .schemes import (MmrModel, default_safi_model, default_tv_model, run_cvx,
                      run_mmr, run_safi)


class CliError(Exception):
    pass


def _parse_real(text):
    """Plain floats plus fraction syntax like 25/255."""
    if "/" in text:
        num, den = (float(part) for part in text.split("/", 1))
        if den == 0.0:
            raise ValueError(f"zero denominator in {text!r}")
        return num / den
    return float(text)


_DEFAULT_MODELS = {"default-tv": default_tv_model,
                   "default-safi": default_safi_model}

_SCHEMES = {"cvx": run_cvx, "mmr": run_mmr, "safi": run_safi}


def _load_model(spec_text, scheme):
    if spec_text in _DEFAULT_MODELS:
        model = _DEFAULT_MODELS[spec_text]()
    else:
        if not os.path.isfile(spec_text):
            raise CliError(f"parameter archive not found: {spec_text}")
        model = model_from_archive(archive_read(spec_text))
    is_mmr = isinstance(model, MmrModel)
    if scheme == "safi" and is_mmr:
        raise CliError("scheme safi needs a SAFI parameter set")
    if scheme == "mmr" and not is_mmr:
        raise CliError("scheme mmr needs an MMR parameter set")
    return model


def _read_input(args):
    if not os.path.isfile(args.input):
        raise CliError(f"input image not found: {args.input}")
    return pgm_read(args.input)


def _reconstruct(args, scheme, H, y, reference=None):
    """Load the parameter set and run the scheme with the solver flags."""
    default = "default-safi" if scheme == "safi" else "default-tv"
    model = _load_model(args.params or default, scheme)
    cfg = SolverConfig(lam=args.lam, k_out=args.k_out, k_fbs=args.k_fbs,
                       k_prox=args.k_prox, eps_out=args.eps_out)
    if args.box is None:
        X = ConstraintSet.all_space()
    else:
        X = ConstraintSet.box(args.box[0], args.box[1])
    return _SCHEMES[scheme](model, H, y, cfg, X, reference=reference)


def _add_solver_flags(p):
    p.add_argument("--lambda", dest="lam", type=_parse_real,
                   default=SolverConfig.lam,
                   help="regularization strength override")
    p.add_argument("--k-out", type=int, default=SolverConfig.k_out)
    p.add_argument("--k-fbs", type=int, default=SolverConfig.k_fbs)
    p.add_argument("--k-prox", type=int, default=SolverConfig.k_prox)
    p.add_argument("--eps-out", type=float, default=SolverConfig.eps_out)
    p.add_argument("--box", type=float, nargs=2, metavar=("LO", "HI"),
                   default=None, help="box constraint bounds")
    p.add_argument("--seed", type=int, default=0)


def _cmd_denoise(args):
    clean = _read_input(args)
    y = add_noise(clean, _parse_real(args.sigma), Rng(args.seed))
    x, trace = _reconstruct(args, args.scheme, IdentityOp(), y,
                            reference=clean)
    pgm_write(args.output, x)
    if args.noisy_out:
        pgm_write(args.noisy_out, np.clip(y, 0.0, 1.0))
    if args.trace:
        write_trace_csv(args.trace, trace)
    print(f"psnr: {psnr(clean, x):.4f} dB over {len(trace.residuals)} steps")
    return 0


def _cmd_mri(args):
    clean = _read_input(args)
    height, width = clean.shape
    if args.mask is not None:
        if not os.path.isfile(args.mask):
            raise CliError(f"mask file not found: {args.mask}")
        mask = read_mask_file(args.mask)
        if mask.size != width:
            raise CliError("mask length does not match image width")
    else:
        mask = make_cartesian_mask(width, args.acc, args.center_fraction,
                                   Rng(args.seed + 1))
        if args.mask_out:
            write_mask_file(args.mask_out, mask)
    H = MaskedDftOp(mask, height, width)
    y = add_noise(H.forward(clean), _parse_real(args.sigma), Rng(args.seed))
    zero_fill = H.adjoint(y)
    if args.zero_fill_out:
        pgm_write(args.zero_fill_out, np.clip(zero_fill, 0.0, 1.0))
    x, trace = _reconstruct(args, args.scheme, H, y, reference=clean)
    pgm_write(args.output, np.clip(x, 0.0, 1.0))
    if args.trace:
        write_trace_csv(args.trace, trace)
    print(f"zero-fill psnr: {psnr(clean, zero_fill):.4f} dB")
    print(f"recon psnr:     {psnr(clean, x):.4f} dB "
          f"({len(trace.residuals)} steps)")
    return 0


def _cmd_objective_trace(args):
    clean = _read_input(args)
    y = add_noise(clean, _parse_real(args.sigma), Rng(args.seed))
    _, trace = _reconstruct(args, "mmr", IdentityOp(), y)
    for k, f_val in enumerate(trace.objectives, start=1):
        print(f"{k} {f_val!r}")
    return 0


def _cmd_make_phantom(args):
    pgm_write(args.output, make_phantom(), maxval=args.maxval)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mmrsafi",
        description="Reweighted l1-analysis image reconstruction (MMR/SAFI)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("denoise", help="denoise an image")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--scheme", choices=tuple(_SCHEMES), default="mmr")
    p.add_argument("--sigma", default="25/255")
    p.add_argument("--params", default=None,
                   help="default-tv, default-safi, or an archive path")
    p.add_argument("--trace", default=None, help="CSV trace output")
    p.add_argument("--noisy-out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_denoise)

    p = sub.add_parser("mri", help="masked-Fourier reconstruction")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--scheme", choices=tuple(_SCHEMES), default="mmr")
    p.add_argument("--sigma", default="2e-3")
    p.add_argument("--mask", default=None, help="column mask file (0/1 line)")
    p.add_argument("--acc", type=int, default=4, help="acceleration factor")
    p.add_argument("--center-fraction", type=float, default=0.08)
    p.add_argument("--mask-out", default=None)
    p.add_argument("--zero-fill-out", default=None)
    p.add_argument("--params", default=None)
    p.add_argument("--trace", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_mri)

    p = sub.add_parser("objective-trace",
                       help="print the objective sequence of an MMR run")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma", default="25/255")
    p.add_argument("--params", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_objective_trace)

    p = sub.add_parser("make-phantom", help="write the built-in test phantom")
    p.add_argument("--output", required=True)
    p.add_argument("--maxval", type=int, default=65535, choices=(255, 65535))
    p.set_defaults(func=_cmd_make_phantom)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
