"""Command-line interface: classify, spinrep, genus, cech, index, selftest.

All subcommands emit either a human-readable report or JSON with a
versioned schema field; randomized checks take an explicit ``--seed`` so
identical invocations produce identical bytes.  Exit status 0 means every
check passed its contract, 1 means a check failed, and 2 means a usage,
file or input error (argparse reports its own usage errors with status 2).

Each subcommand imports the layer it runs when it runs, so start-up costs
only what that subcommand uses: ``import spingeo`` loads no layer,
``classify``, ``cech`` and ``index`` skip ``spingeo.clifford``, only
``spinrep`` and ``selftest`` load numpy, and none loads sympy or dataclasses.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__

SCHEMA = "spingeo-report/1"


def _error(message: str) -> int:
    """Report bad input on stderr; the exit status for it is 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit(payload: dict, fmt: str, human_lines) -> None:
    if fmt == "json":
        import json

        payload = {"schema": SCHEMA, "version": __version__, **payload}
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        for line in human_lines:
            print(line)


def _load_json(path: str):
    """The JSON document in the file at ``path`` (``json`` loads only for files and JSON output)."""
    import json

    with open(path) as fh:
        return json.load(fh)


def _cmd_classify(args) -> int:
    from . import classification

    if args.complex is not None and (args.p, args.q) != (None, None):
        return _error("classify: --complex N takes no signature P Q")
    p, q = args.p or 0, args.q or 0
    fields = {"p": p, "q": q} if args.complex is None else {"complex_n": args.complex}
    if args.even:
        fields["even"] = True
    try:
        if args.complex is not None:
            n = args.complex
            t = (classification.even_subalgebra_complex if args.even else classification.classify_complex)(n)
            name = f"Cl^{{c,0}}_{n}" if args.even else f"Cl^c_{n}"
        else:
            t = (classification.even_subalgebra_type if args.even else classification.classify_real)(p, q)
            name = f"Cl^0({p},{q})" if args.even else f"Cl({p},{q})"
    except ValueError as exc:
        return _error(f"classify: {exc}")
    _emit({"command": "classify", **fields, "result": t.to_dict()}, args.format, [f"{name} = {t}"])
    return 0


def _cmd_spinrep(args) -> int:
    from . import spinrep

    results = {}
    ok = True
    try:
        space = None if args.check == "berezin" else spinrep.SpinorSpace(args.n)
        if args.check in ("berezin", "all"):  # first: it rejects --trials and n before any eigendecomposition
            berezin = spinrep.berezin_residual(args.n, args.trials, args.seed)
        if args.check in ("relations", "all"):
            results["relations_residual"] = spinrep.relations_residual(space)
            ok &= results["relations_residual"] <= spinrep.RELATIONS_TOL
        if args.check in ("chirality", "all"):
            residual, dims = spinrep.chirality_residual(space)
            results.update(chirality_residual=residual, half_spinor_dims=list(dims))
            ok &= residual <= spinrep.CHIRALITY_TOL
        if args.check in ("berezin", "all"):
            results.update(berezin_residual=berezin, berezin_trials=args.trials)
            ok &= berezin <= spinrep.BEREZIN_TOL
    except ValueError as exc:
        return _error(f"spinrep {args.n}: {exc}")
    payload = {
        "command": "spinrep",
        "n": args.n,
        "check": args.check,
        "seed": args.seed,
        "tolerances": {
            "relations": spinrep.RELATIONS_TOL,
            "chirality": spinrep.CHIRALITY_TOL,
            "berezin": spinrep.BEREZIN_TOL,
        },
        "results": results,
        "passed": ok,
    }
    lines = [f"spinrep n={args.n} check={args.check}: {'PASS' if ok else 'FAIL'}"] + [
        f"  {k} = {v}" for k, v in results.items()
    ]
    _emit(payload, args.format, lines)
    return 0 if ok else 1


def _load_model(args):
    """The curvature model (a ``chern_weil.CurvatureModel``) named by the arguments."""
    from . import chern_weil

    if args.model_file:
        return chern_weil.model_from_dict(_load_json(args.model_file))
    if args.model == "product":
        sphere = chern_weil.curvature_model("sphere2", _radius(args))
        return chern_weil.product_model(sphere, sphere)
    return chern_weil.curvature_model(args.model, _radius(args))


def _radius(args) -> str:
    """The built-in model's radius: ``--radius``, 1 by default."""
    return "1" if args.radius is None else args.radius


def _cmd_genus(args) -> int:
    from . import chern_weil

    if args.model_file and args.radius is not None:
        return _error("--radius does not apply to --model-file: a model file has no radius")
    try:
        model = _load_model(args)
    except (OSError, ValueError) as exc:
        return _error(f"cannot load curvature model: {exc}")
    try:
        value = chern_weil.genus_eval(args.name, model.F)
        total = chern_weil.integrate_top(value, model)
    except ValueError as exc:
        return _error(f"genus {args.name} on {model.name}: {exc}")
    payload = {
        "command": "genus",
        "genus": args.name,
        "model": model.name,
        "top_coefficient": str(value.top_coefficient()),
        "integral": str(total),
    }
    if not args.model_file:
        payload["radius"] = _radius(args)
    _emit(payload, args.format, [f"{args.name} on {model.name}: integral = {total}"])
    return 0


def _cmd_cech(args) -> int:
    from . import cech

    if args.nerve in cech.BUILTIN_NERVES:
        nerve = cech.BUILTIN_NERVES[args.nerve]()
    else:
        try:
            nerve = cech.nerve_from_dict(_load_json(args.nerve))
        except (OSError, TypeError, ValueError) as exc:
            return _error(f"cannot load nerve: {exc}")
    dims = {f"H{k}": dim for k, dim in enumerate(cech.cohomology_dims(nerve, 2))}
    payload = {
        "command": "cech",
        "nerve": args.nerve,
        "patches": nerve.patches,
        "cohomology_dims": dims,
    }
    lines = [f"nerve {args.nerve}: patches={nerve.patches}"] + [
        f"  dim H^{k} = {dims[f'H{k}']}" for k in range(3)
    ]
    ok = True
    if args.w2:
        report = cech.w2_and_spin_structures(cech.Cochain(nerve, 1))
        payload["w2_trivial"] = report.w2_trivial
        payload["spin_structures"] = report.count
        payload["torsor_verified"] = report.torsor_verified
        lines.append(
            f"  w2 trivial: {report.w2_trivial}; spin structures: {report.count};"
            f" torsor verified: {report.torsor_verified}"
        )
        ok = report.torsor_verified
    _emit(payload, args.format, lines)
    return 0 if ok else 1


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


# Each model-specific index option: dest -> (flag, default, the models that read it).
_INDEX_OPTIONS = {
    "lam": ("--lambda", 0.5, ("dlambda",)),
    "delta": ("--delta", "0,0", ("torus_dirac",)),
    "lmax": ("--lmax", 40, ("sphere2", "torus2")),
    "cutoff": ("--cutoff", 12, ("dlambda", "torus_dirac")),
}


def _cmd_index(args) -> int:
    from . import index_lab

    if args.model not in ("dlambda", "sphere2", "torus2", "torus_dirac"):
        return _error(f"unknown index model {args.model!r}")
    for dest, (flag, default, models) in _INDEX_OPTIONS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.model not in models:
            return _error(f"{flag} applies to --model {' and '.join(models)} only, not {args.model}")
    payload: dict = {"command": "index", "model": args.model}
    tail, summary = None, []
    try:
        ts = payload["t"] = index_lab._check_t_grid(_parse_floats(args.t))
        if args.model == "sphere2":
            model, index = index_lab.sphere2_hodge_model(args.lmax), 2
            tail = lambda t: index_lab.sphere2_tail_bound(t, args.lmax)
            for t in ts:  # a bound of 1/2 or more cannot tell the index from its neighbours
                if tail(t) >= 0.5:
                    raise ValueError(f"tail bound {tail(t):.3g} at t={t}, lmax={args.lmax} is not below 0.5")
        elif args.model == "torus2":
            model, index = index_lab.torus2_hodge_model(args.lmax), 0
            tail = lambda t: index_lab.SUPERTRACE_TOL
        elif args.model == "torus_dirac":
            delta = tuple(_parse_floats(args.delta))
            model, index = index_lab.torus_dirac_model(delta, args.cutoff), 0
            line = lambda t, v: f"torus Dirac δ={delta} t={t}: str = {v!r}"
            payload.update(delta=list(delta), cutoff=args.cutoff, kernel_dim=model.kernel_dim())
            summary = [f"kernel dimension: {model.kernel_dim()}"]
        elif args.model == "dlambda":
            model, index = index_lab.dlambda_model(args.lam, args.cutoff), 0
            kernel, cokernel = model.zero_modes(+1), model.zero_modes(-1)
            line = lambda t, v: f"D_λ λ={args.lam} t={t}: str = {v!r}"
            payload.update({"kernel_dim": kernel, "cokernel_dim": cokernel, "index": kernel - cokernel,
                            "cutoff": args.cutoff, "lambda": args.lam})
            summary = [f"D_λ (λ={args.lam}, cutoff={args.cutoff}): kernel {kernel}, cokernel {cokernel},"
                       f" index {kernel - cokernel}"]
        check = index_lab.mckean_singer_check(model, ts, index, tail)
    except ValueError as exc:
        return _error(f"index --model {args.model}: {exc}")
    # ind D = dim ker D⁺ - dim ker D⁻, and by McKean-Singer str e^{-tD²} equals it at every t
    ok = check["passed"] and model.zero_modes(+1) - model.zero_modes(-1) == index
    rows = [{"t": t, "supertrace": v} for t, v in zip(ts, check["values"])]
    if tail:  # the Hodge models report their tail bounds, lmax and the index the grid reads
        line = lambda t, v: f"{args.model} t={t} lmax={args.lmax}: str = {v!r} (tail ≤ {tail(t):.2e})"
        for r in rows:
            r["tail_bound"] = tail(r["t"])
        payload.update(lmax=args.lmax, inferred_index=check["inferred_index"])
    payload["rows"] = rows
    if args.format == "csv":
        print("t,supertrace")
        for r in rows:
            print(f"{r['t']},{r['supertrace']!r}")
        return 0 if ok else 1
    payload["passed"] = bool(ok)
    lines = [line(r["t"], r["supertrace"]) for r in rows] + summary
    _emit(payload, args.format, lines + [f"result: {'PASS' if ok else 'FAIL'}"])
    return 0 if ok else 1


def _cmd_selftest(args) -> int:
    from . import acceptance

    results = acceptance.run_all(seed=args.seed)
    payload = {
        "command": "selftest",
        "seed": args.seed,
        "results": [
            {"criterion": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    lines = [
        f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}" for r in results
    ] + [f"selftest: {'PASS' if payload['passed'] else 'FAIL'} (seed {args.seed})"]
    _emit(payload, args.format, lines)
    return 0 if payload["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spingeo", description=__doc__)
    parser.add_argument("--version", action="version", version=f"spingeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="isomorphism type of Cl(p,q) or Cl^c_n")
    p.add_argument("p", type=int, nargs="?", help="default 0; not with --complex")
    p.add_argument("q", type=int, nargs="?", help="default 0; not with --complex")
    p.add_argument("--complex", type=int, default=None, metavar="N", help="classify Cl^c_N instead of Cl(p,q)")
    p.add_argument("--even", action="store_true", help="classify the even subalgebra (also with --complex)")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("spinrep", help="spinor representation checks")
    p.add_argument("n", type=int)
    p.add_argument("--check", choices=("relations", "chirality", "berezin", "all"), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=_cmd_spinrep)

    p = sub.add_parser("genus", help="evaluate a genus on a curvature model")
    p.add_argument("--name", default="euler",
                   choices=("euler", "ahat", "lgenus", "pontryagin", "chern", "todd", "chern_char"))
    p.add_argument("--model", default="sphere2", help="sphere2|torus2|sphere4|product")
    p.add_argument("--model-file", default=None, help="JSON curvature model file")
    p.add_argument("--radius", default=None, help="radius of a built-in model (rational ok; default 1)")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("cech", help="Čech cohomology and spin structures")
    p.add_argument("--nerve", default="circle", help="circle|sphere|torus or a JSON file")
    p.add_argument("--w2", action="store_true", help="enumerate spin structures")
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=_cmd_cech)

    p = sub.add_parser("index", help="spectral index-lab runs")
    p.add_argument("--model", default="sphere2", help="dlambda|sphere2|torus2|torus_dirac")
    p.add_argument("--lambda", dest="lam", type=float, help="λ of D_λ for dlambda only (default 0.5)")
    p.add_argument("--delta", help="spin structure offsets for torus_dirac only (default 0,0)")
    p.add_argument("--t", default="0.1,0.5,1,2", help="comma-separated times")
    p.add_argument("--lmax", type=int, help="spectral cutoff for sphere2 and torus2 only (default 40)")
    p.add_argument("--cutoff", type=int, help="Fourier cutoff for dlambda and torus_dirac only (default 12)")
    p.add_argument("--format", choices=("human", "json", "csv"), default="human")
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("selftest", help="run the full acceptance battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
