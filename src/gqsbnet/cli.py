"""Command line surface.

Subcommands cover the pipeline stages one by one (classify, bipartitions,
spectrum, certify, simulate, predict), the full report, and a coefficient
sweep that runs in process on one loaded network and one partner
core.  Each subcommand takes only the flags it reads, and every
one loads its network through one scenario, for node 0's group when no
``--dominant`` is given.  Exit codes: 0 on success, 2 when a certificate
(``certify``, ``report``) lands on a verdict that does not let the flow
run (``Verdict.flows``: Inconclusive or Divergence) or a simulated
outcome (``simulate``) on Divergence or Undetermined, 1 on any error.  A
failing command writes nothing.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from .errors import GqsbError
from .fileio import (
    DEFAULT_HIGHLAND_WEIGHTS,
    DETAILS,
    HIGHLAND_SENTINEL,
    ScenarioConfig,
    certificate_dict,
    classification_dict,
    enumerate_dict,
    outcome_dict,
    render_json,
    report_to_json,
    run_pipeline,
    run_sweep,
    start_state,
    trajectory_to_csv,
    _resolve_network,
)
from .signed_graph import bipartition_from_dominant

# A handler imports dynamics, operators and spectral itself, so classify
# and bipartitions load none of them, spectrum no spectral and certify no
# dynamics.


def _stride(text: str) -> int:
    try:
        stride = int(text)
    except ValueError:
        stride = 0
    if stride < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return stride


_NODES = "dominant group as 'i,j,...' node list"
# Every flag beyond --network, --weights and --out; "dominant?" is
# spectrum's, which reads no coefficient: its scaled spectrum is the
# partner's, the same at every one.
_FLAGS = {
    "dominant": dict(required=True, help=_NODES),
    "dominant?": dict(default=None, help=_NODES + "; adds the scaled spectrum"),
    "gamma": dict(type=float, default=ScenarioConfig.gamma),
    "gammas": dict(required=True, help="comma-separated coefficients"),
    "x0": dict(default=None, help="start-state file"),
    "seed": dict(type=int, default=ScenarioConfig.seed),
    "dt": dict(type=float, default=ScenarioConfig.dt),
    "tmax": dict(type=float, default=ScenarioConfig.t_max),
    "stride": dict(type=_stride, default=1),
    "detail": dict(choices=DETAILS, default=DETAILS[0],
                   help="certificate detail: the verdict and its headroom (summary), "
                        "or that plus each same-side tie's own headroom and the null "
                        "vectors (full)"),
}


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gqsbnet")
    # a flag a command lacks keeps its default here, so every handler and
    # _config read the same namespace
    top.set_defaults(**{k: spec.get("default") for k, spec in _FLAGS.items() if k[-1] != "?"})
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--network", required=True,
                       help=f"edge-list file, or '{HIGHLAND_SENTINEL}' for the bundled dataset")
        p.add_argument("--weights", default=None,
                       help=f"'{HIGHLAND_SENTINEL}' relabeling 'coop,intra_neg,inter_neg'")
        p.add_argument("--out", default=None, help="output directory")
        for flag in flags:
            p.add_argument("--" + flag.rstrip("?"), **_FLAGS[flag])
    return top


def _parse_list(text: str, flag: str, kind=float, what="numbers") -> tuple:
    """The comma- or space-separated values of ``--flag``; a value that is
    not a ``kind`` names the flag and repeats its text."""
    try:
        return tuple(kind(f) for f in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"--{flag} needs {what}, got {text!r}") from None


def _config(args, gamma=None) -> ScenarioConfig:
    weights = DEFAULT_HIGHLAND_WEIGHTS
    if args.weights is not None:
        if args.network != HIGHLAND_SENTINEL:
            raise ValueError(f"--weights applies only to --network {HIGHLAND_SENTINEL}")
        weights = _parse_list(args.weights, "weights")
        if len(weights) != 3:
            raise ValueError("--weights needs three values")
    return ScenarioConfig(
        network_path=args.network,
        dominant_nodes=_parse_list("0" if args.dominant is None else args.dominant,
                                   "dominant", int, "integer node ids"),
        gamma=args.gamma if gamma is None else gamma,
        weights=weights, x0_path=args.x0, seed=args.seed, dt=args.dt, t_max=args.tmax,
    )


def _warn_gamma(gamma: float) -> None:
    # a coefficient outside (0, inf) is refused later, with no note
    if 0.0 < gamma <= 1.0:
        print(
            f"note: coefficient {gamma} <= 1 models no dominant amplification; "
            "an asymmetric split needs a coefficient above 1",
            file=sys.stderr,
        )


def _scenario(args):
    """The command's scenario, its network, and the bipartition of its
    ``--dominant`` group (None when the flag is absent)."""
    config = _config(args)
    _warn_gamma(config.gamma)
    g, _, _ = _resolve_network(config)
    if args.dominant is None:
        return config, g, None
    return config, g, bipartition_from_dominant(g, config.dominant_nodes)


def _emit(args, files: dict[str, str]) -> None:
    """Write rendered texts, each to its file under ``--out`` or in turn to
    stdout.  Handlers render every text before calling this, so a command
    that fails writes nothing."""
    if not args.out:
        sys.stdout.write("".join(files.values()))
        return
    Path(args.out).mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (Path(args.out) / name).write_text(text)


def _cmd_classify(args) -> int:
    g, _, _ = _resolve_network(_config(args))
    _emit(args, {"classification.json": render_json(classification_dict(g)) + "\n"})
    return 0


def _cmd_bipartitions(args) -> int:
    g, _, _ = _resolve_network(_config(args))
    _emit(args, {"bipartitions.json": render_json(enumerate_dict(g)) + "\n"})
    return 0


def _cmd_spectrum(args) -> int:
    from .operators import opposing_laplacian, partner_laplacian, repelling_laplacian, sym_eigvals

    _, g, b = _scenario(args)
    doc = {
        "repelling": sym_eigvals(repelling_laplacian(g)).tolist(),
        "opposing": sym_eigvals(opposing_laplacian(g)).tolist(),
    }
    if b is not None:
        doc["scaled"] = sym_eigvals(partner_laplacian(g, b)).tolist()
    _emit(args, {"spectrum.json": render_json(doc) + "\n"})
    return 0


def _cmd_certify(args) -> int:
    from .spectral import certify

    config, g, b = _scenario(args)
    cert = certify(g, b, config.gamma)
    _emit(args, {"certificate.json": render_json(certificate_dict(cert, args.detail)) + "\n"})
    return 0 if cert.verdict.flows else 2


def _cmd_simulate(args) -> int:
    from .dynamics import OutcomeKind, assess, integrate
    from .operators import generalized_laplacian

    config, g, b = _scenario(args)
    bundle = generalized_laplacian(g, b, config.gamma)
    traj = integrate(bundle, start_state(config, g.n), dt=config.dt, t_max=config.t_max)
    outcome = assess(traj, b, config.gamma)
    files = {"trajectory.csv": trajectory_to_csv(traj, stride=args.stride)}
    if args.out:
        files["outcome.json"] = render_json(outcome_dict(outcome)) + "\n"
    _emit(args, files)
    return 2 if outcome.kind in (OutcomeKind.DIVERGENCE, OutcomeKind.UNDETERMINED) else 0


def _cmd_predict(args) -> int:
    from .dynamics import predict_final
    from .operators import generalized_laplacian

    config, g, b = _scenario(args)
    final = predict_final(generalized_laplacian(g, b, config.gamma), start_state(config, g.n))
    _emit(args, {"final_state.json": render_json({"x_final": final.tolist()}) + "\n"})
    return 0


def _cmd_report(args) -> int:
    config = _config(args)
    _warn_gamma(config.gamma)
    report = run_pipeline(config)
    files = {"report.json": report_to_json(report, args.detail)}
    if args.out and report.trajectory is not None:
        files["trajectory.csv"] = trajectory_to_csv(report.trajectory, stride=args.stride)
    _emit(args, files)
    return 0 if report.certificate.verdict.flows else 2


def _cmd_sweep(args) -> int:
    gammas = _parse_list(args.gammas, "gammas")
    if not gammas:
        raise ValueError("--gammas needs at least one value")
    names: dict[str, float] = {}
    for gamma in gammas:
        name = f"report_gamma_{format(gamma, 'g').replace('.', 'p')}.json"
        if name in names:
            raise ValueError(f"coefficients {names[name]!r} and {gamma!r} would both "
                             f"write {name}")
        names[name] = gamma
    for gamma in gammas:
        _warn_gamma(gamma)
    reports = run_sweep(_config(args, gamma=gammas[0]), gammas)
    _emit(args, {name: report_to_json(report, args.detail)
                 for name, report in zip(names, reports)})
    return 0


_START = ("dominant", "gamma", "x0", "seed")
# name: (handler, help, flags beyond --network, --weights and --out)
_COMMANDS = {
    "classify": (_cmd_classify, "balance class of the network", ()),
    "bipartitions": (_cmd_bipartitions, "all antagonistic bipartitions", ()),
    "spectrum": (_cmd_spectrum, "classic and scaled spectra", ("dominant?",)),
    "certify": (_cmd_certify, "polarization certificate", ("dominant", "gamma", "detail")),
    "simulate": (_cmd_simulate, "integrate the flow", (*_START, "dt", "tmax", "stride")),
    "predict": (_cmd_predict, "closed-form final state", _START),
    "report": (_cmd_report, "full pipeline report",
               (*_START, "dt", "tmax", "stride", "detail")),
    "sweep": (_cmd_sweep, "reports across coefficients",
              ("dominant", "gammas", "x0", "seed", "dt", "tmax", "detail")),
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract reserves 2 for
        # Inconclusive/Divergence verdicts, so usage problems map to 1.
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command][0](args)
    except (GqsbError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """The console script and ``python -m gqsbnet``: ``main``, then exit.

    The process ends once the command's output is written, so the
    objects its imports made are frozen first: the collector's passes at
    interpreter exit then skip them, and refcounting still frees them.
    Exit stays ``sys.exit``, so ``atexit`` runs and a failed flush of
    stdout is still reported.
    """
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
