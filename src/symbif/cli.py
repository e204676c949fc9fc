"""Batch command-line front end.

Subcommands: spectrum, check, levels, jump, verify, euler.  Every command
emits JSON on stdout (or to --out); branch data is written as CSV next to the
JSON report.  Exit codes: 0 success, 1 computational failure (inconclusive
degree, Newton failure, incomplete table), 2 configuration errors, a command
line that does not parse included.  Each command takes the flags of the
settings it reads (_COMMANDS) and no others.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import bessel, brouwer, continuation, euler_ring, potentials, predictor, spectral

def _load_config(path):
    import configparser

    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ValueError(f"cannot read config file {path!r}")
    flat = {}
    for section in parser.sections():
        for key, value in parser[section].items():
            flat[key.replace("-", "_").lower()] = value
    return flat


def _merged(args):
    """Config-file values with the command's explicit flags winning.  A
    config file may hold keys the command does not read; they are ignored."""
    merged = _load_config(args.config) if args.config else {}
    merged.update((key, val) for key, val in vars(args).items() if val is not None)
    return merged


def _domain(opts) -> spectral.DomainId:
    kind = str(opts.get("domain", "")).lower()
    if kind not in ("sphere", "ball"):
        raise ValueError("--domain must be 'sphere' or 'ball'")
    dim = int(opts.get("dim", 0))
    return spectral.DomainId(kind, dim)


def _potential(opts) -> potentials.PotentialSpec:
    if opts.get("potential_file"):
        return potentials.from_config_file(opts["potential_file"])
    name = opts.get("potential")
    if not name:
        raise ValueError("need --potential or --potential-file")
    return potentials.builtin(str(name))


def _window(opts):
    raw = opts.get("window")
    if raw is None:
        raise ValueError("need --window a:b")
    try:
        lo, hi = (float(x) for x in str(raw).split(":"))
    except ValueError:
        lo = hi = math.nan
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"window must be a:b with finite a < b, got {str(raw)!r}")
    return lo, hi


def _seed(opts) -> int:
    return int(opts.get("seed", 0))


def _emit(doc, args) -> None:
    text = json.dumps(doc, indent=2 if args.json_pretty else None, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# --------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args):
    opts = _merged(args)
    domain = _domain(opts)
    count, cutoff = opts.get("count"), opts.get("beta_cutoff")
    if (count is None) == (cutoff is None):
        raise ValueError("need exactly one of --count and --beta-cutoff")
    if cutoff is not None:
        entries = predictor.eigen_catalog(domain, float(cutoff))
    elif domain.kind == "sphere":
        entries = spectral.sphere_spectrum(domain.dim, int(count))
    else:
        raise ValueError("--count lists sphere spectra only; give --beta-cutoff for a ball")
    return {
        "command": "spectrum",
        "domain": domain.kind,
        "dim": domain.dim,
        "entries": spectral.spectrum_to_json(entries),
        "seed": _seed(opts),
    }


def cmd_check(args):
    opts = _merged(args)
    spec = _potential(opts)
    samples = opts.get("lambda_samples")
    kwargs = {"lambda_samples": tuple(float(x) for x in str(samples).split(","))} if samples else {}
    report = potentials.check_assumptions(spec, rng=np.random.default_rng(_seed(opts)), **kwargs)
    return {"command": "check", "seed": _seed(opts), **report.to_json()}


def cmd_levels(args):
    opts = _merged(args)
    domain = _domain(opts)
    spec = _potential(opts)
    cutoff = float(opts.get("beta_cutoff", 10.0))
    eps = opts.get("epsilon")
    cands = predictor.predict(
        spec, domain, cutoff, epsilon=float(eps) if eps is not None else None
    )
    levels = predictor.lambda_set(spec, domain, cutoff)
    if domain.kind == "sphere":
        note = (
            "no admissible levels: the matrix A has no nonzero eigenvalues, so the "
            "candidate level set is empty and no bifurcation can occur"
            if not levels
            else "bifurcation on the sphere is confined to the listed levels; none occurs outside them"
        )
    else:
        note = "ball candidates carry interval alternatives, not exact levels"
    return {
        "command": "levels",
        "domain": domain.kind,
        "dim": domain.dim,
        "potential": spec.name,
        "beta_cutoff": cutoff,
        "lambda_set": levels,
        "candidates": [predictor.candidate_to_json(c) for c in cands],
        "note": note,
        "seed": _seed(opts),
    }


def _max_alpha(spec):
    """The largest modulus of an eigenvalue alpha of A."""
    return max((abs(g.value) for g in potentials.matrix_spectrum(spec.A).eigenpairs), default=0.0)


def cmd_jump(args):
    opts = _merged(args)
    domain = _domain(opts)
    spec = _potential(opts)
    lam0 = opts.get("lambda0")
    if lam0 is None:
        raise ValueError("need --lambda0 for the jump command")
    lam0 = float(lam0)
    # the default cutoff is derived from lam0, so lam0 is checked first
    if not (math.isfinite(lam0) and lam0 != 0.0):
        raise ValueError(f"lambda0 must be finite and nonzero, got {lam0}")
    # a level beta / alpha with |level| <= 2 |lam0| has beta <= 2 |lam0| max|alpha|
    cutoff = float(opts.get("beta_cutoff", max(10.0, 2.0 * abs(lam0) * _max_alpha(spec))))
    eps = opts.get("epsilon")
    if eps is None:
        eps = predictor.default_epsilon(lam0, predictor.lambda_set(spec, domain, cutoff))
    cand = predictor.degree_jump(spec, domain, lam0, float(eps), beta_cutoff=cutoff)
    return {
        "command": "jump",
        "domain": domain.kind,
        "dim": domain.dim,
        "potential": spec.name,
        "candidate": predictor.candidate_to_json(cand),
        "seed": _seed(opts),
    }


def _verify_branch(problem, lam_star, window):
    """(report record, followed branch or None if no branch was captured).
    The branch is followed at continue_branch's default step to the limits
    lam_star -/+ max(0.25 max(1, |lam_star|), 10 |lam_seed - lam_star|), cut
    to the window; its ends are the switch point, a limit hit exactly or a
    located fold, whatever the step."""
    lo, hi = window
    try:
        seed = continuation.switch_branch(problem, lam_star)
    except continuation.NoBranchError as err:
        return {"captured": False, "error": str(err)}, None
    span = max(0.25 * max(1.0, abs(lam_star)), 10.0 * abs(seed.points[0].lam - lam_star))
    limits = (max(lo, lam_star - span), min(hi, lam_star + span))
    branch = continuation.continue_branch(problem, seed, limits)
    sups = [bp.sup_norm for bp in branch.points]
    return {
        "captured": True,
        "points": len(branch.points),
        "lambda_range": [min(bp.lam for bp in branch.points), max(bp.lam for bp in branch.points)],
        "max_sup_norm": max(sups),
        "termination": branch.termination,
    }, branch


def cmd_verify(args):
    opts = _merged(args)
    domain = _domain(opts)
    spec = _potential(opts)
    window = _window(opts)
    # a level beta / alpha in the window has beta <= max(|lo|, |hi|) max|alpha|
    covering = max(abs(window[0]), abs(window[1])) * _max_alpha(spec)
    cutoff = float(opts.get("beta_cutoff", max(10.0, covering)))
    steps = int(opts.get("steps", 200))
    truncation = opts.get("truncation")
    # the Galerkin basis uses its own (denser) default truncation; the
    # prediction cutoff only bounds the candidate search
    problem = continuation.build_problem(
        domain,
        spec,
        truncation=int(truncation) if truncation is not None else None,
    )
    cands = predictor.predict(spec, domain, cutoff)
    detected = continuation.detect_bifurcation(problem, window, steps=steps)
    doc = {
        "command": "verify",
        "domain": domain.kind,
        "dim": domain.dim,
        "potential": spec.name,
        "beta_cutoff": cutoff,
        "window": list(window),
        "predicted": [predictor.candidate_to_json(c) for c in cands],
        "detected": detected,
        "seed": _seed(opts),
    }
    if cutoff < covering:
        doc["cutoff_covers_window"] = False
    branches = []
    if domain.kind == "sphere":
        in_window = [c.lambda0 for c in cands if window[0] <= c.lambda0 <= window[1]]
        matches = []
        for lam0 in in_window:
            hit = [d for d in detected if abs(d - lam0) <= 1e-6]
            rec = {"lambda0": lam0, "detected_match": hit[0] if hit else None}
            if hit:
                res, branch = _verify_branch(problem, hit[0], window)
                if branch is not None:
                    branches.append((lam0, branch))
                rec["branch"] = res
            matches.append(rec)
        unexplained = [
            d for d in detected if not any(abs(d - lam0) <= 1e-6 for lam0 in in_window)
        ]
        consistent = all(m["detected_match"] is not None for m in matches) and not unexplained
        doc["levels"] = matches
        doc["unmatched_detected"] = unexplained
        doc["verdict"] = "CONSISTENT" if consistent else "INCONSISTENT"
        if not in_window and not detected:
            doc["summary"] = "no predicted levels; no detected branches"
    else:
        records = []
        all_ok = True
        for cand in cands:
            if cand.guarantee is None:
                continue
            lo, hi = cand.guarantee.lo, cand.guarantee.hi
            inside = [d for d in detected if lo < d < hi]
            rec = {
                "lambda0": cand.lambda0,
                "interval": [lo, hi],
                "detected_inside": inside,
            }
            if inside:
                target = min(inside, key=lambda d: abs(d - cand.lambda0))
                res, branch = _verify_branch(problem, target, window)
                if branch is not None:
                    branches.append((cand.lambda0, branch))
                rec["branch"] = res
                rec["observed_alternative"] = (
                    "global-bifurcation-in-interval" if res.get("captured") else "undetermined"
                )
                rec["heuristic"] = True
                all_ok = all_ok and res.get("captured", False)
            else:
                rec["observed_alternative"] = "undetermined"
                rec["heuristic"] = True
                if window[0] <= lo and hi <= window[1]:
                    all_ok = False
                else:
                    rec["window_covers_interval"] = False
            records.append(rec)
        outside = [
            d
            for d in detected
            if not any(
                c.guarantee is not None and c.guarantee.lo < d < c.guarantee.hi for c in cands
            )
        ]
        doc["candidates"] = records
        doc["detected_outside_candidates"] = outside
        doc["verdict"] = "CONSISTENT" if all_ok else "INCONSISTENT"
    if args.out and branches:
        for lam0, branch in branches:
            stem = f"{args.out}.branch-{lam0:.6g}"
            continuation.branch_to_csv(branch, stem + ".csv")
            with open(stem + ".json", "w") as fh:
                json.dump(
                    continuation.branch_to_json(
                        branch, include_coefficients=args.branch_coefficients
                    ),
                    fh,
                    sort_keys=True,
                )
                fh.write("\n")
    return doc


def _element_from_json(doc):
    return euler_ring.element(doc["context"], doc.get("coefficients", {}))


def cmd_euler(args):
    opts = _merged(args)
    if not opts.get("input"):
        raise ValueError("need --input with an operation document")
    with open(opts["input"]) as fh:
        doc = json.load(fh)
    table = None
    if opts.get("table"):
        with open(opts["table"]) as fh:
            table = euler_ring.MultiplicationTable.from_json(json.load(fh))
    op = doc.get("op")
    if op == "add":
        result = euler_ring.add(_element_from_json(doc["e1"]), _element_from_json(doc["e2"]))
        payload = {"context": result.context, "coefficients": result.as_dict()}
    elif op == "star":
        result = euler_ring.star(
            _element_from_json(doc["e1"]), _element_from_json(doc["e2"]), table
        )
        payload = {"context": result.context, "coefficients": result.as_dict()}
    elif op == "push_forward":
        result = euler_ring.push_forward(
            _element_from_json(doc["element"]),
            doc["class_map"],
            target_context=doc["target_context"],
            admissible=bool(doc.get("admissible", False)),
        )
        payload = {"context": result.context, "coefficients": result.as_dict()}
    elif op == "scalar_unit_test":
        payload = {"scalar": euler_ring.scalar_unit_test(_element_from_json(doc["element"]))}
    elif op == "deg_minus_id":
        blocks = tuple(
            predictor.RepresentationBlock(
                beta=float(b.get("beta", 0.0)),
                copies=int(b.get("copies", 1)),
                dimension=int(b["dimension"]),
                nontrivial=bool(b["nontrivial"]),
            )
            for b in doc["blocks"]
        )
        rep = predictor.RepresentationDescriptor(blocks=blocks)
        deg = euler_ring.deg_minus_id(rep, context=doc.get("context", "H"))
        exact = deg.exact_value
        if exact is not None:
            payload = {"kind": "exact", "coefficients": exact.as_dict()}
        else:
            payload = {"kind": "atom", "dimension": rep.total_dimension, "scalar_unit": False}
    elif op == "product_decision":
        spec_deg = doc["degree"]
        if spec_deg.get("kind") == "exact":
            deg = euler_ring.SymbolicDegree.exact(_element_from_json(spec_deg["element"]))
        else:
            deg = euler_ring.SymbolicDegree.atom(
                spec_deg.get("context", "H"), int(spec_deg.get("dimension", 1))
            )
        payload = {
            "jump": euler_ring.product_decision(
                int(doc["b_plus"]), int(doc["b_minus"]), deg, doc.get("atom_side", "plus")
            )
        }
    else:
        raise ValueError(f"unknown euler op {op!r}")
    return {"command": "euler", "op": op, "result": payload, "seed": _seed(opts)}


# --------------------------------------------------------------------------
# argument parsing


# every setting once, by config key: the keyword arguments of its flag
# --key-name; a command reads the keys _COMMANDS lists, and every command
# also reads _SHARED.  Config files may set any key but the store-true
# switches and --config and --out, which are flags only.
_FLAGS = {
    "config": {"help": "config file with key = value sections"},
    "out": {"help": "write JSON here instead of stdout"},
    "seed": {"type": int},
    "json_pretty": {"action": "store_true"},
    "domain": {"help": "sphere or ball"},
    "dim": {"type": int, "help": "ambient dimension N"},
    "potential": {"help": "builtin potential name"},
    "potential_file": {"help": "user potential config"},
    "beta_cutoff": {"type": float},
    "count": {"type": int, "help": "number of distinct eigenvalues"},
    "lambda_samples": {"help": "comma-separated"},
    "lambda0": {"type": float},
    "epsilon": {"type": float},
    "truncation": {"type": int},
    "window": {"help": "a:b"},
    "steps": {"type": int},
    "branch_coefficients": {
        "action": "store_true",
        "help": "include full coefficient vectors in branch JSON files",
    },
    "input": {"help": "JSON operation document"},
    "table": {"help": "JSON multiplication table"},
}
_SHARED = ("config", "out", "seed", "json_pretty")
_PROBLEM = ("domain", "dim", "potential", "potential_file", "beta_cutoff")
_COMMANDS = {
    "spectrum": (cmd_spectrum, ("domain", "dim", "beta_cutoff", "count")),
    "check": (cmd_check, ("potential", "potential_file", "lambda_samples")),
    "levels": (cmd_levels, (*_PROBLEM, "epsilon")),
    "jump": (cmd_jump, (*_PROBLEM, "lambda0", "epsilon")),
    "verify": (cmd_verify, (*_PROBLEM, "truncation", "window", "steps", "branch_coefficients")),
    "euler": (cmd_euler, ("input", "table")),
}


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error instead of exiting, so that main reports it
    as a JSON configuration error; subparsers inherit the class.  A value
    that starts with a negative number, lists such as -0.5,0.5 and windows
    such as -1:2 included, is a value and not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d[\d.eE+\-,:]*$")

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser(names=tuple(_COMMANDS)):
    """The parser of the named commands, all of them by default."""
    parser = _Parser(
        prog="symbif",
        description="Symmetry-breaking bifurcation levels for elliptic systems "
        "on spheres and balls, with numerical branch verification.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in names:
        fn, keys = _COMMANDS[name]
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        for key in (*_SHARED, *keys):
            sp.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
    return parser


_COMPUTATIONAL = (
    bessel.NeumannRootError,
    brouwer.InconclusiveDegreeError,
    brouwer.AdmissibilityError,
    continuation.NewtonError,
    continuation.NoBranchError,
    euler_ring.TableIncompleteError,
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command line that starts with a command parses with that command's
    # subparser alone; any other (help, a typo, none) needs all of them for
    # its usage and error texts
    named = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    try:
        args = build_parser(named).parse_args(argv)
        doc = args.fn(args)
    except (*_COMPUTATIONAL, argparse.ArgumentError, ValueError, KeyError, OSError) as err:
        # exit 1 for a computational failure, 2 for a configuration error
        sys.stderr.write(
            json.dumps({"error": {"type": type(err).__name__, "message": str(err)}}) + "\n"
        )
        return 1 if isinstance(err, _COMPUTATIONAL) else 2
    _emit(doc, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
