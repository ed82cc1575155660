"""Command-line front end: construct graphs, compute spectra, run checks and sweeps.

Output is machine-first (JSON documents, CSV sweep rows); --pretty switches
the JSON to indented form. Exit codes are stable: 0 all-pass, 1 a check
failed mathematically or a sweep cell errored, 2 usage or parse error, 3 the
vertex cap or the memory estimate refused the work, 130 the run was
cancelled (Ctrl-C).
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations

import click
from click.core import ParameterSource

from . import exact, graphs, spectra, tokens, verify
from .graphs import Graph, GraphError, KiteSpec
from .spectra import NumericalError
from .tokens import CapExceededError

EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_CANCEL = 130


def _default_cap() -> int:
    env = os.environ.get("TOKEN_SPECTRA_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise click.UsageError(f"bad TOKEN_SPECTRA_CAP={env!r}") from exc
    return tokens.DEFAULT_CAP


def _parse_graph_spec(spec: str) -> Graph:
    """Parse "family:params" (e.g. cycle:4, complete_bipartite:2,3) or a file path."""
    if ":" in spec:
        name, _, rest = spec.partition(":")
        if name in graphs.STANDARD_FAMILIES:
            try:
                params = [int(x) for x in rest.split(",") if x != ""]
            except ValueError as exc:
                raise click.UsageError(f"bad graph spec {spec!r}") from exc
            try:
                return graphs.build_standard(name, params)
            except GraphError as exc:
                raise click.UsageError(str(exc)) from exc
    path = spec[1:] if spec.startswith("@") else spec
    try:
        with open(path, "r", encoding="ascii") as fh:
            return graphs.parse_edge_list(fh.read())
    except OSError as exc:
        raise click.UsageError(f"cannot read graph {spec!r}: {exc}") from exc
    except GraphError as exc:
        raise click.UsageError(f"bad edge list in {spec!r}: {exc}") from exc


def _parse_components(specs: tuple[str, ...]) -> list[Graph]:
    out = []
    for item in specs:
        mult = 1
        body = item
        if "*" in item:
            body, _, times = item.rpartition("*")
            try:
                mult = int(times)
            except ValueError as exc:
                raise click.UsageError(f"bad component multiplier in {item!r}") from exc
        g = _parse_graph_spec(body)
        out.extend([g] * mult)
    return out


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        u, v = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise click.UsageError(f"bad pair {text!r}, expected 'u,v'") from exc
    return u, v


def _tolerance(ctx, param, value: float | None, hint: str | None = None) -> float | None:
    """A tolerance, None where unset; exit 2 where it is negative, NaN or infinite, which no check can read."""
    if value is not None and not 0 <= value < float("inf"):
        raise click.BadParameter(f"{value!r} is not a finite number >= 0", ctx, param, hint)
    return value


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        click.echo(text, nl=False)
    else:
        with open(output, "w", encoding="ascii") as fh:
            fh.write(text)


def _json_dump(obj, pretty: bool) -> str:
    return json.dumps(obj, indent=2 if pretty else None) + "\n"


class _Main(click.Group):
    def invoke(self, ctx):
        # one exit path each for cancellation, refused resources and a solver or certificate fault
        try:
            return super().invoke(ctx)
        except KeyboardInterrupt:
            click.echo("cancelled", err=True)
            ctx.exit(EXIT_CANCEL)
        except CapExceededError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(EXIT_CAP)
        except (NumericalError, AssertionError) as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(EXIT_FAIL)


@click.group(cls=_Main)
def main() -> None:
    """Token graphs, Laplacian spectra, and theorem-instance verification."""


# ---------------------------------------------------------------------------
# construct


@main.command()
@click.argument("family")
@click.argument("params", nargs=-1, type=int)
@click.option("--head", help="head graph spec for kite/superkite")
@click.option("--root", type=int, default=0, show_default=True)
@click.option("-s", "s", type=int, help="number of tail paths / tree copies")
@click.option("-r", "r", type=int, help="tail path length (kite) or clique size (cutclique)")
@click.option("--tree", help="tree spec for superkite")
@click.option("--tree-root", type=int, default=0, show_default=True)
@click.option("--comp", multiple=True, help="component spec (repeatable, allows '*N')")
@click.option("--chord", multiple=True, help="extended-cycle chord 'i,j' (repeatable)")
@click.option("--nu", type=int, help="chord index sum for extended cycles")
@click.option("--mode", help="bipartite extension mode: plus_x or star_y")
@click.option("--edge", multiple=True, help="extra side-X edge 'u,v' (repeatable)")
@click.option("--graph", help="base graph for token construction")
@click.option("-k", type=int, help="token count for token construction")
@click.option("--cap", type=int, default=None, help="token vertex cap")
@click.option("-o", "--output", help="output file (default stdout)")
@click.pass_context
def construct(ctx, family, **opts):
    """Write a graph in edge-list format; exit 2 on an option FAMILY does not read.

    FAMILY is one of: path, cycle, complete, complete_bipartite, star,
    kite, superkite, cutclique, extcycle, bipartite, token.
    """
    opts = _ReadRecorder(ctx, f"family {family!r}", opts)
    need = opts.need
    try:
        if family in graphs.STANDARD_FAMILIES:
            g = graphs.build_standard(family, list(opts["params"]))
        elif family == "kite":
            g = graphs.build_kite(_kite_spec(opts, need))
        elif family == "superkite":
            g = graphs.build_superkite(_parse_graph_spec(need("head")), opts["root"],
                                       _parse_graph_spec(need("tree")), opts["tree_root"], need("s"))
        elif family == "cutclique":
            g = graphs.build_cut_clique_join(need("r"), _parse_components(need("comp")))
        elif family == "extcycle":
            if len(opts["params"]) != 1:
                raise click.UsageError("extcycle needs the cycle order")
            g = graphs.build_extended_cycle(opts["params"][0], _pairs(opts["chord"]), nu=opts["nu"])
        elif family == "bipartite":
            if len(opts["params"]) != 2:
                raise click.UsageError("bipartite needs n1 n2 and --mode")
            g = graphs.build_bipartite_extension(*opts["params"], need("mode"), _pairs(opts["edge"]))
        elif family == "token":
            base, k, cap = _parse_graph_spec(need("graph")), need("k"), opts["cap"]
        else:
            raise click.UsageError(f"unknown family {family!r}")
        opts.reject_unread("output")
        if family == "token":
            g = tokens.token_graph(base, k, cap=cap if cap is not None else _default_cap())
    except GraphError as exc:
        raise click.UsageError(str(exc)) from exc
    _emit(g.to_edge_list_text() if family == "token" else graphs.format_edge_list(g), opts["output"])


# ---------------------------------------------------------------------------
# spectrum


@main.command()
@click.argument("graph_spec")
@click.option("--exact", "exact_flag", is_flag=True, help="include the exact characteristic polynomial")
@click.option("--tol", type=float, default=spectra.DEFAULT_RESID_TOL, show_default=True, callback=_tolerance)
@click.option("--group-tol", type=float, default=spectra.DEFAULT_GROUP_TOL, show_default=True, callback=_tolerance)
@click.option("--pretty", is_flag=True)
@click.option("-o", "--output", help="output file (default stdout)")
def spectrum(graph_spec, exact_flag, tol, group_tol, pretty, output):
    """Laplacian spectrum of a graph, as JSON."""
    g = _parse_graph_spec(graph_spec)
    spec = spectra.eig_sym(spectra.laplacian(g).astype(float), resid_tol=tol, group_tol=group_tol)
    doc = {"values": spec.values.tolist(),
           "groups": [{"value": value, "mult": grp.stop - grp.start}
                      for value, grp in zip(spec.distinct_values(), spec.groups)],
           "tolerances": {"resid_tol": tol, "group_tol": group_tol},
           "n": g.n, "m": g.m,
           "algebraic_connectivity": spectra.fiedler_value(spec.values) if g.n >= 2 else None}
    if exact_flag:
        doc["char_poly"] = exact.char_poly(spectra.laplacian(g)).to_json_list()
    _emit(_json_dump(doc, pretty), output)


# ---------------------------------------------------------------------------
# the check table


def _pairs(texts) -> list[tuple[int, int]]:
    return [_parse_pair(t) for t in texts]


def _kite_spec(opts: dict, need) -> KiteSpec:
    return KiteSpec(head=_parse_graph_spec(need("head")), root=opts["root"], s=need("s"), r=need("r"))


def _kite_head(opts: dict, need):
    kw = dict(s=need("s"), r=need("r"), head_edges=_pairs(opts["add_head"]),
              tail_edges=_pairs(opts["add"]))
    if need("variant") == "cycle":
        return ("cycle",), dict(h=need("order"), **kw)
    return ("bipartite",), dict(h1=need("h1"), h2=need("h2"), root_side=opts["side"], **kw)


def _cut_clique(opts: dict, need):
    removed = _pairs(opts["remove"])
    comps = _parse_components(need("comp"))
    return (need("r"), comps), dict(removed_join_edges=removed)


# check id -> (name of its verify.check_* function, the instance it takes,
#              the options it receives when they are set, its fixed keywords).
# The instance is a tuple of option names, which verify reads from its
# options and sweep supplies for ("graph", "k"), ("graph", "u", "v") and
# ("r",); or a builder over the verify options, returning (args, kwargs).
# Functions are looked up by name at call time, so that wrappers put on
# the verify module after import see every call.
CHECKS = {
    "alpha-token": ("check_alpha_token_equality", ("graph", "k"), ("tol", "cap"), {}),
    "containment": ("check_spectral_containment", ("graph", "k"), ("cap",), {"mode": "float"}),
    "containment-exact": ("check_spectral_containment", ("graph", "k"), ("cap",), {"mode": "exact"}),
    "pendant-bound": ("check_pendant_bound", ("graph", "k"), ("tol", "cap"), {}),
    "edge-add-iff": ("check_edge_add_alpha_iff", ("graph", "u", "v"), ("tol",), {}),
    "interlacing": ("check_interlacing", ("graph", "u", "v"), ("tol",), {}),
    "theta-table": ("check_theta_table", ("r",), ("tol",), {}),
    "cut-vertex-split": ("check_cut_vertex_split", ("graph", "vertex"), ("tol",), {}),
    "tail-edges": ("check_tail_edges_preserve_alpha",
                   lambda o, need: ((_kite_spec(o, need), _pairs(o["add"])), {}), ("tol",), {}),
    "kite-iff": ("check_kite_alpha_theta_iff",
                 lambda o, need: ((_kite_spec(o, need),), {}), ("tol",), {}),
    "symmetrizer": ("check_symmetrizer_commutation",
                    lambda o, need: ((_kite_spec(o, need),), {"uj_edges": _pairs(o["add"]) or None}),
                    ("tol",), {}),
    "kite-head": ("check_kite_head_family", _kite_head, ("tol", "cap", "k"), {}),
    "cut-clique": ("check_cut_clique", _cut_clique, ("tol", "cap", "k"), {}),
    "bipartite-ext": ("check_bipartite_extension",
                      lambda o, need: ((need("n1"), need("n2"), need("mode")), {"x_edges": _pairs(o["edge"])}),
                      ("tol", "cap", "k"), {}),
}
_SWEEP_INSTANCES = (("graph", "k"), ("graph", "u", "v"), ("r",))


class _ReadRecorder(dict):
    """Options that remember which keys were read, so unused ones can be rejected; what names them in errors."""

    def __init__(self, ctx: click.Context, what: str, opts: dict) -> None:
        super().__init__(opts)
        self.ctx, self.what = ctx, what
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def need(self, key):
        """The option's value; UsageError when it is not set."""
        if self[key] in (None, ()):
            raise click.UsageError(f"{self.what} needs {'-' if len(key) == 1 else '--'}{key}")
        return self[key]

    def reject_unread(self, *also: str) -> None:
        """UsageError naming every option given on the command line that was not read, nor in also."""
        given = {key for key in self if self.ctx.get_parameter_source(key) is ParameterSource.COMMANDLINE}
        unused = given - self.read - set(also)
        if unused:
            flags = ", ".join(p.get_error_hint(self.ctx) for p in self.ctx.command.params if p.name in unused)
            raise click.UsageError(f"{self.what} does not take {flags}")


def _run_check(check_id: str, args: tuple, opts: dict, kwargs: dict) -> verify.Certificate:
    name, _, keywords, fixed = CHECKS[check_id]
    kwargs = {**kwargs, **{key: opts[key] for key in keywords if opts[key] is not None}, **fixed}
    return getattr(verify, name)(*args, **kwargs)


# ---------------------------------------------------------------------------
# verify


@main.command(name="verify")
@click.argument("check_id", type=click.Choice(list(CHECKS)), metavar="CHECK_ID")
@click.option("--graph", help="graph spec or edge-list file")
@click.option("-k", type=int)
@click.option("-u", type=int)
@click.option("-v", type=int)
@click.option("--exact", is_flag=True, help="containment: decide by exact divisibility")
@click.option("--head", help="kite head graph spec")
@click.option("--root", type=int, default=0, show_default=True)
@click.option("-s", "s", type=int)
@click.option("-r", "r", type=int)
@click.option("--variant", type=click.Choice(["cycle", "bipartite"]))
@click.option("--order", type=int, help="cycle head order h")
@click.option("--h1", type=int)
@click.option("--h2", type=int)
@click.option("--side", type=int, default=1, show_default=True, help="root side for bipartite heads")
@click.option("--add", multiple=True, help="tail edge 'u,v' to add (repeatable)")
@click.option("--add-head", multiple=True, help="head edge 'u,v' to add (repeatable)")
@click.option("--comp", multiple=True, help="cut-clique component spec (repeatable, allows '*N')")
@click.option("--remove", multiple=True, help="join edge 'u,v' to remove (repeatable)")
@click.option("--n1", type=int)
@click.option("--n2", type=int)
@click.option("--mode", type=click.Choice(["plus_x", "star_y"]))
@click.option("--edge", multiple=True, help="side-X edge 'u,v' (repeatable)")
@click.option("--vertex", type=int, help="cut vertex")
@click.option("--tol", type=float, help="comparison tolerance  [default: the check's own]", callback=_tolerance)
@click.option("--cap", type=int, default=None)
@click.option("--pretty", is_flag=True)
@click.pass_context
def verify_cmd(ctx, check_id, **opts):
    """Run one check and print its certificate; exit 1 on mathematical failure, 2 on an unread option."""
    opts["cap"] = opts["cap"] if opts["cap"] is not None else _default_cap()
    opts = _ReadRecorder(ctx, "", opts)
    if check_id == "containment" and opts["exact"]:  # --exact is read by containment only
        check_id = "containment-exact"
    opts.what = f"check {check_id!r}"
    _, instance, keywords, _ = CHECKS[check_id]
    try:
        if callable(instance):
            args, kwargs = instance(opts, opts.need)
        else:
            args = tuple(_parse_graph_spec(opts.need(key)) if key == "graph" else opts.need(key) for key in instance)
            kwargs = {}
        opts.reject_unread(*keywords, "pretty")
        cert = _run_check(check_id, args, opts, kwargs)
    except GraphError as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(_json_dump(cert.to_json_dict(), opts["pretty"]), nl=False)
    if cert.failed:
        sys.exit(EXIT_FAIL)


# ---------------------------------------------------------------------------
# sweep


def _sweep_instances(spec: dict, rng: random.Random) -> list[tuple[str, Graph | int]]:
    fam = spec.get("family")
    if not isinstance(fam, dict) or "name" not in fam:
        raise click.UsageError("sweep spec needs a family object with a name")
    name = fam["name"]
    out: list[tuple[str, Graph | int]] = []

    def span(key, default=None):
        val = fam.get(key, default)
        if val is None:
            raise click.UsageError(f"family {name!r} needs {key!r}")
        if isinstance(val, list):
            lo, hi = int(val[0]), int(val[1])
            return range(lo, hi + 1)
        return range(int(val), int(val) + 1)

    if name in ("path", "cycle", "complete", "star"):
        for n in span("n"):
            out.append((f"{name}:{n}", graphs.build_standard(name, [n])))
    elif name == "complete_bipartite":
        for n1 in span("n1"):
            for n2 in span("n2"):
                if n1 <= n2:
                    out.append((f"complete_bipartite:{n1},{n2}",
                                graphs.complete_bipartite_graph(n1, n2)))
    elif name == "tree_random":
        count = int(fam.get("count", 10))
        ns = list(span("n"))
        for i in range(count):
            n = ns[i % len(ns)]
            out.append((f"tree_random:{n}#{i}", graphs.random_tree(n, rng)))
    elif name == "random_connected":
        count = int(fam.get("count", 10))
        p = float(fam.get("p", 0.5))
        ns = list(span("n"))
        for i in range(count):
            n = ns[i % len(ns)]
            out.append((f"random_connected:{n}#{i}", graphs.random_connected_gnp(n, p, rng)))
    elif name == "theta_table":
        for r in span("r"):
            out.append((f"theta_table:{r}", r))
    else:
        raise click.UsageError(f"unknown sweep family {name!r}")
    return out


def _sweep_tasks(spec: dict, rng: random.Random, opts: dict) -> list[dict]:
    """Every cell of the sweep, after checking each requested check against the table."""
    checks = spec.get("checks")
    if not isinstance(checks, list) or not checks or not all(isinstance(c, str) for c in checks):
        raise click.UsageError("sweep spec needs a non-empty checks list")
    for check in checks:
        if check not in CHECKS:
            raise click.UsageError(f"unknown check {check!r}")
        if CHECKS[check][1] not in _SWEEP_INSTANCES:
            raise click.UsageError(f"check {check!r} is not sweepable")
    k_range = spec.get("k_range", [2, 2])
    if not (isinstance(k_range, list) and len(k_range) == 2 and all(type(k) is int for k in k_range)):
        raise click.UsageError(f"bad sweep spec: k_range {k_range!r} is not two integers")
    ks = range(k_range[0], k_range[1] + 1)
    instances = _sweep_instances(spec, rng)
    family = spec["family"]["name"]
    for check in checks:
        if (CHECKS[check][1] == ("r",)) != (family == "theta_table"):
            raise click.UsageError(f"check {check!r} does not apply to family {family!r}")

    tasks = []
    for inst_id, inst in instances:
        for check in checks:
            instance = CHECKS[check][1]
            key = {"instance": inst_id, "check": check, "k": ""}
            if instance == ("r",):
                tasks.append({"key": key, "check": check, "args": (inst,), "opts": opts})
            elif instance == ("graph", "u", "v"):
                non_edges = [e for e in combinations(range(inst.n), 2) if not inst.has_edge(*e)]
                pair = rng.choice(non_edges) if non_edges else None
                tasks.append({"key": key, "check": check, "opts": opts,
                              "args": None if pair is None else (inst, *pair)})
            else:
                tasks.extend({"key": {**key, "k": k}, "check": check, "args": (inst, k), "opts": opts}
                             for k in ks if 1 <= k <= max(1, inst.n - 1))
    return tasks


def _sweep_row(task: dict) -> dict:
    """Run one (instance, check) cell; returns the CSV row as a dict."""
    unmet = {**task["key"], "verdict": verify.PRECONDITION_UNMET, "runtime_ms": 0}
    if task["args"] is None:
        return {**unmet, "detail": "no non-edge available"}
    try:
        cert = _run_check(task["check"], task["args"], task["opts"], {})
    except CapExceededError as exc:
        return {**unmet, "verdict": "cap_exceeded", "detail": str(exc)}
    except GraphError as exc:
        # the generated instance does not meet this check's preconditions
        return {**unmet, "detail": str(exc)}
    except (NumericalError, AssertionError) as exc:
        # a solver or internal consistency fault in this cell only
        return {**unmet, "verdict": "error", "detail": str(exc)}
    detail = {kk: vv for kk, vv in cert.witnesses.items()
              if isinstance(vv, (int, float, str, bool))}
    return {**task["key"], "verdict": cert.verdict,
            "detail": json.dumps(detail, sort_keys=True), "runtime_ms": cert.runtime_ms}


@main.command()
@click.argument("spec_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--csv", "csv_path", help="write rows as CSV to this path (default stdout)")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=None, help="override the spec seed")
@click.option("--cap", type=int, default=None)
@click.option("--pretty", is_flag=True)
def sweep(spec_file, csv_path, jobs, seed, cap, pretty):
    """Run a batch of checks over a family of instances; summary JSON on stdout."""
    spec = _load_sweep_spec(spec_file)
    try:
        rng = random.Random(seed if seed is not None else int(spec.get("seed", 0)))
        cap = cap if cap is not None else int(spec.get("cap", _default_cap()))
        tol = spec.get("tolerances", {}).get("tol")
        tol = _tolerance(None, None, None if tol is None else float(tol), "tolerances.tol in the sweep spec")
        tasks = _sweep_tasks(spec, rng, {"tol": tol, "cap": cap})
    except (ValueError, TypeError, LookupError, AttributeError, ZeroDivisionError) as exc:
        # a spec value of the wrong type or shape, or one no instance can be built from
        raise click.UsageError(f"bad sweep spec: {exc}") from exc

    workers = min(jobs, len(tasks))  # the pool starts every worker at its first submit
    if workers > 1:
        # multiprocessing.Pool.map's default chunk size: about four chunks per worker,
        # so each worker pickles a few batches instead of one round trip per cell
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_row, tasks, chunksize=-(-len(tasks) // (4 * workers))))
    else:
        rows = [_sweep_row(t) for t in tasks]

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["instance", "check", "k", "verdict", "detail", "runtime_ms"])
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    if csv_path and csv_path != "-":
        with open(csv_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())
    else:
        click.echo(buf.getvalue(), nl=False)

    zero = {"pass": 0, "fail": 0, "precondition_unmet": 0, "cap_exceeded": 0}
    counts = dict(zero)
    by_check: dict[str, dict] = {}
    for row in rows:
        for tally in (counts, by_check.setdefault(row["check"], dict(zero))):
            tally[row["verdict"]] = tally.get(row["verdict"], 0) + 1
    summary = {"total": len(rows), **counts, "by_check": by_check}
    click.echo(_json_dump(summary, pretty), nl=False)
    if counts["fail"] or counts.get("error"):
        sys.exit(EXIT_FAIL)


def _load_sweep_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if path.endswith(".toml"):
            try:
                import tomllib  # Python >= 3.11
            except ImportError:
                try:
                    import tomli as tomllib
                except ImportError as exc:
                    raise click.UsageError("TOML sweep specs need Python 3.11+ or tomli") from exc
            spec = tomllib.loads(text)
        else:
            spec = json.loads(text)
    except ValueError as exc:  # undecodable text, and JSON and TOML syntax errors
        raise click.UsageError(f"bad sweep spec: {exc}") from exc
    if not isinstance(spec, dict):
        raise click.UsageError("bad sweep spec: expected an object at the top level")
    return spec


if __name__ == "__main__":
    main()
