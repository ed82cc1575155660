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
from functools import partial
from itertools import combinations, product

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
    if env is None:
        return tokens.DEFAULT_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise click.UsageError(f"bad TOKEN_SPECTRA_CAP={env!r}, expected an integer >= 1")
    return cap


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
            except ValueError:
                mult = 0
            if mult < 1:
                raise click.UsageError(f"bad component multiplier in {item!r}, expected *N with N >= 1")
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


def _writable(ctx, param, value: str | None) -> str | None:
    """An output path, opened once before any work: one error line and exit 2 where it cannot be."""
    if value and value != "-":
        existed = os.path.lexists(value)
        try:
            open(value, "a").close()
        except OSError as exc:
            click.echo(f"error: cannot open {value!r} for writing: {exc.strerror}", err=True)
            ctx.exit(EXIT_USAGE)
        if not existed:
            os.remove(value)
    return value


def _emit(text: str, output: str | None) -> None:
    if not output or output == "-":
        click.echo(text, nl=False)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:  # newline="": CSV rows end in \r\n
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
@click.option("--cap", type=click.IntRange(min=1), default=None, help="token vertex cap")
@click.option("-o", "--output", help="output file (default stdout)", callback=_writable)
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
            base, k, cap = need("graph"), need("k"), opts["cap"]
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
@click.option("-o", "--output", help="output file (default stdout)", callback=_writable)
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
# The instance is a tuple of option names, read in order as the positional
# arguments, or a builder over the options, returning (args, kwargs); see
# _check_call. Functions are looked up by name at call time, so that wrappers
# put on the verify module after import see every call.
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
        """The option's value, with the graph parsed from its spec; UsageError when it is not set."""
        if self[key] in (None, ()):
            raise click.UsageError(f"{self.what} needs {'-' if len(key) == 1 else '--'}{key}")
        return _parse_graph_spec(self[key]) if key == "graph" else self[key]

    def reject_unread(self, *also: str) -> None:
        """UsageError naming every option given on the command line that was not read, nor in also."""
        given = {key for key in self if self.ctx.get_parameter_source(key) is ParameterSource.COMMANDLINE}
        unused = given - self.read - set(also)
        if unused:
            flags = ", ".join(p.get_error_hint(self.ctx) for p in self.ctx.command.params if p.name in unused)
            raise click.UsageError(f"{self.what} does not take {flags}")


def _check_call(check_id: str, opts: dict, need):
    """check_id's call, with no arguments left: its instance read from opts by need(key), then the keywords set."""
    name, instance, keywords, fixed = CHECKS[check_id]
    args, kwargs = instance(opts, need) if callable(instance) else (tuple(need(key) for key in instance), {})
    kwargs = {**kwargs, **{key: opts[key] for key in keywords if opts[key] is not None}, **fixed}
    return lambda: getattr(verify, name)(*args, **kwargs)


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
@click.option("--cap", type=click.IntRange(min=1), default=None)
@click.option("--pretty", is_flag=True)
@click.pass_context
def verify_cmd(ctx, check_id, **opts):
    """Run one check and print its certificate; exit 1 on mathematical failure, 2 on an unread option."""
    opts["cap"] = opts["cap"] if opts["cap"] is not None else _default_cap()
    opts = _ReadRecorder(ctx, "", opts)
    if check_id == "containment" and opts["exact"]:  # --exact is read by containment only
        check_id = "containment-exact"
    opts.what = f"check {check_id!r}"
    try:
        call = _check_call(check_id, opts, opts.need)
        opts.reject_unread("pretty")
        cert = call()
    except GraphError as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(_json_dump(cert.to_json_dict(), opts["pretty"]), nl=False)
    if cert.failed:
        sys.exit(EXIT_FAIL)


# ---------------------------------------------------------------------------
# sweep


def _number(val, what: str, kind=int):
    """val as kind, an integer or a real number in [0, 1]; kind() reads it first, so what it cannot read fails there."""
    x = kind(val)
    if type(val) not in (int, kind) or kind is float and not 0 <= x <= 1:
        raise ValueError(f"{what} {val!r} is not {'an integer' if kind is int else 'a real number in [0, 1]'}")
    return x


def _span(fam: dict, key: str) -> range:
    """The family's bound key, an integer n or a list [lo, hi], as the range n..n or lo..hi."""
    val = fam.get(key)
    if val is None:
        raise click.UsageError(f"family {fam['name']!r} needs {key!r}")
    bounds = val if isinstance(val, list) else [val, val]
    lo, hi = int(bounds[0]), int(bounds[1])  # what int() cannot read fails here, as in _number
    if len(bounds) != 2 or any(type(b) is not int for b in bounds):
        raise ValueError(f"{key} {val!r} is not an integer or two integers")
    return range(lo, hi + 1)


def _drawn(fam: dict, draw) -> list:
    """The family's count graphs draw()(n), n cycling through its span of n; count is read before draw()."""
    count, draw = _number(fam.get("count", 10), "count"), draw()
    ns = list(_span(fam, "n"))
    if count and not ns:
        raise ValueError(f"family {fam['name']!r} has no n in {fam['n']!r} to draw {count} graphs from")
    return [(f"{fam['name']}:{ns[i % len(ns)]}#{i}", draw(ns[i % len(ns)])) for i in range(count)]


# sweep family -> (the option its instances give, a builder over the family object and the rng
# returning [(instance id, value)]); parameters are read, and graphs drawn, in list order
SWEEP_FAMILIES = {
    **dict.fromkeys(("path", "cycle", "complete", "star"), ("graph", lambda fam, rng: [
        (f"{fam['name']}:{n}", graphs.build_standard(fam["name"], [n])) for n in _span(fam, "n")])),
    "complete_bipartite": ("graph", lambda fam, rng: [
        (f"complete_bipartite:{n1},{n2}", graphs.complete_bipartite_graph(n1, n2))
        for n1 in _span(fam, "n1") for n2 in _span(fam, "n2") if n1 <= n2]),
    "tree_random": ("graph", lambda fam, rng: _drawn(fam, lambda: partial(graphs.random_tree, rng=rng))),
    "random_connected": ("graph", lambda fam, rng: _drawn(fam, lambda: partial(
        graphs.random_connected_gnp, p=_number(fam.get("p", 0.5), "p", float), rng=rng))),
    "theta_table": ("r", lambda fam, rng: [(f"theta_table:{r}", r) for r in _span(fam, "r")]),
}


def _sweep_tasks(spec: dict, rng: random.Random, opts: dict) -> list[tuple[dict, dict | None]]:
    """Every cell as (row key, the check's options), after checking the checks against the tables: a family
    gives graph or r, the sweep adds k, u and v, and a check is sweepable where its instance is a tuple of these."""
    checks = spec.get("checks")
    if not isinstance(checks, list) or not checks or not all(isinstance(c, str) for c in checks):
        raise click.UsageError("sweep spec needs a non-empty checks list")
    for check in checks:
        if check not in CHECKS:
            raise click.UsageError(f"unknown check {check!r}")
        if not isinstance(CHECKS[check][1], tuple) or not {"graph", "r", "k", "u", "v"}.issuperset(CHECKS[check][1]):
            raise click.UsageError(f"check {check!r} is not sweepable")
    k_range = spec.get("k_range", [2, 2])
    if not (isinstance(k_range, list) and len(k_range) == 2 and all(type(k) is int for k in k_range)):
        raise click.UsageError(f"bad sweep spec: k_range {k_range!r} is not two integers")
    fam = spec.get("family")
    if not isinstance(fam, dict) or "name" not in fam:
        raise click.UsageError("sweep spec needs a family object with a name")
    if not isinstance(fam["name"], str) or fam["name"] not in SWEEP_FAMILIES:
        raise click.UsageError(f"unknown sweep family {fam['name']!r}")
    gives, build = SWEEP_FAMILIES[fam["name"]]
    instances = build(fam, rng)
    for check in checks:
        if CHECKS[check][1][0] != gives:
            raise click.UsageError(f"check {check!r} does not apply to family {fam['name']!r}")

    tasks = []
    for (inst_id, value), check in product(instances, checks):
        keys, cells = CHECKS[check][1], [{**opts, gives: value}]
        if "k" in keys:  # one cell per k the graph has room for
            cells = [{**cells[0], "k": k} for k in range(k_range[0], k_range[1] + 1) if 1 <= k <= max(1, value.n - 1)]
        if "u" in keys:  # one random non-edge, drawn only where there is one; None where there is not
            non_edges = [e for e in combinations(range(value.n), 2) if not value.has_edge(*e)]
            cells = [{**cells[0], **dict(zip("uv", rng.choice(non_edges)))} if non_edges else None]
        tasks += [({"instance": inst_id, "check": check, "k": cell["k"] if "k" in keys else ""}, cell)
                  for cell in cells]
    return tasks


def _sweep_row(task: tuple[dict, dict | None]) -> dict:
    """Run one (instance, check) cell; returns the CSV row as a dict."""
    key, opts = task
    unmet = {**key, "verdict": verify.PRECONDITION_UNMET, "runtime_ms": 0}
    if opts is None:
        return {**unmet, "detail": "no non-edge available"}
    try:
        cert = _check_call(key["check"], opts, opts.__getitem__)()
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
    return {**key, "verdict": cert.verdict,
            "detail": json.dumps(detail, sort_keys=True), "runtime_ms": cert.runtime_ms}


@main.command()
@click.argument("spec_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--csv", "csv_path", help="write rows as CSV to this path (default stdout)", callback=_writable)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=None, help="override the spec seed")
@click.option("--cap", type=click.IntRange(min=1), default=None)
@click.option("--pretty", is_flag=True)
def sweep(spec_file, csv_path, jobs, seed, cap, pretty):
    """Run a batch of checks over a family of instances; summary JSON on stdout."""
    spec = _load_sweep_spec(spec_file)
    try:
        rng = random.Random(seed if seed is not None else _number(spec.get("seed", 0), "seed"))
        if cap is None:  # the environment is read only where neither --cap nor the spec sets the cap
            cap = _number(spec["cap"], "cap") if "cap" in spec else _default_cap()
        if cap < 1:
            raise ValueError(f"cap {cap!r} is not an integer >= 1")
        tols = spec.get("tolerances", {})
        if not isinstance(tols, dict):
            raise ValueError(f"tolerances {tols!r} is not an object")
        tol = tols.get("tol")
        if tol is not None and type(tol) not in (int, float):
            raise ValueError(f"tol {tol!r} is not a number")
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
    writer.writerows(rows)
    _emit(buf.getvalue(), csv_path)

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
            import tomllib  # imported here, so that a JSON spec does not pay for it

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
